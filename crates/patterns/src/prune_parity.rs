//! Pruned ≡ unpruned (DESIGN.md §15): the pruned refresh of both lattice
//! walks changes how a benefit is recounted, never what a solve decides.
//!
//! Each case solves optimized CMC and optimized CWSC under every cost
//! function on one random skewed table: cold and on a warm stash that
//! the case's earlier solves grew, unbounded and under a tick budget,
//! each once with the pruned refresh and once with the literal recount.
//! The two must agree on the outcome (degraded partials and their
//! certificates included), the ticks spent, the event stream and the
//! decision-ledger bytes. Only the refresh's own reports may differ:
//! `scan_pruned`, `bound_refreshed` and the `scan_prune` span.
//!
//! The tables hold 200 to 480 rows, so row lists on both sides of
//! `kernel_min_rows` are recounted, and the CMC guesses select well past
//! `DELTA_MAX_ROUNDS` times after pushing their first candidates, so
//! stale entries reach both the exact delta and the full mask recount.

use crate::cost_fn::CostFn;
use crate::lattice::LatticeStash;
use crate::opt_cmc::opt_cmc_stashed;
use crate::opt_cwsc::opt_cwsc_stashed;
use crate::pattern_solution::PatternSolution;
use crate::space::PatternSpace;
use crate::table::Table;
use crate::test_util::skewed_table;
use proptest::prelude::*;
use scwsc_core::algorithms::CmcParams;
use scwsc_core::engine::{Deadline, EngineError, SolveOutcome};
use scwsc_core::telemetry::{DecisionLedger, Event, Observer, PHASE_SCAN_PRUNE};

const COSTS: [CostFn; 4] = [CostFn::Max, CostFn::Sum, CostFn::Mean, CostFn::Count];

/// Records what a solve decides: every event but the refresh's own, with
/// span durations (wall-clock) blanked, and the ledger they assemble.
#[derive(Default)]
struct Decisions {
    events: Vec<String>,
    ledger: DecisionLedger,
}

impl Observer for Decisions {
    fn on(&mut self, event: &Event<'_>) {
        self.ledger.on(event);
        match event {
            Event::ScanPruned(_)
            | Event::BoundRefreshed(_)
            | Event::PhaseStarted(PHASE_SCAN_PRUNE)
            | Event::PhaseEnded(PHASE_SCAN_PRUNE, _) => {}
            Event::PhaseEnded(name, _) => self.events.push(format!("PhaseEnded({name})")),
            other => self.events.push(format!("{other:?}")),
        }
    }
}

/// Everything one solve reports.
#[derive(Debug, PartialEq)]
struct Run {
    outcome: Result<SolveOutcome<PatternSolution>, EngineError>,
    ticks: u64,
    events: Vec<String>,
    ledger: String,
}

/// One solve: optimized CMC (`cmc`) or CWSC at size bound `k` and
/// coverage fraction `coverage`.
#[derive(Debug, Clone, Copy)]
struct Step {
    cmc: bool,
    k: usize,
    coverage: f64,
}

fn solve(
    space: &PatternSpace<'_>,
    step: Step,
    ticks: Option<u64>,
    stash: Option<&LatticeStash>,
    prune: bool,
) -> Run {
    let deadline = match ticks {
        Some(max) => Deadline::unbounded().with_tick_budget(max),
        None => Deadline::unbounded(),
    };
    let mut obs = Decisions::default();
    let outcome = if step.cmc {
        let params = CmcParams::classic(step.k, step.coverage, 1.0);
        opt_cmc_stashed(space, &params, &deadline, &mut obs, stash, prune)
    } else {
        opt_cwsc_stashed(
            space,
            step.k,
            step.coverage,
            &deadline,
            &mut obs,
            stash,
            prune,
        )
    };
    let mut ledger = Vec::new();
    obs.ledger.write_jsonl(&mut ledger).expect("write to a Vec");
    Run {
        outcome,
        ticks: deadline.ticks(),
        events: obs.events,
        ledger: String::from_utf8(ledger).expect("the ledger is UTF-8"),
    }
}

/// Solves `step` pruned and unpruned, each on its own stash of `warm`
/// (pruned first) or cold, and requires identical reports. Returns the
/// ticks spent.
fn both(
    space: &PatternSpace<'_>,
    step: Step,
    ticks: Option<u64>,
    warm: Option<&[LatticeStash; 2]>,
) -> u64 {
    let pruned = solve(space, step, ticks, warm.map(|s| &s[0]), true);
    let unpruned = solve(space, step, ticks, warm.map(|s| &s[1]), false);
    let at = format!(
        "{:?} {step:?} ticks {ticks:?} warm {}",
        space.cost_fn(),
        warm.is_some()
    );
    // Either side's error fails the case: opt_cmc contains and retries
    // panics, so a tripped debug assertion would read as equal errors.
    assert!(pruned.outcome.is_ok(), "{at}: {:?}", pruned.outcome);
    assert!(unpruned.outcome.is_ok(), "{at}: {:?}", unpruned.outcome);
    assert_eq!(pruned, unpruned, "{at}");
    pruned.ticks
}

/// A skewed table and, per algorithm and cost function, a size bound, a
/// coverage fraction, and the share of the unbounded solve's ticks its
/// budgeted twin gets.
fn arb_case() -> impl Strategy<Value = (Table, Vec<(usize, f64, f64)>)> {
    let table = (1000usize..=2400, 3usize..=4, 3u64..=8)
        .prop_map(|(rows, attrs, values)| skewed_table(rows, attrs, values));
    let query = (2usize..=6, 0.2f64..=0.95, 0.0f64..1.0);
    (table, proptest::collection::vec(query, 2 * COSTS.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pruned_and_unpruned_walks_decide_alike((table, queries) in arb_case()) {
        let warm = [LatticeStash::default(), LatticeStash::default()];
        let steps = COSTS
            .iter()
            .flat_map(|&cost| [true, false].map(|cmc| (cmc, cost)));
        for ((cmc, cost), (k, coverage, share)) in steps.zip(queries) {
            let step = Step { cmc, k, coverage };
            let space = PatternSpace::new(&table, cost);
            for stashes in [None, Some(&warm)] {
                let ticks = both(&space, step, None, stashes);
                both(&space, step, Some((ticks as f64 * share) as u64), stashes);
            }
        }
    }
}

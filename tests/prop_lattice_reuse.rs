//! Lattice reuse across solves on one `PatternInstance` (DESIGN.md §17).
//!
//! An instance parks the cost-independent half of the optimized CMC
//! lattice between solves. The contract under test: a solve on a warm
//! instance — one whose earlier queries grew the lattice, under any cost
//! model — is indistinguishable from the same solve on a fresh instance.
//! Answer or degraded partial, certificate, tick count and event stream
//! all agree; only `posting_scanned`, which counts the expansions the
//! parked lattice saved, may differ.

use proptest::prelude::*;
use scwsc::patterns::{PatternInstance, Table};
use scwsc::sets::{
    Answer, CostModel, Deadline, EngineError, Event, Observer, Query, SolveOutcome, Solver,
    ThreadPool, Threads,
};
use std::sync::{Arc, Barrier};

/// A random small table; few values per attribute, so the lattices of
/// different queries overlap.
fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..=3, 1usize..=24).prop_flat_map(|(attrs, rows)| {
        let row = (proptest::collection::vec(0u8..4, attrs), 0u8..40);
        proptest::collection::vec(row, rows).prop_map(move |rows| table(attrs, &rows))
    })
}

fn table(attrs: usize, rows: &[(Vec<u8>, u8)]) -> Table {
    let names: Vec<String> = (0..attrs).map(|a| format!("a{a}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut b = Table::builder(&refs, "m");
    for (vals, measure) in rows {
        let svals: Vec<String> = vals.iter().map(|v| format!("v{v}")).collect();
        let srefs: Vec<&str> = svals.iter().map(String::as_str).collect();
        b.push_row(&srefs, f64::from(*measure)).unwrap();
    }
    b.build()
}

const COSTS: [CostModel; 4] = [
    CostModel::Max,
    CostModel::Sum,
    CostModel::Mean,
    CostModel::Count,
];

/// One CMC query and its tick budget: `None` is unbounded.
type Step = (Query, Option<u64>);

fn arb_step() -> impl Strategy<Value = Step> {
    (
        1usize..=4,
        0.1f64..=1.0,
        0usize..4,
        prop_oneof![Just(Some(0u64)), (1u64..40).prop_map(Some), Just(None)],
    )
        .prop_map(|(k, coverage, cost, ticks)| {
            let query = Query {
                cost: COSTS[cost],
                ..Query::cmc(k, coverage)
            };
            (query, ticks)
        })
}

/// Records the event stream in comparable form: span durations
/// (wall-clock) are blanked, and `posting_scanned` is summed apart.
#[derive(Default)]
struct Events {
    events: Vec<String>,
    postings: u64,
}

impl Observer for Events {
    fn on(&mut self, event: &Event<'_>) {
        match event {
            Event::PostingScanned(n) => self.postings += n,
            Event::PhaseEnded(name, _) => self.events.push(format!("PhaseEnded({name})")),
            other => self.events.push(format!("{other:?}")),
        }
    }
}

/// Everything one solve reports but its postings.
#[derive(Debug, PartialEq)]
struct Run {
    outcome: Result<SolveOutcome<Answer>, EngineError>,
    ticks: u64,
    events: Vec<String>,
}

/// Solves `step` on `instance`; also returns the postings scanned.
fn run(instance: &PatternInstance, step: &Step, pool: &ThreadPool) -> (Run, u64) {
    let (query, ticks) = step;
    let deadline = match ticks {
        Some(max) => Deadline::unbounded().with_tick_budget(*max),
        None => Deadline::unbounded(),
    };
    let mut events = Events::default();
    let outcome = instance.solve(query, pool, &deadline, &mut events);
    let run = Run {
        outcome,
        ticks: deadline.ticks(),
        events: events.events,
    };
    (run, events.postings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every solve of a random CMC query sequence on one instance equals
    /// the same solve on a fresh instance, on a serial and a 4-thread
    /// pool.
    #[test]
    fn warm_instance_solves_equal_cold_ones(
        table in arb_table(),
        steps in proptest::collection::vec(arb_step(), 1..=6),
    ) {
        for threads in [1, 4] {
            let pool = ThreadPool::new(Threads::new(threads));
            let warm = PatternInstance::new(table.clone());
            for (i, step) in steps.iter().enumerate() {
                let cold = PatternInstance::new(table.clone());
                prop_assert_eq!(
                    run(&warm, step, &pool).0,
                    run(&cold, step, &pool).0,
                    "threads {} step {} {:?}", threads, i, step
                );
            }
        }
    }
}

/// A table big enough that concurrent solves overlap in time.
fn skewed_table() -> Table {
    let rows: Vec<(Vec<u8>, u8)> = (0..600u32)
        .map(|i| {
            let vals = vec![(i % 7) as u8, (i * i % 11) as u8, (i / 37 % 5) as u8];
            (vals, (i * 13 % 50) as u8)
        })
        .collect();
    table(3, &rows)
}

/// Two threads released together solve different CMC queries on one
/// instance: each finds the stash empty or takes it while the other
/// runs, and both answers equal the serial ones.
#[test]
fn concurrent_solves_on_one_instance_equal_serial_ones() {
    let queries = [
        Query::cmc(4, 0.6),
        Query {
            cost: CostModel::Count,
            ..Query::cmc(3, 0.4)
        },
    ];
    let pool = ThreadPool::new(Threads::serial());
    let fresh = || PatternInstance::new(skewed_table());
    let serial: Vec<Run> = queries
        .iter()
        .map(|q| run(&fresh(), &(q.clone(), None), &pool).0)
        .collect();
    let instance = Arc::new(PatternInstance::new(skewed_table()));
    for round in 0..3 {
        let barrier = Arc::new(Barrier::new(queries.len()));
        let handles: Vec<_> = queries
            .iter()
            .map(|query| {
                let step = (query.clone(), None);
                let (instance, barrier) = (Arc::clone(&instance), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let pool = ThreadPool::new(Threads::serial());
                    barrier.wait();
                    run(&instance, &step, &pool).0
                })
            })
            .collect();
        for (handle, expected) in handles.into_iter().zip(&serial) {
            let got = handle.join().expect("solve thread");
            assert_eq!(got.outcome, expected.outcome, "round {round}");
            assert_eq!(got.events, expected.events, "round {round}");
        }
    }
}

/// A solve that contained a panic drops its lattice: the next clean
/// solve starts cold, down to the postings it scans.
#[cfg(feature = "fault-inject")]
#[test]
fn contained_panic_drops_the_parked_lattice() {
    use scwsc::sets::FaultPlan;

    let pool = ThreadPool::new(Threads::serial());
    let step = (Query::cmc(4, 0.6), None);
    let warm = PatternInstance::new(skewed_table());
    let (first, cold_postings) = run(&warm, &step, &pool);
    let (_, warm_postings) = run(&warm, &step, &pool);
    assert!(
        warm_postings < cold_postings,
        "the parked lattice is reused"
    );

    let faulty = Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_at_tick(3));
    let mut contained = Events::default();
    let outcome = warm.solve(&step.0, &pool, &faulty, &mut contained);
    assert_eq!(outcome, first.outcome, "the retry completes");
    assert!(contained.events.iter().any(|e| e == "GuessRetried"));

    let after = run(&warm, &step, &pool);
    assert_eq!(
        after,
        run(&PatternInstance::new(skewed_table()), &step, &pool)
    );
    assert_eq!(after.1, cold_postings, "the clean solve started cold");
}

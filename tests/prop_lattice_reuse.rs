//! Lattice reuse across solves on one `PatternInstance` (DESIGN.md §17).
//!
//! An instance parks the cost-independent half of the pattern lattice
//! between solves, and optimized CWSC and optimized CMC both read it.
//! The contract under test: a solve on a warm instance — one whose
//! earlier queries of either algorithm grew the lattice, under any cost
//! model — is indistinguishable from the same solve on a fresh instance.
//! Answer or degraded partial, certificate, tick count and event stream
//! all agree. Only CMC's `posting_scanned`, which counts the expansions
//! the parked lattice saved, may differ; CWSC's counts the rows of every
//! Fig. 3 pop, cached or not, so it agrees too.
//!
//! The lattice keys its nodes by packed integer when the space allows it
//! and by pattern otherwise, and optimized CWSC checks Fig. 3 line 16
//! (all parents in `C`) by clearing one field of the packed key. A space
//! that forces general keys must solve, tick and report identically.

use proptest::prelude::*;
use scwsc::patterns::test_util::{self, GeneralKeys};
use scwsc::patterns::{opt_cmc, opt_cwsc, LatticeSpace, PatternInstance, PatternSolution, Table};
use scwsc::sets::{
    Algorithm, Answer, CostModel, Deadline, EngineError, Event, Observer, Query, SolveOutcome,
    Solver, ThreadPool, Threads,
};
use std::sync::{Arc, Barrier};

/// A random table. Half are small with few values per attribute, so the
/// lattices of different queries overlap. The other half are skewed and
/// up to 160 rows long: their CMC walks visit patterns whose rows an
/// earlier selection partly covered, so children are scored by the
/// recount of Fig. 4 line 35 rather than by their row counts.
fn arb_table() -> impl Strategy<Value = Table> {
    let small = (1usize..=3, 1usize..=24).prop_flat_map(|(attrs, rows)| {
        let row = (proptest::collection::vec(0u8..4, attrs), 0u8..40);
        proptest::collection::vec(row, rows).prop_map(move |rows| table(attrs, &rows))
    });
    let skewed = (40usize..=160, 2usize..=3, 3u64..=6)
        .prop_map(|(rows, attrs, values)| test_util::skewed_table(rows, attrs, values));
    prop_oneof![small, skewed]
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

/// One CWSC or CMC query and its tick budget: `None` is unbounded.
type Step = (Query, Option<u64>);

fn arb_step() -> impl Strategy<Value = Step> {
    (
        any::<bool>(),
        1usize..=4,
        0.1f64..=1.0,
        0usize..4,
        prop_oneof![Just(Some(0u64)), (1u64..40).prop_map(Some), Just(None)],
    )
        .prop_map(|(cmc, k, coverage, cost, ticks)| {
            let query = if cmc {
                Query::cmc(k, coverage)
            } else {
                Query::cwsc(k, coverage)
            };
            let query = Query {
                cost: COSTS[cost],
                ..query
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

/// Fails on a contained panic. A solve retries a panicked guess once
/// and then reports `Panicked`, so a tripped `debug_assert` would
/// otherwise read as two equal outcomes.
fn assert_not_panicked<T: std::fmt::Debug>(outcome: &Result<T, EngineError>, step: &Step) {
    assert!(
        !matches!(outcome, Err(EngineError::Panicked(_))),
        "{step:?}: {outcome:?}"
    );
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
    assert_not_panicked(&outcome, step);
    let run = Run {
        outcome,
        ticks: deadline.ticks(),
        events: events.events,
    };
    (run, events.postings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every solve of a random sequence of interleaved CWSC and CMC
    /// queries on one instance equals the same solve on a fresh
    /// instance.
    #[test]
    fn warm_instance_solves_equal_cold_ones(
        table in arb_table(),
        steps in proptest::collection::vec(arb_step(), 1..=6),
    ) {
        let pool = ThreadPool::new(Threads::serial());
        let warm = PatternInstance::new(table.clone());
        for (i, step) in steps.iter().enumerate() {
            let cold = PatternInstance::new(table.clone());
            let (warm_run, warm_postings) = run(&warm, step, &pool);
            let (cold_run, cold_postings) = run(&cold, step, &pool);
            prop_assert_eq!(warm_run, cold_run, "step {} {:?}", i, step);
            if step.0.algorithm == Algorithm::Cwsc {
                prop_assert_eq!(warm_postings, cold_postings, "step {} {:?}", i, step);
            }
        }
    }
}

/// Everything one direct `opt_cwsc`/`opt_cmc` solve reports.
#[derive(Debug, PartialEq)]
struct KeyedRun {
    outcome: Result<SolveOutcome<PatternSolution>, EngineError>,
    ticks: u64,
    events: Vec<String>,
    postings: u64,
}

/// Solves `step` directly on `space`, on a fresh lattice.
fn run_on<S: LatticeSpace>(space: &S, step: &Step) -> KeyedRun {
    let (query, ticks) = step;
    let deadline = match ticks {
        Some(max) => Deadline::unbounded().with_tick_budget(*max),
        None => Deadline::unbounded(),
    };
    let mut events = Events::default();
    let outcome = match query.algorithm {
        Algorithm::Cwsc => opt_cwsc(space, query.k, query.coverage, &deadline, &mut events),
        Algorithm::Cmc => opt_cmc(space, &query.cmc_params(), &deadline, &mut events),
    };
    assert_not_panicked(&outcome, step);
    KeyedRun {
        outcome,
        ticks: deadline.ticks(),
        events: events.events,
        postings: events.postings,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packed and general keys give the same optimized CWSC and CMC
    /// solves: answers or degraded partials, ticks and event streams.
    #[test]
    fn packed_and_general_keys_solve_alike(
        table in arb_table(),
        steps in proptest::collection::vec(arb_step(), 1..=4),
    ) {
        let instance = PatternInstance::new(table);
        for (i, step) in steps.iter().enumerate() {
            let packed = instance.space(step.0.cost);
            prop_assert!(packed.packed_key_bits().is_some());
            let general = GeneralKeys(instance.space(step.0.cost));
            let want = run_on(&packed, step);
            prop_assert_eq!(run_on(&general, step), want, "step {} {:?}", i, step);
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

/// Three threads released together solve different queries on one
/// instance: each finds the stash empty or takes it while another runs,
/// and every answer equals the serial one.
#[test]
fn concurrent_solves_on_one_instance_equal_serial_ones() {
    let queries = [
        Query::cmc(4, 0.6),
        Query {
            cost: CostModel::Count,
            ..Query::cmc(3, 0.4)
        },
        Query::cwsc(5, 0.5),
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

/// A CWSC solve that panics drops the lattice it took from the stash:
/// the next CMC solve scans the postings of a cold one.
#[test]
fn panicked_cwsc_solve_drops_the_parked_lattice() {
    use scwsc::sets::FaultPlan;

    let pool = ThreadPool::new(Threads::serial());
    let cmc = (Query::cmc(4, 0.6), None);
    let instance = PatternInstance::new(skewed_table());
    let (first, cold_postings) = run(&instance, &cmc, &pool);
    assert!(
        run(&instance, &cmc, &pool).1 < cold_postings,
        "the parked lattice is reused"
    );

    let faulty = Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_at_tick(3));
    let outcome = instance.solve(&Query::cwsc(5, 0.5), &pool, &faulty, &mut Events::default());
    assert!(
        matches!(outcome, Err(EngineError::Panicked(_))),
        "{outcome:?}"
    );

    let (after, postings) = run(&instance, &cmc, &pool);
    assert_eq!(after, first);
    assert_eq!(postings, cold_postings, "the CMC solve started cold");
}

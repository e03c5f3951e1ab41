//! Property tests for the resilient solve engine (DESIGN.md §12).
//!
//! The contract under test: for *any* instance, deadline, and fault
//! schedule, every deadline-aware solver returns a structured outcome —
//! `Ok(Complete)`, `Ok(Degraded)` with a certificate that independently
//! verifies, or `Err(Solve | Panicked)` — and never panics or hangs.
//! In tick-deterministic mode the full outcome is identical for
//! `Threads(1)` and `Threads(4)`.

use proptest::prelude::*;
use scwsc::patterns::{verify_certificate_in, CostFn, PatternSpace, Table};
use scwsc::prelude::*;
use scwsc::sets::verify_certificate;

/// A random small set system that always contains a universe set, so
/// every instance is feasible and `Err(Solve)` outcomes are rare.
fn arb_system() -> impl Strategy<Value = SetSystem> {
    (2usize..=12, 1usize..=10).prop_flat_map(|(n, sets)| {
        let set = (
            proptest::collection::btree_set(0u32..n as u32, 1..=n),
            0u32..50,
        );
        proptest::collection::vec(set, sets).prop_map(move |sets| {
            let mut b = SetSystem::builder(n);
            for (members, cost) in sets {
                b.add_set(members, f64::from(cost));
            }
            b.add_universe_set(60.0);
            b.build().unwrap()
        })
    })
}

/// A random small table for the pattern-lattice solvers.
fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..=3, 1usize..=16).prop_flat_map(|(attrs, rows)| {
        let row = (proptest::collection::vec(0u8..4, attrs), 0u8..40);
        proptest::collection::vec(row, rows).prop_map(move |rows| {
            let names: Vec<String> = (0..attrs).map(|a| format!("a{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = Table::builder(&refs, "m");
            for (vals, measure) in rows {
                let svals: Vec<String> = vals.iter().map(|v| format!("v{v}")).collect();
                let srefs: Vec<&str> = svals.iter().map(String::as_str).collect();
                b.push_row(&srefs, f64::from(measure)).unwrap();
            }
            b.build()
        })
    })
}

/// Asserts the engine contract on a set-system outcome: complete values
/// are taken at face value (covered elsewhere by the algorithm property
/// tests), degraded certificates must verify against the partial
/// solution, and `Panicked` must never appear without a fault plan.
fn check_set_outcome(
    system: &SetSystem,
    partial: &Solution,
    outcome: &SolveOutcome<impl std::fmt::Debug>,
) {
    if let Some(cert) = outcome.certificate() {
        let check = verify_certificate(system, partial, cert);
        assert!(
            check.is_valid(),
            "certificate failed verification: {check:?} vs {cert:?}"
        );
        assert!(cert.ticks > 0, "an expiry consumes at least one tick");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CMC under an arbitrary tick budget: structured outcome, verified
    /// certificate, no panic, no hang.
    #[test]
    fn cmc_tick_budget_is_structured(
        system in arb_system(),
        k in 1usize..=4,
        coverage in 0.1f64..=1.0,
        ticks in 0u64..200,
    ) {
        let params = CmcParams::classic(k, coverage, 0.5);
        let pool = ThreadPool::new(Threads::serial());
        let deadline = Deadline::unbounded().with_tick_budget(ticks);
        match cmc(&system, &params, &pool, &deadline, &mut NoopObserver) {
            Ok(outcome) => {
                check_set_outcome(&system, &outcome.value().solution, &outcome);
            }
            Err(EngineError::Solve(_)) => {}
            Err(EngineError::Panicked(msg)) => {
                prop_assert!(false, "panic without a fault plan: {msg}");
            }
        }
    }

    /// CWSC under an arbitrary tick budget: same contract.
    #[test]
    fn cwsc_tick_budget_is_structured(
        system in arb_system(),
        k in 1usize..=4,
        coverage in 0.1f64..=1.0,
        ticks in 0u64..100,
    ) {
        let pool = ThreadPool::new(Threads::serial());
        let deadline = Deadline::unbounded().with_tick_budget(ticks);
        match cwsc(&system, k, coverage, &pool, &deadline, &mut NoopObserver) {
            Ok(outcome) => {
                check_set_outcome(&system, outcome.value(), &outcome);
            }
            Err(EngineError::Solve(_)) => {}
            Err(EngineError::Panicked(msg)) => {
                prop_assert!(false, "panic without a fault plan: {msg}");
            }
        }
    }

    /// Determinism contract: a tick-addressed deadline disables
    /// speculation, so `Threads(1)` and `Threads(4)` produce *identical*
    /// outcomes — same classification, same partial, same tick count.
    #[test]
    fn cmc_outcome_is_thread_count_invariant(
        system in arb_system(),
        k in 1usize..=4,
        coverage in 0.1f64..=1.0,
        ticks in 0u64..120,
    ) {
        let params = CmcParams::classic(k, coverage, 0.5);
        let serial = {
            let pool = ThreadPool::new(Threads::serial());
            let deadline = Deadline::unbounded().with_tick_budget(ticks);
            cmc(&system, &params, &pool, &deadline, &mut NoopObserver)
        };
        let parallel = {
            let pool = ThreadPool::new(Threads::new(4));
            let deadline = Deadline::unbounded().with_tick_budget(ticks);
            cmc(&system, &params, &pool, &deadline, &mut NoopObserver)
        };
        prop_assert_eq!(serial, parallel);
    }

    /// Same determinism contract for CWSC's parallel benefit scans.
    #[test]
    fn cwsc_outcome_is_thread_count_invariant(
        system in arb_system(),
        k in 1usize..=4,
        ticks in 0u64..60,
    ) {
        let serial = {
            let pool = ThreadPool::new(Threads::serial());
            let deadline = Deadline::unbounded().with_tick_budget(ticks);
            cwsc(&system, k, 0.7, &pool, &deadline, &mut NoopObserver)
        };
        let parallel = {
            let pool = ThreadPool::new(Threads::new(4));
            let deadline = Deadline::unbounded().with_tick_budget(ticks);
            cwsc(&system, k, 0.7, &pool, &deadline, &mut NoopObserver)
        };
        prop_assert_eq!(serial, parallel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The pattern-lattice CWSC honors the same contract, verified by the
    /// lattice-side certificate checker.
    #[test]
    fn opt_cwsc_tick_budget_is_structured(
        table in arb_table(),
        k in 1usize..=4,
        ticks in 0u64..60,
    ) {
        let space = PatternSpace::new(&table, CostFn::Max);
        let deadline = Deadline::unbounded().with_tick_budget(ticks);
        match opt_cwsc(&space, k, 0.6, &ThreadPool::new(Threads::serial()), &deadline, &mut NoopObserver) {
            Ok(SolveOutcome::Complete(_)) => {}
            Ok(SolveOutcome::Degraded(d)) => {
                let check = verify_certificate_in(&space, &d.partial, &d.certificate);
                prop_assert!(check.is_valid(), "{check:?} vs {:?}", d.certificate);
            }
            Err(EngineError::Solve(_)) => {}
            Err(EngineError::Panicked(msg)) => {
                prop_assert!(false, "panic without a fault plan: {msg}");
            }
        }
    }

    /// The pattern-lattice CMC honors the same contract.
    #[test]
    fn opt_cmc_tick_budget_is_structured(
        table in arb_table(),
        k in 1usize..=3,
        ticks in 0u64..60,
    ) {
        let space = PatternSpace::new(&table, CostFn::Max);
        let params = CmcParams::classic(k, 0.6, 0.5);
        let pool = ThreadPool::new(Threads::serial());
        let deadline = Deadline::unbounded().with_tick_budget(ticks);
        match opt_cmc(&space, &params, &pool, &deadline, &mut NoopObserver) {
            Ok(SolveOutcome::Complete(_)) => {}
            Ok(SolveOutcome::Degraded(d)) => {
                let check = verify_certificate_in(&space, &d.partial, &d.certificate);
                prop_assert!(check.is_valid(), "{check:?} vs {:?}", d.certificate);
            }
            Err(EngineError::Solve(_)) => {}
            Err(EngineError::Panicked(msg)) => {
                prop_assert!(false, "panic without a fault plan: {msg}");
            }
        }
    }
}

#[cfg(feature = "fault-inject")]
mod faults {
    use super::*;
    use scwsc::sets::FaultPlan;

    /// A fixed feasible instance for the acceptance tests: singletons of
    /// rising cost, one cheap medium set, and the mandatory universe set.
    fn acceptance_system() -> SetSystem {
        let mut b = SetSystem::builder(12);
        for i in 0..12u32 {
            b.add_set([i], 1.0 + f64::from(i) * 0.25);
        }
        b.add_set(0..6u32, 2.5);
        b.add_universe_set(40.0);
        b.build().unwrap()
    }

    /// Acceptance test: a worker panic injected into the first budget
    /// guess under a 4-thread speculative window is contained, retried
    /// once serially, and the solve completes — with the retry visible in
    /// the metrics. Fails on the pre-engine tree (the panic escaped).
    #[test]
    fn injected_guess_panic_recovers_with_one_retry() {
        let system = acceptance_system();
        let params = CmcParams::classic(3, 0.75, 0.5);
        let pool = ThreadPool::new(Threads::new(4));
        let deadline = Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(1));
        let mut metrics = MetricsRecorder::new();
        let outcome = cmc(&system, &params, &pool, &deadline, &mut metrics)
            .expect("one-shot fault must not fail the solve");
        assert!(outcome.is_complete(), "retry recovers: {outcome:?}");
        assert_eq!(metrics.guesses_retried, 1, "exactly one contained retry");
    }

    /// A persistent fault (the retry panics too) surfaces as a structured
    /// `EngineError::Panicked`, never as an escaped panic.
    #[test]
    fn persistent_guess_fault_reports_engine_error() {
        let system = acceptance_system();
        let params = CmcParams::classic(3, 0.75, 0.5);
        for threads in [Threads::serial(), Threads::new(4)] {
            let pool = ThreadPool::new(threads);
            let deadline = Deadline::unbounded().with_fault_plan(FaultPlan::new().fail_guess(1));
            let err = cmc(&system, &params, &pool, &deadline, &mut NoopObserver)
                .expect_err("persistent fault must fail");
            match err {
                EngineError::Panicked(msg) => {
                    assert!(msg.contains("guess 1"), "payload preserved: {msg}");
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Under *any* seeded fault schedule plus an arbitrary tick
        /// budget, CMC still returns a structured outcome: contained
        /// panics, verified certificates, no hangs — and the outcome is
        /// identical for `Threads(1)` and `Threads(4)` (tick-addressed
        /// schedules force serial guessing; guess-addressed schedules
        /// fire on thread-count-invariant guess indices).
        #[test]
        fn seeded_faults_stay_structured_and_thread_invariant(
            system in arb_system(),
            k in 1usize..=4,
            seed in 0u64..1024,
            ticks in 1u64..120,
        ) {
            let params = CmcParams::classic(k, 0.8, 0.5);
            let run = |threads: Threads| {
                let pool = ThreadPool::new(threads);
                let deadline = Deadline::unbounded()
                    .with_tick_budget(ticks)
                    .with_fault_plan(FaultPlan::from_seed(seed));
                cmc(&system, &params, &pool, &deadline, &mut NoopObserver)
            };
            let serial = run(Threads::serial());
            if let Ok(outcome) = &serial {
                check_set_outcome(&system, &outcome.value().solution, outcome);
            }
            prop_assert_eq!(&serial, &run(Threads::new(4)));
        }

        /// Same contract for CWSC: the whole round is contained, so a
        /// mid-round injected panic becomes `Err(Panicked)` and an
        /// injected cancellation becomes a verified degrade.
        #[test]
        fn cwsc_seeded_faults_stay_structured(
            system in arb_system(),
            k in 1usize..=4,
            seed in 0u64..1024,
        ) {
            let pool = ThreadPool::new(Threads::serial());
            let deadline = Deadline::unbounded()
                .with_fault_plan(FaultPlan::from_seed(seed));
            match cwsc(&system, k, 0.7, &pool, &deadline, &mut NoopObserver) {
                Ok(outcome) => {
                    if let Some(cert) = outcome.certificate() {
                        let check = verify_certificate(&system, outcome.value(), cert);
                        prop_assert!(check.is_valid(), "{check:?}");
                    }
                }
                Err(EngineError::Solve(_) | EngineError::Panicked(_)) => {}
            }
        }
    }
}

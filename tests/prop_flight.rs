//! Property tests for the flight recorder's causal trace (DESIGN.md §13).
//!
//! The contract under test: for *any* instance and tick budget, a solve
//! with a [`FlightRecorder`] attached under `Threads(4)` reconstructs a
//! causal tree whose [`CausalNode::normalized`] form is *identical* to
//! the serial `Threads(1)` tree — same span names, nesting, counts, and
//! deterministic event tallies — and both recorders latch the same
//! deterministic trace id. The dump is always line-oriented JSON, one
//! object per line, even when the solve degrades or (under
//! `fault-inject`) panics.

use proptest::prelude::*;
use scwsc::prelude::*;
use scwsc::sets::telemetry::pack_k_target;
use scwsc::sets::{
    coverage_target, Deadline, EngineError, FlightRecorder, SolveOutcome, ThreadPool, Threads,
    TraceId,
};

/// A random small set system that always contains a universe set, so
/// every instance is feasible and the solve reaches its main loop.
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

/// Runs CMC on `threads` workers with a fresh recorder attached and
/// returns both the outcome and the recorder.
fn recorded_cmc(
    system: &SetSystem,
    params: &CmcParams,
    threads: Threads,
    ticks: u64,
) -> (
    Result<SolveOutcome<scwsc::sets::algorithms::CmcOutcome>, EngineError>,
    FlightRecorder,
) {
    let pool = ThreadPool::new(threads);
    let deadline = Deadline::unbounded().with_tick_budget(ticks);
    let mut flight = FlightRecorder::new();
    let outcome = cmc(system, params, &pool, &deadline, &mut flight);
    (outcome, flight)
}

/// Asserts the dump's line discipline: at least the header and the
/// trailing causal-tree line, every line one JSON object.
fn check_dump(flight: &FlightRecorder) {
    let mut buf = Vec::new();
    flight.write_dump(&mut buf).expect("dump to memory");
    let text = String::from_utf8(buf).expect("dump is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "header + causal tree at minimum");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "every dump line is a JSON object: {line:?}"
        );
    }
    assert!(
        lines[0].starts_with("{\"flight\":\"scwsc\",\"version\":1,"),
        "header identifies the format: {:?}",
        lines[0]
    );
    assert!(
        lines.last().unwrap().starts_with("{\"causal_tree\":"),
        "dump ends with the reconstructed tree"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance property: the normalized causal tree reconstructed
    /// from a `Threads(4)` run equals the serial `Threads(1)` tree, and
    /// both latch the deterministic trace id minted at the entry point.
    #[test]
    fn cmc_causal_tree_is_thread_count_invariant(
        system in arb_system(),
        k in 1usize..=4,
        coverage in 0.1f64..=1.0,
        ticks in 0u64..150,
    ) {
        let params = CmcParams::classic(k, coverage, 0.5);
        let (serial, t1) = recorded_cmc(&system, &params, Threads::serial(), ticks);
        let (parallel, t4) = recorded_cmc(&system, &params, Threads::new(4), ticks);
        prop_assert_eq!(&serial, &parallel, "outcome is thread-count invariant");

        // Classic params discount the coverage target (Fig. 1 line 06),
        // so the mint's target word uses the discounted fraction.
        let target = coverage_target(
            system.num_elements(),
            params.coverage_fraction * CMC_COVERAGE_DISCOUNT,
        );
        if target > 0 {
            // The solve reached its entry mint: both recorders latched
            // the same deterministic id, reproducible from the inputs.
            let expect = TraceId::mint(
                "cmc",
                system.num_elements() as u64,
                pack_k_target(k, target),
            );
            prop_assert_eq!(t1.trace_id(), expect);
            prop_assert_eq!(t4.trace_id(), expect);
            prop_assert_eq!(t1.entry(), "cmc");
        }

        let n1 = t1.causal_tree().normalized();
        let n4 = t4.causal_tree().normalized();
        prop_assert_eq!(
            &n1, &n4,
            "normalized causal trees diverged:\nserial:\n{}\nparallel:\n{}",
            t1.causal_tree().render(),
            t4.causal_tree().render()
        );

        check_dump(&t1);
        check_dump(&t4);
    }

    /// The ring never loses the causal tree: even with a tiny capacity
    /// that forces eviction, the incrementally-maintained tree matches a
    /// recorder that kept everything, and the dump stays well-formed.
    #[test]
    fn wrapped_ring_keeps_the_full_causal_tree(
        system in arb_system(),
        k in 1usize..=4,
        ticks in 0u64..150,
    ) {
        let params = CmcParams::classic(k, 0.8, 0.5);
        let pool = ThreadPool::new(Threads::serial());
        let run = |flight: &mut FlightRecorder| {
            let deadline = Deadline::unbounded().with_tick_budget(ticks);
            cmc(&system, &params, &pool, &deadline, flight)
        };
        let mut small = FlightRecorder::with_capacity(8);
        let mut big = FlightRecorder::new();
        prop_assert_eq!(run(&mut small), run(&mut big));
        // Normalized: the runs are separate executions, so raw wall-clock
        // seconds differ even though the structure cannot.
        prop_assert_eq!(
            small.causal_tree().normalized(),
            big.causal_tree().normalized()
        );
        check_dump(&small);
    }
}

#[cfg(feature = "fault-inject")]
mod faults {
    use super::*;
    use scwsc::sets::FaultPlan;

    /// A fixed feasible instance large enough to schedule several budget
    /// guesses, so guess-addressed faults actually fire.
    fn acceptance_system() -> SetSystem {
        let mut b = SetSystem::builder(12);
        for i in 0..12u32 {
            b.add_set([i], 1.0 + f64::from(i) * 0.25);
        }
        b.add_set(0..6u32, 2.5);
        b.add_universe_set(40.0);
        b.build().unwrap()
    }

    /// Acceptance test: a worker panic injected under `Threads(4)` is
    /// contained and retried, and the flight recorder still produces a
    /// parseable dump whose normalized tree matches the serial run under
    /// the same fault plan — the recorder survives the failure it exists
    /// to explain.
    #[test]
    fn faulted_parallel_tree_matches_faulted_serial_tree() {
        let system = acceptance_system();
        let params = CmcParams::classic(3, 0.75, 0.5);
        let run = |threads: Threads| {
            let pool = ThreadPool::new(threads);
            let deadline =
                Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(1));
            let mut flight = FlightRecorder::new();
            let outcome = cmc(&system, &params, &pool, &deadline, &mut flight);
            (outcome, flight)
        };
        let (serial, t1) = run(Threads::serial());
        let (parallel, t4) = run(Threads::new(4));
        assert_eq!(serial, parallel, "one-shot fault recovers identically");
        assert!(serial.expect("retry recovers").is_complete());
        assert_eq!(
            t1.causal_tree().normalized(),
            t4.causal_tree().normalized(),
            "faulted runs still reconstruct the same causal tree"
        );
        check_dump(&t1);
        check_dump(&t4);
    }

    /// A persistent fault fails the solve, but the recorder keeps the
    /// latched trace id and dumps cleanly — the post-mortem path.
    #[test]
    fn persistent_fault_still_dumps_with_latched_trace_id() {
        let system = acceptance_system();
        let params = CmcParams::classic(3, 0.75, 0.5);
        let pool = ThreadPool::new(Threads::new(4));
        let deadline = Deadline::unbounded().with_fault_plan(FaultPlan::new().fail_guess(1));
        let mut flight = FlightRecorder::new();
        let err = cmc(&system, &params, &pool, &deadline, &mut flight)
            .expect_err("persistent fault must fail");
        assert!(matches!(err, EngineError::Panicked(_)));
        let target = coverage_target(
            system.num_elements(),
            params.coverage_fraction * CMC_COVERAGE_DISCOUNT,
        );
        assert_eq!(
            flight.trace_id(),
            TraceId::mint(
                "cmc",
                system.num_elements() as u64,
                pack_k_target(3, target)
            ),
            "trace id latched before the fault"
        );
        assert!(!flight.is_empty(), "events recorded before the fault");
        check_dump(&flight);
    }
}

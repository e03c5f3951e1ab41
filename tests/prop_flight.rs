//! Property tests for the flight recorder's causal trace (DESIGN.md §13).
//!
//! The contract under test: for *any* instance and tick budget, a solve
//! with a [`FlightRecorder`] attached latches the deterministic trace id
//! minted from its inputs, its causal tree survives ring eviction, and
//! every buffered event's span and parent ids name a node of the dumped
//! tree and that node's parent. The dump is always line-oriented JSON,
//! one object per line, even when the solve degrades or (under an
//! injected fault) panics.

use proptest::prelude::*;
use scwsc::prelude::*;
use scwsc::sets::telemetry::pack_k_target;
use scwsc::sets::{
    coverage_target, Deadline, EngineError, FlightRecorder, Json, SolveOutcome, TraceId,
};
use std::collections::HashMap;

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

/// Runs CMC with a fresh recorder attached and returns both the outcome
/// and the recorder.
fn recorded_cmc(
    system: &SetSystem,
    params: &CmcParams,
    ticks: u64,
) -> (
    Result<SolveOutcome<scwsc::sets::algorithms::CmcOutcome>, EngineError>,
    FlightRecorder,
) {
    let deadline = Deadline::unbounded().with_tick_budget(ticks);
    let mut flight = FlightRecorder::new();
    let outcome = cmc(system, params, &deadline, &mut flight);
    (outcome, flight)
}

/// Asserts the dump's line discipline — at least the header and the
/// trailing causal-tree line, every line one JSON object — and the join
/// between the ring and the tree: each buffered event's `span` is a node
/// of the dumped tree whose `parent` is the event's `parent`. Span 0 is
/// the synthetic root, which the tree folds away when the run has a
/// single top-level span.
fn check_dump(flight: &FlightRecorder) {
    let mut buf = Vec::new();
    flight.write_dump(&mut buf).expect("dump to memory");
    let text = String::from_utf8(buf).expect("dump is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "header + causal tree at minimum");
    let parsed: Vec<Json> = lines
        .iter()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("{e:?}: {line:?}")))
        .collect();
    for (line, value) in lines.iter().zip(&parsed) {
        assert!(value.as_obj().is_some(), "not a JSON object: {line:?}");
    }
    assert!(
        lines[0].starts_with("{\"flight\":\"scwsc\",\"version\":3,"),
        "header identifies the format: {:?}",
        lines[0]
    );
    let tree = parsed
        .last()
        .unwrap()
        .get("causal_tree")
        .expect("dump ends with the causal tree");
    let mut parents = HashMap::from([(0, 0)]);
    collect_parents(tree, &mut parents);
    for event in &parsed[1..parsed.len() - 1] {
        let id = |key: &str| event.get(key).and_then(Json::as_u64).expect(key);
        assert_eq!(
            parents.get(&id("span")),
            Some(&id("parent")),
            "event's span is a tree node with the event's parent: {event:?}"
        );
    }
}

/// Maps every node id of a dumped tree to its parent id.
fn collect_parents(node: &Json, parents: &mut HashMap<u64, u64>) {
    let id = |key: &str| node.get(key).and_then(Json::as_u64).expect(key);
    parents.insert(id("span"), id("parent"));
    for child in node.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
        collect_parents(child, parents);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance property: the recorder latches the deterministic trace
    /// id minted at the entry point, and dumps well-formed lines.
    #[test]
    fn cmc_flight_latches_the_minted_trace_id(
        system in arb_system(),
        k in 1usize..=4,
        coverage in 0.1f64..=1.0,
        ticks in 0u64..150,
    ) {
        let params = CmcParams::classic(k, coverage, 0.5);
        let (_, t1) = recorded_cmc(&system, &params, ticks);

        // Classic params discount the coverage target (Fig. 1 line 06),
        // so the mint's target word uses the discounted fraction.
        let target = coverage_target(
            system.num_elements(),
            params.coverage_fraction * CMC_COVERAGE_DISCOUNT,
        );
        if target > 0 {
            // The solve reached its entry mint: the recorder latched the
            // deterministic id, reproducible from the inputs.
            let expect = TraceId::mint(
                "cmc",
                system.num_elements() as u64,
                pack_k_target(k, target),
            );
            prop_assert_eq!(t1.trace_id(), expect);
            prop_assert_eq!(t1.entry(), "cmc");
        }
        check_dump(&t1);
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
        let run = |flight: &mut FlightRecorder| {
            let deadline = Deadline::unbounded().with_tick_budget(ticks);
            cmc(&system, &params, &deadline, flight)
        };
        let mut small = FlightRecorder::with_capacity(8);
        let mut big = FlightRecorder::new();
        prop_assert_eq!(run(&mut small), run(&mut big));
        // Untimed: the runs are separate executions, so raw wall-clock
        // seconds differ even though the structure cannot.
        prop_assert_eq!(small.causal_tree().untimed(), big.causal_tree().untimed());
        check_dump(&small);
        check_dump(&big);
    }
}

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

    /// Acceptance test: a worker panic injected into the first guess is
    /// contained and retried, and the flight recorder still produces a
    /// parseable dump whose untimed tree matches a fault-free run —
    /// the panicked attempt's events are discarded, and the recorder
    /// survives the failure it exists to explain.
    #[test]
    fn faulted_tree_matches_the_fault_free_tree() {
        let system = acceptance_system();
        let params = CmcParams::classic(3, 0.75, 0.5);
        let run = |deadline: Deadline| {
            let mut flight = FlightRecorder::new();
            let outcome = cmc(&system, &params, &deadline, &mut flight);
            (outcome, flight)
        };
        let (clean, clean_flight) = run(Deadline::unbounded());
        let (faulted, flight) =
            run(Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(1)));
        assert_eq!(faulted, clean, "one-shot fault recovers to the same answer");
        assert!(faulted.expect("retry recovers").is_complete());
        assert_eq!(
            flight.causal_tree().untimed(),
            clean_flight.causal_tree().untimed(),
            "the faulted run reconstructs the fault-free causal tree"
        );
        check_dump(&flight);
    }

    /// A persistent fault fails the solve, but the recorder keeps the
    /// latched trace id and dumps cleanly — the post-mortem path.
    #[test]
    fn persistent_fault_still_dumps_with_latched_trace_id() {
        let system = acceptance_system();
        let params = CmcParams::classic(3, 0.75, 0.5);
        let deadline = Deadline::unbounded().with_fault_plan(FaultPlan::new().fail_guess(1));
        let mut flight = FlightRecorder::new();
        let err =
            cmc(&system, &params, &deadline, &mut flight).expect_err("persistent fault must fail");
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

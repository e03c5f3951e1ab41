//! Property tests for the serving layer (DESIGN.md §17).
//!
//! The service contract under test, for *any* query mix and any
//! (possibly hopeless) budget:
//!
//! * **degrade, don't drop** — a dispatched request with an
//!   insufficient tick budget comes back `degraded` with a certificate
//!   the instance re-verified, or `complete`; never a panic, never an
//!   unstructured error, never a hang.

use proptest::prelude::*;
use scwsc_core::solver::{Algorithm, CostModel, Query};
use scwsc_core::{FlightRecorder, SetSystem, SystemInstance, ThreadPool, Threads};
use scwsc_serve::{AdmissionConfig, Request, ServerConfig, ServerState, Status};
use std::sync::Arc;
use std::time::Duration;

/// A feasible random set system (universe set always present).
fn arb_system() -> impl Strategy<Value = SetSystem> {
    (2usize..=10, 1usize..=8).prop_flat_map(|(n, sets)| {
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

/// A random query against a universe of `n` elements. Coverage comes
/// from a small integer grid so the same query re-derives exactly.
fn arb_query() -> impl Strategy<Value = Query> {
    (
        prop_oneof![Just(Algorithm::Cwsc), Just(Algorithm::Cmc)],
        1usize..=4,
        1u32..=9,
        prop_oneof![
            Just(CostModel::Max),
            Just(CostModel::Sum),
            Just(CostModel::Mean),
            Just(CostModel::Count)
        ],
    )
        .prop_map(|(algorithm, k, cov, cost)| Query {
            algorithm,
            k,
            coverage: f64::from(cov) / 10.0,
            b: 1.0,
            eps: 1.0,
            cost,
        })
}

/// Serving config for the properties: no wall clock (fully
/// deterministic), near-instant distress admission so hopeless budgets
/// resolve fast, cache off so every dispatch exercises the gate.
fn prop_config() -> ServerConfig {
    ServerConfig {
        default_deadline_ms: 0,
        cache_capacity: 0,
        admission: AdmissionConfig {
            max_queue_wait: Duration::from_millis(1),
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn state_with(solver: Arc<dyn scwsc_core::Solver>, threads: Threads) -> ServerState {
    ServerState::new(
        solver,
        ThreadPool::new(threads),
        prop_config(),
        FlightRecorder::new(),
        None,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any feasible query under any starvation-level tick budget comes
    /// back `complete` or certified `degraded` — never panicked, never
    /// hung, never dropped.
    #[test]
    fn insufficient_budget_degrades_never_panics(
        system in arb_system(),
        queries in proptest::collection::vec((arb_query(), 0u64..=20), 1..8),
    ) {
        let elements = system.num_elements();
        let state = state_with(
            Arc::new(SystemInstance::new(Arc::new(system))),
            Threads::serial(),
        );
        for (i, (query, ticks)) in queries.into_iter().enumerate() {
            let mut request = Request::new(i as u64, query);
            request.max_ticks = Some(ticks);
            let response = state.dispatch(&request);
            match response.status {
                Status::Complete => prop_assert!(response.answer.is_some()),
                Status::Degraded => {
                    let answer = response.answer.as_ref().expect("degraded answer");
                    prop_assert_eq!(
                        answer.certified, Some(true),
                        "certificate must re-verify: {:?}", response
                    );
                    prop_assert!(response.certificate.is_some());
                    let cert = response.certificate.as_ref().unwrap();
                    prop_assert!(cert.covered <= elements);
                }
                Status::Error => {
                    // Structural infeasibility is a legal outcome for a
                    // random query (e.g. coverage unreachable with k
                    // sets); a panic or a drop is not.
                    let message = response.error.clone().unwrap_or_default();
                    prop_assert!(
                        message.contains("solve failed"),
                        "only structural solve errors allowed, got {:?}", message
                    );
                }
                Status::Rejected => prop_assert!(
                    false, "sequential dispatch can never fill the queue"
                ),
            }
        }
    }
}

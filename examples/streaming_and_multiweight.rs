//! The paper's future-work section (§VII), implemented: incremental
//! maintenance of a cover under arriving elements, and sets with multiple
//! weights per set.
//!
//! Scenario: a marketing team maintains a portfolio of at most `k`
//! campaigns that must always reach 60% of the customers seen so far;
//! customers stream in. Separately, each campaign carries two weights —
//! money cost and staff hours — and the team wants the trade-off frontier.
//!
//! Run with: `cargo run --release --example streaming_and_multiweight`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scwsc::sets::incremental::IncrementalCover;
use scwsc::sets::multiweight::{pareto_sweep, MultiWeightSystem};
use scwsc::sets::{Deadline, NoopObserver};

fn main() {
    // ---- Part 1: incremental maintenance -------------------------------
    // 8 campaigns with fixed costs; campaign 7 is the "everyone" channel
    // (say, a TV spot) so a feasible portfolio always exists.
    let costs = [20.0, 25.0, 30.0, 18.0, 40.0, 35.0, 22.0, 400.0];
    let mut maintainer = IncrementalCover::new(&costs, 3, 0.55).expect("valid costs");

    let mut rng = StdRng::seed_from_u64(2026);
    let mut resolves_log = Vec::new();
    for customer in 0..2_000u32 {
        // Each customer is reachable by a few random campaigns plus the
        // universal channel.
        let mut reachable = vec![7u32];
        for c in 0..7u32 {
            if rng.gen_bool(0.35) {
                reachable.push(c);
            }
        }
        let resolved = maintainer.push_element(&reachable).expect("feasible");
        if resolved {
            resolves_log.push(customer);
        }
    }
    println!(
        "after 2000 arrivals: portfolio {:?} costing {:.0}, covering {}/{} (target {})",
        maintainer.solution(),
        maintainer.solution_cost(),
        maintainer.covered(),
        maintainer.num_elements(),
        maintainer.target()
    );
    println!(
        "re-solved only {} times (lazy maintenance); first few at arrivals {:?}",
        maintainer.resolves(),
        &resolves_log[..resolves_log.len().min(5)]
    );
    assert!(maintainer.covered() >= maintainer.target());
    assert!(maintainer.solution().len() <= 3);

    // ---- Part 2: multi-weight sets --------------------------------------
    // The same campaigns, now weighted by (money, staff-hours) — cheap
    // campaigns tend to be labour-hungry and vice versa.
    let snapshot = maintainer.snapshot();
    let mut mw = MultiWeightSystem::new(snapshot.num_elements(), 2);
    for (id, set) in snapshot.iter() {
        let money = costs[id as usize];
        let hours = 120.0 - 0.25 * money; // inverse correlation
        mw.add_set(set.members().iter().copied(), vec![money, hours])
            .expect("valid weights");
    }
    let lambdas: Vec<Vec<f64>> = (0..=10)
        .map(|i| {
            let w = f64::from(i) / 10.0;
            vec![w, 1.0 - w]
        })
        .collect();
    let frontier = pareto_sweep(
        &mw,
        3,
        0.55,
        &lambdas,
        &Deadline::unbounded(),
        &mut NoopObserver,
    )
    .expect("feasible")
    .expect_complete("no deadline");
    println!(
        "\nmoney/staff-hour trade-off frontier ({} points):",
        frontier.len()
    );
    for point in &frontier {
        println!(
            "    λ=({:.1},{:.1}) -> campaigns {:?}: money {:7.0}, staff-hours {:7.0}",
            point.lambda[0],
            point.lambda[1],
            point.solution.sets(),
            point.weights[0],
            point.weights[1]
        );
    }
    assert!(!frontier.is_empty());
}

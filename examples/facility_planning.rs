//! Facility planning over an arbitrary (non-patterned) set system.
//!
//! The introduction's motivating scenario: a city must pick at most `k`
//! hospital sites so that a desired fraction of the population lives near
//! one, minimizing total construction cost. Each candidate site is a set
//! (the neighbourhoods within its service radius) weighted by its
//! construction cost — size-constrained weighted set cover over a plain
//! `SetSystem`, no patterns involved.
//!
//! Run with: `cargo run --release --example facility_planning`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scwsc::prelude::*;

/// A synthetic city: neighbourhoods on a grid, candidate sites at random
/// positions with radius-dependent reach and land-price-dependent cost.
fn build_city(neighbourhoods: usize, sites: usize, seed: u64) -> (SetSystem, Vec<(f64, f64, f64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let positions: Vec<(f64, f64)> = (0..neighbourhoods)
        .map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
        .collect();
    let mut builder = SetSystem::builder(neighbourhoods);
    let mut site_info = Vec::with_capacity(sites + 1);
    for _ in 0..sites {
        let (x, y): (f64, f64) = (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
        let radius: f64 = rng.gen_range(1.0..3.0);
        // Land near the centre (5,5) is pricier; bigger reach costs more.
        let centrality = 10.0 - ((x - 5.0).powi(2) + (y - 5.0).powi(2)).sqrt();
        let cost = 50.0 + 15.0 * centrality.max(0.0) + 40.0 * radius;
        let covered: Vec<u32> = positions
            .iter()
            .enumerate()
            .filter(|(_, &(px, py))| ((px - x).powi(2) + (py - y).powi(2)).sqrt() <= radius)
            .map(|(i, _)| i as u32)
            .collect();
        builder.add_set(covered, cost);
        site_info.push((x, y, cost));
    }
    // A "regional mega-hospital" reaching everyone, at enormous cost —
    // Definition 1's universe set, so a feasible plan always exists.
    builder.add_universe_set(5_000.0);
    site_info.push((5.0, 5.0, 5_000.0));
    (
        builder.build().expect("generated sites are valid"),
        site_info,
    )
}

fn main() {
    let (system, site_info) = build_city(500, 120, 42);
    let (k, coverage) = (6, 0.7);
    println!(
        "city: {} neighbourhoods, {} candidate sites (+1 mega-hospital fallback)",
        system.num_elements(),
        system.num_sets() - 1
    );
    println!(
        "plan: at most {k} facilities covering ≥{:.0}% of neighbourhoods\n",
        coverage * 100.0
    );

    // CWSC: at most k sites. Every solver takes a deadline and an
    // observer; with no deadline the solve always completes.
    let deadline = Deadline::unbounded();
    let plan = cwsc(&system, k, coverage, &deadline, &mut NoopObserver)
        .expect("mega-hospital fallback")
        .expect_complete("no deadline");
    println!(
        "CWSC plan: {} sites, construction cost {:.0}, covering {}/{}",
        plan.size(),
        plan.total_cost(),
        plan.covered(),
        system.num_elements()
    );
    for &site in plan.sets() {
        let (x, y, cost) = site_info[site as usize];
        println!(
            "    site #{site:3} at ({x:4.1}, {y:4.1})  cost {cost:7.0}  reaches {:3} neighbourhoods",
            system.set(site).benefit()
        );
    }
    let req = Requirements::new(&system, k, coverage);
    assert!(verify(&system, &plan, req).is_valid());

    // CMC with provable bounds: ≤ (1+ε)k sites, cost within O(log k / ε).
    let params = CmcParams {
        discount_coverage: false,
        ..CmcParams::epsilon(k, coverage, 1.0, 0.5)
    };
    let guarded = cmc(&system, &params, &deadline, &mut NoopObserver)
        .expect("feasible")
        .expect_complete("no deadline");
    println!(
        "\nCMC plan (ε=0.5): {} sites, cost {:.0}, covering {}",
        guarded.solution.size(),
        guarded.solution.total_cost(),
        guarded.solution.covered()
    );
    assert!(guarded.solution.size() <= (1.5 * k as f64) as usize);

    // What prior art would do instead (Section III):
    let unbounded = greedy_weighted_set_cover(&system, coverage, &mut NoopObserver).unwrap();
    println!(
        "\nweighted set cover ignores the size bound: {} sites (cost {:.0})",
        unbounded.size(),
        unbounded.total_cost()
    );
    let cost_blind = greedy_max_coverage(&system, k, &mut NoopObserver);
    println!(
        "max coverage ignores cost: {} sites covering {} but costing {:.0}",
        cost_blind.size(),
        cost_blind.covered(),
        cost_blind.total_cost()
    );

    // On a problem this small the exact optimum is computable:
    let target = coverage_target(system.num_elements(), coverage);
    let optimal = exact_optimal(&system, k, target, &mut NoopObserver).expect("feasible");
    println!(
        "\nexact optimum: cost {:.0} — CWSC is within {:.1}% of it",
        optimal.total_cost(),
        100.0 * (plan.total_cost().value() / optimal.total_cost().value() - 1.0)
    );
    assert!(optimal.total_cost() <= plan.total_cost());
}

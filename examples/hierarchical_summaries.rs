//! Hierarchical patterns — the §II extension ("attribute tree hierarchies
//! or numerical ranges") implemented in `scwsc_patterns::hierarchy`.
//!
//! Scenario: sales transactions with a `Region` attribute organized into a
//! geography tree and a numeric `amount` measure binned into dyadic
//! ranges. The task: choose at most 4 segments to audit, covering ≥60% of
//! transactions while minimizing the total transaction value audited
//! (`CostFn::Sum`). Region-level patterns like `{Region=WestCoast, …}` cover
//! several leaf locations with a single (cheap) set — strictly more
//! options than the flat pattern cube.
//!
//! Run with: `cargo run --release --example hierarchical_summaries`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scwsc::patterns::hierarchy::{bin_numeric, HierarchicalSpace, Hierarchy};
use scwsc::prelude::*;

fn main() {
    // ---- Build a transactions table ------------------------------------
    let cities = [
        ("Seattle", "WestCoast"),
        ("Portland", "WestCoast"),
        ("SanFrancisco", "WestCoast"),
        ("Boston", "EastCoast"),
        ("NewYork", "EastCoast"),
        ("Miami", "EastCoast"),
        ("Chicago", "Midwest"),
        ("Detroit", "Midwest"),
    ];
    let products = ["laptop", "phone", "tablet", "monitor"];
    let mut rng = StdRng::seed_from_u64(11);
    let mut amounts: Vec<f64> = Vec::new();
    let mut rows: Vec<(usize, usize)> = Vec::new();
    for _ in 0..4_000 {
        let city = rng.gen_range(0..cities.len());
        let product = rng.gen_range(0..products.len());
        // Regional price levels: the west coast runs pricier.
        let base = match cities[city].1 {
            "WestCoast" => 900.0,
            "EastCoast" => 600.0,
            _ => 300.0,
        };
        amounts.push(base + rng.gen_range(0.0..400.0) + product as f64 * 50.0);
        rows.push((city, product));
    }
    // Bin the amount into 8 dyadic ranges and use the bin as a *pattern
    // attribute* (the paper's "numerical ranges"); the raw amount remains
    // the measure.
    let (bins, amount_hierarchy) = bin_numeric(&amounts, 8);

    let mut builder = Table::builder(&["City", "Product", "AmountBin"], "amount");
    for (i, &(city, product)) in rows.iter().enumerate() {
        builder
            .push_row(&[cities[city].0, products[product], &bins[i]], amounts[i])
            .unwrap();
    }
    let table = builder.build();

    // ---- Attach hierarchies --------------------------------------------
    let city_names: Vec<&str> = table.dictionary(0).iter().map(|(_, v)| v).collect();
    let mut geo = Hierarchy::flat(&city_names);
    for region in ["WestCoast", "EastCoast", "Midwest"] {
        let members: Vec<&str> = cities
            .iter()
            .filter(|(_, r)| *r == region)
            .map(|(c, _)| *c)
            .collect();
        geo.add_group(region, &members).unwrap();
    }
    let product_names: Vec<&str> = table.dictionary(1).iter().map(|(_, v)| v).collect();
    // Align the amount hierarchy's leaves with the dictionary order.
    let bin_names: Vec<&str> = table.dictionary(2).iter().map(|(_, v)| v).collect();
    let mut amount_h = Hierarchy::flat(&bin_names);
    // Rebuild the dyadic groups over the dictionary-ordered leaves.
    let _ = amount_hierarchy; // grouping below follows the same dyadic idea
    let mut level: Vec<String> = bin_names.iter().map(|s| (*s).to_owned()).collect();
    while level.len() > 2 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                let name = format!("{}∪{}", pair[0], pair[1]);
                amount_h
                    .add_group(&name, &[&pair[0], &pair[1]])
                    .expect("fresh nodes");
                next.push(name);
            } else {
                next.push(pair[0].clone());
            }
        }
        level = next;
    }

    let space = HierarchicalSpace::new(
        &table,
        vec![geo, Hierarchy::flat(&product_names), amount_h],
        CostFn::Sum,
    );

    // ---- Summarize -------------------------------------------------------
    let (k, coverage) = (4, 0.6);
    let deadline = Deadline::unbounded();
    // opt_cwsc runs over any lattice: the hierarchy-enriched one here.
    let summary = opt_cwsc(&space, k, coverage, &deadline, &mut NoopObserver)
        .expect("feasible")
        .expect_complete("no deadline");
    println!(
        "hierarchical summary: {} patterns, weight {:.0}, covering {}/{}",
        summary.size(),
        summary.total_cost,
        summary.covered,
        table.num_rows()
    );
    for p in &summary.patterns {
        let n = space.benefit(p).len();
        println!("    {:55} ({n:4} transactions)", space.display(p));
    }

    // Compare with the flat pattern cube: hierarchies only add options, so
    // the hierarchical optimum is never worse.
    let flat_space = PatternSpace::new(&table, CostFn::Sum);
    let flat = opt_cwsc(&flat_space, k, coverage, &deadline, &mut NoopObserver)
        .expect("feasible")
        .expect_complete("no deadline");
    println!(
        "\nflat summary for comparison: {} patterns, weight {:.0}",
        flat.size(),
        flat.total_cost
    );
    assert!(summary.covered >= coverage_target(table.num_rows(), coverage));
    assert!(summary.size() <= k);
    assert!(
        summary.total_cost <= flat.total_cost,
        "hierarchies add options, never remove them"
    );
}

//! Snapshot comparison: the `scwsc_bench diff` semantics (DESIGN.md §10).
//!
//! Two snapshot dimensions are held to different standards:
//!
//! * **Deterministic counters** (benefits computed, postings scanned,
//!   prunes, selections, stale pops, …) are a function of the workload and
//!   the algorithm alone, so they must match **exactly**. Any difference —
//!   in either direction — fails the diff: an "improvement" that changes
//!   the work done is an algorithmic change and the baseline must be
//!   regenerated deliberately, not drifted past.
//! * **Timings and allocations** are machine- and run-dependent, so they
//!   compare within a configurable relative tolerance, and only
//!   *increases* beyond it count as regressions (getting faster or leaner
//!   is reported but never fails).

use crate::snapshot::{Snapshot, WorkloadRun};

/// Counters that are recorded in snapshots but never compared exactly.
///
/// The pruned-refresh advisories of `opt_cwsc` and `opt_cmc` measure the
/// refresh, not the solve's decisions: they count how much recounting the
/// refresh skipped. Any drift is surfaced as a note, not a regression, so
/// a change to the refresh alone needs no baseline regeneration.
pub const ADVISORY_COUNTERS: &[&str] = &["scan_candidates_pruned", "scan_bounds_refreshed"];

/// Counters that older committed snapshots carry but this build no longer
/// records, because the code that counted them is gone. A baseline holding
/// one gets a note, not a "counter missing" failure.
pub const RETIRED_COUNTERS: &[&str] = &["scan_sketch_inconclusive"];

fn is_advisory(key: &str) -> bool {
    ADVISORY_COUNTERS.contains(&key)
}

/// Knobs of one diff run.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative headroom for timings and allocation statistics: a new
    /// value regresses when `new > base * (1 + tolerance)`.
    pub tolerance: f64,
    /// Compare only the deterministic counters (CI mode: wall-clock on a
    /// shared runner is too noisy to gate on).
    pub counters_only: bool,
}

impl Default for DiffOptions {
    /// 25% timing headroom, all dimensions compared.
    fn default() -> DiffOptions {
        DiffOptions {
            tolerance: 0.25,
            counters_only: false,
        }
    }
}

/// Outcome of comparing two snapshots.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Failures: each line names the workload, the dimension, and both
    /// values. Non-empty means the diff fails.
    pub regressions: Vec<String>,
    /// Non-failing observations (improvements, new workloads).
    pub notes: Vec<String>,
    /// Workloads compared.
    pub compared: usize,
}

impl DiffReport {
    /// Whether the new snapshot is acceptable against the baseline.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable summary, one line per finding.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.regressions {
            out.push_str("REGRESSION  ");
            out.push_str(r);
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str("note        ");
            out.push_str(n);
            out.push('\n');
        }
        out.push_str(&format!(
            "{} workload(s) compared, {} regression(s)\n",
            self.compared,
            self.regressions.len()
        ));
        out
    }
}

/// Compares `new` against the `base` baseline.
pub fn diff(base: &Snapshot, new: &Snapshot, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    for base_run in &base.workloads {
        let Some(new_run) = new.workload(&base_run.name) else {
            report.regressions.push(format!(
                "{}: workload missing from new snapshot",
                base_run.name
            ));
            continue;
        };
        report.compared += 1;
        diff_counters(base_run, new_run, &mut report);
        // Quality is deterministic (greedy cost and dual bound are functions
        // of the workload), so the gate stays active under --counters-only.
        diff_quality(base_run, new_run, opts.tolerance, &mut report);
        if !opts.counters_only {
            diff_timing(base_run, new_run, opts.tolerance, &mut report);
            diff_alloc(base_run, new_run, opts.tolerance, &mut report);
        }
    }
    for new_run in &new.workloads {
        if base.workload(&new_run.name).is_none() {
            report
                .notes
                .push(format!("{}: new workload, no baseline", new_run.name));
        }
    }
    report
}

fn diff_counters(base: &WorkloadRun, new: &WorkloadRun, report: &mut DiffReport) {
    for (key, &base_v) in &base.counters {
        if RETIRED_COUNTERS.contains(&key.as_str()) {
            report.notes.push(format!(
                "{}: retired counter '{key}' not compared",
                base.name
            ));
            continue;
        }
        if is_advisory(key) {
            if let Some(&new_v) = new.counters.get(key) {
                if new_v != base_v {
                    report.notes.push(format!(
                        "{}: advisory counter '{key}' {base_v} -> {new_v}",
                        base.name
                    ));
                }
            }
            continue;
        }
        match new.counters.get(key) {
            None => report
                .regressions
                .push(format!("{}: counter '{key}' missing", base.name)),
            Some(&new_v) if new_v != base_v => report.regressions.push(format!(
                "{}: counter '{key}' changed {base_v} -> {new_v}",
                base.name
            )),
            _ => {}
        }
    }
    for key in new.counters.keys() {
        if !base.counters.contains_key(key) {
            report
                .notes
                .push(format!("{}: new counter '{key}'", base.name));
        }
    }
}

fn diff_quality(base: &WorkloadRun, new: &WorkloadRun, tolerance: f64, report: &mut DiffReport) {
    let (Some(b), Some(n)) = (&base.quality, &new.quality) else {
        // One side recorded before the audit ledger existed (schema 1):
        // nothing to hold the other side to.
        return;
    };
    if b.greedy_cost > 0.0 && n.greedy_cost > b.greedy_cost * (1.0 + tolerance) {
        report.regressions.push(format!(
            "{}: greedy cost {:.4} -> {:.4} (+{:.0}%, tolerance {:.0}%)",
            base.name,
            b.greedy_cost,
            n.greedy_cost,
            100.0 * (n.greedy_cost / b.greedy_cost - 1.0),
            100.0 * tolerance
        ));
    } else if b.greedy_cost > 0.0 && n.greedy_cost < b.greedy_cost * (1.0 - tolerance) {
        report.notes.push(format!(
            "{}: greedy cost improved {:.4} -> {:.4}",
            base.name, b.greedy_cost, n.greedy_cost
        ));
    }
    let (br, nr) = (b.certified_ratio(), n.certified_ratio());
    if br.is_finite() && nr.is_infinite() {
        report.regressions.push(format!(
            "{}: certified bound became uninformative (ratio {:.3} -> inf)",
            base.name, br
        ));
    } else if br.is_finite() && nr > br * (1.0 + tolerance) {
        report.regressions.push(format!(
            "{}: certified ratio {:.3} -> {:.3} (+{:.0}%, tolerance {:.0}%)",
            base.name,
            br,
            nr,
            100.0 * (nr / br - 1.0),
            100.0 * tolerance
        ));
    }
}

fn diff_timing(base: &WorkloadRun, new: &WorkloadRun, tolerance: f64, report: &mut DiffReport) {
    let (b, n) = (base.median_secs(), new.median_secs());
    if b <= 0.0 {
        return; // degenerate baseline: nothing meaningful to compare
    }
    if n > b * (1.0 + tolerance) {
        report.regressions.push(format!(
            "{}: median {:.4}s -> {:.4}s (+{:.0}%, tolerance {:.0}%)",
            base.name,
            b,
            n,
            100.0 * (n / b - 1.0),
            100.0 * tolerance
        ));
    } else if n < b * (1.0 - tolerance) {
        report.notes.push(format!(
            "{}: median improved {:.4}s -> {:.4}s",
            base.name, b, n
        ));
    }
}

fn diff_alloc(base: &WorkloadRun, new: &WorkloadRun, tolerance: f64, report: &mut DiffReport) {
    let (Some(b), Some(n)) = (&base.alloc, &new.alloc) else {
        // One side recorded without the counting allocator: nothing to
        // hold the other side to.
        return;
    };
    let dims = [
        ("allocs", b.allocs, n.allocs),
        ("bytes_allocated", b.bytes_allocated, n.bytes_allocated),
        ("peak_live_bytes", b.peak_live_bytes, n.peak_live_bytes),
    ];
    for (dim, base_v, new_v) in dims {
        if base_v == 0 {
            continue;
        }
        let ratio = new_v as f64 / base_v as f64;
        if ratio > 1.0 + tolerance {
            report.regressions.push(format!(
                "{}: {dim} {base_v} -> {new_v} (+{:.0}%, tolerance {:.0}%)",
                base.name,
                100.0 * (ratio - 1.0),
                100.0 * tolerance
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{AllocStats, QualityStats, SpanSnapshot};
    use std::collections::BTreeMap;

    fn run(name: &str, secs: f64, selections: u64, allocs: u64) -> WorkloadRun {
        WorkloadRun {
            name: name.to_string(),
            rep_secs: vec![secs],
            counters: BTreeMap::from([
                ("selections".to_string(), selections),
                ("benefits_computed".to_string(), 100),
            ]),
            spans: SpanSnapshot {
                name: "total".into(),
                count: 1,
                total_secs: secs,
                counters: BTreeMap::new(),
                children: Vec::new(),
            },
            alloc: Some(AllocStats {
                allocs,
                bytes_allocated: allocs * 64,
                peak_live_bytes: allocs * 16,
            }),
            quality: Some(QualityStats {
                greedy_cost: 20.0,
                lower_bound: 10.0,
                mean_margin: 0.5,
                rounds: selections,
            }),
        }
    }

    fn with_quality(mut r: WorkloadRun, greedy_cost: f64, lower_bound: f64) -> WorkloadRun {
        r.quality = Some(QualityStats {
            greedy_cost,
            lower_bound,
            mean_margin: 0.5,
            rounds: 7,
        });
        r
    }

    fn snap(runs: Vec<WorkloadRun>) -> Snapshot {
        Snapshot {
            label: "t".into(),
            git_sha: "x".into(),
            rustc: "r".into(),
            reps: 1,
            workloads: runs,
        }
    }

    #[test]
    fn identical_snapshots_diff_clean() {
        let s = snap(vec![run("a", 0.5, 7, 1000)]);
        let report = diff(&s, &s.clone(), &DiffOptions::default());
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn counter_change_fails_in_both_directions() {
        let base = snap(vec![run("a", 0.5, 7, 1000)]);
        for changed in [6, 8] {
            let new = snap(vec![run("a", 0.5, changed, 1000)]);
            let report = diff(&base, &new, &DiffOptions::default());
            assert!(!report.ok(), "selections {changed} must fail exact match");
            assert!(report.regressions[0].contains("selections"));
        }
    }

    #[test]
    fn timing_regression_respects_tolerance() {
        let base = snap(vec![run("a", 1.0, 7, 1000)]);
        let opts = DiffOptions {
            tolerance: 0.25,
            counters_only: false,
        };
        assert!(diff(&base, &snap(vec![run("a", 1.2, 7, 1000)]), &opts).ok());
        let slow = diff(&base, &snap(vec![run("a", 1.3, 7, 1000)]), &opts);
        assert!(!slow.ok());
        assert!(slow.regressions[0].contains("median"));
        // Faster is a note, never a failure.
        let fast = diff(&base, &snap(vec![run("a", 0.2, 7, 1000)]), &opts);
        assert!(fast.ok());
        assert!(fast.notes[0].contains("improved"));
    }

    #[test]
    fn counters_only_ignores_time_and_alloc() {
        let base = snap(vec![run("a", 1.0, 7, 1000)]);
        let new = snap(vec![run("a", 99.0, 7, 999_999)]);
        let opts = DiffOptions {
            tolerance: 0.25,
            counters_only: true,
        };
        assert!(diff(&base, &new, &opts).ok());
    }

    #[test]
    fn alloc_growth_fails_shrink_passes() {
        let base = snap(vec![run("a", 1.0, 7, 1000)]);
        let opts = DiffOptions::default();
        assert!(!diff(&base, &snap(vec![run("a", 1.0, 7, 2000)]), &opts).ok());
        assert!(diff(&base, &snap(vec![run("a", 1.0, 7, 500)]), &opts).ok());
    }

    #[test]
    fn missing_workload_and_counter_fail() {
        let base = snap(vec![run("a", 1.0, 7, 1000), run("b", 1.0, 3, 10)]);
        let report = diff(
            &base,
            &snap(vec![run("a", 1.0, 7, 1000)]),
            &DiffOptions::default(),
        );
        assert!(!report.ok());
        assert!(report.regressions[0].contains("missing"));

        let mut shrunk = run("a", 1.0, 7, 1000);
        shrunk.counters.remove("selections");
        let report = diff(
            &snap(vec![run("a", 1.0, 7, 1000)]),
            &snap(vec![shrunk]),
            &DiffOptions::default(),
        );
        assert!(!report.ok());
    }

    #[test]
    fn new_workloads_are_notes_not_failures() {
        let base = snap(vec![run("a", 1.0, 7, 1000)]);
        let new = snap(vec![run("a", 1.0, 7, 1000), run("c", 1.0, 1, 1)]);
        let report = diff(&base, &new, &DiffOptions::default());
        assert!(report.ok());
        assert!(report.notes.iter().any(|n| n.contains("no baseline")));
    }

    #[test]
    fn quality_gate_fails_on_cost_and_ratio_regressions() {
        let base = snap(vec![with_quality(run("a", 1.0, 7, 1000), 20.0, 10.0)]);
        let opts = DiffOptions {
            tolerance: 0.25,
            counters_only: true, // quality stays gated even in CI mode
        };
        // Within tolerance on both dimensions: clean.
        let near = snap(vec![with_quality(run("a", 1.0, 7, 1000), 22.0, 10.0)]);
        assert!(diff(&base, &near, &opts).ok());
        // Greedy cost blew past tolerance.
        let costly = snap(vec![with_quality(run("a", 1.0, 7, 1000), 30.0, 15.0)]);
        let report = diff(&base, &costly, &opts);
        assert!(!report.ok());
        assert!(report.regressions[0].contains("greedy cost"));
        // Bound weakened: same cost, certified ratio 2.0 -> 4.0.
        let loose = snap(vec![with_quality(run("a", 1.0, 7, 1000), 20.0, 5.0)]);
        let report = diff(&base, &loose, &opts);
        assert!(!report.ok());
        assert!(report.regressions[0].contains("certified ratio"));
        // Cheaper is a note, never a failure.
        let better = snap(vec![with_quality(run("a", 1.0, 7, 1000), 10.0, 10.0)]);
        let report = diff(&base, &better, &opts);
        assert!(report.ok(), "{}", report.render());
        assert!(report.notes.iter().any(|n| n.contains("improved")));
    }

    #[test]
    fn uninformative_bound_is_a_regression_missing_quality_is_not() {
        let base = snap(vec![with_quality(run("a", 1.0, 7, 1000), 20.0, 10.0)]);
        // Finite ratio degrading to infinite (LB collapsed to zero) fails.
        let dead = snap(vec![with_quality(run("a", 1.0, 7, 1000), 20.0, 0.0)]);
        let report = diff(&base, &dead, &DiffOptions::default());
        assert!(!report.ok());
        assert!(report.regressions[0].contains("uninformative"));
        // A schema-1 side without quality is tolerated in either direction.
        let mut old = run("a", 1.0, 7, 1000);
        old.quality = None;
        assert!(diff(&snap(vec![old.clone()]), &base, &DiffOptions::default()).ok());
        assert!(diff(&base, &snap(vec![old]), &DiffOptions::default()).ok());
    }

    #[test]
    fn advisory_counters_drift_as_notes_not_regressions() {
        let mut base_run = run("a", 1.0, 7, 1000);
        base_run
            .counters
            .insert("scan_candidates_pruned".to_string(), 900);
        base_run
            .counters
            .insert("scan_bounds_refreshed".to_string(), 40);
        let mut new_run = run("a", 1.0, 7, 1000);
        // t4 run prunes a different subset than t1: values drift, and one
        // advisory key can even go missing (an old-schema snapshot may
        // lack the key entirely).
        new_run
            .counters
            .insert("scan_candidates_pruned".to_string(), 123);
        let report = diff(
            &snap(vec![base_run]),
            &snap(vec![new_run]),
            &DiffOptions::default(),
        );
        assert!(report.ok(), "{}", report.render());
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("advisory counter 'scan_candidates_pruned' 900 -> 123")));
        // But an exact counter drifting by the same amount still fails.
        let mut bad = run("a", 1.0, 9, 1000);
        bad.counters.insert("scan_candidates_pruned".to_string(), 1);
        let report = diff(
            &snap(vec![run("a", 1.0, 7, 1000)]),
            &snap(vec![bad]),
            &DiffOptions::default(),
        );
        assert!(!report.ok());
        assert!(report.regressions[0].contains("selections"));
    }

    #[test]
    fn retired_counters_in_a_baseline_are_notes() {
        let mut base_run = run("a", 1.0, 7, 1000);
        base_run
            .counters
            .insert("scan_sketch_inconclusive".to_string(), 0);
        let report = diff(
            &snap(vec![base_run]),
            &snap(vec![run("a", 1.0, 7, 1000)]),
            &DiffOptions::default(),
        );
        assert!(report.ok(), "{}", report.render());
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("retired counter 'scan_sketch_inconclusive'")));
    }

    #[test]
    fn missing_alloc_on_either_side_is_tolerated() {
        let mut a = run("a", 1.0, 7, 1000);
        a.alloc = None;
        let base = snap(vec![a]);
        let new = snap(vec![run("a", 1.0, 7, 999_999)]);
        assert!(diff(&base, &new, &DiffOptions::default()).ok());
    }
}

//! Snapshot comparison: the `scwsc_bench diff` semantics (DESIGN.md §10).
//!
//! `diff` gates only what a recording determines exactly, so a quick
//! recording on any host compares against the committed baseline:
//!
//! * **Counters** (benefits computed, postings scanned, prunes,
//!   selections, stale pops, …) are a function of the workload and the
//!   algorithm alone, so they must match **exactly**. Any difference — in
//!   either direction — fails the diff: a change to the work done is an
//!   algorithmic change and the baseline must be re-recorded
//!   deliberately, not drifted past.
//! * **Allocations** (`allocs`, `bytes_allocated`, `peak_live_bytes`) and
//!   **certified quality** (greedy cost, certified ratio) may not get
//!   worse by any amount. Getting better is a note asking for the
//!   baseline to be re-recorded, so the next regression is measured from
//!   the new level.
//!
//! Timings are not compared: on a shared host they move by more than most
//! changes do, so timing gates belong to perfbench's paired runs. The span
//! times stay in the snapshot for `diff --attribute`.

use crate::snapshot::{Snapshot, WorkloadRun};

/// Counters that are recorded in snapshots but never compared exactly.
///
/// The pruned-refresh advisories of `opt_cwsc` and `opt_cmc` measure the
/// refresh, not the solve's decisions: they count how much recounting the
/// refresh skipped. Any drift is surfaced as a note, not a regression, so
/// a change to the refresh alone needs no baseline regeneration.
pub const ADVISORY_COUNTERS: &[&str] = &["scan_candidates_pruned", "scan_bounds_refreshed"];

fn is_advisory(key: &str) -> bool {
    ADVISORY_COUNTERS.contains(&key)
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
pub fn diff(base: &Snapshot, new: &Snapshot) -> DiffReport {
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
        diff_quality(base_run, new_run, &mut report);
        diff_alloc(base_run, new_run, &mut report);
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

/// Holds `new` to at most `base` on one lower-is-better dimension: a rise
/// is a regression, a fall a note to re-record the baseline.
fn no_worse<T: PartialOrd + std::fmt::Display>(
    workload: &str,
    dim: &str,
    base: T,
    new: T,
    report: &mut DiffReport,
) {
    if new > base {
        report
            .regressions
            .push(format!("{workload}: {dim} rose {base} -> {new}"));
    } else if new < base {
        report.notes.push(format!(
            "{workload}: {dim} fell {base} -> {new}; re-record the baseline"
        ));
    }
}

fn diff_quality(base: &WorkloadRun, new: &WorkloadRun, report: &mut DiffReport) {
    let (b, n) = (&base.quality, &new.quality);
    no_worse(
        &base.name,
        "greedy cost",
        b.greedy_cost,
        n.greedy_cost,
        report,
    );
    // An infinite ratio (uninformative bound) compares above every finite
    // one, so a bound collapsing to zero fails like any other rise.
    no_worse(
        &base.name,
        "certified ratio",
        b.certified_ratio(),
        n.certified_ratio(),
        report,
    );
}

fn diff_alloc(base: &WorkloadRun, new: &WorkloadRun, report: &mut DiffReport) {
    let Some(b) = &base.alloc else {
        // A baseline recorded without the counting allocator: nothing to
        // hold the new side to.
        return;
    };
    let Some(n) = &new.alloc else {
        report.regressions.push(format!(
            "{}: alloc block missing (recorded without the counting allocator)",
            base.name
        ));
        return;
    };
    no_worse(&base.name, "allocs", b.allocs, n.allocs, report);
    no_worse(
        &base.name,
        "bytes_allocated",
        b.bytes_allocated,
        n.bytes_allocated,
        report,
    );
    no_worse(
        &base.name,
        "peak_live_bytes",
        b.peak_live_bytes,
        n.peak_live_bytes,
        report,
    );
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
            quality: QualityStats {
                greedy_cost: 20.0,
                lower_bound: 10.0,
                mean_margin: 0.5,
                rounds: selections,
            },
        }
    }

    fn with_quality(mut r: WorkloadRun, greedy_cost: f64, lower_bound: f64) -> WorkloadRun {
        r.quality = QualityStats {
            greedy_cost,
            lower_bound,
            mean_margin: 0.5,
            rounds: 7,
        };
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
        let report = diff(&s, &s.clone());
        assert!(report.ok(), "{}", report.render());
        assert!(report.notes.is_empty(), "{}", report.render());
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn counter_change_fails_in_both_directions() {
        let base = snap(vec![run("a", 0.5, 7, 1000)]);
        for changed in [6, 8] {
            let new = snap(vec![run("a", 0.5, changed, 1000)]);
            let report = diff(&base, &new);
            assert!(!report.ok(), "selections {changed} must fail exact match");
            assert!(report.regressions[0].contains("selections"));
        }
    }

    #[test]
    fn timings_are_not_gated() {
        let base = snap(vec![run("a", 1.0, 7, 1000)]);
        for secs in [0.01, 99.0] {
            let report = diff(&base, &snap(vec![run("a", secs, 7, 1000)]));
            assert!(report.ok(), "{}", report.render());
            assert!(report.notes.is_empty(), "{}", report.render());
        }
    }

    #[test]
    fn one_extra_allocation_fails_one_fewer_asks_for_a_rerecord() {
        let base = snap(vec![run("a", 1.0, 7, 1000)]);
        let mut more = run("a", 1.0, 7, 1000);
        more.alloc.as_mut().unwrap().allocs += 1;
        let report = diff(&base, &snap(vec![more]));
        assert!(!report.ok());
        assert_eq!(report.regressions, ["a: allocs rose 1000 -> 1001"]);

        let mut fewer = run("a", 1.0, 7, 1000);
        fewer.alloc.as_mut().unwrap().peak_live_bytes -= 1;
        let report = diff(&base, &snap(vec![fewer]));
        assert!(report.ok(), "{}", report.render());
        assert!(report.notes[0].contains("peak_live_bytes fell"));
        assert!(report.notes[0].contains("re-record"));
    }

    #[test]
    fn missing_alloc_block_fails_only_when_the_baseline_has_one() {
        let base = snap(vec![run("a", 1.0, 7, 1000)]);
        let mut bare = run("a", 1.0, 7, 1000);
        bare.alloc = None;
        let report = diff(&base, &snap(vec![bare.clone()]));
        assert!(!report.ok());
        assert!(report.regressions[0].contains("alloc block missing"));
        // A baseline recorded without the counting allocator holds the
        // new side to nothing.
        assert!(diff(&snap(vec![bare]), &base).ok());
    }

    #[test]
    fn missing_workload_and_counter_fail() {
        let base = snap(vec![run("a", 1.0, 7, 1000), run("b", 1.0, 3, 10)]);
        let report = diff(&base, &snap(vec![run("a", 1.0, 7, 1000)]));
        assert!(!report.ok());
        assert!(report.regressions[0].contains("missing"));

        let mut shrunk = run("a", 1.0, 7, 1000);
        shrunk.counters.remove("selections");
        let report = diff(&snap(vec![run("a", 1.0, 7, 1000)]), &snap(vec![shrunk]));
        assert!(!report.ok());
    }

    #[test]
    fn new_workloads_are_notes_not_failures() {
        let base = snap(vec![run("a", 1.0, 7, 1000)]);
        let new = snap(vec![run("a", 1.0, 7, 1000), run("c", 1.0, 1, 1)]);
        let report = diff(&base, &new);
        assert!(report.ok());
        assert!(report.notes.iter().any(|n| n.contains("no baseline")));
    }

    #[test]
    fn greedy_cost_one_percent_worse_fails() {
        let base = snap(vec![with_quality(run("a", 1.0, 7, 1000), 20.0, 10.0)]);
        // Cost up 1%, bound up 2%: the certified ratio improves, so only
        // the cost regresses.
        let costly = snap(vec![with_quality(run("a", 1.0, 7, 1000), 20.2, 10.2)]);
        let report = diff(&base, &costly);
        assert!(!report.ok());
        assert_eq!(report.regressions, ["a: greedy cost rose 20 -> 20.2"]);
    }

    #[test]
    fn certified_ratio_one_percent_worse_fails() {
        let base = snap(vec![with_quality(run("a", 1.0, 7, 1000), 20.0, 10.0)]);
        // Same cost, bound 1% weaker: ratio 2.0 -> 2.0202.
        let loose = snap(vec![with_quality(run("a", 1.0, 7, 1000), 20.0, 9.9)]);
        let report = diff(&base, &loose);
        assert!(!report.ok());
        assert_eq!(report.regressions.len(), 1, "{}", report.render());
        assert!(report.regressions[0].contains("certified ratio rose 2 -> 2.02"));
    }

    #[test]
    fn better_quality_is_a_note_not_a_failure() {
        let base = snap(vec![with_quality(run("a", 1.0, 7, 1000), 20.0, 10.0)]);
        let better = snap(vec![with_quality(run("a", 1.0, 7, 1000), 10.0, 10.0)]);
        let report = diff(&base, &better);
        assert!(report.ok(), "{}", report.render());
        assert!(report.notes.iter().any(|n| n.contains("greedy cost fell")));
    }

    #[test]
    fn uninformative_bound_is_a_regression() {
        let base = snap(vec![with_quality(run("a", 1.0, 7, 1000), 20.0, 10.0)]);
        // Finite ratio degrading to infinite (LB collapsed to zero) fails.
        let dead = snap(vec![with_quality(run("a", 1.0, 7, 1000), 20.0, 0.0)]);
        let report = diff(&base, &dead);
        assert!(!report.ok());
        assert!(report.regressions[0].contains("certified ratio rose 2 -> inf"));
        // An already uninformative baseline stays comparable with itself.
        assert!(diff(&dead, &dead.clone()).ok());
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
        // The new run prunes a different subset: values drift, and one
        // advisory key can even go missing.
        new_run
            .counters
            .insert("scan_candidates_pruned".to_string(), 123);
        let report = diff(&snap(vec![base_run]), &snap(vec![new_run]));
        assert!(report.ok(), "{}", report.render());
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("advisory counter 'scan_candidates_pruned' 900 -> 123")));
        // But an exact counter drifting by the same amount still fails.
        let mut bad = run("a", 1.0, 9, 1000);
        bad.counters.insert("scan_candidates_pruned".to_string(), 1);
        let report = diff(&snap(vec![run("a", 1.0, 7, 1000)]), &snap(vec![bad]));
        assert!(!report.ok());
        assert!(report.regressions[0].contains("selections"));
    }
}

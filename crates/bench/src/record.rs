//! Driving a workload suite into a [`Snapshot`] (`scwsc_bench record`).

use crate::measure::run_traced;
use crate::registry::Workload;
use crate::snapshot::{
    deterministic_counters, AllocStats, QualityStats, Snapshot, SpanSnapshot, WorkloadRun,
};
use scwsc_core::telemetry::alloc;
use scwsc_core::telemetry::audit::{self, DecisionLedger};
use scwsc_core::{coverage_target, Fanout, MetricsRecorder, SpanProfiler};
use scwsc_patterns::enumerate_all;

/// Times every workload `reps` times and assembles the snapshot.
///
/// Each rep regenerates the input table so table construction cannot warm
/// caches across reps unevenly, and runs with a fresh [`SpanProfiler`].
/// The deterministic counters and the span tree are taken from the last
/// rep (the counters are identical across reps by construction — that is
/// what makes them exact-diff material). Allocation statistics cover the
/// last rep's solve, with the peak counted from the bytes live at its
/// start, so rep count, label and output path leave them unchanged; they
/// are `None` unless the recording binary installed the counting
/// allocator.
///
/// `progress` is called once per workload with a short status line.
pub fn record_suite(
    suite: &[Workload],
    label: &str,
    reps: usize,
    progress: impl FnMut(&str),
) -> Snapshot {
    record_suite_with_metrics(suite, label, reps, progress).0
}

/// [`record_suite`] that also returns the suite-wide merged
/// [`MetricsRecorder`] (each workload's last rep, merged in suite order) —
/// the source for `scwsc_bench record --export-metrics`.
pub fn record_suite_with_metrics(
    suite: &[Workload],
    label: &str,
    reps: usize,
    mut progress: impl FnMut(&str),
) -> (Snapshot, MetricsRecorder) {
    assert!(reps >= 1, "at least one rep required");
    let mut merged = MetricsRecorder::new();
    let mut workloads = Vec::with_capacity(suite.len());
    for w in suite {
        let mut rep_secs = Vec::with_capacity(reps);
        let mut last: Option<WorkloadRun> = None;
        for rep in 0..reps {
            let table = w.gen.table();
            let mut profiler = SpanProfiler::new();
            let mut ledger = DecisionLedger::new();
            let alloc_before = {
                alloc::reset_peak();
                alloc::snapshot()
            };
            let (measurement, metrics) = {
                let mut extra = Fanout::new();
                extra.attach(&mut profiler).attach(&mut ledger);
                run_traced(w.algo, &table, &w.params, &mut extra, None)
            };
            let alloc_stats =
                alloc::is_active().then(|| AllocStats::between(&alloc_before, &alloc::snapshot()));
            assert!(measurement.ok, "workload {} failed to solve", w.name);
            rep_secs.push(measurement.seconds);
            if rep + 1 < reps {
                continue;
            }
            merged.merge(&metrics);
            // Certify the last rep only: the dual bound re-enumerates the
            // pattern cube, which is recording overhead, not solve time.
            let cube = enumerate_all(&table, w.params.cost_fn);
            let target = coverage_target(table.num_rows(), w.params.coverage);
            let cert = audit::certify(&cube.system, &ledger.prices(), target);
            let quality = QualityStats {
                greedy_cost: cert.greedy_cost,
                lower_bound: cert.lower_bound,
                mean_margin: ledger.mean_margin(),
                rounds: ledger.rounds_total() as u64,
            };
            last = Some(WorkloadRun {
                name: w.name.clone(),
                rep_secs: Vec::new(), // filled in below, once all reps ran
                counters: deterministic_counters(&metrics),
                spans: SpanSnapshot::from_node(&profiler.tree()),
                alloc: alloc_stats,
                quality,
            });
        }
        let mut run = last.expect("reps >= 1");
        run.rep_secs = rep_secs;
        progress(&format!(
            "{:<28} median {:.4}s over {} rep(s)",
            run.name,
            run.median_secs(),
            reps
        ));
        workloads.push(run);
    }
    let snapshot = Snapshot {
        label: label.to_string(),
        git_sha: crate::snapshot::git_sha(),
        rustc: crate::snapshot::rustc_version(),
        reps,
        workloads,
    };
    (snapshot, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff;
    use crate::registry::smoke_suite;

    #[test]
    fn recorded_smoke_snapshot_self_diffs_clean_and_round_trips() {
        let suite = smoke_suite();
        let snap = record_suite(&suite, "test", 2, |_| {});
        assert_eq!(snap.workloads.len(), suite.len());
        for w in &snap.workloads {
            assert_eq!(w.rep_secs.len(), 2);
            assert!(
                w.counters.values().any(|&v| v > 0),
                "{} did no work",
                w.name
            );
            assert_eq!(w.spans.name, "total", "solver total span is the root");
        }
        // Round-trip through text, then self-diff: counters are exact.
        let parsed = Snapshot::parse(&snap.to_json().to_pretty()).unwrap();
        let report = diff(&snap, &parsed);
        assert!(report.ok(), "{}", report.render());

        // A second recording reproduces the counters and quality exactly.
        let again = record_suite(&suite, "test2", 1, |_| {});
        let report = diff(&snap, &again);
        assert!(report.ok(), "{}", report.render());
        assert!(report.notes.is_empty(), "{}", report.render());
    }

    #[test]
    fn merged_metrics_sum_the_suite_and_render_prometheus() {
        let suite = smoke_suite();
        let (snap, metrics) = record_suite_with_metrics(&suite, "m", 1, |_| {});
        let recorded: u64 = snap
            .workloads
            .iter()
            .filter_map(|w| w.counters.get("benefits_computed"))
            .sum();
        assert_eq!(metrics.benefits_computed, recorded, "merge sums workloads");
        let text = scwsc_core::render_prometheus(&metrics, None);
        let samples = scwsc_core::parse_prometheus(&text).unwrap();
        let sample = samples
            .iter()
            .find(|s| s.name == "scwsc_benefits_computed_total")
            .expect("exported counter present");
        assert_eq!(sample.value, recorded as f64);
    }
}

//! The `BENCH_<label>.json` performance-snapshot model (DESIGN.md §10).
//!
//! A snapshot captures one `scwsc_bench record` run: provenance (label,
//! git SHA, rustc version, rep count) plus, per workload, the median
//! wall-clock over the reps, the deterministic work counters from a
//! [`MetricsRecorder`], the aggregated span tree, and — when the counting
//! allocator is installed — allocation statistics. Snapshots committed at
//! the repo root form the performance trajectory that
//! `scwsc_bench diff` compares against.

use scwsc_core::json::Json;
use scwsc_core::telemetry::{MetricsRecorder, PruneReason, SpanNode};
use std::collections::BTreeMap;
use std::process::Command;

#[cfg(feature = "alloc-stats")]
use scwsc_core::telemetry::alloc::AllocSnapshot;

/// Allocation statistics of one workload run (deltas over the run, peak
/// re-armed at its start). Mirrors the fields of
/// `telemetry::alloc::AllocSnapshot` but is always available so snapshots
/// recorded with `alloc-stats` parse in builds without it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations (including reallocations) during the run.
    pub allocs: u64,
    /// Bytes requested across those allocations.
    pub bytes_allocated: u64,
    /// Peak live bytes during the run.
    pub peak_live_bytes: u64,
}

#[cfg(feature = "alloc-stats")]
impl AllocStats {
    /// Converts a measured allocator delta into snapshot form.
    pub fn from_delta(delta: AllocSnapshot) -> AllocStats {
        AllocStats {
            allocs: delta.allocs,
            bytes_allocated: delta.bytes_allocated,
            peak_live_bytes: delta.peak_live_bytes,
        }
    }
}

/// Certified-quality attribution of one workload run (schema 2): the
/// decision audit's dual-feasible lower bound on the optimal cost,
/// alongside the greedy cost it certifies and the ledger's mean winning
/// margin. Lives *outside* the exact-diff counter map — solution quality
/// compares through its own toleranced gate, and the margin/bound floats
/// would make exact comparison brittle across rustc versions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityStats {
    /// Total charged greedy cost of the final guess.
    pub greedy_cost: f64,
    /// Certified lower bound `LB ≤ optimal cost` (0 when uninformative).
    pub lower_bound: f64,
    /// Mean winning margin over the final guess's rounds.
    pub mean_margin: f64,
    /// Audited selection rounds across all guesses.
    pub rounds: u64,
}

impl QualityStats {
    /// Certified approximation ratio `greedy_cost / LB`: 1 for a free
    /// solution, infinite when the bound is uninformative — which is why
    /// the ratio is derived here instead of being stored (JSON has no
    /// infinity).
    pub fn certified_ratio(&self) -> f64 {
        if self.greedy_cost <= 0.0 {
            1.0
        } else if self.lower_bound <= 0.0 {
            f64::INFINITY
        } else {
            self.greedy_cost / self.lower_bound
        }
    }
}

/// A serializable copy of one aggregated span-tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Span name (`"total"`, `"expand"`, …).
    pub name: String,
    /// Completions aggregated into this node.
    pub count: u64,
    /// Total wall-clock seconds across completions (children included).
    pub total_secs: f64,
    /// Non-zero counters attributed while this span was innermost.
    pub counters: BTreeMap<String, u64>,
    /// Child spans.
    pub children: Vec<SpanSnapshot>,
}

impl SpanSnapshot {
    /// Copies an aggregated [`SpanNode`] tree into snapshot form.
    pub fn from_node(node: &SpanNode) -> SpanSnapshot {
        SpanSnapshot {
            name: node.name.to_string(),
            count: node.count,
            total_secs: node.total_secs,
            counters: node
                .counters
                .nonzero()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            children: node.children.iter().map(SpanSnapshot::from_node).collect(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("count".into(), Json::from_u64(self.count)),
            ("total_secs".into(), Json::Num(self.total_secs)),
            ("counters".into(), counters_to_json(&self.counters)),
            (
                "children".into(),
                Json::Arr(self.children.iter().map(SpanSnapshot::to_json).collect()),
            ),
        ])
    }

    fn from_json(json: &Json) -> Result<SpanSnapshot, String> {
        Ok(SpanSnapshot {
            name: require_str(json, "name")?.to_string(),
            count: require_u64(json, "count")?,
            total_secs: require_f64(json, "total_secs")?,
            counters: counters_from_json(json.get("counters"))?,
            children: json
                .get("children")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(SpanSnapshot::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// One workload's recorded results.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    /// Registry name, e.g. `"fig5/cwsc_opt/rows2000"`.
    pub name: String,
    /// Wall-clock seconds of every rep, in run order.
    pub rep_secs: Vec<f64>,
    /// Deterministic work counters (identical across reps by construction;
    /// recorded from the median-defining rep).
    pub counters: BTreeMap<String, u64>,
    /// Aggregated span tree of one rep.
    pub spans: SpanSnapshot,
    /// Allocator statistics of one rep, when the counting allocator was
    /// installed in the recording process.
    pub alloc: Option<AllocStats>,
    /// Certified-quality attribution of the last rep (schema 2; `None`
    /// for snapshots recorded under schema 1).
    pub quality: Option<QualityStats>,
}

impl WorkloadRun {
    /// Median of [`rep_secs`](WorkloadRun::rep_secs) (lower-middle for
    /// even rep counts).
    pub fn median_secs(&self) -> f64 {
        let mut sorted = self.rep_secs.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[(sorted.len() - 1) / 2]
    }

    fn to_json(&self) -> Json {
        let mut entries = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("median_secs".into(), Json::Num(self.median_secs())),
            (
                "rep_secs".into(),
                Json::Arr(self.rep_secs.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("counters".into(), counters_to_json(&self.counters)),
            ("spans".into(), self.spans.to_json()),
        ];
        if let Some(alloc) = &self.alloc {
            entries.push((
                "alloc".into(),
                Json::Obj(vec![
                    ("allocs".into(), Json::from_u64(alloc.allocs)),
                    (
                        "bytes_allocated".into(),
                        Json::from_u64(alloc.bytes_allocated),
                    ),
                    (
                        "peak_live_bytes".into(),
                        Json::from_u64(alloc.peak_live_bytes),
                    ),
                ]),
            ));
        }
        if let Some(q) = &self.quality {
            entries.push((
                "quality".into(),
                Json::Obj(vec![
                    ("greedy_cost".into(), Json::Num(q.greedy_cost)),
                    ("lower_bound".into(), Json::Num(q.lower_bound)),
                    ("mean_margin".into(), Json::Num(q.mean_margin)),
                    ("rounds".into(), Json::from_u64(q.rounds)),
                ]),
            ));
        }
        Json::Obj(entries)
    }

    fn from_json(json: &Json) -> Result<WorkloadRun, String> {
        let alloc = match json.get("alloc") {
            None | Some(Json::Null) => None,
            Some(a) => Some(AllocStats {
                allocs: require_u64(a, "allocs")?,
                bytes_allocated: require_u64(a, "bytes_allocated")?,
                peak_live_bytes: require_u64(a, "peak_live_bytes")?,
            }),
        };
        let quality = match json.get("quality") {
            None | Some(Json::Null) => None,
            Some(q) => Some(QualityStats {
                greedy_cost: require_f64(q, "greedy_cost")?,
                lower_bound: require_f64(q, "lower_bound")?,
                mean_margin: require_f64(q, "mean_margin")?,
                rounds: require_u64(q, "rounds")?,
            }),
        };
        Ok(WorkloadRun {
            name: require_str(json, "name")?.to_string(),
            rep_secs: json
                .get("rep_secs")
                .and_then(Json::as_arr)
                .ok_or("workload missing rep_secs")?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| "non-numeric rep".to_string()))
                .collect::<Result<_, _>>()?,
            counters: counters_from_json(json.get("counters"))?,
            spans: SpanSnapshot::from_json(json.get("spans").ok_or("workload missing spans")?)?,
            alloc,
            quality,
        })
    }
}

/// A complete `BENCH_<label>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Snapshot label (`seed`, a date, a branch name, …).
    pub label: String,
    /// `git rev-parse HEAD` at record time, or `"unknown"`.
    pub git_sha: String,
    /// `rustc --version` at record time, or `"unknown"`.
    pub rustc: String,
    /// Reps each workload was timed for.
    pub reps: usize,
    /// Per-workload results, in registry order.
    pub workloads: Vec<WorkloadRun>,
}

impl Snapshot {
    /// Serializes to the committed `BENCH_*.json` layout (schema 2:
    /// schema 1 plus the optional per-workload `quality` block).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::from_u64(2)),
            ("label".into(), Json::Str(self.label.clone())),
            ("git_sha".into(), Json::Str(self.git_sha.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("reps".into(), Json::from_u64(self.reps as u64)),
            (
                "workloads".into(),
                Json::Arr(self.workloads.iter().map(WorkloadRun::to_json).collect()),
            ),
        ])
    }

    /// Parses a snapshot document.
    pub fn from_json(json: &Json) -> Result<Snapshot, String> {
        match json.get("schema").and_then(Json::as_u64) {
            // Schema 2 added the optional `quality` block; schema 1
            // documents simply parse with `quality: None`.
            Some(1 | 2) => {}
            other => return Err(format!("unsupported snapshot schema {other:?}")),
        }
        Ok(Snapshot {
            label: require_str(json, "label")?.to_string(),
            git_sha: require_str(json, "git_sha")?.to_string(),
            rustc: require_str(json, "rustc")?.to_string(),
            reps: require_u64(json, "reps")? as usize,
            workloads: json
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("snapshot missing workloads")?
                .iter()
                .map(WorkloadRun::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Parses a snapshot from JSON text.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        Snapshot::from_json(&json)
    }

    /// Finds a workload by name.
    pub fn workload(&self, name: &str) -> Option<&WorkloadRun> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

/// Flattens a [`MetricsRecorder`] into the snapshot's deterministic
/// counter map: every counter here is a function of the input and the
/// algorithm alone, so `diff` compares them exactly. Phase timings and
/// histograms stay out — timings belong to the toleranced side, and the
/// histograms are derived from the same events as the counters.
pub fn deterministic_counters(metrics: &MetricsRecorder) -> BTreeMap<String, u64> {
    let mut counters = BTreeMap::new();
    counters.insert("guesses".to_string(), metrics.guesses);
    counters.insert("levels_entered".to_string(), metrics.levels_entered);
    counters.insert("level_allowance".to_string(), metrics.level_allowance);
    counters.insert("selections".to_string(), metrics.selections);
    counters.insert("benefits_computed".to_string(), metrics.benefits_computed);
    counters.insert("heap_stale_pops".to_string(), metrics.heap_stale_pops);
    counters.insert("postings_scanned".to_string(), metrics.postings_scanned);
    for reason in PruneReason::all() {
        counters.insert(
            format!("candidates_pruned_{}", reason.as_str()),
            metrics.candidates_pruned[reason.index()],
        );
        counters.insert(
            format!("subtrees_pruned_{}", reason.as_str()),
            metrics.subtrees_pruned[reason.index()],
        );
    }
    // Pruned-scan advisories are *recorded* so snapshots document how much
    // work the scan skipped, but `diff` never compares them exactly: they
    // measure the refresh, not the solve's decisions, so a change to the
    // refresh alone needs no baseline regeneration. See
    // `diff::ADVISORY_COUNTERS`.
    counters.insert(
        "scan_candidates_pruned".to_string(),
        metrics.scan_candidates_pruned,
    );
    counters.insert(
        "scan_bounds_refreshed".to_string(),
        metrics.scan_bounds_refreshed,
    );
    counters
}

/// `git rev-parse HEAD` in the current directory, or `"unknown"`.
pub fn git_sha() -> String {
    run_capture("git", &["rev-parse", "HEAD"])
}

/// `rustc --version`, or `"unknown"`.
pub fn rustc_version() -> String {
    run_capture("rustc", &["--version"])
}

fn run_capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn counters_to_json(counters: &BTreeMap<String, u64>) -> Json {
    Json::Obj(
        counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::from_u64(v)))
            .collect(),
    )
}

fn counters_from_json(json: Option<&Json>) -> Result<BTreeMap<String, u64>, String> {
    let entries = json
        .and_then(Json::as_obj)
        .ok_or("missing counters object")?;
    entries
        .iter()
        .map(|(k, v)| {
            v.as_u64()
                .map(|v| (k.clone(), v))
                .ok_or_else(|| format!("counter '{k}' is not a u64"))
        })
        .collect()
}

fn require_str<'a>(json: &'a Json, key: &str) -> Result<&'a str, String> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn require_u64(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing u64 field '{key}'"))
}

fn require_f64(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut counters = BTreeMap::new();
        counters.insert("selections".to_string(), 7);
        counters.insert("benefits_computed".to_string(), 1234);
        Snapshot {
            label: "seed".into(),
            git_sha: "deadbeef".into(),
            rustc: "rustc 1.95.0".into(),
            reps: 3,
            workloads: vec![WorkloadRun {
                name: "fig5/cwsc_opt/rows1000".into(),
                rep_secs: vec![0.03, 0.01, 0.02],
                counters,
                spans: SpanSnapshot {
                    name: "total".into(),
                    count: 1,
                    total_secs: 0.0199,
                    counters: BTreeMap::from([("selections".to_string(), 7)]),
                    children: vec![SpanSnapshot {
                        name: "select".into(),
                        count: 1,
                        total_secs: 0.015,
                        counters: BTreeMap::new(),
                        children: Vec::new(),
                    }],
                },
                alloc: Some(AllocStats {
                    allocs: 4242,
                    bytes_allocated: 1 << 20,
                    peak_live_bytes: 1 << 18,
                }),
                quality: Some(QualityStats {
                    greedy_cost: 28.0,
                    lower_bound: 14.0,
                    mean_margin: 0.75,
                    rounds: 7,
                }),
            }],
        }
    }

    #[test]
    fn snapshot_round_trips_through_json_text() {
        let snap = sample();
        let text = snap.to_json().to_pretty();
        assert_eq!(Snapshot::parse(&text).unwrap(), snap);
    }

    #[test]
    fn median_is_order_independent() {
        let w = &sample().workloads[0];
        assert_eq!(w.median_secs(), 0.02);
        let even = WorkloadRun {
            rep_secs: vec![4.0, 1.0, 3.0, 2.0],
            ..w.clone()
        };
        assert_eq!(even.median_secs(), 2.0, "lower middle for even counts");
    }

    #[test]
    fn missing_alloc_parses_as_none() {
        let mut snap = sample();
        snap.workloads[0].alloc = None;
        let text = snap.to_json().to_pretty();
        assert_eq!(Snapshot::parse(&text).unwrap().workloads[0].alloc, None);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let text = sample()
            .to_json()
            .to_pretty()
            .replace("\"schema\": 2", "\"schema\": 99");
        assert!(Snapshot::parse(&text).unwrap_err().contains("schema"));
    }

    #[test]
    fn schema_one_documents_parse_without_quality() {
        let mut snap = sample();
        snap.workloads[0].quality = None;
        let text = snap
            .to_json()
            .to_pretty()
            .replace("\"schema\": 2", "\"schema\": 1");
        let parsed = Snapshot::parse(&text).unwrap();
        assert_eq!(parsed.workloads[0].quality, None);
        assert_eq!(parsed, snap);
    }

    #[test]
    fn quality_round_trips_and_ratio_is_derived() {
        let snap = sample();
        let parsed = Snapshot::parse(&snap.to_json().to_pretty()).unwrap();
        let q = parsed.workloads[0].quality.unwrap();
        assert_eq!(q.certified_ratio(), 2.0);
        // Uninformative bound: the derived ratio is infinite, which is
        // exactly why the ratio never enters the JSON document.
        let free = QualityStats {
            greedy_cost: 1.0,
            lower_bound: 0.0,
            mean_margin: 0.0,
            rounds: 1,
        };
        assert!(free.certified_ratio().is_infinite());
        let zero = QualityStats {
            greedy_cost: 0.0,
            lower_bound: 0.0,
            mean_margin: 0.0,
            rounds: 0,
        };
        assert_eq!(zero.certified_ratio(), 1.0);
    }

    #[test]
    fn audit_counters_stay_out_of_the_exact_diff_set() {
        // `rounds_audited` counts the audit observer's round events; it is
        // derived from the same stream as `selections` and must not widen
        // the pinned exact-diff map.
        let counters = deterministic_counters(&MetricsRecorder::new());
        assert!(
            !counters.contains_key("rounds_audited"),
            "rounds_audited must stay out of the exact-diff set"
        );
    }

    #[test]
    fn deterministic_counters_cover_prune_reasons() {
        let metrics = MetricsRecorder::new();
        let counters = deterministic_counters(&metrics);
        assert!(counters.contains_key("benefits_computed"));
        assert!(counters.contains_key("candidates_pruned_below_floor"));
        assert!(counters.contains_key("subtrees_pruned_cost_bound"));
        // 7 scalar counters + per-reason prune counters + the 2 recorded
        // (advisory-only) pruned-scan counters.
        assert_eq!(counters.len(), 7 + 2 * PruneReason::all().len() + 2);
    }

    #[test]
    fn pruned_scan_advisories_are_recorded_but_advisory_in_diff() {
        // The scan advisories measure the refresh, not the solve's
        // decisions: they are recorded for documentation but every one of
        // them must be on the diff's advisory skip list, or a change to
        // the refresh alone would fail the counter diff.
        let counters = deterministic_counters(&MetricsRecorder::new());
        for advisory in crate::diff::ADVISORY_COUNTERS {
            assert!(
                counters.contains_key(*advisory),
                "{advisory} should be recorded in snapshots"
            );
        }
    }

    #[test]
    fn resilience_counters_stay_out_of_the_exact_diff_set() {
        // Fault-recovery bookkeeping depends on injected faults, so it
        // must never enter the exactly-compared counter map or the BENCH
        // gate would flake.
        let counters = deterministic_counters(&MetricsRecorder::new());
        assert!(
            !counters.contains_key("guesses_retried"),
            "guesses_retried must stay out of the exact-diff set"
        );
    }

    #[test]
    fn trace_counters_stay_out_of_the_exact_diff_set() {
        // Trace mints count observer plumbing, not algorithmic work: they
        // vary with how callers nest entry points, so pinning them into the
        // exact-diff map would turn refactors into spurious regressions.
        let counters = deterministic_counters(&MetricsRecorder::new());
        assert!(
            !counters.contains_key("traces_started"),
            "traces_started must stay out of the exact-diff set"
        );
    }

    #[test]
    fn telemetry_window_counters_stay_out_of_the_exact_diff_set() {
        // The liveness watchdog fires on wall-clock stalls and the
        // sliding windows roll over with serving cadence — continuous-
        // operation telemetry, not algorithmic work. Pinning any of it
        // into the exact-diff map would make the BENCH gate depend on
        // machine speed and soak history.
        let counters = deterministic_counters(&MetricsRecorder::new());
        for volatile in [
            "stalls_detected",
            "window_rollovers",
            "window_solves",
            "soak_iterations",
        ] {
            assert!(
                !counters.contains_key(volatile),
                "{volatile} must stay out of the exact-diff set"
            );
        }
    }

    #[test]
    fn span_snapshot_copies_node_tree() {
        let mut profiler = scwsc_core::SpanProfiler::new();
        use scwsc_core::{Event, Observer as _};
        profiler.on(&Event::PhaseStarted("total"));
        profiler.on(&Event::BenefitComputed(5));
        profiler.on(&Event::PhaseEnded("total", 0.5));
        let snap = SpanSnapshot::from_node(&profiler.tree());
        assert_eq!(snap.name, "total");
        assert_eq!(snap.count, 1);
        assert_eq!(snap.counters.get("benefits"), Some(&5));
    }
}

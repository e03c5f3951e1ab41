//! SLO-grade metrics export: per-solve gauges and Prometheus text
//! exposition (DESIGN.md §13).
//!
//! [`SloGauges`] captures the serving-layer health summary of one solve —
//! how close it came to its deadline, how much of its tick budget it
//! consumed, whether it degraded, how many contained retries it needed —
//! from the [`Deadline`] and [`MetricsRecorder`] that drove the run.
//!
//! [`render_prometheus`] turns a recorder (plus optional gauges) into the
//! [Prometheus text exposition format]: `# TYPE` / `# HELP` comments, one
//! `name{label="value"} value` sample per line. The format is the lingua
//! franca of metrics scrapers, so a future solver-as-a-service layer can
//! expose `/metrics` by returning this string verbatim. [`parse_prometheus`]
//! is the matching reader — not a general Prometheus client, just enough
//! to round-trip what we render (which is how the golden test pins the
//! format).
//!
//! [Prometheus text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use super::window::{EntryWindow, SolveWindows};
use super::{LogHistogram, MetricsRecorder, PruneReason};
use crate::engine::Deadline;
use std::fmt::Write as _;

/// The quantiles exported for every histogram.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// Per-solve SLO gauges: the numbers a serving layer would alert on.
#[derive(Debug, Clone, PartialEq)]
pub struct SloGauges {
    /// Fraction of the wall-clock budget still unspent when captured
    /// (1.0 when no wall budget was set, 0.0 when fully consumed).
    pub wall_headroom_ratio: f64,
    /// Work ticks consumed.
    pub ticks_used: u64,
    /// The deterministic tick budget, when one was set.
    pub tick_budget: Option<u64>,
    /// Whether the solve returned a degraded (partial) outcome.
    pub degraded: bool,
    /// Contained panic retries the resilience engine performed.
    pub retries: u64,
    /// Fraction of solves inside the sliding window that degraded —
    /// `Some` only for mid-run captures via
    /// [`capture_windowed`](SloGauges::capture_windowed); the classic
    /// per-solve [`capture`](SloGauges::capture) leaves it `None`.
    pub windowed_degraded_rate: Option<f64>,
}

impl SloGauges {
    /// Captures the gauges for a finished solve from its deadline, outcome
    /// classification, and aggregated metrics.
    pub fn capture(deadline: &Deadline, degraded: bool, metrics: &MetricsRecorder) -> SloGauges {
        let wall_headroom_ratio = match (deadline.wall_budget(), deadline.wall_remaining()) {
            (Some(budget), Some(remaining)) if !budget.is_zero() => {
                (remaining.as_secs_f64() / budget.as_secs_f64()).clamp(0.0, 1.0)
            }
            (Some(_), _) => 0.0, // zero budget: no headroom by definition
            _ => 1.0,
        };
        SloGauges {
            wall_headroom_ratio,
            ticks_used: deadline.ticks(),
            tick_budget: deadline.max_ticks(),
            degraded,
            retries: metrics.guesses_retried,
            windowed_degraded_rate: None,
        }
    }

    /// Mid-run capture for a long-lived process: like
    /// [`capture`](SloGauges::capture), but the degraded flag is derived
    /// from the deadline's latched expiry (no outcome value exists yet
    /// mid-run) and the windowed degraded rate is folded in from the
    /// continuous [`SolveWindows`] aggregation.
    pub fn capture_windowed(
        deadline: &Deadline,
        metrics: &MetricsRecorder,
        windows: &SolveWindows,
    ) -> SloGauges {
        let mut slo = SloGauges::capture(deadline, deadline.expired().is_some(), metrics);
        slo.windowed_degraded_rate = Some(windows.global().degraded_rate());
        slo
    }

    /// Fraction of the tick budget still unspent (1.0 when unbounded).
    pub fn tick_headroom_ratio(&self) -> f64 {
        match self.tick_budget {
            Some(budget) if budget > 0 => {
                (1.0 - self.ticks_used as f64 / budget as f64).clamp(0.0, 1.0)
            }
            Some(_) => 0.0,
            None => 1.0,
        }
    }

    /// The tighter of the wall and tick headrooms — the single "how close
    /// to the edge did this solve run" number.
    pub fn headroom_ratio(&self) -> f64 {
        self.wall_headroom_ratio.min(self.tick_headroom_ratio())
    }
}

/// Appends `# HELP` + `# TYPE` comments for one metric family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Formats a sample value: integers render bare, floats via `{}` (which
/// keeps them shortest-round-trip), non-finite values as `NaN`/`+Inf`.
fn sample_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else {
        format!("{v}")
    }
}

/// Appends the three-quantile summary of one histogram.
fn summary(out: &mut String, name: &str, help: &str, hist: &LogHistogram) {
    family(out, name, "summary", help);
    for (q, label) in QUANTILES {
        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", hist.quantile(q));
    }
    let _ = writeln!(out, "{name}_sum {}", hist.sum());
    let _ = writeln!(out, "{name}_count {}", hist.count());
}

/// Renders `metrics` (and, when given, per-solve SLO gauges) in Prometheus
/// text exposition format. Counter families end in `_total`; histograms
/// export p50/p90/p99 summaries via [`LogHistogram::quantile`]; per-phase
/// wall-clock totals carry a `phase` label, per-reason prune counters a
/// `reason` label.
pub fn render_prometheus(metrics: &MetricsRecorder, slo: Option<&SloGauges>) -> String {
    let mut out = String::new();
    let counters: [(&str, u64, &str); 10] = [
        (
            "scwsc_guesses_total",
            metrics.guesses,
            "Budget-guess rounds started.",
        ),
        (
            "scwsc_levels_entered_total",
            metrics.levels_entered,
            "Cost levels scheduled across all guesses.",
        ),
        (
            "scwsc_selections_total",
            metrics.selections,
            "Sets/patterns selected into candidate solutions.",
        ),
        (
            "scwsc_benefits_computed_total",
            metrics.benefits_computed,
            "Benefit computations (the paper's patterns-considered unit).",
        ),
        (
            "scwsc_heap_stale_pops_total",
            metrics.heap_stale_pops,
            "Stale lazy-greedy heap pops.",
        ),
        (
            "scwsc_postings_scanned_total",
            metrics.postings_scanned,
            "Inverted-index posting entries scanned.",
        ),
        (
            "scwsc_traces_started_total",
            metrics.traces_started,
            "Traces minted by solve entry points.",
        ),
        (
            "scwsc_scan_candidates_pruned_total",
            metrics.scan_candidates_pruned,
            "Scan candidates disposed of without a completed exact count.",
        ),
        (
            "scwsc_scan_bounds_refreshed_total",
            metrics.scan_bounds_refreshed,
            "Stale scan upper bounds replaced by fresh exact counts.",
        ),
        (
            "scwsc_stalls_detected_total",
            metrics.stalls_detected,
            "Stalls flagged by the liveness watchdog.",
        ),
    ];
    for (name, value, help) in counters {
        family(&mut out, name, "counter", help);
        let _ = writeln!(out, "{name} {value}");
    }

    family(
        &mut out,
        "scwsc_candidates_pruned_total",
        "counter",
        "Candidates discarded before selection, by reason.",
    );
    for r in PruneReason::all() {
        let _ = writeln!(
            out,
            "scwsc_candidates_pruned_total{{reason=\"{}\"}} {}",
            r.as_str(),
            metrics.candidates_pruned[r.index()]
        );
    }
    family(
        &mut out,
        "scwsc_subtrees_pruned_total",
        "counter",
        "Lattice subtrees cut without materialization, by reason.",
    );
    for r in PruneReason::all() {
        let _ = writeln!(
            out,
            "scwsc_subtrees_pruned_total{{reason=\"{}\"}} {}",
            r.as_str(),
            metrics.subtrees_pruned[r.index()]
        );
    }

    family(
        &mut out,
        "scwsc_phase_seconds_total",
        "counter",
        "Wall-clock seconds accumulated per named phase.",
    );
    for p in metrics.phases() {
        let _ = writeln!(
            out,
            "scwsc_phase_seconds_total{{phase=\"{}\"}} {}",
            p.name,
            sample_value(p.seconds)
        );
    }
    family(
        &mut out,
        "scwsc_phase_completions_total",
        "counter",
        "Completed spans per named phase.",
    );
    for p in metrics.phases() {
        let _ = writeln!(
            out,
            "scwsc_phase_completions_total{{phase=\"{}\"}} {}",
            p.name, p.count
        );
    }

    summary(
        &mut out,
        "scwsc_marginal_benefit",
        "Marginal benefit at selection time.",
        &metrics.marginal_benefit_hist,
    );
    summary(
        &mut out,
        "scwsc_stale_run",
        "Consecutive stale heap pops preceding each selection.",
        &metrics.stale_run_hist,
    );

    if let Some(slo) = slo {
        family(
            &mut out,
            "scwsc_slo_wall_headroom_ratio",
            "gauge",
            "Fraction of the wall-clock budget unspent (1 = no wall budget).",
        );
        let _ = writeln!(
            out,
            "scwsc_slo_wall_headroom_ratio {}",
            sample_value(slo.wall_headroom_ratio)
        );
        family(
            &mut out,
            "scwsc_slo_headroom_ratio",
            "gauge",
            "Tighter of the wall and tick headroom ratios.",
        );
        let _ = writeln!(
            out,
            "scwsc_slo_headroom_ratio {}",
            sample_value(slo.headroom_ratio())
        );
        family(
            &mut out,
            "scwsc_slo_ticks_used",
            "gauge",
            "Deterministic work ticks consumed by the solve.",
        );
        let _ = writeln!(out, "scwsc_slo_ticks_used {}", slo.ticks_used);
        family(
            &mut out,
            "scwsc_slo_tick_budget",
            "gauge",
            "Deterministic tick budget (0 = unbounded).",
        );
        let _ = writeln!(
            out,
            "scwsc_slo_tick_budget {}",
            slo.tick_budget.unwrap_or(0)
        );
        family(
            &mut out,
            "scwsc_slo_degraded",
            "gauge",
            "1 when the solve returned a degraded (partial) outcome.",
        );
        let _ = writeln!(out, "scwsc_slo_degraded {}", u8::from(slo.degraded));
        family(
            &mut out,
            "scwsc_slo_retries_total",
            "counter",
            "Contained panic retries performed by the resilience engine.",
        );
        let _ = writeln!(out, "scwsc_slo_retries_total {}", slo.retries);
        if let Some(rate) = slo.windowed_degraded_rate {
            family(
                &mut out,
                "scwsc_slo_windowed_degraded_rate",
                "gauge",
                "Fraction of solves inside the sliding window that degraded.",
            );
            let _ = writeln!(
                out,
                "scwsc_slo_windowed_degraded_rate {}",
                sample_value(rate)
            );
        }
    }
    out
}

/// Appends the windowed series of one [`EntryWindow`] under the `entry`
/// label (`"all"` for the global view).
fn entry_series(out: &mut String, entry: &str, w: &EntryWindow) {
    let _ = writeln!(out, "scwsc_window_solves{{entry=\"{entry}\"}} {}", w.solves);
    let _ = writeln!(
        out,
        "scwsc_window_degraded_solves{{entry=\"{entry}\"}} {}",
        w.degraded_solves
    );
    let _ = writeln!(
        out,
        "scwsc_window_degraded_rate{{entry=\"{entry}\"}} {}",
        sample_value(w.degraded_rate())
    );
    let _ = writeln!(
        out,
        "scwsc_window_selections_per_solve{{entry=\"{entry}\"}} {}",
        sample_value(w.selections.rate_per_solve())
    );
    let _ = writeln!(
        out,
        "scwsc_window_benefits_per_solve{{entry=\"{entry}\"}} {}",
        sample_value(w.benefits.rate_per_solve())
    );
    let _ = writeln!(
        out,
        "scwsc_window_benefits_high_watermark{{entry=\"{entry}\"}} {}",
        w.benefits.high_watermark()
    );
    for (q, label) in QUANTILES {
        let _ = writeln!(
            out,
            "scwsc_window_benefits{{entry=\"{entry}\",quantile=\"{label}\"}} {}",
            w.benefits_hist.quantile(q)
        );
    }
}

/// Renders the continuous sliding-window series *in addition to* what
/// [`render_prometheus`] emits: windowed per-solve rates, degraded rates,
/// p50/p90/p99 benefit quantiles, and high-watermarks, per entry point
/// (`entry="all"` is the global window) plus the window-rollover counter.
/// A long-lived `/metrics` endpoint returns
/// `render_prometheus(..) + render_prometheus_windowed(..)` concatenated.
pub fn render_prometheus_windowed(
    metrics: &MetricsRecorder,
    slo: Option<&SloGauges>,
    windows: &SolveWindows,
) -> String {
    let mut out = render_prometheus(metrics, slo);
    family(
        &mut out,
        "scwsc_window_rollovers_total",
        "counter",
        "Solves that evicted an older solve from the sliding window.",
    );
    let _ = writeln!(out, "scwsc_window_rollovers_total {}", windows.rollovers());
    family(
        &mut out,
        "scwsc_window_width",
        "gauge",
        "Configured sliding-window width, in solves.",
    );
    let _ = writeln!(out, "scwsc_window_width {}", windows.window());
    family(
        &mut out,
        "scwsc_window_solves",
        "counter",
        "Solves finalized, per entry point (entry=\"all\" is global).",
    );
    family(
        &mut out,
        "scwsc_window_degraded_solves",
        "counter",
        "Degraded solves finalized, per entry point.",
    );
    family(
        &mut out,
        "scwsc_window_degraded_rate",
        "gauge",
        "Fraction of windowed solves that degraded, per entry point.",
    );
    family(
        &mut out,
        "scwsc_window_selections_per_solve",
        "gauge",
        "Mean selections per windowed solve, per entry point.",
    );
    family(
        &mut out,
        "scwsc_window_benefits_per_solve",
        "gauge",
        "Mean benefit computations per windowed solve, per entry point.",
    );
    family(
        &mut out,
        "scwsc_window_benefits_high_watermark",
        "gauge",
        "Largest single-solve benefit-computation count ever observed.",
    );
    family(
        &mut out,
        "scwsc_window_benefits",
        "summary",
        "Benefit computations per solve over the sliding window.",
    );
    entry_series(&mut out, "all", windows.global());
    for (entry, w) in windows.entries() {
        entry_series(&mut out, entry, w);
    }
    out
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (family name plus any `_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in source order (empty for unlabelled samples).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl PromSample {
    /// Whether this sample has exactly the given labels (order-sensitive,
    /// as rendered).
    pub fn has_labels(&self, labels: &[(&str, &str)]) -> bool {
        self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels)
                .all(|((k, v), (ek, ev))| k == ek && v == ev)
    }
}

/// Parses Prometheus text exposition into samples, skipping comments and
/// blank lines. Strict enough to round-trip [`render_prometheus`] output:
/// a malformed sample line yields `Err` with the offending line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value_text) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value: {line}"))?;
        let value = match value_text {
            "NaN" => f64::NAN,
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse().map_err(|_| format!("bad value: {line}"))?,
        };
        let (name, labels) = match head.split_once('{') {
            None => (head.to_owned(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("unclosed labels: {line}"))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("bad label: {line}"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| format!("unquoted label value: {line}"))?;
                    labels.push((k.to_owned(), v.to_owned()));
                }
                (name.to_owned(), labels)
            }
        };
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Finds the unique sample with `name` and exactly `labels`.
pub fn find_sample<'a>(
    samples: &'a [PromSample],
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'a PromSample> {
    samples
        .iter()
        .find(|s| s.name == name && s.has_labels(labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Event, Observer};
    use std::time::Duration;

    fn recorded_metrics() -> MetricsRecorder {
        let mut m = MetricsRecorder::new();
        m.on(&Event::GuessStarted(Some(4.0)));
        m.on(&Event::LevelEntered(0, 2));
        m.on(&Event::BenefitComputed(10));
        m.on(&Event::HeapStalePop(1));
        m.on(&Event::SetSelected(3, 6, 1.5));
        m.on(&Event::SetSelected(1, 2, 0.5));
        m.on(&Event::CandidatePruned(PruneReason::BelowFloor, 1));
        m.on(&Event::SubtreePruned(PruneReason::CostBound, 1));
        m.on(&Event::PostingScanned(7));
        m.on(&Event::PhaseStarted("total"));
        m.on(&Event::PhaseEnded("total", 0.5));
        m
    }

    #[test]
    fn render_parse_round_trip_golden() {
        let metrics = recorded_metrics();
        let slo = SloGauges {
            wall_headroom_ratio: 0.75,
            ticks_used: 40,
            tick_budget: Some(100),
            degraded: true,
            retries: 2,
            windowed_degraded_rate: None,
        };
        let text = render_prometheus(&metrics, Some(&slo));

        // Structural invariants of the exposition format.
        for line in text.lines() {
            assert!(
                line.starts_with("# HELP ")
                    || line.starts_with("# TYPE ")
                    || line.starts_with("scwsc_"),
                "unexpected line: {line}"
            );
        }
        let samples = parse_prometheus(&text).expect("own output parses");

        // Golden values: counters.
        let get = |name: &str, labels: &[(&str, &str)]| {
            find_sample(&samples, name, labels)
                .unwrap_or_else(|| panic!("missing {name} {labels:?}"))
                .value
        };
        assert_eq!(get("scwsc_guesses_total", &[]), 1.0);
        assert_eq!(get("scwsc_selections_total", &[]), 2.0);
        assert_eq!(get("scwsc_benefits_computed_total", &[]), 10.0);
        assert_eq!(get("scwsc_postings_scanned_total", &[]), 7.0);
        assert_eq!(
            get(
                "scwsc_candidates_pruned_total",
                &[("reason", "below_floor")]
            ),
            1.0
        );
        assert_eq!(
            get("scwsc_subtrees_pruned_total", &[("reason", "cost_bound")]),
            1.0
        );
        assert_eq!(get("scwsc_phase_seconds_total", &[("phase", "total")]), 0.5);
        assert_eq!(
            get("scwsc_phase_completions_total", &[("phase", "total")]),
            1.0
        );
        // Summary quantiles come from LogHistogram::quantile.
        assert_eq!(
            get("scwsc_marginal_benefit", &[("quantile", "0.5")]),
            metrics.marginal_benefit_hist.quantile(0.5) as f64
        );
        assert_eq!(get("scwsc_marginal_benefit_sum", &[]), 8.0);
        assert_eq!(get("scwsc_marginal_benefit_count", &[]), 2.0);
        // SLO gauges.
        assert_eq!(get("scwsc_slo_wall_headroom_ratio", &[]), 0.75);
        assert_eq!(get("scwsc_slo_ticks_used", &[]), 40.0);
        assert_eq!(get("scwsc_slo_tick_budget", &[]), 100.0);
        assert_eq!(get("scwsc_slo_degraded", &[]), 1.0);
        assert_eq!(get("scwsc_slo_retries_total", &[]), 2.0);
        // headroom = min(wall 0.75, tick 1 - 40/100 = 0.6).
        assert!((get("scwsc_slo_headroom_ratio", &[]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn render_without_slo_omits_gauges() {
        let text = render_prometheus(&recorded_metrics(), None);
        assert!(!text.contains("scwsc_slo_"), "{text}");
        assert!(text.contains("scwsc_guesses_total 1"), "{text}");
        // Per-solve captures never carry the windowed rate gauge.
        let slo = SloGauges::capture(&Deadline::unbounded(), false, &recorded_metrics());
        let text = render_prometheus(&recorded_metrics(), Some(&slo));
        assert!(!text.contains("scwsc_slo_windowed_degraded_rate"), "{text}");
    }

    #[test]
    fn windowed_render_emits_per_entry_series() {
        use crate::telemetry::window::{SolveSample, SolveWindows};

        let mut windows = SolveWindows::with_window(2);
        windows.observe(
            Some("cmc"),
            SolveSample {
                selections: 3,
                benefits_computed: 10,
                degraded: false,
            },
        );
        windows.observe(
            Some("cmc"),
            SolveSample {
                selections: 5,
                benefits_computed: 30,
                degraded: true,
            },
        );
        windows.observe(
            Some("opt_cwsc"),
            SolveSample {
                selections: 1,
                benefits_computed: 4,
                degraded: false,
            },
        );
        let metrics = recorded_metrics();
        let deadline = Deadline::unbounded();
        let slo = SloGauges::capture_windowed(&deadline, &metrics, &windows);
        let text = render_prometheus_windowed(&metrics, Some(&slo), &windows);
        let samples = parse_prometheus(&text).expect("own output parses");
        let get = |name: &str, labels: &[(&str, &str)]| {
            find_sample(&samples, name, labels)
                .unwrap_or_else(|| panic!("missing {name} {labels:?}"))
                .value
        };
        // The totals block is still present alongside the windowed series.
        assert_eq!(get("scwsc_guesses_total", &[]), 1.0);
        assert_eq!(get("scwsc_stalls_detected_total", &[]), 0.0);
        // Global window: 3 solves through width 2 → 1 rollover; the
        // window holds the last 2 solves (degraded + clean → rate 0.5).
        assert_eq!(get("scwsc_window_rollovers_total", &[]), 1.0);
        assert_eq!(get("scwsc_window_width", &[]), 2.0);
        assert_eq!(get("scwsc_window_solves", &[("entry", "all")]), 3.0);
        assert_eq!(get("scwsc_window_degraded_rate", &[("entry", "all")]), 0.5);
        // Per-entry breakdown.
        assert_eq!(get("scwsc_window_solves", &[("entry", "cmc")]), 2.0);
        assert_eq!(get("scwsc_window_solves", &[("entry", "opt_cwsc")]), 1.0);
        assert_eq!(
            get("scwsc_window_benefits_high_watermark", &[("entry", "cmc")]),
            30.0
        );
        assert_eq!(
            get(
                "scwsc_window_benefits",
                &[("entry", "opt_cwsc"), ("quantile", "0.99")]
            ),
            4.0
        );
        // capture_windowed folded the global windowed rate into the SLO.
        assert_eq!(get("scwsc_slo_windowed_degraded_rate", &[]), 0.5);
    }

    #[test]
    fn slo_capture_from_deadline() {
        let d = Deadline::unbounded()
            .with_tick_budget(10)
            .with_wall_clock(Duration::from_secs(3600));
        for _ in 0..4 {
            d.checkpoint().unwrap();
        }
        let metrics = MetricsRecorder::new();
        let slo = SloGauges::capture(&d, false, &metrics);
        assert_eq!(slo.ticks_used, 4);
        assert_eq!(slo.tick_budget, Some(10));
        assert!(!slo.degraded);
        assert_eq!(slo.retries, 0);
        assert!(
            slo.wall_headroom_ratio > 0.99,
            "{}",
            slo.wall_headroom_ratio
        );
        assert!((slo.tick_headroom_ratio() - 0.6).abs() < 1e-12);
        assert!((slo.headroom_ratio() - 0.6).abs() < 1e-12);

        // Unbounded deadline: full headroom everywhere.
        let free = SloGauges::capture(&Deadline::unbounded(), false, &metrics);
        assert_eq!(free.wall_headroom_ratio, 1.0);
        assert_eq!(free.tick_headroom_ratio(), 1.0);
        assert_eq!(free.headroom_ratio(), 1.0);

        // Overspent tick budget clamps at zero, not negative.
        let d = Deadline::unbounded().with_tick_budget(2);
        for _ in 0..5 {
            let _ = d.checkpoint();
        }
        let spent = SloGauges::capture(&d, true, &metrics);
        assert_eq!(spent.tick_headroom_ratio(), 0.0);
        assert!(spent.degraded);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_prometheus("name_only").is_err());
        assert!(parse_prometheus("bad{unclosed 1").is_err());
        assert!(parse_prometheus("bad{k=v} 1").is_err(), "unquoted value");
        assert!(parse_prometheus("name notanumber").is_err());
        // Comments and blanks are fine.
        let ok = parse_prometheus("# HELP x y\n\n# TYPE x counter\nx 3\n").unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].name, "x");
        assert_eq!(ok[0].value, 3.0);
        // Special float values round-trip.
        let special = parse_prometheus("a NaN\nb +Inf\nc -Inf\n").unwrap();
        assert!(special[0].value.is_nan());
        assert_eq!(special[1].value, f64::INFINITY);
        assert_eq!(special[2].value, f64::NEG_INFINITY);
    }
}

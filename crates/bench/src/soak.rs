//! The pre-serving endurance harness behind `scwsc_bench soak`
//! (DESIGN.md §16).
//!
//! A soak run loops registry workloads through the full solver stack —
//! generator, solver, telemetry replay, windowed aggregation, liveness
//! watchdog — the way a long-lived serving process would, and asserts the
//! continuous-operation invariants no single-solve test can see:
//!
//! * **monotone counters** — the cumulative [`MetricsRecorder`] never
//!   goes backwards between iterations;
//! * **stable windowed quantiles** — once the sliding window has filled,
//!   every iteration boundary sees the identical p50/p90/p99 (the solve
//!   sequence is periodic and deterministic, so the window's contents at
//!   boundary `i` and boundary `i+1` are the same multiset);
//! * **zero leaked allocator bytes** — after a short warm-up, live bytes
//!   at each iteration boundary match the baseline exactly
//!   ([`telemetry::alloc`](scwsc_core::telemetry::alloc) deltas);
//! * **zero stalls** — the [`Watchdog`] watching each solve never fires.
//!
//! Each iteration appends one line to a windowed-metrics JSONL timeline,
//! so a soak that fails hours in still leaves the trajectory on disk.

use crate::measure::run_traced;
use crate::registry::Workload;
use crate::snapshot::deterministic_counters;
use scwsc_core::json::Json;
use scwsc_core::telemetry::window::{SolveSample, SolveWindows};
use scwsc_core::{MetricsRecorder, NoopObserver, Watchdog};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

#[cfg(feature = "alloc-stats")]
use scwsc_core::telemetry::alloc;

/// Iterations to run before arming the leak baseline: lazy one-time
/// allocations (thread-local scratch, container growth to steady state)
/// settle here and must not count as leaks.
const WARMUP_ITERS: usize = 2;

/// Configuration of one soak run.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Full iterations of the (filtered) suite to run.
    pub iters: usize,
    /// Sliding-window width, in solves.
    pub window: usize,
    /// Watchdog stall threshold. Generous by default: a soak asserts
    /// *zero* stalls, so false positives are worse than slow detection.
    pub stall_after: Duration,
    /// Where to append the windowed-metrics JSONL timeline (one line per
    /// iteration); `None` disables the timeline.
    pub timeline: Option<PathBuf>,
}

impl Default for SoakOptions {
    fn default() -> SoakOptions {
        SoakOptions {
            iters: 50,
            window: 8,
            stall_after: Duration::from_secs(5),
            timeline: None,
        }
    }
}

/// Summary of a completed soak run (every invariant held).
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Iterations completed.
    pub iters: usize,
    /// Solves completed (iterations × workloads).
    pub solves: u64,
    /// Window rollovers observed.
    pub rollovers: u64,
    /// Stalls the watchdog flagged (always 0 for an `Ok` report).
    pub stalls: u64,
    /// Final windowed benefit quantiles (p50, p90, p99).
    pub quantiles: (u64, u64, u64),
    /// Net live allocator bytes vs. the post-warm-up baseline
    /// (`None` when the counting allocator is not installed).
    pub leaked_bytes: Option<i64>,
}

impl SoakReport {
    /// One-line human summary.
    pub fn render(&self) -> String {
        format!(
            "soak ok: {} iterations, {} solves, {} rollovers, windowed p50/p90/p99 = {}/{}/{}, {} stalls, leaked bytes {}",
            self.iters,
            self.solves,
            self.rollovers,
            self.quantiles.0,
            self.quantiles.1,
            self.quantiles.2,
            self.stalls,
            match self.leaked_bytes {
                Some(b) => b.to_string(),
                None => "n/a".to_string(),
            }
        )
    }
}

/// Live allocator bytes right now, when the counting allocator is active.
fn live_bytes() -> Option<u64> {
    #[cfg(feature = "alloc-stats")]
    {
        alloc::is_active().then(|| alloc::snapshot().live_bytes)
    }
    #[cfg(not(feature = "alloc-stats"))]
    {
        None
    }
}

/// Runs the soak loop. Returns `Err` (with the failing invariant) as soon
/// as any continuous-operation assertion breaks; the timeline written so
/// far is left on disk either way. `progress` receives one line per
/// iteration.
pub fn soak(
    suite: &[Workload],
    opts: &SoakOptions,
    mut progress: impl FnMut(&str),
) -> Result<SoakReport, String> {
    if suite.is_empty() {
        return Err("soak needs at least one workload".to_string());
    }
    if opts.iters == 0 {
        return Err("soak needs at least one iteration".to_string());
    }
    let mut timeline = match &opts.timeline {
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?,
        )),
        None => None,
    };

    let mut windows = SolveWindows::with_window(opts.window);
    let watchdog = Watchdog::new(opts.stall_after);
    let monitor = watchdog.monitor();
    let mut cumulative = MetricsRecorder::new();
    let mut prev_counters: Option<BTreeMap<String, u64>> = None;
    // Quantiles latched at the first full-window iteration boundary;
    // every later boundary must reproduce them exactly.
    let mut expected_quantiles: Option<(u64, u64, u64)> = None;
    let mut baseline_live: Option<u64> = None;
    let mut leaked: Option<i64> = None;

    for iter in 1..=opts.iters {
        for w in suite {
            let table = w.gen.table();
            let (measurement, metrics) = run_traced(
                w.algo,
                &table,
                &w.params,
                &mut NoopObserver,
                Some(&watchdog),
            );
            if !measurement.ok {
                return Err(format!("iteration {iter}: workload {} failed", w.name));
            }
            // The deadline is unbounded and a run that is not ok fails the
            // soak above, so every observed solve is a complete one.
            windows.observe(SolveSample {
                selections: metrics.selections,
                benefits_computed: metrics.benefits_computed,
                degraded: false,
            });
            cumulative.merge(&metrics);
        }

        // Invariant: cumulative counters never decrease.
        let counters = deterministic_counters(&cumulative);
        if let Some(prev) = &prev_counters {
            for (key, &was) in prev {
                let now = counters.get(key).copied().unwrap_or(0);
                if now < was {
                    return Err(format!(
                        "iteration {iter}: counter '{key}' went backwards ({was} -> {now})"
                    ));
                }
            }
        }
        prev_counters = Some(counters);

        // Invariant: windowed quantiles are identical at every iteration
        // boundary once the window has filled (periodic solve sequence).
        let quantiles = benefit_quantiles(&windows);
        if windows.solves() >= opts.window as u64 {
            match expected_quantiles {
                None => expected_quantiles = Some(quantiles),
                Some(expected) if expected != quantiles => {
                    return Err(format!(
                        "iteration {iter}: windowed quantiles drifted \
                         (expected p50/p90/p99 {expected:?}, got {quantiles:?})"
                    ));
                }
                Some(_) => {}
            }
        }

        // Invariant: zero net allocator growth after warm-up.
        if let Some(live) = live_bytes() {
            if iter == WARMUP_ITERS.min(opts.iters) {
                baseline_live = Some(live);
            } else if let Some(base) = baseline_live {
                let net = live as i64 - base as i64;
                leaked = Some(net);
                if net != 0 {
                    return Err(format!(
                        "iteration {iter}: allocator leaked {net} live bytes vs. the \
                         post-warm-up baseline"
                    ));
                }
            }
        }

        // Invariant: the watchdog stayed quiet.
        if watchdog.stalls() > 0 {
            return Err(format!(
                "iteration {iter}: watchdog flagged {} stall(s)",
                watchdog.stalls()
            ));
        }

        if let Some(out) = timeline.as_mut() {
            let line = Json::Obj(vec![
                ("iter".into(), Json::from_u64(iter as u64)),
                ("solves".into(), Json::from_u64(windows.solves())),
                ("rollovers".into(), Json::from_u64(windows.rollovers())),
                ("p50".into(), Json::from_u64(quantiles.0)),
                ("p90".into(), Json::from_u64(quantiles.1)),
                ("p99".into(), Json::from_u64(quantiles.2)),
                (
                    "benefits_per_solve".into(),
                    Json::Num(windows.benefits_per_solve()),
                ),
                ("degraded_rate".into(), Json::Num(windows.degraded_rate())),
                ("stalls".into(), Json::from_u64(watchdog.stalls())),
                (
                    "leaked_bytes".into(),
                    match leaked {
                        Some(b) => Json::Num(b as f64),
                        None => Json::Null,
                    },
                ),
            ]);
            writeln!(out, "{}", line.to_compact())
                .and_then(|()| out.flush())
                .map_err(|e| format!("writing timeline: {e}"))?;
        }

        progress(&format!(
            "iter {iter:>4}/{}: {} solves, p50/p90/p99 {}/{}/{}, {} rollovers",
            opts.iters,
            windows.solves(),
            quantiles.0,
            quantiles.1,
            quantiles.2,
            windows.rollovers()
        ));
    }

    drop(monitor);
    Ok(SoakReport {
        iters: opts.iters,
        solves: windows.solves(),
        rollovers: windows.rollovers(),
        stalls: watchdog.stalls(),
        quantiles: benefit_quantiles(&windows),
        leaked_bytes: leaked,
    })
}

/// The windowed p50/p90/p99 of benefit computations per solve.
fn benefit_quantiles(windows: &SolveWindows) -> (u64, u64, u64) {
    (
        windows.benefits_quantile(0.5),
        windows.benefits_quantile(0.9),
        windows.benefits_quantile(0.99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::smoke_suite;

    #[test]
    fn smoke_soak_holds_every_invariant() {
        let suite = smoke_suite();
        let opts = SoakOptions {
            iters: 5,
            window: 4,
            ..SoakOptions::default()
        };
        let report = soak(&suite, &opts, |_| {}).expect("soak holds");
        assert_eq!(report.iters, 5);
        assert_eq!(report.solves, 10, "2 workloads x 5 iterations");
        assert_eq!(report.stalls, 0);
        // Window 4 over 10 solves: 6 rollovers.
        assert_eq!(report.rollovers, 6);
        assert!(report.render().contains("soak ok"));
    }

    #[test]
    fn soak_writes_a_parsable_timeline() {
        let suite = smoke_suite();
        let dir = std::env::temp_dir().join(format!("scwsc-soak-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("timeline.jsonl");
        let opts = SoakOptions {
            iters: 3,
            window: 2,
            timeline: Some(path.clone()),
            ..SoakOptions::default()
        };
        soak(&suite, &opts, |_| {}).expect("soak holds");
        let text = std::fs::read_to_string(&path).expect("timeline written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one line per iteration");
        for (i, line) in lines.iter().enumerate() {
            let json = Json::parse(line).expect("timeline line parses");
            assert_eq!(json.get("iter").and_then(Json::as_u64), Some(i as u64 + 1));
            assert!(json.get("p99").and_then(Json::as_u64).is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn soak_rejects_empty_inputs() {
        assert!(soak(&[], &SoakOptions::default(), |_| {}).is_err());
        let opts = SoakOptions {
            iters: 0,
            ..SoakOptions::default()
        };
        assert!(soak(&smoke_suite(), &opts, |_| {}).is_err());
    }
}

//! Deterministic sliding-window telemetry (DESIGN.md §16).
//!
//! Every aggregate built so far ([`MetricsRecorder`], the flight
//! recorder, the audit ledger) observes exactly one solve and stops. A
//! long-lived serving process needs *continuous* telemetry: rolling
//! rates, windowed quantiles, and high-watermarks over the last `W`
//! solves. [`SolveWindows`] keeps one ring of the last `W`
//! [`SolveSample`]s and derives every windowed value from it on demand.
//! It stays inside the workspace's determinism contract by windowing on
//! **solve-sequence boundaries**, never wall clock:
//!
//! * a window slot is one completed solve, fed through
//!   [`observe`](SolveWindows::observe) when the solve returns;
//! * every windowed value is a deterministic work counter (selections,
//!   benefit computations, degraded flags) — wall-clock durations are
//!   deliberately excluded;
//! * so a [`SolveWindows`] fed twice by the same solves answers the same.
//!
//! [`MetricsRecorder`]: super::MetricsRecorder

use super::LogHistogram;
use std::collections::VecDeque;

/// One completed solve's deterministic contribution to the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveSample {
    /// Sets/patterns selected during the solve.
    pub selections: u64,
    /// Benefit computations during the solve (the Fig. 6 work unit).
    pub benefits_computed: u64,
    /// Whether the solve degraded (deadline/fault path).
    pub degraded: bool,
}

/// Sliding-window aggregation over a stream of solves: all-time totals
/// plus a ring of the last `window` samples, from which the windowed
/// rates and quantiles are computed when asked for.
#[derive(Debug, Clone)]
pub struct SolveWindows {
    window: usize,
    solves: u64,
    degraded_solves: u64,
    benefits_high_watermark: u64,
    ring: VecDeque<SolveSample>,
}

impl SolveWindows {
    /// Windows over the last `window` solves.
    ///
    /// # Panics
    /// Panics when `window` is zero — an empty window aggregates nothing.
    pub fn with_window(window: usize) -> SolveWindows {
        assert!(window > 0, "window must hold at least one solve");
        SolveWindows {
            window,
            solves: 0,
            degraded_solves: 0,
            benefits_high_watermark: 0,
            // One spare slot so steady-state push-then-evict never grows
            // the ring (allocation-stable soak loops depend on this).
            ring: VecDeque::with_capacity(window + 1),
        }
    }

    /// Folds one finished solve in, evicting the solve `window` solves
    /// older once the ring is full.
    pub fn observe(&mut self, sample: SolveSample) {
        self.solves += 1;
        self.degraded_solves += u64::from(sample.degraded);
        self.benefits_high_watermark = self.benefits_high_watermark.max(sample.benefits_computed);
        self.ring.push_back(sample);
        if self.ring.len() > self.window {
            self.ring.pop_front();
        }
    }

    /// The configured window width, in solves.
    pub fn window(&self) -> usize {
        self.window
    }

    /// All-time solves observed.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// All-time degraded solves observed.
    pub fn degraded_solves(&self) -> u64 {
        self.degraded_solves
    }

    /// Window rollovers: solves that evicted an older solve
    /// (`solves − window`, at least 0).
    pub fn rollovers(&self) -> u64 {
        self.solves.saturating_sub(self.window as u64)
    }

    /// Largest single-solve benefit count ever observed (all-time, not
    /// windowed — the high-watermark an operator alerts on).
    pub fn benefits_high_watermark(&self) -> u64 {
        self.benefits_high_watermark
    }

    /// Mean of `value` over the windowed solves (0.0 when empty) — the
    /// deterministic "rate" (per solve, not per second).
    fn per_solve(&self, value: impl Fn(&SolveSample) -> u64) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        self.ring.iter().map(value).sum::<u64>() as f64 / self.ring.len() as f64
    }

    /// Fraction of windowed solves that degraded.
    pub fn degraded_rate(&self) -> f64 {
        self.per_solve(|s| u64::from(s.degraded))
    }

    /// Mean selections per windowed solve.
    pub fn selections_per_solve(&self) -> f64 {
        self.per_solve(|s| s.selections)
    }

    /// Mean benefit computations per windowed solve.
    pub fn benefits_per_solve(&self) -> f64 {
        self.per_solve(|s| s.benefits_computed)
    }

    /// The `q`-quantile of benefit computations per windowed solve, with
    /// [`LogHistogram::quantile`] semantics: rank `⌈q·len⌉` (clamped to
    /// `[1, len]`), the answering bucket's inclusive upper bound, capped
    /// at the largest retained value. Returns 0 when the window is empty.
    pub fn benefits_quantile(&self, q: f64) -> u64 {
        let count = self.ring.len() as u64;
        if count == 0 {
            return 0;
        }
        let mut buckets = [0u64; 65];
        let mut max = 0;
        for s in &self.ring {
            buckets[LogHistogram::bucket_of(s.benefits_computed)] += 1;
            max = max.max(s.benefits_computed);
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (i, &n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return LogHistogram::bucket_range(i).1.min(max);
            }
        }
        max // unreachable: the buckets hold `count` values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benefits(value: u64) -> SolveSample {
        SolveSample {
            benefits_computed: value,
            ..SolveSample::default()
        }
    }

    #[test]
    #[should_panic(expected = "at least one solve")]
    fn zero_window_is_rejected() {
        SolveWindows::with_window(0);
    }

    #[test]
    fn rates_cover_exactly_the_last_window_solves() {
        let mut w = SolveWindows::with_window(2);
        assert_eq!(w.degraded_rate(), 0.0);
        assert_eq!(w.benefits_quantile(0.5), 0);
        for (selections, degraded) in [(1, true), (3, false), (5, true)] {
            w.observe(SolveSample {
                selections,
                benefits_computed: 10 * selections,
                degraded,
            });
        }
        assert_eq!(w.solves(), 3);
        assert_eq!(w.degraded_solves(), 2);
        assert_eq!(w.rollovers(), 1, "3 solves through a 2-window");
        // The first solve left the window: (3, false) and (5, true) remain.
        assert_eq!(w.degraded_rate(), 0.5);
        assert_eq!(w.selections_per_solve(), 4.0);
        assert_eq!(w.benefits_per_solve(), 40.0);
        assert_eq!(w.benefits_high_watermark(), 50);
    }

    #[test]
    fn window_max_survives_eviction_of_old_max() {
        let mut w = SolveWindows::with_window(2);
        for v in [100, 3, 5] {
            w.observe(benefits(v));
        }
        assert_eq!(w.benefits_quantile(1.0), 5, "quantile capped at window max");
        assert_eq!(
            w.benefits_high_watermark(),
            100,
            "all-time watermark survives"
        );
    }

    #[test]
    fn quantiles_match_fresh_log_histogram() {
        // The window's quantiles must equal a LogHistogram built from
        // only the retained values — same buckets, same cap rule.
        let values: Vec<u64> = (0..50).map(|i| (i * 37) % 23).collect();
        let window = 16;
        let mut w = SolveWindows::with_window(window);
        for &v in &values {
            w.observe(benefits(v));
        }
        let mut fresh = LogHistogram::new();
        for &v in &values[values.len() - window..] {
            fresh.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(w.benefits_quantile(q), fresh.quantile(q), "q={q}");
        }
    }
}

//! Deterministic sliding-window telemetry aggregation (DESIGN.md §16).
//!
//! Every aggregate built so far ([`MetricsRecorder`], the flight
//! recorder, the audit ledger) observes exactly one solve and stops. A
//! long-lived serving process needs *continuous* telemetry: rolling
//! rates, windowed quantiles, and high-watermarks over the last `W`
//! solves, broken down by entry point. This module provides exactly
//! that — and, crucially, stays inside the workspace's determinism
//! contract by windowing on **solve-sequence boundaries**, never wall
//! clock:
//!
//! * a "window slot" is one completed solve (one closed root
//!   [`PHASE_TOTAL`](super::PHASE_TOTAL) span), identified by its
//!   position in the deterministic event stream;
//! * every windowed value is a deterministic work counter (selections,
//!   benefit computations, degraded flags) — wall-clock durations are
//!   deliberately excluded;
//! * parallel runs replay their telemetry shards in deterministic order
//!   ([`ThreadLocalTelemetry`](super::ThreadLocalTelemetry)), so a
//!   [`SolveWindows`] fed by a `Threads(N)` run is bit-identical to the
//!   same solves on `Threads(1)`.
//!
//! [`WindowedCounter`] tracks a per-solve contribution series with its
//! windowed sum; [`RollingHistogram`] keeps exact per-solve values for
//! the last `W` solves in [`LogHistogram`]-compatible power-of-two
//! buckets and answers p50/p90/p99; [`SolveWindows`] is the [`Observer`]
//! that assembles both into a global view plus a per-entry-point
//! breakdown keyed by the [`TraceStarted`](Event::TraceStarted)
//! entry tag.
//!
//! [`MetricsRecorder`]: super::MetricsRecorder

use super::{Event, LogHistogram, Observer, PHASE_TOTAL};
use std::collections::VecDeque;

/// The default window width, in solves.
pub const DEFAULT_WINDOW: usize = 32;

/// A counter windowed over the last `W` solves: each completed solve
/// contributes one value, the window keeps the most recent `W`
/// contributions, and the all-time total plus the per-solve
/// high-watermark ride along. Rates are per *solve* — the deterministic
/// replacement for wall-clock rates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedCounter {
    window: usize,
    slots: VecDeque<u64>,
    windowed_sum: u64,
    total: u64,
    high_watermark: u64,
}

impl WindowedCounter {
    /// A counter windowed over the last `window` solves.
    ///
    /// # Panics
    /// Panics when `window` is zero — an empty window aggregates nothing.
    pub fn new(window: usize) -> WindowedCounter {
        assert!(window > 0, "window must hold at least one solve");
        WindowedCounter {
            window,
            // One spare slot so steady-state push-then-evict never grows
            // the buffer (allocation-stable soak loops depend on this).
            slots: VecDeque::with_capacity(window + 1),
            windowed_sum: 0,
            total: 0,
            high_watermark: 0,
        }
    }

    /// Records one solve's contribution, evicting the oldest solve once
    /// the window is full. Returns `true` when an eviction happened (a
    /// window rollover).
    pub fn push(&mut self, value: u64) -> bool {
        self.slots.push_back(value);
        self.windowed_sum += value;
        self.total += value;
        self.high_watermark = self.high_watermark.max(value);
        if self.slots.len() > self.window {
            let evicted = self.slots.pop_front().expect("window over-full");
            self.windowed_sum -= evicted;
            true
        } else {
            false
        }
    }

    /// Sum of the contributions currently inside the window.
    pub fn windowed_sum(&self) -> u64 {
        self.windowed_sum
    }

    /// All-time sum across every solve ever pushed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest single-solve contribution ever pushed (all-time, not
    /// windowed — the high-watermark an operator alerts on).
    pub fn high_watermark(&self) -> u64 {
        self.high_watermark
    }

    /// Solves currently inside the window (`≤ window`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no solve has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured window width.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Mean contribution per solve inside the window (0.0 when empty) —
    /// the deterministic "rate" (per solve, not per second).
    pub fn rate_per_solve(&self) -> f64 {
        if self.slots.is_empty() {
            0.0
        } else {
            self.windowed_sum as f64 / self.slots.len() as f64
        }
    }
}

/// A histogram over the last `W` solves: keeps the exact per-solve
/// values in a ring plus an incrementally maintained bucket vector using
/// [`LogHistogram`]'s power-of-two bucket layout, so
/// [`quantile`](RollingHistogram::quantile) matches what a fresh
/// [`LogHistogram`] over the same window would answer — including the
/// cap at the exact observed window maximum.
///
/// Eviction happens at the exact window edge: the `W+1`-th value pushes
/// out the 1st, never sooner, never later (the PR 2 `bucket_range`
/// off-by-one history is why the edge cases are unit-tested explicitly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollingHistogram {
    window: usize,
    values: VecDeque<u64>,
    /// Bucket counts for the values currently in the window, indexed by
    /// [`LogHistogram::bucket_of`] (65 buckets cover all of `u64`).
    buckets: [u64; 65],
    windowed_sum: u64,
    total_count: u64,
    high_watermark: u64,
}

impl RollingHistogram {
    /// A histogram windowed over the last `window` solves.
    ///
    /// # Panics
    /// Panics when `window` is zero.
    pub fn new(window: usize) -> RollingHistogram {
        assert!(window > 0, "window must hold at least one solve");
        RollingHistogram {
            window,
            values: VecDeque::with_capacity(window + 1),
            buckets: [0; 65],
            windowed_sum: 0,
            total_count: 0,
            high_watermark: 0,
        }
    }

    /// Records one solve's value, evicting the oldest once the window is
    /// full. Returns `true` on eviction (a window rollover).
    pub fn record(&mut self, value: u64) -> bool {
        self.values.push_back(value);
        self.buckets[LogHistogram::bucket_of(value)] += 1;
        self.windowed_sum += value;
        self.total_count += 1;
        self.high_watermark = self.high_watermark.max(value);
        if self.values.len() > self.window {
            let evicted = self.values.pop_front().expect("window over-full");
            self.buckets[LogHistogram::bucket_of(evicted)] -= 1;
            self.windowed_sum -= evicted;
            true
        } else {
            false
        }
    }

    /// Values currently inside the window (`≤ window`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The configured window width.
    pub fn window(&self) -> usize {
        self.window
    }

    /// All-time count of recorded values (evicted ones included).
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    /// Sum of the values currently inside the window.
    pub fn windowed_sum(&self) -> u64 {
        self.windowed_sum
    }

    /// Largest value currently inside the window (0 when empty).
    /// Recomputed from the retained values, so eviction of the old
    /// maximum is handled exactly.
    pub fn window_max(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0)
    }

    /// Largest value ever recorded (all-time, survives eviction).
    pub fn high_watermark(&self) -> u64 {
        self.high_watermark
    }

    /// The `q`-quantile over the values currently in the window, with
    /// [`LogHistogram::quantile`] semantics: rank `⌈q·len⌉` (clamped to
    /// `[1, len]`), the answering bucket's inclusive upper bound, capped
    /// at the exact [`window_max`](RollingHistogram::window_max). Returns
    /// 0 when the window is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.values.len() as u64;
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, hi) = LogHistogram::bucket_range(i);
                return hi.min(self.window_max());
            }
        }
        self.window_max() // unreachable when counts are consistent
    }
}

/// One completed solve's deterministic contribution to the windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveSample {
    /// Sets/patterns selected during the solve.
    pub selections: u64,
    /// Benefit computations during the solve (the Fig. 6 work unit).
    pub benefits_computed: u64,
    /// Whether the solve degraded (deadline/fault path).
    pub degraded: bool,
}

/// The windowed aggregates for one entry point (or the global view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryWindow {
    /// All-time solves finalized under this entry.
    pub solves: u64,
    /// All-time degraded solves under this entry.
    pub degraded_solves: u64,
    /// Per-solve selection counts, windowed.
    pub selections: WindowedCounter,
    /// Per-solve benefit-computation counts, windowed.
    pub benefits: WindowedCounter,
    /// Per-solve degraded flags (0/1), windowed — `windowed_sum` is the
    /// degraded-solve count inside the window.
    pub degraded: WindowedCounter,
    /// Distribution of benefit computations per solve over the window —
    /// the p50/p90/p99 SLO surface.
    pub benefits_hist: RollingHistogram,
}

impl EntryWindow {
    fn new(window: usize) -> EntryWindow {
        EntryWindow {
            solves: 0,
            degraded_solves: 0,
            selections: WindowedCounter::new(window),
            benefits: WindowedCounter::new(window),
            degraded: WindowedCounter::new(window),
            benefits_hist: RollingHistogram::new(window),
        }
    }

    /// Folds one finalized solve in; returns `true` when the window
    /// rolled over (an eviction happened).
    fn observe(&mut self, sample: &SolveSample) -> bool {
        self.solves += 1;
        self.degraded_solves += u64::from(sample.degraded);
        self.selections.push(sample.selections);
        self.benefits.push(sample.benefits_computed);
        self.degraded.push(u64::from(sample.degraded));
        self.benefits_hist.record(sample.benefits_computed)
    }

    /// Fraction of windowed solves that degraded (0.0 when empty).
    pub fn degraded_rate(&self) -> f64 {
        self.degraded.rate_per_solve()
    }
}

/// Sliding-window aggregation over a stream of solves: a global
/// [`EntryWindow`] plus a per-entry-point breakdown keyed by the
/// [`TraceStarted`](Event::TraceStarted) entry tag.
///
/// Feed it either as an [`Observer`] (attach it to the solve's
/// [`Fanout`](super::Fanout); it accumulates the in-flight solve from
/// events and finalizes on the root `phase_ended(PHASE_TOTAL)`), or
/// directly via [`observe`](SolveWindows::observe) with a prepared
/// [`SolveSample`]. Both paths window on the solve sequence, so the
/// aggregates are bit-identical across thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveWindows {
    window: usize,
    solves: u64,
    rollovers: u64,
    global: EntryWindow,
    /// Per-entry windows in first-seen order (deterministic, because the
    /// replayed event stream is).
    entries: Vec<(&'static str, EntryWindow)>,
    // In-flight accumulation for the Observer path.
    cur: SolveSample,
    cur_entry: Option<&'static str>,
    total_depth: usize,
}

impl SolveWindows {
    /// Windows over the last [`DEFAULT_WINDOW`] solves.
    pub fn new() -> SolveWindows {
        SolveWindows::with_window(DEFAULT_WINDOW)
    }

    /// Windows over the last `window` solves.
    ///
    /// # Panics
    /// Panics when `window` is zero.
    pub fn with_window(window: usize) -> SolveWindows {
        SolveWindows {
            window,
            solves: 0,
            rollovers: 0,
            global: EntryWindow::new(window),
            entries: Vec::new(),
            cur: SolveSample::default(),
            cur_entry: None,
            total_depth: 0,
        }
    }

    /// The configured window width, in solves.
    pub fn window(&self) -> usize {
        self.window
    }

    /// All-time solves finalized.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Window rollovers: solves that evicted an older solve from the
    /// global window (`max(0, solves − window)` by construction — kept
    /// as an explicit counter because it is the operator-facing "the
    /// window is live" signal, and pinned *out* of the exact-diff set).
    pub fn rollovers(&self) -> u64 {
        self.rollovers
    }

    /// The global (all entries) window.
    pub fn global(&self) -> &EntryWindow {
        &self.global
    }

    /// Per-entry windows, in first-seen order.
    pub fn entries(&self) -> &[(&'static str, EntryWindow)] {
        &self.entries
    }

    /// The window for `entry`, if any solve has carried that tag.
    pub fn entry(&self, entry: &str) -> Option<&EntryWindow> {
        self.entries
            .iter()
            .find(|(name, _)| *name == entry)
            .map(|(_, w)| w)
    }

    /// Folds one finalized solve into the global window and the entry's
    /// window (`entry` defaults to `"untraced"` for solves that never
    /// announced a trace).
    pub fn observe(&mut self, entry: Option<&'static str>, sample: SolveSample) {
        self.solves += 1;
        if self.global.observe(&sample) {
            self.rollovers += 1;
        }
        let entry = entry.unwrap_or("untraced");
        let slot = match self.entries.iter_mut().find(|(name, _)| *name == entry) {
            Some((_, w)) => w,
            None => {
                self.entries.push((entry, EntryWindow::new(self.window)));
                &mut self.entries.last_mut().expect("just pushed").1
            }
        };
        slot.observe(&sample);
    }

    /// Finalizes the in-flight solve accumulated through the Observer
    /// path (normally triggered by the root `phase_ended(PHASE_TOTAL)`).
    fn finalize_solve(&mut self) {
        let sample = std::mem::take(&mut self.cur);
        let entry = self.cur_entry.take();
        self.observe(entry, sample);
    }
}

impl Default for SolveWindows {
    fn default() -> SolveWindows {
        SolveWindows::new()
    }
}

impl Observer for SolveWindows {
    fn on(&mut self, event: &Event<'_>) {
        match *event {
            // Latch the outermost entry: nested solves (a sweep's inner
            // rounds) mint their own traces but belong to the outer solve.
            Event::TraceStarted(_, entry) => {
                self.cur_entry.get_or_insert(entry);
            }
            Event::SetSelected(..) => self.cur.selections += 1,
            Event::BenefitComputed(count) => self.cur.benefits_computed += count,
            Event::DegradeDecided(..) => self.cur.degraded = true,
            Event::PhaseStarted(PHASE_TOTAL) => self.total_depth += 1,
            Event::PhaseEnded(PHASE_TOTAL, _) => {
                self.total_depth = self.total_depth.saturating_sub(1);
                // Only the root total span closes a solve; nested totals
                // (inner rounds of a sweep) stay part of the outer solve.
                if self.total_depth == 0 {
                    self.finalize_solve();
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TraceId;

    #[test]
    fn windowed_counter_sums_and_evicts() {
        let mut c = WindowedCounter::new(3);
        assert!(c.is_empty());
        assert_eq!(c.rate_per_solve(), 0.0);
        assert!(!c.push(10));
        assert!(!c.push(20));
        assert!(!c.push(30));
        assert_eq!(c.len(), 3);
        assert_eq!(c.windowed_sum(), 60);
        assert_eq!(c.total(), 60);
        // The 4th push evicts the 1st: window edge, not before.
        assert!(c.push(40));
        assert_eq!(c.len(), 3);
        assert_eq!(c.windowed_sum(), 90);
        assert_eq!(c.total(), 100);
        assert_eq!(c.high_watermark(), 40);
        assert_eq!(c.rate_per_solve(), 30.0);
        assert_eq!(c.window(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one solve")]
    fn zero_window_is_rejected() {
        WindowedCounter::new(0);
    }

    #[test]
    fn rolling_histogram_evicts_at_exact_window_edge() {
        let mut h = RollingHistogram::new(4);
        // Exactly W records: no eviction yet.
        for v in [1u64, 2, 4, 8] {
            assert!(!h.record(v), "no eviction before the edge");
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.windowed_sum(), 15);
        assert_eq!(h.window_max(), 8);
        // Record W+1: evicts exactly the oldest (1), nothing else.
        assert!(h.record(16), "the W+1-th record evicts");
        assert_eq!(h.len(), 4);
        assert_eq!(h.windowed_sum(), 30);
        assert_eq!(h.total_count(), 5);
        // Bucket of the evicted value is decremented, not zeroed.
        assert_eq!(h.buckets[LogHistogram::bucket_of(1)], 0);
        assert_eq!(h.buckets[LogHistogram::bucket_of(16)], 1);
    }

    #[test]
    fn rolling_histogram_max_survives_eviction_of_old_max() {
        let mut h = RollingHistogram::new(2);
        h.record(100);
        h.record(3);
        h.record(5); // evicts 100
        assert_eq!(h.window_max(), 5, "old max left the window");
        assert_eq!(h.high_watermark(), 100, "all-time watermark survives");
        assert_eq!(h.quantile(1.0), 5, "quantile capped at window max");
    }

    #[test]
    fn rolling_quantiles_match_fresh_log_histogram() {
        // The rolling window's quantiles must equal a LogHistogram built
        // from only the retained values — same buckets, same cap rule.
        let values: Vec<u64> = (0..50).map(|i| (i * 37) % 23).collect();
        let window = 16;
        let mut rolling = RollingHistogram::new(window);
        for &v in &values {
            rolling.record(v);
        }
        let mut fresh = LogHistogram::new();
        for &v in &values[values.len() - window..] {
            fresh.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(rolling.quantile(q), fresh.quantile(q), "q={q}");
        }
        assert_eq!(rolling.window_max(), fresh.max());
    }

    #[test]
    fn rolling_histogram_quantile_on_empty_and_single() {
        let mut h = RollingHistogram::new(8);
        assert_eq!(h.quantile(0.5), 0);
        h.record(7);
        assert_eq!(h.quantile(0.0), 7);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn solve_windows_observer_finalizes_on_root_total() {
        let mut w = SolveWindows::with_window(2);
        for i in 0..3u64 {
            w.on(&Event::TraceStarted(TraceId::mint("cmc", i, 1), "cmc"));
            w.on(&Event::PhaseStarted(PHASE_TOTAL));
            // A nested solve: its trace and total span stay inside.
            w.on(&Event::TraceStarted(
                TraceId::mint("opt_cwsc", i, 1),
                "opt_cwsc",
            ));
            w.on(&Event::PhaseStarted(PHASE_TOTAL));
            w.on(&Event::BenefitComputed(5));
            w.on(&Event::SetSelected(1, 3, 1.0));
            w.on(&Event::PhaseEnded(PHASE_TOTAL, 0.0));
            w.on(&Event::BenefitComputed(5));
            w.on(&Event::PhaseEnded(PHASE_TOTAL, 0.0));
        }
        assert_eq!(w.solves(), 3, "one solve per root span");
        assert_eq!(w.entries().len(), 1, "nested entry folded into outer");
        let cmc = w.entry("cmc").expect("outer entry tagged");
        assert_eq!(cmc.solves, 3);
        assert_eq!(cmc.benefits.high_watermark(), 10);
        assert_eq!(w.global().selections.windowed_sum(), 2, "window of 2");
        assert_eq!(w.rollovers(), 1, "3 solves through a 2-window");
    }

    #[test]
    fn solve_windows_tracks_degraded_and_untraced() {
        let mut w = SolveWindows::with_window(4);
        w.observe(
            None,
            SolveSample {
                selections: 1,
                benefits_computed: 2,
                degraded: true,
            },
        );
        w.observe(
            Some("cwsc"),
            SolveSample {
                selections: 3,
                benefits_computed: 4,
                degraded: false,
            },
        );
        assert_eq!(w.global().degraded_solves, 1);
        assert_eq!(w.global().degraded.windowed_sum(), 1);
        assert_eq!(w.global().degraded_rate(), 0.5);
        assert!(w.entry("untraced").is_some());
        assert!(w.entry("cwsc").is_some());
        assert_eq!(w.entry("nope"), None);
        assert_eq!(w.rollovers(), 0);
    }

    #[test]
    fn windows_are_equal_when_fed_identical_streams() {
        // The determinism contract in miniature: two windows fed the
        // same solve sequence compare equal, including quantile state.
        let drive = |w: &mut SolveWindows| {
            for i in 0..10u64 {
                w.observe(
                    Some(if i % 2 == 0 { "cmc" } else { "cwsc" }),
                    SolveSample {
                        selections: i,
                        benefits_computed: i * 7,
                        degraded: i == 3,
                    },
                );
            }
        };
        let mut a = SolveWindows::with_window(4);
        let mut b = SolveWindows::with_window(4);
        drive(&mut a);
        drive(&mut b);
        assert_eq!(a, b);
        assert_eq!(
            a.global().benefits_hist.quantile(0.99),
            b.global().benefits_hist.quantile(0.99)
        );
    }
}

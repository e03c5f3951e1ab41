//! Structured solver observability: lifecycle events, aggregated metrics,
//! and JSONL trace export.
//!
//! The paper's empirical section is built on *internal* solver metrics —
//! "patterns considered" (Fig. 6), budget-guess rounds, per-phase runtime.
//! This module turns those into an explicit event stream: solvers emit
//! lifecycle [`Event`]s through an [`Observer`]'s one method,
//! [`on`](Observer::on), and callers choose what to do with them:
//!
//! * [`NoopObserver`] — ignore everything; its empty `on` is erased by the
//!   optimizer, so uninstrumented callers pay nothing;
//! * [`MetricsRecorder`] — counters, per-phase monotonic timings, and
//!   log-bucketed histograms (marginal-benefit distribution, heap
//!   re-heapify depth);
//! * [`JsonlSink`] — one JSON object per event to any [`io::Write`];
//! * [`Fanout`] — broadcast each event to several observers at once.
//!
//! The event vocabulary is the [`Event`] enum (see DESIGN.md
//! §Observability for the full mapping to the paper's figures).

use std::fmt::Write as _;
use std::io;
use std::time::Instant;

#[cfg(feature = "alloc-stats")]
#[allow(unsafe_code)] // the `GlobalAlloc` impl
pub mod alloc;
pub mod audit;
mod event;
pub mod export;
pub mod flight;
pub mod replay;
pub mod spans;
pub mod trace;
pub mod watchdog;
pub mod window;

pub use audit::{AuditCandidate, DecisionLedger, QualityCertificate};
pub use event::Event;
pub use export::{parse_prometheus, render_prometheus, render_prometheus_windowed, SloGauges};
pub use flight::FlightRecorder;
pub use replay::EventLog;
pub use spans::{SpanCounters, SpanNode, SpanProfiler};
pub use trace::{pack_k_target, TraceContext, TraceId};
pub use watchdog::{Watch, Watchdog, WatchdogMonitor};
pub use window::{SolveSample, SolveWindows};

/// Span name covering a solver's whole run.
pub const PHASE_TOTAL: &str = "total";

/// Span name of one budget guess inside a CMC run (child of
/// [`PHASE_TOTAL`]; one completion per `guess_started`).
pub const PHASE_GUESS: &str = "guess";

/// Span name of the initial benefit materialization of a round/guess.
pub const PHASE_INIT: &str = "init";

/// Span name of a lattice-expansion sweep (posting scans + child
/// materialization) inside the optimized pattern solvers.
pub const PHASE_EXPAND: &str = "expand";

/// Span name of a selection sweep (argmax + cover update + recount).
pub const PHASE_SELECT: &str = "select";

/// Span name of a **pruned** benefit recount (optimized CWSC's
/// bound/sketch-gated refresh of its candidate set). An older baseline
/// snapshot, recorded before the refresh had this span, never holds it,
/// which `scwsc_bench diff --attribute` labels as a "new" span rather
/// than a mover against zero.
pub const PHASE_SCAN_PRUNE: &str = "scan_prune";

/// Why a candidate (or lattice subtree) was discarded before selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneReason {
    /// Marginal benefit below the CWSC eligibility floor `rem/i`.
    BelowFloor,
    /// Marginal benefit dropped to zero (nothing new to cover).
    Exhausted,
    /// A cost bound proved the candidate cannot beat the incumbent.
    CostBound,
    /// A coverage bound proved the target is unreachable from here.
    CoverageBound,
}

impl PruneReason {
    /// Number of distinct reasons (array-indexing aid for aggregators).
    pub const COUNT: usize = 4;

    /// Stable snake_case name used in traces and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PruneReason::BelowFloor => "below_floor",
            PruneReason::Exhausted => "exhausted",
            PruneReason::CostBound => "cost_bound",
            PruneReason::CoverageBound => "coverage_bound",
        }
    }

    /// Dense index in `0..COUNT`, in declaration order.
    pub fn index(self) -> usize {
        match self {
            PruneReason::BelowFloor => 0,
            PruneReason::Exhausted => 1,
            PruneReason::CostBound => 2,
            PruneReason::CoverageBound => 3,
        }
    }

    /// All reasons in [`index`](PruneReason::index) order.
    pub fn all() -> [PruneReason; PruneReason::COUNT] {
        [
            PruneReason::BelowFloor,
            PruneReason::Exhausted,
            PruneReason::CostBound,
            PruneReason::CoverageBound,
        ]
    }
}

/// Receiver of solver lifecycle [`Event`]s. An observer matches the
/// variants it uses and ignores the rest.
///
/// Solvers take `&mut O where O: Observer + ?Sized`, so both concrete
/// observers (`&mut MetricsRecorder`, or [`NoopObserver`], whose empty
/// `on` compiles away entirely) and trait objects (`&mut dyn Observer`, as inside
/// [`Fanout`]) work.
pub trait Observer {
    /// Handles one event.
    fn on(&mut self, event: &Event<'_>);
}

/// The do-nothing observer: zero cost after inlining.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    #[inline]
    fn on(&mut self, _event: &Event<'_>) {}
}

/// RAII-style helper for emitting a paired
/// [`PhaseStarted`](Event::PhaseStarted) /
/// [`PhaseEnded`](Event::PhaseEnded) span. Not `Drop`-based — the
/// observer borrow cannot be held across the span — so call
/// [`exit`](PhaseSpan::exit) explicitly.
#[derive(Debug)]
pub struct PhaseSpan {
    name: &'static str,
    start: Instant,
}

impl PhaseSpan {
    /// Emits `PhaseStarted(name)` and starts the clock.
    pub fn enter<O: Observer + ?Sized>(obs: &mut O, name: &'static str) -> PhaseSpan {
        obs.on(&Event::PhaseStarted(name));
        PhaseSpan {
            name,
            start: Instant::now(),
        }
    }

    /// Emits `PhaseEnded(name, seconds)` and returns the measured seconds.
    pub fn exit<O: Observer + ?Sized>(self, obs: &mut O) -> f64 {
        let seconds = self.start.elapsed().as_secs_f64();
        obs.on(&Event::PhaseEnded(self.name, seconds));
        seconds
    }
}

/// A histogram with power-of-two buckets: bucket `0` holds zeros, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i − 1]` (so the top bucket, 64,
/// is `[2^63, u64::MAX]` — no value is unrepresentable). Hand-rolled (no
/// deps) and allocation-light: the bucket vector grows to the highest
/// observed magnitude only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Index of the bucket `value` falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive value range `[lo, hi]` of bucket `i` (bucket 0 is the
    /// point range `[0, 0]`; bucket 64 is `[2^63, u64::MAX]`).
    ///
    /// The upper bound is *inclusive*: an exclusive bound for the top
    /// bucket would be `2^64`, which `u64` cannot represent — the earlier
    /// exclusive formulation silently excluded `u64::MAX` from the bucket
    /// [`bucket_of`](LogHistogram::bucket_of) assigns it to.
    ///
    /// # Panics
    /// Panics if `i > 64` (no value maps to such a bucket).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        assert!(i <= 64, "bucket {i} out of range (values map to 0..=64)");
        match i {
            0 => (0, 0),
            64 => (1u64 << 63, u64::MAX),
            _ => (1u64 << (i - 1), (1u64 << i) - 1),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let b = LogHistogram::bucket_of(value);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Per-bucket observation counts (index = [`bucket_of`](LogHistogram::bucket_of)).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`, clamped) as an upper-bound
    /// estimate: the smallest recorded-bucket upper bound below which at
    /// least `⌈q·count⌉` observations fall, capped at the exact observed
    /// [`max`](LogHistogram::max) so the estimate never exceeds a value
    /// that was actually recorded. Returns 0 for an empty histogram.
    ///
    /// The log-bucketed layout bounds the relative error at 2× (one
    /// power-of-two bucket), which is the standard trade for an
    /// allocation-light always-on histogram; p50/p90/p99 derived here are
    /// the SLO surface exported by
    /// [`render_prometheus`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based; q = 0 means "smallest".
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, hi) = LogHistogram::bucket_range(i);
                return hi.min(self.max);
            }
        }
        self.max // unreachable when counts are consistent; safe fallback
    }

    /// Folds `other`'s observations into `self`, as if every value had
    /// been [`record`](LogHistogram::record)ed here directly (bucket
    /// counts add, sum saturates, max takes the larger).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Accumulated wall-clock time of one named phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetric {
    /// Span name as carried by [`Event::PhaseStarted`].
    pub name: &'static str,
    /// Total seconds across all spans with this name.
    pub seconds: f64,
    /// Number of completed spans with this name.
    pub count: u64,
}

/// An [`Observer`] that aggregates every event into counters, per-phase
/// monotonic timings, and log-bucketed histograms — the in-process
/// equivalent of the numbers behind the paper's Figures 5–9.
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    /// Budget-guess rounds started.
    pub guesses: u64,
    /// Cost levels scheduled across all guesses.
    pub levels_entered: u64,
    /// Sum of level quotas across all guesses (`Σ allowance`).
    pub level_allowance: u64,
    /// Sets/patterns selected into candidate solutions.
    pub selections: u64,
    /// Benefit computations — the Fig. 6 "considered" metric.
    pub benefits_computed: u64,
    /// Candidates pruned, indexed by [`PruneReason::index`].
    pub candidates_pruned: [u64; PruneReason::COUNT],
    /// Lattice subtrees pruned, indexed by [`PruneReason::index`].
    pub subtrees_pruned: [u64; PruneReason::COUNT],
    /// Stale lazy-greedy heap pops (each one re-scored a candidate).
    pub heap_stale_pops: u64,
    /// Inverted-index posting entries scanned during lattice expansion.
    pub postings_scanned: u64,
    /// Panicked budget guesses contained and retried by the
    /// resilience engine. Fault paths only — excluded from the exact-diff
    /// counter set.
    pub guesses_retried: u64,
    /// Traces minted by solve entry points. Observability plumbing —
    /// excluded from the exact-diff counter set (DESIGN.md §13).
    pub traces_started: u64,
    /// Selection rounds audited (`round_decided` events). Audit plumbing —
    /// excluded from the exact-diff counter set like the trace counters.
    pub rounds_audited: u64,
    /// Scan candidates disposed of without a completed exact count
    /// (bound/sketch/early-exit decided). Pruned-refresh runs only —
    /// excluded from the exact-diff counter set.
    pub scan_candidates_pruned: u64,
    /// Stale scan upper bounds replaced by fresh exact counts. Advisory —
    /// excluded from the exact-diff counter set.
    pub scan_bounds_refreshed: u64,
    /// Stalls flagged by the liveness watchdog (no progress within
    /// deadline headroom). Fault/overload paths only — excluded from the
    /// exact-diff counter set.
    pub stalls_detected: u64,
    /// Distribution of marginal benefits at selection time.
    pub marginal_benefit_hist: LogHistogram,
    /// Distribution of consecutive stale pops preceding each selection —
    /// the heap "re-heapify depth".
    pub stale_run_hist: LogHistogram,
    phases: Vec<PhaseMetric>,
    stale_run: u64,
}

impl MetricsRecorder {
    /// A fresh, zeroed recorder.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder::default()
    }

    /// Completed phases in first-seen order.
    pub fn phases(&self) -> &[PhaseMetric] {
        &self.phases
    }

    /// Total seconds recorded for `name`, if any span with it completed.
    pub fn phase_seconds(&self, name: &str) -> Option<f64> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.seconds)
    }

    /// All candidates pruned, summed over reasons.
    pub fn candidates_pruned_total(&self) -> u64 {
        self.candidates_pruned.iter().sum()
    }

    /// All subtrees pruned, summed over reasons.
    pub fn subtrees_pruned_total(&self) -> u64 {
        self.subtrees_pruned.iter().sum()
    }

    /// Folds `other`'s aggregates into `self`, so the totals of several
    /// recorders (one per rep, per soak iteration, per served request)
    /// equal those of a single recorder that saw every event.
    ///
    /// Phases merge by name (new names append in `other`'s order); the
    /// in-flight stale-run counter adds so a merge mid-run loses nothing.
    pub fn merge(&mut self, other: &MetricsRecorder) {
        self.guesses += other.guesses;
        self.levels_entered += other.levels_entered;
        self.level_allowance += other.level_allowance;
        self.selections += other.selections;
        self.benefits_computed += other.benefits_computed;
        for (a, b) in self
            .candidates_pruned
            .iter_mut()
            .zip(&other.candidates_pruned)
        {
            *a += b;
        }
        for (a, b) in self.subtrees_pruned.iter_mut().zip(&other.subtrees_pruned) {
            *a += b;
        }
        self.heap_stale_pops += other.heap_stale_pops;
        self.postings_scanned += other.postings_scanned;
        self.guesses_retried += other.guesses_retried;
        self.traces_started += other.traces_started;
        self.rounds_audited += other.rounds_audited;
        self.scan_candidates_pruned += other.scan_candidates_pruned;
        self.scan_bounds_refreshed += other.scan_bounds_refreshed;
        self.stalls_detected += other.stalls_detected;
        self.marginal_benefit_hist
            .merge(&other.marginal_benefit_hist);
        self.stale_run_hist.merge(&other.stale_run_hist);
        for p in &other.phases {
            match self.phases.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.seconds += p.seconds;
                    q.count += p.count;
                }
                None => self.phases.push(p.clone()),
            }
        }
        self.stale_run += other.stale_run;
    }
}

impl Observer for MetricsRecorder {
    fn on(&mut self, event: &Event<'_>) {
        match *event {
            Event::GuessStarted(_) => self.guesses += 1,
            Event::LevelEntered(_, allowance) => {
                self.levels_entered += 1;
                self.level_allowance += allowance as u64;
            }
            Event::SetSelected(_, marginal_benefit, _) => {
                self.selections += 1;
                self.marginal_benefit_hist.record(marginal_benefit);
                self.stale_run_hist.record(self.stale_run);
                self.stale_run = 0;
            }
            Event::BenefitComputed(count) => self.benefits_computed += count,
            Event::CandidatePruned(reason, count) => {
                self.candidates_pruned[reason.index()] += count
            }
            Event::SubtreePruned(reason, count) => self.subtrees_pruned[reason.index()] += count,
            Event::PostingScanned(entries) => self.postings_scanned += entries,
            Event::HeapStalePop(count) => {
                self.heap_stale_pops += count;
                self.stale_run += count;
            }
            Event::RoundDecided(..) => self.rounds_audited += 1,
            Event::GuessRetried => self.guesses_retried += 1,
            Event::TraceStarted(..) => self.traces_started += 1,
            Event::ScanPruned(count) => self.scan_candidates_pruned += count,
            Event::BoundRefreshed(count) => self.scan_bounds_refreshed += count,
            Event::StallDetected(..) => self.stalls_detected += 1,
            Event::PhaseEnded(name, seconds) => {
                match self.phases.iter_mut().find(|p| p.name == name) {
                    Some(p) => {
                        p.seconds += seconds;
                        p.count += 1;
                    }
                    None => self.phases.push(PhaseMetric {
                        name,
                        seconds,
                        count: 1,
                    }),
                }
            }
            Event::PriceCharged(..) | Event::DegradeDecided(..) | Event::PhaseStarted(_) => {}
        }
    }
}

/// An [`Observer`] that serializes every event as one JSON object per line
/// to any [`io::Write`]. Each line carries `"t"`, seconds since the sink
/// was created, and `"event"`, the event name, plus the event's fields.
///
/// The encoder is hand-rolled (the workspace deliberately carries no JSON
/// serializer); non-finite floats become JSON `null`. Write errors are
/// latched rather than panicking mid-solve: the first failure silences the
/// sink and [`has_failed`](JsonlSink::has_failed) reports it.
///
/// Dropping the sink flushes the writer, so a trace file is never left
/// with buffered-but-unwritten events when the process exits on a panic
/// or degradation path; callers that want the flush error call
/// [`flush`](JsonlSink::flush) or [`into_inner`](JsonlSink::into_inner)
/// explicitly before exiting non-zero.
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    out: Option<W>,
    start: Instant,
    failed: bool,
    buf: String,
}

impl<W: io::Write> JsonlSink<W> {
    /// Wraps a writer; the trace clock starts now.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out: Some(out),
            start: Instant::now(),
            failed: false,
            buf: String::with_capacity(128),
        }
    }

    /// Whether any write has failed (later events were dropped).
    pub fn has_failed(&self) -> bool {
        self.failed
    }

    /// Flushes buffered events through to the underlying writer. Called
    /// automatically on drop (where the error can only be latched); call
    /// it explicitly before a non-zero process exit to surface the error.
    pub fn flush(&mut self) -> io::Result<()> {
        match self.out.as_mut() {
            Some(out) => out.flush().inspect_err(|_| self.failed = true),
            None => Ok(()),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        let mut out = self.out.take().expect("writer present until taken");
        out.flush()?;
        Ok(out)
    }
}

impl<W: io::Write> Drop for JsonlSink<W> {
    /// Best-effort flush so buffered trace lines survive unwinding; the
    /// error (if any) is latched in [`has_failed`](JsonlSink::has_failed).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Formats an `f64` as a JSON value (non-finite → `null`).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_owned()
    }
}

impl<W: io::Write> Observer for JsonlSink<W> {
    /// Writes one line: `{"t":<secs>,"event":"<name>"<fields>}`. The two
    /// advisory scan events vary with chunking and stay out of the trace.
    fn on(&mut self, event: &Event<'_>) {
        if self.failed || matches!(event, Event::ScanPruned(_) | Event::BoundRefreshed(_)) {
            return;
        }
        let t = self.start.elapsed().as_secs_f64();
        self.buf.clear();
        let _ = write!(
            self.buf,
            "{{\"t\":{},\"event\":\"{}\"",
            json_f64(t),
            event.name()
        );
        event.write_fields(&mut self.buf);
        self.buf.push_str("}\n");
        let Some(out) = self.out.as_mut() else { return };
        if out.write_all(self.buf.as_bytes()).is_err() {
            self.failed = true;
        }
    }
}

/// Broadcasts every event to each attached observer, in attachment order.
/// Lets one solve feed a [`MetricsRecorder`], a [`JsonlSink`] and an
/// [`EventLog`] simultaneously.
#[derive(Default)]
pub struct Fanout<'a> {
    observers: Vec<&'a mut dyn Observer>,
}

impl<'a> Fanout<'a> {
    /// An empty fanout (all events dropped until observers attach).
    pub fn new() -> Fanout<'a> {
        Fanout {
            observers: Vec::new(),
        }
    }

    /// Attaches one more observer.
    pub fn attach(&mut self, observer: &'a mut dyn Observer) -> &mut Self {
        self.observers.push(observer);
        self
    }

    /// Number of attached observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// Whether no observer is attached.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl Observer for Fanout<'_> {
    fn on(&mut self, event: &Event<'_>) {
        for o in &mut self.observers {
            o.on(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_reason_round_trip() {
        for (i, r) in PruneReason::all().into_iter().enumerate() {
            assert_eq!(r.index(), i);
            assert!(!r.as_str().is_empty());
        }
    }

    #[test]
    fn log_histogram_bucketing() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_range(0), (0, 0));
        assert_eq!(LogHistogram::bucket_range(2), (2, 3));
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024] {
            let (lo, hi) = LogHistogram::bucket_range(LogHistogram::bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo},{hi}]");
        }
    }

    /// Exhaustive boundary sweep: every power of two, its neighbours, zero,
    /// and `u64::MAX` land in a bucket whose inclusive range contains them,
    /// buckets tile the value space without gaps or overlaps, and the
    /// bucket index is monotone in the value.
    #[test]
    fn log_histogram_bucket_boundaries_exhaustive() {
        // bucket_of at every power of two and its neighbours.
        for i in 0..64u32 {
            let p = 1u64 << i;
            assert_eq!(LogHistogram::bucket_of(p), i as usize + 1, "2^{i}");
            if p > 1 {
                assert_eq!(LogHistogram::bucket_of(p - 1), i as usize, "2^{i}-1");
            }
            let (lo, hi) = LogHistogram::bucket_range(LogHistogram::bucket_of(p));
            assert!(lo <= p && p <= hi, "2^{i} outside [{lo},{hi}]");
        }
        // The extremes.
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        let (lo, hi) = LogHistogram::bucket_range(64);
        assert!(lo < u64::MAX && hi == u64::MAX, "top bucket holds MAX");
        assert_eq!(LogHistogram::bucket_of(u64::MAX - 1), 64);
        assert_eq!(LogHistogram::bucket_of((1u64 << 63) - 1), 63);
        // Buckets tile [0, u64::MAX] exactly: each range starts right after
        // the previous one ends and the bucket owns its whole range.
        let mut expected_lo = 0u64;
        for i in 0..=64usize {
            let (lo, hi) = LogHistogram::bucket_range(i);
            assert_eq!(lo, expected_lo, "bucket {i} leaves a gap");
            assert!(lo <= hi, "bucket {i} range inverted");
            assert_eq!(LogHistogram::bucket_of(lo), i, "bucket {i} lo");
            assert_eq!(LogHistogram::bucket_of(hi), i, "bucket {i} hi");
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "last bucket ends exactly at u64::MAX");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn log_histogram_bucket_range_rejects_past_64() {
        LogHistogram::bucket_range(65);
    }

    #[test]
    fn log_histogram_records_extremes() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX); // sum saturates rather than wrapping
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[64], 2);
    }

    #[test]
    fn log_histogram_aggregates() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        for v in [0u64, 1, 1, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.max(), 9);
        assert_eq!(h.mean(), 3.2);
        assert_eq!(h.buckets()[0], 1, "one zero");
        assert_eq!(h.buckets()[1], 2, "two ones");
        assert_eq!(h.buckets()[3], 1, "5 in [4,8)");
        assert_eq!(h.buckets()[4], 1, "9 in [8,16)");
    }

    #[test]
    fn metrics_recorder_aggregates_events() {
        let mut m = MetricsRecorder::new();
        m.on(&Event::GuessStarted(Some(4.0)));
        m.on(&Event::LevelEntered(0, 2));
        m.on(&Event::LevelEntered(1, 4));
        m.on(&Event::BenefitComputed(10));
        m.on(&Event::HeapStalePop(2));
        m.on(&Event::SetSelected(3, 6, 1.5));
        m.on(&Event::SetSelected(1, 2, 0.5));
        m.on(&Event::CandidatePruned(PruneReason::BelowFloor, 3));
        m.on(&Event::SubtreePruned(PruneReason::Exhausted, 1));
        m.on(&Event::PostingScanned(7));
        m.on(&Event::PhaseStarted("total"));
        m.on(&Event::PhaseEnded("total", 0.25));
        m.on(&Event::PhaseEnded("total", 0.25));

        assert_eq!(m.guesses, 1);
        assert_eq!(m.levels_entered, 2);
        assert_eq!(m.level_allowance, 6);
        assert_eq!(m.selections, 2);
        assert_eq!(m.benefits_computed, 10);
        assert_eq!(m.candidates_pruned_total(), 3);
        assert_eq!(m.subtrees_pruned_total(), 1);
        assert_eq!(m.heap_stale_pops, 2);
        assert_eq!(m.postings_scanned, 7);
        assert_eq!(m.marginal_benefit_hist.count(), 2);
        assert_eq!(m.marginal_benefit_hist.sum(), 8);
        // First selection came after 2 stale pops, second after 0.
        assert_eq!(m.stale_run_hist.count(), 2);
        assert_eq!(m.stale_run_hist.max(), 2);
        assert_eq!(m.phase_seconds("total"), Some(0.5));
        assert_eq!(m.phases()[0].count, 2);
        assert_eq!(m.phase_seconds("missing"), None);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = LogHistogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn quantile_single_bucket_returns_observed_max() {
        // All observations in one bucket: every quantile is that bucket,
        // capped at the exact observed max (not the bucket's upper bound).
        let mut h = LogHistogram::new();
        for _ in 0..10 {
            h.record(5); // bucket 3 = [4, 7]
        }
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 5, "q={q}");
        }
        // A single zero: quantiles collapse to the zero bucket.
        let mut z = LogHistogram::new();
        z.record(0);
        assert_eq!(z.quantile(0.5), 0);
        assert_eq!(z.quantile(1.0), 0);
    }

    #[test]
    fn quantile_saturating_top_bucket_is_exact_at_max() {
        // u64::MAX lives in the saturating top bucket [2^63, u64::MAX];
        // the estimate must not overflow past the observed max.
        let mut h = LogHistogram::new();
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.quantile(0.5), 1);
        // Only MAX recorded: every quantile is exactly MAX.
        let mut m = LogHistogram::new();
        m.record(u64::MAX);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(m.quantile(q), u64::MAX, "q={q}");
        }
    }

    #[test]
    fn quantile_rank_selection_and_clamping() {
        // 100 observations: 50 ones, 40 eights, 10 thousand-twenty-fours.
        let mut h = LogHistogram::new();
        for _ in 0..50 {
            h.record(1);
        }
        for _ in 0..40 {
            h.record(8); // bucket 4 = [8, 15]
        }
        for _ in 0..10 {
            h.record(1024); // bucket 11 = [1024, 2047]
        }
        assert_eq!(h.quantile(0.5), 1, "rank 50 is the last 1");
        assert_eq!(h.quantile(0.9), 15, "rank 90 is the last 8's bucket hi");
        assert_eq!(h.quantile(0.99), 1024, "rank 99 capped at observed max");
        assert_eq!(h.quantile(1.0), 1024);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        // Quantiles are monotone in q.
        let mut prev = 0;
        for i in 0..=100 {
            let v = h.quantile(i as f64 / 100.0);
            assert!(v >= prev, "quantile not monotone at {i}%");
            prev = v;
        }
    }

    #[test]
    fn trace_counters_stay_out_of_exact_counters() {
        let mut m = MetricsRecorder::new();
        m.on(&Event::TraceStarted(
            trace::TraceId::mint("cmc", 1, 2),
            "cmc",
        ));
        assert_eq!(m.traces_started, 1);
        // Like the retry counter, trace plumbing never touches
        // the exact-diff counters.
        assert_eq!(m.guesses, 0);
        assert_eq!(m.selections, 0);
        assert_eq!(m.benefits_computed, 0);

        let mut merged = MetricsRecorder::new();
        merged.merge(&m);
        assert_eq!(merged.traces_started, 1);
    }

    #[test]
    fn jsonl_sink_emits_trace_events() {
        let mut sink = JsonlSink::new(Vec::new());
        let id = trace::TraceId::mint("opt_cmc", 3, 4);
        sink.on(&Event::TraceStarted(id, "opt_cmc"));
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        assert!(
            text.contains(&format!("\"trace_id\":\"{id}\",\"entry\":\"opt_cmc\"")),
            "{text}"
        );
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        struct FlushProbe(Arc<AtomicBool>);
        impl io::Write for FlushProbe {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.0.store(true, Ordering::SeqCst);
                Ok(())
            }
        }

        let flushed = Arc::new(AtomicBool::new(false));
        {
            let mut sink = JsonlSink::new(FlushProbe(Arc::clone(&flushed)));
            sink.on(&Event::HeapStalePop(1));
            assert!(!flushed.load(Ordering::SeqCst), "no premature flush");
        }
        assert!(flushed.load(Ordering::SeqCst), "drop must flush");
    }

    #[test]
    fn log_histogram_merge_equals_interleaved_records() {
        let values_a = [0u64, 1, 5, 1024, u64::MAX];
        let values_b = [2u64, 2, 9, u64::MAX];
        let mut merged = LogHistogram::new();
        for v in values_a {
            merged.record(v);
        }
        let mut other = LogHistogram::new();
        for v in values_b {
            other.record(v);
        }
        merged.merge(&other);
        let mut direct = LogHistogram::new();
        for v in values_a.into_iter().chain(values_b) {
            direct.record(v);
        }
        assert_eq!(merged, direct);
        // Merging an empty histogram is the identity.
        let before = merged.clone();
        merged.merge(&LogHistogram::new());
        assert_eq!(merged, before);
    }

    #[test]
    fn metrics_recorder_merge_equals_single_recorder() {
        // Two shards observing disjoint event streams merge to exactly
        // what one recorder seeing both streams would hold.
        let drive_a = |m: &mut MetricsRecorder| {
            m.on(&Event::GuessStarted(Some(1.0)));
            m.on(&Event::LevelEntered(0, 2));
            m.on(&Event::BenefitComputed(5));
            m.on(&Event::HeapStalePop(1));
            m.on(&Event::SetSelected(1, 3, 2.0));
            m.on(&Event::CandidatePruned(PruneReason::BelowFloor, 2));
            m.on(&Event::PhaseStarted("total"));
            m.on(&Event::PhaseEnded("total", 0.5));
        };
        let drive_b = |m: &mut MetricsRecorder| {
            m.on(&Event::GuessStarted(Some(2.0)));
            m.on(&Event::BenefitComputed(7));
            m.on(&Event::SubtreePruned(PruneReason::Exhausted, 3));
            m.on(&Event::PostingScanned(11));
            m.on(&Event::SetSelected(2, 4, 1.0));
            m.on(&Event::GuessRetried);
            m.on(&Event::PhaseEnded("total", 0.25));
            m.on(&Event::PhaseEnded("scan", 0.125));
        };
        let mut a = MetricsRecorder::new();
        drive_a(&mut a);
        let mut b = MetricsRecorder::new();
        drive_b(&mut b);
        a.merge(&b);

        let mut single = MetricsRecorder::new();
        drive_a(&mut single);
        drive_b(&mut single);

        assert_eq!(a.guesses, single.guesses);
        assert_eq!(a.levels_entered, single.levels_entered);
        assert_eq!(a.level_allowance, single.level_allowance);
        assert_eq!(a.selections, single.selections);
        assert_eq!(a.benefits_computed, single.benefits_computed);
        assert_eq!(a.candidates_pruned, single.candidates_pruned);
        assert_eq!(a.subtrees_pruned, single.subtrees_pruned);
        assert_eq!(a.heap_stale_pops, single.heap_stale_pops);
        assert_eq!(a.postings_scanned, single.postings_scanned);
        assert_eq!(a.guesses_retried, single.guesses_retried);
        assert_eq!(a.marginal_benefit_hist, single.marginal_benefit_hist);
        assert_eq!(a.stale_run_hist, single.stale_run_hist);
        assert_eq!(a.phases(), single.phases());
    }

    #[test]
    fn guess_retried_counter_stays_out_of_exact_counters() {
        let mut m = MetricsRecorder::new();
        m.on(&Event::GuessRetried);
        m.on(&Event::GuessRetried);
        assert_eq!(m.guesses_retried, 2);
        // Retries never touch the exact-diff counters.
        assert_eq!(m.guesses, 0);
        assert_eq!(m.selections, 0);
        let mut sink = JsonlSink::new(Vec::new());
        sink.on(&Event::GuessRetried);
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        assert!(text.contains("\"event\":\"guess_retried\""), "{text}");
    }

    #[test]
    fn jsonl_sink_emits_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on(&Event::GuessStarted(Some(2.5)));
        sink.on(&Event::GuessStarted(None));
        sink.on(&Event::LevelEntered(0, 2));
        sink.on(&Event::SetSelected(7, 3, 1.0));
        sink.on(&Event::BenefitComputed(12));
        sink.on(&Event::CandidatePruned(PruneReason::CostBound, 1));
        sink.on(&Event::SubtreePruned(PruneReason::BelowFloor, 6));
        sink.on(&Event::PostingScanned(40));
        sink.on(&Event::HeapStalePop(5));
        sink.on(&Event::PhaseStarted("total"));
        sink.on(&Event::PhaseEnded("total", 0.125));
        assert!(!sink.has_failed());
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 11);
        for line in &lines {
            assert!(line.starts_with("{\"t\":"), "bad line: {line}");
            assert!(line.ends_with('}'), "bad line: {line}");
            assert!(line.contains("\"event\":\""), "bad line: {line}");
        }
        assert!(lines[0].contains("\"budget\":2.5"));
        assert!(lines[1].contains("\"budget\":null"));
        assert!(lines[3].contains("\"id\":7"));
        assert!(lines[3].contains("\"marginal_benefit\":3"));
        assert!(lines[3].contains("\"cost\":1.0"));
        assert!(lines[5].contains("\"reason\":\"cost_bound\""));
        assert!(lines[6].contains("\"count\":6"));
        assert!(lines[8].contains("\"count\":5"));
        assert!(lines[10].contains("\"seconds\":0.125"));
    }

    #[test]
    fn jsonl_sink_latches_write_errors() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::Other.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.on(&Event::HeapStalePop(1));
        assert!(sink.has_failed());
        sink.on(&Event::HeapStalePop(1)); // silently dropped, no panic
    }

    #[test]
    fn json_f64_forms() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn fanout_broadcasts() {
        let mut a = MetricsRecorder::new();
        let mut b = MetricsRecorder::new();
        {
            let mut fan = Fanout::new();
            fan.attach(&mut a).attach(&mut b);
            assert_eq!(fan.len(), 2);
            assert!(!fan.is_empty());
            fan.on(&Event::BenefitComputed(4));
            fan.on(&Event::SetSelected(0, 2, 1.0));
        }
        assert_eq!(a.benefits_computed, 4);
        assert_eq!(b.benefits_computed, 4);
        assert_eq!(a.selections, 1);
        assert_eq!(b.selections, 1);
    }

    #[test]
    fn noop_observer_accepts_everything() {
        let mut n = NoopObserver;
        n.on(&Event::GuessStarted(Some(1.0)));
        n.on(&Event::LevelEntered(0, 1));
        n.on(&Event::SetSelected(0, 0, 0.0));
        n.on(&Event::BenefitComputed(1));
        n.on(&Event::CandidatePruned(PruneReason::Exhausted, 1));
        n.on(&Event::SubtreePruned(PruneReason::CoverageBound, 1));
        n.on(&Event::PostingScanned(1));
        n.on(&Event::HeapStalePop(1));
        n.on(&Event::PhaseStarted("x"));
        n.on(&Event::PhaseEnded("x", 0.0));
    }

    #[test]
    fn phase_span_measures_nonnegative_time() {
        let mut m = MetricsRecorder::new();
        let span = PhaseSpan::enter(&mut m, PHASE_TOTAL);
        let secs = span.exit(&mut m);
        assert!(secs >= 0.0);
        assert!(m.phase_seconds(PHASE_TOTAL).is_some());
    }
}

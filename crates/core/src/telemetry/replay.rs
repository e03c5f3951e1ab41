//! Deterministic telemetry for parallel solvers: record-then-replay event
//! logs and shard-then-merge observer adapters.
//!
//! [`Observer`] is an `&mut` single-threaded interface, so parallel workers
//! cannot report to the caller's observer directly. Two adapters bridge the
//! gap (DESIGN.md §11):
//!
//! * [`EventLog`] — an [`Observer`] that records every event verbatim;
//!   [`EventLog::replay`] re-emits the stream into any other observer.
//!   Workers record privately and the caller replays the logs **in a
//!   deterministic order** (ascending guess index, ascending λ index, …),
//!   so the caller's observer sees a stream *identical* to a serial run —
//!   for any observer type, including order-sensitive ones like
//!   [`JsonlSink`](super::JsonlSink) and
//!   [`SpanProfiler`](super::SpanProfiler).
//! * [`ThreadLocalTelemetry`] — a fixed array of mutex-guarded [`EventLog`]
//!   shards, one per worker/chunk. Each worker locks only its own shard
//!   (no contention on the hot path); the caller replays shards in index
//!   order afterwards. Aggregating observers can equivalently merge via
//!   [`MetricsRecorder::merge`](super::MetricsRecorder::merge).

use super::trace::MAIN_WORKER;
use super::{Event, Observer, PruneReason};
use std::sync::{Mutex, MutexGuard};

/// An [`Observer`] that records the event stream for later replay.
///
/// Solvers record one event per candidate or pop on their hottest
/// paths, so a log can hold hundreds of thousands of events. Each is
/// kept in a 16-byte `Logged` record rather than as a 64-byte
/// [`Event`]: the per-candidate counter events inline, the rare larger
/// ones in a side list.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Logged>,
    others: Vec<Event<'static>>,
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Logged {
    BenefitComputed(u64),
    PostingScanned(u64),
    ScanPruned(u64),
    BoundRefreshed(u64),
    CandidatePruned(PruneReason),
    SubtreePruned(PruneReason),
    HeapStalePop,
    WorkerSwitched(u32),
    /// Index into [`EventLog::others`].
    Other(u32),
}

impl Logged {
    /// The inline record of a counter event; `None` for the others.
    /// Always inlined: at an emission site the event is a constant, so
    /// the match folds away.
    #[inline(always)]
    fn counter(event: &Event<'_>) -> Option<Logged> {
        Some(match *event {
            Event::BenefitComputed(count) => Logged::BenefitComputed(count),
            Event::PostingScanned(entries) => Logged::PostingScanned(entries),
            Event::ScanPruned(count) => Logged::ScanPruned(count),
            Event::BoundRefreshed(count) => Logged::BoundRefreshed(count),
            Event::CandidatePruned(reason) => Logged::CandidatePruned(reason),
            Event::SubtreePruned(reason) => Logged::SubtreePruned(reason),
            Event::HeapStalePop => Logged::HeapStalePop,
            Event::WorkerSwitched(worker) => Logged::WorkerSwitched(worker),
            _ => return None,
        })
    }

    fn replay<O: Observer + ?Sized>(self, others: &[Event<'static>], obs: &mut O) {
        match self {
            Logged::BenefitComputed(count) => obs.on(&Event::BenefitComputed(count)),
            Logged::PostingScanned(entries) => obs.on(&Event::PostingScanned(entries)),
            Logged::ScanPruned(count) => obs.on(&Event::ScanPruned(count)),
            Logged::BoundRefreshed(count) => obs.on(&Event::BoundRefreshed(count)),
            Logged::CandidatePruned(reason) => obs.on(&Event::CandidatePruned(reason)),
            Logged::SubtreePruned(reason) => obs.on(&Event::SubtreePruned(reason)),
            Logged::HeapStalePop => obs.on(&Event::HeapStalePop),
            Logged::WorkerSwitched(worker) => obs.on(&Event::WorkerSwitched(worker)),
            Logged::Other(i) => obs.on(&others[i as usize]),
        }
    }
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all recorded events, keeping capacity.
    pub fn clear(&mut self) {
        self.events.clear();
        self.others.clear();
    }

    /// Records a non-counter event in the side list. Out of line: it
    /// runs a few times per guess, while the counter path runs per
    /// candidate inside solver loops.
    #[cold]
    #[inline(never)]
    fn other(&mut self, event: &Event<'_>) -> Logged {
        self.others.push(event.to_static());
        Logged::Other(u32::try_from(self.others.len() - 1).expect("log index fits u32"))
    }

    /// Re-emits every recorded event, in recording order, into `obs`.
    pub fn replay<O: Observer + ?Sized>(&self, obs: &mut O) {
        for &event in &self.events {
            event.replay(&self.others, obs);
        }
    }
}

impl Observer for EventLog {
    #[inline]
    fn on(&mut self, event: &Event<'_>) {
        let logged = match Logged::counter(event) {
            Some(logged) => logged,
            None => self.other(event),
        };
        self.events.push(logged);
    }
}

/// Per-worker telemetry shards for one parallel region.
///
/// Create with one shard per worker/chunk, hand shard `i` to worker `i`
/// ([`shard`](ThreadLocalTelemetry::shard) locks only that shard, so
/// workers never contend), then [`replay`](ThreadLocalTelemetry::replay)
/// into the real observer once the region joins. Shards replay in index
/// order, which is deterministic for contiguous-chunk work splits.
#[derive(Debug, Default)]
pub struct ThreadLocalTelemetry {
    shards: Vec<Mutex<EventLog>>,
}

impl ThreadLocalTelemetry {
    /// `shards` independent event logs (one per worker/chunk).
    pub fn new(shards: usize) -> ThreadLocalTelemetry {
        ThreadLocalTelemetry {
            shards: (0..shards).map(|_| Mutex::new(EventLog::new())).collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether there are no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Locks shard `i` for recording. Each worker should touch only its
    /// own index; the lock exists to make cross-thread handoff safe, not
    /// to arbitrate contention.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the shard's lock was poisoned.
    pub fn shard(&self, i: usize) -> MutexGuard<'_, EventLog> {
        self.shards[i].lock().expect("telemetry shard poisoned")
    }

    /// Replays every shard into `obs` in ascending shard order, then
    /// clears the shards for reuse in the next parallel region.
    ///
    /// Each non-empty shard's events are bracketed with
    /// [`Event::WorkerSwitched`]: shard `i` announces worker `i + 1`
    /// before its events, and the replay announces
    /// [`MAIN_WORKER`] once at the end (only if any shard spoke), so the
    /// receiving observer knows *which thread recorded what* instead of
    /// seeing an anonymous flattened stream. Empty shards stay silent —
    /// a region that did no work leaves no trace in the stream.
    pub fn replay<O: Observer + ?Sized>(&self, obs: &mut O) {
        let mut switched = false;
        for (i, shard) in self.shards.iter().enumerate() {
            let mut log = shard.lock().expect("telemetry shard poisoned");
            if !log.is_empty() {
                obs.on(&Event::WorkerSwitched(i as u32 + 1));
                switched = true;
                log.replay(obs);
                log.clear();
            }
        }
        if switched {
            obs.on(&Event::WorkerSwitched(MAIN_WORKER));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{
        AuditCandidate, MetricsRecorder, PhaseSpan, PruneReason, SpanProfiler, PHASE_SCAN,
        PHASE_TOTAL,
    };
    use std::borrow::Cow;

    /// Fires one of every event into `obs`.
    fn drive<O: Observer + ?Sized>(obs: &mut O) {
        obs.on(&Event::GuessStarted(Some(2.0)));
        obs.on(&Event::LevelEntered(0, 4));
        obs.on(&Event::PhaseStarted(PHASE_TOTAL));
        obs.on(&Event::BenefitComputed(9));
        obs.on(&Event::CandidatePruned(PruneReason::BelowFloor));
        obs.on(&Event::SubtreePruned(PruneReason::CostBound));
        obs.on(&Event::PostingScanned(17));
        obs.on(&Event::HeapStalePop);
        let winner = AuditCandidate {
            id: 3,
            benefit: 5,
            weight: 1.5,
        };
        let runner = AuditCandidate {
            id: 1,
            benefit: 2,
            weight: 1.0,
        };
        obs.on(&Event::RoundDecided(
            "gain",
            winner,
            Cow::Borrowed(&[runner]),
        ));
        obs.on(&Event::SetSelected(3, 5, 1.5));
        obs.on(&Event::PriceCharged(3, Cow::Borrowed(&[0, 4, 7]), 1.5));
        obs.on(&Event::DegradeDecided("tick_budget", 3, 9));
        obs.on(&Event::Speculation(2, 1));
        obs.on(&Event::GuessRetried);
        obs.on(&Event::PhaseEnded(PHASE_TOTAL, 0.5));
    }

    #[test]
    fn replay_reproduces_metrics_exactly() {
        let mut log = EventLog::new();
        drive(&mut log);
        assert_eq!(log.len(), 15);

        let mut direct = MetricsRecorder::new();
        drive(&mut direct);
        let mut replayed = MetricsRecorder::new();
        log.replay(&mut replayed);

        assert_eq!(replayed.guesses, direct.guesses);
        assert_eq!(replayed.selections, direct.selections);
        assert_eq!(replayed.benefits_computed, direct.benefits_computed);
        assert_eq!(replayed.candidates_pruned, direct.candidates_pruned);
        assert_eq!(replayed.subtrees_pruned, direct.subtrees_pruned);
        assert_eq!(replayed.postings_scanned, direct.postings_scanned);
        assert_eq!(replayed.heap_stale_pops, direct.heap_stale_pops);
        assert_eq!(replayed.guesses_committed, direct.guesses_committed);
        assert_eq!(replayed.guesses_wasted, direct.guesses_wasted);
        assert_eq!(replayed.guesses_retried, direct.guesses_retried);
        assert_eq!(replayed.rounds_audited, direct.rounds_audited);
        assert_eq!(replayed.marginal_benefit_hist, direct.marginal_benefit_hist);
        assert_eq!(replayed.phases(), direct.phases());
    }

    #[test]
    fn replay_reproduces_audit_ledger_exactly() {
        use crate::telemetry::audit::DecisionLedger;
        let mut log = EventLog::new();
        drive(&mut log);
        let mut direct = DecisionLedger::new();
        drive(&mut direct);
        let mut replayed = DecisionLedger::new();
        log.replay(&mut replayed);
        assert_eq!(direct.guesses(), replayed.guesses());
        assert_eq!(direct.prices(), replayed.prices());
    }

    #[test]
    fn replay_preserves_event_order_for_span_nesting() {
        // A log with nested spans must reconstruct the same tree when
        // replayed into a profiler as when observed live.
        let mut log = EventLog::new();
        log.on(&Event::PhaseStarted("outer"));
        log.on(&Event::PhaseStarted("inner"));
        log.on(&Event::BenefitComputed(4));
        log.on(&Event::PhaseEnded("inner", 0.25));
        log.on(&Event::PhaseEnded("outer", 1.0));

        let mut p = SpanProfiler::new();
        log.replay(&mut p);
        let tree = p.tree();
        assert_eq!(tree.name, "outer");
        let inner = tree.child("inner").expect("nesting preserved");
        assert_eq!(inner.counters.benefits_computed, 4);
        assert_eq!(inner.total_secs, 0.25);
    }

    #[test]
    fn recorded_events_take_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Logged>(), 16);
    }

    #[test]
    fn clear_empties_the_log() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.on(&Event::HeapStalePop);
        assert!(!log.is_empty());
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn thread_local_telemetry_replays_shards_in_index_order() {
        let tls = ThreadLocalTelemetry::new(3);
        assert_eq!(tls.len(), 3);
        // Record out of index order — replay must still be 0, 1, 2.
        tls.shard(2).on(&Event::BenefitComputed(300));
        tls.shard(0).on(&Event::BenefitComputed(100));
        tls.shard(1).on(&Event::BenefitComputed(200));

        let mut log = EventLog::new();
        tls.replay(&mut log);
        assert_eq!(
            log.events,
            vec![
                Logged::WorkerSwitched(1),
                Logged::BenefitComputed(100),
                Logged::WorkerSwitched(2),
                Logged::BenefitComputed(200),
                Logged::WorkerSwitched(3),
                Logged::BenefitComputed(300),
                Logged::WorkerSwitched(MAIN_WORKER),
            ]
        );
        // Shards are cleared for the next region.
        let mut again = EventLog::new();
        tls.replay(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn replay_skips_empty_shards_and_restores_main_worker() {
        // Only shard 1 records: the stream is switch(2), events, switch(0);
        // idle shards 0 and 2 leave no worker announcements behind.
        let tls = ThreadLocalTelemetry::new(3);
        tls.shard(1).on(&Event::BenefitComputed(7));
        let mut log = EventLog::new();
        tls.replay(&mut log);
        assert_eq!(
            log.events,
            vec![
                Logged::WorkerSwitched(2),
                Logged::BenefitComputed(7),
                Logged::WorkerSwitched(MAIN_WORKER),
            ]
        );
        // An all-idle region emits nothing at all — not even switches.
        let mut silent = EventLog::new();
        tls.replay(&mut silent);
        assert!(silent.is_empty());
    }

    #[test]
    fn replay_reproduces_trace_events() {
        let mut log = EventLog::new();
        let id = crate::telemetry::TraceId::mint("cmc", 10, 20);
        log.on(&Event::TraceStarted(id, "cmc"));
        log.on(&Event::WorkerSwitched(3));
        let mut m = MetricsRecorder::new();
        log.replay(&mut m);
        assert_eq!(m.traces_started, 1);
        assert_eq!(m.worker_switches, 1);
    }

    #[test]
    fn replay_reproduces_pruned_scan_advisories() {
        let mut log = EventLog::new();
        log.on(&Event::ScanPruned(11));
        log.on(&Event::BoundRefreshed(5));
        log.on(&Event::ScanPruned(4));
        let mut m = MetricsRecorder::new();
        log.replay(&mut m);
        assert_eq!(m.scan_candidates_pruned, 15);
        assert_eq!(m.scan_bounds_refreshed, 5);
    }

    #[test]
    fn thread_local_telemetry_shards_record_spans_concurrently() {
        let tls = ThreadLocalTelemetry::new(4);
        std::thread::scope(|s| {
            for i in 0..4 {
                let tls = &tls;
                s.spawn(move || {
                    let mut shard = tls.shard(i);
                    let span = PhaseSpan::enter(&mut *shard, PHASE_SCAN);
                    shard.on(&Event::BenefitComputed(i as u64 + 1));
                    span.exit(&mut *shard);
                });
            }
        });
        let mut m = MetricsRecorder::new();
        tls.replay(&mut m);
        assert_eq!(m.benefits_computed, 1 + 2 + 3 + 4);
        let scan = m.phases().iter().find(|p| p.name == PHASE_SCAN).unwrap();
        assert_eq!(scan.count, 4, "one scan span per shard");
    }
}

//! Record-then-replay event logs.
//!
//! [`EventLog`] is an [`Observer`] that records every event verbatim, and
//! [`EventLog::replay`] re-emits the stream into any other observer. The
//! CMC solvers record each budget guess into a log and replay it once the
//! guess ends, so the events of a guess that panicked and is retried are
//! discarded: the caller's observer sees the stream of a fault-free run,
//! for any observer type, including order-sensitive ones like
//! [`JsonlSink`](super::JsonlSink) and
//! [`SpanProfiler`](super::SpanProfiler).

use super::{Event, Observer, PruneReason};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{
        AuditCandidate, MetricsRecorder, PruneReason, SpanProfiler, PHASE_TOTAL,
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
        obs.on(&Event::GuessRetried);
        obs.on(&Event::PhaseEnded(PHASE_TOTAL, 0.5));
    }

    #[test]
    fn replay_reproduces_metrics_exactly() {
        let mut log = EventLog::new();
        drive(&mut log);
        assert_eq!(log.len(), 14);

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
    fn replay_reproduces_trace_events() {
        let mut log = EventLog::new();
        let id = crate::telemetry::TraceId::mint("cmc", 10, 20);
        log.on(&Event::TraceStarted(id, "cmc"));
        let mut m = MetricsRecorder::new();
        log.replay(&mut m);
        assert_eq!(m.traces_started, 1);
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
}

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

use super::{Event, Observer};

/// An [`Observer`] that records the event stream for later replay.
///
/// The solvers report their per-candidate work as per-guess totals, so a
/// guess's log holds a few events per cost level and per selection.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event<'static>>,
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
    }

    /// Re-emits every recorded event, in recording order, into `obs`.
    pub fn replay<O: Observer + ?Sized>(&self, obs: &mut O) {
        for event in &self.events {
            obs.on(event);
        }
    }
}

impl Observer for EventLog {
    fn on(&mut self, event: &Event<'_>) {
        self.events.push(event.to_static());
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
        obs.on(&Event::CandidatePruned(PruneReason::BelowFloor, 2));
        obs.on(&Event::SubtreePruned(PruneReason::CostBound, 3));
        obs.on(&Event::PostingScanned(17));
        obs.on(&Event::HeapStalePop(4));
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
    fn clear_empties_the_log() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.on(&Event::HeapStalePop(1));
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

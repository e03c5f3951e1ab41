//! Flight recorder: a fixed-capacity ring buffer of recent *enriched*
//! events plus an incrementally maintained span tree — the black box
//! that gives every bad outcome a self-contained post-mortem artifact
//! (DESIGN.md §13).
//!
//! A [`FlightRecorder`] is an [`Observer`] front-end over shared state
//! (`Arc` inside), so it can be cloned: one clone rides in the solve's
//! observer stack while the caller keeps another to
//! [`write_dump`](FlightRecorder::write_dump) *after* a panic or deadline
//! degrade — the recorded history survives the unwinding because it lives
//! behind the `Arc`, not in the poisoned stack frame.
//!
//! Two kinds of state are kept, behind one mutex:
//!
//! * **The ring** — the last `capacity` events, each stamped with a
//!   sequence number, the recorder's monotonic clock, and its
//!   [`TraceContext`] (trace id, innermost span, parent span). When the
//!   ring fills, its oldest event is dropped and counted — a flight
//!   recorder by design remembers *what happened just before*, not
//!   everything.
//! * **The causal tree** — a [`SpanProfiler`] folds every event into its
//!   [`SpanNode`] tree as it arrives (bounded by the number of distinct
//!   span paths, not the event count), so the tree in the dump is complete
//!   even when the ring has wrapped.
//!
//! A ring event's span id is the profiler's innermost open node and its
//! parent id the node below it on the stack; both are arena indices in
//! creation order, so they name nodes of the dumped tree. Every solve
//! runs on the calling thread (DESIGN.md §11), so the event stream's
//! order, and with it the ids, are reproducible run-to-run for a
//! tick-deterministic solve.
//!
//! The dump format is line-oriented and *every* line is one valid JSON
//! object: a header, one line per buffered event, and a trailing
//! `{"causal_tree": …}` object — trivially greppable, trivially parseable.

use super::spans::{SpanNode, SpanProfiler};
use super::trace::{TraceContext, TraceId};
use super::{json_f64, Event, Observer};
use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Default ring capacity in events.
const DEFAULT_CAPACITY: usize = 512;

/// One enriched event as stored in the ring.
#[derive(Debug, Clone)]
struct FlightEvent {
    seq: u64,
    t: f64,
    ctx: TraceContext,
    event: Event<'static>,
}

impl FlightEvent {
    fn to_json(&self) -> String {
        let mut line = format!(
            "{{\"seq\":{},\"t\":{},\"trace\":\"{}\",\"span\":{},\"parent\":{},\"event\":\"{}\"",
            self.seq,
            json_f64(self.t),
            self.ctx.trace_id,
            self.ctx.span_id,
            self.ctx.parent_span_id,
            self.event.name(),
        );
        self.event.write_fields(&mut line);
        line.push('}');
        line
    }
}

/// The ring and the causal tree, kept under one lock so every event's
/// sequence number follows its causal order.
#[derive(Debug)]
struct Recording {
    spans: SpanProfiler,
    /// The first minted trace id and its entry point (unset/empty until a
    /// trace starts).
    trace_id: TraceId,
    entry: &'static str,
    ring: VecDeque<FlightEvent>,
    dropped: u64,
}

#[derive(Debug)]
struct Inner {
    capacity: usize,
    start: Instant,
    recording: Mutex<Recording>,
}

/// The flight recorder: a cloneable [`Observer`] over shared ring + causal
/// state. See the module docs for the recording model and dump format.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default event capacity.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `capacity` recent events (minimum one).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(Inner {
                capacity: capacity.max(1),
                start: Instant::now(),
                recording: Mutex::new(Recording {
                    spans: SpanProfiler::new(),
                    trace_id: TraceId::default(),
                    entry: "",
                    ring: VecDeque::new(),
                    dropped: 0,
                }),
            }),
        }
    }

    /// Maximum events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.recording().ring.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.recording().dropped
    }

    /// The latched trace id (the first [`Event::TraceStarted`] seen;
    /// unset when no solve has announced itself yet).
    pub fn trace_id(&self) -> TraceId {
        self.recording().trace_id
    }

    /// The latched entry-point name (empty until a trace starts).
    pub fn entry(&self) -> &'static str {
        self.recording().entry
    }

    /// The span tree folded so far. Complete even when the event ring has
    /// wrapped — the tree is maintained incrementally, not derived from
    /// the buffered window.
    pub fn causal_tree(&self) -> SpanNode {
        self.recording().spans.tree()
    }

    fn recording(&self) -> MutexGuard<'_, Recording> {
        self.inner
            .recording
            .lock()
            .expect("flight recording poisoned")
    }

    /// Writes the dump: a JSON header line, every buffered event (in
    /// sequence order) as one JSON line, and a final `{"causal_tree": …}`
    /// line. Every line is a valid JSON object.
    pub fn write_dump<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let (tree, trace_id, entry, events, dropped) = {
            let rec = self.recording();
            let events: Vec<FlightEvent> = rec.ring.iter().cloned().collect();
            (
                rec.spans.tree(),
                rec.trace_id,
                rec.entry,
                events,
                rec.dropped,
            )
        };
        writeln!(
            w,
            "{{\"flight\":\"scwsc\",\"version\":3,\"trace_id\":\"{trace_id}\",\"entry\":\"{entry}\",\"buffered\":{},\"dropped\":{dropped},\"capacity\":{}}}",
            events.len(),
            self.capacity()
        )?;
        for e in &events {
            writeln!(w, "{}", e.to_json())?;
        }
        writeln!(w, "{{\"causal_tree\":{}}}", tree.to_json())?;
        w.flush()
    }

    /// [`write_dump`](FlightRecorder::write_dump) to a file path.
    pub fn dump_to_path(&self, path: &std::path::Path) -> io::Result<()> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_dump(&mut file)
    }
}

impl Observer for FlightRecorder {
    fn on(&mut self, event: &Event<'_>) {
        // The ring keeps 13 of the 18 kinds: audit, degrade and advisory
        // scan events stay out, so a served solve copies no element lists.
        if matches!(
            event,
            Event::RoundDecided(..)
                | Event::PriceCharged(..)
                | Event::DegradeDecided(..)
                | Event::ScanPruned(_)
                | Event::BoundRefreshed(_)
        ) {
            return;
        }
        // Stamp the event with the current causal context and push it
        // into the ring, evicting the oldest event when full.
        let t = self.inner.start.elapsed().as_secs_f64();
        let mut rec = self.recording();
        // Latch the first mint: nested solves (a sweep's inner rounds)
        // announce their own ids, but the flight belongs to the outermost.
        if let Event::TraceStarted(trace_id, entry) = *event {
            if rec.trace_id.is_unset() {
                rec.trace_id = trace_id;
                rec.entry = entry;
            }
        }
        // A phase end is stamped with the span it closes; every other
        // event with the stack as the profiler leaves it.
        let (span_id, parent_span_id) = if let Event::PhaseEnded(..) = event {
            let stamp = rec.spans.stamp();
            rec.spans.on(event);
            stamp
        } else {
            rec.spans.on(event);
            rec.spans.stamp()
        };
        let ctx = TraceContext {
            trace_id: rec.trace_id,
            span_id,
            parent_span_id,
        };
        // Every event ever recorded is either buffered or dropped.
        let seq = rec.dropped + rec.ring.len() as u64;
        if rec.ring.len() == self.inner.capacity {
            rec.ring.pop_front();
            rec.dropped += 1;
        }
        rec.ring.push_back(FlightEvent {
            seq,
            t,
            ctx,
            event: event.to_static(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{PHASE_GUESS, PHASE_SCAN_PRUNE, PHASE_TOTAL};

    /// Drives a little run through a recorder: a total>guess nest with a
    /// pruned-scan span inside.
    fn recorded() -> FlightRecorder {
        let mut r = FlightRecorder::new();
        r.on(&Event::TraceStarted(TraceId::mint("cmc", 100, 7), "cmc"));
        r.on(&Event::PhaseStarted(PHASE_TOTAL));
        r.on(&Event::PhaseStarted(PHASE_GUESS));
        r.on(&Event::BenefitComputed(10));
        r.on(&Event::PhaseStarted(PHASE_SCAN_PRUNE));
        r.on(&Event::BenefitComputed(4));
        r.on(&Event::PhaseEnded(PHASE_SCAN_PRUNE, 0.005));
        r.on(&Event::SetSelected(3, 5, 1.0));
        r.on(&Event::PhaseEnded(PHASE_GUESS, 0.5));
        r.on(&Event::PhaseEnded(PHASE_TOTAL, 0.6));
        r
    }

    #[test]
    fn causal_tree_nests_spans_with_creation_ordered_ids() {
        let tree = recorded().causal_tree();
        assert_eq!(tree.name, PHASE_TOTAL);
        let guess = tree.child(PHASE_GUESS).expect("guess under total");
        let prune = guess
            .child(PHASE_SCAN_PRUNE)
            .expect("scan_prune under guess");
        assert_eq!(prune.count, 1);
        assert_eq!(prune.counters.benefits_computed, 4);
        assert_eq!(guess.counters.benefits_computed, 10);
        assert_eq!(guess.counters.selections, 1);
        assert_eq!((tree.id, guess.id, prune.id), (1, 2, 3));
    }

    #[test]
    fn events_are_stamped_with_their_span_and_parent() {
        let r = recorded();
        let stamps: Vec<(u64, u64)> = r
            .recording()
            .ring
            .iter()
            .map(|e| (e.ctx.span_id, e.ctx.parent_span_id))
            .collect();
        assert_eq!(
            stamps,
            [
                (0, 0), // trace_started, before any span
                (1, 0), // phase_started(total): the span it opens
                (2, 1),
                (2, 1),
                (3, 2),
                (3, 2),
                (3, 2), // phase_ended(scan_prune): the span it closes
                (2, 1), // set_selected, back in guess
                (2, 1),
                (1, 0),
            ]
        );
    }

    #[test]
    fn trace_id_latches_first_mint() {
        let mut r = FlightRecorder::new();
        let first = TraceId::mint("pareto_sweep", 50, 3);
        r.on(&Event::TraceStarted(first, "pareto_sweep"));
        r.on(&Event::TraceStarted(TraceId::mint("cwsc", 50, 3), "cwsc")); // nested solve
        assert_eq!(r.trace_id(), first);
        assert_eq!(r.entry(), "pareto_sweep");
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut r = FlightRecorder::with_capacity(8);
        assert_eq!(r.capacity(), 8);
        assert!(r.is_empty());
        for i in 0..13 {
            r.on(&Event::BenefitComputed(i));
        }
        assert_eq!(r.len(), 8, "a serial stream fills the whole ring");
        assert_eq!(r.dropped(), 5);
    }

    #[test]
    fn dump_is_all_json_lines_with_header_and_tree() {
        let r = recorded();
        let mut buf = Vec::new();
        r.write_dump(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "{text}");
        for line in &lines {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not a JSON object: {line}"
            );
        }
        assert!(
            lines[0].contains("\"flight\":\"scwsc\",\"version\":3"),
            "{text}"
        );
        assert!(lines[0].contains("\"entry\":\"cmc\""), "{text}");
        assert_eq!(
            lines.last().unwrap(),
            &format!("{{\"causal_tree\":{}}}", r.causal_tree().to_json())
        );
        // Events carry their causal coordinates and appear in seq order.
        let seqs: Vec<u64> = lines[1..lines.len() - 1]
            .iter()
            .map(|l| {
                let start = l.find("\"seq\":").unwrap() + 6;
                l[start..l[start..].find(',').unwrap() + start]
                    .parse()
                    .unwrap()
            })
            .collect();
        let expected: Vec<u64> = (0..seqs.len() as u64).collect();
        assert_eq!(seqs, expected, "events in sequence order");
    }

    #[test]
    fn clones_share_the_recording() {
        let mut writer = FlightRecorder::new();
        let reader = writer.clone();
        writer.on(&Event::TraceStarted(TraceId::mint("cwsc", 1, 2), "cwsc"));
        writer.on(&Event::PhaseStarted(PHASE_TOTAL));
        writer.on(&Event::BenefitComputed(1));
        writer.on(&Event::PhaseEnded(PHASE_TOTAL, 0.1));
        assert_eq!(reader.trace_id(), TraceId::mint("cwsc", 1, 2));
        assert_eq!(reader.causal_tree().name, PHASE_TOTAL);
        assert_eq!(reader.len(), writer.len());
    }
}

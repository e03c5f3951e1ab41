//! Flight recorder: a fixed-capacity ring buffer of recent *enriched*
//! events plus an incrementally maintained causal span tree — the black
//! box that gives every bad outcome a self-contained post-mortem artifact
//! (DESIGN.md §13).
//!
//! A [`FlightRecorder`] is an [`Observer`] front-end over shared state
//! (`Arc` inside), so it can be cloned: one clone rides in the solve's
//! observer stack (possibly on the engine's isolated solve thread) while
//! the caller keeps another to [`write_dump`](FlightRecorder::write_dump)
//! *after* a panic or deadline degrade — the recorded history survives the
//! unwinding because it lives behind the `Arc`, not in the poisoned stack
//! frame.
//!
//! Two kinds of state are kept, behind one mutex:
//!
//! * **The ring** — the last `capacity` events, each stamped with a
//!   sequence number, the recorder's monotonic clock, and its
//!   [`TraceContext`] (trace id, innermost span, parent span). When the
//!   ring fills, its oldest event is dropped and counted — a flight
//!   recorder by design remembers *what happened just before*, not
//!   everything.
//! * **The causal tree** — span open/close events are folded into a
//!   [`CausalNode`] tree as they arrive (bounded by the number of distinct
//!   span paths, not the event count), so the tree in the dump is complete
//!   even when the ring has wrapped.
//!
//! Span ids are assigned in arrival order. Every solve runs on the
//! calling thread (DESIGN.md §11), so the event stream's order, and with
//! it the ids, are reproducible run-to-run for a tick-deterministic
//! solve.
//!
//! The dump format is line-oriented and *every* line is one valid JSON
//! object: a header, one line per buffered event, and a trailing
//! `{"causal_tree": …}` object — trivially greppable, trivially parseable.

use super::trace::{TraceContext, TraceId};
use super::{json_f64, Event, Observer, PHASE_SCAN_PRUNE};
use std::collections::VecDeque;
use std::fmt::Write as _;
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

/// Arena node of the incrementally built causal tree.
#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    span_id: u64,
    parent_span_id: u64,
    count: u64,
    events: u64,
    secs: f64,
    children: Vec<usize>,
}

/// Mutable causal-tracking state, updated on structural events only.
#[derive(Debug)]
struct CausalState {
    trace_id: TraceId,
    entry: &'static str,
    nodes: Vec<Node>,
    /// Open spans, outermost first (arena indices).
    stack: Vec<usize>,
    next_span_id: u64,
}

impl CausalState {
    fn new() -> CausalState {
        CausalState {
            trace_id: TraceId::default(),
            entry: "",
            nodes: vec![Node {
                name: "(run)",
                span_id: 0,
                parent_span_id: 0,
                count: 0,
                events: 0,
                secs: 0.0,
                children: Vec::new(),
            }],
            stack: Vec::new(),
            next_span_id: 1,
        }
    }

    /// Arena index of the innermost open span, else the synthetic root.
    fn top(&self) -> usize {
        *self.stack.last().unwrap_or(&0)
    }

    /// The causal coordinates an arriving event carries.
    fn context(&self) -> TraceContext {
        let node = &self.nodes[self.top()];
        TraceContext {
            trace_id: self.trace_id,
            span_id: node.span_id,
            parent_span_id: node.parent_span_id,
        }
    }

    /// Child of `parent` named `name` (spans aggregate by name along the
    /// parent path, like [`SpanProfiler`](super::SpanProfiler)), created
    /// on first sight with a fresh arrival-ordered span id.
    fn child_idx(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&idx) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return idx;
        }
        let span_id = self.next_span_id;
        self.next_span_id += 1;
        let idx = self.nodes.len();
        let parent_span_id = self.nodes[parent].span_id;
        self.nodes.push(Node {
            name,
            span_id,
            parent_span_id,
            count: 0,
            events: 0,
            secs: 0.0,
            children: Vec::new(),
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    /// Folds one event into the causal state and returns the context the
    /// event is stamped with.
    fn apply(&mut self, event: &Event<'_>) -> TraceContext {
        match *event {
            // Latch the first mint: nested solves (a sweep's inner rounds)
            // announce their own ids, but the flight belongs to the outermost.
            Event::TraceStarted(trace_id, entry) if self.trace_id.is_unset() => {
                self.trace_id = trace_id;
                self.entry = entry;
            }
            Event::PhaseStarted(name) => {
                let idx = self.child_idx(self.top(), name);
                self.stack.push(idx);
            }
            Event::PhaseEnded(name, seconds) => {
                // Stamp the event with the span being closed, then close it.
                let ctx = self.context();
                // Innermost open span with this name; spans opened after it
                // never got their own end, so close them silently (profiler
                // semantics).
                if let Some(pos) = self.stack.iter().rposition(|&i| self.nodes[i].name == name) {
                    self.stack.truncate(pos + 1);
                    let idx = self.stack.pop().expect("pos is in range");
                    self.nodes[idx].count += 1;
                    self.nodes[idx].secs += seconds;
                }
                return ctx;
            }
            _ if event.is_deterministic_work() => {
                let idx = self.top();
                self.nodes[idx].events += 1;
            }
            _ => {}
        }
        self.context()
    }

    fn assemble(&self, idx: usize) -> CausalNode {
        let n = &self.nodes[idx];
        CausalNode {
            name: n.name,
            span_id: n.span_id,
            parent_span_id: n.parent_span_id,
            count: n.count,
            events: n.events,
            secs: n.secs,
            children: n.children.iter().map(|&c| self.assemble(c)).collect(),
        }
    }

    /// The causal tree so far: the single top-level span when the run is
    /// that simple, otherwise the synthetic `(run)` root.
    fn tree(&self) -> CausalNode {
        let mut root = self.assemble(0);
        root.secs = root.children.iter().map(|c| c.secs).sum();
        if root.children.len() == 1 && root.events == 0 {
            root.children.pop().expect("one child")
        } else {
            root
        }
    }
}

/// One aggregated node of the reconstructed causal tree: all spans with
/// this name under the same parent path, annotated with the span id
/// assigned at first arrival and the deterministic-work events attributed
/// while it was innermost.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalNode {
    /// Span name ([`PHASE_TOTAL`](super::PHASE_TOTAL), …); `(run)` for the
    /// synthetic root.
    pub name: &'static str,
    /// Arrival-ordered span id (0 for the synthetic root).
    pub span_id: u64,
    /// The parent span's id (0 = root).
    pub parent_span_id: u64,
    /// Completed spans aggregated into this node.
    pub count: u64,
    /// Deterministic work events attributed to this node (see
    /// DESIGN.md §13 for the counted subset).
    pub events: u64,
    /// Total wall-clock seconds across completions.
    pub secs: f64,
    /// Child spans in first-seen order.
    pub children: Vec<CausalNode>,
}

impl CausalNode {
    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&CausalNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Total deterministic-work events in this subtree.
    pub fn events_total(&self) -> u64 {
        self.events + self.children.iter().map(|c| c.events_total()).sum::<u64>()
    }

    /// The run-invariant shape of this tree, for comparing two runs of
    /// one solve: [`PHASE_SCAN_PRUNE`] spans fold into their parent (they
    /// come and go with `SCWSC_PRUNE`), span ids are zeroed (assignment
    /// order differs when those spans consume ids), and timings are
    /// dropped. What remains — span names, nesting, counts, and
    /// deterministic event tallies — must be identical for two runs of
    /// one solve under the same tick budget.
    pub fn normalized(&self) -> CausalNode {
        let mut events = self.events;
        let mut children = Vec::new();
        for c in &self.children {
            let n = c.normalized();
            if n.name == PHASE_SCAN_PRUNE {
                // Fold: the unpruned run does the same work without it.
                events += n.events;
                children.extend(n.children);
            } else {
                children.push(n);
            }
        }
        CausalNode {
            name: self.name,
            span_id: 0,
            parent_span_id: 0,
            count: self.count,
            events,
            secs: 0.0,
            children,
        }
    }

    /// One JSON object (no trailing newline) describing this subtree.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"span\":{},\"parent\":{},\"count\":{},\"events\":{},\"secs\":{},\"children\":[",
            self.name,
            self.span_id,
            self.parent_span_id,
            self.count,
            self.events,
            json_f64(self.secs)
        );
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.write_json(out);
        }
        out.push_str("]}");
    }

    /// Indented text rendering (one line per node) for human post-mortems.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        let _ = writeln!(
            out,
            "{indent}{} [span {} < {}]  ×{}  events={}  {:.6}s",
            self.name, self.span_id, self.parent_span_id, self.count, self.events, self.secs,
        );
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// The ring and the causal tree, kept under one lock so every event's
/// sequence number follows its causal order.
#[derive(Debug)]
struct Recording {
    causal: CausalState,
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
                    causal: CausalState::new(),
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
        self.recording().causal.trace_id
    }

    /// The latched entry-point name (empty until a trace starts).
    pub fn entry(&self) -> &'static str {
        self.recording().causal.entry
    }

    /// The causal span tree reconstructed so far. Complete even when the
    /// event ring has wrapped — the tree is maintained incrementally, not
    /// derived from the buffered window.
    pub fn causal_tree(&self) -> CausalNode {
        self.recording().causal.tree()
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
                rec.causal.tree(),
                rec.causal.trace_id,
                rec.causal.entry,
                events,
                rec.dropped,
            )
        };
        writeln!(
            w,
            "{{\"flight\":\"scwsc\",\"version\":2,\"trace_id\":\"{trace_id}\",\"entry\":\"{entry}\",\"buffered\":{},\"dropped\":{dropped},\"capacity\":{}}}",
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
        let ctx = rec.causal.apply(event);
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
    use crate::telemetry::{PHASE_GUESS, PHASE_TOTAL};

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
    fn causal_tree_nests_spans_with_arrival_ordered_ids() {
        let tree = recorded().causal_tree();
        assert_eq!(tree.name, PHASE_TOTAL);
        let guess = tree.child(PHASE_GUESS).expect("guess under total");
        let prune = guess
            .child(PHASE_SCAN_PRUNE)
            .expect("scan_prune under guess");
        assert_eq!(prune.count, 1);
        assert_eq!(prune.events, 1);
        assert_eq!(guess.events, 2, "benefit_computed(10) + set_selected");
        assert_eq!(tree.span_id, 1);
        assert_eq!(guess.parent_span_id, tree.span_id);
        assert_eq!(prune.parent_span_id, guess.span_id);
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
    fn normalized_folds_scan_prune_and_strips_volatile_fields() {
        let pruned = recorded().causal_tree().normalized();
        // The unpruned twin: same work, no scan_prune span.
        let mut unpruned = FlightRecorder::new();
        unpruned.on(&Event::TraceStarted(TraceId::mint("cmc", 100, 7), "cmc"));
        unpruned.on(&Event::PhaseStarted(PHASE_TOTAL));
        unpruned.on(&Event::PhaseStarted(PHASE_GUESS));
        unpruned.on(&Event::BenefitComputed(10));
        unpruned.on(&Event::BenefitComputed(4));
        unpruned.on(&Event::SetSelected(3, 5, 1.0));
        unpruned.on(&Event::PhaseEnded(PHASE_GUESS, 0.4));
        unpruned.on(&Event::PhaseEnded(PHASE_TOTAL, 0.45));
        let expected = unpruned.causal_tree().normalized();
        assert_eq!(pruned, expected);
        assert_eq!(pruned.secs, 0.0);
        assert_eq!(pruned.span_id, 0);
        assert_eq!(pruned.events_total(), 3, "all three work events kept");
        assert!(
            pruned.child(PHASE_GUESS).unwrap().children.is_empty(),
            "no scan_prune child survives"
        );
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
            lines[0].contains("\"flight\":\"scwsc\",\"version\":2"),
            "{text}"
        );
        assert!(lines[0].contains("\"entry\":\"cmc\""), "{text}");
        assert!(lines.last().unwrap().contains("\"causal_tree\":"), "{text}");
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

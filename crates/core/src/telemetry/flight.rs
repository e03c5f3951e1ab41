//! Flight recorder: a fixed-capacity, lock-sharded ring buffer of recent
//! *enriched* events plus an incrementally maintained causal span tree —
//! the black box that gives every bad outcome a self-contained post-mortem
//! artifact (DESIGN.md §13).
//!
//! A [`FlightRecorder`] is an [`Observer`] front-end over shared state
//! (`Arc` inside), so it can be cloned: one clone rides in the solve's
//! observer stack (possibly on the engine's isolated solve thread) while
//! the caller keeps another to [`write_dump`](FlightRecorder::write_dump)
//! *after* a panic or deadline degrade — the recorded history survives the
//! unwinding because it lives behind the `Arc`, not in the poisoned stack
//! frame.
//!
//! Two kinds of state are kept:
//!
//! * **The ring** — the last `capacity` events, each stamped with a global
//!   sequence number, the recorder's monotonic clock, and its
//!   [`TraceContext`] (trace id, innermost span, parent span, worker).
//!   Rings are sharded by recording worker and each shard is its own
//!   mutex, so concurrent recorders contend only within a worker. When a
//!   shard fills, its oldest event is dropped and counted — a flight
//!   recorder by design remembers *what happened just before*, not
//!   everything.
//! * **The causal tree** — span open/close and worker-switch events are
//!   folded into a [`CausalNode`] tree as they arrive (bounded by the
//!   number of distinct span paths, not the event count), so the tree in
//!   the dump is complete even when the ring has wrapped. Worker subtrees
//!   attach under the span that was innermost on the main thread when the
//!   stream switched workers — the fork point — which is what turns PR 3's
//!   flattened shard replay back into *which thread's work caused what*.
//!
//! Span ids are assigned in arrival order. The event stream's replay order
//! is deterministic (ascending shard order; see
//! [`ThreadLocalTelemetry::replay`](super::ThreadLocalTelemetry::replay)),
//! so ids are reproducible run-to-run for a tick-deterministic solve.
//!
//! The dump format is line-oriented and *every* line is one valid JSON
//! object: a header, one line per buffered event, and a trailing
//! `{"causal_tree": …}` object — trivially greppable, trivially parseable.

use super::trace::{TraceContext, TraceId, MAIN_WORKER};
use super::{json_f64, Event, Observer, PHASE_SCAN, PHASE_SCAN_PRUNE};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Ring shards; the recording worker id picks the shard, so workers
/// contend only with themselves (and with whoever holds the same id).
const SHARDS: usize = 8;

/// Default total event capacity across all shards.
const DEFAULT_CAPACITY: usize = 4096;

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
            "{{\"seq\":{},\"t\":{},\"trace\":\"{}\",\"span\":{},\"parent\":{},\"worker\":{},\"event\":\"{}\"",
            self.seq,
            json_f64(self.t),
            self.ctx.trace_id,
            self.ctx.span_id,
            self.ctx.parent_span_id,
            self.ctx.worker_id,
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
    worker_id: u32,
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
    /// Open spans of the main thread, outermost first (arena indices).
    main_stack: Vec<usize>,
    /// Open spans of the currently replaying worker block.
    aux_stack: Vec<usize>,
    current_worker: u32,
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
                worker_id: MAIN_WORKER,
                count: 0,
                events: 0,
                secs: 0.0,
                children: Vec::new(),
            }],
            main_stack: Vec::new(),
            aux_stack: Vec::new(),
            current_worker: MAIN_WORKER,
            next_span_id: 1,
        }
    }

    fn on_main(&self) -> bool {
        self.current_worker == MAIN_WORKER
    }

    /// Arena index of the innermost open span for the current worker: its
    /// own open spans first, then the main thread's (the fork point for a
    /// worker that has not opened anything yet), else the synthetic root.
    fn active_top(&self) -> usize {
        if !self.on_main() {
            if let Some(&idx) = self.aux_stack.last() {
                return idx;
            }
        }
        *self.main_stack.last().unwrap_or(&0)
    }

    /// The causal coordinates an arriving event carries.
    fn context(&self) -> TraceContext {
        let node = &self.nodes[self.active_top()];
        TraceContext {
            trace_id: self.trace_id,
            span_id: node.span_id,
            parent_span_id: node.parent_span_id,
            worker_id: self.current_worker,
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
            worker_id: self.current_worker,
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
            Event::WorkerSwitched(worker_id) => {
                self.current_worker = worker_id;
                // Each worker block replays as a contiguous run with
                // balanced spans; any leftovers belong to the previous block.
                self.aux_stack.clear();
            }
            Event::PhaseStarted(name) => {
                let parent = self.active_top();
                let idx = self.child_idx(parent, name);
                if self.on_main() {
                    self.main_stack.push(idx);
                } else {
                    self.aux_stack.push(idx);
                }
            }
            Event::PhaseEnded(name, seconds) => {
                // Stamp the event with the span being closed, then close it.
                let ctx = self.context();
                let stack = if self.on_main() {
                    &mut self.main_stack
                } else {
                    &mut self.aux_stack
                };
                // Innermost open span with this name; spans opened after it
                // never got their own end, so close them silently (profiler
                // semantics).
                if let Some(pos) = stack.iter().rposition(|&i| self.nodes[i].name == name) {
                    stack.truncate(pos + 1);
                    let idx = stack.pop().expect("pos is in range");
                    self.nodes[idx].count += 1;
                    self.nodes[idx].secs += seconds;
                }
                return ctx;
            }
            _ if event.is_deterministic_work() => {
                let idx = self.active_top();
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
            worker_id: n.worker_id,
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
/// assigned at first arrival, the worker that first opened it, and the
/// deterministic-work events attributed while it was innermost.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalNode {
    /// Span name ([`PHASE_TOTAL`](super::PHASE_TOTAL), …); `(run)` for the
    /// synthetic root.
    pub name: &'static str,
    /// Arrival-ordered span id (0 for the synthetic root).
    pub span_id: u64,
    /// The parent span's id (0 = root).
    pub parent_span_id: u64,
    /// Worker that first opened this span ([`MAIN_WORKER`] = caller).
    pub worker_id: u32,
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

    /// The thread-count-invariant shape of this tree, for comparing a
    /// parallel run against its serial twin: per-worker
    /// [`PHASE_SCAN`] and [`PHASE_SCAN_PRUNE`] chunk spans fold into
    /// their parent (a serial run does the same work inline, without the
    /// span, and the pruned spans additionally come and go with
    /// `SCWSC_PRUNE`), worker ids and span ids are zeroed (assignment
    /// order differs when scan spans consume ids), and timings are
    /// dropped. What remains — span names, nesting, counts, and
    /// deterministic event tallies — must be identical for `Threads(1)`
    /// and `Threads(N)` by the determinism contract (DESIGN.md §11).
    pub fn normalized(&self) -> CausalNode {
        let mut events = self.events;
        let mut children = Vec::new();
        for c in &self.children {
            let n = c.normalized();
            if n.name == PHASE_SCAN || n.name == PHASE_SCAN_PRUNE {
                // Fold: the chunk's work happened inline in a serial run.
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
            worker_id: MAIN_WORKER,
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
            "{{\"name\":\"{}\",\"span\":{},\"parent\":{},\"worker\":{},\"count\":{},\"events\":{},\"secs\":{},\"children\":[",
            self.name,
            self.span_id,
            self.parent_span_id,
            self.worker_id,
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
            "{indent}{} [span {} < {}] worker {}  ×{}  events={}  {:.6}s",
            self.name,
            self.span_id,
            self.parent_span_id,
            self.worker_id,
            self.count,
            self.events,
            self.secs,
        );
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Mutex<VecDeque<FlightEvent>>>,
    per_shard_cap: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    start: Instant,
    state: Mutex<CausalState>,
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

    /// A recorder holding at most `capacity` recent events (rounded up to
    /// a multiple of the shard count; minimum one event per shard).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let per_shard_cap = capacity.div_ceil(SHARDS).max(1);
        FlightRecorder {
            inner: Arc::new(Inner {
                shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
                per_shard_cap,
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                start: Instant::now(),
                state: Mutex::new(CausalState::new()),
            }),
        }
    }

    /// Maximum events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.inner.per_shard_cap * SHARDS
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().expect("flight shard poisoned").len())
            .sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// The latched trace id (the first [`Event::TraceStarted`] seen;
    /// unset when no solve has announced itself yet).
    pub fn trace_id(&self) -> TraceId {
        self.state().trace_id
    }

    /// The latched entry-point name (empty until a trace starts).
    pub fn entry(&self) -> &'static str {
        self.state().entry
    }

    /// The causal span tree reconstructed so far. Complete even when the
    /// event ring has wrapped — the tree is maintained incrementally, not
    /// derived from the buffered window.
    pub fn causal_tree(&self) -> CausalNode {
        self.state().tree()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, CausalState> {
        self.inner.state.lock().expect("flight state poisoned")
    }

    /// Records one event: stamp it with the current causal context and
    /// push it into the recording worker's ring shard.
    fn record(&self, ctx: TraceContext, event: Event<'static>) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let t = self.inner.start.elapsed().as_secs_f64();
        let shard = ctx.worker_id as usize % SHARDS;
        let mut ring = self.inner.shards[shard]
            .lock()
            .expect("flight shard poisoned");
        if ring.len() == self.inner.per_shard_cap {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(FlightEvent { seq, t, ctx, event });
    }

    /// Writes the dump: a JSON header line, every buffered event (in
    /// global sequence order) as one JSON line, and a final
    /// `{"causal_tree": …}` line. Every line is a valid JSON object.
    pub fn write_dump<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let (tree, trace_id, entry) = {
            let state = self.state();
            (state.tree(), state.trace_id, state.entry)
        };
        let mut events: Vec<FlightEvent> = Vec::with_capacity(self.len());
        for shard in &self.inner.shards {
            events.extend(shard.lock().expect("flight shard poisoned").iter().cloned());
        }
        events.sort_by_key(|e| e.seq);
        writeln!(
            w,
            "{{\"flight\":\"scwsc\",\"version\":1,\"trace_id\":\"{trace_id}\",\"entry\":\"{entry}\",\"buffered\":{},\"dropped\":{},\"capacity\":{}}}",
            events.len(),
            self.dropped(),
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
        // The ring keeps 15 of the 21 kinds: audit, degrade and advisory
        // scan events stay out, so a served solve copies no element lists.
        if matches!(
            event,
            Event::RoundDecided(..)
                | Event::PriceCharged(..)
                | Event::DegradeDecided(..)
                | Event::ScanPruned(_)
                | Event::BoundRefreshed(_)
                | Event::SketchInconclusive(_)
        ) {
            return;
        }
        let ctx = self.state().apply(event);
        self.record(ctx, event.to_static());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{PHASE_GUESS, PHASE_TOTAL};

    /// Drives a little two-worker run through a recorder: a main-thread
    /// total>guess nest with a replayed two-shard scan region inside.
    fn recorded() -> FlightRecorder {
        let mut r = FlightRecorder::new();
        r.on(&Event::TraceStarted(TraceId::mint("cmc", 100, 7), "cmc"));
        r.on(&Event::PhaseStarted(PHASE_TOTAL));
        r.on(&Event::PhaseStarted(PHASE_GUESS));
        r.on(&Event::BenefitComputed(10));
        // A parallel scan region replays: shard 0 → worker 1, shard 1 → 2.
        r.on(&Event::WorkerSwitched(1));
        r.on(&Event::PhaseStarted(PHASE_SCAN));
        r.on(&Event::BenefitComputed(4));
        r.on(&Event::PhaseEnded(PHASE_SCAN, 0.01));
        r.on(&Event::WorkerSwitched(2));
        r.on(&Event::PhaseStarted(PHASE_SCAN));
        r.on(&Event::BenefitComputed(6));
        r.on(&Event::PhaseEnded(PHASE_SCAN, 0.02));
        // A pruned-scan chunk: carries no events (the scan's advisory
        // counters are applied on the calling thread after the reduce).
        r.on(&Event::WorkerSwitched(1));
        r.on(&Event::PhaseStarted(PHASE_SCAN_PRUNE));
        r.on(&Event::PhaseEnded(PHASE_SCAN_PRUNE, 0.005));
        r.on(&Event::WorkerSwitched(MAIN_WORKER));
        r.on(&Event::SetSelected(3, 5, 1.0));
        r.on(&Event::PhaseEnded(PHASE_GUESS, 0.5));
        r.on(&Event::PhaseEnded(PHASE_TOTAL, 0.6));
        r
    }

    #[test]
    fn causal_tree_attaches_worker_spans_at_fork_point() {
        let r = recorded();
        let tree = r.causal_tree();
        assert_eq!(tree.name, PHASE_TOTAL);
        assert_eq!(tree.worker_id, MAIN_WORKER);
        let guess = tree.child(PHASE_GUESS).expect("guess under total");
        // Both workers' scan chunks aggregate under the guess fork point.
        let scan = guess.child(PHASE_SCAN).expect("scan under guess");
        assert_eq!(scan.count, 2, "two chunk completions");
        assert_eq!(scan.events, 2, "one benefit event per chunk");
        assert_eq!(scan.worker_id, 1, "first opener");
        assert!(scan.secs > 0.0);
        let prune = guess
            .child(PHASE_SCAN_PRUNE)
            .expect("scan_prune under guess");
        assert_eq!(prune.count, 1);
        assert_eq!(prune.events, 0, "advisories never ride the chunks");
        // Main-thread events stayed on the guess span.
        assert_eq!(guess.events, 2, "benefit_computed(10) + set_selected");
        // Span ids are arrival-ordered and parents link up.
        assert_eq!(tree.span_id, 1);
        assert_eq!(guess.parent_span_id, tree.span_id);
        assert_eq!(scan.parent_span_id, guess.span_id);
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
    fn normalized_folds_scans_and_strips_volatile_fields() {
        let parallel = recorded().causal_tree().normalized();
        // The serial twin: same work, no scan spans, no worker switches.
        let mut serial = FlightRecorder::new();
        serial.on(&Event::TraceStarted(TraceId::mint("cmc", 100, 7), "cmc"));
        serial.on(&Event::PhaseStarted(PHASE_TOTAL));
        serial.on(&Event::PhaseStarted(PHASE_GUESS));
        serial.on(&Event::BenefitComputed(10));
        serial.on(&Event::BenefitComputed(4));
        serial.on(&Event::BenefitComputed(6));
        serial.on(&Event::SetSelected(3, 5, 1.0));
        serial.on(&Event::PhaseEnded(PHASE_GUESS, 0.4));
        serial.on(&Event::PhaseEnded(PHASE_TOTAL, 0.45));
        let expected = serial.causal_tree().normalized();
        // Folding the per-worker scan chunks into their parent makes the
        // parallel tree *identical* to the serial one: same names, same
        // nesting, same completion counts, same event tallies, all
        // volatile coordinates (ids, workers, timings) stripped.
        assert_eq!(parallel, expected);
        assert_eq!(parallel.secs, 0.0);
        assert_eq!(parallel.worker_id, MAIN_WORKER);
        assert_eq!(parallel.span_id, 0);
        assert_eq!(parallel.events_total(), 4, "all four work events kept");
        assert!(
            parallel.child(PHASE_GUESS).unwrap().children.is_empty(),
            "no scan children survive"
        );
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut r = FlightRecorder::with_capacity(8); // 1 per shard
        assert_eq!(r.capacity(), 8);
        assert!(r.is_empty());
        for i in 0..5 {
            r.on(&Event::BenefitComputed(i)); // all main worker → one shard
        }
        assert_eq!(r.len(), 1, "single shard holds one event");
        assert_eq!(r.dropped(), 4);
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
        assert!(lines[0].contains("\"flight\":\"scwsc\""), "{text}");
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
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "events in global sequence order");
        assert!(text.contains("\"event\":\"worker_switched\""), "{text}");
        assert!(text.contains("\"worker\":1"), "{text}");
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

//! Hierarchical span profiling on top of the [`Observer`] phase events.
//!
//! Solvers already emit paired [`Event::PhaseStarted`] /
//! [`Event::PhaseEnded`] events through [`PhaseSpan`](super::PhaseSpan)
//! — nested, because inner spans open after and close before their
//! enclosing one. [`SpanProfiler`] reconstructs that nesting into a tree:
//! each node aggregates every completion of one span *name* under one
//! parent path, with total wall-clock, derived self time (total minus
//! children), a completion count, and the work counters (benefits
//! computed, postings scanned, prunes, …) attributed to whichever span was
//! innermost when they fired.
//!
//! The result is the per-run equivalent of a flamegraph:
//!
//! ```text
//! total                 0.412s 100.0%  self 0.002s   ×1  benefits=18432
//!   guess               0.410s  99.5%  self 0.004s   ×3
//!     init              0.120s  29.1%  self 0.120s   ×3  benefits=18000
//!     select            0.286s  69.4%  self 0.286s   ×3  selections=24
//! ```
//!
//! Counter events that fire while no span is open are attributed to the
//! synthetic root (rendered as `(unspanned)` when non-empty).
//!
//! Node ids are arena indices in creation order (0 is the synthetic
//! root), so the [`FlightRecorder`](super::FlightRecorder), which folds
//! its events through a `SpanProfiler`, stamps every ring event with ids
//! that name nodes of the tree it dumps.

use super::{json_f64, Event, Observer};
use std::fmt::Write as _;

/// Work counters attributable to a single span (the deterministic subset
/// of [`MetricsRecorder`](super::MetricsRecorder)'s totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCounters {
    /// Benefit computations (the Fig. 6 "patterns considered" unit).
    pub benefits_computed: u64,
    /// Inverted-index posting entries scanned.
    pub postings_scanned: u64,
    /// Candidates pruned (all reasons).
    pub candidates_pruned: u64,
    /// Lattice subtrees pruned (all reasons).
    pub subtrees_pruned: u64,
    /// Sets/patterns selected.
    pub selections: u64,
    /// Stale lazy-greedy heap pops.
    pub heap_stale_pops: u64,
}

impl SpanCounters {
    /// Whether every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == SpanCounters::default()
    }

    /// `(name, value)` pairs of the non-zero counters, in a stable order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        [
            ("benefits", self.benefits_computed),
            ("postings", self.postings_scanned),
            ("cand_pruned", self.candidates_pruned),
            ("subtree_pruned", self.subtrees_pruned),
            ("selections", self.selections),
            ("stale_pops", self.heap_stale_pops),
        ]
        .into_iter()
        .filter(|&(_, v)| v > 0)
        .collect()
    }
}

/// One aggregated node of the span tree: all completions of span `name`
/// under the same parent path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name as carried by [`Event::PhaseStarted`].
    pub name: &'static str,
    /// Arena index, assigned in creation order (0 = the synthetic root).
    pub id: u64,
    /// Completed spans aggregated into this node.
    pub count: u64,
    /// Total wall-clock seconds across completions (children included).
    pub total_secs: f64,
    /// Counters attributed while this span was innermost.
    pub counters: SpanCounters,
    /// Child spans in first-seen order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: &'static str, id: usize) -> SpanNode {
        SpanNode {
            name,
            id: id as u64,
            count: 0,
            total_secs: 0.0,
            counters: SpanCounters::default(),
            children: Vec::new(),
        }
    }

    /// Seconds spent in this span itself: total minus children's totals,
    /// floored at zero (timer jitter can make children sum past the
    /// parent by nanoseconds).
    pub fn self_secs(&self) -> f64 {
        let children: f64 = self.children.iter().map(|c| c.total_secs).sum();
        (self.total_secs - children).max(0.0)
    }

    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// This tree with every timing zeroed: what two runs of one solve
    /// under the same tick budget must agree on (names, ids, nesting,
    /// counts, counters).
    pub fn untimed(&self) -> SpanNode {
        SpanNode {
            total_secs: 0.0,
            children: self.children.iter().map(SpanNode::untimed).collect(),
            ..self.clone()
        }
    }

    /// One JSON object (no trailing newline) describing this subtree:
    /// `name`, `span` (the id), `parent` (the enclosing node's id, 0 at
    /// the top), `count`, `secs`, the non-zero `counters`, and `children`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(0, &mut out);
        out
    }

    fn write_json(&self, parent: u64, out: &mut String) {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"span\":{},\"parent\":{parent},\"count\":{},\"secs\":{},\"counters\":{{",
            self.name,
            self.id,
            self.count,
            json_f64(self.total_secs)
        );
        for (i, (name, value)) in self.counters.nonzero().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("},\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.write_json(self.id, out);
        }
        out.push_str("]}");
    }

    /// Flamegraph-style text rendering: one line per node with total
    /// seconds, percent of this node's total, derived self time,
    /// completion count, and non-zero counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, self.total_secs);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, scale: f64) {
        let indent = "  ".repeat(depth);
        let pct = if scale > 0.0 {
            100.0 * self.total_secs / scale
        } else {
            0.0
        };
        let _ = write!(
            out,
            "{indent}{:<width$} {:>9.6}s {:>5.1}%  self {:>9.6}s  ×{}",
            self.name,
            self.total_secs,
            pct,
            self.self_secs(),
            self.count,
            width = 24usize.saturating_sub(2 * depth),
        );
        for (name, value) in self.counters.nonzero() {
            let _ = write!(out, "  {name}={value}");
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1, scale);
        }
    }
}

/// An [`Observer`] that reconstructs the nested phase spans of a run into
/// an aggregated self/total-time tree with per-span counter attribution.
///
/// Robust to imbalance: a `PhaseEnded` whose name is open deeper in the
/// stack closes the intervening spans (without crediting them extra time);
/// a `PhaseEnded` for a span that was never started is ignored.
#[derive(Debug, Clone)]
pub struct SpanProfiler {
    /// Arena of nodes; index 0 is the synthetic root.
    nodes: Vec<SpanNode>,
    /// `children_idx[i]` = arena indices of `nodes[i]`'s children. Kept
    /// separate from the `SpanNode.children` trees, which are only
    /// assembled by [`tree`](SpanProfiler::tree).
    children_idx: Vec<Vec<usize>>,
    /// Arena indices of the currently open spans, outermost first.
    stack: Vec<usize>,
}

impl Default for SpanProfiler {
    fn default() -> SpanProfiler {
        SpanProfiler::new()
    }
}

impl SpanProfiler {
    /// A fresh profiler with no recorded spans.
    pub fn new() -> SpanProfiler {
        SpanProfiler {
            nodes: vec![SpanNode::new("(unspanned)", 0)],
            children_idx: vec![Vec::new()],
            stack: Vec::new(),
        }
    }

    /// Number of currently open (unclosed) spans.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    fn current(&self) -> usize {
        *self.stack.last().unwrap_or(&0)
    }

    /// Ids of the innermost open span and of the node below it on the
    /// stack (0 for the synthetic root): a flight-ring event's stamp.
    pub(crate) fn stamp(&self) -> (u64, u64) {
        let parent = self.stack.iter().rev().nth(1).copied().unwrap_or(0);
        (self.current() as u64, parent as u64)
    }

    /// Index of `parent`'s child named `name`, creating it if needed.
    fn child_idx(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&idx) = self.children_idx[parent]
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(SpanNode::new(name, idx));
        self.children_idx.push(Vec::new());
        self.children_idx[parent].push(idx);
        idx
    }

    fn counters(&mut self) -> &mut SpanCounters {
        let idx = self.current();
        &mut self.nodes[idx].counters
    }

    /// The aggregated span tree. When the run produced exactly one
    /// top-level span and no unspanned counters, that span is the root of
    /// the returned tree; otherwise a synthetic `(run)` node wraps the
    /// top-level spans (its `counters` carry any unspanned events).
    pub fn tree(&self) -> SpanNode {
        let mut root = self.assemble(0);
        root.total_secs = root.children.iter().map(|c| c.total_secs).sum();
        if root.children.len() == 1 && root.counters.is_empty() {
            root.children.pop().expect("one child")
        } else {
            root.name = "(run)";
            root
        }
    }

    fn assemble(&self, idx: usize) -> SpanNode {
        let mut node = self.nodes[idx].clone();
        node.children = self.children_idx[idx]
            .iter()
            .map(|&c| self.assemble(c))
            .collect();
        node
    }
}

impl Observer for SpanProfiler {
    fn on(&mut self, event: &Event<'_>) {
        match *event {
            Event::PhaseStarted(name) => {
                let parent = self.current();
                let idx = self.child_idx(parent, name);
                self.stack.push(idx);
            }
            Event::PhaseEnded(name, seconds) => {
                // Find the innermost open span with this name; spans opened
                // after it never got their own end event, so close them
                // silently. An end without a start is dropped.
                let Some(pos) = self.stack.iter().rposition(|&i| self.nodes[i].name == name) else {
                    return;
                };
                self.stack.truncate(pos + 1);
                let idx = self.stack.pop().expect("pos is in range");
                self.nodes[idx].count += 1;
                self.nodes[idx].total_secs += seconds;
            }
            Event::BenefitComputed(count) => self.counters().benefits_computed += count,
            Event::PostingScanned(entries) => self.counters().postings_scanned += entries,
            Event::CandidatePruned(_, count) => self.counters().candidates_pruned += count,
            Event::SubtreePruned(_, count) => self.counters().subtrees_pruned += count,
            Event::SetSelected(..) => self.counters().selections += 1,
            Event::HeapStalePop(count) => self.counters().heap_stale_pops += count,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a nested run by hand: total > guess(×2) > select.
    fn profiled() -> SpanProfiler {
        let mut p = SpanProfiler::new();
        p.on(&Event::PhaseStarted("total"));
        for _ in 0..2 {
            p.on(&Event::PhaseStarted("guess"));
            p.on(&Event::BenefitComputed(10));
            p.on(&Event::PhaseStarted("select"));
            p.on(&Event::SetSelected(1, 5, 1.0));
            p.on(&Event::PhaseEnded("select", 0.25));
            p.on(&Event::PhaseEnded("guess", 0.5));
        }
        p.on(&Event::PhaseEnded("total", 1.2));
        p
    }

    #[test]
    fn aggregates_nested_spans_by_name() {
        let p = profiled();
        assert_eq!(p.open_spans(), 0);
        let tree = p.tree();
        assert_eq!(tree.name, "total");
        assert_eq!(tree.count, 1);
        assert_eq!(tree.total_secs, 1.2);
        assert_eq!(tree.children.len(), 1);
        let guess = tree.child("guess").expect("guess child");
        assert_eq!(guess.count, 2);
        assert_eq!(guess.total_secs, 1.0);
        assert_eq!(guess.counters.benefits_computed, 20);
        let select = guess.child("select").expect("select child");
        assert_eq!(select.count, 2);
        assert_eq!(select.total_secs, 0.5);
        assert_eq!(select.counters.selections, 2);
    }

    #[test]
    fn self_time_subtracts_children() {
        let tree = profiled().tree();
        assert!(
            (tree.self_secs() - 0.2).abs() < 1e-12,
            "{}",
            tree.self_secs()
        );
        let guess = tree.child("guess").unwrap();
        assert!((guess.self_secs() - 0.5).abs() < 1e-12);
        // Leaf: self == total.
        let select = guess.child("select").unwrap();
        assert_eq!(select.self_secs(), select.total_secs);
    }

    #[test]
    fn self_time_floors_at_zero() {
        let mut p = SpanProfiler::new();
        p.on(&Event::PhaseStarted("outer"));
        p.on(&Event::PhaseStarted("inner"));
        p.on(&Event::PhaseEnded("inner", 2.0)); // child reports more than parent
        p.on(&Event::PhaseEnded("outer", 1.0));
        assert_eq!(p.tree().self_secs(), 0.0);
    }

    #[test]
    fn counters_attribute_to_innermost_open_span() {
        let mut p = SpanProfiler::new();
        p.on(&Event::PhaseStarted("a"));
        p.on(&Event::PostingScanned(7));
        p.on(&Event::PhaseStarted("b"));
        p.on(&Event::PostingScanned(30));
        p.on(&Event::PhaseEnded("b", 0.1));
        p.on(&Event::PostingScanned(5));
        p.on(&Event::PhaseEnded("a", 0.2));
        let tree = p.tree();
        assert_eq!(tree.counters.postings_scanned, 12);
        assert_eq!(tree.child("b").unwrap().counters.postings_scanned, 30);
    }

    #[test]
    fn unspanned_counters_surface_on_synthetic_root() {
        let mut p = SpanProfiler::new();
        p.on(&Event::HeapStalePop(1)); // before any span opens
        p.on(&Event::PhaseStarted("total"));
        p.on(&Event::PhaseEnded("total", 0.5));
        let tree = p.tree();
        assert_eq!(tree.name, "(run)");
        assert_eq!(tree.counters.heap_stale_pops, 1);
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.total_secs, 0.5);
    }

    #[test]
    fn multiple_roots_wrap_in_synthetic_run() {
        let mut p = SpanProfiler::new();
        for name in ["first", "second"] {
            p.on(&Event::PhaseStarted(name));
            p.on(&Event::PhaseEnded(name, 0.5));
        }
        let tree = p.tree();
        assert_eq!(tree.name, "(run)");
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.total_secs, 1.0);
    }

    #[test]
    fn unbalanced_end_closes_intervening_spans() {
        let mut p = SpanProfiler::new();
        p.on(&Event::PhaseStarted("outer"));
        p.on(&Event::PhaseStarted("leaked")); // never explicitly ended
        p.on(&Event::PhaseEnded("outer", 1.0));
        assert_eq!(p.open_spans(), 0);
        let tree = p.tree();
        assert_eq!(tree.name, "outer");
        assert_eq!(tree.count, 1);
        let leaked = tree.child("leaked").unwrap();
        assert_eq!(leaked.count, 0, "no end event, no completion");
        assert_eq!(leaked.total_secs, 0.0);
    }

    #[test]
    fn stray_end_is_ignored() {
        let mut p = SpanProfiler::new();
        p.on(&Event::PhaseStarted("a"));
        p.on(&Event::PhaseEnded("never_started", 9.0));
        assert_eq!(p.open_spans(), 1, "open span untouched");
        p.on(&Event::PhaseEnded("a", 0.1));
        assert_eq!(p.tree().total_secs, 0.1);
    }

    #[test]
    fn render_is_flamegraph_shaped() {
        let text = profiled().tree().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].starts_with("total"), "{text}");
        assert!(lines[0].contains("100.0%"), "{text}");
        assert!(lines[1].starts_with("  guess"), "{text}");
        assert!(lines[1].contains("×2"), "{text}");
        assert!(lines[1].contains("benefits=20"), "{text}");
        assert!(lines[2].starts_with("    select"), "{text}");
        assert!(lines[2].contains("selections=2"), "{text}");
    }

    #[test]
    fn ids_are_arena_indices_in_creation_order() {
        let mut p = profiled();
        assert_eq!(p.stamp(), (0, 0), "no span open: the synthetic root");
        p.on(&Event::PhaseStarted("total"));
        p.on(&Event::PhaseStarted("guess"));
        assert_eq!(p.stamp(), (2, 1), "guess (2) under total (1)");
        let tree = p.tree();
        let guess = tree.child("guess").unwrap();
        assert_eq!((tree.id, guess.id), (1, 2));
        assert_eq!(guess.child("select").unwrap().id, 3);
    }

    #[test]
    fn json_carries_ids_parents_and_nonzero_counters() {
        let json = profiled().tree().to_json();
        assert_eq!(
            json,
            "{\"name\":\"total\",\"span\":1,\"parent\":0,\"count\":1,\"secs\":1.2,\"counters\":{},\"children\":[\
             {\"name\":\"guess\",\"span\":2,\"parent\":1,\"count\":2,\"secs\":1.0,\"counters\":{\"benefits\":20},\"children\":[\
             {\"name\":\"select\",\"span\":3,\"parent\":2,\"count\":2,\"secs\":0.5,\"counters\":{\"selections\":2},\"children\":[]}]}]}"
        );
    }

    #[test]
    fn untimed_zeroes_every_timing_and_keeps_the_rest() {
        let tree = profiled().tree();
        let untimed = tree.untimed();
        let guess = untimed.child("guess").unwrap();
        assert_eq!(untimed.total_secs, 0.0);
        assert_eq!(guess.child("select").unwrap().total_secs, 0.0);
        assert_eq!(guess.counters, tree.child("guess").unwrap().counters);
        assert_eq!(untimed, untimed.untimed());
    }

    #[test]
    fn counters_nonzero_skips_zeroes() {
        let mut c = SpanCounters::default();
        assert!(c.is_empty());
        assert!(c.nonzero().is_empty());
        c.selections = 3;
        c.postings_scanned = 9;
        assert_eq!(c.nonzero(), vec![("postings", 9), ("selections", 3)]);
    }
}

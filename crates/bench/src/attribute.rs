//! Regression attribution: the `scwsc_bench diff --attribute` semantics
//! (DESIGN.md §13).
//!
//! A failed (or merely suspicious) diff says *that* a workload moved;
//! attribution says *where*. It aligns the two snapshots' aggregated span
//! trees by path, computes each node's **self time** (total minus
//! children, the time actually spent in that span's own code), and ranks
//! the movers by absolute self-time delta. Deterministic counters are
//! ranked the same way by absolute delta, so a counter regression points
//! at the responsible event stream, not just the workload.

use crate::snapshot::{Snapshot, SpanSnapshot, WorkloadRun};

/// One span whose self time moved between the snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanMover {
    /// Workload the span belongs to.
    pub workload: String,
    /// Slash-joined span path from the root, e.g. `"total/guess/scan"`.
    pub path: String,
    /// Self seconds in the baseline (0.0 when the span is new).
    pub base_self_secs: f64,
    /// Self seconds in the new snapshot (0.0 when the span vanished).
    pub new_self_secs: f64,
    /// Whether the span exists in the baseline tree at all.
    pub in_base: bool,
    /// Whether the span exists in the new tree at all.
    pub in_new: bool,
}

impl SpanMover {
    /// Signed self-time change, new minus base.
    pub fn delta(&self) -> f64 {
        self.new_self_secs - self.base_self_secs
    }

    /// How the before/after column renders. A span present on only one
    /// side (a new instrument, like `scan_prune` against a baseline
    /// recorded before that span existed) is labelled rather than "diffed" against a zero that was never
    /// measured — `0.0000s -> 0.0031s` reads as a regression when it is
    /// really a new instrument.
    fn side_label(&self) -> String {
        match (self.in_base, self.in_new) {
            (true, true) => format!("{:.4}s -> {:.4}s", self.base_self_secs, self.new_self_secs),
            (false, true) => format!("new span: {:.4}s", self.new_self_secs),
            (true, false) => format!("vanished: was {:.4}s", self.base_self_secs),
            (false, false) => unreachable!("mover from a span on neither side"),
        }
    }
}

/// One deterministic counter whose value moved between the snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterMover {
    /// Workload the counter belongs to.
    pub workload: String,
    /// Counter key, e.g. `"benefits_computed"`.
    pub key: String,
    /// Baseline value (0 when the counter is new).
    pub base: u64,
    /// New value (0 when the counter vanished).
    pub new: u64,
}

impl CounterMover {
    /// Signed counter change, new minus base.
    pub fn delta(&self) -> i64 {
        self.new as i64 - self.base as i64
    }
}

/// The ranked movers of one attribution run.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Span movers, largest `|delta|` first.
    pub spans: Vec<SpanMover>,
    /// Counter movers, largest `|delta|` first.
    pub counters: Vec<CounterMover>,
}

impl Attribution {
    /// Renders the ranked movers table, `top` rows per section.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str("span self-time movers (new - base):\n");
        if self.spans.is_empty() {
            out.push_str("  (none)\n");
        }
        for m in self.spans.iter().take(top) {
            out.push_str(&format!(
                "  {:+10.4}s  {}  {}  {}\n",
                m.delta(),
                m.side_label(),
                m.workload,
                m.path
            ));
        }
        out.push_str("counter movers (new - base):\n");
        if self.counters.is_empty() {
            out.push_str("  (none)\n");
        }
        for m in self.counters.iter().take(top) {
            out.push_str(&format!(
                "  {:+12}  {} -> {}  {}  {}\n",
                m.delta(),
                m.base,
                m.new,
                m.workload,
                m.key
            ));
        }
        out
    }
}

/// Walks both snapshots and ranks every span and counter mover.
///
/// Workloads missing from either side are skipped (the plain diff already
/// reports those); spans or counters present on only one side attribute
/// against zero, so a brand-new hot span still tops the table.
pub fn attribute(base: &Snapshot, new: &Snapshot) -> Attribution {
    let mut result = Attribution::default();
    for base_run in &base.workloads {
        let Some(new_run) = new.workload(&base_run.name) else {
            continue;
        };
        collect_span_movers(base_run, new_run, &mut result.spans);
        collect_counter_movers(base_run, new_run, &mut result.counters);
    }
    result
        .spans
        .sort_by(|a, b| b.delta().abs().total_cmp(&a.delta().abs()));
    result.counters.sort_by(|a, b| {
        b.delta()
            .abs()
            .cmp(&a.delta().abs())
            .then_with(|| a.key.cmp(&b.key))
    });
    result
}

/// Self time of one aggregated node: total minus children, floored at
/// zero (clock skew between a parent and its children can go negative).
fn self_secs(node: &SpanSnapshot) -> f64 {
    let children: f64 = node.children.iter().map(|c| c.total_secs).sum();
    (node.total_secs - children).max(0.0)
}

fn collect_span_movers(base: &WorkloadRun, new: &WorkloadRun, out: &mut Vec<SpanMover>) {
    walk_pair(
        &base.name,
        Some(&base.spans),
        Some(&new.spans),
        &base.spans.name.clone(),
        out,
    );
}

/// Recursively aligns two span trees by child name. `path` is the
/// slash-joined path of the node pair being visited.
fn walk_pair(
    workload: &str,
    base: Option<&SpanSnapshot>,
    new: Option<&SpanSnapshot>,
    path: &str,
    out: &mut Vec<SpanMover>,
) {
    let base_self = base.map(self_secs).unwrap_or(0.0);
    let new_self = new.map(self_secs).unwrap_or(0.0);
    // Sub-picosecond "movement" is rounding noise from the total-minus-
    // children subtraction, not a real mover.
    if (base_self - new_self).abs() > 1e-12 {
        out.push(SpanMover {
            workload: workload.to_string(),
            path: path.to_string(),
            base_self_secs: base_self,
            new_self_secs: new_self,
            in_base: base.is_some(),
            in_new: new.is_some(),
        });
    }
    // Visit the union of child names, preserving base-side order and
    // appending new-only children after.
    let mut names: Vec<&str> = Vec::new();
    for side in [base, new] {
        for child in side.map(|n| n.children.as_slice()).unwrap_or(&[]) {
            if !names.contains(&child.name.as_str()) {
                names.push(&child.name);
            }
        }
    }
    for name in names {
        let child_path = format!("{path}/{name}");
        walk_pair(
            workload,
            child(base, name),
            child(new, name),
            &child_path,
            out,
        );
    }
}

fn child<'a>(node: Option<&'a SpanSnapshot>, name: &str) -> Option<&'a SpanSnapshot> {
    node.and_then(|n| n.children.iter().find(|c| c.name == name))
}

fn collect_counter_movers(base: &WorkloadRun, new: &WorkloadRun, out: &mut Vec<CounterMover>) {
    let mut keys: Vec<&String> = base.counters.keys().collect();
    for key in new.counters.keys() {
        if !base.counters.contains_key(key) {
            keys.push(key);
        }
    }
    for key in keys {
        let base_v = base.counters.get(key).copied().unwrap_or(0);
        let new_v = new.counters.get(key).copied().unwrap_or(0);
        if base_v != new_v {
            out.push(CounterMover {
                workload: base.name.clone(),
                key: key.clone(),
                base: base_v,
                new: new_v,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn span(name: &str, total: f64, children: Vec<SpanSnapshot>) -> SpanSnapshot {
        SpanSnapshot {
            name: name.to_string(),
            count: 1,
            total_secs: total,
            counters: BTreeMap::new(),
            children,
        }
    }

    fn snap(spans: SpanSnapshot, counters: BTreeMap<String, u64>) -> Snapshot {
        Snapshot {
            label: "t".into(),
            git_sha: "x".into(),
            rustc: "r".into(),
            reps: 1,
            workloads: vec![WorkloadRun {
                name: "w".into(),
                rep_secs: vec![spans.total_secs],
                counters,
                spans,
                alloc: None,
                quality: None,
            }],
        }
    }

    fn base_tree() -> SpanSnapshot {
        span(
            "total",
            1.0,
            vec![span("guess", 0.6, vec![span("scan", 0.5, vec![])])],
        )
    }

    #[test]
    fn perturbed_span_is_the_top_mover() {
        // Inflate scan by 0.4s: scan self goes 0.5 -> 0.9, and guess/total
        // self times are unchanged (their child totals grow in lockstep).
        let perturbed = span(
            "total",
            1.4,
            vec![span("guess", 1.0, vec![span("scan", 0.9, vec![])])],
        );
        let base = snap(base_tree(), BTreeMap::new());
        let new = snap(perturbed, BTreeMap::new());
        let attr = attribute(&base, &new);
        assert_eq!(attr.spans[0].path, "total/guess/scan");
        assert!((attr.spans[0].delta() - 0.4).abs() < 1e-12);
        assert!(
            attr.spans.iter().all(|m| m.path == "total/guess/scan"),
            "only the perturbed span moved: {:?}",
            attr.spans
        );
    }

    #[test]
    fn new_and_vanished_spans_attribute_against_zero() {
        let base = snap(base_tree(), BTreeMap::new());
        let new = snap(
            span("total", 1.0, vec![span("select", 0.6, vec![])]),
            BTreeMap::new(),
        );
        let attr = attribute(&base, &new);
        let paths: Vec<&str> = attr.spans.iter().map(|m| m.path.as_str()).collect();
        assert!(paths.contains(&"total/guess"), "vanished span reported");
        assert!(paths.contains(&"total/select"), "new span reported");
        let select = attr
            .spans
            .iter()
            .find(|m| m.path == "total/select")
            .unwrap();
        assert_eq!(select.base_self_secs, 0.0);
        assert_eq!(select.new_self_secs, 0.6);
        assert!(!select.in_base && select.in_new);
    }

    #[test]
    fn one_sided_scan_prune_span_renders_as_new_not_as_regression() {
        // Golden render: scan_prune spans appear where an older baseline,
        // recorded before the pruned refresh had its span, has none.
        // The mover must read "new span", never "0.0000s -> ...".
        let base = snap(base_tree(), BTreeMap::new());
        let pruned = span(
            "total",
            1.0,
            vec![span(
                "guess",
                0.6,
                vec![span("scan", 0.4, vec![]), span("scan_prune", 0.1, vec![])],
            )],
        );
        let new = snap(pruned, BTreeMap::new());
        let text = attribute(&base, &new).render(10);
        assert!(
            text.contains("new span: 0.1000s  w  total/guess/scan_prune"),
            "one-sided span labelled as new:\n{text}"
        );
        assert!(
            !text.contains("0.0000s -> 0.1000s"),
            "must not diff a never-measured side against zero:\n{text}"
        );
        // And the reverse direction (baseline had it, new does not).
        let text = attribute(&new, &base).render(10);
        assert!(
            text.contains("vanished: was 0.1000s  w  total/guess/scan_prune"),
            "one-sided span labelled as vanished:\n{text}"
        );
        // Both-sided movers keep the arrow format the CI golden greps for.
        let slower = snap(
            span(
                "total",
                2.0,
                vec![span("guess", 0.6, vec![span("scan", 0.5, vec![])])],
            ),
            BTreeMap::new(),
        );
        let text = attribute(&snap(base_tree(), BTreeMap::new()), &slower).render(10);
        assert!(
            text.contains("0.4000s -> 1.4000s  w  total"),
            "two-sided movers keep the arrow format:\n{text}"
        );
    }

    #[test]
    fn counter_movers_rank_by_absolute_delta() {
        let base = snap(
            base_tree(),
            BTreeMap::from([("selections".to_string(), 10), ("scans".to_string(), 100)]),
        );
        let new = snap(
            base_tree(),
            BTreeMap::from([("selections".to_string(), 12), ("scans".to_string(), 40)]),
        );
        let attr = attribute(&base, &new);
        assert_eq!(attr.counters[0].key, "scans");
        assert_eq!(attr.counters[0].delta(), -60);
        assert_eq!(attr.counters[1].key, "selections");
        assert_eq!(attr.counters[1].delta(), 2);
        assert!(attr.spans.is_empty(), "identical trees produce no movers");
    }

    #[test]
    fn render_lists_movers_and_handles_empty() {
        let base = snap(base_tree(), BTreeMap::from([("selections".to_string(), 1)]));
        let mut new = base.clone();
        new.workloads[0]
            .counters
            .insert("selections".to_string(), 5);
        let text = attribute(&base, &new).render(10);
        assert!(text.contains("selections"));
        assert!(text.contains("1 -> 5"));
        let clean = attribute(&base, &base.clone()).render(10);
        assert!(clean.contains("(none)"));
    }
}

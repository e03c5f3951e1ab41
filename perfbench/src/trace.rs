//! Spans the benchmark records around its calls into each layer. Spans
//! live in memory and are written out as JSON lines when the run ends.

use crate::stats::self_time;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Extra fields for the dump, already JSON-encoded (`"k":v,...`).
    pub fields: String,
}

/// Collects spans; disabled recorders cost one branch per call.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start: self.ns(start),
            end: self.ns(end),
            fields: String::new(),
        });
        id
    }

    /// Attaches a numeric field to span `id`.
    pub fn field(&mut self, id: u32, key: &str, value: f64) {
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            let _ = write!(span.fields, ",\"{key}\":{value}");
        }
    }

    /// Total self time, in seconds, and count of spans named `name`.
    /// Self time is a span's duration minus the union of its children.
    pub fn self_secs(&self, name: &str) -> (f64, usize) {
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut total = 0u64;
        let mut count = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            total += self_time(s.start, s.end, kids);
            count += 1;
        }
        (total as f64 * 1e-9, count)
    }

    /// Every span as one JSON object per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}{}}}",
                s.trace, s.id, s.name, s.start, s.end, s.fields
            );
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_uses_child_spans_and_dump_keeps_parents() {
        let mut r = Recorder::new(true);
        let t0 = r.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = r.record(1, None, "instance", at(0), at(100));
        r.record(1, Some(root), "ingest", at(0), at(40));
        r.record(1, Some(root), "solve", at(30), at(60));
        let (secs, n) = r.self_secs("instance");
        assert_eq!(n, 1);
        assert!((secs - 0.040).abs() < 1e-9, "{secs}");
        r.field(root, "bytes", 12.0);
        let text = r.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"bytes\":12"));
        assert!(lines[1].contains("\"trace\":1,\"span\":2,\"parent\":1,\"name\":\"ingest\""));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let t = Instant::now();
        assert_eq!(r.record(1, None, "x", t, t), 0);
        assert_eq!(r.len(), 0);
    }
}

//! Flight-recorder dumps as Chrome tracing JSON
//! (`scwsc_bench flight-to-chrome IN OUT`).
//!
//! The flight recorder's JSONL dump (DESIGN.md §13) is built for grep;
//! this module re-shapes it for eyes: the output loads directly into
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) as a standard
//! [Trace Event Format] object.
//!
//! * Everything lands in one swim lane: one **process** (`pid` 0, named via
//!   `process_name` metadata), because a solve's event stream is the one
//!   its calling thread emits.
//! * The **causal tree** becomes nested `"X"` (complete) duration events,
//!   each carrying its span id, parent id, completion count, and non-zero
//!   work counters in `args`.
//!   The tree stores aggregate per-span seconds, not start timestamps, so
//!   starts are synthesized by depth-first layout: a span opens where its
//!   previous sibling ended, and a parent is stretched to contain its
//!   children when their sum exceeds its own measured time. Visual
//!   nesting is therefore exact; absolute positions are schematic.
//! * Every **buffered ring event** becomes an `"i"` (instant) event at its
//!   recorded monotonic time, carrying its sequence number, span id, and
//!   payload fields in `args` — the precise tail of the run, overlaid on
//!   the schematic spans.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use scwsc_core::json::Json;

/// Envelope fields of a ring-event line; everything else is payload and
/// goes to `args` verbatim.
const ENVELOPE: [&str; 6] = ["seq", "t", "trace", "span", "parent", "event"];

/// Converts a flight dump (the JSONL text written by
/// `FlightRecorder::write_dump`) into one Chrome tracing JSON object.
pub fn flight_to_chrome(dump: &str) -> Result<Json, String> {
    let mut trace_events: Vec<Json> = Vec::new();
    let mut tree: Option<Json> = None;
    let mut header: Option<Json> = None;
    for (lineno, line) in dump.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {}: {e:?}", lineno + 1))?;
        if value.get("flight").is_some() {
            header = Some(value);
        } else if let Some(t) = value.get("causal_tree") {
            tree = Some(t.clone());
        } else if value.get("event").is_some() {
            trace_events.push(instant_event(&value, lineno + 1)?);
        } else {
            return Err(format!("line {}: unrecognized dump line", lineno + 1));
        }
    }
    let header = header.ok_or("missing flight header line")?;
    let tree = tree.ok_or("missing causal_tree trailer line")?;
    layout_spans(&tree, 0.0, &mut trace_events)?;
    trace_events.push(Json::Obj(vec![
        ("name".into(), Json::Str("process_name".into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::from_u64(0)),
        ("tid".into(), Json::from_u64(0)),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str("scwsc".into()))]),
        ),
    ]));
    let mut other = Vec::new();
    for key in ["trace_id", "entry", "buffered", "dropped", "capacity"] {
        if let Some(v) = header.get(key) {
            other.push((key.to_string(), v.clone()));
        }
    }
    Ok(Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(trace_events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        ("otherData".into(), Json::Obj(other)),
    ]))
}

/// One ring event line → one `"i"` instant at its recorded time.
fn instant_event(value: &Json, lineno: usize) -> Result<Json, String> {
    let field = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| format!("line {lineno}: missing '{key}'"))
    };
    let name = field("event")?
        .as_str()
        .ok_or_else(|| format!("line {lineno}: 'event' is not a string"))?;
    let t = field("t")?
        .as_f64()
        .ok_or_else(|| format!("line {lineno}: 't' is not a number"))?;
    let mut args = vec![
        ("seq".into(), field("seq")?.clone()),
        ("span".into(), field("span")?.clone()),
    ];
    if let Some(entries) = value.as_obj() {
        for (k, v) in entries {
            if !ENVELOPE.contains(&k.as_str()) {
                args.push((k.clone(), v.clone()));
            }
        }
    }
    Ok(Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("ph".into(), Json::Str("i".into())),
        ("s".into(), Json::Str("p".into())),
        ("ts".into(), Json::Num(t * 1e6)),
        ("pid".into(), Json::from_u64(0)),
        ("tid".into(), Json::from_u64(0)),
        ("args".into(), Json::Obj(args)),
    ]))
}

/// Depth-first layout of one causal-tree node starting at `start_us`.
/// Children are placed end-to-end; the node's duration is its own measured
/// seconds or the children's total, whichever is larger, so nesting never
/// overflows the parent. Returns the node's laid-out duration in µs.
fn layout_spans(node: &Json, start_us: f64, out: &mut Vec<Json>) -> Result<f64, String> {
    let field = |key: &str| {
        node.get(key)
            .ok_or_else(|| format!("causal tree node missing '{key}'"))
    };
    let name = field("name")?
        .as_str()
        .ok_or("causal tree 'name' is not a string")?;
    let secs = field("secs")?
        .as_f64()
        .ok_or("causal tree 'secs' is not a number")?;
    let mut cursor = start_us;
    for child in field("children")?.as_arr().unwrap_or(&[]) {
        cursor += layout_spans(child, cursor, out)?;
    }
    let dur_us = (secs * 1e6).max(cursor - start_us);
    out.push(Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("ph".into(), Json::Str("X".into())),
        ("ts".into(), Json::Num(start_us)),
        ("dur".into(), Json::Num(dur_us)),
        ("pid".into(), Json::from_u64(0)),
        ("tid".into(), Json::from_u64(0)),
        (
            "args".into(),
            Json::Obj(vec![
                ("span".into(), field("span")?.clone()),
                ("parent".into(), field("parent")?.clone()),
                ("count".into(), field("count")?.clone()),
                ("counters".into(), field("counters")?.clone()),
            ]),
        ),
    ]));
    Ok(dur_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scwsc_core::telemetry::{PHASE_GUESS, PHASE_SCAN_PRUNE, PHASE_TOTAL};
    use scwsc_core::{Event, FlightRecorder, Observer, TraceId};

    /// A real dump, via the recorder itself.
    fn dump() -> String {
        let mut r = FlightRecorder::new();
        r.on(&Event::TraceStarted(TraceId::mint("cmc", 100, 7), "cmc"));
        r.on(&Event::PhaseStarted(PHASE_TOTAL));
        r.on(&Event::PhaseStarted(PHASE_GUESS));
        r.on(&Event::BenefitComputed(10));
        r.on(&Event::PhaseStarted(PHASE_SCAN_PRUNE));
        r.on(&Event::BenefitComputed(4));
        r.on(&Event::PhaseEnded(PHASE_SCAN_PRUNE, 0.01));
        r.on(&Event::SetSelected(3, 5, 1.0));
        r.on(&Event::PhaseEnded(PHASE_GUESS, 0.5));
        r.on(&Event::PhaseEnded(PHASE_TOTAL, 0.6));
        let mut buf = Vec::new();
        r.write_dump(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn events(trace: &Json) -> Vec<&Json> {
        trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array")
            .iter()
            .collect()
    }

    fn phase<'a>(trace: &'a Json, ph: &str) -> Vec<&'a Json> {
        events(trace)
            .into_iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .collect()
    }

    #[test]
    fn converts_real_dump_to_spans_instants_and_process_name() {
        let trace = flight_to_chrome(&dump()).unwrap();
        // Output itself round-trips through the parser.
        let parsed = Json::parse(&trace.to_pretty()).unwrap();
        assert_eq!(parsed, trace);

        // Three duration spans: total > guess > scan_prune.
        let spans = phase(&trace, "X");
        let names: Vec<_> = spans
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names.len(), 3, "{names:?}");
        for name in [PHASE_TOTAL, PHASE_GUESS, PHASE_SCAN_PRUNE] {
            assert!(names.contains(&name), "{names:?}");
        }

        // Every buffered event became an instant.
        let instants = phase(&trace, "i");
        assert!(
            instants
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("set_selected")),
            "selection instant present"
        );

        // One lane: every event on pid 0, named once.
        assert!(events(&trace)
            .iter()
            .all(|e| e.get("pid").and_then(Json::as_u64) == Some(0)));
        assert_eq!(phase(&trace, "M").len(), 1);
    }

    #[test]
    fn spans_nest_within_their_parents() {
        let trace = flight_to_chrome(&dump()).unwrap();
        let spans = phase(&trace, "X");
        let bounds = |name: &str| {
            let e = spans
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap();
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            let dur = e.get("dur").and_then(Json::as_f64).unwrap();
            (ts, ts + dur)
        };
        let total = bounds(PHASE_TOTAL);
        let guess = bounds(PHASE_GUESS);
        let scan = bounds(PHASE_SCAN_PRUNE);
        assert!(total.0 <= guess.0 && guess.1 <= total.1, "guess in total");
        assert!(
            guess.0 <= scan.0 && scan.1 <= guess.1,
            "scan_prune in guess"
        );
        assert!((total.1 - total.0 - 0.6e6).abs() < 1.0, "total keeps 0.6s");
    }

    #[test]
    fn span_counters_reach_args() {
        let trace = flight_to_chrome(&dump()).unwrap();
        let guess = phase(&trace, "X")
            .into_iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(PHASE_GUESS))
            .unwrap();
        let counters = guess
            .get("args")
            .and_then(|a| a.get("counters"))
            .expect("counters object");
        assert_eq!(counters.get("benefits").and_then(Json::as_u64), Some(10));
        assert_eq!(counters.get("selections").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn instant_payload_fields_reach_args() {
        let trace = flight_to_chrome(&dump()).unwrap();
        let sel = phase(&trace, "i")
            .into_iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("set_selected"))
            .unwrap();
        let args = sel.get("args").expect("args object");
        assert_eq!(args.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(args.get("marginal_benefit").and_then(Json::as_u64), Some(5));
        assert!(args.get("seq").is_some() && args.get("span").is_some());
    }

    #[test]
    fn malformed_dumps_are_rejected_with_line_numbers() {
        assert!(flight_to_chrome("").unwrap_err().contains("header"));
        let err = flight_to_chrome("{\"flight\":\"scwsc\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = flight_to_chrome("{\"flight\":\"scwsc\"}\n{\"stray\":1}\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}

//! Pins the JSON encoding of every solver event: one instance of each of
//! the 21 events goes through a `JsonlSink`, which writes all but the three
//! advisory scan events, and through a `FlightRecorder`, whose dump keeps
//! 15 of the kinds. Every event line is compared exactly, after its
//! volatile `seq` / `t` keys.

use scwsc_core::audit::AuditCandidate;
use scwsc_core::{Event, FlightRecorder, JsonlSink, Observer, PruneReason, TraceId, PHASE_TOTAL};
use std::borrow::Cow;

/// Sends one instance of each of the 21 events, in a fixed order.
fn drive_every_event<O: Observer + ?Sized>(obs: &mut O) {
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
    obs.on(&Event::TraceStarted(TraceId(0xabc), "cmc"));
    obs.on(&Event::PhaseStarted(PHASE_TOTAL));
    obs.on(&Event::GuessStarted(Some(2.5)));
    obs.on(&Event::LevelEntered(0, 4));
    obs.on(&Event::BenefitComputed(12));
    obs.on(&Event::CandidatePruned(PruneReason::CostBound));
    obs.on(&Event::SubtreePruned(PruneReason::BelowFloor));
    obs.on(&Event::PostingScanned(40));
    obs.on(&Event::HeapStalePop);
    obs.on(&Event::RoundDecided(
        "gain",
        winner,
        Cow::Borrowed(&[runner]),
    ));
    obs.on(&Event::PriceCharged(3, Cow::Borrowed(&[0, 4, 7]), 1.5));
    obs.on(&Event::SetSelected(3, 5, 1.5));
    obs.on(&Event::DegradeDecided("tick_budget", 3, 9));
    obs.on(&Event::Speculation(2, 1));
    obs.on(&Event::GuessRetried);
    obs.on(&Event::ScanPruned(11));
    obs.on(&Event::BoundRefreshed(5));
    obs.on(&Event::SketchInconclusive(2));
    obs.on(&Event::StallDetected(77, 0.25));
    obs.on(&Event::WorkerSwitched(3));
    obs.on(&Event::PhaseEnded(PHASE_TOTAL, 0.5));
}

/// The text of `line` after its `"t"` key and value (for a flight line the
/// `"seq"` key precedes `"t"`, so both are cut).
fn after_t(line: &str) -> &str {
    let start = line.find("\"t\":").expect("line carries a t key");
    let rest = &line[start..];
    &rest[rest.find(',').expect("t is not the last key") + 1..]
}

#[test]
fn jsonl_sink_encodes_every_event() {
    let mut sink = JsonlSink::new(Vec::new());
    drive_every_event(&mut sink);
    let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    let lines: Vec<&str> = text.lines().map(after_t).collect();
    let expected = [
        r#""event":"trace_started","trace_id":"0000000000000abc","entry":"cmc"}"#,
        r#""event":"phase_started","name":"total"}"#,
        r#""event":"guess_started","budget":2.5}"#,
        r#""event":"level_entered","level":0,"allowance":4}"#,
        r#""event":"benefit_computed","count":12}"#,
        r#""event":"candidate_pruned","reason":"cost_bound"}"#,
        r#""event":"subtree_pruned","reason":"below_floor"}"#,
        r#""event":"posting_scanned","entries":40}"#,
        r#""event":"heap_stale_pop"}"#,
        r#""event":"round_decided","order":"gain","winner":{"id":3,"benefit":5,"weight":1.5},"runners_up":[{"id":1,"benefit":2,"weight":1.0}]}"#,
        r#""event":"price_charged","set":3,"cost":1.5,"elements":[0,4,7]}"#,
        r#""event":"set_selected","id":3,"marginal_benefit":5,"cost":1.5}"#,
        r#""event":"degrade_decided","reason":"tick_budget","covered":3,"target":9}"#,
        r#""event":"speculation","committed":2,"wasted":1}"#,
        r#""event":"guess_retried"}"#,
        r#""event":"stall_detected","ticks":77,"stalled_secs":0.25}"#,
        r#""event":"worker_switched","worker_to":3}"#,
        r#""event":"phase_ended","name":"total","seconds":0.5}"#,
    ];
    assert_eq!(lines, expected);
}

#[test]
fn flight_dump_encodes_its_fifteen_kinds() {
    let mut flight = FlightRecorder::new();
    drive_every_event(&mut flight);
    let mut buf = Vec::new();
    flight.write_dump(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Header first, causal tree last, the recorded events in between.
    let events: Vec<&str> = lines[1..lines.len() - 1]
        .iter()
        .map(|l| after_t(l))
        .collect();
    let main = r#""trace":"0000000000000abc","span":1,"parent":0,"worker":0,"#;
    let expected = [
        r#""trace":"0000000000000abc","span":0,"parent":0,"worker":0,"event":"trace_started","trace_id":"0000000000000abc","entry":"cmc"}"#.to_owned(),
        format!(r#"{main}"event":"phase_started","name":"total"}}"#),
        format!(r#"{main}"event":"guess_started","budget":2.5}}"#),
        format!(r#"{main}"event":"level_entered","level":0,"allowance":4}}"#),
        format!(r#"{main}"event":"benefit_computed","count":12}}"#),
        format!(r#"{main}"event":"candidate_pruned","reason":"cost_bound"}}"#),
        format!(r#"{main}"event":"subtree_pruned","reason":"below_floor"}}"#),
        format!(r#"{main}"event":"posting_scanned","entries":40}}"#),
        format!(r#"{main}"event":"heap_stale_pop"}}"#),
        format!(r#"{main}"event":"set_selected","id":3,"marginal_benefit":5,"cost":1.5}}"#),
        format!(r#"{main}"event":"speculation","committed":2,"wasted":1}}"#),
        format!(r#"{main}"event":"guess_retried"}}"#),
        format!(r#"{main}"event":"stall_detected","ticks":77,"stalled_secs":0.25}}"#),
        r#""trace":"0000000000000abc","span":1,"parent":0,"worker":3,"event":"worker_switched","worker_to":3}"#.to_owned(),
        r#""trace":"0000000000000abc","span":1,"parent":0,"worker":3,"event":"phase_ended","name":"total","seconds":0.5}"#.to_owned(),
    ];
    assert_eq!(events, expected);
}

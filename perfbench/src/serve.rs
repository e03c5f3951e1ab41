//! `serve-zipf`: an open loop at a fixed arrival rate against an
//! in-process `scwsc_serve::serve` on loopback, holding the first
//! `batch-solve` instance. Query keys follow Zipf(1.0) over a key space
//! four times the result-cache capacity, so hits, misses, inserts and
//! evictions all stay steady. A second thread times the host clock's
//! kernel while the generator runs; set-ups and the server's share of
//! each latency are stated at its nominal speed.

use crate::batch::{fold_answer, put_ingest, secs, BATCH_ROWS, SETUP_TRACE, TABLES};
use crate::check::{self, Outcome, Rows};
use crate::gen::{self, Fingerprint};
use crate::host::HostClock;
use crate::loadgen::{self, Record};
use crate::trace::Recorder;
use crate::{alloc, stats, Op, Report, Run};
use scwsc_core::solver::{Query, Solver};
use scwsc_core::{Deadline, FlightRecorder, NoopObserver, ThreadPool, Threads};
use scwsc_patterns::PatternInstance;
use scwsc_serve::{
    serve, AdmissionConfig, BrownoutConfig, Request, ServeOptions, ServeSummary, ServerConfig,
    ServerState, ShutdownFlag, Status,
};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per second offered. The server is busy about a fifth of
/// the time, so the host must slow down more than fourfold before the
/// queue grows without bound. At 30/s one run in twenty hit a slow phase
/// deep enough for that, and its latencies read in seconds.
const RATE: f64 = 20.0;
/// Leading seconds of the run excluded from the metrics.
const WARMUP_S: f64 = 1.0;
/// Result-cache capacity, in answers.
const CACHE: usize = 64;
/// Distinct query keys: several times the cache capacity.
const KEYS: usize = 4 * CACHE;
/// Tick budget per solve at brownout tier 0.
const BASE_TICKS: u64 = 40_000;
/// Deepest brownout tier; each tier halves the grant.
const MAX_TIER: u8 = 3;
/// Latency limit for goodput, at the nominal host speed.
const LIMIT_MS: f64 = 100.0;
/// Server set-ups per run, at least, and seconds of them, at least;
/// `setup_s` is their median. The host's speed switches between a fast
/// and a slow state every second or so, so a few set-ups taken back to
/// back all land in one state.
const SETUPS: usize = 4;
const SETUP_MIN_S: f64 = 2.0;
/// Highest percentile `tail_ms` reports, as on the closed-loop
/// workloads. Higher tails are a handful of requests queued behind CMC
/// solves: on a shared two-CPU host the p99's run-to-run spread (IQR
/// over the median of ten runs) was 0.26 to 0.43 and the p95's up to
/// 0.56 when the host slowed down, above every admissible bound.
const TAIL_CAP: f64 = 90.0;

/// Server settings. Callers send no wall-clock deadline and the queue
/// wait limit is far above any wait two connections can cause, so every
/// degrade comes from a tick budget: CMC keys exceed the tier grant,
/// CWSC keys fit in it. Degraded answers keep the windowed degraded
/// rate above the hot threshold, so the brownout tier climbs during the
/// warm-up and then stays at `MAX_TIER`. One solve at a time: the
/// solver pool is serial and the generator needs CPU too, so a second
/// concurrent solve on two CPUs would only make both slower by however
/// much they happened to overlap; the other connection's miss waits in
/// the admission queue instead.
fn config() -> ServerConfig {
    ServerConfig {
        cache_capacity: CACHE,
        admission: AdmissionConfig {
            max_inflight: 1,
            max_queue: 16,
            tick_capacity: 4 * BASE_TICKS,
            base_ticks: BASE_TICKS,
            max_queue_wait: Duration::from_secs(10),
            ..AdmissionConfig::default()
        },
        brownout: BrownoutConfig {
            max_tier: MAX_TIER,
            hot_degraded_rate: 0.1,
            ..BrownoutConfig::default()
        },
        ..ServerConfig::default()
    }
}

struct Server {
    instance: Arc<PatternInstance>,
    state: Arc<ServerState>,
    shutdown: ShutdownFlag,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
    streams: Vec<TcpStream>,
}

impl Server {
    /// CSV bytes -> instance -> server state -> listening -> every
    /// connection accepted and answering. Returns the server and the
    /// ingest, index and total set-up times.
    fn start(csv: &str, rec: &mut Recorder, trace: u64) -> (Server, f64, f64, f64) {
        let t0 = Instant::now();
        let table = scwsc_data::csv::table_from_csv(csv).expect("generated csv parses");
        let t1 = Instant::now();
        let instance = Arc::new(PatternInstance::new(table));
        let t2 = Instant::now();
        let state = Arc::new(ServerState::new(
            instance.clone(),
            ThreadPool::new(Threads::serial()),
            config(),
            FlightRecorder::new(),
            None,
        ));
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("bound address");
        let shutdown = ShutdownFlag::new();
        let options = ServeOptions {
            poll_interval: Duration::from_millis(2),
            ..ServeOptions::default()
        };
        let handle = {
            let (state, shutdown) = (state.clone(), shutdown.clone());
            std::thread::spawn(move || serve(listener, state, options, shutdown))
        };
        // A request without `k` is answered `error` by the protocol layer
        // alone: a round trip that proves the connection was accepted.
        let streams: Vec<TcpStream> = (0..loadgen::max_connections())
            .map(|_| {
                let mut s = TcpStream::connect(addr).expect("connect to the server");
                s.set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("read timeout");
                s.write_all(b"{}\n").expect("ping");
                let mut byte = [0u8];
                while s.read(&mut byte).expect("ping reply") == 1 && byte[0] != b'\n' {}
                s
            })
            .collect();
        let t3 = Instant::now();
        let root = rec.record(trace, None, "setup", t0, t3);
        rec.record(trace, Some(root), "ingest", t0, t1);
        rec.record(trace, Some(root), "index", t1, t2);
        rec.record(trace, Some(root), "accept", t2, t3);
        let server = Server {
            instance,
            state,
            shutdown,
            handle,
            streams,
        };
        (server, secs(t0, t1), secs(t1, t2), secs(t0, t3))
    }

    /// Drains the server and waits for it to exit.
    fn stop(self) -> ServeSummary {
        drop(self.streams);
        self.shutdown.raise();
        self.handle
            .join()
            .expect("server thread panicked")
            .expect("server loop failed")
    }
}

/// Sum of the Prometheus samples named `name` (with `label`, if given).
fn prom(text: &str, name: &str, label: Option<&str>) -> f64 {
    let key = match label {
        Some(l) => format!("{name}{{{l}}}"),
        None => name.to_string(),
    };
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .filter(|(k, _)| *k == key)
        .filter_map(|(_, v)| v.trim().parse::<f64>().ok())
        .sum()
}

pub fn serve_zipf(run: &Run) -> Report {
    let csv = gen::lbl_csv(BATCH_ROWS, gen::pool_seed(run.seed, TABLES, 0));
    let keys = gen::serve_keys(run.seed, KEYS);
    let total = ((RATE * run.seconds).round() as usize).max(1);
    let warm = ((RATE * WARMUP_S) as usize).min(total / 5);
    let ranks = gen::serve_stream(run.seed, KEYS, total);
    let requests: Vec<Request> = ranks
        .iter()
        .enumerate()
        .map(|(j, &r)| Request::new(j as u64, keys[r].clone()))
        .collect();
    let mut inputs = Fingerprint::default();
    inputs.str(&csv);
    for (j, r) in requests.iter().enumerate() {
        inputs.str(&j.to_string()).query(&r.query);
    }
    let mut rep = Report {
        inputs: inputs.hex(),
        ..Report::default()
    };
    let mut rec = Recorder::new(run.trace);
    let mut host = HostClock::new();

    let (mut setups, mut ingest, mut index) = (Vec::new(), Vec::new(), Vec::new());
    let mut server = None;
    let (started, mut i) = (Instant::now(), 0);
    while i < SETUPS || secs(started, Instant::now()) < SETUP_MIN_S {
        if let Some(old) = server.take() {
            Server::stop(old);
        }
        host.tick();
        let t0 = Instant::now();
        let (s, ing, idx, all) = Server::start(&csv, &mut rec, SETUP_TRACE + i as u64);
        ingest.push(ing);
        index.push(idx);
        setups.push((t0, all));
        server = Some(s);
        i += 1;
    }
    let mut server = server.expect("at least one set-up");

    let interval = Duration::from_secs_f64(1.0 / RATE);
    let setup_peak = alloc::peak_mb();
    let windows = alloc::PeakWindows::start(Duration::from_secs(1));
    let a0 = alloc::Snapshot::now();
    let start = Instant::now() + Duration::from_millis(20);
    let streams = std::mem::take(&mut server.streams);
    let records = host.sample_while(|| {
        loadgen::run(streams, &requests, start, interval, Duration::from_secs(10))
    });
    let ended = Instant::now();
    let used = a0.until(alloc::Snapshot::now());
    let heap = alloc::heap_metric(setup_peak, &windows.finish());
    let prometheus = server.state.prometheus();
    let (hits, misses, evictions) = server.state.cache_stats();
    let gate = server.state.gate_snapshot();
    let instance = server.instance.clone();
    let summary = server.stop();
    rep.lines.push(format!(
        "server: {} read, {} complete, {} degraded, {} rejected, {} errors, {} cache hits, drained clean {}",
        summary.requests_read,
        summary.complete,
        summary.degraded,
        summary.rejected,
        summary.errors,
        summary.cache_hits,
        summary.drained_clean
    ));

    // Answers: the fingerprint holds, for every distinct key the stream
    // uses, the in-process answer under the steady-state tier grant, and
    // then what the server returned (see the loop below).
    let pool = ThreadPool::new(Threads::serial());
    let solve = |q: &Query, ticks: Option<u64>| {
        let deadline = match ticks {
            Some(t) => Deadline::unbounded().with_tick_budget(t),
            None => Deadline::unbounded(),
        };
        instance
            .solve(q, &pool, &deadline, &mut NoopObserver)
            .map(|o| Outcome {
                degraded: o.is_degraded(),
                answer: o.value().clone(),
            })
            .map_err(|e| e.to_string())
    };
    let mut distinct = ranks.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let mut answers = Fingerprint::default();
    let mut reference: HashMap<usize, Result<Outcome, String>> = HashMap::new();
    for &r in &distinct {
        let steady = solve(&keys[r], Some(BASE_TICKS >> MAX_TIER));
        fold_answer(&mut answers, &keys[r], &steady);
        if steady.as_ref().is_ok_and(|o| !o.degraded) {
            reference.insert(r, steady);
        }
    }
    let steady_complete: HashSet<usize> = reference.keys().copied().collect();

    let rows = Rows::parse(&csv).expect("generated csv parses");
    let mut ops = Vec::new();
    let mut last_reply: HashMap<usize, Option<Instant>> = HashMap::new();
    let mut dup_inflight = 0;
    let (mut queue_ms, mut solve_ms, mut transport_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut retries, mut tier_max, mut solves) = (0, 0u8, 0usize);
    let mut good = 0;
    let mut timed = Vec::new();
    for (j, r) in records.iter().enumerate() {
        let key = ranks[j];
        let q = &keys[key];
        let latency = r.latency_ms().unwrap_or_else(|| secs(r.due, ended) * 1e3);
        // Only the server's queue wait and solve are scaled to the nominal
        // host speed. The rest is transport: poll and wake-up delays set by
        // timers, which a slower CPU does not lengthen.
        let server_ms = r
            .response
            .as_ref()
            .map_or(0.0, |resp| resp.queue_ms + resp.solve_ms)
            .min(latency);
        let scaled = latency - server_ms + server_ms / host.slowdown_at(r.due);
        let failure = match &r.response {
            None => Some("no response".to_string()),
            Some(resp) => match (resp.status, &resp.answer) {
                (Status::Complete | Status::Degraded, Some(answer)) => {
                    let outcome = Outcome {
                        degraded: resp.status == Status::Degraded,
                        answer: answer.clone(),
                    };
                    let verdict = check::check_patterns(&rows, q, &outcome).and_then(|()| {
                        if outcome.degraded {
                            return Ok(());
                        }
                        match reference.entry(key).or_insert_with(|| solve(q, None)) {
                            Ok(w) if check::same_answer(&w.answer, &outcome.answer) => Ok(()),
                            Ok(_) => Err("differs from the in-process answer".to_string()),
                            Err(e) => Err(format!("in-process solve failed: {e}")),
                        }
                    });
                    verdict.err()
                }
                (Status::Complete | Status::Degraded, None) => Some("answer missing".to_string()),
                (Status::Rejected, _) => Some(format!(
                    "rejected, retry after {:?} ms",
                    resp.retry_after_ms
                )),
                (Status::Error, _) => {
                    Some(format!("error: {}", resp.error.clone().unwrap_or_default()))
                }
            },
        };
        if let Some(why) = &failure {
            rep.fail(format!("request {j} {}: {why}", gen::query_label(q)));
        }
        // The served side of the answer fingerprint: every request's
        // verdict, and the answer of every complete response to a key the
        // steady-state grant answers completely, which every tier does.
        answers.str(if failure.is_some() { "failed" } else { "ok" });
        if let Some(resp) = r.response.as_ref().filter(|x| x.status == Status::Complete) {
            if let (Some(answer), true) = (&resp.answer, steady_complete.contains(&key)) {
                let served = Ok(Outcome {
                    degraded: false,
                    answer: answer.clone(),
                });
                fold_answer(&mut answers, q, &served);
            }
        }
        let miss = r.response.as_ref().is_some_and(|resp| {
            !resp.cached && matches!(resp.status, Status::Complete | Status::Degraded)
        });
        // A miss on a key whose earlier request was still unanswered when
        // this one was sent: work a single-flight cache would share.
        // `last_reply` holds, per key, the latest reply to any earlier
        // request (`None` once one of them never got a reply).
        let prior = last_reply.get(&key).copied();
        let earlier_open = match prior {
            None => false,
            Some(None) => true,
            Some(Some(t)) => t > r.sent,
        };
        if miss && earlier_open {
            dup_inflight += 1;
        }
        let reply = match (prior, r.received) {
            (None, got) => got,
            (Some(Some(a)), Some(b)) => Some(a.max(b)),
            _ => None,
        };
        last_reply.insert(key, reply);
        if let Some(resp) = &r.response {
            tier_max = tier_max.max(resp.tier);
            retries += resp.attempts.saturating_sub(1) as usize;
            if miss {
                solves += 1;
            }
        }
        if j < warm {
            continue;
        }
        if let Some(resp) = &r.response {
            if miss {
                queue_ms.push(resp.queue_ms);
                solve_ms.push(resp.solve_ms);
            }
            transport_ms.push(latency - resp.queue_ms - resp.solve_ms);
        }
        let degraded = r
            .response
            .as_ref()
            .is_some_and(|x| x.status == Status::Degraded);
        if failure.is_none() && !degraded && scaled <= LIMIT_MS {
            good += 1;
        }
        timed.push((r.due, latency));
        ops.push(Op {
            latency_ms: scaled,
            algorithm: q.algorithm,
            degraded,
            failed: failure.is_some(),
        });
    }
    rep.attempted = records.len() as u64;
    rep.answers = answers.hex();
    let window = (total - warm) as f64 / RATE;
    let goodput = (
        good as f64 / window,
        format!("complete, checked, <= {LIMIT_MS} ms, per second at {RATE}/s offered"),
    );
    let raw: Vec<f64> = timed.iter().map(|&(_, ms)| ms).collect();
    let slowdown = host.scale(&timed).1;
    let raw_setups: Vec<f64> = setups.iter().map(|&(_, s)| s).collect();
    rep.lines.push(host.line(slowdown, &raw, &raw_setups));
    rep.end_to_end(&host.scale(&setups).0, &ops, TAIL_CAP, goodput, heap);
    put_ingest(&mut rep, csv.len(), &ingest);
    rep.put(
        "index.s",
        stats::median(&index),
        index.len(),
        "median table -> instance",
    );

    let n = records.len();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let enc: Vec<f64> = records.iter().map(|r| us(r.encode)).collect();
    let dec: Vec<f64> = records
        .iter()
        .filter(|r| r.received.is_some())
        .map(|r| us(r.decode))
        .collect();
    let bytes: Vec<f64> = records
        .iter()
        .filter(|r| r.bytes > 0)
        .map(|r| r.bytes as f64)
        .collect();
    rep.put(
        "protocol.encode_us",
        stats::median(&enc),
        enc.len(),
        "median request-line encode",
    );
    rep.put(
        "protocol.decode_us",
        stats::median(&dec),
        dec.len(),
        "median response-line decode",
    );
    rep.put(
        "protocol.response_bytes",
        stats::median(&bytes),
        bytes.len(),
        "median response line",
    );
    let lookups = (hits + misses).max(1) as f64;
    rep.put(
        "cache.hit_ratio",
        hits as f64 / lookups,
        (hits + misses) as usize,
        "hits / lookups, whole run",
    );
    rep.put("cache.evictions", evictions as f64, n, "whole run");
    rep.put(
        "cache.dup_inflight_misses",
        dup_inflight as f64,
        n,
        "misses on a key with an unanswered earlier request",
    );
    let pct = |xs: &[f64], p: f64| {
        if xs.is_empty() {
            0.0
        } else {
            stats::percentile(&stats::sorted(xs), p)
        }
    };
    rep.put(
        "admission.queue_ms_p50",
        pct(&queue_ms, 50.0),
        queue_ms.len(),
        "misses after warm-up",
    );
    rep.put(
        "admission.queue_ms_p99",
        pct(&queue_ms, 99.0),
        queue_ms.len(),
        "misses after warm-up",
    );
    rep.put(
        "admission.tier_max",
        f64::from(tier_max),
        n,
        "highest tier in any response",
    );
    rep.put(
        "admission.tier_raises",
        gate.tier_raises as f64,
        n,
        "gate snapshot at the end",
    );
    rep.put(
        "dispatch.solve_ms_p50",
        pct(&solve_ms, 50.0),
        solve_ms.len(),
        "misses after warm-up",
    );
    rep.put(
        "dispatch.solve_ms_p99",
        pct(&solve_ms, 99.0),
        solve_ms.len(),
        "misses after warm-up",
    );
    rep.put(
        "dispatch.retries",
        retries as f64,
        n,
        "attempts beyond the first",
    );
    rep.put(
        "transport.overhead_ms_p50",
        stats::median(&transport_ms),
        transport_ms.len(),
        "latency - queue_ms - solve_ms",
    );
    let late: Vec<f64> = records.iter().map(Record::late_ms).collect();
    rep.put(
        "generator.late_ms_p99",
        pct(&late, 99.0),
        late.len(),
        "send time - due time",
    );
    rep.put(
        "alloc.bytes_per_op",
        used.bytes as f64 / n.max(1) as f64,
        n,
        "client and server, per request",
    );
    rep.put(
        "alloc.count_per_op",
        used.count as f64 / n.max(1) as f64,
        n,
        "client and server, per request",
    );
    let per_solve = |x: f64| x / solves.max(1) as f64;
    let note = "server totals per miss, from Prometheus";
    rep.put(
        "lattice.benefits",
        per_solve(prom(&prometheus, "scwsc_benefits_computed_total", None)),
        solves,
        note,
    );
    rep.put(
        "lattice.postings",
        per_solve(prom(&prometheus, "scwsc_postings_scanned_total", None)),
        solves,
        note,
    );
    rep.put(
        "lattice.guesses",
        per_solve(prom(&prometheus, "scwsc_guesses_total", None)),
        solves,
        note,
    );
    rep.put(
        "lattice.stale_pops",
        per_solve(prom(&prometheus, "scwsc_heap_stale_pops_total", None)),
        solves,
        note,
    );
    let phase = |p: &str| {
        per_solve(prom(
            &prometheus,
            "scwsc_phase_seconds_total",
            Some(&format!("phase=\"{p}\"")),
        ))
    };
    rep.put(
        "lattice.expand_self_s",
        phase("expand"),
        solves,
        "server phase total per miss (a leaf span)",
    );
    rep.put(
        "lattice.guess_self_s",
        phase("guess"),
        solves,
        "server phase total per miss (a leaf span)",
    );

    if rec.on() {
        for (j, r) in records.iter().enumerate() {
            let end = r.received.unwrap_or(ended);
            let root = rec.record(j as u64, None, "round_trip", r.due, end);
            rec.record(j as u64, Some(root), "encode", r.sent, r.sent + r.encode);
            if let Some(got) = r.received {
                rec.record(j as u64, Some(root), "decode", got, got + r.decode);
            }
            rec.field(root, "key", ranks[j] as f64);
            rec.field(root, "late_ms", r.late_ms());
            if let Some(resp) = &r.response {
                rec.field(root, "cached", f64::from(u8::from(resp.cached)));
                rec.field(root, "tier", f64::from(resp.tier));
                rec.field(root, "queue_ms", resp.queue_ms);
                rec.field(root, "solve_ms", resp.solve_ms);
            }
        }
    }
    crate::dump_spans(run, &rec, &mut rep, "serve-zipf");
    rep
}

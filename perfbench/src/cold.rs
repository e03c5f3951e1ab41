//! `cold-oneshot`: the one-shot solve path, once per instance. Each
//! operation reads a CSV file, indexes it, answers one cheap query and
//! encodes the answer as a response line, reusing nothing across
//! operations.

use crate::alloc::{self, PeakWindows};
use crate::batch::{fold_answer, put_ingest, secs};
use crate::check::{self, Outcome, Rows};
use crate::gen::{self, Fingerprint};
use crate::trace::Recorder;
use crate::{stats, Op, Report, Run};
use scwsc_core::solver::{Algorithm, Solver};
use scwsc_core::{Deadline, NoopObserver, SolveOutcome, ThreadPool, Threads};
use scwsc_patterns::PatternInstance;
use scwsc_serve::{Response, Status};
use std::time::{Duration, Instant};

/// Rows per CSV file.
const ROWS: usize = 40_000;
/// Distinct CSV files; operation `i` reads file `i % POOL`.
const POOL: usize = 4;
/// Tick budget of the CMC instances: enough to start, small enough that
/// the answer is a certified partial one and the solve stays cheap.
const CMC_TICKS: u64 = 2_000;

pub fn cold_oneshot(run: &Run) -> Report {
    let mut rec = Recorder::new(run.trace);
    let mut inputs = Fingerprint::default();
    let mut paths = Vec::new();
    let mut bytes = Vec::new();
    let queries: Vec<_> = (0..POOL).map(|i| gen::oneshot_query(run.seed, i)).collect();
    for (i, q) in queries.iter().enumerate() {
        let csv = gen::lbl_csv(ROWS, gen::pool_seed(run.seed, POOL, i));
        inputs.str(&csv).query(q);
        let path = run.work_dir.join(format!("oneshot-{i}.csv"));
        std::fs::write(&path, &csv).expect("work directory is writable");
        bytes.push(csv.len());
        paths.push(path);
    }
    let mut rep = Report {
        inputs: inputs.hex(),
        ..Report::default()
    };
    let pool = ThreadPool::new(Threads::serial());
    let (mut setups, mut ingest, mut index) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = Vec::new();
    let mut first: Vec<Option<Result<Outcome, String>>> = vec![None; POOL];
    let mut same = Vec::new();
    let setup_peak = alloc::peak_mb();
    let windows = PeakWindows::start(Duration::from_secs(1));
    let start = Instant::now();
    // Whole rounds over the pool, so every run times the same instances.
    while ops.len() % POOL != 0 || secs(start, Instant::now()) < run.seconds {
        let i = ops.len() % POOL;
        let q = &queries[i];
        let trace = ops.len() as u64;
        let t0 = Instant::now();
        let table = scwsc_data::csv::read_table(&paths[i]).expect("generated csv parses");
        let t1 = Instant::now();
        let instance = PatternInstance::new(table);
        let t2 = Instant::now();
        let deadline = match q.algorithm {
            Algorithm::Cwsc => Deadline::unbounded(),
            Algorithm::Cmc => Deadline::unbounded().with_tick_budget(CMC_TICKS),
        };
        let solved = instance.solve(q, &pool, &deadline, &mut NoopObserver);
        let t3 = Instant::now();
        let line = encode(trace, &solved);
        let t4 = Instant::now();
        drop(instance);
        let t5 = Instant::now();

        setups.push(secs(t0, t2));
        ingest.push(secs(t0, t1));
        index.push(secs(t1, t2));
        let root = rec.record(trace, None, "instance", t0, t5);
        rec.record(trace, Some(root), "ingest", t0, t1);
        rec.record(trace, Some(root), "index", t1, t2);
        rec.record(trace, Some(root), "solve", t2, t3);
        let enc = rec.record(trace, Some(root), "encode", t3, t4);
        rec.field(enc, "bytes", line.len() as f64);

        let result = solved
            .map(|o| Outcome {
                degraded: o.is_degraded(),
                answer: o.value().clone(),
            })
            .map_err(|e| e.to_string());
        let degraded = result.as_ref().is_ok_and(|o| o.degraded);
        same.push(match &first[i] {
            None => {
                first[i] = Some(result);
                true
            }
            Some(Ok(a)) => result.is_ok_and(|b| {
                a.degraded == b.degraded && check::same_answer(&a.answer, &b.answer)
            }),
            Some(Err(_)) => false,
        });
        ops.push(Op {
            latency_ms: secs(t0, t5) * 1e3,
            algorithm: q.algorithm,
            degraded,
            failed: false,
        });
    }
    let elapsed = secs(start, Instant::now());
    let heap = alloc::heap_metric(setup_peak, &windows.finish());

    let mut answers = Fingerprint::default();
    let mut verdicts = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let result = first[i]
            .take()
            .unwrap_or_else(|| Err("instance never reached".into()));
        fold_answer(&mut answers, q, &result);
        let csv = std::fs::read_to_string(&paths[i]).expect("work file readable");
        let rows = Rows::parse(&csv).expect("generated csv parses");
        verdicts.push(result.and_then(|o| check::check_patterns(&rows, q, &o)));
    }
    rep.answers = answers.hex();
    for (k, op) in ops.iter_mut().enumerate() {
        let i = k % POOL;
        let why = match (&verdicts[i], same[k]) {
            (Err(e), _) => Some(e.clone()),
            (Ok(()), false) => Some("answer differs from the first solve of the same file".into()),
            (Ok(()), true) => None,
        };
        if let Some(why) = why {
            op.failed = true;
            rep.fail(format!("oneshot-{i}: {why}"));
        }
    }
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    rep.attempted = ops.len() as u64;
    let completed = ops.iter().filter(|o| !o.failed).count() as f64;
    let throughput = (
        completed / elapsed,
        format!("instances per second, {elapsed:.2}s"),
    );
    rep.end_to_end(&setups, &ops, 90.0, throughput, heap);
    let mean_bytes = bytes.iter().sum::<usize>() / bytes.len();
    put_ingest(&mut rep, mean_bytes, &ingest);
    rep.put(
        "index.s",
        stats::median(&index),
        index.len(),
        "median table -> instance",
    );
    let (enc_s, n) = rec.self_secs("encode");
    if n > 0 {
        rep.put(
            "protocol.encode_us",
            enc_s / n as f64 * 1e6,
            n,
            "mean response-line encode",
        );
    }
    crate::dump_spans(run, &rec, &mut rep, "cold-oneshot");
    rep
}

/// The answer as the one-shot path returns it: one response line.
fn encode(
    id: u64,
    solved: &Result<SolveOutcome<scwsc_core::solver::Answer>, scwsc_core::EngineError>,
) -> String {
    let response = match solved {
        Ok(outcome) => Response {
            status: if outcome.is_degraded() {
                Status::Degraded
            } else {
                Status::Complete
            },
            answer: Some(outcome.value().clone()),
            certificate: outcome.certificate().cloned(),
            error: None,
            attempts: 1,
            ..Response::error(id, String::new())
        },
        Err(e) => Response::error(id, e.to_string()),
    };
    response.to_line()
}

//! The closed-loop workloads: `batch-solve` (pattern table, lattice
//! solvers) and `cube-batch` (full cube as a set system, core solvers).
//! One client solves one query after another through `Solver::solve` on
//! warm instances, cycling through the workload's distinct queries.

use crate::alloc::{heap_metric, PeakWindows, Snapshot};
use crate::check::{self, Outcome, Rows};
use crate::gen::{self, Fingerprint};
use crate::host::HostClock;
use crate::trace::Recorder;
use crate::{stats, Op, Report, Run};
use scwsc_core::solver::{Query, Solver};
use scwsc_core::{
    Deadline, Fanout, MetricsRecorder, NoopObserver, SpanNode, SpanProfiler, SystemInstance,
    ThreadPool, Threads,
};
use scwsc_patterns::{enumerate_all, CostFn, PatternInstance};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of each `batch-solve` table (and of the `serve-zipf` one).
pub const BATCH_ROWS: usize = 10_000;
/// Rows of the `cube-batch` table before full-cube enumeration.
const CUBE_ROWS: usize = 5_000;
/// Tables (and so instances) per run, each drawn from its own seed. Pass
/// `p` solves query `j` on instance `(j + p) % TABLES`, so every family's
/// median spans several samples of the table distribution instead of
/// resting on how one seed's rows fell.
pub const TABLES: usize = 4;
/// Seconds between set-ups while measuring; each rebuilds the next
/// table's instance in turn. The host's speed switches between a fast
/// and a slow state every second or so and can keep one for seconds:
/// set-ups taken back to back before measuring all fell in one state,
/// so their median jumped 1.6x from run to run. Spread over the run,
/// they sample its mix of states as the operations do. `setup_s` is the
/// median of every set-up.
const RESETUP_S: f64 = 1.0;

/// Trace ids of set-up spans sit above every operation's trace id.
pub const SETUP_TRACE: u64 = 1 << 40;

pub fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Fingerprint of the CSV inputs and their query stream.
pub fn input_fingerprint(csvs: &[String], queries: &[Query]) -> String {
    let mut fp = Fingerprint::default();
    for csv in csvs {
        fp.str(csv);
    }
    for q in queries {
        fp.query(q);
    }
    fp.hex()
}

/// Folds one answer (or its error) into an answer fingerprint.
pub fn fold_answer(fp: &mut Fingerprint, q: &Query, result: &Result<Outcome, String>) {
    fp.query(q);
    match result {
        Ok(o) => {
            let a = &o.answer;
            fp.str(if o.degraded { "degraded" } else { "complete" })
                .str(&format!(
                    "{} {} {} {:?}",
                    a.size, a.covered, a.target, a.total_cost
                ));
            for label in &a.labels {
                fp.str(label);
            }
        }
        Err(e) => {
            fp.str("error").str(e);
        }
    }
}

/// Which solver layer a workload's phase metrics describe.
#[derive(Clone, Copy, PartialEq)]
enum Layer {
    /// `patterns.lattice`: `opt_cwsc` / `opt_cmc` over a pattern table.
    Lattice,
    /// `core.algorithms`: set-system `cwsc` / `cmc`.
    Greedy,
}

/// The [`TABLES`] CSV inputs of a closed-loop run.
fn tables(rows: usize, seed: u64) -> Vec<String> {
    (0..TABLES)
        .map(|i| gen::lbl_csv(rows, gen::pool_seed(seed, TABLES, i)))
        .collect()
}

pub fn batch_solve(run: &Run) -> Report {
    let csvs = tables(BATCH_ROWS, run.seed);
    let queries = gen::batch_queries(run.seed);
    let mut rec = Recorder::new(run.trace);
    let rep = Report {
        inputs: input_fingerprint(&csvs, &queries),
        ..Report::default()
    };
    let mut builder = Builder::new(&csvs, ("index", "index.s"), pattern_instance);
    let instances = (0..TABLES).map(|t| builder.build(t, &mut rec)).collect();
    let rows: Vec<Rows> = csvs
        .iter()
        .map(|csv| Rows::parse(csv).expect("generated csv parses"))
        .collect();
    closed_loop(
        run,
        builder,
        instances,
        &queries,
        Layer::Lattice,
        rec,
        rep,
        |t, q, o| check::check_patterns(&rows[t], q, o),
    )
}

pub fn cube_batch(run: &Run) -> Report {
    let csvs = tables(CUBE_ROWS, run.seed);
    let queries = gen::cube_queries(run.seed);
    let mut rec = Recorder::new(run.trace);
    let mut rep = Report {
        inputs: input_fingerprint(&csvs, &queries),
        ..Report::default()
    };
    let mut builder = Builder::new(&csvs, ("enumerate", "enumerate.s"), cube_instance);
    let instances: Vec<SystemInstance> = (0..TABLES).map(|t| builder.build(t, &mut rec)).collect();
    // Rebuilt instances equal these, so these systems check every answer.
    let systems: Vec<_> = instances.iter().map(|i| i.system().clone()).collect();
    let sets: Vec<f64> = systems.iter().map(|s| s.num_sets() as f64).collect();
    rep.put(
        "enumerate.sets",
        stats::median(&sets),
        sets.len(),
        "patterns materialized, median over tables",
    );
    closed_loop(
        run,
        builder,
        instances,
        &queries,
        Layer::Greedy,
        rec,
        rep,
        |t, q, o| check::check_sets(&systems[t], q, o),
    )
}

pub fn put_ingest(rep: &mut Report, bytes: usize, ingest: &[f64]) {
    let s = stats::median(ingest);
    rep.put("ingest.s", s, ingest.len(), "median CSV bytes -> table");
    rep.put(
        "ingest.mb_per_s",
        bytes as f64 / 1e6 / s,
        ingest.len(),
        "CSV MB / median ingest",
    );
}

/// CSV bytes -> table -> indexed `PatternInstance`; returns the instance
/// and when ingest ended.
fn pattern_instance(csv: &str) -> (PatternInstance, Instant) {
    let table = scwsc_data::csv::table_from_csv(csv).expect("generated csv parses");
    let ingested = Instant::now();
    (PatternInstance::new(table), ingested)
}

/// CSV bytes -> table -> full cube -> `SystemInstance`; returns the
/// instance and when ingest ended.
fn cube_instance(csv: &str) -> (SystemInstance, Instant) {
    let table = scwsc_data::csv::table_from_csv(csv).expect("generated csv parses");
    let ingested = Instant::now();
    let cube = enumerate_all(&table, CostFn::Max);
    (SystemInstance::new(Arc::new(cube.system)), ingested)
}

/// Builds a closed-loop workload's instances from its CSV tables and
/// keeps every set-up's times: ingest, then the stage after it (`index`
/// or `enumerate`), each recorded as a span under `setup`. It also holds
/// the run's host clock, sampled before every set-up.
struct Builder<'a, S> {
    csvs: &'a [String],
    /// The stage's span name and metric name.
    stage: (&'static str, &'static str),
    make: fn(&str) -> (S, Instant),
    host: HostClock,
    /// Start and seconds of every set-up.
    total: Vec<(Instant, f64)>,
    ingest: Vec<f64>,
    staged: Vec<f64>,
}

impl<'a, S> Builder<'a, S> {
    fn new(
        csvs: &'a [String],
        stage: (&'static str, &'static str),
        make: fn(&str) -> (S, Instant),
    ) -> Self {
        Builder {
            csvs,
            stage,
            make,
            host: HostClock::new(),
            total: Vec::new(),
            ingest: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Sets up table `t`'s instance.
    fn build(&mut self, t: usize, rec: &mut Recorder) -> S {
        let trace = SETUP_TRACE + self.total.len() as u64;
        self.host.tick();
        let t0 = Instant::now();
        let (instance, t1) = (self.make)(&self.csvs[t]);
        let t2 = Instant::now();
        self.total.push((t0, secs(t0, t2)));
        self.ingest.push(secs(t0, t1));
        self.staged.push(secs(t1, t2));
        let root = rec.record(trace, None, "setup", t0, t2);
        rec.record(trace, Some(root), "ingest", t0, t1);
        rec.record(trace, Some(root), self.stage.0, t1, t2);
        instance
    }

    /// Every set-up's seconds at the nominal host speed.
    fn setups(&self) -> Vec<f64> {
        self.host.scale(&self.total).0
    }

    /// The set-up layers' metrics, over every set-up, as measured.
    fn report(&self, rep: &mut Report) {
        let bytes = self.csvs.iter().map(String::len).sum::<usize>() / self.csvs.len().max(1);
        put_ingest(rep, bytes, &self.ingest);
        rep.put(
            self.stage.1,
            stats::median(&self.staged),
            self.staged.len(),
            "median of set-ups",
        );
    }
}

/// Self seconds and completions of the solver spans named in `names`.
fn phase(node: &SpanNode, names: &[&str], acc: &mut (f64, u64)) {
    if names.contains(&node.name) {
        acc.0 += node.self_secs();
        acc.1 += node.count;
    }
    for child in &node.children {
        phase(child, names, acc);
    }
}

/// Runs the closed loop for at least `run.seconds`, in whole passes over
/// `queries`, and fills in the report. Pass `p` solves query `j` on
/// `instances[(j + p) % instances.len()]`; `check` gets the instance's
/// index. Every [`RESETUP_S`] the next instance in turn is dropped and
/// set up again by `builder`, untimed as an operation and left out of
/// the throughput's elapsed time. Between operations the builder's host
/// clock samples the host's speed; the end-to-end times are stated at
/// its nominal speed, and the time the samples take is left out too.
///
/// In a traced run every query is solved twice in a row, once with the
/// program's `SpanProfiler` and `MetricsRecorder` attached and once with
/// no observer, in alternating order, so `telemetry.overhead_pct`
/// compares the same queries.
#[allow(clippy::too_many_arguments)]
fn closed_loop<S: Solver>(
    run: &Run,
    mut builder: Builder<S>,
    instances: Vec<S>,
    queries: &[Query],
    layer: Layer,
    mut rec: Recorder,
    mut rep: Report,
    check: impl Fn(usize, &Query, &Outcome) -> Result<(), String>,
) -> Report {
    let pool = ThreadPool::new(Threads::serial());
    let solve = |s: &S, q: &Query, obs: &mut dyn scwsc_core::Observer| {
        s.solve(q, &pool, &Deadline::unbounded(), obs)
            .map(|o| Outcome {
                degraded: o.is_degraded(),
                answer: o.value().clone(),
            })
            .map_err(|e| e.to_string())
    };
    let tables = instances.len();
    let mut instances: Vec<Option<S>> = instances.into_iter().map(Some).collect();
    // Per (instance, query) case `t * queries.len() + j`: its first answer.
    let n = queries.len();
    let mut first: Vec<Option<Result<Outcome, String>>> = vec![None; tables * n];
    // Per operation: case index and whether it matched the first answer.
    let mut done: Vec<(usize, bool)> = Vec::new();
    let mut ops = Vec::new();
    let mut op_starts = Vec::new();
    let (mut prof, mut metrics) = (SpanProfiler::new(), MetricsRecorder::new());
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let mut plain_alloc = Snapshot::default();
    let setup_peak = crate::alloc::peak_mb();
    let windows = PeakWindows::start(Duration::from_secs(1));
    let start = Instant::now();
    let (mut last_setup, mut rebuilt, mut paused) = (start, 0, 0.0);
    let mut i = 0;
    // Whole passes only, so every run times the same multiset of queries.
    while i % n != 0 || secs(start, Instant::now()) < run.seconds {
        if secs(last_setup, Instant::now()) >= RESETUP_S {
            let r = rebuilt % tables;
            let t0 = Instant::now();
            // Drop first, so the heap never holds one instance too many.
            instances[r] = None;
            instances[r] = Some(builder.build(r, &mut rec));
            rebuilt += 1;
            last_setup = Instant::now();
            paused += secs(t0, last_setup);
        }
        let j = i % n;
        let t = (j + i / n) % tables;
        let s = instances[t].as_ref().expect("instance set up");
        let c = t * n + j;
        let q = &queries[j];
        let modes: &[bool] = match (run.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in modes {
            let a0 = Snapshot::now();
            let t0 = Instant::now();
            let result = if traced {
                let mut fan = Fanout::new();
                fan.attach(&mut prof).attach(&mut metrics);
                solve(s, q, &mut fan)
            } else {
                solve(s, q, &mut NoopObserver)
            };
            let t1 = Instant::now();
            let used = a0.until(Snapshot::now());
            let ms = secs(t0, t1) * 1e3;
            if traced {
                traced_ms.push(ms);
            } else {
                plain_ms.push(ms);
                plain_alloc.count += used.count;
                plain_alloc.bytes += used.bytes;
            }
            let span = rec.record(ops.len() as u64, None, "solve", t0, t1);
            rec.field(span, "query", j as f64);
            rec.field(span, "instance", t as f64);
            rec.field(span, "observed", f64::from(u8::from(traced)));
            let degraded = result.as_ref().is_ok_and(|o| o.degraded);
            let same = match &first[c] {
                None => {
                    first[c] = Some(result);
                    true
                }
                Some(prev) => match (prev, &result) {
                    (Ok(a), Ok(b)) => {
                        a.degraded == b.degraded && check::same_answer(&a.answer, &b.answer)
                    }
                    _ => false,
                },
            };
            done.push((c, same));
            op_starts.push(t0);
            ops.push(Op {
                latency_ms: ms,
                algorithm: q.algorithm,
                degraded,
                failed: false,
            });
        }
        paused += builder.host.tick();
        i += 1;
    }
    let elapsed = secs(start, Instant::now()) - paused;
    let heap = heap_metric(setup_peak, &windows.finish());
    let raw: Vec<f64> = ops.iter().map(|o| o.latency_ms).collect();
    let timed: Vec<(Instant, f64)> = op_starts.into_iter().zip(raw.iter().copied()).collect();
    let (scaled, slowdown) = builder.host.scale(&timed);
    for (op, ms) in ops.iter_mut().zip(scaled) {
        op.latency_ms = ms;
    }
    let raw_setups: Vec<f64> = builder.total.iter().map(|&(_, s)| s).collect();
    rep.lines
        .push(builder.host.line(slowdown, &raw, &raw_setups));

    // Cases the window did not reach are solved untimed, so the answer
    // fingerprint always covers every query on every instance.
    let mut answers = Fingerprint::default();
    let mut verdicts = Vec::with_capacity(first.len());
    for (c, slot) in first.iter_mut().enumerate() {
        let (t, q) = (c / n, &queries[c % n]);
        let result = slot.take().unwrap_or_else(|| {
            let s = instances[t].as_ref().expect("instance set up");
            solve(s, q, &mut NoopObserver)
        });
        answers.str(&t.to_string());
        fold_answer(&mut answers, q, &result);
        verdicts.push(result.and_then(|o| check(t, q, &o)));
    }
    rep.answers = answers.hex();
    for (op, &(c, same)) in ops.iter_mut().zip(&done) {
        let why = match (&verdicts[c], same) {
            (Err(e), _) => Some(e.clone()),
            (Ok(()), false) => Some("answer differs from the first solve of the same query".into()),
            (Ok(()), true) => None,
        };
        if let Some(why) = why {
            op.failed = true;
            rep.fail(format!(
                "instance {} {}: {why}",
                c / n,
                gen::query_label(&queries[c % n])
            ));
        }
    }
    rep.attempted = ops.len() as u64;
    let completed = ops.iter().filter(|o| !o.failed).count() as f64;
    let throughput = (
        completed * slowdown / elapsed,
        format!("closed loop, 1 client, {elapsed:.2}s at slowdown {slowdown:.4}"),
    );
    rep.end_to_end(&builder.setups(), &ops, 90.0, throughput, heap);
    builder.report(&mut rep);

    let plain = plain_ms.len().max(1) as f64;
    rep.put(
        "alloc.bytes_per_op",
        plain_alloc.bytes as f64 / plain,
        plain_ms.len(),
        "unobserved solves",
    );
    rep.put(
        "alloc.count_per_op",
        plain_alloc.count as f64 / plain,
        plain_ms.len(),
        "unobserved solves",
    );
    if run.trace {
        put_solver_layers(&mut rep, layer, &prof, &metrics, traced_ms.len());
        let overhead = (stats::median(&traced_ms) / stats::median(&plain_ms) - 1.0) * 100.0;
        rep.put(
            "telemetry.overhead_pct",
            overhead,
            traced_ms.len(),
            "observed vs unobserved p50, same queries",
        );
    }
    crate::dump_spans(
        run,
        &rec,
        &mut rep,
        if layer == Layer::Lattice {
            "batch-solve"
        } else {
            "cube-batch"
        },
    );
    rep
}

/// Solver-phase counts and self times, per observed solve.
fn put_solver_layers(
    rep: &mut Report,
    layer: Layer,
    prof: &SpanProfiler,
    m: &MetricsRecorder,
    n: usize,
) {
    let per = |x: f64| x / n.max(1) as f64;
    let tree = prof.tree();
    let self_of = |names: &[&str]| {
        let mut acc = (0.0, 0);
        phase(&tree, names, &mut acc);
        acc
    };
    let note = "per observed solve";
    match layer {
        Layer::Lattice => {
            rep.put(
                "lattice.benefits",
                per(m.benefits_computed as f64),
                n,
                "Fig. 6 patterns considered per solve",
            );
            rep.put("lattice.postings", per(m.postings_scanned as f64), n, note);
            rep.put("lattice.guesses", per(m.guesses as f64), n, note);
            rep.put("lattice.stale_pops", per(m.heap_stale_pops as f64), n, note);
            rep.put(
                "lattice.expand_self_s",
                per(self_of(&["expand"]).0),
                n,
                note,
            );
            rep.put("lattice.guess_self_s", per(self_of(&["guess"]).0), n, note);
        }
        Layer::Greedy => {
            rep.put(
                "greedy.benefits",
                per(m.benefits_computed as f64),
                n,
                "benefit computations per solve",
            );
            rep.put("greedy.guesses", per(m.guesses as f64), n, note);
            rep.put("greedy.guess_self_s", per(self_of(&["guess"]).0), n, note);
            rep.put("greedy.select_self_s", per(self_of(&["select"]).0), n, note);
        }
    }
    let (scan_s, scan_calls) = self_of(&["scan", "scan_prune"]);
    rep.put("scan.calls", per(scan_calls as f64), n, note);
    rep.put("scan.self_s", per(scan_s), n, note);
    let pruned = m.scan_candidates_pruned as f64;
    rep.put(
        "scan.pruned_ratio",
        pruned / (pruned + m.benefits_computed as f64).max(1.0),
        n,
        "scan-pruned / (scan-pruned + benefits computed)",
    );
}

//! `perfbench`: the end-to-end and per-layer benchmark of the SCWSC
//! solvers and of `scwsc_serve`. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-solve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it print every metric with its unit and sample count, and the input
//! and answer fingerprints.

mod alloc;
mod batch;
mod check;
mod cold;
mod gen;
mod host;
mod loadgen;
mod serve;
mod stats;
mod trace;

use scwsc_core::solver::Algorithm;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["batch-solve", "cold-oneshot", "serve-zipf", "cube-batch"];

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("cwsc_p50_ms", "ms"),
    ("cmc_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("complete_share", "ratio"),
    ("ok_share", "ratio"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics: every traced run reports each of them; those a
/// workload's path does not reach read 0 and are marked `n/a`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("ingest.s", "s"),
    ("ingest.mb_per_s", "MB/s"),
    ("index.s", "s"),
    ("enumerate.s", "s"),
    ("enumerate.sets", "count"),
    ("lattice.benefits", "count"),
    ("lattice.postings", "count"),
    ("lattice.guesses", "count"),
    ("lattice.stale_pops", "count"),
    ("lattice.expand_self_s", "s"),
    ("lattice.guess_self_s", "s"),
    ("greedy.benefits", "count"),
    ("greedy.guesses", "count"),
    ("greedy.guess_self_s", "s"),
    ("greedy.select_self_s", "s"),
    ("scan.calls", "count"),
    ("scan.self_s", "s"),
    ("scan.pruned_ratio", "ratio"),
    ("alloc.bytes_per_op", "B"),
    ("alloc.count_per_op", "count"),
    ("telemetry.overhead_pct", "%"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.response_bytes", "B"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.dup_inflight_misses", "count"),
    ("admission.queue_ms_p50", "ms"),
    ("admission.queue_ms_p99", "ms"),
    ("admission.tier_max", "count"),
    ("admission.tier_raises", "count"),
    ("dispatch.solve_ms_p50", "ms"),
    ("dispatch.solve_ms_p99", "ms"),
    ("dispatch.retries", "count"),
    ("transport.overhead_ms_p50", "ms"),
    ("generator.late_ms_p99", "ms"),
];

/// What one invocation was asked to do.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

impl Run {
    /// Where the traced run writes its span dump.
    pub fn span_path(&self, workload: &str) -> PathBuf {
        self.work_dir
            .join(format!("spans-{workload}-seed{}.jsonl", self.seed))
    }
}

/// One measured value with its sample count and a note on its base.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub n: usize,
    pub note: String,
}

/// One operation of a workload, as the end-to-end metrics see it.
pub struct Op {
    pub latency_ms: f64,
    pub algorithm: Algorithm,
    pub degraded: bool,
    pub failed: bool,
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub inputs: String,
    pub answers: String,
    pub lines: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, n: usize, note: impl Into<String>) {
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            n,
            note: note.into(),
        });
    }

    /// Records a failure; the first few are printed.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.lines.len() < 10 {
            self.lines.push(format!("FAILED {what}"));
        }
    }

    /// The end-to-end metrics common to every workload. `setups` are the
    /// set-up samples in seconds; `tail_cap` is the highest tail
    /// percentile the workload is sized for; `ops_per_s` is computed by
    /// the workload (closed-loop throughput or open-loop goodput); `heap`
    /// comes from [`alloc::heap_metric`].
    pub fn end_to_end(
        &mut self,
        setups: &[f64],
        ops: &[Op],
        tail_cap: f64,
        ops_per_s: (f64, String),
        heap: (f64, String),
    ) {
        let lat: Vec<f64> = ops.iter().map(|o| o.latency_ms).collect();
        let sorted = stats::sorted(&lat);
        self.put(
            "setup_s",
            stats::median(setups),
            setups.len(),
            "median of set-ups",
        );
        self.put("p50_ms", stats::median(&lat), ops.len(), "per operation");
        match stats::tail_percentile(sorted.len(), tail_cap) {
            Some(p) => {
                let note = format!(
                    "p{p} per operation, {} beyond",
                    stats::beyond(sorted.len(), p)
                );
                self.put("tail_ms", stats::percentile(&sorted, p), ops.len(), note);
            }
            None => {
                let max = sorted.last().copied().unwrap_or(0.0);
                self.put(
                    "tail_ms",
                    max,
                    ops.len(),
                    "max: too few samples for a percentile",
                );
            }
        }
        for (name, alg) in [
            ("cwsc_p50_ms", Algorithm::Cwsc),
            ("cmc_p50_ms", Algorithm::Cmc),
        ] {
            let fam: Vec<f64> = ops
                .iter()
                .filter(|o| o.algorithm == alg)
                .map(|o| o.latency_ms)
                .collect();
            self.put(
                name,
                stats::median(&fam),
                fam.len(),
                format!("{} operations", alg.as_str()),
            );
        }
        self.put("ops_per_s", ops_per_s.0, ops.len(), ops_per_s.1);
        let n = ops.len().max(1) as f64;
        let complete = ops.iter().filter(|o| !o.degraded && !o.failed).count();
        let ok = ops.iter().filter(|o| !o.failed).count();
        self.put(
            "complete_share",
            complete as f64 / n,
            ops.len(),
            "complete, checked / attempted",
        );
        self.put("ok_share", ok as f64 / n, ops.len(), "checked / attempted");
        self.put("peak_heap_mb", heap.0, 1, heap.1);
    }
}

/// Writes a traced run's spans to the work directory.
pub fn dump_spans(run: &Run, rec: &trace::Recorder, rep: &mut Report, workload: &str) {
    if !rec.on() {
        return;
    }
    let path = run.span_path(workload);
    match std::fs::write(&path, rec.render()) {
        Ok(()) => rep
            .lines
            .push(format!("spans {} written to {}", rec.len(), path.display())),
        Err(e) => rep.fail(format!("writing {}: {e}", path.display())),
    }
}

fn run_workload(name: &str, run: &Run) -> Report {
    match name {
        "batch-solve" => batch::batch_solve(run),
        "cube-batch" => batch::cube_batch(run),
        "cold-oneshot" => cold::cold_oneshot(run),
        "serve-zipf" => serve::serve_zipf(run),
        _ => unreachable!("workload names are checked when parsing arguments"),
    }
}

/// Prints the report and returns the metrics JSON object's members.
fn print_report(name: &str, run: &Run, report: &Report) -> Vec<String> {
    println!(
        "== {name} seed={} seconds={} trace={}",
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    println!("fingerprint inputs  {}", report.inputs);
    println!("fingerprint answers {}", report.answers);
    for line in &report.lines {
        println!("{line}");
    }
    let wanted: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for &(metric, unit) in wanted {
        let found = report.metrics.iter().find(|m| m.name == metric);
        if found.is_none() && !run.trace {
            panic!("{name} did not report end-to-end metric {metric}");
        }
        let (value, n, note) = found.map_or((0.0, 0, "n/a on this workload"), |m| {
            (m.value, m.n, m.note.as_str())
        });
        println!("metric {metric:<26} {value:>14.6} {unit:<6} n={n:<6} {note}");
        json.push(format!(
            "\"{metric}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "attempted {} failed {} error_share {:.6}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    json
}

fn parse_args() -> Result<(String, Run), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let work_dir = PathBuf::from(".perfbench_work");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    Ok((
        workload,
        Run {
            seed,
            seconds,
            trace,
            work_dir,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let (mut attempted, mut failed, mut members) = (0, 0, Vec::new());
    for name in &names {
        alloc::reset_peak();
        let report = run_workload(name, &run);
        let json = print_report(name, &run, &report);
        attempted += report.attempted;
        failed += report.failed;
        if names.len() == 1 {
            members = json;
        } else {
            members.extend(json.into_iter().map(|m| format!("\"{name}/{}", &m[1..])));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        members.join(",")
    );
    ExitCode::SUCCESS
}

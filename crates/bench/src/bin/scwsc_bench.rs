//! `scwsc_bench` — record and compare `BENCH_*.json` performance
//! snapshots (DESIGN.md §10), and stress the program (§16, §17).
//!
//! `record` runs the registered workload suite and writes
//! `BENCH_<label>.json`; `--quick` lowers the rep count to 1 but never
//! the workload scale, so a quick run's deterministic counters still
//! match a committed full baseline. `diff` exits non-zero when the new
//! snapshot regresses: deterministic counters must match exactly,
//! timings and allocations within `--tolerance` (default 0.25). `soak`,
//! `trend`, `serve-load` and `flight-to-chrome` are listed with every
//! option by `scwsc_bench --help`.

use scwsc_bench::attribute::attribute;
use scwsc_bench::chrome_trace::flight_to_chrome;
use scwsc_bench::diff::{diff, DiffOptions};
use scwsc_bench::record::record_suite_with_metrics;
use scwsc_bench::registry;
use scwsc_bench::serve_load::{self, LoadOptions};
use scwsc_bench::snapshot::Snapshot;
use scwsc_bench::soak::{soak, SoakOptions};
use scwsc_bench::trend::{discover, load_timeline};
use scwsc_core::render_prometheus;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

// Installed here, not in the library: allocation statistics only move in
// binaries that opt into the counting allocator.
#[cfg(feature = "alloc-stats")]
#[global_allocator]
static ALLOC: scwsc_core::telemetry::alloc::CountingAlloc =
    scwsc_core::telemetry::alloc::CountingAlloc;

const USAGE: &str = "\
usage:
  scwsc_bench record [--label L] [--reps N] [--quick] [--suite full|smoke] [--only SUBSTR] [--out PATH] [--export-metrics PATH]
  scwsc_bench diff BASE NEW [--tolerance F] [--counters-only] [--attribute] [--top N]
  scwsc_bench soak [--iters N] [--workload SUBSTR] [--suite full|smoke] [--window W] [--timeline PATH] [--stall-after-ms MS]
  scwsc_bench trend [PATHS...] [--dir DIR] [--gate]
  scwsc_bench serve-load [--addr HOST:PORT] [--connections N] [--requests N] [--distinct N] [--deadline-ms MS] [--max-ticks N] [--retries N] [--timeout-ms MS] [--merge-snapshot PATH] [--label L] [--expect-clean]
  scwsc_bench flight-to-chrome IN OUT

record options:
  --label L     snapshot label and default output name BENCH_<L>.json [default: dev]
  --reps N      timing repetitions per workload [default: 5]
  --quick       one rep per workload (counters are unaffected: the
                workloads themselves never shrink)
  --suite S     workload suite: full | smoke [default: full]
  --only SUBSTR restrict the suite to workloads whose name contains
                SUBSTR (timing probes; such snapshots are not valid
                CI baselines)
  --out PATH    output path [default: BENCH_<label>.json]
  --export-metrics PATH  write the suite-wide merged counters/histograms
                in Prometheus text exposition format to PATH

diff options:
  --tolerance F   relative headroom for timings/allocations [default: 0.25]
  --counters-only compare only the deterministic work counters (CI mode)
  --attribute     walk both span trees and counter maps and print the
                  ranked movers (largest |self-time delta| first)
  --top N         rows per attribution section [default: 10]

soak options (continuous-telemetry endurance loop, DESIGN.md §16):
  --iters N       full suite iterations [default: 50]
  --workload SUBSTR  restrict the suite to workloads whose name contains
                  SUBSTR
  --suite S       workload suite: full | smoke [default: smoke]
  --window W      sliding-window width in solves [default: 8]
  --timeline PATH write a windowed-metrics JSONL timeline (one line per
                  iteration)
  --stall-after-ms MS  watchdog stall threshold [default: 5000]
  exits non-zero when any invariant breaks: non-monotone counters,
  drifting windowed quantiles, leaked allocator bytes, or a stall.

trend options (cross-snapshot trajectory, DESIGN.md §16):
  PATHS...   explicit BENCH_*.json files; when omitted, every
             BENCH_*.json under --dir is loaded
  --dir DIR  directory to scan [default: .]
  --gate     exit non-zero when any workload's latest median regresses
             >10% against its best-ever median

serve-load options (client load generator against a running scwsc_serve,
DESIGN.md §17):
  --addr HOST:PORT  server to load [default: 127.0.0.1:7575]
  --connections N   concurrent connections, barrier-released as one
                    burst [default: 4]
  --requests N      requests per connection [default: 64]
  --distinct N      distinct queries in the deterministic mix (small =
                    cache-heavy, large = admission-heavy) [default: 8]
  --deadline-ms MS  caller deadline forwarded per request
  --max-ticks N     caller tick-budget cap forwarded per request
  --retries N       retries per rejected request, sleeping the server's
                    retry_after_ms hint between attempts [default: 0]
  --timeout-ms MS   per-response wait before declaring the request
                    dropped [default: 30000]
  --merge-snapshot PATH  append/replace a 'serve/load' workload in the
                    BENCH_*.json at PATH (created under --label if absent)
  --label L         label for a freshly created snapshot [default: serve]
  --expect-clean    exit non-zero unless the serving contract held:
                    zero dropped, every degrade certified, every
                    rejection carrying retry_after_ms

flight-to-chrome:
  converts a flight-recorder dump (the JSONL written by scwsc_solve
  --flight-dump) into Chrome tracing JSON: open OUT in chrome://tracing
  or https://ui.perfetto.dev. One process per worker; causal-tree spans
  become nested duration events, buffered ring events become instants.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("soak") => cmd_soak(&args[1..]),
        Some("trend") => cmd_trend(&args[1..]),
        Some("serve-load") => cmd_serve_load(&args[1..]),
        Some("flight-to-chrome") => cmd_flight_to_chrome(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(format!("expected a subcommand\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("scwsc_bench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn cmd_record(args: &[String]) -> Result<ExitCode, String> {
    let mut label = "dev".to_string();
    let mut reps = 5usize;
    let mut quick = false;
    let mut suite_name = "full".to_string();
    let mut only: Option<String> = None;
    let mut out: Option<String> = None;
    let mut export_metrics: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--label" => label = take(&mut it, "--label")?,
            "--export-metrics" => export_metrics = Some(take(&mut it, "--export-metrics")?),
            "--reps" => {
                reps = take(&mut it, "--reps")?
                    .parse()
                    .map_err(|_| "--reps expects a positive integer".to_string())?
            }
            "--quick" => quick = true,
            "--suite" => suite_name = take(&mut it, "--suite")?,
            "--only" => only = Some(take(&mut it, "--only")?),
            "--out" => out = Some(take(&mut it, "--out")?),
            other => return Err(format!("unknown record option '{other}'\n{USAGE}")),
        }
    }
    if reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    if quick {
        reps = 1;
    }
    let mut suite = registry::suite(&suite_name)
        .ok_or_else(|| format!("unknown suite '{suite_name}' (expected full|smoke)"))?;
    if let Some(pat) = &only {
        suite.retain(|w| w.name.contains(pat.as_str()));
        if suite.is_empty() {
            return Err(format!(
                "--only '{pat}' matches no workload in '{suite_name}'"
            ));
        }
    }
    let path = out.unwrap_or_else(|| format!("BENCH_{label}.json"));

    eprintln!(
        "recording suite '{suite_name}' ({} workloads, {reps} rep(s)) as '{label}'",
        suite.len()
    );
    let (snapshot, metrics) =
        record_suite_with_metrics(&suite, &label, reps, |line| eprintln!("  {line}"));
    std::fs::write(&path, snapshot.to_json().to_pretty())
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path}");
    if let Some(prom_path) = export_metrics {
        std::fs::write(&prom_path, render_prometheus(&metrics, None))
            .map_err(|e| format!("writing {prom_path}: {e}"))?;
        eprintln!("wrote {prom_path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut attribute_movers = false;
    let mut top = 10usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                opts.tolerance = take(&mut it, "--tolerance")?
                    .parse()
                    .map_err(|_| "--tolerance expects a number".to_string())?
            }
            "--counters-only" => opts.counters_only = true,
            "--attribute" => attribute_movers = true,
            "--top" => {
                top = take(&mut it, "--top")?
                    .parse()
                    .map_err(|_| "--top expects a positive integer".to_string())?
            }
            other if !other.starts_with("--") => paths.push(arg),
            other => return Err(format!("unknown diff option '{other}'\n{USAGE}")),
        }
    }
    let [base_path, new_path] = paths.as_slice() else {
        return Err(format!("diff expects exactly two snapshot paths\n{USAGE}"));
    };
    let base = load(base_path)?;
    let new = load(new_path)?;
    let report = diff(&base, &new, &opts);
    print!(
        "{} ({} @ {}) vs {} ({} @ {})\n{}",
        base_path,
        base.label,
        short(&base.git_sha),
        new_path,
        new.label,
        short(&new.git_sha),
        report.render()
    );
    if attribute_movers {
        print!("{}", attribute(&base, &new).render(top));
    }
    Ok(if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_soak(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = SoakOptions::default();
    let mut suite_name = "smoke".to_string();
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--iters" => {
                opts.iters = take(&mut it, "--iters")?
                    .parse()
                    .map_err(|_| "--iters expects a positive integer".to_string())?
            }
            "--workload" => only = Some(take(&mut it, "--workload")?),
            "--suite" => suite_name = take(&mut it, "--suite")?,
            "--window" => {
                opts.window = take(&mut it, "--window")?
                    .parse()
                    .map_err(|_| "--window expects a positive integer".to_string())?
            }
            "--timeline" => opts.timeline = Some(PathBuf::from(take(&mut it, "--timeline")?)),
            "--stall-after-ms" => {
                opts.stall_after = Duration::from_millis(
                    take(&mut it, "--stall-after-ms")?
                        .parse()
                        .map_err(|_| "--stall-after-ms expects milliseconds".to_string())?,
                )
            }
            other => return Err(format!("unknown soak option '{other}'\n{USAGE}")),
        }
    }
    let mut suite = registry::suite(&suite_name)
        .ok_or_else(|| format!("unknown suite '{suite_name}' (expected full|smoke)"))?;
    if let Some(pat) = &only {
        suite.retain(|w| w.name.contains(pat.as_str()));
        if suite.is_empty() {
            return Err(format!(
                "--workload '{pat}' matches no workload in '{suite_name}'"
            ));
        }
    }
    eprintln!(
        "soaking suite '{suite_name}' ({} workloads, {} iterations, window {})",
        suite.len(),
        opts.iters,
        opts.window
    );
    let report = soak(&suite, &opts, |line| eprintln!("  {line}"))?;
    println!("{}", report.render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_trend(args: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut dir = ".".to_string();
    let mut gate = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--gate" => gate = true,
            "--dir" => dir = take(&mut it, "--dir")?,
            other if !other.starts_with("--") => paths.push(PathBuf::from(other)),
            other => return Err(format!("unknown trend option '{other}'\n{USAGE}")),
        }
    }
    if paths.is_empty() {
        paths = discover(std::path::Path::new(&dir))?;
    }
    let report = load_timeline(&paths)?;
    print!("{}", report.render());
    Ok(if report.ok() || !gate {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_serve_load(args: &[String]) -> Result<ExitCode, String> {
    let mut options = LoadOptions::default();
    let mut merge_snapshot: Option<String> = None;
    let mut label = "serve".to_string();
    let mut expect_clean = false;
    let parse_num = |flag: &str, value: String| -> Result<u64, String> {
        value
            .parse()
            .map_err(|_| format!("{flag} expects a non-negative integer"))
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => options.addr = take(&mut it, "--addr")?,
            "--connections" => {
                options.connections =
                    parse_num("--connections", take(&mut it, "--connections")?)?.max(1) as usize
            }
            "--requests" => {
                options.requests = parse_num("--requests", take(&mut it, "--requests")?)? as usize
            }
            "--distinct" => {
                options.distinct =
                    parse_num("--distinct", take(&mut it, "--distinct")?)?.max(1) as usize
            }
            "--deadline-ms" => {
                options.deadline_ms =
                    Some(parse_num("--deadline-ms", take(&mut it, "--deadline-ms")?)?)
            }
            "--max-ticks" => {
                options.max_ticks = Some(parse_num("--max-ticks", take(&mut it, "--max-ticks")?)?)
            }
            "--retries" => {
                options.retries = parse_num("--retries", take(&mut it, "--retries")?)? as u32
            }
            "--timeout-ms" => {
                options.timeout = Duration::from_millis(parse_num(
                    "--timeout-ms",
                    take(&mut it, "--timeout-ms")?,
                )?)
            }
            "--merge-snapshot" => merge_snapshot = Some(take(&mut it, "--merge-snapshot")?),
            "--label" => label = take(&mut it, "--label")?,
            "--expect-clean" => expect_clean = true,
            other => return Err(format!("unknown serve-load option '{other}'\n{USAGE}")),
        }
    }
    eprintln!(
        "serve-load: {} connections x {} requests ({} distinct queries) against {}",
        options.connections, options.requests, options.distinct, options.addr
    );
    let report = serve_load::run(&options)?;
    print!("{}", report.render());
    if let Some(path) = merge_snapshot {
        serve_load::merge_into_snapshot(&path, &label, &options, &report)?;
        eprintln!("merged 'serve/load' workload into {path}");
    }
    Ok(if report.ok() || !expect_clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_flight_to_chrome(args: &[String]) -> Result<ExitCode, String> {
    let [input, output] = args else {
        return Err(format!(
            "flight-to-chrome expects exactly two paths (IN OUT)\n{USAGE}"
        ));
    };
    let dump = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let trace = flight_to_chrome(&dump).map_err(|e| format!("{input}: {e}"))?;
    std::fs::write(output, trace.to_pretty()).map_err(|e| format!("writing {output}: {e}"))?;
    let n = trace
        .get("traceEvents")
        .and_then(|t| t.as_arr())
        .map_or(0, <[_]>::len);
    eprintln!("wrote {output} ({n} trace events) — load it in chrome://tracing or ui.perfetto.dev");
    Ok(ExitCode::SUCCESS)
}

fn load(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Snapshot::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn short(sha: &str) -> &str {
    &sha[..sha.len().min(12)]
}

fn take(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} expects a value"))
}

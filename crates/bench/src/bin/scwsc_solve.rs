//! Command-line solver: summarize a CSV table (or a generated synthetic
//! trace) with at most `k` patterns covering a required fraction.
//!
//! ```text
//! scwsc_solve --csv data.csv --k 8 --coverage 0.4 --algorithm cwsc
//! scwsc_solve --rows 50000 --k 10 --coverage 0.3 --algorithm cmc --b 1 --eps 1
//! ```
//!
//! The CSV's last column is the numeric measure; all others are pattern
//! attributes (the format `scwsc_data::csv` writes).

use scwsc_bench::measure::RunParams;
use scwsc_bench::report::{secs, TextTable};
use scwsc_core::cli::{args_or_exit, bail, exit_code, exit_with, required, Args};
use scwsc_core::telemetry::audit::{self, DecisionLedger};
use scwsc_core::{
    coverage_target, render_prometheus, Deadline, EngineError, Fanout, FaultPlan, FlightRecorder,
    JsonlSink, MetricsRecorder, SloGauges, SolveOutcome, Watchdog,
};
use scwsc_data::csv::read_table;
use scwsc_data::lbl::LblConfig;
use scwsc_patterns::{
    enumerate_all, opt_cmc, opt_cwsc, verify_certificate_in, CostFn, PatternSpace, Table,
};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Duration;

const USAGE: &str = "scwsc_solve [--csv PATH | --rows N [--seed N]] \
[--k N] [--coverage F] [--algorithm cwsc|cmc] [--b F] [--eps F] \
[--cost-fn max|sum|mean|count] [--trace-jsonl PATH] [--metrics] [--profile] \
[--deadline-ms N] [--max-ticks N] [--fault SPEC] [--watchdog MS] [--flight-dump PATH] \
[--metrics-prom PATH] [--explain [N]] [--audit-jsonl PATH]
Solves size-constrained weighted set cover over the table's pattern cube and
prints the chosen patterns. Without --csv, a synthetic LBL-like trace of
--rows records is generated. --deadline-ms bounds the solve by wall clock
and --max-ticks by a deterministic work-tick budget; on expiry the best
partial solution prints with its certificate and the process exits with
code 5 (exit codes: 2 bad args or an unknown flag, 3 bad input, 4
infeasible, 5 deadline-degraded). --fault injects a deterministic fault schedule
(comma-separated panic@TICK, cancel@TICK, panicguess@I, failguess@I and
stall@TICK:MS, or a lone seed:N); scwsc_serve's service faults are rejected.
--watchdog MS arms a liveness watchdog: a background monitor watches
the solve's engine checkpoint ticks, and when they stand still for MS
milliseconds it records a stall_detected event and dumps the flight
recording at that moment (to <--flight-dump PATH>.stall, else
scwsc-stall-flight.jsonl) without interrupting the solve; MS must
exceed the host's scheduling delay. --trace-jsonl streams
every solver event as one JSON object per line; --metrics prints aggregated
counters and per-phase timings; --profile prints the run's aggregated span
tree (per-phase total/self wall-clock with counter attribution). A flight
recorder of recent enriched events always rides along: --flight-dump writes
its JSONL dump (header, events, causal tree) after the run, and a faulted or
deadline-degraded run dumps automatically (to the --flight-dump path, else
scwsc-<trace-id>-flight.jsonl) before the process exits non-zero. --metrics-prom writes
the aggregated counters plus the run's SLO gauges (deadline headroom, ticks
used/budget, degraded flag, retries) in Prometheus text exposition format.
--explain prints the decision audit: every selection round's winner with its
runners-up, winning margin, tie-break key, and per-element price charging
(--explain N caps the rounds shown per guess), plus a certified quality
bound — the dual-feasible lower bound LB on the optimal cost scaled from
the greedy prices, and the certified ratio cost/LB. --audit-jsonl writes
the full ledger as line-oriented JSON. Both flags materialize the full
pattern cube once to certify the bound, so prefer them on analysis-sized
inputs.";

fn cost_fn_of(name: &str) -> CostFn {
    match name {
        "max" => CostFn::Max,
        "sum" => CostFn::Sum,
        "mean" => CostFn::Mean,
        "count" => CostFn::Count,
        other => bail(&format!("unknown cost function {other:?}")),
    }
}

fn load(args: &Args) -> Table {
    if let Some(path) = args.get("csv") {
        match read_table(Path::new(path)) {
            Ok(t) => t,
            Err(e) => exit_with(exit_code::BAD_INPUT, &format!("cannot read {path}: {e}")),
        }
    } else {
        let rows: usize = required(args.get_or("rows", 20_000));
        let seed: u64 = required(args.get_or("seed", 7));
        LblConfig {
            seed,
            ..LblConfig::scaled(rows)
        }
        .generate()
    }
}

/// Builds the run's [`Deadline`] from `--deadline-ms`, `--max-ticks`,
/// and `--fault`; unbounded when none is given.
fn deadline_of(args: &Args) -> Deadline {
    let mut deadline = Deadline::unbounded();
    if args.get("deadline-ms").is_some() {
        let ms: u64 = required(args.get_or("deadline-ms", 0));
        deadline = deadline.with_wall_clock(Duration::from_millis(ms));
    }
    if args.get("max-ticks").is_some() {
        let ticks: u64 = required(args.get_or("max-ticks", 0));
        deadline = deadline.with_tick_budget(ticks);
    }
    if let Some(spec) = args.get("fault") {
        let plan = required(FaultPlan::parse(spec));
        if plan.has_service_faults() {
            bail(&format!(
                "--fault {spec:?}: slowread, disconnect and panicreq apply only to scwsc_serve"
            ));
        }
        deadline = deadline.with_fault_plan(plan);
    }
    deadline
}

fn main() {
    let args = args_or_exit(USAGE);
    let table = load(&args);
    let params = RunParams {
        k: required(args.get_or("k", 10)),
        coverage: required(args.get_or("coverage", 0.3)),
        b: required(args.get_or("b", 1.0)),
        eps: required(args.get_or("eps", 1.0)),
        cost_fn: cost_fn_of(args.get("cost-fn").unwrap_or("max")),
        ..RunParams::default()
    };
    let algorithm = args.get("algorithm").unwrap_or("cwsc");
    let deadline = deadline_of(&args);

    eprintln!(
        "solving: {} rows, {} attributes, k={}, coverage>={:.0}%, algorithm={algorithm}",
        table.num_rows(),
        table.num_attrs(),
        params.k,
        params.coverage * 100.0,
    );
    let space = PatternSpace::new(&table, params.cost_fn);
    let mut metrics = MetricsRecorder::new();
    let trace_path = args.get("trace-jsonl");
    let mut sink = trace_path.map(|path| {
        let file =
            File::create(path).unwrap_or_else(|e| bail(&format!("cannot create {path}: {e}")));
        JsonlSink::new(BufWriter::new(file))
    });
    // `--explain` (bare: all rounds) or `--explain N` (cap per guess).
    let explain = args.flag("explain") || args.get("explain").is_some();
    let explain_limit: Option<usize> = args
        .get("explain")
        .map(|_| required(args.get_or("explain", 0)));
    let audit_path = args.get("audit-jsonl");
    let mut ledger = (explain || audit_path.is_some()).then(DecisionLedger::new);
    let flight = FlightRecorder::new();
    let flight_path = args.get("flight-dump");
    // `--watchdog MS`: watch the solve's checkpoint ticks. It shares the
    // flight recorder's ring, so a stall dump carries the events leading
    // up to the hang.
    let watchdog = args.get("watchdog").map(|_| {
        let ms: u64 = required(args.get_or("watchdog", 0));
        // The stall dump gets its own file: the end-of-run dump reuses
        // the --flight-dump path, and by then the ring may have evicted
        // the events surrounding the stall.
        let stall_path = match flight_path {
            Some(path) => format!("{path}.stall"),
            None => "scwsc-stall-flight.jsonl".to_string(),
        };
        Watchdog::dumping(
            Duration::from_millis(ms),
            flight.clone(),
            PathBuf::from(stall_path),
        )
    });
    let monitor = watchdog.as_ref().map(Watchdog::monitor);
    // Carried as a value (instead of exiting at the failure site) so the
    // flight dump, Prometheus export, and trace-sink flush all happen
    // before the process exits non-zero.
    let solved = {
        let _watch = watchdog.as_ref().map(|dog| dog.watch(&deadline));
        let mut flight_tap = flight.clone();
        let mut obs = Fanout::new();
        obs.attach(&mut metrics).attach(&mut flight_tap);
        if let Some(s) = sink.as_mut() {
            obs.attach(s);
        }
        if let Some(l) = ledger.as_mut() {
            obs.attach(l);
        }
        match algorithm {
            "cwsc" => opt_cwsc(&space, params.k, params.coverage, &deadline, &mut obs),
            "cmc" => opt_cmc(&space, &params.cmc_params(), &deadline, &mut obs),
            other => bail(&format!("unknown algorithm {other:?} (use cwsc or cmc)")),
        }
    };

    // Post-mortem observability runs before ANY exit below:
    // `process::exit` skips destructors, so the sink must flush here, and
    // the flight dump is most valuable exactly when the run went wrong.
    drop(monitor);
    if let Some(dog) = &watchdog {
        metrics.stalls_detected += dog.stalls();
        if dog.stalls() > 0 {
            eprintln!(
                "watchdog: {} stall(s) detected during trace {}",
                dog.stalls(),
                flight.trace_id()
            );
        }
    }
    let degraded = matches!(&solved, Ok(SolveOutcome::Degraded(_)));
    if let Some(path) = flight_path {
        dump_flight(&flight, Path::new(path));
    } else if degraded || matches!(&solved, Err(EngineError::Panicked(_))) {
        // The trace id in the name keeps concurrent post-mortems from
        // clobbering each other (and matches the *-flight.jsonl ignore).
        let name = format!("scwsc-{}-flight.jsonl", flight.trace_id());
        dump_flight(&flight, Path::new(&name));
    }
    if let Some(path) = args.get("metrics-prom") {
        let slo = SloGauges::capture(&deadline, degraded, &metrics);
        match std::fs::write(path, render_prometheus(&metrics, Some(&slo))) {
            Ok(()) => eprintln!("metrics written to {path}"),
            Err(e) => eprintln!("failed to write metrics to {path}: {e}"),
        }
    }
    if let Some(s) = sink {
        let path = trace_path.expect("sink implies a path");
        if s.has_failed() {
            bail(&format!("trace write to {path} failed"));
        }
        match s.into_inner() {
            Ok(_) => eprintln!("trace written to {path}"),
            Err(e) => bail(&format!("cannot flush {path}: {e}")),
        }
    }

    let (solution, degraded) = match solved {
        Ok(SolveOutcome::Complete(solution)) => (solution, None),
        Ok(SolveOutcome::Degraded(d)) => (d.partial, Some(d.certificate)),
        Err(EngineError::Solve(e)) => exit_with(exit_code::INFEASIBLE, &format!("infeasible: {e}")),
        Err(EngineError::Panicked(msg)) => {
            eprintln!("error: solver fault: {msg}");
            std::process::exit(1);
        }
    };
    match &degraded {
        None => {
            solution.verify(&space);
        }
        Some(cert) => {
            let check = verify_certificate_in(&space, &solution, cert);
            if !check.is_valid() {
                eprintln!("error: degraded certificate failed verification: {check:?}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "{} patterns, total weight {:.3}, covering {}/{} records ({:.1}%)",
        solution.size(),
        solution.total_cost,
        solution.covered,
        table.num_rows(),
        100.0 * solution.covered as f64 / table.num_rows().max(1) as f64
    );
    for p in &solution.patterns {
        let rows = space.benefit(p);
        println!(
            "  {}\t({} records, weight {:.3})",
            p.display(&table),
            rows.len(),
            space.cost(&rows)
        );
    }
    eprintln!(
        "considered {} patterns in {} budget guess(es)",
        metrics.benefits_computed, metrics.guesses
    );
    if let Some(ledger) = &ledger {
        if let Some(path) = audit_path {
            let file =
                File::create(path).unwrap_or_else(|e| bail(&format!("cannot create {path}: {e}")));
            let mut w = BufWriter::new(file);
            match ledger.write_jsonl(&mut w) {
                Ok(()) => eprintln!("audit ledger written to {path}"),
                Err(e) => bail(&format!("cannot write {path}: {e}")),
            }
        }
        if explain {
            println!("== decision audit ==");
            print!(
                "{}",
                ledger.render_explain(explain_limit.filter(|&n| n > 0))
            );
        }
        // Certify the greedy prices against the materialized cube: a
        // dual-feasible lower bound on the optimal cost of any solution
        // meeting the coverage target (DESIGN.md §14).
        let cube = enumerate_all(&table, params.cost_fn);
        let target = coverage_target(table.num_rows(), params.coverage);
        let cert = audit::certify(&cube.system, &ledger.prices(), target);
        println!(
            "certified quality: cost {:.3} >= LB {:.3} (alpha {:.3}) -> ratio {:.3}; \
             mean winning margin {:.3} over {} round(s)",
            cert.greedy_cost,
            cert.lower_bound,
            cert.alpha,
            cert.certified_ratio(),
            ledger.mean_margin(),
            ledger.rounds_total()
        );
    }
    if args.flag("metrics") {
        print_metrics(&metrics);
    }
    if args.flag("profile") {
        println!("== span profile ==");
        print!("{}", flight.causal_tree().render());
    }
    if let Some(cert) = degraded {
        eprintln!("deadline expired: {cert}");
        eprintln!("certificate verified against the partial solution");
        std::process::exit(exit_code::DEADLINE_DEGRADED);
    }
}

/// Writes the flight recorder's post-mortem dump, reporting where it went
/// (dump failures are reported but never mask the run's own exit code).
fn dump_flight(flight: &FlightRecorder, path: &Path) {
    match flight.dump_to_path(path) {
        Ok(()) => eprintln!(
            "flight dump ({} event(s), trace {}) written to {}",
            flight.len(),
            flight.trace_id(),
            path.display()
        ),
        Err(e) => eprintln!("failed to write flight dump {}: {e}", path.display()),
    }
}

/// Prints the aggregated telemetry: counters, then per-phase timings.
fn print_metrics(metrics: &MetricsRecorder) {
    let mut counters = TextTable::new(["counter", "value"]);
    for (name, value) in [
        ("budget guesses", metrics.guesses),
        ("levels entered", metrics.levels_entered),
        ("selections", metrics.selections),
        ("benefits computed", metrics.benefits_computed),
        ("candidates pruned", metrics.candidates_pruned_total()),
        ("subtrees pruned", metrics.subtrees_pruned_total()),
        ("heap stale pops", metrics.heap_stale_pops),
        ("postings scanned", metrics.postings_scanned),
    ] {
        counters.row([name.to_string(), value.to_string()]);
    }
    println!("== metrics ==");
    println!("{}", counters.render());
    if !metrics.marginal_benefit_hist.is_empty() {
        println!(
            "marginal benefit: mean {:.1}, max {}",
            metrics.marginal_benefit_hist.mean(),
            metrics.marginal_benefit_hist.max()
        );
    }
    let mut phases = TextTable::new(["phase", "seconds", "runs"]);
    for p in metrics.phases() {
        phases.row([p.name.to_string(), secs(p.seconds), p.count.to_string()]);
    }
    if !phases.is_empty() {
        println!("{}", phases.render());
    }
}

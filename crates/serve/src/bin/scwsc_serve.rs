//! Long-lived solve service: load one instance, answer queries over TCP.
//!
//! ```text
//! scwsc_serve --rows 20000 --seed 7 --addr 127.0.0.1:7575
//! scwsc_serve --csv data.csv --deadline-ms 250 --watchdog 2000
//! ```
//!
//! Clients send one JSON request per line and read one JSON response per
//! line (see `scwsc-serve`'s protocol module); `scwsc_bench serve-load`
//! is the reference client. SIGTERM/SIGINT drains gracefully: in-flight
//! solves finish, new requests are rejected with Retry-After, telemetry
//! is flushed, and the summary prints.

use scwsc_core::cli::{args_or_exit, bail, required};
use scwsc_core::{FaultPlan, FlightRecorder, Solver, ThreadPool, Threads, Watchdog};
use scwsc_data::csv::read_table;
use scwsc_data::lbl::LblConfig;
use scwsc_patterns::PatternInstance;
use scwsc_serve::{
    install_signal_handlers, serve, AdmissionConfig, BrownoutConfig, ServeOptions, ServerConfig,
    ServerState, ShutdownFlag,
};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "scwsc_serve [--csv PATH | --rows N [--seed N]] [--addr HOST:PORT] \
[--deadline-ms N] [--cache N] [--window N] \
[--max-inflight N] [--max-queue N] [--tick-capacity N] [--base-ticks N] [--min-ticks N] \
[--retry-after-ms N] [--max-queue-wait-ms N] [--max-tier N] \
[--watchdog MS] [--flight-dump PATH] [--metrics-prom PATH] [--fault SPEC]
Serves size-constrained weighted set cover queries over the instance's
pattern cube: one JSON request per line in, one JSON response per line out
(statuses complete | degraded | rejected | error; rejected always carries
retry_after_ms). Without --csv a synthetic LBL-like trace of --rows records
is generated. --deadline-ms is the default caller deadline applied when a
request names none (0 = unbounded wall clock; tick budgets still bound
work). Admission: at most --max-inflight concurrent solves and --max-queue
queued requests; each solve is granted up to --base-ticks deterministic
work ticks (shrunk by brownout tiers to base>>tier, floored at
--min-ticks) with at most --tick-capacity ticks outstanding across all
in-flight solves; a full queue rejects with --retry-after-ms, and a
request that queues longer than --max-queue-wait-ms (or its own remaining
deadline) is admitted with a zero budget so it degrades honestly instead
of being dropped. --cache bounds the LRU result cache (complete answers
only; hits bypass admission). --watchdog MS watches each solve's
checkpoint ticks and flags a solve whose ticks stand still for MS
milliseconds (MS must exceed the host's scheduling delay: a descheduled
solve does not tick); --flight-dump and --metrics-prom flush the flight ring
and the Prometheus exposition on drain. --fault injects deterministic
service faults, comma-separated: slowread@REQ:MS stalls reading the REQ-th
request line, disconnect@REQ drops its connection before the response is
written, panicreq@REQ panics the first solve attempt of the REQ-th
well-formed request (isolated and retried once). It shares scwsc_solve's --fault grammar and rejects
that binary's engine faults.";

fn main() {
    let args = args_or_exit(USAGE);
    let table = if let Some(path) = args.get("csv") {
        match read_table(Path::new(path)) {
            Ok(t) => t,
            Err(e) => bail(&format!("cannot read {path}: {e}")),
        }
    } else {
        let rows: usize = required(args.get_or("rows", 20_000));
        let seed: u64 = required(args.get_or("seed", 7));
        LblConfig {
            seed,
            ..LblConfig::scaled(rows)
        }
        .generate()
    };
    // Every solve runs on the calling thread; the pool is a placeholder.
    let pool = ThreadPool::new(Threads::serial());

    let admission = AdmissionConfig {
        max_inflight: required(
            args.get_or("max-inflight", AdmissionConfig::default().max_inflight),
        ),
        max_queue: required(args.get_or("max-queue", AdmissionConfig::default().max_queue)),
        tick_capacity: required(
            args.get_or("tick-capacity", AdmissionConfig::default().tick_capacity),
        ),
        base_ticks: required(args.get_or("base-ticks", AdmissionConfig::default().base_ticks)),
        min_ticks: required(args.get_or("min-ticks", AdmissionConfig::default().min_ticks)),
        retry_after_ms: required(
            args.get_or("retry-after-ms", AdmissionConfig::default().retry_after_ms),
        ),
        max_queue_wait: Duration::from_millis(required(args.get_or("max-queue-wait-ms", 100))),
    };
    let brownout = BrownoutConfig {
        max_tier: required(args.get_or("max-tier", BrownoutConfig::default().max_tier)),
        ..BrownoutConfig::default()
    };
    let config = ServerConfig {
        default_deadline_ms: required(args.get_or("deadline-ms", 0)),
        cache_capacity: required(args.get_or("cache", 256)),
        admission,
        brownout,
        window: required(args.get_or("window", 64)),
        faults: args.get("fault").map(|spec| {
            let plan = required(FaultPlan::parse(spec));
            if plan.has_engine_faults() {
                bail(&format!(
                    "--fault {spec:?}: only slowread, disconnect and panicreq apply to a server"
                ));
            }
            Arc::new(plan)
        }),
    };

    let flight = FlightRecorder::new();
    let flight_dump = args.get("flight-dump").map(PathBuf::from);
    let watchdog = args.get("watchdog").map(|_| {
        let ms: u64 = required(args.get_or("watchdog", 0));
        let stall_path = match &flight_dump {
            Some(path) => format!("{}.stall", path.display()),
            None => "scwsc-serve-stall-flight.jsonl".to_string(),
        };
        Watchdog::dumping(
            Duration::from_millis(ms),
            flight.clone(),
            PathBuf::from(stall_path),
        )
    });

    let instance: Arc<dyn Solver> = Arc::new(PatternInstance::new(table));
    let state = Arc::new(ServerState::new(instance, pool, config, flight, watchdog));

    let addr = args.get("addr").unwrap_or("127.0.0.1:7575");
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => bail(&format!("cannot bind {addr}: {e}")),
    };
    let bound = listener.local_addr().expect("bound address");
    eprintln!(
        "scwsc_serve: listening on {bound} — {} ({} in-flight max, {} base ticks/solve, \
         cache {} answers)",
        state.solver().describe(),
        state.config().admission.max_inflight,
        state.config().admission.base_ticks,
        state.config().cache_capacity,
    );
    install_signal_handlers();

    let options = ServeOptions {
        flight_dump,
        prometheus_dump: args.get("metrics-prom").map(PathBuf::from),
        ..ServeOptions::default()
    };
    match serve(listener, state, options, ShutdownFlag::new()) {
        Ok(summary) => {
            eprintln!(
                "scwsc_serve: drained — {} conns, {} requests \
                 (complete {}, degraded {}, rejected {}, errors {}, cache hits {}, \
                 panics isolated {}, failed writes {}), {} stalls, clean={}",
                summary.connections,
                summary.requests_read,
                summary.complete,
                summary.degraded,
                summary.rejected,
                summary.errors,
                summary.cache_hits,
                summary.panics_isolated,
                summary.failed_writes,
                summary.stalls,
                summary.drained_clean,
            );
            if !summary.drained_clean || summary.stalls > 0 {
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("scwsc_serve: accept loop failed: {e}");
            exit(1);
        }
    }
}

//! Profiling driver: loops one registry workload so a sampling profiler
//! sees only its hot path. Usage:
//!
//! ```text
//! cargo run --release -p scwsc-bench --example profile_cmc [iters] [name]
//! ```
//!
//! With `SCWSC_PROFILE_OBS=record` each iteration attaches the same
//! observer stack the `record` runner uses (span profiler + decision
//! ledger), separating solver time from recording overhead.

use scwsc_bench::measure::{run, run_traced};
use scwsc_bench::registry::full_suite;
use scwsc_core::telemetry::DecisionLedger;
use scwsc_core::{Fanout, SpanProfiler};

#[global_allocator]
static ALLOC: scwsc_core::telemetry::alloc::CountingAlloc =
    scwsc_core::telemetry::alloc::CountingAlloc;

fn main() {
    let mut args = std::env::args().skip(1);
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50);
    let name = args
        .next()
        .unwrap_or_else(|| "fig5/cmc_opt/rows4000".into());
    let record_obs = std::env::var("SCWSC_PROFILE_OBS").as_deref() == Ok("record");
    let w = full_suite()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no workload named {name}"));
    let table = w.gen.table();
    let start = std::time::Instant::now();
    let mut sink = 0usize;
    for _ in 0..iters {
        let m = if record_obs {
            let mut profiler = SpanProfiler::new();
            let mut ledger = DecisionLedger::new();
            let mut extra = Fanout::new();
            extra.attach(&mut profiler).attach(&mut ledger);
            run_traced(w.algo, &table, &w.params, &mut extra, None).0
        } else {
            run(w.algo, &table, &w.params)
        };
        sink = sink.wrapping_add(m.considered as usize);
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{name}: {iters} iters in {secs:.3}s ({:.4}s/iter, sink {sink})",
        secs / iters as f64
    );
}

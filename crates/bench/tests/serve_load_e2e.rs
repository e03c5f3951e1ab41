//! End-to-end: boot `scwsc_serve`'s transport in-process on an ephemeral
//! port, drive it with the `serve-load` client generator, and assert the
//! serving contract held — zero dropped requests, every degrade
//! certified, every rejection hinted, no solve stalled — then drain
//! cleanly.

use scwsc_bench::serve_load::{self, LoadOptions};
use scwsc_core::{FlightRecorder, ThreadPool, Threads, Watchdog};
use scwsc_patterns::{PatternInstance, Table};
use scwsc_serve::{serve, ServeOptions, ServerConfig, ServerState, ShutdownFlag};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn small_table() -> Table {
    let mut b = Table::builder(&["proto", "dst"], "bytes");
    for i in 0..24u32 {
        let proto = format!("p{}", i % 3);
        let dst = format!("d{}", i % 5);
        b.push_row(&[&proto, &dst], f64::from(10 + i)).unwrap();
    }
    b.build()
}

#[test]
fn burst_load_upholds_the_no_drop_contract() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let state = Arc::new(ServerState::new(
        Arc::new(PatternInstance::new(small_table())),
        ThreadPool::new(Threads::serial()),
        ServerConfig {
            default_deadline_ms: 0,
            ..ServerConfig::default()
        },
        FlightRecorder::new(),
        Some(Watchdog::new(Duration::from_secs(1))),
    ));
    let shutdown = ShutdownFlag::new();
    let server = {
        let state = Arc::clone(&state);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || serve(listener, state, ServeOptions::default(), shutdown))
    };

    let options = LoadOptions {
        addr,
        connections: 3,
        requests: 12,
        distinct: 6,
        max_ticks: Some(50_000),
        retries: 2,
        timeout: Duration::from_secs(20),
        ..LoadOptions::default()
    };
    let report = serve_load::run(&options).expect("load run");
    assert_eq!(report.sent, 36);
    assert_eq!(
        report.answered + report.dropped,
        report.sent,
        "every request accounted for"
    );
    assert!(report.ok(), "contract violated:\n{}", report.render());
    assert!(report.complete + report.degraded > 0, "some work got done");
    assert!(
        report.cached > 0,
        "6 distinct queries over 36 requests must hit the cache"
    );

    shutdown.raise();
    let summary = server.join().unwrap().expect("server io");
    assert!(summary.drained_clean, "graceful drain");
    assert_eq!(summary.stalls, 0, "watchdog quiet");
    // Every wire request got exactly one response: the 36 logical
    // requests plus one extra round-trip per client-side retry of a
    // rejection. (cache_hits is a subset of complete, not a fifth class.)
    assert_eq!(
        summary.complete + summary.degraded + summary.errors + summary.rejected,
        36 + report.retried,
        "server-side accounting matches the client's"
    );
}

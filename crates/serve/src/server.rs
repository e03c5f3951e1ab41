//! The `scwsc_serve` transport: line-delimited JSON over TCP, hand
//! rolled on `std::net` (the vendored-deps constraint bans tokio/hyper).
//!
//! One accept loop, one thread per connection, all sharing the
//! [`ServerState`] behind an `Arc`. Connections speak the
//! [`protocol`](crate::protocol): one request per line, one response per
//! line, connection kept alive across requests.
//!
//! **Graceful drain.** SIGTERM/SIGINT (or a programmatic
//! [`ShutdownFlag`]) flips the gate into drain mode: queued and new
//! requests are rejected with Retry-After, in-flight solves finish and
//! their responses are written, the accept loop stops, connection
//! threads are joined (bounded by `drain_timeout`), and telemetry — the
//! flight-recorder ring and the Prometheus exposition — is flushed to
//! disk before the summary prints. No admitted request is ever dropped
//! by shutdown.
//!
//! **Service faults**: the connection threads read the same
//! [`ServerConfig::faults`](crate::dispatch::ServerConfig::faults) plan
//! as dispatch. `slow_read` stalls the named request mid-read (a slow
//! client; the stall is charged as queue wait, shrinking that request's
//! solve budget), and `disconnect_at` drops the connection after the
//! named request is read and before any response byte is written — the
//! server must shrug, finish the solve, fail the write quietly, and keep
//! serving other connections. The plan comes from `scwsc_serve --fault`
//! or a library caller; nothing on the wire can set one.

use crate::dispatch::ServerState;
use crate::protocol::{Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative shutdown signal shared between the accept loop, the
/// signal handler, and tests.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag(Arc<AtomicBool>);

impl ShutdownFlag {
    /// A flag that is not yet raised.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag::default()
    }

    /// Requests a graceful drain.
    pub fn raise(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn raised(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

// SIGTERM/SIGINT delivery via libc's `signal` — the handler only flips
// an atomic, the drain itself runs on the accept loop. Hand-rolled FFI
// because the vendored-deps constraint bans the libc crate.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that request a graceful drain of
/// every server in the process (the flag is process-global).
#[allow(unsafe_code)] // the `signal` FFI
pub fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// Transport-layer options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// How long [`serve`] waits for in-flight solves after drain begins.
    pub drain_timeout: Duration,
    /// Poll interval of the accept loop and the per-connection read
    /// timeout — bounds how stale a drain signal can go unnoticed.
    pub poll_interval: Duration,
    /// Where to flush the flight-recorder ring on drain.
    pub flight_dump: Option<PathBuf>,
    /// Where to flush the Prometheus exposition on drain.
    pub prometheus_dump: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            drain_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(25),
            flight_dump: None,
            prometheus_dump: None,
        }
    }
}

/// What a serve run did, printed by the binary on exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Requests read off the wire.
    pub requests_read: u64,
    /// Responses answered `complete`.
    pub complete: u64,
    /// Responses answered `degraded`.
    pub degraded: u64,
    /// Requests rejected with Retry-After.
    pub rejected: u64,
    /// Responses answered `error`.
    pub errors: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Panics isolated by the dispatch retry layer.
    pub panics_isolated: u64,
    /// Responses whose write failed (client gone) — the solve still ran
    /// to an answer; nothing was dropped server-side.
    pub failed_writes: u64,
    /// Watchdog stalls observed (0 in a healthy run).
    pub stalls: u64,
    /// Whether the drain finished inside `drain_timeout`.
    pub drained_clean: bool,
}

/// Runs the accept loop on `listener` until `shutdown` (or a signal
/// installed via [`install_signal_handlers`]) requests a drain, then
/// drains gracefully and returns the summary.
pub fn serve(
    listener: TcpListener,
    state: Arc<ServerState>,
    options: ServeOptions,
    shutdown: ShutdownFlag,
) -> std::io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let monitor = state.watchdog().map(|dog| dog.monitor());
    let requests_read = Arc::new(AtomicU64::new(0));
    let failed_writes = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    let mut connections = 0u64;

    while !shutdown.raised() && !SIGNALLED.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                connections += 1;
                let conn = Connection {
                    state: Arc::clone(&state),
                    shutdown: shutdown.clone(),
                    requests_read: Arc::clone(&requests_read),
                    failed_writes: Arc::clone(&failed_writes),
                    poll_interval: options.poll_interval,
                };
                handles.push(std::thread::spawn(move || conn.run(stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(options.poll_interval);
            }
            Err(e) => return Err(e),
        }
        handles.retain(|h| !h.is_finished());
    }

    // Drain: reject new work (waking queued requests into rejections),
    // let in-flight solves finish, bound the wait.
    state.drain();
    let drain_started = Instant::now();
    let mut drained_clean = true;
    while state.gate_snapshot().inflight > 0 {
        if drain_started.elapsed() > options.drain_timeout {
            drained_clean = false;
            break;
        }
        std::thread::sleep(options.poll_interval);
    }
    for handle in handles {
        if drain_started.elapsed() > options.drain_timeout && !handle.is_finished() {
            drained_clean = false;
            continue; // leak rather than block past the timeout
        }
        let _ = handle.join();
    }
    drop(monitor);

    // Flush telemetry before reporting: the flight ring and the
    // Prometheus text are the post-mortem record of the run.
    if let Some(path) = &options.flight_dump {
        let _ = state.flight().dump_to_path(path);
    }
    if let Some(path) = &options.prometheus_dump {
        let _ = std::fs::write(path, state.prometheus());
    }

    let counters = &state.counters;
    Ok(ServeSummary {
        connections,
        requests_read: requests_read.load(Ordering::Relaxed),
        complete: counters.complete.load(Ordering::Relaxed),
        degraded: counters.degraded.load(Ordering::Relaxed),
        rejected: counters.rejected.load(Ordering::Relaxed),
        errors: counters.errors.load(Ordering::Relaxed),
        cache_hits: counters.cache_hits.load(Ordering::Relaxed),
        panics_isolated: counters.panics_isolated.load(Ordering::Relaxed),
        failed_writes: failed_writes.load(Ordering::Relaxed),
        stalls: state.watchdog().map_or(0, |dog| dog.stalls()),
        drained_clean,
    })
}

/// One connection's half of the protocol loop.
struct Connection {
    state: Arc<ServerState>,
    shutdown: ShutdownFlag,
    /// Requests read so far, server-wide: the 1-based sequence that
    /// service faults address.
    requests_read: Arc<AtomicU64>,
    failed_writes: Arc<AtomicU64>,
    poll_interval: Duration,
}

impl Connection {
    fn run(self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        // A finite read timeout keeps the connection responsive to
        // drain: between requests the loop wakes and re-checks.
        let _ = stream.set_read_timeout(Some(self.poll_interval));
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        });
        let mut writer = stream;
        let mut line = String::new();
        loop {
            if self.state.draining() || self.shutdown.raised() || SIGNALLED.load(Ordering::SeqCst) {
                return;
            }
            // `line` accumulates across reads: a request can arrive in
            // several segments (writeln! flushes the payload and the
            // newline separately), and the read timeout fires between
            // them. A timeout with a partial line keeps the partial.
            match reader.read_line(&mut line) {
                Ok(0) if line.is_empty() => return,         // EOF: client closed
                Ok(0) => {}                                 // EOF flushes a final unterminated line
                Ok(_) if !line.ends_with('\n') => continue, // mid-line EOF race: keep reading
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            }
            if line.trim().is_empty() {
                line.clear();
                continue;
            }
            let seq = self.requests_read.fetch_add(1, Ordering::Relaxed) + 1;
            let faults = self.state.config().faults.as_deref();
            if let Some(stall) = faults.and_then(|f| f.slow_read_before(seq)) {
                // Slow client: the rest of the request "trickles in".
                // The stall lands before admission, so it is charged as
                // part of this caller's end-to-end time, not the solve's.
                std::thread::sleep(stall);
            }
            let response = match Request::parse(line.trim_end(), seq) {
                Ok(request) => self.state.dispatch(&request),
                Err(message) => {
                    self.state.counters.errors.fetch_add(1, Ordering::Relaxed);
                    Response::error(seq, format!("bad request: {message}"))
                }
            };
            if faults.is_some_and(|f| f.disconnects(seq)) {
                // Mid-request disconnect: the client vanished between
                // sending the request and reading the answer. The solve
                // already ran; drop the connection without writing.
                self.failed_writes.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // One write_all per response: a single segment on the wire,
            // so slow-reading clients never see a torn line.
            let mut out = response.to_line();
            out.push('\n');
            if writer.write_all(out.as_bytes()).is_err() {
                self.failed_writes.fetch_add(1, Ordering::Relaxed);
                return;
            }
            line.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::ServerConfig;
    use scwsc_core::solver::Query;
    use scwsc_core::{FaultPlan, FlightRecorder, SetSystem, SystemInstance, ThreadPool, Threads};

    fn test_state(config: ServerConfig) -> Arc<ServerState> {
        let mut b = SetSystem::builder(6);
        b.add_set([0, 1, 2], 3.0)
            .add_set([3, 4], 1.0)
            .add_set([5], 1.0)
            .add_universe_set(50.0);
        Arc::new(ServerState::new(
            Arc::new(SystemInstance::new(Arc::new(b.build().unwrap()))),
            ThreadPool::new(Threads::serial()),
            config,
            FlightRecorder::new(),
            None,
        ))
    }

    fn boot(
        config: ServerConfig,
        options: ServeOptions,
    ) -> (
        std::net::SocketAddr,
        ShutdownFlag,
        std::thread::JoinHandle<ServeSummary>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let state = test_state(config);
        let shutdown = ShutdownFlag::new();
        let flag = shutdown.clone();
        let handle = std::thread::spawn(move || serve(listener, state, options, flag).unwrap());
        (addr, shutdown, handle)
    }

    fn roundtrip(stream: &mut TcpStream, request: &Request) -> Response {
        writeln!(stream, "{}", request.to_line()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => panic!("server closed before responding"),
                Ok(_) => return Response::parse(line.trim_end()).unwrap(),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    #[test]
    fn serves_requests_then_drains_cleanly() {
        let (addr, shutdown, handle) = boot(ServerConfig::default(), ServeOptions::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        let resp = roundtrip(&mut stream, &Request::new(1, Query::cwsc(2, 0.8)));
        assert_eq!(resp.status, crate::protocol::Status::Complete);
        let resp = roundtrip(&mut stream, &Request::new(2, Query::cwsc(2, 0.8)));
        assert!(resp.cached, "second identical query served from cache");
        drop(stream);
        shutdown.raise();
        let summary = handle.join().unwrap();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.requests_read, 2);
        assert_eq!(summary.complete, 2);
        assert!(summary.drained_clean);
        assert_eq!(summary.stalls, 0);
    }

    #[test]
    fn malformed_lines_get_error_responses_and_the_connection_lives() {
        let (addr, shutdown, handle) = boot(ServerConfig::default(), ServeOptions::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, "this is not json").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => panic!("closed"),
                Ok(_) => break,
                Err(_) => continue,
            }
        }
        let resp = Response::parse(line.trim_end()).unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Error);
        // Same connection still answers good requests.
        let resp = roundtrip(&mut stream, &Request::new(5, Query::cwsc(2, 0.8)));
        assert_eq!(resp.status, crate::protocol::Status::Complete);
        drop(stream);
        shutdown.raise();
        let summary = handle.join().unwrap();
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.complete, 1);
    }

    fn faulted(plan: FaultPlan) -> ServerConfig {
        ServerConfig {
            faults: Some(Arc::new(plan)),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn injected_disconnect_drops_one_connection_and_spares_the_rest() {
        let config = faulted(FaultPlan::new().disconnect_at(1));
        let (addr, shutdown, handle) = boot(config, ServeOptions::default());
        let mut doomed = TcpStream::connect(addr).unwrap();
        writeln!(doomed, "{}", Request::new(1, Query::cwsc(2, 0.8)).to_line()).unwrap();
        // The server drops the connection without writing a byte.
        let mut reader = BufReader::new(doomed.try_clone().unwrap());
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => panic!("expected a silent disconnect, got {line:?}"),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(_) => break,
            }
        }
        // A second connection is unaffected.
        let mut healthy = TcpStream::connect(addr).unwrap();
        let resp = roundtrip(&mut healthy, &Request::new(2, Query::cwsc(2, 0.8)));
        assert_eq!(resp.status, crate::protocol::Status::Complete);
        drop(healthy);
        shutdown.raise();
        let summary = handle.join().unwrap();
        assert_eq!(summary.failed_writes, 1);
        assert!(summary.drained_clean);
    }

    #[test]
    fn injected_slow_read_charges_the_callers_wall_deadline() {
        let config = faulted(FaultPlan::new().slow_read(1, 30));
        let (addr, shutdown, handle) = boot(config, ServeOptions::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut request = Request::new(1, Query::cwsc(2, 0.8));
        request.deadline_ms = Some(10_000);
        let resp = roundtrip(&mut stream, &request);
        // The stall happens before admission; the solve still finishes.
        assert_eq!(resp.status, crate::protocol::Status::Complete);
        drop(stream);
        shutdown.raise();
        assert!(handle.join().unwrap().drained_clean);
    }
}

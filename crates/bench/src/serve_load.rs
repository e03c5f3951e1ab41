//! `scwsc_bench serve-load` — client-side load generator for a running
//! `scwsc_serve` instance (DESIGN.md §17).
//!
//! Opens `connections` concurrent TCP connections, releases them through
//! a barrier so the first volley lands as one burst, and drives a
//! deterministic query mix through each. Every request is tracked until
//! it is *answered* (any of the four protocol statuses) or times out —
//! the generator's core assertion is the serving contract itself:
//!
//! > zero dropped requests: `sent == complete + degraded + rejected +
//! > errors`, every degraded answer certificate-verified, every
//! > rejection carrying an explicit `retry_after_ms`.
//!
//! The report aggregates latency percentiles (p50/p99), the degraded
//! and reject rates, cache-hit and brownout-tier observations.

use scwsc_core::solver::{CostModel, Query};
use scwsc_serve::{Request, Response, Status};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Load-generator knobs (`scwsc_bench serve-load` flags).
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Server address, e.g. `127.0.0.1:7575`.
    pub addr: String,
    /// Concurrent connections (each on its own thread).
    pub connections: usize,
    /// Requests per connection.
    pub requests: usize,
    /// Distinct queries in the deterministic mix. Small values drive the
    /// result cache hard; large values drive admission hard.
    pub distinct: usize,
    /// Per-request caller deadline forwarded on the wire (`None` uses
    /// the server default).
    pub deadline_ms: Option<u64>,
    /// Per-request tick-budget cap forwarded on the wire.
    pub max_ticks: Option<u64>,
    /// Retries per rejected request, honoring the server's
    /// `retry_after_ms` hint between attempts. 0 counts rejections as
    /// terminal answers (they still satisfy the no-drop contract).
    pub retries: u32,
    /// How long to wait for one response line before declaring the
    /// request dropped (the contract violation this tool exists to
    /// detect).
    pub timeout: Duration,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            addr: "127.0.0.1:7575".to_string(),
            connections: 4,
            requests: 64,
            distinct: 8,
            deadline_ms: None,
            max_ticks: None,
            retries: 0,
            timeout: Duration::from_secs(30),
        }
    }
}

/// The deterministic query mix: request `i` of the run maps to one of
/// `distinct` queries, cycling algorithms, sizes, coverage targets and
/// cost models so both solver paths and the cache canonicalizer are
/// exercised. Pure function of `(i, distinct)` — every run of the same
/// shape sends the same queries in the same per-connection order.
pub fn query_mix(i: usize, distinct: usize) -> Query {
    let d = i % distinct.max(1);
    let coverage = 0.3 + 0.05 * (d % 8) as f64;
    let k = 2 + d % 3;
    let mut query = if d.is_multiple_of(2) {
        Query::cwsc(k, coverage)
    } else {
        Query::cmc(k, coverage)
    };
    query.cost = match d % 4 {
        0 => CostModel::Max,
        1 => CostModel::Sum,
        2 => CostModel::Mean,
        _ => CostModel::Count,
    };
    query
}

/// Aggregated outcome of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests sent (retries of a rejected request count once).
    pub sent: u64,
    /// Requests that received a terminal response line.
    pub answered: u64,
    /// Requests that timed out or lost their connection — contract
    /// violations unless a fault plan injected the disconnect.
    pub dropped: u64,
    /// Terminal `complete` responses.
    pub complete: u64,
    /// Terminal `degraded` responses.
    pub degraded: u64,
    /// Terminal `rejected` responses (retries exhausted or disabled).
    pub rejected: u64,
    /// Terminal `error` responses.
    pub errors: u64,
    /// Responses served from the result cache.
    pub cached: u64,
    /// Rejections that were retried after their `retry_after_ms` hint.
    pub retried: u64,
    /// Degraded answers whose certificate did **not** re-verify
    /// (`answer.certified != Some(true)`) — contract violations.
    pub uncertified_degraded: u64,
    /// Rejections missing the mandatory `retry_after_ms` — contract
    /// violations.
    pub rejects_without_hint: u64,
    /// Highest brownout tier observed across responses.
    pub max_tier: u8,
    /// Responses that reported a retried panic isolation (attempts ≥ 2).
    pub panics_retried: u64,
    /// Per-request end-to-end latencies in milliseconds, sorted
    /// ascending (terminal answers only).
    pub latencies_ms: Vec<f64>,
    /// Wall clock of the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// The `q`-quantile (0..=1) of the latency distribution, 0 when no
    /// request was answered. Nearest-rank on the sorted latencies.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let rank = ((self.latencies_ms.len() as f64) * q).ceil() as usize;
        self.latencies_ms[rank.clamp(1, self.latencies_ms.len()) - 1]
    }

    /// Fraction of terminal answers that came back degraded.
    pub fn degraded_rate(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.degraded as f64 / self.answered as f64
        }
    }

    /// Fraction of terminal answers that were rejections.
    pub fn reject_rate(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.rejected as f64 / self.answered as f64
        }
    }

    /// Whether the run upheld the serving contract: nothing dropped,
    /// every degrade certified, every rejection carrying its retry hint.
    pub fn ok(&self) -> bool {
        self.dropped == 0 && self.uncertified_degraded == 0 && self.rejects_without_hint == 0
    }

    /// Human-readable summary block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve-load: {} sent, {} answered, {} dropped in {:.2}s ({:.0} req/s)\n",
            self.sent,
            self.answered,
            self.dropped,
            self.elapsed.as_secs_f64(),
            self.answered as f64 / self.elapsed.as_secs_f64().max(1e-9),
        ));
        out.push_str(&format!(
            "  complete {}  degraded {} ({:.1}%)  rejected {} ({:.1}%)  errors {}\n",
            self.complete,
            self.degraded,
            100.0 * self.degraded_rate(),
            self.rejected,
            100.0 * self.reject_rate(),
            self.errors,
        ));
        out.push_str(&format!(
            "  latency p50 {:.2}ms  p99 {:.2}ms  cache hits {}  retried rejects {}  max tier {}  panics retried {}\n",
            self.latency_quantile(0.50),
            self.latency_quantile(0.99),
            self.cached,
            self.retried,
            self.max_tier,
            self.panics_retried,
        ));
        if self.ok() {
            out.push_str("  contract: OK (zero dropped, degrades certified, rejects hinted)\n");
        } else {
            out.push_str(&format!(
                "  contract: VIOLATED (dropped {}, uncertified degrades {}, rejects without retry_after {})\n",
                self.dropped, self.uncertified_degraded, self.rejects_without_hint,
            ));
        }
        out
    }

    fn absorb(&mut self, response: &Response) {
        self.answered += 1;
        match response.status {
            Status::Complete => self.complete += 1,
            Status::Degraded => {
                self.degraded += 1;
                let certified = response
                    .answer
                    .as_ref()
                    .is_some_and(|a| a.certified == Some(true));
                if !certified {
                    self.uncertified_degraded += 1;
                }
            }
            Status::Rejected => {
                self.rejected += 1;
                if response.retry_after_ms.is_none() {
                    self.rejects_without_hint += 1;
                }
            }
            Status::Error => self.errors += 1,
        }
        if response.cached {
            self.cached += 1;
        }
        if response.attempts >= 2 {
            self.panics_retried += 1;
        }
        self.max_tier = self.max_tier.max(response.tier);
    }

    fn merge(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.dropped += other.dropped;
        self.complete += other.complete;
        self.degraded += other.degraded;
        self.rejected += other.rejected;
        self.errors += other.errors;
        self.cached += other.cached;
        self.retried += other.retried;
        self.uncertified_degraded += other.uncertified_degraded;
        self.rejects_without_hint += other.rejects_without_hint;
        self.max_tier = self.max_tier.max(other.max_tier);
        self.panics_retried += other.panics_retried;
        self.latencies_ms.extend(other.latencies_ms);
    }
}

/// One client connection: a buffered line reader over a read-timeout
/// socket. Partial lines are accumulated across timeouts — the overall
/// per-request deadline, not any single `read` return, decides a drop.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    timeout: Duration,
}

impl Client {
    fn connect(addr: &str, timeout: Duration) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cloning stream: {e}"))?,
        );
        Ok(Client {
            stream,
            reader,
            timeout,
        })
    }

    /// Sends one request and waits for its terminal response. `Ok(None)`
    /// means dropped: the deadline passed or the connection died without
    /// a response line.
    fn round_trip(&mut self, request: &Request) -> Result<Option<Response>, String> {
        let mut line = request.to_line();
        line.push('\n');
        if self.stream.write_all(line.as_bytes()).is_err() {
            return Ok(None);
        }
        let deadline = Instant::now() + self.timeout;
        let mut buf = String::new();
        loop {
            match self.reader.read_line(&mut buf) {
                Ok(0) => return Ok(None), // server closed mid-request
                Ok(_) if buf.ends_with('\n') => break,
                Ok(_) => {} // partial line: keep accumulating
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if Instant::now() >= deadline {
                        return Ok(None); // dropped: the contract violation
                    }
                }
                Err(_) => return Ok(None),
            }
        }
        Response::parse(buf.trim_end()).map(Some)
    }
}

/// Drives one connection's share of the load. Rejected responses are
/// retried up to `options.retries` times after sleeping the server's
/// `retry_after_ms` hint; everything else is terminal on first answer.
fn drive_connection(
    options: &LoadOptions,
    connection: usize,
    start: &Barrier,
) -> Result<LoadReport, String> {
    let mut client = Client::connect(&options.addr, options.timeout)?;
    let mut report = LoadReport::default();
    start.wait(); // the burst: all connections fire together
    for i in 0..options.requests {
        let global = connection * options.requests + i;
        let mut request = Request::new(global as u64, query_mix(global, options.distinct));
        request.deadline_ms = options.deadline_ms;
        request.max_ticks = options.max_ticks;
        report.sent += 1;
        let sent_at = Instant::now();
        let mut attempts_left = options.retries;
        loop {
            match client.round_trip(&request)? {
                None => {
                    report.dropped += 1;
                    // The connection is unusable after a drop (any late
                    // response line would desynchronize the stream);
                    // reconnect for the remaining requests.
                    client = Client::connect(&options.addr, options.timeout)?;
                    break;
                }
                Some(response) if response.status == Status::Rejected && attempts_left > 0 => {
                    attempts_left -= 1;
                    report.retried += 1;
                    std::thread::sleep(Duration::from_millis(
                        response.retry_after_ms.unwrap_or(10).min(1_000),
                    ));
                }
                Some(response) => {
                    report.absorb(&response);
                    report
                        .latencies_ms
                        .push(sent_at.elapsed().as_secs_f64() * 1e3);
                    break;
                }
            }
        }
    }
    Ok(report)
}

/// Runs the load against `options.addr` and aggregates the per-connection
/// reports. Fails only on setup errors (cannot connect, malformed
/// response); contract violations are *reported*, not errored, so the
/// caller can render the summary before gating on [`LoadReport::ok`].
pub fn run(options: &LoadOptions) -> Result<LoadReport, String> {
    let start = Arc::new(Barrier::new(options.connections));
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let began = Instant::now();
    let mut report = LoadReport::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for connection in 0..options.connections {
            let start = Arc::clone(&start);
            let failures = Arc::clone(&failures);
            handles.push(scope.spawn(move || {
                match drive_connection(options, connection, &start) {
                    Ok(report) => Some(report),
                    Err(e) => {
                        failures.lock().unwrap().push(e);
                        None
                    }
                }
            }));
        }
        for handle in handles {
            if let Some(partial) = handle.join().unwrap_or(None) {
                report.merge(partial);
            }
        }
    });
    let failures = failures.lock().unwrap();
    if let Some(first) = failures.first() {
        return Err(format!(
            "{} connection(s) failed; first: {first}",
            failures.len()
        ));
    }
    report.elapsed = began.elapsed();
    report.latencies_ms.sort_by(f64::total_cmp);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scwsc_core::solver::Algorithm;

    #[test]
    fn query_mix_is_deterministic_and_cycles() {
        for i in 0..32 {
            assert_eq!(query_mix(i, 8), query_mix(i + 8, 8));
            assert_eq!(query_mix(i, 8), query_mix(i, 8));
        }
        let distinct: std::collections::BTreeSet<String> = (0..64)
            .map(|i| scwsc_serve::canonical_key(&query_mix(i, 8)))
            .collect();
        assert_eq!(distinct.len(), 8, "8 distinct canonical queries");
        assert!((0..8).any(|i| query_mix(i, 8).algorithm == Algorithm::Cwsc));
        assert!((0..8).any(|i| query_mix(i, 8).algorithm == Algorithm::Cmc));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let report = LoadReport {
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            ..LoadReport::default()
        };
        assert_eq!(report.latency_quantile(0.50), 5.0);
        assert_eq!(report.latency_quantile(0.99), 10.0);
        assert_eq!(report.latency_quantile(1.0), 10.0);
        assert_eq!(LoadReport::default().latency_quantile(0.5), 0.0);
    }

    #[test]
    fn contract_check_flags_each_violation() {
        let mut report = LoadReport::default();
        assert!(report.ok());
        report.dropped = 1;
        assert!(!report.ok());
        report.dropped = 0;
        report.uncertified_degraded = 1;
        assert!(!report.ok());
        report.uncertified_degraded = 0;
        report.rejects_without_hint = 1;
        assert!(!report.ok());
    }
}

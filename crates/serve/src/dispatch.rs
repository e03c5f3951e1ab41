//! Request dispatch: cache → admission → deadline → isolated solve.
//!
//! [`ServerState`] is the transport-independent heart of `scwsc_serve`:
//! one immutable `Arc<dyn Solver>` instance, one shared [`ThreadPool`],
//! one [`Gate`], one [`ResultCache`], one [`SolveWindows`]. The TCP
//! layer (`server.rs`) parses lines into [`Request`]s and calls
//! [`ServerState::dispatch`]; tests and the property suite call it
//! directly, so every admission/degrade/retry path is exercised without
//! sockets.
//!
//! The per-request pipeline:
//!
//! 1. **Cache** — canonicalize the query; a hit returns immediately and
//!    never consumes a queue slot or tick grant.
//! 2. **Admission** — the [`Gate`] grants a (possibly shrunken) tick
//!    budget, or rejects with Retry-After. Queue wait is charged against
//!    the caller's wall deadline: the solve gets whatever remains.
//! 3. **Isolated solve** — `catch_unwind` around the solver; a panicking
//!    request gets exactly one retry after a jittered-but-seeded backoff
//!    (deterministic per request sequence number, so failures replay).
//!    The injected fault plan is attached only to the first attempt: the
//!    injection models a transient fault the retry recovers from.
//! 4. **Bookkeeping** — the solve feeds [`SolveWindows`] (which drives
//!    brownout tier decisions), per-request metrics merge into the
//!    server-lifetime [`MetricsRecorder`], and complete answers enter
//!    the cache.
//!
//! Every admitted request produces a response — `complete`, `degraded`
//! (certificate re-verified by the instance), or `error` — never a drop.

use crate::admission::{Admission, AdmissionConfig, BrownoutConfig, Gate, GateSnapshot};
use crate::cache::{canonical_key, ResultCache};
use crate::protocol::{Request, Response, Status};
#[cfg(feature = "fault-inject")]
use scwsc_core::FaultPlan;
use scwsc_core::{
    panic_message, render_prometheus_windowed, Deadline, EngineError, Fanout, FlightRecorder,
    MetricsRecorder, SolveOutcome, SolveSample, SolveWindows, Solver, ThreadPool, Watchdog,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server-wide knobs (transport-independent).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Default caller deadline in ms when a request names none
    /// (0 = no wall-clock bound; tick budgets still apply).
    pub default_deadline_ms: u64,
    /// Result-cache capacity in answers (0 disables).
    pub cache_capacity: usize,
    /// Admission gate sizing.
    pub admission: AdmissionConfig,
    /// Brownout state-machine thresholds.
    pub brownout: BrownoutConfig,
    /// Sliding-window width, in solves.
    pub window: usize,
    /// Seed for the retry backoff jitter (deterministic per request).
    pub backoff_seed: u64,
    /// Upper bound on the retry backoff, in ms.
    pub max_backoff_ms: u64,
    /// Engine fault injection: the (1-based) request sequence number
    /// whose first solve attempt panics — exercises the catch_unwind +
    /// retry path deterministically.
    #[cfg(feature = "fault-inject")]
    pub panic_request: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            default_deadline_ms: 0,
            cache_capacity: 256,
            admission: AdmissionConfig::default(),
            brownout: BrownoutConfig::default(),
            window: 64,
            backoff_seed: 0x5c3c_a11e,
            max_backoff_ms: 20,
            #[cfg(feature = "fault-inject")]
            panic_request: None,
        }
    }
}

/// Monotonic service counters, exported on drain and in the summary.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Requests answered `complete` (cache hits included).
    pub complete: AtomicU64,
    /// Requests answered `degraded` (all certificate-verified).
    pub degraded: AtomicU64,
    /// Requests shed at admission with Retry-After.
    pub rejected: AtomicU64,
    /// Requests answered `error` (parse/solve failures).
    pub errors: AtomicU64,
    /// Cache hits (subset of `complete`).
    pub cache_hits: AtomicU64,
    /// Panics isolated by `catch_unwind` (each at most one retry).
    pub panics_isolated: AtomicU64,
}

impl ServeCounters {
    /// Total requests answered (every class).
    pub fn answered(&self) -> u64 {
        self.complete.load(Ordering::Relaxed)
            + self.degraded.load(Ordering::Relaxed)
            + self.rejected.load(Ordering::Relaxed)
            + self.errors.load(Ordering::Relaxed)
    }
}

/// The shared, transport-independent server state. All methods take
/// `&self`; connection threads share one `Arc<ServerState>`.
pub struct ServerState {
    solver: Arc<dyn Solver>,
    pool: ThreadPool,
    gate: Gate,
    cache: Mutex<ResultCache>,
    windows: Mutex<SolveWindows>,
    metrics: Mutex<MetricsRecorder>,
    flight: FlightRecorder,
    watchdog: Option<Watchdog>,
    config: ServerConfig,
    seq: AtomicU64,
    /// Monotonic service counters.
    pub counters: ServeCounters,
}

impl ServerState {
    /// Builds the server state around an instance. `watchdog` (if any)
    /// observes every solve; arm its monitor in the transport layer.
    pub fn new(
        solver: Arc<dyn Solver>,
        pool: ThreadPool,
        config: ServerConfig,
        flight: FlightRecorder,
        watchdog: Option<Watchdog>,
    ) -> ServerState {
        ServerState {
            gate: Gate::new(config.admission.clone(), config.brownout.clone()),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            windows: Mutex::new(SolveWindows::with_window(config.window)),
            metrics: Mutex::new(MetricsRecorder::new()),
            flight,
            watchdog,
            config,
            seq: AtomicU64::new(0),
            counters: ServeCounters::default(),
            solver,
            pool,
        }
    }

    /// The instance being served.
    pub fn solver(&self) -> &dyn Solver {
        &*self.solver
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shared flight recorder (for end-of-run dumps).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The liveness watchdog, when armed.
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.watchdog.as_ref()
    }

    /// Gate occupancy right now.
    pub fn gate_snapshot(&self) -> GateSnapshot {
        self.gate.snapshot()
    }

    /// `(hits, misses, evictions)` of the result cache.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        self.cache.lock().expect("cache lock").stats()
    }

    /// Flips the gate into drain mode: subsequent dispatches reject with
    /// Retry-After while in-flight solves finish.
    pub fn drain(&self) {
        self.gate.drain();
    }

    /// Whether the gate is draining.
    pub fn draining(&self) -> bool {
        self.gate.snapshot().draining
    }

    /// Renders the Prometheus exposition of the server-lifetime metrics
    /// and the sliding window.
    pub fn prometheus(&self) -> String {
        let metrics = self.metrics.lock().expect("metrics lock");
        let windows = self.windows.lock().expect("windows lock");
        render_prometheus_windowed(&metrics, &windows)
    }

    /// Answers one request end-to-end (see module docs for the
    /// pipeline). Blocks while queued; returns for every input.
    pub fn dispatch(&self, request: &Request) -> Response {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let key = canonical_key(&request.query);
        if let Some(answer) = self.cache.lock().expect("cache lock").get(&key) {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.counters.complete.fetch_add(1, Ordering::Relaxed);
            return Response {
                id: request.id,
                status: Status::Complete,
                answer: Some(answer),
                certificate: None,
                retry_after_ms: None,
                cached: true,
                tier: self.gate.snapshot().tier,
                attempts: 0,
                queue_ms: 0.0,
                solve_ms: 0.0,
                error: None,
            };
        }

        let wall_budget = match request
            .deadline_ms
            .unwrap_or(self.config.default_deadline_ms)
        {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        };
        let ticket = match self.gate.admit(request.max_ticks, wall_budget) {
            Admission::Admit(t) | Admission::Degrade(t) => t,
            Admission::Reject { retry_after_ms } => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Response::rejected(
                    request.id,
                    retry_after_ms,
                    0.0,
                    self.gate.snapshot().tier,
                );
            }
        };

        let (granted_ticks, queue_wait, tier) = (ticket.ticks, ticket.queue_wait, ticket.tier);
        let queue_ms = queue_wait.as_secs_f64() * 1e3;
        let solve_started = Instant::now();
        let mut attempts = 0u32;
        let mut request_metrics = MetricsRecorder::new();
        let outcome = loop {
            attempts += 1;
            // Fresh deadline per attempt: budgets restart, but the wall
            // clock keeps charging from admission (queue wait included).
            let mut deadline = Deadline::unbounded().with_tick_budget(granted_ticks);
            if let Some(wall) = wall_budget {
                let charged = queue_wait + solve_started.elapsed();
                deadline = deadline.with_wall_clock(wall.saturating_sub(charged));
            }
            #[cfg(feature = "fault-inject")]
            if attempts == 1 && self.config.panic_request == Some(seq) {
                deadline = deadline.with_fault_plan(FaultPlan::new().panic_at_tick(0));
            }
            let solved = {
                let mut flight_tap = self.flight.clone();
                let mut dog_tap = self.watchdog.clone();
                let solver = &*self.solver;
                let pool = &self.pool;
                let query = &request.query;
                let metrics = &mut request_metrics;
                catch_unwind(AssertUnwindSafe(move || {
                    let mut obs = Fanout::new();
                    obs.attach(metrics).attach(&mut flight_tap);
                    if let Some(d) = dog_tap.as_mut() {
                        obs.attach(d);
                    }
                    solver.solve(query, pool, &deadline, &mut obs)
                }))
            };
            let panic_msg = match solved {
                Ok(Ok(outcome)) => {
                    self.finish_solve(&request_metrics, outcome.is_degraded());
                    let solve_ms = solve_started.elapsed().as_secs_f64() * 1e3;
                    self.gate.release(ticket);
                    let status = if outcome.is_degraded() {
                        self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                        Status::Degraded
                    } else {
                        self.counters.complete.fetch_add(1, Ordering::Relaxed);
                        Status::Complete
                    };
                    let certificate = outcome.certificate().cloned();
                    let answer = match outcome {
                        SolveOutcome::Complete(a) => a,
                        SolveOutcome::Degraded(d) => d.partial,
                    };
                    if status == Status::Complete {
                        self.cache
                            .lock()
                            .expect("cache lock")
                            .insert(key, answer.clone());
                    }
                    break Response {
                        id: request.id,
                        status,
                        answer: Some(answer),
                        certificate,
                        retry_after_ms: None,
                        cached: false,
                        tier,
                        attempts,
                        queue_ms,
                        solve_ms,
                        error: None,
                    };
                }
                Ok(Err(EngineError::Panicked(msg))) => msg,
                Ok(Err(EngineError::Solve(e))) => {
                    // Structural failure (infeasible query): deterministic,
                    // so a retry cannot help.
                    self.finish_solve(&request_metrics, false);
                    self.gate.release(ticket);
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    break Response {
                        queue_ms,
                        solve_ms: solve_started.elapsed().as_secs_f64() * 1e3,
                        tier,
                        attempts,
                        ..Response::error(request.id, format!("solve failed: {e}"))
                    };
                }
                Err(payload) => panic_message(&*payload),
            };
            // A panic escaped (or was reported) — isolate it, back off,
            // retry exactly once.
            self.counters
                .panics_isolated
                .fetch_add(1, Ordering::Relaxed);
            if attempts >= 2 {
                self.finish_solve(&request_metrics, false);
                self.gate.release(ticket);
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                break Response {
                    queue_ms,
                    solve_ms: solve_started.elapsed().as_secs_f64() * 1e3,
                    tier,
                    attempts,
                    ..Response::error(
                        request.id,
                        format!("solve panicked twice, giving up: {panic_msg}"),
                    )
                };
            }
            std::thread::sleep(Duration::from_millis(self.backoff_ms(seq)));
        };
        outcome
    }

    /// Jittered-but-seeded backoff: deterministic per request sequence
    /// number, spread across requests (splitmix-style mix + xorshift).
    fn backoff_ms(&self, seq: u64) -> u64 {
        let mut x = self.config.backoff_seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        1 + x % self.config.max_backoff_ms.max(1)
    }

    /// Post-solve bookkeeping: fold the solve into the sliding window,
    /// drive the brownout state machine, merge metrics.
    fn finish_solve(&self, request_metrics: &MetricsRecorder, degraded: bool) {
        let (rate, p99) = {
            let mut windows = self.windows.lock().expect("windows lock");
            windows.observe(SolveSample {
                selections: request_metrics.selections,
                benefits_computed: request_metrics.benefits_computed,
                degraded,
            });
            (windows.degraded_rate(), windows.benefits_quantile(0.99))
        };
        self.gate.observe_solve(rate, p99);
        self.metrics
            .lock()
            .expect("metrics lock")
            .merge(request_metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scwsc_core::solver::Query;
    use scwsc_core::telemetry::export::find_sample;
    use scwsc_core::{SetSystem, SystemInstance, Threads};

    fn state(config: ServerConfig) -> ServerState {
        let mut b = SetSystem::builder(6);
        b.add_set([0, 1, 2], 3.0)
            .add_set([3, 4], 1.0)
            .add_set([5], 1.0)
            .add_universe_set(50.0);
        let solver = Arc::new(SystemInstance::new(Arc::new(b.build().unwrap())));
        ServerState::new(
            solver,
            ThreadPool::new(Threads::serial()),
            config,
            FlightRecorder::new(),
            None,
        )
    }

    #[test]
    fn dispatch_completes_and_caches() {
        let s = state(ServerConfig::default());
        let req = Request::new(1, Query::cwsc(2, 0.8));
        let first = s.dispatch(&req);
        assert_eq!(first.status, Status::Complete);
        assert!(!first.cached);
        assert_eq!(first.attempts, 1);
        let second = s.dispatch(&req);
        assert_eq!(second.status, Status::Complete);
        assert!(second.cached);
        assert_eq!(second.answer, first.answer);
        assert_eq!(s.cache_stats().0, 1);
        assert_eq!(s.counters.complete.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn zero_tick_cap_degrades_with_verified_certificate() {
        let s = state(ServerConfig::default());
        let mut req = Request::new(2, Query::cmc(2, 0.8));
        req.max_ticks = Some(0);
        let resp = s.dispatch(&req);
        assert_eq!(resp.status, Status::Degraded);
        assert_eq!(resp.answer.as_ref().unwrap().certified, Some(true));
        assert!(resp.certificate.is_some());
        // Degraded answers are never cached.
        assert!(!s.dispatch(&req).cached);
    }

    #[test]
    fn draining_rejects_with_retry_after() {
        let s = state(ServerConfig::default());
        s.drain();
        let resp = s.dispatch(&Request::new(3, Query::cwsc(2, 0.8)));
        assert_eq!(resp.status, Status::Rejected);
        assert!(resp.retry_after_ms.is_some());
        assert_eq!(s.counters.rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cache_hits_bypass_a_draining_gate() {
        let s = state(ServerConfig::default());
        let req = Request::new(4, Query::cwsc(2, 0.8));
        assert_eq!(s.dispatch(&req).status, Status::Complete);
        s.drain();
        let resp = s.dispatch(&req);
        assert_eq!(resp.status, Status::Complete);
        assert!(resp.cached);
    }

    #[test]
    fn infeasible_query_errors_without_retry() {
        let s = state(ServerConfig::default());
        // k = 0 cannot cover anything: structural failure.
        let resp = s.dispatch(&Request::new(5, Query::cwsc(0, 0.8)));
        assert_eq!(resp.status, Status::Error);
        assert_eq!(resp.attempts, 1);
        assert!(resp.error.unwrap().contains("solve failed"));
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_panic_is_isolated_and_retried_once() {
        let config = ServerConfig {
            panic_request: Some(1),
            max_backoff_ms: 1,
            ..ServerConfig::default()
        };
        let s = state(config);
        let resp = s.dispatch(&Request::new(6, Query::cwsc(2, 0.8)));
        assert_eq!(resp.status, Status::Complete, "retry recovered: {resp:?}");
        assert_eq!(resp.attempts, 2);
        assert_eq!(s.counters.panics_isolated.load(Ordering::Relaxed), 1);
        // The panicking request was seq 1; later requests are clean.
        let resp = s.dispatch(&Request::new(7, Query::cmc(2, 0.5)));
        assert_eq!(resp.attempts, 1);
    }

    #[test]
    fn windows_and_prometheus_reflect_served_solves() {
        let s = state(ServerConfig::default());
        s.dispatch(&Request::new(8, Query::cwsc(2, 0.8)));
        let mut req = Request::new(9, Query::cmc(2, 0.8));
        req.max_ticks = Some(0);
        s.dispatch(&req);
        let text = s.prometheus();
        let samples = scwsc_core::parse_prometheus(&text).expect("exposition parses");
        let all = |name: &str| {
            find_sample(&samples, name, &[("entry", "all")])
                .unwrap_or_else(|| panic!("missing {name}:\n{text}"))
                .value
        };
        assert_eq!(all("scwsc_window_solves"), 2.0, "both solves observed");
        assert_eq!(
            all("scwsc_window_degraded_rate"),
            0.5,
            "one of two degraded"
        );
        assert!(
            !text.lines().any(|l| l.starts_with("scwsc_slo_")),
            "the server exports no per-solve SLO block:\n{text}"
        );
        assert!(
            !samples
                .iter()
                .any(|p| p.labels.iter().any(|(_, v)| v == "serve")),
            "no per-entry series:\n{text}"
        );
    }
}

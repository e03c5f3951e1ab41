//! Resilient solve engine: deadlines, cooperative cancellation, degraded
//! outcomes, and deterministic fault injection (DESIGN.md §12).
//!
//! Every greedy loop in this workspace makes monotone progress — a prefix
//! of its selections is itself a usable partial answer. This module turns
//! that into a degradation ladder:
//!
//! * [`Deadline`] — a wall-clock limit and/or a deterministic work-tick
//!   budget, checked cooperatively at round boundaries via
//!   [`checkpoint`](Deadline::checkpoint). The tick budget counts solver
//!   *decisions* (selection attempts, heap pops, sweep rounds), not time,
//!   so a `max_ticks` run expires at the same point on every machine and
//!   every thread count.
//! * [`SolveOutcome`] — `Complete(T)` or [`Degraded`], the latter carrying
//!   the best-so-far partial solution plus a [`Certificate`] that
//!   [`verify_certificate`](crate::solution::verify_certificate)
//!   independently re-checks.
//! * [`EngineError`] — structured failure: an ordinary [`SolveError`] or a
//!   contained panic ([`EngineError::Panicked`]). Solvers never let a
//!   worker panic escape as a panic.
//! * `FaultPlan` (behind the `fault-inject` feature) — a seeded,
//!   deterministic injector: worker panic at tick N, cancellation at tick
//!   M, forced guess failure. Property tests use it to assert that no
//!   input + fault schedule ever panics, hangs, or yields a certificate
//!   that fails verification.
//!
//! # Determinism contract
//!
//! Speculative budget guessing runs guesses on pool workers, which would
//! interleave their ticks nondeterministically. Solvers therefore
//! disable cross-guess speculation whenever the deadline is
//! *tick-addressed* ([`Deadline::tick_deterministic`]): guesses run in
//! serial order (inner benefit scans still parallelize — scans do not
//! tick), so the tick stream, the expiry point, and the outcome
//! classification are identical for `Threads(1)` and `Threads(N)`.
//! Wall-clock-only deadlines keep speculation and trade that parity for
//! throughput.

use crate::parallel::CancelToken;
use crate::solution::SolveError;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a solve was degraded (or a [`Deadline::checkpoint`] call failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DegradeReason {
    /// The wall-clock deadline passed.
    WallClock,
    /// The deterministic work-tick budget was consumed.
    TickBudget,
    /// The deadline's [`CancelToken`] was cancelled externally.
    Cancelled,
}

impl DegradeReason {
    /// Stable snake_case name used in traces and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::WallClock => "wall_clock",
            DegradeReason::TickBudget => "tick_budget",
            DegradeReason::Cancelled => "cancelled",
        }
    }

    fn code(self) -> u8 {
        match self {
            DegradeReason::WallClock => 1,
            DegradeReason::TickBudget => 2,
            DegradeReason::Cancelled => 3,
        }
    }

    fn from_code(code: u8) -> Option<DegradeReason> {
        match code {
            1 => Some(DegradeReason::WallClock),
            2 => Some(DegradeReason::TickBudget),
            3 => Some(DegradeReason::Cancelled),
            _ => None,
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A cooperative wall-clock and/or work-tick budget threaded through
/// every solver entry point.
///
/// Solvers call [`checkpoint`](Deadline::checkpoint) once per unit of
/// decision work; the first failing checkpoint makes the solver return its
/// partial progress as [`SolveOutcome::Degraded`]. An unbounded deadline
/// ([`Deadline::unbounded`]) never expires and costs one relaxed atomic
/// increment per checkpoint.
#[derive(Debug, Default)]
pub struct Deadline {
    wall: Option<Instant>,
    wall_budget: Option<Duration>,
    max_ticks: Option<u64>,
    // Shared (not inline) so a detached TickProbe can watch progress
    // from another thread while the solver owns the deadline.
    ticks: Arc<AtomicU64>,
    token: CancelToken,
    reason: AtomicU8,
    #[cfg(feature = "fault-inject")]
    fault: Option<FaultPlan>,
}

impl Deadline {
    /// A deadline that never expires (but can still be
    /// [`cancel`](Deadline::cancel)led).
    pub fn unbounded() -> Deadline {
        Deadline::default()
    }

    /// Expire once `budget` of wall-clock time has elapsed from now.
    pub fn with_wall_clock(mut self, budget: Duration) -> Deadline {
        self.wall = Some(Instant::now() + budget);
        self.wall_budget = Some(budget);
        self
    }

    /// Expire after `max_ticks` checkpoints — a deterministic work budget
    /// independent of machine speed and thread count.
    pub fn with_tick_budget(mut self, max_ticks: u64) -> Deadline {
        self.max_ticks = Some(max_ticks);
        self
    }

    /// Attach a deterministic fault-injection plan (tests only).
    #[cfg(feature = "fault-inject")]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Deadline {
        self.fault = Some(plan);
        self
    }

    /// Requests cooperative cancellation; the next checkpoint fails with
    /// [`DegradeReason::Cancelled`]. Idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.expire(DegradeReason::Cancelled);
    }

    /// The underlying token, for wiring into pre-existing cancellation
    /// plumbing. Cancelling it directly is equivalent to
    /// [`cancel`](Deadline::cancel).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.token
    }

    /// Checkpoints consumed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// A detached handle onto this deadline's tick counter, readable from
    /// any thread for as long as the probe lives — the liveness
    /// [`Watchdog`](crate::telemetry::watchdog::Watchdog) polls one to
    /// tell "stalled" apart from "working but quiet". Reading a probe
    /// never consumes ticks.
    pub fn tick_probe(&self) -> TickProbe {
        TickProbe {
            ticks: Arc::clone(&self.ticks),
        }
    }

    /// The tick budget, when one was set.
    pub fn max_ticks(&self) -> Option<u64> {
        self.max_ticks
    }

    /// The wall-clock budget this deadline was created with, when set.
    pub fn wall_budget(&self) -> Option<Duration> {
        self.wall_budget
    }

    /// Wall-clock time left before expiry (zero once past the deadline);
    /// `None` when no wall-clock budget was set. The basis of the SLO
    /// headroom gauge exported by
    /// [`SloGauges`](crate::telemetry::SloGauges).
    pub fn wall_remaining(&self) -> Option<Duration> {
        self.wall
            .map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }

    /// True when expiry depends only on the tick stream (a tick budget is
    /// set, or an attached fault plan triggers on ticks) — the condition
    /// under which solvers run guesses serially so the
    /// outcome is identical for every thread count.
    pub fn tick_deterministic(&self) -> bool {
        if self.max_ticks.is_some() {
            return true;
        }
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &self.fault {
            return plan.tick_addressed();
        }
        false
    }

    /// Consumes one tick of work and reports whether the solver may
    /// continue. The first failure latches: every later checkpoint fails
    /// with the same reason.
    ///
    /// # Panics
    /// Only under the `fault-inject` feature, when the attached
    /// `FaultPlan` schedules a panic at this tick — callers contain such
    /// panics with `catch_unwind`.
    pub fn checkpoint(&self) -> Result<(), DegradeReason> {
        let t = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &self.fault {
            if plan.cancel_due(t) {
                self.expire(DegradeReason::Cancelled);
            }
            plan.maybe_panic(t);
            plan.maybe_stall(t);
        }
        if let Some(max) = self.max_ticks {
            if t > max {
                self.expire(DegradeReason::TickBudget);
            }
        }
        if let Some(wall) = self.wall {
            if Instant::now() >= wall {
                self.expire(DegradeReason::WallClock);
            }
        }
        match self.expired() {
            Some(reason) => Err(reason),
            None => Ok(()),
        }
    }

    /// Non-ticking probe: the latched expiry reason, if any. Cheap enough
    /// for coarse boundaries that should not consume tick budget.
    pub fn expired(&self) -> Option<DegradeReason> {
        if self.token.is_cancelled() {
            // A token cancelled behind our back (via `cancel_token`) has no
            // recorded reason; report it as an external cancellation.
            Some(
                DegradeReason::from_code(self.reason.load(Ordering::Relaxed))
                    .unwrap_or(DegradeReason::Cancelled),
            )
        } else {
            None
        }
    }

    /// Injects a forced guess failure when the fault plan schedules one
    /// for `guess_index` (1-based serial guess number). No-op without the
    /// `fault-inject` feature.
    #[cfg(feature = "fault-inject")]
    pub fn fault_guess(&self, guess_index: u64) {
        if let Some(plan) = &self.fault {
            if plan.guess_should_panic(guess_index) {
                panic!("injected fault: guess {guess_index} failure");
            }
        }
    }

    /// Injects a forced guess failure (fault-injection builds only); this
    /// build compiles it away.
    #[cfg(not(feature = "fault-inject"))]
    #[inline]
    pub fn fault_guess(&self, _guess_index: u64) {}

    /// First expiry reason wins; later causes are ignored.
    fn expire(&self, reason: DegradeReason) {
        let _ =
            self.reason
                .compare_exchange(0, reason.code(), Ordering::Relaxed, Ordering::Relaxed);
        self.token.cancel();
    }
}

/// A read-only, thread-detachable view of a [`Deadline`]'s tick counter
/// (obtained via [`Deadline::tick_probe`]). The liveness watchdog polls
/// one to distinguish a solver that stopped emitting observer events but
/// keeps passing `checkpoint()`s (quiet progress) from one that stopped
/// ticking entirely (a stall).
#[derive(Debug, Clone)]
pub struct TickProbe {
    ticks: Arc<AtomicU64>,
}

impl TickProbe {
    /// Checkpoints the probed deadline has consumed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

/// A deterministic, seeded fault injector attached to a [`Deadline`].
///
/// Compiled only under the `fault-inject` feature so production builds
/// carry no injection branches. Tick-addressed faults (panic/cancel at
/// tick N) make the deadline [`tick_deterministic`](Deadline::tick_deterministic),
/// which disables speculation; guess-addressed faults (panic on guess i)
/// keep speculation enabled and still fire deterministically, because
/// serial guess indices are thread-count-invariant.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Default)]
pub struct FaultPlan {
    panic_at_tick: Option<u64>,
    cancel_at_tick: Option<u64>,
    /// One-shot: the first attempt of this guess panics; a retry succeeds.
    panic_guess_once: Option<u64>,
    /// Persistent: every attempt of this guess panics; the retry fails too
    /// and the solver reports [`EngineError::Panicked`].
    fail_guess: Option<u64>,
    /// One-shot `(tick, millis)`: the first checkpoint with tick ≥ `tick`
    /// sleeps `millis` before returning — a liveness stall, not an
    /// outcome change (the solve completes normally afterwards).
    stall_at_tick: Option<(u64, u64)>,
    /// Service layer `(request, millis)`: reading (1-based) request
    /// `request` stalls `millis` mid-read — a slow client whose bytes
    /// trickle in. The wait counts as queue time, so the request's solve
    /// deadline shrinks accordingly.
    slow_read: Option<(u64, u64)>,
    /// Service layer: the connection drops mid-request — after (1-based)
    /// request `request` is read, before any response byte is written.
    disconnect_at: Option<u64>,
    panic_fired: std::sync::atomic::AtomicBool,
    guess_panic_fired: std::sync::atomic::AtomicBool,
    stall_fired: std::sync::atomic::AtomicBool,
}

#[cfg(feature = "fault-inject")]
impl FaultPlan {
    /// An empty plan: injects nothing.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Panic (once) at the first checkpoint with tick ≥ `tick`.
    pub fn panic_at_tick(mut self, tick: u64) -> FaultPlan {
        self.panic_at_tick = Some(tick);
        self
    }

    /// Cancel the deadline at the first checkpoint with tick ≥ `tick`.
    pub fn cancel_at_tick(mut self, tick: u64) -> FaultPlan {
        self.cancel_at_tick = Some(tick);
        self
    }

    /// Panic on the first attempt of (1-based) guess `index`; retries
    /// succeed.
    pub fn panic_guess_once(mut self, index: u64) -> FaultPlan {
        self.panic_guess_once = Some(index);
        self
    }

    /// Panic on every attempt of (1-based) guess `index` — a persistent
    /// fault the retry cannot recover from.
    pub fn fail_guess(mut self, index: u64) -> FaultPlan {
        self.fail_guess = Some(index);
        self
    }

    /// Sleep `millis` (once) at the first checkpoint with tick ≥ `tick` —
    /// a pure liveness stall for exercising the watchdog. Deliberately
    /// *not* tick-addressed for speculation purposes: a sleep changes no
    /// outcome, so it must not force serial guessing.
    pub fn stall_at_tick(mut self, tick: u64, millis: u64) -> FaultPlan {
        self.stall_at_tick = Some((tick, millis));
        self
    }

    /// Service-layer fault: reading (1-based) request `request` stalls
    /// `millis` mid-read, simulating a slow client. Consumed by
    /// `scwsc_serve`'s connection loop, not by the solve engine.
    pub fn slow_read(mut self, request: u64, millis: u64) -> FaultPlan {
        self.slow_read = Some((request, millis));
        self
    }

    /// Service-layer fault: the connection is dropped after (1-based)
    /// request `request` is read and before any response is written.
    /// Consumed by `scwsc_serve`'s connection loop.
    pub fn disconnect_at(mut self, request: u64) -> FaultPlan {
        self.disconnect_at = Some(request);
        self
    }

    /// The injected read stall for (1-based) request `seq`, if any.
    pub fn slow_read_before(&self, seq: u64) -> Option<Duration> {
        self.slow_read
            .filter(|&(n, _)| n == seq)
            .map(|(_, millis)| Duration::from_millis(millis))
    }

    /// Whether the connection should drop mid-request `seq` (1-based).
    pub fn disconnects(&self, seq: u64) -> bool {
        self.disconnect_at == Some(seq)
    }

    /// A deterministic pseudo-random plan: the same seed always yields the
    /// same fault schedule, so property-test failures replay exactly.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let choice = next();
        let mut plan = FaultPlan::new();
        if choice & 1 != 0 {
            plan = plan.cancel_at_tick(next() % 64);
        }
        if choice & 2 != 0 {
            plan = plan.panic_at_tick(next() % 64);
        }
        if choice & 4 != 0 {
            plan = plan.panic_guess_once(1 + next() % 4);
        } else if choice & 8 != 0 {
            plan = plan.fail_guess(1 + next() % 4);
        }
        plan
    }

    /// Whether any fault triggers on the tick stream (disables
    /// speculation; see module docs).
    pub fn tick_addressed(&self) -> bool {
        self.panic_at_tick.is_some() || self.cancel_at_tick.is_some()
    }

    fn cancel_due(&self, tick: u64) -> bool {
        self.cancel_at_tick.is_some_and(|n| tick >= n)
    }

    fn maybe_panic(&self, tick: u64) {
        if let Some(n) = self.panic_at_tick {
            if tick >= n && !self.panic_fired.swap(true, Ordering::SeqCst) {
                panic!("injected fault: worker panic at tick {tick}");
            }
        }
    }

    fn maybe_stall(&self, tick: u64) {
        if let Some((n, millis)) = self.stall_at_tick {
            if tick >= n && !self.stall_fired.swap(true, Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(millis));
            }
        }
    }

    fn guess_should_panic(&self, index: u64) -> bool {
        if self.fail_guess == Some(index) {
            return true;
        }
        self.panic_guess_once == Some(index) && !self.guess_panic_fired.swap(true, Ordering::SeqCst)
    }
}

/// A partial answer's self-description, verified independently by
/// [`verify_certificate`](crate::solution::verify_certificate): the solver
/// claims what it achieved before the deadline, and the verifier recomputes
/// every claim from the raw set system.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Certificate {
    /// Number of sets/patterns in the partial solution.
    pub sets_used: usize,
    /// Elements (or progress units) covered when the deadline hit.
    pub covered: usize,
    /// The coverage target the solver was chasing (`ŝ·n`, discounted for
    /// CMC). Always strictly greater than `covered` for an honest degrade.
    pub target: usize,
    /// Total cost of the partial solution.
    pub total_cost: f64,
    /// CMC-family only: indices of cost levels whose quota was fully
    /// consumed before expiry (ascending). Empty for single-round solvers.
    pub quotas_exhausted: Vec<usize>,
    /// Work ticks consumed at expiry.
    pub ticks: u64,
    /// Why the solve degraded.
    pub reason: DegradeReason,
}

impl Certificate {
    /// Elements still missing toward the target.
    pub fn coverage_deficit(&self) -> usize {
        self.target.saturating_sub(self.covered)
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded ({}): {} sets, cost {}, covered {}/{} (deficit {}), \
             {} level quotas exhausted, {} ticks",
            self.reason,
            self.sets_used,
            self.total_cost,
            self.covered,
            self.target,
            self.coverage_deficit(),
            self.quotas_exhausted.len(),
            self.ticks
        )
    }
}

/// A degraded result: the best-so-far partial solution plus its
/// [`Certificate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Degraded<T> {
    /// The monotone greedy prefix accumulated before expiry.
    pub partial: T,
    /// The solver's claims about that prefix.
    pub certificate: Certificate,
}

/// What a solve produced.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveOutcome<T> {
    /// The solver finished normally; the value is the full solve's answer
    /// (an unbounded deadline always ends here or in an error).
    Complete(T),
    /// The deadline expired first; the partial prefix and certificate
    /// describe how far it got.
    Degraded(Degraded<T>),
}

impl<T> SolveOutcome<T> {
    /// True for [`SolveOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, SolveOutcome::Complete(_))
    }

    /// True for [`SolveOutcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, SolveOutcome::Degraded(_))
    }

    /// The contained value, complete or partial.
    pub fn value(&self) -> &T {
        match self {
            SolveOutcome::Complete(v) => v,
            SolveOutcome::Degraded(d) => &d.partial,
        }
    }

    /// The certificate, when degraded.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            SolveOutcome::Complete(_) => None,
            SolveOutcome::Degraded(d) => Some(&d.certificate),
        }
    }

    /// Unwraps a complete outcome.
    ///
    /// # Panics
    /// Panics with `msg` (and the certificate) when degraded.
    pub fn expect_complete(self, msg: &str) -> T {
        match self {
            SolveOutcome::Complete(v) => v,
            SolveOutcome::Degraded(d) => panic!("{msg}: {}", d.certificate),
        }
    }
}

/// Structured failure of a solve.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An ordinary infeasibility error from the underlying solver.
    Solve(SolveError),
    /// A solver job panicked and (where a retry applies) panicked again;
    /// the payload message is preserved. The engine never re-raises.
    Panicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Solve(e) => e.fmt(f),
            EngineError::Panicked(msg) => write!(f, "solver panicked: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SolveError> for EngineError {
    fn from(e: SolveError) -> EngineError {
        EngineError::Solve(e)
    }
}

/// Best-effort extraction of a panic payload's message (`&str` or
/// `String` payloads; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        let d = Deadline::unbounded();
        for _ in 0..1000 {
            assert_eq!(d.checkpoint(), Ok(()));
        }
        assert_eq!(d.ticks(), 1000);
        assert_eq!(d.expired(), None);
        assert!(!d.tick_deterministic());
    }

    #[test]
    fn tick_budget_expires_deterministically() {
        let d = Deadline::unbounded().with_tick_budget(3);
        assert!(d.tick_deterministic());
        assert_eq!(d.checkpoint(), Ok(()));
        assert_eq!(d.checkpoint(), Ok(()));
        assert_eq!(d.checkpoint(), Ok(()));
        assert_eq!(d.checkpoint(), Err(DegradeReason::TickBudget));
        // Latched: every later checkpoint fails the same way.
        assert_eq!(d.checkpoint(), Err(DegradeReason::TickBudget));
        assert_eq!(d.expired(), Some(DegradeReason::TickBudget));
    }

    #[test]
    fn zero_tick_budget_fails_first_checkpoint() {
        let d = Deadline::unbounded().with_tick_budget(0);
        assert_eq!(d.checkpoint(), Err(DegradeReason::TickBudget));
    }

    #[test]
    fn elapsed_wall_clock_expires() {
        let d = Deadline::unbounded().with_wall_clock(Duration::ZERO);
        assert!(!d.tick_deterministic());
        assert_eq!(d.checkpoint(), Err(DegradeReason::WallClock));
    }

    #[test]
    fn cancellation_latches_and_wins_when_first() {
        let d = Deadline::unbounded().with_tick_budget(100);
        assert_eq!(d.checkpoint(), Ok(()));
        d.cancel();
        assert_eq!(d.checkpoint(), Err(DegradeReason::Cancelled));
        assert_eq!(d.expired(), Some(DegradeReason::Cancelled));
    }

    #[test]
    fn raw_token_cancellation_reports_cancelled() {
        let d = Deadline::unbounded();
        d.cancel_token().cancel();
        assert_eq!(d.checkpoint(), Err(DegradeReason::Cancelled));
    }

    #[test]
    fn first_expiry_reason_wins() {
        let d = Deadline::unbounded().with_tick_budget(1);
        assert_eq!(d.checkpoint(), Ok(()));
        assert_eq!(d.checkpoint(), Err(DegradeReason::TickBudget));
        d.cancel(); // too late: reason already latched
        assert_eq!(d.checkpoint(), Err(DegradeReason::TickBudget));
    }

    #[test]
    fn deadline_budget_accessors() {
        let d = Deadline::unbounded();
        assert_eq!(d.max_ticks(), None);
        assert_eq!(d.wall_budget(), None);
        assert_eq!(d.wall_remaining(), None);

        let d = Deadline::unbounded()
            .with_tick_budget(9)
            .with_wall_clock(Duration::from_secs(3600));
        assert_eq!(d.max_ticks(), Some(9));
        assert_eq!(d.wall_budget(), Some(Duration::from_secs(3600)));
        let rem = d.wall_remaining().expect("wall budget set");
        assert!(rem <= Duration::from_secs(3600));
        assert!(rem > Duration::from_secs(3500), "just created");

        let expired = Deadline::unbounded().with_wall_clock(Duration::ZERO);
        assert_eq!(expired.wall_remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn tick_probe_sees_progress_without_consuming_it() {
        let d = Deadline::unbounded().with_tick_budget(5);
        let probe = d.tick_probe();
        assert_eq!(probe.ticks(), 0);
        assert_eq!(d.checkpoint(), Ok(()));
        assert_eq!(d.checkpoint(), Ok(()));
        assert_eq!(probe.ticks(), 2, "probe observes checkpoints");
        for _ in 0..10 {
            let _ = probe.ticks(); // reads never tick
        }
        assert_eq!(d.ticks(), 2);
        drop(d);
        assert_eq!(probe.ticks(), 2, "probe outlives the deadline");
    }

    #[test]
    fn degrade_reason_names() {
        assert_eq!(DegradeReason::WallClock.as_str(), "wall_clock");
        assert_eq!(DegradeReason::TickBudget.as_str(), "tick_budget");
        assert_eq!(DegradeReason::Cancelled.to_string(), "cancelled");
        for r in [
            DegradeReason::WallClock,
            DegradeReason::TickBudget,
            DegradeReason::Cancelled,
        ] {
            assert_eq!(DegradeReason::from_code(r.code()), Some(r));
        }
        assert_eq!(DegradeReason::from_code(0), None);
    }

    #[test]
    fn outcome_accessors() {
        let complete: SolveOutcome<u32> = SolveOutcome::Complete(7);
        assert!(complete.is_complete());
        assert_eq!(*complete.value(), 7);
        assert!(complete.certificate().is_none());
        assert_eq!(complete.expect_complete("must finish"), 7);

        let cert = Certificate {
            sets_used: 2,
            covered: 5,
            target: 9,
            total_cost: 3.5,
            quotas_exhausted: vec![0],
            ticks: 11,
            reason: DegradeReason::TickBudget,
        };
        assert_eq!(cert.coverage_deficit(), 4);
        let text = cert.to_string();
        assert!(text.contains("tick_budget"), "{text}");
        assert!(text.contains("5/9"), "{text}");
        let degraded: SolveOutcome<u32> = SolveOutcome::Degraded(Degraded {
            partial: 3,
            certificate: cert,
        });
        assert!(degraded.is_degraded());
        assert_eq!(*degraded.value(), 3);
        assert_eq!(degraded.certificate().unwrap().ticks, 11);
    }

    #[test]
    #[should_panic(expected = "must finish")]
    fn expect_complete_panics_on_degraded() {
        let degraded: SolveOutcome<u32> = SolveOutcome::Degraded(Degraded {
            partial: 0,
            certificate: Certificate {
                sets_used: 0,
                covered: 0,
                target: 1,
                total_cost: 0.0,
                quotas_exhausted: Vec::new(),
                ticks: 0,
                reason: DegradeReason::Cancelled,
            },
        });
        degraded.expect_complete("must finish");
    }

    #[test]
    fn engine_error_display_and_from() {
        let e: EngineError = SolveError::BudgetExhausted.into();
        assert!(e.to_string().contains("budget"));
        let p = EngineError::Panicked("boom".to_owned());
        assert!(p.to_string().contains("boom"));
    }

    #[test]
    fn panic_message_extracts_strings() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(payload.as_ref()), "static str");
        let payload: Box<dyn std::any::Any + Send> = Box::new("owned".to_owned());
        assert_eq!(panic_message(payload.as_ref()), "owned");
        let payload: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert!(panic_message(payload.as_ref()).contains("non-string"));
    }

    #[cfg(feature = "fault-inject")]
    mod fault {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        #[test]
        fn panic_at_tick_fires_once() {
            let d = Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_at_tick(2));
            assert!(d.tick_deterministic(), "tick-addressed fault");
            assert_eq!(d.checkpoint(), Ok(()));
            let err = catch_unwind(AssertUnwindSafe(|| d.checkpoint()));
            assert!(err.is_err(), "tick 2 panics");
            // One-shot: the latch is consumed; the run continues.
            assert_eq!(d.checkpoint(), Ok(()));
        }

        #[test]
        fn cancel_at_tick_degrades() {
            let d = Deadline::unbounded().with_fault_plan(FaultPlan::new().cancel_at_tick(3));
            assert_eq!(d.checkpoint(), Ok(()));
            assert_eq!(d.checkpoint(), Ok(()));
            assert_eq!(d.checkpoint(), Err(DegradeReason::Cancelled));
        }

        #[test]
        fn guess_faults_do_not_force_serial_guessing() {
            let d = Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(2));
            assert!(
                !d.tick_deterministic(),
                "guess-addressed faults keep speculation"
            );
            assert_eq!(d.checkpoint(), Ok(()));
            d.fault_guess(1); // wrong index: no panic
            let err = catch_unwind(AssertUnwindSafe(|| d.fault_guess(2)));
            assert!(err.is_err(), "guess 2 panics once");
            d.fault_guess(2); // latch consumed: the retry proceeds
        }

        #[test]
        fn fail_guess_is_persistent() {
            let d = Deadline::unbounded().with_fault_plan(FaultPlan::new().fail_guess(1));
            for _ in 0..2 {
                let err = catch_unwind(AssertUnwindSafe(|| d.fault_guess(1)));
                assert!(err.is_err(), "every attempt panics");
            }
        }

        #[test]
        fn stall_fires_once_and_changes_no_outcome() {
            let d = Deadline::unbounded().with_fault_plan(FaultPlan::new().stall_at_tick(2, 30));
            assert!(!d.tick_deterministic(), "a sleep is not tick-addressed");
            assert_eq!(d.checkpoint(), Ok(()));
            let before = Instant::now();
            assert_eq!(d.checkpoint(), Ok(()), "stalled but not degraded");
            assert!(
                before.elapsed() >= Duration::from_millis(30),
                "tick 2 slept"
            );
            let before = Instant::now();
            assert_eq!(d.checkpoint(), Ok(()));
            assert!(
                before.elapsed() < Duration::from_millis(30),
                "one-shot: later ticks do not sleep"
            );
        }

        #[test]
        fn from_seed_is_deterministic() {
            for seed in 0..32u64 {
                let a = format!("{:?}", FaultPlan::from_seed(seed));
                let b = format!("{:?}", FaultPlan::from_seed(seed));
                assert_eq!(a, b, "seed {seed}");
            }
        }
    }
}

//! Admission control and brownout load shedding (DESIGN.md §17).
//!
//! Every non-cached request passes the [`Gate`], which classifies it:
//!
//! * **Admit** — an in-flight slot and the full (tier-adjusted) tick
//!   budget are available now;
//! * **Degrade** — the request runs, but with a shrunken budget: the
//!   brownout tier is above 0, remaining tick capacity covers only part
//!   of the grant, or the queue wait exhausted the caller's patience and
//!   the request is admitted with a zero budget so the solver returns an
//!   honest certified `Degraded` instead of being dropped;
//! * **Reject** — the bounded queue is full (or the server is draining);
//!   the caller gets an explicit `retry_after_ms` and *no* work is done.
//!
//! The accounting is two-dimensional: slots (`max_inflight` concurrent
//! solves, `max_queue` waiters) bound memory and thread pressure, while
//! the tick budget (`tick_capacity` outstanding ticks) bounds admitted
//! *work* — ticks are the engine's deterministic work unit, so capacity
//! is load-independent and testable.
//!
//! Brownout tiers shrink per-request budgets (`base_ticks >> tier`)
//! under sustained pressure instead of refusing work — degrade, don't
//! drop. The tier climbs when the [`SolveWindows`](scwsc_core::SolveWindows) p99 benefit count
//! saturates the current grant or the windowed degraded-rate crosses its
//! threshold (both solve-sequence-driven, hence deterministic), plus
//! queue occupancy; it decays after a calm streak. Hysteresis
//! (`raise_after` / `lower_after` consecutive observations) keeps the
//! tier from flapping.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Gate sizing and budgets.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Concurrent solves admitted (beyond this, requests queue).
    pub max_inflight: usize,
    /// Bounded queue depth; a full queue rejects with Retry-After.
    pub max_queue: usize,
    /// Cap on the sum of tick budgets granted to in-flight solves.
    pub tick_capacity: u64,
    /// Per-request tick budget at tier 0.
    pub base_ticks: u64,
    /// Grant floor: below this, a partial grant is not worth starting
    /// (the zero-budget distress grant is exempt).
    pub min_ticks: u64,
    /// Retry hint handed out with rejections.
    pub retry_after_ms: u64,
    /// Longest a request waits queued before the degrade-don't-drop path
    /// admits it with a zero budget (callers with deadlines wait at most
    /// their remaining budget instead).
    pub max_queue_wait: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_inflight: 4,
            max_queue: 16,
            tick_capacity: 800_000,
            base_ticks: 200_000,
            min_ticks: 64,
            retry_after_ms: 25,
            max_queue_wait: Duration::from_millis(100),
        }
    }
}

/// Brownout state-machine thresholds.
#[derive(Debug, Clone)]
pub struct BrownoutConfig {
    /// Deepest tier; each tier halves the tick grant (`base >> tier`).
    pub max_tier: u8,
    /// Consecutive hot observations before the tier rises.
    pub raise_after: u32,
    /// Consecutive calm observations before the tier falls.
    pub lower_after: u32,
    /// Windowed degraded-rate at or above which a solve counts as hot.
    pub hot_degraded_rate: f64,
    /// Queue+inflight occupancy fraction at or above which a solve
    /// counts as hot.
    pub hot_occupancy: f64,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig {
            max_tier: 3,
            raise_after: 4,
            lower_after: 16,
            hot_degraded_rate: 0.25,
            hot_occupancy: 0.5,
        }
    }
}

/// Proof of admission: the grant to run one solve. Must be handed back
/// via [`Gate::release`] (the dispatcher does this in all paths,
/// including panics).
#[derive(Debug)]
pub struct Ticket {
    /// Granted tick budget (0 = distress grant: degrade immediately).
    pub ticks: u64,
    /// Brownout tier at admission.
    pub tier: u8,
    /// Time spent queued before the grant.
    pub queue_wait: Duration,
    /// Whether the grant was shrunk below the tier-0 ask.
    pub shrunk: bool,
    /// Distress grants bypassed the slot check; release skips the
    /// tick refund (nothing was reserved).
    distress: bool,
}

/// The gate's answer for one request.
#[derive(Debug)]
pub enum Admission {
    /// Full grant at the current tier.
    Admit(Ticket),
    /// Shrunken (possibly zero) grant — run, but expect `Degraded`.
    Degrade(Ticket),
    /// Shed without running; retry after the hint.
    Reject {
        /// Milliseconds the caller should back off.
        retry_after_ms: u64,
    },
}

#[derive(Debug, Default)]
struct GateState {
    inflight: usize,
    queued: usize,
    outstanding_ticks: u64,
    draining: bool,
    tier: u8,
    hot_streak: u32,
    calm_streak: u32,
    tier_raises: u64,
}

/// Point-in-time gate occupancy, for telemetry and tier decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateSnapshot {
    /// Solves currently running.
    pub inflight: usize,
    /// Requests currently queued.
    pub queued: usize,
    /// Sum of outstanding tick grants.
    pub outstanding_ticks: u64,
    /// Current brownout tier.
    pub tier: u8,
    /// Times the tier has ever risen.
    pub tier_raises: u64,
    /// Whether the gate is draining (rejecting all new work).
    pub draining: bool,
}

/// The admission controller. All methods are `&self`; one gate is
/// shared by every connection thread.
pub struct Gate {
    config: AdmissionConfig,
    brownout: BrownoutConfig,
    state: Mutex<GateState>,
    freed: Condvar,
}

impl Gate {
    /// A gate with the given sizing.
    pub fn new(config: AdmissionConfig, brownout: BrownoutConfig) -> Gate {
        Gate {
            config,
            brownout,
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
        }
    }

    /// The sizing this gate enforces.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Classifies one request. `want_ticks` is the caller's own cap
    /// (never raised above the server budget); `wall_budget` bounds the
    /// queue wait. Blocks at most `min(wall_budget, max_queue_wait)`.
    pub fn admit(&self, want_ticks: Option<u64>, wall_budget: Option<Duration>) -> Admission {
        let started = Instant::now();
        let wait_cap = match wall_budget {
            Some(w) => w.min(self.config.max_queue_wait),
            None => self.config.max_queue_wait,
        };
        let mut state = self.state.lock().expect("gate lock poisoned");
        let mut queued_here = false;
        loop {
            if state.draining {
                if queued_here {
                    state.queued -= 1;
                }
                return Admission::Reject {
                    retry_after_ms: self.config.retry_after_ms,
                };
            }
            let tier_cap = (self.config.base_ticks >> state.tier).max(self.config.min_ticks);
            let desired = want_ticks
                .unwrap_or(self.config.base_ticks)
                .min(self.config.base_ticks)
                .min(tier_cap);
            if state.inflight < self.config.max_inflight {
                let available = self.config.tick_capacity
                    - state.outstanding_ticks.min(self.config.tick_capacity);
                let grant = desired.min(available);
                if grant >= self.config.min_ticks.min(desired) && grant > 0 {
                    if queued_here {
                        state.queued -= 1;
                    }
                    state.inflight += 1;
                    state.outstanding_ticks += grant;
                    let ticket = Ticket {
                        ticks: grant,
                        tier: state.tier,
                        queue_wait: started.elapsed(),
                        shrunk: grant < desired || state.tier > 0,
                        distress: false,
                    };
                    return if ticket.shrunk {
                        Admission::Degrade(ticket)
                    } else {
                        Admission::Admit(ticket)
                    };
                }
            }
            // No slot or no meaningful tick grant: queue (bounded) and
            // wait for a release.
            if !queued_here {
                if state.queued >= self.config.max_queue {
                    return Admission::Reject {
                        retry_after_ms: self.config.retry_after_ms,
                    };
                }
                state.queued += 1;
                queued_here = true;
            }
            let waited = started.elapsed();
            if waited >= wait_cap {
                // Degrade-don't-drop: the wait consumed the caller's
                // patience. Admit with a zero budget — the solver's
                // first checkpoint degrades with an honest certificate.
                state.queued -= 1;
                state.inflight += 1;
                return Admission::Degrade(Ticket {
                    ticks: 0,
                    tier: state.tier,
                    queue_wait: waited,
                    shrunk: true,
                    distress: true,
                });
            }
            let (next, _timeout) = self
                .freed
                .wait_timeout(state, wait_cap - waited)
                .expect("gate lock poisoned");
            state = next;
        }
    }

    /// Returns a ticket after its solve finished (any outcome).
    pub fn release(&self, ticket: Ticket) {
        let mut state = self.state.lock().expect("gate lock poisoned");
        state.inflight -= 1;
        if !ticket.distress {
            state.outstanding_ticks -= ticket.ticks;
        }
        drop(state);
        self.freed.notify_all();
    }

    /// Feeds one completed solve into the brownout state machine.
    /// `windowed_degraded_rate` and `p99_benefits` come from the shared
    /// [`SolveWindows`](scwsc_core::SolveWindows); occupancy is read from the gate itself. Returns
    /// the tier now in force.
    pub fn observe_solve(&self, windowed_degraded_rate: f64, p99_benefits: u64) -> u8 {
        let mut state = self.state.lock().expect("gate lock poisoned");
        let occupancy = (state.inflight + state.queued) as f64
            / (self.config.max_inflight + self.config.max_queue) as f64;
        let tier_cap = (self.config.base_ticks >> state.tier).max(self.config.min_ticks);
        let hot = windowed_degraded_rate >= self.brownout.hot_degraded_rate
            || occupancy >= self.brownout.hot_occupancy
            || p99_benefits >= tier_cap;
        if hot {
            state.hot_streak += 1;
            state.calm_streak = 0;
            if state.hot_streak >= self.brownout.raise_after && state.tier < self.brownout.max_tier
            {
                state.tier += 1;
                state.tier_raises += 1;
                state.hot_streak = 0;
            }
        } else {
            state.calm_streak += 1;
            state.hot_streak = 0;
            if state.calm_streak >= self.brownout.lower_after && state.tier > 0 {
                state.tier -= 1;
                state.calm_streak = 0;
            }
        }
        state.tier
    }

    /// Flips the gate into drain mode: every subsequent [`Gate::admit`]
    /// rejects (with Retry-After), queued waiters are woken to reject,
    /// in-flight solves finish normally.
    pub fn drain(&self) {
        self.state.lock().expect("gate lock poisoned").draining = true;
        self.freed.notify_all();
    }

    /// Point-in-time occupancy.
    pub fn snapshot(&self) -> GateSnapshot {
        let state = self.state.lock().expect("gate lock poisoned");
        GateSnapshot {
            inflight: state.inflight,
            queued: state.queued,
            outstanding_ticks: state.outstanding_ticks,
            tier: state.tier,
            tier_raises: state.tier_raises,
            draining: state.draining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(max_inflight: usize, max_queue: usize) -> Gate {
        Gate::new(
            AdmissionConfig {
                max_inflight,
                max_queue,
                tick_capacity: 1000,
                base_ticks: 400,
                min_ticks: 10,
                retry_after_ms: 25,
                max_queue_wait: Duration::from_millis(20),
            },
            BrownoutConfig::default(),
        )
    }

    fn ticket(admission: Admission) -> Ticket {
        match admission {
            Admission::Admit(t) | Admission::Degrade(t) => t,
            Admission::Reject { .. } => panic!("expected a grant"),
        }
    }

    #[test]
    fn admits_full_budget_when_idle() {
        let g = gate(2, 2);
        match g.admit(None, None) {
            Admission::Admit(t) => {
                assert_eq!(t.ticks, 400);
                assert_eq!(t.tier, 0);
                assert!(!t.shrunk);
                g.release(t);
            }
            other => panic!("expected Admit, got {other:?}"),
        }
        assert_eq!(g.snapshot().outstanding_ticks, 0);
    }

    #[test]
    fn caller_cap_lowers_but_never_raises_the_grant() {
        let g = gate(2, 2);
        let t = ticket(g.admit(Some(50), None));
        assert_eq!(t.ticks, 50);
        g.release(t);
        let t = ticket(g.admit(Some(9_999_999), None));
        assert_eq!(t.ticks, 400, "capped at base");
        g.release(t);
    }

    #[test]
    fn tick_capacity_shrinks_grants_under_pressure() {
        let g = gate(4, 4);
        let a = ticket(g.admit(None, None)); // 400
        let b = ticket(g.admit(None, None)); // 400
        let c = g.admit(None, None); // only 200 left
        match c {
            Admission::Degrade(t) => {
                assert_eq!(t.ticks, 200);
                assert!(t.shrunk);
                g.release(t);
            }
            other => panic!("expected Degrade, got {other:?}"),
        }
        g.release(a);
        g.release(b);
    }

    #[test]
    fn full_queue_rejects_with_retry_after() {
        let g = gate(1, 0); // one slot, no queue
        let held = ticket(g.admit(None, None));
        match g.admit(None, Some(Duration::from_millis(1))) {
            Admission::Reject { retry_after_ms } => assert_eq!(retry_after_ms, 25),
            other => panic!("expected Reject, got {other:?}"),
        }
        g.release(held);
    }

    #[test]
    fn exhausted_wait_degrades_to_zero_grant_instead_of_dropping() {
        let g = gate(1, 4);
        let held = ticket(g.admit(None, None));
        match g.admit(None, Some(Duration::from_millis(5))) {
            Admission::Degrade(t) => {
                assert_eq!(t.ticks, 0);
                assert!(t.queue_wait >= Duration::from_millis(5));
                g.release(t);
            }
            other => panic!("expected distress Degrade, got {other:?}"),
        }
        g.release(held);
        assert_eq!(g.snapshot().inflight, 0);
        assert_eq!(g.snapshot().outstanding_ticks, 0);
    }

    #[test]
    fn draining_rejects_everything_new() {
        let g = gate(2, 2);
        g.drain();
        assert!(matches!(g.admit(None, None), Admission::Reject { .. }));
        assert!(g.snapshot().draining);
    }

    #[test]
    fn released_slot_wakes_a_queued_waiter() {
        let g = std::sync::Arc::new(gate(1, 4));
        let held = ticket(g.admit(None, None));
        let g2 = std::sync::Arc::clone(&g);
        let waiter = std::thread::spawn(move || ticket(g2.admit(None, None)).ticks);
        std::thread::sleep(Duration::from_millis(2));
        g.release(held);
        assert_eq!(waiter.join().unwrap(), 400, "woken with the full grant");
    }

    #[test]
    fn brownout_rises_on_hot_streak_and_decays_on_calm() {
        let g = gate(4, 4);
        for _ in 0..4 {
            g.observe_solve(1.0, 0);
        }
        assert_eq!(g.snapshot().tier, 1, "raise after 4 hot solves");
        let t = ticket(g.admit(None, None));
        assert_eq!(t.ticks, 200, "tier 1 halves the grant");
        assert!(matches!(t.tier, 1));
        g.release(t);
        for _ in 0..8 {
            g.observe_solve(1.0, 0);
        }
        assert_eq!(g.snapshot().tier, 3, "clamped at max tier");
        for _ in 0..16 {
            g.observe_solve(0.0, 0);
        }
        assert_eq!(g.snapshot().tier, 2, "calm streak lowers one tier");
    }

    #[test]
    fn p99_budget_saturation_counts_as_hot() {
        let g = gate(4, 4);
        for _ in 0..4 {
            g.observe_solve(0.0, 400); // p99 == tier-0 grant
        }
        assert_eq!(g.snapshot().tier, 1);
    }
}

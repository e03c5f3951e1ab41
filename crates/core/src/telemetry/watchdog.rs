//! Liveness watchdog: detects solves that stop making progress and
//! auto-dumps the flight recorder for the post-mortem (DESIGN.md §16).
//!
//! The degradation ladder of [`engine`](crate::engine) handles solves
//! that *finish late* — a wall or tick budget expires and the solver
//! returns a certified partial answer. What it cannot handle is a solve
//! that stops calling [`checkpoint`](crate::engine::Deadline::checkpoint)
//! altogether (a deadlocked worker, a pathological allocation storm, an
//! injected stall): no checkpoint means no expiry, and the process just
//! hangs. The [`Watchdog`] closes that gap from the outside:
//!
//! 1. **arm** — attached to the solve's [`Fanout`](super::Fanout), it
//!    arms itself on [`TraceStarted`](Event::TraceStarted) and stays
//!    armed while any root `total` span is open; it latches the first
//!    trace id;
//! 2. **watch** — a background [`monitor`](Watchdog::monitor) thread
//!    polls combined progress: observer events seen (every event bumps a
//!    counter) *plus* engine ticks via a
//!    [`TickProbe`], so a solver that goes
//!    quiet on telemetry but keeps checkpointing is still live;
//! 3. **fire** — when progress stands still for the configured
//!    `stall_after`, it records one `stall_detected` event into the
//!    attached [`FlightRecorder`] and dumps it to the configured path —
//!    the post-mortem exists even if the process must be killed;
//! 4. **disarm** — the close of the last open root `total` span
//!    ([`PhaseEnded`](Event::PhaseEnded)), or an explicit
//!    [`disarm`](Watchdog::disarm), disarms cleanly; the monitor guard
//!    joins its thread on drop.
//!
//! Clones shared by concurrent solves (one per request in `scwsc_serve`)
//! arm and disarm one atomic word: the open-span count and the
//! trace-started flag change together, so one solve's end can never
//! disarm another solve's open span.
//!
//! The watchdog is deliberately *outside* the determinism contract: it
//! observes wall-clock liveness, fires only on stalls a healthy run never
//! produces, and its counter is excluded from the exact-diff set.

use super::flight::FlightRecorder;
use super::trace::TraceId;
use super::{Event, Observer, PHASE_TOTAL};
use crate::engine::TickProbe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Default poll cadence of the monitor thread.
const DEFAULT_POLL: Duration = Duration::from_millis(10);

/// [`WatchInner::state`] flag: a trace started since the open-span count
/// was last zero.
const TRACED: u64 = 1;
/// [`WatchInner::state`] weight of one open root `total` span.
const SPAN: u64 = 2;

/// Shared state between the observer-side handle, the monitor thread, and
/// any clones attached to other solvers.
#[derive(Debug)]
struct WatchInner {
    /// Open root `total` spans times [`SPAN`], plus [`TRACED`] from a
    /// `trace_started` until the count next returns to zero. Armed while
    /// nonzero.
    state: AtomicU64,
    /// Bumped on every observed event — the telemetry half of progress.
    events: AtomicU64,
    /// Engine checkpoint ticks — the quiet-progress half. Zero when no
    /// probe is attached.
    probe: Mutex<Option<TickProbe>>,
    /// Flight recorder to stamp and dump when a stall fires.
    flight: Mutex<Option<FlightRecorder>>,
    /// Where to dump the flight recording on a stall.
    dump_path: Mutex<Option<PathBuf>>,
    /// Stall threshold: no progress for this long while armed → fire.
    stall_after: Duration,
    /// Monitor poll cadence.
    poll: Duration,
    /// Stalls fired (all-time; one per arm cycle at most).
    stalls: AtomicU64,
    /// One-shot latch per arm cycle.
    fired: AtomicBool,
    /// First latched trace id (0 = unset), for log correlation.
    trace_id: AtomicU64,
    /// Tells the monitor thread to exit.
    shutdown: AtomicBool,
}

/// A cloneable liveness watchdog. Attach one clone to the solve's
/// [`Fanout`](super::Fanout) as an [`Observer`] and keep another for
/// [`monitor`](Watchdog::monitor) / [`stalls`](Watchdog::stalls); all
/// clones share state.
#[derive(Debug, Clone)]
pub struct Watchdog {
    inner: Arc<WatchInner>,
}

impl Watchdog {
    /// A watchdog that fires after `stall_after` of zero progress while
    /// armed. Attach the flight recorder / tick probe / dump path with
    /// the `with_*` builders before arming.
    pub fn new(stall_after: Duration) -> Watchdog {
        Watchdog {
            inner: Arc::new(WatchInner {
                state: AtomicU64::new(0),
                events: AtomicU64::new(0),
                probe: Mutex::new(None),
                flight: Mutex::new(None),
                dump_path: Mutex::new(None),
                stall_after,
                poll: DEFAULT_POLL,
                stalls: AtomicU64::new(0),
                fired: AtomicBool::new(false),
                trace_id: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// Attach the flight recorder to stamp (`stall_detected`) and dump
    /// when a stall fires. Clones of the recorder share the same ring, so
    /// attaching the same recorder the solve writes to is the intended
    /// use: the dump carries the events leading up to the stall.
    pub fn with_flight(self, flight: FlightRecorder) -> Watchdog {
        *self.inner.flight.lock().expect("watchdog flight poisoned") = Some(flight);
        self
    }

    /// Attach an engine tick probe
    /// ([`Deadline::tick_probe`](crate::engine::Deadline::tick_probe)) so checkpoint progress
    /// counts as liveness even when no observer events flow.
    pub fn with_probe(self, probe: TickProbe) -> Watchdog {
        *self.inner.probe.lock().expect("watchdog probe poisoned") = Some(probe);
        self
    }

    /// Where to dump the flight recording when a stall fires. Without a
    /// path the stall is still counted and stamped, just not dumped.
    pub fn with_dump_path(self, path: PathBuf) -> Watchdog {
        *self.inner.dump_path.lock().expect("watchdog path poisoned") = Some(path);
        self
    }

    /// Stalls fired so far (at most one per arm cycle).
    pub fn stalls(&self) -> u64 {
        self.inner.stalls.load(Ordering::Relaxed)
    }

    /// Whether the watchdog is currently armed (a solve is in flight).
    pub fn is_armed(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) != 0
    }

    /// The first latched [`TraceId`] (unset when no solve has started).
    pub fn trace_id(&self) -> TraceId {
        TraceId(self.inner.trace_id.load(Ordering::Relaxed))
    }

    /// Explicitly disarms and forgets every open span (normally the last
    /// root `phase_ended` disarms). Idempotent; also re-arms the one-shot
    /// for the next solve.
    pub fn disarm(&self) {
        self.inner.state.store(0, Ordering::Release);
        self.inner.fired.store(false, Ordering::Relaxed);
    }

    /// Combined progress stamp: observer events + engine ticks. Any
    /// change in either means the solve is alive.
    fn progress(&self) -> u64 {
        let ticks = self
            .inner
            .probe
            .lock()
            .expect("watchdog probe poisoned")
            .as_ref()
            .map_or(0, TickProbe::ticks);
        self.inner
            .events
            .load(Ordering::Relaxed)
            .wrapping_add(ticks)
    }

    /// Fires the stall (once per arm cycle): counts it, stamps a
    /// `stall_detected` event into the flight recorder, and dumps the
    /// recording to the configured path. Returns whether this call fired.
    fn fire(&self, stalled: Duration) -> bool {
        if self.inner.fired.swap(true, Ordering::Relaxed) {
            return false;
        }
        self.inner.stalls.fetch_add(1, Ordering::Relaxed);
        let flight = self
            .inner
            .flight
            .lock()
            .expect("watchdog flight poisoned")
            .clone();
        if let Some(mut flight) = flight {
            let ticks = self
                .inner
                .probe
                .lock()
                .expect("watchdog probe poisoned")
                .as_ref()
                .map_or(0, TickProbe::ticks);
            flight.on(&Event::StallDetected(ticks, stalled.as_secs_f64()));
            let path = self
                .inner
                .dump_path
                .lock()
                .expect("watchdog path poisoned")
                .clone();
            if let Some(path) = path {
                // Best-effort: a failed dump must not take down the
                // monitor; the stall count still records the incident.
                let _ = flight.dump_to_path(&path);
            }
        }
        true
    }

    /// Spawns the monitor thread and returns its guard. The thread polls
    /// progress every `poll` interval; when an armed solve shows no
    /// progress for `stall_after`, it fires once. Dropping the guard
    /// shuts the thread down and joins it.
    pub fn monitor(&self) -> WatchdogMonitor {
        let dog = self.clone();
        self.inner.shutdown.store(false, Ordering::Relaxed);
        let handle = thread::spawn(move || {
            let mut last_progress = dog.progress();
            let mut last_change = Instant::now();
            while !dog.inner.shutdown.load(Ordering::Relaxed) {
                thread::sleep(dog.inner.poll);
                let now = dog.progress();
                if now != last_progress || !dog.is_armed() {
                    last_progress = now;
                    last_change = Instant::now();
                    continue;
                }
                let stalled = last_change.elapsed();
                if stalled >= dog.inner.stall_after {
                    dog.fire(stalled);
                    // Reset the clock so a still-stalled solve doesn't
                    // spin the loop; the one-shot latch gates re-firing.
                    last_change = Instant::now();
                }
            }
        });
        WatchdogMonitor {
            dog: self.clone(),
            handle: Some(handle),
        }
    }
}

/// Guard for a running [`Watchdog::monitor`] thread; dropping it shuts
/// the thread down and joins it.
#[derive(Debug)]
pub struct WatchdogMonitor {
    dog: Watchdog,
    handle: Option<thread::JoinHandle<()>>,
}

impl Drop for WatchdogMonitor {
    fn drop(&mut self) {
        self.dog.inner.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Observer for Watchdog {
    /// Every event but the watchdog's own `StallDetected` is progress.
    fn on(&mut self, event: &Event<'_>) {
        if let Event::StallDetected(..) = event {
            return;
        }
        self.inner.events.fetch_add(1, Ordering::Relaxed);
        match *event {
            Event::TraceStarted(trace_id, _) => {
                // Arm on the first trace of a solve; nested traces just
                // count as progress.
                if self.inner.state.fetch_or(TRACED, Ordering::AcqRel) == 0 {
                    self.inner.fired.store(false, Ordering::Relaxed);
                }
                let _ = self.inner.trace_id.compare_exchange(
                    0,
                    trace_id.0,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
            Event::PhaseStarted(PHASE_TOTAL) => {
                self.inner.state.fetch_add(SPAN, Ordering::AcqRel);
            }
            Event::PhaseEnded(PHASE_TOTAL, _) => {
                // Close one span, saturating at zero; the last close also
                // clears the trace flag. One read-modify-write, so a span
                // another solve opens meanwhile keeps the watchdog armed.
                let was = self
                    .inner
                    .state
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| {
                        Some(if s < 2 * SPAN { 0 } else { s - SPAN })
                    })
                    .expect("the update always succeeds");
                if was < 2 * SPAN {
                    self.inner.fired.store(false, Ordering::Relaxed);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Deadline;
    use crate::telemetry::AuditCandidate;
    use std::borrow::Cow;

    #[test]
    fn arms_on_trace_and_disarms_on_root_total() {
        let mut dog = Watchdog::new(Duration::from_millis(50));
        assert!(!dog.is_armed());
        dog.on(&Event::TraceStarted(TraceId::mint("cmc", 1, 2), "cmc"));
        assert!(dog.is_armed());
        assert!(!dog.trace_id().is_unset());
        dog.on(&Event::PhaseStarted(PHASE_TOTAL));
        // A nested total span must not disarm.
        dog.on(&Event::PhaseStarted(PHASE_TOTAL));
        dog.on(&Event::PhaseEnded(PHASE_TOTAL, 0.0));
        assert!(dog.is_armed(), "nested total left the root armed");
        dog.on(&Event::PhaseEnded(PHASE_TOTAL, 0.0));
        assert!(!dog.is_armed(), "root total disarms");
    }

    #[test]
    fn concurrent_solves_on_clones_leave_it_disarmed() {
        let dog = Watchdog::new(Duration::from_secs(60));
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let mut obs = dog.clone();
                thread::spawn(move || {
                    let mut disarmed = 0u64;
                    for i in 0..200_000 {
                        obs.on(&Event::TraceStarted(TraceId::mint("cmc", t, i), "cmc"));
                        obs.on(&Event::PhaseStarted(PHASE_TOTAL));
                        disarmed += u64::from(!obs.is_armed());
                        obs.on(&Event::PhaseEnded(PHASE_TOTAL, 0.0));
                    }
                    disarmed
                })
            })
            .collect();
        let disarmed: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
        assert_eq!(disarmed, 0, "one solve's end disarmed another's open span");
        assert!(!dog.is_armed(), "armed with no solve in flight");
    }

    #[test]
    fn fires_on_stall_and_counts_once_per_arm_cycle() {
        let dog = Watchdog::new(Duration::from_millis(40));
        let monitor = dog.monitor();
        {
            let mut obs = dog.clone();
            obs.on(&Event::TraceStarted(TraceId::mint("cmc", 3, 4), "cmc"));
        }
        // Armed and silent: the monitor must fire exactly once.
        let deadline = Instant::now() + Duration::from_secs(5);
        while dog.stalls() == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(dog.stalls(), 1, "stall detected");
        thread::sleep(Duration::from_millis(80));
        assert_eq!(dog.stalls(), 1, "one-shot per arm cycle");
        dog.disarm();
        drop(monitor);
    }

    #[test]
    fn every_event_but_stall_detected_is_progress() {
        let mut dog = Watchdog::new(Duration::from_secs(60));
        let winner = AuditCandidate {
            id: 1,
            benefit: 2,
            weight: 1.0,
        };
        let before = dog.progress();
        dog.on(&Event::RoundDecided("gain", winner, Cow::Borrowed(&[])));
        dog.on(&Event::PriceCharged(1, Cow::Borrowed(&[0, 1]), 1.0));
        dog.on(&Event::GuessRetried);
        assert_eq!(
            dog.progress(),
            before + 3,
            "audit and fault events are progress"
        );
        dog.on(&Event::StallDetected(0, 1.0));
        assert_eq!(dog.progress(), before + 3, "its own stamp is not");
    }

    #[test]
    fn progress_resets_the_stall_clock() {
        let dog = Watchdog::new(Duration::from_millis(60));
        let monitor = dog.monitor();
        let mut obs = dog.clone();
        obs.on(&Event::TraceStarted(TraceId::mint("cwsc", 5, 6), "cwsc"));
        // Keep feeding events faster than the stall threshold.
        for _ in 0..8 {
            thread::sleep(Duration::from_millis(15));
            obs.on(&Event::BenefitComputed(1));
        }
        assert_eq!(dog.stalls(), 0, "live solve never fires");
        dog.disarm();
        drop(monitor);
    }

    #[test]
    fn tick_probe_progress_counts_as_liveness() {
        let dog = Watchdog::new(Duration::from_millis(60));
        let d = Deadline::unbounded();
        let dog = dog.with_probe(d.tick_probe());
        let monitor = dog.monitor();
        let mut obs = dog.clone();
        obs.on(&Event::TraceStarted(TraceId::mint("cmc", 7, 8), "cmc"));
        // No observer events, but steady engine checkpoints.
        for _ in 0..8 {
            thread::sleep(Duration::from_millis(15));
            let _ = d.checkpoint();
        }
        assert_eq!(dog.stalls(), 0, "ticking solve is live");
        dog.disarm();
        drop(monitor);
    }

    #[test]
    fn stall_stamps_and_dumps_the_flight_recorder() {
        let flight = FlightRecorder::new();
        let dir = std::env::temp_dir().join(format!("scwsc-watchdog-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let dump = dir.join("stall-flight.jsonl");
        let dog = Watchdog::new(Duration::from_millis(40))
            .with_flight(flight.clone())
            .with_dump_path(dump.clone());
        let monitor = dog.monitor();
        let mut obs = dog.clone();
        obs.on(&Event::TraceStarted(TraceId::mint("cmc", 9, 10), "cmc"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while dog.stalls() == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        drop(monitor);
        assert_eq!(dog.stalls(), 1);
        let text = std::fs::read_to_string(&dump).expect("dump written");
        assert!(text.contains("stall_detected"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

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
//! 1. **watch** — [`Watchdog::watch`] registers one solve's deadline
//!    tick counter until the returned [`Watch`] drops (on return or
//!    unwind). Every heap pop, waitlist pop and selection round passes a
//!    checkpoint, so the counter moves inside a long guess too, where
//!    observer events (replayed once per guess) stay silent;
//! 2. **poll** — a background [`monitor`](Watchdog::monitor) thread reads
//!    every registered counter each 10 ms;
//! 3. **fire** — a counter that stands still for `stall_after` fires once
//!    for that solve: the stall is counted, one `stall_detected` event is
//!    stamped into the attached [`FlightRecorder`], and the recording is
//!    dumped to the configured path — the post-mortem exists even if the
//!    process must be killed.
//!
//! Concurrent solves (one per request in `scwsc_serve`) are watched one
//! by one, so one solve's progress cannot hide another's stall. A solve
//! descheduled for longer than `stall_after` does not tick either: the
//! threshold must exceed the host's scheduling delay.
//!
//! The watchdog is deliberately *outside* the determinism contract: it
//! observes wall-clock liveness, fires only on stalls a healthy run never
//! produces, and its counter is excluded from the exact-diff set.

use super::flight::FlightRecorder;
use super::{Event, Observer};
use crate::engine::{Deadline, TickProbe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Poll cadence of the monitor thread.
const POLL: Duration = Duration::from_millis(10);

/// One watched solve.
#[derive(Debug)]
struct Slot {
    /// Key of the [`Watch`] that removes this slot when it drops.
    id: u64,
    probe: TickProbe,
    /// Tick count at the last change.
    ticks: u64,
    /// When the tick count last changed (or the watch began).
    since: Instant,
    /// One-shot latch: this solve's stall has fired.
    fired: bool,
}

/// Shared state between clones, watches and the monitor thread.
#[derive(Debug)]
struct WatchInner {
    /// The solves being watched.
    slots: Mutex<Vec<Slot>>,
    /// Next [`Slot::id`].
    next_id: AtomicU64,
    /// Flight recorder to stamp, and the path to dump it to, on a stall.
    post_mortem: Option<(FlightRecorder, PathBuf)>,
    /// Stall threshold: no tick for this long → fire.
    stall_after: Duration,
    /// Stalls fired (all-time; at most one per watched solve).
    stalls: AtomicU64,
    /// Tells the monitor thread to exit.
    shutdown: AtomicBool,
}

/// A cloneable liveness watchdog: [`watch`](Watchdog::watch) each solve,
/// run one [`monitor`](Watchdog::monitor), read
/// [`stalls`](Watchdog::stalls). All clones share state.
#[derive(Debug, Clone)]
pub struct Watchdog {
    inner: Arc<WatchInner>,
}

impl Watchdog {
    /// A watchdog that counts a stall when a watched solve passes no
    /// checkpoint for `stall_after`.
    pub fn new(stall_after: Duration) -> Watchdog {
        Watchdog::build(stall_after, None)
    }

    /// Like [`new`](Watchdog::new), and each stall also stamps a
    /// `stall_detected` event into `flight` and dumps it to `dump_path`.
    /// Clones of the recorder share one ring, so passing the recorder
    /// the solves write to is the intended use: the dump carries the
    /// events leading up to the stall.
    pub fn dumping(stall_after: Duration, flight: FlightRecorder, dump_path: PathBuf) -> Watchdog {
        Watchdog::build(stall_after, Some((flight, dump_path)))
    }

    fn build(stall_after: Duration, post_mortem: Option<(FlightRecorder, PathBuf)>) -> Watchdog {
        Watchdog {
            inner: Arc::new(WatchInner {
                slots: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(0),
                post_mortem,
                stall_after,
                stalls: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// Stalls fired so far (at most one per watched solve).
    pub fn stalls(&self) -> u64 {
        self.inner.stalls.load(Ordering::Relaxed)
    }

    /// Watches `deadline`'s tick counter until the returned guard drops.
    /// The stall clock starts now.
    pub fn watch(&self, deadline: &Deadline) -> Watch<'_> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let probe = deadline.tick_probe();
        self.slots().push(Slot {
            id,
            ticks: probe.ticks(),
            probe,
            since: Instant::now(),
            fired: false,
        });
        Watch { dog: self, id }
    }

    /// The slot list. A panic cannot happen while it is held, so a
    /// poisoned lock still guards consistent slots.
    fn slots(&self) -> MutexGuard<'_, Vec<Slot>> {
        self.inner
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Reads every watched counter once; returns `(ticks, stalled)` for
    /// each solve whose stall fires now.
    fn poll(&self) -> Vec<(u64, Duration)> {
        let mut fired = Vec::new();
        for slot in self.slots().iter_mut() {
            let ticks = slot.probe.ticks();
            if ticks != slot.ticks {
                slot.ticks = ticks;
                slot.since = Instant::now();
            } else if !slot.fired && slot.since.elapsed() >= self.inner.stall_after {
                slot.fired = true;
                fired.push((ticks, slot.since.elapsed()));
            }
        }
        fired
    }

    /// Fires one stall: counts it, stamps a `stall_detected` event into
    /// the flight recorder, and dumps the recording.
    fn fire(&self, ticks: u64, stalled: Duration) {
        self.inner.stalls.fetch_add(1, Ordering::Relaxed);
        if let Some((flight, path)) = &self.inner.post_mortem {
            let mut flight = flight.clone();
            flight.on(&Event::StallDetected(ticks, stalled.as_secs_f64()));
            // Best-effort: a failed dump must not take down the monitor;
            // the stall count still records the incident.
            let _ = flight.dump_to_path(path);
        }
    }

    /// Spawns the monitor thread and returns its guard. The thread polls
    /// every watched solve each 10 ms and fires each stall once, outside
    /// the slot lock. Dropping the guard shuts the thread down and joins
    /// it.
    pub fn monitor(&self) -> WatchdogMonitor {
        let dog = self.clone();
        self.inner.shutdown.store(false, Ordering::Relaxed);
        let handle = thread::spawn(move || {
            while !dog.inner.shutdown.load(Ordering::Relaxed) {
                thread::sleep(POLL);
                for (ticks, stalled) in dog.poll() {
                    dog.fire(ticks, stalled);
                }
            }
        });
        WatchdogMonitor {
            dog: self.clone(),
            handle: Some(handle),
        }
    }
}

/// One solve under watch (from [`Watchdog::watch`]); dropping it ends
/// the watch.
#[derive(Debug)]
pub struct Watch<'a> {
    dog: &'a Watchdog,
    id: u64,
}

impl Drop for Watch<'_> {
    fn drop(&mut self) {
        let mut slots = self.dog.slots();
        if let Some(at) = slots.iter().position(|slot| slot.id == self.id) {
            slots.swap_remove(at);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Waits up to 5 s for `dog` to count `n` stalls.
    fn await_stalls(dog: &Watchdog, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while dog.stalls() < n && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn a_solve_that_never_ticks_fires_once() {
        let dog = Watchdog::new(Duration::from_millis(40));
        let monitor = dog.monitor();
        let d = Deadline::unbounded();
        let watch = dog.watch(&d);
        await_stalls(&dog, 1);
        assert_eq!(dog.stalls(), 1, "stall detected");
        thread::sleep(Duration::from_millis(120));
        assert_eq!(dog.stalls(), 1, "one stall per watched solve");
        drop(watch);
        drop(monitor);
    }

    #[test]
    fn a_ticking_solve_beside_a_stuck_one_does_not_fire() {
        let dog = Watchdog::new(Duration::from_millis(60));
        let monitor = dog.monitor();
        let (live, stuck) = (Deadline::unbounded(), Deadline::unbounded());
        let _live_watch = dog.watch(&live);
        let _stuck_watch = dog.watch(&stuck);
        // Tick the live solve until the stuck one fires, then for as long
        // again past it.
        let until = Instant::now() + Duration::from_secs(5);
        let mut after = 0;
        while after < 8 && Instant::now() < until {
            thread::sleep(Duration::from_millis(10));
            let _ = live.checkpoint();
            after += u32::from(dog.stalls() > 0);
        }
        drop(monitor);
        assert_eq!(
            dog.stalls(),
            1,
            "the stuck solve fires, the live one does not"
        );
        let slots = dog.slots();
        let fired: Vec<bool> = slots.iter().map(|s| s.fired).collect();
        assert_eq!(fired, [false, true]);
    }

    #[test]
    fn an_ended_watch_never_fires() {
        let dog = Watchdog::new(Duration::from_millis(20));
        let monitor = dog.monitor();
        drop(dog.watch(&Deadline::unbounded()));
        thread::sleep(Duration::from_millis(100));
        drop(monitor);
        assert_eq!(dog.stalls(), 0);
    }

    #[test]
    fn concurrent_watches_leave_nothing_registered() {
        let dog = Watchdog::new(Duration::from_secs(60));
        let start = Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (dog, start) = (dog.clone(), Arc::clone(&start));
                thread::spawn(move || {
                    let d = Deadline::unbounded();
                    start.wait();
                    for _ in 0..20_000 {
                        let _watch = dog.watch(&d);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        assert!(dog.slots().is_empty(), "a dropped watch stayed registered");
    }

    #[test]
    fn stall_stamps_and_dumps_the_flight_recorder() {
        let flight = FlightRecorder::new();
        let dir = std::env::temp_dir().join(format!("scwsc-watchdog-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let dump = dir.join("stall-flight.jsonl");
        let dog = Watchdog::dumping(Duration::from_millis(40), flight, dump.clone());
        let monitor = dog.monitor();
        let d = Deadline::unbounded();
        for _ in 0..3 {
            let _ = d.checkpoint();
        }
        let watch = dog.watch(&d);
        await_stalls(&dog, 1);
        drop(monitor);
        drop(watch);
        assert_eq!(dog.stalls(), 1);
        let text = std::fs::read_to_string(&dump).expect("dump written");
        assert!(
            text.lines()
                .any(|l| l.contains("stall_detected") && l.contains("\"ticks\":3")),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Host speed: a fixed reference kernel of the benchmark's own, timed
//! between operations, so that the closed-loop workloads can state their
//! times at a fixed host speed.
//!
//! On a shared host the same code runs up to 1.8x slower for tens of
//! seconds at a time, and both CPUs drift together. A run that falls in
//! a slow phase then reads slow as a whole, whatever the statistic. The
//! kernel depends on nothing in the program (bitset popcounts like the
//! solvers' scans, and a pointer chase like their lattice and index
//! walks), so a change to the program cannot move it; a change in host
//! speed moves both. Each operation's time is divided by the kernel's
//! slowdown around it, against [`NOMINAL_MS`].

use crate::stats;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The kernel's time on an idle host: an Intel Xeon vCPU of a two-vCPU
/// Linux VM in its fast state. Normalized times read as wall-clock times
/// on a host running at that speed.
pub const NOMINAL_MS: f64 = 0.6;
/// Least time between two samples.
const EVERY: Duration = Duration::from_millis(50);
/// Samples within this many seconds of an operation's start set its
/// slowdown.
const WINDOW_S: f64 = 0.5;

/// Words of each popcount operand: 256 KiB each, L2-resident.
const WORDS: usize = 1 << 15;
/// Entries of the pointer chase: one random cycle over 256 KiB.
const CHASE: usize = 1 << 16;

pub struct HostClock {
    a: Vec<u64>,
    b: Vec<u64>,
    next: Vec<u32>,
    /// Start and milliseconds of every kernel run, in time order.
    samples: Vec<(Instant, f64)>,
}

impl HostClock {
    /// Builds the kernel's data and takes a first sample.
    pub fn new() -> HostClock {
        let mut rng = crate::gen::Rng::new(0x4057_c10c);
        let a = (0..WORDS).map(|_| rng.next_u64()).collect();
        let b = (0..WORDS).map(|_| rng.next_u64()).collect();
        let mut order: Vec<u32> = (0..CHASE as u32).collect();
        rng.shuffle(&mut order);
        let mut next = vec![0u32; CHASE];
        for w in 0..CHASE {
            next[order[w] as usize] = order[(w + 1) % CHASE];
        }
        let mut clock = HostClock {
            a,
            b,
            next,
            samples: Vec::new(),
        };
        clock.tick();
        clock
    }

    fn kernel(&self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..2 {
            for (x, y) in self.a.iter().zip(&self.b) {
                acc += u64::from((x & !y).count_ones());
            }
        }
        let mut i = 0u32;
        for _ in 0..CHASE {
            i = self.next[i as usize];
            acc = acc.wrapping_mul(31).wrapping_add(u64::from(i));
        }
        acc
    }

    /// Runs the kernel if the last sample is older than [`EVERY`];
    /// returns the time spent, for the caller to leave out of its own.
    pub fn tick(&mut self) -> f64 {
        let t0 = Instant::now();
        if self
            .samples
            .last()
            .is_some_and(|&(t, _)| t0.duration_since(t) < EVERY)
        {
            return 0.0;
        }
        black_box(self.kernel());
        let t1 = Instant::now();
        let secs = t1.duration_since(t0).as_secs_f64();
        self.samples.push((t0, secs * 1e3));
        secs
    }

    /// Kernel time over [`NOMINAL_MS`]: the median of the samples within
    /// [`WINDOW_S`] of `t`, or the nearest sample when none is.
    pub fn slowdown_at(&self, t: Instant) -> f64 {
        let window = Duration::from_secs_f64(WINDOW_S);
        let lo = self.samples.partition_point(|&(s, _)| s + window < t);
        let hi = self.samples.partition_point(|&(s, _)| s <= t + window);
        let ms: Vec<f64> = if lo < hi {
            self.samples[lo..hi].iter().map(|&(_, m)| m).collect()
        } else {
            // Only outside every window: the nearest sample on either side.
            let near = [lo.checked_sub(1), (lo < self.samples.len()).then_some(lo)]
                .into_iter()
                .flatten()
                .min_by_key(|&i| {
                    let s = self.samples[i].0;
                    s.max(t).duration_since(s.min(t))
                })
                .expect("at least the first sample");
            vec![self.samples[near].1]
        };
        stats::median(&ms) / NOMINAL_MS
    }

    /// Runs `work` on this thread while a second thread samples every
    /// [`EVERY`], for workloads whose measuring thread is never idle
    /// between operations.
    pub fn sample_while<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    self.tick();
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
            let out = work();
            done.store(true, Ordering::SeqCst);
            sampler.join().expect("host sampler panicked");
            out
        })
    }

    /// Every `(start, time)` divided by the slowdown at its start, and
    /// the time-weighted mean slowdown: the sum of the times over the sum
    /// of the scaled ones.
    pub fn scale(&self, timed: &[(Instant, f64)]) -> (Vec<f64>, f64) {
        let scaled: Vec<f64> = timed
            .iter()
            .map(|&(t, x)| x / self.slowdown_at(t))
            .collect();
        let raw: f64 = timed.iter().map(|&(_, x)| x).sum();
        let slowdown = raw / scaled.iter().sum::<f64>();
        (scaled, slowdown)
    }

    /// The run's `host:` report line: the kernel's median time and sample
    /// count, the slowdown, and the operations' p50 and the set-ups'
    /// median as measured.
    pub fn line(&self, slowdown: f64, raw_ms: &[f64], raw_setups_s: &[f64]) -> String {
        let ms: Vec<f64> = self.samples.iter().map(|&(_, m)| m).collect();
        format!(
            "host: reference kernel median {:.4} ms over {} samples, nominal {NOMINAL_MS} ms; \
             slowdown {slowdown:.4}; as measured: p50 {:.4} ms, setup {:.6} s",
            stats::median(&ms),
            ms.len(),
            stats::median(raw_ms),
            stats::median(raw_setups_s)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(samples: &[(u64, f64)]) -> (HostClock, Instant) {
        let base = Instant::now();
        let clock = HostClock {
            a: Vec::new(),
            b: Vec::new(),
            next: Vec::new(),
            samples: samples
                .iter()
                .map(|&(ms, v)| (base + Duration::from_millis(ms), v))
                .collect(),
        };
        (clock, base)
    }

    #[test]
    fn slowdown_is_the_median_of_the_window_over_nominal() {
        let (c, base) = clock(&[(0, 0.6), (100, 0.9), (200, 1.2), (2000, 6.0)]);
        let at = |ms| c.slowdown_at(base + Duration::from_millis(ms));
        assert!((at(100) - 1.5).abs() < 1e-9);
        // Past 0.5 s, the far sample stays out of the window.
        assert!((at(650) - 2.0).abs() < 1e-9);
        // Outside every window: the nearest sample.
        assert!((at(1000) - 2.0).abs() < 1e-9);
        assert!((at(1300) - 10.0).abs() < 1e-9);
        assert!((at(1600) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tick_samples_at_most_every_interval() {
        let mut c = HostClock::new();
        assert!(c.tick() == 0.0, "a second tick right away is skipped");
        std::thread::sleep(EVERY);
        assert!(c.tick() > 0.0);
        assert_eq!(c.samples.len(), 2);
    }

    #[test]
    fn scale_divides_by_the_slowdown_at_each_start() {
        let (c, base) = clock(&[(0, 0.6), (3000, 1.2)]);
        let at = |ms| base + Duration::from_millis(ms);
        let (scaled, slowdown) = c.scale(&[(at(0), 3.0), (at(3000), 6.0)]);
        assert_eq!(scaled, vec![3.0, 3.0]);
        assert!((slowdown - 1.5).abs() < 1e-9);
    }
}

//! A counting global allocator: live bytes, peak live bytes, and the
//! number and volume of allocations. The benchmark keeps its own so that
//! `peak_heap_mb` and `alloc.*` do not depend on the program's telemetry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wraps [`System`] and counts every allocation. The counters are plain
/// statistics that publish no other data, so `Relaxed` is enough.
pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(size: u64) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never touch the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// Allocation totals at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Allocations made so far.
    pub count: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

impl Snapshot {
    pub fn now() -> Snapshot {
        Snapshot {
            count: COUNT.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Allocations and bytes between `self` and a later snapshot.
    pub fn until(self, later: Snapshot) -> Snapshot {
        Snapshot {
            count: later.count - self.count,
            bytes: later.bytes - self.bytes,
        }
    }
}

/// Peak live heap in MB (10^6 bytes) since start or the last reset.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / 1e6
}

/// Restarts peak tracking from the current live size, so that runs of
/// several workloads in one process report each workload's own peak.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap per fixed window, sampled on a background thread
/// while a workload measures. The peak of a whole concurrent run is the
/// maximum over moments when requests happened to overlap; the median
/// window peak is the peak a typical second of the run reaches.
pub struct PeakWindows {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

impl PeakWindows {
    pub fn start(window: Duration) -> PeakWindows {
        reset_peak();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peaks = Vec::new();
            let mut next = Instant::now() + window;
            loop {
                let done = flag.load(Ordering::SeqCst);
                if done || Instant::now() >= next {
                    peaks.push(peak_mb());
                    reset_peak();
                    next += window;
                }
                if done {
                    return peaks;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        PeakWindows { stop, handle }
    }

    /// Stops sampling; returns the window peaks in MB, the last window
    /// partial.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("peak sampler panicked")
    }
}

/// `peak_heap_mb`: the larger of the set-up peak and the median window
/// peak while measuring, with a note on which it was.
pub fn heap_metric(setup_peak: f64, windows: &[f64]) -> (f64, String) {
    let mut w = windows.to_vec();
    w.sort_by(f64::total_cmp);
    let typical = w.get(w.len().saturating_sub(1) / 2).copied().unwrap_or(0.0);
    if setup_peak >= typical {
        (
            setup_peak,
            format!("set-up peak (median 1 s window peak {typical:.3} MB)"),
        )
    } else {
        (
            typical,
            format!(
                "median of {} 1 s window peaks (set-up peak {setup_peak:.3} MB)",
                w.len()
            ),
        )
    }
}

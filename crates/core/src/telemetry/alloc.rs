//! A counting global allocator for benchmark memory attribution.
//!
//! [`CountingAlloc`] wraps [`System`] and keeps process-wide atomic
//! tallies: allocation count, cumulative bytes allocated, live bytes, and
//! peak live bytes. Install it in a *binary* (statistics only move in
//! processes that opt in):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: scwsc_core::telemetry::alloc::CountingAlloc =
//!     scwsc_core::telemetry::alloc::CountingAlloc;
//! ```
//!
//! A benchmark run brackets each workload with [`snapshot`] and reports
//! the [`AllocSnapshot::delta`]; [`reset_peak`] re-arms the peak tracker
//! so per-workload peaks do not inherit an earlier workload's high-water
//! mark. The counters use `Ordering::Relaxed` throughout — they are
//! statistics, not synchronization — so the cost on the allocation hot
//! path is a handful of uncontended atomic adds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts allocations, bytes, and peak
/// live bytes. Zero-sized; all state lives in module statics so snapshots
/// need no handle to the allocator instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES_ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    // Saturating: a binary that installs the allocator mid-life (or frees
    // memory allocated before the statics were linked) must not wrap.
    let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some(live.saturating_sub(size as u64))
    });
}

// SAFETY: delegates verbatim to `System`; the bookkeeping never touches
// the returned memory and only runs on successful (de)allocations.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // Count a grow/shrink as one allocation of the new size plus
            // the release of the old one, mirroring alloc+dealloc.
            on_alloc(new_size);
            on_dealloc(layout.size());
        }
        new_ptr
    }
}

/// A point-in-time copy of the allocator counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations (plus reallocations) performed so far.
    pub allocs: u64,
    /// Cumulative bytes requested across all allocations.
    pub bytes_allocated: u64,
    /// Bytes currently live (allocated minus deallocated).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start or the last
    /// [`reset_peak`].
    pub peak_live_bytes: u64,
}

impl AllocSnapshot {
    /// Counter movement between `earlier` and `self`: allocation and byte
    /// deltas are monotone differences; `live_bytes` carries the absolute
    /// current value and `peak_live_bytes` the absolute peak (a high-water
    /// mark has no meaningful difference).
    pub fn delta(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes_allocated: self.bytes_allocated.saturating_sub(earlier.bytes_allocated),
            live_bytes: self.live_bytes,
            peak_live_bytes: self.peak_live_bytes,
        }
    }
}

/// Reads the current counters. All-zero unless a binary installed
/// [`CountingAlloc`] as its `#[global_allocator]`.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed),
    }
}

/// Re-arms the peak tracker at the current live size, so the next
/// [`snapshot`] reports the peak of the work since this call.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Whether any allocation has been observed — i.e. whether the counting
/// allocator is actually installed in this process.
pub fn is_active() -> bool {
    ALLOCS.load(Ordering::Relaxed) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sequential test (the statics are process-global; parallel tests
    /// over them would race): exercise the GlobalAlloc impl directly —
    /// the test binary does not install it globally — and check every
    /// counter transition.
    #[test]
    fn counting_allocator_tracks_alloc_dealloc_realloc_and_peak() {
        let a = CountingAlloc;
        let layout = Layout::from_size_align(1024, 8).unwrap();
        let before = snapshot();

        // alloc moves count, bytes, live, and peak.
        let p = unsafe { a.alloc(layout) };
        assert!(!p.is_null());
        let after_alloc = snapshot();
        let d = after_alloc.delta(&before);
        assert_eq!(d.allocs, 1);
        assert_eq!(d.bytes_allocated, 1024);
        assert!(after_alloc.live_bytes >= before.live_bytes + 1024);
        assert!(after_alloc.peak_live_bytes >= after_alloc.live_bytes);

        // realloc counts the new size and releases the old.
        let p = unsafe { a.realloc(p, layout, 2048) };
        assert!(!p.is_null());
        let after_realloc = snapshot();
        let d = after_realloc.delta(&after_alloc);
        assert_eq!(d.allocs, 1);
        assert_eq!(d.bytes_allocated, 2048);
        assert!(after_realloc.live_bytes >= after_alloc.live_bytes + 1024);

        // dealloc shrinks live but leaves the cumulative counters alone.
        let layout2 = Layout::from_size_align(2048, 8).unwrap();
        unsafe { a.dealloc(p, layout2) };
        let after_dealloc = snapshot();
        assert_eq!(after_dealloc.allocs, after_realloc.allocs);
        assert_eq!(after_dealloc.bytes_allocated, after_realloc.bytes_allocated);
        assert!(after_dealloc.live_bytes <= after_realloc.live_bytes - 2048);

        // alloc_zeroed counts too, and the memory really is zeroed.
        let p = unsafe { a.alloc_zeroed(layout) };
        assert!(!p.is_null());
        assert_eq!(unsafe { *p }, 0);
        let after_zeroed = snapshot();
        assert_eq!(after_zeroed.delta(&after_dealloc).allocs, 1);
        unsafe { a.dealloc(p, layout) };

        // reset_peak re-arms at the current live size.
        reset_peak();
        let re_armed = snapshot();
        assert_eq!(re_armed.peak_live_bytes, re_armed.live_bytes);
        assert!(is_active());
    }
}

//! A pass-through global allocator that tracks live and peak heap bytes,
//! so `peak_heap_mib` is measured in the benchmark binary without touching
//! the program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts live bytes and their high-water mark; defers to [`System`].
pub struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics that publish no other data, so relaxed atomics suffice.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Restart the high-water mark at the current live level, which is
/// returned: the baseline [`peak_above`] subtracts.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live bytes since the last [`reset_peak`], above `baseline` (what
/// was live then): the footprint of the work done since.
pub fn peak_above(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc's allocator tuning call; returns 1 on success.
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

/// Keep freed heap inside the process (glibc): no trimming back to the
/// kernel, and no per-allocation `mmap` below 32 MiB (glibc's ceiling for
/// that threshold). Every repetition frees a whole world; without this,
/// the next one faults its pages in again, and the kernel's page zeroing
/// varies with the host's memory load rather than with the simulator.
/// Returns whether the allocator accepted both settings.
pub fn keep_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: std::ffi::c_int = -1;
        const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
        // SAFETY: `mallopt` only adjusts allocator parameters; it is called
        // before the benchmark allocates anything large, from the only
        // thread, with documented parameter numbers and in-range values.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, std::ffi::c_int::MAX) == 1
                && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

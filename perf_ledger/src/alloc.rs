//! A counting `#[global_allocator]`: every allocator call in the process —
//! the benchmark's own, the layers', and the self-booted server's threads —
//! bumps two relaxed counters. Sampling them around a timed step gives the
//! step's allocation calls and requested bytes, which (unlike its time)
//! repeat exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Pins glibc malloc's two self-adjusting thresholds for this process:
/// 4 MiB DRAM images always come from the heap, and the heap is never
/// trimmed. Left to adjust themselves they settle, by luck of the first few
/// frees, either side of "trim 8 MiB after every `Execute`", and the same
/// binary then runs a step at 1.8 ms or at 4.4 ms for a whole run (README.md,
/// "Allocator"). Returns whether both were set.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_malloc_thresholds() -> bool {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` takes two integers by value and is called from
    // `main` before the benchmark starts a thread; 32 MiB is glibc's
    // largest accepted mmap threshold on 64-bit targets.
    unsafe { mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_malloc_thresholds() -> bool {
    false
}

fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Allocator calls and requested bytes so far, process-wide.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Snapshot {
    pub calls: u64,
    pub bytes: u64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

impl Snapshot {
    /// What was allocated between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

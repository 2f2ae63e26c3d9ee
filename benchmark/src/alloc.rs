//! Counting global allocator: forwards every request to the system allocator
//! and, while the runtime flag is on, counts calls and requested bytes.
//!
//! The flag is off for every end-to-end measurement, so the untraced run pays
//! one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

#[inline]
fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates. All four methods are forwarded — the trait's default
// `alloc_zeroed` would `alloc` + memset where `System` can hand out zero
// pages, which halves the speed of the 1 MiB workload.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn counting on or off (process-wide).
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far.
pub fn counts() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Tests that switch the process-wide flag hold this while they do.
#[cfg(test)]
pub static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_off_counts_nothing_and_flag_on_counts() {
        let _flag = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = counts();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        assert_eq!(counts(), before, "flag off must count nothing");

        set_counting(true);
        let w: Vec<u8> = Vec::with_capacity(8192);
        std::hint::black_box(&w);
        let z = vec![0u8; 8192];
        std::hint::black_box(&z);
        set_counting(false);
        let after = counts();
        assert!(after.0 >= before.0 + 2, "alloc and alloc_zeroed both count");
        assert!(after.1 >= before.1 + 2 * 8192);
    }
}

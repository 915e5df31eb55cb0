//! A counting global allocator with an on/off gate.
//!
//! Installed as the process allocator in every run so traced and untraced
//! passes execute the same binary; counting is switched on for the traced
//! pass only. Switched off, an allocation costs one relaxed load over the
//! system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

#[inline]
fn count(size: usize) {
    // Statistics only: nothing is published through these counters.
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growing a buffer is an allocation from the message path's point
        // of view.
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted while enabled.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Tests share the process allocator: whoever flips the gate holds this.
#[cfg(test)]
pub static TEST_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_enabled() {
        let _gate = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let before = snapshot();
        drop(std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(snapshot(), before, "counted while switched off");

        set_enabled(true);
        let before = snapshot();
        drop(std::hint::black_box(vec![0u8; 4096]));
        let after = snapshot();
        set_enabled(false);
        assert!(
            after.0 > before.0 && after.1 >= before.1 + 4096,
            "{before:?} -> {after:?}"
        );
    }
}

//! A counting global allocator for allocation-regression measurements.
//!
//! The `bench_gate` binary installs [`CountingAlloc`] as the process
//! allocator and snapshots [`allocations`] around the steady-state
//! section of its workloads; the delta is how
//! `BENCH_fabric.json` proves the short-message path performs zero heap
//! allocations. Its gate spans the two threads of a ping-pong, so it
//! reads the process-wide count. The counted tests drive their endpoints
//! from one thread and read [`thread_allocations`], which the test
//! harness's own threads cannot disturb. Counting uses relaxed atomics
//! and a thread-local cell — a few nanoseconds per allocation — so the
//! same binary still produces meaningful throughput numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's `(allocations, bytes)`. Const-initialised and without
    /// a destructor, so reading it never allocates.
    static THREAD: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // During thread teardown the cell may be gone; the process-wide
    // count still sees the allocation.
    let _ = THREAD.try_with(|t| {
        let (n, b) = t.get();
        t.set((n + 1, b + bytes as u64));
    });
}

/// Forwards to the system allocator, counting every allocation. Install
/// with `#[global_allocator]`.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a fresh allocation from the regression gate's point
        // of view: the path being guarded must not grow buffers either.
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A point-in-time allocation reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations (incl. zeroed and reallocs) since process start (or
    /// since the thread started, for [`thread_allocations`]).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Read the global counters. Zeros (forever) unless [`CountingAlloc`] is
/// installed as the process's `#[global_allocator]`.
pub fn allocations() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// The calling thread's counters: what [`allocations`] reads, less every
/// allocation made on another thread. Zeros (forever) unless
/// [`CountingAlloc`] is installed.
pub fn thread_allocations() -> AllocSnapshot {
    let (allocs, bytes) = THREAD.with(Cell::get);
    AllocSnapshot { allocs, bytes }
}

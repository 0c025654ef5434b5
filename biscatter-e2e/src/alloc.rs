//! Process-wide allocation counter, installed as the binary's
//! `#[global_allocator]`.
//!
//! Counts every allocation and reallocation on every thread, so a window
//! around a call sees the whole frame's heap traffic, including the stages
//! the program's own zero-allocation audits leave out. On a single thread the
//! difference of two [`snapshot`]s is exact; while other threads run it also
//! includes theirs, which is what the multi-threaded workloads want.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus two relaxed counters (statistics only: they publish no
/// other data).
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics that never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[inline]
fn count(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Allocations and bytes requested so far, process-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    pub count: u64,
    pub bytes: u64,
}

impl Allocs {
    /// What happened between `earlier` and `self`.
    pub fn since(self, earlier: Allocs) -> Allocs {
        Allocs {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }

    pub fn add(&mut self, other: Allocs) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
}

pub fn snapshot() -> Allocs {
    Allocs {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

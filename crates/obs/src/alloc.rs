//! The workspace's counting allocator: [`System`] plus a per-thread count of
//! the allocations made while that thread's window is open.
//!
//! The zero-allocation audits and the benches install it in their own
//! binaries (this crate never declares a `#[global_allocator]`):
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: biscatter_obs::alloc::CountingAlloc = biscatter_obs::alloc::CountingAlloc;
//! ```
//!
//! and wrap the code under audit in [`counted`]. Every `alloc` counts
//! (`alloc_zeroed` goes through it) and so does every `realloc`; frees do
//! not. The count is thread-local, so a window sees only its own thread:
//! allocator traffic from the test harness, a pool's workers or a thread
//! the window spawns stays out of it. A test file that audits therefore
//! keeps a single `#[test]`, so that no other test shares its thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `-1` while this thread's window is closed; otherwise the allocations
    /// counted since it opened.
    static ALLOCS: Cell<isize> = const { Cell::new(-1) };
}

/// [`System`] with a thread-local allocation counter; see the module docs.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's. The counter is a
// `const`-initialised thread-local `Cell` with no destructor: bumping it
// never allocates, and `try_with` skips it during thread teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| {
        let v = c.get();
        if v >= 0 {
            c.set(v + 1);
        }
    });
}

/// Runs `f` with this thread's window open and returns its result with the
/// number of allocations and reallocations it made on this thread.
///
/// # Panics
///
/// When [`CountingAlloc`] is not the binary's `#[global_allocator]`: the
/// window would read 0 whatever `f` did.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOCS.with(|c| c.set(0));
    drop(std::hint::black_box(Box::new(0u8)));
    assert_eq!(
        ALLOCS.with(Cell::get),
        1,
        "counted() needs CountingAlloc as the #[global_allocator]"
    );
    ALLOCS.with(|c| c.set(0));
    let r = f();
    let n = ALLOCS.with(|c| c.replace(-1));
    (r, n as usize)
}

//! The counting allocator's window: what [`counted`] sees and what it does
//! not.
//!
//! The counter is thread-local, so this file keeps exactly one `#[test]`:
//! no other test may allocate on its thread.

use std::hint::black_box;

use biscatter_obs::alloc::{counted, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Spawns a thread that makes `n` allocations of its own and joins it.
fn spawn_allocating(n: usize) {
    std::thread::spawn(move || {
        for i in 0..n {
            black_box(vec![i as u8; 16]);
        }
    })
    .join()
    .expect("allocating thread");
}

#[test]
fn window_counts_this_threads_allocations_and_nothing_else() {
    // A fresh allocation and a realloc that grows it: two.
    let (v, n) = counted(|| {
        let mut v: Vec<u8> = Vec::with_capacity(8);
        v.reserve_exact(4096);
        black_box(v)
    });
    assert_eq!(n, 2, "one alloc + one growing realloc");
    assert!(v.capacity() >= 4096);
    // Frees do not count.
    let ((), n) = counted(|| drop(v));
    assert_eq!(n, 0);

    // A thread spawned inside the window allocates on its own thread: the
    // window sees only what spawning and joining cost the caller, the same
    // whether the thread allocates nothing or a thousand times. (The first
    // spawn warms the runtime's lazily initialised thread state.)
    spawn_allocating(0);
    let ((), idle) = counted(|| spawn_allocating(0));
    let ((), busy) = counted(|| spawn_allocating(1000));
    assert_eq!(busy, idle, "the spawned thread's allocations leaked in");
    assert!(idle < 1000);

    // Once closed, the window counts nothing: allocations made between
    // windows show up in neither, and the next window starts from zero.
    let (kept, _) = counted(|| Vec::<u64>::with_capacity(4));
    for i in 0..100 {
        black_box(vec![i; 32]);
    }
    let ((), n) = counted(|| ());
    assert_eq!(n, 0);
    let (kept, n) = counted(move || {
        let mut kept = kept;
        kept.reserve_exact(1024);
        kept
    });
    assert_eq!(n, 1, "one growing realloc");
    black_box(kept);
}

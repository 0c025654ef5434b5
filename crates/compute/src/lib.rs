//! Dependency-free scoped fork-join compute pool.
//!
//! BiScatter frames are embarrassingly parallel *inside* a frame: the chirps
//! of a train are independent during IF synthesis and range FFT, and the
//! range columns of the slow-time (Doppler) FFT are independent of each
//! other. This crate provides the one shared [`ComputePool`] that the hot
//! path fans that work out on, built directly on `std::thread` (the
//! workspace is fully offline — no rayon, no crossbeam).
//!
//! # Design
//!
//! A pool of `threads` is `threads - 1` background workers plus the caller:
//! every blocking primitive participates in its own work (claiming indices
//! from the shared atomic ticket) and, while waiting for stragglers, helps
//! drain the job queue — so nested parallel calls cannot deadlock even on a
//! pool whose workers are all busy. With `threads == 1` there are no
//! background workers at all and every primitive degrades to a plain inline
//! loop with zero allocation and zero synchronization.
//!
//! # Determinism
//!
//! Every primitive here assigns *disjoint output regions* to tasks
//! (`par_chunks` / `par_ragged` hand out non-overlapping `&mut [T]` rows,
//! [`ColumnBand`] only writes columns inside its own band) and performs no
//! cross-task reduction. Each output element is therefore computed by
//! exactly the same sequence of floating-point operations regardless of
//! pool size or scheduling order, which is what makes the parallel frame
//! path bit-identical to the serial one (see DESIGN.md §10).
//!
//! # Safety
//!
//! This crate, `biscatter_dsp::simd` (the AVX2 kernel bodies behind
//! runtime feature detection) and `biscatter_obs::alloc` (the counting
//! `GlobalAlloc` the allocation audits install) are the only places in the
//! workspace that contain `unsafe`: `dsp` and `obs` are
//! `#![deny(unsafe_code)]` with that one module exempt, and everything else
//! is `#![forbid(unsafe_code)]`. The unsafe core here is small and fully local: lifetime erasure of scoped
//! closures (sound because every scope waits for its latch before
//! returning, even when unwinding — enforced by a wait-on-drop guard) and
//! raw-pointer partitioning of slices into provably disjoint regions
//! (offsets validated up front).

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use biscatter_obs::metrics::{Counter, Gauge};
use biscatter_obs::trace;

/// Registry handles for pool telemetry, resolved once per process and then
/// updated with relaxed atomics (no lock, no allocation on the hot path).
struct PoolMetrics {
    /// Parallel regions launched (one per `run_indexed` that fans out).
    fork_join_calls: Counter,
    /// Total indices across those regions.
    fork_join_tasks: Counter,
    /// Nanoseconds threads spent draining regions (caller included).
    worker_busy_ns: Counter,
    /// Indices claimed by drain participations (chunk count).
    worker_chunks: Counter,
    /// Busy fraction of the whole pool over the last region's wall time.
    /// Slight undercount possible: stragglers may still be adding busy time
    /// when the waiter samples — it is a gauge, not an invariant.
    utilization: Gauge,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = biscatter_obs::registry();
        PoolMetrics {
            fork_join_calls: r.counter("compute.fork_join.calls"),
            fork_join_tasks: r.counter("compute.fork_join.tasks"),
            worker_busy_ns: r.counter("compute.worker.busy_ns"),
            worker_chunks: r.counter("compute.worker.chunks"),
            utilization: r.gauge("compute.pool.utilization"),
        }
    })
}

// ---------------------------------------------------------------------------
// Latch: counts outstanding tasks of one scope/region, carries the first
// panic payload, and wakes waiters when the count reaches zero.
// ---------------------------------------------------------------------------

struct LatchState {
    pending: usize,
    panic_payload: Option<Box<dyn Any + Send>>,
}

struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Self {
        Latch {
            state: Mutex::new(LatchState {
                pending: 0,
                panic_payload: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn add(&self, k: usize) {
        self.state.lock().unwrap().pending += k;
    }

    /// Records the first panic payload observed; later ones are dropped.
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut st = self.state.lock().unwrap();
        if st.panic_payload.is_none() {
            st.panic_payload = Some(payload);
        }
    }

    /// Marks one task finished; wakes waiters when none remain.
    fn complete_one(&self) {
        let mut st = self.state.lock().unwrap();
        st.pending -= 1;
        if st.pending == 0 {
            drop(st);
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().unwrap().pending == 0
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.state.lock().unwrap().panic_payload.take()
    }
}

/// Waits for `latch` on drop, so a scope that unwinds mid-flight still
/// blocks until every task borrowing its environment has finished —
/// without this, scoped lifetime erasure would be unsound.
struct LatchWaitGuard<'a> {
    pool: &'a ComputePool,
    latch: &'a Latch,
}

impl Drop for LatchWaitGuard<'_> {
    fn drop(&mut self) {
        self.pool.wait_latch(self.latch);
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

struct OnceJob {
    f: Box<dyn FnOnce() + Send>,
    latch: Arc<Latch>,
}

/// An indexed parallel region: tasks claim indices from `next` until
/// exhausted. `f` points into the spawning caller's stack; it stays valid
/// because the caller does not return until `completed == n`.
struct Region {
    f: *const (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
    completed: AtomicUsize,
    latch: Arc<Latch>,
    /// Frame id current on the spawning thread, forwarded so worker-side
    /// spans (and any spans `f` opens) tag the same frame as the caller.
    frame_id: u64,
    /// Nanoseconds participants spent draining this region, for the
    /// utilization gauge.
    busy_ns: AtomicU64,
}

// SAFETY: `f` is only dereferenced while the spawning `run_indexed` call is
// blocked on the region's latch (the referent is `Sync`, so shared calls
// from several threads are fine), and the index-claim/completion counters
// are atomics.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// Claims and runs indices until the region is exhausted. Panics inside
    /// `f` are caught and recorded; the claimed index still counts as
    /// completed so waiters are always released.
    fn drain(&self) {
        let mut i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.n {
            return; // never claimed anything: no busy time, no span
        }
        let _fs = trace::frame_scope(self.frame_id);
        let start_ns = trace::now_ns();
        let t0 = Instant::now();
        let mut claimed: u64 = 0;
        loop {
            // SAFETY: the spawning caller keeps `f` alive until
            // `completed == n` (latch wait below runs even on unwind).
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*self.f)(i) }));
            if let Err(payload) = result {
                self.latch.record_panic(payload);
            }
            claimed += 1;
            // AcqRel chain: the final increment happens-after every task's
            // writes, so the waiter observes all results once released.
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                self.latch.complete_one();
            }
            i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
        }
        let busy_ns = t0.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        let m = pool_metrics();
        m.worker_busy_ns.add(busy_ns);
        m.worker_chunks.add(claimed);
        trace::record_span("compute.worker", self.frame_id, start_ns, busy_ns);
    }
}

enum Job {
    Once(OnceJob),
    Region(Arc<Region>),
}

fn run_job(job: Job) {
    match job {
        Job::Once(OnceJob { f, latch }) => {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                latch.record_panic(payload);
            }
            latch.complete_one();
        }
        Job::Region(region) => region.drain(),
    }
}

// ---------------------------------------------------------------------------
// Shared pool state + workers
// ---------------------------------------------------------------------------

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn push(&self, job: Job) {
        self.queue.lock().unwrap().push_back(job);
        self.available.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().unwrap().pop_front()
    }
}

fn worker_main(shared: Arc<Shared>, init: Arc<dyn Fn() + Send + Sync>) {
    init();
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        match job {
            Some(job) => run_job(job),
            None => return,
        }
    }
}

/// Shared raw base pointer for partitioning a slice across tasks. Each task
/// derives a sub-slice over a range proven disjoint from every other task's.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only used to form non-overlapping sub-slices, each
// touched by exactly one task (see the call sites' disjointness proofs).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `SendPtr` — edition-2021 disjoint capture would otherwise pull out
    /// the bare `*mut T`, which is not `Sync`.
    fn get(&self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------------
// ComputePool
// ---------------------------------------------------------------------------

/// A fixed-size fork-join thread pool for intra-frame data parallelism.
///
/// `threads` counts the caller: a pool of 4 spawns 3 background workers and
/// the calling thread does the fourth share of the work. A pool of 1 runs
/// everything inline with no synchronization at all.
pub struct ComputePool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ComputePool {
    /// Creates a pool with `threads` total threads (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self::with_init(threads, || {})
    }

    /// Creates a pool whose background workers each run `init` once at
    /// startup — the hook used to warm each worker's thread-local FFT
    /// planner so steady-state frame processing never builds plans.
    pub fn with_init(threads: usize, init: impl Fn() + Send + Sync + 'static) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let init: Arc<dyn Fn() + Send + Sync> = Arc::new(init);
        let handles = (0..threads - 1)
            .map(|k| {
                let shared = Arc::clone(&shared);
                let init = Arc::clone(&init);
                std::thread::Builder::new()
                    .name(format!("biscatter-compute-{k}"))
                    .spawn(move || worker_main(shared, init))
                    .expect("spawn compute worker")
            })
            .collect();
        ComputePool {
            shared,
            threads,
            handles,
        }
    }

    /// The process-wide shared pool, sized by the `BISCATTER_THREADS`
    /// environment variable when set (and ≥ 1), else by
    /// [`std::thread::available_parallelism`].
    pub fn global() -> &'static ComputePool {
        static GLOBAL: OnceLock<ComputePool> = OnceLock::new();
        GLOBAL.get_or_init(|| ComputePool::new(default_threads()))
    }

    /// Total thread count including the caller.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0) ..= f(n-1)`, distributing indices across the pool. The
    /// caller participates; indices are claimed atomically so each runs
    /// exactly once. Blocks until all `n` calls have finished; if any task
    /// panicked, the first payload is re-raised here.
    pub fn run_indexed(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if self.threads <= 1 || n == 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let m = pool_metrics();
        m.fork_join_calls.inc();
        m.fork_join_tasks.add(n as u64);
        let frame_id = trace::current_frame();
        let span_start = trace::now_ns();
        let t0 = Instant::now();
        let latch = Arc::new(Latch::new());
        latch.add(1);
        // SAFETY: erasing the closure's lifetime is sound because this
        // function does not return (even by unwind — see LatchWaitGuard)
        // until every index has completed, after which no task can touch
        // `f` again.
        let f_erased: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const _)
        };
        let region = Arc::new(Region {
            f: f_erased,
            n,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            latch: Arc::clone(&latch),
            frame_id,
            busy_ns: AtomicU64::new(0),
        });
        let clones = (self.threads - 1).min(n - 1);
        {
            let mut q = self.shared.queue.lock().unwrap();
            for _ in 0..clones {
                q.push_back(Job::Region(Arc::clone(&region)));
            }
        }
        self.shared.available.notify_all();
        let guard = LatchWaitGuard {
            pool: self,
            latch: &latch,
        };
        region.drain();
        drop(guard); // blocks until stragglers on other threads finish
        let wall_ns = t0.elapsed().as_nanos() as u64;
        if wall_ns > 0 {
            let busy = region.busy_ns.load(Ordering::Relaxed) as f64;
            m.utilization
                .set(busy / (wall_ns as f64 * self.threads as f64));
        }
        trace::record_span("compute.fork_join", frame_id, span_start, wall_ns);
        if let Some(payload) = latch.take_panic() {
            resume_unwind(payload);
        }
    }

    /// Maps `f` over `0..n` in parallel, collecting results in index order.
    /// Equivalent to `(0..n).map(f).collect()` — same values, same order,
    /// regardless of pool size.
    pub fn par_index<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        if self.threads <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        self.par_chunks(&mut slots, 1, |i, slot| slot[0] = Some(f(i)));
        slots
            .into_iter()
            .map(|s| s.expect("par_index slot unfilled"))
            .collect()
    }

    /// Splits `data` into consecutive chunks of `chunk` elements (the last
    /// may be shorter) and runs `f(chunk_index, chunk)` on each in parallel.
    pub fn par_chunks<T: Send>(
        &self,
        data: &mut [T],
        chunk: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let chunk = chunk.max(1);
        let len = data.len();
        let n_chunks = len.div_ceil(chunk);
        if self.threads <= 1 || n_chunks <= 1 {
            for (c, s) in data.chunks_mut(chunk).enumerate() {
                f(c, s);
            }
            return;
        }
        let base = SendPtr(data.as_mut_ptr());
        self.run_indexed(n_chunks, &|c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(len);
            // SAFETY: chunk `c` covers `lo..hi`, pairwise disjoint across
            // chunk indices and within `data`; each index runs exactly once
            // and `data`'s borrow outlives run_indexed.
            let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
            f(c, slice);
        });
    }

    /// Runs `f(row, &mut data[offsets[row]..offsets[row + 1]])` for each of
    /// the `offsets.len() - 1` rows in parallel. `offsets` must be
    /// non-decreasing with the final entry ≤ `data.len()` (validated here),
    /// which proves the rows disjoint. This is the variable-row-length
    /// sibling of [`ComputePool::par_chunks`], used for ragged sample slabs.
    pub fn par_ragged<T: Send>(
        &self,
        data: &mut [T],
        offsets: &[usize],
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        assert!(!offsets.is_empty(), "offsets needs at least one entry");
        let rows = offsets.len() - 1;
        for w in offsets.windows(2) {
            assert!(w[0] <= w[1], "offsets must be non-decreasing");
        }
        assert!(
            offsets[rows] <= data.len(),
            "offsets end {} beyond data length {}",
            offsets[rows],
            data.len()
        );
        if self.threads <= 1 || rows <= 1 {
            for r in 0..rows {
                f(r, &mut data[offsets[r]..offsets[r + 1]]);
            }
            return;
        }
        let base = SendPtr(data.as_mut_ptr());
        self.run_indexed(rows, &|r| {
            let (lo, hi) = (offsets[r], offsets[r + 1]);
            // SAFETY: offsets are validated non-decreasing and in-bounds,
            // so row ranges are pairwise disjoint; each row runs once.
            let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
            f(r, slice);
        });
    }

    /// Partitions the columns of a row-major `n_rows × n_cols` slab into
    /// bands of `col_chunk` columns and runs `f` on each band in parallel.
    /// Each task writes through its [`ColumnBand`], which only permits
    /// stores to columns inside the band — the strided analogue of
    /// [`ComputePool::par_chunks`] for column-parallel work like the
    /// Doppler FFT.
    pub fn par_columns<T: Send>(
        &self,
        data: &mut [T],
        n_rows: usize,
        n_cols: usize,
        col_chunk: usize,
        f: impl Fn(&mut ColumnBand<'_, T>) + Sync,
    ) {
        assert_eq!(
            data.len(),
            n_rows * n_cols,
            "slab length must be n_rows * n_cols"
        );
        if n_rows == 0 || n_cols == 0 {
            return;
        }
        let col_chunk = col_chunk.max(1);
        let n_bands = n_cols.div_ceil(col_chunk);
        let base = SendPtr(data.as_mut_ptr());
        let make_band = |b: usize| {
            let lo = b * col_chunk;
            ColumnBand {
                ptr: base.get(),
                n_rows,
                n_cols,
                lo,
                hi: (lo + col_chunk).min(n_cols),
                _marker: PhantomData,
            }
        };
        if self.threads <= 1 || n_bands <= 1 {
            for b in 0..n_bands {
                f(&mut make_band(b));
            }
            return;
        }
        self.run_indexed(n_bands, &|b| f(&mut make_band(b)));
    }

    /// Opens a fork-join scope: closures spawned on it may borrow from the
    /// enclosing environment (`'env`) and are guaranteed to finish before
    /// `scope` returns — even if the scope body or a task panics.
    ///
    /// Tasks may run on the caller thread (always, on a 1-thread pool), so
    /// they must not block waiting on each other.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let latch = Arc::new(Latch::new());
        let scope = Scope {
            pool: self,
            latch: Arc::clone(&latch),
            _env: PhantomData,
        };
        let guard = LatchWaitGuard {
            pool: self,
            latch: &latch,
        };
        let r = f(&scope);
        drop(guard); // join all spawned tasks
        if let Some(payload) = latch.take_panic() {
            resume_unwind(payload);
        }
        r
    }

    /// Waits for `latch`, helping drain the shared queue meanwhile so that
    /// nested scopes make progress even when every worker is busy.
    fn wait_latch(&self, latch: &Latch) {
        loop {
            if latch.is_done() {
                return;
            }
            if let Some(job) = self.shared.try_pop() {
                run_job(job);
                continue;
            }
            let st = latch.state.lock().unwrap();
            if st.pending == 0 {
                return;
            }
            // The final completion notifies the condvar; the timeout only
            // exists to re-check the queue for help-work that arrived from
            // other scopes while we slept.
            let _ = latch.cv.wait_timeout(st, Duration::from_millis(1)).unwrap();
        }
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Lock/unlock pairs the store with workers' wait, so none misses
        // the wakeup.
        drop(self.shared.queue.lock().unwrap());
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Returns the global pool's default size: `BISCATTER_THREADS` when set to
/// a positive integer, else [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("BISCATTER_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------------

/// A fork-join scope created by [`ComputePool::scope`]; spawned closures may
/// borrow `'env` data.
pub struct Scope<'pool, 'env> {
    pool: &'pool ComputePool,
    latch: Arc<Latch>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawns `f` onto the pool. On a 1-thread pool it runs immediately on
    /// the caller.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        if self.pool.threads <= 1 {
            f();
            return;
        }
        self.latch.add(1);
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the scope blocks on its latch before returning (unwind
        // included), so `'env` borrows outlive the task.
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(boxed)
        };
        self.pool.shared.push(Job::Once(OnceJob {
            f: boxed,
            latch: Arc::clone(&self.latch),
        }));
    }
}

// ---------------------------------------------------------------------------
// ColumnBand
// ---------------------------------------------------------------------------

/// Write access to a contiguous band of columns of a row-major slab,
/// handed to each [`ComputePool::par_columns`] task. Only stores inside the
/// band are allowed (checked), which keeps concurrent bands disjoint.
pub struct ColumnBand<'a, T> {
    ptr: *mut T,
    n_rows: usize,
    n_cols: usize,
    lo: usize,
    hi: usize,
    _marker: PhantomData<&'a mut [T]>,
}

impl<T> ColumnBand<'_, T> {
    /// The column range this band may write.
    pub fn cols(&self) -> std::ops::Range<usize> {
        self.lo..self.hi
    }

    /// Number of rows in the underlying slab.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Stores `value` at `(row, col)`; panics if the cell lies outside this
    /// band.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.n_rows, "row {row} out of {} rows", self.n_rows);
        assert!(
            col >= self.lo && col < self.hi,
            "column {col} outside band {}..{}",
            self.lo,
            self.hi
        );
        // SAFETY: row/col checked above; bands cover disjoint column sets,
        // so no other task writes this element concurrently.
        unsafe {
            *self.ptr.add(row * self.n_cols + col) = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Vec<ComputePool> {
        vec![
            ComputePool::new(1),
            ComputePool::new(2),
            ComputePool::new(4),
        ]
    }

    #[test]
    fn par_index_matches_serial_for_all_pool_sizes() {
        let want: Vec<u64> = (0..37).map(|i| (i as u64) * (i as u64) + 7).collect();
        for pool in pools() {
            let got = pool.par_index(37, |i| (i as u64) * (i as u64) + 7);
            assert_eq!(got, want, "pool size {}", pool.threads());
        }
    }

    #[test]
    fn par_chunks_covers_every_element_once() {
        for pool in pools() {
            let mut data = vec![0u32; 103];
            pool.par_chunks(&mut data, 10, |c, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v += (c * 10 + k) as u32 + 1;
                }
            });
            let want: Vec<u32> = (1..=103).collect();
            assert_eq!(data, want, "pool size {}", pool.threads());
        }
    }

    #[test]
    fn par_ragged_respects_row_boundaries() {
        let offsets = [0usize, 3, 3, 8, 12];
        for pool in pools() {
            let mut data = vec![0i64; 12];
            pool.par_ragged(&mut data, &offsets, |row, slice| {
                for v in slice.iter_mut() {
                    *v = row as i64 + 1;
                }
            });
            assert_eq!(data, [1, 1, 1, 3, 3, 3, 3, 3, 4, 4, 4, 4]);
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn par_ragged_rejects_bad_offsets() {
        let mut data = vec![0u8; 4];
        ComputePool::new(1).par_ragged(&mut data, &[0, 3, 2], |_, _| {});
    }

    #[test]
    fn par_columns_fills_whole_slab() {
        let (n_rows, n_cols) = (7, 13);
        for pool in pools() {
            let mut slab = vec![0usize; n_rows * n_cols];
            pool.par_columns(&mut slab, n_rows, n_cols, 4, |band| {
                for col in band.cols() {
                    for row in 0..band.n_rows() {
                        band.set(row, col, row * 100 + col);
                    }
                }
            });
            for row in 0..n_rows {
                for col in 0..n_cols {
                    assert_eq!(slab[row * n_cols + col], row * 100 + col);
                }
            }
        }
    }

    #[test]
    fn scope_joins_all_spawned_tasks() {
        for pool in pools() {
            let counter = AtomicUsize::new(0);
            pool.scope(|s| {
                for _ in 0..16 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 16);
        }
    }

    #[test]
    fn nested_parallel_regions_complete() {
        // A region whose tasks each open their own region must not deadlock,
        // even when the pool has fewer threads than live regions.
        let pool = ComputePool::new(2);
        let total = AtomicUsize::new(0);
        pool.run_indexed(4, &|_| {
            pool.run_indexed(4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = ComputePool::new(2);
        let total = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    pool.scope(|inner| {
                        for _ in 0..3 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn panic_in_region_propagates_with_payload() {
        for pool in pools().into_iter().skip(1) {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_indexed(8, &|i| {
                    if i == 5 {
                        panic!("boom at {i}");
                    }
                });
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("boom"), "payload: {msg:?}");
        }
    }

    #[test]
    fn panic_in_scope_task_propagates() {
        let pool = ComputePool::new(3);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("scoped boom"));
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("scoped boom"), "payload: {msg:?}");
    }

    #[test]
    fn pool_survives_task_panic() {
        let pool = ComputePool::new(2);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(4, &|_| panic!("x"));
        }));
        // Workers must still be alive and serving jobs.
        let got = pool.par_index(5, |i| i * 2);
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn global_pool_is_usable() {
        let pool = ComputePool::global();
        assert!(pool.threads() >= 1);
        let got = pool.par_index(3, |i| i + 1);
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn empty_and_unit_inputs() {
        let pool = ComputePool::new(4);
        pool.run_indexed(0, &|_| panic!("never called"));
        assert!(pool.par_index(0, |i| i).is_empty());
        let mut empty: [u8; 0] = [];
        pool.par_chunks(&mut empty, 8, |_, _| panic!("never called"));
        pool.par_ragged(&mut empty, &[0], |_, _| panic!("never called"));
        let mut one = [41u64];
        pool.par_chunks(&mut one, 8, |_, s| s[0] += 1);
        assert_eq!(one[0], 42);
    }
}

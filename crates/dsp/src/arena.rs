//! Reusable buffer pools for the zero-allocation frame path.
//!
//! Steady-state frame processing must not touch the heap (DESIGN.md §10):
//! every large intermediate — IF sample slabs, aligned profiles,
//! range–Doppler maps — is checked out of a [`Pool`] as a [`Lease`] and
//! returned automatically on drop. The first few frames populate the free
//! lists (warm-up); after that every checkout is a `Vec::pop` and every
//! return a `Vec::push` within existing capacity.
//!
//! Pools are `Arc`-internal and thread-safe, so one arena serves every frame
//! worker of a cell, and a lease may be returned from a different thread
//! than the one that checked it out.
//!
//! Pools built with [`Pool::named_at`] additionally publish lease hit/miss
//! counters and an outstanding-lease high-water gauge into the
//! [`biscatter_obs`] registry (`<base>.*`), so a streaming run can
//! prove its free lists actually recycle; anonymous [`Pool::new`] pools
//! stay metric-free. The stat updates are relaxed atomics — no extra
//! locking, no allocation on the lease path.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use biscatter_obs::metrics::{Counter, Gauge};

/// Registry handles plus the live outstanding-lease count for one named
/// pool.
struct PoolStats {
    hits: Counter,
    misses: Counter,
    outstanding: AtomicU64,
    outstanding_hiwat: Gauge,
}

struct PoolInner<T> {
    free: Mutex<Vec<T>>,
    stats: Option<PoolStats>,
}

/// A free-list of reusable `T` values. Cloning the pool clones the handle,
/// not the buffers — all clones share one free list.
pub struct Pool<T> {
    inner: Arc<PoolInner<T>>,
}

impl<T> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Pool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for Pool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("idle", &self.idle()).finish()
    }
}

impl<T> Pool<T> {
    /// Creates an empty pool with no registry metrics.
    pub fn new() -> Self {
        Pool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::new()),
                stats: None,
            }),
        }
    }

    /// Creates an empty pool that reports `<base>.lease_hits`,
    /// `<base>.lease_misses`, and the `<base>.outstanding_hiwat` gauge to
    /// the global metric registry. Pools sharing a name share the registry
    /// cells (their stats sum). This is how a multi-cell process keeps pools
    /// from colliding: cell 3's pipeline registers its pools at
    /// `cell3.arena.isac.*` while a standalone run keeps the legacy
    /// unscoped `arena.isac.*` names.
    pub fn named_at(base: &str) -> Self {
        let r = biscatter_obs::registry();
        Pool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::new()),
                stats: Some(PoolStats {
                    hits: r.counter(&format!("{base}.lease_hits")),
                    misses: r.counter(&format!("{base}.lease_misses")),
                    outstanding: AtomicU64::new(0),
                    outstanding_hiwat: r.gauge(&format!("{base}.outstanding_hiwat")),
                }),
            }),
        }
    }

    /// Checks a value out of the free list, or builds one with `make` when
    /// the list is empty (the warm-up path). The lease returns the value to
    /// this pool when dropped.
    pub fn take_or(&self, make: impl FnOnce() -> T) -> Lease<T> {
        let value = self.inner.free.lock().unwrap().pop();
        if let Some(stats) = &self.inner.stats {
            if value.is_some() {
                stats.hits.inc();
            } else {
                stats.misses.inc();
            }
            let now = stats.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
            stats.outstanding_hiwat.set_max(now as f64);
        }
        Lease {
            value: Some(value.unwrap_or_else(make)),
            pool: Arc::clone(&self.inner),
        }
    }

    /// Number of values currently sitting in the free list.
    pub fn idle(&self) -> usize {
        self.inner.free.lock().unwrap().len()
    }
}

/// An exclusively-owned value checked out of a [`Pool`]; dereferences to
/// `T` and returns the value to its pool on drop.
pub struct Lease<T> {
    value: Option<T>,
    pool: Arc<PoolInner<T>>,
}

impl<T> Deref for Lease<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.value.as_ref().expect("lease already emptied")
    }
}

impl<T> DerefMut for Lease<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("lease already emptied")
    }
}

impl<T> Drop for Lease<T> {
    fn drop(&mut self) {
        // The lease ends here, so the outstanding count decrements once.
        if let Some(stats) = &self.pool.stats {
            stats.outstanding.fetch_sub(1, Ordering::Relaxed);
        }
        if let Some(value) = self.value.take() {
            self.pool.free.lock().unwrap().push(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_returns_on_drop() {
        let pool: Pool<Vec<f64>> = Pool::new();
        assert_eq!(pool.idle(), 0);
        {
            let mut a = pool.take_or(|| vec![0.0; 8]);
            a[0] = 1.0;
        }
        assert_eq!(pool.idle(), 1);
        // Second checkout reuses the same buffer (contents preserved —
        // callers must clear/overwrite).
        let b = pool.take_or(|| vec![0.0; 99]);
        assert_eq!(b.len(), 8);
        assert_eq!(b[0], 1.0);
    }

    #[test]
    fn clones_share_free_list() {
        let pool: Pool<String> = Pool::new();
        let clone = pool.clone();
        drop(pool.take_or(|| "x".to_string()));
        assert_eq!(clone.idle(), 1);
        let got = clone.take_or(|| "y".to_string());
        assert_eq!(&*got, "x");
    }

    #[test]
    fn leases_cross_threads() {
        let pool: Pool<Vec<f64>> = Pool::new();
        let lease = pool.take_or(|| vec![7.0; 4]);
        let pool2 = pool.clone();
        std::thread::spawn(move || drop(lease)).join().unwrap();
        assert_eq!(pool2.idle(), 1);
    }

    #[test]
    fn named_pool_reports_hits_misses_and_hiwat() {
        let pool: Pool<Vec<u8>> = Pool::named_at("arena.test.arena_unit");
        let snap = || biscatter_obs::registry().snapshot();
        let base_hits = snap().counter("arena.test.arena_unit.lease_hits").unwrap();
        let base_misses = snap()
            .counter("arena.test.arena_unit.lease_misses")
            .unwrap();

        let a = pool.take_or(|| vec![0; 4]); // miss
        let b = pool.take_or(|| vec![0; 4]); // miss, 2 outstanding
        drop(a);
        drop(b);
        let c = pool.take_or(|| vec![0; 4]); // hit
        drop(c);

        let s = snap();
        assert_eq!(
            s.counter("arena.test.arena_unit.lease_hits"),
            Some(base_hits + 1)
        );
        assert_eq!(
            s.counter("arena.test.arena_unit.lease_misses"),
            Some(base_misses + 2)
        );
        assert!(s.gauge("arena.test.arena_unit.outstanding_hiwat").unwrap() >= 2.0);
    }
}

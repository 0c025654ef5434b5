//! Bounded MPMC queue with selectable backpressure, built on
//! `std::sync::{Mutex, Condvar}`.
//!
//! A cell's streaming intake and the fleet's per-cell admission intakes are
//! each one of these. The queue tracks its own depth high-water mark and
//! drop count; queues built with [`BoundedQueue::named_at`] additionally
//! publish their depth (sampled at every push and pop), high-water mark, and
//! eviction count as `<base>.*` registry metrics, giving live congestion
//! visibility mid-run.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use biscatter_obs::metrics::{Counter, Gauge};

/// What a producer does when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block until a consumer makes room (lossless).
    Block,
    /// Evict the oldest queued item to make room (bounded latency, lossy);
    /// evictions are counted in [`BoundedQueue::drops`].
    DropOldest,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
    drops: u64,
}

/// Registry handles for one named queue's congestion metrics.
struct QueueMetrics {
    depth: Gauge,
    high_water: Gauge,
    drops: Counter,
}

/// Outcome of a non-blocking [`BoundedQueue::try_pop`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryPop<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue is open but currently empty — try again later.
    Empty,
    /// The queue is closed and fully drained — no more items will arrive.
    Closed,
}

/// Why a non-blocking [`BoundedQueue::try_push`] declined the item.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity; the item is handed back untouched.
    Full(T),
    /// The queue is closed; the item is gone.
    Closed,
}

/// A bounded multi-producer/multi-consumer queue.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    policy: Backpressure,
    metrics: Option<QueueMetrics>,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize, policy: Backpressure) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                high_water: 0,
                drops: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            policy,
            metrics: None,
        }
    }

    /// [`new`](Self::new), additionally publishing `<base>.depth` and
    /// `<base>.high_water` gauges plus a `<base>.drops` eviction counter to
    /// the global metric registry. Multi-cell processes scope their queues
    /// as `cell<id>.runtime.queue.intake` (and the fleet intake as
    /// `cell<id>.fleet.intake`) so concurrent cells report disjoint gauges;
    /// the unscoped `runtime.queue.intake` remains the single-cell default.
    pub fn named_at(capacity: usize, policy: Backpressure, base: &str) -> Self {
        let r = biscatter_obs::registry();
        let mut q = Self::new(capacity, policy);
        q.metrics = Some(QueueMetrics {
            depth: r.gauge(&format!("{base}.depth")),
            high_water: r.gauge(&format!("{base}.high_water")),
            drops: r.counter(&format!("{base}.drops")),
        });
        q
    }

    /// Locks the queue state. A thread that panics while holding it must not
    /// wedge every producer and consumer of the queue, and need not: each
    /// update under the lock is one deque push or pop, the closed flag, or
    /// a count, whole on its own, so the state stays valid wherever a holder
    /// stops. The worst it leaves behind is an eviction counted whose
    /// replacement never arrived.
    fn state(&self) -> MutexGuard<'_, State<T>> {
        biscatter_obs::lock(&self.state)
    }

    /// Enqueues `item`. Under [`Backpressure::Block`] this waits for room;
    /// under [`Backpressure::DropOldest`] it evicts the oldest item instead.
    /// Returns `false` (dropping `item`) if the queue is closed.
    pub fn push(&self, item: T) -> bool {
        let mut st = self.state();
        loop {
            if st.closed {
                return false;
            }
            if st.items.len() < self.capacity {
                break;
            }
            match self.policy {
                Backpressure::Block => {
                    st = biscatter_obs::wait(&self.not_full, st);
                }
                Backpressure::DropOldest => {
                    st.items.pop_front();
                    st.drops += 1;
                    if let Some(m) = &self.metrics {
                        m.drops.inc();
                    }
                    break;
                }
            }
        }
        st.items.push_back(item);
        st.high_water = st.high_water.max(st.items.len());
        if let Some(m) = &self.metrics {
            m.depth.set(st.items.len() as f64);
            m.high_water.set_max(st.high_water as f64);
        }
        self.not_empty.notify_one();
        true
    }

    /// Dequeues the oldest item, waiting while the queue is empty but open.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state();
        loop {
            if let Some(item) = st.items.pop_front() {
                if let Some(m) = &self.metrics {
                    m.depth.set(st.items.len() as f64);
                }
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = biscatter_obs::wait(&self.not_empty, st);
        }
    }

    /// Non-blocking pop for cooperative schedulers that multiplex several
    /// queues on one thread: returns immediately instead of waiting.
    pub fn try_pop(&self) -> TryPop<T> {
        let mut st = self.state();
        if let Some(item) = st.items.pop_front() {
            if let Some(m) = &self.metrics {
                m.depth.set(st.items.len() as f64);
            }
            self.not_full.notify_one();
            return TryPop::Item(item);
        }
        if st.closed {
            TryPop::Closed
        } else {
            TryPop::Empty
        }
    }

    /// Non-blocking push: enqueues `item` only if there is room right now.
    /// Returns the item back to the caller when the queue is full (so a
    /// rejecting admission policy can count and discard it) and drops it
    /// with `Err` when closed. Never evicts, regardless of policy.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut st = self.state();
        if st.closed {
            return Err(TryPushError::Closed);
        }
        if st.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        st.items.push_back(item);
        st.high_water = st.high_water.max(st.items.len());
        if let Some(m) = &self.metrics {
            m.depth.set(st.items.len() as f64);
            m.high_water.set_max(st.high_water as f64);
        }
        self.not_empty.notify_one();
        Ok(())
    }

    /// Push that evicts the oldest queued item when full (regardless of the
    /// queue's configured policy), returning the evicted item so the caller
    /// can account for it — the fleet's drop-oldest admission needs the
    /// victim to keep handoff sessions live. Returns `Err(item)` if closed.
    pub fn push_evict(&self, item: T) -> Result<Option<T>, T> {
        let mut st = self.state();
        if st.closed {
            return Err(item);
        }
        let evicted = if st.items.len() >= self.capacity {
            let victim = st.items.pop_front();
            st.drops += 1;
            if let Some(m) = &self.metrics {
                m.drops.inc();
            }
            victim
        } else {
            None
        };
        st.items.push_back(item);
        st.high_water = st.high_water.max(st.items.len());
        if let Some(m) = &self.metrics {
            m.depth.set(st.items.len() as f64);
            m.high_water.set_max(st.high_water as f64);
        }
        self.not_empty.notify_one();
        Ok(evicted)
    }

    /// Closes the queue: producers fail fast, consumers drain what remains.
    pub fn close(&self) {
        let mut st = self.state();
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.state().items.len()
    }

    /// Deepest the queue ever got.
    pub fn high_water(&self) -> usize {
        self.state().high_water
    }

    /// Items evicted under [`Backpressure::DropOldest`].
    pub fn drops(&self) -> u64 {
        self.state().drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4, Backpressure::Block);
        for i in 0..4 {
            assert!(q.push(i));
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn drop_oldest_evicts_and_counts() {
        let q = BoundedQueue::new(2, Backpressure::DropOldest);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(q.push(3)); // evicts 1
        assert_eq!(q.drops(), 1);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4, Backpressure::Block);
        q.push(7);
        q.close();
        assert!(!q.push(8), "push after close must fail");
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_producer_unblocks_on_pop() {
        let q = Arc::new(BoundedQueue::new(1, Backpressure::Block));
        q.push(0);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1));
        // Give the producer a moment to block on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.drops(), 0);
    }

    #[test]
    fn blocked_producer_released_by_close() {
        let q = Arc::new(BoundedQueue::new(1, Backpressure::Block));
        q.push(0);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(!producer.join().unwrap(), "close must release the producer");
    }

    #[test]
    fn try_pop_never_blocks() {
        let q = BoundedQueue::new(2, Backpressure::Block);
        assert_eq!(q.try_pop(), TryPop::Empty);
        q.push(5);
        assert_eq!(q.try_pop(), TryPop::Item(5));
        assert_eq!(q.try_pop(), TryPop::Empty);
        q.close();
        assert_eq!(q.try_pop(), TryPop::Closed);
    }

    #[test]
    fn try_push_hands_back_on_full() {
        let q = BoundedQueue::new(1, Backpressure::Block);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.try_push(2), Err(TryPushError::Full(2)));
        assert_eq!(q.drops(), 0, "a rejected push is not an eviction");
        assert_eq!(q.pop(), Some(1));
        q.close();
        assert_eq!(q.try_push(3), Err(TryPushError::Closed));
    }

    #[test]
    fn push_evict_returns_the_victim() {
        let q = BoundedQueue::new(2, Backpressure::Block);
        assert_eq!(q.push_evict(1), Ok(None));
        assert_eq!(q.push_evict(2), Ok(None));
        assert_eq!(q.push_evict(3), Ok(Some(1)));
        assert_eq!(q.drops(), 1);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        q.close();
        assert_eq!(q.push_evict(4), Err(4));
    }

    #[test]
    fn poisoned_lock_keeps_the_queue_working() {
        let q = Arc::new(BoundedQueue::new(2, Backpressure::Block));
        assert!(q.push(1));
        // A frame worker panics while it holds the queue's lock.
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let _st = q.state();
                panic!("poisoning the queue on purpose");
            })
            .join()
        });
        assert!(joined.is_err() && q.state.is_poisoned());
        assert!(q.push(2));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        // The producer finds the queue full and waits on the poisoned lock
        // unless the pop below has already made room; either way it pushes.
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(3))
        };
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.try_pop(), TryPop::Item(3));
        assert_eq!(q.push_evict(4), Ok(None));
        q.close();
        assert!(!q.push(5));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
        assert_eq!((q.high_water(), q.drops()), (2, 0));
    }

    #[test]
    fn mpmc_totals_preserved() {
        let q = Arc::new(BoundedQueue::new(8, Backpressure::Block));
        let total: u64 = 500;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..(total / 4) {
                        q.push(p * 1000 + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while q.pop().is_some() {
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let consumed: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(consumed, total);
    }
}

//! Bounded MPMC queue with the workspace's one overload policy, built on
//! `std::sync::{Mutex, Condvar}`.
//!
//! A cell's streaming intake and the fleet's per-cell intakes are each one
//! of these. Its [`Backpressure`] decides what a push onto a full queue
//! does, and the queue alone counts what that sheds: evictions in
//! [`BoundedQueue::drops`], refusals in [`BoundedQueue::rejected`]. One call,
//! [`BoundedQueue::push`], applies the policy and hands back whatever left
//! the queue, so a caller can account for it (the fleet skips a shed
//! frame's uplink window). Queues built with [`BoundedQueue::named_at`]
//! also publish their depth (sampled at every push and pop), high-water
//! mark, evictions and refusals as `<base>.*` registry metrics, giving live
//! congestion visibility mid-run.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use biscatter_obs::metrics::{Counter, Gauge};

/// What a push onto a full queue does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Wait until a consumer makes room (lossless).
    Block,
    /// Evict the oldest queued item to make room (bounded staleness, lossy);
    /// evictions are counted in [`BoundedQueue::drops`].
    DropOldest,
    /// Refuse the new item (bounded latency, lossy); refusals are counted in
    /// [`BoundedQueue::rejected`].
    Reject,
}

/// How one [`BoundedQueue::push`] resolved. Every variant but `Queued`
/// hands an item back.
#[derive(Debug, PartialEq, Eq)]
pub enum Pushed<T> {
    /// The item is queued.
    Queued,
    /// The item is queued at the cost of the oldest one, handed back here
    /// ([`Backpressure::DropOldest`]).
    Evicted(T),
    /// The queue was full and refused the item ([`Backpressure::Reject`]).
    Refused(T),
    /// The queue is closed; the item was not queued and counts as neither
    /// evicted nor refused.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
    drops: u64,
    rejected: u64,
}

/// Registry handles for one named queue's congestion metrics.
struct QueueMetrics {
    depth: Gauge,
    high_water: Gauge,
    drops: Counter,
    rejected: Counter,
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
                rejected: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            policy,
            metrics: None,
        }
    }

    /// [`new`](Self::new), additionally publishing `<base>.depth` and
    /// `<base>.high_water` gauges plus `<base>.drops` (evictions) and
    /// `<base>.rejected` (refusals) counters to the global metric registry.
    /// Multi-cell processes scope their queues as
    /// `cell<id>.runtime.queue.intake` (and the fleet intake as
    /// `cell<id>.fleet.intake`) so concurrent cells report disjoint metrics;
    /// the unscoped `runtime.queue.intake` remains the single-cell default.
    pub fn named_at(capacity: usize, policy: Backpressure, base: &str) -> Self {
        let r = biscatter_obs::registry();
        let mut q = Self::new(capacity, policy);
        q.metrics = Some(QueueMetrics {
            depth: r.gauge(&format!("{base}.depth")),
            high_water: r.gauge(&format!("{base}.high_water")),
            drops: r.counter(&format!("{base}.drops")),
            rejected: r.counter(&format!("{base}.rejected")),
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

    /// Offers `item`, applying the queue's [`Backpressure`] when it is full:
    /// `Block` waits for room, `DropOldest` evicts the oldest item and
    /// `Reject` refuses `item`, each shed item counted once, here. Whatever
    /// does not end up queued comes back in the [`Pushed`].
    pub fn push(&self, item: T) -> Pushed<T> {
        let mut st = self.state();
        let mut evicted = None;
        loop {
            if st.closed {
                return Pushed::Closed(item);
            }
            if st.items.len() < self.capacity {
                break;
            }
            match self.policy {
                Backpressure::Block => st = biscatter_obs::wait(&self.not_full, st),
                Backpressure::DropOldest => {
                    evicted = st.items.pop_front();
                    st.drops += 1;
                    if let Some(m) = &self.metrics {
                        m.drops.inc();
                    }
                    break;
                }
                Backpressure::Reject => {
                    st.rejected += 1;
                    if let Some(m) = &self.metrics {
                        m.rejected.inc();
                    }
                    return Pushed::Refused(item);
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
        evicted.map_or(Pushed::Queued, Pushed::Evicted)
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

    /// Items refused under [`Backpressure::Reject`].
    pub fn rejected(&self) -> u64 {
        self.state().rejected
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
            assert_eq!(q.push(i), Pushed::Queued);
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn drop_oldest_evicts_and_counts() {
        let q = BoundedQueue::new(2, Backpressure::DropOldest);
        assert_eq!(q.push(1), Pushed::Queued);
        assert_eq!(q.push(2), Pushed::Queued);
        q.push(3); // evicts 1
        assert_eq!((q.drops(), q.rejected()), (1, 0));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn push_evict_returns_the_victim() {
        let q = BoundedQueue::new(2, Backpressure::DropOldest);
        assert_eq!(q.push(1), Pushed::Queued);
        assert_eq!(q.push(2), Pushed::Queued);
        assert_eq!(q.push(3), Pushed::Evicted(1));
        assert_eq!(q.drops(), 1);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        q.close();
        assert_eq!(q.push(4), Pushed::Closed(4));
        assert_eq!(q.drops(), 1, "a push after close is not an eviction");
    }

    #[test]
    fn reject_hands_back_on_full() {
        let q = BoundedQueue::new(1, Backpressure::Reject);
        assert_eq!(q.push(1), Pushed::Queued);
        assert_eq!(q.push(2), Pushed::Refused(2));
        assert_eq!(
            (q.drops(), q.rejected()),
            (0, 1),
            "a refusal is not an eviction"
        );
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(3), Pushed::Queued);
        q.close();
        assert_eq!(q.push(4), Pushed::Closed(4));
        assert_eq!(q.rejected(), 1, "a push after close is not a refusal");
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4, Backpressure::Block);
        q.push(7);
        q.close();
        assert_eq!(q.push(8), Pushed::Closed(8), "push after close must fail");
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
        assert_eq!(producer.join().unwrap(), Pushed::Queued);
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
        assert_eq!(
            producer.join().unwrap(),
            Pushed::Closed(1),
            "close must release the producer"
        );
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
    fn poisoned_lock_keeps_the_queue_working() {
        let q = Arc::new(BoundedQueue::new(2, Backpressure::Block));
        assert_eq!(q.push(1), Pushed::Queued);
        // A frame worker panics while it holds the queue's lock.
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let _st = q.state();
                panic!("poisoning the queue on purpose");
            })
            .join()
        });
        assert!(joined.is_err() && q.state.is_poisoned());
        assert_eq!(q.push(2), Pushed::Queued);
        assert_eq!(q.depth(), 2);
        // The producer finds the queue full and waits on the poisoned lock
        // unless the pop below has already made room; either way it pushes.
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(3))
        };
        assert_eq!(q.pop(), Some(1));
        assert_eq!(producer.join().unwrap(), Pushed::Queued);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.try_pop(), TryPop::Item(3));
        assert_eq!(q.push(4), Pushed::Queued);
        q.close();
        assert_eq!(q.push(5), Pushed::Closed(5));
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

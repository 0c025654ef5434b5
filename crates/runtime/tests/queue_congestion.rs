//! Congestion accounting for [`BoundedQueue`] under concurrent producers.
//!
//! Both lossy policies promise *exact* accounting: with no consumer,
//! `offered = retained + evicted` under drop-oldest and
//! `offered = retained + refused` under reject must hold to the item, the
//! retained set is exactly the queue's capacity, and the high-water mark
//! never exceeds capacity. This holds even when many producers race,
//! because the policy is applied and counted under the queue's lock.

use std::sync::Arc;

use biscatter_runtime::queue::{Backpressure, BoundedQueue, Pushed};

const CAPACITY: usize = 8;
const PRODUCERS: u64 = 4;
const PER_PRODUCER: u64 = 250;

#[test]
fn drop_oldest_accounts_exactly_under_concurrent_producers() {
    let q = Arc::new(BoundedQueue::<u64>::new(CAPACITY, Backpressure::DropOldest));

    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let pushed = q.push(p * PER_PRODUCER + i);
                    assert!(
                        matches!(pushed, Pushed::Queued | Pushed::Evicted(_)),
                        "queue must stay open and never refuse, got {pushed:?}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let offered = PRODUCERS * PER_PRODUCER;
    assert_eq!(q.depth(), CAPACITY, "queue must be full after the flood");
    assert_eq!(
        q.drops(),
        offered - CAPACITY as u64,
        "every eviction must be counted, exactly once"
    );
    assert_eq!(
        q.high_water(),
        CAPACITY,
        "high-water must saturate at capacity, never exceed it"
    );

    // Drain: exactly `CAPACITY` distinct survivors remain, and draining
    // changes no congestion counter.
    q.close();
    let mut survivors = std::collections::BTreeSet::new();
    while let Some(v) = q.pop() {
        assert!(survivors.insert(v), "queue yielded a duplicate item");
    }
    assert_eq!(survivors.len(), CAPACITY);
    assert_eq!(q.drops(), offered - CAPACITY as u64);
    assert_eq!(q.high_water(), CAPACITY);
    assert_eq!(q.rejected(), 0, "an eviction is not a refusal");
}

/// Reject hands each refused item back to its producer and counts it once:
/// with no consumer, exactly `CAPACITY` offers are queued, whatever the
/// interleaving, and every other one comes back refused.
#[test]
fn reject_accounts_exactly_under_concurrent_producers() {
    let q = Arc::new(BoundedQueue::<u64>::new(CAPACITY, Backpressure::Reject));

    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut refused = 0u64;
                for i in 0..PER_PRODUCER {
                    let item = p * PER_PRODUCER + i;
                    match q.push(item) {
                        Pushed::Queued => {}
                        Pushed::Refused(back) => {
                            assert_eq!(back, item, "the refused item comes back");
                            refused += 1;
                        }
                        other => panic!("an open reject queue gave {other:?}"),
                    }
                }
                refused
            })
        })
        .collect();
    let refused: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    let offered = PRODUCERS * PER_PRODUCER;
    assert_eq!(q.depth(), CAPACITY, "queue must be full after the flood");
    assert_eq!(refused, offered - CAPACITY as u64);
    assert_eq!(
        q.rejected(),
        refused,
        "every refusal must be counted, exactly once"
    );
    assert_eq!(q.drops(), 0, "a refusal is not an eviction");
    assert_eq!(q.high_water(), CAPACITY);

    q.close();
    let mut survivors = std::collections::BTreeSet::new();
    while let Some(v) = q.pop() {
        assert!(survivors.insert(v), "queue yielded a duplicate item");
    }
    assert_eq!(survivors.len(), CAPACITY);
    assert_eq!((q.rejected(), q.drops()), (refused, 0));
}

/// Blocking queues never drop: with a consumer draining, all offered items
/// arrive and the drop counter stays zero even when producers outpace the
/// consumer and repeatedly block on the full queue.
#[test]
fn blocking_policy_never_drops_under_pressure() {
    let q = Arc::new(BoundedQueue::<u64>::new(2, Backpressure::Block));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.push(p * PER_PRODUCER + i);
                }
            })
        })
        .collect();
    let consumer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    };
    for h in producers {
        h.join().unwrap();
    }
    q.close();
    assert_eq!(consumer.join().unwrap(), PRODUCERS * PER_PRODUCER);
    assert_eq!(q.drops(), 0, "blocking backpressure must be lossless");
    assert_eq!(q.rejected(), 0, "blocking backpressure must be lossless");
    assert!(q.high_water() <= 2);
}

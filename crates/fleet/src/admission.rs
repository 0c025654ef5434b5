//! Fleet-level admission control: per-cell intake quotas and overload
//! policies.
//!
//! The fleet's single feeder pushes every [`CellJob`] through an
//! [`Admission`] front door. Each cell gets its own bounded intake queue —
//! its quota — registered as `cell<i>.fleet.intake.{depth,high_water,drops}`
//! so the PR 5 queue gauges expose congestion and shedding per cell, live.
//! What happens when a cell's quota is exhausted is the
//! [`AdmissionPolicy`]:
//!
//! * [`Block`](AdmissionPolicy::Block) — lossless: the feeder waits for the
//!   cell's shard to drain a slot. Deterministic end-to-end, the default.
//! * [`DropOldest`](AdmissionPolicy::DropOldest) — bounded staleness: the
//!   oldest queued frame is evicted (counted in `…intake.drops`) and handed
//!   back so the caller can keep any uplink session alive via
//!   [`HandoffBus::skip`](crate::handoff::HandoffBus::skip).
//! * [`Reject`](AdmissionPolicy::Reject) — bounded latency: the *new* frame
//!   bounces (counted in `…intake.rejected` and `fleet.rejected`).

use biscatter_runtime::queue::{Backpressure, BoundedQueue, TryPop, TryPushError};
use biscatter_runtime::source::CellJob;

use biscatter_obs::metrics::Counter;

/// What the fleet does with a frame whose destination cell is at quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Wait for the cell to drain (lossless).
    Block,
    /// Evict the cell's oldest queued frame to admit the new one.
    DropOldest,
    /// Refuse the new frame.
    Reject,
}

/// How one [`Admission::offer`] resolved.
#[derive(Debug)]
pub enum Admit {
    /// The frame is queued for its cell.
    Admitted,
    /// The frame is queued, at the cost of evicting `victim`
    /// ([`AdmissionPolicy::DropOldest`]).
    Evicted(CellJob),
    /// The frame was refused ([`AdmissionPolicy::Reject`]).
    Rejected(CellJob),
    /// The cell's intake was already closed (shutdown); the frame was
    /// discarded without counting as an admission drop or rejection.
    Shutdown,
}

/// The fleet's intake: one bounded queue per cell plus admission counters.
pub struct Admission {
    intakes: Vec<BoundedQueue<CellJob>>,
    policy: AdmissionPolicy,
    admitted: Counter,
    dropped: Counter,
    rejected: Counter,
    rejected_per_cell: Vec<Counter>,
}

impl Admission {
    /// Builds intakes for `n_cells` cells, `quota` frames each.
    pub fn new(n_cells: usize, quota: usize, policy: AdmissionPolicy) -> Self {
        let r = biscatter_obs::registry();
        let intakes = (0..n_cells)
            .map(|i| {
                BoundedQueue::named_at(quota, Backpressure::Block, &format!("cell{i}.fleet.intake"))
            })
            .collect();
        let rejected_per_cell = (0..n_cells)
            .map(|i| r.counter(&format!("cell{i}.fleet.intake.rejected")))
            .collect();
        Admission {
            intakes,
            policy,
            admitted: r.counter("fleet.admitted"),
            dropped: r.counter("fleet.dropped"),
            rejected: r.counter("fleet.rejected"),
            rejected_per_cell,
        }
    }

    /// Offers one frame to its destination cell's intake, applying the
    /// overload policy when the quota is exhausted.
    pub fn offer(&self, job: CellJob) -> Admit {
        let _span = biscatter_obs::span!("fleet.admit");
        let cell = job.cell;
        let intake = &self.intakes[cell];
        match self.policy {
            AdmissionPolicy::Block => {
                if intake.push(job) {
                    self.admitted.inc();
                    Admit::Admitted
                } else {
                    Admit::Shutdown
                }
            }
            AdmissionPolicy::DropOldest => match intake.push_evict(job) {
                Ok(None) => {
                    self.admitted.inc();
                    Admit::Admitted
                }
                Ok(Some(victim)) => {
                    self.admitted.inc();
                    self.dropped.inc();
                    Admit::Evicted(victim)
                }
                Err(_) => Admit::Shutdown,
            },
            AdmissionPolicy::Reject => match intake.try_push(job) {
                Ok(()) => {
                    self.admitted.inc();
                    Admit::Admitted
                }
                Err(TryPushError::Full(job)) => {
                    self.rejected.inc();
                    self.rejected_per_cell[cell].inc();
                    Admit::Rejected(job)
                }
                Err(TryPushError::Closed) => Admit::Shutdown,
            },
        }
    }

    /// Non-blocking take from cell `i`'s intake (the shard side).
    pub fn try_take(&self, cell: usize) -> TryPop<CellJob> {
        self.intakes[cell].try_pop()
    }

    /// Closes every intake: the feeder is done, shards drain what remains.
    pub fn close(&self) {
        for q in &self.intakes {
            q.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_runtime::source::{MobilitySpec, SessionHop};

    fn jobs() -> Vec<CellJob> {
        let sys = biscatter_runtime::source::streaming_system();
        MobilitySpec::two_cell(4, 2, 5).jobs(&sys)
    }

    #[test]
    fn reject_bounces_overflow_and_counts_per_cell() {
        let adm = Admission::new(2, 1, AdmissionPolicy::Reject);
        let mut js = jobs().into_iter().filter(|j| j.cell == 0);
        assert!(matches!(adm.offer(js.next().unwrap()), Admit::Admitted));
        let bounced = match adm.offer(js.next().unwrap()) {
            Admit::Rejected(j) => j,
            other => panic!("expected rejection, got {other:?}"),
        };
        assert_eq!(bounced.cell, 0);
        let snap = biscatter_obs::registry().snapshot();
        assert!(snap.counter("cell0.fleet.intake.rejected").unwrap() >= 1);
        assert_eq!(
            adm.intakes.iter().map(BoundedQueue::drops).sum::<u64>(),
            0,
            "rejection is not eviction"
        );
    }

    #[test]
    fn drop_oldest_returns_victim_with_its_hop() {
        let adm = Admission::new(2, 1, AdmissionPolicy::DropOldest);
        let cell0: Vec<CellJob> = jobs().into_iter().filter(|j| j.cell == 0).collect();
        let first_hop = cell0[0].hop;
        let mut it = cell0.into_iter();
        assert!(matches!(adm.offer(it.next().unwrap()), Admit::Admitted));
        match adm.offer(it.next().unwrap()) {
            Admit::Evicted(victim) => assert_eq!(victim.hop, first_hop),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(adm.intakes.iter().map(BoundedQueue::drops).sum::<u64>(), 1);
    }

    #[test]
    fn take_drains_then_reports_closed() {
        let adm = Admission::new(1, 4, AdmissionPolicy::Block);
        let sys = biscatter_runtime::source::streaming_system();
        let spec = MobilitySpec {
            n_cells: 1,
            mobile_tags: 1,
            n_ticks: 2,
            dwell_ticks: 1,
            base_seed: 3,
        };
        for j in spec.jobs(&sys) {
            adm.offer(j);
        }
        adm.close();
        let mut seqs = Vec::new();
        loop {
            match adm.try_take(0) {
                TryPop::Item(j) => seqs.push(j.hop.map(|h: SessionHop| h.seq)),
                TryPop::Empty => continue,
                TryPop::Closed => break,
            }
        }
        assert_eq!(seqs, vec![Some(0), Some(1)]);
    }
}

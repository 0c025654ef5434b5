//! The fleet scheduler: N radar cells multiplexed over S worker shards.
//!
//! Each [`Cell`] is a value — its own config and metric scope — and
//! shard `s` owns the cells with `cell % shards == s`. A shard is one thread
//! running a cooperative round-robin over its cells: non-blocking takes from
//! each cell's intake ([`BoundedQueue::try_pop`]), at most one *pending*
//! (sequence-gated) frame stashed per cell, and a short sleep only when a
//! full pass makes no progress. A single feeder thread pushes the workload
//! in tick order onto the cells' intakes: one [`BoundedQueue`] per cell,
//! holding `intake_quota` frames, whose [`AdmissionPolicy`] decides what a
//! full intake does and which counts each frame it sheds, once.
//!
//! ## Why this cannot deadlock
//!
//! A frame only ever *waits* on its uplink session's gate
//! ([`HandoffBus::ready`]), i.e. on a window with a strictly smaller
//! sequence number. The feeder admits tick-major, so that earlier window
//! was admitted before the waiting frame — it is already processed, queued
//! in some intake, stashed as some cell's pending frame, or recorded as
//! skipped when its intake shed it. Chains of gated frames therefore
//! descend in sequence and bottom out at a processable frame; a blocked
//! feeder can never be part of the cycle because shards drain intakes
//! independently of it. Progress is guaranteed; the sleep is purely a
//! CPU-politeness measure on no-progress passes.
//!
//! Determinism: under [`AdmissionPolicy::Block`] every frame is processed
//! exactly once, sessions append in sequence order, and each frame's
//! outcome is bit-identical to the one-shot path — so fleet results do not
//! depend on the shard count. Lossy policies shed load (which frames are
//! shed depends on drain timing), but sessions stay intact and ordered via
//! [`HandoffBus::skip`].
//!
//! A frame that panics is contained by its shard
//! ([`Cell::try_process`]): it is counted as failed, a roaming frame's
//! window is skipped like a shed one, and every other frame carries on.

use std::thread;
use std::time::{Duration, Instant};

use biscatter_compute::ComputePool;
use biscatter_core::isac::{warm_dsp_plans, IsacOutcome};
use biscatter_core::system::BiScatterSystem;
use biscatter_radar::receiver::uplink::chirps_per_bit;
use biscatter_runtime::pipeline::{Cell, RuntimeConfig};
use biscatter_runtime::queue::{BoundedQueue, Pushed, TryPop};
use biscatter_runtime::source::CellJob;

use crate::handoff::{HandoffBus, UplinkSession};
use crate::snapshot::FleetSnapshot;
use crate::AdmissionPolicy;

/// Fleet-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of radar cells.
    pub n_cells: usize,
    /// Worker shards the cells are distributed over.
    pub shards: usize,
    /// Per-cell intake quota (frames queued before the policy kicks in).
    pub intake_quota: usize,
    /// What a cell's intake does with a frame when the cell is at quota.
    pub admission: AdmissionPolicy,
    /// Per-cell runtime configuration (precision tier; the shard path
    /// processes frames inline, so the streaming intake and `workers` are
    /// not used here).
    pub cell: RuntimeConfig,
    /// Threads in each shard's intra-frame compute pool.
    pub intra_frame_threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_cells: 4,
            shards: 2,
            intake_quota: 8,
            admission: AdmissionPolicy::Block,
            cell: RuntimeConfig::default(),
            intra_frame_threads: 1,
        }
    }
}

/// Everything a fleet run produced.
pub struct FleetReport {
    /// Per-cell `(frame id, outcome)` pairs, sorted by frame id.
    pub outcomes: Vec<Vec<(u64, IsacOutcome)>>,
    /// Every uplink session, ordered by tag — identity, owner history, and
    /// accumulated bits surviving all handoffs.
    pub sessions: Vec<UplinkSession>,
    /// The merged fleet-wide metric snapshot.
    pub snapshot: FleetSnapshot,
    /// Frames the cells' intakes evicted under drop-oldest admission during
    /// this run.
    pub admission_drops: u64,
    /// Frames the cells' intakes refused under reject admission during this
    /// run.
    pub admission_rejects: u64,
    /// Frames whose processing panicked during this run; completed +
    /// dropped + rejected + failed = offered.
    pub frames_failed: u64,
    /// Cross-cell session handoffs during this run.
    pub handoffs: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl FleetReport {
    /// Frames processed across all cells.
    pub fn frames_completed(&self) -> u64 {
        self.outcomes.iter().map(|v| v.len() as u64).sum()
    }
}

/// A fleet of radar cells ready to run workloads. Cells (and their metric
/// scopes) persist across [`run`](Fleet::run) calls. A frame's buffers
/// belong to the shard thread that runs it: one set per shard, sized by
/// the shard's first frame of a run and shared by all of its cells.
pub struct Fleet {
    sys: BiScatterSystem,
    cfg: FleetConfig,
    cells: Vec<Cell>,
}

impl Fleet {
    /// Builds `cfg.n_cells` cells over `sys`, scoped `cell0.` .. `cellN-1.`.
    /// Every cell inherits `cfg.cell` — including its numeric
    /// [`precision`](RuntimeConfig::precision) tier; use
    /// [`Fleet::with_cell_tiers`] to mix tiers across cells.
    pub fn new(sys: BiScatterSystem, cfg: FleetConfig) -> Self {
        Self::build(sys, cfg, |_| None)
    }

    /// [`Fleet::new`] with a per-cell precision override: cell `i` runs on
    /// `tiers[i]` where given, falling back to `cfg.cell.precision` past the
    /// end of the slice. Lets a fleet keep latency-critical cells on the f32
    /// fast tier while reference cells stay on the f64 oracle.
    pub fn with_cell_tiers(
        sys: BiScatterSystem,
        cfg: FleetConfig,
        tiers: &[biscatter_runtime::PrecisionTier],
    ) -> Self {
        Self::build(sys, cfg, |i| tiers.get(i).copied())
    }

    fn build(
        sys: BiScatterSystem,
        cfg: FleetConfig,
        tier_for: impl Fn(usize) -> Option<biscatter_runtime::PrecisionTier>,
    ) -> Self {
        assert!(cfg.n_cells > 0, "fleet needs at least one cell");
        assert!(cfg.shards > 0, "fleet needs at least one shard");
        let cells = (0..cfg.n_cells)
            .map(|i| {
                let mut cell_cfg = cfg.cell;
                if let Some(t) = tier_for(i) {
                    cell_cfg.precision = t;
                }
                Cell::fed_by_fleet(i, sys.clone(), cell_cfg)
            })
            .collect();
        Fleet { sys, cfg, cells }
    }

    /// The fleet's cells, index == cell id.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Streams `jobs` through the fleet: a feeder thread pushes them in
    /// order onto their cells' intakes, shard threads process them per cell,
    /// and the handoff bus threads mobile-tag sessions across cells. A frame
    /// an intake evicts or refuses is counted there, and its session window
    /// skipped. Returns when every admitted frame is processed.
    ///
    /// Spans are recorded when the process has switched tracing on
    /// ([`biscatter_obs::trace::set_enabled`]); writing the trace out is the
    /// caller's job (`examples/fleet.rs` does it once, after its last run
    /// and before its checks replay the frames, with that run's fleet
    /// snapshot embedded).
    pub fn run(&self, jobs: Vec<CellJob>) -> FleetReport {
        let n_cells = self.cfg.n_cells;
        let shards = self.cfg.shards;
        let intakes = intakes(&self.cfg);
        let bus = HandoffBus::default();
        let admitted = biscatter_obs::registry().counter("fleet.admitted");

        let t0 = Instant::now();
        let intakes = &intakes[..];
        let bus = &bus;
        let sys = &self.sys;
        let cells = &self.cells;
        let intra_threads = self.cfg.intra_frame_threads;

        let (mut outcomes, failed) = thread::scope(|scope| {
            scope.spawn(move || {
                for job in jobs {
                    let _span = biscatter_obs::span!("fleet.admit");
                    let shed = match intakes[job.cell].push(job) {
                        Pushed::Queued => {
                            admitted.inc();
                            None
                        }
                        Pushed::Evicted(victim) => {
                            admitted.inc();
                            Some(victim)
                        }
                        Pushed::Refused(job) => Some(job),
                        Pushed::Closed(_) => break,
                    };
                    // The gate must not wait for a window that cannot arrive.
                    if let Some(h) = shed.and_then(|j| j.hop) {
                        bus.skip(h.tag, h.seq);
                    }
                }
                intakes.iter().for_each(BoundedQueue::close);
            });

            let shard_handles: Vec<_> = (0..shards)
                .map(|s| {
                    scope.spawn(move || {
                        run_shard(s, shards, sys, cells, intakes, bus, intra_threads)
                    })
                })
                .collect();

            let mut per_cell: Vec<Vec<(u64, IsacOutcome)>> =
                (0..n_cells).map(|_| Vec::new()).collect();
            let mut failed = 0;
            for h in shard_handles {
                for slot in h.join().expect("shards contain frame panics") {
                    failed += slot.failed;
                    per_cell[slot.cell.id()] = slot.outcomes;
                }
            }
            (per_cell, failed)
        });
        for v in &mut outcomes {
            v.sort_by_key(|&(id, _)| id);
        }
        let elapsed = t0.elapsed();

        let snapshot = FleetSnapshot::collect(n_cells);
        FleetReport {
            outcomes,
            sessions: bus.sessions(),
            snapshot,
            admission_drops: intakes.iter().map(BoundedQueue::drops).sum(),
            admission_rejects: intakes.iter().map(BoundedQueue::rejected).sum(),
            frames_failed: failed,
            handoffs: bus.handoffs(),
            elapsed,
        }
    }
}

/// One intake per cell, `cfg.intake_quota` frames deep, applying
/// `cfg.admission` and registered as `cell<i>.fleet.intake.*`.
fn intakes(cfg: &FleetConfig) -> Vec<BoundedQueue<CellJob>> {
    (0..cfg.n_cells)
        .map(|i| {
            BoundedQueue::named_at(
                cfg.intake_quota,
                cfg.admission,
                &format!("cell{i}.fleet.intake"),
            )
        })
        .collect()
}

/// Per-cell scheduler state inside a shard.
struct CellSlot<'a> {
    cell: &'a Cell,
    /// A dequeued frame waiting on its session gate (at most one — while it
    /// waits, the cell's intake is not popped, preserving FIFO).
    pending: Option<CellJob>,
    intake_closed: bool,
    outcomes: Vec<(u64, IsacOutcome)>,
    /// Frames that panicked.
    failed: u64,
}

/// One shard: cooperative round-robin over the cells it owns. Returns the
/// slots with their outcomes.
fn run_shard<'a>(
    shard: usize,
    shards: usize,
    sys: &BiScatterSystem,
    cells: &'a [Cell],
    intakes: &[BoundedQueue<CellJob>],
    bus: &HandoffBus,
    intra_threads: usize,
) -> Vec<CellSlot<'a>> {
    let _span = biscatter_obs::span!("fleet.shard");
    let mut slots: Vec<CellSlot> = cells
        .iter()
        .enumerate()
        .filter(|(i, _)| i % shards == shard)
        .map(|(_, cell)| CellSlot {
            cell,
            pending: None,
            intake_closed: false,
            outcomes: Vec::new(),
            failed: 0,
        })
        .collect();
    if slots.is_empty() {
        return Vec::new();
    }
    let warm_sys = sys.clone();
    let pool = ComputePool::with_init(intra_threads, move || warm_dsp_plans(&warm_sys));
    warm_dsp_plans(sys);

    loop {
        let mut progress = false;
        let mut all_done = true;
        for slot in &mut slots {
            if slot.intake_closed && slot.pending.is_none() {
                continue;
            }
            all_done = false;
            // The stashed frame first: its gate may have opened since the
            // last pass.
            if let Some(cj) = slot.pending.take() {
                if session_ready(bus, &cj) {
                    process(slot, sys, &pool, bus, cj);
                    progress = true;
                } else {
                    slot.pending = Some(cj);
                    continue; // FIFO: don't pop the intake past a gated head
                }
            }
            match intakes[slot.cell.id()].try_pop() {
                TryPop::Item(cj) => {
                    progress = true;
                    if session_ready(bus, &cj) {
                        process(slot, sys, &pool, bus, cj);
                    } else {
                        slot.pending = Some(cj);
                    }
                }
                TryPop::Empty => {}
                TryPop::Closed => slot.intake_closed = true,
            }
        }
        if all_done {
            break;
        }
        if !progress {
            // Waiting on another shard's append (or the feeder); stay off
            // the lock-free hot paths while we wait.
            thread::sleep(Duration::from_micros(100));
        }
    }
    slots
}

/// True when `cj` can be processed now (stationary frame, or its session
/// window is the next accepted).
fn session_ready(bus: &HandoffBus, cj: &CellJob) -> bool {
    cj.hop.map_or(true, |h| bus.ready(h.tag, h.seq))
}

/// Runs one frame on its cell and, for mobile frames, appends the decoded
/// window to the tag's uplink session. A frame that panics is counted, and
/// its window skipped so the session gate keeps advancing.
fn process(
    slot: &mut CellSlot,
    sys: &BiScatterSystem,
    pool: &ComputePool,
    bus: &HandoffBus,
    cj: CellJob,
) {
    let _span = biscatter_obs::span!("fleet.process");
    let Some(outcome) = slot.cell.try_process(pool, &cj.job, Instant::now()) else {
        slot.failed += 1;
        if let Some(hop) = cj.hop {
            bus.skip(hop.tag, hop.seq);
        }
        return;
    };
    if let Some(hop) = cj.hop {
        let cpb = chirps_per_bit(cj.job.scenario.uplink_bit_duration_s, sys.radar.t_period);
        let bits = outcome.uplink_bits.clone().unwrap_or_default();
        bus.append(hop.tag, hop.seq, slot.cell.id(), cpb, &bits);
    }
    slot.outcomes.push((cj.job.id, outcome));
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_runtime::source::{streaming_system, MobilitySpec, SessionHop};

    fn cell0_jobs() -> Vec<CellJob> {
        let sys = streaming_system();
        let jobs = MobilitySpec::two_cell(4, 2, 5).jobs(&sys);
        jobs.into_iter().filter(|j| j.cell == 0).collect()
    }

    fn cfg(quota: usize, admission: AdmissionPolicy) -> FleetConfig {
        FleetConfig {
            n_cells: 2,
            intake_quota: quota,
            admission,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn reject_bounces_overflow_and_counts_per_cell() {
        let q = intakes(&cfg(1, AdmissionPolicy::Reject));
        let before = biscatter_obs::registry()
            .counter("cell0.fleet.intake.rejected")
            .get();
        let mut js = cell0_jobs().into_iter();
        assert!(matches!(q[0].push(js.next().unwrap()), Pushed::Queued));
        let bounced = match q[0].push(js.next().unwrap()) {
            Pushed::Refused(j) => j,
            other => panic!("expected a refusal, got {other:?}"),
        };
        assert_eq!(bounced.cell, 0);
        assert_eq!(q[0].rejected(), 1);
        let after = biscatter_obs::registry()
            .counter("cell0.fleet.intake.rejected")
            .get();
        assert!(after > before, "the refusal reaches cell 0's counter");
        assert_eq!(
            q.iter().map(BoundedQueue::drops).sum::<u64>(),
            0,
            "rejection is not eviction"
        );
    }

    #[test]
    fn drop_oldest_returns_victim_with_its_hop() {
        let q = intakes(&cfg(1, AdmissionPolicy::DropOldest));
        let cell0 = cell0_jobs();
        let first_hop = cell0[0].hop;
        let mut it = cell0.into_iter();
        assert!(matches!(q[0].push(it.next().unwrap()), Pushed::Queued));
        match q[0].push(it.next().unwrap()) {
            Pushed::Evicted(victim) => assert_eq!(victim.hop, first_hop),
            other => panic!("expected an eviction, got {other:?}"),
        }
        assert_eq!(q.iter().map(BoundedQueue::drops).sum::<u64>(), 1);
        assert_eq!(q.iter().map(BoundedQueue::rejected).sum::<u64>(), 0);
    }

    #[test]
    fn take_drains_then_reports_closed() {
        let q = intakes(&FleetConfig {
            n_cells: 1,
            intake_quota: 4,
            ..FleetConfig::default()
        });
        let sys = streaming_system();
        let spec = MobilitySpec {
            n_cells: 1,
            mobile_tags: 1,
            n_ticks: 2,
            dwell_ticks: 1,
            base_seed: 3,
        };
        for j in spec.jobs(&sys) {
            assert!(matches!(q[0].push(j), Pushed::Queued));
        }
        q[0].close();
        let mut seqs = Vec::new();
        loop {
            match q[0].try_pop() {
                TryPop::Item(j) => seqs.push(j.hop.map(|h: SessionHop| h.seq)),
                TryPop::Empty => continue,
                TryPop::Closed => break,
            }
        }
        assert_eq!(seqs, vec![Some(0), Some(1)]);
    }
}

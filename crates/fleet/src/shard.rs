//! The fleet scheduler: N radar cells multiplexed over S worker shards.
//!
//! Each [`Cell`] is a value — its own arena, config, and metric scope — and
//! shard `s` owns the cells with `cell % shards == s`. A shard is one thread
//! running a cooperative round-robin over its cells: non-blocking intake
//! takes ([`Admission::try_take`]), at most one *pending* (sequence-gated)
//! frame stashed per cell, and a short sleep only when a full pass makes no
//! progress. A single feeder thread admits the workload in tick order
//! through the [`Admission`] front door.
//!
//! ## Why this cannot deadlock
//!
//! A frame only ever *waits* on its uplink session's gate
//! ([`HandoffBus::ready`]), i.e. on a window with a strictly smaller
//! sequence number. The feeder admits tick-major, so that earlier window
//! was admitted before the waiting frame — it is already processed, queued
//! in some intake, stashed as some cell's pending frame, or recorded as
//! skipped by lossy admission. Chains of gated frames therefore descend in
//! sequence and bottom out at a processable frame; a blocked feeder can
//! never be part of the cycle because shards drain intakes independently
//! of it. Progress is guaranteed; the sleep is purely a CPU-politeness
//! measure on no-progress passes.
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
use biscatter_runtime::queue::TryPop;
use biscatter_runtime::source::CellJob;

use biscatter_obs::trace;

use crate::admission::{Admission, AdmissionPolicy, Admit};
use crate::handoff::{HandoffBus, UplinkSession};
use crate::snapshot::FleetSnapshot;

/// Fleet-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of radar cells.
    pub n_cells: usize,
    /// Worker shards the cells are distributed over.
    pub shards: usize,
    /// Per-cell intake quota (frames queued before the policy kicks in).
    pub intake_quota: usize,
    /// What admission does when a cell is at quota.
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
    /// Frames evicted by drop-oldest admission during this run.
    pub admission_drops: u64,
    /// Frames refused by reject admission during this run.
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

/// A fleet of radar cells ready to run workloads. Cells (and their arenas
/// and metric scopes) persist across [`run`](Fleet::run) calls, so repeated
/// runs stay warm.
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
                Cell::new(i, sys.clone(), cell_cfg)
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

    /// Streams `jobs` through the fleet: a feeder thread admits them in
    /// order, shard threads process them per cell, and the handoff bus
    /// threads mobile-tag sessions across cells. Returns when every
    /// admitted frame is processed.
    ///
    /// Set `BISCATTER_TRACE=<path>` to dump a Perfetto trace (fleet,
    /// runtime, ISAC, DSP, and compute spans plus the registry snapshot)
    /// at the end of the run; the dump is re-entrant across runs and cells.
    pub fn run(&self, jobs: Vec<CellJob>) -> FleetReport {
        let n_cells = self.cfg.n_cells;
        let shards = self.cfg.shards;
        let admission = Admission::new(n_cells, self.cfg.intake_quota, self.cfg.admission);
        let bus = HandoffBus::default();

        let trace_path = std::env::var("BISCATTER_TRACE").ok();
        if trace_path.is_some() {
            trace::set_enabled(true);
        }
        // `BISCATTER_METRICS_ADDR=<host:port>` starts the live scrape
        // server: `/metrics`, `/health`, `/frames`, `/trace` stay up for
        // the rest of the process. Idempotent — only the first call binds.
        biscatter_obs::serve::spawn_from_env();

        let t0 = Instant::now();
        let admission = &admission;
        let bus = &bus;
        let sys = &self.sys;
        let cells = &self.cells;
        let intra_threads = self.cfg.intra_frame_threads;

        let (mut outcomes, drops, rejects, failed) = thread::scope(|scope| {
            let feeder = scope.spawn(move || {
                let mut drops = 0u64;
                let mut rejects = 0u64;
                for job in jobs {
                    match admission.offer(job) {
                        Admit::Admitted => {}
                        Admit::Evicted(victim) => {
                            drops += 1;
                            if let Some(h) = victim.hop {
                                bus.skip(h.tag, h.seq);
                            }
                        }
                        Admit::Rejected(refused) => {
                            rejects += 1;
                            if let Some(h) = refused.hop {
                                bus.skip(h.tag, h.seq);
                            }
                        }
                        Admit::Shutdown => break,
                    }
                }
                admission.close();
                (drops, rejects)
            });

            let shard_handles: Vec<_> = (0..shards)
                .map(|s| {
                    scope.spawn(move || {
                        run_shard(s, shards, sys, cells, admission, bus, intra_threads)
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
            let (drops, rejects) = feeder.join().expect("feeder thread panicked");
            (per_cell, drops, rejects, failed)
        });
        for v in &mut outcomes {
            v.sort_by_key(|&(id, _)| id);
        }
        let elapsed = t0.elapsed();

        let snapshot = FleetSnapshot::collect(n_cells);
        if let Some(path) = trace_path {
            dump_trace(&path, &snapshot);
        }
        FleetReport {
            outcomes,
            sessions: bus.sessions(),
            snapshot,
            admission_drops: drops,
            admission_rejects: rejects,
            frames_failed: failed,
            handoffs: bus.handoffs(),
            elapsed,
        }
    }
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
    admission: &Admission,
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
            match admission.try_take(slot.cell.id()) {
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

/// Re-entrant Perfetto dump (shared accumulator — see
/// [`trace::export_accumulated`]) with the registry embedded under
/// `"registry"` and the fleet aggregation under `"fleet"`.
fn dump_trace(path: &str, snapshot: &FleetSnapshot) {
    let extra = [
        (
            "registry".to_string(),
            biscatter_obs::registry().snapshot().to_json(),
        ),
        ("fleet".to_string(), snapshot.to_json()),
    ];
    match trace::export_accumulated(path, extra) {
        Ok(summary) => eprintln!(
            "BISCATTER_TRACE: wrote {} spans from {} threads to {path}",
            summary.spans, summary.threads,
        ),
        Err(err) => eprintln!("BISCATTER_TRACE: failed to write {path}: {err}"),
    }
}

//! The five workloads: how each is built from `--seed`, driven in a closed
//! loop through the program's public entry points, and checked.
//!
//! Every workload feeds its jobs from one thread and waits for each call to
//! return before the next (the pipeline's and the fleet's own feeder threads
//! block on full queues), so a slower program receives less load.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use biscatter_core::isac::{ColdStartOutcome, IsacOutcome};
use biscatter_core::obs::recorder::{self, FrameRecord};
use biscatter_core::system::BiScatterSystem;
use biscatter_fleet::{AdmissionPolicy, Fleet, FleetConfig};
use biscatter_runtime::compute::ComputePool;
use biscatter_runtime::source::{cold_start_jobs, multi_tag_jobs};
use biscatter_runtime::{
    streaming_system, Cell, CellJob, FrameJob, MobilitySpec, PrecisionTier, RuntimeConfig,
    WorkloadSpec,
};

use crate::alloc::{self, Allocs};
use crate::check::Quality;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CellStream,
    WarehouseK24,
    ColdStart,
    PipelineStream,
    FleetMobility,
}

pub const ALL: [Workload; 5] = [
    Workload::CellStream,
    Workload::WarehouseK24,
    Workload::ColdStart,
    Workload::PipelineStream,
    Workload::FleetMobility,
];

/// The workloads `BENCHMARK.json` declares and a run without `--workload`
/// measures: the single-threaded ones, whose timings hold steady on a shared
/// 2-core host. `pipeline_stream` and `fleet_mobility` keep both cores busy,
/// so load from elsewhere on the host moves their timings more than a
/// regression bound can absorb; they run when named.
pub const DEFAULT: [Workload; 3] = [
    Workload::CellStream,
    Workload::WarehouseK24,
    Workload::ColdStart,
];

const WAREHOUSE_TAGS: usize = 24;
const FLEET_CELLS: usize = 16;
pub(crate) const FLEET_SHARDS: usize = 2;
const FLEET_MOBILE_TAGS: usize = 8;
const FLEET_DWELL_TICKS: usize = 3;
const FLEET_TICKS: usize = 9;
/// Frames each cell runs during set-up before anything is measured: the
/// first fills the cell's arena, the second runs warm.
const WARMUP_FRAMES: usize = 2;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::CellStream => "cell_stream",
            Workload::WarehouseK24 => "warehouse_k24",
            Workload::ColdStart => "cold_start",
            Workload::PipelineStream => "pipeline_stream",
            Workload::FleetMobility => "fleet_mobility",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// Frames in one round's job list: about two seconds of work on a
    /// 2-core host for the [`DEFAULT`] workloads (one and a half for the
    /// others), run [`Workload::sweeps`] times per set. Each round of a set
    /// draws its own jobs (see [`round_seed`]), so a set of five rounds holds
    /// enough distinct jobs that the quality ratios and the per-frame work
    /// vary little from seed to seed, and at least 100 frames for the tail.
    /// `cold_start` keeps whole cycles of seven dwells. A round's flight
    /// records fit the recorder's default ring of 1024 per cell.
    pub fn frames_per_round(self) -> usize {
        match self {
            Workload::CellStream => 140,
            Workload::WarehouseK24 => 20,
            Workload::ColdStart => 154,
            Workload::PipelineStream => 96,
            Workload::FleetMobility => FLEET_CELLS * FLEET_TICKS,
        }
    }

    /// How many times a set runs each round's jobs, one sweep over the
    /// rounds at a time; a frame's time is its best run. The fleet keeps
    /// both cores busy, so load from elsewhere on the host reaches it more
    /// often, and it gets a third run.
    pub fn sweeps(self) -> usize {
        match self {
            Workload::FleetMobility => 3,
            _ => 2,
        }
    }

    /// Whether frames run one at a time on the calling thread, so a frame's
    /// latency is also the time the program was busy with it.
    pub fn inline(self) -> bool {
        !matches!(self, Workload::PipelineStream | Workload::FleetMobility)
    }

    /// Flight-recorder cell id of a single-cell workload. The recorder table
    /// is process-global, so each workload keeps its own ids (the fleet
    /// uses 0..16).
    fn cell_id(self) -> usize {
        100 + ALL.iter().position(|&w| w == self).expect("listed")
    }
}

/// The base seed of round `round`'s jobs in a set run with `seed`. Round 0
/// uses `seed` itself; the job generators mix the base seed through
/// splitmix, so every round draws unrelated jobs. Both commits of a
/// comparison run the same jobs in the same round.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    seed ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Frames lost on the way, by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    pub missing: u64,
    pub duplicated: u64,
    pub dropped: u64,
    pub rejected: u64,
    pub panicked: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.missing + self.duplicated + self.dropped + self.rejected + self.panicked
    }

    fn add(&mut self, f: Failures) {
        self.missing += f.missing;
        self.duplicated += f.duplicated;
        self.dropped += f.dropped;
        self.rejected += f.rejected;
        self.panicked += f.panicked;
    }
}

/// Everything a slice accumulates.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub completed: u64,
    pub failures: Failures,
    /// Time spent inside the program's calls, s.
    pub busy_s: f64,
    pub latency_ms: Vec<f64>,
    /// [`frame_key`] of each `latency_ms` entry, so two runs of the same
    /// jobs can be matched frame by frame.
    pub frame_keys: Vec<u64>,
    pub allocs: Allocs,
    pub quality: Quality,
    /// Flight records of the measured frames.
    pub records: Vec<FrameRecord>,
    pub handoffs: u64,
}

/// Matches the frame keys a batch returned against the ones it was given.
/// Returns the number delivered once and the losses: absent frames are
/// charged to the drops and rejections the runtime reported first, and the
/// rest are missing.
pub fn account(expected: &[u64], got: &[u64], dropped: u64, rejected: u64) -> (u64, Failures) {
    let mut got = got.to_vec();
    got.sort_unstable();
    let unique = {
        let mut u = got.clone();
        u.dedup();
        u
    };
    let delivered = expected
        .iter()
        .filter(|k| unique.binary_search(k).is_ok())
        .count() as u64;
    let absent = expected.len() as u64 - delivered;
    let explained = (dropped + rejected).min(absent);
    let failures = Failures {
        missing: absent - explained,
        duplicated: (got.len() - unique.len()) as u64,
        dropped,
        rejected,
        panicked: 0,
    };
    (delivered, failures)
}

/// Names a frame within a round: its cell and its job id (job ids repeat
/// across the fleet's cells). Exact as a JSON number.
pub fn frame_key(cell: usize, id: u64) -> u64 {
    (cell as u64) << 32 | id
}

fn records_since(cells: impl IntoIterator<Item = usize>, since_ns: u64) -> Vec<FrameRecord> {
    cells
        .into_iter()
        .flat_map(|id| recorder::for_cell(id as u32).snapshot())
        .filter(|r| r.t_ns >= since_ns)
        .collect()
}

/// What one inline frame returns.
#[derive(Debug, PartialEq)]
pub(crate) enum Outcome {
    Warm(IsacOutcome),
    Cold(ColdStartOutcome),
}

pub(crate) enum Drive {
    /// `Cell::process` (or `process_cold_start`) on the calling thread.
    Inline { cell: Cell, jobs: Vec<FrameJob> },
    /// `Cell::run_streaming`: five stage threads joined by queues.
    Pipeline { cell: Cell, jobs: Vec<FrameJob> },
    /// `Fleet::run`: a feeder thread, admission, and shard threads.
    Fleet {
        fleet: Fleet,
        spec: MobilitySpec,
        jobs: Vec<CellJob>,
    },
}

/// A workload after set-up: system, jobs, warm cells.
pub struct Bench {
    pub workload: Workload,
    pub(crate) sys: BiScatterSystem,
    /// The single-thread intra-frame pool the inline calls and the replay
    /// use — the runtime's default.
    pub(crate) pool: ComputePool,
    pub(crate) drive: Drive,
}

impl Bench {
    /// Builds the workload's system, `frames` jobs from `seed` (the fleet
    /// takes its first `frames` cell jobs), and its cells, then runs the
    /// warm-up frames. Everything here is the set-up time.
    pub fn prepare(workload: Workload, seed: u64, frames: usize) -> Bench {
        let pool = ComputePool::new(1);
        // The single-cell workloads: one cell, inline or streamed.
        let single = |sys: BiScatterSystem, jobs: Vec<FrameJob>| {
            let cell = Cell::new(workload.cell_id(), sys.clone(), RuntimeConfig::default());
            let drive = if workload == Workload::PipelineStream {
                Drive::Pipeline { cell, jobs }
            } else {
                Drive::Inline { cell, jobs }
            };
            (sys, drive)
        };
        let (sys, drive) = match workload {
            Workload::CellStream | Workload::PipelineStream => {
                let sys = streaming_system();
                let jobs = WorkloadSpec::four_by_eight(frames, seed).jobs(&sys);
                single(sys, jobs)
            }
            Workload::WarehouseK24 => {
                let sys = BiScatterSystem::paper_9ghz();
                let jobs = multi_tag_jobs(&sys, frames, WAREHOUSE_TAGS, seed);
                single(sys, jobs)
            }
            Workload::ColdStart => {
                let sys = streaming_system();
                let jobs = cold_start_jobs(&sys, frames, seed);
                single(sys, jobs)
            }
            Workload::FleetMobility => {
                let sys = streaming_system();
                let spec = MobilitySpec {
                    n_cells: FLEET_CELLS,
                    mobile_tags: FLEET_MOBILE_TAGS,
                    n_ticks: FLEET_TICKS,
                    dwell_ticks: FLEET_DWELL_TICKS,
                    base_seed: seed,
                };
                let mut jobs = spec.jobs(&sys);
                jobs.truncate(frames);
                // Even cells run the f64 oracle, odd cells the f32 tier.
                let tiers: Vec<PrecisionTier> = (0..FLEET_CELLS)
                    .map(|i| {
                        if i % 2 == 0 {
                            PrecisionTier::F64
                        } else {
                            PrecisionTier::F32
                        }
                    })
                    .collect();
                let cfg = FleetConfig {
                    n_cells: FLEET_CELLS,
                    shards: FLEET_SHARDS,
                    intake_quota: 8,
                    admission: AdmissionPolicy::Block,
                    cell: RuntimeConfig::default(),
                    intra_frame_threads: 1,
                };
                let fleet = Fleet::with_cell_tiers(sys.clone(), cfg, &tiers);
                (sys, Drive::Fleet { fleet, spec, jobs })
            }
        };
        let bench = Bench {
            workload,
            sys,
            pool,
            drive,
        };
        bench.warm_up();
        bench
    }

    fn warm_up(&self) {
        match &self.drive {
            Drive::Inline { cell, jobs } => {
                biscatter_core::isac::warm_dsp_plans(&self.sys);
                if self.workload == Workload::ColdStart {
                    biscatter_core::isac::warm_acquire_plans(&self.sys);
                }
                for job in jobs.iter().cycle().take(WARMUP_FRAMES) {
                    self.process(cell, job);
                }
            }
            Drive::Pipeline { cell, jobs } => {
                let warm = jobs.iter().cycle().take(WARMUP_FRAMES).cloned().collect();
                cell.run_streaming(warm);
            }
            Drive::Fleet { fleet, spec, .. } => {
                let warm = MobilitySpec {
                    n_ticks: WARMUP_FRAMES,
                    ..*spec
                };
                fleet.run(warm.jobs(&self.sys));
            }
        }
    }

    /// Ids of the cells whose flight records belong to this workload.
    pub fn cell_ids(&self) -> Vec<usize> {
        match &self.drive {
            Drive::Inline { cell, .. } | Drive::Pipeline { cell, .. } => vec![cell.id()],
            Drive::Fleet { fleet, .. } => fleet.cells().iter().map(Cell::id).collect(),
        }
    }

    pub fn cell_tier(&self, id: usize) -> PrecisionTier {
        match &self.drive {
            Drive::Inline { cell, .. } | Drive::Pipeline { cell, .. } => cell.config().precision,
            Drive::Fleet { fleet, .. } => fleet
                .cells()
                .get(id)
                .map_or(PrecisionTier::F64, |c| c.config().precision),
        }
    }

    /// Measures one slice into `tally`: one pass over the job list, so a
    /// slice does the same work on every commit and its quality ratios
    /// depend only on the seed.
    pub fn run(&self, tally: &mut Tally) {
        match &self.drive {
            Drive::Inline { cell, jobs } => {
                let since = recorder::now_ns();
                for job in jobs {
                    self.inline_frame(cell, job, tally);
                }
                tally.records.extend(records_since([cell.id()], since));
            }
            Drive::Pipeline { .. } | Drive::Fleet { .. } => self.batch(tally),
        }
    }

    /// One frame through `cell` on the calling thread, the way the
    /// workload drives it.
    pub(crate) fn process(&self, cell: &Cell, job: &FrameJob) -> Outcome {
        if self.workload == Workload::ColdStart {
            Outcome::Cold(cell.process_cold_start(&self.pool, job))
        } else {
            Outcome::Warm(cell.process(&self.pool, job))
        }
    }

    fn inline_frame(&self, cell: &Cell, job: &FrameJob, tally: &mut Tally) {
        tally.attempted += 1;
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| self.process(cell, job)));
        let took = t0.elapsed();
        let allocs = alloc::snapshot().since(a0);
        let Ok(out) = out else {
            tally.failures.panicked += 1;
            return;
        };
        tally.completed += 1;
        tally.busy_s += took.as_secs_f64();
        tally.latency_ms.push(took.as_secs_f64() * 1e3);
        tally.frame_keys.push(frame_key(cell.id(), job.id));
        tally.allocs.add(allocs);
        match out {
            Outcome::Warm(o) => tally.quality.frame(&job.scenario, &job.payload, &o, true),
            Outcome::Cold(o) => tally.quality.cold_start(&job.scenario, &job.payload, &o),
        }
    }

    /// The pass of a threaded workload. Latency comes from the flight
    /// recorder: job creation to sink on the pipeline, per-frame service
    /// time on the fleet's shards.
    fn batch(&self, tally: &mut Tally) {
        match &self.drive {
            Drive::Pipeline { cell, jobs } => {
                let Some(report) = self.timed_batch(tally, jobs.clone(), |j| cell.run_streaming(j))
                else {
                    return;
                };
                let expected: Vec<u64> = jobs.iter().map(|j| j.id).collect();
                let got: Vec<u64> = report.outcomes.iter().map(|(id, _)| *id).collect();
                let (delivered, f) = account(&expected, &got, report.metrics.total_drops, 0);
                tally.completed += delivered;
                tally.failures.add(f);
                for (id, outcome) in &report.outcomes {
                    if let Some(job) = jobs.iter().find(|j| j.id == *id) {
                        tally
                            .quality
                            .frame(&job.scenario, &job.payload, outcome, true);
                    }
                }
            }
            Drive::Fleet { fleet, spec, jobs } => {
                let Some(report) = self.timed_batch(tally, jobs.clone(), |j| fleet.run(j)) else {
                    return;
                };
                // A frame is keyed by (id, cell): delivered to the wrong
                // cell counts as missing.
                let key = |id: u64, cell: usize| id * FLEET_CELLS as u64 + cell as u64;
                let expected: Vec<u64> = jobs.iter().map(|cj| key(cj.job.id, cj.cell)).collect();
                let got: Vec<u64> = report
                    .outcomes
                    .iter()
                    .enumerate()
                    .flat_map(|(cell, outs)| outs.iter().map(move |(id, _)| key(*id, cell)))
                    .collect();
                let (delivered, f) = account(
                    &expected,
                    &got,
                    report.admission_drops,
                    report.admission_rejects,
                );
                tally.completed += delivered;
                tally.failures.add(f);
                tally.handoffs += report.handoffs;
                for cj in jobs {
                    let out = report.outcomes[cj.cell]
                        .iter()
                        .find(|(id, _)| *id == cj.job.id);
                    if let Some((_, outcome)) = out {
                        tally
                            .quality
                            .frame(&cj.job.scenario, &cj.job.payload, outcome, false);
                    }
                }
                // Uplink bits are checked on the reassembled sessions: each
                // roaming tag's windows, in order, against what it sent.
                for tag in 0..spec.mobile_tags {
                    let sent: Vec<bool> = jobs
                        .iter()
                        .filter_map(|cj| cj.hop.filter(|h| h.tag == tag))
                        .flat_map(|h| spec.tx_bits(&self.sys, tag, h.seq))
                        .collect();
                    if sent.is_empty() {
                        continue;
                    }
                    let session = report.sessions.iter().find(|s| s.tag == tag);
                    tally
                        .quality
                        .bits(&sent, session.map_or(&[][..], |s| &s.bits[..]));
                }
            }
            Drive::Inline { .. } => unreachable!("inline workloads run frame by frame"),
        }
    }

    /// Runs one batch call on `input` (built before the allocation window
    /// opens) and books its time, allocations and flight records. `None`
    /// when the call panicked: every frame of the batch is then lost.
    fn timed_batch<I, R>(
        &self,
        tally: &mut Tally,
        input: Vec<I>,
        run: impl FnOnce(Vec<I>) -> R,
    ) -> Option<R> {
        let n = input.len() as u64;
        let since = recorder::now_ns();
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| run(input)));
        let took = t0.elapsed();
        let allocs = alloc::snapshot().since(a0);
        tally.attempted += n;
        let Ok(result) = result else {
            tally.failures.panicked += n;
            return None;
        };
        tally.busy_s += took.as_secs_f64();
        tally.allocs.add(allocs);
        let records = records_since(self.cell_ids(), since);
        tally
            .latency_ms
            .extend(records.iter().map(|r| r.total_ns as f64 * 1e-6));
        tally.frame_keys.extend(
            records
                .iter()
                .map(|r| frame_key(r.cell_id as usize, r.frame_id)),
        );
        tally.records.extend(records);
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn account_separates_losses() {
        // All delivered once.
        let (d, f) = account(&[1, 2, 3], &[3, 1, 2], 0, 0);
        assert_eq!((d, f.total()), (3, 0));
        // One missing, one duplicated.
        let (d, f) = account(&[1, 2, 3], &[1, 1, 2], 0, 0);
        assert_eq!(d, 2);
        assert_eq!((f.missing, f.duplicated), (1, 1));
        // Absent frames the runtime reported as dropped are not also missing.
        let (d, f) = account(&[1, 2, 3, 4], &[1], 2, 1);
        assert_eq!(d, 1);
        assert_eq!((f.missing, f.dropped, f.rejected), (0, 2, 1));
        assert_eq!(f.total(), 3);
        // A frame nobody asked for is neither delivered nor a duplicate.
        let (d, f) = account(&[1], &[1, 9], 0, 0);
        assert_eq!((d, f.total()), (1, 0));
    }

    #[test]
    fn names_round_trip_and_cell_ids_are_distinct() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        let mut ids: Vec<_> = ALL.iter().map(|w| w.cell_id()).collect();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len());
        assert!(ids.iter().all(|&id| id >= FLEET_CELLS));
    }

    #[test]
    fn rounds_draw_distinct_jobs() {
        assert_eq!(round_seed(42, 0), 42);
        let sys = streaming_system();
        let job_seeds = |seed| -> Vec<u64> {
            WorkloadSpec::four_by_eight(8, seed)
                .jobs(&sys)
                .iter()
                .map(|j| j.seed)
                .collect()
        };
        let (r0, r1) = (job_seeds(round_seed(42, 0)), job_seeds(round_seed(42, 1)));
        assert!(r0.iter().all(|s| !r1.contains(s)));
        assert_eq!(job_seeds(round_seed(42, 1)), r1);
    }
}

//! A radar cell and its frame workers.
//!
//! A [`Cell`] runs every frame whole, through
//! [`biscatter_core::isac::run_frame`] on the cell's precision tier and
//! the running thread's frame buffers: inline on the caller's thread ([`Cell::process`], what a fleet
//! shard calls as it multiplexes many cells), or on `workers` frame workers
//! fed by one bounded intake ([`Cell::run_streaming`]). Workers take whole
//! frames rather than one stage each because synthesis is most of a frame:
//! a thread per stage would leave every core but the synthesis one mostly
//! idle.
//!
//! The intake applies the configured [`Backpressure`] policy: a slow cell
//! either throttles the source (lossless `Block`), sheds the oldest queued
//! frames (`DropOldest`, counted in `<prefix>runtime.queue.intake.drops`) or
//! refuses new ones (`Reject`, counted in
//! `<prefix>runtime.queue.intake.rejected`); the queue counts each shed frame
//! once. A frame that panics is contained by its worker: it is counted in
//! `<prefix>runtime.frames.failed` and written as a failed flight record,
//! and the other frames carry on.
//!
//! Because every job carries its own seed (see [`crate::source`]), outcomes
//! do not depend on worker count, queue sizing, or scheduling: on the `F64`
//! tier under `Block`, the streamed outcomes are bit-identical to the
//! one-shot [`run_isac_frame`] path.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use biscatter_compute::ComputePool;
use biscatter_core::isac::precision::PrecisionTier;
use biscatter_core::isac::{
    run_cold_start_frame, run_frame, run_isac_frame, warm_dsp_plans, ColdStartOutcome, FrameCtx,
    IsacOutcome,
};
use biscatter_core::system::BiScatterSystem;

use biscatter_obs::metrics::{Counter, Histogram};
use biscatter_obs::recorder::{self, FlightRecorder, FrameRecord, StageNanos};
use biscatter_obs::trace;

use crate::metrics::{LatencyHistogram, MetricsSnapshot};
use crate::queue::{Backpressure, BoundedQueue, Pushed};
use crate::source::FrameJob;

/// Cell runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Capacity of the streaming intake queue.
    pub queue_capacity: usize,
    /// What the intake does with a frame when it is full.
    pub policy: Backpressure,
    /// Frame workers [`Cell::run_streaming`] runs, each taking whole frames
    /// off the intake. Defaults to the machine's available parallelism.
    pub workers: usize,
    /// Threads of the shared intra-frame compute pool: the DSP stages fan
    /// chirps / range columns of a *single* frame across this pool. Defaults
    /// to 1 (parallelism comes from the frame workers); raise it when frames
    /// are large and cores outnumber the workers.
    pub intra_frame_threads: usize,
    /// Numeric tier of every frame the cell runs, inline or streamed: `F64`
    /// is the oracle with bit-identity guarantees, `F32` the validated fast
    /// tier.
    pub precision: PrecisionTier,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            queue_capacity: 8,
            policy: Backpressure::Block,
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            intra_frame_threads: 1,
            precision: PrecisionTier::F64,
        }
    }
}

/// Everything a streaming run produced.
pub struct RunReport {
    /// `(frame id, outcome)` pairs in frame-id order; failed and dropped
    /// frames are absent.
    pub outcomes: Vec<(u64, IsacOutcome)>,
    /// End-to-end metrics and the registry snapshot.
    pub metrics: MetricsSnapshot,
}

/// A radar cell as a value: one system, one runtime configuration, and a
/// metric scope. A frame's buffers belong to the thread that runs it, not
/// to the cell, so cells sharing a thread (a fleet shard's) share one set.
///
/// The fleet layer (`biscatter-fleet`) instantiates many cells and
/// schedules them across worker shards, so everything that would otherwise
/// be process-global — the intake gauges, frame counters — is scoped under
/// the cell's `cell<id>.` metric prefix.
pub struct Cell {
    id: usize,
    prefix: String,
    sys: BiScatterSystem,
    cfg: RuntimeConfig,
    frames: Counter,
    failed: Counter,
    frame_ns: Histogram,
    /// Always-on flight recorder ring (shared with the scrape server through
    /// the global `recorder` table).
    recorder: Arc<FlightRecorder>,
    /// Cached handles to every cumulative shed counter charged to this cell
    /// (evictions and refusals of the streaming intake, and of the fleet
    /// intake for a cell a fleet feeds), so capture-time totals are atomic
    /// loads — no registry lookups on the frame path.
    drop_counters: Vec<Counter>,
}

impl Cell {
    /// A cell whose metrics live under `cell<id>.` (e.g.
    /// `cell3.runtime.queue.intake.depth`, `cell3.runtime.frames`).
    pub fn new(id: usize, sys: BiScatterSystem, cfg: RuntimeConfig) -> Self {
        Self::with_prefix(id, format!("cell{id}."), false, sys, cfg)
    }

    /// A [`Cell::new`] cell that a fleet feeds through its
    /// `cell<id>.fleet.intake`: its flight records count what that intake
    /// sheds too. Only such cells register the `fleet.intake.*` counters,
    /// so a process without a fleet exports none.
    pub fn fed_by_fleet(id: usize, sys: BiScatterSystem, cfg: RuntimeConfig) -> Self {
        Self::with_prefix(id, format!("cell{id}."), true, sys, cfg)
    }

    /// A cell with the legacy unscoped metric names — what the free
    /// [`run_streaming`] uses, and what single-cell processes expect.
    pub fn standalone(sys: BiScatterSystem, cfg: RuntimeConfig) -> Self {
        Self::with_prefix(0, String::new(), false, sys, cfg)
    }

    fn with_prefix(
        id: usize,
        prefix: String,
        fleet: bool,
        sys: BiScatterSystem,
        cfg: RuntimeConfig,
    ) -> Self {
        let r = biscatter_obs::registry();
        let fleet_intake: &[&str] = if fleet {
            &["fleet.intake.drops", "fleet.intake.rejected"]
        } else {
            &[]
        };
        let drop_counters = fleet_intake
            .iter()
            .chain(&[
                "runtime.queue.intake.drops",
                "runtime.queue.intake.rejected",
            ])
            .map(|name| r.counter(&format!("{prefix}{name}")))
            .collect();
        Cell {
            recorder: recorder::for_cell(id as u32),
            id,
            frames: r.counter(&format!("{prefix}runtime.frames")),
            failed: r.counter(&format!("{prefix}runtime.frames.failed")),
            frame_ns: r.histogram(&format!("{prefix}runtime.frame.ns")),
            prefix,
            sys,
            cfg,
            drop_counters,
        }
    }

    /// The cell id this value was built with.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The runtime configuration (intake sizing, backpressure, workers,
    /// tier).
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    fn ctx<'a>(&'a self, pool: &'a ComputePool) -> FrameCtx<'a> {
        FrameCtx {
            pool,
            sys: &self.sys,
            tier: self.cfg.precision,
        }
    }

    /// Counts one frame and writes its flight record. `total_ns` runs from
    /// `born`. `outcome` is `None` when no aligned frame ran: a rejected
    /// acquisition, or a `failed` frame. Allocation-free: the record is
    /// `Copy` and the ring was preallocated, so the zero-alloc audits run
    /// with this in the measuring window.
    fn record(
        &self,
        frame_id: u64,
        born: Instant,
        stages: StageNanos,
        pslr_db: f64,
        outcome: Option<&IsacOutcome>,
        failed: bool,
    ) {
        let total = born.elapsed();
        if failed {
            self.failed.inc();
        } else {
            self.frames.inc();
            self.frame_ns.record(total);
        }
        let decoded_bits = outcome.map_or(0, |o| {
            if o.tags.is_empty() {
                o.uplink_bits.as_ref().map_or(0, |b| b.len())
            } else {
                o.tags
                    .iter()
                    .map(|t| t.uplink.as_ref().map_or(0, |u| u.bits.len()))
                    .sum()
            }
        }) as u32;
        self.recorder.record(FrameRecord {
            frame_id,
            cell_id: self.id as u32,
            t_ns: recorder::now_ns(),
            total_ns: total.as_nanos() as u64,
            stages,
            failed,
            snr_db: outcome
                .and_then(|o| o.location.as_ref())
                .map_or(f64::NAN, |l| l.snr_db),
            pslr_db,
            decoded_bits,
            cfar_detections: outcome.map_or(0, |o| o.detections.len() as u32),
            queue_drops: self.drop_counters.iter().map(Counter::get).sum(),
        });
    }

    /// Runs one frame inline on the calling thread, on that thread's frame
    /// buffers (allocation-free once a frame has sized them) and records it in the cell's frame
    /// counter, latency histogram, and flight recorder. On the default `F64`
    /// tier the outcome is bit-identical to [`run_isac_frame`]; the `F32`
    /// tier trades the low bits of the hot path for speed (see
    /// [`biscatter_core::isac::precision`]). A panic in the frame propagates
    /// to the caller.
    pub fn process(&self, pool: &ComputePool, job: &FrameJob) -> IsacOutcome {
        self.frame(pool, job, Instant::now())
    }

    /// [`Cell::process`] with the frame's flight record timed from `born`.
    fn frame(&self, pool: &ComputePool, job: &FrameJob, born: Instant) -> IsacOutcome {
        let _fs = trace::frame_scope(job.id);
        let _span = biscatter_obs::span!("runtime.frame");
        let mut stages = StageNanos::default();
        let outcome = run_frame(
            &self.ctx(pool),
            &job.scenario,
            &job.payload,
            job.seed,
            &mut stages,
        );
        self.record(job.id, born, stages, f64::NAN, Some(&outcome), false);
        outcome
    }

    /// [`Cell::process`] with a panicking frame contained: the panic is
    /// counted in `<prefix>runtime.frames.failed`, written as a failed
    /// flight record, and `None` comes back. `born` is when the frame
    /// entered the cell; its flight record's `total_ns` runs from there, so
    /// the time it waited shows as `total_ns - stages.total()`.
    pub fn try_process(
        &self,
        pool: &ComputePool,
        job: &FrameJob,
        born: Instant,
    ) -> Option<IsacOutcome> {
        match panic::catch_unwind(AssertUnwindSafe(|| self.frame(pool, job, born))) {
            Ok(outcome) => Some(outcome),
            Err(_) => {
                self.record(job.id, born, StageNanos::default(), f64::NAN, None, true);
                None
            }
        }
    }

    /// Runs one cold-start frame inline: acquisition stage 0 (the correlator
    /// bank over the raw dwell, its capture/bank/slab buffers the calling
    /// thread's) and then — only if the tag passed the PSLR gate —
    /// the aligned frame on the cell's tier, exactly as [`Cell::process`]
    /// runs it. Jobs whose scenarios carry no
    /// [`biscatter_core::isac::ColdStartSpec`] behave like [`Cell::process`]
    /// with the outcome wrapped in a [`ColdStartOutcome`]. Recorded in the
    /// same frame counter/latency histogram as aligned frames.
    pub fn process_cold_start(&self, pool: &ComputePool, job: &FrameJob) -> ColdStartOutcome {
        let born = Instant::now();
        let _fs = trace::frame_scope(job.id);
        let _span = biscatter_obs::span!("runtime.frame");
        let mut stages = StageNanos::default();
        let outcome = run_cold_start_frame(
            &self.ctx(pool),
            &job.scenario,
            &job.payload,
            job.seed,
            &mut stages,
        );
        let pslr_db = outcome.acquisition.as_ref().map_or(f64::NAN, |a| a.pslr_db);
        self.record(job.id, born, stages, pslr_db, outcome.frame.as_ref(), false);
        outcome
    }

    /// Streams `jobs` through the cell's frame workers and collects every
    /// outcome. A source thread queues each job with its enqueue time on the
    /// bounded intake (a frame the intake's policy evicts or refuses is gone,
    /// and counted there); each of `workers` threads pops whole frames and runs
    /// them through [`Cell::try_process`], so a frame's recorded `total_ns`
    /// includes its queue wait. Threads are scoped, so the method returns
    /// only after every worker has shut down.
    ///
    /// Spans are recorded when the process has switched tracing on
    /// ([`trace::set_enabled`]); writing the trace out is the caller's job
    /// (`examples/streaming_runtime.rs` does it once at exit).
    pub fn run_streaming(&self, jobs: Vec<FrameJob>) -> RunReport {
        let cfg = &self.cfg;
        assert!(cfg.workers > 0, "a cell needs at least one frame worker");
        let intake = BoundedQueue::<(FrameJob, Instant)>::named_at(
            cfg.queue_capacity,
            cfg.policy,
            &format!("{}runtime.queue.intake", self.prefix),
        );
        // One compute pool shared by the workers for intra-frame fan-out;
        // its background threads warm their thread-local FFT planners at
        // spawn, as each worker does before its first frame.
        let warm_sys = self.sys.clone();
        let intra =
            ComputePool::with_init(cfg.intra_frame_threads, move || warm_dsp_plans(&warm_sys));
        let e2e = LatencyHistogram::default();

        let t0 = Instant::now();
        let results: Vec<(u64, Option<IsacOutcome>)> = thread::scope(|scope| {
            scope.spawn(|| {
                for job in jobs {
                    let _fs = trace::frame_scope(job.id);
                    let _span = biscatter_obs::span!("runtime.source");
                    if let Pushed::Closed(_) = intake.push((job, Instant::now())) {
                        break;
                    }
                }
                intake.close();
            });
            let workers: Vec<_> = (0..cfg.workers)
                .map(|_| {
                    scope.spawn(|| {
                        warm_dsp_plans(&self.sys);
                        let mut done = Vec::new();
                        while let Some((job, born)) = intake.pop() {
                            let outcome = self.try_process(&intra, &job, born);
                            if outcome.is_some() {
                                e2e.record(born.elapsed());
                            }
                            done.push((job.id, outcome));
                        }
                        done
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("frame workers contain frame panics"))
                .collect()
        });
        let elapsed = t0.elapsed();

        let frames_failed = results.iter().filter(|(_, o)| o.is_none()).count() as u64;
        let mut outcomes: Vec<(u64, IsacOutcome)> = results
            .into_iter()
            .filter_map(|(id, o)| Some((id, o?)))
            .collect();
        outcomes.sort_by_key(|&(id, _)| id);
        let metrics = MetricsSnapshot {
            end_to_end: e2e.snapshot(),
            frames_completed: outcomes.len() as u64,
            frames_failed,
            total_drops: intake.drops() + intake.rejected(),
            elapsed,
            registry: biscatter_obs::registry().snapshot(),
        };
        RunReport { outcomes, metrics }
    }
}

/// Streams `jobs` through a cell's frame workers with the legacy
/// process-global metric names and collects every outcome. Equivalent to
/// [`Cell::standalone`] followed by [`Cell::run_streaming`].
pub fn run_streaming(sys: &BiScatterSystem, jobs: Vec<FrameJob>, cfg: &RuntimeConfig) -> RunReport {
    Cell::standalone(sys.clone(), *cfg).run_streaming(jobs)
}

/// Reference path: the same jobs, one at a time, on the calling thread via
/// the one-shot [`run_isac_frame`]. Used for parity tests and as the serial
/// baseline in the throughput benchmark.
pub fn run_serial(sys: &BiScatterSystem, jobs: &[FrameJob]) -> Vec<(u64, IsacOutcome)> {
    jobs.iter()
        .map(|j| (j.id, run_isac_frame(sys, &j.scenario, &j.payload, j.seed)))
        .collect()
}

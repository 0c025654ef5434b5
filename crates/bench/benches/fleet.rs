//! `cargo bench --bench fleet` — the multi-cell fleet runtime, recorded in
//! `results/BENCH_fleet.json`:
//!
//! * fleet throughput (frames/s, handoffs/s) for 1 / 4 / 16 cells running
//!   the deterministic mobility workload under lossless admission;
//! * an overload row: the 16-cell fleet squeezed through one shard with a
//!   quota-1 drop-oldest intake, so admission drops are exercised and
//!   reported rather than merely possible;
//! * steady-state heap allocations of the per-frame hot path (stages 2–4
//!   through a fleet cell's own arena; must be 0).
//!
//! `--quick` shrinks the workloads to two ticks and writes nothing, but
//! still enforces the completeness, accounting, and zero-allocation
//! assertions — the CI smoke mode fails if the fleet loses a frame or the
//! arena path regresses.

use std::hint::black_box;

use biscatter_bench::harness::{self, Args, Fields, Sampler};
use biscatter_bench::hot_stages;
use biscatter_core::isac::{synthesize_frame, warm_dsp_plans, AlignedPair, IsacScenario};
use biscatter_core::json::Value;
use biscatter_core::obs::alloc::{counted, CountingAlloc};
use biscatter_core::radar::receiver::doppler::RangeDopplerMap;
use biscatter_core::system::BiScatterSystem;
use biscatter_fleet::{AdmissionPolicy, Fleet, FleetConfig, FleetReport};
use biscatter_runtime::compute::ComputePool;
use biscatter_runtime::source::{streaming_system, MobilitySpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A fleet of `cells` cells on `shards` shards, and its mobility workload of
/// `n_ticks` ticks.
fn fleet(
    sys: &BiScatterSystem,
    cells: usize,
    shards: usize,
    quota: usize,
    policy: AdmissionPolicy,
    n_ticks: usize,
) -> (Fleet, MobilitySpec) {
    let cfg = FleetConfig {
        n_cells: cells,
        shards,
        intake_quota: quota,
        admission: policy,
        ..FleetConfig::default()
    };
    let spec = MobilitySpec {
        n_cells: cells,
        mobile_tags: cells,
        n_ticks,
        dwell_ticks: 3,
        base_seed: 42,
    };
    (Fleet::new(sys.clone(), cfg), spec)
}

/// Times `fleet` on its workload (one checked run, then the sampler's) and
/// writes the row: counts from the checked run, frames/s and handoffs/s
/// from the median run time.
fn timed_row(
    sampler: &Sampler,
    sys: &BiScatterSystem,
    fleet: &Fleet,
    spec: &MobilitySpec,
) -> (FleetReport, Fields) {
    let report = fleet.run(spec.jobs(sys));
    let run = sampler.time(|| fleet.run(spec.jobs(sys)));
    let secs = run.median() * 1e-9;
    let cfg = fleet.config();
    let mut row = Fields::default();
    row.num("cells", cfg.n_cells as f64)
        .num("shards", cfg.shards as f64)
        .num("frames", report.frames_completed() as f64)
        .num("frames_per_s", report.frames_completed() as f64 / secs)
        .num("handoffs", report.handoffs as f64)
        .num("handoffs_per_s", report.handoffs as f64 / secs)
        .num("admission_drops", report.admission_drops as f64)
        .num("admission_rejects", report.admission_rejects as f64)
        .row("run", "ns", &run);
    println!(
        "cells {:2} on {} shards: {} frames, {} handoffs, {} drops; run {run}",
        cfg.n_cells,
        cfg.shards,
        report.frames_completed(),
        report.handoffs,
        report.admission_drops,
    );
    (report, row)
}

fn main() {
    let args = Args::parse();
    let sampler = Sampler::new(&args, 5);
    let n_ticks = if args.quick { 2 } else { 12 };

    let sys = streaming_system();
    warm_dsp_plans(&sys);

    // --- Throughput: 1 / 4 / 16 cells, lossless admission. ---------------
    let mut per_config = Vec::new();
    let mut last = None;
    for cells in [1usize, 4, 16] {
        let (fleet, spec) = fleet(
            &sys,
            cells,
            cells.min(4),
            8,
            AdmissionPolicy::Block,
            n_ticks,
        );
        let (report, mut row) = timed_row(&sampler, &sys, &fleet, &spec);
        assert_eq!(
            report.frames_completed(),
            (cells * n_ticks) as u64,
            "lossless fleet lost a frame at {cells} cells"
        );
        assert_eq!(report.admission_drops, 0, "block admission must not drop");
        assert_eq!(
            report.admission_rejects, 0,
            "block admission must not reject"
        );
        row.num("tags_per_cell", 2.0);
        per_config.push(row.into());
        last = Some(fleet);
    }

    // --- Overload: 16 cells through one shard, quota-1 drop-oldest. ------
    let (overload, spec) = fleet(&sys, 16, 1, 1, AdmissionPolicy::DropOldest, n_ticks);
    let (report, over) = timed_row(&sampler, &sys, &overload, &spec);
    assert_eq!(
        report.frames_completed() + report.admission_drops,
        (16 * n_ticks) as u64,
        "every frame must be processed or counted as dropped"
    );

    // --- Steady-state allocation count on a fleet cell's arena path. -----
    // The 16-cell fleet's cell arenas are warm from the runs above.
    let fleet = last.expect("16-cell fleet ran above");
    let arena = fleet.cells()[0].arena();
    let pool = ComputePool::new(1);
    let frame_s = sys.frame_chirps as f64 * sys.radar.t_period;
    let scenario = IsacScenario::single_tag(3.0, 16.0 / frame_s).with_office_clutter();
    let synth = synthesize_frame(&sys, &scenario, b"CMD1", 7);
    let mut pair = AlignedPair::default();
    let mut map = RangeDopplerMap::default();
    // Two warm-up frames size the lease-local buffers; the third must not
    // touch the heap at all.
    for _ in 0..2 {
        hot_stages(&pool, &sys, &synth, &arena.if_slabs, &mut pair, &mut map, 1);
    }
    let ((), steady_allocs) = counted(|| {
        hot_stages(&pool, &sys, &synth, &arena.if_slabs, &mut pair, &mut map, 1);
    });
    black_box(map.at(0, 0));
    println!("steady-state allocations (fleet cell arena path): {steady_allocs}");
    assert_eq!(
        steady_allocs, 0,
        "fleet cell frame path allocated in steady state"
    );

    let mut fields = Fields::default();
    fields
        .set("per_config", Value::Array(per_config))
        .set("overload", over.into())
        .num("steady_state_allocs", steady_allocs as f64);
    harness::record(
        &args,
        "fleet",
        "multi-cell fleet runtime",
        &format!(
            "deterministic mobility workload ({n_ticks} ticks, one roaming + one stationary tag \
             per cell, dwell 3 ticks) run through the fleet scheduler under lossless admission. \
             Each row's fleet runs the workload once for its counts (frames, handoffs, drops), \
             then the sampler times Fleet::run on it (run_ns, its end-of-run snapshot included); \
             frames_per_s and handoffs_per_s divide the counts by the median run. overload = same \
             16-cell workload through one shard with a quota-1 drop-oldest intake, reporting \
             shed load (its counts vary from run to run). steady_state_allocs counted by \
             obs::alloc over one hot-path frame (stages 2-4) through a warmed fleet cell arena; \
             acceptance: 0."
        ),
        fields,
    );
}

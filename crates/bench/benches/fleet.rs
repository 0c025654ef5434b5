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
//! A plain `main` (harness = false) so the numbers can be written to JSON.
//! `--quick` shrinks the workloads to two ticks and skips the JSON write,
//! but still enforces the completeness, accounting, and zero-allocation
//! assertions — the CI smoke mode fails if the fleet loses a frame or the
//! arena path regresses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as StdCell;
use std::hint::black_box;

use biscatter_core::isac::{
    align_stage_into, dechirp_stage_into, doppler_stage_into, synthesize_frame, warm_dsp_plans,
    AlignedPair, FrameArena, SynthesizedFrame,
};
use biscatter_core::radar::receiver::doppler::RangeDopplerMap;
use biscatter_core::rf::slab::SampleSlab;
use biscatter_core::system::BiScatterSystem;
use biscatter_fleet::{AdmissionPolicy, Fleet, FleetConfig, FleetReport};
use biscatter_runtime::compute::ComputePool;
use biscatter_runtime::source::{streaming_system, MobilitySpec};

thread_local! {
    /// `-1` = not counting; `>= 0` = allocations observed on this thread.
    static ALLOCS: StdCell<isize> = const { StdCell::new(-1) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| {
        let v = c.get();
        if v >= 0 {
            c.set(v + 1);
        }
    });
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The per-frame hot path as a fleet shard runs it: stages 2–4 through a
/// cell's arena (synthesis and outcome assembly are workload generation and
/// reporting, not the steady-state loop).
fn hot_stages(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
    arena: &FrameArena,
    pair: &mut AlignedPair,
    map: &mut RangeDopplerMap,
    seed: u64,
) {
    let mut slab = arena.if_slabs.take_or(SampleSlab::new);
    dechirp_stage_into(pool, sys, &synth.train, &synth.scene, seed, &mut slab);
    align_stage_into(pool, sys, &synth.train, &*slab, pair);
    doppler_stage_into(pool, pair, map);
}

struct ConfigRow {
    cells: usize,
    shards: usize,
    frames: u64,
    frames_per_s: f64,
    handoffs: u64,
    handoffs_per_s: f64,
    drops: u64,
    rejects: u64,
}

fn run_config(
    sys: &BiScatterSystem,
    cells: usize,
    shards: usize,
    n_ticks: usize,
    quota: usize,
    policy: AdmissionPolicy,
) -> (FleetReport, ConfigRow) {
    let spec = MobilitySpec {
        n_cells: cells,
        mobile_tags: cells,
        n_ticks,
        dwell_ticks: 3,
        base_seed: 42,
    };
    let cfg = FleetConfig {
        n_cells: cells,
        shards,
        intake_quota: quota,
        admission: policy,
        ..FleetConfig::default()
    };
    let fleet = Fleet::new(sys.clone(), cfg);
    let report = fleet.run(spec.jobs(sys));
    let secs = report.elapsed.as_secs_f64();
    let row = ConfigRow {
        cells,
        shards,
        frames: report.frames_completed(),
        frames_per_s: report.frames_completed() as f64 / secs,
        handoffs: report.handoffs,
        handoffs_per_s: report.handoffs as f64 / secs,
        drops: report.admission_drops,
        rejects: report.admission_rejects,
    };
    (report, row)
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let n_ticks = if quick { 2 } else { 12 };

    let sys = streaming_system();
    warm_dsp_plans(&sys);

    // --- Throughput: 1 / 4 / 16 cells, lossless admission. ---------------
    let mut rows: Vec<ConfigRow> = Vec::new();
    let mut arena_fleet: Option<Fleet> = None;
    for cells in [1usize, 4, 16] {
        let shards = cells.min(4);
        let (report, row) = run_config(&sys, cells, shards, n_ticks, 8, AdmissionPolicy::Block);
        assert_eq!(
            row.frames,
            (cells * n_ticks) as u64,
            "lossless fleet lost a frame at {cells} cells"
        );
        assert_eq!(row.drops, 0, "block admission must not drop");
        assert_eq!(row.rejects, 0, "block admission must not reject");
        println!(
            "cells {:2} on {} shards: {} frames, {:7.1} frames/s, {} handoffs ({:5.1}/s)",
            row.cells, row.shards, row.frames, row.frames_per_s, row.handoffs, row.handoffs_per_s,
        );
        drop(report);
        rows.push(row);
        if cells == 16 {
            // Keep the last fleet: its warmed cell arenas feed the
            // allocation count below.
            let spec = MobilitySpec {
                n_cells: cells,
                mobile_tags: cells,
                n_ticks,
                dwell_ticks: 3,
                base_seed: 42,
            };
            let cfg = FleetConfig {
                n_cells: cells,
                shards,
                intake_quota: 8,
                admission: AdmissionPolicy::Block,
                ..FleetConfig::default()
            };
            let fleet = Fleet::new(sys.clone(), cfg);
            fleet.run(spec.jobs(&sys));
            arena_fleet = Some(fleet);
        }
    }

    // --- Overload: 16 cells through one shard, quota-1 drop-oldest. ------
    let (_, over) = run_config(&sys, 16, 1, n_ticks, 1, AdmissionPolicy::DropOldest);
    assert_eq!(
        over.frames + over.drops,
        (16 * n_ticks) as u64,
        "every frame must be processed or counted as dropped"
    );
    println!(
        "overload (16 cells, 1 shard, quota 1, drop-oldest): {} frames, {} drops, {:7.1} frames/s",
        over.frames, over.drops, over.frames_per_s,
    );

    // --- Steady-state allocation count on a fleet cell's arena path. -----
    let fleet = arena_fleet.expect("16-cell fleet ran above");
    let arena = fleet.cells()[0].arena();
    let pool = ComputePool::new(1);
    let frame_s = sys.frame_chirps as f64 * sys.radar.t_period;
    let scenario =
        biscatter_core::isac::IsacScenario::single_tag(3.0, 16.0 / frame_s).with_office_clutter();
    let synth = synthesize_frame(&sys, &scenario, b"CMD1", 7);
    let mut pair = AlignedPair::default();
    let mut map = RangeDopplerMap::default();
    // Two warm-up frames size the lease-local buffers; the third must not
    // touch the heap at all.
    hot_stages(&pool, &sys, &synth, arena, &mut pair, &mut map, 1);
    hot_stages(&pool, &sys, &synth, arena, &mut pair, &mut map, 1);
    ALLOCS.with(|c| c.set(0));
    hot_stages(&pool, &sys, &synth, arena, &mut pair, &mut map, 1);
    let steady_allocs = ALLOCS.with(|c| c.replace(-1));
    black_box(map.at(0, 0));
    println!("steady-state allocations (fleet cell arena path): {steady_allocs}");
    assert_eq!(
        steady_allocs, 0,
        "fleet cell frame path allocated in steady state"
    );

    if quick {
        println!("--quick: smoke run only, results/BENCH_fleet.json not rewritten");
        return;
    }

    let per_config = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"cells\": {}, \"shards\": {}, \"tags_per_cell\": 2, \"frames\": {}, \"frames_per_s\": {:.1}, \"handoffs\": {}, \"handoffs_per_s\": {:.1}, \"admission_drops\": {}, \"admission_rejects\": {}}}",
                r.cells, r.shards, r.frames, r.frames_per_s, r.handoffs, r.handoffs_per_s, r.drops, r.rejects,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"multi-cell fleet runtime (crates/bench/benches/fleet.rs)\",\n  {dispatch},\n  \"cores\": {cores},\n  \"note\": \"deterministic mobility workload ({n_ticks} ticks, one roaming + one stationary tag per cell, dwell 3 ticks) run through the fleet scheduler under lossless admission; frames/s and handoffs/s from wall-clock over the whole run on this machine. overload = same 16-cell workload through one shard with a quota-1 drop-oldest intake, reporting shed load. steady_state_allocs counted by a wrapping global allocator over one hot-path frame (stages 2-4) through a warmed fleet cell arena; acceptance: 0.\",\n  \"per_config\": [\n{per_config}\n  ],\n  \"overload\": {{\"cells\": {}, \"shards\": {}, \"frames\": {}, \"admission_drops\": {}, \"frames_per_s\": {:.1}}},\n  \"steady_state_allocs\": {steady_allocs}\n}}\n",
        over.cells, over.shards, over.frames, over.drops, over.frames_per_s,
        dispatch = biscatter_bench::dispatch_json_fields(),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_fleet.json"
    );
    std::fs::write(path, &json).expect("write BENCH_fleet.json");
    println!("wrote {path}");
}

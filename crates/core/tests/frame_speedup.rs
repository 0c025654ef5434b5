//! Frame latency acceptance checks, gated on what the machine can deliver.
//!
//! Two bars, each asserted only where it is winnable:
//!
//! * **Pooled vs serial (f64)**: ≥ 1.8× speedup for one frame's hot stages
//!   (dechirp → align → doppler) — asserted on machines with at least 4
//!   cores. A 1-thread pool degrades to the inline serial path, so there
//!   is nothing to win on smaller boxes.
//! * **f32 tier vs serial f64**: ≥ 2.5× speedup — asserted only under AVX2
//!   dispatch. Under scalar dispatch (no AVX2, or `BISCATTER_SIMD=scalar`)
//!   the f32 tier loses its 8-lane kernels and the ratio is recorded
//!   (printed with `--nocapture`) but not asserted.

use std::time::Instant;

use biscatter_compute::ComputePool;
use biscatter_core::dsp::dispatch::{tier, SimdTier};
use biscatter_core::dsp::Real;
use biscatter_core::isac::{
    align_stage_into, dechirp_stage_into, doppler_stage_into, synthesize_frame, warm_dsp_plans,
    AlignedPair, IsacScenario,
};
use biscatter_core::system::BiScatterSystem;
use biscatter_radar::receiver::doppler::RangeDopplerMap;
use biscatter_rf::slab::SampleSlab;

/// Mean seconds per frame of stages 2–4 in precision `T` on `pool`, and the
/// frame's checksum (reps must reproduce it bit for bit).
fn time_frames<T: Real>(pool: &ComputePool, sys: &BiScatterSystem, reps: usize) -> (f64, f64) {
    let scenario = IsacScenario::single_tag(3.0, 16.0 / (128.0 * 120e-6)).with_office_clutter();
    let synth = synthesize_frame(sys, &scenario, b"CMD1", 7);
    let mut slab = SampleSlab::<T>::new();
    let mut pair = AlignedPair::<T>::default();
    let mut map = RangeDopplerMap::default();
    let mut run_frame = |seed: u64| {
        dechirp_stage_into(pool, sys, &synth.train, &synth.scene, seed, &mut slab);
        align_stage_into(pool, sys, &synth.train, &slab, &mut pair);
        doppler_stage_into(pool, &pair, &mut map);
        map.at(0, 0)
    };
    // Warm-up frames size the buffers and per-thread plan caches.
    let mut checksum = 0.0;
    for _ in 0..2 {
        checksum = run_frame(1);
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        assert_eq!(run_frame(1), checksum, "reps must be bit-identical");
    }
    (t0.elapsed().as_secs_f64() / reps as f64, checksum)
}

#[test]
fn pooled_frame_meets_speedup_target_on_multicore() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sys = BiScatterSystem::paper_9ghz();
    warm_dsp_plans(&sys);

    let reps = 5;
    let serial = ComputePool::new(1);
    let pooled = ComputePool::new(cores.min(8));
    let (t_serial, sum_serial) = time_frames::<f64>(&serial, &sys, reps);
    let (t_pooled, sum_pooled) = time_frames::<f64>(&pooled, &sys, reps);
    assert_eq!(sum_serial, sum_pooled, "pooled output diverged from serial");

    let speedup = t_serial / t_pooled;
    println!(
        "frame stages 2-4: serial {:.2} ms, pooled({} threads) {:.2} ms, speedup {speedup:.2}x on {cores} cores",
        t_serial * 1e3,
        pooled.threads(),
        t_pooled * 1e3,
    );
    if cores >= 4 {
        assert!(
            speedup >= 1.8,
            "pooled frame path only {speedup:.2}x faster than serial on {cores} cores (need >= 1.8x)"
        );
    }
}

#[test]
fn f32_tier_meets_speedup_target_under_avx2_dispatch() {
    let sys = BiScatterSystem::paper_9ghz();
    warm_dsp_plans(&sys);

    let reps = 5;
    let serial = ComputePool::new(1);
    let (t_f64, _) = time_frames::<f64>(&serial, &sys, reps);
    let (t_f32, _) = time_frames::<f32>(&serial, &sys, reps);

    let speedup = t_f64 / t_f32;
    let t = tier();
    println!(
        "frame stages 2-4: serial f64 {:.2} ms, f32 tier {:.2} ms, speedup {speedup:.2}x under {} dispatch",
        t_f64 * 1e3,
        t_f32 * 1e3,
        t.name(),
    );
    if t == SimdTier::Avx2 {
        assert!(
            speedup >= 2.5,
            "f32 tier only {speedup:.2}x faster than serial f64 under avx2 dispatch (need >= 2.5x)"
        );
    }
}

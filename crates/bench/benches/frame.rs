//! `cargo bench --bench frame` — the PR-3 frame hot path: intra-frame data
//! parallelism plus zero-allocation buffer reuse, recorded in
//! `results/BENCH_frame.json`:
//!
//! * per-frame latency of stages 2–4 (dechirp → align → doppler) on a
//!   1-thread (serial) pool vs a pool sized to the machine;
//! * per-frame latency of the same stages on the f32 fast tier
//!   (`biscatter_core::isac::precision`), with its own zero-allocation
//!   audit and a `>= 2.5x` single-thread speedup check when the AVX2
//!   kernels are dispatched;
//! * steady-state heap allocations of one frame on reused buffers (must
//!   be 0);
//! * a serial-vs-pooled bit-equality check on every f64 stage output (the
//!   f32 tier carries no bit contract — it is oracle-bounded instead, see
//!   `crates/core/tests/precision_oracle.rs`).
//!
//! `--quick` runs one frame per path and writes nothing, but still
//! enforces the bit-equality and zero-allocation assertions — the CI smoke
//! mode fails if the parallel path ever diverges from the serial one.

use std::hint::black_box;

use biscatter_bench::harness::{self, Args, Fields, Sampler};
use biscatter_bench::hot_stages;
use biscatter_core::dsp::dispatch::{tier, SimdTier};
use biscatter_core::dsp::Real;
use biscatter_core::isac::{synthesize_frame, warm_dsp_plans, IsacScenario, SynthesizedFrame};
use biscatter_core::json::Value;
use biscatter_core::obs::alloc::{counted, CountingAlloc};
use biscatter_core::radar::receiver::doppler::RangeDopplerMap;
use biscatter_core::radar::receiver::AlignedFrame;
use biscatter_core::rf::slab::SampleSlab;
use biscatter_core::system::BiScatterSystem;
use biscatter_runtime::compute::ComputePool;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Steady-state heap allocations of one frame in precision `T` on `pool`,
/// its IF samples through `slab`, after three warm-up frames.
fn steady_state_allocs<T: Real>(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
    slab: &mut SampleSlab<T>,
) -> usize {
    let (mut frame, mut map) = (AlignedFrame::<T>::default(), RangeDopplerMap::default());
    for _ in 0..3 {
        hot_stages(pool, sys, synth, slab, &mut frame, &mut map, 1);
    }
    counted(|| hot_stages(pool, sys, synth, slab, &mut frame, &mut map, 1)).1
}

/// A timed body: one frame in precision `T` on `pool`, on buffers of its
/// own.
fn frame_body<'a, T: Real>(
    pool: &'a ComputePool,
    sys: &'a BiScatterSystem,
    synth: &'a SynthesizedFrame,
) -> impl FnMut() + 'a {
    let mut slab = SampleSlab::<T>::new();
    let (mut frame, mut map) = (AlignedFrame::<T>::default(), RangeDopplerMap::default());
    move || {
        hot_stages(pool, sys, synth, &mut slab, &mut frame, &mut map, 1);
        black_box(map.at(0, 0));
    }
}

fn main() {
    let args = Args::parse();
    let samples = 15;
    let cores = harness::cores();

    let sys = BiScatterSystem::paper_9ghz();
    let scenario = IsacScenario::single_tag(3.0, 16.0 / (128.0 * 120e-6)).with_office_clutter();
    let synth = synthesize_frame(&sys, &scenario, b"CMD1", 7);
    warm_dsp_plans(&sys);

    let serial = ComputePool::new(1);
    let pooled = ComputePool::new(cores.min(8));

    // --- Bit-equality: pooled output must match serial exactly. ----------
    let (mut slab_s, mut slab_p) = (SampleSlab::new(), SampleSlab::new());
    let (mut frame_s, mut map_s) = (AlignedFrame::default(), RangeDopplerMap::default());
    let (mut frame_p, mut map_p) = (AlignedFrame::default(), RangeDopplerMap::default());
    hot_stages(
        &serial,
        &sys,
        &synth,
        &mut slab_s,
        &mut frame_s,
        &mut map_s,
        1,
    );
    hot_stages(
        &pooled,
        &sys,
        &synth,
        &mut slab_p,
        &mut frame_p,
        &mut map_p,
        1,
    );
    // The comms path is read off these rows, so they cover both paths.
    assert_eq!(
        frame_s.profiles, frame_p.profiles,
        "pooled aligned profiles diverged from serial"
    );
    assert_eq!(map_s.n_doppler, map_p.n_doppler);
    for d in 0..map_s.n_doppler {
        assert_eq!(
            map_s.range_slice(d),
            map_p.range_slice(d),
            "pooled doppler row {d} diverged from serial"
        );
    }
    println!(
        "bit-equality: serial == pooled({} threads) across all stage outputs",
        pooled.threads()
    );

    // --- Steady-state allocation count on reused buffers, per precision. -
    let steady_allocs = steady_state_allocs::<f64>(&serial, &sys, &synth, &mut slab_s);
    println!("steady-state allocations (stages 2-4): {steady_allocs}");
    assert_eq!(steady_allocs, 0, "frame path allocated in steady state");
    let steady_allocs_f32 =
        steady_state_allocs::<f32>(&serial, &sys, &synth, &mut SampleSlab::new());
    println!("steady-state allocations (stages 2-4, f32): {steady_allocs_f32}");
    assert_eq!(
        steady_allocs_f32, 0,
        "f32 frame path allocated in steady state"
    );

    // --- Per-frame latency: serial f64, pooled f64, serial f32. ----------
    let rows = Sampler::new(&args, samples).interleave(&mut [
        &mut frame_body::<f64>(&serial, &sys, &synth),
        &mut frame_body::<f64>(&pooled, &sys, &synth),
        &mut frame_body::<f32>(&serial, &sys, &synth),
    ]);
    let [serial_t, pooled_t, serial_f32_t] = [&rows[0], &rows[1], &rows[2]];
    let speedup = serial_t.median() / pooled_t.median();
    let f32_speedup = serial_t.median() / serial_f32_t.median();
    println!("frame stages 2-4 serial f64:           {serial_t}");
    println!(
        "frame stages 2-4 pooled({}) f64:        {pooled_t}, {speedup:.2}x on {cores} cores",
        pooled.threads()
    );
    println!(
        "frame stages 2-4 serial f32 ({} dispatch): {serial_f32_t}, {f32_speedup:.2}x vs serial f64",
        tier().name()
    );

    let mut fields = Fields::default();
    fields
        .num("pooled_threads", pooled.threads() as f64)
        .row("serial_frame", "ns", serial_t)
        .row("pooled_frame", "ns", pooled_t)
        .num("speedup", speedup)
        .row("serial_frame_f32", "ns", serial_f32_t)
        .num("f32_speedup", f32_speedup)
        .num("steady_state_allocs", steady_allocs as f64)
        .num("steady_state_allocs_f32", steady_allocs_f32 as f64)
        .set("bit_identical", Value::Bool(true));
    harness::record(
        &args,
        "frame",
        "frame hot path",
        &format!(
            "stages 2-4 (dechirp -> align -> doppler) of one ISAC frame, {samples} interleaved \
             samples after warm-up; serial = 1-thread pool (inline), pooled = min(cores, 8) \
             threads; f32 = single-precision fast tier (biscatter_core::isac::precision) on the \
             1-thread pool, compared against serial f64. speedup and f32_speedup are ratios of \
             medians. steady_state_allocs counted by obs::alloc over one frame on reused \
             buffers per tier; acceptance: 0 on both. f32_speedup target (>= 2.5x under avx2 \
             dispatch) asserted here after recording and by the dispatch-gated test \
             crates/core/tests/frame_speedup.rs. bit_identical covers the f64 path only (serial \
             vs pooled); the f32 tier is oracle-bounded instead \
             (crates/core/tests/precision_oracle.rs)."
        ),
        fields,
    );

    if !args.quick && tier() == SimdTier::Avx2 {
        assert!(
            f32_speedup >= 2.5,
            "f32+AVX2 tier must be >= 2.5x over serial f64, got {f32_speedup:.2}x"
        );
    }
}

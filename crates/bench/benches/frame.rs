//! `cargo bench --bench frame` — the PR-3 frame hot path: intra-frame data
//! parallelism plus the zero-allocation arena, recorded in
//! `results/BENCH_frame.json`:
//!
//! * per-frame latency of stages 2–4 (dechirp → align → doppler) on a
//!   1-thread (serial) pool vs a pool sized to the machine;
//! * per-frame latency of the same stages on the f32 fast tier
//!   (`biscatter_core::isac::precision`), with its own zero-allocation
//!   audit and a `>= 2.5x` single-thread speedup check when the AVX2
//!   kernels are dispatched;
//! * steady-state heap allocations of one arena-path frame (counted by a
//!   wrapping global allocator; must be 0);
//! * a serial-vs-pooled bit-equality check on every f64 stage output (the
//!   f32 tier carries no bit contract — it is oracle-bounded instead, see
//!   `crates/core/tests/precision_oracle.rs`).
//!
//! A plain `main` (harness = false) so the medians can be written to JSON.
//! `--quick` runs one frame per path and skips the JSON write, but still
//! enforces the bit-equality and zero-allocation assertions — the CI smoke
//! mode fails if the parallel path ever diverges from the serial one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use biscatter_bench::dispatch_json_fields;
use biscatter_core::dsp::arena::Pool;
use biscatter_core::dsp::dispatch::{tier, SimdTier};
use biscatter_core::dsp::Real;
use biscatter_core::isac::{
    align_stage_into, dechirp_stage_into, doppler_stage_into, synthesize_frame, warm_dsp_plans,
    AlignedPair, FrameArena, IsacScenario, SynthesizedFrame,
};
use biscatter_core::radar::receiver::doppler::RangeDopplerMap;
use biscatter_core::rf::slab::SampleSlab;
use biscatter_core::system::BiScatterSystem;
use biscatter_runtime::compute::ComputePool;

thread_local! {
    /// `-1` = not counting; `>= 0` = allocations observed on this thread.
    static ALLOCS: Cell<isize> = const { Cell::new(-1) };
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

/// One frame through the hot stages (2–4) in precision `T`, leasing the IF
/// slab from `slabs` and leaving the outputs in `pair` / `map` for
/// inspection.
fn run_frame<T: Real>(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
    slabs: &Pool<SampleSlab<T>>,
    pair: &mut AlignedPair<T>,
    map: &mut RangeDopplerMap,
    seed: u64,
) {
    let mut slab = slabs.take_or(SampleSlab::new);
    dechirp_stage_into(pool, sys, &synth.train, &synth.scene, seed, &mut slab);
    align_stage_into(pool, sys, &synth.train, &*slab, pair);
    doppler_stage_into(pool, pair, map);
}

/// Median per-frame seconds over `samples` runs (one warm-up discarded) in
/// precision `T`; in quick mode the frame runs exactly once.
fn median_frame_s<T: Real>(
    quick: bool,
    samples: usize,
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
) -> f64 {
    let slabs = Pool::new();
    let mut pair = AlignedPair::<T>::default();
    let mut map = RangeDopplerMap::default();
    run_frame(pool, sys, synth, &slabs, &mut pair, &mut map, 1);
    if quick {
        return 0.0;
    }
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        run_frame(pool, sys, synth, &slabs, &mut pair, &mut map, 1);
        times.push(t0.elapsed().as_secs_f64());
        black_box(map.at(0, 0));
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Steady-state heap allocations of one arena-path frame in precision `T`
/// on `pool`, after three warm-up frames.
fn steady_state_allocs<T: Real>(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
    slabs: &Pool<SampleSlab<T>>,
) -> isize {
    let (mut pair, mut map) = (AlignedPair::<T>::default(), RangeDopplerMap::default());
    for _ in 0..3 {
        run_frame(pool, sys, synth, slabs, &mut pair, &mut map, 1);
    }
    ALLOCS.with(|c| c.set(0));
    run_frame(pool, sys, synth, slabs, &mut pair, &mut map, 1);
    ALLOCS.with(|c| c.replace(-1))
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let samples = 15;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let sys = BiScatterSystem::paper_9ghz();
    let scenario = IsacScenario::single_tag(3.0, 16.0 / (128.0 * 120e-6)).with_office_clutter();
    let synth = synthesize_frame(&sys, &scenario, b"CMD1", 7);
    warm_dsp_plans(&sys);

    let serial = ComputePool::new(1);
    let pooled = ComputePool::new(cores.min(8));

    // --- Bit-equality: pooled output must match serial exactly. ----------
    let arena_a = FrameArena::default();
    let arena_b = FrameArena::default();
    let (mut pair_s, mut map_s) = (AlignedPair::default(), RangeDopplerMap::default());
    let (mut pair_p, mut map_p) = (AlignedPair::default(), RangeDopplerMap::default());
    run_frame(
        &serial,
        &sys,
        &synth,
        &arena_a.if_slabs,
        &mut pair_s,
        &mut map_s,
        1,
    );
    run_frame(
        &pooled,
        &sys,
        &synth,
        &arena_b.if_slabs,
        &mut pair_p,
        &mut map_p,
        1,
    );
    assert_eq!(
        pair_s.comms.profiles, pair_p.comms.profiles,
        "pooled comms profiles diverged from serial"
    );
    assert_eq!(
        pair_s.sensing.profiles, pair_p.sensing.profiles,
        "pooled sensing profiles diverged from serial"
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

    // --- Steady-state allocation count on the arena path, per precision. -
    let steady_allocs = steady_state_allocs::<f64>(&serial, &sys, &synth, &arena_a.if_slabs);
    println!("steady-state allocations (stages 2-4, arena path): {steady_allocs}");
    assert_eq!(
        steady_allocs, 0,
        "arena frame path allocated in steady state"
    );
    let steady_allocs_f32 = steady_state_allocs::<f32>(&serial, &sys, &synth, &arena_a.if_slabs32);
    println!("steady-state allocations (stages 2-4, f32 arena path): {steady_allocs_f32}");
    assert_eq!(
        steady_allocs_f32, 0,
        "f32 arena frame path allocated in steady state"
    );

    // --- Per-frame latency, serial vs pooled. ----------------------------
    let serial_s = median_frame_s::<f64>(quick, samples, &serial, &sys, &synth);
    let pooled_s = median_frame_s::<f64>(quick, samples, &pooled, &sys, &synth);
    let speedup = if pooled_s > 0.0 {
        serial_s / pooled_s
    } else {
        0.0
    };
    println!(
        "frame stages 2-4: serial {:.2} ms, pooled({}) {:.2} ms, speedup {speedup:.2}x on {cores} cores",
        serial_s * 1e3,
        pooled.threads(),
        pooled_s * 1e3,
    );

    // --- f32 fast tier, single thread vs the serial f64 oracle. ----------
    let serial_f32_s = median_frame_s::<f32>(quick, samples, &serial, &sys, &synth);
    let f32_speedup = if serial_f32_s > 0.0 {
        serial_s / serial_f32_s
    } else {
        0.0
    };
    println!(
        "frame stages 2-4 (f32 tier, {} dispatch): serial {:.2} ms, {f32_speedup:.2}x vs serial f64",
        tier().name(),
        serial_f32_s * 1e3,
    );
    if !quick && tier() == SimdTier::Avx2 {
        assert!(
            f32_speedup >= 2.5,
            "f32+AVX2 tier must be >= 2.5x over serial f64, got {f32_speedup:.2}x"
        );
    }

    if quick {
        println!("--quick: smoke run only, results/BENCH_frame.json not rewritten");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"frame hot path (crates/bench/benches/frame.rs)\",\n  \"note\": \"stages 2-4 (dechirp -> align -> doppler) of one ISAC frame, medians of {samples} runs after warm-up; serial = 1-thread pool (inline), pooled = min(cores, 8) threads; f32 = single-precision fast tier (biscatter_core::isac::precision) on the 1-thread pool, compared against serial f64. steady_state_allocs counted by a wrapping global allocator over one arena-path frame per tier; acceptance: 0 on both. f32_speedup target (>= 2.5x under avx2 dispatch) asserted here and by the dispatch-gated test crates/core/tests/frame_speedup.rs. bit_identical covers the f64 path only (serial vs pooled); the f32 tier is oracle-bounded instead (crates/core/tests/precision_oracle.rs).\",\n  {dispatch},\n  \"cores\": {cores},\n  \"pooled_threads\": {},\n  \"serial_frame_ns\": {:.0},\n  \"pooled_frame_ns\": {:.0},\n  \"speedup\": {speedup:.2},\n  \"serial_frame_f32_ns\": {:.0},\n  \"f32_speedup\": {f32_speedup:.2},\n  \"steady_state_allocs\": {steady_allocs},\n  \"steady_state_allocs_f32\": {steady_allocs_f32},\n  \"bit_identical\": true\n}}\n",
        pooled.threads(),
        serial_s * 1e9,
        pooled_s * 1e9,
        serial_f32_s * 1e9,
        dispatch = dispatch_json_fields(),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_frame.json"
    );
    std::fs::write(path, &json).expect("write BENCH_frame.json");
    println!("wrote {path}");
}

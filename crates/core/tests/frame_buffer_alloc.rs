//! One allocation per aligned frame buffer: every chirp's range profile
//! lands in one slab of rows, so the first front end into an empty
//! `AlignedFrame` allocates the same number of times whatever the frame's
//! length.
//!
//! The counter is thread-local and the one test runs its frames on a
//! 1-thread pool, on its own thread.

use biscatter_compute::ComputePool;
use biscatter_core::isac::{front_end_stage_into, synthesize_frame, warm_dsp_plans, IsacScenario};
use biscatter_core::obs::alloc::{counted, CountingAlloc};
use biscatter_core::radar::receiver::AlignedFrame;
use biscatter_core::system::BiScatterSystem;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one front end into an empty frame of `chirps` chirps,
/// after a warm-up frame of the same system on this thread.
fn empty_frame_allocs(pool: &ComputePool, chirps: usize) -> usize {
    let mut sys = BiScatterSystem::paper_9ghz();
    sys.frame_chirps = chirps;
    let scenario = IsacScenario::single_tag(3.0, 16.0 / (128.0 * 120e-6)).with_office_clutter();
    let synth = synthesize_frame(&sys, &scenario, b"CMD1", 7);
    warm_dsp_plans(&sys);
    let (train, scene) = (&synth.train, &synth.scene);
    front_end_stage_into(
        pool,
        &sys,
        train,
        scene,
        7,
        &mut AlignedFrame::<f64>::default(),
    );
    let mut frame = AlignedFrame::<f64>::default();
    let ((), allocs) = counted(|| {
        front_end_stage_into(pool, &sys, train, scene, 7, &mut frame);
    });
    assert_eq!(frame.n_chirps(), chirps);
    allocs
}

#[test]
fn empty_frame_allocates_the_same_at_32_and_128_chirps() {
    let pool = ComputePool::new(1);
    let short = empty_frame_allocs(&pool, 32);
    let long = empty_frame_allocs(&pool, 128);
    assert_eq!(short, long, "32 chirps: {short} allocations, 128: {long}");
    // The grid (built, then moved into its `Arc`), the slab's offsets
    // table and its cells.
    assert!(long <= 4, "{long} allocations for one frame buffer");
}

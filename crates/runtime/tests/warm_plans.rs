//! `warm_dsp_plans` warms every transform a frame runs: after it, a
//! `streaming_system` frame on the same thread builds no FFT plan. Each
//! chirp range-transforms at `transform_len(samples, n_fft)` (256, 512 and
//! 1,024 points for its 200–960-sample chirps at `n_fft` 256), not at
//! `n_fft` alone.
//!
//! Plan caches are per thread but `dsp.plan_cache.misses` counts every
//! thread's lookups, so this binary holds one test, and its frame runs on a
//! 1-thread pool on the test's own thread.

use biscatter_core::isac::{run_frame, warm_dsp_plans, FrameCtx};
use biscatter_core::obs::recorder::StageNanos;
use biscatter_runtime::compute::ComputePool;
use biscatter_runtime::obs::registry;
use biscatter_runtime::source::{streaming_system, WorkloadSpec};
use biscatter_runtime::PrecisionTier;

#[test]
fn warmed_thread_builds_no_plan_in_its_first_frame() {
    let sys = streaming_system();
    let job = WorkloadSpec::four_by_eight(1, 7).jobs(&sys).remove(0);
    let pool = ComputePool::new(1);
    let ctx = FrameCtx {
        pool: &pool,
        sys: &sys,
        tier: PrecisionTier::F64,
    };
    let misses = registry().counter("dsp.plan_cache.misses");
    warm_dsp_plans(&sys);
    let before = misses.get();
    let times = &mut StageNanos::default();
    run_frame(&ctx, &job.scenario, &job.payload, job.seed, times);
    assert_eq!(misses.get() - before, 0, "plans built inside the frame");
}

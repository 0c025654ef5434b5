//! Cold-start acquisition end-to-end: an unsynchronized tag's timing
//! offset and slope are recovered from the raw dwell before the aligned
//! frame runs, a noise-only dwell is rejected, and results are
//! deterministic and pool-size invariant.

use biscatter_compute::ComputePool;
use biscatter_core::isac::precision::PrecisionTier;
use biscatter_core::isac::{
    acquire_config, acquire_hypotheses, run_cold_start_frame, synthesize_cold_start_capture,
    ColdStartOutcome, ColdStartSpec, FrameCtx, IsacScenario,
};
use biscatter_core::obs::recorder::StageNanos;
use biscatter_core::system::BiScatterSystem;

/// One f64 cold-start frame on `pool`, on this thread's frame buffers.
fn cold_start(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    scenario: &IsacScenario,
    payload: &[u8],
    seed: u64,
) -> ColdStartOutcome {
    let ctx = FrameCtx {
        pool,
        sys,
        tier: PrecisionTier::F64,
    };
    run_cold_start_frame(&ctx, scenario, payload, seed, &mut StageNanos::default())
}

fn mod_freq(bin: usize) -> f64 {
    bin as f64 / (128.0 * 120e-6)
}

#[test]
fn cold_start_recovers_offset_and_slope_then_runs_frame() {
    let sys = BiScatterSystem::paper_9ghz();
    let cfg = acquire_config(&sys);
    let true_offset_s = 41.7e-6;
    let slope_idx = 2;
    let scenario =
        IsacScenario::single_tag(3.0, mod_freq(16)).with_cold_start(true_offset_s, slope_idx);

    let pool = ComputePool::new(1);
    let out = cold_start(&pool, &sys, &scenario, b"CMD1", 7);

    let acq = out.acquisition.expect("tag acquired");
    assert_eq!(acq.hypothesis, slope_idx, "wrong slope hypothesis won");
    let true_bin = (true_offset_s * cfg.sample_rate_hz).round() as usize % cfg.window;
    assert!(
        acq.offset_samples.abs_diff(true_bin) <= 1,
        "offset {} vs true {true_bin}",
        acq.offset_samples
    );
    assert!(
        (acq.offset_s - true_offset_s).abs() * cfg.sample_rate_hz < 1.5,
        "refined offset {} s vs true {true_offset_s} s",
        acq.offset_s
    );
    assert!(acq.pslr_db >= cfg.min_pslr_db);
    assert_eq!(out.scores.len(), acquire_hypotheses(&sys).len());

    // Acquisition hands off to the full aligned frame.
    let frame = out.frame.expect("aligned frame ran after acquisition");
    assert!(frame.downlink.parsed);
    let loc = frame.location.expect("tag located after acquisition");
    assert!((loc.range_m - 3.0).abs() < 0.10, "range {}", loc.range_m);
}

#[test]
fn noise_only_dwell_is_rejected() {
    let sys = BiScatterSystem::paper_9ghz();
    let mut scenario = IsacScenario::single_tag(3.0, mod_freq(16));
    scenario.cold_start = Some(ColdStartSpec {
        timing_offset_s: 41.7e-6,
        slope_idx: 2,
        tag_present: false,
    });

    let pool = ComputePool::new(1);
    let out = cold_start(&pool, &sys, &scenario, b"CMD1", 7);
    assert!(out.acquisition.is_none(), "noise-only dwell acquired");
    assert!(out.frame.is_none(), "frame ran without acquisition");
    assert!(!out.scores.is_empty(), "scores reported even on rejection");
}

#[test]
fn cold_start_is_deterministic_and_pool_invariant() {
    let sys = BiScatterSystem::paper_9ghz();
    let scenario = IsacScenario::single_tag(4.0, mod_freq(20)).with_cold_start(17.3e-6, 1);

    let serial = ComputePool::new(1);
    let wide = ComputePool::new(4);
    let a = cold_start(&serial, &sys, &scenario, b"GO", 11);
    let b = cold_start(&serial, &sys, &scenario, b"GO", 11);
    let c = cold_start(&wide, &sys, &scenario, b"GO", 11);
    assert_eq!(a, b, "same seed, same pool diverged");
    assert_eq!(a, c, "parallel acquisition differs from serial");
}

#[test]
fn capture_is_seeded_and_sized() {
    let sys = BiScatterSystem::paper_9ghz();
    let scenario = IsacScenario::single_tag(3.0, mod_freq(16)).with_cold_start(10e-6, 0);
    let cfg = acquire_config(&sys);
    let hyps = acquire_hypotheses(&sys);
    let max_m = hyps
        .iter()
        .map(|h| h.template_len(cfg.sample_rate_hz))
        .max()
        .unwrap();

    let mut x = Vec::new();
    let mut y = Vec::new();
    synthesize_cold_start_capture(&sys, &scenario, 5, &mut x);
    synthesize_cold_start_capture(&sys, &scenario, 5, &mut y);
    assert_eq!(x.len(), cfg.dwell_len(max_m));
    assert_eq!(x, y, "same seed produced different captures");
    synthesize_cold_start_capture(&sys, &scenario, 6, &mut y);
    assert_ne!(x, y, "different seeds produced identical captures");
}

#[test]
fn scenarios_without_cold_start_skip_acquisition() {
    let sys = BiScatterSystem::paper_9ghz();
    let scenario = IsacScenario::single_tag(3.0, mod_freq(16));
    let pool = ComputePool::new(1);
    let out = cold_start(&pool, &sys, &scenario, b"CMD1", 1);
    assert!(out.acquisition.is_none());
    assert!(out.scores.is_empty());
    assert!(out.frame.expect("plain frame ran").downlink.parsed);
}

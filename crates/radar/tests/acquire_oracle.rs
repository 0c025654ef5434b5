//! Accuracy contract for the acquisition correlator: the overlap-save FFT
//! path the bank runs must match a direct time-domain correlation oracle to
//! ≤ 1e-9, and the dispatch-routed kernels must make the whole acquisition
//! bit-identical across SIMD tiers.

use biscatter_compute::ComputePool;
use biscatter_dsp::dispatch::{avx2_available, force_tier, tier, SimdTier};
use biscatter_radar::receiver::acquire::{
    acquire_all, fft_correlate_into, naive_correlate_into, AcquireConfig, AcquireScratch,
    CorrelatorBank, SlopeHypothesis,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn overlap_add_matches_time_domain_oracle(
        tmpl_draw in prop::collection::vec(-10.0f64..10.0, 1..80),
        raw_draw in prop::collection::vec(-10.0f64..10.0, 80..400),
    ) {
        // The template is never longer than the dwell by construction
        // (1..80 vs 80..400), so every draw exercises the full block loop,
        // down to a last block zero-padded past the end of the dwell.
        let mut fft = Vec::new();
        let mut naive = Vec::new();
        fft_correlate_into(&tmpl_draw, &raw_draw, &mut fft);
        naive_correlate_into(&tmpl_draw, &raw_draw, &mut naive);
        prop_assert_eq!(fft.len(), naive.len());
        let scale: f64 = naive.iter().fold(0.0, |s, v| s.max(v.abs()));
        for (j, (a, b)) in fft.iter().zip(&naive).enumerate() {
            prop_assert!(
                (*a - *b).abs() <= 1e-9 * (1.0 + scale),
                "lag {}: fft {} vs oracle {}", j, a, b
            );
        }
    }
}

fn test_hypotheses() -> Vec<SlopeHypothesis> {
    (0..6)
        .map(|i| SlopeHypothesis {
            slope_hz_per_s: (2.0 + i as f64) * 1e10,
            duration_s: 40e-6,
        })
        .collect()
}

fn test_dwell(cfg: &AcquireConfig, hyps: &[SlopeHypothesis]) -> Vec<f64> {
    // Deterministic pseudo-noise plus the third hypothesis's chirp at a
    // known offset: enough structure for every scan to have real work.
    let max_m = hyps
        .iter()
        .map(|h| h.template_len(cfg.sample_rate_hz))
        .max()
        .unwrap();
    let mut raw: Vec<f64> = (0..cfg.dwell_len(max_m))
        .map(|i| {
            ((i as u64)
                .wrapping_mul(2862933555777941757)
                .wrapping_add(13)
                >> 33) as f64
                / 2_147_483_648.0
                - 0.5
        })
        .collect();
    let mut tmpl = Vec::new();
    hyps[2].fill_template(cfg.sample_rate_hz, &mut tmpl);
    let mut start = 137usize;
    while start + tmpl.len() <= raw.len() {
        for (i, &c) in tmpl.iter().enumerate() {
            raw[start + i] += 3.0 * c;
        }
        start += cfg.window;
    }
    raw
}

#[test]
fn acquisition_is_bit_identical_across_simd_tiers() {
    if !avx2_available() {
        eprintln!("skipping: AVX2 not available on this host");
        return;
    }
    let cfg = AcquireConfig {
        sample_rate_hz: 10e6,
        window: 600,
        n_windows: 4,
        ..AcquireConfig::default()
    };
    let hyps = test_hypotheses();
    let raw = test_dwell(&cfg, &hyps);
    let pool = ComputePool::new(1);

    let run = |t: SimdTier| {
        let before = tier();
        force_tier(t);
        let mut bank = CorrelatorBank::default();
        bank.set_hypotheses(&hyps);
        let mut scratch = AcquireScratch::default();
        let mut scores = Vec::new();
        let acq = acquire_all(&pool, &mut bank, &cfg, &raw, &mut scratch, &mut scores);
        force_tier(before);
        (acq, scores)
    };

    let (acq_s, scores_s) = run(SimdTier::Scalar);
    let (acq_v, scores_v) = run(SimdTier::Avx2);
    // PartialEq on f64 fields: exact bit comparison, not a tolerance.
    assert_eq!(acq_s, acq_v, "acquisition decision differs across tiers");
    assert_eq!(scores_s, scores_v, "hypothesis scores differ across tiers");
    assert!(acq_s.is_some(), "planted chirp not acquired");
    assert_eq!(acq_s.unwrap().hypothesis, 2, "wrong hypothesis won");
}

//! Fixed-seed acquisition behaviour at low SNR: the correlator bank must
//! pull the true timing offset and chirp slope out of a dwell whose
//! per-sample SNR is well below 0 dB, finishing the true slope's row; must
//! reject a noise-only dwell, finishing every row; and must be
//! bit-identical at any compute-pool width. The CI SIMD matrix runs this
//! file under both `BISCATTER_SIMD=auto` and `=scalar`.

use biscatter_compute::ComputePool;
use biscatter_dsp::signal::NoiseSource;
use biscatter_radar::receiver::acquire::{
    acquire_all, acquire_all_naive, AcquireConfig, AcquireScratch, CorrelatorBank, HypothesisScore,
    SlopeHypothesis,
};

const FS: f64 = 10e6;

fn bank_hypotheses() -> Vec<SlopeHypothesis> {
    // Four slope hypotheses over a shared 48 µs duration — the acquisition
    // analogue of four alphabet durations in the fs/4 sub-band.
    (0..4)
        .map(|i| SlopeHypothesis {
            slope_hz_per_s: (1.5 + 0.9 * i as f64) * 1e10,
            duration_s: 48e-6,
        })
        .collect()
}

fn cfg() -> AcquireConfig {
    AcquireConfig {
        sample_rate_hz: FS,
        window: 1200,
        n_windows: 8,
        ..AcquireConfig::default()
    }
}

/// A dwell with the chirp of `hyps[slope_idx]` at `offset` samples into
/// each window, buried in Gaussian noise of standard deviation `sigma`
/// (unit chirp amplitude: `sigma = 2` puts the per-sample SNR at −9 dB).
fn dwell(
    hyps: &[SlopeHypothesis],
    cfg: &AcquireConfig,
    slope_idx: Option<usize>,
    offset: usize,
    sigma: f64,
    seed: u64,
) -> Vec<f64> {
    let max_m = hyps.iter().map(|h| h.template_len(FS)).max().unwrap();
    let mut noise = NoiseSource::new(seed);
    let mut raw: Vec<f64> = (0..cfg.dwell_len(max_m))
        .map(|_| noise.gaussian() * sigma)
        .collect();
    if let Some(idx) = slope_idx {
        let mut tmpl = Vec::new();
        hyps[idx].fill_template(FS, &mut tmpl);
        let mut start = offset;
        while start + tmpl.len() <= raw.len() {
            for (i, &c) in tmpl.iter().enumerate() {
                raw[start + i] += c;
            }
            start += cfg.window;
        }
    }
    raw
}

#[test]
fn acquires_true_offset_and_slope_at_low_snr() {
    let hyps = bank_hypotheses();
    let cfg = cfg();
    let true_offset = 473usize;
    let true_slope = 1usize;
    // sigma = 2.0 with a unit-amplitude chirp: per-sample SNR ≈ −9 dB; only
    // the matched-filter gain plus 8-window integration makes this visible.
    let raw = dwell(&hyps, &cfg, Some(true_slope), true_offset, 2.0, 99);

    let pool = ComputePool::new(1);
    let mut bank = CorrelatorBank::default();
    bank.set_hypotheses(&hyps);
    let mut scratch = AcquireScratch::default();
    let mut scores = Vec::new();
    let acq = acquire_all(&pool, &mut bank, &cfg, &raw, &mut scratch, &mut scores)
        .expect("low-SNR chirp not acquired");
    assert_eq!(acq.hypothesis, true_slope, "wrong slope hypothesis");
    assert!(
        scores[true_slope].finished,
        "the winner's row was not finished"
    );
    assert!(
        acq.offset_samples.abs_diff(true_offset) <= 1,
        "offset {} vs true {true_offset}",
        acq.offset_samples
    );
    assert!(acq.pslr_db >= cfg.min_pslr_db);
}

#[test]
fn rejects_noise_only_dwell() {
    let hyps = bank_hypotheses();
    let cfg = cfg();
    let raw = dwell(&hyps, &cfg, None, 0, 2.0, 1234);

    let pool = ComputePool::new(1);
    let mut bank = CorrelatorBank::default();
    bank.set_hypotheses(&hyps);
    let mut scratch = AcquireScratch::default();
    let mut scores = Vec::new();
    let acq = acquire_all(&pool, &mut bank, &cfg, &raw, &mut scratch, &mut scores);
    assert!(acq.is_none(), "noise-only dwell acquired: {acq:?}");
    // The scoreboard still reports every hypothesis, below the gate; with
    // no row standing out after one window, every row was finished.
    assert_eq!(scores.len(), hyps.len());
    for s in &scores {
        assert!(
            s.pslr_db < cfg.min_pslr_db,
            "rejected but PSLR {}",
            s.pslr_db
        );
        assert!(s.finished, "a noise-only row was pruned: {s:?}");
    }
}

#[test]
fn parallel_acquisition_is_bit_identical_to_serial() {
    let hyps = bank_hypotheses();
    let cfg = cfg();
    let raw = dwell(&hyps, &cfg, Some(2), 801, 1.5, 7);

    let mut results = Vec::new();
    for threads in [1usize, 2, 4] {
        let pool = ComputePool::new(threads);
        let mut bank = CorrelatorBank::default();
        bank.set_hypotheses(&hyps);
        let mut scratch = AcquireScratch::default();
        let mut scores = Vec::new();
        let acq = acquire_all(&pool, &mut bank, &cfg, &raw, &mut scratch, &mut scores);
        results.push((acq, scores));
    }
    assert_eq!(results[0], results[1], "2-thread pool diverged from serial");
    assert_eq!(results[0], results[2], "4-thread pool diverged from serial");
    assert!(results[0].0.is_some());
}

#[test]
fn fft_bank_and_naive_baseline_reach_the_same_decision() {
    let hyps = bank_hypotheses();
    let cfg = cfg();
    let raw = dwell(&hyps, &cfg, Some(3), 222, 1.0, 55);

    let pool = ComputePool::new(1);
    let mut bank = CorrelatorBank::default();
    bank.set_hypotheses(&hyps);
    let mut scratch = AcquireScratch::default();
    let (mut fast_scores, mut slow_scores) = (Vec::new(), Vec::new());
    let fast = acquire_all(&pool, &mut bank, &cfg, &raw, &mut scratch, &mut fast_scores)
        .expect("fft bank acquired");
    let slow = acquire_all_naive(&mut bank, &cfg, &raw, &mut scratch, &mut slow_scores)
        .expect("naive baseline acquired");
    assert_eq!(fast.hypothesis, slow.hypothesis);
    assert_eq!(fast.offset_samples, slow.offset_samples);
    assert!((fast.pslr_db - slow.pslr_db).abs() < 1e-6);
    // Both engines run the same two stages, so they finish the same rows.
    let finished = |s: &[HypothesisScore]| s.iter().map(|s| s.finished).collect::<Vec<_>>();
    assert_eq!(finished(&fast_scores), finished(&slow_scores));
}

//! The correlator bank on the geometry `cold_start` runs: the streaming
//! system's bank of eight slope hypotheses with templates of 200 to 960
//! samples, folded over 8 slot-period windows of 1,200 samples in
//! 10,560-sample dwells. The bank correlates every hypothesis at the one
//! block length its longest template sets, so shorter templates share a
//! geometry sized for another; the acquisition suites in `biscatter-radar`
//! use banks of equal-length templates only.
//!
//! Both engines run the same two stages: every hypothesis over the first
//! window's lags, then the rest only for the hypotheses still in
//! contention. Over the dwells of `cold_start_jobs(&sys, 14, 42)` — two of
//! them noise-only — each engine must finish the same hypotheses; every
//! score (a finished row's over all windows, a pruned row's over stage 1)
//! must sit within 1e-9 relative of the naive time-domain oracle's with the
//! same offset bin, winner and verdict; and the scores must be
//! bit-identical across pool sizes and dispatch tiers. A noise-only dwell
//! finishes every hypothesis; an acquired one finishes fewer.

use biscatter_compute::ComputePool;
use biscatter_core::dsp::dispatch::{avx2_available, force_tier, tier, SimdTier};
use biscatter_core::isac::{acquire_config, acquire_hypotheses, synthesize_cold_start_capture};
use biscatter_core::radar::receiver::acquire::{
    acquire_all, acquire_all_naive, AcquireScratch, Acquisition, CorrelatorBank, HypothesisScore,
};
use biscatter_runtime::source::{cold_start_jobs, streaming_system};

/// Within 1e-9 relative.
fn rel(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Within 1e-9 relative, or 1e-9 absolute below 1: for the values derived
/// from the energies (a bin position, a ratio in dB) that may sit near 0.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn production_bank_matches_naive_oracle_across_pools_and_tiers() {
    let sys = streaming_system();
    let cfg = acquire_config(&sys);
    let hyps = acquire_hypotheses(&sys);
    let fs = cfg.sample_rate_hz;
    let lens: Vec<usize> = hyps.iter().map(|h| h.template_len(fs)).collect();
    assert_eq!(lens.len(), 8);
    assert_eq!(lens.iter().min(), Some(&200));
    assert_eq!(lens.iter().max(), Some(&960));
    assert_eq!((cfg.window, cfg.n_windows), (1200, 8));

    let jobs = cold_start_jobs(&sys, 14, 42);
    let noise_only = jobs
        .iter()
        .filter(|j| !j.scenario.cold_start.unwrap().tag_present)
        .count();
    assert_eq!(
        noise_only, 2,
        "the job list should hold two noise-only dwells"
    );

    let pools = [1, 2, 4].map(ComputePool::new);
    let mut tiers = vec![SimdTier::Scalar];
    if avx2_available() {
        tiers.push(SimdTier::Avx2);
    }
    let before = tier();
    let (mut raw, mut worst, mut acquired) = (Vec::new(), 0.0f64, 0);
    for job in &jobs {
        synthesize_cold_start_capture(&sys, &job.scenario, job.seed, &mut raw);
        assert_eq!(raw.len(), 10_560);

        let mut bank = CorrelatorBank::default();
        bank.set_hypotheses(&hyps);
        let mut oracle = Vec::new();
        let want = acquire_all_naive(
            &mut bank,
            &cfg,
            &raw,
            &mut AcquireScratch::default(),
            &mut oracle,
        );

        let mut runs: Vec<(Option<Acquisition>, Vec<HypothesisScore>)> = Vec::new();
        for &t in &tiers {
            force_tier(t);
            for pool in &pools {
                let mut scores = Vec::new();
                let got = acquire_all(
                    pool,
                    &mut bank,
                    &cfg,
                    &raw,
                    &mut AcquireScratch::default(),
                    &mut scores,
                );
                runs.push((got, scores));
            }
        }
        force_tier(before);

        let (got, scores) = &runs[0];
        for (i, run) in runs.iter().enumerate().skip(1) {
            // PartialEq on f64 fields: exact bit comparison.
            assert_eq!(run, &runs[0], "job {}: run {i} differs from run 0", job.id);
        }
        assert_eq!(scores.len(), oracle.len());
        for (h, (s, o)) in scores.iter().zip(&oracle).enumerate() {
            let ctx = format!("job {} hypothesis {h}: {s:?} vs oracle {o:?}", job.id);
            assert_eq!(s.finished, o.finished, "{ctx}");
            assert_eq!(s.offset_bin, o.offset_bin, "{ctx}");
            assert!(rel(s.peak_energy, o.peak_energy), "{ctx}");
            assert!(rel(s.sidelobe_energy, o.sidelobe_energy), "{ctx}");
            assert!(close(s.refined_bin, o.refined_bin), "{ctx}");
            assert!(close(s.pslr_db, o.pslr_db), "{ctx}");
            for (a, b) in [
                (s.peak_energy, o.peak_energy),
                (s.sidelobe_energy, o.sidelobe_energy),
            ] {
                worst = worst.max((a - b).abs() / b.abs().max(f64::MIN_POSITIVE));
            }
        }
        assert_eq!(
            got.map(|a| (a.hypothesis, a.offset_samples)),
            want.map(|a| (a.hypothesis, a.offset_samples)),
            "job {}: decision differs from the oracle's",
            job.id
        );
        let finished = scores.iter().filter(|s| s.finished).count();
        if job.scenario.cold_start.unwrap().tag_present {
            assert!(finished < scores.len(), "job {}: nothing pruned", job.id);
        } else {
            assert_eq!(finished, scores.len(), "job {}: noise pruned", job.id);
        }
        acquired += got.is_some() as usize;
    }
    eprintln!("worst relative energy difference from the oracle: {worst:.2e}");
    assert!(acquired > 0, "no dwell was acquired");
}

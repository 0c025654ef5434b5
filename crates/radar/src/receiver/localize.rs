//! Tag localization from the range–Doppler map (paper §3.3).
//!
//! The tag is found by its *modulation signature*: the radar knows (or
//! assigned) the tag's switch frequency, so it looks at the Doppler slice at
//! that frequency — where clutter and movers are absent — and takes the
//! range peak. A matched filter against the expected square-wave harmonic
//! signature (fundamental + weighted odd harmonics, the approach the paper
//! borrows from Millimetro) sharpens detection at low SNR, and parabolic
//! interpolation refines the peak to centimetre precision.

use super::doppler::RangeDopplerMap;
use biscatter_dsp::simd;
use biscatter_dsp::spectrum::{find_peak, noise_floor_inplace};
use std::cell::RefCell;

/// Square-wave harmonic signature: (harmonic multiple, weight) pairs in the
/// order the matched filter accumulates them — fundamental plus the 3rd and
/// 5th odd harmonics, weighted by the square wave's squared Fourier
/// coefficients. Shared with the multi-tag engine so both paths build the
/// identical template.
pub(crate) const SQUARE_WAVE_HARMONICS: [(f64, f64); 3] =
    [(1.0, 1.0), (3.0, 1.0 / 9.0), (5.0, 1.0 / 25.0)];

/// The result of locating a tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagLocation {
    /// Estimated range, metres.
    pub range_m: f64,
    /// Index of the range-grid peak.
    pub range_bin: usize,
    /// Peak power in the matched-filtered modulation slice.
    pub peak_power: f64,
    /// Estimated post-processing SNR of the tag signature, dB.
    pub snr_db: f64,
}

thread_local! {
    /// Per-thread banded-slice scratch shared by every harmonic of every
    /// call, so scoring allocates nothing in steady state.
    static BAND: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Per-thread score buffer for [`locate_tag`].
    static SCORE: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Matched-filter score across ranges for a tag at modulation frequency
/// `f_mod`, written into a caller-owned buffer (cleared and resized): sums
/// the map's power at the fundamental and the 3rd and 5th odd harmonics
/// (weights 1, 1/9, 1/25 — the squared Fourier coefficients of a square
/// wave). The banded Doppler slice for each harmonic goes through a
/// per-thread scratch vector, so repeated calls allocate nothing once warm;
/// each harmonic adds `w·band` through the weighted sum
/// [`biscatter_dsp::simd::tones_accum`], one row per pass (bit-identical
/// across dispatch tiers).
pub fn signature_score_into(map: &RangeDopplerMap, f_mod_hz: f64, score: &mut Vec<f64>) {
    let n_range = map.range_grid.len();
    score.clear();
    score.resize(n_range, 0.0);
    let nyquist = 0.5 / map.t_period;
    BAND.with(|b| {
        let mut band = b.borrow_mut();
        for (h, w) in SQUARE_WAVE_HARMONICS {
            let f = f_mod_hz * h;
            if f >= nyquist {
                break;
            }
            let bin = map.bin_for_freq(f);
            map.range_slice_banded_into(bin, 1, &mut band);
            simd::tones_accum(score, &[&band], &[w]);
        }
    });
}

/// Locates the tag with modulation frequency `f_mod_hz`. Returns `None` when
/// the signature peak does not clear `min_snr_db` above the slice's noise
/// floor (no tag present / out of range).
pub fn locate_tag(map: &RangeDopplerMap, f_mod_hz: f64, min_snr_db: f64) -> Option<TagLocation> {
    SCORE.with(|s| {
        let mut score = s.borrow_mut();
        signature_score_into(map, f_mod_hz, &mut score);
        let peak = find_peak(&score)?;
        // The score is this thread's scratch, rebuilt by every call, so the
        // floor's selection may reorder it.
        let floor = noise_floor_inplace(&mut score);
        location_from(map, peak, floor, min_snr_db)
    })
}

/// Turns a signature peak + noise floor into a [`TagLocation`], applying the
/// SNR gate. Shared by the sequential and batched paths so the acceptance
/// arithmetic is written exactly once.
pub(crate) fn location_from(
    map: &RangeDopplerMap,
    peak: biscatter_dsp::spectrum::Peak,
    floor: f64,
    min_snr_db: f64,
) -> Option<TagLocation> {
    let snr = if floor > 0.0 {
        10.0 * (peak.power / floor).log10()
    } else {
        f64::INFINITY
    };
    if snr < min_snr_db {
        return None;
    }
    let step = if map.range_grid.len() > 1 {
        map.range_grid[1] - map.range_grid[0]
    } else {
        0.0
    };
    Some(TagLocation {
        range_m: map.range_grid[0] + peak.refined_bin * step,
        range_bin: peak.bin,
        peak_power: peak.power,
        snr_db: snr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::doppler::range_doppler;

    /// Test-only allocating shim over [`signature_score_into`]. The
    /// production paths all use the `_into` variant with pooled buffers;
    /// this exists so assertions can hold an owned score vector.
    fn signature_score(map: &RangeDopplerMap, f_mod_hz: f64) -> Vec<f64> {
        let mut score = Vec::new();
        signature_score_into(map, f_mod_hz, &mut score);
        score
    }

    use crate::receiver::{align_frame, RxConfig};
    use biscatter_dsp::signal::NoiseSource;
    use biscatter_rf::chirp::Chirp;
    use biscatter_rf::frame::ChirpTrain;
    use biscatter_rf::if_gen::IfReceiver;
    use biscatter_rf::scene::{Scatterer, Scene};

    fn locate_in_scene(
        scene: &Scene,
        f_mod: f64,
        n_chirps: usize,
        noise_sigma: f64,
        seed: u64,
    ) -> Option<TagLocation> {
        let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); n_chirps];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let rx = IfReceiver {
            sample_rate_hz: 10e6,
            noise_sigma,
        };
        let mut noise = NoiseSource::new(seed);
        let if_data = rx.dechirp_train(&train, scene, 0.0, &mut noise);
        let cfg = RxConfig::default();
        let frame = align_frame(&cfg, &train, &if_data);
        let map = range_doppler(frame.comms());
        locate_tag(&map, f_mod, 12.0)
    }

    #[test]
    fn centimeter_accuracy_clean() {
        let f_mod = 16.0 / (128.0 * 120e-6);
        let true_range = 4.87;
        let scene = Scene::new()
            .with(Scatterer::clutter(2.0, 5.0))
            .with(Scatterer::tag(true_range, 1.0, f_mod));
        let loc = locate_in_scene(&scene, f_mod, 128, 0.001, 1).expect("tag found");
        assert!(
            (loc.range_m - true_range).abs() < 0.05,
            "range {} vs {true_range}",
            loc.range_m
        );
        assert!(loc.snr_db > 20.0);
    }

    #[test]
    fn finds_tag_among_strong_clutter() {
        let f_mod = 20.0 / (128.0 * 120e-6);
        let scene = Scene::new()
            .with(Scatterer::clutter(1.0, 20.0))
            .with(Scatterer::clutter(3.0, 15.0))
            .with(Scatterer::clutter(6.5, 10.0))
            .with(Scatterer::tag(5.0, 0.5, f_mod));
        let loc = locate_in_scene(&scene, f_mod, 128, 0.01, 2).expect("tag found");
        assert!((loc.range_m - 5.0).abs() < 0.1, "range {}", loc.range_m);
    }

    #[test]
    fn no_tag_returns_none() {
        let f_mod = 16.0 / (128.0 * 120e-6);
        let scene = Scene::new().with(Scatterer::clutter(2.0, 5.0));
        assert!(locate_in_scene(&scene, f_mod, 128, 0.01, 3).is_none());
    }

    #[test]
    fn two_tags_separated_by_mod_freq() {
        let f1 = 16.0 / (128.0 * 120e-6); // ~1042 Hz
        let f2 = 32.0 / (128.0 * 120e-6); // ~2083 Hz
        let scene = Scene::new()
            .with(Scatterer::tag(3.0, 1.0, f1))
            .with(Scatterer::tag(6.0, 1.0, f2));
        let l1 = locate_in_scene(&scene, f1, 128, 0.005, 4).expect("tag 1");
        let l2 = locate_in_scene(&scene, f2, 128, 0.005, 5).expect("tag 2");
        assert!((l1.range_m - 3.0).abs() < 0.1, "tag1 at {}", l1.range_m);
        assert!((l2.range_m - 6.0).abs() < 0.1, "tag2 at {}", l2.range_m);
    }

    #[test]
    fn signature_score_peaks_at_tag() {
        let f_mod = 16.0 / (128.0 * 120e-6);
        let scene = Scene::new().with(Scatterer::tag(4.0, 1.0, f_mod));
        let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); 128];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let rx = IfReceiver {
            sample_rate_hz: 10e6,
            noise_sigma: 0.001,
        };
        let mut noise = NoiseSource::new(6);
        let if_data = rx.dechirp_train(&train, &scene, 0.0, &mut noise);
        let frame = align_frame(&RxConfig::default(), &train, &if_data);
        let map = range_doppler(frame.comms());
        let score = signature_score(&map, f_mod);
        let best = score
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let r = map.range_grid[best];
        assert!((r - 4.0).abs() < 0.1, "score peak at {r}");
    }
}

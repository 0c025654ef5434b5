//! IF correction: the slope-varying range-profile alignment of paper §3.3.
//!
//! With CSSK, consecutive chirps have different slopes, so the same physical
//! range maps to a *different* IF frequency (and FFT bin) in every chirp
//! (eq. 3). Step one converts each chirp's bins to metres with that chirp's
//! own slope (`r = f_IF · c / 2α`); step two resamples every profile onto a
//! common uniform range grid by pairwise linear interpolation (eq. 15 and the
//! rescaling discussion), so slow-time processing sees a static world as
//! static.

use super::range_profile::bin_freq;
use biscatter_dsp::resample::{lerp_taps_into, Tap};
use biscatter_rf::chirp::Chirp;
use std::cell::RefCell;

/// The range (metres) of each half-spectrum bin for a given chirp, written
/// into a reusable buffer (cleared first).
pub fn bin_ranges_into(chirp: &Chirp, fs: f64, n_fft: usize, n_bins: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend((0..n_bins).map(|k| chirp.range_for_beat_freq(bin_freq(k, n_fft, fs))));
}

thread_local! {
    /// Per-thread scratch for the source bin-range axis, so deriving a
    /// shape's taps allocates nothing in steady state.
    static BIN_RANGES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The IF-correction taps of one chirp shape, into a reusable buffer
/// (cleared first): how each point of the common `grid` (metres) reads an
/// `n_bins`-bin half spectrum of `chirp`, whose bins map to metres through
/// [`bin_ranges_into`] with `n_fft`. Every chirp of a shape (with the same
/// profile length) reads its grid through the same taps, so a frame
/// derives them once per shape; [`apply_taps_into`] then resamples each
/// profile, interpolating its real and imaginary parts pairwise. The bin
/// ranges and the weights are f64 in either precision, each weight rounded
/// once into the sample type where it is applied.
///
/// [`apply_taps_into`]: biscatter_dsp::resample::apply_taps_into
pub fn range_taps_into(
    chirp: &Chirp,
    fs: f64,
    n_fft: usize,
    n_bins: usize,
    grid: &[f64],
    out: &mut Vec<Tap>,
) {
    BIN_RANGES.with(|src| {
        let mut src = src.borrow_mut();
        bin_ranges_into(chirp, fs, n_fft, n_bins, &mut src);
        lerp_taps_into(&src, grid, out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::RadarConfig;
    use crate::receiver::range_profile::{complex_profile, power_profile, transform_len};
    use biscatter_dsp::complex::{Complex, Cpx};
    use biscatter_dsp::resample::{apply_taps_into, linspace};
    use biscatter_dsp::signal::NoiseSource;
    use biscatter_dsp::spectrum::find_peak;
    use biscatter_dsp::Real;
    use biscatter_rf::if_gen::IfReceiver;
    use biscatter_rf::scene::{Scatterer, Scene};

    fn bin_ranges(chirp: &Chirp, fs: f64, n_fft: usize, n_bins: usize) -> Vec<f64> {
        let mut out = Vec::new();
        bin_ranges_into(chirp, fs, n_fft, n_bins, &mut out);
        out
    }

    fn to_range_grid(
        profile: &[Cpx],
        chirp: &Chirp,
        fs: f64,
        n_fft: usize,
        grid: &[f64],
    ) -> Vec<Cpx> {
        let mut taps = Vec::new();
        range_taps_into(chirp, fs, n_fft, profile.len(), grid, &mut taps);
        let mut out = vec![Cpx::ZERO; taps.len()];
        apply_taps_into(profile, &taps, &mut out);
        out
    }

    /// IF correction before per-shape taps, kept verbatim as their oracle:
    /// every profile maps its own bins to metres and sweeps the grid for
    /// its brackets and weights.
    fn to_range_grid_into<T: Real>(
        profile: &[Complex<T>],
        chirp: &Chirp,
        fs: f64,
        n_fft: usize,
        grid: &[f64],
        out: &mut Vec<Complex<T>>,
    ) {
        let mut src_grid = Vec::new();
        bin_ranges_into(chirp, fs, n_fft, profile.len(), &mut src_grid);
        let values = profile;
        out.clear();
        out.reserve(grid.len());
        if src_grid.is_empty() {
            out.resize(grid.len(), Complex::ZERO);
            return;
        }
        let n = src_grid.len();
        let mut i = 0usize;
        for &x in grid {
            while i > 0 && src_grid[i - 1] >= x {
                i -= 1;
            }
            while i < n && src_grid[i] < x {
                i += 1;
            }
            let v = if i == 0 {
                values[0]
            } else if i >= n {
                values[n - 1]
            } else if src_grid[i] == x {
                values[i]
            } else {
                let x0 = src_grid[i - 1];
                let x1 = src_grid[i];
                let t = T::from_f64((x - x0) / (x1 - x0));
                let (a, b) = (values[i - 1], values[i]);
                Complex::new(
                    a.re * (T::ONE - t) + b.re * t,
                    a.im * (T::ONE - t) + b.im * t,
                )
            };
            out.push(v);
        }
    }

    /// Per-shape taps against the per-profile correction, bit for bit, for
    /// every chirp of the 5-bit 9 GHz alphabet on the runtime's 256-bin
    /// grid and the default 1024-bin one (profile lengths as the range FFT
    /// makes them, the `n_fft` bin mapping included).
    fn taps_match_per_profile_correction<T: Real>() {
        let radar = RadarConfig::lmx2492_9ghz();
        let alphabet = radar.cssk_alphabet(5).unwrap();
        let fs = radar.if_sample_rate;
        let mut checked = 0;
        for (n_fft, n_grid) in [(256usize, 256usize), (1024, 1024)] {
            let grid = linspace(0.0, 15.0, n_grid);
            for &duration in alphabet.durations() {
                let chirp = Chirp::new(alphabet.f0, alphabet.bandwidth, duration);
                let n_bins = transform_len(chirp.if_samples(fs), n_fft) / 2 + 1;
                let mut taps = Vec::new();
                range_taps_into(&chirp, fs, n_fft, n_bins, &grid, &mut taps);
                for seed in 0..3u64 {
                    let mut noise = NoiseSource::new(seed);
                    let profile: Vec<Complex<T>> = (0..n_bins)
                        .map(|_| {
                            let z = Cpx::new(noise.gaussian(), noise.gaussian());
                            Complex::from_f64(z)
                        })
                        .collect();
                    let (mut got, mut want) = (vec![Complex::ZERO; taps.len()], Vec::new());
                    apply_taps_into(&profile, &taps, &mut got);
                    to_range_grid_into(&profile, &chirp, fs, n_fft, &grid, &mut want);
                    let bits = |v: &[Complex<T>]| -> Vec<(u64, u64)> {
                        v.iter()
                            .map(|z| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits()))
                            .collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "{duration} s, n_fft {n_fft}");
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 2 * 3 * alphabet.n_slopes());
    }

    #[test]
    fn taps_match_per_profile_correction_in_both_precisions() {
        taps_match_per_profile_correction::<f64>();
        taps_match_per_profile_correction::<f32>();
    }

    fn rx() -> IfReceiver {
        IfReceiver {
            sample_rate_hz: 10e6,
            noise_sigma: 0.0,
        }
    }

    #[test]
    fn bin_ranges_scale_with_slope() {
        let slow = Chirp::new(9e9, 1e9, 96e-6);
        let fast = Chirp::new(9e9, 1e9, 20e-6);
        let r_slow = bin_ranges(&slow, 2e6, 1024, 10);
        let r_fast = bin_ranges(&fast, 2e6, 1024, 10);
        // Same bin = same IF frequency = larger range for the *slower* slope.
        assert!(r_slow[5] > r_fast[5]);
        let ratio = r_slow[5] / r_fast[5];
        assert!((ratio - 96.0 / 20.0).abs() < 1e-9);
        assert_eq!(r_slow[0], 0.0);
    }

    #[test]
    fn correction_aligns_different_slopes() {
        // One static target seen through two very different slopes: after
        // correction, both profiles peak at the same grid range.
        let scene = Scene::new().with(Scatterer::clutter(5.0, 1.0));
        let grid = linspace(0.0, 15.0, 512);
        let mut noise = NoiseSource::new(1);
        let mut peaks = Vec::new();
        for dur in [96e-6, 48e-6, 20e-6] {
            let chirp = Chirp::new(9e9, 1e9, dur);
            let samples = rx().dechirp(&chirp, &scene, 0.0, &mut noise);
            let spec = complex_profile(&samples, 1024);
            let on_grid = to_range_grid(&spec, &chirp, 10e6, 1024, &grid);
            let power = power_profile(&on_grid);
            let peak = find_peak(&power).unwrap();
            let r = peak.refined_bin * (15.0 / 511.0);
            peaks.push(r);
        }
        for &r in &peaks {
            assert!((r - 5.0).abs() < 0.15, "peak at {r}, expected 5.0");
        }
        // And they agree with each other even more tightly.
        let spread = peaks.iter().cloned().fold(f64::MIN, f64::max)
            - peaks.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.08, "cross-slope spread {spread}");
    }

    #[test]
    fn uncorrected_bins_disagree() {
        // The same target lands in different *bins* for different slopes —
        // the Fig. 7(a) ambiguity this module exists to fix.
        let scene = Scene::new().with(Scatterer::clutter(5.0, 1.0));
        let mut noise = NoiseSource::new(2);
        let mut bins = Vec::new();
        for dur in [96e-6, 20e-6] {
            let chirp = Chirp::new(9e9, 1e9, dur);
            let samples = rx().dechirp(&chirp, &scene, 0.0, &mut noise);
            let power = power_profile(&complex_profile(&samples, 1024));
            bins.push(find_peak(&power).unwrap().bin);
        }
        assert!(
            bins[1] > bins[0] * 3,
            "fast chirp should push the target to a much higher bin: {bins:?}"
        );
    }

    #[test]
    fn correction_preserves_amplitude() {
        let scene = Scene::new().with(Scatterer::clutter(4.0, 1.0));
        let grid = linspace(0.0, 15.0, 1024);
        let mut noise = NoiseSource::new(3);
        let chirp = Chirp::new(9e9, 1e9, 96e-6);
        let samples = rx().dechirp(&chirp, &scene, 0.0, &mut noise);
        let spec = complex_profile(&samples, 1024);
        let raw_peak = find_peak(&power_profile(&spec)).unwrap().power;
        let on_grid = to_range_grid(&spec, &chirp, 10e6, 1024, &grid);
        let grid_peak = find_peak(&power_profile(&on_grid)).unwrap().power;
        assert!(
            (grid_peak / raw_peak - 1.0).abs() < 0.2,
            "amplitude shifted: {grid_peak} vs {raw_peak}"
        );
    }
}

//! Per-chirp range FFT.
//!
//! Each chirp's IF samples are Hann-windowed, zero-padded to the configured
//! FFT length, and transformed. The output is normalized by the *sample
//! count* (not the FFT length) and the window's coherent gain, so a target of
//! IF amplitude `A` reads `~A/2` regardless of chirp duration — essential
//! for CSSK frames where chirp lengths vary and any slope-correlated
//! amplitude ripple would masquerade as tag modulation in the Doppler domain.

use biscatter_dsp::complex::{Complex, Cpx};
use biscatter_dsp::fft::next_pow2;
use biscatter_dsp::planner::{with_planner, FftPlanner};
use biscatter_dsp::window::WindowKind;
use biscatter_dsp::Real;

/// Complex half-spectrum (bins `0..n_fft/2 + 1`) of one chirp's IF samples,
/// amplitude-normalized as described in the module docs.
///
/// Convenience wrapper over [`complex_profile_into`] on this thread's
/// planner that allocates the returned profile; frame loops should pass a
/// reusable buffer to the `_into` variant instead.
pub fn complex_profile<T: Real>(if_samples: &[T], n_fft: usize) -> Vec<Complex<T>> {
    let mut out = Vec::new();
    with_planner(|p| complex_profile_into(p, if_samples, n_fft, &mut out));
    out
}

/// [`complex_profile`] through the planner `p`, writing into a reusable
/// buffer (cleared and resized to `n_fft/2 + 1`).
///
/// The IF samples are real, so the transform runs the planner's packed
/// real-input plan (half the work of the complex FFT the seed used), with
/// the window coefficients and the padded buffer both coming from
/// thread-local caches — steady-state calls perform no allocation at all.
/// The window table and the normalization are evaluated in f64 and rounded
/// once into the sample precision.
pub fn complex_profile_into<T: Real>(
    p: &mut FftPlanner<T>,
    if_samples: &[T],
    n_fft: usize,
    out: &mut Vec<Complex<T>>,
) {
    let n = if_samples.len();
    let n_fft = transform_len(n, n_fft);
    if n == 0 {
        out.clear();
        out.resize(n_fft / 2 + 1, Complex::ZERO);
        return;
    }
    let win = WindowKind::Hann.cached(n);
    let norm = T::from_f64(1.0 / (n as f64 * win.coherent_gain));
    p.with_real_scratch(n_fft, |p, buf| {
        for ((b, &s), &w) in buf.iter_mut().zip(if_samples).zip(T::window(&win)) {
            *b = s * w;
        }
        p.rfft_half_into(buf, out);
        for z in out.iter_mut() {
            *z = z.scale(norm);
        }
    });
}

/// The length [`complex_profile_into`] transforms `n_samples` samples at:
/// `n_fft`, grown to the next power of two that holds them all. The profile
/// has `transform_len(..) / 2 + 1` bins.
pub fn transform_len(n_samples: usize, n_fft: usize) -> usize {
    next_pow2(n_fft.max(n_samples))
}

/// Power profile (|X|²) of the half spectrum.
pub fn power_profile(profile: &[Cpx]) -> Vec<f64> {
    profile.iter().map(|z| z.norm_sq()).collect()
}

/// Frequency of half-spectrum bin `k` for an `n_fft` transform at `fs`.
pub fn bin_freq(k: usize, n_fft: usize, fs: f64) -> f64 {
    k as f64 * fs / n_fft as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_dsp::signal::tone;
    use biscatter_dsp::spectrum::find_peak;

    #[test]
    fn tone_amplitude_normalized_across_lengths() {
        // The same-amplitude tone in chirps of different lengths must give
        // the same profile peak height.
        let fs = 2e6;
        let f = 300e3;
        let long = tone(192, f, fs, 1.0, 0.0);
        let short = tone(40, f, fs, 1.0, 0.0);
        let p_long = power_profile(&complex_profile(&long, 1024));
        let p_short = power_profile(&complex_profile(&short, 1024));
        let a = find_peak(&p_long).unwrap().power;
        let b = find_peak(&p_short).unwrap().power;
        assert!((a / b - 1.0).abs() < 0.05, "peaks differ: {a} vs {b}");
        // Absolute calibration: amplitude-1 real tone -> |X| = 0.5.
        assert!((a.sqrt() - 0.5).abs() < 0.05, "peak amp {}", a.sqrt());
    }

    #[test]
    fn peak_bin_matches_frequency() {
        let fs = 2e6;
        let f = 250e3;
        let x = tone(200, f, fs, 1.0, 0.0);
        let p = power_profile(&complex_profile(&x, 1024));
        let peak = find_peak(&p).unwrap();
        let f_est = bin_freq(1, 1024, fs) * peak.refined_bin;
        assert!((f_est - f).abs() < 3e3, "est {f_est}");
    }

    #[test]
    fn empty_input_gives_zero_profile() {
        let p = complex_profile::<f64>(&[], 256);
        assert_eq!(p.len(), 129);
        assert!(p.iter().all(|z| z.abs() == 0.0));
    }

    #[test]
    fn fft_length_expands_for_long_input() {
        // Input longer than n_fft: the transform grows instead of truncating.
        let x = tone(3000, 100e3, 2e6, 1.0, 0.0);
        let p = complex_profile(&x, 1024);
        assert_eq!(p.len(), 4096 / 2 + 1);
    }
}

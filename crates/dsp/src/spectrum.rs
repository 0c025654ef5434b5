//! Spectral estimation: periodograms, peak search with parabolic refinement,
//! and noise-floor estimation.
//!
//! These are the measurement primitives behind both ends of the link: the tag
//! finds its beat-frequency peak here, and the radar measures uplink SNR and
//! refines the tag's range bin to sub-bin (centimetre) precision with
//! [`parabolic_peak`].

use crate::fft::bin_to_freq;
use crate::planner::with_planner;
use crate::window::WindowKind;

/// One-sided power spectrum of a real signal, optionally windowed.
///
/// Returns `(freqs_hz, power)` with `n/2 + 1` points. Power is the squared
/// magnitude normalized by `N^2` and the window's coherent gain so that a
/// full-scale tone reads ~`0.25` (amplitude²/4) in its bin independent of
/// length.
pub fn periodogram(signal: &[f64], fs: f64, window: WindowKind) -> (Vec<f64>, Vec<f64>) {
    let n = signal.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let w = window.cached(n);
    let half = n / 2 + 1;
    let norm = 1.0 / (n as f64 * w.coherent_gain);
    // Windowed half-spectrum through the thread-local plan cache: the
    // windowed copy lives in planner scratch and the transform runs the
    // packed real-input plan, so repeated same-length calls don't allocate
    // working buffers.
    let power: Vec<f64> = with_planner(|p| {
        p.with_real_scratch(n, |p, buf| {
            for ((b, &s), &wi) in buf.iter_mut().zip(signal).zip(&w.coeffs) {
                *b = s * wi;
            }
            let mut spec = Vec::new();
            p.rfft_half_into(buf, &mut spec);
            spec.iter()
                .map(|z| {
                    let m = z.abs() * norm;
                    m * m
                })
                .collect()
        })
    });
    let freqs: Vec<f64> = (0..half).map(|k| bin_to_freq(k, n, fs)).collect();
    (freqs, power)
}

/// A detected spectral peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Integer bin index of the local maximum.
    pub bin: usize,
    /// Sub-bin refined position (fractional bins) from parabolic interpolation.
    pub refined_bin: f64,
    /// Power at the (interpolated) peak.
    pub power: f64,
}

/// Finds the strongest peak in `power`, refined with parabolic interpolation.
/// Returns `None` if the spectrum has fewer than 1 point.
pub fn find_peak(power: &[f64]) -> Option<Peak> {
    if power.is_empty() {
        return None;
    }
    let (bin, _) = power
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())?;
    Some(refine_peak(power, bin))
}

/// Finds all local maxima above `threshold`, each parabolic-refined, sorted
/// by descending power.
pub fn find_peaks_above(power: &[f64], threshold: f64) -> Vec<Peak> {
    let n = power.len();
    let mut peaks = Vec::new();
    for i in 0..n {
        let left = if i > 0 {
            power[i - 1]
        } else {
            f64::NEG_INFINITY
        };
        let right = if i + 1 < n {
            power[i + 1]
        } else {
            f64::NEG_INFINITY
        };
        if power[i] >= threshold && power[i] >= left && power[i] > right {
            peaks.push(refine_peak(power, i));
        }
    }
    peaks.sort_by(|a, b| b.power.partial_cmp(&a.power).unwrap());
    peaks
}

/// Parabolic (quadratic) interpolation of a peak at integer `bin`.
///
/// Fits a parabola through the peak bin and its neighbours; the refined
/// position is `bin + 0.5 (L - R) / (L - 2C + R)` where `L,C,R` are the
/// neighbouring powers. At array edges the integer bin is returned as-is.
pub fn parabolic_peak(power: &[f64], bin: usize) -> (f64, f64) {
    let p = refine_peak(power, bin);
    (p.refined_bin, p.power)
}

fn refine_peak(power: &[f64], bin: usize) -> Peak {
    let n = power.len();
    if bin == 0 || bin + 1 >= n {
        return Peak {
            bin,
            refined_bin: bin as f64,
            power: power[bin],
        };
    }
    let l = power[bin - 1];
    let c = power[bin];
    let r = power[bin + 1];
    let denom = l - 2.0 * c + r;
    if denom.abs() < 1e-300 {
        return Peak {
            bin,
            refined_bin: bin as f64,
            power: c,
        };
    }
    let delta = 0.5 * (l - r) / denom;
    let delta = delta.clamp(-0.5, 0.5);
    let p = c - 0.25 * (l - r) * delta;
    Peak {
        bin,
        refined_bin: bin as f64 + delta,
        power: p,
    }
}

/// Median-based noise-floor estimate of a power spectrum.
///
/// The median is robust to a small number of strong peaks; for a chi-squared
/// (2 dof) noise spectrum the median underestimates the mean by `ln 2`, which
/// is corrected here.
pub fn noise_floor(power: &[f64]) -> f64 {
    if power.is_empty() {
        return 0.0;
    }
    let mut sorted = power.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        0.5 * (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2])
    };
    median / std::f64::consts::LN_2
}

/// [`noise_floor`] computed destructively in O(n) via selection instead of a
/// full sort. Returns the exact same value as `noise_floor` on the same data
/// (the selected order statistics are identical), but permutes `power`, so
/// it is meant for scratch buffers the caller owns — the batched multi-tag
/// detector runs it on its per-tag score rows after the peak is extracted.
pub fn noise_floor_inplace(power: &mut [f64]) -> f64 {
    if power.is_empty() {
        return 0.0;
    }
    let n = power.len();
    let mid = n / 2;
    let (below, upper, _) = power.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).unwrap());
    let median = if n % 2 == 1 {
        *upper
    } else {
        // Even length: the lower middle is the max of the left partition.
        let lower = below.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        0.5 * (lower + *upper)
    };
    median / std::f64::consts::LN_2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TAU;

    fn tone(n: usize, f: f64, fs: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (TAU * f * i as f64 / fs).cos())
            .collect()
    }

    #[test]
    fn periodogram_peak_at_tone() {
        let fs = 1000.0;
        let n = 1024;
        let x = tone(n, 125.0, fs, 1.0);
        let (freqs, power) = periodogram(&x, fs, WindowKind::Hann);
        let p = find_peak(&power).unwrap();
        let f_est = freqs[1] * p.refined_bin;
        assert!((f_est - 125.0).abs() < 0.5, "estimated {f_est}");
    }

    #[test]
    fn periodogram_amplitude_calibrated() {
        // Bin-centered tone of amplitude A should read A^2/4 in its bin.
        let fs = 1024.0;
        let n = 1024;
        let x = tone(n, 128.0, fs, 2.0);
        let (_, power) = periodogram(&x, fs, WindowKind::Rect);
        let p = find_peak(&power).unwrap();
        assert!((p.power - 1.0).abs() < 1e-6, "got {}", p.power);
    }

    #[test]
    fn periodogram_empty() {
        let (f, p) = periodogram(&[], 100.0, WindowKind::Hann);
        assert!(f.is_empty() && p.is_empty());
    }

    #[test]
    fn parabolic_refines_off_bin_tone() {
        let fs = 1000.0;
        let n = 512;
        // Tone between bins: 100.7 Hz with bin spacing ~1.95 Hz.
        let x = tone(n, 100.7, fs, 1.0);
        let (freqs, power) = periodogram(&x, fs, WindowKind::Hann);
        let p = find_peak(&power).unwrap();
        let df = freqs[1];
        let f_est = p.refined_bin * df;
        assert!(
            (f_est - 100.7).abs() < 0.3,
            "refined estimate {f_est} too far"
        );
        // The refinement must beat the raw bin.
        let f_raw = p.bin as f64 * df;
        assert!((f_est - 100.7).abs() <= (f_raw - 100.7).abs() + 1e-12);
    }

    #[test]
    fn find_peaks_above_orders_by_power() {
        let mut power = vec![0.1; 64];
        power[10] = 3.0;
        power[30] = 7.0;
        power[55] = 1.0;
        let peaks = find_peaks_above(&power, 0.5);
        assert_eq!(peaks.len(), 3);
        assert_eq!(peaks[0].bin, 30);
        assert_eq!(peaks[1].bin, 10);
        assert_eq!(peaks[2].bin, 55);
    }

    #[test]
    fn peak_at_edge_not_refined() {
        let power = vec![5.0, 1.0, 0.5];
        let p = find_peak(&power).unwrap();
        assert_eq!(p.bin, 0);
        assert_eq!(p.refined_bin, 0.0);
    }

    #[test]
    fn noise_floor_of_flat_spectrum() {
        let power = vec![2.0; 101];
        let nf = noise_floor(&power);
        // Median = 2.0, corrected by ln2.
        assert!((nf - 2.0 / std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn noise_floor_robust_to_peaks() {
        let mut power = vec![1.0; 1000];
        power[500] = 1e9; // one huge peak shouldn't move the floor much
        let nf = noise_floor(&power);
        assert!(nf < 2.0);
    }

    #[test]
    fn empty_spectrum_helpers() {
        assert!(find_peak(&[]).is_none());
        assert_eq!(noise_floor(&[]), 0.0);
        assert_eq!(noise_floor_inplace(&mut []), 0.0);
    }

    #[test]
    fn noise_floor_inplace_matches_sorted_version() {
        // Pseudo-random power values, both parities, including duplicates.
        for n in [1usize, 2, 3, 7, 8, 100, 101, 1024] {
            let power: Vec<f64> = (0..n)
                .map(|i| {
                    let v = ((i as f64 * 12.9898).sin() * 43758.5453).fract().abs();
                    if i % 7 == 0 {
                        0.25
                    } else {
                        v
                    }
                })
                .collect();
            let mut scratch = power.clone();
            let selected = noise_floor_inplace(&mut scratch);
            let sorted = noise_floor(&power);
            assert_eq!(selected.to_bits(), sorted.to_bits(), "n={n}");
        }
    }
}

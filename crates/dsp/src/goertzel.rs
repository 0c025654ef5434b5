//! Goertzel algorithm: single-bin DFT evaluation.
//!
//! The paper (§3.2.2, §4.1) proposes the Goertzel filter as the low-power
//! alternative to a full FFT on the tag's MCU — the decoder only needs the
//! energy at the handful of beat frequencies corresponding to the CSSK symbol
//! alphabet, not the whole spectrum. This module provides:
//!
//! * [`goertzel_power`] — one-shot power at an arbitrary (fractional-bin)
//!   frequency,
//! * [`GoertzelCoeffs`] — the cacheable coefficients and stateless passes
//!   over them, including the fused mean-removal + window + filter kernel
//!   the tag's symbol decisions run four candidates at a time,
//! * [`Goertzel`] — a streaming evaluator fed sample by sample.

use crate::TAU;

/// Precomputed Goertzel recurrence coefficients for one normalized
/// frequency — the cacheable part of the filter. A [`Goertzel`] evaluator
/// pays the three trig calls on every construction; detection paths that
/// evaluate the same frequency for every bit window of every frame (the
/// radar's multi-tag uplink decoder) compute a `GoertzelCoeffs` once per
/// tag and run the stateless [`GoertzelCoeffs::power_shifted`] per window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoertzelCoeffs {
    pub(crate) coeff: f64,
    pub(crate) cos_w: f64,
    pub(crate) sin_w: f64,
}

impl GoertzelCoeffs {
    /// Coefficients for normalized frequency `f_norm = f / fs` (cycles per
    /// sample). Same convention as [`Goertzel::new`].
    pub fn new(f_norm: f64) -> Self {
        let w = TAU * f_norm;
        GoertzelCoeffs {
            coeff: 2.0 * w.cos(),
            cos_w: w.cos(),
            sin_w: w.sin(),
        }
    }

    /// Spectral power of `samples` with `shift` subtracted from every
    /// sample, without materializing the shifted sequence. Each recurrence
    /// step consumes `x - shift`, so the result is bit-identical to copying
    /// the samples into a scratch buffer, subtracting, and running the
    /// plain filter — with zero allocation and a single pass.
    pub fn power_shifted(&self, samples: &[f64], shift: f64) -> f64 {
        let (mut s1, mut s2) = (0.0f64, 0.0f64);
        for &x in samples {
            let s0 = (x - shift) + self.coeff * s1 - s2;
            s2 = s1;
            s1 = s0;
        }
        let re = s1 * self.cos_w - s2;
        let im = s1 * self.sin_w;
        re * re + im * im
    }
}

/// Streaming Goertzel evaluator for a single frequency.
///
/// Feed samples with [`Goertzel::push`]; read the spectral power for the
/// samples seen so far with [`Goertzel::power`]. The frequency is specified
/// as a *normalized* frequency `f/fs` in cycles/sample, so the evaluator is
/// sample-rate agnostic and supports fractional bins.
#[derive(Debug, Clone)]
pub struct Goertzel {
    coeff: f64,
    cos_w: f64,
    sin_w: f64,
    s1: f64,
    s2: f64,
}

impl Goertzel {
    /// Creates an evaluator for normalized frequency `f_norm = f / fs`
    /// (cycles per sample, typically in `[0, 0.5]`).
    pub fn new(f_norm: f64) -> Self {
        let w = TAU * f_norm;
        Goertzel {
            coeff: 2.0 * w.cos(),
            cos_w: w.cos(),
            sin_w: w.sin(),
            s1: 0.0,
            s2: 0.0,
        }
    }

    /// Processes one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        let s0 = x + self.coeff * self.s1 - self.s2;
        self.s2 = self.s1;
        self.s1 = s0;
    }

    /// DFT coefficient (complex) for the samples processed so far.
    pub fn dft(&self) -> (f64, f64) {
        let re = self.s1 * self.cos_w - self.s2;
        let im = self.s1 * self.sin_w;
        (re, im)
    }

    /// Spectral power `|X(f)|^2` for the samples processed so far.
    pub fn power(&self) -> f64 {
        let (re, im) = self.dft();
        re * re + im * im
    }
}

/// One-shot spectral power of `samples` at normalized frequency `f_norm`.
///
/// # Examples
///
/// ```
/// use biscatter_dsp::goertzel::goertzel_power;
///
/// let tone: Vec<f64> = (0..128)
///     .map(|i| (std::f64::consts::TAU * 8.0 * i as f64 / 128.0).cos())
///     .collect();
/// // Power concentrates at bin 8, not bin 20.
/// assert!(goertzel_power(&tone, 8.0 / 128.0) > 100.0 * goertzel_power(&tone, 20.0 / 128.0));
/// ```
pub fn goertzel_power(samples: &[f64], f_norm: f64) -> f64 {
    let mut g = Goertzel::new(f_norm);
    for &x in samples {
        g.push(x);
    }
    g.power()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::rfft;

    fn tone(n: usize, cycles: f64, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (TAU * cycles * i as f64 / n as f64 + phase).cos())
            .collect()
    }

    #[test]
    fn goertzel_matches_fft_bin() {
        let n = 128;
        let x = tone(n, 7.0, 0.3);
        let spec = rfft(&x);
        for k in [0usize, 3, 7, 20, 63] {
            let g = goertzel_power(&x, k as f64 / n as f64);
            let f = spec[k].norm_sq();
            assert!(
                (g - f).abs() < 1e-6 * (1.0 + f),
                "bin {k}: goertzel {g} vs fft {f}"
            );
        }
    }

    #[test]
    fn detects_tone_frequency() {
        let n = 256;
        let x = tone(n, 19.0, 1.1);
        let mut best = (0, 0.0);
        for k in 1..n / 2 {
            let p = goertzel_power(&x, k as f64 / n as f64);
            if p > best.1 {
                best = (k, p);
            }
        }
        assert_eq!(best.0, 19);
    }

    #[test]
    fn fractional_bin_peak() {
        // Tone at 10.5 cycles/window: power at 10.5 must beat 10 and 11.
        let n = 256;
        let x = tone(n, 10.5, 0.0);
        let p_frac = goertzel_power(&x, 10.5 / n as f64);
        let p10 = goertzel_power(&x, 10.0 / n as f64);
        let p11 = goertzel_power(&x, 11.0 / n as f64);
        assert!(p_frac > p10 && p_frac > p11);
    }

    #[test]
    fn coeffs_match_streaming_evaluator() {
        let f_norm = 0.173;
        let x: Vec<f64> = (0..200)
            .map(|i| (TAU * f_norm * i as f64).cos() + 0.3)
            .collect();
        let mut g = Goertzel::new(f_norm);
        for &s in &x {
            g.push(s);
        }
        let c = GoertzelCoeffs::new(f_norm);
        assert_eq!(c.power_shifted(&x, 0.0).to_bits(), g.power().to_bits());
    }

    #[test]
    fn dc_fold_matches_subtract_then_filter() {
        // The uplink demodulator's DC removal: shifting by the window mean
        // inside the recurrence equals filtering the materialized `x - mean`.
        let f_norm = 0.11;
        let x: Vec<f64> = (0..64)
            .map(|i| (TAU * f_norm * i as f64).sin() * 0.7 + 2.5)
            .collect();
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let shifted: Vec<f64> = x.iter().map(|&v| v - mean).collect();
        let folded = GoertzelCoeffs::new(f_norm).power_shifted(&x, mean);
        let materialized = goertzel_power(&shifted, f_norm);
        assert_eq!(folded.to_bits(), materialized.to_bits());
    }

    #[test]
    fn dc_fold_empty_window_is_zero() {
        // An empty window's mean (0 / 0) is NaN; no recurrence step
        // consumes it.
        assert_eq!(GoertzelCoeffs::new(0.1).power_shifted(&[], f64::NAN), 0.0);
    }
}

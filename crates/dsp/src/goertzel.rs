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
//! * [`Goertzel`] — a streaming evaluator fed sample by sample,
//! * [`SlidingGoertzel`] — the sliding variant (Chicharo & Kilani 1996, cited
//!   by the paper) that updates a DFT bin as the window slides one sample,
//! * [`GoertzelBank`] — a bank of evaluators, one per symbol frequency, which
//!   is exactly the structure a BiScatter tag MCU would run.

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

    /// Spectral power of `samples` at this frequency.
    pub fn power(&self, samples: &[f64]) -> f64 {
        self.power_shifted(samples, 0.0)
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

/// Spectral power of `samples` at `f_norm` with the window mean removed —
/// the decision metric of the uplink demodulator (the subcarrier rides on a
/// DC amplitude level). Folds mean removal into the Goertzel pass instead
/// of allocating a mean-subtracted copy; the mean is accumulated in the
/// same left-to-right order as `iter().sum()`, so results are bit-identical
/// to the subtract-then-filter formulation.
pub fn goertzel_power_dc_removed(samples: &[f64], f_norm: f64) -> f64 {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    GoertzelCoeffs::new(f_norm).power_shifted(samples, mean)
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
    n: usize,
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
            n: 0,
        }
    }

    /// Processes one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        let s0 = x + self.coeff * self.s1 - self.s2;
        self.s2 = self.s1;
        self.s1 = s0;
        self.n += 1;
    }

    /// Number of samples processed.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true if no samples have been processed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
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

    /// Spectral magnitude `|X(f)|`.
    pub fn magnitude(&self) -> f64 {
        self.power().sqrt()
    }

    /// Resets the internal state so the evaluator can be reused.
    pub fn reset(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
        self.n = 0;
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

/// One-shot spectral magnitude of `samples` at normalized frequency `f_norm`.
pub fn goertzel_magnitude(samples: &[f64], f_norm: f64) -> f64 {
    goertzel_power(samples, f_norm).sqrt()
}

/// Sliding Goertzel: maintains the DFT bin of the most recent `window`
/// samples, updated in O(1) per new sample.
///
/// The sliding DFT recurrence is
/// `X_new = (X_old + x_in - x_out) * e^{i w}` for bin frequency `w` that is an
/// integer number of cycles per window; this struct restricts the frequency to
/// an exact bin `k / window` for that reason.
#[derive(Debug, Clone)]
pub struct SlidingGoertzel {
    window: usize,
    rot_re: f64,
    rot_im: f64,
    x_re: f64,
    x_im: f64,
    buf: Vec<f64>,
    pos: usize,
    filled: usize,
}

impl SlidingGoertzel {
    /// Creates a sliding evaluator for bin `k` of a `window`-sample DFT.
    ///
    /// # Panics
    /// Panics if `window == 0` or `k >= window`.
    pub fn new(window: usize, k: usize) -> Self {
        assert!(window > 0, "window must be nonzero");
        assert!(k < window, "bin {k} out of range for window {window}");
        let w = TAU * k as f64 / window as f64;
        SlidingGoertzel {
            window,
            rot_re: w.cos(),
            rot_im: w.sin(),
            x_re: 0.0,
            x_im: 0.0,
            buf: vec![0.0; window],
            pos: 0,
            filled: 0,
        }
    }

    /// Slides the window forward by one sample.
    pub fn push(&mut self, x_in: f64) {
        let x_out = self.buf[self.pos];
        self.buf[self.pos] = x_in;
        self.pos = (self.pos + 1) % self.window;
        if self.filled < self.window {
            self.filled += 1;
        }
        let re = self.x_re + x_in - x_out;
        let im = self.x_im;
        // Multiply by e^{i w}.
        self.x_re = re * self.rot_re - im * self.rot_im;
        self.x_im = re * self.rot_im + im * self.rot_re;
    }

    /// True once a full window of samples has been seen.
    pub fn ready(&self) -> bool {
        self.filled == self.window
    }

    /// Power of the bin over the current window contents.
    pub fn power(&self) -> f64 {
        self.x_re * self.x_re + self.x_im * self.x_im
    }
}

/// A bank of Goertzel evaluators, one per candidate frequency — the tag's
/// low-power replacement for a full FFT over the symbol alphabet.
#[derive(Debug, Clone)]
pub struct GoertzelBank {
    filters: Vec<Goertzel>,
    freqs: Vec<f64>,
}

impl GoertzelBank {
    /// Creates a bank for the given normalized frequencies (`f/fs`).
    pub fn new(freqs_norm: &[f64]) -> Self {
        GoertzelBank {
            filters: freqs_norm.iter().map(|&f| Goertzel::new(f)).collect(),
            freqs: freqs_norm.to_vec(),
        }
    }

    /// Number of frequencies in the bank.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// True if the bank has no filters.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Processes a block of samples through every filter.
    pub fn process(&mut self, samples: &[f64]) {
        for &x in samples {
            for g in &mut self.filters {
                g.push(x);
            }
        }
    }

    /// Powers of all bins, in the order the frequencies were given.
    pub fn powers(&self) -> Vec<f64> {
        self.filters.iter().map(|g| g.power()).collect()
    }

    /// Index and normalized frequency of the strongest bin.
    /// Returns `None` for an empty bank.
    pub fn argmax(&self) -> Option<(usize, f64)> {
        let powers = self.powers();
        let (idx, _) = powers
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())?;
        Some((idx, self.freqs[idx]))
    }

    /// Resets every filter for the next symbol window.
    pub fn reset(&mut self) {
        for g in &mut self.filters {
            g.reset();
        }
    }
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
    fn reset_clears_state() {
        let mut g = Goertzel::new(0.1);
        g.push(1.0);
        g.push(-0.5);
        g.reset();
        assert!(g.is_empty());
        assert_eq!(g.power(), 0.0);
    }

    #[test]
    fn sliding_matches_block_after_fill() {
        let n = 64;
        let k = 5;
        let total = 3 * n;
        let x: Vec<f64> = (0..total)
            .map(|i| (TAU * 0.07 * i as f64).sin() + 0.3 * (TAU * 0.19 * i as f64).cos())
            .collect();
        let mut sg = SlidingGoertzel::new(n, k);
        for &v in &x {
            sg.push(v);
        }
        assert!(sg.ready());
        // Compare against block Goertzel on the last n samples.
        let tail = &x[total - n..];
        let block = goertzel_power(tail, k as f64 / n as f64);
        let sliding = sg.power();
        assert!(
            (block - sliding).abs() < 1e-6 * (1.0 + block),
            "block {block} vs sliding {sliding}"
        );
    }

    #[test]
    fn sliding_not_ready_before_fill() {
        let mut sg = SlidingGoertzel::new(16, 2);
        for i in 0..15 {
            sg.push(i as f64);
            assert!(!sg.ready());
        }
        sg.push(15.0);
        assert!(sg.ready());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sliding_rejects_bad_bin() {
        SlidingGoertzel::new(8, 8);
    }

    #[test]
    fn bank_picks_correct_symbol() {
        let n = 512;
        let fs = 1.0;
        let freqs: Vec<f64> = (1..=8).map(|k| 0.02 * k as f64).collect();
        // Signal at the 5th frequency (index 4).
        let f_sig = freqs[4];
        let x: Vec<f64> = (0..n)
            .map(|i| (TAU * f_sig / fs * i as f64).cos())
            .collect();
        let mut bank = GoertzelBank::new(&freqs);
        bank.process(&x);
        let (idx, f) = bank.argmax().unwrap();
        assert_eq!(idx, 4);
        assert_eq!(f, f_sig);
    }

    #[test]
    fn bank_reset_reuses() {
        let freqs = [0.1, 0.2];
        let mut bank = GoertzelBank::new(&freqs);
        let x1: Vec<f64> = (0..128).map(|i| (TAU * 0.1 * i as f64).cos()).collect();
        bank.process(&x1);
        assert_eq!(bank.argmax().unwrap().0, 0);
        bank.reset();
        let x2: Vec<f64> = (0..128).map(|i| (TAU * 0.2 * i as f64).cos()).collect();
        bank.process(&x2);
        assert_eq!(bank.argmax().unwrap().0, 1);
    }

    #[test]
    fn empty_bank() {
        let bank = GoertzelBank::new(&[]);
        assert!(bank.is_empty());
        assert!(bank.argmax().is_none());
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
        assert_eq!(c.power(&x).to_bits(), g.power().to_bits());
    }

    #[test]
    fn dc_fold_matches_subtract_then_filter() {
        let f_norm = 0.11;
        let x: Vec<f64> = (0..64)
            .map(|i| (TAU * f_norm * i as f64).sin() * 0.7 + 2.5)
            .collect();
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let shifted: Vec<f64> = x.iter().map(|&v| v - mean).collect();
        let folded = goertzel_power_dc_removed(&x, f_norm);
        let materialized = goertzel_power(&shifted, f_norm);
        assert_eq!(folded.to_bits(), materialized.to_bits());
    }

    #[test]
    fn dc_fold_empty_window_is_zero() {
        assert_eq!(goertzel_power_dc_removed(&[], 0.1), 0.0);
    }
}

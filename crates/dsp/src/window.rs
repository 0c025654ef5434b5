//! Window functions for spectral analysis.
//!
//! The tag decoder applies a window before its per-bit FFT/Goertzel stage to
//! control spectral leakage between adjacent CSSK beat frequencies; the radar
//! receiver windows chirps before the range FFT. All windows are returned as
//! owned `Vec<f64>` of the requested length using the *periodic* convention
//! unless stated otherwise (suitable for FFT analysis).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// All-ones window (no tapering).
    Rect,
    /// Hann (raised cosine) window.
    Hann,
    /// Hamming window.
    Hamming,
    /// Blackman window.
    Blackman,
    /// 4-term Blackman–Harris window (very low sidelobes).
    BlackmanHarris,
    /// Flat-top window (accurate amplitude estimates).
    FlatTop,
}

impl WindowKind {
    /// Generates the window coefficients for length `n`.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        match self {
            WindowKind::Rect => vec![1.0; n],
            WindowKind::Hann => cosine_window(n, &[0.5, 0.5]),
            WindowKind::Hamming => cosine_window(n, &[0.54, 0.46]),
            WindowKind::Blackman => cosine_window(n, &[0.42, 0.5, 0.08]),
            WindowKind::BlackmanHarris => cosine_window(n, &[0.35875, 0.48829, 0.14128, 0.01168]),
            WindowKind::FlatTop => cosine_window(
                n,
                &[
                    0.21557895,
                    0.41663158,
                    0.277263158,
                    0.083578947,
                    0.006947368,
                ],
            ),
        }
    }

    /// Coherent gain: mean of the window coefficients. Dividing a windowed
    /// FFT peak by `n * coherent_gain` recovers the tone amplitude.
    pub fn coherent_gain(self, n: usize) -> f64 {
        let w = self.coefficients(n);
        w.iter().sum::<f64>() / n as f64
    }

    /// Equivalent noise bandwidth in bins: `n * sum(w^2) / sum(w)^2`.
    pub fn enbw_bins(self, n: usize) -> f64 {
        let w = self.coefficients(n);
        let s1: f64 = w.iter().sum();
        let s2: f64 = w.iter().map(|x| x * x).sum();
        n as f64 * s2 / (s1 * s1)
    }

    /// The coefficients and coherent gain for `(self, n)` from a
    /// thread-local cache. Per-chirp processing windows the same length
    /// hundreds of times per frame; the cache turns each repeat into a hash
    /// lookup and an [`Rc`] clone.
    pub fn cached(self, n: usize) -> Rc<CachedWindow> {
        thread_local! {
            static CACHE: RefCell<HashMap<(WindowKind, usize), Rc<CachedWindow>>> =
                RefCell::new(HashMap::new());
        }
        CACHE.with(|c| {
            Rc::clone(
                c.borrow_mut()
                    .entry((self, n))
                    .or_insert_with(|| Rc::new(CachedWindow::new(self, n))),
            )
        })
    }
}

/// A window's coefficients plus the derived scalars spectral code needs,
/// computed once per `(kind, length)` by [`WindowKind::cached`].
#[derive(Debug, Clone)]
pub struct CachedWindow {
    /// The window coefficients (length as requested).
    pub coeffs: Vec<f64>,
    /// The same coefficients rounded to f32 once, for the f32 frame tier
    /// (windowing happens per sample, so the fast path must not convert on
    /// the fly). Generic code reads either table through
    /// [`crate::real::Real::window`].
    pub coeffs_f32: Vec<f32>,
    /// Mean of the coefficients (see [`WindowKind::coherent_gain`]).
    pub coherent_gain: f64,
}

impl CachedWindow {
    fn new(kind: WindowKind, n: usize) -> CachedWindow {
        let coeffs = kind.coefficients(n);
        let coeffs_f32 = coeffs.iter().map(|&c| c as f32).collect();
        let coherent_gain = if n == 0 {
            1.0
        } else {
            coeffs.iter().sum::<f64>() / n as f64
        };
        CachedWindow {
            coeffs,
            coeffs_f32,
            coherent_gain,
        }
    }
}

/// Generalized cosine window: `w[i] = sum_k (-1)^k a[k] cos(2 pi k i / n)`
/// (periodic convention: denominator `n`, not `n-1`).
fn cosine_window(n: usize, a: &[f64]) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    (0..n)
        .map(|i| {
            let x = std::f64::consts::TAU * i as f64 / n as f64;
            a.iter()
                .enumerate()
                .map(|(k, &ak)| {
                    let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                    sign * ak * (k as f64 * x).cos()
                })
                .sum()
        })
        .collect()
}

/// Kaiser window with shape parameter `beta` (symmetric convention).
///
/// `beta` trades main-lobe width against sidelobe level; `beta = 0` is
/// rectangular, `beta ≈ 8.6` gives Blackman-like sidelobes.
pub fn kaiser(n: usize, beta: f64) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![1.0];
    }
    let denom = bessel_i0(beta);
    let m = (n - 1) as f64;
    (0..n)
        .map(|i| {
            let r = 2.0 * i as f64 / m - 1.0;
            bessel_i0(beta * (1.0 - r * r).max(0.0).sqrt()) / denom
        })
        .collect()
}

/// Modified Bessel function of the first kind, order zero, via its power
/// series. Converges rapidly for the `beta` range used by Kaiser windows.
pub fn bessel_i0(x: f64) -> f64 {
    let mut sum = 1.0;
    let mut term = 1.0;
    let half_x = x / 2.0;
    for k in 1..=50 {
        term *= (half_x / k as f64) * (half_x / k as f64);
        sum += term;
        if term < sum * 1e-17 {
            break;
        }
    }
    sum
}

/// Multiplies `signal` by `window` element-wise in place.
///
/// # Panics
/// Panics if lengths differ.
pub fn apply(signal: &mut [f64], window: &[f64]) {
    assert_eq!(signal.len(), window.len(), "window length mismatch");
    for (s, &w) in signal.iter_mut().zip(window) {
        *s *= w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_is_all_ones() {
        assert!(WindowKind::Rect.coefficients(8).iter().all(|&w| w == 1.0));
    }

    #[test]
    fn hann_endpoints_and_peak() {
        let w = WindowKind::Hann.coefficients(64);
        assert!(w[0].abs() < 1e-12); // periodic Hann starts at 0
        assert!((w[32] - 1.0).abs() < 1e-12); // midpoint is 1
    }

    #[test]
    fn hamming_never_zero() {
        let w = WindowKind::Hamming.coefficients(64);
        assert!(w.iter().all(|&x| x > 0.05));
    }

    #[test]
    fn windows_are_bounded() {
        for kind in [
            WindowKind::Rect,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
            WindowKind::BlackmanHarris,
            WindowKind::FlatTop,
        ] {
            let w = kind.coefficients(101);
            for &x in &w {
                assert!(
                    (-0.1..=1.0 + 1e-9).contains(&x),
                    "{kind:?} out of range: {x}"
                );
            }
        }
    }

    #[test]
    fn coherent_gain_rect_is_one() {
        assert!((WindowKind::Rect.coherent_gain(37) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coherent_gain_hann_is_half() {
        assert!((WindowKind::Hann.coherent_gain(256) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn enbw_values() {
        // Known ENBW: rect = 1.0, Hann = 1.5 bins.
        assert!((WindowKind::Rect.enbw_bins(512) - 1.0).abs() < 1e-9);
        assert!((WindowKind::Hann.enbw_bins(512) - 1.5).abs() < 1e-2);
    }

    #[test]
    fn kaiser_beta_zero_is_rect() {
        let w = kaiser(16, 0.0);
        for &x in &w {
            assert!((x - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn kaiser_symmetric() {
        let w = kaiser(33, 8.6);
        for i in 0..w.len() {
            assert!((w[i] - w[w.len() - 1 - i]).abs() < 1e-12);
        }
        assert!((w[16] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bessel_i0_known_values() {
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-15);
        // I0(1) = 1.2660658777520083...
        assert!((bessel_i0(1.0) - 1.2660658777520083).abs() < 1e-12);
        // I0(5) = 27.239871823604442...
        assert!((bessel_i0(5.0) - 27.239871823604442).abs() < 1e-9);
    }

    #[test]
    fn apply_multiplies() {
        let mut s = vec![2.0; 4];
        apply(&mut s, &[0.0, 0.5, 1.0, 2.0]);
        assert_eq!(s, vec![0.0, 1.0, 2.0, 4.0]);
    }

    #[test]
    fn empty_window_ok() {
        assert!(WindowKind::Hann.coefficients(0).is_empty());
        assert!(kaiser(0, 5.0).is_empty());
    }
}

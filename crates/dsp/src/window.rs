//! Window functions for spectral analysis.
//!
//! The tag decoder applies a window before its per-bit FFT/Goertzel stage to
//! control spectral leakage between adjacent CSSK beat frequencies; the radar
//! receiver windows chirps before the range FFT. All windows are returned as
//! owned `Vec<f64>` of the requested length using the *periodic* convention
//! (suitable for FFT analysis).

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
    /// Coherent gain: mean of the coefficients (1 for an empty window).
    /// Dividing a windowed FFT peak by `n * coherent_gain` recovers the tone
    /// amplitude.
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
        assert!((WindowKind::Rect.cached(37).coherent_gain - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coherent_gain_hann_is_half() {
        assert!((WindowKind::Hann.cached(256).coherent_gain - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_window_ok() {
        assert!(WindowKind::Hann.coefficients(0).is_empty());
    }
}

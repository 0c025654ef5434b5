//! Resampling and interpolation.
//!
//! The radar's IF-correction stage (paper §3.3) converts each chirp's FFT
//! bins to ranges and then *rescales* profiles from chirps of different
//! slopes onto a common range grid using pairwise linear interpolation —
//! [`resample_to_grid`] is that operation, and [`lerp_taps_into`] with
//! [`apply_taps_into`] its form for many profiles on one pair of grids.

use crate::complex::Complex;
use crate::real::Real;

/// Linearly interpolates `samples` at fractional index `idx`.
///
/// Indices outside `[0, n-1]` clamp to the endpoints. Returns 0 for an empty
/// input.
pub fn linear_interp(samples: &[f64], idx: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let last = (samples.len() - 1) as f64;
    let x = idx.clamp(0.0, last);
    let i0 = x.floor() as usize;
    let i1 = (i0 + 1).min(samples.len() - 1);
    let frac = x - i0 as f64;
    samples[i0] * (1.0 - frac) + samples[i1] * frac
}

/// Resamples a profile defined on `src_grid` (strictly increasing x values)
/// onto `dst_grid` by pairwise linear interpolation. Destination points
/// outside the source span take the nearest endpoint value.
///
/// # Panics
/// Panics if `src_grid` and `values` lengths differ.
pub fn resample_to_grid(src_grid: &[f64], values: &[f64], dst_grid: &[f64]) -> Vec<f64> {
    assert_eq!(src_grid.len(), values.len(), "grid/value length mismatch");
    if src_grid.is_empty() {
        return vec![0.0; dst_grid.len()];
    }
    dst_grid
        .iter()
        .map(|&x| {
            // Binary search for the bracketing interval.
            match src_grid.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
                Ok(i) => values[i],
                Err(0) => values[0],
                Err(i) if i >= src_grid.len() => values[values.len() - 1],
                Err(i) => {
                    let x0 = src_grid[i - 1];
                    let x1 = src_grid[i];
                    let t = (x - x0) / (x1 - x0);
                    values[i - 1] * (1.0 - t) + values[i] * t
                }
            }
        })
        .collect()
}

/// How one destination point of a resample reads the source profile: the
/// bracketing [`resample_to_grid`] finds for it, kept so that every profile
/// on the same pair of grids skips the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tap {
    /// `values[i]`: an endpoint, for a point outside the source span, or an
    /// exact hit.
    At(usize),
    /// `values[i]·(1 − t) + values[i + 1]·t`. The weight is computed in f64
    /// and rounded into the sample precision where it is applied.
    Lerp(usize, f64),
}

/// The taps that resample a profile on `src_grid` (strictly increasing x
/// values) onto `dst_grid`, into a reusable buffer (cleared first): the
/// same bracketing and weights as [`resample_to_grid`], so applying them
/// with [`apply_taps_into`] performs, in f64 and component for component,
/// its floating-point operations. An empty source gives `At(0)` taps,
/// which read an empty profile as zeros.
///
/// Instead of a per-point binary search this uses a monotone two-pointer
/// sweep — destination grids in the IF-correction stage are increasing, so
/// the bracketing index only ever moves forward and the sweep is
/// `O(n_src + n_dst)` rather than `O(n_dst · log n_src)`. On a strictly
/// increasing source grid the bracket is the one the binary search finds.
/// Non-monotone destinations still work (the pointer backs up), they just
/// lose the linear-time guarantee.
pub fn lerp_taps_into(src_grid: &[f64], dst_grid: &[f64], out: &mut Vec<Tap>) {
    out.clear();
    out.reserve(dst_grid.len());
    let n = src_grid.len();
    // `i` tracks the smallest index with `src_grid[i] >= x` — the same
    // bracketing a binary search would find on a strictly increasing grid.
    let mut i = 0usize;
    for &x in dst_grid {
        while i > 0 && src_grid[i - 1] >= x {
            i -= 1;
        }
        while i < n && src_grid[i] < x {
            i += 1;
        }
        out.push(if i == 0 {
            Tap::At(0)
        } else if i >= n {
            Tap::At(n - 1)
        } else if src_grid[i] == x {
            Tap::At(i)
        } else {
            let x0 = src_grid[i - 1];
            let x1 = src_grid[i];
            Tap::Lerp(i - 1, (x - x0) / (x1 - x0))
        });
    }
}

/// Resamples complex `values` through `taps` ([`lerp_taps_into`]) into
/// `out`, one cell per tap, each written once, in either sample precision,
/// the real and imaginary parts interpolated independently. Each weight is
/// rounded once into the sample type, so in f64 this performs, component
/// for component, the identical floating-point operations as
/// [`resample_to_grid`].
///
/// # Panics
/// Panics if `out` and `taps` differ in length, or if a tap reads past
/// `values` (taps built for a longer profile).
pub fn apply_taps_into<T: Real>(values: &[Complex<T>], taps: &[Tap], out: &mut [Complex<T>]) {
    assert_eq!(out.len(), taps.len(), "one output cell per tap");
    if values.is_empty() {
        out.fill(Complex::ZERO);
        return;
    }
    for (o, &tap) in out.iter_mut().zip(taps) {
        *o = match tap {
            Tap::At(i) => values[i],
            Tap::Lerp(i, t) => {
                let t = T::from_f64(t);
                // Same formula as the real-valued path, applied per
                // component: a*(1-t) + b*t.
                let (a, b) = (values[i], values[i + 1]);
                Complex::new(
                    a.re * (T::ONE - t) + b.re * t,
                    a.im * (T::ONE - t) + b.im * t,
                )
            }
        };
    }
}

/// Builds a uniform grid of `n` points spanning `[start, stop]` inclusive.
pub fn linspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![start],
        _ => {
            let step = (stop - start) / (n - 1) as f64;
            (0..n).map(|i| start + step * i as f64).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cpx;

    #[test]
    fn interp_exact_indices() {
        let x = [1.0, 3.0, 5.0];
        assert_eq!(linear_interp(&x, 0.0), 1.0);
        assert_eq!(linear_interp(&x, 1.0), 3.0);
        assert_eq!(linear_interp(&x, 2.0), 5.0);
    }

    #[test]
    fn interp_midpoints() {
        let x = [1.0, 3.0, 5.0];
        assert_eq!(linear_interp(&x, 0.5), 2.0);
        assert_eq!(linear_interp(&x, 1.25), 3.5);
    }

    #[test]
    fn interp_clamps() {
        let x = [1.0, 3.0];
        assert_eq!(linear_interp(&x, -5.0), 1.0);
        assert_eq!(linear_interp(&x, 99.0), 3.0);
    }

    #[test]
    fn interp_empty() {
        assert_eq!(linear_interp(&[], 0.5), 0.0);
    }

    #[test]
    fn grid_resample_identity() {
        let g = linspace(0.0, 10.0, 11);
        let v: Vec<f64> = g.iter().map(|x| x * x).collect();
        let out = resample_to_grid(&g, &v, &g);
        for (a, b) in v.iter().zip(&out) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_resample_linear_exact() {
        // A linear function is reproduced exactly by linear interpolation.
        let src = linspace(0.0, 1.0, 5);
        let v: Vec<f64> = src.iter().map(|x| 2.0 * x + 1.0).collect();
        let dst = linspace(0.0, 1.0, 17);
        let out = resample_to_grid(&src, &v, &dst);
        for (x, y) in dst.iter().zip(&out) {
            assert!((y - (2.0 * x + 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_resample_extrapolation_clamps() {
        let src = [1.0, 2.0];
        let v = [10.0, 20.0];
        let out = resample_to_grid(&src, &v, &[0.0, 3.0]);
        assert_eq!(out, vec![10.0, 20.0]);
    }

    #[test]
    fn grid_resample_different_grids() {
        // Emulates the IF-correction use: two chirps with different R_max
        // produce grids of different spacing; resampling aligns them.
        let grid_a = linspace(0.0, 30.0, 64); // long-chirp grid
        let grid_b = linspace(0.0, 10.0, 64); // short-chirp grid
        let profile_a: Vec<f64> = grid_a.iter().map(|r| (-(r - 5.0).powi(2)).exp()).collect();
        let on_b = resample_to_grid(&grid_a, &profile_a, &grid_b);
        // The Gaussian peak at r = 5 must survive the regridding.
        let (peak_idx, _) = on_b
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let peak_r = grid_b[peak_idx];
        assert!((peak_r - 5.0).abs() < 0.5, "peak moved to {peak_r}");
    }

    #[test]
    fn cpx_resample_is_the_real_resample_per_component() {
        // Exact hits, interior points, both clamped ends, and a backwards
        // jump in the destination: every component must be bit-identical
        // to the binary-search real resample.
        let src: Vec<f64> = (0..40)
            .map(|i| 0.37 * i as f64 + 0.01 * (i * i) as f64)
            .collect();
        let re: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin()).collect();
        let im: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).cos()).collect();
        let values: Vec<Cpx> = re.iter().zip(&im).map(|(&a, &b)| Cpx::new(a, b)).collect();
        let mut dst = linspace(-1.0, 35.0, 97);
        dst.extend([src[5], src[17], 3.3, 40.0, 0.0]);
        let mut taps = Vec::new();
        lerp_taps_into(&src, &dst, &mut taps);
        let mut out = vec![Cpx::ZERO; taps.len()];
        apply_taps_into(&values, &taps, &mut out);
        let want_re = resample_to_grid(&src, &re, &dst);
        let want_im = resample_to_grid(&src, &im, &dst);
        for (k, z) in out.iter().enumerate() {
            assert_eq!(z.re.to_bits(), want_re[k].to_bits(), "re at {k}");
            assert_eq!(z.im.to_bits(), want_im[k].to_bits(), "im at {k}");
        }
        // The f32 instantiation tracks it to f32 rounding.
        let values32: Vec<Complex<f32>> = values.iter().map(|&z| Complex::from_f64(z)).collect();
        let mut out32 = vec![Complex::ZERO; taps.len()];
        apply_taps_into(&values32, &taps, &mut out32);
        for (a, b) in out32.iter().zip(&out) {
            assert!((a.to_f64() - *b).abs() < 1e-6);
        }
    }

    #[test]
    fn linspace_basics() {
        assert!(linspace(0.0, 1.0, 0).is_empty());
        assert_eq!(linspace(2.0, 9.0, 1), vec![2.0]);
        let g = linspace(0.0, 1.0, 3);
        assert_eq!(g, vec![0.0, 0.5, 1.0]);
    }
}

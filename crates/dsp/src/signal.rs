//! Signal synthesis and noise generation.
//!
//! Deterministic generators (tones, linear chirps) plus a
//! self-contained Gaussian noise source. The noise source wraps a small
//! xorshift PRNG with a Box–Muller transform so that every Monte-Carlo run is
//! reproducible from a `u64` seed without threading `rand` generics through
//! the simulation layers (the higher-level crates that *do* need
//! distributions use the `rand` crate; this type exists for the hot loops).

use crate::TAU;

/// Generates `n` samples of `amp * cos(2 pi f t + phase)` at sample rate `fs`.
pub fn tone(n: usize, f: f64, fs: f64, amp: f64, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| amp * (TAU * f * i as f64 / fs + phase).cos())
        .collect()
}

/// Generates `n` samples of a real linear chirp starting at `f0` with sweep
/// rate `slope` Hz/s: `cos(2 pi (f0 t + slope t^2 / 2) + phase)`.
///
/// The instantaneous frequency at time `t` is `f0 + slope * t` — note the
/// conventional `t^2/2` phase term (see DESIGN.md §5 on the paper's eq. 1).
pub fn chirp(n: usize, f0: f64, slope: f64, fs: f64, amp: f64, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            amp * (TAU * (f0 * t + 0.5 * slope * t * t) + phase).cos()
        })
        .collect()
}

/// A seeded Gaussian noise generator (xorshift64* + Box–Muller).
#[derive(Debug, Clone)]
pub struct NoiseSource {
    state: u64,
    cached: Option<f64>,
}

impl NoiseSource {
    /// Creates a generator from a nonzero seed (zero is remapped).
    pub fn new(seed: u64) -> Self {
        NoiseSource {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
            cached: None,
        }
    }

    /// Next raw u64 from xorshift64*.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform sample in `(0, 1)` (never exactly 0, safe for `ln`).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Standard normal sample via Box–Muller (caches the second deviate).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        let u1 = self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = TAU * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Gaussian sample with the given standard deviation.
    pub fn gaussian_scaled(&mut self, sigma: f64) -> f64 {
        self.gaussian() * sigma
    }

    /// Fills `n` samples of white Gaussian noise with standard deviation
    /// `sigma`.
    pub fn awgn(&mut self, n: usize, sigma: f64) -> Vec<f64> {
        (0..n).map(|_| self.gaussian() * sigma).collect()
    }

    /// Adds white Gaussian noise with standard deviation `sigma` to `signal`
    /// in place.
    pub fn add_awgn(&mut self, signal: &mut [f64], sigma: f64) {
        for s in signal.iter_mut() {
            *s += self.gaussian() * sigma;
        }
    }

    /// Fast standard normal sample: one uniform draw mapped through the
    /// inverse normal CDF (no `ln`/`sin`/`cos` on the ~97.6% central path).
    ///
    /// Consumes generator state differently from [`NoiseSource::gaussian`]
    /// (one `u64` per deviate, no cached second deviate), so the realization
    /// differs from Box–Muller for the same seed — but it is exactly as
    /// deterministic: same seed, same sequence, on every dispatch tier.
    #[inline]
    pub fn gaussian_fast(&mut self) -> f64 {
        inv_norm_cdf(self.uniform())
    }
}

/// Inverse of the standard normal CDF via Acklam's rational approximation
/// (|relative error| < 1.15e-9 over the open unit interval — far below the
/// f32 rounding the fast tier applies afterwards). The central region is
/// two degree-5 polynomials and one division; only the ~2.4% tail mass pays
/// for `ln`/`sqrt`.
#[inline]
fn inv_norm_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, rms, std_dev};

    #[test]
    fn tone_properties() {
        let x = tone(1000, 50.0, 1000.0, 2.0, 0.0);
        assert_eq!(x[0], 2.0);
        // RMS of a sinusoid is amp/sqrt(2).
        assert!((rms(&x) - 2.0 / 2f64.sqrt()).abs() < 0.01);
    }

    #[test]
    fn chirp_instantaneous_frequency() {
        // Verify numerically: phase difference between adjacent samples
        // approximates instantaneous frequency f0 + slope*t.
        let fs = 1e6;
        let f0 = 1e3;
        let slope = 1e8; // 100 Hz per microsecond
        let n = 1000;
        let x = chirp(n, f0, slope, fs, 1.0, 0.0);
        // Find zero crossings and check spacing shrinks over time.
        let crossings: Vec<usize> = (1..n).filter(|&i| x[i - 1] < 0.0 && x[i] >= 0.0).collect();
        assert!(crossings.len() > 3);
        let first_gap = crossings[1] - crossings[0];
        let last_gap = crossings[crossings.len() - 1] - crossings[crossings.len() - 2];
        assert!(
            last_gap < first_gap,
            "chirp should speed up: {first_gap} -> {last_gap}"
        );
    }

    #[test]
    fn chirp_matches_tone_when_slope_zero() {
        let a = chirp(256, 100.0, 0.0, 1000.0, 1.0, 0.3);
        let b = tone(256, 100.0, 1000.0, 1.0, 0.3);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn noise_is_reproducible() {
        let mut a = NoiseSource::new(42);
        let mut b = NoiseSource::new(42);
        for _ in 0..100 {
            assert_eq!(a.gaussian(), b.gaussian());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseSource::new(1);
        let mut b = NoiseSource::new(2);
        let same = (0..32).filter(|_| a.gaussian() == b.gaussian()).count();
        assert!(same < 2);
    }

    #[test]
    fn gaussian_moments() {
        let mut src = NoiseSource::new(7);
        let x = src.awgn(200_000, 1.0);
        assert!(mean(&x).abs() < 0.01, "mean {}", mean(&x));
        assert!((std_dev(&x) - 1.0).abs() < 0.01, "std {}", std_dev(&x));
    }

    #[test]
    fn gaussian_scaled_std() {
        let mut src = NoiseSource::new(9);
        let x: Vec<f64> = (0..100_000).map(|_| src.gaussian_scaled(3.0)).collect();
        assert!((std_dev(&x) - 3.0).abs() < 0.05);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut src = NoiseSource::new(11);
        for _ in 0..10_000 {
            let u = src.uniform();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn add_awgn_changes_signal() {
        let mut src = NoiseSource::new(3);
        let mut x = vec![0.0; 1000];
        src.add_awgn(&mut x, 0.5);
        assert!((std_dev(&x) - 0.5).abs() < 0.05);
    }

    #[test]
    fn gaussian_fast_moments() {
        let mut src = NoiseSource::new(17);
        let x: Vec<f64> = (0..200_000).map(|_| src.gaussian_fast()).collect();
        assert!(mean(&x).abs() < 0.01, "mean {}", mean(&x));
        assert!((std_dev(&x) - 1.0).abs() < 0.01, "std {}", std_dev(&x));
    }

    #[test]
    fn gaussian_fast_is_reproducible() {
        let mut a = NoiseSource::new(23);
        let mut b = NoiseSource::new(23);
        for _ in 0..1000 {
            assert_eq!(a.gaussian_fast(), b.gaussian_fast());
        }
    }

    #[test]
    fn inv_norm_cdf_matches_known_quantiles() {
        // Central branch, both tail branches.
        for (p, z) in [
            (0.5, 0.0),
            (0.8413447460685429, 1.0),
            (0.15865525393145707, -1.0),
            (0.0013498980316300933, -3.0),
            (0.9986501019683699, 3.0),
        ] {
            assert!(
                (inv_norm_cdf(p) - z).abs() < 1e-7,
                "quantile({p}) = {} want {z}",
                inv_norm_cdf(p)
            );
        }
    }

    #[test]
    fn zero_seed_remapped() {
        let mut src = NoiseSource::new(0);
        // Must not get stuck at zero.
        assert!(src.gaussian().is_finite());
        assert_ne!(src.uniform(), src.uniform());
    }
}

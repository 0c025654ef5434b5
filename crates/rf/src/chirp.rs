//! FMCW chirp parameterization and phase-exact synthesis.
//!
//! A chirp is a linear frequency sweep: starting frequency `f0`, bandwidth
//! `B`, duration `T_chirp`, hence slope `α = B / T_chirp` (paper eq. 1). The
//! CSSK downlink (paper §3.1) fixes `B` — preserving range resolution
//! `c / 2B` — and varies `T_chirp`, so slope is the modulated quantity.
//!
//! We use the conventional FMCW phase `φ(t) = 2π (f0 t + α t² / 2)` whose
//! instantaneous frequency is `f0 + α t` (see DESIGN.md §5 for the note on
//! the paper's eq. 1 notation).

use biscatter_dsp::{SPEED_OF_LIGHT, TAU};

/// Parameters of a single FMCW chirp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chirp {
    /// Starting (carrier) frequency `f0`, Hz.
    pub f0: f64,
    /// Swept bandwidth `B`, Hz.
    pub bandwidth: f64,
    /// Sweep duration `T_chirp`, seconds.
    pub duration: f64,
}

impl Chirp {
    /// Creates a chirp, validating that all parameters are positive.
    ///
    /// # Panics
    /// Panics on non-positive bandwidth or duration, or negative `f0`.
    pub fn new(f0: f64, bandwidth: f64, duration: f64) -> Self {
        assert!(f0 >= 0.0, "f0 must be non-negative");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        assert!(duration > 0.0, "duration must be positive");
        Chirp {
            f0,
            bandwidth,
            duration,
        }
    }

    /// Chirp slope `α = B / T_chirp`, Hz/s.
    pub fn slope(&self) -> f64 {
        self.bandwidth / self.duration
    }

    /// Instantaneous frequency at time `t` into the sweep (clamped to the
    /// sweep interval).
    pub fn instantaneous_freq(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, self.duration);
        self.f0 + self.slope() * t
    }

    /// Center frequency of the sweep.
    pub fn center_freq(&self) -> f64 {
        self.f0 + self.bandwidth / 2.0
    }

    /// Phase (radians) at time `t` into the sweep:
    /// `2π (f0 t + α t² / 2)`.
    pub fn phase(&self, t: f64) -> f64 {
        TAU * (self.f0 * t + 0.5 * self.slope() * t * t)
    }

    /// Range resolution this chirp provides: `c / 2B` (paper eq. 5).
    pub fn range_resolution(&self) -> f64 {
        SPEED_OF_LIGHT / (2.0 * self.bandwidth)
    }

    /// Maximum unambiguous range for an IF receiver sampling at `fs`
    /// (paper eq. 4): `R_max = fs c T_chirp / (2B)`.
    pub fn max_unambiguous_range(&self, fs: f64) -> f64 {
        fs * SPEED_OF_LIGHT * self.duration / (2.0 * self.bandwidth)
    }

    /// Beat (IF) frequency produced by a reflection at range `r`
    /// (paper eq. 3): `f_IF = 2 α r / c`.
    pub fn beat_freq_for_range(&self, range_m: f64) -> f64 {
        2.0 * self.slope() * range_m / SPEED_OF_LIGHT
    }

    /// Inverse of [`Chirp::beat_freq_for_range`]: the range corresponding to
    /// an observed IF frequency.
    pub fn range_for_beat_freq(&self, f_if: f64) -> f64 {
        f_if * SPEED_OF_LIGHT / (2.0 * self.slope())
    }

    /// Number of IF samples captured during the sweep at ADC rate `fs`
    /// (rounded to the nearest sample to absorb floating-point error in
    /// `duration * fs`).
    pub fn if_samples(&self, fs: f64) -> usize {
        (self.duration * fs).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(x: f64) -> f64 {
        x * 1e9
    }
    fn us(x: f64) -> f64 {
        x * 1e-6
    }

    #[test]
    fn slope_definition() {
        let c = Chirp::new(ghz(9.0), ghz(1.0), us(100.0));
        assert!((c.slope() - 1e13).abs() < 1.0);
    }

    #[test]
    fn instantaneous_freq_sweeps_bandwidth() {
        let c = Chirp::new(ghz(9.0), ghz(1.0), us(50.0));
        assert_eq!(c.instantaneous_freq(0.0), ghz(9.0));
        assert!((c.instantaneous_freq(us(50.0)) - ghz(10.0)).abs() < 1.0);
        // Clamped beyond the sweep.
        assert!((c.instantaneous_freq(1.0) - ghz(10.0)).abs() < 1.0);
        assert!((c.center_freq() - ghz(9.5)).abs() < 1.0);
    }

    #[test]
    fn phase_derivative_matches_frequency() {
        let c = Chirp::new(1e6, 1e6, 1e-3);
        let dt = 1e-9;
        for &t in &[0.1e-3, 0.5e-3, 0.9e-3] {
            let f_num = (c.phase(t + dt) - c.phase(t - dt)) / (2.0 * dt) / TAU;
            let f_ana = c.instantaneous_freq(t);
            assert!(
                (f_num - f_ana).abs() / f_ana < 1e-6,
                "at {t}: {f_num} vs {f_ana}"
            );
        }
    }

    #[test]
    fn range_resolution_values() {
        // 1 GHz -> 15 cm; 250 MHz -> 60 cm (paper's two radars).
        let wide = Chirp::new(ghz(9.0), ghz(1.0), us(100.0));
        let narrow = Chirp::new(ghz(24.0), 250e6, us(100.0));
        assert!((wide.range_resolution() - 0.1499).abs() < 1e-3);
        assert!((narrow.range_resolution() - 0.5996).abs() < 1e-3);
    }

    #[test]
    fn beat_freq_roundtrip() {
        let c = Chirp::new(ghz(24.0), 250e6, us(120.0));
        for &r in &[0.5, 3.0, 7.0] {
            let f = c.beat_freq_for_range(r);
            assert!((c.range_for_beat_freq(f) - r).abs() < 1e-9);
        }
    }

    #[test]
    fn beat_freq_example() {
        // 1 GHz / 100 us chirp, target at 5 m:
        // f_IF = 2 * 1e13 * 5 / 3e8 = 333.6 kHz.
        let c = Chirp::new(ghz(9.0), ghz(1.0), us(100.0));
        let f = c.beat_freq_for_range(5.0);
        assert!((f - 333_564.0).abs() < 100.0, "got {f}");
    }

    #[test]
    fn max_range_scales_with_duration() {
        let fs = 2e6;
        let short = Chirp::new(ghz(9.0), ghz(1.0), us(20.0));
        let long = Chirp::new(ghz(9.0), ghz(1.0), us(200.0));
        let r_s = short.max_unambiguous_range(fs);
        let r_l = long.max_unambiguous_range(fs);
        assert!((r_l / r_s - 10.0).abs() < 1e-9);
        // Values: R = fs c T / 2B = 2e6*3e8*20e-6/2e9 = 6 m.
        assert!((r_s - 5.996).abs() < 0.01, "got {r_s}");
    }

    #[test]
    fn if_sample_count() {
        let c = Chirp::new(ghz(9.0), ghz(1.0), us(100.0));
        assert_eq!(c.if_samples(2e6), 200);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn rejects_zero_duration() {
        Chirp::new(1e9, 1e9, 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rejects_zero_bandwidth() {
        Chirp::new(1e9, 0.0, 1e-6);
    }
}

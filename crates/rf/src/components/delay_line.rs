//! Delay-line model: the heart of the tag decoder.
//!
//! The tag splits the incident chirp between two transmission lines whose
//! *length difference* `ΔL` sets the differential delay `ΔT = ΔL / (k c)`
//! (paper eq. 10), where `k` is the velocity factor (≈0.7 for coax, lower
//! for microstrip on high-εr substrates). The resulting beat frequency is
//! `Δf = B ΔL / (T_chirp k c)` (paper eq. 11).
//!
//! Real lines are dispersive — the velocity factor drifts across a GHz of
//! bandwidth — and lossy. Both effects matter: dispersion smears the beat
//! tone (motivating the paper's one-time calibration), and insertion loss
//! eats link budget (paper §6 "Delay-line Length" trade-off). The
//! [`MeanderLine`] variant additionally models the PCB meander structure of
//! paper Figs. 9–11 (Rogers 3006, 1.26 ns across 64 mm × 3 mm).

use crate::SPEED_OF_LIGHT;

/// A transmission-line delay element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayLine {
    /// Physical length, metres.
    pub length_m: f64,
    /// Velocity factor `k` at the reference frequency (fraction of `c`).
    pub velocity_factor: f64,
    /// Insertion loss per metre at the reference frequency, dB/m.
    pub loss_db_per_m: f64,
    /// Reference frequency for `velocity_factor` and loss, Hz.
    pub ref_freq_hz: f64,
    /// Fractional change of the velocity factor per GHz of offset from the
    /// reference frequency (dispersion). Zero for an ideal line.
    pub dispersion_per_ghz: f64,
}

impl DelayLine {
    /// An idealized coax line (k = 0.7, modest loss), as used in the paper's
    /// wired validation experiment (Fig. 5).
    pub fn coax(length_m: f64, ref_freq_hz: f64) -> Self {
        DelayLine {
            length_m,
            velocity_factor: 0.7,
            loss_db_per_m: 1.0,
            ref_freq_hz,
            dispersion_per_ghz: 0.0,
        }
    }

    /// Velocity factor at frequency `f` (linear dispersion model).
    pub fn velocity_factor_at(&self, f_hz: f64) -> f64 {
        let delta_ghz = (f_hz - self.ref_freq_hz) / 1e9;
        (self.velocity_factor * (1.0 + self.dispersion_per_ghz * delta_ghz)).max(1e-3)
    }

    /// Group delay through the line at frequency `f`, seconds.
    pub fn delay_at(&self, f_hz: f64) -> f64 {
        self.length_m / (self.velocity_factor_at(f_hz) * SPEED_OF_LIGHT)
    }

    /// Total insertion loss, dB (loss grows ~√f above the reference, the
    /// skin-effect trend).
    pub fn insertion_loss_db(&self, f_hz: f64) -> f64 {
        let scale = (f_hz / self.ref_freq_hz).max(0.0).sqrt();
        self.loss_db_per_m * self.length_m * scale
    }
}

/// A matched pair of delay lines with length difference `ΔL`, as in the tag
/// decoder (paper Fig. 4). Computes the differential quantities the decoder
/// depends on.
#[derive(Debug, Clone, Copy)]
pub struct DelayLinePair {
    /// The shorter line.
    pub short: DelayLine,
    /// The longer line.
    pub long: DelayLine,
}

impl DelayLinePair {
    /// Builds a pair from a base length and a difference `ΔL`, sharing the
    /// line technology of `proto`.
    pub fn from_difference(proto: DelayLine, base_length_m: f64, delta_l_m: f64) -> Self {
        assert!(delta_l_m > 0.0, "ΔL must be positive");
        let mut short = proto;
        short.length_m = base_length_m;
        let mut long = proto;
        long.length_m = base_length_m + delta_l_m;
        DelayLinePair { short, long }
    }

    /// Differential delay `ΔT` at frequency `f` (paper eq. 10, but evaluated
    /// with each line's own dispersive delay).
    pub fn delta_t_at(&self, f_hz: f64) -> f64 {
        self.long.delay_at(f_hz) - self.short.delay_at(f_hz)
    }

    /// Whether either line disperses. Without dispersion every line's
    /// velocity factor, hence [`Self::delta_t_at`], is the same for every
    /// frequency, bit for bit.
    pub(crate) fn is_dispersive(&self) -> bool {
        self.short.dispersion_per_ghz != 0.0 || self.long.dispersion_per_ghz != 0.0
    }

    /// Differential delay at the reference frequency.
    pub fn delta_t(&self) -> f64 {
        self.delta_t_at(self.short.ref_freq_hz)
    }

    /// Predicted beat frequency for a chirp of bandwidth `b_hz` and duration
    /// `t_chirp_s` (paper eq. 11): `Δf = α ΔT = B ΔT / T_chirp`.
    pub fn beat_freq(&self, b_hz: f64, t_chirp_s: f64) -> f64 {
        b_hz * self.delta_t() / t_chirp_s
    }

    /// Mean insertion loss of the two arms at frequency `f`, dB. (The two
    /// arms recombine; the average is the effective arm loss.)
    pub fn mean_insertion_loss_db(&self, f_hz: f64) -> f64 {
        0.5 * (self.short.insertion_loss_db(f_hz) + self.long.insertion_loss_db(f_hz))
    }
}

/// PCB microstrip meander delay line (paper §4, Figs. 9–11).
///
/// Models the measured behaviour of the HFSS design: a target delay set by
/// the effective permittivity and meander length, an insertion loss that
/// rises with frequency, and an |S11| return-loss ripple caused by the
/// meander discontinuities.
#[derive(Debug, Clone, Copy)]
pub struct MeanderLine {
    /// Total electrical (unwrapped) trace length, metres.
    pub trace_length_m: f64,
    /// Substrate relative permittivity (Rogers 3006: εr = 6.15).
    pub epsilon_r: f64,
    /// Conductor + dielectric loss at the design frequency, dB per metre.
    pub loss_db_per_m: f64,
    /// Design (center) frequency, Hz.
    pub design_freq_hz: f64,
    /// Number of meander turns (sets the S11 ripple period).
    pub n_turns: usize,
}

impl MeanderLine {
    /// The paper's 9 GHz design: Rogers 3006, 1.26 ns delay, 64 mm × 3 mm
    /// footprint. The trace length is derived from the delay target.
    pub fn paper_9ghz_design() -> Self {
        let epsilon_eff = effective_permittivity(6.15);
        // delay = L sqrt(eps_eff) / c  =>  L = delay * c / sqrt(eps_eff)
        let trace_length_m = 1.26e-9 * SPEED_OF_LIGHT / epsilon_eff.sqrt();
        MeanderLine {
            trace_length_m,
            epsilon_r: 6.15,
            loss_db_per_m: 14.0,
            design_freq_hz: 9.5e9,
            n_turns: 16,
        }
    }

    /// Effective permittivity seen by the quasi-TEM microstrip mode.
    pub fn epsilon_eff(&self) -> f64 {
        effective_permittivity(self.epsilon_r)
    }

    /// Velocity factor equivalent (`1/sqrt(eps_eff)`), for use as a
    /// [`DelayLine`].
    pub fn velocity_factor(&self) -> f64 {
        1.0 / self.epsilon_eff().sqrt()
    }

    /// Insertion loss |S21| in dB at frequency `f` (skin-effect √f scaling
    /// from the design point) — reproduces the Fig. 11 trend.
    pub fn insertion_loss_db(&self, f_hz: f64) -> f64 {
        self.loss_db_per_m * self.trace_length_m * (f_hz / self.design_freq_hz).max(0.0).sqrt()
    }

    /// Return loss |S11| in dB at frequency `f` (negative number; more
    /// negative = better matched) — a matched baseline with a periodic ripple
    /// from the meander discontinuities, reproducing the Fig. 10 shape.
    pub fn s11_db(&self, f_hz: f64) -> f64 {
        let baseline = -22.0;
        let ripple_amp = 5.0;
        // The dominant ripple is the standing wave between the input and
        // far-end discontinuities: period c / (2 L sqrt(eps_eff)) in
        // frequency — a few hundred MHz for the paper's 1.26 ns line, giving
        // the Fig. 10 shape. The meander turns add a faster, weaker ripple.
        let e = self.epsilon_eff().sqrt();
        let phase_full =
            2.0 * std::f64::consts::PI * 2.0 * self.trace_length_m * e * f_hz / SPEED_OF_LIGHT;
        let turn_len = self.trace_length_m / self.n_turns.max(1) as f64;
        let phase_turn = 2.0 * std::f64::consts::PI * 2.0 * turn_len * e * f_hz / SPEED_OF_LIGHT;
        baseline + ripple_amp * phase_full.sin() + 0.2 * ripple_amp * phase_turn.sin()
    }

    /// Converts to the generic [`DelayLine`] model (with a small dispersion
    /// term typical of microstrip).
    pub fn as_delay_line(&self) -> DelayLine {
        DelayLine {
            length_m: self.trace_length_m,
            velocity_factor: self.velocity_factor(),
            loss_db_per_m: self.loss_db_per_m,
            ref_freq_hz: self.design_freq_hz,
            dispersion_per_ghz: -0.002,
        }
    }
}

/// Quasi-static effective permittivity of a 50 Ω microstrip (w/h ≈ 1.5):
/// `(εr + 1)/2 + (εr − 1)/2 · 1/sqrt(1 + 12 h/w)`.
fn effective_permittivity(epsilon_r: f64) -> f64 {
    let w_over_h = 1.5f64;
    (epsilon_r + 1.0) / 2.0 + (epsilon_r - 1.0) / 2.0 / (1.0 + 12.0 / w_over_h).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inches_to_m;

    #[test]
    fn coax_delay_matches_formula() {
        // 1 m of k=0.7 coax: delay = 1 / (0.7 * c) = 4.76 ns.
        let line = DelayLine::coax(1.0, 9.5e9);
        assert!((line.delay_at(9.5e9) - 4.763e-9).abs() < 1e-11);
    }

    #[test]
    fn paper_beat_frequency_example() {
        // Paper §3.2.1: B = 1 GHz, ΔL = 18 in, k = 0.7, T_chirp 20–200 µs
        // → Δf from ~110 kHz down to ~11 kHz.
        let proto = DelayLine::coax(0.0, 9.5e9);
        let pair = DelayLinePair::from_difference(proto, 0.1, inches_to_m(18.0));
        let f_max = pair.beat_freq(1e9, 20e-6);
        let f_min = pair.beat_freq(1e9, 200e-6);
        assert!((f_max - 108_900.0).abs() < 1500.0, "Δf_max {f_max}");
        assert!((f_min - 10_890.0).abs() < 150.0, "Δf_min {f_min}");
    }

    #[test]
    fn beat_freq_linear_in_inverse_duration() {
        let proto = DelayLine::coax(0.0, 9.5e9);
        let pair = DelayLinePair::from_difference(proto, 0.1, inches_to_m(45.0));
        let f1 = pair.beat_freq(1e9, 50e-6);
        let f2 = pair.beat_freq(1e9, 100e-6);
        assert!((f1 / f2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn beat_freq_scales_with_delta_l() {
        let proto = DelayLine::coax(0.0, 9.5e9);
        let small = DelayLinePair::from_difference(proto, 0.1, inches_to_m(6.0));
        let large = DelayLinePair::from_difference(proto, 0.1, inches_to_m(45.0));
        let ratio = large.beat_freq(1e9, 100e-6) / small.beat_freq(1e9, 100e-6);
        assert!((ratio - 7.5).abs() < 1e-9);
    }

    #[test]
    fn dispersion_shifts_delay() {
        let mut line = DelayLine::coax(1.0, 9.0e9);
        line.dispersion_per_ghz = -0.01;
        let d_low = line.delay_at(9.0e9);
        let d_high = line.delay_at(10.0e9);
        // Slower at higher f (velocity factor decreased) → longer delay.
        assert!(d_high > d_low);
    }

    #[test]
    fn insertion_loss_grows_with_length_and_freq() {
        let short = DelayLine::coax(0.5, 9.5e9);
        let long = DelayLine::coax(2.0, 9.5e9);
        assert!(long.insertion_loss_db(9.5e9) > short.insertion_loss_db(9.5e9));
        assert!(long.insertion_loss_db(24e9) > long.insertion_loss_db(9.5e9));
    }

    #[test]
    fn pair_mean_loss_between_arms() {
        let proto = DelayLine::coax(0.0, 9.5e9);
        let pair = DelayLinePair::from_difference(proto, 0.5, 1.0);
        let loss = pair.mean_insertion_loss_db(9.5e9);
        let lo = pair.short.insertion_loss_db(9.5e9);
        let hi = pair.long.insertion_loss_db(9.5e9);
        assert!(loss > lo && loss < hi);
    }

    #[test]
    #[should_panic(expected = "ΔL")]
    fn pair_rejects_non_positive_delta() {
        DelayLinePair::from_difference(DelayLine::coax(0.0, 9e9), 0.1, 0.0);
    }

    #[test]
    fn meander_paper_design_delay() {
        let m = MeanderLine::paper_9ghz_design();
        let delay = m.as_delay_line().delay_at(m.design_freq_hz);
        assert!((delay - 1.26e-9).abs() < 1e-12, "delay {delay}");
    }

    #[test]
    fn meander_s11_stays_matched() {
        let m = MeanderLine::paper_9ghz_design();
        // Across the 9–10 GHz band S11 must stay below -15 dB (paper Fig. 10
        // shows a matched line with ripple).
        for i in 0..=100 {
            let f = 9.0e9 + i as f64 * 1e7;
            let s11 = m.s11_db(f);
            assert!(s11 < -15.0, "S11 {s11} at {f}");
            assert!(s11 > -30.0);
        }
    }

    #[test]
    fn meander_s11_ripples() {
        // The ripple should produce both rising and falling segments in-band.
        let m = MeanderLine::paper_9ghz_design();
        let v: Vec<f64> = (0..=100)
            .map(|i| m.s11_db(9.0e9 + i as f64 * 1e7))
            .collect();
        let rising = v.windows(2).filter(|w| w[1] > w[0]).count();
        let falling = v.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(rising > 10 && falling > 10);
    }

    #[test]
    fn meander_as_delay_line_consistent() {
        let m = MeanderLine::paper_9ghz_design();
        let dl = m.as_delay_line();
        let microstrip = m.trace_length_m * m.epsilon_eff().sqrt() / SPEED_OF_LIGHT;
        assert!((dl.delay_at(m.design_freq_hz) - microstrip).abs() < 1e-13);
    }

    #[test]
    fn effective_permittivity_bounds() {
        // eps_eff must lie between 1 and eps_r.
        for &er in &[2.2, 6.15, 10.2] {
            let ee = effective_permittivity(er);
            assert!(ee > 1.0 && ee < er, "eps_eff {ee} for eps_r {er}");
        }
    }
}

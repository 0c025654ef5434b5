//! Square-law envelope detector (ADL6010 class).
//!
//! The combined two-arm signal `s₁(t) + s₂(t)` enters the detector; the
//! square-law characteristic produces `(s₁+s₂)² = s₁² + s₂² + 2 s₁ s₂`, and
//! the internal low-pass filter removes the double-carrier terms, leaving a
//! DC level plus the cross term — the beat tone at `Δf = α ΔT` (paper eq. 9).
//! The combination of splitter + detector "is essentially equivalent to a
//! mixer" (paper §3.2.1).
//!
//! The model exposes the detector law on sampled waveforms (for the scaled
//! passband validation path) and its noise floor / bandwidth parameters (for
//! the analytic envelope path).

use biscatter_dsp::filter::SinglePoleLowPass;

/// Envelope detector model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeDetector {
    /// Video (output) bandwidth of the internal low-pass, Hz. The ADL6010
    /// supports ~40 MHz; the decoder only needs a few hundred kHz.
    pub video_bandwidth_hz: f64,
    /// Output-referred noise floor, dBm, integrated over the video bandwidth.
    pub noise_floor_dbm: f64,
    /// Detector responsivity scale (output volts per input watt, arbitrary
    /// units in this simulation — it cancels in SNR terms).
    pub responsivity: f64,
}

impl EnvelopeDetector {
    /// An ADL6010-like detector configured for the BiScatter decoder.
    pub fn adl6010() -> Self {
        EnvelopeDetector {
            video_bandwidth_hz: 500e3,
            noise_floor_dbm: -72.0,
            responsivity: 1.0,
        }
    }

    /// Applies the square-law + low-pass chain to a sampled RF waveform at
    /// sample rate `fs`. Used by the scaled-passband validation path.
    pub fn detect(&self, rf: &[f64], fs: f64) -> Vec<f64> {
        let cutoff = (self.video_bandwidth_hz).min(0.45 * fs);
        let mut lpf = SinglePoleLowPass::from_cutoff(cutoff, fs);
        // Two cascaded poles give a steeper rolloff, closer to the part's
        // measured response, and suppress the 2·f0 ripple more convincingly.
        let mut lpf2 = SinglePoleLowPass::from_cutoff(cutoff, fs);
        rf.iter()
            .map(|&x| lpf2.process(lpf.process(self.responsivity * x * x)))
            .collect()
    }

    /// The ideal (noise-free) analytic envelope output for two equal-amplitude
    /// chirp arms with phase difference `delta_phi` at one instant:
    /// `r/2 · a² · (1 + cos Δφ)` — derived from low-passing
    /// `(a cos φ₁ + a cos φ₂)²`.
    pub fn analytic_output(&self, arm_amplitude: f64, delta_phi: f64) -> f64 {
        self.analytic_output_cos(arm_amplitude, delta_phi.cos())
    }

    /// [`Self::analytic_output`] given `cos Δφ` itself, for beat tones that
    /// an oscillator generates rather than a per-sample phase.
    pub(crate) fn analytic_output_cos(&self, arm_amplitude: f64, cos_delta_phi: f64) -> f64 {
        self.responsivity * arm_amplitude * arm_amplitude * (1.0 + cos_delta_phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_dsp::signal::tone;
    use biscatter_dsp::spectrum::{find_peak, periodogram};
    use biscatter_dsp::window::WindowKind;

    #[test]
    fn detects_beat_of_two_tones() {
        // Two tones at f and f+df: after square law + LPF, output contains df.
        let fs = 1_000_000.0;
        let f1 = 200_000.0;
        let df = 5_000.0;
        let n = 20_000;
        let a = tone(n, f1, fs, 1.0, 0.0);
        let b = tone(n, f1 + df, fs, 1.0, 0.0);
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let det = EnvelopeDetector {
            video_bandwidth_hz: 20_000.0,
            noise_floor_dbm: -70.0,
            responsivity: 1.0,
        };
        let out = det.detect(&sum, fs);
        // Remove DC before peak search.
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        let ac: Vec<f64> = out.iter().map(|v| v - mean).collect();
        let (freqs, power) = periodogram(&ac[2000..], fs, WindowKind::Hann);
        let peak = find_peak(&power).unwrap();
        let f_est = peak.refined_bin * freqs[1];
        assert!((f_est - df).abs() < 200.0, "beat at {f_est}, expected {df}");
    }

    #[test]
    fn suppresses_double_frequency() {
        // A single tone squares to DC + 2f; with a tight LPF the 2f ripple is
        // strongly attenuated.
        let fs = 1_000_000.0;
        let f = 200_000.0;
        let x = tone(50_000, f, fs, 1.0, 0.0);
        let det = EnvelopeDetector {
            video_bandwidth_hz: 10_000.0,
            noise_floor_dbm: -70.0,
            responsivity: 1.0,
        };
        let out = det.detect(&x, fs);
        let tail = &out[10_000..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let ripple = tail.iter().map(|v| (v - mean).abs()).fold(0.0f64, f64::max);
        assert!((mean - 0.5).abs() < 0.02, "DC should be a²/2, got {mean}");
        assert!(ripple < 0.02, "2f ripple too strong: {ripple}");
    }

    #[test]
    fn analytic_output_range() {
        let det = EnvelopeDetector::adl6010();
        // In-phase arms: maximum output 2a²; anti-phase: zero.
        assert!((det.analytic_output(1.0, 0.0) - 2.0).abs() < 1e-12);
        assert!(det.analytic_output(1.0, std::f64::consts::PI) < 1e-12);
        // Quadrature: a².
        assert!((det.analytic_output(2.0, std::f64::consts::FRAC_PI_2) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn analytic_matches_passband_dc_and_swing() {
        // Cross-check: two equal tones with slowly varying phase difference
        // produce an envelope whose min/max match the analytic formula.
        let fs = 2_000_000.0;
        let f1 = 300_000.0;
        let df = 1_000.0; // slow beat
        let n = 4_000_000; // two beat periods
        let det = EnvelopeDetector {
            video_bandwidth_hz: 20_000.0,
            noise_floor_dbm: -70.0,
            responsivity: 1.0,
        };
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (std::f64::consts::TAU * f1 * t).cos()
                    + (std::f64::consts::TAU * (f1 + df) * t).cos()
            })
            .collect();
        let out = det.detect(&x, fs);
        let tail = &out[n / 2..];
        let max = tail.iter().cloned().fold(f64::MIN, f64::max);
        let min = tail.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            (max - det.analytic_output(1.0, 0.0)).abs() < 0.1,
            "max {max}"
        );
        assert!(min.abs() < 0.1, "min {min}");
    }
}

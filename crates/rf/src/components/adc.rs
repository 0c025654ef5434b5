//! ADC model: sampling, quantization, and clipping.
//!
//! The tag's MCU ADC samples the envelope-detector output at kHz–MHz rates
//! (paper §3.2.1: "the output of the envelope detector is connected to the
//! ADC pin of a microcontroller with only a KHz sampling rate"). Quantization
//! adds a noise floor that participates in the symbol-spacing trade-off
//! (`Δf_int`, paper eq. 13).

/// A uniform mid-rise quantizing ADC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    /// Sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Resolution in bits.
    pub bits: u32,
    /// Full-scale input range: inputs are clipped to `[-full_scale, +full_scale]`.
    pub full_scale: f64,
}

impl Adc {
    /// A typical low-power MCU ADC: 12-bit, 1 MHz.
    pub fn mcu_12bit_1mhz() -> Self {
        Adc {
            sample_rate_hz: 1e6,
            bits: 12,
            full_scale: 1.0,
        }
    }

    /// Number of quantization levels.
    pub fn levels(&self) -> u64 {
        1u64 << self.bits
    }

    /// Least-significant-bit step size.
    pub fn lsb(&self) -> f64 {
        2.0 * self.full_scale / self.levels() as f64
    }

    /// Quantizes one sample (clip + round to the nearest level).
    pub fn quantize(&self, x: f64) -> f64 {
        self.quantizer().quantize(x)
    }

    /// The quantization law with its step and code bounds computed once,
    /// for loops over a whole capture.
    pub(crate) fn quantizer(&self) -> Quantizer {
        let max_code = (self.levels() / 2) as f64 - 1.0;
        Quantizer {
            full_scale: self.full_scale,
            lsb: self.lsb(),
            min_code: -(max_code + 1.0),
            max_code,
        }
    }
}

/// An [`Adc`]'s quantization law with the step and code bounds hoisted out
/// of the per-sample work: clip and divide into steps ([`Self::steps`]),
/// round, then clip the code and scale it back ([`Self::level`]). Each
/// sample sees the same clamp, divide, round, clamp and multiply as in
/// [`Adc::quantize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Quantizer {
    full_scale: f64,
    lsb: f64,
    min_code: f64,
    max_code: f64,
}

impl Quantizer {
    /// Quantizes one sample (clip + round to the nearest level).
    #[inline]
    pub(crate) fn quantize(&self, x: f64) -> f64 {
        self.level(self.steps(x).round())
    }

    /// `x` clipped to full scale, in steps: the value to round.
    #[inline]
    pub(crate) fn steps(&self, x: f64) -> f64 {
        x.clamp(-self.full_scale, self.full_scale) / self.lsb
    }

    /// The level of a rounded `code`, clipped to the code range.
    #[inline]
    pub(crate) fn level(&self, code: f64) -> f64 {
        code.clamp(self.min_code, self.max_code) * self.lsb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_dsp::stats::rms;

    #[test]
    fn lsb_and_levels() {
        let adc = Adc {
            sample_rate_hz: 1e6,
            bits: 8,
            full_scale: 1.0,
        };
        assert_eq!(adc.levels(), 256);
        assert!((adc.lsb() - 2.0 / 256.0).abs() < 1e-15);
    }

    #[test]
    fn quantize_is_idempotent() {
        let adc = Adc::mcu_12bit_1mhz();
        for &x in &[0.1234, -0.987, 0.0, 0.5] {
            let q = adc.quantize(x);
            assert_eq!(adc.quantize(q), q);
        }
    }

    #[test]
    fn quantize_clips() {
        let adc = Adc::mcu_12bit_1mhz();
        assert!(adc.quantize(10.0) <= adc.full_scale);
        assert!(adc.quantize(-10.0) >= -adc.full_scale);
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let adc = Adc {
            sample_rate_hz: 1e6,
            bits: 10,
            full_scale: 1.0,
        };
        for i in 0..1000 {
            let x = -0.999 + 0.002 * i as f64 * 0.999;
            let x = x.clamp(-0.999, 0.999);
            let err = (adc.quantize(x) - x).abs();
            assert!(err <= adc.lsb() / 2.0 + 1e-12, "err {err} at {x}");
        }
    }

    #[test]
    fn measured_snr_near_ideal() {
        // Quantize a full-scale sine and compare SNR against 6.02 B + 1.76.
        let adc = Adc {
            sample_rate_hz: 1e6,
            bits: 10,
            full_scale: 1.0,
        };
        let n = 100_000;
        let sig: Vec<f64> = (0..n)
            .map(|i| 0.99 * (std::f64::consts::TAU * 0.013 * i as f64).sin())
            .collect();
        let q: Vec<f64> = sig.iter().map(|&v| adc.quantize(v)).collect();
        let err: Vec<f64> = sig.iter().zip(&q).map(|(a, b)| a - b).collect();
        let snr_db = 20.0 * (rms(&sig) / rms(&err)).log10();
        let ideal = 6.02 * adc.bits as f64 + 1.76;
        assert!(
            (snr_db - ideal).abs() < 3.0,
            "measured {snr_db} vs ideal {ideal}"
        );
    }
}

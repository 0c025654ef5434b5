//! Bit-error-rate accounting.
//!
//! Every BiScatter evaluation figure reports BER over thousands of frames
//! (the paper collects 10 000 frames per point). [`BerCounter`] accumulates
//! errors/trials across frames and reports the rate with a Wilson 95 %
//! confidence interval, so bench output can state not just the point estimate
//! but whether `< 10^-3` is statistically supported.

use biscatter_dsp::stats::wilson_interval;

/// Accumulating bit-error counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BerCounter {
    /// Total bits compared.
    pub bits: u64,
    /// Total bit errors observed.
    pub errors: u64,
}

impl BerCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        BerCounter::default()
    }

    /// The observed bit-error rate (0 when nothing was compared).
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.errors as f64 / self.bits as f64
        }
    }

    /// 95 % Wilson confidence interval on the BER.
    pub fn confidence_interval(&self) -> (f64, f64) {
        wilson_interval(self.errors, self.bits)
    }

    /// A display-friendly BER that floors at the resolution limit
    /// `1/bits` when zero errors were observed (the conventional
    /// "BER < 1/N" reporting).
    pub fn ber_floor(&self) -> f64 {
        if self.bits == 0 {
            return 1.0;
        }
        if self.errors == 0 {
            1.0 / self.bits as f64
        } else {
            self.ber()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(bits: u64, errors: u64) -> BerCounter {
        BerCounter { bits, errors }
    }

    #[test]
    fn perfect_transmission() {
        assert_eq!(counter(40, 0).ber(), 0.0);
    }

    #[test]
    fn counts_flipped_bits() {
        assert_eq!(counter(8, 2).ber(), 0.25);
    }

    #[test]
    fn ber_floor_on_zero_errors() {
        let c = counter(1000, 0);
        assert_eq!(c.ber(), 0.0);
        assert!((c.ber_floor() - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn empty_counter() {
        let c = BerCounter::new();
        assert_eq!(c.ber(), 0.0);
        assert_eq!(c.ber_floor(), 1.0);
        assert_eq!(c.confidence_interval(), (0.0, 1.0));
    }

    #[test]
    fn confidence_shrinks_with_samples() {
        let small = counter(8, 4);
        let large = counter(8000, 4000);
        let (sl, sh) = small.confidence_interval();
        let (ll, lh) = large.confidence_interval();
        assert!(lh - ll < sh - sl);
        assert!((large.ber() - 0.5).abs() < 1e-12);
    }
}

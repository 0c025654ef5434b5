//! Radar hardware configurations.
//!
//! The paper evaluates two off-the-shelf front-ends (§4):
//!
//! * **9 GHz**: TI LMX2492EVM chirp generator + ZX80-05113LN+ amplifier —
//!   flexible bandwidth up to 1 GHz, chirp-level slope control, 7 dBm out.
//! * **24 GHz**: Analog Devices TinyRad — 250 MHz bandwidth (ISM-bound),
//!   8 dBm out, notably *better clock quality* than the 9 GHz chain (the
//!   paper attributes the 24 GHz prototype's slightly lower BER to this).
//!
//! A conceptual 77 GHz automotive preset is included because the paper notes
//! the design "applies to 77 GHz radar as well".

use crate::cssk::{CsskAlphabet, CsskError};

/// A radar front-end configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RadarConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Chirp start frequency `f0`, Hz.
    pub f0: f64,
    /// Configured sweep bandwidth, Hz.
    pub bandwidth: f64,
    /// Maximum bandwidth the hardware supports, Hz.
    pub max_bandwidth: f64,
    /// Minimum chirp duration the sweeper supports, s (commercial parts:
    /// 10–20 µs, paper §6).
    pub t_chirp_min: f64,
    /// Chirp slot period `T_period`, s (the paper's evaluations fix 120 µs).
    pub t_period: f64,
    /// IF ADC sample rate, Hz.
    pub if_sample_rate: f64,
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Antenna gain (TX and RX), dBi.
    pub antenna_gain_dbi: f64,
    /// Receiver noise figure, dB.
    pub noise_figure_db: f64,
    /// Clock quality factor: multiplies the effective decoder noise at the
    /// tag (1.0 = reference; < 1 is a cleaner clock). Captures the paper's
    /// observation that the 24 GHz radar's better signal generator slightly
    /// outperforms at equal SNR.
    pub clock_quality: f64,
}

impl RadarConfig {
    /// The paper's 9 GHz prototype (LMX2492-class) at full 1 GHz bandwidth.
    pub fn lmx2492_9ghz() -> Self {
        RadarConfig {
            name: "LMX2492 9 GHz",
            f0: 9.0e9,
            bandwidth: 1.0e9,
            max_bandwidth: 1.0e9,
            t_chirp_min: 20e-6,
            t_period: 120e-6,
            if_sample_rate: 10e6,
            tx_power_dbm: 7.0,
            antenna_gain_dbi: 6.0,
            noise_figure_db: 12.0,
            clock_quality: 1.0,
        }
    }

    /// The paper's 24 GHz prototype (TinyRad-class), 250 MHz bandwidth.
    pub fn tinyrad_24ghz() -> Self {
        RadarConfig {
            name: "TinyRad 24 GHz",
            f0: 24.0e9,
            bandwidth: 250e6,
            max_bandwidth: 250e6,
            t_chirp_min: 20e-6,
            t_period: 120e-6,
            if_sample_rate: 4e6,
            tx_power_dbm: 8.0,
            antenna_gain_dbi: 8.0,
            noise_figure_db: 12.0,
            clock_quality: 0.8,
        }
    }

    /// Returns a copy with a different configured bandwidth.
    ///
    /// # Panics
    /// Panics if `bandwidth` exceeds the hardware maximum or is
    /// non-positive.
    pub fn with_bandwidth(mut self, bandwidth: f64) -> Self {
        assert!(
            bandwidth > 0.0 && bandwidth <= self.max_bandwidth,
            "bandwidth {bandwidth} outside (0, {}]",
            self.max_bandwidth
        );
        self.bandwidth = bandwidth;
        self
    }

    /// Builds the CSSK alphabet this radar uses at `bits_per_symbol`.
    pub fn cssk_alphabet(&self, bits_per_symbol: usize) -> Result<CsskAlphabet, CsskError> {
        CsskAlphabet::new(
            self.f0,
            self.bandwidth,
            bits_per_symbol,
            self.t_chirp_min,
            self.t_period,
        )
    }

    /// Center frequency of the sweep.
    pub fn center_freq(&self) -> f64 {
        self.f0 + self.bandwidth / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_rf::chirp::Chirp;

    #[test]
    fn presets_distinct() {
        let a = RadarConfig::lmx2492_9ghz();
        let b = RadarConfig::tinyrad_24ghz();
        assert!(a.f0 < b.f0);
        assert!(a.bandwidth > b.bandwidth);
        assert!(b.clock_quality < a.clock_quality);
    }

    #[test]
    fn range_resolutions() {
        let res = |r: RadarConfig| Chirp::new(r.f0, r.bandwidth, r.t_chirp_min).range_resolution();
        assert!((res(RadarConfig::lmx2492_9ghz()) - 0.15).abs() < 0.01);
        assert!((res(RadarConfig::tinyrad_24ghz()) - 0.60).abs() < 0.01);
    }

    #[test]
    fn with_bandwidth_reconfigures() {
        let r = RadarConfig::lmx2492_9ghz().with_bandwidth(250e6);
        assert_eq!(r.bandwidth, 250e6);
        assert_eq!(r.max_bandwidth, 1e9);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn with_bandwidth_enforces_hardware_max() {
        RadarConfig::tinyrad_24ghz().with_bandwidth(1e9);
    }

    #[test]
    fn alphabet_integrates() {
        let a = RadarConfig::lmx2492_9ghz().cssk_alphabet(5).unwrap();
        assert_eq!(a.n_data_symbols(), 32);
        assert_eq!(a.bandwidth, 1e9);
    }

    #[test]
    fn center_freq() {
        assert!((RadarConfig::lmx2492_9ghz().center_freq() - 9.5e9).abs() < 1.0);
    }
}

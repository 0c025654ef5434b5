//! Propagation channel: path loss, the radar equation, and thermal noise —
//! the substitution for the paper's over-the-air office
//! environment (0.5–7 m, "substantial multipath propagation").
//!
//! Downlink (radar → tag) is a one-way link: received power follows Friis.
//! Uplink (tag → radar) is a round trip: the backscattered power falls with
//! `1/d⁴` per the radar equation, which is why the paper's uplink SNR range
//! is much lower than the downlink's (§5.1 "double attenuation").

use crate::{BOLTZMANN, SPEED_OF_LIGHT, T0_KELVIN};
use biscatter_dsp::stats::{db_to_pow, pow_to_db};

/// Free-space path loss in dB for a one-way trip of `d` metres at `f` Hz:
/// `20 log10(4 π d f / c)`.
pub fn fspl_db(d_m: f64, f_hz: f64) -> f64 {
    assert!(
        d_m > 0.0 && f_hz > 0.0,
        "distance and frequency must be positive"
    );
    20.0 * (4.0 * std::f64::consts::PI * d_m * f_hz / SPEED_OF_LIGHT).log10()
}

/// Thermal noise power in dBm over bandwidth `bw_hz` at the reference
/// temperature, plus a receiver noise figure `nf_db`.
pub fn thermal_noise_dbm(bw_hz: f64, nf_db: f64) -> f64 {
    assert!(bw_hz > 0.0, "bandwidth must be positive");
    10.0 * (BOLTZMANN * T0_KELVIN * bw_hz * 1000.0).log10() + nf_db
}

/// One-way link budget (radar transmitter to tag receiver input).
#[derive(Debug, Clone, Copy)]
pub struct OneWayLink {
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Transmit antenna gain, dBi.
    pub tx_gain_dbi: f64,
    /// Receive antenna gain, dBi.
    pub rx_gain_dbi: f64,
    /// Carrier frequency, Hz.
    pub freq_hz: f64,
}

impl OneWayLink {
    /// Received power in dBm at distance `d_m`.
    pub fn rx_power_dbm(&self, d_m: f64) -> f64 {
        self.tx_power_dbm + self.tx_gain_dbi + self.rx_gain_dbi - fspl_db(d_m, self.freq_hz)
    }
}

/// Two-way (backscatter) link budget using the radar equation with an
/// effective tag radar cross-section.
#[derive(Debug, Clone, Copy)]
pub struct TwoWayLink {
    /// Radar transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Radar antenna gain (used for both TX and RX), dBi.
    pub radar_gain_dbi: f64,
    /// Carrier frequency, Hz.
    pub freq_hz: f64,
    /// Effective tag radar cross-section, dBsm (dB relative to 1 m²).
    /// A retro-reflective Van Atta tag has a much larger effective RCS than
    /// its physical aperture; see [`crate::components::van_atta`].
    pub tag_rcs_dbsm: f64,
    /// Additional round-trip losses (tag modulation loss, polarization,
    /// implementation), dB.
    pub misc_loss_db: f64,
}

impl TwoWayLink {
    /// Received backscatter power in dBm at the radar for a tag at `d_m`:
    ///
    /// `P_rx = P_tx G² λ² σ / ((4π)³ d⁴)` in linear units.
    pub fn rx_power_dbm(&self, d_m: f64) -> f64 {
        assert!(d_m > 0.0);
        let lambda = SPEED_OF_LIGHT / self.freq_hz;
        let g_lin = db_to_pow(self.radar_gain_dbi);
        let sigma = db_to_pow(self.tag_rcs_dbsm);
        let p_tx_mw = db_to_pow(self.tx_power_dbm);
        let four_pi = 4.0 * std::f64::consts::PI;
        let p_rx_mw =
            p_tx_mw * g_lin * g_lin * lambda * lambda * sigma / (four_pi.powi(3) * d_m.powi(4));
        pow_to_db(p_rx_mw) - self.misc_loss_db
    }
}

/// Downlink SNR model: maps distance to the SNR of the beat tone at the tag
/// decoder's ADC.
///
/// This composes the one-way link budget with the tag's front-end insertion
/// loss and an output-referred decoder noise floor, calibrated per
/// DESIGN.md §2 so that the paper's operating points (≈16 dB SNR at 7 m with
/// the 9 GHz / 7 dBm prototype) are met.
#[derive(Debug, Clone, Copy)]
pub struct DownlinkBudget {
    /// One-way RF link.
    pub link: OneWayLink,
    /// Total tag front-end insertion loss (switch + splitters + delay lines
    /// + connectors), dB.
    pub tag_insertion_loss_db: f64,
    /// Output-referred decoder noise floor, dBm, in the envelope-detector
    /// measurement bandwidth (ADL6010 noise + ADC quantization).
    pub decoder_noise_floor_dbm: f64,
}

impl DownlinkBudget {
    /// SNR (dB) of the beat tone at distance `d_m`.
    pub fn snr_db(&self, d_m: f64) -> f64 {
        self.link.rx_power_dbm(d_m) - self.tag_insertion_loss_db - self.decoder_noise_floor_dbm
    }
}

/// Uplink SNR model: maps distance to the post-processing SNR of the tag's
/// modulated backscatter at the radar.
#[derive(Debug, Clone, Copy)]
pub struct UplinkBudget {
    /// Two-way backscatter link.
    pub link: TwoWayLink,
    /// Radar receiver noise figure, dB.
    pub radar_nf_db: f64,
    /// Radar IF bandwidth, Hz (sets the thermal floor before processing gain).
    pub if_bandwidth_hz: f64,
    /// Coherent processing gain, dB (range FFT plus Doppler FFT:
    /// `10 log10(N_fast · N_slow)` minus window losses).
    pub processing_gain_db: f64,
}

impl UplinkBudget {
    /// Post-processing SNR (dB) at distance `d_m`.
    pub fn snr_db(&self, d_m: f64) -> f64 {
        let noise = thermal_noise_dbm(self.if_bandwidth_hz, self.radar_nf_db);
        self.link.rx_power_dbm(d_m) - noise + self.processing_gain_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fspl_known_value() {
        // 1 m at 2.4 GHz: 40.05 dB.
        assert!((fspl_db(1.0, 2.4e9) - 40.05).abs() < 0.05);
        // 9.5 GHz at 7 m: ~68.9 dB.
        assert!((fspl_db(7.0, 9.5e9) - 68.9).abs() < 0.2);
    }

    #[test]
    fn fspl_slope_is_20db_per_decade() {
        let a = fspl_db(1.0, 9e9);
        let b = fspl_db(10.0, 9e9);
        assert!((b - a - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn fspl_rejects_zero_distance() {
        fspl_db(0.0, 1e9);
    }

    #[test]
    fn thermal_noise_reference() {
        // kTB for 1 Hz is -174 dBm; for 1 MHz, -114 dBm.
        assert!((thermal_noise_dbm(1.0, 0.0) + 174.0).abs() < 0.2);
        assert!((thermal_noise_dbm(1e6, 0.0) + 114.0).abs() < 0.2);
        assert!((thermal_noise_dbm(1e6, 10.0) + 104.0).abs() < 0.2);
    }

    #[test]
    fn one_way_power_decreases_with_distance() {
        let link = OneWayLink {
            tx_power_dbm: 7.0,
            tx_gain_dbi: 6.0,
            rx_gain_dbi: 6.0,
            freq_hz: 9.5e9,
        };
        let p1 = link.rx_power_dbm(1.0);
        let p7 = link.rx_power_dbm(7.0);
        assert!(p1 > p7);
        // One-way: 20 log10(7) = 16.9 dB difference.
        assert!((p1 - p7 - 16.9).abs() < 0.05);
    }

    #[test]
    fn two_way_power_falls_fourth_power() {
        let link = TwoWayLink {
            tx_power_dbm: 7.0,
            radar_gain_dbi: 15.0,
            freq_hz: 9.5e9,
            tag_rcs_dbsm: 0.0,
            misc_loss_db: 0.0,
        };
        let p1 = link.rx_power_dbm(1.0);
        let p10 = link.rx_power_dbm(10.0);
        // 40 dB per decade.
        assert!((p1 - p10 - 40.0).abs() < 1e-9);
    }

    #[test]
    fn radar_equation_sanity() {
        // P_tx=1 W (30 dBm), G=30 dBi, f=10 GHz (λ=3 cm), σ=1 m², d=1 km:
        // P_rx = 1e3 mW * 1e6 * 9e-4 * 1 / (1984.4 * 1e12) ≈ 4.54e-10 mW
        //      ≈ -93.4 dBm.
        let link = TwoWayLink {
            tx_power_dbm: 30.0,
            radar_gain_dbi: 30.0,
            freq_hz: 10e9,
            tag_rcs_dbsm: 0.0,
            misc_loss_db: 0.0,
        };
        let p = link.rx_power_dbm(1000.0);
        assert!((p + 93.4).abs() < 0.3, "got {p}");
    }

    #[test]
    fn downlink_budget_7m_operating_point() {
        // Calibration target from the paper (Fig. 13 caption): ~16 dB SNR at
        // 7 m with the 9 GHz prototype.
        let budget = DownlinkBudget {
            link: OneWayLink {
                tx_power_dbm: 7.0,
                tx_gain_dbi: 6.0,
                rx_gain_dbi: 6.0,
                freq_hz: 9.5e9,
            },
            tag_insertion_loss_db: 10.0,
            decoder_noise_floor_dbm: -76.0,
        };
        let snr = budget.snr_db(7.0);
        assert!((snr - 16.0).abs() < 1.0, "got {snr} dB at 7 m");
    }

    #[test]
    fn uplink_snr_monotone_decreasing() {
        let budget = UplinkBudget {
            link: TwoWayLink {
                tx_power_dbm: 7.0,
                radar_gain_dbi: 15.0,
                freq_hz: 9.5e9,
                tag_rcs_dbsm: 5.0,
                misc_loss_db: 6.0,
            },
            radar_nf_db: 12.0,
            if_bandwidth_hz: 2e6,
            processing_gain_db: 30.0,
        };
        let mut last = f64::INFINITY;
        for i in 1..=14 {
            let d = 0.5 * i as f64;
            let snr = budget.snr_db(d);
            assert!(snr < last);
            last = snr;
        }
    }
}

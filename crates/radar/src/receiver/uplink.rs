//! Uplink demodulation: recovering the tag's bit stream from slow time.
//!
//! After localization, the radar extracts the slow-time amplitude sequence at
//! the tag's range bin. The tag's data gates (OOK) or shifts (FSK) its switch
//! subcarrier per bit, so each bit window of `bit_duration / T_period` chirps
//! is decided by subcarrier energy: Goertzel power at the subcarrier
//! frequency (OOK, against an adaptive two-level threshold) or a power
//! comparison between the two subcarriers (FSK).

use super::CommsView;
use biscatter_dsp::goertzel::GoertzelCoeffs;
use biscatter_dsp::Real;
use std::cell::RefCell;

/// Uplink modulation schemes the radar can demodulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UplinkScheme {
    /// On-off keying of a subcarrier at `freq_hz`.
    Ook {
        /// Subcarrier frequency, Hz.
        freq_hz: f64,
    },
    /// Binary FSK between two subcarriers.
    Fsk {
        /// Subcarrier for a `false` bit, Hz.
        freq0_hz: f64,
        /// Subcarrier for a `true` bit, Hz.
        freq1_hz: f64,
    },
}

/// Demodulation outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UplinkDecode {
    /// Decided bits, one per complete bit window in the frame.
    pub bits: Vec<bool>,
    /// Per-bit decision metric (subcarrier power for OOK; power difference
    /// for FSK) — useful for soft-decision diagnostics.
    pub metrics: Vec<f64>,
}

/// Demodulates the uplink from an aligned frame's comms path.
///
/// * `range_bin` — the tag's range-grid index (from
///   [`locate_tag`](super::localize::locate_tag)),
/// * `scheme` — the modulation the tag was assigned,
/// * `bit_duration_s` — uplink bit period; must span at least two chirps.
///
/// Number of chirps spanned by one uplink bit window: `bit_duration_s`
/// rounded to the nearest whole chirp period. This is the decoder-state
/// quantum a fleet handoff carries along with accumulated bits — both the
/// cell that opens an uplink session and the cell it migrates to must
/// window the slow-time sequence identically.
pub fn chirps_per_bit(bit_duration_s: f64, t_period: f64) -> usize {
    (bit_duration_s / t_period).round() as usize
}

/// Returns `None` if the frame is shorter than one bit window.
pub fn demodulate<T: Real>(
    comms: CommsView<'_, T>,
    range_bin: usize,
    scheme: UplinkScheme,
    bit_duration_s: f64,
) -> Option<UplinkDecode> {
    // Amplitude sequence at the tag's range (magnitude discards the static
    // phase and any residual from background subtraction), widened to f64
    // first so either precision decides through the same filters and
    // thresholds.
    let amp: Vec<f64> = (0..comms.n_chirps())
        .map(|c| comms.at(c, range_bin).to_f64().abs())
        .collect();
    let t_period = comms.t_period();
    let chirps_per_bit = chirps_per_bit(bit_duration_s, t_period);
    if chirps_per_bit < 2 || amp.len() < chirps_per_bit {
        return None;
    }
    let fs_slow = 1.0 / t_period;
    let n_bits = amp.len() / chirps_per_bit;

    let mut out = UplinkDecode::default();
    match scheme {
        UplinkScheme::Ook { freq_hz } => {
            let g = GoertzelCoeffs::new(freq_hz / fs_slow);
            decode_ook_windows(&amp, chirps_per_bit, n_bits, &g, &mut out);
        }
        UplinkScheme::Fsk { freq0_hz, freq1_hz } => {
            let g0 = GoertzelCoeffs::new(freq0_hz / fs_slow);
            let g1 = GoertzelCoeffs::new(freq1_hz / fs_slow);
            decode_fsk_windows(&amp, chirps_per_bit, n_bits, &g0, &g1, &mut out);
        }
    }
    Some(out)
}

/// OOK bit decisions over `n_bits` windows of `amp`: per-window DC-removed
/// Goertzel power (folded into the filter pass, no per-window copy), then an
/// adaptive two-level threshold over the frame. Appends into `out`'s vectors
/// so the batched path can reuse their capacity. Shared by [`demodulate`]
/// and the multi-tag engine.
pub(crate) fn decode_ook_windows(
    amp: &[f64],
    chirps_per_bit: usize,
    n_bits: usize,
    g: &GoertzelCoeffs,
    out: &mut UplinkDecode,
) {
    out.bits.clear();
    out.metrics.clear();
    for b in 0..n_bits {
        let w = &amp[b * chirps_per_bit..(b + 1) * chirps_per_bit];
        out.metrics.push(g.power_shifted(w, window_mean(w)));
    }
    let threshold = two_level_threshold(&out.metrics);
    out.bits.extend(out.metrics.iter().map(|&p| p > threshold));
}

/// FSK bit decisions over `n_bits` windows of `amp`: stronger of the two
/// subcarriers wins, metric is the power difference. Shared like
/// [`decode_ook_windows`].
pub(crate) fn decode_fsk_windows(
    amp: &[f64],
    chirps_per_bit: usize,
    n_bits: usize,
    g0: &GoertzelCoeffs,
    g1: &GoertzelCoeffs,
    out: &mut UplinkDecode,
) {
    out.bits.clear();
    out.metrics.clear();
    for b in 0..n_bits {
        let w = &amp[b * chirps_per_bit..(b + 1) * chirps_per_bit];
        let mean = window_mean(w);
        let p0 = g0.power_shifted(w, mean);
        let p1 = g1.power_shifted(w, mean);
        out.bits.push(p1 > p0);
        out.metrics.push(p1 - p0);
    }
}

/// Mean of a bit window (the DC amplitude level the subcarrier rides on).
/// Summed left to right, matching the retired `dc_removed` helper so the
/// folded DC removal stays bit-identical to materializing `x - mean`.
fn window_mean(w: &[f64]) -> f64 {
    w.iter().sum::<f64>() / w.len() as f64
}

thread_local! {
    /// Per-thread scratch for the threshold's median selection.
    static THRESHOLD_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Adaptive two-level threshold: the midpoint between the mean of the values
/// above and below the median. Falls back to half the maximum when the two
/// clusters collapse (all-same-bit windows).
///
/// The median (upper-middle order statistic, as the original sort-based code
/// selected) comes from `select_nth_unstable_by` on a per-thread scratch
/// copy — O(n) instead of O(n log n) and allocation-free once warm, with
/// values identical to sorting.
pub(crate) fn two_level_threshold(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let median = THRESHOLD_SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        scratch.clear();
        scratch.extend_from_slice(values);
        let mid = scratch.len() / 2;
        *scratch
            .select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).unwrap())
            .1
    });
    let (mut lo_sum, mut lo_n, mut hi_sum, mut hi_n) = (0.0, 0usize, 0.0, 0usize);
    for &v in values {
        if v <= median {
            lo_sum += v;
            lo_n += 1;
        } else {
            hi_sum += v;
            hi_n += 1;
        }
    }
    if hi_n == 0 || lo_n == 0 {
        // One cluster empty means every value sits on one side of the
        // median; the maximum is then the same value a full sort would have
        // put last.
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        return max / 2.0;
    }
    (lo_sum / lo_n as f64 + hi_sum / hi_n as f64) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::{align_frame, AlignedFrame, RxConfig};
    use biscatter_dsp::signal::NoiseSource;
    use biscatter_rf::chirp::Chirp;
    use biscatter_rf::frame::ChirpTrain;
    use biscatter_rf::if_gen::IfReceiver;
    use biscatter_rf::scene::{Scatterer, Scene, TagModulation};

    /// Builds a frame with a tag transmitting `bits` and returns the aligned
    /// frame plus the tag's range bin.
    fn uplink_frame(
        bits: &[bool],
        scheme: UplinkScheme,
        bit_duration: f64,
        noise_sigma: f64,
        seed: u64,
    ) -> (AlignedFrame, usize) {
        let t_period = 120e-6;
        let chirps_per_bit = (bit_duration / t_period).round() as usize;
        let n_chirps = bits.len() * chirps_per_bit;
        let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); n_chirps];
        let train = ChirpTrain::with_fixed_period(&chirps, t_period).unwrap();
        let modulation = match scheme {
            UplinkScheme::Ook { freq_hz } => TagModulation::OokBits {
                freq_hz,
                bit_duration_s: bit_duration,
                bits: bits.to_vec(),
            },
            UplinkScheme::Fsk { freq0_hz, freq1_hz } => TagModulation::FskBits {
                freq0_hz,
                freq1_hz,
                bit_duration_s: bit_duration,
                bits: bits.to_vec(),
            },
        };
        let tag = Scatterer {
            range_m: 5.0,
            azimuth_rad: 0.0,
            velocity_mps: 0.0,
            amplitude: 1.0,
            modulation,
            leak: 0.01,
        };
        let scene = Scene::new().with(Scatterer::clutter(2.0, 3.0)).with(tag);
        let rx = IfReceiver {
            sample_rate_hz: 10e6,
            noise_sigma,
        };
        let mut noise = NoiseSource::new(seed);
        let if_data = rx.dechirp_train(&train, &scene, 0.0, &mut noise);
        let cfg = RxConfig::default();
        let frame = align_frame(&cfg, &train, &if_data);
        // Tag at 5.0 m on the default grid (15 m / 511 per bin).
        let bin = frame
            .range_grid
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - 5.0).abs().partial_cmp(&(b.1 - 5.0).abs()).unwrap())
            .unwrap()
            .0;
        (frame, bin)
    }

    #[test]
    fn ook_roundtrip_clean() {
        let bits = vec![true, true, false, true, false, false, true, false];
        // Subcarrier 1302 Hz (bin-friendly), bit = 32 chirps = 3.84 ms.
        let scheme = UplinkScheme::Ook { freq_hz: 1302.0 };
        let (frame, bin) = uplink_frame(&bits, scheme, 32.0 * 120e-6, 0.001, 1);
        let out = demodulate(frame.comms(), bin, scheme, 32.0 * 120e-6).unwrap();
        assert_eq!(out.bits, bits);
    }

    #[test]
    fn ook_survives_moderate_noise() {
        let bits = vec![true, false, true, true, false, true, false, false];
        let scheme = UplinkScheme::Ook { freq_hz: 1302.0 };
        let (frame, bin) = uplink_frame(&bits, scheme, 32.0 * 120e-6, 0.05, 2);
        let out = demodulate(frame.comms(), bin, scheme, 32.0 * 120e-6).unwrap();
        assert_eq!(out.bits, bits);
    }

    #[test]
    fn fsk_roundtrip() {
        let bits = vec![false, true, true, false, true, false];
        let scheme = UplinkScheme::Fsk {
            freq0_hz: 1041.7,
            freq1_hz: 2083.3,
        };
        let (frame, bin) = uplink_frame(&bits, scheme, 32.0 * 120e-6, 0.01, 3);
        let out = demodulate(frame.comms(), bin, scheme, 32.0 * 120e-6).unwrap();
        assert_eq!(out.bits, bits);
    }

    #[test]
    fn too_short_frame_returns_none() {
        let bits = vec![true];
        let scheme = UplinkScheme::Ook { freq_hz: 1302.0 };
        let (frame, bin) = uplink_frame(&bits, scheme, 8.0 * 120e-6, 0.001, 4);
        // Ask for a bit duration longer than the frame.
        assert!(demodulate(frame.comms(), bin, scheme, 1.0).is_none());
    }

    #[test]
    fn threshold_handles_two_levels() {
        let t = two_level_threshold(&[1.0, 1.1, 0.9, 10.0, 10.2, 9.8]);
        assert!(t > 1.1 && t < 9.8, "threshold {t}");
    }

    #[test]
    fn threshold_degenerate_inputs() {
        assert_eq!(two_level_threshold(&[]), 0.0);
        let t = two_level_threshold(&[4.0, 4.0, 4.0]);
        assert!(t <= 4.0);
    }
}

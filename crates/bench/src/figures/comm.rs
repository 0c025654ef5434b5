//! Communication figures: Fig. 12 (BER vs symbol size × bandwidth), Fig. 13
//! (BER vs distance), Fig. 14 (BER vs SNR × ΔL), Fig. 17 (9 vs 24 GHz).

use crate::Fidelity;
use biscatter_core::downlink::measure_ber_symbols;
use biscatter_core::experiment::{parallel_sweep, Experiment, SweepPoint};
use biscatter_core::radar::configs::RadarConfig;
use biscatter_core::rf::inches_to_m;
use biscatter_core::system::BiScatterSystem;

const SYMBOLS_PER_FRAME: usize = 24;

fn ber_point(fid: Fidelity, sys: &BiScatterSystem, snr_db: f64, seed: u64) -> (f64, f64, f64) {
    let frames = fid.frames_per_point;
    let c = measure_ber_symbols(sys, snr_db, frames, SYMBOLS_PER_FRAME, seed);
    let (lo, hi) = c.confidence_interval();
    (c.ber_floor(), lo, hi)
}

/// **Figure 12**: downlink BER vs symbol size for three bandwidths at a
/// fixed close-in operating point (the paper isolates symbol size; we use
/// the SNR of the 9 GHz link at ≈2 m, ~27 dB).
pub fn fig12_ber_symbol_size(fid: Fidelity) -> Experiment {
    let mut e = Experiment::new(
        "fig12_ber_symbol_size",
        "Downlink BER vs symbol size (bits) for B in {250 MHz, 500 MHz, 1 GHz}",
    );
    let mut inputs = Vec::new();
    for &bw in &[250e6, 500e6, 1e9] {
        for bits in 2..=7usize {
            inputs.push((bw, bits));
        }
    }
    e.points = parallel_sweep(inputs, |&(bw, bits)| {
        let radar = RadarConfig::lmx2492_9ghz().with_bandwidth(bw);
        let sys = BiScatterSystem::new(radar, inches_to_m(45.0), bits).unwrap();
        let snr = sys.downlink_snr_at(2.0);
        let (ber, lo, hi) = ber_point(fid, &sys, snr, 12_000 + bits as u64);
        SweepPoint::new(
            &[("bandwidth_mhz", bw / 1e6), ("symbol_bits", bits as f64)],
            &[
                ("snr_db", snr),
                ("ber", ber),
                ("ber_ci_low", lo),
                ("ber_ci_high", hi),
            ],
        )
    });
    e
}

/// **Figure 13**: downlink BER vs radar–tag distance for symbol sizes
/// {3, 5, 7} bits at B = 1 GHz (distance maps to SNR through the one-way
/// budget; ~16 dB at 7 m).
pub fn fig13_ber_distance(fid: Fidelity) -> Experiment {
    let mut e = Experiment::new(
        "fig13_ber_distance",
        "Downlink BER vs distance for symbol sizes {3,5,7} bits, B = 1 GHz",
    );
    let mut inputs = Vec::new();
    for &bits in &[3usize, 5, 7] {
        for &d in &[0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0] {
            inputs.push((bits, d));
        }
    }
    e.points = parallel_sweep(inputs, |&(bits, d)| {
        let sys =
            BiScatterSystem::new(RadarConfig::lmx2492_9ghz(), inches_to_m(45.0), bits).unwrap();
        let snr = sys.downlink_snr_at(d);
        let (ber, lo, hi) = ber_point(fid, &sys, snr, 13_000 + (bits * 100) as u64 + d as u64);
        SweepPoint::new(
            &[("symbol_bits", bits as f64), ("distance_m", d)],
            &[
                ("snr_db", snr),
                ("ber", ber),
                ("ber_ci_low", lo),
                ("ber_ci_high", hi),
            ],
        )
    });
    e
}

/// **Figure 14**: downlink BER vs SNR for delay-line differences
/// {6, 18, 45} inches at 5-bit symbols, B = 1 GHz.
pub fn fig14_ber_delay_line(fid: Fidelity) -> Experiment {
    let mut e = Experiment::new(
        "fig14_ber_delay_line",
        "Downlink BER vs SNR for ΔL in {6, 18, 45} inches, 5-bit symbols, B = 1 GHz",
    );
    let mut inputs = Vec::new();
    for &dl_in in &[6.0, 18.0, 45.0] {
        for &snr in &[0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0] {
            inputs.push((dl_in, snr));
        }
    }
    e.points = parallel_sweep(inputs, |&(dl_in, snr)| {
        let sys = BiScatterSystem::new(RadarConfig::lmx2492_9ghz(), inches_to_m(dl_in), 5).unwrap();
        let (ber, lo, hi) = ber_point(fid, &sys, snr, 14_000 + dl_in as u64 + snr as u64);
        SweepPoint::new(
            &[("delta_l_in", dl_in), ("snr_db", snr)],
            &[("ber", ber), ("ber_ci_low", lo), ("ber_ci_high", hi)],
        )
    });
    e
}

/// **Figure 17**: BER vs SNR for the 9 GHz and 24 GHz radars, both
/// constrained to 250 MHz bandwidth (the 24 GHz ISM limit). The 24 GHz
/// chain's cleaner clock gives it a slight edge at equal SNR, as in the
/// paper. The paper does not state the Fig.-17 tag/symbol configuration;
/// we use 3-bit symbols with a 72-inch ΔL, putting the 250 MHz link in the
/// displayed BER range (the time-bandwidth product B·ΔT bounds how many
/// slopes a 250 MHz sweep can separate — see Fig. 12).
pub fn fig17_mmwave(fid: Fidelity) -> Experiment {
    let mut e = Experiment::new(
        "fig17_mmwave",
        "Downlink BER vs SNR at B = 250 MHz: 9 GHz vs 24 GHz radars, 3-bit symbols",
    );
    let mut inputs = Vec::new();
    for band in [9.0f64, 24.0] {
        for &snr in &[4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0] {
            inputs.push((band, snr));
        }
    }
    e.points = parallel_sweep(inputs, |&(band, snr)| {
        let radar = if band < 10.0 {
            RadarConfig::lmx2492_9ghz().with_bandwidth(250e6)
        } else {
            RadarConfig::tinyrad_24ghz()
        };
        // The clock-quality factor models the 24 GHz synthesizer's cleaner
        // output as an effective SNR bonus at the decoder.
        let clock_bonus_db = -10.0 * radar.clock_quality.log10();
        let sys = BiScatterSystem::new(radar, inches_to_m(72.0), 3).unwrap();
        let (ber, lo, hi) = ber_point(
            fid,
            &sys,
            snr + clock_bonus_db,
            17_000 + band as u64 + snr as u64,
        );
        SweepPoint::new(
            &[("band_ghz", band), ("snr_db", snr)],
            &[("ber", ber), ("ber_ci_low", lo), ("ber_ci_high", hi)],
        )
    });
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ber_of(e: &Experiment, filt: &[(&str, f64)]) -> f64 {
        e.points
            .iter()
            .find(|p| filt.iter().all(|(k, v)| p.param(k) == Some(*v)))
            .unwrap_or_else(|| panic!("point {filt:?} missing"))
            .metric("ber")
            .unwrap()
    }

    #[test]
    fn fig12_shapes() {
        let e = fig12_ber_symbol_size(Fidelity::default());
        assert_eq!(e.points.len(), 18);
        // Wider bandwidth wins at 5 bits.
        let b1g = ber_of(&e, &[("bandwidth_mhz", 1000.0), ("symbol_bits", 5.0)]);
        let b250 = ber_of(&e, &[("bandwidth_mhz", 250.0), ("symbol_bits", 5.0)]);
        assert!(b1g < b250 / 10.0, "1 GHz {b1g} vs 250 MHz {b250}");
        // The paper's headline: 1 GHz at 5 bits achieves < 1e-3.
        assert!(b1g < 1e-3, "got {b1g}");
        // Larger symbols are worse at fixed bandwidth.
        let b7 = ber_of(&e, &[("bandwidth_mhz", 1000.0), ("symbol_bits", 7.0)]);
        assert!(b7 > b1g);
    }

    #[test]
    fn fig13_shapes() {
        let e = fig13_ber_distance(Fidelity::default());
        // 5-bit at 7 m: the paper's < 1e-3 headline.
        let b5_7m = ber_of(&e, &[("symbol_bits", 5.0), ("distance_m", 7.0)]);
        assert!(b5_7m < 2e-3, "5-bit at 7 m: {b5_7m}");
        // BER grows with distance (compare 1 m vs 8 m at 7 bits).
        let b7_1m = ber_of(&e, &[("symbol_bits", 7.0), ("distance_m", 1.0)]);
        let b7_8m = ber_of(&e, &[("symbol_bits", 7.0), ("distance_m", 8.0)]);
        assert!(b7_8m > b7_1m);
        // Larger symbol size is worse at 7 m.
        let b3_7m = ber_of(&e, &[("symbol_bits", 3.0), ("distance_m", 7.0)]);
        let b7_7m = ber_of(&e, &[("symbol_bits", 7.0), ("distance_m", 7.0)]);
        assert!(b3_7m <= b5_7m && b5_7m < b7_7m);
    }

    #[test]
    fn fig14_shapes() {
        let e = fig14_ber_delay_line(Fidelity::default());
        // Longer ΔL wins at mid SNR.
        let b45 = ber_of(&e, &[("delta_l_in", 45.0), ("snr_db", 16.0)]);
        let b18 = ber_of(&e, &[("delta_l_in", 18.0), ("snr_db", 16.0)]);
        let b6 = ber_of(&e, &[("delta_l_in", 6.0), ("snr_db", 16.0)]);
        assert!(b45 < b18 && b18 < b6, "{b45} / {b18} / {b6}");
        // And 45 in improves with SNR.
        let b45_lo = ber_of(&e, &[("delta_l_in", 45.0), ("snr_db", 4.0)]);
        assert!(b45_lo > b45);
    }

    #[test]
    fn fig17_shapes() {
        let e = fig17_mmwave(Fidelity::default());
        // Both bands comparable; 24 GHz slightly better at equal SNR.
        let mut better = 0;
        let mut total = 0;
        for &snr in &[8.0, 12.0, 16.0, 20.0] {
            let b9 = ber_of(&e, &[("band_ghz", 9.0), ("snr_db", snr)]);
            let b24 = ber_of(&e, &[("band_ghz", 24.0), ("snr_db", snr)]);
            total += 1;
            if b24 <= b9 {
                better += 1;
            }
            // "Comparable": within 20x either way (plus the Monte-Carlo
            // resolution floor).
            assert!(b24 < b9 * 20.0 + 1e-3 && b9 < b24 * 20.0 + 1e-3);
        }
        assert!(better * 2 >= total, "24 GHz should trend better");
    }
}

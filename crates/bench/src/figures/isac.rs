//! ISAC figures: Fig. 15 (uplink SNR vs distance) and Fig. 16 (localization
//! error with and without concurrent communication).

use crate::Fidelity;
use biscatter_core::dsp::stats::{mean, percentile};
use biscatter_core::experiment::{parallel_sweep, Experiment, SweepPoint};
use biscatter_core::isac::{run_isac_frame, IsacScenario};
use biscatter_core::system::BiScatterSystem;

fn mod_freq(bin: usize) -> f64 {
    bin as f64 / (128.0 * 120e-6)
}

/// **Figure 15**: uplink SNR vs distance. Reports three series: the
/// link-budget per-chirp SNR (the paper's metric, ≈4 dB at 7 m), the SNR
/// actually measured on the range–Doppler map, and the budget for a
/// *non-retro-reflective* tag of the same aperture at 30° incidence — the
/// baseline showing why the Van Atta structure matters.
pub fn fig15_uplink_snr() -> Experiment {
    let mut e = Experiment::new(
        "fig15_uplink_snr",
        "Uplink SNR vs distance: retro-reflective tag budget, measured map SNR, specular baseline",
    );
    let sys = BiScatterSystem::paper_9ghz();
    let theta = 30f64.to_radians();
    let retro_pat = sys.van_atta.retro_pattern(theta);
    let spec_pat = sys.van_atta.specular_pattern(theta);
    let specular_penalty_db = 10.0 * (spec_pat / retro_pat).log10();

    let distances = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
    e.points = parallel_sweep(distances.to_vec(), |&d| {
        let snr_budget = sys.uplink_snr_per_chirp(d);
        // Measured: run one ISAC frame and read the signature-score SNR.
        let scenario = IsacScenario::single_tag(d, mod_freq(16));
        let out = run_isac_frame(&sys, &scenario, b"", 1500 + (d * 10.0) as u64);
        let measured = out.location.map(|l| l.snr_db).unwrap_or(f64::NAN);
        SweepPoint::new(
            &[("distance_m", d)],
            &[
                ("snr_per_chirp_db", snr_budget),
                ("snr_map_measured_db", measured),
                ("snr_specular_30deg_db", snr_budget + specular_penalty_db),
                ("located", out.location.is_some() as u8 as f64),
            ],
        )
    });
    e
}

/// **Figure 16**: 1D localization error vs distance, with the radar either
/// sensing-only (fixed slope) or running full two-way communication
/// (CSSK-varying slopes), plus the no-IF-correction ablation that shows why
/// §3.3's correction is needed.
pub fn fig16_localization(fid: Fidelity) -> Experiment {
    let mut e = Experiment::new(
        "fig16_localization",
        "Tag localization error vs distance: sensing-only vs during two-way comms (+ no-IF-correction ablation)",
    );
    let n_frames = fid.isac_frames_per_point;

    // mode: 0 = sensing-only, 1 = during comms, 2 = comms w/o IF correction.
    let mut inputs = Vec::new();
    for &d in &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0] {
        for mode in 0..3usize {
            inputs.push((d, mode));
        }
    }
    e.points = parallel_sweep(inputs, |&(d, mode)| {
        let mut sys = BiScatterSystem::paper_9ghz();
        if mode == 2 {
            sys.rx.if_correction = false;
        }
        let payload: &[u8] = if mode == 0 { b"" } else { b"COMMS-PAYLOAD-16" };
        let scenario = IsacScenario::single_tag(d, mod_freq(16)).with_office_clutter();
        let mut errors = Vec::new();
        let mut found = 0usize;
        for f in 0..n_frames {
            let out = run_isac_frame(
                &sys,
                &scenario,
                payload,
                16_000 + (d * 100.0) as u64 + (mode * 10_000) as u64 + f as u64,
            );
            if let Some(loc) = out.location {
                errors.push((loc.range_m - d).abs());
                found += 1;
            }
        }
        let (mean_err, p90) = if errors.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (mean(&errors), percentile(&errors, 90.0))
        };
        SweepPoint::new(
            &[("distance_m", d), ("mode", mode as f64)],
            &[
                ("mean_error_cm", mean_err * 100.0),
                ("p90_error_cm", p90 * 100.0),
                ("detection_rate", found as f64 / n_frames as f64),
            ],
        )
    });
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_shapes() {
        let e = fig15_uplink_snr();
        // Budget SNR decreases monotonically and stays > 3 dB at 7 m.
        let snr = |d: f64| {
            e.points
                .iter()
                .find(|p| p.param("distance_m") == Some(d))
                .unwrap()
                .metric("snr_per_chirp_db")
                .unwrap()
        };
        assert!(snr(0.5) > snr(2.0) && snr(2.0) > snr(7.0));
        assert!(snr(7.0) > 3.0, "7 m per-chirp SNR {}", snr(7.0));
        // 40 dB/decade slope.
        assert!((snr(0.5) - snr(5.0) - 40.0).abs() < 1.0);
        // Specular baseline is far below the retro tag.
        let p = e
            .points
            .iter()
            .find(|p| p.param("distance_m") == Some(3.0))
            .unwrap();
        assert!(
            p.metric("snr_specular_30deg_db").unwrap()
                < p.metric("snr_per_chirp_db").unwrap() - 10.0
        );
        // Tag actually located across the paper's range.
        for pt in &e.points {
            if pt.param("distance_m").unwrap() <= 7.0 {
                assert_eq!(pt.metric("located"), Some(1.0), "{:?}", pt.params);
            }
        }
    }

    #[test]
    fn fig16_shapes() {
        let e = fig16_localization(Fidelity::default());
        let err = |d: f64, mode: f64| {
            e.points
                .iter()
                .find(|p| p.param("distance_m") == Some(d) && p.param("mode") == Some(mode))
                .unwrap()
                .metric("mean_error_cm")
                .unwrap()
        };
        // Centimetre level both with and without comms at 3 m.
        assert!(err(3.0, 0.0) < 12.0, "sensing-only {}", err(3.0, 0.0));
        assert!(err(3.0, 1.0) < 12.0, "during comms {}", err(3.0, 1.0));
        // The ablation without IF correction collapses (error ≫ or lost).
        let ablate = err(3.0, 2.0);
        assert!(
            ablate.is_nan() || ablate > 4.0 * err(3.0, 1.0).max(1.0),
            "no-correction error {ablate} vs corrected {}",
            err(3.0, 1.0)
        );
    }
}

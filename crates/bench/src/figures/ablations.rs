//! Ablations of the design choices DESIGN.md §4.1 calls out, plus the §6
//! chirp-spread-spectrum extension. These are not paper figures; they are
//! the evidence for the decisions this reproduction had to make.

use crate::Fidelity;
use biscatter_core::downlink::measure_ber_symbols_mapped;
use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::dsp::stats::mean;
use biscatter_core::experiment::{parallel_sweep, Experiment, SweepPoint};
use biscatter_core::isac::{run_isac_frame, IsacScenario};
use biscatter_core::spread::SpreadCode;
use biscatter_core::system::BiScatterSystem;

/// **Ablation: Gray vs natural bit↔slope mapping.** The dominant CSSK error
/// is an adjacent-slope confusion; Gray mapping bounds it to one bit, the
/// natural mapping can flip up to `bits` bits.
pub fn ablation_gray_mapping(fid: Fidelity) -> Experiment {
    let mut e = Experiment::new(
        "ablation_gray_mapping",
        "Downlink BER with Gray vs natural binary bit-to-slope mapping (5-bit, 1 GHz)",
    );
    let mut inputs = Vec::new();
    for gray in [false, true] {
        for &snr in &[6.0, 10.0, 14.0, 18.0] {
            inputs.push((gray, snr));
        }
    }
    e.points = parallel_sweep(inputs, |&(gray, snr)| {
        let sys = BiScatterSystem::paper_9ghz();
        let c = measure_ber_symbols_mapped(
            &sys,
            snr,
            fid.frames_per_point,
            24,
            5_000 + snr as u64,
            gray,
        );
        SweepPoint::new(
            &[("gray", gray as u8 as f64), ("snr_db", snr)],
            &[("ber", c.ber_floor())],
        )
    });
    e
}

/// **Extension: chirp-spread-spectrum coding (§6).** Symbol error rate vs
/// SNR for spreading factors L ∈ {1, 2, 4}: each ×2 in L buys ~3 dB and
/// error diversity across the slope ladder, at 1/L the data rate.
pub fn ablation_spreading(fid: Fidelity) -> Experiment {
    let mut e = Experiment::new(
        "ablation_spreading",
        "CSS spreading extension: symbol error rate vs SNR for L in {1,2,4} (5-bit, 1 GHz)",
    );
    let n_frames = (fid.frames_per_point / 4).max(4);
    let mut inputs = Vec::new();
    for &l in &[1usize, 2, 4] {
        for &snr in &[0.0, 4.0, 8.0, 12.0] {
            inputs.push((l, snr));
        }
    }
    e.points = parallel_sweep(inputs, |&(l, snr)| {
        let sys = BiScatterSystem::paper_9ghz();
        let decider = sys.nominal_decider();
        let code = SpreadCode::new(l, sys.alphabet.n_data_symbols());
        let period = (sys.radar.t_period * sys.front_end.adc.sample_rate_hz).round() as usize;
        let mut errors = 0usize;
        let mut total = 0usize;
        let mut noise = NoiseSource::new(6_000 + l as u64 * 97 + snr as u64);
        let mut rng = NoiseSource::new(7_000 + l as u64 * 31 + snr as u64);
        for _ in 0..n_frames {
            let symbols: Vec<u16> = (0..16)
                .map(|_| (rng.uniform() * sys.alphabet.n_data_symbols() as f64) as u16)
                .collect();
            let train = code
                .to_train(&symbols, &sys.alphabet, sys.radar.t_period)
                .unwrap();
            let samples = sys.front_end.capture_train(&train, snr, 0.0, &mut noise);
            let decoded = code.despread(&samples, period, &decider, &sys.alphabet);
            errors += symbols.iter().zip(&decoded).filter(|(a, b)| a != b).count();
            total += symbols.len().min(decoded.len());
        }
        SweepPoint::new(
            &[("spread_l", l as f64), ("snr_db", snr)],
            &[
                ("ser", errors as f64 / total.max(1) as f64),
                ("rate_factor", code.rate_factor()),
            ],
        )
    });
    e
}

/// **Ablation: background subtraction.** Tag localization error in heavy
/// clutter with the first-chirp background subtraction on vs off (paper
/// §3.3 uses the first chirp of each frame as the background reference).
/// Expected outcome: *no difference* for modulation-signature localization —
/// subtracting a constant profile only affects the DC Doppler bin, while the
/// tag's signature sits at its subcarrier frequency. The ablation documents
/// that the step is a DC/display cleanup, not a localization prerequisite.
pub fn ablation_background_subtraction() -> Experiment {
    let mut e = Experiment::new(
        "ablation_background_subtraction",
        "Tag localization in heavy clutter with and without background subtraction",
    );
    let f_mod = 16.0 / (128.0 * 120e-6);
    e.points = parallel_sweep(vec![false, true], |&enabled| {
        let mut sys = BiScatterSystem::paper_9ghz();
        sys.rx.background_subtraction = enabled;
        let scenario = IsacScenario::single_tag(5.0, f_mod).with_office_clutter();
        let mut errors = Vec::new();
        let mut found = 0usize;
        let trials = 6usize;
        for t in 0..trials {
            let out = run_isac_frame(&sys, &scenario, b"", 8_000 + t as u64);
            if let Some(loc) = out.location {
                errors.push((loc.range_m - 5.0).abs() * 100.0);
                found += 1;
            }
        }
        SweepPoint::new(
            &[("background_subtraction", enabled as u8 as f64)],
            &[
                (
                    "mean_error_cm",
                    if errors.is_empty() {
                        f64::NAN
                    } else {
                        mean(&errors)
                    },
                ),
                ("detection_rate", found as f64 / trials as f64),
            ],
        )
    });
    e
}

/// **Ablation: Goertzel bank vs full FFT at the tag (§4.1).** The paper
/// argues a Goertzel evaluator saves MCU power because only `N_slope` bins
/// are needed. Reports the per-slot multiply count of each approach and the
/// measured wall-clock ratio.
pub fn ablation_goertzel_vs_fft() -> Experiment {
    use biscatter_core::dsp::fft::{fft, next_pow2};
    use biscatter_core::dsp::Cpx;

    let mut e = Experiment::new(
        "ablation_goertzel_vs_fft",
        "Tag decode cost: matched Goertzel bank vs full FFT per slot (5-bit alphabet)",
    );
    let sys = BiScatterSystem::paper_9ghz();
    let decider = sys.nominal_decider();
    let n_slot = (sys.radar.t_period * sys.front_end.adc.sample_rate_hz).round() as usize;
    let n_fft = next_pow2(n_slot);
    let n_cand = decider.candidates.len();

    // Operation estimates (real multiplies per slot):
    // Goertzel: ~2 mults/sample/candidate (one recurrence mult + window).
    let goertzel_ops = 2.0 * n_slot as f64 * n_cand as f64;
    // FFT: ~4 real mults per complex butterfly, (N/2) log2 N butterflies,
    // plus bin magnitude evaluation.
    let fft_ops = 4.0 * (n_fft as f64 / 2.0) * (n_fft as f64).log2() + 3.0 * n_fft as f64;

    // Wall-clock measurement.
    let chirps = vec![sys
        .alphabet
        .chirp_for(biscatter_core::link::packet::DownlinkSymbol::Data(12))];
    let train =
        biscatter_core::rf::frame::ChirpTrain::with_fixed_period(&chirps, sys.radar.t_period)
            .unwrap();
    let mut noise = NoiseSource::new(9_001);
    let slot = sys.front_end.capture_train(&train, 20.0, 0.0, &mut noise);
    let reps = 2_000;
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        std::hint::black_box(decider.decide_slot(std::hint::black_box(&slot)));
    }
    let goertzel_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
    let buf: Vec<Cpx> = (0..n_fft)
        .map(|i| Cpx::real(slot.get(i).copied().unwrap_or(0.0)))
        .collect();
    let t1 = std::time::Instant::now();
    for _ in 0..reps {
        std::hint::black_box(fft(std::hint::black_box(&buf)));
    }
    let fft_ns = t1.elapsed().as_nanos() as f64 / reps as f64;

    e.points.push(SweepPoint::new(
        &[
            ("slot_samples", n_slot as f64),
            ("candidates", n_cand as f64),
        ],
        &[
            ("goertzel_mults", goertzel_ops),
            ("fft_mults", fft_ops),
            ("goertzel_ns_per_slot", goertzel_ns),
            ("fft_ns_per_slot", fft_ns),
        ],
    ));
    e
}

/// **Extension: 2D localization (range + azimuth).** The paper's TinyRad
/// platform carries an RX array; this experiment measures the azimuth and
/// Cartesian position error of the phase-comparison AoA estimator across
/// the field of view (2-element array, λ/2 spacing).
pub fn extension_aoa_2d() -> Experiment {
    use biscatter_core::radar::receiver::align_frame;
    use biscatter_core::radar::receiver::aoa::locate_tag_2d;
    use biscatter_core::rf::chirp::Chirp;
    use biscatter_core::rf::frame::ChirpTrain;
    use biscatter_core::rf::if_gen::IfReceiver;
    use biscatter_core::rf::scene::{Scatterer, Scene};
    use biscatter_core::rf::slab::SampleSlab;
    use biscatter_runtime::compute::ComputePool;

    let mut e = Experiment::new(
        "extension_aoa_2d",
        "2D tag localization: azimuth and position error vs true angle (2-RX, λ/2)",
    );
    let spacing = 0.5;
    let f_mod = 16.0 / (128.0 * 120e-6);
    let angles: Vec<f64> = vec![-45.0, -30.0, -15.0, 0.0, 15.0, 30.0, 45.0];
    e.points = parallel_sweep(angles, |&az_deg| {
        let sys = BiScatterSystem::paper_9ghz();
        let az = az_deg.to_radians();
        let range = 4.0;
        let scene = Scene::new()
            .with(Scatterer::clutter(1.5, 6.0))
            .with(Scatterer::tag(range, 0.5, f_mod).at_azimuth(az));
        let chirps = vec![Chirp::new(sys.radar.f0, sys.radar.bandwidth, 96e-6); 128];
        let train = ChirpTrain::with_fixed_period(&chirps, sys.radar.t_period).unwrap();
        let rx = IfReceiver {
            sample_rate_hz: sys.rx.if_sample_rate,
            noise_sigma: 0.02,
        };
        let mut noise = NoiseSource::new((11_000i64 + az_deg as i64) as u64);
        let mut capture = vec![SampleSlab::new(); 2];
        let pool = ComputePool::global();
        rx.dechirp_train_array_into(pool, &train, &scene, 0.0, spacing, &mut noise, &mut capture);
        let frames: Vec<_> = capture
            .iter()
            .map(|slab| align_frame(&sys.rx, &train, slab))
            .collect();
        match locate_tag_2d(&frames, spacing, f_mod, 10.0) {
            Some(pos) => {
                let (x, y) = pos.cartesian();
                let (tx, ty) = (range * az.sin(), range * az.cos());
                let pos_err = ((x - tx).powi(2) + (y - ty).powi(2)).sqrt();
                SweepPoint::new(
                    &[("true_azimuth_deg", az_deg)],
                    &[
                        ("est_azimuth_deg", pos.azimuth_rad.to_degrees()),
                        (
                            "azimuth_error_deg",
                            (pos.azimuth_rad - az).to_degrees().abs(),
                        ),
                        ("position_error_cm", pos_err * 100.0),
                        ("range_m", pos.range_m),
                    ],
                )
            }
            None => SweepPoint::new(
                &[("true_azimuth_deg", az_deg)],
                &[
                    ("est_azimuth_deg", f64::NAN),
                    ("azimuth_error_deg", f64::NAN),
                    ("position_error_cm", f64::NAN),
                    ("range_m", f64::NAN),
                ],
            ),
        }
    });
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aoa_2d_tracks_angle() {
        let e = extension_aoa_2d();
        for p in &e.points {
            let err = p.metric("azimuth_error_deg").unwrap();
            assert!(
                err.is_finite() && err < 4.0,
                "az {:?}: err {err}°",
                p.params
            );
            assert!(p.metric("position_error_cm").unwrap() < 30.0);
        }
    }

    #[test]
    fn gray_mapping_helps() {
        let e = ablation_gray_mapping(Fidelity::default());
        // At mid SNR, Gray should cut BER meaningfully.
        let ber = |gray: f64, snr: f64| {
            e.points
                .iter()
                .find(|p| p.param("gray") == Some(gray) && p.param("snr_db") == Some(snr))
                .unwrap()
                .metric("ber")
                .unwrap()
        };
        let natural = ber(0.0, 10.0);
        let gray = ber(1.0, 10.0);
        assert!(
            gray < natural * 0.8,
            "gray {gray} should beat natural {natural}"
        );
    }

    #[test]
    fn spreading_gains_snr() {
        let e = ablation_spreading(Fidelity::default());
        let ser = |l: f64, snr: f64| {
            e.points
                .iter()
                .find(|p| p.param("spread_l") == Some(l) && p.param("snr_db") == Some(snr))
                .unwrap()
                .metric("ser")
                .unwrap()
        };
        // At 4 dB, L=4 should be far below L=1.
        let plain = ser(1.0, 4.0);
        let spread4 = ser(4.0, 4.0);
        assert!(
            spread4 < plain * 0.5,
            "L=4 {spread4} should beat L=1 {plain}"
        );
    }

    #[test]
    fn background_subtraction_experiment_runs() {
        let e = ablation_background_subtraction();
        assert_eq!(e.points.len(), 2);
        // With subtraction the tag must be found reliably at 5 m in clutter.
        let on = e
            .points
            .iter()
            .find(|p| p.param("background_subtraction") == Some(1.0))
            .unwrap();
        assert!(on.metric("detection_rate").unwrap() > 0.8);
        assert!(on.metric("mean_error_cm").unwrap() < 12.0);
    }

    #[test]
    fn goertzel_cheaper_than_fft_in_ops() {
        let e = ablation_goertzel_vs_fft();
        let p = &e.points[0];
        // The op-count argument of §4.1: the bank needs fewer multiplies
        // than a full FFT *per evaluated bin*; report both. With 34
        // candidates over 120 samples the bank is within a small factor of
        // the FFT but scales with the alphabet, not the transform length.
        assert!(p.metric("goertzel_mults").unwrap() > 0.0);
        assert!(p.metric("fft_mults").unwrap() > 0.0);
        assert!(p.metric("goertzel_ns_per_slot").unwrap() > 0.0);
    }
}

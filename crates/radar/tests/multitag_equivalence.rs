//! Batched-vs-sequential bit-equality for the multi-tag detection engine.
//!
//! `detect_all` claims its results are bit-identical to running
//! `locate_tag` + `demodulate` independently per tag, at any compute pool
//! size: band accumulation, score assembly, the fused peak scan, the
//! selection-based noise floor, and the chirp-major amplitude gather all
//! preserve the sequential path's exact operation order per output element.
//! This test drives a seeded multi-tag scene through pools of 1, 2, and 4
//! threads and requires exact equality against the per-tag loop — including
//! the gating cases (absent tag, bit window longer than the frame).

use biscatter_compute::ComputePool;
use biscatter_dsp::signal::NoiseSource;
use biscatter_radar::receiver::doppler::{range_doppler, RangeDopplerMap};
use biscatter_radar::receiver::localize::locate_tag;
use biscatter_radar::receiver::multitag::{
    detect_all, MultiTagScratch, TagBank, TagDetection, TagProfile,
};
use biscatter_radar::receiver::uplink::{demodulate, UplinkScheme};
use biscatter_radar::receiver::{align_frame, AlignedFrame, RxConfig};
use biscatter_rf::chirp::Chirp;
use biscatter_rf::frame::ChirpTrain;
use biscatter_rf::if_gen::IfReceiver;
use biscatter_rf::scene::{Scatterer, Scene, TagModulation};

const N_CHIRPS: usize = 64;
const T_PERIOD: f64 = 120e-6;
/// The bit-gated tags splatter energy across the whole Doppler axis at
/// their range bins, so even "empty" Doppler rows peak well above the
/// noise floor. Bin 29 (the absent profile) measures ~24.5 dB in this
/// seeded scene while every real tag is >= 32.8 dB; 28 dB splits them
/// with ~4 dB of margin on both sides.
const MIN_SNR_DB: f64 = 28.0;

fn bin_freq(bin: usize) -> f64 {
    bin as f64 / (N_CHIRPS as f64 * T_PERIOD)
}

/// A mixed deployment: OOK and FSK transmitters, a beacon-only tag, one
/// profile with no matching tag on air, and one whose bit window exceeds
/// the frame.
fn profiles() -> Vec<TagProfile> {
    let bit = 16.0 * T_PERIOD;
    vec![
        TagProfile {
            f_mod_hz: bin_freq(6),
            scheme: UplinkScheme::Ook {
                freq_hz: bin_freq(6),
            },
            bit_duration_s: bit,
        },
        TagProfile {
            f_mod_hz: bin_freq(9),
            scheme: UplinkScheme::Fsk {
                freq0_hz: bin_freq(9),
                freq1_hz: bin_freq(13),
            },
            bit_duration_s: bit,
        },
        // Beacon-only tag: still decodable (decode runs on whatever is at
        // its bin), must match the sequential decode exactly.
        TagProfile {
            f_mod_hz: bin_freq(11),
            scheme: UplinkScheme::Ook {
                freq_hz: bin_freq(11),
            },
            bit_duration_s: bit,
        },
        TagProfile {
            f_mod_hz: bin_freq(17),
            scheme: UplinkScheme::Ook {
                freq_hz: bin_freq(17),
            },
            bit_duration_s: bit,
        },
        // No tag modulates at bin 29: localization must gate this one out.
        TagProfile {
            f_mod_hz: bin_freq(29),
            scheme: UplinkScheme::Ook {
                freq_hz: bin_freq(29),
            },
            bit_duration_s: bit,
        },
        // Located, but the bit window is longer than the frame: uplink None.
        TagProfile {
            f_mod_hz: bin_freq(14),
            scheme: UplinkScheme::Ook {
                freq_hz: bin_freq(14),
            },
            bit_duration_s: 2.0 * N_CHIRPS as f64 * T_PERIOD,
        },
    ]
}

fn scene(bits_a: &[bool], bits_b: &[bool]) -> Scene {
    let bit = 16.0 * T_PERIOD;
    Scene::new()
        .with(Scatterer::clutter(1.8, 6.0))
        .with(Scatterer {
            range_m: 3.1,
            azimuth_rad: 0.0,
            velocity_mps: 0.0,
            amplitude: 1.0,
            modulation: TagModulation::OokBits {
                freq_hz: bin_freq(6),
                bit_duration_s: bit,
                bits: bits_a.to_vec(),
            },
            leak: 0.01,
        })
        .with(Scatterer {
            range_m: 5.4,
            azimuth_rad: 0.0,
            velocity_mps: 0.0,
            amplitude: 1.0,
            modulation: TagModulation::FskBits {
                freq0_hz: bin_freq(9),
                freq1_hz: bin_freq(13),
                bit_duration_s: bit,
                bits: bits_b.to_vec(),
            },
            leak: 0.01,
        })
        .with(Scatterer::tag(7.2, 1.0, bin_freq(11)))
        .with(Scatterer::tag(9.0, 0.8, bin_freq(17)))
        .with(Scatterer::tag(11.3, 1.0, bin_freq(14)))
}

fn build_frame() -> (AlignedFrame, RangeDopplerMap) {
    let frame = aligned(true);
    let map = range_doppler(frame.comms());
    (frame, map)
}

/// The seeded scene's aligned frame, its comms path subtracting chirp 0
/// when `background_subtraction`.
fn aligned(background_subtraction: bool) -> AlignedFrame {
    let bits_a = [true, false, true, true];
    let bits_b = [false, true, true, false];
    let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); N_CHIRPS];
    let train = ChirpTrain::with_fixed_period(&chirps, T_PERIOD).unwrap();
    let rx = IfReceiver {
        sample_rate_hz: 10e6,
        noise_sigma: 0.01,
    };
    let mut noise = NoiseSource::new(17);
    let if_data = rx.dechirp_train(&train, &scene(&bits_a, &bits_b), 0.0, &mut noise);
    let cfg = RxConfig {
        n_range_bins: 256,
        background_subtraction,
        ..RxConfig::default()
    };
    align_frame(&cfg, &train, &if_data)
}

/// The per-tag reference loop the engine must reproduce bit for bit.
fn sequential(
    map: &RangeDopplerMap,
    frame: &AlignedFrame,
    profiles: &[TagProfile],
    min_snr_db: f64,
) -> Vec<TagDetection> {
    profiles
        .iter()
        .map(|p| {
            let location = locate_tag(map, p.f_mod_hz, min_snr_db);
            let uplink = location.and_then(|loc| {
                demodulate(frame.comms(), loc.range_bin, p.scheme, p.bit_duration_s)
            });
            TagDetection { location, uplink }
        })
        .collect()
}

#[test]
fn batched_bit_identical_to_sequential_across_pool_sizes() {
    let (frame, map) = build_frame();
    let profiles = profiles();
    let reference = sequential(&map, &frame, &profiles, MIN_SNR_DB);

    // The scene must actually exercise both outcomes of each gate.
    assert!(reference[0].location.is_some() && reference[0].uplink.is_some());
    assert!(reference[1].uplink.is_some(), "FSK tag decodes");
    assert!(reference[4].location.is_none(), "absent tag gated out");
    assert!(reference[4].uplink.is_none());
    assert!(reference[5].location.is_some());
    assert!(reference[5].uplink.is_none(), "oversized bit window");

    for threads in [1usize, 2, 4] {
        let pool = ComputePool::new(threads);
        let mut bank = TagBank::new(profiles.clone());
        bank.min_snr_db = MIN_SNR_DB;
        let mut scratch = MultiTagScratch::default();
        let mut out = Vec::new();
        // Two passes: cold cache, then warm (the steady-state path).
        for pass in 0..2 {
            detect_all(
                &pool,
                &mut bank,
                &map,
                frame.comms(),
                &mut scratch,
                &mut out,
            );
            assert_eq!(
                out, reference,
                "batched diverged at {threads} threads (pass {pass})"
            );
        }
    }
}

#[test]
fn empty_bank_clears_output() {
    let (frame, map) = build_frame();
    let pool = ComputePool::new(1);
    let mut bank = TagBank::default();
    let mut scratch = MultiTagScratch::default();
    let mut out = vec![TagDetection::default(); 3];
    detect_all(
        &pool,
        &mut bank,
        &map,
        frame.comms(),
        &mut scratch,
        &mut out,
    );
    assert!(out.is_empty());
}

#[test]
fn set_tags_retargets_the_bank() {
    let (frame, map) = build_frame();
    let pool = ComputePool::new(1);
    let all = profiles();
    let mut bank = TagBank::new(all.clone());
    bank.min_snr_db = MIN_SNR_DB;
    let mut scratch = MultiTagScratch::default();
    let mut out = Vec::new();
    detect_all(
        &pool,
        &mut bank,
        &map,
        frame.comms(),
        &mut scratch,
        &mut out,
    );
    assert_eq!(out.len(), all.len());

    // Shrink to a different subset: results must equal a fresh sequential
    // run over exactly that subset.
    let subset = vec![all[3], all[1]];
    bank.set_tags(&subset);
    detect_all(
        &pool,
        &mut bank,
        &map,
        frame.comms(),
        &mut scratch,
        &mut out,
    );
    assert_eq!(out, sequential(&map, &frame, &subset, MIN_SNR_DB));
}

/// The frame path's comms path: unsubtracted rows read through a view that
/// subtracts chirp 0. The map, the engine and the uplink demodulator all
/// read it exactly as they read a copy with the background subtracted in
/// place; the rows themselves are the sensing rows whatever the policy.
#[test]
fn subtracting_view_matches_stored_background_subtraction() {
    let (frame, map) = build_frame();
    let comms = frame.comms();
    let mut stored = frame.clone();
    stored.subtract_background();
    let stored_map = range_doppler(stored.comms());
    let profiles = profiles();
    let reference = sequential(&stored_map, &stored, &profiles, MIN_SNR_DB);
    let sensing = aligned(false);
    assert!(
        frame.profiles == sensing.profiles,
        "align stores the sensing rows under either policy"
    );

    assert_eq!(map.n_doppler, stored_map.n_doppler);
    for d in 0..map.n_doppler {
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(map.range_slice(d)),
            bits(stored_map.range_slice(d)),
            "Doppler row {d}"
        );
    }
    for (p, want) in profiles.iter().zip(&reference) {
        if let Some(loc) = want.location {
            let got = demodulate(comms, loc.range_bin, p.scheme, p.bit_duration_s);
            assert_eq!(got, want.uplink);
        }
    }
    for threads in [1usize, 2] {
        let pool = ComputePool::new(threads);
        let mut bank = TagBank::new(profiles.clone());
        bank.min_snr_db = MIN_SNR_DB;
        let mut scratch = MultiTagScratch::default();
        let mut out = Vec::new();
        detect_all(&pool, &mut bank, &map, comms, &mut scratch, &mut out);
        assert_eq!(out, reference, "subtracting view at {threads} threads");
    }
}

//! The f32 fast tier's accuracy contract against the f64 oracle.
//!
//! Two layers, matching the contract in `biscatter_core::isac::precision`:
//!
//! 1. **Noiseless kernel rounding** (property-based): on randomly drawn
//!    scene geometries, every significant range–Doppler cell of the f32
//!    chain must track the f64 chain to small relative error, and the
//!    modulation-signature argmax (the bin localization reads) must agree
//!    exactly. Noiseless, so this layer isolates pure kernel rounding.
//! 2. **Noisy detection products** (fixed seeds at the bench SNR): full
//!    frames through `run_frame` on the f32 tier must agree with the oracle on
//!    everything stage 5 computes — located range bin, decoded uplink
//!    bits, and CFAR detection count.
//!
//! A third test pins the f64 path's cross-tier guarantee: forcing scalar
//! vs AVX2 dispatch must leave every f64 map cell — and the whole frame
//! outcome — bit-identical. All tests serialize on a file-local lock
//! because the dispatch override is process-global.

use std::sync::Mutex;

use biscatter_compute::ComputePool;
use biscatter_core::dsp::dispatch::{avx2_available, force_tier, tier, SimdTier};
use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::dsp::Real;
use biscatter_core::isac::precision::PrecisionTier;
use biscatter_core::isac::{run_frame, run_isac_frame, FrameArena, FrameCtx, IsacScenario};
use biscatter_core::obs::recorder::StageNanos;
use biscatter_core::radar::receiver::doppler::{range_doppler_into, RangeDopplerMap};
use biscatter_core::radar::receiver::localize::signature_score_into;
use biscatter_core::radar::receiver::{align_frame_into, AlignedFrame, RxConfig};
use biscatter_core::rf::chirp::Chirp;
use biscatter_core::rf::frame::ChirpTrain;
use biscatter_core::rf::if_gen::IfReceiver;
use biscatter_core::rf::scene::{Scatterer, Scene};
use biscatter_core::rf::slab::SampleSlab;
use biscatter_core::system::BiScatterSystem;
use proptest::prelude::*;

/// Serializes the tests in this binary: `force_tier` is process-global, so
/// a concurrently running test could otherwise observe a half-switched
/// tier.
static TIER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const N_CHIRPS: usize = 32;
const T_PERIOD: f64 = 120e-6;

/// Runs the stage 2–4 chain (dechirp → align → doppler) in precision `T`
/// over `scene` with `noise_sigma` AWGN.
fn run_chain<T: Real>(scene: &Scene, noise_sigma: f64, seed: u64) -> RangeDopplerMap {
    let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); N_CHIRPS];
    let train = ChirpTrain::with_fixed_period(&chirps, T_PERIOD).unwrap();
    let rx = IfReceiver {
        sample_rate_hz: 10e6,
        noise_sigma,
    };
    let pool = ComputePool::global();
    let cfg = RxConfig::default();

    let mut slab = SampleSlab::<T>::new();
    let mut noise = NoiseSource::new(seed);
    rx.dechirp_train_into(pool, &train, scene, 0.0, &mut noise, &mut slab);
    let mut frame = AlignedFrame::default();
    align_frame_into(pool, &cfg, &train, &slab, &mut frame);
    let mut map = RangeDopplerMap::default();
    range_doppler_into(pool, frame.comms(), &mut map);
    map
}

/// The same chain on both tiers: `(f64 map, f32 map)`.
fn run_chains(scene: &Scene, noise_sigma: f64, seed: u64) -> (RangeDopplerMap, RangeDopplerMap) {
    (
        run_chain::<f64>(scene, noise_sigma, seed),
        run_chain::<f32>(scene, noise_sigma, seed),
    )
}

fn argmax(s: &[f64]) -> usize {
    s.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}

proptest! {
    /// Layer 1: random geometries, noiseless — per-cell relative error of
    /// the f32 chain is bounded, and the signature argmax agrees exactly.
    #[test]
    fn f32_tracks_f64_oracle_on_random_scenes(
        tag_range in 2.0f64..8.0,
        tag_amp in 0.5f64..2.0,
        c1_range in 1.0f64..10.0,
        c1_amp in 0.5f64..6.0,
        c2_range in 1.0f64..10.0,
        c2_amp in 0.5f64..6.0,
    ) {
        let _guard = lock();
        let f_mod = 8.0 / (N_CHIRPS as f64 * T_PERIOD);
        let scene = Scene::new()
            .with(Scatterer::clutter(c1_range, c1_amp))
            .with(Scatterer::clutter(c2_range, c2_amp))
            .with(Scatterer::tag(tag_range, tag_amp, f_mod));
        let (map64, map32) = run_chains(&scene, 0.0, 1);
        prop_assert_eq!(map32.n_doppler, map64.n_doppler);
        prop_assert_eq!(map32.n_range(), map64.n_range());

        // Significant cells (relative to the map's peak) must agree to
        // small relative error; cells near the floor are dominated by f32
        // rounding of near-cancelling sums and only need absolute
        // agreement at the floor scale.
        let peak = (0..map64.n_doppler)
            .flat_map(|d| map64.range_slice(d).to_vec())
            .fold(0.0f64, f64::max);
        let floor = peak * 1e-6;
        let mut checked = 0usize;
        for d in 0..map64.n_doppler {
            for r in 0..map64.n_range() {
                let (a, b) = (map64.at(d, r), map32.at(d, r));
                if a > floor {
                    let rel = (a - b).abs() / a;
                    prop_assert!(rel < 2e-2, "cell ({}, {}): {} vs {}, rel {}", d, r, a, b, rel);
                    checked += 1;
                } else {
                    prop_assert!((a - b).abs() <= floor, "tiny cell ({}, {}): {} vs {}", d, r, a, b);
                }
            }
        }
        prop_assert!(checked > 50, "too few significant cells: {}", checked);

        // Localization reads the signature-score argmax — it must agree
        // exactly, not approximately.
        let mut s64 = Vec::new();
        let mut s32 = Vec::new();
        signature_score_into(&map64, f_mod, &mut s64);
        signature_score_into(&map32, f_mod, &mut s32);
        prop_assert_eq!(argmax(&s64), argmax(&s32), "signature argmax diverged");
    }
}

/// Layer 2: full frames at the bench SNR. Both tiers draw the same noise
/// deviates (rounded to f32 on the fast tier), but tones and transforms
/// round differently, so values differ — stage 5's products must not.
#[test]
fn noisy_frames_agree_on_detection_products() {
    let _guard = lock();
    let sys = BiScatterSystem::paper_9ghz();
    let bits = vec![true, false, true, true];
    for seed in [15u64, 26, 31, 33, 52] {
        let mut scenario = IsacScenario::single_tag(3.0, 1302.0).with_office_clutter();
        scenario.uplink_bits = bits.clone();
        let ctx = FrameCtx {
            pool: ComputePool::global(),
            sys: &sys,
            arena: &FrameArena::default(),
            tier: PrecisionTier::F32,
        };
        let fast = run_frame(&ctx, &scenario, b"CMD1", seed, &mut StageNanos::default());
        let oracle = run_isac_frame(&sys, &scenario, b"CMD1", seed);
        assert_eq!(
            fast.location.map(|l| l.range_bin),
            oracle.location.map(|l| l.range_bin),
            "seed {seed}: located bin diverged"
        );
        assert_eq!(
            fast.uplink_bits, oracle.uplink_bits,
            "seed {seed}: decoded bits diverged"
        );
        assert_eq!(
            fast.detections.len(),
            oracle.detections.len(),
            "seed {seed}: CFAR detection count diverged"
        );
    }
}

/// The f64 path's cross-tier contract: scalar and AVX2 dispatch perform the
/// same IEEE-754 operations in the same order, so every map cell and the
/// whole frame outcome are bit-identical. (The noise realization is
/// tier-independent — the generator is scalar code — so this runs at the
/// bench SNR, not noiseless.)
#[test]
fn f64_path_is_bit_identical_across_dispatch_tiers() {
    if !avx2_available() {
        eprintln!("skipping: no AVX2 on this CPU, only one tier to compare");
        return;
    }
    let _guard = lock();
    let before = tier();
    let f_mod = 8.0 / (N_CHIRPS as f64 * T_PERIOD);
    let scene = Scene::new()
        .with(Scatterer::clutter(2.5, 4.0))
        .with(Scatterer::tag(5.0, 1.0, f_mod));
    let sys = BiScatterSystem::paper_9ghz();
    let scenario = IsacScenario::single_tag(3.0, 1302.0).with_office_clutter();

    force_tier(SimdTier::Scalar);
    let (map_s, _) = run_chains(&scene, 1.0, 11);
    let out_s = run_isac_frame(&sys, &scenario, b"CMD1", 11);
    force_tier(SimdTier::Avx2);
    let (map_a, _) = run_chains(&scene, 1.0, 11);
    let out_a = run_isac_frame(&sys, &scenario, b"CMD1", 11);
    force_tier(before);

    assert_eq!(map_s.n_doppler, map_a.n_doppler);
    assert_eq!(map_s.n_range(), map_a.n_range());
    for d in 0..map_s.n_doppler {
        for r in 0..map_s.n_range() {
            let (a, b) = (map_s.at(d, r), map_a.at(d, r));
            assert!(
                a.to_bits() == b.to_bits(),
                "cell ({d}, {r}) not bit-identical: {a:?} vs {b:?}"
            );
        }
    }
    assert_eq!(out_s, out_a, "frame outcome diverged across dispatch tiers");
}

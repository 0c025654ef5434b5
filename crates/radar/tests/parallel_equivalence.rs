//! Serial-vs-parallel bit-equality for the frame hot path.
//!
//! The compute pool claims its results are bit-identical to the serial code
//! regardless of worker count: synthesis rows are independent, noise is
//! drawn serially in a fixed order, and every reduction has a fixed
//! operation order. This test drives the full chain — multi-antenna dechirp
//! (`dechirp_train_array_into`) → range FFT + IF correction
//! (`align_frame_into`) → range–Doppler (`range_doppler_into`) — through
//! pools of 1, 2, and 4 threads on a seeded scene and requires exact
//! equality with the single-thread result at every stage. The serial
//! capture itself is pinned absolutely, so a change that moves the array
//! path's bits on every pool size alike is caught too.

use biscatter_compute::ComputePool;
use biscatter_dsp::signal::NoiseSource;
use biscatter_radar::receiver::doppler::{range_doppler_into, RangeDopplerMap};
use biscatter_radar::receiver::{align_frame_into, AlignedFrame, RxConfig};
use biscatter_rf::chirp::Chirp;
use biscatter_rf::frame::ChirpTrain;
use biscatter_rf::if_gen::IfReceiver;
use biscatter_rf::scene::{Scatterer, Scene};
use biscatter_rf::slab::SampleSlab;

fn scene() -> Scene {
    let f_mod = 16.0 / (64.0 * 120e-6);
    Scene::new()
        .with(Scatterer::clutter(2.0, 5.0))
        .with(Scatterer::mover(6.5, 0.8, 1.2))
        .with(Scatterer::tag(4.0, 1.0, f_mod).at_azimuth(0.3))
}

/// Runs the full frame chain for every antenna on the given pool.
fn run_chain(
    pool: &ComputePool,
    n_rx: usize,
) -> (Vec<SampleSlab>, Vec<AlignedFrame>, Vec<RangeDopplerMap>) {
    // Mixed-slope train: exercises the per-chirp IF-correction resampling.
    let chirps: Vec<Chirp> = (0..64)
        .map(|i| Chirp::new(9e9, 1e9, if i % 2 == 0 { 96e-6 } else { 48e-6 }))
        .collect();
    let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
    let rx = IfReceiver {
        sample_rate_hz: 10e6,
        noise_sigma: 0.01,
    };
    let scene = scene();
    let mut noise = NoiseSource::new(42);
    let mut capture = vec![SampleSlab::new(); n_rx];
    rx.dechirp_train_array_into(pool, &train, &scene, 0.0, 0.5, &mut noise, &mut capture);

    let cfg = RxConfig {
        n_range_bins: 256,
        ..RxConfig::default()
    };
    let mut frames = Vec::new();
    let mut maps = Vec::new();
    for slab in &capture {
        let mut frame = AlignedFrame::default();
        align_frame_into(pool, &cfg, &train, slab, &mut frame);
        let mut map = RangeDopplerMap::default();
        range_doppler_into(pool, frame.comms(), &mut map);
        frames.push(frame);
        maps.push(map);
    }
    (capture, frames, maps)
}

#[test]
fn frame_chain_bit_identical_across_pool_sizes() {
    let n_rx = 2;
    let serial = ComputePool::new(1);
    let (cap_ref, frames_ref, maps_ref) = run_chain(&serial, n_rx);

    for threads in [2usize, 4] {
        let pool = ComputePool::new(threads);
        let (cap, frames, maps) = run_chain(&pool, n_rx);

        assert_eq!(cap, cap_ref, "IF capture diverged at {threads} threads");
        for (k, (f, f_ref)) in frames.iter().zip(&frames_ref).enumerate() {
            assert_eq!(
                f.profiles, f_ref.profiles,
                "aligned profiles diverged at {threads} threads, rx {k}"
            );
            assert_eq!(&f.range_grid[..], &f_ref.range_grid[..]);
            assert_eq!(f.t_period, f_ref.t_period);
        }
        for (k, (m, m_ref)) in maps.iter().zip(&maps_ref).enumerate() {
            assert_eq!(m.n_doppler, m_ref.n_doppler);
            for d in 0..m.n_doppler {
                assert_eq!(
                    m.range_slice(d),
                    m_ref.range_slice(d),
                    "doppler row {d} diverged at {threads} threads, rx {k}"
                );
            }
        }
    }
}

/// FNV-1a over the bits of the serial 2-antenna capture, antenna by
/// antenna, chirp by chirp, sample by sample. Synthesis runs through the
/// platform libm (`sin`, `cos`), which may round differently on other
/// targets, so the pin is checked where it was recorded.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn serial_capture_pinned() {
    let (capture, _, _) = run_chain(&ComputePool::new(1), 2);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for slab in &capture {
        for c in 0..slab.rows() {
            for v in slab.row(c) {
                for b in v.to_bits().to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    assert_eq!(h, 0x2eb6_1eef_fc72_1cf6, "array capture moved: {h:#018x}");
}

#[test]
fn convenience_wrappers_match_explicit_pool() {
    // The global-pool wrappers must agree with an explicit 1-thread pool:
    // same math, different scheduling.
    let n_rx = 1;
    let serial = ComputePool::new(1);
    let (_, frames_ref, maps_ref) = run_chain(&serial, n_rx);

    let chirps: Vec<Chirp> = (0..64)
        .map(|i| Chirp::new(9e9, 1e9, if i % 2 == 0 { 96e-6 } else { 48e-6 }))
        .collect();
    let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
    let rx = IfReceiver {
        sample_rate_hz: 10e6,
        noise_sigma: 0.01,
    };
    let mut noise = NoiseSource::new(42);
    let capture = rx.dechirp_train(&train, &scene(), 0.0, &mut noise);
    let cfg = RxConfig {
        n_range_bins: 256,
        ..RxConfig::default()
    };
    let frame = biscatter_radar::receiver::align_frame(&cfg, &train, &capture);
    let map = biscatter_radar::receiver::doppler::range_doppler(frame.comms());

    assert_eq!(frame.profiles, frames_ref[0].profiles);
    for d in 0..map.n_doppler {
        assert_eq!(map.range_slice(d), maps_ref[0].range_slice(d));
    }
}

//! Steady-state allocation audit for the batched multi-tag detect path.
//!
//! DESIGN.md §11 claims that after warm-up, `detect_all` on a 1-thread pool
//! performs **no heap allocation**: the band slab, per-tag score slots, the
//! chirp-major amplitude slab, the decode-row table, and every `UplinkDecode`
//! are recycled through `MultiTagScratch` and the output vector, and the
//! `TagBank` plan cache hits. This test enforces the claim with a counting
//! global allocator: two warm-up detections size every buffer, then a third
//! must allocate exactly zero times on the measuring thread.
//!
//! Tracing is **enabled** for the whole test: the obs layer promises that
//! enabled-path span recording never allocates in steady state (the
//! per-thread ring and the registry counter handles are set up during
//! warm-up), so the audit holds with full telemetry on. So is the flight
//! recorder: the measuring window records one `FrameRecord` per detection
//! pass into a preallocated ring, as the runtime does per frame.
//!
//! The counter is thread-local, so the (single) test is immune to allocator
//! traffic from the harness's other threads. This file must keep exactly one
//! `#[test]` for that isolation to stay meaningful.

use biscatter_compute::ComputePool;
use biscatter_dsp::signal::NoiseSource;
use biscatter_obs::alloc::{counted, CountingAlloc};
use biscatter_obs::recorder::{FlightRecorder, FrameRecord, StageNanos};
use biscatter_radar::receiver::doppler::range_doppler;
use biscatter_radar::receiver::multitag::{detect_all, MultiTagScratch, TagBank, TagProfile};
use biscatter_radar::receiver::uplink::UplinkScheme;
use biscatter_radar::receiver::{align_frame, RxConfig};
use biscatter_rf::chirp::Chirp;
use biscatter_rf::frame::ChirpTrain;
use biscatter_rf::if_gen::IfReceiver;
use biscatter_rf::scene::{Scatterer, Scene};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N_CHIRPS: usize = 64;
const T_PERIOD: f64 = 120e-6;

fn bin_freq(bin: usize) -> f64 {
    bin as f64 / (N_CHIRPS as f64 * T_PERIOD)
}

#[test]
fn steady_state_multi_tag_detect_allocates_nothing() {
    biscatter_obs::trace::set_enabled(true);
    // A beacon-per-tag scene: every profile localizes and decodes, so the
    // measured pass exercises the full band/score/amp/decode chain.
    let profiles: Vec<TagProfile> = (0..8)
        .map(|t| TagProfile {
            f_mod_hz: bin_freq(5 + 2 * t),
            scheme: UplinkScheme::Ook {
                freq_hz: bin_freq(5 + 2 * t),
            },
            bit_duration_s: 8.0 * T_PERIOD,
        })
        .collect();
    let mut scene = Scene::new().with(Scatterer::clutter(1.5, 5.0));
    for (t, p) in profiles.iter().enumerate() {
        scene = scene.with(Scatterer::tag(2.0 + 1.1 * t as f64, 1.0, p.f_mod_hz));
    }
    let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); N_CHIRPS];
    let train = ChirpTrain::with_fixed_period(&chirps, T_PERIOD).unwrap();
    let rx = IfReceiver {
        sample_rate_hz: 10e6,
        noise_sigma: 0.01,
    };
    let mut noise = NoiseSource::new(23);
    let if_data = rx.dechirp_train(&train, &scene, 0.0, &mut noise);
    let cfg = RxConfig {
        n_range_bins: 256,
        ..RxConfig::default()
    };
    let frame = align_frame(&cfg, &train, &if_data);
    let map = range_doppler(frame.comms());

    let pool = ComputePool::new(1);
    let mut bank = TagBank::new(profiles);
    let mut scratch = MultiTagScratch::default();
    let mut out = Vec::new();

    // Warm-up: builds the bank's plan cache and sizes every scratch slab,
    // score slot, decode buffer, and the thread-local threshold scratch.
    detect_all(
        &pool,
        &mut bank,
        &map,
        frame.comms(),
        &mut scratch,
        &mut out,
    );
    let warm = out.clone();
    detect_all(
        &pool,
        &mut bank,
        &map,
        frame.comms(),
        &mut scratch,
        &mut out,
    );
    assert_eq!(out, warm, "warm-up detections must be deterministic");
    let located = out.iter().filter(|d| d.location.is_some()).count();
    let decoded = out.iter().filter(|d| d.uplink.is_some()).count();
    assert_eq!(located, 8, "every beacon must localize");
    assert_eq!(decoded, 8, "every beacon must decode");

    // Preallocated outside the window; `record` must not allocate inside it.
    let recorder = FlightRecorder::with_capacity(0, 2);

    // Measured steady-state detection, flight-record capture included.
    let ((), n) = counted(|| {
        detect_all(
            &pool,
            &mut bank,
            &map,
            frame.comms(),
            &mut scratch,
            &mut out,
        );
        let snr_db = out
            .iter()
            .filter_map(|d| d.location.as_ref().map(|l| l.snr_db))
            .next()
            .unwrap_or(f64::NAN);
        let decoded_bits: u32 = out
            .iter()
            .filter_map(|d| d.uplink.as_ref().map(|u| u.bits.len() as u32))
            .sum();
        for pass in 0..3 {
            recorder.record(FrameRecord {
                frame_id: pass,
                cell_id: 0,
                t_ns: 0,
                total_ns: 1,
                stages: StageNanos {
                    detect: 1,
                    ..StageNanos::default()
                },
                failed: false,
                snr_db,
                pslr_db: f64::NAN,
                decoded_bits,
                cfar_detections: out.len() as u32,
                queue_drops: 0,
            });
        }
    });
    assert_eq!(out, warm, "measured detection must match warm-up output");
    assert_eq!(
        n, 0,
        "steady-state multi-tag detect + flight recorder performed {n} heap allocations"
    );
    assert_eq!(recorder.total_recorded(), 3);
    assert_eq!(recorder.overwritten(), 1);
}

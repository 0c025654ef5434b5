//! Steady-state allocation audit for the frame path's reused buffers.
//!
//! DESIGN.md §10 claims that after warm-up, the frame hot path — the fused
//! dechirp + align front end, then doppler, stages 2–4 — performs **no heap
//! allocation** on a 1-thread pool: row slabs, power slabs, the
//! per-thread IF row and all FFT / resample scratch are reused, the frame's
//! buffers (one set per thread in `run_frame`, held by the test here) and
//! the thread-local caches alike. This test enforces the claim with a
//! counting global allocator: two warm-up frames size every buffer, then a
//! third frame must allocate exactly zero times on the measuring thread.
//! The stages are generic over the sample precision, so the same audited
//! window runs once per instantiation: f64 (the oracle) and f32 (the fast
//! tier), each on its own aligned frame. The two-stage reference (dechirp
//! into a slab, then align) keeps the same audit, on slabs of the test's
//! own.
//!
//! Tracing is **enabled** for the whole test: the obs layer promises that
//! enabled-path span recording never allocates in steady state (the
//! per-thread ring and the registry handles are set up during warm-up), so
//! the audit holds with full telemetry on. The flight recorder is part of
//! the same promise — its ring is preallocated at construction, so
//! recording a `FrameRecord` (fill and wrap alike) happens inside the
//! measuring window too.
//!
//! The tag's downlink decode is audited in the same test against a bound
//! instead of zero (see the end of the test).
//!
//! The counter is thread-local, so the (single) test is immune to allocator
//! traffic from the harness's other threads. This file must keep exactly one
//! `#[test]` for that isolation to stay meaningful.

use biscatter_compute::ComputePool;
use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::dsp::Real;
use biscatter_core::isac::{
    acquire_config, acquire_hypotheses, align_stage_into, dechirp_stage_into, doppler_stage_into,
    front_end_stage_into, synthesize_cold_start_capture, synthesize_frame, warm_acquire_plans,
    warm_dsp_plans, IsacScenario, SynthesizedFrame,
};
use biscatter_core::link::packet::DownlinkPacket;
use biscatter_core::obs::alloc::{counted, CountingAlloc};
use biscatter_core::obs::recorder::{FlightRecorder, FrameRecord, StageNanos};
use biscatter_core::radar::sequencer::isac_frame;
use biscatter_core::system::BiScatterSystem;
use biscatter_core::tag::decoder::DownlinkDecoder;
use biscatter_radar::receiver::acquire::{acquire_all, AcquireScratch, CorrelatorBank};
use biscatter_radar::receiver::doppler::RangeDopplerMap;
use biscatter_radar::receiver::AlignedFrame;
use biscatter_rf::slab::SampleSlab;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The buffers the audited frames run on: an aligned frame per precision
/// and one map, as a frame's thread keeps them, plus the IF slabs of the
/// two-stage reference (frames keep none).
#[derive(Default)]
struct Buffers {
    aligned: AlignedFrame,
    aligned32: AlignedFrame<f32>,
    map: RangeDopplerMap,
    slab: SampleSlab,
    slab32: SampleSlab<f32>,
}

/// Stages 2–4 of one frame in precision `T` as `run_frame` runs them: the
/// fused front end into `frame`, then Doppler into `map`; returns one map
/// cell as a checksum.
fn fused_stages<T: Real>(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
    frame: &mut AlignedFrame<T>,
    map: &mut RangeDopplerMap,
    seed: u64,
) -> f64 {
    front_end_stage_into(pool, sys, &synth.train, &synth.scene, seed, frame);
    doppler_stage_into(pool, frame, map);
    map.at(0, 0)
}

/// The same stages through the two-stage reference: the IF samples into
/// `slab`, then align and Doppler.
fn two_stages<T: Real>(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
    slab: &mut SampleSlab<T>,
    frame: &mut AlignedFrame<T>,
    map: &mut RangeDopplerMap,
    seed: u64,
) -> f64 {
    dechirp_stage_into(pool, sys, &synth.train, &synth.scene, seed, slab);
    align_stage_into(pool, sys, &synth.train, slab, frame);
    doppler_stage_into(pool, frame, map);
    map.at(0, 0)
}

#[test]
fn steady_state_frame_stages_allocate_nothing() {
    biscatter_core::obs::trace::set_enabled(true);
    let pool = ComputePool::new(1);
    let sys = BiScatterSystem::paper_9ghz();
    let scenario = IsacScenario::single_tag(3.0, 16.0 / (128.0 * 120e-6)).with_office_clutter();
    let synth = synthesize_frame(&sys, &scenario, b"CMD1", 7);
    let mut bufs = Buffers::default();
    warm_dsp_plans(&sys);

    let f64_frame =
        |b: &mut Buffers, seed| fused_stages(&pool, &sys, &synth, &mut b.aligned, &mut b.map, seed);
    let f32_frame = |b: &mut Buffers, seed| {
        fused_stages(&pool, &sys, &synth, &mut b.aligned32, &mut b.map, seed)
    };
    let f64_two = |b: &mut Buffers, seed| {
        two_stages(
            &pool,
            &sys,
            &synth,
            &mut b.slab,
            &mut b.aligned,
            &mut b.map,
            seed,
        )
    };
    let f32_two = |b: &mut Buffers, seed| {
        two_stages(
            &pool,
            &sys,
            &synth,
            &mut b.slab32,
            &mut b.aligned32,
            &mut b.map,
            seed,
        )
    };

    // Warm-up: sizes the buffers, thread-local scratch and plan caches.
    let warm_a = f64_frame(&mut bufs, 1);
    let warm_b = f64_frame(&mut bufs, 1);
    assert_eq!(warm_a, warm_b, "warm-up frames must be deterministic");
    let warm32_a = f32_frame(&mut bufs, 1);
    let warm32_b = f32_frame(&mut bufs, 1);
    assert_eq!(
        warm32_a, warm32_b,
        "f32 warm-up frames must be deterministic"
    );
    for _ in 0..2 {
        assert_eq!(
            f64_two(&mut bufs, 1).to_bits(),
            warm_b.to_bits(),
            "two-stage f64 differs"
        );
        assert_eq!(
            f32_two(&mut bufs, 1).to_bits(),
            warm32_b.to_bits(),
            "two-stage f32 differs"
        );
    }

    // The flight recorder rides the frame path (the runtime records one
    // `FrameRecord` per frame at capture time), so it is audited inside the
    // same window: the ring is preallocated at construction and `record`
    // must stay allocation-free even once it wraps.
    let recorder = FlightRecorder::with_capacity(0, 4);
    let flight_record = |seed: u64, total_ns: u64| FrameRecord {
        frame_id: seed,
        cell_id: 0,
        t_ns: 0,
        total_ns,
        stages: StageNanos {
            dechirp: total_ns / 3,
            align: total_ns / 3,
            doppler: total_ns / 3,
            ..StageNanos::default()
        },
        failed: false,
        snr_db: f64::NAN,
        pslr_db: f64::NAN,
        decoded_bits: 0,
        cfar_detections: 0,
        queue_drops: 0,
    };

    // Measured steady-state frame, recorder included. Eight records into a
    // capacity-4 ring exercises both the fill and the overwrite path.
    let (measured, n) = counted(|| {
        let measured = f64_frame(&mut bufs, 1);
        for i in 0..8 {
            recorder.record(flight_record(i, 1_000_000));
        }
        measured
    });
    assert_eq!(measured, warm_b, "measured frame must match warm-up output");
    assert_eq!(
        n, 0,
        "steady-state front end/doppler + flight recorder performed {n} heap allocations"
    );
    assert_eq!(recorder.total_recorded(), 8);
    assert_eq!(recorder.overwritten(), 4);

    // The same window on the f32 instantiation of the stages.
    let (measured, n) = counted(|| f32_frame(&mut bufs, 1));
    assert_eq!(measured, warm32_b, "measured f32 frame must match warm-up");
    assert_eq!(
        n, 0,
        "steady-state f32 front end/doppler performed {n} heap allocations"
    );

    // And on the two-stage reference, slab and all, in both precisions.
    for (name, frame, want) in [
        ("f64", &f64_two as &dyn Fn(&mut Buffers, u64) -> f64, warm_b),
        ("f32", &f32_two, warm32_b),
    ] {
        let (measured, n) = counted(|| frame(&mut bufs, 1));
        assert_eq!(measured, want, "measured two-stage {name} frame");
        assert_eq!(
            n, 0,
            "steady-state two-stage {name} dechirp/align/doppler performed {n} heap allocations"
        );
    }

    // Same audit for acquisition stage 0: after warm-up, the correlator
    // bank over a dwell — block spectra, overlap-save correlation folded
    // into energy, peak/PSLR scans, decision — allocates nothing. The
    // dwell capture, bank, and slabs are reused like the cold-start
    // runtime path's per-thread set; the scoreboard keeps its capacity
    // across frames.
    let cold = IsacScenario::single_tag(3.0, 16.0 / (128.0 * 120e-6)).with_cold_start(41.7e-6, 2);
    let cfg = acquire_config(&sys);
    warm_acquire_plans(&sys);
    let mut capture = Vec::new();
    synthesize_cold_start_capture(&sys, &cold, 7, &mut capture);
    let mut bank = CorrelatorBank::default();
    bank.set_hypotheses(&acquire_hypotheses(&sys));
    let mut scratch = AcquireScratch::default();
    let mut scores = Vec::new();

    let warm_a = acquire_all(&pool, &mut bank, &cfg, &capture, &mut scratch, &mut scores);
    let warm_b = acquire_all(&pool, &mut bank, &cfg, &capture, &mut scratch, &mut scores);
    assert_eq!(warm_a, warm_b, "warm-up acquisitions must be deterministic");
    assert!(warm_a.is_some(), "warm-up dwell not acquired");

    let (measured, n) =
        counted(|| acquire_all(&pool, &mut bank, &cfg, &capture, &mut scratch, &mut scores));
    assert_eq!(measured, warm_b, "measured acquisition must match warm-up");
    assert_eq!(
        n, 0,
        "steady-state acquisition performed {n} heap allocations"
    );

    // The tag's downlink decode is bounded rather than zero: it returns
    // fresh vectors (the symbol stream, the parsed payload and what the
    // parser builds them from), but after warm-up (which sizes this
    // thread's search buffers, batch layout and decision table, and builds
    // the decider's banks, which later decodes find cached) it must not
    // allocate a working buffer, a bank, or anything per slot, per batch,
    // per hypothesis or per candidate. The same payload in a 32-chirp and a
    // 128-chirp frame must stay under one bound: the five allocations a
    // decode makes.
    let decoder = DownlinkDecoder::new(sys.nominal_decider());
    for chirps in [32, 128] {
        let packet = DownlinkPacket::new(b"CMD1".to_vec());
        let (train, _, _) = isac_frame(&packet, &sys.alphabet, sys.radar.t_period, chirps).unwrap();
        let mut noise = NoiseSource::new(chirps as u64);
        let adc = sys
            .front_end
            .capture_train(&train, sys.downlink_snr_at(3.0), 0.0, &mut noise);
        let warm = decoder.decode(&adc, Some(4)).unwrap();
        let (measured, n) = counted(|| decoder.decode(&adc, Some(4)).unwrap());
        assert_eq!(measured.payload.as_deref(), Ok(&b"CMD1"[..]));
        assert_eq!(measured.symbols, warm.symbols);
        assert!(
            n <= 5,
            "decoding a {chirps}-chirp capture performed {n} heap allocations"
        );
    }
}

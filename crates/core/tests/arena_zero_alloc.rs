//! Steady-state allocation audit for the arena frame path.
//!
//! DESIGN.md §10 claims that after warm-up, the frame hot path — dechirp →
//! align → doppler, stages 2–4 — performs **no heap allocation** on a
//! 1-thread pool: sample slabs, profile rows, power slabs, and all FFT /
//! resample scratch are recycled through the [`FrameArena`] and thread-local
//! caches. This test enforces the claim with a counting global allocator:
//! two warm-up frames size every buffer, then a third frame must allocate
//! exactly zero times on the measuring thread. The stages are generic over
//! the sample precision, so the same audited window runs once per
//! instantiation: f64 (the oracle) and f32 (the fast tier), each leasing
//! from its own arena pools.
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
use biscatter_core::dsp::arena::Pool;
use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::dsp::Real;
use biscatter_core::isac::{
    acquire_config, acquire_hypotheses, align_stage_into, dechirp_stage_into, doppler_stage_into,
    synthesize_cold_start_capture, synthesize_frame, warm_acquire_plans, warm_dsp_plans,
    AlignedPair, FrameArena, IsacScenario, SynthesizedFrame,
};
use biscatter_core::link::packet::DownlinkPacket;
use biscatter_core::obs::alloc::{counted, CountingAlloc};
use biscatter_core::obs::recorder::{FlightRecorder, FrameRecord, StageNanos};
use biscatter_core::radar::sequencer::isac_frame;
use biscatter_core::system::BiScatterSystem;
use biscatter_core::tag::decoder::DownlinkDecoder;
use biscatter_radar::receiver::acquire::{acquire_all, AcquireScratch, CorrelatorBank};
use biscatter_radar::receiver::doppler::RangeDopplerMap;
use biscatter_rf::slab::SampleSlab;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Stages 2–4 of one frame in precision `T`, leasing every buffer from the
/// arena pools of that precision; returns one map cell as a checksum.
fn hot_stages<T: Real>(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
    slabs: &Pool<SampleSlab<T>>,
    aligned: &Pool<AlignedPair<T>>,
    maps: &Pool<RangeDopplerMap>,
    seed: u64,
) -> f64 {
    let mut slab = slabs.take_or(SampleSlab::new);
    dechirp_stage_into(pool, sys, &synth.train, &synth.scene, seed, &mut slab);
    let mut pair = aligned.take_or(AlignedPair::default);
    align_stage_into(pool, sys, &synth.train, &*slab, &mut pair);
    drop(slab);
    let mut map = maps.take_or(RangeDopplerMap::default);
    doppler_stage_into(pool, &pair, &mut map);
    map.at(0, 0)
}

#[test]
fn steady_state_frame_stages_allocate_nothing() {
    biscatter_core::obs::trace::set_enabled(true);
    let pool = ComputePool::new(1);
    let sys = BiScatterSystem::paper_9ghz();
    let scenario = IsacScenario::single_tag(3.0, 16.0 / (128.0 * 120e-6)).with_office_clutter();
    let synth = synthesize_frame(&sys, &scenario, b"CMD1", 7);
    let arena = FrameArena::default();
    warm_dsp_plans(&sys);

    let f64_frame = |seed| {
        hot_stages(
            &pool,
            &sys,
            &synth,
            &arena.if_slabs,
            &arena.aligned,
            &arena.maps,
            seed,
        )
    };
    let f32_frame = |seed| {
        hot_stages(
            &pool,
            &sys,
            &synth,
            &arena.if_slabs32,
            &arena.aligned32,
            &arena.maps,
            seed,
        )
    };

    // Warm-up: sizes the arena buffers, thread-local scratch, plan caches,
    // and the pool free lists (first lease drop grows each free list once).
    let warm_a = f64_frame(1);
    let warm_b = f64_frame(1);
    assert_eq!(warm_a, warm_b, "warm-up frames must be deterministic");
    let warm32_a = f32_frame(1);
    let warm32_b = f32_frame(1);
    assert_eq!(
        warm32_a, warm32_b,
        "f32 warm-up frames must be deterministic"
    );

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
        let measured = f64_frame(1);
        for i in 0..8 {
            recorder.record(flight_record(i, 1_000_000));
        }
        measured
    });
    assert_eq!(measured, warm_b, "measured frame must match warm-up output");
    assert_eq!(
        n, 0,
        "steady-state dechirp/align/doppler + flight recorder performed {n} heap allocations"
    );
    assert_eq!(recorder.total_recorded(), 8);
    assert_eq!(recorder.overwritten(), 4);

    // The same window on the f32 instantiation of the stages.
    let (measured, n) = counted(|| f32_frame(1));
    assert_eq!(measured, warm32_b, "measured f32 frame must match warm-up");
    assert_eq!(
        n, 0,
        "steady-state f32 dechirp/align/doppler performed {n} heap allocations"
    );

    // Same audit for acquisition stage 0: after warm-up, the correlator
    // bank over a dwell — overlap-add FFT correlation, energy folding,
    // peak/PSLR scans, decision — allocates nothing. The dwell capture,
    // bank, and slabs lease from the same arena pools the cold-start
    // runtime path uses; the scoreboard keeps its capacity across frames.
    let cold = IsacScenario::single_tag(3.0, 16.0 / (128.0 * 120e-6)).with_cold_start(41.7e-6, 2);
    let cfg = acquire_config(&sys);
    warm_acquire_plans(&sys);
    let mut capture = arena.captures.take_or(Vec::new);
    synthesize_cold_start_capture(&sys, &cold, 7, &mut capture);
    let mut bank = arena.acq_banks.take_or(CorrelatorBank::default);
    bank.set_hypotheses(&acquire_hypotheses(&sys));
    let mut scratch = arena.acquire.take_or(AcquireScratch::default);
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

    // The tag's downlink decode is bounded rather than zero: it owns a few
    // buffers (the period search's envelope, the slot-timing tables, one
    // decision bank, the hypotheses' symbols) and returns fresh vectors, but
    // after warm-up (which fills this thread's Hann window cache and leaves
    // a dropped bank's batch scratch for the next one) it must not allocate
    // per slot, per batch, per hypothesis or per candidate. The same payload
    // in a 32-chirp and a 128-chirp frame must stay under one bound, tight
    // enough that a buffer allocated per slot or per batch fails it.
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
            n <= 32,
            "decoding a {chirps}-chirp capture performed {n} heap allocations"
        );
    }
}

//! The fused radar front end against the two-stage reference, bit for bit.
//!
//! `run_frame` synthesizes, noises and range-transforms each chirp in one
//! pass (`front_end_stage_into`), with no slab of IF samples; the two-stage
//! path (`dechirp_stage_into` into a slab, then `align_stage_into`) is what
//! it replaced and what the benchmark's replay still runs. This file checks
//! that both leave the same aligned rows and that `run_frame`'s outcome is
//! the two-stage composition's, on the production workloads' frames, at
//! pools of 1 and 2 threads, in both precisions and on both dispatch tiers.
//! It also checks the noise generator's jump at every row start of a
//! 128-chirp frame, which is where the front end draws each row's noise.

use biscatter_compute::ComputePool;
use biscatter_core::dsp::dispatch::{avx2_available, force_tier, tier, SimdTier};
use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::dsp::Real;
use biscatter_core::isac::{
    align_stage_into, dechirp_stage_into, detect_stage_multi, detect_stage_with,
    doppler_stage_into, front_end_stage_into, run_cold_start_frame, run_frame, synthesize_frame,
    FrameArena, FrameCtx, IsacOutcome,
};
use biscatter_core::obs::recorder::StageNanos;
use biscatter_core::radar::receiver::doppler::RangeDopplerMap;
use biscatter_core::radar::receiver::multitag::{MultiTagScratch, TagBank};
use biscatter_core::radar::receiver::AlignedFrame;
use biscatter_core::rf::slab::SampleSlab;
use biscatter_core::system::BiScatterSystem;
use biscatter_runtime::source::{cold_start_jobs, multi_tag_jobs, streaming_system, WorkloadSpec};
use biscatter_runtime::{FrameJob, PrecisionTier};

/// The frames checked: a `four_by_eight` job on the streaming system, the
/// same job with IF correction off, a 24-tag 128-chirp `multi_tag_jobs`
/// frame and a cold-start frame.
fn cases() -> Vec<(&'static str, BiScatterSystem, FrameJob)> {
    let stream = streaming_system();
    let mut uncorrected = stream.clone();
    uncorrected.rx.if_correction = false;
    let job = WorkloadSpec::four_by_eight(8, 7).jobs(&stream).remove(5);
    vec![
        ("four_by_eight job 5", stream.clone(), job.clone()),
        ("four_by_eight job 5, no IF correction", uncorrected, job),
        (
            "24-tag multi_tag_jobs frame",
            BiScatterSystem::paper_9ghz(),
            multi_tag_jobs(&BiScatterSystem::paper_9ghz(), 1, 24, 11).remove(0),
        ),
        (
            "cold_start_jobs frame 0",
            stream.clone(),
            cold_start_jobs(&stream, 3, 13).remove(0),
        ),
    ]
}

/// Both receive paths of a frame, bit for bit: the slow-time interval, the
/// grid, then each chirp's sensing row and its comms row read through the
/// view.
fn frame_bits<T: Real>(frame: &AlignedFrame<T>) -> Vec<u64> {
    let mut bits = vec![frame.t_period.to_bits()];
    bits.extend(frame.range_grid.iter().map(|r| r.to_bits()));
    let comms = frame.comms();
    for (c, row) in frame.profiles.iter().enumerate() {
        let cells = row
            .iter()
            .copied()
            .chain(comms.segment(c, 0..frame.range_grid.len()));
        for z in cells {
            bits.extend([z.re.to_f64().to_bits(), z.im.to_f64().to_bits()]);
        }
    }
    bits
}

/// Stages 2–5 with the two-stage front end, on fresh buffers.
fn two_stage_outcome<T: Real>(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    job: &FrameJob,
) -> (AlignedFrame<T>, IsacOutcome) {
    let synth = synthesize_frame(sys, &job.scenario, &job.payload, job.seed);
    let mut slab = SampleSlab::<T>::new();
    dechirp_stage_into(pool, sys, &synth.train, &synth.scene, job.seed, &mut slab);
    let mut frame = AlignedFrame::<T>::default();
    align_stage_into(pool, sys, &synth.train, &slab, &mut frame);
    let mut map = RangeDopplerMap::default();
    doppler_stage_into(pool, &frame, &mut map);
    let mut mean_power = Vec::new();
    let outcome = if job.scenario.extra_tags.is_empty() {
        detect_stage_with(&job.scenario, &frame, &map, synth.downlink, &mut mean_power)
    } else {
        detect_stage_multi(
            pool,
            &job.scenario,
            &frame,
            &map,
            synth.downlink,
            &mut TagBank::default(),
            &mut MultiTagScratch::default(),
            &mut mean_power,
        )
    };
    (frame, outcome)
}

/// The fused rows against the two-stage rows, into a frame that last held
/// another frame; then `run_frame` (or the cold-start frame's aligned
/// part) on `precision` against the two-stage outcome in `T`, where
/// `run_frame` runs in `T`.
fn check<T: Real>(
    name: &str,
    pool: &ComputePool,
    sys: &BiScatterSystem,
    job: &FrameJob,
    precision: PrecisionTier,
) {
    let (want_frame, want) = two_stage_outcome::<T>(pool, sys, job);
    let synth = synthesize_frame(sys, &job.scenario, &job.payload, job.seed);
    let mut frame = AlignedFrame::<T>::default();
    let other = synthesize_frame(sys, &job.scenario, b"OTHER", job.seed ^ 1);
    front_end_stage_into(pool, sys, &other.train, &other.scene, 5, &mut frame);
    let split = front_end_stage_into(pool, sys, &synth.train, &synth.scene, job.seed, &mut frame);
    let label = format!(
        "{name}: {}, {} threads, {}",
        std::any::type_name::<T>(),
        pool.threads(),
        tier().name()
    );
    assert!(
        frame_bits(&frame) == frame_bits(&want_frame),
        "{label}: rows differ"
    );
    assert!(
        split.synthesis_ns > 0 && split.transform_ns > 0,
        "{label}: {split:?}"
    );

    let ctx = FrameCtx {
        pool,
        sys,
        arena: &FrameArena::default(),
        tier: precision,
    };
    let times = &mut StageNanos::default();
    let got = if job.scenario.cold_start.is_some() {
        run_cold_start_frame(&ctx, &job.scenario, &job.payload, job.seed, times)
            .frame
            .expect("the cold-start frame is acquired")
    } else {
        run_frame(&ctx, &job.scenario, &job.payload, job.seed, times)
    };
    // `run_frame` keeps multi-tag frames on f64 whatever the tier.
    let on_t = std::mem::size_of::<T>() == 8 || job.scenario.extra_tags.is_empty();
    if on_t {
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label}: outcome");
    }
    assert!(times.dechirp > 0 && times.align > 0, "{label}: {times:?}");
}

#[test]
fn fused_front_end_matches_two_stages() {
    let before = tier();
    let mut tiers = vec![SimdTier::Scalar];
    if avx2_available() {
        tiers.push(SimdTier::Avx2);
    }
    let pools = [ComputePool::new(1), ComputePool::new(2)];
    for t in tiers {
        force_tier(t);
        for (name, sys, job) in cases() {
            for pool in &pools {
                check::<f64>(name, pool, &sys, &job, PrecisionTier::F64);
                check::<f32>(name, pool, &sys, &job, PrecisionTier::F32);
            }
        }
    }
    force_tier(before);
}

/// A generator jumped to each row's first sample of the 24-tag 128-chirp
/// `paper_9ghz` frame — antenna 0 and, for a two-antenna array, antenna 1
/// — is the generator drawn serially to that place.
#[test]
fn noise_jumps_to_every_row_start_of_a_128_chirp_frame() {
    let sys = BiScatterSystem::paper_9ghz();
    let job = multi_tag_jobs(&sys, 1, 24, 11).remove(0);
    let synth = synthesize_frame(&sys, &job.scenario, &job.payload, job.seed);
    assert_eq!(synth.train.len(), 128);
    let lens: Vec<usize> = synth
        .train
        .slots()
        .iter()
        .map(|s| s.chirp.if_samples(sys.rx.if_sample_rate))
        .collect();
    let origin = NoiseSource::new(job.seed ^ 0x5EED_0F1F_2F3F);
    for n_rx in [1usize, 2] {
        let mut serial = origin.clone();
        let mut at = 0u64;
        for &len in &lens {
            for _ in 0..n_rx {
                let mut jumped = origin.clone();
                jumped.jump(at);
                let next = |g: &NoiseSource| g.clone().gaussian().to_bits();
                assert_eq!(next(&jumped), next(&serial), "row start {at}, {n_rx} rx");
                for _ in 0..len {
                    serial.gaussian();
                }
                at += len as u64;
            }
        }
        assert_eq!(at, (n_rx * lens.iter().sum::<usize>()) as u64);
    }
}

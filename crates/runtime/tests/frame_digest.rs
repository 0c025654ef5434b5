//! Absolute bit pins for the receive chain.
//!
//! Every other equivalence test in the workspace is relative: serial vs
//! pooled, scalar vs AVX2, batched vs per-tag, streaming vs one-shot. A
//! change that moves a bit inside a stage function that both sides of such
//! a pair share passes all of them. This test replays a few fixed-seed
//! frames stage by stage and hashes (FNV-1a over `to_bits`) the IF sample
//! slab, both receive paths' aligned rows (the comms rows read through
//! `AlignedFrame::comms`, which subtracts chirp 0 on read, so their digest
//! is the one the stored comms frame had), the range–Doppler power map,
//! and the `Debug` text of the frame's outcome from `run_frame` /
//! `run_cold_start_frame` (floats print in their shortest round-tripping
//! form, so the text pins every bit). The f32 slab, aligned and map constants were recorded before
//! the f32 and f64 receive chains were merged into one generic
//! implementation. The f64 constants, and the cold-start f32 outcome (its
//! acquisition dwell draws f64 noise), were re-recorded when f64 noise moved
//! from Box–Muller to the inverse-CDF draw the f32 tier already used. The
//! cold-start outcome text (f64 and f32) was re-recorded again when the
//! correlator bank moved from per-hypothesis overlap-add to overlap-save on
//! one shared block length: its hypothesis scores moved at rounding level,
//! its decision did not. It was re-recorded once more when the bank began
//! finishing only the hypotheses still in contention after one window: the
//! pruned hypotheses' scores now cover that window alone and each score
//! records whether its row was finished; the decision and the aligned
//! frame did not move.
//!
//! The f64 digests must hold on every dispatch tier (the f64 kernels are
//! bit-identical across tiers). The f32 tier has no cross-tier bit
//! contract, so its digests are recorded per tier under `force_tier`.
//!
//! The constants were computed on x86_64 Linux. Geometry runs through the
//! platform libm (`sin`, `cos`, `exp`, `ln`), which may round differently
//! on other targets, so the test only runs where the constants came from.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use biscatter_compute::ComputePool;
use biscatter_core::dsp::dispatch::{avx2_available, force_tier, tier, SimdTier};
use biscatter_core::dsp::{Complex, Real};
use biscatter_core::isac::{
    align_stage_into, dechirp_stage_into, detect_stage_multi, detect_stage_with,
    doppler_stage_into, run_cold_start_frame, run_frame, synthesize_frame, FrameCtx, IsacScenario,
};
use biscatter_core::obs::recorder::StageNanos;
use biscatter_core::radar::receiver::doppler::RangeDopplerMap;
use biscatter_core::radar::receiver::multitag::{MultiTagScratch, TagBank};
use biscatter_core::radar::receiver::AlignedFrame;
use biscatter_core::rf::slab::SampleSlab;
use biscatter_core::system::BiScatterSystem;
use biscatter_runtime::source::{cold_start_jobs, multi_tag_jobs, streaming_system, WorkloadSpec};
use biscatter_runtime::{FrameJob, PrecisionTier};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Feeds a sample's exact bit pattern to the hash.
trait Bits {
    fn feed(&self, h: &mut Fnv);
}

impl Bits for f64 {
    fn feed(&self, h: &mut Fnv) {
        h.bytes(&self.to_bits().to_le_bytes());
    }
}

impl Bits for f32 {
    fn feed(&self, h: &mut Fnv) {
        h.bytes(&self.to_bits().to_le_bytes());
    }
}

impl<T: Bits> Bits for Complex<T> {
    fn feed(&self, h: &mut Fnv) {
        self.re.feed(h);
        self.im.feed(h);
    }
}

/// Digest of a sequence of rows; each row's length is hashed too, so a
/// moved row boundary changes the digest.
fn rows<'a, T: Bits + 'a>(rows: impl Iterator<Item = &'a [T]>) -> u64 {
    let mut h = Fnv::new();
    for row in rows {
        h.bytes(&(row.len() as u64).to_le_bytes());
        for v in row {
            v.feed(&mut h);
        }
    }
    h.0
}

/// `[IF slab, comms rows (through the view), sensing rows, power map,
/// outcome text]`.
type Digest = [u64; 5];

/// The pinned frames, each with the system it runs on.
fn cases() -> Vec<(&'static str, BiScatterSystem, FrameJob)> {
    let paper = BiScatterSystem::paper_9ghz();
    let stream = streaming_system();
    let mut office = IsacScenario::single_tag(3.0, 1302.0).with_office_clutter();
    office.uplink_bits = vec![true, false, true, true];
    let office = FrameJob {
        id: 0,
        radar_id: 0,
        tag_id: 0,
        scenario: office,
        payload: b"CMD1".to_vec(),
        seed: 17,
    };
    let four_by_eight = WorkloadSpec::four_by_eight(8, 7).jobs(&stream).remove(5);
    let warehouse = multi_tag_jobs(&paper, 1, 24, 11).remove(0);
    let cold = cold_start_jobs(&stream, 3, 13).remove(0);
    vec![
        ("paper_9ghz office, uplink bits", paper.clone(), office),
        (
            "streaming_system four_by_eight job 5",
            stream.clone(),
            four_by_eight,
        ),
        ("paper_9ghz 24-tag multi_tag_jobs frame", paper, warehouse),
        ("streaming_system cold_start_jobs frame 0", stream, cold),
    ]
}

/// Stages 2–5 replayed in precision `T`, then the outcome of the same frame
/// through the production entry point on `precision`.
fn digest<T: Real + Bits>(
    sys: &BiScatterSystem,
    job: &FrameJob,
    precision: PrecisionTier,
) -> Digest {
    let pool = ComputePool::new(1);
    let synth = synthesize_frame(sys, &job.scenario, &job.payload, job.seed);
    let mut slab = SampleSlab::<T>::new();
    dechirp_stage_into(&pool, sys, &synth.train, &synth.scene, job.seed, &mut slab);
    let mut frame = AlignedFrame::<T>::default();
    align_stage_into(&pool, sys, &synth.train, &slab, &mut frame);
    let mut map = RangeDopplerMap::default();
    doppler_stage_into(&pool, &frame, &mut map);
    let mut mean_power = Vec::new();
    let replayed = if job.scenario.extra_tags.is_empty() {
        detect_stage_with(&job.scenario, &frame, &map, synth.downlink, &mut mean_power)
    } else {
        detect_stage_multi(
            &pool,
            &job.scenario,
            &frame,
            &map,
            synth.downlink,
            &mut TagBank::default(),
            &mut MultiTagScratch::default(),
            &mut mean_power,
        )
    };

    let ctx = FrameCtx {
        pool: &pool,
        sys,
        tier: precision,
    };
    let (scenario, times) = (&job.scenario, &mut StageNanos::default());
    let outcome = if scenario.cold_start.is_some() {
        format!(
            "{:?}",
            run_cold_start_frame(&ctx, scenario, &job.payload, job.seed, times)
        )
    } else {
        let out = format!(
            "{:?}",
            run_frame(&ctx, scenario, &job.payload, job.seed, times)
        );
        assert_eq!(
            format!("{replayed:?}"),
            out,
            "replayed stages disagree with run_frame"
        );
        out
    };

    let mut power = Fnv::new();
    power.bytes(&(map.n_doppler as u64).to_le_bytes());
    (0..map.n_doppler).for_each(|d| map.range_slice(d).iter().for_each(|v| v.feed(&mut power)));
    let mut text = Fnv::new();
    text.bytes(outcome.as_bytes());
    let comms = frame.comms();
    let n_range = frame.range_grid.len();
    let comms_rows: Vec<Vec<Complex<T>>> = (0..frame.n_chirps())
        .map(|c| comms.segment(c, 0..n_range).collect())
        .collect();
    [
        rows(slab.iter()),
        rows(comms_rows.iter().map(|r| &r[..])),
        rows(frame.profiles.iter()),
        power.0,
        text.0,
    ]
}

/// f64 digests, one per case in [`cases`] order, on every dispatch tier.
const F64: [Digest; 4] = [
    [
        0xe2cca7b58edae967,
        0x106bc1a4d0d089e2,
        0x486848319cbb70f6,
        0xabb03fba7de25c49,
        0x5d5695dfcd04c294,
    ],
    [
        0xb6bc650fccd09ede,
        0xaeeac73c3bbd056a,
        0x94aaa96540c4ca5e,
        0xd3e42862655873c1,
        0x029e8557a42b1360,
    ],
    [
        0x86c9c439bf0cf1eb,
        0xa1c6a05eeed12ad9,
        0x3c72ba70f6fe413c,
        0x6948d90e0cfecbfe,
        0x7f33a1e7f8ed9f2a,
    ],
    [
        0xe779b9fe80d90eab,
        0x64e95c684639d2e1,
        0x026f880199d7d104,
        0xc175593a607b6b26,
        0xb117f4a973829404,
    ],
];

/// f32 digests under scalar dispatch, for the single-tag cases.
const F32_SCALAR: [Digest; 3] = [
    [
        0xda01db3b1d90f517,
        0x3ae8271c24554ce6,
        0xdbffef2f6383e36a,
        0x0d4511f29fd6b7d0,
        0x06e85e6aa644cb47,
    ],
    [
        0x7f29872877c5cbaf,
        0xd6753bc4902d1ffc,
        0x8f17b3a0a8d190bc,
        0x1d88af03c45d5607,
        0xdb9916419772cd70,
    ],
    [
        0xee9257f1d74bc44f,
        0x048d9b404512069f,
        0xc994f718cddfb4bc,
        0xd5e0d20b8bb9fe92,
        0x468ba0c10fb5a81c,
    ],
];

/// f32 digests under AVX2 dispatch. On the recording machine they equal the
/// scalar ones, but nothing promises that: a kernel change may separate them.
const F32_AVX2: [Digest; 3] = F32_SCALAR;

#[test]
fn frames_match_recorded_digests() {
    let before = tier();
    let mut tiers = vec![SimdTier::Scalar];
    if avx2_available() {
        tiers.push(SimdTier::Avx2);
    }
    let mut failures = Vec::new();
    for t in tiers {
        force_tier(t);
        let f32_want = match t {
            SimdTier::Scalar => &F32_SCALAR,
            SimdTier::Avx2 => &F32_AVX2,
        };
        let mut f32_want = f32_want.iter();
        for ((name, sys, job), want) in cases().iter().zip(&F64) {
            let mut check = |precision: &str, got: Digest, want: &Digest| {
                if got != *want {
                    failures.push(format!(
                        "{name} ({precision}, {}): got {got:#018x?}",
                        t.name()
                    ));
                }
            };
            check("f64", digest::<f64>(sys, job, PrecisionTier::F64), want);
            // The multi-tag frame runs on f64 whatever the tier.
            if job.scenario.extra_tags.is_empty() {
                let want = f32_want.next().unwrap();
                check("f32", digest::<f32>(sys, job, PrecisionTier::F32), want);
            }
        }
    }
    force_tier(before);
    assert!(
        failures.is_empty(),
        "digests moved:\n{}",
        failures.join("\n")
    );
}

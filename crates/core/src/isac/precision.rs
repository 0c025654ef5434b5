//! The opt-in f32 fast tier for the frame hot path (stages 2–4 in single
//! precision), with the f64 pipeline as its accuracy oracle.
//!
//! [`super::run_frame`] on the `F32` tier composes the stage functions
//! here: synthesis and the tag-side downlink decode stay in f64 (they are
//! control-path, not hot), then dechirp, align, and Doppler run through the
//! `*_32` kernels in `biscatter_dsp::simd` on f32 slabs. The range–Doppler
//! power widens back to f64 as it lands in the shared [`RangeDopplerMap`],
//! so stage 5 — localization, CFAR, uplink decisions — is the *same code*
//! on either tier; only the numbers feeding it differ at the level of f32
//! rounding.
//!
//! **Contract.** There is no bit-identity promise between tiers, and no
//! shared noise realization either: the f32 tier draws its noise from the
//! fast inverse-CDF generator (`NoiseSource::gaussian_fast`), which is
//! seeded and deterministic but a different sequence than the oracle's
//! Box–Muller draw. Validation against the f64 oracle is therefore
//! two-layered (see `tests/precision_oracle.rs`): noiseless frames bound
//! per-cell relative error and localization argmax (pure kernel rounding),
//! and noisy frames at bench SNR must agree with the oracle on every
//! detection-level product — located bin, decoded bits, CFAR count. The
//! f64 path itself keeps its bit-identity guarantees (serial vs pooled,
//! scalar vs AVX2) untouched — selecting the f32 tier is the only way to
//! observe different values.
//!
//! Multi-tag scenarios (`extra_tags` non-empty) take the oracle path: the
//! batched multi-tag engine consumes f64 profiles, and warehouse-density
//! frames are dominated by per-tag scoring, not the stages this tier
//! accelerates.

use super::{sensing_detections32, IsacOutcome, IsacScenario};
use crate::downlink::FrameOutcome;
use crate::system::BiScatterSystem;
use biscatter_compute::ComputePool;
use biscatter_dsp::signal::NoiseSource;
use biscatter_radar::receiver::doppler::{range_doppler_into_f32, RangeDopplerMap};
use biscatter_radar::receiver::f32path::{align_frame_into_f32, AlignedFrame32};
use biscatter_radar::receiver::localize::locate_tag;
use biscatter_radar::receiver::uplink::demodulate_amps;
use biscatter_radar::receiver::RxConfig;
use biscatter_rf::frame::ChirpTrain;
use biscatter_rf::if_gen::IfReceiver;
use biscatter_rf::scene::Scene;
use biscatter_rf::slab::SampleSlab32;

/// Which numeric tier the frame hot path runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrecisionTier {
    /// Double precision: the oracle path with bit-identity guarantees.
    #[default]
    F64,
    /// Single precision fast tier for stages 2–4, validated against the
    /// oracle by error bounds.
    F32,
}

impl PrecisionTier {
    /// Stable lower-case name (`"f64"` / `"f32"`), the form configs and
    /// telemetry use.
    pub fn name(self) -> &'static str {
        match self {
            PrecisionTier::F64 => "f64",
            PrecisionTier::F32 => "f32",
        }
    }

    /// Parses the form [`PrecisionTier::name`] emits; `None` for anything
    /// else.
    pub fn parse(s: &str) -> Option<PrecisionTier> {
        match s {
            "f64" => Some(PrecisionTier::F64),
            "f32" => Some(PrecisionTier::F32),
            _ => None,
        }
    }
}

/// Stage 3 output on the f32 tier: aligned single-precision profiles for
/// both receive paths (mirrors [`super::AlignedPair`]).
#[derive(Debug, Clone, Default)]
pub struct AlignedPair32 {
    /// Comms/localization path (background subtracted).
    pub comms: AlignedFrame32,
    /// Sensing path (no background subtraction).
    pub sensing: AlignedFrame32,
}

/// Stage 2 on the f32 tier: dechirp into a single-precision sample slab.
/// Chirp geometry runs in f64 and rounds per sample; the noise comes from
/// the fast inverse-CDF generator (seeded and deterministic, but a
/// *different* realization than the oracle's Box–Muller draw — Box–Muller
/// would otherwise dominate this stage). Cross-tier agreement is therefore
/// statistical at operating SNR, not per-sample.
pub fn dechirp_stage_into_f32(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    train: &ChirpTrain,
    scene: &Scene,
    seed: u64,
    out: &mut SampleSlab32,
) {
    let _span = biscatter_obs::span!("isac.dechirp");
    let rx = IfReceiver {
        sample_rate_hz: sys.rx.if_sample_rate,
        noise_sigma: 1.0,
    };
    let mut if_noise = NoiseSource::new(seed ^ 0x5EED_0F1F_2F3F);
    rx.dechirp_train_into_f32(pool, train, scene, 0.0, &mut if_noise, out);
}

/// Stage 3 on the f32 tier: per-chirp range rFFT + IF correction, then both
/// receive paths derived from one transform pass (mirrors
/// [`super::align_stage_into`] in output, not in work).
///
/// The f64 path runs the full align twice — once with background
/// subtraction for comms, once without for sensing — because each pass is a
/// pure function of the IF samples. But background subtraction is just
/// "subtract the chirp-0 profile from every row", so the sensing frame
/// already contains everything the comms frame needs: run the FFT pass once
/// (no subtraction), copy, and subtract row 0. Bit-for-bit the same result
/// as two passes, at half the transform cost.
pub fn align_stage_into_f32(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    train: &ChirpTrain,
    if_data: &SampleSlab32,
    out: &mut AlignedPair32,
) {
    let _span = biscatter_obs::span!("isac.align");
    let sensing_cfg = RxConfig {
        background_subtraction: false,
        ..sys.rx.clone()
    };
    align_frame_into_f32(pool, &sensing_cfg, train, if_data, &mut out.sensing);

    let n = out.sensing.profiles.len();
    out.comms.profiles.truncate(n);
    out.comms.profiles.resize_with(n, Vec::new);
    for (dst, src) in out.comms.profiles.iter_mut().zip(&out.sensing.profiles) {
        dst.clear();
        dst.extend_from_slice(src);
    }
    out.comms.range_grid = out.sensing.range_grid.clone();
    out.comms.t_period = out.sensing.t_period;
    if sys.rx.background_subtraction && n > 0 {
        let (first, rest) = out.comms.profiles.split_at_mut(1);
        let reference = &first[0];
        for p in rest.iter_mut() {
            for (v, r) in p.iter_mut().zip(reference.iter()) {
                *v -= *r;
            }
        }
        // x - x rather than 0.0: keeps IEEE semantics identical to the
        // subtract-from-itself the two-pass form performs on row 0.
        #[allow(clippy::eq_op)]
        for v in first[0].iter_mut() {
            let x = *v;
            *v = x - x;
        }
    }
}

/// Stage 4 on the f32 tier: slow-time FFT of the comms-path frame, power
/// widened to f64 into the shared map type.
pub fn doppler_stage_into_f32(pool: &ComputePool, pair: &AlignedPair32, out: &mut RangeDopplerMap) {
    let _span = biscatter_obs::span!("isac.doppler");
    range_doppler_into_f32(pool, &pair.comms, out);
}

/// Stage 5 on the f32 tier. Localization and CFAR run the unchanged f64
/// detection code (the map is already f64); the uplink amplitude sequence is
/// widened from the f32 comms profiles at the located bin and decided
/// through the same Goertzel filters and thresholds as the oracle.
pub fn detect_stage_with_f32(
    scenario: &IsacScenario,
    pair: &AlignedPair32,
    map: &RangeDopplerMap,
    downlink: FrameOutcome,
    mean_power: &mut Vec<f64>,
) -> IsacOutcome {
    let _span = biscatter_obs::span!("isac.detect");
    let location = locate_tag(map, scenario.tag_mod_freq_hz, 10.0);
    let uplink_bits = if scenario.uplink_bits.is_empty() {
        None
    } else {
        location.as_ref().and_then(|loc| {
            let amp: Vec<f64> = pair
                .comms
                .profiles
                .iter()
                .map(|p| p[loc.range_bin].to_f64().abs())
                .collect();
            demodulate_amps(
                &amp,
                pair.comms.t_period,
                scenario.uplink_scheme,
                scenario.uplink_bit_duration_s,
            )
            .map(|d| d.bits)
        })
    };

    let detections = sensing_detections32(pair, mean_power);

    IsacOutcome {
        downlink,
        location,
        uplink_bits,
        detections,
        tags: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{run_frame, run_isac_frame, FrameArena, FrameCtx, TagDeployment};
    use super::*;
    use biscatter_obs::recorder::StageNanos;
    use biscatter_radar::receiver::uplink::UplinkScheme;

    fn run_tier(
        sys: &BiScatterSystem,
        scenario: &IsacScenario,
        payload: &[u8],
        seed: u64,
        tier: PrecisionTier,
    ) -> IsacOutcome {
        let ctx = FrameCtx {
            pool: ComputePool::global(),
            sys,
            arena: &FrameArena::default(),
            tier,
        };
        run_frame(&ctx, scenario, payload, seed, &mut StageNanos::default())
    }

    #[test]
    fn tier_names_roundtrip() {
        for t in [PrecisionTier::F64, PrecisionTier::F32] {
            assert_eq!(PrecisionTier::parse(t.name()), Some(t));
        }
        assert_eq!(PrecisionTier::parse("f16"), None);
        assert_eq!(PrecisionTier::default(), PrecisionTier::F64);
    }

    #[test]
    fn f32_frame_localizes_and_decodes() {
        let sys = BiScatterSystem::paper_9ghz();
        let bits = vec![true, false, true, true];
        let mut scenario = IsacScenario::single_tag(3.0, 1302.0).with_office_clutter();
        scenario.uplink_bits = bits.clone();
        let out = run_tier(&sys, &scenario, b"CMD1", 17, PrecisionTier::F32);
        assert!(out.downlink.parsed);
        let loc = out.location.expect("tag located on f32 tier");
        assert!((loc.range_m - 3.0).abs() < 0.10, "range {}", loc.range_m);
        assert_eq!(out.uplink_bits.as_deref(), Some(&bits[..]));
        assert!(!out.detections.is_empty());
        // And bit-for-bit agreement with the oracle, which is the actual
        // tier contract (ground-truth recovery depends on SNR, not tier).
        let oracle = run_isac_frame(&sys, &scenario, b"CMD1", 17);
        assert_eq!(out.uplink_bits, oracle.uplink_bits);
    }

    #[test]
    fn tiered_dispatch_selects_paths() {
        let sys = BiScatterSystem::paper_9ghz();
        let scenario = IsacScenario::single_tag(4.0, 1302.0);
        let oracle = run_tier(&sys, &scenario, b"X", 21, PrecisionTier::F64);
        assert_eq!(oracle, run_isac_frame(&sys, &scenario, b"X", 21));
        let fast = run_tier(&sys, &scenario, b"X", 21, PrecisionTier::F32);
        // Same tag, same bin-level answer even though values differ in the
        // low bits.
        assert_eq!(
            fast.location.map(|l| l.range_bin),
            oracle.location.map(|l| l.range_bin)
        );
        // Multi-tag scenarios stay on the f64 path whatever the tier.
        let multi = scenario.with_extra_tag(TagDeployment {
            range_m: 6.0,
            mod_freq_hz: 2604.0,
            uplink_bits: Vec::new(),
            uplink_scheme: UplinkScheme::Ook { freq_hz: 2604.0 },
            uplink_bit_duration_s: 32.0 * 120e-6,
        });
        assert_eq!(
            run_tier(&sys, &multi, b"X", 21, PrecisionTier::F32),
            run_isac_frame(&sys, &multi, b"X", 21)
        );
    }
}

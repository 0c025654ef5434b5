//! The opt-in f32 fast tier for the frame hot path (stages 2–5 in single
//! precision), with the f64 pipeline as its accuracy oracle.
//!
//! There is one stage sequence, generic over the sample precision
//! (`biscatter_dsp::Real`): [`super::run_frame`] instantiates it for f32 on
//! the `F32` tier. Synthesis and the tag-side downlink decode stay in f64
//! (they are control-path, not hot); dechirp, align, and Doppler run on f32
//! slabs through the `*_32` kernels in `biscatter_dsp::simd`. The
//! range–Doppler power widens back to f64 as it lands in the shared
//! `RangeDopplerMap`, so stage 5 — localization, CFAR, uplink decisions —
//! is the *same code* on either tier; only the numbers feeding it differ at
//! the level of f32 rounding. What stays type-specific lives in the `Real`
//! impls: the kernel bodies, the per-thread FFT planner, and the window
//! table.
//!
//! **Contract.** There is no bit-identity promise between tiers. Both draw
//! the same noise deviates (`NoiseSource::add_awgn` rounds each scaled
//! deviate once to f32), but the tones and transforms round differently.
//! Validation against the f64 oracle is therefore two-layered (see
//! `tests/precision_oracle.rs`): noiseless frames bound per-cell relative
//! error and localization argmax (pure kernel rounding), and noisy frames
//! at bench SNR must agree with the oracle on every detection-level
//! product — located bin, decoded bits, CFAR count. The
//! f64 path itself keeps its bit-identity guarantees (serial vs pooled,
//! scalar vs AVX2) untouched — selecting the f32 tier is the only way to
//! observe different values.
//!
//! Multi-tag scenarios (`extra_tags` non-empty) take the oracle path:
//! warehouse-density frames are dominated by per-tag scoring, not the
//! stages this tier accelerates.
//!
//! The `*_f32` stage names and [`AlignedPair32`] are the generic stages and
//! aligned frame under the names the `biscatter-e2e` benchmark's replay
//! imports.

pub use super::{
    align_stage_into as align_stage_into_f32, dechirp_stage_into as dechirp_stage_into_f32,
    detect_stage_with as detect_stage_with_f32, doppler_stage_into as doppler_stage_into_f32,
};

/// The f32 tier's aligned frame.
pub type AlignedPair32 = super::AlignedPair<f32>;

/// Which numeric tier the frame hot path runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrecisionTier {
    /// Double precision: the oracle path with bit-identity guarantees.
    #[default]
    F64,
    /// Single precision fast tier for stages 2–5, validated against the
    /// oracle by error bounds.
    F32,
}

impl PrecisionTier {
    /// Stable lower-case name (`"f64"` / `"f32"`), the form telemetry uses.
    pub fn name(self) -> &'static str {
        match self {
            PrecisionTier::F64 => "f64",
            PrecisionTier::F32 => "f32",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        run_frame, run_isac_frame, FrameArena, FrameCtx, IsacOutcome, IsacScenario, TagDeployment,
    };
    use super::*;
    use crate::system::BiScatterSystem;
    use biscatter_compute::ComputePool;
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
    fn tier_names_and_default() {
        assert_eq!(PrecisionTier::F64.name(), "f64");
        assert_eq!(PrecisionTier::F32.name(), "f32");
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

//! Runtime SIMD dispatch: which vector tier the hot kernels run on.
//!
//! The workspace stays dependency-free and on stable Rust, so there is no
//! `std::simd`. Instead every hot kernel in [`crate::simd`] has a scalar
//! loop, and most also have an AVX2 body of one of two kinds: a
//! hand-written `std::arch` body, kept only where it beats the
//! alternatives at the frame path's sizes, or a *compiled copy* — the same
//! scalar loop compiled a second time with `avx2` enabled, so that LLVM
//! vectorizes it. The rest are scalar only and run the same loop on both
//! tiers. This module decides **once per process** which tier runs:
//!
//! * `BISCATTER_SIMD=scalar` forces the scalar tier (CI exercises both).
//! * `BISCATTER_SIMD=auto` (or unset) probes the CPU with
//!   `is_x86_feature_detected!("avx2")` and picks AVX2 when available.
//! * Non-x86_64 targets always run the scalar tier.
//!
//! The selected tier is cached in an atomic so the per-call cost is one
//! relaxed load. [`force_tier`] overrides the cache at runtime — it exists
//! so the cross-tier bit-equality tests can run both implementations inside
//! one process and compare outputs bit for bit; production code never calls
//! it.
//!
//! The **f64 contract**: scalar and AVX2 tiers perform the *same*
//! elementwise IEEE-754 operations in the same order (no FMA contraction —
//! the AVX2 functions enable `avx2` and never `fma` — and complex
//! multiplies built from the same mul/add/sub products), so every f64
//! kernel is bit-identical across tiers. The f32 tier has no such
//! contract — it is validated against the f64 oracle by error bounds
//! instead (see `biscatter-core`'s precision tests).

use std::sync::atomic::{AtomicU8, Ordering};

/// The vector instruction tier the process-wide kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// Portable scalar loops (always available).
    Scalar,
    /// x86_64 AVX2 bodies (256-bit: 4 × f64 / 8 × f32 lanes).
    Avx2,
}

impl SimdTier {
    /// Stable lowercase name, recorded in bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// f64 lanes per vector register on this tier.
    pub fn lanes_f64(self) -> usize {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Avx2 => 4,
        }
    }

    /// f32 lanes per vector register on this tier.
    pub fn lanes_f32(self) -> usize {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Avx2 => 8,
        }
    }
}

const TIER_UNSET: u8 = u8::MAX;
const TIER_SCALAR: u8 = 0;
const TIER_AVX2: u8 = 1;

/// Cached tier byte; `TIER_UNSET` until first use.
static TIER: AtomicU8 = AtomicU8::new(TIER_UNSET);

fn detect() -> SimdTier {
    match std::env::var("BISCATTER_SIMD") {
        Ok(v) if v.eq_ignore_ascii_case("scalar") => return SimdTier::Scalar,
        _ => {}
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdTier::Avx2;
        }
    }
    SimdTier::Scalar
}

/// The process-wide dispatch tier, resolved on first call (env override
/// first, then CPU detection) and cached.
#[inline]
pub fn tier() -> SimdTier {
    match TIER.load(Ordering::Relaxed) {
        TIER_SCALAR => SimdTier::Scalar,
        TIER_AVX2 => SimdTier::Avx2,
        _ => {
            let t = detect();
            force_tier(t);
            t
        }
    }
}

/// Overrides the cached dispatch tier for the rest of the process (or until
/// the next call). Intended for the cross-tier bit-equality tests and the
/// bench harness; forcing [`SimdTier::Avx2`] on a CPU without AVX2 is
/// undefined behaviour, so callers must gate on [`avx2_available`].
pub fn force_tier(t: SimdTier) {
    let byte = match t {
        SimdTier::Scalar => TIER_SCALAR,
        SimdTier::Avx2 => TIER_AVX2,
    };
    TIER.store(byte, Ordering::Relaxed);
}

/// Whether this CPU can run the AVX2 tier at all (independent of the
/// `BISCATTER_SIMD` override and of what [`tier`] currently returns).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Comma-separated list of the vector CPU features detected on this
/// machine (not what was selected) — recorded in bench JSON so perf numbers
/// stay interpretable across machines.
pub fn detected_cpu_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            feats.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
    }
    if feats.is_empty() {
        feats.push("none");
    }
    feats.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_resolves_and_is_cached() {
        let t = tier();
        assert_eq!(tier(), t, "second lookup must hit the cache");
        assert!(t.lanes_f64() >= 1 && t.lanes_f32() >= t.lanes_f64());
    }

    #[test]
    fn force_tier_round_trips() {
        let before = tier();
        force_tier(SimdTier::Scalar);
        assert_eq!(tier(), SimdTier::Scalar);
        force_tier(before);
        assert_eq!(tier(), before);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SimdTier::Scalar.name(), "scalar");
        assert_eq!(SimdTier::Avx2.name(), "avx2");
        assert!(!detected_cpu_features().is_empty());
    }
}

//! The two sample precisions of the frame hot path.
//!
//! The receive chain — dechirp, per-chirp range FFT, IF correction,
//! background subtraction, slow-time FFT — is written once, generic over
//! [`Real`], and instantiated for `f64` (the oracle, with bit-identity
//! guarantees across pool sizes and dispatch tiers) and `f32` (the opt-in
//! fast tier, validated against the oracle by error bounds). Geometry —
//! ranges, phases, grids, window gains — is always evaluated in f64 and
//! rounded once into the sample type with [`Real::from_f64`].
//!
//! The trait is sealed: its impls are the only place where the two
//! precisions differ. Each impl chooses
//!
//! * which [`crate::simd`] kernel body to call (most kernels stay
//!   type-specific; one generic loop such as [`simd::norm_sq_accum`] is
//!   called directly, without a trait method),
//! * the layout of its radix-2 twiddle tables ([`Real::Twiddle`]),
//! * its per-thread [`FftPlanner`], and
//! * its window table ([`CachedWindow::coeffs`] or
//!   [`CachedWindow::coeffs_f32`]).

use crate::complex::{Complex, Cpx};
use crate::planner::FftPlanner;
use crate::simd;
use crate::window::CachedWindow;
use std::cell::RefCell;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::thread::LocalKey;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A sample precision of the frame hot path: `f64` or `f32`.
pub trait Real:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + Debug
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Whether plans in this precision serve every length and the inverse
    /// transform (f64), or only forward power-of-two transforms (f32: the
    /// frame tier's range and Doppler FFTs never need more).
    const FULL_PLANNER: bool;

    /// Rounds an f64 value into this precision (exact for f64).
    fn from_f64(x: f64) -> Self;
    /// Widens to f64 (exact).
    fn to_f64(self) -> f64;

    /// One entry of a radix-2 plan's twiddle table, in the layout this
    /// precision's stage kernels read: pre-broadcast `f64` parts
    /// ([`simd::fft_twiddles`]) or one `Complex<f32>` factor per entry.
    type Twiddle: Copy + Debug + Send + Sync + 'static;

    /// The twiddle table of a length-`n` radix-2 plan: the factors
    /// `twiddle(j, len)` of every stage `len = 4, 8, …, n`.
    fn fft_twiddles(n: usize, twiddle: impl Fn(usize, usize) -> Cpx) -> Vec<Self::Twiddle>;
    /// Radix-2 stages `4, 8, …, data.len()` over bit-reversed data whose
    /// first stage is done, with the plan's twiddles (conjugated when
    /// `inverse`).
    fn fft_stages(data: &mut [Complex<Self>], tw: &[Self::Twiddle], inverse: bool);
    /// Forward radix-2 stages `2, 4, …, n` over `n` bit-reversed rows of
    /// `width` columns side by side ([`simd::fft_columns`]), with the
    /// plan's twiddles.
    fn fft_columns(block: &mut [Complex<Self>], width: usize, tw: &[Self::Twiddle]);
    /// Pointwise `out[i] = x[i] * w[i]` (the Bluestein chirp multiplies).
    /// The default is the portable loop; only full planners reach it.
    fn cmul_into(out: &mut [Complex<Self>], x: &[Complex<Self>], w: &[Complex<Self>]) {
        for ((o, &a), &b) in out.iter_mut().zip(x).zip(w) {
            *o = a * b;
        }
    }
    /// Pointwise `a[i] *= b[i]` (the Bluestein kernel multiply).
    fn cmul_assign(a: &mut [Complex<Self>], b: &[Complex<Self>]) {
        for (s, &w) in a.iter_mut().zip(b) {
            *s *= w;
        }
    }
    /// The packed-real-FFT unzip into the `h + 1` half-spectrum bins `out`.
    fn rfft_unzip(z: &[Complex<Self>], tw: &[Complex<Self>], h: usize, out: &mut [Complex<Self>]);
    /// Writes one scatterer's unit IF tone, `out[i] = Re(e^{i phase0} · rot^i)`.
    fn tone_fill(out: &mut [Self], phase0: Cpx, rot: Cpx);
    /// Adds 1 to [`simd::TONES_PER_PASS`] level-weighted tones to `out` in
    /// one pass, `out[i] += levels[0]·tones[0][i] + …`, summed left to right.
    fn tones_accum(out: &mut [Self], tones: &[&[Self]], levels: &[Self]);
    /// This thread's planner for this precision (see
    /// [`crate::planner::with_planner`]).
    fn planner() -> &'static LocalKey<RefCell<FftPlanner<Self>>>;
    /// A cached window's coefficients in this precision.
    fn window(w: &CachedWindow) -> &[Self];
}

impl Real for f64 {
    type Twiddle = f64;

    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    const FULL_PLANNER: bool = true;

    #[inline]
    fn from_f64(x: f64) -> f64 {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    fn fft_twiddles(n: usize, twiddle: impl Fn(usize, usize) -> Cpx) -> Vec<f64> {
        simd::fft_twiddles(n, twiddle)
    }
    #[inline]
    fn fft_stages(data: &mut [Cpx], tw: &[f64], inverse: bool) {
        simd::fft_stages(data, tw, inverse);
    }
    #[inline]
    fn fft_columns(block: &mut [Cpx], width: usize, tw: &[f64]) {
        simd::fft_columns(block, width, tw);
    }
    #[inline]
    fn cmul_into(out: &mut [Cpx], x: &[Cpx], w: &[Cpx]) {
        simd::cmul_into(out, x, w);
    }
    #[inline]
    fn cmul_assign(a: &mut [Cpx], b: &[Cpx]) {
        simd::cmul_assign(a, b);
    }
    #[inline]
    fn rfft_unzip(z: &[Cpx], tw: &[Cpx], h: usize, out: &mut [Cpx]) {
        simd::rfft_unzip(z, tw, h, out);
    }
    #[inline]
    fn tone_fill(out: &mut [f64], phase0: Cpx, rot: Cpx) {
        simd::tone_fill(out, phase0, rot);
    }
    #[inline]
    fn tones_accum(out: &mut [f64], tones: &[&[f64]], levels: &[f64]) {
        simd::tones_accum(out, tones, levels);
    }
    fn planner() -> &'static LocalKey<RefCell<FftPlanner<f64>>> {
        thread_local! {
            static PLANNER: RefCell<FftPlanner<f64>> = RefCell::new(FftPlanner::new());
        }
        &PLANNER
    }
    #[inline]
    fn window(w: &CachedWindow) -> &[f64] {
        &w.coeffs
    }
}

impl Real for f32 {
    type Twiddle = Complex<f32>;

    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;
    const FULL_PLANNER: bool = false;

    #[inline]
    fn from_f64(x: f64) -> f32 {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }

    /// Stage-contiguous factors rounded once from f64: stage `len`'s
    /// `len/2` entries start at `len/2 − 2`.
    fn fft_twiddles(n: usize, twiddle: impl Fn(usize, usize) -> Cpx) -> Vec<Complex<f32>> {
        let mut out = Vec::with_capacity(n.saturating_sub(2));
        let mut len = 4;
        while len <= n {
            out.extend((0..len / 2).map(|j| Complex::from_f64(twiddle(j, len))));
            len <<= 1;
        }
        out
    }
    /// One stage at a time.
    fn fft_stages(data: &mut [Complex<f32>], tw: &[Complex<f32>], inverse: bool) {
        debug_assert!(!inverse, "f32 plans are forward-only");
        let mut len = 4;
        while len <= data.len() {
            let half = len / 2;
            simd::fft_stage_32(data, &tw[half - 2..half - 2 + half], len);
            len <<= 1;
        }
    }
    #[inline]
    fn fft_columns(block: &mut [Complex<f32>], width: usize, tw: &[Complex<f32>]) {
        simd::fft_columns_32(block, width, tw);
    }
    #[inline]
    fn rfft_unzip(z: &[Complex<f32>], tw: &[Complex<f32>], h: usize, out: &mut [Complex<f32>]) {
        simd::rfft_unzip_32(z, tw, h, out);
    }
    #[inline]
    fn tone_fill(out: &mut [f32], phase0: Cpx, rot: Cpx) {
        simd::tone_fill_32(out, phase0, rot);
    }
    #[inline]
    fn tones_accum(out: &mut [f32], tones: &[&[f32]], levels: &[f32]) {
        simd::tones_accum_32(out, tones, levels);
    }
    fn planner() -> &'static LocalKey<RefCell<FftPlanner<f32>>> {
        thread_local! {
            static PLANNER: RefCell<FftPlanner<f32>> = RefCell::new(FftPlanner::new());
        }
        &PLANNER
    }
    #[inline]
    fn window(w: &CachedWindow) -> &[f32] {
        &w.coeffs_f32
    }
}

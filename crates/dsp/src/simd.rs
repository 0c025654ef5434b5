//! Vectorized inner loops for the frame hot path.
//!
//! Every kernel here exists in two bodies behind [`crate::dispatch::tier`]:
//! a portable scalar loop and a hand-written x86_64 AVX2 body
//! (`std::arch`, no nightly `std::simd`, no crates). This is the only
//! module in the workspace's DSP layer that contains `unsafe` — each
//! `unsafe` block is a `#[target_feature(enable = "avx2")]` body reached
//! strictly behind runtime feature detection, plus the raw loads/stores
//! inside it (`Complex<T>` is `repr(C)`, so a slice of them is a packed
//! `re, im` sequence).
//!
//! The kernels are type-specific; generic code reaches them through the
//! [`crate::real::Real`] impls, which pick the f64 or f32 (`*_32`) body.
//!
//! ## The f64 bit-identity contract
//!
//! Scalar and AVX2 f64 kernels perform the **same elementwise IEEE-754
//! operations** and therefore return bit-identical results:
//!
//! * no FMA contraction anywhere in an f64 kernel — products and sums stay
//!   separate instructions, as in the scalar code;
//! * complex multiplies use the `addsub` form: with
//!   `t1 = (x.re·w.re, x.im·w.re)` and `t2 = (x.im·w.im, x.re·w.im)`,
//!   `addsub(t1, t2)` yields `x.re·w.re − x.im·w.im` in the even lane
//!   (exactly the scalar real part) and `x.im·w.re + x.re·w.im` in the odd
//!   lane — the scalar imaginary part with the *commuted* addition, which
//!   IEEE-754 rounds identically;
//! * conjugation is a sign-bit XOR (exactly `-x.im`, including signed
//!   zeros), and renormalization uses `1/√(re²+im²)` built from
//!   correctly-rounded `mul/add/sqrt/div` — no `hypot`, which has no vector
//!   equivalent.
//!
//! The f32 kernels (`*_32`) carry no bit contract across tiers; the f32
//! frame tier as a whole is validated against the f64 oracle by error
//! bounds (see `biscatter-core`'s precision tests).

use crate::complex::{Complex, Cpx};
use crate::dispatch::{tier, SimdTier};

/// Single-precision complex sample, as the f32 kernels see it.
type Cpx32 = Complex<f32>;

// ---------------------------------------------------------------------------
// f64 complex kernels (radix-2 stages, pointwise multiplies, rfft unzip).
// ---------------------------------------------------------------------------

/// First radix-2 stage: every twiddle is 1, so each adjacent pair `(u, v)`
/// becomes `(u + v, u − v)`.
pub fn fft_first_stage(data: &mut [Cpx]) {
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::fft_first_stage(data) };
        return;
    }
    fft_first_stage_scalar(data);
}

fn fft_first_stage_scalar(data: &mut [Cpx]) {
    for pair in data.chunks_exact_mut(2) {
        let (u, v) = (pair[0], pair[1]);
        pair[0] = u + v;
        pair[1] = u - v;
    }
}

/// One radix-2 butterfly stage of width `len` over all chunks of `data`,
/// with this stage's contiguous twiddle table `tw` (`len/2` entries,
/// `tw[j] = e^{-i 2π j / len}`; conjugated on the fly when `inverse`).
///
/// # Panics
/// Debug-asserts `len >= 4`, `data.len() % len == 0`, `tw.len() == len/2`.
pub fn fft_stage(data: &mut [Cpx], tw: &[Cpx], len: usize, inverse: bool) {
    debug_assert!(len >= 4 && data.len() % len == 0 && tw.len() == len / 2);
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::fft_stage(data, tw, len, inverse) };
        return;
    }
    fft_stage_scalar(data, tw, len, inverse);
}

fn fft_stage_scalar(data: &mut [Cpx], tw: &[Cpx], len: usize, inverse: bool) {
    let half = len / 2;
    for chunk in data.chunks_exact_mut(len) {
        let (lo, hi) = chunk.split_at_mut(half);
        for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
            let w = if inverse { w.conj() } else { w };
            let u = *a;
            let v = *b * w;
            *a = u + v;
            *b = u - v;
        }
    }
}

/// Pointwise complex multiply into a destination: `out[i] = x[i] * w[i]`
/// (the Bluestein chirp pre/post-multiplies).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn cmul_into(out: &mut [Cpx], x: &[Cpx], w: &[Cpx]) {
    assert_eq!(out.len(), x.len());
    assert_eq!(out.len(), w.len());
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::cmul_into(out, x, w) };
        return;
    }
    for ((o, &a), &b) in out.iter_mut().zip(x).zip(w) {
        *o = a * b;
    }
}

/// Pointwise complex multiply in place: `a[i] *= b[i]` (the Bluestein
/// kernel-spectrum multiply).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn cmul_assign(a: &mut [Cpx], b: &[Cpx]) {
    assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::cmul_assign(a, b) };
        return;
    }
    for (s, &w) in a.iter_mut().zip(b) {
        *s *= w;
    }
}

/// The packed-real-FFT unzip: combines the half-length transform `z`
/// (length `h`) into the `h + 1` half-spectrum bins of the real input,
/// `X[k] = E[k] + tw[k]·O[k]` with `E = (z[k] + conj(z[h−k]))/2` and
/// `O = (z[k] − conj(z[h−k]))·(−i/2)`. `out` is cleared and resized.
///
/// # Panics
/// Panics if `z.len() != h` or `tw.len() < h + 1`.
pub fn rfft_unzip(z: &[Cpx], tw: &[Cpx], h: usize, out: &mut Vec<Cpx>) {
    assert_eq!(z.len(), h);
    assert!(tw.len() > h);
    out.clear();
    out.resize(h + 1, Cpx::ZERO);
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 && h >= 4 {
        // Endpoints wrap (`k % h`), so they stay on the scalar path.
        out[0] = unzip_one(z[0], z[0], tw[0]);
        out[h] = unzip_one(z[0], z[0], tw[h]);
        // SAFETY: AVX2 presence established by the dispatch tier; the
        // vector body covers 1..h only, matching the scalar remainder.
        let done = unsafe { avx2::rfft_unzip_mid(z, tw, h, &mut out[..]) };
        for k in done..h {
            out[k] = unzip_one(z[k], z[h - k], tw[k]);
        }
        return;
    }
    for (k, o) in out.iter_mut().enumerate() {
        *o = unzip_one(z[k % h], z[(h - k) % h], tw[k]);
    }
}

/// One unzip bin from the forward entry `zk` and the mirror entry `zm`
/// (*not yet* conjugated). Kept in one place so the scalar path, the AVX2
/// remainder, and the endpoint handling share the exact operation sequence.
#[inline]
fn unzip_one(zk: Cpx, zm: Cpx, w: Cpx) -> Cpx {
    let zs = zm.conj();
    let e = (zk + zs).scale(0.5);
    let o = (zk - zs) * Cpx::new(0.0, -0.5);
    e + w * o
}

/// The packed-irfft zip — the exact inverse of [`rfft_unzip`]. Recombines
/// the `h + 1` half-spectrum bins `spec` into the `h` packed half-length
/// values `Z[k] = E[k] + i·O[k]` with
/// `E[k] = (X[k] + conj(X[h−k]))/2` and
/// `O[k] = (X[k] − conj(X[h−k]))·(i/2)·conj(tw[k])` (the forward twiddle is
/// unit modulus, so its conjugate undoes it exactly). `out` is cleared and
/// resized to `h`.
///
/// # Panics
/// Panics if `spec.len() < h + 1` or `tw.len() < h + 1`.
pub fn irfft_zip(spec: &[Cpx], tw: &[Cpx], h: usize, out: &mut Vec<Cpx>) {
    assert!(spec.len() > h);
    assert!(tw.len() > h);
    out.clear();
    out.resize(h, Cpx::ZERO);
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 && h >= 4 {
        // Bin 0 reads the real endpoints; it stays on the scalar path.
        out[0] = zip_one(spec[0], spec[h], tw[0]);
        // SAFETY: AVX2 presence established by the dispatch tier; the
        // vector body covers 1..h only, matching the scalar remainder.
        let done = unsafe { avx2::irfft_zip_mid(spec, tw, h, &mut out[..]) };
        for k in done..h {
            out[k] = zip_one(spec[k], spec[h - k], tw[k]);
        }
        return;
    }
    for (k, o) in out.iter_mut().enumerate() {
        *o = zip_one(spec[k], spec[h - k], tw[k]);
    }
}

/// One zip bin from the forward half-spectrum entry `xk` and the mirror
/// entry `xm` (*not yet* conjugated) — shared between the scalar path and
/// the AVX2 remainder, mirroring [`unzip_one`].
#[inline]
fn zip_one(xk: Cpx, xm: Cpx, w: Cpx) -> Cpx {
    let xs = xm.conj();
    let e = (xk + xs).scale(0.5);
    let o = (xk - xs) * Cpx::new(0.0, 0.5);
    e + w.conj() * o
}

// ---------------------------------------------------------------------------
// f64 real kernels (band accumulation, matched-filter axpy, noise floor).
// ---------------------------------------------------------------------------

/// `acc[i] += w * x[i]` — the matched-filter harmonic accumulation.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn axpy(acc: &mut [f64], w: f64, x: &[f64]) {
    assert_eq!(acc.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::axpy(acc, w, x) };
        return;
    }
    for (s, &p) in acc.iter_mut().zip(x) {
        *s += w * p;
    }
}

/// `out[i] = 0.0 + a[i]` — a one-row Doppler band (the explicit `0.0 +`
/// matches the multi-row accumulation's value sequence, normalizing
/// `-0.0`).
pub fn band_sum1(out: &mut [f64], a: &[f64]) {
    assert_eq!(out.len(), a.len());
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::band_sum1(out, a) };
        return;
    }
    for (o, &x) in out.iter_mut().zip(a) {
        *o = 0.0 + x;
    }
}

/// `out[i] = (0.0 + a[i]) + b[i]` — a two-row Doppler band.
pub fn band_sum2(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(out.len(), a.len());
    assert_eq!(out.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::band_sum2(out, a, b) };
        return;
    }
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = (0.0 + x) + y;
    }
}

/// `out[i] = ((0.0 + a[i]) + b[i]) + c[i]` — a three-row Doppler band.
pub fn band_sum3(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64]) {
    assert_eq!(out.len(), a.len());
    assert_eq!(out.len(), b.len());
    assert_eq!(out.len(), c.len());
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::band_sum3(out, a, b, c) };
        return;
    }
    for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = ((0.0 + x) + y) + z;
    }
}

/// `out[i] += x[i]` — the wide-band accumulation fallback.
pub fn add_assign(out: &mut [f64], x: &[f64]) {
    assert_eq!(out.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::add_assign(out, x) };
        return;
    }
    for (o, &p) in out.iter_mut().zip(x) {
        *o += p;
    }
}

/// `acc[i] += |row[i]|²` — the sensing path's per-range noise-floor /
/// mean-power accumulation.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn norm_sq_accum(acc: &mut [f64], row: &[Cpx]) {
    assert_eq!(acc.len(), row.len());
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::norm_sq_accum(acc, row) };
        return;
    }
    for (a, z) in acc.iter_mut().zip(row) {
        *a += z.norm_sq();
    }
}

/// `acc[i] += x[i]²` — the acquisition engine's non-coherent window energy
/// accumulation (real correlation outputs, so the energy is a plain square,
/// not a complex norm).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn sq_accum(acc: &mut [f64], x: &[f64]) {
    assert_eq!(acc.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::sq_accum(acc, x) };
        return;
    }
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v * v;
    }
}

/// First index attaining the maximum of `x`, and the value stored there —
/// the acquisition peak/PSLR scan. Returns `(0, NEG_INFINITY)` for an empty
/// slice, so sidelobe scans over empty guard remainders compare away
/// naturally.
///
/// The slice must not contain NaN (correlation energies never do): the
/// vector body reduces with `max` and then scans for the first element
/// `== max`, which for NaN-free data is exactly the scalar
/// first-strict-maximum index, and both tiers return the element stored at
/// that index — bit-identical results.
pub fn peak_max(x: &[f64]) -> (usize, f64) {
    if x.is_empty() {
        return (0, f64::NEG_INFINITY);
    }
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 && x.len() >= 8 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        return unsafe { avx2::peak_max(x) };
    }
    let mut best = 0usize;
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > x[best] {
            best = i;
        }
    }
    (best, x[best])
}

// ---------------------------------------------------------------------------
// Oscillator accumulation (the dechirp inner loop).
// ---------------------------------------------------------------------------

/// Samples between oscillator renormalizations — the serial recurrence's
/// bound (DESIGN.md §9.2): the amplitude error after 256 complex multiplies
/// is ≈ 1.1e-13 relative.
const OSC_RENORM_SAMPLES: usize = 256;

/// Adds one scatterer's IF tone to `out`:
/// `out[i] += amp_i · Re(e^{i phase0} · rot^i)`, with `amp_i` taken from
/// `amps` (or `const_amp` when `None`).
///
/// The serial recurrence `ph ← ph · rot` is blocked into **4 independent
/// phase streams** advanced by `rot⁴`, so the four multiplies per block
/// have no dependence chain — the form both tiers share (the scalar body
/// is the 4-lane loop the autovectorizer lowers, the AVX2 body the same
/// ops on two 2-complex vectors). Streams renormalize every 256 samples
/// via `1/√(re²+im²)`.
///
/// Both tiers perform identical elementwise IEEE-754 operations, so the
/// result is bit-identical across dispatch tiers (though not to the
/// pre-blocking serial recurrence, whose rounding path differed — the
/// error bound is the same ≤ `2nε` amplitude / `nε` phase drift).
///
/// # Panics
/// Panics if `amps` is `Some` with a length different from `out`.
pub fn osc_accum(out: &mut [f64], amps: Option<&[f64]>, const_amp: f64, phase0: Cpx, rot: Cpx) {
    if let Some(a) = amps {
        assert_eq!(a.len(), out.len());
    }
    let p0 = phase0;
    let p1 = p0 * rot;
    let p2 = p1 * rot;
    let p3 = p2 * rot;
    let r2 = rot * rot;
    let rot4 = r2 * r2;
    let mut ph = [p0, p1, p2, p3];

    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::osc_accum(out, amps, const_amp, &mut ph, rot4) };
        return;
    }
    osc_accum_scalar(out, amps, const_amp, &mut ph, rot4);
}

fn osc_accum_scalar(
    out: &mut [f64],
    amps: Option<&[f64]>,
    const_amp: f64,
    ph: &mut [Cpx; 4],
    rot4: Cpx,
) {
    let n = out.len();
    let n4 = n - n % 4;
    let renorm_blocks = OSC_RENORM_SAMPLES / 4;
    let mut blk = 0usize;
    let mut i = 0usize;
    while i < n4 {
        for j in 0..4 {
            let amp = match amps {
                Some(a) => a[i + j],
                None => const_amp,
            };
            out[i + j] += amp * ph[j].re;
            ph[j] *= rot4;
        }
        blk += 1;
        if blk % renorm_blocks == 0 {
            for p in ph.iter_mut() {
                let s = 1.0 / (p.re * p.re + p.im * p.im).sqrt();
                *p = p.scale(s);
            }
        }
        i += 4;
    }
    // Tail: streams 0..n%4 hold exactly the next samples' phasors.
    for (j, o) in out[n4..].iter_mut().enumerate() {
        let amp = match amps {
            Some(a) => a[n4 + j],
            None => const_amp,
        };
        *o += amp * ph[j].re;
    }
}

/// f32 variant of [`osc_accum`]: 8 phase streams advanced by `rot⁸`.
/// Stream seeds and the block rotation are computed in f64 and rounded
/// once, so the f32 phase error is dominated by the per-block rotation
/// rounding (≈ `n/8` multiplies of one-ulp error ≲ 1e-5 rad over a chirp),
/// kept bounded in magnitude by the same 256-sample renormalization.
pub fn osc_accum_32(out: &mut [f32], amps: Option<&[f32]>, const_amp: f32, phase0: Cpx, rot: Cpx) {
    if let Some(a) = amps {
        assert_eq!(a.len(), out.len());
    }
    let mut seeds = [Cpx32::ZERO; 8];
    let mut p = phase0;
    for s in seeds.iter_mut() {
        *s = Cpx32::from_f64(p);
        p *= rot;
    }
    let r2 = rot * rot;
    let r4 = r2 * r2;
    let rot8 = Cpx32::from_f64(r4 * r4);

    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::osc_accum_32(out, amps, const_amp, &mut seeds, rot8) };
        return;
    }
    osc_accum_32_scalar(out, amps, const_amp, &mut seeds, rot8);
}

fn osc_accum_32_scalar(
    out: &mut [f32],
    amps: Option<&[f32]>,
    const_amp: f32,
    ph: &mut [Cpx32; 8],
    rot8: Cpx32,
) {
    let n = out.len();
    let n8 = n - n % 8;
    let renorm_blocks = OSC_RENORM_SAMPLES / 8;
    let mut blk = 0usize;
    let mut i = 0usize;
    while i < n8 {
        for j in 0..8 {
            let amp = match amps {
                Some(a) => a[i + j],
                None => const_amp,
            };
            out[i + j] += amp * ph[j].re;
            ph[j] *= rot8;
        }
        blk += 1;
        if blk % renorm_blocks == 0 {
            for p in ph.iter_mut() {
                let s = 1.0 / (p.re * p.re + p.im * p.im).sqrt();
                *p = p.scale(s);
            }
        }
        i += 8;
    }
    for (j, o) in out[n8..].iter_mut().enumerate() {
        let amp = match amps {
            Some(a) => a[n8 + j],
            None => const_amp,
        };
        *o += amp * ph[j].re;
    }
}

// ---------------------------------------------------------------------------
// f32 complex kernels (the f32 FFT plan tables' stages).
// ---------------------------------------------------------------------------

/// First radix-2 stage in f32 (pure add/sub pairs).
pub fn fft_first_stage_32(data: &mut [Cpx32]) {
    // Pair-adjacent complex add/sub autovectorizes cleanly; the scalar body
    // serves both tiers (no cross-tier bit contract in f32).
    for pair in data.chunks_exact_mut(2) {
        let (u, v) = (pair[0], pair[1]);
        pair[0] = u + v;
        pair[1] = u - v;
    }
}

/// One f32 radix-2 butterfly stage of width `len` (forward only — the f32
/// tier never runs inverse transforms) with this stage's contiguous
/// twiddles.
pub fn fft_stage_32(data: &mut [Cpx32], tw: &[Cpx32], len: usize) {
    debug_assert!(len >= 4 && data.len() % len == 0 && tw.len() == len / 2);
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 && len >= 8 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::fft_stage_32(data, tw, len) };
        return;
    }
    fft_stage_32_scalar(data, tw, len);
}

fn fft_stage_32_scalar(data: &mut [Cpx32], tw: &[Cpx32], len: usize) {
    let half = len / 2;
    for chunk in data.chunks_exact_mut(len) {
        let (lo, hi) = chunk.split_at_mut(half);
        for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
            let u = *a;
            let v = *b * w;
            *a = u + v;
            *b = u - v;
        }
    }
}

/// `acc[i] += |row[i]|²` for f32 rows: each square is computed in f32 and
/// widened into the f64 accumulator (the f32 sensing path's mean power).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn norm_sq_accum_32(acc: &mut [f64], row: &[Cpx32]) {
    assert_eq!(acc.len(), row.len());
    for (a, z) in acc.iter_mut().zip(row) {
        *a += z.norm_sq() as f64;
    }
}

/// f32 packed-real-FFT unzip (see [`rfft_unzip`]); `out` cleared/resized.
pub fn rfft_unzip_32(z: &[Cpx32], tw: &[Cpx32], h: usize, out: &mut Vec<Cpx32>) {
    assert_eq!(z.len(), h);
    assert!(tw.len() > h);
    out.clear();
    out.resize(h + 1, Cpx32::ZERO);
    for (k, o) in out.iter_mut().enumerate() {
        let zk = z[k % h];
        let zs = z[(h - k) % h].conj();
        let e = (zk + zs).scale(0.5);
        let odd = (zk - zs) * Cpx32::new(0.0, -0.5);
        *o = e + tw[k] * odd;
    }
}

// ---------------------------------------------------------------------------
// AVX2 bodies.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::Cpx32;
    use super::OSC_RENORM_SAMPLES;
    use crate::complex::Cpx;
    use std::arch::x86_64::*;

    /// `[x0·w0, x1·w1]` for two packed complex doubles per operand, using
    /// the addsub form documented at module level (bit-identical to the
    /// scalar complex multiply).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmul_pd(x: __m256d, w: __m256d) -> __m256d {
        let wr = _mm256_movedup_pd(w); // [w.re, w.re] per complex
        let wi = _mm256_permute_pd(w, 0xF); // [w.im, w.im] per complex
        let xs = _mm256_permute_pd(x, 0x5); // [x.im, x.re] per complex
        _mm256_addsub_pd(_mm256_mul_pd(x, wr), _mm256_mul_pd(xs, wi))
    }

    /// Sign mask that conjugates packed complex doubles (flips `im`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn conj_mask_pd() -> __m256d {
        _mm256_setr_pd(0.0, -0.0, 0.0, -0.0)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fft_first_stage(data: &mut [Cpx]) {
        let n = data.len();
        let p = data.as_mut_ptr() as *mut f64;
        let mut i = 0usize;
        // Four complex values (two pairs) per iteration: split into the
        // `u` and `v` streams, add/sub, re-interleave.
        while i + 4 <= n {
            let a = _mm256_loadu_pd(p.add(2 * i)); // [u0, v0]
            let b = _mm256_loadu_pd(p.add(2 * i + 4)); // [u1, v1]
            let u = _mm256_permute2f128_pd(a, b, 0x20); // [u0, u1]
            let v = _mm256_permute2f128_pd(a, b, 0x31); // [v0, v1]
            let s = _mm256_add_pd(u, v);
            let d = _mm256_sub_pd(u, v);
            _mm256_storeu_pd(p.add(2 * i), _mm256_permute2f128_pd(s, d, 0x20));
            _mm256_storeu_pd(p.add(2 * i + 4), _mm256_permute2f128_pd(s, d, 0x31));
            i += 4;
        }
        for pair in data[i..].chunks_exact_mut(2) {
            let (u, v) = (pair[0], pair[1]);
            pair[0] = u + v;
            pair[1] = u - v;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fft_stage(data: &mut [Cpx], tw: &[Cpx], len: usize, inverse: bool) {
        let half = len / 2;
        let n = data.len();
        let base = data.as_mut_ptr() as *mut f64;
        let twp = tw.as_ptr() as *const f64;
        let mask = conj_mask_pd();
        let mut start = 0usize;
        while start < n {
            let lo = base.add(2 * start);
            let hi = base.add(2 * (start + half));
            // `half` is even for every stage past the first, so the 2-wide
            // loop covers the chunk exactly — no scalar tail.
            let mut j = 0usize;
            while j < half {
                let mut w = _mm256_loadu_pd(twp.add(2 * j));
                if inverse {
                    w = _mm256_xor_pd(w, mask);
                }
                let x = _mm256_loadu_pd(hi.add(2 * j));
                let v = cmul_pd(x, w);
                let u = _mm256_loadu_pd(lo.add(2 * j));
                _mm256_storeu_pd(lo.add(2 * j), _mm256_add_pd(u, v));
                _mm256_storeu_pd(hi.add(2 * j), _mm256_sub_pd(u, v));
                j += 2;
            }
            start += len;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmul_into(out: &mut [Cpx], x: &[Cpx], w: &[Cpx]) {
        let n = out.len();
        let op = out.as_mut_ptr() as *mut f64;
        let xp = x.as_ptr() as *const f64;
        let wp = w.as_ptr() as *const f64;
        let mut i = 0usize;
        while i + 2 <= n {
            let a = _mm256_loadu_pd(xp.add(2 * i));
            let b = _mm256_loadu_pd(wp.add(2 * i));
            _mm256_storeu_pd(op.add(2 * i), cmul_pd(a, b));
            i += 2;
        }
        if i < n {
            out[i] = x[i] * w[i];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmul_assign(a: &mut [Cpx], b: &[Cpx]) {
        let n = a.len();
        let ap = a.as_mut_ptr() as *mut f64;
        let bp = b.as_ptr() as *const f64;
        let mut i = 0usize;
        while i + 2 <= n {
            let x = _mm256_loadu_pd(ap.add(2 * i));
            let w = _mm256_loadu_pd(bp.add(2 * i));
            _mm256_storeu_pd(ap.add(2 * i), cmul_pd(x, w));
            i += 2;
        }
        if i < n {
            a[i] *= b[i];
        }
    }

    /// Vector body for the unzip bins `1..h` (pairs of `k`); returns the
    /// first index not covered so the caller finishes the scalar remainder.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rfft_unzip_mid(z: &[Cpx], tw: &[Cpx], h: usize, out: &mut [Cpx]) -> usize {
        let zp = z.as_ptr() as *const f64;
        let tp = tw.as_ptr() as *const f64;
        let op = out.as_mut_ptr() as *mut f64;
        let mask = conj_mask_pd();
        let halve = _mm256_set1_pd(0.5);
        let zero = _mm256_setzero_pd();
        let neg_half = _mm256_set1_pd(-0.5);
        let mut k = 1usize;
        while k + 2 <= h {
            let zk = _mm256_loadu_pd(zp.add(2 * k));
            // Mirror load [z[h−k−1], z[h−k]] → swap the 128-bit halves to
            // get [z[h−k], z[h−k−1]], then conjugate.
            let zm = _mm256_loadu_pd(zp.add(2 * (h - k - 1)));
            let zs = _mm256_xor_pd(_mm256_permute2f128_pd(zm, zm, 0x01), mask);
            let e = _mm256_mul_pd(_mm256_add_pd(zk, zs), halve);
            let d = _mm256_sub_pd(zk, zs);
            // d · (0 − 0.5i) via the same mul/addsub sequence as the scalar
            // complex multiply with w = (0, −0.5).
            let ds = _mm256_permute_pd(d, 0x5);
            let o = _mm256_addsub_pd(_mm256_mul_pd(d, zero), _mm256_mul_pd(ds, neg_half));
            let w = _mm256_loadu_pd(tp.add(2 * k));
            let res = _mm256_add_pd(e, cmul_pd(o, w));
            _mm256_storeu_pd(op.add(2 * k), res);
            k += 2;
        }
        k
    }

    /// Vector body for the zip bins `1..h` (pairs of `k`); returns the
    /// first index not covered so the caller finishes the scalar remainder.
    /// The exact mirror of [`rfft_unzip_mid`]: conjugated mirror load,
    /// `+i/2` rotation instead of `−i/2`, conjugated twiddle.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn irfft_zip_mid(
        spec: &[Cpx],
        tw: &[Cpx],
        h: usize,
        out: &mut [Cpx],
    ) -> usize {
        let sp = spec.as_ptr() as *const f64;
        let tp = tw.as_ptr() as *const f64;
        let op = out.as_mut_ptr() as *mut f64;
        let mask = conj_mask_pd();
        let halve = _mm256_set1_pd(0.5);
        let zero = _mm256_setzero_pd();
        let pos_half = _mm256_set1_pd(0.5);
        let mut k = 1usize;
        while k + 2 <= h {
            let xk = _mm256_loadu_pd(sp.add(2 * k));
            // Mirror load [X[h−k−1], X[h−k]] → swap the 128-bit halves to
            // get [X[h−k], X[h−k−1]], then conjugate.
            let xm = _mm256_loadu_pd(sp.add(2 * (h - k - 1)));
            let xs = _mm256_xor_pd(_mm256_permute2f128_pd(xm, xm, 0x01), mask);
            let e = _mm256_mul_pd(_mm256_add_pd(xk, xs), halve);
            let d = _mm256_sub_pd(xk, xs);
            // d · (0 + 0.5i) via the same mul/addsub sequence as the scalar
            // complex multiply with w = (0, 0.5).
            let ds = _mm256_permute_pd(d, 0x5);
            let o = _mm256_addsub_pd(_mm256_mul_pd(d, zero), _mm256_mul_pd(ds, pos_half));
            let w = _mm256_xor_pd(_mm256_loadu_pd(tp.add(2 * k)), mask);
            let res = _mm256_add_pd(e, cmul_pd(o, w));
            _mm256_storeu_pd(op.add(2 * k), res);
            k += 2;
        }
        k
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(acc: &mut [f64], w: f64, x: &[f64]) {
        let n = acc.len();
        let ap = acc.as_mut_ptr();
        let xp = x.as_ptr();
        let wv = _mm256_set1_pd(w);
        let mut i = 0usize;
        while i + 4 <= n {
            let p = _mm256_mul_pd(wv, _mm256_loadu_pd(xp.add(i)));
            let s = _mm256_add_pd(_mm256_loadu_pd(ap.add(i)), p);
            _mm256_storeu_pd(ap.add(i), s);
            i += 4;
        }
        for j in i..n {
            acc[j] += w * x[j];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn band_sum1(out: &mut [f64], a: &[f64]) {
        let n = out.len();
        let op = out.as_mut_ptr();
        let ap = a.as_ptr();
        let zero = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_add_pd(zero, _mm256_loadu_pd(ap.add(i)));
            _mm256_storeu_pd(op.add(i), v);
            i += 4;
        }
        for j in i..n {
            out[j] = 0.0 + a[j];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn band_sum2(out: &mut [f64], a: &[f64], b: &[f64]) {
        let n = out.len();
        let op = out.as_mut_ptr();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let zero = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_add_pd(zero, _mm256_loadu_pd(ap.add(i)));
            let v = _mm256_add_pd(v, _mm256_loadu_pd(bp.add(i)));
            _mm256_storeu_pd(op.add(i), v);
            i += 4;
        }
        for j in i..n {
            out[j] = (0.0 + a[j]) + b[j];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn band_sum3(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64]) {
        let n = out.len();
        let op = out.as_mut_ptr();
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_ptr());
        let zero = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_add_pd(zero, _mm256_loadu_pd(ap.add(i)));
            let v = _mm256_add_pd(v, _mm256_loadu_pd(bp.add(i)));
            let v = _mm256_add_pd(v, _mm256_loadu_pd(cp.add(i)));
            _mm256_storeu_pd(op.add(i), v);
            i += 4;
        }
        for j in i..n {
            out[j] = ((0.0 + a[j]) + b[j]) + c[j];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_assign(out: &mut [f64], x: &[f64]) {
        let n = out.len();
        let op = out.as_mut_ptr();
        let xp = x.as_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_add_pd(_mm256_loadu_pd(op.add(i)), _mm256_loadu_pd(xp.add(i)));
            _mm256_storeu_pd(op.add(i), v);
            i += 4;
        }
        for j in i..n {
            out[j] += x[j];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn norm_sq_accum(acc: &mut [f64], row: &[Cpx]) {
        let n = acc.len();
        let ap = acc.as_mut_ptr();
        let rp = row.as_ptr() as *const f64;
        let mut i = 0usize;
        while i + 4 <= n {
            let v1 = _mm256_loadu_pd(rp.add(2 * i));
            let v2 = _mm256_loadu_pd(rp.add(2 * i + 4));
            let s1 = _mm256_mul_pd(v1, v1);
            let s2 = _mm256_mul_pd(v2, v2);
            // hadd gives [n0, n2, n1, n3]; permute to natural order.
            let h = _mm256_hadd_pd(s1, s2);
            let nv = _mm256_permute4x64_pd(h, 0xD8);
            _mm256_storeu_pd(ap.add(i), _mm256_add_pd(_mm256_loadu_pd(ap.add(i)), nv));
            i += 4;
        }
        for j in i..n {
            acc[j] += row[j].norm_sq();
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sq_accum(acc: &mut [f64], x: &[f64]) {
        let n = acc.len();
        let ap = acc.as_mut_ptr();
        let xp = x.as_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(xp.add(i));
            let s = _mm256_add_pd(_mm256_loadu_pd(ap.add(i)), _mm256_mul_pd(v, v));
            _mm256_storeu_pd(ap.add(i), s);
            i += 4;
        }
        for j in i..n {
            acc[j] += x[j] * x[j];
        }
    }

    /// Max-reduce then first-match scan; see the dispatcher's NaN note.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn peak_max(x: &[f64]) -> (usize, f64) {
        let n = x.len();
        let xp = x.as_ptr();
        let mut vmax = _mm256_loadu_pd(xp);
        let mut i = 4usize;
        while i + 4 <= n {
            vmax = _mm256_max_pd(vmax, _mm256_loadu_pd(xp.add(i)));
            i += 4;
        }
        let lo = _mm256_castpd256_pd128(vmax);
        let hi = _mm256_extractf128_pd(vmax, 1);
        let m2 = _mm_max_pd(lo, hi);
        let m1 = _mm_max_sd(m2, _mm_unpackhi_pd(m2, m2));
        let mut best = _mm_cvtsd_f64(m1);
        for &v in &x[i..] {
            if v > best {
                best = v;
            }
        }
        // First element equal to the maximum value (NaN-free data, so this
        // is the scalar path's first-strict-maximum index).
        let bv = _mm256_set1_pd(best);
        let mut k = 0usize;
        while k + 4 <= n {
            let eq = _mm256_cmp_pd(_mm256_loadu_pd(xp.add(k)), bv, _CMP_EQ_OQ);
            let m = _mm256_movemask_pd(eq);
            if m != 0 {
                let idx = k + m.trailing_zeros() as usize;
                return (idx, x[idx]);
            }
            k += 4;
        }
        for (j, &v) in x.iter().enumerate().skip(k) {
            if v == best {
                return (j, v);
            }
        }
        unreachable!("maximum of a NaN-free slice must be an element of it")
    }

    /// Renormalizes two packed complex doubles in place:
    /// each complex is scaled by `1/√(re²+im²)` (swap-add builds the norm
    /// in both lanes; add commutes, so both lanes round identically).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn renorm_pd(v: __m256d) -> __m256d {
        let t = _mm256_mul_pd(v, v);
        let nsq = _mm256_add_pd(t, _mm256_permute_pd(t, 0x5));
        let s = _mm256_div_pd(_mm256_set1_pd(1.0), _mm256_sqrt_pd(nsq));
        _mm256_mul_pd(v, s)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn osc_accum(
        out: &mut [f64],
        amps: Option<&[f64]>,
        const_amp: f64,
        ph: &mut [Cpx; 4],
        rot4: Cpx,
    ) {
        let n = out.len();
        let n4 = n - n % 4;
        let renorm_blocks = OSC_RENORM_SAMPLES / 4;
        let op = out.as_mut_ptr();
        let ap = amps.map(|a| a.as_ptr());
        let camp = _mm256_set1_pd(const_amp);
        let rv = _mm256_setr_pd(rot4.re, rot4.im, rot4.re, rot4.im);
        let mut v01 = _mm256_setr_pd(ph[0].re, ph[0].im, ph[1].re, ph[1].im);
        let mut v23 = _mm256_setr_pd(ph[2].re, ph[2].im, ph[3].re, ph[3].im);
        let mut blk = 0usize;
        let mut i = 0usize;
        while i < n4 {
            // [p0.re, p2.re, p1.re, p3.re] → natural stream order.
            let re_raw = _mm256_shuffle_pd(v01, v23, 0x0);
            let re = _mm256_permute4x64_pd(re_raw, 0xD8);
            let amp = match ap {
                Some(p) => _mm256_loadu_pd(p.add(i)),
                None => camp,
            };
            let contrib = _mm256_mul_pd(amp, re);
            let acc = _mm256_add_pd(_mm256_loadu_pd(op.add(i)), contrib);
            _mm256_storeu_pd(op.add(i), acc);
            v01 = cmul_pd(v01, rv);
            v23 = cmul_pd(v23, rv);
            blk += 1;
            if blk % renorm_blocks == 0 {
                v01 = renorm_pd(v01);
                v23 = renorm_pd(v23);
            }
            i += 4;
        }
        // Spill the streams and run the (at most 3-sample) scalar tail.
        let mut spill = [0.0f64; 8];
        _mm256_storeu_pd(spill.as_mut_ptr(), v01);
        _mm256_storeu_pd(spill.as_mut_ptr().add(4), v23);
        for (j, p) in ph.iter_mut().enumerate() {
            *p = Cpx::new(spill[2 * j], spill[2 * j + 1]);
        }
        for (j, o) in out[n4..].iter_mut().enumerate() {
            let amp = match amps {
                Some(a) => a[n4 + j],
                None => const_amp,
            };
            *o += amp * ph[j].re;
        }
    }

    /// f32 complex multiply, four packed complex floats per operand.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmul_ps(x: __m256, w: __m256) -> __m256 {
        let wr = _mm256_moveldup_ps(w);
        let wi = _mm256_movehdup_ps(w);
        let xs = _mm256_permute_ps(x, 0xB1);
        _mm256_addsub_ps(_mm256_mul_ps(x, wr), _mm256_mul_ps(xs, wi))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fft_stage_32(data: &mut [Cpx32], tw: &[Cpx32], len: usize) {
        let half = len / 2;
        let n = data.len();
        let base = data.as_mut_ptr() as *mut f32;
        let twp = tw.as_ptr() as *const f32;
        let mut start = 0usize;
        while start < n {
            let lo = base.add(2 * start);
            let hi = base.add(2 * (start + half));
            // `len >= 8` (caller guarantee) so `half` is a multiple of 4.
            let mut j = 0usize;
            while j < half {
                let w = _mm256_loadu_ps(twp.add(2 * j));
                let x = _mm256_loadu_ps(hi.add(2 * j));
                let v = cmul_ps(x, w);
                let u = _mm256_loadu_ps(lo.add(2 * j));
                _mm256_storeu_ps(lo.add(2 * j), _mm256_add_ps(u, v));
                _mm256_storeu_ps(hi.add(2 * j), _mm256_sub_ps(u, v));
                j += 4;
            }
            start += len;
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn renorm_ps(v: __m256) -> __m256 {
        let t = _mm256_mul_ps(v, v);
        let nsq = _mm256_add_ps(t, _mm256_permute_ps(t, 0xB1));
        let s = _mm256_div_ps(_mm256_set1_ps(1.0), _mm256_sqrt_ps(nsq));
        _mm256_mul_ps(v, s)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn osc_accum_32(
        out: &mut [f32],
        amps: Option<&[f32]>,
        const_amp: f32,
        ph: &mut [Cpx32; 8],
        rot8: Cpx32,
    ) {
        let n = out.len();
        let n8 = n - n % 8;
        let renorm_blocks = OSC_RENORM_SAMPLES / 8;
        let op = out.as_mut_ptr();
        let ap = amps.map(|a| a.as_ptr());
        let camp = _mm256_set1_ps(const_amp);
        let rv = {
            let r = [rot8; 4];
            _mm256_loadu_ps(r.as_ptr() as *const f32)
        };
        let php = ph.as_ptr() as *const f32;
        let mut v_lo = _mm256_loadu_ps(php); // p0..p3
        let mut v_hi = _mm256_loadu_ps(php.add(8)); // p4..p7
        let mut blk = 0usize;
        let mut i = 0usize;
        while i < n8 {
            // Gather the 8 real parts in stream order.
            let re_raw = _mm256_shuffle_ps(v_lo, v_hi, 0x88); // [p0 p1 p4 p5 | p2 p3 p6 p7]
            let re = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(re_raw), 0xD8));
            let amp = match ap {
                Some(p) => _mm256_loadu_ps(p.add(i)),
                None => camp,
            };
            let contrib = _mm256_mul_ps(amp, re);
            let acc = _mm256_add_ps(_mm256_loadu_ps(op.add(i)), contrib);
            _mm256_storeu_ps(op.add(i), acc);
            v_lo = cmul_ps(v_lo, rv);
            v_hi = cmul_ps(v_hi, rv);
            blk += 1;
            if blk % renorm_blocks == 0 {
                v_lo = renorm_ps(v_lo);
                v_hi = renorm_ps(v_hi);
            }
            i += 8;
        }
        let phm = ph.as_mut_ptr() as *mut f32;
        _mm256_storeu_ps(phm, v_lo);
        _mm256_storeu_ps(phm.add(8), v_hi);
        for (j, o) in out[n8..].iter_mut().enumerate() {
            let amp = match amps {
                Some(a) => a[n8 + j],
                None => const_amp,
            };
            *o += amp * ph[j].re;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{avx2_available, force_tier};
    use crate::TAU;

    fn cvec(n: usize) -> Vec<Cpx> {
        (0..n)
            .map(|i| {
                Cpx::new(
                    ((i * 2654435761) % 997) as f64 / 498.5 - 1.0,
                    ((i * 40503 + 7) % 997) as f64 / 498.5 - 1.0,
                )
            })
            .collect()
    }

    fn rvec(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 48271 + 3) % 1013) as f64 / 506.5 - 1.0)
            .collect()
    }

    /// Runs `f` once on each available tier and asserts the outputs are
    /// bit-identical (skips the comparison on machines without AVX2).
    fn assert_tiers_match<T: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> T) {
        let before = tier();
        force_tier(SimdTier::Scalar);
        let scalar = f();
        if avx2_available() {
            force_tier(SimdTier::Avx2);
            let vector = f();
            assert_eq!(scalar, vector, "scalar and AVX2 tiers diverged");
        }
        force_tier(before);
    }

    #[test]
    fn fft_stage_tiers_bit_identical() {
        for &(n, len) in &[(8usize, 4usize), (16, 8), (64, 16), (256, 256)] {
            let tw: Vec<Cpx> = (0..len / 2)
                .map(|j| Cpx::cis(-TAU * j as f64 / len as f64))
                .collect();
            for inverse in [false, true] {
                assert_tiers_match(|| {
                    let mut d = cvec(n);
                    fft_first_stage(&mut d);
                    fft_stage(&mut d, &tw, len, inverse);
                    d
                });
            }
        }
    }

    #[test]
    fn pointwise_kernels_tiers_bit_identical() {
        for n in [1usize, 2, 5, 16, 257] {
            let (x, w) = (cvec(n), cvec(n + 1)[1..].to_vec());
            assert_tiers_match(|| {
                let mut out = vec![Cpx::ZERO; n];
                cmul_into(&mut out, &x, &w);
                let mut a = x.clone();
                cmul_assign(&mut a, &w);
                (out, a)
            });
        }
    }

    #[test]
    fn rfft_unzip_tiers_bit_identical() {
        for h in [2usize, 4, 8, 63, 64, 512] {
            let z = cvec(h);
            let tw: Vec<Cpx> = (0..=h)
                .map(|k| Cpx::cis(-TAU * k as f64 / (2 * h) as f64))
                .collect();
            assert_tiers_match(|| {
                let mut out = Vec::new();
                rfft_unzip(&z, &tw, h, &mut out);
                out
            });
        }
    }

    #[test]
    fn irfft_zip_tiers_bit_identical() {
        for h in [2usize, 4, 8, 63, 64, 512] {
            let spec = cvec(h + 1);
            let tw: Vec<Cpx> = (0..=h)
                .map(|k| Cpx::cis(-TAU * k as f64 / (2 * h) as f64))
                .collect();
            assert_tiers_match(|| {
                let mut out = Vec::new();
                irfft_zip(&spec, &tw, h, &mut out);
                out
            });
        }
    }

    #[test]
    fn irfft_zip_inverts_rfft_unzip() {
        // zip(unzip(z)) must reproduce the packed half-length transform —
        // the identity RfftPlan::inverse relies on.
        for h in [1usize, 2, 4, 7, 64, 129] {
            let z = cvec(h);
            let tw: Vec<Cpx> = (0..=h)
                .map(|k| Cpx::cis(-TAU * k as f64 / (2 * h) as f64))
                .collect();
            let mut spec = Vec::new();
            rfft_unzip(&z, &tw, h, &mut spec);
            let mut back = Vec::new();
            irfft_zip(&spec, &tw, h, &mut back);
            for (k, (&a, &b)) in back.iter().zip(&z).enumerate() {
                assert!((a - b).abs() < 1e-12, "bin {k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sq_accum_and_peak_max_tiers_bit_identical() {
        for n in [1usize, 3, 4, 8, 9, 64, 1023] {
            let a = rvec(n);
            let b = rvec(n + 3)[3..].to_vec();
            assert_tiers_match(|| {
                let mut acc = a.clone();
                sq_accum(&mut acc, &b);
                (peak_max(&acc), acc)
            });
        }
    }

    #[test]
    fn peak_max_prefers_first_of_ties() {
        let mut x = vec![0.25; 16];
        x[5] = 1.5;
        x[9] = 1.5;
        assert_tiers_match(|| peak_max(&x));
        assert_eq!(peak_max(&x), (5, 1.5));
        assert_eq!(peak_max(&[]), (0, f64::NEG_INFINITY));
    }

    #[test]
    fn real_kernels_tiers_bit_identical() {
        for n in [1usize, 3, 4, 8, 1023] {
            let (a, b, c) = (
                rvec(n),
                rvec(n + 1)[1..].to_vec(),
                rvec(n + 2)[2..].to_vec(),
            );
            let row = cvec(n);
            assert_tiers_match(|| {
                let mut s1 = vec![0.0; n];
                band_sum1(&mut s1, &a);
                let mut s2 = vec![0.0; n];
                band_sum2(&mut s2, &a, &b);
                let mut s3 = vec![0.0; n];
                band_sum3(&mut s3, &a, &b, &c);
                let mut acc = a.clone();
                add_assign(&mut acc, &b);
                axpy(&mut acc, 1.0 / 9.0, &c);
                norm_sq_accum(&mut acc, &row);
                (s1, s2, s3, acc)
            });
        }
    }

    #[test]
    fn osc_accum_tiers_bit_identical() {
        for n in [0usize, 3, 4, 255, 256, 960, 1027] {
            let amps = rvec(n);
            let rot = Cpx::cis(TAU * 0.037);
            let ph0 = Cpx::cis(1.234);
            for use_amps in [false, true] {
                assert_tiers_match(|| {
                    let mut out = vec![0.0f64; n];
                    let a = if use_amps { Some(&amps[..]) } else { None };
                    osc_accum(&mut out, a, 1.5, ph0, rot);
                    out
                });
            }
        }
    }

    #[test]
    fn osc_accum_matches_direct_cos() {
        // The blocked recurrence must track amp·cos(phase0 + i·θ) to well
        // below the simulation noise floor over a chirp-length run.
        let n = 2000;
        let theta = TAU * 0.0173;
        let rot = Cpx::cis(theta);
        let ph0 = Cpx::cis(0.5);
        let mut out = vec![0.0f64; n];
        osc_accum(&mut out, None, 2.0, ph0, rot);
        for (i, &o) in out.iter().enumerate() {
            let want = 2.0 * (0.5 + theta * i as f64).cos();
            assert!((o - want).abs() < 1e-9, "sample {i}: {o} vs {want}");
        }
    }

    #[test]
    fn osc_accum_32_tracks_f64() {
        let n = 1500;
        let rot = Cpx::cis(TAU * 0.0217);
        let ph0 = Cpx::cis(2.1);
        let amps: Vec<f64> = rvec(n).iter().map(|v| 1.0 + 0.5 * v).collect();
        let amps32: Vec<f32> = amps.iter().map(|&v| v as f32).collect();
        let mut want = vec![0.0f64; n];
        osc_accum(&mut want, Some(&amps), 0.0, ph0, rot);
        for t in [SimdTier::Scalar, SimdTier::Avx2] {
            if t == SimdTier::Avx2 && !avx2_available() {
                continue;
            }
            let before = tier();
            force_tier(t);
            let mut got = vec![0.0f32; n];
            osc_accum_32(&mut got, Some(&amps32), 0.0, ph0, rot);
            force_tier(before);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g as f64 - w).abs() < 1e-3,
                    "tier {t:?} sample {i}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn fft_stage_32_matches_scalar_closely() {
        // No bit contract in f32, but the tiers must agree to f32 rounding.
        if !avx2_available() {
            return;
        }
        let n = 64;
        let len = 16;
        let tw: Vec<Cpx32> = (0..len / 2)
            .map(|j| Cpx32::from_f64(Cpx::cis(-TAU * j as f64 / len as f64)))
            .collect();
        let data: Vec<Cpx32> = cvec(n).iter().map(|&z| Cpx32::from_f64(z)).collect();
        let before = tier();
        force_tier(SimdTier::Scalar);
        let mut a = data.clone();
        fft_stage_32(&mut a, &tw, len);
        force_tier(SimdTier::Avx2);
        let mut b = data;
        fft_stage_32(&mut b, &tw, len);
        force_tier(before);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(
                (x.re - y.re).abs() < 1e-5 && (x.im - y.im).abs() < 1e-5,
                "bin {i}: {x:?} vs {y:?}"
            );
        }
    }
}

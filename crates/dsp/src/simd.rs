//! Vectorized inner loops for the frame hot path.
//!
//! Every kernel here has one portable scalar loop, which the scalar tier
//! of [`crate::dispatch::tier`] runs. What the AVX2 tier runs is one of
//! three kinds:
//!
//! * a **hand body**: `std::arch` intrinsics under
//!   `#[target_feature(enable = "avx2")]` (no nightly `std::simd`, no
//!   crates), for the kernels where LLVM does not find the vector form on
//!   its own — complex multiplies, the FFT stages and the Doppler stage's
//!   column transforms, the Goertzel and lagged-product recurrences, the
//!   row sums, the peak scan and the IF tones;
//! * a **compiled copy**: the scalar loop itself, `#[inline(always)]`,
//!   called from a three-line `#[target_feature(enable = "avx2")]`
//!   wrapper, so that LLVM vectorizes the same source at 4 × f64
//!   ([`sq_accum`], [`norm_sq_accum`], [`round`]);
//! * **scalar only**: the f64 tone fill ([`tone_fill`]) and the f32 unzip
//!   ([`rfft_unzip_32`]) run their one loop on both tiers, as does the
//!   first radix-2 stage, which lives beside its only caller in
//!   [`crate::planner`].
//!
//! A kernel keeps a hand body only where it beats the faster of its scalar
//! loop and its compiled copy by 19 % or more at the sizes the frame path
//! calls it with; the census behind each choice is in EXPERIMENTS.md
//! ("Hand-written AVX2 only where it wins", "One aligned frame"). The
//! wrappers enable exactly `avx2`, never `fma`: Rust does
//! not contract `a·b + c`, so a compiled copy performs the scalar loop's
//! operations, element by element.
//!
//! This is the only module in the workspace's DSP layer that contains
//! `unsafe` — each `unsafe` block calls a `#[target_feature(enable =
//! "avx2")]` function strictly behind runtime feature detection, and the
//! hand bodies make raw loads/stores (`Complex<T>` is `repr(C)`, so a
//! slice of them is a packed `re, im` sequence).
//!
//! Most kernels are type-specific; generic code reaches them through the
//! [`crate::real::Real`] impls, which pick the f64 or f32 (`*_32`) body.
//! [`norm_sq_accum`] is one generic loop for both precisions.
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
//!   equivalent;
//! * recurrences (the windowed Goertzel) put independent streams in the
//!   vector lanes, never successive steps of one stream, so each stream
//!   runs the scalar steps in the scalar order.
//!
//! The f32 kernels (`*_32`) carry no bit contract across tiers, except the
//! IF tone kernels (`tone_fill_32`, `tones_accum_32`) and the column
//! transform ([`fft_columns_32`]), whose two bodies perform the same
//! operations as each other (the f32 frame digests pin their output on
//! both tiers); the f32 frame tier as a whole is validated
//! against the f64 oracle by error bounds (see `biscatter-core`'s precision
//! tests).

use crate::complex::{Complex, Cpx};
use crate::dispatch::{tier, SimdTier};
use crate::goertzel::GoertzelCoeffs;
use crate::real::Real;

/// Single-precision complex sample, as the f32 kernels see it.
type Cpx32 = Complex<f32>;

// ---------------------------------------------------------------------------
// f64 complex kernels (radix-2 stages, pointwise multiplies, rfft unzip).
// ---------------------------------------------------------------------------

/// One radix-2 butterfly stage of width `len` over all chunks of `data`,
/// with this stage's contiguous twiddle table `tw` (`len/2` entries,
/// `tw[j] = e^{-i 2π j / len}`; conjugated on the fly when `inverse`): the
/// stage-by-stage form the plans ran before [`fft_stages`], kept as its
/// oracle.
#[cfg(test)]
pub(crate) fn fft_stage(data: &mut [Cpx], tw: &[Cpx], len: usize, inverse: bool) {
    debug_assert!(len >= 4 && data.len() % len == 0 && tw.len() == len / 2);
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::fft_stage(data, tw, len, inverse) };
        return;
    }
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

/// Offset of stage `len`'s entries in an [`fft_twiddles`] table: stage
/// `len` holds `len/2` factors at 4 values each.
#[inline]
fn tw_offset(len: usize) -> usize {
    2 * len - 8
}

/// The f64 twiddle table of a length-`n` radix-2 plan, in the
/// pre-broadcast layout [`fft_stages`] reads: for each stage
/// `len = 4, 8, …, n`, its factors `w[j] = twiddle(j, len)` two at a time
/// as `[w[j].re, w[j].re, w[j+1].re, w[j+1].re, w[j].im, w[j].im,
/// w[j+1].im, w[j+1].im]` — the operand shape of the AVX2 complex
/// multiply, so it needs one lane swap instead of three shuffles. The
/// scalar body reads the same values.
pub fn fft_twiddles(n: usize, twiddle: impl Fn(usize, usize) -> Cpx) -> Vec<f64> {
    let mut out = Vec::with_capacity(tw_offset(2 * n.max(2)));
    let mut len = 4;
    while len <= n {
        for j in (0..len / 2).step_by(2) {
            let (w0, w1) = (twiddle(j, len), twiddle(j + 1, len));
            out.extend([w0.re, w0.re, w1.re, w1.re, w0.im, w0.im, w1.im, w1.im]);
        }
        len <<= 1;
    }
    out
}

/// Factor `j` of a stage in an [`fft_twiddles`] block, conjugated when
/// `inverse`.
#[inline(always)]
fn twiddle_at(tw: &[f64], j: usize, inverse: bool) -> Cpx {
    let i = 4 * (j & !1) + 2 * (j & 1);
    let im = tw[i + 4];
    Cpx::new(tw[i], if inverse { -im } else { im })
}

/// Radix-2 stages `len = 4, 8, …, data.len()` over data that is already in
/// bit-reversed order with the first stage applied, reading an
/// [`fft_twiddles`] table (conjugated on the fly when `inverse`).
///
/// Stages run two per pass: for stages `(len, 2·len)`, the four values at
/// `k`, `k + len/2`, `k + len` and `k + 3·len/2` go through stage `len`'s
/// two butterflies and then stage `2·len`'s two, in registers, and are
/// stored once. Every value sees the multiply, add and subtract it would
/// see in one stage at a time (`v = b·w`, `a + v`, `a − v`), so the result
/// is bit-identical to that. With an odd number of stages the last one
/// runs alone. Both tiers perform the same operations.
///
/// # Panics
/// Panics unless `data.len()` is a power of two and `tw` holds the table
/// of that length.
pub fn fft_stages(data: &mut [Cpx], tw: &[f64], inverse: bool) {
    let n = data.len();
    assert!(
        n.is_power_of_two() && tw.len() == tw_offset(2 * n.max(2)),
        "fft_stages needs a power-of-two length and its twiddle table"
    );
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier; the
        // assert above gives the body's length and table conditions.
        unsafe {
            if inverse {
                avx2::fft_stages::<true>(data, tw)
            } else {
                avx2::fft_stages::<false>(data, tw)
            }
        };
        return;
    }
    let mut len = 4;
    while 2 * len <= n {
        let (lo, hi) = (&tw[tw_offset(len)..], &tw[tw_offset(2 * len)..]);
        let q = len / 2;
        for chunk in data.chunks_exact_mut(2 * len) {
            for j in 0..q {
                let w = twiddle_at(lo, j, inverse);
                let (a, b) = (chunk[j], chunk[j + q]);
                let (c, d) = (chunk[j + len], chunk[j + len + q]);
                let v = b * w;
                let (a, b) = (a + v, a - v);
                let v = d * w;
                let (c, d) = (c + v, c - v);
                let v = c * twiddle_at(hi, j, inverse);
                (chunk[j], chunk[j + len]) = (a + v, a - v);
                let v = d * twiddle_at(hi, j + q, inverse);
                (chunk[j + q], chunk[j + len + q]) = (b + v, b - v);
            }
        }
        len *= 4;
    }
    if len <= n {
        let t = &tw[tw_offset(len)..];
        let half = len / 2;
        for chunk in data.chunks_exact_mut(len) {
            for j in 0..half {
                let (a, v) = (chunk[j], chunk[j + half] * twiddle_at(t, j, inverse));
                (chunk[j], chunk[j + half]) = (a + v, a - v);
            }
        }
    }
}

/// Forward radix-2 stages `2, 4, …, n` over `n` rows of `width` columns
/// side by side — `block[i·width + j]` is sample `i` of column `j`, the
/// rows already in bit-reversed order — reading a length-`n`
/// [`fft_twiddles`] table, one factor per row pair broadcast across the
/// columns. Each column comes out bit for bit as the first stage and
/// [`fft_stages`] leave it alone: `(u + v, u − v)` for the first stage,
/// then `v = b·w`, `a + v`, `a − v` per butterfly, one stage at a time.
///
/// # Panics
/// Panics unless `block.len()` is `width` times a power of two (or zero)
/// and `tw` holds the table of that length.
pub fn fft_columns(block: &mut [Cpx], width: usize, tw: &[f64]) {
    let Some(n) = column_rows(block.len(), width) else {
        return;
    };
    assert!(
        tw.len() == tw_offset(2 * n.max(2)),
        "fft_columns needs the twiddle table of its row count"
    );
    // A two-row block is one stage of adds, and an odd width (only ever
    // a band's last block, when the band's bin count is odd) has a column
    // the two-column vectors cannot take: both go to the scalar loop.
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 && n >= 4 && width % 2 == 0 {
        // SAFETY: AVX2 presence established by the dispatch tier; the
        // asserts above and the guard give the body's shape and table
        // conditions.
        unsafe { avx2::fft_columns(block, width, tw) };
        return;
    }
    fft_columns_loop(block, width, |len, j| {
        twiddle_at(&tw[tw_offset(len)..], j, false)
    });
}

/// The row count of a `width`-column block of `len` samples, `None` when
/// there is nothing to transform (no columns, or fewer than two rows).
///
/// # Panics
/// Panics unless `len` is `width` times a power of two (or zero).
fn column_rows(len: usize, width: usize) -> Option<usize> {
    if width == 0 {
        assert_eq!(len, 0, "a zero-width block holds no samples");
        return None;
    }
    let n = len / width;
    assert!(
        n * width == len && (n == 0 || n.is_power_of_two()),
        "a column block needs a power-of-two number of full rows"
    );
    (n >= 2).then_some(n)
}

/// The scalar body of [`fft_columns`] and [`fft_columns_32`]: `tw(len, j)`
/// is factor `j` of stage `len`.
#[inline(always)]
fn fft_columns_loop<T: Real>(
    block: &mut [Complex<T>],
    width: usize,
    tw: impl Fn(usize, usize) -> Complex<T>,
) {
    let n = block.len() / width;
    for pair in block.chunks_exact_mut(2 * width) {
        let (lo, hi) = pair.split_at_mut(width);
        for (a, b) in lo.iter_mut().zip(hi) {
            let (u, v) = (*a, *b);
            (*a, *b) = (u + v, u - v);
        }
    }
    let mut len = 4;
    while len <= n {
        let half = len / 2;
        for chunk in block.chunks_exact_mut(len * width) {
            let (lo, hi) = chunk.split_at_mut(half * width);
            let rows = lo.chunks_exact_mut(width).zip(hi.chunks_exact_mut(width));
            for (j, (lo, hi)) in rows.enumerate() {
                let w = tw(len, j);
                for (a, b) in lo.iter_mut().zip(hi) {
                    let (u, v) = (*a, *b * w);
                    (*a, *b) = (u + v, u - v);
                }
            }
        }
        len <<= 1;
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
/// `O = (z[k] − conj(z[h−k]))·(−i/2)`.
///
/// # Panics
/// Panics if `z.len() != h`, `out.len() != h + 1` or `tw.len() < h + 1`.
pub fn rfft_unzip(z: &[Cpx], tw: &[Cpx], h: usize, out: &mut [Cpx]) {
    assert_eq!(z.len(), h);
    assert_eq!(out.len(), h + 1);
    assert!(tw.len() > h);
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 && h >= 4 {
        // Endpoints wrap (`k % h`), so they stay on the scalar path.
        out[0] = unzip_one(z[0], z[0], tw[0]);
        out[h] = unzip_one(z[0], z[0], tw[h]);
        // SAFETY: AVX2 presence established by the dispatch tier; the
        // vector body covers 1..h only, matching the scalar remainder.
        let done = unsafe { avx2::rfft_unzip_mid(z, tw, h, out) };
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
/// unit modulus, so its conjugate undoes it exactly). `out` is resized to
/// `h` (every entry is written).
///
/// # Panics
/// Panics if `spec.len() < h + 1` or `tw.len() < h + 1`.
pub fn irfft_zip(spec: &[Cpx], tw: &[Cpx], h: usize, out: &mut Vec<Cpx>) {
    assert!(spec.len() > h);
    assert!(tw.len() > h);
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
// Real kernels (mean power, window energy, code rounding, peak scan). The
// first three are compiled copies: one loop, vectorized by LLVM on the
// AVX2 tier.
// ---------------------------------------------------------------------------

/// `acc[i] += |row[i]|²`, each square computed in the row's precision and
/// widened into the f64 accumulator — the sensing path's per-range mean
/// power, for f64 and f32 rows alike.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn norm_sq_accum<T: Real>(acc: &mut [f64], row: &[Complex<T>]) {
    assert_eq!(acc.len(), row.len());
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::norm_sq_accum(acc, row) };
        return;
    }
    norm_sq_accum_loop(acc, row);
}

#[inline(always)]
fn norm_sq_accum_loop<T: Real>(acc: &mut [f64], row: &[Complex<T>]) {
    for (a, z) in acc.iter_mut().zip(row) {
        *a += z.norm_sq().to_f64();
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
    sq_accum_loop(acc, x);
}

#[inline(always)]
fn sq_accum_loop(acc: &mut [f64], x: &[f64]) {
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v * v;
    }
}

/// `x[i] ← x[i].round()`: to the nearest integer, halves away from zero —
/// the ADC model's code rounding. Baseline x86-64 has no rounding
/// instruction, so the scalar tier calls libm per element; with AVX2
/// enabled LLVM lowers the same loop to a truncating `roundpd` of
/// `x + copysign(½ − 2⁻⁵⁴, x)`, which is exact. Both return the same bits
/// for every input, signed zeros, infinities and NaN included.
pub fn round(x: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::round(x) };
        return;
    }
    round_loop(x);
}

#[inline(always)]
fn round_loop(x: &mut [f64]) {
    for v in x.iter_mut() {
        *v = v.round();
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
// Windowed Goertzel recurrences (the tag's symbol decisions).
// ---------------------------------------------------------------------------

/// One job of [`goertzel_windowed`]: one frequency and one window, run over
/// four sample streams, each with its own shift.
#[derive(Debug, Clone, Copy)]
pub struct GoertzelJob<'a> {
    /// Recurrence coefficients of the frequency.
    pub coeffs: GoertzelCoeffs,
    /// Window coefficients, one per recurrence step: the job consumes rows
    /// `0..window.len()`.
    pub window: &'a [f64],
    /// Subtracted from each stream's samples before windowing (typically
    /// the stream's mean).
    pub shifts: [f64; 4],
    /// The job's four streams are entries `4·column..4·column + 4` of each
    /// row.
    pub column: usize,
}

/// Windowed Goertzel powers of `jobs` over start-major rows: row `i` holds
/// sample `i` of every stream, `rows[i·stride + s]` for stream `s`. Stream
/// `l` of job `j` runs, for `i` in `0..window.len()`,
/// `s0 = ((x − shift)·w + coeff·s1) − s2` with
/// `x = rows[i·stride + 4·column + l]` and `w = window[i]`, and ends with
/// `powers[4·j + l] = (s1·cos ω − s2)² + (s1·sin ω)²`.
///
/// The jobs run four at a time, in order: the four advance side by side
/// while all of them have rows left, then each longer one finishes alone.
/// Every stream performs exactly the operations of materializing
/// `(x − shift)·w` and running [`crate::goertzel::goertzel_power`] on it,
/// in the same order, so the result is bit-identical to that on both tiers
/// (the AVX2 body is the same operations on a vector of four streams, with
/// no FMA).
///
/// # Panics
/// Panics if `powers` does not hold four values per job, if a job's column
/// lies outside a row, or if a window is longer than the rows.
pub fn goertzel_windowed(
    rows: &[f64],
    stride: usize,
    jobs: &[GoertzelJob<'_>],
    powers: &mut [f64],
) {
    assert_eq!(4 * jobs.len(), powers.len());
    for job in jobs {
        assert!(
            4 * job.column + 4 <= stride,
            "column {} outside a {stride}-wide row",
            job.column
        );
        assert!(
            job.window.len() * stride <= rows.len(),
            "a {}-step window runs past the rows",
            job.window.len()
        );
    }
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier; every
        // job's column and window were checked against the rows above.
        unsafe { avx2::goertzel_windowed(rows, stride, jobs, powers) };
        return;
    }
    for (group, out) in jobs.chunks(4).zip(powers.chunks_mut(16)) {
        match group.len() {
            1 => goertzel_group::<1>(rows, stride, group, out),
            2 => goertzel_group::<2>(rows, stride, group, out),
            3 => goertzel_group::<3>(rows, stride, group, out),
            _ => goertzel_group::<4>(rows, stride, group, out),
        }
    }
}

/// The scalar body for a group of exactly `J` jobs, so that it keeps the
/// group's recurrences in registers.
fn goertzel_group<const J: usize>(
    rows: &[f64],
    stride: usize,
    jobs: &[GoertzelJob<'_>],
    powers: &mut [f64],
) {
    let jobs: &[GoertzelJob<'_>; J] = jobs.try_into().expect("caller matched the group size");
    let mut s1 = [[0.0f64; 4]; J];
    let mut s2 = [[0.0f64; 4]; J];
    let joint = jobs.iter().map(|j| j.window.len()).min().unwrap_or(0);
    for (i, row) in rows.chunks_exact(stride).take(joint).enumerate() {
        for j in 0..J {
            goertzel_step(&mut s1[j], &mut s2[j], &jobs[j], row, i);
        }
    }
    for j in 0..J {
        let n = jobs[j].window.len();
        for (i, row) in rows.chunks_exact(stride).enumerate().take(n).skip(joint) {
            goertzel_step(&mut s1[j], &mut s2[j], &jobs[j], row, i);
        }
    }
    for (j, out) in powers.chunks_exact_mut(4).enumerate() {
        let c = &jobs[j].coeffs;
        for (l, p) in out.iter_mut().enumerate() {
            let re = s1[j][l] * c.cos_w - s2[j][l];
            let im = s1[j][l] * c.sin_w;
            *p = re * re + im * im;
        }
    }
}

/// One recurrence step of a job's four streams on `row`, step `i`.
#[inline(always)]
fn goertzel_step(
    s1: &mut [f64; 4],
    s2: &mut [f64; 4],
    job: &GoertzelJob<'_>,
    row: &[f64],
    i: usize,
) {
    let x = &row[4 * job.column..4 * job.column + 4];
    let w = job.window[i];
    for l in 0..4 {
        let s0 = (x[l] - job.shifts[l]) * w + job.coeffs.coeff * s1[l] - s2[l];
        s2[l] = s1[l];
        s1[l] = s0;
    }
}

// ---------------------------------------------------------------------------
// The tag's acquisition searches: lagged products (the period search) and
// row sums (the slot-timing search).
// ---------------------------------------------------------------------------

/// Lagged-product sums of `p` for the run of lags `lag..lag + sums.len()`:
/// `sums[j] = Σ_i p[i]·p[i + lag + j]` over every `i` with
/// `i + lag + j < p.len()` — the autocorrelation of the tag's period
/// search. Each lag sums its products in index order from zero, as a loop
/// over that lag alone would, so both tiers return the same bits: the
/// scalar body runs sixteen lags per pass (then four, then one) so their
/// accumulation chains overlap, the AVX2 body four lags per vector and up
/// to eight vectors per pass, with no FMA.
///
/// # Panics
/// Panics unless every lag has a product: `lag + sums.len() <= p.len()`.
pub fn lagged_products(p: &[f64], lag: usize, sums: &mut [f64]) {
    assert!(
        lag + sums.len() <= p.len(),
        "lags {lag}..{} need {} samples, not {}",
        lag + sums.len(),
        lag + sums.len(),
        p.len()
    );
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier; the lag
        // run was checked against `p` above.
        unsafe { avx2::lagged_products(p, lag, sums) };
        return;
    }
    let mut done = 0;
    for width in [16, 4, 1] {
        while done + width <= sums.len() {
            let block = &mut sums[done..done + width];
            match width {
                16 => lagged_block::<16>(p, lag + done, block),
                4 => lagged_block::<4>(p, lag + done, block),
                _ => lagged_block::<1>(p, lag + done, block),
            }
            done += width;
        }
    }
}

/// [`lagged_products`] for `N` lags side by side: lag `j` of the block
/// has `p.len() - lag - j` products; all lanes share the first `joint`,
/// where sample `i` meets the `N` samples from `i + lag` on.
fn lagged_block<const N: usize>(p: &[f64], lag: usize, sums: &mut [f64]) {
    let joint = p.len() - lag - (N - 1);
    let mut acc = [0.0f64; N];
    for (&x, lagged) in p[..joint].iter().zip(p[lag..].windows(N)) {
        for j in 0..N {
            acc[j] += x * lagged[j];
        }
    }
    lagged_tails(p, lag, joint, &mut acc);
    sums.copy_from_slice(&acc);
}

/// The products past `joint` of a block of lags from `lag`, added in index
/// order onto the block's joint sums `acc`.
#[inline]
fn lagged_tails(p: &[f64], lag: usize, joint: usize, acc: &mut [f64]) {
    for (j, acc) in acc.iter_mut().enumerate() {
        let mut sum = *acc;
        for (&x, &y) in p[joint..p.len() - lag - j]
            .iter()
            .zip(&p[joint + lag + j..])
        {
            sum += x * y;
        }
        *acc = sum;
    }
}

/// Adds rows of `src` onto `out` in order:
/// `out[i] ← ((out[i] + src[s₀ + i]) + src[s₁ + i]) + …` for the starts
/// `s₀, s₁, …` of `starts` — the per-offset slot sums of the tag's
/// slot-timing search. Every element adds its rows in `starts` order, so
/// both tiers return the same bits; the AVX2 body keeps a block of
/// elements in registers across all the rows.
///
/// # Panics
/// Panics if a row runs past `src`: `start + out.len() > src.len()`.
pub fn add_rows(out: &mut [f64], src: &[f64], starts: &[usize]) {
    for &s in starts {
        assert!(
            s + out.len() <= src.len(),
            "a {}-wide row from {s} runs past {} values",
            out.len(),
            src.len()
        );
    }
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier; every row
        // was checked against `src` above.
        unsafe { avx2::add_rows(out, src, starts) };
        return;
    }
    for &s in starts {
        for (o, &x) in out.iter_mut().zip(&src[s..]) {
            *o += x;
        }
    }
}

// ---------------------------------------------------------------------------
// IF tones (the dechirp inner loops): one oscillator fill, one fused
// weighted sum.
// ---------------------------------------------------------------------------

/// Samples between oscillator renormalizations — the serial recurrence's
/// bound (DESIGN.md §9.2): the amplitude error after 256 complex multiplies
/// is ≈ 1.1e-13 relative.
const OSC_RENORM_SAMPLES: usize = 256;

/// The most tones one [`tones_accum`] pass adds.
pub const TONES_PER_PASS: usize = 4;

/// Writes one scatterer's unit IF tone, `out[i] = Re(e^{i phase0} · rot^i)`.
///
/// The serial recurrence `ph ← ph · rot` is blocked into **4 independent
/// phase streams** advanced by `rot⁴`, so the four multiplies per block
/// have no dependence chain and the baseline SSE2 code runs them side by
/// side. Streams renormalize every 256 samples via `1/√(re²+im²)`.
///
/// Both tiers run this one loop (a hand-written AVX2 body was at most 13 %
/// faster at 960–1,200 samples), so the result is bit-identical across
/// dispatch tiers (though not to the pre-blocking serial recurrence, whose
/// rounding path differed — the error bound is the same ≤ `2nε` amplitude
/// / `nε` phase drift).
pub fn tone_fill(out: &mut [f64], phase0: Cpx, rot: Cpx) {
    let p0 = phase0;
    let p1 = p0 * rot;
    let p2 = p1 * rot;
    let p3 = p2 * rot;
    let r2 = rot * rot;
    let rot4 = r2 * r2;
    let mut ph = [p0, p1, p2, p3];
    let n4 = out.len() - out.len() % 4;
    let renorm_blocks = OSC_RENORM_SAMPLES / 4;
    for (blk, block) in out[..n4].chunks_exact_mut(4).enumerate() {
        for (o, p) in block.iter_mut().zip(ph.iter_mut()) {
            *o = p.re;
            *p *= rot4;
        }
        if (blk + 1) % renorm_blocks == 0 {
            for p in ph.iter_mut() {
                let s = 1.0 / (p.re * p.re + p.im * p.im).sqrt();
                *p = p.scale(s);
            }
        }
    }
    // Tail: streams 0..n%4 hold exactly the next samples' phasors.
    for (o, p) in out[n4..].iter_mut().zip(ph.iter()) {
        *o = p.re;
    }
}

/// f32 variant of [`tone_fill`]: 8 phase streams advanced by `rot⁸`.
/// Stream seeds and the block rotation are computed in f64 and rounded
/// once, so the f32 phase error is dominated by the per-block rotation
/// rounding (≈ `n/8` multiplies of one-ulp error ≲ 1e-5 rad over a chirp),
/// kept bounded in magnitude by the same 256-sample renormalization.
pub fn tone_fill_32(out: &mut [f32], phase0: Cpx, rot: Cpx) {
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
        unsafe { avx2::tone_fill_32(out, &mut seeds, rot8) };
        return;
    }
    tone_fill_32_scalar(out, &mut seeds, rot8);
}

fn tone_fill_32_scalar(out: &mut [f32], ph: &mut [Cpx32; 8], rot8: Cpx32) {
    let n8 = out.len() - out.len() % 8;
    let renorm_blocks = OSC_RENORM_SAMPLES / 8;
    for (blk, block) in out[..n8].chunks_exact_mut(8).enumerate() {
        for (o, p) in block.iter_mut().zip(ph.iter_mut()) {
            *o = p.re;
            *p *= rot8;
        }
        if (blk + 1) % renorm_blocks == 0 {
            for p in ph.iter_mut() {
                let s = 1.0 / (p.re * p.re + p.im * p.im).sqrt();
                *p = p.scale(s);
            }
        }
    }
    for (o, p) in out[n8..].iter_mut().zip(ph.iter()) {
        *o = p.re;
    }
}

/// Adds a level-weighted sum of tones to `out` in one pass:
/// `out[i] ← ((out[i] + l₀·t₀[i]) + l₁·t₁[i]) + …`, every product rounded
/// and then added, in `tones` order, with the running sum held in a
/// register between the adds. That is, sample for sample, the IEEE
/// sequence of adding each tone on its own, so splitting a row's tones
/// into passes, or a row into stretches of constant levels, moves no bit —
/// and both tiers perform the same elementwise operations.
///
/// Beyond the IF tones, this is every weighted row sum of the receive
/// chain: one row at weight `w` is `acc + w·x` (the matched filter's
/// harmonics), and rows at level `1.0` onto a zeroed `out` are the plain
/// sum `((0.0 + a) + b) + …` (the Doppler bands), since `1.0·x` is exact.
///
/// # Panics
/// Panics unless `tones` holds 1 to [`TONES_PER_PASS`] tones, one level
/// each, and every tone is at least as long as `out`.
pub fn tones_accum(out: &mut [f64], tones: &[&[f64]], levels: &[f64]) {
    check_pass(out.len(), tones, levels);
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier; the pass
        // shape and tone lengths were checked above.
        unsafe {
            match tones.len() {
                1 => avx2::tones_accum::<1>(out, tones, levels),
                2 => avx2::tones_accum::<2>(out, tones, levels),
                3 => avx2::tones_accum::<3>(out, tones, levels),
                _ => avx2::tones_accum::<4>(out, tones, levels),
            }
        }
        return;
    }
    tones_accum_scalar(out, tones, levels);
}

/// f32 variant of [`tones_accum`], eight samples per vector.
pub fn tones_accum_32(out: &mut [f32], tones: &[&[f32]], levels: &[f32]) {
    check_pass(out.len(), tones, levels);
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: as in `tones_accum`.
        unsafe {
            match tones.len() {
                1 => avx2::tones_accum_32::<1>(out, tones, levels),
                2 => avx2::tones_accum_32::<2>(out, tones, levels),
                3 => avx2::tones_accum_32::<3>(out, tones, levels),
                _ => avx2::tones_accum_32::<4>(out, tones, levels),
            }
        }
        return;
    }
    tones_accum_scalar(out, tones, levels);
}

fn check_pass<T>(n: usize, tones: &[&[T]], levels: &[T]) {
    assert!(
        (1..=TONES_PER_PASS).contains(&tones.len()),
        "a pass adds 1 to {TONES_PER_PASS} tones, not {}",
        tones.len()
    );
    assert_eq!(tones.len(), levels.len(), "one level per tone");
    assert!(tones.iter().all(|t| t.len() >= n), "tone shorter than out");
}

fn tones_accum_scalar<T>(out: &mut [T], tones: &[&[T]], levels: &[T])
where
    T: Copy + std::ops::Add<Output = T> + std::ops::Mul<Output = T>,
{
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = *o;
        for (t, &l) in tones.iter().zip(levels) {
            acc = acc + l * t[i];
        }
        *o = acc;
    }
}

// ---------------------------------------------------------------------------
// f32 complex kernels (the f32 FFT plan tables' stages).
// ---------------------------------------------------------------------------

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

/// [`fft_columns`] in f32, reading an f32 plan's table (stage `len`'s
/// factors from `len/2 − 2`): the same butterflies, so each column comes
/// out as the f32 stages leave it alone.
///
/// # Panics
/// Panics unless `block.len()` is `width` times a power of two (or zero)
/// and `tw` holds the table of that length.
pub fn fft_columns_32(block: &mut [Cpx32], width: usize, tw: &[Cpx32]) {
    let Some(n) = column_rows(block.len(), width) else {
        return;
    };
    assert!(
        tw.len() == n - 2,
        "fft_columns_32 needs the twiddle table of its row count"
    );
    #[cfg(target_arch = "x86_64")]
    if tier() == SimdTier::Avx2 {
        // SAFETY: AVX2 presence established by the dispatch tier.
        unsafe { avx2::fft_columns_32(block, width, tw) };
        return;
    }
    fft_columns_loop(block, width, |len, j| tw[len / 2 - 2 + j]);
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

/// f32 packed-real-FFT unzip (see [`rfft_unzip`]) into `h + 1` bins.
pub fn rfft_unzip_32(z: &[Cpx32], tw: &[Cpx32], h: usize, out: &mut [Cpx32]) {
    assert_eq!(z.len(), h);
    assert_eq!(out.len(), h + 1);
    assert!(tw.len() > h);
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
    use super::GoertzelJob;
    use super::OSC_RENORM_SAMPLES;
    use crate::complex::{Complex, Cpx};
    use crate::real::Real;
    use std::arch::x86_64::*;

    // Compiled copies: the scalar loops, vectorized by LLVM with AVX2 on.

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn norm_sq_accum<T: Real>(acc: &mut [f64], row: &[Complex<T>]) {
        super::norm_sq_accum_loop(acc, row);
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sq_accum(acc: &mut [f64], x: &[f64]) {
        super::sq_accum_loop(acc, x);
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn round(x: &mut [f64]) {
        super::round_loop(x);
    }

    // Hand bodies.

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

    /// `[x0·w0, x1·w1]` with pre-broadcast twiddle parts
    /// `wr = [w0.re, w0.re, w1.re, w1.re]` and `wi = [w0.im, w0.im, w1.im,
    /// w1.im]`: [`cmul_pd`]'s addsub form, one lane swap.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmul_bc_pd(x: __m256d, wr: __m256d, wi: __m256d) -> __m256d {
        let xs = _mm256_permute_pd(x, 0x5); // [x.im, x.re] per complex
        _mm256_addsub_pd(_mm256_mul_pd(x, wr), _mm256_mul_pd(xs, wi))
    }

    /// Two factors `j, j + 1` of an `fft_twiddles` stage block as
    /// `(re, im)` broadcast vectors, `im` conjugated when `INV`.
    ///
    /// # Safety
    /// The CPU must support AVX2, `j` must be even and the block at `t`
    /// must hold factor `j + 1` (`4·j + 8` readable values).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn twiddles_pd<const INV: bool>(t: *const f64, j: usize) -> (__m256d, __m256d) {
        let wr = _mm256_loadu_pd(t.add(4 * j));
        let wi = _mm256_loadu_pd(t.add(4 * j + 4));
        if INV {
            (wr, _mm256_xor_pd(wi, _mm256_set1_pd(-0.0)))
        } else {
            (wr, wi)
        }
    }

    /// The AVX2 body of [`super::fft_stages`].
    ///
    /// # Safety
    /// The CPU must support AVX2, `data.len()` must be a power of two and
    /// `tw` its `fft_twiddles` table: every block and stage access below
    /// stays inside them.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fft_stages<const INV: bool>(data: &mut [Cpx], tw: &[f64]) {
        let n = data.len();
        let base = data.as_mut_ptr() as *mut f64;
        let twp = tw.as_ptr();
        let mut len = 4usize;
        while 2 * len <= n {
            let (lo, hi) = (
                twp.add(super::tw_offset(len)),
                twp.add(super::tw_offset(2 * len)),
            );
            let q = len / 2;
            let mut start = 0usize;
            while start < n {
                let pa = base.add(2 * start);
                let (pb, pc, pd) = (pa.add(2 * q), pa.add(2 * len), pa.add(2 * (len + q)));
                // `q` is even for every `len >= 4`, so the 2-wide loop
                // covers each quarter exactly.
                let mut j = 0usize;
                while j < q {
                    let (wr, wi) = twiddles_pd::<INV>(lo, j);
                    let a = _mm256_loadu_pd(pa.add(2 * j));
                    let v = cmul_bc_pd(_mm256_loadu_pd(pb.add(2 * j)), wr, wi);
                    let (a, b) = (_mm256_add_pd(a, v), _mm256_sub_pd(a, v));
                    let c = _mm256_loadu_pd(pc.add(2 * j));
                    let v = cmul_bc_pd(_mm256_loadu_pd(pd.add(2 * j)), wr, wi);
                    let (c, d) = (_mm256_add_pd(c, v), _mm256_sub_pd(c, v));
                    let (wr, wi) = twiddles_pd::<INV>(hi, j);
                    let v = cmul_bc_pd(c, wr, wi);
                    _mm256_storeu_pd(pa.add(2 * j), _mm256_add_pd(a, v));
                    _mm256_storeu_pd(pc.add(2 * j), _mm256_sub_pd(a, v));
                    let (wr, wi) = twiddles_pd::<INV>(hi, j + q);
                    let v = cmul_bc_pd(d, wr, wi);
                    _mm256_storeu_pd(pb.add(2 * j), _mm256_add_pd(b, v));
                    _mm256_storeu_pd(pd.add(2 * j), _mm256_sub_pd(b, v));
                    j += 2;
                }
                start += 2 * len;
            }
            len *= 4;
        }
        if len <= n {
            let t = twp.add(super::tw_offset(len));
            let half = len / 2;
            let mut start = 0usize;
            while start < n {
                let (lo, hi) = (base.add(2 * start), base.add(2 * (start + half)));
                let mut j = 0usize;
                while j < half {
                    let (wr, wi) = twiddles_pd::<INV>(t, j);
                    let v = cmul_bc_pd(_mm256_loadu_pd(hi.add(2 * j)), wr, wi);
                    let u = _mm256_loadu_pd(lo.add(2 * j));
                    _mm256_storeu_pd(lo.add(2 * j), _mm256_add_pd(u, v));
                    _mm256_storeu_pd(hi.add(2 * j), _mm256_sub_pd(u, v));
                    j += 2;
                }
                start += len;
            }
        }
    }

    /// Factor `j` of the `fft_twiddles` stage block at `t`, broadcast as
    /// `(re, im)`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and the block must hold factor `j`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn factor_pd(t: *const f64, j: usize) -> [__m256d; 2] {
        let at = 4 * (j & !1) + 2 * (j & 1);
        [
            _mm256_broadcast_sd(&*t.add(at)),
            _mm256_broadcast_sd(&*t.add(at + 4)),
        ]
    }

    /// The AVX2 body of [`super::fft_columns`], two columns per `__m256d`:
    /// stages 2 and 4 in one pass (the first multiplies by nothing), then
    /// pairs of stages `(len, 2·len)` as [`fft_stages`] runs them, and a
    /// last stage alone when one is left. Each row group's factors are
    /// broadcast once and run across the block's columns; every value sees
    /// the operations of one stage at a time, in the same order.
    ///
    /// # Safety
    /// The CPU must support AVX2, `block.len()` must be an even `width`
    /// times a power of two `n ≥ 4` and `tw` the `fft_twiddles` table of
    /// `n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fft_columns(block: &mut [Cpx], width: usize, tw: &[f64]) {
        let n = block.len() / width;
        let base = block.as_mut_ptr() as *mut f64;
        // `s` doubles per row; `k` steps through a row two columns at a time.
        let (s, twp) = (2 * width, tw.as_ptr());
        // Stage 4's two factors are the table's first block.
        let ([w0r, w0i], [w1r, w1i]) = (factor_pd(twp, 0), factor_pd(twp, 1));
        for m in (0..n).step_by(4) {
            let pa = base.add(m * s);
            let (pb, pc, pd) = (pa.add(s), pa.add(2 * s), pa.add(3 * s));
            for k in (0..s).step_by(4) {
                let (x0, x1) = (_mm256_loadu_pd(pa.add(k)), _mm256_loadu_pd(pb.add(k)));
                let (x2, x3) = (_mm256_loadu_pd(pc.add(k)), _mm256_loadu_pd(pd.add(k)));
                let (a, b) = (_mm256_add_pd(x0, x1), _mm256_sub_pd(x0, x1));
                let (c, d) = (_mm256_add_pd(x2, x3), _mm256_sub_pd(x2, x3));
                let v = cmul_bc_pd(c, w0r, w0i);
                _mm256_storeu_pd(pa.add(k), _mm256_add_pd(a, v));
                _mm256_storeu_pd(pc.add(k), _mm256_sub_pd(a, v));
                let v = cmul_bc_pd(d, w1r, w1i);
                _mm256_storeu_pd(pb.add(k), _mm256_add_pd(b, v));
                _mm256_storeu_pd(pd.add(k), _mm256_sub_pd(b, v));
            }
        }
        let mut len = 8usize;
        while 2 * len <= n {
            let (lo, hi) = (
                twp.add(super::tw_offset(len)),
                twp.add(super::tw_offset(2 * len)),
            );
            let q = len / 2;
            for start in (0..n).step_by(2 * len) {
                for j in 0..q {
                    let [wr, wi] = factor_pd(lo, j);
                    let ([cr, ci], [dr, di]) = (factor_pd(hi, j), factor_pd(hi, j + q));
                    let pa = base.add((start + j) * s);
                    let (pb, pc) = (pa.add(q * s), pa.add(len * s));
                    let pd = pc.add(q * s);
                    for k in (0..s).step_by(4) {
                        let a = _mm256_loadu_pd(pa.add(k));
                        let v = cmul_bc_pd(_mm256_loadu_pd(pb.add(k)), wr, wi);
                        let (a, b) = (_mm256_add_pd(a, v), _mm256_sub_pd(a, v));
                        let c = _mm256_loadu_pd(pc.add(k));
                        let v = cmul_bc_pd(_mm256_loadu_pd(pd.add(k)), wr, wi);
                        let (c, d) = (_mm256_add_pd(c, v), _mm256_sub_pd(c, v));
                        let v = cmul_bc_pd(c, cr, ci);
                        _mm256_storeu_pd(pa.add(k), _mm256_add_pd(a, v));
                        _mm256_storeu_pd(pc.add(k), _mm256_sub_pd(a, v));
                        let v = cmul_bc_pd(d, dr, di);
                        _mm256_storeu_pd(pb.add(k), _mm256_add_pd(b, v));
                        _mm256_storeu_pd(pd.add(k), _mm256_sub_pd(b, v));
                    }
                }
            }
            len *= 4;
        }
        if len <= n {
            let t = twp.add(super::tw_offset(len));
            let half = len / 2;
            for start in (0..n).step_by(len) {
                for j in 0..half {
                    let [wr, wi] = factor_pd(t, j);
                    let pa = base.add((start + j) * s);
                    let pb = pa.add(half * s);
                    for k in (0..s).step_by(4) {
                        let v = cmul_bc_pd(_mm256_loadu_pd(pb.add(k)), wr, wi);
                        let u = _mm256_loadu_pd(pa.add(k));
                        _mm256_storeu_pd(pa.add(k), _mm256_add_pd(u, v));
                        _mm256_storeu_pd(pb.add(k), _mm256_sub_pd(u, v));
                    }
                }
            }
        }
    }

    /// The AVX2 body of [`super::fft_columns_32`]: one stage at a time,
    /// each row pair's factor broadcast and run across the block's columns
    /// four at a time, the last `width % 4` columns through the scalar
    /// complex operations (the same products, sums and differences).
    ///
    /// # Safety
    /// The CPU must support AVX2, `block.len()` must be `width ≥ 1` times a
    /// power of two `n ≥ 2` and `tw` the f32 table of `n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fft_columns_32(block: &mut [Cpx32], width: usize, tw: &[Cpx32]) {
        let n = block.len() / width;
        let base = block.as_mut_ptr();
        let quads = width / 4;
        let row = |i: usize| base.add(i * width);
        let lanes = |p: *mut Cpx32| p as *mut f32;
        for i in (0..n).step_by(2) {
            let (a, b) = (row(i), row(i + 1));
            for k in 0..quads {
                let (pa, pb) = (lanes(a.add(4 * k)), lanes(b.add(4 * k)));
                let (u, v) = (_mm256_loadu_ps(pa), _mm256_loadu_ps(pb));
                _mm256_storeu_ps(pa, _mm256_add_ps(u, v));
                _mm256_storeu_ps(pb, _mm256_sub_ps(u, v));
            }
            for k in 4 * quads..width {
                let (u, v) = (*a.add(k), *b.add(k));
                (*a.add(k), *b.add(k)) = (u + v, u - v);
            }
        }
        let mut len = 4usize;
        while len <= n {
            let half = len / 2;
            for start in (0..n).step_by(len) {
                for j in 0..half {
                    let w = tw[half - 2 + j];
                    let (wr, wi) = (_mm256_set1_ps(w.re), _mm256_set1_ps(w.im));
                    let (a, b) = (row(start + j), row(start + j + half));
                    for k in 0..quads {
                        let (pa, pb) = (lanes(a.add(4 * k)), lanes(b.add(4 * k)));
                        let x = _mm256_loadu_ps(pb);
                        let xs = _mm256_permute_ps(x, 0xB1);
                        let v = _mm256_addsub_ps(_mm256_mul_ps(x, wr), _mm256_mul_ps(xs, wi));
                        let u = _mm256_loadu_ps(pa);
                        _mm256_storeu_ps(pa, _mm256_add_ps(u, v));
                        _mm256_storeu_ps(pb, _mm256_sub_ps(u, v));
                    }
                    for k in 4 * quads..width {
                        let (u, v) = (*a.add(k), *b.add(k) * w);
                        (*a.add(k), *b.add(k)) = (u + v, u - v);
                    }
                }
            }
            len <<= 1;
        }
    }

    #[cfg(test)]
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

    /// One recurrence step of four streams:
    /// `((x − shift)·w + coeff·s1) − s2`, the scalar body's operations.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn goertzel_step_pd(
        x: __m256d,
        shift: __m256d,
        w: __m256d,
        coeff: __m256d,
        s1: __m256d,
        s2: __m256d,
    ) -> __m256d {
        let t = _mm256_mul_pd(_mm256_sub_pd(x, shift), w);
        _mm256_sub_pd(_mm256_add_pd(t, _mm256_mul_pd(coeff, s1)), s2)
    }

    /// # Safety
    /// The CPU supports AVX2, `powers` holds four values per job, and every
    /// job's `4·column + 4 <= stride` and `window.len() · stride <= rows.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn goertzel_windowed(
        rows: &[f64],
        stride: usize,
        jobs: &[GoertzelJob<'_>],
        powers: &mut [f64],
    ) {
        for (group, out) in jobs.chunks(4).zip(powers.chunks_mut(16)) {
            match group.len() {
                1 => goertzel_group::<1>(rows, stride, group, out),
                2 => goertzel_group::<2>(rows, stride, group, out),
                3 => goertzel_group::<3>(rows, stride, group, out),
                _ => goertzel_group::<4>(rows, stride, group, out),
            }
        }
    }

    /// Exactly `J` jobs, their recurrences in `J` vector registers.
    ///
    /// # Safety
    /// As [`goertzel_windowed`], with `J` jobs.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn goertzel_group<const J: usize>(
        rows: &[f64],
        stride: usize,
        jobs: &[GoertzelJob<'_>],
        powers: &mut [f64],
    ) {
        let zero = _mm256_setzero_pd();
        let (mut cols, mut wins) = ([rows.as_ptr(); J], [rows.as_ptr(); J]);
        let (mut shift, mut coeff) = ([zero; J], [zero; J]);
        let (mut s1, mut s2) = ([zero; J], [zero; J]);
        for j in 0..J {
            // Wrapping: a job with an empty window may name a column past
            // empty rows; it never reads through the pointer.
            cols[j] = cols[j].wrapping_add(4 * jobs[j].column);
            wins[j] = jobs[j].window.as_ptr();
            shift[j] = _mm256_loadu_pd(jobs[j].shifts.as_ptr());
            coeff[j] = _mm256_set1_pd(jobs[j].coeffs.coeff);
        }
        // Step `i` of job `j` reads row `i` and window entry `i`, both in
        // bounds for `i < window.len()` (the caller's checks).
        let joint = jobs[..J].iter().map(|j| j.window.len()).min().unwrap_or(0);
        for i in 0..joint {
            for j in 0..J {
                let x = _mm256_loadu_pd(cols[j].add(i * stride));
                let w = _mm256_set1_pd(*wins[j].add(i));
                (s1[j], s2[j]) = (
                    goertzel_step_pd(x, shift[j], w, coeff[j], s1[j], s2[j]),
                    s1[j],
                );
            }
        }
        for (j, job) in jobs[..J].iter().enumerate() {
            for i in joint..job.window.len() {
                let x = _mm256_loadu_pd(cols[j].add(i * stride));
                let w = _mm256_set1_pd(*wins[j].add(i));
                (s1[j], s2[j]) = (
                    goertzel_step_pd(x, shift[j], w, coeff[j], s1[j], s2[j]),
                    s1[j],
                );
            }
        }
        for j in 0..J {
            let c = &jobs[j].coeffs;
            let re = _mm256_sub_pd(_mm256_mul_pd(s1[j], _mm256_set1_pd(c.cos_w)), s2[j]);
            let im = _mm256_mul_pd(s1[j], _mm256_set1_pd(c.sin_w));
            let p = _mm256_add_pd(_mm256_mul_pd(re, re), _mm256_mul_pd(im, im));
            _mm256_storeu_pd(powers[4 * j..4 * j + 4].as_mut_ptr(), p);
        }
    }

    /// The AVX2 body of [`super::lagged_products`]: blocks of the widest
    /// of 32, 16 or 4 lags that fits, the last block ending at the last
    /// lag (it may sum again a few lags of the block before it, from zero,
    /// to the same bits); fewer than four lags run one at a time.
    ///
    /// # Safety
    /// The CPU supports AVX2 and `lag + sums.len() <= p.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lagged_products(p: &[f64], lag: usize, sums: &mut [f64]) {
        let n = sums.len();
        let width = [32, 16, 4].into_iter().find(|&w| w <= n);
        let Some(width) = width else {
            for j in 0..n {
                super::lagged_block::<1>(p, lag + j, &mut sums[j..j + 1]);
            }
            return;
        };
        let mut done = 0;
        while done < n {
            let at = done.min(n - width);
            let block = &mut sums[at..at + width];
            match width {
                32 => lagged_block::<8>(p, lag + at, block),
                16 => lagged_block::<4>(p, lag + at, block),
                _ => lagged_block::<1>(p, lag + at, block),
            }
            done = at + width;
        }
    }

    /// `4·V` lags from `lag`, four per vector: the joint products a vector
    /// of lags at a time (each lane's product rounded, then added), the
    /// tails as the scalar body runs them.
    ///
    /// # Safety
    /// The CPU supports AVX2, `sums` holds `4·V` values and
    /// `lag + 4·V <= p.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lagged_block<const V: usize>(p: &[f64], lag: usize, sums: &mut [f64]) {
        let joint = p.len() - lag - (4 * V - 1);
        let pp = p.as_ptr();
        let mut acc = [_mm256_setzero_pd(); V];
        // Sample `i` meets `p[i + lag .. i + lag + 4·V]`, in bounds for
        // `i < joint`.
        for i in 0..joint {
            let x = _mm256_set1_pd(*pp.add(i));
            let lagged = pp.add(i + lag);
            for (v, acc) in acc.iter_mut().enumerate() {
                let y = _mm256_loadu_pd(lagged.add(4 * v));
                *acc = _mm256_add_pd(*acc, _mm256_mul_pd(x, y));
            }
        }
        for (v, acc) in acc.iter().enumerate() {
            _mm256_storeu_pd(sums.as_mut_ptr().add(4 * v), *acc);
        }
        super::lagged_tails(p, lag, joint, sums);
    }

    /// The AVX2 body of [`super::add_rows`]: blocks of 32 elements, then
    /// one block of the rest, each held in registers across every row.
    ///
    /// # Safety
    /// The CPU supports AVX2 and every `start + out.len() <= src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_rows(out: &mut [f64], src: &[f64], starts: &[usize]) {
        let n = out.len();
        let mut i = 0;
        while i + 32 <= n {
            add_rows_block::<8>(out, src, starts, i, 4);
            i += 32;
        }
        let rest = n - i;
        let vectors = rest.div_ceil(4);
        let lanes = rest - 4 * vectors.saturating_sub(1);
        match vectors {
            0 => {}
            1 => add_rows_block::<1>(out, src, starts, i, lanes),
            2 => add_rows_block::<2>(out, src, starts, i, lanes),
            3 => add_rows_block::<3>(out, src, starts, i, lanes),
            4 => add_rows_block::<4>(out, src, starts, i, lanes),
            5 => add_rows_block::<5>(out, src, starts, i, lanes),
            6 => add_rows_block::<6>(out, src, starts, i, lanes),
            7 => add_rows_block::<7>(out, src, starts, i, lanes),
            _ => add_rows_block::<8>(out, src, starts, i, lanes),
        }
    }

    /// Vector `v` of a `V`-vector block at `at`: the last one loads only
    /// the lanes that `mask` selects (zeros elsewhere).
    ///
    /// # Safety
    /// The CPU supports AVX2 and the selected values are readable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_block_pd<const V: usize>(at: *const f64, v: usize, mask: __m256i) -> __m256d {
        if v + 1 < V {
            _mm256_loadu_pd(at.add(4 * v))
        } else {
            _mm256_maskload_pd(at.add(4 * v), mask)
        }
    }

    /// The `4·V − 4 + lanes` elements from `i` of [`add_rows`], in `V`
    /// registers; the last register loads and stores only its first
    /// `lanes` (1 to 4) elements, so nothing past the block is touched.
    ///
    /// # Safety
    /// As [`add_rows`], with `i + 4·V − 4 + lanes <= out.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add_rows_block<const V: usize>(
        out: &mut [f64],
        src: &[f64],
        starts: &[usize],
        i: usize,
        lanes: usize,
    ) {
        let mask = _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(lanes as i64),
            _mm256_setr_epi64x(0, 1, 2, 3),
        );
        let op = out.as_mut_ptr().add(i);
        let sp = src.as_ptr().add(i);
        let mut acc = [_mm256_setzero_pd(); V];
        for (v, acc) in acc.iter_mut().enumerate() {
            *acc = load_block_pd::<V>(op, v, mask);
        }
        for &s in starts {
            let row = sp.add(s);
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_add_pd(*acc, load_block_pd::<V>(row, v, mask));
            }
        }
        for (v, &acc) in acc.iter().enumerate() {
            if v + 1 < V {
                _mm256_storeu_pd(op.add(4 * v), acc);
            } else {
                _mm256_maskstore_pd(op.add(4 * v), mask, acc);
            }
        }
    }

    /// [`super::tones_accum`] for a pass of `G` tones, four samples per
    /// vector; the tail runs the same operations one sample at a time.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tones_accum<const G: usize>(
        out: &mut [f64],
        tones: &[&[f64]],
        levels: &[f64],
    ) {
        let n = out.len();
        let n4 = n - n % 4;
        let op = out.as_mut_ptr();
        let mut tp = [std::ptr::null::<f64>(); G];
        let mut lv = [_mm256_setzero_pd(); G];
        for g in 0..G {
            tp[g] = tones[g].as_ptr();
            lv[g] = _mm256_set1_pd(levels[g]);
        }
        let mut i = 0usize;
        while i < n4 {
            let mut acc = _mm256_loadu_pd(op.add(i));
            for g in 0..G {
                acc = _mm256_add_pd(acc, _mm256_mul_pd(lv[g], _mm256_loadu_pd(tp[g].add(i))));
            }
            _mm256_storeu_pd(op.add(i), acc);
            i += 4;
        }
        for i in n4..n {
            let mut acc = *op.add(i);
            for g in 0..G {
                acc += levels[g] * *tp[g].add(i);
            }
            *op.add(i) = acc;
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
    pub(super) unsafe fn tone_fill_32(out: &mut [f32], ph: &mut [Cpx32; 8], rot8: Cpx32) {
        let n = out.len();
        let n8 = n - n % 8;
        let renorm_blocks = OSC_RENORM_SAMPLES / 8;
        let op = out.as_mut_ptr();
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
            _mm256_storeu_ps(op.add(i), re);
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
            *o = ph[j].re;
        }
    }

    /// [`super::tones_accum_32`] for a pass of `G` tones, eight samples
    /// per vector.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tones_accum_32<const G: usize>(
        out: &mut [f32],
        tones: &[&[f32]],
        levels: &[f32],
    ) {
        let n = out.len();
        let n8 = n - n % 8;
        let op = out.as_mut_ptr();
        let mut tp = [std::ptr::null::<f32>(); G];
        let mut lv = [_mm256_setzero_ps(); G];
        for g in 0..G {
            tp[g] = tones[g].as_ptr();
            lv[g] = _mm256_set1_ps(levels[g]);
        }
        let mut i = 0usize;
        while i < n8 {
            let mut acc = _mm256_loadu_ps(op.add(i));
            for g in 0..G {
                acc = _mm256_add_ps(acc, _mm256_mul_ps(lv[g], _mm256_loadu_ps(tp[g].add(i))));
            }
            _mm256_storeu_ps(op.add(i), acc);
            i += 8;
        }
        for i in n8..n {
            let mut acc = *op.add(i);
            for g in 0..G {
                acc += levels[g] * *tp[g].add(i);
            }
            *op.add(i) = acc;
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

    /// Runs `f` once on each available tier, asserts the outputs are
    /// bit-identical (skips the comparison on machines without AVX2) and
    /// returns the scalar tier's.
    fn assert_tiers_match<T: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> T) -> T {
        let before = tier();
        force_tier(SimdTier::Scalar);
        let scalar = f();
        if avx2_available() {
            force_tier(SimdTier::Avx2);
            let vector = f();
            assert_eq!(scalar, vector, "scalar and AVX2 tiers diverged");
        }
        force_tier(before);
        scalar
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
                    fft_stage(&mut d, &tw, len, inverse);
                    d
                });
            }
        }
    }

    #[test]
    fn fft_stages_tiers_bit_identical() {
        // Even and odd stage counts past the first: the leftover stage
        // runs alone.
        for n in [2usize, 4, 8, 16, 32, 1024, 2048] {
            let tw = fft_twiddles(n, |j, len| Cpx::cis(-TAU * j as f64 / len as f64));
            for inverse in [false, true] {
                assert_tiers_match(|| {
                    let mut d = cvec(n);
                    fft_stages(&mut d, &tw, inverse);
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
                let mut out = vec![Cpx::ZERO; h + 1];
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
            let mut spec = vec![Cpx::ZERO; h + 1];
            rfft_unzip(&z, &tw, h, &mut spec);
            let mut back = Vec::new();
            irfft_zip(&spec, &tw, h, &mut back);
            for (k, (&a, &b)) in back.iter().zip(&z).enumerate() {
                assert!((a - b).abs() < 1e-12, "bin {k}: {a} vs {b}");
            }
        }
    }

    /// `rvec(n)` from offset `seed`, with signed zeros and extreme
    /// magnitudes mixed in.
    fn rvec_edges(n: usize, seed: usize) -> Vec<f64> {
        const EDGES: [f64; 6] = [-0.0, 0.0, 1e300, -1e300, 1e-300, -5e-324];
        rvec(n + seed)[seed..]
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 5 == 2 { EDGES[(i / 5) % 6] } else { v })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every length through 67, so that every split of a slice into a
    /// vector loop and its epilogue runs, then the production sizes: a
    /// Doppler row's 300 range bins, the cold-start fold's 1,089 lags and a
    /// `cell_stream` capture's 3,840 samples.
    fn compiled_copy_lengths() -> impl Iterator<Item = usize> {
        (0..=67).chain([300, 1089, 3840])
    }

    #[test]
    fn sq_accum_and_peak_max_tiers_bit_identical() {
        for n in compiled_copy_lengths() {
            let (a, x) = (rvec_edges(n, 0), rvec_edges(n, 3));
            let (peak, got) = assert_tiers_match(|| {
                let mut acc = a.clone();
                sq_accum(&mut acc, &x);
                (peak_max(&acc), bits(&acc))
            });
            let want: Vec<f64> = a.iter().zip(&x).map(|(&a, &v)| a + v * v).collect();
            assert_eq!(got, bits(&want), "n {n}");
            assert_eq!(peak, peak_max(&want), "n {n}");
        }
    }

    #[test]
    fn norm_sq_accum_tiers_bit_identical() {
        for n in compiled_copy_lengths() {
            let acc0 = rvec_edges(n, 1);
            let row: Vec<Cpx> = (rvec_edges(n, 5).into_iter().zip(rvec_edges(n, 9)))
                .map(|(re, im)| Cpx::new(re, im))
                .collect();
            let got = assert_tiers_match(|| {
                let mut acc = acc0.clone();
                norm_sq_accum(&mut acc, &row);
                bits(&acc)
            });
            let want: Vec<f64> = (acc0.iter().zip(&row))
                .map(|(&a, z)| a + (z.re * z.re + z.im * z.im))
                .collect();
            assert_eq!(got, bits(&want), "f64 rows, n {n}");
            // f32 rows: each square in f32, widened once.
            let row: Vec<Cpx32> = row.iter().map(|&z| Cpx32::from_f64(z)).collect();
            let got = assert_tiers_match(|| {
                let mut acc = acc0.clone();
                norm_sq_accum(&mut acc, &row);
                bits(&acc)
            });
            let want: Vec<f64> = (acc0.iter().zip(&row))
                .map(|(&a, z)| a + (z.re * z.re + z.im * z.im) as f64)
                .collect();
            assert_eq!(got, bits(&want), "f32 rows, n {n}");
        }
    }

    #[test]
    fn round_tiers_match_libm() {
        let half = 0.5 - f64::EPSILON / 4.0;
        let two52 = (1u64 << 52) as f64;
        let mut x = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            half,
            -half,
            1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            1.0 - f64::EPSILON / 2.0,
            two52 - 0.5,
            two52 - 1.5,
            two52,
            two52 + 1.0,
            -(two52 - 0.5),
            1e300,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Every half-integer and its neighbours across the ADC's code range,
        // and scattered values, so every tail length runs too.
        for k in -4100..4100 {
            let m = k as f64 + 0.5;
            x.extend([
                m,
                f64::from_bits(m.to_bits() - 1),
                f64::from_bits(m.to_bits() + 1),
            ]);
        }
        x.extend(rvec(1013).iter().map(|v| v * 3000.0));
        for n in [x.len(), x.len() - 1, x.len() - 2, x.len() - 3] {
            let got = assert_tiers_match(|| {
                let mut y = x[..n].to_vec();
                round(&mut y);
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            let want: Vec<u64> = x[..n].iter().map(|v| v.round().to_bits()).collect();
            assert_eq!(got, want);
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
        // The weighted sum at the levels the radar calls it with, against
        // the expressions of the kernels it replaced, written out as plain
        // loops: one row at its weight (`acc + w·x`), and bands of rows at
        // level 1.0 onto a zeroed sum (`((0.0 + a) + b) + …`), the wider
        // bands in passes of four.
        for n in (0..=67).chain([256, 1024]) {
            let rows: Vec<Vec<f64>> = (0..7).map(|r| rvec_edges(n, 2 * r + 1)).collect();
            let acc0 = rvec_edges(n, 0);
            for w in [1.0, 1.0 / 9.0, 1.0 / 25.0] {
                let got = assert_tiers_match(|| {
                    let mut acc = acc0.clone();
                    tones_accum(&mut acc, &[&rows[0]], &[w]);
                    bits(&acc)
                });
                let want: Vec<f64> = (acc0.iter().zip(&rows[0]))
                    .map(|(&a, &x)| a + w * x)
                    .collect();
                assert_eq!(got, bits(&want), "acc + w·x, w {w}, n {n}");
            }
            for width in [1, 2, 3, 4, 5, 7] {
                let got = assert_tiers_match(|| {
                    let mut acc = vec![0.0; n];
                    for pass in rows[..width].chunks(TONES_PER_PASS) {
                        let pass: Vec<&[f64]> = pass.iter().map(|r| &r[..]).collect();
                        tones_accum(&mut acc, &pass, &[1.0; TONES_PER_PASS][..pass.len()]);
                    }
                    bits(&acc)
                });
                let want: Vec<f64> = (0..n)
                    .map(|i| rows[..width].iter().fold(0.0, |s, r| s + r[i]))
                    .collect();
                assert_eq!(got, bits(&want), "{width}-row band, n {n}");
            }
        }
    }

    #[test]
    fn goertzel_windowed_tiers_match_materialized_filter() {
        // xorshift64: deterministic shifts, frequencies, windows and rows.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut lengths = 0..;
        for case in 0..400 {
            // One to four vectors of streams per row; one to nine jobs, so
            // that the kernel runs whole groups of four and a remainder.
            let vectors = 1 + case % 4;
            let count = 1 + (case / 4) % 9;
            let stride = 4 * vectors;
            let rows: Vec<f64> = (0..131 * stride).map(|_| 4.0 * uniform() - 2.0).collect();
            // Every length 0..=130 shows up, in jobs of equal length (the
            // batched decisions) and of mixed lengths (joint part and tails).
            let same = case % 3 == 0;
            let n0 = lengths.next().unwrap() % 131;
            let windows: Vec<Vec<f64>> = (0..count)
                .map(|_| {
                    let n = if same {
                        n0
                    } else {
                        lengths.next().unwrap() % 131
                    };
                    (0..n).map(|_| uniform()).collect()
                })
                .collect();
            let freqs: Vec<f64> = (0..count).map(|_| 0.5 * uniform()).collect();
            let jobs: Vec<GoertzelJob<'_>> = (0..count)
                .map(|j| GoertzelJob {
                    coeffs: GoertzelCoeffs::new(freqs[j]),
                    window: &windows[j],
                    shifts: std::array::from_fn(|_| 3.0 * uniform() - 1.5),
                    column: (uniform() * vectors as f64) as usize,
                })
                .collect();
            let powers = assert_tiers_match(|| {
                let mut powers = vec![f64::NAN; 4 * count];
                goertzel_windowed(&rows, stride, &jobs, &mut powers);
                powers.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
            });
            for (j, job) in jobs.iter().enumerate() {
                for l in 0..4 {
                    let ac: Vec<f64> = (job.window.iter().enumerate())
                        .map(|(i, &w)| (rows[i * stride + 4 * job.column + l] - job.shifts[l]) * w)
                        .collect();
                    let want = crate::goertzel::goertzel_power(&ac, freqs[j]);
                    assert_eq!(
                        powers[4 * j + l],
                        want.to_bits(),
                        "case {case}, job {j}, stream {l}"
                    );
                }
            }
        }
        // An empty window reads nothing, whatever its column.
        let empty = GoertzelJob {
            coeffs: GoertzelCoeffs::new(0.2),
            window: &[],
            shifts: [1.0; 4],
            column: 3,
        };
        let powers = assert_tiers_match(|| {
            let mut powers = [f64::NAN; 4];
            goertzel_windowed(&[], 16, &[empty], &mut powers);
            powers.map(f64::to_bits)
        });
        assert_eq!(powers, [0.0f64.to_bits(); 4]);
    }

    #[test]
    fn lagged_products_tiers_match_per_lag_sums() {
        // xorshift64: deterministic lengths, lags and samples.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        // Every lag count from 1 to 70 (every block width, and a last
        // block that overlaps the one before), at random lags and lengths,
        // down to the shortest signal the lags allow.
        for lags in 1..=70 {
            for _ in 0..4 {
                let lag = next(40);
                let len = lag + lags + next(3) * next(200);
                let p: Vec<f64> = (0..len).map(|_| next(2001) as f64 / 1000.0 - 1.0).collect();
                let sums = assert_tiers_match(|| {
                    let mut sums = vec![f64::NAN; lags];
                    lagged_products(&p, lag, &mut sums);
                    sums.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                });
                for (j, &got) in sums.iter().enumerate() {
                    let mut want = 0.0;
                    for i in 0..len - lag - j {
                        want += p[i] * p[i + lag + j];
                    }
                    assert_eq!(
                        got,
                        want.to_bits(),
                        "{lags} lags from {lag}, {len} samples, lag {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn add_rows_tiers_match_row_by_row_adds() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        // Every width from 0 to 100 (whole 32-element blocks and every
        // remainder), with no rows, one row and many, overlapping or not.
        for width in 0..=100 {
            for rows in [0, 1, 2, 7, 33] {
                let src: Vec<f64> = (0..width + 300)
                    .map(|_| next(2001) as f64 / 1000.0 - 1.0)
                    .collect();
                let starts: Vec<usize> = (0..rows).map(|_| next(301)).collect();
                let init: Vec<f64> = (0..width)
                    .map(|_| next(2001) as f64 / 1000.0 - 1.0)
                    .collect();
                let got = assert_tiers_match(|| {
                    let mut out = init.clone();
                    add_rows(&mut out, &src, &starts);
                    out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                });
                let mut want = init.clone();
                for &s in &starts {
                    for (o, &x) in want.iter_mut().zip(&src[s..]) {
                        *o += x;
                    }
                }
                let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "width {width}, {rows} rows");
            }
        }
    }

    /// A 1–4 tone pass over an `out` that already holds a partial sum.
    fn accum_passes<T: Copy>(
        out: &[T],
        tones: &[Vec<T>],
        levels: &[T],
        accum: fn(&mut [T], &[&[T]], &[T]),
    ) -> Vec<Vec<T>> {
        (1..=TONES_PER_PASS)
            .map(|g| {
                let mut o = out.to_vec();
                let t: Vec<&[T]> = tones[..g].iter().map(|t| &t[..]).collect();
                accum(&mut o, &t, &levels[..g]);
                o
            })
            .collect()
    }

    #[test]
    fn tone_kernels_tiers_bit_identical() {
        let rots = [0.037, -0.2113, 0.4999, 0.0061].map(|f| Cpx::cis(TAU * f));
        let ph0s = [1.234, -2.9, 0.0, 0.77].map(Cpx::cis);
        let levels = [1.5, -0.25, 3.0e-3, 0.7];
        for n in [0usize, 1, 3, 4, 7, 8, 9, 255, 256, 257, 960, 1027] {
            let (tones, sums) = assert_tiers_match(|| {
                let tones: Vec<Vec<f64>> = (0..4)
                    .map(|j| {
                        let mut t = vec![f64::NAN; n];
                        tone_fill(&mut t, ph0s[j], rots[j]);
                        t
                    })
                    .collect();
                let sums = accum_passes(&rvec(n), &tones, &levels, tones_accum);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                (
                    tones.iter().map(|t| bits(t)).collect::<Vec<_>>(),
                    sums.iter().map(|s| bits(s)).collect::<Vec<_>>(),
                )
            });
            // A pass is the per-tone sequence `out += l·t`, tone by tone.
            let mut want = rvec(n);
            for (g, sum) in sums.iter().enumerate() {
                for (w, &t) in want.iter_mut().zip(&tones[g]) {
                    *w += levels[g] * f64::from_bits(t);
                }
                let got: Vec<f64> = sum.iter().map(|&b| f64::from_bits(b)).collect();
                assert_eq!(got, want, "n {n}, {} tones", g + 1);
            }
            // The f32 bodies perform the same operations on both tiers too.
            let levels32 = levels.map(|l| l as f32);
            assert_tiers_match(|| {
                let tones: Vec<Vec<f32>> = (0..4)
                    .map(|j| {
                        let mut t = vec![f32::NAN; n];
                        tone_fill_32(&mut t, ph0s[j], rots[j]);
                        t
                    })
                    .collect();
                let out: Vec<f32> = rvec(n).iter().map(|&x| x as f32).collect();
                let sums = accum_passes(&out, &tones, &levels32, tones_accum_32);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                (
                    tones.iter().map(|t| bits(t)).collect::<Vec<_>>(),
                    sums.iter().map(|s| bits(s)).collect::<Vec<_>>(),
                )
            });
        }
    }

    #[test]
    fn tone_fill_matches_direct_cos() {
        // The blocked recurrence must track amp·cos(phase0 + i·θ) to well
        // below the simulation noise floor over a chirp-length run.
        let n = 2000;
        let theta = TAU * 0.0173;
        let rot = Cpx::cis(theta);
        let ph0 = Cpx::cis(0.5);
        let mut tone = vec![0.0f64; n];
        tone_fill(&mut tone, ph0, rot);
        let mut out = vec![0.0f64; n];
        tones_accum(&mut out, &[&tone], &[2.0]);
        for (i, &o) in out.iter().enumerate() {
            let want = 2.0 * (0.5 + theta * i as f64).cos();
            assert!((o - want).abs() < 1e-9, "sample {i}: {o} vs {want}");
        }
    }

    #[test]
    fn tone_fill_32_tracks_f64() {
        let n = 1500;
        let rot = Cpx::cis(TAU * 0.0217);
        let ph0 = Cpx::cis(2.1);
        let amps: Vec<f64> = rvec(n).iter().map(|v| 1.0 + 0.5 * v).collect();
        let mut tone = vec![0.0f64; n];
        tone_fill(&mut tone, ph0, rot);
        let want: Vec<f64> = tone.iter().zip(&amps).map(|(t, a)| a * t).collect();
        for t in [SimdTier::Scalar, SimdTier::Avx2] {
            if t == SimdTier::Avx2 && !avx2_available() {
                continue;
            }
            let before = tier();
            force_tier(t);
            let mut tone32 = vec![0.0f32; n];
            tone_fill_32(&mut tone32, ph0, rot);
            force_tier(before);
            for (i, ((&g, &a), &w)) in tone32.iter().zip(&amps).zip(&want).enumerate() {
                let got = a as f32 * g;
                assert!(
                    (got as f64 - w).abs() < 1e-3,
                    "tier {t:?} sample {i}: {got} vs {w}"
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

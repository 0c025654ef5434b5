//! Plan-based FFT fast path.
//!
//! The free functions in [`crate::fft`] rebuild everything a transform needs
//! on every call: twiddle factors (incrementally, via the drift-prone
//! `w *= wlen` recurrence), the bit-reversal permutation, and — for
//! non-power-of-two lengths — the entire Bluestein chirp and kernel spectrum,
//! plus a fresh output allocation. Per-frame radar processing runs hundreds
//! of same-length transforms, so this module precomputes all of that once per
//! length and caches it:
//!
//! * [`FftPlan`] — an immutable, reusable plan for one length `N`. Holds the
//!   bit-reversal index table and an exact twiddle table (each entry is an
//!   independent `cis` evaluation, so there is no accumulated phase drift),
//!   or, for non-power-of-two `N`, the Bluestein chirp and pre-transformed
//!   kernel spectrum plus an inner power-of-two plan.
//! * [`RfftPlan`] — a real-input plan for even `N`: packs the signal into
//!   `N/2` complex samples, runs a half-length complex FFT, and unzips the
//!   result into the half spectrum — roughly half the work of a complex
//!   transform of length `N`.
//! * [`FftPlanner`] — a cache of plans keyed by length, with in-place
//!   `fft`/`ifft` entry points and internal scratch buffers so steady-state
//!   transforms perform no heap allocation.
//! * [`with_planner`] — a thread-local planner, so worker threads (e.g. the
//!   streaming runtime's stage pools) each hold their own plan cache with no
//!   locking.
//!
//! Everything here is generic over the sample precision ([`Real`]). f64
//! plans serve every length, forward and inverse. f32 plans — the frame
//! tier's range and Doppler FFTs — keep a narrower contract: power-of-two
//! lengths, forward transforms only. Their twiddle tables are evaluated
//! exactly in f64 and rounded once, so table error is one ulp rather than an
//! accumulated recurrence; there is no bit contract between the precisions.
//!
//! ## Scratch-buffer conventions
//!
//! `process`/`process_inverse` allocate scratch only when the plan needs it
//! (Bluestein); power-of-two plans never allocate. The `*_with_scratch`
//! variants take a caller-owned `Vec<Complex<T>>` that is resized as needed
//! and can be reused across calls — [`FftPlanner`] routes its entry points
//! through its own scratch, so planner users get allocation-free steady
//! state without managing buffers themselves. Scratch contents are
//! unspecified on return.

use crate::complex::{Complex, Cpx};
use crate::fft::{is_pow2, next_pow2};
use crate::real::Real;
use crate::TAU;
use biscatter_obs::metrics::Counter;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::OnceLock;

/// Registry handles for plan-cache telemetry, resolved once per process.
/// Hits/misses count lookups in *any* thread's planner (the caches are
/// per-thread, the counters are global), so a streaming run's hit rate
/// reflects how well `warm_dsp_plans` pre-seeded the workers.
struct PlanCacheMetrics {
    hits: Counter,
    misses: Counter,
    built_radix2: Counter,
    built_bluestein: Counter,
    built_rfft: Counter,
    rfft_calls: Counter,
    irfft_calls: Counter,
}

fn cache_metrics() -> &'static PlanCacheMetrics {
    static METRICS: OnceLock<PlanCacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = biscatter_obs::registry();
        PlanCacheMetrics {
            hits: r.counter("dsp.plan_cache.hits"),
            misses: r.counter("dsp.plan_cache.misses"),
            built_radix2: r.counter("dsp.plan_cache.built_radix2"),
            built_bluestein: r.counter("dsp.plan_cache.built_bluestein"),
            built_rfft: r.counter("dsp.plan_cache.built_rfft"),
            rfft_calls: r.counter("dsp.fft.rfft_calls"),
            irfft_calls: r.counter("dsp.fft.irfft_calls"),
        }
    })
}

/// A reusable transform plan for one length.
///
/// Construction is `O(N log N)` (it runs one FFT to pre-transform the
/// Bluestein kernel when `N` is not a power of two); every subsequent
/// [`FftPlan::process`] call reuses the tables. Plans are immutable — share
/// them freely via [`Rc`] (they are thread-local by design; see
/// [`with_planner`]).
pub struct FftPlan<T: Real = f64> {
    n: usize,
    kind: PlanKind<T>,
}

enum PlanKind<T: Real> {
    /// `n <= 1`: the transform is the identity.
    Trivial,
    /// Iterative radix-2 Cooley–Tukey with precomputed tables.
    Radix2 {
        /// `bitrev[i]` = bit-reversed index of `i` (within `log2(n)` bits).
        bitrev: Vec<u32>,
        /// Stage-contiguous twiddles ([`Real::fft_twiddles`]): for each
        /// stage `len = 4, 8, .., n` the `len/2` factors [`twiddle`]`(j,
        /// len)` back to back, so every stage reads a dense block the
        /// vector kernels load directly — no strided gather. f64 stores
        /// them pre-broadcast for its AVX2 multiply
        /// ([`crate::simd::fft_twiddles`]), f32 as complex values. The
        /// inverse conjugates on the fly.
        stage_tw: Vec<T::Twiddle>,
    },
    /// Bluestein chirp-z: DFT as circular convolution at length `m`.
    Bluestein {
        /// Power-of-two convolution length `>= 2n - 1`.
        m: usize,
        /// `chirp[k] = e^{-i π k² / n}` (forward convention), `k in 0..n`.
        chirp: Vec<Complex<T>>,
        /// Forward FFT (length `m`) of the zero-padded conjugate-chirp
        /// kernel `b[k] = b[m-k] = conj(chirp[k])`.
        kernel_spec: Vec<Complex<T>>,
        /// Inner power-of-two plan of length `m`.
        inner: Rc<FftPlan<T>>,
    },
}

impl<T: Real> FftPlan<T> {
    /// Builds a plan for length `n`, constructing any inner power-of-two
    /// plan itself. Prefer [`FftPlanner::plan`], which shares inner plans
    /// across cached lengths.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two and the precision has no
    /// Bluestein plans (f32).
    pub fn new(n: usize) -> Self {
        Self::build(n, |m| Rc::new(FftPlan::new(m)))
    }

    fn build(n: usize, inner_plan: impl FnOnce(usize) -> Rc<Self>) -> Self {
        if n <= 1 {
            return FftPlan {
                n,
                kind: PlanKind::Trivial,
            };
        }
        if is_pow2(n) {
            let bits = n.trailing_zeros();
            let bitrev = (0..n as u32)
                .map(|i| i.reverse_bits() >> (32 - bits))
                .collect();
            return FftPlan {
                n,
                kind: PlanKind::Radix2 {
                    bitrev,
                    stage_tw: T::fft_twiddles(n, twiddle),
                },
            };
        }

        assert!(
            T::FULL_PLANNER,
            "f32 plans require a power-of-two length, got {n}"
        );
        let m = next_pow2(2 * n - 1);
        let inner = inner_plan(m);
        // k² mod 2n keeps the phase argument small and exact for large k.
        let chirp: Vec<Complex<T>> = (0..n)
            .map(|k| {
                let k2 = (k as u64 * k as u64) % (2 * n as u64);
                Complex::from_f64(Cpx::cis(-std::f64::consts::PI * k2 as f64 / n as f64))
            })
            .collect();
        let mut kernel_spec = vec![Complex::ZERO; m];
        kernel_spec[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            kernel_spec[k] = c;
            kernel_spec[m - k] = c;
        }
        inner.process(&mut kernel_spec);
        FftPlan {
            n,
            kind: PlanKind::Bluestein {
                m,
                chirp,
                kernel_spec,
                inner,
            },
        }
    }

    /// In-place forward DFT (unnormalized). Allocates scratch internally for
    /// Bluestein lengths; power-of-two lengths never allocate.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the planned length.
    pub fn process(&self, data: &mut [Complex<T>]) {
        let mut scratch = Vec::new();
        self.process_with_scratch(data, &mut scratch);
    }

    /// Forward DFTs of `width` columns side by side: `block[i·width + j]`
    /// ends as bin `i` of column `j`, bit for bit what
    /// [`FftPlan::process`] gives that column alone. `gather(i, row)`
    /// writes sample `i` of every column into `row` (`width` values); the
    /// row it is handed is already sample `i`'s bit-reversed slot, so the
    /// transform runs no permutation pass. Allocation-free.
    ///
    /// # Panics
    /// Panics if `block.len()` is not `width` times the planned length, or
    /// the length is not a power of two.
    pub fn process_columns(
        &self,
        block: &mut [Complex<T>],
        width: usize,
        mut gather: impl FnMut(usize, &mut [Complex<T>]),
    ) {
        assert_eq!(
            block.len(),
            self.n * width,
            "plan is for {} rows of {width} columns, got {} values",
            self.n,
            block.len()
        );
        match &self.kind {
            PlanKind::Trivial => (0..self.n).for_each(|i| gather(i, block)),
            PlanKind::Radix2 { bitrev, stage_tw } => {
                for (i, &rev) in bitrev.iter().enumerate() {
                    gather(i, &mut block[rev as usize * width..][..width]);
                }
                T::fft_columns(block, width, stage_tw);
            }
            PlanKind::Bluestein { .. } => {
                panic!(
                    "column transforms need a power-of-two length, got {}",
                    self.n
                )
            }
        }
    }

    /// In-place inverse DFT, including the `1/N` normalization.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the planned length, or for f32
    /// plans (forward only).
    pub fn process_inverse(&self, data: &mut [Complex<T>]) {
        let mut scratch = Vec::new();
        self.process_inverse_with_scratch(data, &mut scratch);
    }

    /// [`FftPlan::process`] with a caller-owned scratch buffer (resized as
    /// needed, contents unspecified afterwards). Power-of-two plans ignore
    /// it entirely.
    pub fn process_with_scratch(&self, data: &mut [Complex<T>], scratch: &mut Vec<Complex<T>>) {
        assert_eq!(
            data.len(),
            self.n,
            "plan is for length {}, got {}",
            self.n,
            data.len()
        );
        match &self.kind {
            PlanKind::Trivial => {}
            PlanKind::Radix2 { bitrev, stage_tw } => radix2(data, bitrev, stage_tw, false),
            PlanKind::Bluestein {
                m,
                chirp,
                kernel_spec,
                inner,
            } => {
                scratch.clear();
                scratch.resize(*m, Complex::ZERO);
                T::cmul_into(&mut scratch[..self.n], data, chirp);
                inner.process(scratch);
                T::cmul_assign(scratch, kernel_spec);
                inner.process_inverse(scratch);
                T::cmul_into(data, &scratch[..self.n], chirp);
            }
        }
    }

    /// [`FftPlan::process_inverse`] with a caller-owned scratch buffer.
    pub fn process_inverse_with_scratch(
        &self,
        data: &mut [Complex<T>],
        scratch: &mut Vec<Complex<T>>,
    ) {
        assert!(T::FULL_PLANNER, "f32 plans are forward-only");
        assert_eq!(
            data.len(),
            self.n,
            "plan is for length {}, got {}",
            self.n,
            data.len()
        );
        match &self.kind {
            PlanKind::Trivial => {}
            PlanKind::Radix2 { bitrev, stage_tw } => {
                radix2(data, bitrev, stage_tw, true);
                let s = T::from_f64(1.0 / self.n as f64);
                for z in data.iter_mut() {
                    *z = z.scale(s);
                }
            }
            PlanKind::Bluestein { .. } => {
                // ifft(x) = conj(fft(conj(x))) / N reuses the forward chirp
                // and kernel, halving the tables a Bluestein plan carries.
                for z in data.iter_mut() {
                    *z = z.conj();
                }
                self.process_with_scratch(data, scratch);
                let s = T::from_f64(1.0 / self.n as f64);
                for z in data.iter_mut() {
                    *z = z.conj().scale(s);
                }
            }
        }
    }
}

/// Factor `j` of radix-2 stage `len`, `e^{-i 2π j / len}`: one exact
/// `cis` evaluation per table entry. Entries are bit-identical to the
/// classic strided table (`j/len` and `(j·stride)/n` round identically).
fn twiddle(j: usize, len: usize) -> Cpx {
    Cpx::cis(-TAU * j as f64 / len as f64)
}

/// Radix-2 butterflies over precomputed tables, unnormalized in both
/// directions. Each twiddle is an exact table entry (conjugated for the
/// inverse), so there is no dependence chain between butterflies and no
/// accumulated phase drift — unlike the incremental `w *= wlen` recurrence
/// in [`crate::fft::reference`]. The stage loops live in [`crate::simd`]
/// behind runtime dispatch; both dispatch tiers produce bit-identical f64
/// results.
fn radix2<T: Real>(
    data: &mut [Complex<T>],
    bitrev: &[u32],
    stage_tw: &[T::Twiddle],
    inverse: bool,
) {
    let n = data.len();
    for (i, &rev) in bitrev.iter().enumerate() {
        let j = rev as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    if n < 2 {
        return;
    }
    first_stage(data);
    T::fft_stages(data, stage_tw, inverse);
}

/// The first radix-2 stage over bit-reversed data: every twiddle is 1, so
/// each adjacent pair `(u, v)` becomes `(u + v, u − v)` — no table reads,
/// no complex multiplies. One loop for both precisions and both dispatch
/// tiers: its baseline SSE2 code measured faster than a hand-written AVX2
/// body at every length from 32 to 1,024 (EXPERIMENTS.md). Public so the
/// kernels bench can time it.
pub fn first_stage<T: Real>(data: &mut [Complex<T>]) {
    for pair in data.chunks_exact_mut(2) {
        let (u, v) = (pair[0], pair[1]);
        pair[0] = u + v;
        pair[1] = u - v;
    }
}

/// The packed half-length signal `z[k] = x[2k] + i·x[2k+1]` gathered in
/// bit-reversed order with the first radix-2 stage applied: slot `2k`
/// pairs `z[bitrev[2k]]` with `z[bitrev[2k+1]]`, the same values and the
/// same add/subtract that packing, the in-place swap and
/// [`first_stage`] produce, in one pass. `out` is resized to the
/// half length (every slot is written).
fn gather_first_stage<T: Real>(input: &[T], bitrev: &[u32], out: &mut Vec<Complex<T>>) {
    out.resize(bitrev.len(), Complex::ZERO);
    let z = |k: u32| Complex::new(input[2 * k as usize], input[2 * k as usize + 1]);
    for (pair, rev) in out.chunks_exact_mut(2).zip(bitrev.chunks_exact(2)) {
        let (u, v) = (z(rev[0]), z(rev[1]));
        pair[0] = u + v;
        pair[1] = u - v;
    }
}

/// A real-input FFT plan for even lengths (powers of two in f32).
///
/// Packs the `N` real samples into `N/2` complex values
/// (`z[k] = x[2k] + i·x[2k+1]`), transforms at half length, and unzips into
/// the `N/2 + 1` half spectrum (the upper bins of a real signal's spectrum
/// are the conjugate mirror, so nothing is lost). With a radix-2 inner
/// plan the packing gathers in bit-reversed order and applies the first
/// stage on the way (`gather_first_stage`).
pub struct RfftPlan<T: Real = f64> {
    n: usize,
    /// Complex plan of length `n/2`.
    inner: Rc<FftPlan<T>>,
    /// `twiddle[k] = e^{-i 2π k / n}` for `k in 0..=n/2`.
    twiddle: Vec<Complex<T>>,
}

impl<T: Real> RfftPlan<T> {
    /// Builds a real-FFT plan for even `n >= 2` around `inner_plan(n / 2)`;
    /// [`FftPlanner::rfft_plan`] calls it with the cached inner plan.
    ///
    /// # Panics
    /// Panics if `n` is odd or zero (odd lengths have no packed fast path;
    /// use a complex [`FftPlan`] on a widened buffer instead).
    fn build(n: usize, inner_plan: impl FnOnce(usize) -> Rc<FftPlan<T>>) -> Self {
        assert!(
            n >= 2 && n % 2 == 0,
            "RfftPlan requires even n >= 2, got {n}"
        );
        let inner = inner_plan(n / 2);
        let twiddle = (0..=n / 2)
            .map(|k| Complex::from_f64(Cpx::cis(-TAU * k as f64 / n as f64)))
            .collect();
        RfftPlan { n, inner, twiddle }
    }

    /// Forward transform of `input` (length `n`) into the half spectrum
    /// bins `0..=n/2`, written to `out` (resized). `scratch` holds the
    /// packed half-length signal between calls; reusing it makes
    /// steady-state calls allocation-free.
    ///
    /// # Panics
    /// Panics if `input.len()` differs from the planned length.
    pub fn process_with_scratch(
        &self,
        input: &[T],
        out: &mut Vec<Complex<T>>,
        scratch: &mut Vec<Complex<T>>,
    ) {
        out.resize(self.n / 2 + 1, Complex::ZERO);
        self.process_into(input, out, scratch);
    }

    /// [`RfftPlan::process_with_scratch`] into a caller-sized slice of
    /// `n/2 + 1` bins (a row of a spectrum slab).
    ///
    /// # Panics
    /// Panics if `input.len()` differs from the planned length or
    /// `out.len()` from `n/2 + 1`.
    pub fn process_into(&self, input: &[T], out: &mut [Complex<T>], scratch: &mut Vec<Complex<T>>) {
        assert_eq!(
            input.len(),
            self.n,
            "rfft plan is for length {}, got {}",
            self.n,
            input.len()
        );
        let h = self.n / 2;
        match &self.inner.kind {
            PlanKind::Radix2 { bitrev, stage_tw } => {
                gather_first_stage(input, bitrev, scratch);
                T::fft_stages(scratch, stage_tw, false);
            }
            _ => {
                scratch.clear();
                scratch.extend((0..h).map(|k| Complex::new(input[2 * k], input[2 * k + 1])));
                self.inner.process(scratch);
            }
        }

        // Unzip: with Z the packed transform, E[k]/O[k] the transforms of
        // the even/odd samples,
        //   E[k] = (Z[k] + conj(Z[h-k])) / 2
        //   O[k] = (Z[k] - conj(Z[h-k])) / 2i
        //   X[k] = E[k] + e^{-i 2π k / n} · O[k]
        // (indices mod h, so Z[h] wraps to Z[0]). The loop lives in
        // [`crate::simd`] behind runtime dispatch.
        T::rfft_unzip(scratch, &self.twiddle, h, out);
    }
}

impl RfftPlan {
    /// Inverse transform: reconstructs the `n` real samples from the half
    /// spectrum `spec` (bins `0..=n/2`), written to `out` (resized).
    /// Normalization is included, so `inverse(process(x))`
    /// recovers `x` up to rounding — no extra `1/N` scaling is needed.
    ///
    /// This is the packed inverse of [`RfftPlan::process_with_scratch`]:
    /// the zip recovers the half-length packed transform from the half
    /// spectrum (the forward unzip relations solved for `E`/`O`, using the
    /// conjugate of the unit-modulus twiddle), then one half-length inverse
    /// complex FFT and an unpack `x[2k] = Re z[k]·s`, `x[2k+1] = Im z[k]·s`
    /// that applies the inverse's `s = 1/(n/2)` factor (the same multiply
    /// the complex inverse would make, one pass fewer). Roughly half the
    /// work of a full complex inverse of length `n`, same as on the forward
    /// side. The zip loop lives in [`crate::simd`] behind runtime dispatch.
    ///
    /// `scratch` holds the packed signal between calls; reusing it makes
    /// steady-state calls allocation-free for power-of-two `n` (an odd
    /// half-length falls to a Bluestein inner plan, which allocates its own
    /// convolution scratch — exactly like the forward path).
    ///
    /// # Panics
    /// Panics if `spec.len()` differs from `n/2 + 1`.
    pub fn inverse(&self, spec: &[Cpx], out: &mut Vec<f64>, scratch: &mut Vec<Cpx>) {
        assert_eq!(
            spec.len(),
            self.n / 2 + 1,
            "irfft plan is for {} half-spectrum bins, got {}",
            self.n / 2 + 1,
            spec.len()
        );
        let h = self.n / 2;
        crate::simd::irfft_zip(spec, &self.twiddle, h, scratch);
        out.resize(self.n, 0.0);
        if let PlanKind::Radix2 { bitrev, stage_tw } = &self.inner.kind {
            radix2(scratch, bitrev, stage_tw, true);
            let s = 1.0 / h as f64;
            for (pair, z) in out.chunks_exact_mut(2).zip(scratch.iter()) {
                pair[0] = z.re * s;
                pair[1] = z.im * s;
            }
        } else {
            self.inner.process_inverse(scratch);
            for (pair, z) in out.chunks_exact_mut(2).zip(scratch.iter()) {
                pair[0] = z.re;
                pair[1] = z.im;
            }
        }
    }
}

/// A per-thread cache of [`FftPlan`]s and [`RfftPlan`]s keyed by length,
/// plus internal scratch buffers, giving allocation-free in-place transforms
/// once a length has been seen.
#[derive(Default)]
pub struct FftPlanner<T: Real = f64> {
    plans: HashMap<usize, Rc<FftPlan<T>>>,
    rplans: HashMap<usize, Rc<RfftPlan<T>>>,
    /// Bluestein convolution scratch, passed to `process_with_scratch`.
    scratch: Vec<Complex<T>>,
    /// Complex working buffer for real-input transforms.
    pack: Vec<Complex<T>>,
    /// Real working buffer lent out by [`FftPlanner::with_real_scratch`].
    real_scratch: Vec<T>,
    /// Complex working buffer lent out by [`FftPlanner::with_cpx_scratch`].
    cpx_scratch: Vec<Complex<T>>,
    /// Table buffer lent out by [`FftPlanner::take_table`].
    table: Vec<T>,
    /// Row buffer lent out by [`FftPlanner::take_row`].
    row: Vec<T>,
}

impl<T: Real> FftPlanner<T> {
    /// An empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached plan for length `n`, building it on first use. Bluestein
    /// lengths share their inner power-of-two plan with the cache.
    pub fn plan(&mut self, n: usize) -> Rc<FftPlan<T>> {
        let cm = cache_metrics();
        if let Some(p) = self.plans.get(&n) {
            cm.hits.inc();
            return Rc::clone(p);
        }
        cm.misses.inc();
        let plan = if !is_pow2(n) && n > 1 {
            cm.built_bluestein.inc();
            let m = next_pow2(2 * n - 1);
            let inner = self.plan(m);
            Rc::new(FftPlan::build(n, |_| inner))
        } else {
            if n > 1 {
                cm.built_radix2.inc();
            }
            Rc::new(FftPlan::new(n))
        };
        self.plans.insert(n, Rc::clone(&plan));
        plan
    }

    /// The cached real-FFT plan for even length `n`, building it on first
    /// use (its half-length inner plan is shared with [`FftPlanner::plan`]).
    ///
    /// # Panics
    /// Panics if `n` is odd or zero (or, in f32, not a power of two).
    pub fn rfft_plan(&mut self, n: usize) -> Rc<RfftPlan<T>> {
        let cm = cache_metrics();
        if let Some(p) = self.rplans.get(&n) {
            cm.hits.inc();
            return Rc::clone(p);
        }
        cm.misses.inc();
        cm.built_rfft.inc();
        let inner = self.plan(n / 2);
        let plan = Rc::new(RfftPlan::build(n, |_| inner));
        self.rplans.insert(n, Rc::clone(&plan));
        plan
    }

    /// In-place forward DFT through the cached plan for `data.len()`.
    pub fn fft_in_place(&mut self, data: &mut [Complex<T>]) {
        let plan = self.plan(data.len());
        plan.process_with_scratch(data, &mut self.scratch);
    }

    /// In-place inverse DFT (normalized by `1/N`) through the cached plan.
    ///
    /// # Panics
    /// Panics for f32 planners (forward only).
    pub fn ifft_in_place(&mut self, data: &mut [Complex<T>]) {
        let plan = self.plan(data.len());
        plan.process_inverse_with_scratch(data, &mut self.scratch);
    }

    /// Half spectrum (bins `0..=N/2`) of a real signal, written to `out`
    /// (cleared and resized to `N/2 + 1`; empty input gives empty output).
    /// Even lengths use the packed [`RfftPlan`]; odd lengths fall back to a
    /// widened complex transform through the plan cache.
    pub fn rfft_half_into(&mut self, input: &[T], out: &mut Vec<Complex<T>>) {
        let n = input.len();
        if n == 0 {
            out.clear();
            return;
        }
        if n % 2 == 0 {
            cache_metrics().rfft_calls.inc();
            let plan = self.rfft_plan(n);
            plan.process_with_scratch(input, out, &mut self.pack);
        } else {
            let plan = self.plan(n);
            let mut buf = std::mem::take(&mut self.pack);
            buf.clear();
            buf.extend(input.iter().map(|&x| Complex::real(x)));
            plan.process_with_scratch(&mut buf, &mut self.scratch);
            out.clear();
            out.extend_from_slice(&buf[..n / 2 + 1]);
            self.pack = buf;
        }
    }

    /// Lends a zeroed real buffer of length `len` alongside the planner, so
    /// callers can window/pack into reusable storage and transform it in one
    /// scope without allocating per call.
    pub fn with_real_scratch<R>(
        &mut self,
        len: usize,
        f: impl FnOnce(&mut Self, &mut Vec<T>) -> R,
    ) -> R {
        let mut buf = std::mem::take(&mut self.real_scratch);
        buf.clear();
        buf.resize(len, T::ZERO);
        let r = f(self, &mut buf);
        self.real_scratch = buf;
        r
    }

    /// Lends this thread's table buffer by value (contents unspecified,
    /// capacity kept from earlier frames): storage for a table that this
    /// thread builds and a pool fan-out then reads. The planner must not
    /// stay borrowed across a fan-out — the caller runs tasks too, and
    /// would re-enter it — so the buffer leaves the planner and comes back
    /// through [`FftPlanner::put_table`].
    pub fn take_table(&mut self) -> Vec<T> {
        std::mem::take(&mut self.table)
    }

    /// Returns the buffer [`FftPlanner::take_table`] lent.
    pub fn put_table(&mut self, table: Vec<T>) {
        self.table = table;
    }

    /// Lends this thread's row buffer by value (contents unspecified,
    /// capacity kept from earlier frames): one row that this thread fills
    /// through code that borrows the planner itself, then transforms — a
    /// synthesized IF row before its range FFT. It comes back through
    /// [`FftPlanner::put_row`].
    pub fn take_row(&mut self) -> Vec<T> {
        std::mem::take(&mut self.row)
    }

    /// Returns the buffer [`FftPlanner::take_row`] lent.
    pub fn put_row(&mut self, row: Vec<T>) {
        self.row = row;
    }

    /// [`FftPlanner::with_real_scratch`] for a complex buffer: per-thread
    /// working storage (a spectrum, a block of Doppler columns) that stays
    /// allocated across calls.
    pub fn with_cpx_scratch<R>(
        &mut self,
        len: usize,
        f: impl FnOnce(&mut Self, &mut Vec<Complex<T>>) -> R,
    ) -> R {
        let mut buf = std::mem::take(&mut self.cpx_scratch);
        buf.clear();
        buf.resize(len, Complex::ZERO);
        let r = f(self, &mut buf);
        self.cpx_scratch = buf;
        r
    }
}

impl FftPlanner {
    /// Real signal (length `2·(spec.len() − 1)`) from its half spectrum,
    /// through the cached [`RfftPlan`]: the packed inverse of
    /// [`FftPlanner::rfft_half_into`], normalization included.
    ///
    /// # Panics
    /// Panics if `spec` has fewer than two bins (the shortest real plan is
    /// `n = 2`, i.e. a two-bin half spectrum).
    pub fn irfft_into(&mut self, spec: &[Cpx], out: &mut Vec<f64>) {
        assert!(
            spec.len() >= 2,
            "irfft needs at least two half-spectrum bins"
        );
        cache_metrics().irfft_calls.inc();
        let plan = self.rfft_plan(2 * (spec.len() - 1));
        plan.inverse(spec, out, &mut self.pack);
    }

    /// Full complex spectrum (length `N`) of a real signal: the half
    /// spectrum plus its conjugate mirror. Drop-in replacement for
    /// [`crate::fft::rfft`] at roughly half the transform work.
    pub fn rfft_full(&mut self, input: &[f64]) -> Vec<Cpx> {
        let n = input.len();
        let mut half = Vec::new();
        self.rfft_half_into(input, &mut half);
        let mut out = half;
        out.resize(n, Cpx::ZERO);
        for k in n / 2 + 1..n {
            out[k] = out[n - k].conj();
        }
        out
    }
}

/// Runs `f` with this thread's planner for precision `T`. Every thread gets
/// its own plan cache per precision, so worker pools (e.g. the runtime's
/// frame workers) share plans within a thread and never contend across
/// threads. The planner also lends the per-thread working buffers
/// ([`FftPlanner::with_real_scratch`], [`FftPlanner::with_cpx_scratch`])
/// that generic frame code needs, since a `thread_local!` cannot be generic.
///
/// # Panics
/// Panics if called re-entrantly from within `f` for the same precision
/// (the planner is a single `RefCell`); keep planner scopes flat.
pub fn with_planner<T: Real, R>(f: impl FnOnce(&mut FftPlanner<T>) -> R) -> R {
    T::planner().with(|p| f(&mut p.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::reference;

    fn assert_close(a: &[Cpx], b: &[Cpx], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y} (tol {tol})");
        }
    }

    fn test_vec(n: usize) -> Vec<Cpx> {
        (0..n)
            .map(|i| {
                let x = ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0;
                let y = ((i * 40503 + 7) % 1000) as f64 / 500.0 - 1.0;
                Cpx::new(x, y)
            })
            .collect()
    }

    #[test]
    fn plan_matches_reference_engine() {
        for &n in &[1usize, 2, 4, 8, 100, 255, 256, 1000] {
            let x = test_vec(n);
            let mut y = x.clone();
            FftPlan::new(n).process(&mut y);
            assert_close(&y, &reference::fft(&x), 1e-9 * (n.max(1) as f64));
        }
    }

    #[test]
    fn plan_inverse_round_trips() {
        let mut planner = FftPlanner::new();
        for &n in &[2usize, 8, 60, 128, 255] {
            let x = test_vec(n);
            let mut y = x.clone();
            planner.fft_in_place(&mut y);
            planner.ifft_in_place(&mut y);
            assert_close(&y, &x, 1e-9);
        }
    }

    #[test]
    fn planner_caches_plans() {
        let mut planner: FftPlanner = FftPlanner::new();
        let a = planner.plan(64);
        let b = planner.plan(64);
        assert!(Rc::ptr_eq(&a, &b));
        // A Bluestein length's inner plan is shared with the pow2 cache.
        let _ = planner.plan(100); // inner m = 256
        let inner = planner.plan(256);
        assert_eq!(inner.n, 256);
    }

    #[test]
    fn rfft_plan_matches_complex_transform() {
        let mut planner = FftPlanner::new();
        for &n in &[2usize, 4, 16, 64, 250, 1024] {
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 37 + 11) % 100) as f64 / 50.0 - 1.0)
                .collect();
            let mut half = Vec::new();
            planner.rfft_half_into(&x, &mut half);
            let mut full: Vec<Cpx> = x.iter().map(|&v| Cpx::real(v)).collect();
            planner.fft_in_place(&mut full);
            assert_close(&half, &full[..n / 2 + 1], 1e-9 * n as f64);
        }
    }

    #[test]
    fn rfft_full_mirrors_conjugate() {
        let mut planner = FftPlanner::new();
        for &n in &[8usize, 9, 64, 101] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let spec = planner.rfft_full(&x);
            assert_eq!(spec.len(), n);
            for k in 1..n {
                assert!((spec[k] - spec[n - k].conj()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_consistent() {
        // Same plan, same data, scratch carried across dissimilar calls.
        let mut planner = FftPlanner::new();
        let x = test_vec(100);
        let mut a = x.clone();
        planner.fft_in_place(&mut a);
        let mut warm = x.clone();
        planner.fft_in_place(&mut warm); // scratch now warm
        assert_close(&a, &warm, 0.0_f64.max(1e-300));
    }

    #[test]
    fn trivial_lengths() {
        let mut planner = FftPlanner::new();
        let mut empty: Vec<Cpx> = Vec::new();
        planner.fft_in_place(&mut empty);
        assert!(empty.is_empty());
        let mut one = vec![Cpx::new(2.0, 3.0)];
        planner.fft_in_place(&mut one);
        assert_eq!(one[0], Cpx::new(2.0, 3.0));
        let mut out = Vec::new();
        planner.rfft_half_into(&[], &mut out);
        assert!(out.is_empty());
        planner.rfft_half_into(&[5.0], &mut out);
        assert_eq!(out, vec![Cpx::real(5.0)]);
    }

    #[test]
    #[should_panic(expected = "plan is for length")]
    fn plan_rejects_wrong_length() {
        let plan = FftPlan::new(8);
        let mut x = vec![Cpx::ZERO; 4];
        plan.process(&mut x);
    }

    #[test]
    fn planned_4096_tone_leakage_below_1e9() {
        // Twiddle-accuracy regression: a pure bin-k tone transforms to a
        // single bin of magnitude N; every other bin is leakage. The
        // incremental-phasor reference degrades with N because its twiddles
        // accumulate rounding over n/2 successive multiplies; the table-based
        // plan must stay at the 1e-9 relative level (it sits near 1e-12).
        let n = 4096;
        let k = 517;
        let mut x: Vec<Cpx> = (0..n)
            .map(|i| Cpx::cis(TAU * k as f64 * i as f64 / n as f64))
            .collect();
        FftPlan::new(n).process(&mut x);
        let mut worst = 0.0f64;
        for (i, z) in x.iter().enumerate() {
            if i == k {
                assert!((z.abs() - n as f64).abs() / (n as f64) < 1e-9);
            } else {
                worst = worst.max(z.abs());
            }
        }
        let relative = worst / n as f64;
        assert!(relative <= 1e-9, "relative leakage {relative:e}");
    }

    fn real_vec(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 + 11) % 100) as f64 / 50.0 - 1.0)
            .collect()
    }

    #[test]
    fn f32_plan_tracks_f64_plan() {
        let mut p64 = FftPlanner::new();
        for &n in &[1usize, 2, 4, 64, 512] {
            let x = real_vec(n);
            let mut want: Vec<Cpx> = x.iter().map(|&v| Cpx::real(v)).collect();
            p64.fft_in_place(&mut want);
            let mut got: Vec<Complex<f32>> = x.iter().map(|&v| Complex::real(v as f32)).collect();
            FftPlan::new(n).process(&mut got);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                let err = (g.to_f64() - *w).abs();
                assert!(err < 2e-4 * n as f64, "n={n} bin {k}: err {err}");
            }
        }
    }

    #[test]
    fn f32_rfft_tracks_f64_rfft() {
        let mut p64 = FftPlanner::new();
        let mut p32 = FftPlanner::<f32>::new();
        for &n in &[2usize, 8, 256, 1024] {
            let x = real_vec(n);
            let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            let mut want = Vec::new();
            p64.rfft_half_into(&x, &mut want);
            let mut got = Vec::new();
            p32.rfft_half_into(&x32, &mut got);
            assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                let err = (g.to_f64() - *w).abs();
                assert!(err < 2e-4 * n as f64, "n={n} bin {k}: err {err}");
            }
        }
    }

    /// The radix-2 transform as the plans ran it one stage at a time: the
    /// in-place bit-reversal swap, the first stage, then one
    /// [`crate::simd::fft_stage`] per stage over complex twiddles.
    /// Unnormalized; `n >= 2`.
    fn radix2_oracle(data: &mut [Cpx], inverse: bool) {
        let n = data.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        first_stage(data);
        let mut len = 4;
        while len <= n {
            let tw: Vec<Cpx> = (0..len / 2).map(|j| twiddle(j, len)).collect();
            crate::simd::fft_stage(data, &tw, len, inverse);
            len <<= 1;
        }
    }

    /// `RfftPlan`'s unzip/zip twiddles for real length `n`.
    fn rfft_twiddles(n: usize) -> Vec<Cpx> {
        (0..=n / 2)
            .map(|k| Cpx::cis(-TAU * k as f64 / n as f64))
            .collect()
    }

    /// Pack, [`radix2_oracle`], unzip.
    fn rfft_oracle(x: &[f64]) -> Vec<Cpx> {
        let h = x.len() / 2;
        let mut z: Vec<Cpx> = x.chunks_exact(2).map(|p| Cpx::new(p[0], p[1])).collect();
        if h >= 2 {
            radix2_oracle(&mut z, false);
        }
        let mut out = vec![Cpx::ZERO; h + 1];
        crate::simd::rfft_unzip(&z, &rfft_twiddles(x.len()), h, &mut out);
        out
    }

    /// Zip, [`radix2_oracle`] inverse, the `1/h` scale, unpack.
    fn irfft_oracle(spec: &[Cpx]) -> Vec<f64> {
        let h = spec.len() - 1;
        let mut z = Vec::new();
        crate::simd::irfft_zip(spec, &rfft_twiddles(2 * h), h, &mut z);
        if h >= 2 {
            radix2_oracle(&mut z, true);
            let s = 1.0 / h as f64;
            z.iter_mut().for_each(|v| *v = v.scale(s));
        }
        z.iter().flat_map(|v| [v.re, v.im]).collect()
    }

    /// FNV-1a over the bits of a run of values.
    fn fnv(hash: &mut u64, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                *hash ^= b as u64;
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Complex forward and inverse plans and real forward and inverse
    /// plans at every power of two from 2 to 8,192, each checked bit for
    /// bit against the stage-by-stage oracle; returns the FNV-1a hash of
    /// every output in sweep order.
    fn sweep_against_oracle() -> u64 {
        let bits = |z: &[Cpx]| {
            z.iter()
                .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
                .collect::<Vec<_>>()
        };
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut planner = FftPlanner::new();
        let mut n = 2;
        while n <= 8192 {
            let plan = FftPlan::new(n);
            for (salt, inverse) in [(0, false), (1, true)] {
                let x = sweep_vec(n, salt);
                let mut got = x.clone();
                let mut want = x;
                radix2_oracle(&mut want, inverse);
                if inverse {
                    plan.process_inverse(&mut got);
                    let s = 1.0 / n as f64;
                    want.iter_mut().for_each(|v| *v = v.scale(s));
                } else {
                    plan.process(&mut got);
                }
                assert_eq!(bits(&got), bits(&want), "n={n} inverse={inverse}");
                fnv(&mut hash, got.iter().flat_map(|v| [v.re, v.im]));
            }
            let rplan = planner.rfft_plan(n);
            let x = real_sweep_vec(n);
            let (mut spec, mut pack) = (Vec::new(), Vec::new());
            rplan.process_with_scratch(&x, &mut spec, &mut pack);
            assert_eq!(bits(&spec), bits(&rfft_oracle(&x)), "rfft n={n}");
            fnv(&mut hash, spec.iter().flat_map(|v| [v.re, v.im]));
            let mut back = Vec::new();
            rplan.inverse(&spec, &mut back, &mut pack);
            let rbits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(rbits(&back), rbits(&irfft_oracle(&spec)), "irfft n={n}");
            fnv(&mut hash, back);
            n *= 2;
        }
        hash
    }

    fn sweep_vec(n: usize, salt: usize) -> Vec<Cpx> {
        (0..n)
            .map(|i| {
                Cpx::new(
                    ((i * 2654435761 + salt) % 1021) as f64 / 510.5 - 1.0,
                    ((i * 40503 + 7 + salt) % 1019) as f64 / 509.5 - 1.0,
                )
            })
            .collect()
    }

    fn real_sweep_vec(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 48271 + 3) % 1013) as f64 / 506.5 - 1.0)
            .collect()
    }

    /// The two-stage passes, the pre-broadcast twiddle table and the fused
    /// real-transform edges change no output bit: every plan matches the
    /// stage-by-stage oracle on each dispatch tier, and the outputs hash to
    /// the value the stage-by-stage plans produced (recorded before the
    /// change), so a change common to both tiers and the oracle fails too.
    #[test]
    fn pow2_plans_match_stage_by_stage_oracle_bit_for_bit() {
        use crate::dispatch::{avx2_available, force_tier, tier, SimdTier};
        const PINNED: u64 = 0xbcaf_9c53_58f4_3255;
        let before = tier();
        let mut tiers = vec![SimdTier::Scalar];
        if avx2_available() {
            tiers.push(SimdTier::Avx2);
        }
        for t in tiers {
            force_tier(t);
            let hash = sweep_against_oracle();
            force_tier(before);
            assert_eq!(hash, PINNED, "{} tier: sweep hash {hash:#018x}", t.name());
        }
    }

    /// `process_columns` on `width` columns of sweep data against one
    /// `process` per column, as bit patterns.
    fn columns_match_per_column<T: Real>(n: usize, width: usize) {
        let plan = FftPlan::<T>::new(n);
        let inputs: Vec<Vec<Complex<T>>> = (0..width)
            .map(|j| {
                sweep_vec(n, 97 * j)
                    .into_iter()
                    .map(Complex::from_f64)
                    .collect()
            })
            .collect();
        let cols: Vec<Vec<Complex<T>>> = inputs
            .iter()
            .map(|col| {
                let mut col = col.clone();
                plan.process(&mut col);
                col
            })
            .collect();
        let mut block = vec![Complex::<T>::ZERO; n * width];
        plan.process_columns(&mut block, width, |i, row| {
            for (v, input) in row.iter_mut().zip(&inputs) {
                *v = input[i];
            }
        });
        let bits = |z: &Complex<T>| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits());
        for (j, col) in cols.iter().enumerate() {
            for (i, want) in col.iter().enumerate() {
                assert_eq!(
                    bits(&block[i * width + j]),
                    bits(want),
                    "n {n}, width {width}: bin {i} of column {j}"
                );
            }
        }
    }

    /// The column kernel is the per-column transform, bit for bit, on each
    /// dispatch tier and in both precisions: every power of two to 256 and
    /// every block width from one to one past the Doppler stage's 16-bin
    /// block (odd widths take the f64 kernel's scalar route, widths off a
    /// multiple of four the f32 body's tail).
    #[test]
    fn fft_columns_match_per_column_process() {
        use crate::dispatch::{avx2_available, force_tier, tier, SimdTier};
        let before = tier();
        let mut tiers = vec![SimdTier::Scalar];
        if avx2_available() {
            tiers.push(SimdTier::Avx2);
        }
        for t in tiers {
            force_tier(t);
            for n in (0..=8).map(|b| 1usize << b) {
                for width in 1..=17 {
                    columns_match_per_column::<f64>(n, width);
                    columns_match_per_column::<f32>(n, width);
                }
            }
            force_tier(before);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn f32_plan_rejects_non_pow2() {
        let _ = FftPlan::<f32>::new(100);
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn f32_plan_rejects_inverse() {
        let mut x = vec![Complex::<f32>::ZERO; 8];
        FftPlan::new(8).process_inverse(&mut x);
    }
}

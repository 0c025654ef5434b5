//! Signal synthesis and noise generation.
//!
//! Deterministic generators (tones, linear chirps) plus a
//! self-contained Gaussian noise source. The noise source wraps a small
//! xorshift PRNG whose uniforms map through the inverse normal CDF, so that
//! every Monte-Carlo run is reproducible from a `u64` seed without threading
//! `rand` generics through the simulation layers. Every simulated noise
//! sample — radar IF rows in either precision, the tag's envelope capture,
//! the cold-start dwell — is one [`NoiseSource::gaussian`] draw.

use crate::real::Real;
use crate::TAU;
use std::sync::OnceLock;

/// Generates `n` samples of `amp * cos(2 pi f t + phase)` at sample rate `fs`.
pub fn tone(n: usize, f: f64, fs: f64, amp: f64, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| amp * (TAU * f * i as f64 / fs + phase).cos())
        .collect()
}

/// Generates `n` samples of a real linear chirp starting at `f0` with sweep
/// rate `slope` Hz/s: `cos(2 pi (f0 t + slope t^2 / 2) + phase)`.
///
/// The instantaneous frequency at time `t` is `f0 + slope * t` — note the
/// conventional `t^2/2` phase term (see DESIGN.md §5 on the paper's eq. 1).
pub fn chirp(n: usize, f0: f64, slope: f64, fs: f64, amp: f64, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            amp * (TAU * (f0 * t + 0.5 * slope * t * t) + phase).cos()
        })
        .collect()
}

/// A seeded Gaussian noise generator (xorshift64* uniforms through the
/// inverse normal CDF).
#[derive(Debug, Clone)]
pub struct NoiseSource {
    state: u64,
}

impl NoiseSource {
    /// Creates a generator from a nonzero seed (zero is remapped).
    pub fn new(seed: u64) -> Self {
        NoiseSource {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw u64 from xorshift64*.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = xorshift(self.state);
        self.state.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Advances the generator `k` draws: afterwards it gives what it would
    /// have given after `k` calls to [`NoiseSource::gaussian`] (or `k`
    /// samples of [`NoiseSource::add_awgn`]), without drawing them.
    ///
    /// The state update is linear over GF(2), so `k` steps are one 64×64
    /// bit-matrix power of the state. Each set bit `i < JUMP_BITS` of `k`
    /// applies the tabulated power `2^i`, and each further 2^16 draws
    /// apply the largest power twice. So a stream of noise can be cut into
    /// stretches that are filled in any order, on any thread, each from its
    /// own place in the stream, and still give the serial fill's bits.
    pub fn jump(&mut self, k: u64) {
        let table = jump_table();
        let mut x = self.state;
        for (i, power) in table.iter().enumerate() {
            if k >> i & 1 == 1 {
                x = power.apply(x);
            }
        }
        let top = &table[JUMP_BITS - 1];
        for _ in 0..k >> JUMP_BITS {
            x = top.apply(top.apply(x));
        }
        self.state = x;
    }

    /// Uniform sample in `(0, 1)` (never exactly 0 or 1, safe for `ln`).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        unit_open(self.next_u64())
    }

    /// Standard normal sample: one uniform draw mapped through the inverse
    /// normal CDF (no `ln`/`sqrt` on the ~95% central path). One `u64` of
    /// generator state per deviate, so the same seed gives the same sequence
    /// on every dispatch tier and in either sample precision.
    #[inline]
    pub fn gaussian(&mut self) -> f64 {
        inv_norm_cdf(self.uniform())
    }

    /// Fills `n` samples of white Gaussian noise with standard deviation
    /// `sigma`.
    pub fn awgn(&mut self, n: usize, sigma: f64) -> Vec<f64> {
        let mut out = vec![0.0; n];
        self.add_awgn(&mut out, sigma);
        out
    }

    /// Adds white Gaussian noise with standard deviation `sigma` to `signal`
    /// in place, one [`NoiseSource::gaussian`] draw per sample in slice
    /// order, each scaled in f64 and rounded once into the sample type.
    ///
    /// Every bulk noise consumer goes through this loop. The draw must be
    /// inlined into it: called out of line, each draw's integer-to-float
    /// conversion waits on the register holding the previous deviate, the
    /// draws run one after another, and the fill is about 4.5× slower
    /// (DESIGN.md §14.2).
    #[inline]
    pub fn add_awgn<T: Real>(&mut self, signal: &mut [T], sigma: f64) {
        for s in signal.iter_mut() {
            *s += T::from_f64(self.gaussian() * sigma);
        }
    }
}

/// One xorshift64 step: the generator's state update, before the output
/// multiply.
#[inline]
fn xorshift(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// Powers of two a [`NoiseSource::jump`] takes from the table: a jump
/// below 2^16 draws is at most 16 table products, and a frame's row starts
/// (about 2^17 samples on the widest frames) a few more.
const JUMP_BITS: usize = 16;

/// A 64×64 bit matrix over GF(2), stored as sixteen lookup tables, one per
/// nibble of the input: `nib[p][v]` is the XOR of the matrix columns
/// `4p..4p + 4` that the set bits of `v` select. A product is sixteen
/// lookups and XORs.
struct BitMatrix {
    nib: [[u64; 16]; 16],
}

impl BitMatrix {
    /// The matrix with columns `col` (`col[j]` is the image of bit `j`).
    fn from_columns(col: impl Fn(usize) -> u64) -> Self {
        let mut nib = [[0u64; 16]; 16];
        for (p, t) in nib.iter_mut().enumerate() {
            for v in 1..16usize {
                t[v] = t[v & (v - 1)] ^ col(4 * p + v.trailing_zeros() as usize);
            }
        }
        BitMatrix { nib }
    }

    /// The matrix times the state `x`.
    #[inline]
    fn apply(&self, x: u64) -> u64 {
        self.nib
            .iter()
            .enumerate()
            .fold(0, |acc, (p, t)| acc ^ t[(x >> (4 * p)) as usize & 15])
    }
}

/// The state update to the powers `2^0 ..= 2^(JUMP_BITS − 1)`, built once
/// per process (32 KiB): the first from the update's action on each bit,
/// each next one by squaring, column by column, through the previous one's
/// tables.
fn jump_table() -> &'static [BitMatrix] {
    static TABLE: OnceLock<Vec<BitMatrix>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut powers = vec![BitMatrix::from_columns(|j| xorshift(1 << j))];
        while powers.len() < JUMP_BITS {
            let last = &powers[powers.len() - 1];
            let square = BitMatrix::from_columns(|j| last.apply(last.nib[j / 4][1 << (j % 4)]));
            powers.push(square);
        }
        powers
    })
}

/// Maps the top 53 bits `k` of a raw draw to `(k + 1/2) / 2^53`, in the open
/// unit interval. At `k = 2^53 − 1` the sum rounds up to `2^53`, so that one
/// value is held at the largest double below 1; no other value moves.
#[inline]
fn unit_open(x: u64) -> f64 {
    const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;
    let u = ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    if u < BELOW_ONE {
        u
    } else {
        BELOW_ONE
    }
}

/// Where [`inv_norm_cdf`] switches between its tail and central branches:
/// `p < P_LOW` and `p > 1 − P_LOW` take the tails.
const P_LOW: f64 = 0.02425;

/// Inverse of the standard normal CDF via Acklam's rational approximation
/// (|relative error| < 1.15e-9 over the open unit interval — far below the
/// f32 rounding the f32 tier applies afterwards). The central region is
/// two degree-5 polynomials and one division; only the ~4.9% tail mass pays
/// for `ln`/`sqrt`.
#[inline]
fn inv_norm_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, rms, std_dev};

    #[test]
    fn tone_properties() {
        let x = tone(1000, 50.0, 1000.0, 2.0, 0.0);
        assert_eq!(x[0], 2.0);
        // RMS of a sinusoid is amp/sqrt(2).
        assert!((rms(&x) - 2.0 / 2f64.sqrt()).abs() < 0.01);
    }

    #[test]
    fn chirp_instantaneous_frequency() {
        // Verify numerically: phase difference between adjacent samples
        // approximates instantaneous frequency f0 + slope*t.
        let fs = 1e6;
        let f0 = 1e3;
        let slope = 1e8; // 100 Hz per microsecond
        let n = 1000;
        let x = chirp(n, f0, slope, fs, 1.0, 0.0);
        // Find zero crossings and check spacing shrinks over time.
        let crossings: Vec<usize> = (1..n).filter(|&i| x[i - 1] < 0.0 && x[i] >= 0.0).collect();
        assert!(crossings.len() > 3);
        let first_gap = crossings[1] - crossings[0];
        let last_gap = crossings[crossings.len() - 1] - crossings[crossings.len() - 2];
        assert!(
            last_gap < first_gap,
            "chirp should speed up: {first_gap} -> {last_gap}"
        );
    }

    #[test]
    fn chirp_matches_tone_when_slope_zero() {
        let a = chirp(256, 100.0, 0.0, 1000.0, 1.0, 0.3);
        let b = tone(256, 100.0, 1000.0, 1.0, 0.3);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn noise_is_reproducible() {
        let mut a = NoiseSource::new(42);
        let mut b = NoiseSource::new(42);
        for _ in 0..1000 {
            assert_eq!(a.gaussian().to_bits(), b.gaussian().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseSource::new(1);
        let mut b = NoiseSource::new(2);
        let same = (0..32).filter(|_| a.gaussian() == b.gaussian()).count();
        assert!(same < 2);
    }

    /// FNV-1a over the bits of the first 100,000 deviates at a fixed seed:
    /// an absolute pin of the generator. Every seeded noise sample in the
    /// workspace comes from this stream, so when a downstream digest moves
    /// and this one holds, the generator is not the cause. The tail branch
    /// calls the platform `ln`, so the pin is checked where it was recorded.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn gaussian_stream_pinned() {
        let mut src = NoiseSource::new(0x5EED);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..100_000 {
            for b in src.gaussian().to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0xa312_8e3e_3108_a9c1, "gaussian stream moved: {h:#018x}");
    }

    #[test]
    fn gaussian_moments() {
        let mut src = NoiseSource::new(7);
        let x = src.awgn(200_000, 1.0);
        assert!(mean(&x).abs() < 0.01, "mean {}", mean(&x));
        assert!((std_dev(&x) - 1.0).abs() < 0.01, "std {}", std_dev(&x));
    }

    /// Each tail beyond 3σ holds Φ(−3) = 0.00135 of 10⁶ draws, to within four
    /// binomial standard deviations (±147 of 1,350).
    #[test]
    fn tail_mass_matches_normal() {
        const N: u32 = 1_000_000;
        let phi_m3 = 0.0013498980316300933;
        let mut src = NoiseSource::new(31);
        let (mut below, mut above) = (0u32, 0u32);
        for _ in 0..N {
            let z = src.gaussian();
            below += u32::from(z < -3.0);
            above += u32::from(z > 3.0);
        }
        let expect = f64::from(N) * phi_m3;
        let tol = 4.0 * (expect * (1.0 - phi_m3)).sqrt();
        for (tail, count) in [("z < -3", below), ("z > 3", above)] {
            assert!(
                (f64::from(count) - expect).abs() < tol,
                "{tail}: {count} of {N}, want {expect:.0} ± {tol:.0}"
            );
        }
    }

    #[test]
    fn inv_norm_cdf_is_odd_about_one_half() {
        // Dyadic p, so 1 − p is exact and only the approximation is tested.
        let ps = (1..1024)
            .map(|j| j as f64 / 1024.0)
            .chain((11..=53).map(|k| 0.5f64.powi(k)));
        for p in ps {
            let (lo, hi) = (inv_norm_cdf(p), inv_norm_cdf(1.0 - p));
            assert!((lo + hi).abs() <= 1e-9, "p {p}: {lo} vs {hi}");
        }
    }

    /// The tail and central branches meet at `P_LOW` and `1 − P_LOW`: one
    /// ulp across either switch, the quantile jumps by no more than the two
    /// branches' errors can add up to (1.15e-9 relative each; the jump is
    /// 4.4e-9 against a 4.5e-9 bound at |z| ≈ 1.97).
    #[test]
    fn inv_norm_cdf_branches_meet() {
        let below = |p: f64| f64::from_bits(p.to_bits() - 1);
        let above = |p: f64| f64::from_bits(p.to_bits() + 1);
        for (tail, central) in [(below(P_LOW), P_LOW), (above(1.0 - P_LOW), 1.0 - P_LOW)] {
            let z = inv_norm_cdf(central);
            let jump = (inv_norm_cdf(tail) - z).abs();
            assert!(
                jump <= 2.0 * 1.15e-9 * z.abs(),
                "jump {jump:e} at p = {central}"
            );
        }
    }

    /// The extreme raw draws stay inside the open interval. Unclamped, the
    /// top one rounds to exactly 1.0, where `inv_norm_cdf` is NaN.
    #[test]
    fn unit_open_excludes_both_ends() {
        let top = unit_open(u64::MAX);
        assert_eq!(top, 1.0 - f64::EPSILON / 2.0);
        assert!(inv_norm_cdf(top).is_finite());
        let bottom = unit_open(0);
        assert_eq!(bottom, 0.5 / (1u64 << 53) as f64);
        assert!(inv_norm_cdf(bottom).is_finite());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut src = NoiseSource::new(11);
        for _ in 0..10_000 {
            let u = src.uniform();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn add_awgn_changes_signal() {
        let mut src = NoiseSource::new(3);
        let mut x = vec![0.0; 1000];
        src.add_awgn(&mut x, 0.5);
        assert!((std_dev(&x) - 0.5).abs() < 0.05);
    }

    /// The bulk fill in either precision is bit for bit a loop of scaled
    /// draws, each rounded once into the sample type.
    #[test]
    fn noise_fill_matches_scalar_draws() {
        let sigma = 0.7;
        let base: Vec<f64> = (0..4096).map(|i| (0.01 * i as f64).sin()).collect();
        let mut got64 = base.clone();
        NoiseSource::new(29).add_awgn(&mut got64, sigma);
        let mut got32: Vec<f32> = base.iter().map(|&v| v as f32).collect();
        NoiseSource::new(29).add_awgn(&mut got32, sigma);
        let mut draws = NoiseSource::new(29);
        for (i, &x) in base.iter().enumerate() {
            let d = draws.gaussian() * sigma;
            assert_eq!(got64[i].to_bits(), (x + d).to_bits(), "f64 sample {i}");
            assert_eq!(
                got32[i].to_bits(),
                (x as f32 + d as f32).to_bits(),
                "f32 sample {i}"
            );
        }
    }

    /// A generator jumped `k` draws is the generator after `k` serial
    /// draws, and both go on to give the same deviates: small and
    /// nibble-edge jumps, powers of two either side, and seeded random
    /// jumps below 2^22.
    #[test]
    fn jump_equals_serial_draws() {
        let mut ks = vec![0u64, 1, 2, 3, 15, 16, 17, 63, 64, 65];
        ks.extend([(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 17, 1 << 20]);
        let mut pick = NoiseSource::new(0xACE);
        let randoms = if cfg!(debug_assertions) { 4 } else { 24 };
        ks.extend((0..randoms).map(|_| pick.next_u64() >> 42));
        for (i, &k) in ks.iter().enumerate() {
            let seed = 0x5EED_0F1F_2F3F ^ i as u64;
            let mut serial = NoiseSource::new(seed);
            for _ in 0..k {
                serial.gaussian();
            }
            let mut jumped = NoiseSource::new(seed);
            jumped.jump(k);
            assert_eq!(jumped.state, serial.state, "k = {k}");
            for _ in 0..4 {
                assert_eq!(jumped.gaussian().to_bits(), serial.gaussian().to_bits());
            }
        }
    }

    /// Jumps compose, past the table's reach too: `2^16 + 4` draws (the
    /// table's largest power repeated for the excess) is `2^16 − 3` draws
    /// and then 7 more, and a jump of `3·2^22` is 96 jumps of 2^17, each
    /// drawn serially in a test above.
    #[test]
    fn jumps_compose_beyond_the_table() {
        let mut whole = NoiseSource::new(77);
        whole.jump((1 << 16) + 4);
        let mut parts = NoiseSource::new(77);
        parts.jump((1 << 16) - 3);
        parts.jump(7);
        assert_eq!(whole.state, parts.state);
        let mut far = NoiseSource::new(78);
        far.jump(3 << 22);
        let mut steps = NoiseSource::new(78);
        for _ in 0..96 {
            steps.jump(1 << 17);
        }
        assert_eq!(far.state, steps.state);
    }

    /// One serial fill cut into stretches, each filled from a generator
    /// jumped to its start, in reverse order: the same samples bit for bit,
    /// in both precisions.
    #[test]
    fn fill_in_jumped_stretches_matches_serial_fill() {
        let sigma = 0.3;
        let base: Vec<f64> = (0..5000).map(|i| (0.003 * i as f64).cos()).collect();
        let mut serial = base.clone();
        let mut src = NoiseSource::new(404);
        src.add_awgn(&mut serial, sigma);
        let cuts = [0usize, 1, 960, 961, 2047, 4999, 5000];
        let mut pieces = base.clone();
        let mut pieces32: Vec<f32> = base.iter().map(|&v| v as f32).collect();
        for w in cuts.windows(2).rev() {
            let mut at = NoiseSource::new(404);
            at.jump(w[0] as u64);
            at.clone().add_awgn(&mut pieces[w[0]..w[1]], sigma);
            at.add_awgn(&mut pieces32[w[0]..w[1]], sigma);
        }
        let mut serial32: Vec<f32> = base.iter().map(|&v| v as f32).collect();
        NoiseSource::new(404).add_awgn(&mut serial32, sigma);
        assert!(serial
            .iter()
            .zip(&pieces)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(serial32
            .iter()
            .zip(&pieces32)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let mut end = NoiseSource::new(404);
        end.jump(5000);
        assert_eq!(
            end.state, src.state,
            "the fill leaves the generator 5000 draws on"
        );
    }

    #[test]
    fn inv_norm_cdf_matches_known_quantiles() {
        // Central branch, both tail branches.
        for (p, z) in [
            (0.5, 0.0),
            (0.8413447460685429, 1.0),
            (0.15865525393145707, -1.0),
            (0.0013498980316300933, -3.0),
            (0.9986501019683699, 3.0),
        ] {
            assert!(
                (inv_norm_cdf(p) - z).abs() < 1e-7,
                "quantile({p}) = {} want {z}",
                inv_norm_cdf(p)
            );
        }
    }

    #[test]
    fn zero_seed_remapped() {
        let mut src = NoiseSource::new(0);
        // Must not get stuck at zero.
        assert!(src.gaussian().is_finite());
        assert_ne!(src.uniform(), src.uniform());
    }
}

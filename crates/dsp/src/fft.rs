//! Fast Fourier transforms.
//!
//! Two engines are provided:
//!
//! * the plan-based fast path in [`crate::planner`] — cached bit-reversal
//!   and exact twiddle tables, Bluestein chirp/kernel spectra precomputed
//!   per length, in-place processing, and a packed real-input transform;
//! * [`reference`](mod@reference) — the original per-call engine
//!   (incremental twiddle recurrence, fresh Bluestein setup every call),
//!   kept as the oracle for regression tests and as the "unplanned"
//!   baseline in the DSP benches.
//!
//! The free functions here ([`fft`]/[`ifft`]/[`rfft`]/[`rfft_mag`]) keep
//! their original allocating signatures but route through the thread-local
//! planner ([`crate::planner::with_planner`]), so every caller gets cached
//! plans automatically; hot paths that want zero steady-state allocation use
//! the planner's in-place APIs directly.
//!
//! The forward transform is unnormalized
//! (`X[k] = sum_n x[n] e^{-i 2 pi k n / N}`); the inverse divides by `N`, so
//! `ifft(fft(x)) == x`. The tag decoder mostly uses small power-of-two
//! windows, while the radar range processing sometimes needs odd lengths (a
//! chirp's sample count is set by its duration), which is why Bluestein is
//! included rather than silently zero-padding and changing bin frequencies.

use crate::complex::Cpx;
use crate::planner::with_planner;
use crate::TAU;

/// Returns the smallest power of two `>= n` (and `>= 1`).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Returns true if `n` is a power of two (and nonzero).
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// In-place radix-2 decimation-in-time FFT (through the thread-local plan
/// cache).
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn fft_pow2_in_place(data: &mut [Cpx]) {
    assert!(
        is_pow2(data.len()),
        "radix-2 FFT requires power-of-two length, got {}",
        data.len()
    );
    with_planner(|p| p.fft_in_place(data));
}

/// In-place radix-2 inverse FFT, including the `1/N` normalization.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn ifft_pow2_in_place(data: &mut [Cpx]) {
    assert!(
        is_pow2(data.len()),
        "radix-2 FFT requires power-of-two length, got {}",
        data.len()
    );
    with_planner(|p| p.ifft_in_place(data));
}

/// Forward DFT of arbitrary length. Power-of-two inputs use radix-2
/// directly; other lengths use Bluestein's algorithm. Returns a new vector.
pub fn fft(input: &[Cpx]) -> Vec<Cpx> {
    let mut v = input.to_vec();
    with_planner(|p| p.fft_in_place(&mut v));
    v
}

/// Inverse DFT of arbitrary length (normalized by `1/N`). Returns a new
/// vector.
pub fn ifft(input: &[Cpx]) -> Vec<Cpx> {
    let mut v = input.to_vec();
    with_planner(|p| p.ifft_in_place(&mut v));
    v
}

/// Forward DFT of a real-valued signal. Returns the full complex spectrum
/// (length `input.len()`); bins above `N/2` are the conjugate mirror.
/// Internally uses the packed real-input plan (half the transform work) for
/// even lengths.
pub fn rfft(input: &[f64]) -> Vec<Cpx> {
    with_planner(|p| p.rfft_full(input))
}

/// Magnitude spectrum of a real signal: `|FFT|` for bins `0..=N/2`.
/// Computes only the half spectrum (no mirror is materialized).
pub fn rfft_mag(input: &[f64]) -> Vec<f64> {
    with_planner(|p| {
        let mut half = Vec::new();
        p.rfft_half_into(input, &mut half);
        half.iter().map(|z| z.abs()).collect()
    })
}

/// Frequency (Hz) of FFT `bin` for a transform of length `n` at sample rate
/// `fs`. Bins in the upper half map to negative frequencies.
pub fn bin_to_freq(bin: usize, n: usize, fs: f64) -> f64 {
    let b = bin % n;
    if b <= n / 2 {
        b as f64 * fs / n as f64
    } else {
        (b as f64 - n as f64) * fs / n as f64
    }
}

/// The (fractional) FFT bin corresponding to frequency `freq` at sample rate
/// `fs` for an `n`-point transform.
pub fn freq_to_bin(freq: f64, n: usize, fs: f64) -> f64 {
    freq * n as f64 / fs
}

/// The original per-call FFT engine, predating the plan cache.
///
/// Twiddles are generated incrementally (`w *= wlen`), which costs one extra
/// complex multiply per butterfly, serializes the inner loop on the phasor
/// recurrence, and accumulates rounding drift that grows with `N`; Bluestein
/// lengths rebuild the chirp and kernel spectrum on every call. Kept
/// verbatim as a numerical oracle for the planner's regression tests and as
/// the honest "unplanned" baseline in `benches/dsp.rs` — new code should use
/// [`fft`]/[`ifft`] or the planner directly.
pub mod reference {
    use super::{is_pow2, next_pow2, Cpx, TAU};

    /// In-place radix-2 FFT with incremental twiddles.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a power of two.
    pub fn fft_pow2_in_place(data: &mut [Cpx]) {
        transform_pow2(data, false);
    }

    /// In-place radix-2 inverse FFT, including the `1/N` normalization.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a power of two.
    pub fn ifft_pow2_in_place(data: &mut [Cpx]) {
        transform_pow2(data, true);
        let n = data.len() as f64;
        for v in data.iter_mut() {
            *v = *v / n;
        }
    }

    fn transform_pow2(data: &mut [Cpx], inverse: bool) {
        let n = data.len();
        assert!(
            is_pow2(n),
            "radix-2 FFT requires power-of-two length, got {n}"
        );
        if n <= 1 {
            return;
        }

        // Bit-reversal permutation.
        let mut j = 0usize;
        for i in 0..n - 1 {
            if i < j {
                data.swap(i, j);
            }
            let mut mask = n >> 1;
            while j & mask != 0 {
                j &= !mask;
                mask >>= 1;
            }
            j |= mask;
        }

        // Butterflies. Twiddles are recomputed per stage from a stage base
        // phasor; the incremental multiply keeps the cost at one complex mul
        // per butterfly (plus one for the recurrence itself).
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * TAU / len as f64;
            let wlen = Cpx::cis(ang);
            for chunk in data.chunks_mut(len) {
                let mut w = Cpx::ONE;
                let half = len / 2;
                for k in 0..half {
                    let u = chunk[k];
                    let v = chunk[k + half] * w;
                    chunk[k] = u + v;
                    chunk[k + half] = u - v;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }

    /// Forward DFT of arbitrary length, rebuilding all per-length state.
    pub fn fft(input: &[Cpx]) -> Vec<Cpx> {
        if is_pow2(input.len()) {
            let mut v = input.to_vec();
            fft_pow2_in_place(&mut v);
            v
        } else {
            bluestein(input, false)
        }
    }

    /// Inverse DFT of arbitrary length (normalized by `1/N`).
    pub fn ifft(input: &[Cpx]) -> Vec<Cpx> {
        if is_pow2(input.len()) {
            let mut v = input.to_vec();
            ifft_pow2_in_place(&mut v);
            v
        } else {
            let mut v = bluestein(input, true);
            let n = input.len() as f64;
            for z in v.iter_mut() {
                *z = *z / n;
            }
            v
        }
    }

    /// Bluestein chirp-z transform with per-call chirp/kernel setup.
    fn bluestein(input: &[Cpx], inverse: bool) -> Vec<Cpx> {
        let n = input.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return input.to_vec();
        }
        let sign = if inverse { -1.0 } else { 1.0 };
        let m = next_pow2(2 * n - 1);

        // Chirp c[k] = e^{-i pi k^2 / n} for the forward transform
        // (conjugated for the inverse). k^2 mod 2n keeps the argument small
        // and the phase exact even for large k.
        let chirp: Vec<Cpx> = (0..n)
            .map(|k| {
                let k2 = (k as u64 * k as u64) % (2 * n as u64);
                Cpx::cis(sign * -std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();

        let mut a = vec![Cpx::ZERO; m];
        for k in 0..n {
            a[k] = input[k] * chirp[k];
        }
        let mut b = vec![Cpx::ZERO; m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            b[k] = c;
            b[m - k] = c;
        }

        fft_pow2_in_place(&mut a);
        fft_pow2_in_place(&mut b);
        for k in 0..m {
            a[k] *= b[k];
        }
        ifft_pow2_in_place(&mut a);

        (0..n).map(|k| a[k] * chirp[k]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Cpx], b: &[Cpx], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y} (tol {tol})");
        }
    }

    /// Direct O(N^2) DFT used as the oracle for FFT tests.
    fn dft_naive(input: &[Cpx]) -> Vec<Cpx> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = Cpx::ZERO;
                for (j, &x) in input.iter().enumerate() {
                    acc += x * Cpx::cis(-TAU * (k * j % n) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    fn test_vec(n: usize) -> Vec<Cpx> {
        (0..n)
            .map(|i| {
                // Deterministic pseudo-random-ish values.
                let x = ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0;
                let y = ((i * 40503 + 7) % 1000) as f64 / 500.0 - 1.0;
                Cpx::new(x, y)
            })
            .collect()
    }

    #[test]
    fn pow2_matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let x = test_vec(n);
            assert_close(&fft(&x), &dft_naive(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn bluestein_matches_naive_dft() {
        for &n in &[3usize, 5, 6, 7, 12, 100, 255, 257] {
            let x = test_vec(n);
            assert_close(&fft(&x), &dft_naive(&x), 1e-7 * n as f64);
        }
    }

    #[test]
    fn planned_matches_reference_engine() {
        for &n in &[4usize, 16, 100, 255, 256, 1000, 1024] {
            let x = test_vec(n);
            assert_close(&fft(&x), &reference::fft(&x), 1e-9 * n as f64);
            assert_close(&ifft(&x), &reference::ifft(&x), 1e-9);
        }
    }

    #[test]
    fn ifft_inverts_fft_pow2() {
        let x = test_vec(128);
        assert_close(&ifft(&fft(&x)), &x, 1e-10);
    }

    #[test]
    fn ifft_inverts_fft_arbitrary() {
        for &n in &[3usize, 50, 101, 240] {
            let x = test_vec(n);
            assert_close(&ifft(&fft(&x)), &x, 1e-8);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Cpx::ZERO; 32];
        x[0] = Cpx::ONE;
        let spec = fft(&x);
        for z in spec {
            assert!((z - Cpx::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn tone_lands_in_single_bin() {
        let n = 64;
        let k = 5;
        let x: Vec<Cpx> = (0..n)
            .map(|i| Cpx::cis(TAU * k as f64 * i as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (i, z) in spec.iter().enumerate() {
            if i == k {
                assert!((z.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-8, "leakage at bin {i}: {}", z.abs());
            }
        }
    }

    #[test]
    fn parseval_holds() {
        let x = test_vec(200); // exercises Bluestein
        let spec = fft(&x);
        let e_time: f64 = x.iter().map(|z| z.norm_sq()).sum();
        let e_freq: f64 = spec.iter().map(|z| z.norm_sq()).sum::<f64>() / x.len() as f64;
        assert!((e_time - e_freq).abs() / e_time < 1e-9);
    }

    #[test]
    fn rfft_is_conjugate_symmetric() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        let spec = rfft(&x);
        let n = spec.len();
        for k in 1..n / 2 {
            assert!((spec[k] - spec[n - k].conj()).abs() < 1e-9);
        }
    }

    #[test]
    fn rfft_matches_widened_complex_fft() {
        for &n in &[8usize, 63, 64, 200, 1024] {
            let x: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.7).cos() + 0.1 * i as f64)
                .collect();
            let widened: Vec<Cpx> = x.iter().map(|&v| Cpx::real(v)).collect();
            assert_close(&rfft(&x), &fft(&widened), 1e-9 * n as f64);
            let mag = rfft_mag(&x);
            assert_eq!(mag.len(), n / 2 + 1);
        }
    }

    #[test]
    fn bin_freq_roundtrip() {
        let n = 256;
        let fs = 10_000.0;
        for bin in 0..n {
            let f = bin_to_freq(bin, n, fs);
            // Negative frequencies wrap: re-derive the bin modulo n.
            let b = freq_to_bin(f, n, fs).round() as i64;
            assert_eq!(b.rem_euclid(n as i64) as usize, bin);
        }
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn pow2_in_place_rejects_odd() {
        let mut x = vec![Cpx::ZERO; 3];
        fft_pow2_in_place(&mut x);
    }

    #[test]
    fn empty_and_single() {
        assert!(fft(&[]).is_empty());
        assert!(rfft(&[]).is_empty());
        assert!(rfft_mag(&[]).is_empty());
        let one = [Cpx::new(2.0, 3.0)];
        assert_close(&fft(&one), &one, 1e-15);
    }
}

//! A minimal complex-number type.
//!
//! Rather than pulling in an external crate we define [`Complex`] here,
//! generic over the two sample precisions ([`Real`]: `f64` and `f32`), with
//! [`Cpx`] naming the double-precision type most of the workspace uses. The
//! type is `Copy`, two packed components, and supports the usual field
//! operations; the transcendental helpers (`exp`, polar conversion,
//! magnitude, phase) are double precision only — the f32 tier evaluates
//! geometry in f64 and rounds once with [`Complex::from_f64`].

use crate::real::Real;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i*im`.
///
/// `#[repr(C)]` so the AVX2 kernels in [`crate::simd`] may reinterpret
/// `&[Complex<T>]` as packed `re, im` pairs of `T`.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// A double-precision complex number.
pub type Cpx = Complex<f64>;

impl<T: Real> Complex<T> {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Self = Complex {
        re: T::ZERO,
        im: T::ZERO,
    };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Self = Complex {
        re: T::ONE,
        im: T::ZERO,
    };

    /// Creates a complex number from rectangular parts.
    #[inline]
    pub const fn new(re: T, im: T) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: T) -> Self {
        Complex { re, im: T::ZERO }
    }

    /// Rounds a double-precision value into this precision (exact for
    /// f64) — the one place the f32 tier loses accuracy, so tables
    /// (twiddles, phasors) are computed exactly in f64 and converted once.
    #[inline]
    pub fn from_f64(z: Cpx) -> Self {
        Complex::new(T::from_f64(z.re), T::from_f64(z.im))
    }

    /// Widens to double precision (exact).
    #[inline]
    pub fn to_f64(self) -> Cpx {
        Complex::new(self.re.to_f64(), self.im.to_f64())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Squared magnitude `re^2 + im^2` (cheaper than [`Cpx::abs`]).
    #[inline]
    pub fn norm_sq(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: T) -> Self {
        Complex::new(self.re * k, self.im * k)
    }
}

impl Cpx {
    /// `e^{i*theta}`: a unit phasor at angle `theta` (radians).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Cpx::new(theta.cos(), theta.sin())
    }

    /// Magnitude (Euclidean norm).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Returns NaN components when `self` is zero.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sq();
        Cpx::new(self.re / d, -self.im / d)
    }
}

impl<T: Real> Add for Complex<T> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Real> Sub for Complex<T> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Real> Mul for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Cpx {
    type Output = Cpx;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w == z * w^-1 by definition
    fn div(self, rhs: Cpx) -> Cpx {
        self * rhs.recip()
    }
}

impl<T: Real> Neg for Complex<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Complex::new(-self.re, -self.im)
    }
}

impl<T: Real> AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<T: Real> SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<T: Real> MulAssign for Complex<T> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Real> Mul<T> for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Cpx> for f64 {
    type Output = Cpx;
    #[inline]
    fn mul(self, rhs: Cpx) -> Cpx {
        rhs.scale(self)
    }
}

impl Div<f64> for Cpx {
    type Output = Cpx;
    #[inline]
    fn div(self, rhs: f64) -> Cpx {
        Cpx::new(self.re / rhs, self.im / rhs)
    }
}

impl From<f64> for Cpx {
    #[inline]
    fn from(re: f64) -> Cpx {
        Cpx::real(re)
    }
}

impl std::fmt::Display for Cpx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Cpx, b: Cpx) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Cpx::new(1.5, -2.5);
        let b = Cpx::new(-0.25, 4.0);
        assert!(close(a + b - b, a));
    }

    #[test]
    fn mul_matches_expansion() {
        let a = Cpx::new(3.0, 2.0);
        let b = Cpx::new(1.0, 7.0);
        // (3+2i)(1+7i) = 3 + 21i + 2i + 14i^2 = -11 + 23i
        assert!(close(a * b, Cpx::new(-11.0, 23.0)));
    }

    #[test]
    fn div_inverts_mul() {
        let a = Cpx::new(3.0, 2.0);
        let b = Cpx::new(1.0, 7.0);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Cpx::cis(0.7) * 2.0;
        assert!((z.abs() - 2.0).abs() < EPS);
        assert!((z.arg() - 0.7).abs() < EPS);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let theta = k as f64 * 0.41;
            assert!((Cpx::cis(theta).abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn conj_negates_phase() {
        let z = Cpx::cis(0.9) * 1.3;
        assert!((z.conj().arg() + 0.9).abs() < EPS);
    }

    #[test]
    fn recip_of_zero_is_nan() {
        let z = Cpx::ZERO.recip();
        assert!(z.re.is_nan() && z.im.is_nan());
    }

    #[test]
    fn norm_sq_matches_abs() {
        let z = Cpx::new(-3.0, 4.0);
        assert!((z.norm_sq() - 25.0).abs() < EPS);
        assert!((z.abs() - 5.0).abs() < EPS);
    }

    #[test]
    fn scalar_ops() {
        let z = Cpx::new(1.0, -2.0);
        assert!(close(2.0 * z, Cpx::new(2.0, -4.0)));
        assert!(close(z * 2.0, Cpx::new(2.0, -4.0)));
        assert!(close(z / 2.0, Cpx::new(0.5, -1.0)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cpx::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Cpx::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn from_f64_rounds_once() {
        let z = Complex::<f32>::from_f64(Cpx::cis(1.0));
        assert_eq!(z.re, (1.0f64.cos()) as f32);
        assert_eq!(z.im, (1.0f64.sin()) as f32);
        assert!((z.norm_sq() - 1.0).abs() < 1e-6);
        assert_eq!(Cpx::from_f64(Cpx::cis(1.0)), Cpx::cis(1.0));
    }

    #[test]
    #[allow(unsafe_code)] // layout probe: reads through a raw f32 pointer
    fn layout_is_interleaved_pairs() {
        assert_eq!(std::mem::size_of::<Complex<f32>>(), 8);
        assert_eq!(std::mem::size_of::<Cpx>(), 16);
        let v = [Complex::<f32>::new(1.0, 2.0), Complex::new(3.0, 4.0)];
        let base = v.as_ptr() as *const f32;
        // repr(C): re at offset 0, im at offset 1, per element.
        unsafe {
            assert_eq!(*base, 1.0);
            assert_eq!(*base.add(1), 2.0);
            assert_eq!(*base.add(3), 4.0);
        }
    }
}

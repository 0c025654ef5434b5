//! # biscatter-dsp — digital signal processing substrate
//!
//! Self-contained DSP building blocks used throughout the BiScatter
//! reproduction. Everything here is implemented from scratch (no external
//! DSP dependencies): a complex-number type, FFTs (radix-2 and Bluestein for
//! arbitrary lengths), window functions, the Goertzel algorithm, smoothing
//! filters, resampling, spectral estimation, statistics, and signal
//! synthesis/noise generation.
//!
//! Design goals follow the smoltcp school: simplicity and robustness over
//! cleverness, explicit data flow, and extensive documentation. All routines
//! are pure functions or small stateful structs with no hidden globals, so
//! they compose freely inside the higher-level radar/tag simulations.
//!
//! ## Module map
//!
//! | module | contents |
//! |---|---|
//! | [`real`] | the sealed `Real` sample-precision trait (`f64`, `f32`) the frame path is generic over |
//! | [`complex`] | `Complex<T>` complex number type and arithmetic (`Cpx` = `Complex<f64>`) |
//! | [`dispatch`] | runtime SIMD tier selection (`BISCATTER_SIMD`, CPU detection) |
//! | [`simd`] | the frame hot loops: scalar loops, hand-written AVX2 bodies and compiled copies |
//! | [`fft`] | radix-2 Cooley–Tukey and Bluestein FFT, real-input helper, reference engine |
//! | [`planner`] | cached FFT plans per precision, in-place/scratch APIs, packed real FFT |
//! | [`window`] | Hann, Hamming, Blackman(-Harris), flat-top windows, cached per length |
//! | [`goertzel`] | single-bin DFT evaluation: one-shot, streaming, cached coefficients |
//! | [`filter`] | RC single-pole low-pass, moving average |
//! | [`resample`] | linear interpolation, grid rescaling |
//! | [`spectrum`] | periodogram, peak search, parabolic interpolation, noise floor |
//! | [`stats`] | mean/variance, power dB conversions, percentiles, Wilson interval |
//! | [`signal`] | tone/chirp synthesis, seeded Gaussian noise |
//!
//! ## Unsafe policy
//!
//! The crate is `deny(unsafe_code)`; the single exemption is [`simd`],
//! whose AVX2 bodies are `#[target_feature(enable = "avx2")]` functions
//! (hand-written `std::arch` intrinsics, or a scalar loop compiled with
//! AVX2 on). Every `unsafe` there sits behind runtime feature detection
//! ([`dispatch`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod dispatch;
pub mod fft;
pub mod filter;
pub mod goertzel;
pub mod planner;
pub mod real;
pub mod resample;
pub mod signal;
#[allow(unsafe_code)]
pub mod simd;
pub mod spectrum;
pub mod stats;
pub mod window;

pub use complex::{Complex, Cpx};
pub use dispatch::SimdTier;
pub use real::Real;

/// Speed of light in vacuum, metres per second.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Two pi, the circle constant for phase arithmetic.
pub const TAU: f64 = std::f64::consts::TAU;

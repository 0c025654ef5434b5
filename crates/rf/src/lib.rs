//! # biscatter-rf — RF waveform, channel, and analog component substrate
//!
//! Models every piece of physical hardware the BiScatter paper uses, at the
//! level of fidelity the system evaluation depends on. The paper's prototypes
//! (LMX2492 9 GHz chirp generator, Analog Devices TinyRad 24 GHz radar,
//! custom tag boards) are not available in this environment, so this crate is
//! the substitution layer described in `DESIGN.md` §2: phase-exact FMCW
//! waveform math, a propagation channel with path loss / multipath / thermal
//! noise, and per-component models of the tag's analog chain (splitters,
//! dispersive delay lines, square-law envelope detector, SPDT switch,
//! Van Atta retro-reflector, ADC).
//!
//! Conventions: frequencies in Hz, times in seconds, distances in metres,
//! powers in dBm unless a name says otherwise, gains/losses in dB. All models
//! are deterministic; randomness enters only through explicitly seeded noise
//! sources.
//!
//! ## Module map
//!
//! | module | contents |
//! |---|---|
//! | [`chirp`] | FMCW chirp parameterization and phase-exact synthesis |
//! | [`frame`] | chirp trains: fixed-period slots with inter-chirp delays, and their chirp shapes |
//! | [`channel`] | FSPL, radar equation, multipath rays, thermal noise, link budgets |
//! | [`components`] | delay line, splitter, envelope detector, RF switch, Van Atta, ADC, antenna |
//! | [`scene`] | point scatterers and modulated tag reflectors seen by the radar |
//! | [`if_gen`] | dechirped IF-domain sample generation for a scene |
//! | [`slab`] | flat per-chirp sample storage (`SampleSlab`) |
//! | [`tag_frontend`] | the tag's differential (two-delay-line) decoder front-end |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod chirp;
pub mod components;
pub mod frame;
pub mod if_gen;
pub mod scene;
pub mod slab;
pub mod tag_frontend;

pub use biscatter_dsp::SPEED_OF_LIGHT;

/// Converts inches to metres (the paper specifies delay-line length
/// differences in inches: 18 in, 45 in).
pub fn inches_to_m(inches: f64) -> f64 {
    inches * 0.0254
}

/// Boltzmann's constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Reference temperature for noise calculations, Kelvin.
pub const T0_KELVIN: f64 = 290.0;

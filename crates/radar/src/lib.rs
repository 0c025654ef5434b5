//! # biscatter-radar — the radar side of BiScatter
//!
//! Implements everything the paper's radar/access-point does:
//!
//! * **CSSK modulation** ([`cssk`]): the chirp-slope symbol alphabet —
//!   fixed bandwidth, uniformly spaced inverse durations (= uniformly spaced
//!   tag beat frequencies), two reserved slopes for the packet header and
//!   sync fields.
//! * **Radar configurations** ([`configs`]): the paper's two prototypes
//!   (9 GHz LMX2492-class chirp generator with 1 GHz bandwidth, 24 GHz
//!   TinyRad-class with 250 MHz) plus a conceptual 77 GHz automotive preset.
//! * **Packet sequencing** ([`sequencer`]): downlink packets → chirp trains
//!   on a fixed `T_period` (paper §3.1).
//! * **The receive chain** ([`receiver`]): range FFT, the IF-correction that
//!   un-warps range profiles across varying slopes (paper §3.3, Fig. 7),
//!   background subtraction, range–Doppler processing, tag-signature matched
//!   filtering for localization, uplink demodulation, and cold-start
//!   acquisition ([`receiver::acquire`]) — an FFT overlap-save correlator
//!   bank that recovers an unsynchronized tag's timing offset and chirp
//!   slope from a raw dwell before the aligned pipeline runs.
//! * **Plain sensing** ([`sensing`]): CFAR-style detection and simple target
//!   tracking, used to demonstrate that communication is transparent to the
//!   radar's primary sensing job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod configs;
pub mod cssk;
pub mod receiver;
pub mod sensing;
pub mod sequencer;

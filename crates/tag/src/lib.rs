//! # biscatter-tag — the BiScatter tag
//!
//! The low-power backscatter node of the paper (§3.2): a 2-element Van Atta
//! array with an SPDT switch that toggles between **reflective** (uplink
//! modulation + retro-reflection) and **absorptive** (downlink decoding)
//! modes, and a differential delay-line decoder that turns GHz FMCW chirps
//! into kHz beat tones decodable with an MCU ADC.
//!
//! | module | contents |
//! |---|---|
//! | [`acquisition`] | chirp-period estimation and slot alignment from the raw ADC stream (paper Fig. 6) |
//! | [`demod`] | per-slot CSSK symbol decisions (matched Goertzel bank over the symbol alphabet) |
//! | [`decoder`] | the full downlink pipeline: acquire → align → decode → parse packet |
//! | [`calibration`] | one-time slope→beat-frequency calibration (paper §3.2.1) |
//! | [`modulator`] | uplink switch control: OOK/FSK subcarrier generation within switch limits |
//! | [`power`] | the power model of §4.1 (continuous 48 mW, sequential, custom-IC projection) |
//! | [`tag`] | the tag state machine: command handling, sleep/wake, uplink responses |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
pub mod calibration;
pub mod decoder;
pub mod demod;
pub mod modulator;
pub mod power;
pub mod tag;

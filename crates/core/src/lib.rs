//! # biscatter-core — the integrated BiScatter system
//!
//! Ties the radar ([`biscatter_radar`]), tag ([`biscatter_tag`]), protocol
//! ([`biscatter_link`]) and RF substrate ([`biscatter_rf`]) into the full
//! two-way ISAC system of the paper: simultaneous downlink (CSSK), uplink
//! (modulated retro-reflection), radar sensing, and tag localization over a
//! single FMCW frame.
//!
//! | module | contents |
//! |---|---|
//! | [`system`] | the assembled radar+tag pair: budgets, front-ends, decoders |
//! | [`downlink`] | Monte-Carlo downlink frames and BER measurement |
//! | [`isac`] | the integrated frame: downlink + uplink + sensing + localization |
//! | [`experiment`] | parameter sweeps, parallel execution, JSON/CSV export |
//! | [`baselines`] | the Table-1 comparison systems (Millimetro/mmTag/MilBack-like) |
//!
//! The crate also re-exports the sub-crates under short names (`dsp`, `rf`,
//! `tag`, `radar`, `link`) so downstream users need a single dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use biscatter_dsp as dsp;
pub use biscatter_link as link;
pub use biscatter_obs as obs;
pub use biscatter_radar as radar;
pub use biscatter_rf as rf;
pub use biscatter_tag as tag;

/// The workspace's hand-rolled JSON tree and parser (lives in
/// [`biscatter_obs`] so the trace exporter can use it; re-exported here for
/// the historical `biscatter_core::json` path).
pub use biscatter_obs::json;

pub mod baselines;
pub mod downlink;
pub mod experiment;
pub mod isac;
pub mod spread;
pub mod system;

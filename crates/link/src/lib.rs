//! # biscatter-link — protocol layer
//!
//! Everything above the physical layer and below the application: bit/symbol
//! packing with Gray coding, the BiScatter downlink packet structure
//! (header + sync preamble and data payload, paper §3.1 Fig. 3), the radar→tag
//! command set, uplink frames, BER accounting with confidence intervals, a
//! Hamming(7,4) FEC extension, and tag addressing (unicast or broadcast) for
//! the multi-tag extension sketched in the paper's §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ber;
pub mod bits;
pub mod coding;
pub mod commands;
pub mod mac;
pub mod packet;

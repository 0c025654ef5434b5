//! Packet → chirp-train sequencing (paper §3.1, Fig. 3).
//!
//! Converts a [`DownlinkPacket`]
//! into the on-air [`ChirpTrain`]: every
//! symbol becomes one chirp of the alphabet's duration on the fixed
//! `T_period` grid. Also builds padded ISAC frames (packet followed by
//! header-slope sensing chirps, so one frame carries communication *and*
//! enough chirps for Doppler processing).

use crate::cssk::CsskAlphabet;
use biscatter_link::packet::{DownlinkPacket, DownlinkSymbol};
use biscatter_rf::chirp::Chirp;
use biscatter_rf::frame::{ChirpTrain, FrameError};

/// Builds the chirp train for one downlink packet.
pub fn packet_to_train(
    packet: &DownlinkPacket,
    alphabet: &CsskAlphabet,
    t_period: f64,
) -> Result<(ChirpTrain, Vec<DownlinkSymbol>), FrameError> {
    let symbols = packet.to_symbols(alphabet.bits_per_symbol);
    let chirps: Vec<Chirp> = symbols.iter().map(|&s| alphabet.chirp_for(s)).collect();
    let train = ChirpTrain::with_fixed_period(&chirps, t_period)?;
    Ok((train, symbols))
}

/// Builds an integrated ISAC frame: the packet's chirps followed by header-
/// slope sensing chirps until the frame holds `total_chirps` chirps
/// (so the slow-time FFT has a full window regardless of payload length).
///
/// Returns the train, the symbol sequence actually on air (packet symbols +
/// `Header` padding), and the index where padding starts.
pub fn isac_frame(
    packet: &DownlinkPacket,
    alphabet: &CsskAlphabet,
    t_period: f64,
    total_chirps: usize,
) -> Result<(ChirpTrain, Vec<DownlinkSymbol>, usize), FrameError> {
    let mut symbols = packet.to_symbols(alphabet.bits_per_symbol);
    let pad_start = symbols.len();
    while symbols.len() < total_chirps {
        symbols.push(DownlinkSymbol::Header);
    }
    let chirps: Vec<Chirp> = symbols.iter().map(|&s| alphabet.chirp_for(s)).collect();
    let train = ChirpTrain::with_fixed_period(&chirps, t_period)?;
    Ok((train, symbols, pad_start))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphabet() -> CsskAlphabet {
        CsskAlphabet::new(9e9, 1e9, 5, 20e-6, 120e-6).unwrap()
    }

    #[test]
    fn packet_train_structure() {
        let a = alphabet();
        let pkt = DownlinkPacket::new(b"HI".to_vec());
        let (train, symbols) = packet_to_train(&pkt, &a, 120e-6).unwrap();
        assert_eq!(train.len(), symbols.len());
        assert_eq!(train.len(), pkt.total_chirps(5));
        // First chirps are header slope (longest duration).
        let header_dur = a.duration_for(DownlinkSymbol::Header);
        for slot in &train.slots()[..pkt.header_len] {
            assert!((slot.chirp.duration - header_dur).abs() < 1e-15);
        }
        // All slots share the fixed period.
        assert!(train.is_uniform_period(1e-12));
    }

    #[test]
    fn symbol_durations_match_alphabet() {
        let a = alphabet();
        let pkt = DownlinkPacket::new(vec![0xF0, 0x0F]);
        let (train, symbols) = packet_to_train(&pkt, &a, 120e-6).unwrap();
        for (slot, &sym) in train.slots().iter().zip(&symbols) {
            assert!((slot.chirp.duration - a.duration_for(sym)).abs() < 1e-15);
        }
    }

    #[test]
    fn isac_frame_pads_to_length() {
        let a = alphabet();
        let pkt = DownlinkPacket::new(vec![0xAB]);
        let (train, symbols, pad_start) = isac_frame(&pkt, &a, 120e-6, 64).unwrap();
        assert_eq!(train.len(), 64);
        assert_eq!(pad_start, pkt.total_chirps(5));
        assert!(symbols[pad_start..]
            .iter()
            .all(|&s| s == DownlinkSymbol::Header));
    }

    #[test]
    fn isac_frame_without_padding_when_long() {
        let a = alphabet();
        let pkt = DownlinkPacket::new(vec![0u8; 64]); // long payload
        let (train, symbols, pad_start) = isac_frame(&pkt, &a, 120e-6, 8).unwrap();
        assert_eq!(pad_start, symbols.len());
        assert!(train.len() >= 8);
    }
}

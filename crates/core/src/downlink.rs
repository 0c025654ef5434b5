//! Monte-Carlo downlink simulation and BER measurement.
//!
//! Reproduces the paper's evaluation method (§5): for each operating point
//! (symbol size, bandwidth, distance/SNR, ΔL) transmit many frames of random
//! payload through the tag front-end at the corresponding envelope SNR and
//! count bit errors at the decoder output.
//!
//! Two decode paths are provided:
//!
//! * [`run_frame`] — the full pipeline (period estimation, alignment, sync
//!   detection), exactly what a deployed tag runs;
//! * [`run_frame_synced`] — genie-aided slot alignment, used by the large
//!   BER sweeps (the acquisition stage succeeds essentially always above the
//!   BER-relevant SNR range, and skipping it makes 10⁴-frame sweeps cheap).

use crate::system::BiScatterSystem;
use biscatter_dsp::signal::NoiseSource;
use biscatter_link::ber::BerCounter;
use biscatter_link::packet::{parse_downlink, DownlinkPacket};
use biscatter_radar::sequencer::packet_to_train;
use biscatter_tag::decoder::DownlinkDecoder;
use biscatter_tag::demod::SymbolDecider;

/// Outcome of one downlink frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOutcome {
    /// The payload that was transmitted.
    pub sent: Vec<u8>,
    /// The payload the tag recovered (empty on parse failure).
    pub received: Vec<u8>,
    /// Whether packet parsing succeeded at all.
    pub parsed: bool,
}

impl FrameOutcome {
    /// The outcome of sending `sent` when the tag recovered `received`
    /// (`None` when decoding or parsing failed).
    pub fn new(sent: &[u8], received: Option<Vec<u8>>) -> Self {
        FrameOutcome {
            sent: sent.to_vec(),
            parsed: received.is_some(),
            received: received.unwrap_or_default(),
        }
    }
}

/// Runs one frame through the *full* tag pipeline at the given envelope SNR.
pub fn run_frame(
    sys: &BiScatterSystem,
    decoder: &DownlinkDecoder,
    payload: &[u8],
    snr_db: f64,
    time_offset_s: f64,
    noise: &mut NoiseSource,
) -> FrameOutcome {
    let packet = DownlinkPacket::new(payload.to_vec());
    let (train, _) = packet_to_train(&packet, &sys.alphabet, sys.radar.t_period)
        .expect("alphabet durations satisfy the duty constraint by construction");
    let samples = sys
        .front_end
        .capture_train(&train, snr_db, time_offset_s, noise);
    let received = decoder.decode(&samples, Some(payload.len()));
    FrameOutcome::new(payload, received.ok().and_then(|r| r.payload.ok()))
}

/// Runs one frame with genie-aided alignment (no acquisition stage).
pub fn run_frame_synced(
    sys: &BiScatterSystem,
    decider: &SymbolDecider,
    payload: &[u8],
    snr_db: f64,
    noise: &mut NoiseSource,
) -> FrameOutcome {
    let packet = DownlinkPacket::new(payload.to_vec());
    let (train, _) = packet_to_train(&packet, &sys.alphabet, sys.radar.t_period)
        .expect("alphabet durations satisfy the duty constraint by construction");
    let samples = sys.front_end.capture_train(&train, snr_db, 0.0, noise);
    let period_samples = (sys.radar.t_period * sys.front_end.adc.sample_rate_hz).round() as usize;
    let symbols = decider.decide_stream(&samples, period_samples);
    let received = parse_downlink(&symbols, sys.alphabet.bits_per_symbol, Some(payload.len()));
    FrameOutcome::new(payload, received.ok())
}

/// Measures *physical-layer* downlink BER with genie framing: random data
/// symbols are transmitted back-to-back (no preamble), decided per slot, and
/// compared bit-for-bit through the Gray map. This isolates the CSSK
/// modulation performance from packet-framing cliffs and is the quantity the
/// paper's Figs. 12–14 and 17 plot.
pub fn measure_ber_symbols(
    sys: &BiScatterSystem,
    snr_db: f64,
    n_frames: usize,
    symbols_per_frame: usize,
    seed: u64,
) -> BerCounter {
    measure_ber_symbols_mapped(sys, snr_db, n_frames, symbols_per_frame, seed, true)
}

/// [`measure_ber_symbols`] with a switchable bit↔slope mapping: Gray
/// (`gray = true`, the system default) or natural binary (`gray = false`,
/// the ablation baseline where an adjacent-slope confusion can flip up to
/// `bits` bits at once).
pub fn measure_ber_symbols_mapped(
    sys: &BiScatterSystem,
    snr_db: f64,
    n_frames: usize,
    symbols_per_frame: usize,
    seed: u64,
    gray: bool,
) -> BerCounter {
    use biscatter_link::bits::{gray_decode, gray_encode};
    use biscatter_link::packet::DownlinkSymbol;
    use biscatter_rf::frame::ChirpTrain;

    let decider = sys.nominal_decider();
    let mut noise = NoiseSource::new(seed);
    let mut data_rng = NoiseSource::new(seed ^ 0xBEEF_CAFE_F00D_D00D);
    let mut counter = BerCounter::new();
    let bits = sys.alphabet.bits_per_symbol;
    let n_data = sys.alphabet.n_data_symbols() as f64;
    let period_samples = (sys.radar.t_period * sys.front_end.adc.sample_rate_hz).round() as usize;

    for _ in 0..n_frames {
        let raw: Vec<u16> = (0..symbols_per_frame)
            .map(|_| (data_rng.uniform() * n_data) as u16)
            .collect();
        let on_air: Vec<DownlinkSymbol> = raw
            .iter()
            .map(|&v| DownlinkSymbol::Data(if gray { gray_decode(v) } else { v }))
            .collect();
        let chirps: Vec<_> = on_air.iter().map(|&s| sys.alphabet.chirp_for(s)).collect();
        let train = ChirpTrain::with_fixed_period(&chirps, sys.radar.t_period)
            .expect("alphabet durations satisfy the duty constraint");
        let samples = sys.front_end.capture_train(&train, snr_db, 0.0, &mut noise);
        let decided = decider.decide_stream(&samples, period_samples);
        for (sent_raw, got) in raw.iter().zip(&decided) {
            let got_raw = match got {
                DownlinkSymbol::Data(v) => {
                    if gray {
                        gray_encode(*v)
                    } else {
                        *v
                    }
                }
                // Header/Sync confusions map to the slope-adjacent data
                // value (both reserved slopes neighbour Data(0)), mirroring
                // the packet parser.
                DownlinkSymbol::Header => 0,
                DownlinkSymbol::Sync => 0,
            };
            for b in 0..bits {
                counter.bits += 1;
                counter.errors += u64::from((sent_raw >> b) & 1 != (got_raw >> b) & 1);
            }
        }
        // A sent symbol the decider never reached is `bits` bit errors.
        let undecided = (raw.len().saturating_sub(decided.len()) * bits) as u64;
        counter.bits += undecided;
        counter.errors += undecided;
    }
    counter
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_tag::decoder::DownlinkDecoder;

    #[test]
    fn outcome_parsed_iff_payload_received() {
        let ok = FrameOutcome::new(b"PING", Some(b"PONG".to_vec()));
        assert_eq!(
            (ok.sent, ok.received, ok.parsed),
            (b"PING".to_vec(), b"PONG".to_vec(), true)
        );
        let failed = FrameOutcome::new(b"PING", None);
        assert_eq!((failed.received, failed.parsed), (Vec::new(), false));
        // An empty payload that parsed is still parsed.
        assert!(FrameOutcome::new(b"", Some(Vec::new())).parsed);
    }

    #[test]
    fn high_snr_frame_perfect() {
        let sys = BiScatterSystem::paper_9ghz();
        let decider = sys.nominal_decider();
        let mut noise = NoiseSource::new(1);
        let out = run_frame_synced(&sys, &decider, b"PING", 30.0, &mut noise);
        assert!(out.parsed);
        assert_eq!(out.received, b"PING");
    }

    #[test]
    fn full_pipeline_with_offset_matches_synced() {
        let sys = BiScatterSystem::paper_9ghz();
        let decoder = DownlinkDecoder::new(sys.nominal_decider());
        let mut noise = NoiseSource::new(2);
        let out = run_frame(&sys, &decoder, b"FULL", 25.0, 43e-6, &mut noise);
        assert!(out.parsed);
        assert_eq!(out.received, b"FULL");
    }

    #[test]
    fn ber_zero_at_high_snr() {
        let sys = BiScatterSystem::paper_9ghz();
        let c = measure_ber_symbols(&sys, 30.0, 20, 8, 3);
        assert_eq!(c.errors, 0, "BER {} at 30 dB", c.ber());
        // Every one of the 160 sent symbols is decided and counted.
        assert_eq!(c.bits, 160 * sys.alphabet.bits_per_symbol as u64);
    }

    #[test]
    fn ber_monotone_in_snr() {
        let sys = BiScatterSystem::paper_9ghz();
        let low = measure_ber_symbols(&sys, -6.0, 15, 8, 4).ber();
        let mid = measure_ber_symbols(&sys, 6.0, 15, 8, 4).ber();
        let high = measure_ber_symbols(&sys, 25.0, 15, 8, 4).ber();
        assert!(low > mid, "low {low} vs mid {mid}");
        assert!(mid >= high, "mid {mid} vs high {high}");
        assert!(low > 0.05, "very low SNR should be badly errored: {low}");
    }

    #[test]
    fn distance_mapping_used() {
        let sys = BiScatterSystem::paper_9ghz();
        // 0.5 m is a very high-SNR operating point: error-free.
        let c = measure_ber_symbols(&sys, sys.downlink_snr_at(0.5), 10, 8, 5);
        assert_eq!(c.errors, 0);
    }
}

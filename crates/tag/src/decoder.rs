//! The full tag downlink pipeline: acquire → align → decode → parse.
//!
//! Mirrors the paper's §3.2.2 receiver: the tag samples its envelope
//! detector continuously, estimates the chirp period from the packet header,
//! aligns slot boundaries, classifies every slot with the matched Goertzel
//! bank, finds the sync field, and hands the payload symbols to the packet
//! parser.

use crate::acquisition::{estimate_period, estimate_slot_timing};
use crate::demod::{Candidate, SlotBank, SymbolDecider};
use biscatter_link::packet::{parse_downlink, DownlinkSymbol, PacketError};
use std::cell::{Cell, RefCell};

/// The assembled downlink decoder.
#[derive(Debug, Clone)]
pub struct DownlinkDecoder {
    /// Symbol decision bank (nominal or calibrated).
    pub decider: SymbolDecider,
    /// Smallest chirp period to search for, s.
    pub t_period_min: f64,
    /// Largest chirp period to search for, s.
    pub t_period_max: f64,
}

/// Everything the pipeline recovered from one capture.
#[derive(Debug, Clone)]
pub struct DecodeResult {
    /// Estimated chirp period, s.
    pub period_s: f64,
    /// Estimated slot-boundary offset, samples.
    pub offset_samples: usize,
    /// The decoded symbol stream (header/sync/data).
    pub symbols: Vec<DownlinkSymbol>,
    /// Parsed payload bytes (or why parsing failed).
    pub payload: Result<Vec<u8>, PacketError>,
}

/// Why decoding failed before symbol decisions could run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Could not find a repeating chirp period in the capture.
    NoPeriod,
    /// The capture is shorter than one slot at the estimated period.
    TooShort,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::NoPeriod => write!(f, "no chirp period found"),
            DecodeError::TooShort => write!(f, "capture shorter than one slot"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl DownlinkDecoder {
    /// Creates a decoder with the default period search band (50–400 µs,
    /// covering all configurations used in the paper).
    pub fn new(decider: SymbolDecider) -> Self {
        DownlinkDecoder {
            decider,
            t_period_min: 50e-6,
            t_period_max: 400e-6,
        }
    }

    /// Bits per data symbol implied by the bank size (`2^bits + 2`
    /// candidates).
    pub fn bits_per_symbol(&self) -> usize {
        let data = self.decider.candidates.len().saturating_sub(2).max(2);
        (usize::BITS - 1 - data.leading_zeros()) as usize
    }

    /// Runs the full pipeline on a raw ADC capture.
    ///
    /// `expected_len`, when known (fixed-size commands), trims tail padding
    /// from the parsed payload.
    pub fn decode(
        &self,
        samples: &[f64],
        expected_len: Option<usize>,
    ) -> Result<DecodeResult, DecodeError> {
        let fs = self.decider.fs;
        let coarse_s = estimate_period(samples, fs, self.t_period_min, self.t_period_max)
            .ok_or(DecodeError::NoPeriod)?;
        let coarse = (coarse_s * fs).round() as usize;
        if coarse == 0 || samples.len() < 2 * coarse {
            return Err(DecodeError::TooShort);
        }
        // Joint fine search for (period, offset) on the boundary-contrast
        // metric: the last 1-MAX_DUTY of every slot is guaranteed idle, so
        // the true timing maximizes the power step across slot boundaries.
        let gap_fraction = 1.0 - biscatter_rf::frame::MAX_DUTY;
        let (period0, offset0) = estimate_slot_timing(samples, coarse, gap_fraction);
        let (period, offset, symbols) = self.refine_timing(samples, period0, offset0);
        let payload = parse_downlink(&symbols, self.bits_per_symbol(), expected_len);
        Ok(DecodeResult {
            period_s: period / fs,
            offset_samples: offset,
            symbols,
            payload,
        })
    }

    /// Final refinement on the decoder's own metric: among the 25
    /// (period, offset) hypotheses within ±0.5 sample of period and ±2
    /// samples of offset around `(period0, offset0)`, keeps the one whose
    /// slot decisions score highest in sum (the first strict maximum,
    /// period outer, offset inner), with its symbol stream. This absorbs
    /// the residual fraction-of-a-sample timing error that the shortest
    /// (sync-slope) chirps are most sensitive to.
    ///
    /// Hypothesis `(p, o)` decides slot `k` on the samples from
    /// `round(o + k·p)`; a trailing slot of at least half a period is
    /// zero-padded and decided too. Many hypotheses put slot `k` on the
    /// same samples, and a decision does not depend on the batch it is made
    /// in, so the sweep runs through the slots in runs: for a run of
    /// consecutive slots it collects each slot's distinct starts on a bank,
    /// decides the whole run's in one batch (whole layouts of
    /// [`SlotBank`]'s batch size, where a slot alone fills only part of
    /// one), and hands each decision, slot by slot, to every hypothesis
    /// that lands there.
    fn refine_timing(
        &self,
        samples: &[f64],
        period0: f64,
        offset0: usize,
    ) -> (f64, usize, Vec<DownlinkSymbol>) {
        BANKS.with(|banks| {
            let mut banks = banks.borrow_mut();
            banks.keep_for(&self.decider);
            let mut decided = DECIDED.take();
            let out = self.refine_with(samples, period0, offset0, &mut banks.banks, &mut decided);
            DECIDED.set(decided);
            out
        })
    }

    /// [`DownlinkDecoder::refine_timing`] on `banks`, this decider's banks
    /// by span (the ones it needs and lacks are added), with `decided` as
    /// the decision table.
    fn refine_with(
        &self,
        samples: &[f64],
        period0: f64,
        offset0: usize,
        banks: &mut Vec<(usize, SlotBank)>,
        decided: &mut Vec<DownlinkSymbol>,
    ) -> (f64, usize, Vec<DownlinkSymbol>) {
        let len = samples.len();
        let mut sweeps = [Sweep::default(); HYPOTHESES];
        let mut n = 0;
        for dp in -2i32..=2 {
            let period = period0 + dp as f64 * 0.25;
            for doff in -2i32..=2 {
                let Some(offset) = offset0.checked_add_signed(doff as isize) else {
                    continue;
                };
                let live = period >= 4.0;
                let plen = period.round() as usize;
                let span = self.decider.span(plen);
                let bank = banks.iter().position(|b| b.0 == span).unwrap_or_else(|| {
                    banks.push((span, self.decider.bank(span)));
                    banks.len() - 1
                });
                let mut sweep = Sweep {
                    period,
                    offset,
                    bank,
                    total: if live { 0.0 } else { f64::NEG_INFINITY },
                    slots: 0,
                };
                if live {
                    sweep.slots = sweep.count_slots(len, plen);
                }
                sweeps[n] = sweep;
                n += 1;
            }
        }
        let sweeps = &mut sweeps[..n];

        // `decided[k * n + h]`: hypothesis `h`'s symbol in slot `k`.
        let rows = sweeps.iter().map(|s| s.slots).max().unwrap_or(0);
        decided.clear();
        decided.resize(rows * n, DownlinkSymbol::Header);
        // One bank's run: its distinct starts, slot after slot, their
        // decisions, and where each hypothesis's start sits among them.
        let mut starts = [0usize; RUN_STARTS];
        let mut decisions = [(DownlinkSymbol::Header, f64::NEG_INFINITY); RUN_STARTS];
        let mut picks = [[0u8; HYPOTHESES]; RUN_SLOTS];
        for (b, (_, bank)) in banks.iter().enumerate() {
            let mut first = 0;
            while first < rows {
                // Whole slots while one more surely fits.
                let mut used = 0;
                let mut k = first;
                while k < rows && k - first < RUN_SLOTS && used + HYPOTHESES <= RUN_STARTS {
                    let slot = used;
                    for (h, s) in sweeps.iter().enumerate() {
                        if s.bank != b || k >= s.slots {
                            continue;
                        }
                        let start = s.start(k);
                        let pick = match starts[slot..used].iter().position(|&x| x == start) {
                            Some(pick) => slot + pick,
                            None => {
                                starts[used] = start;
                                used += 1;
                                used - 1
                            }
                        };
                        picks[k - first][h] = pick as u8;
                    }
                    k += 1;
                }
                bank.decide_batch(samples, &starts[..used], &mut decisions[..used]);
                for (k, picks) in (first..k).zip(&picks) {
                    for (h, s) in sweeps.iter_mut().enumerate() {
                        if s.bank == b && k < s.slots {
                            let (symbol, score) = decisions[picks[h] as usize];
                            s.total += score;
                            decided[k * n + h] = symbol;
                        }
                    }
                }
                first = k;
            }
        }

        let mut best = (period0, offset0, f64::NEG_INFINITY, None);
        for (h, s) in sweeps.iter().enumerate() {
            if s.total > best.2 {
                best = (s.period, s.offset, s.total, Some(h));
            }
        }
        let symbols = match best.3 {
            Some(h) => (0..sweeps[h].slots).map(|k| decided[k * n + h]).collect(),
            None => Vec::new(),
        };
        (best.0, best.1, symbols)
    }
}

/// The (period, offset) hypotheses [`DownlinkDecoder::refine_timing`]
/// scores: five periods by five offsets.
const HYPOTHESES: usize = 25;

/// Most banks [`BANKS`] keeps; a decode that would pass it starts afresh.
const CACHED_BANKS: usize = 8;

/// The decision banks of one decider, by the span each was laid out for,
/// kept across decodes: a bank depends only on the candidates, the sample
/// rate and the span, so a decoder built again for the next frame finds
/// the banks of the last one.
#[derive(Default)]
struct BankCache {
    candidates: Vec<Candidate>,
    fs: f64,
    banks: Vec<(usize, SlotBank)>,
}

impl BankCache {
    /// Keeps the banks when they were laid out for `decider` (and are not
    /// too many); drops them otherwise.
    fn keep_for(&mut self, decider: &SymbolDecider) {
        let same = self.candidates == decider.candidates && self.fs == decider.fs;
        if !same || self.banks.len() >= CACHED_BANKS {
            self.banks.clear();
            self.candidates.clone_from(&decider.candidates);
            self.fs = decider.fs;
        }
    }
}

thread_local! {
    /// This thread's decision banks.
    static BANKS: RefCell<BankCache> = RefCell::default();
    /// This thread's decision table of the timing sweep.
    static DECIDED: Cell<Vec<DownlinkSymbol>> = const { Cell::new(Vec::new()) };
}

/// Most starts one run of slots decides together: eight whole layouts of
/// the bank's batch (indices fit the `u8` picks).
const RUN_STARTS: usize = 256;

/// Most slots in one run.
const RUN_SLOTS: usize = 64;

/// One hypothesis of [`DownlinkDecoder::refine_timing`].
#[derive(Clone, Copy, Default)]
struct Sweep {
    period: f64,
    offset: usize,
    /// The bank its slots are decided with.
    bank: usize,
    /// Winning scores summed in slot order.
    total: f64,
    /// Slots it decides.
    slots: usize,
}

impl Sweep {
    /// Where slot `k` starts: `round(offset + k·period)`.
    fn start(&self, k: usize) -> usize {
        (self.offset as f64 + k as f64 * self.period).round() as usize
    }

    /// How many slots of `plen` samples the hypothesis decides in `len`
    /// samples: slots run while they start inside the capture, up to and
    /// including the first that overruns it, which is decided only if at
    /// least half of it lies inside.
    fn count_slots(&self, len: usize, plen: usize) -> usize {
        let mut k = 0;
        loop {
            let start = self.start(k);
            let last = start + plen > len;
            if start >= len || (last && (len - start) * 2 < plen) {
                return k;
            }
            k += 1;
            if last {
                return k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demod::SymbolDecider;
    use biscatter_dsp::signal::NoiseSource;
    use biscatter_link::packet::DownlinkPacket;
    use biscatter_radar::cssk::CsskAlphabet;
    use biscatter_radar::sequencer::packet_to_train;
    use biscatter_rf::inches_to_m;
    use biscatter_rf::tag_frontend::TagFrontEnd;

    fn setup(bits: usize) -> (CsskAlphabet, TagFrontEnd, DownlinkDecoder) {
        let alphabet = CsskAlphabet::new(9e9, 1e9, bits, 20e-6, 120e-6).unwrap();
        let fe = TagFrontEnd::coax_prototype(inches_to_m(45.0), 9.5e9);
        let decider =
            SymbolDecider::from_alphabet(&alphabet, fe.pair.delta_t(), fe.adc.sample_rate_hz);
        (alphabet, fe, DownlinkDecoder::new(decider))
    }

    fn transmit(
        alphabet: &CsskAlphabet,
        fe: &TagFrontEnd,
        packet: &DownlinkPacket,
        snr_db: f64,
        offset_s: f64,
        seed: u64,
    ) -> Vec<f64> {
        let (mut train, _) = packet_to_train(packet, alphabet, 120e-6).unwrap();
        if offset_s > 0.0 {
            // A real radar chirps continuously; with a shifted ADC clock the
            // capture window must still cover the whole packet, so model the
            // radar's next (header) chirp after it.
            let slot = *train.slots().first().unwrap();
            train.push(slot);
        }
        let mut noise = NoiseSource::new(seed);
        fe.capture_train(&train, snr_db, offset_s, &mut noise)
    }

    #[test]
    fn bits_per_symbol_inferred() {
        for bits in [1usize, 3, 5, 8] {
            let (_, _, dec) = setup(bits);
            assert_eq!(dec.bits_per_symbol(), bits);
        }
    }

    #[test]
    fn end_to_end_clean() {
        let (alphabet, fe, dec) = setup(5);
        let packet = DownlinkPacket::new(b"BISCATTER".to_vec());
        let samples = transmit(&alphabet, &fe, &packet, 30.0, 0.0, 1);
        let result = dec.decode(&samples, Some(9)).unwrap();
        assert!((result.period_s - 120e-6).abs() < 3e-6);
        assert_eq!(result.payload.unwrap(), b"BISCATTER");
    }

    #[test]
    fn end_to_end_with_clock_offset() {
        // The tag's ADC starts mid-slot: acquisition must recover alignment.
        let (alphabet, fe, dec) = setup(5);
        let packet = DownlinkPacket::new(b"OFFSET".to_vec());
        for (i, offset) in [31e-6, 77e-6, 113e-6].into_iter().enumerate() {
            // Prepend a couple of extra header chirps' worth of time by using
            // a packet with a longer preamble so the sync is never clipped.
            let mut pkt = packet.clone();
            pkt.header_len = 10;
            let samples = transmit(&alphabet, &fe, &pkt, 28.0, offset, 10 + i as u64);
            let result = dec.decode(&samples, Some(6)).unwrap();
            assert_eq!(
                result.payload.as_deref().unwrap(),
                b"OFFSET",
                "offset {offset}"
            );
        }
    }

    #[test]
    fn end_to_end_moderate_snr() {
        let (alphabet, fe, dec) = setup(5);
        let packet = DownlinkPacket::new(vec![0x12, 0x34, 0x56, 0x78]);
        let samples = transmit(&alphabet, &fe, &packet, 16.0, 0.0, 3);
        let result = dec.decode(&samples, Some(4)).unwrap();
        assert_eq!(result.payload.unwrap(), vec![0x12, 0x34, 0x56, 0x78]);
    }

    /// Scores one (period, offset) hypothesis on its own, slot after slot:
    /// the refinement's definition, which the shared sweep must reproduce.
    fn score_alone(
        decider: &SymbolDecider,
        samples: &[f64],
        period: f64,
        offset: usize,
    ) -> (Vec<DownlinkSymbol>, f64) {
        if period < 4.0 {
            return (Vec::new(), f64::NEG_INFINITY);
        }
        let plen = period.round() as usize;
        let (mut out, mut total) = (Vec::new(), 0.0);
        for k in 0.. {
            let start = (offset as f64 + k as f64 * period).round() as usize;
            if start >= samples.len() {
                break;
            }
            let mut slot = samples[start..samples.len().min(start + plen)].to_vec();
            let partial = slot.len() < plen;
            if partial && slot.len() * 2 < plen {
                break;
            }
            slot.resize(plen, 0.0);
            let (sym, score) = decider.decide_slot(&slot);
            out.push(sym);
            total += score;
            if partial {
                break;
            }
        }
        (out, total)
    }

    #[test]
    fn shared_sweep_matches_hypotheses_scored_alone() {
        let (alphabet, fe, dec) = setup(5);
        let fs = dec.decider.fs;
        let packet = DownlinkPacket::new(b"SWEEP".to_vec());
        let mut checked = 0;
        for (i, (snr_db, offset_s, cut)) in [
            (30.0, 0.0, 0),
            (12.0, 41e-6, 37),
            (5.0, 0.0, 75),
            (3.0, 88e-6, 0),
        ]
        .into_iter()
        .enumerate()
        {
            let samples = transmit(&alphabet, &fe, &packet, snr_db, offset_s, 20 + i as u64);
            // Cutting the capture short leaves a partial last slot.
            let samples = &samples[..samples.len() - cut];
            let Ok(got) = dec.decode(samples, Some(5)) else {
                continue;
            };
            let coarse_s = estimate_period(samples, fs, dec.t_period_min, dec.t_period_max);
            let coarse = (coarse_s.unwrap() * fs).round() as usize;
            let gap = 1.0 - biscatter_rf::frame::MAX_DUTY;
            let (period0, offset0) = estimate_slot_timing(samples, coarse, gap);
            let mut want = (period0, offset0, f64::NEG_INFINITY, Vec::new());
            for dp in -2i32..=2 {
                let period = period0 + dp as f64 * 0.25;
                for doff in -2isize..=2 {
                    let Some(offset) = offset0.checked_add_signed(doff) else {
                        continue;
                    };
                    let (symbols, score) = score_alone(&dec.decider, samples, period, offset);
                    if score > want.2 {
                        want = (period, offset, score, symbols);
                    }
                }
            }
            assert_eq!(
                got.period_s.to_bits(),
                (want.0 / fs).to_bits(),
                "capture {i}"
            );
            assert_eq!(got.offset_samples, want.1, "capture {i}");
            assert_eq!(got.symbols, want.3, "capture {i}");
            checked += 1;
        }
        assert_eq!(checked, 4, "every capture should get past acquisition");
    }

    #[test]
    fn noise_only_yields_error() {
        let (_, _, dec) = setup(5);
        let mut noise = NoiseSource::new(4);
        let samples = noise.awgn(200, 1.0);
        assert!(dec.decode(&samples, None).is_err());
    }

    #[test]
    fn symbol_stream_contains_preamble() {
        let (alphabet, fe, dec) = setup(4);
        let packet = DownlinkPacket::new(vec![0xAA]);
        let samples = transmit(&alphabet, &fe, &packet, 30.0, 0.0, 5);
        let result = dec.decode(&samples, Some(1)).unwrap();
        let headers = result
            .symbols
            .iter()
            .filter(|s| **s == DownlinkSymbol::Header)
            .count();
        let syncs = result
            .symbols
            .iter()
            .filter(|s| **s == DownlinkSymbol::Sync)
            .count();
        assert!(headers >= packet.header_len - 1, "{headers} headers");
        assert!(syncs >= 1, "{syncs} syncs");
    }
}

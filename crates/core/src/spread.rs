//! Chirp-spread-spectrum (CSS) downlink coding — the paper's §6 extension
//! ("more complex downlink modulations based on chirp-spread-spectrum (CSS)
//! can be used to improve the [data rate / robustness]").
//!
//! Each data symbol is spread over `L` consecutive chirps whose slope
//! indices follow a per-position cyclic shift of the symbol value over the
//! data-slope ladder (a Zadoff–Chu-flavoured hopping pattern):
//!
//! `index(symbol, j) = (symbol + j · hop) mod 2^bits`,  `j = 0..L`
//!
//! with `hop` coprime to the alphabet size. The tag decodes by summing its
//! per-slot matched scores along each candidate's hopping trajectory.
//! Benefits over plain CSSK, at `1/L` the data rate:
//!
//! * **SNR gain**: L-fold non-coherent combining (~`10·log10(L)` dB).
//! * **Error diversity**: a symbol's chips sit at `L` different places on
//!   the beat ladder, so the weak (fast-slope) end of the ladder no longer
//!   dominates the error rate — adjacent confusion on one chip is outvoted
//!   by the other chips.

use biscatter_link::packet::DownlinkSymbol;
use biscatter_radar::cssk::CsskAlphabet;
use biscatter_rf::chirp::Chirp;
use biscatter_rf::frame::{ChirpTrain, FrameError};
use biscatter_tag::demod::SymbolDecider;

/// A spreading configuration over a CSSK alphabet.
#[derive(Debug, Clone)]
pub struct SpreadCode {
    /// Chips (chirps) per data symbol.
    pub length: usize,
    /// Hop stride between consecutive chips (coprime to `2^bits`).
    pub hop: u16,
}

impl SpreadCode {
    /// A default code: `L` chips with stride chosen near 40% of the
    /// alphabet (odd, hence coprime to the power-of-two alphabet size).
    pub fn new(length: usize, n_data: usize) -> Self {
        assert!(length >= 1, "need at least one chip");
        let mut hop = ((n_data as f64 * 0.4).round() as u16) | 1; // odd
        if hop as usize >= n_data {
            hop = 1;
        }
        SpreadCode { length, hop }
    }

    /// The slope index of chip `j` for `symbol`.
    pub fn chip_index(&self, symbol: u16, j: usize, n_data: usize) -> u16 {
        ((symbol as usize + j * self.hop as usize) % n_data) as u16
    }

    /// Spreads a symbol sequence into the on-air chip sequence.
    pub fn spread(&self, symbols: &[u16], n_data: usize) -> Vec<DownlinkSymbol> {
        let mut chips = Vec::with_capacity(symbols.len() * self.length);
        for &s in symbols {
            for j in 0..self.length {
                chips.push(DownlinkSymbol::Data(self.chip_index(s, j, n_data)));
            }
        }
        chips
    }

    /// Builds the chirp train for a spread symbol sequence.
    pub fn to_train(
        &self,
        symbols: &[u16],
        alphabet: &CsskAlphabet,
        t_period: f64,
    ) -> Result<ChirpTrain, FrameError> {
        let chips = self.spread(symbols, alphabet.n_data_symbols());
        let chirps: Vec<Chirp> = chips.iter().map(|&c| alphabet.chirp_for(c)).collect();
        ChirpTrain::with_fixed_period(&chirps, t_period)
    }

    /// Decodes a slot-aligned capture back into symbols by summing matched
    /// scores along each candidate's hopping trajectory.
    ///
    /// `samples` must start at the first chip's slot boundary;
    /// `period_samples` is the slot length. Returns one symbol per complete
    /// group of `length` slots.
    pub fn despread(
        &self,
        samples: &[f64],
        period_samples: usize,
        decider: &SymbolDecider,
        alphabet: &CsskAlphabet,
    ) -> Vec<u16> {
        let n_data = alphabet.n_data_symbols();
        let group = self.length * period_samples;
        if period_samples == 0 || group == 0 {
            return Vec::new();
        }
        // Every candidate's score in every slot of the complete groups, one
        // batch; for data index i, the position in the decider bank is
        // 1 + i (the bank orders [header, data.., sync]).
        let n_cand = decider.candidates.len();
        let slots = samples.len() / group * self.length;
        let starts: Vec<usize> = (0..slots).map(|k| k * period_samples).collect();
        let mut scores = vec![f64::NEG_INFINITY; slots * n_cand];
        decider
            .bank(period_samples)
            .scores_batch(samples, &starts, &mut scores);
        scores
            .chunks_exact(self.length * n_cand)
            .map(|scores| {
                let mut best = (0u16, f64::NEG_INFINITY);
                for cand in 0..n_data as u16 {
                    let mut score = 0.0;
                    for j in 0..self.length {
                        let idx = self.chip_index(cand, j, n_data);
                        score += scores[j * n_cand + 1 + idx as usize];
                    }
                    if score > best.1 {
                        best = (cand, score);
                    }
                }
                best.0
            })
            .collect()
    }

    /// Effective data rate relative to plain CSSK (`1/L`).
    pub fn rate_factor(&self) -> f64 {
        1.0 / self.length as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_dsp::signal::NoiseSource;
    use biscatter_rf::inches_to_m;
    use biscatter_rf::tag_frontend::TagFrontEnd;

    fn setup() -> (CsskAlphabet, TagFrontEnd, SymbolDecider) {
        let alphabet = CsskAlphabet::new(9e9, 1e9, 5, 20e-6, 120e-6).unwrap();
        let fe = TagFrontEnd::coax_prototype(inches_to_m(45.0), 9.5e9);
        let decider =
            SymbolDecider::from_alphabet(&alphabet, fe.pair.delta_t(), fe.adc.sample_rate_hz);
        (alphabet, fe, decider)
    }

    fn run(code: &SpreadCode, symbols: &[u16], snr_db: f64, seed: u64) -> (Vec<u16>, Vec<u16>) {
        let (alphabet, fe, decider) = setup();
        let train = code.to_train(symbols, &alphabet, 120e-6).unwrap();
        let mut noise = NoiseSource::new(seed);
        let samples = fe.capture_train(&train, snr_db, 0.0, &mut noise);
        let decoded = code.despread(&samples, 120, &decider, &alphabet);
        (symbols.to_vec(), decoded)
    }

    #[test]
    fn chip_indices_cover_distinct_slopes() {
        let code = SpreadCode::new(4, 32);
        for s in 0..32u16 {
            let mut idxs: Vec<u16> = (0..4).map(|j| code.chip_index(s, j, 32)).collect();
            idxs.dedup();
            assert_eq!(idxs.len(), 4, "symbol {s} chips not distinct: {idxs:?}");
        }
    }

    #[test]
    fn hop_is_bijective_per_position() {
        // At every chip position, distinct symbols map to distinct slopes.
        let code = SpreadCode::new(4, 32);
        for j in 0..4 {
            let mut seen = [false; 32];
            for s in 0..32u16 {
                let i = code.chip_index(s, j, 32) as usize;
                assert!(!seen[i], "collision at position {j}");
                seen[i] = true;
            }
        }
    }

    #[test]
    fn roundtrip_clean() {
        let code = SpreadCode::new(4, 32);
        let symbols: Vec<u16> = (0..16).map(|i| (i * 7) % 32).collect();
        let (sent, got) = run(&code, &symbols, 25.0, 1);
        assert_eq!(sent, got);
    }

    #[test]
    fn spreading_beats_plain_at_low_snr() {
        // At an SNR where plain CSSK (L=1) is heavily errored, L=4 spreading
        // recovers almost everything.
        let symbols: Vec<u16> = (0..24).map(|i| (i * 11) % 32).collect();
        let plain = SpreadCode { length: 1, hop: 1 };
        let spread = SpreadCode::new(4, 32);
        let snr = 4.0;
        let errs = |code: &SpreadCode, seed| {
            let (sent, got) = run(code, &symbols, snr, seed);
            sent.iter().zip(&got).filter(|(a, b)| a != b).count()
        };
        let e_plain: usize = (0..4).map(|s| errs(&plain, 10 + s)).sum();
        let e_spread: usize = (0..4).map(|s| errs(&spread, 10 + s)).sum();
        assert!(
            e_spread * 3 < e_plain.max(3),
            "spread {e_spread} vs plain {e_plain} errors at {snr} dB"
        );
    }

    #[test]
    fn rate_factor() {
        assert_eq!(SpreadCode::new(4, 32).rate_factor(), 0.25);
        assert_eq!(SpreadCode::new(1, 32).rate_factor(), 1.0);
    }

    #[test]
    fn empty_and_short_inputs() {
        let (alphabet, _, decider) = setup();
        let code = SpreadCode::new(4, 32);
        assert!(code.despread(&[], 120, &decider, &alphabet).is_empty());
        assert!(code
            .despread(&[0.0; 100], 120, &decider, &alphabet)
            .is_empty());
    }
}

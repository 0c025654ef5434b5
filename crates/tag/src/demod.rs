//! Per-slot CSSK symbol decisions.
//!
//! For each slot, the decoder evaluates a matched Goertzel bank: candidate
//! symbol `s` has chirp duration `T_s` and expected beat frequency `f_s`
//! (from the alphabet and the tag's calibrated `ΔT`). The detector computes
//! the mean-removed, Hann-windowed Goertzel power of the first `T_s` of the
//! slot at `f_s`, normalized by the window length squared (so long and
//! short candidates compare fairly), and picks the argmax — the low-power
//! ML-style detector the paper's §3.2.2/§4.1 Goertzel discussion points to.
//!
//! Once the slot length is known, everything about a candidate except the
//! slot's samples is fixed: its window length, Hann coefficients and
//! Goertzel coefficients. A [`SlotBank`] holds them for one slot length and
//! scores batches of slots of that length with the fused
//! [`goertzel_windowed`] kernel, four slots to a vector.

use std::cell::Cell;
use std::rc::Rc;

use biscatter_dsp::goertzel::GoertzelCoeffs;
use biscatter_dsp::simd::{goertzel_windowed, GoertzelJob};
use biscatter_dsp::window::{CachedWindow, WindowKind};
use biscatter_link::packet::DownlinkSymbol;
use biscatter_radar::cssk::CsskAlphabet;

/// One candidate in the decision bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The symbol this candidate decodes to.
    pub symbol: DownlinkSymbol,
    /// Chirp duration of the symbol, s.
    pub duration_s: f64,
    /// Expected beat frequency at the tag, Hz.
    pub beat_freq_hz: f64,
}

/// The symbol decision bank.
#[derive(Debug, Clone)]
pub struct SymbolDecider {
    /// All candidates: header, every data value, sync.
    pub candidates: Vec<Candidate>,
    /// ADC sample rate, Hz.
    pub fs: f64,
}

impl SymbolDecider {
    /// Builds the bank from the air-interface alphabet and the tag's
    /// differential delay `ΔT` (ideal, uncalibrated — see
    /// [`crate::calibration`] for the measured variant).
    pub fn from_alphabet(alphabet: &CsskAlphabet, delta_t_s: f64, fs: f64) -> Self {
        let mut candidates = Vec::with_capacity(alphabet.n_slopes());
        candidates.push(Candidate {
            symbol: DownlinkSymbol::Header,
            duration_s: alphabet.duration_for(DownlinkSymbol::Header),
            beat_freq_hz: alphabet.beat_freq_for(DownlinkSymbol::Header, delta_t_s),
        });
        for v in 0..alphabet.n_data_symbols() as u16 {
            let s = DownlinkSymbol::Data(v);
            candidates.push(Candidate {
                symbol: s,
                duration_s: alphabet.duration_for(s),
                beat_freq_hz: alphabet.beat_freq_for(s, delta_t_s),
            });
        }
        candidates.push(Candidate {
            symbol: DownlinkSymbol::Sync,
            duration_s: alphabet.duration_for(DownlinkSymbol::Sync),
            beat_freq_hz: alphabet.beat_freq_for(DownlinkSymbol::Sync, delta_t_s),
        });
        SymbolDecider { candidates, fs }
    }

    /// Builds the bank from measured (calibrated) beat frequencies.
    pub fn from_candidates(candidates: Vec<Candidate>, fs: f64) -> Self {
        SymbolDecider { candidates, fs }
    }

    /// Lays the bank out for slots of `slot_len` samples.
    pub fn bank(&self, slot_len: usize) -> SlotBank {
        SlotBank::new(&self.candidates, self.fs, slot_len)
    }

    /// How many leading samples of a `slot_len`-sample slot any candidate
    /// reads. Two slots that agree on these samples get the same decision,
    /// whatever their lengths.
    pub(crate) fn span(&self, slot_len: usize) -> usize {
        self.candidates
            .iter()
            .map(|c| window_len(c, self.fs))
            .max()
            .unwrap_or(0)
            .min(slot_len)
    }

    /// Decides the symbol in one slot's samples (`slot` should span the
    /// whole `T_period`). Returns the winning symbol and its normalized
    /// score.
    pub fn decide_slot(&self, slot: &[f64]) -> (DownlinkSymbol, f64) {
        self.bank(slot.len()).decide(slot)
    }

    /// The normalized matched score of one candidate on a slot.
    ///
    /// A Hann window is applied before the Goertzel evaluation: with only a
    /// handful of beat cycles per chirp, the negative-frequency image of the
    /// real envelope tone otherwise leaks phase-dependent energy into
    /// neighbouring candidates and can deterministically flip adjacent-slope
    /// decisions even at high SNR. The unit tests' single-candidate
    /// reference for the batched bank.
    #[cfg(test)]
    fn candidate_score(&self, slot: &[f64], c: &Candidate) -> f64 {
        let mut score = [f64::NEG_INFINITY];
        SlotBank::new(std::slice::from_ref(c), self.fs, slot.len()).scores(slot, &mut score);
        score[0]
    }

    /// Decodes a run of consecutive slots (each `period_samples` long) from a
    /// slot-aligned stream.
    pub fn decide_stream(&self, samples: &[f64], period_samples: usize) -> Vec<DownlinkSymbol> {
        if period_samples == 0 {
            return Vec::new();
        }
        let starts: Vec<usize> = (0..samples.len() / period_samples)
            .map(|k| k * period_samples)
            .collect();
        let mut decided = vec![(DownlinkSymbol::Header, f64::NEG_INFINITY); starts.len()];
        self.bank(period_samples)
            .decide_batch(samples, &starts, &mut decided);
        decided.into_iter().map(|(symbol, _)| symbol).collect()
    }
}

/// Samples candidate `c` scores in a slot of unbounded length.
fn window_len(c: &Candidate, fs: f64) -> usize {
    (c.duration_s * fs).round() as usize
}

/// Most slots laid out at once: eight vectors of four.
const BATCH: usize = 32;

/// Most (candidate, vector) jobs handed to the kernel in one call.
const JOBS: usize = 16;

/// A decision bank laid out for slots of one length: per candidate, the
/// number of samples it scores, its Hann window and its Goertzel
/// coefficients. Build one with [`SymbolDecider::bank`] and reuse it for
/// every slot of that length. It decides slots in batches: the slots
/// starting at each of a list of positions in one capture, read up to the
/// longest window (only the leading samples any candidate reads are used),
/// with zeros past the capture's end.
///
/// A batch is laid out start-major, four slots to a vector: row `i` of the
/// layout holds sample `i` of every slot. Each candidate's window and
/// coefficients are then shared by the whole vector, and every slot keeps
/// its own running sums (left to right, as in a slot scored alone), so a
/// decision does not depend on the batch it was made in.
#[derive(Debug, Clone)]
pub struct SlotBank {
    /// Candidates that score at least four samples, in bank order; the rest
    /// score `-inf` and can never win.
    lanes: Vec<BankLane>,
    /// Length of the candidate list the bank was built from.
    candidates: usize,
    /// Leading slot samples the lanes read: the longest lane.
    span: usize,
}

#[derive(Debug, Clone)]
struct BankLane {
    /// Position in the candidate list.
    index: usize,
    symbol: DownlinkSymbol,
    /// Samples scored: `min(T_s·fs, slot length)`.
    n: usize,
    coeffs: GoertzelCoeffs,
    hann: Rc<CachedWindow>,
}

impl SlotBank {
    fn new(candidates: &[Candidate], fs: f64, slot_len: usize) -> SlotBank {
        let lanes: Vec<BankLane> = candidates
            .iter()
            .enumerate()
            .filter_map(|(index, c)| {
                let n = window_len(c, fs).min(slot_len);
                (n >= 4).then(|| BankLane {
                    index,
                    symbol: c.symbol,
                    n,
                    coeffs: GoertzelCoeffs::new(c.beat_freq_hz / fs),
                    hann: WindowKind::Hann.cached(n),
                })
            })
            .collect();
        let span = lanes.iter().map(|l| l.n).max().unwrap_or(0);
        SlotBank {
            candidates: candidates.len(),
            span,
            lanes,
        }
    }

    /// The winning symbol and its normalized score on `slot` (the first
    /// strict maximum in bank order; `(Header, -inf)` when no candidate
    /// fits the slot): a batch of one.
    pub fn decide(&self, slot: &[f64]) -> (DownlinkSymbol, f64) {
        let mut best = [(DownlinkSymbol::Header, f64::NEG_INFINITY)];
        self.decide_batch(&slot[..self.span], &[0], &mut best);
        best[0]
    }

    /// Decides the slot at each of `starts` in `samples`, into the same
    /// position of `out` (as [`SlotBank::decide`] would on each slot).
    ///
    /// # Panics
    /// Panics if `out` and `starts` differ in length.
    pub fn decide_batch(
        &self,
        samples: &[f64],
        starts: &[usize],
        out: &mut [(DownlinkSymbol, f64)],
    ) {
        assert_eq!(out.len(), starts.len());
        out.fill((DownlinkSymbol::Header, f64::NEG_INFINITY));
        self.for_each_score(samples, starts, |slot, lane, score| {
            if score > out[slot].1 {
                out[slot] = (lane.symbol, score);
            }
        });
    }

    /// Every candidate's normalized score on `slot`, in candidate order,
    /// into `out` (`-inf` for candidates too short to score).
    ///
    /// # Panics
    /// Panics if `out` is shorter than the candidate list.
    #[cfg(test)]
    fn scores(&self, slot: &[f64], out: &mut [f64]) {
        out.fill(f64::NEG_INFINITY);
        let row = &mut out[..self.candidates];
        self.scores_batch(&slot[..self.span], &[0], row);
    }

    /// Every candidate's normalized score on the slot at each of `starts`
    /// in `samples`: row `k` of `out` (one column per candidate) holds the
    /// normalized scores of the slot at `starts[k]` (`-inf` for candidates
    /// too short to score).
    ///
    /// # Panics
    /// Panics if `out` does not hold one row per start.
    pub fn scores_batch(&self, samples: &[f64], starts: &[usize], out: &mut [f64]) {
        assert_eq!(out.len(), starts.len() * self.candidates);
        out.fill(f64::NEG_INFINITY);
        let columns = self.candidates;
        self.for_each_score(samples, starts, |slot, lane, score| {
            out[slot * columns + lane.index] = score;
        });
    }

    /// Scores every lane on the slot at each of `starts`, at most [`BATCH`]
    /// slots per layout, and hands each `(slot, lane, score)` to `visit`;
    /// each slot sees its lanes in bank order.
    fn for_each_score(
        &self,
        samples: &[f64],
        starts: &[usize],
        mut visit: impl FnMut(usize, &BankLane, f64),
    ) {
        let SlotBank { lanes, span, .. } = self;
        let span = *span;
        if lanes.is_empty() {
            return;
        }
        // A batch's start-major rows, then each slot's running sums in the
        // same layout (`sums[i·stride + s]`: the sum of slot `s`'s first
        // `i + 1` samples), then each lane's shift and power on each slot.
        let mut scratch = BATCH_SCRATCH.take();
        for (first, chunk) in starts.chunks(BATCH).enumerate() {
            let first = first * BATCH;
            let stride = 4 * chunk.len().div_ceil(4);
            let cells = span * stride;
            let needed = 2 * cells + 2 * lanes.len() * stride;
            if scratch.len() < needed {
                scratch.resize(needed, 0.0);
            }
            let (rows, rest) = scratch.split_at_mut(cells);
            let (sums, rest) = rest.split_at_mut(cells);
            let (shifts, scores) = rest.split_at_mut(lanes.len() * stride);
            // Row `i` holds sample `i` of every slot, zero past the capture
            // end; the running sums then go row by row. Zero-sum prefixes may
            // differ from `iter().sum()` in the sign of zero, which the
            // squared power erases. The streams past the last slot keep
            // whatever the scratch held: their scores are never read.
            for (i, row) in rows.chunks_exact_mut(stride).enumerate() {
                for (x, &start) in row.iter_mut().zip(chunk) {
                    *x = samples.get(start.saturating_add(i)).copied().unwrap_or(0.0);
                }
            }
            let mut acc = [0.0f64; BATCH];
            for (row, sum) in rows.chunks_exact(stride).zip(sums.chunks_exact_mut(stride)) {
                for ((a, s), &x) in acc[..chunk.len()].iter_mut().zip(sum).zip(row) {
                    *a += x;
                    *s = *a;
                }
            }
            // Each lane's shift on every slot: the mean of the samples it
            // scores.
            for (lane, shift) in lanes.iter().zip(shifts.chunks_exact_mut(stride)) {
                let sum = &sums[(lane.n - 1) * stride..][..chunk.len()];
                for (m, &total) in shift.iter_mut().zip(sum) {
                    *m = total / lane.n as f64;
                }
            }
            // (lane, vector) jobs lane-major, up to `JOBS` per kernel call,
            // which runs them four at a time: four vectors of slots on one
            // candidate, or, in small batches, neighbouring candidates. Job
            // `t` reads its shifts from, and writes its powers to, the same
            // four entries of the lane-major tables.
            let idle = GoertzelJob {
                coeffs: lanes[0].coeffs,
                window: &[],
                shifts: [0.0; 4],
                column: 0,
            };
            let mut jobs = [idle; JOBS];
            let vectors = stride / 4;
            let total = lanes.len() * vectors;
            let pairs = (0..lanes.len()).flat_map(|l| (0..vectors).map(move |v| (l, v)));
            for (t, (l, column)) in pairs.enumerate() {
                jobs[t % JOBS] = GoertzelJob {
                    coeffs: lanes[l].coeffs,
                    window: &lanes[l].hann.coeffs,
                    shifts: shifts[4 * t..4 * t + 4].try_into().expect("four streams"),
                    column,
                };
                let filled = t % JOBS + 1;
                if filled == JOBS || t + 1 == total {
                    let done = 4 * (t + 1);
                    let powers = &mut scores[done - 4 * filled..done];
                    goertzel_windowed(rows, stride, &jobs[..filled], powers);
                }
            }
            // Lane by lane, so each slot still sees its lanes in bank order.
            for (lane, row) in lanes.iter().zip(scores.chunks_exact(stride)) {
                for (slot, &power) in row[..chunk.len()].iter().enumerate() {
                    visit(first + slot, lane, lane.score(power));
                }
            }
        }
        BATCH_SCRATCH.set(scratch);
    }
}

thread_local! {
    /// The batch layout every bank on this thread decides through: decodes
    /// on a warm thread lay out their batches without allocating.
    static BATCH_SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

impl BankLane {
    /// Normalizes a power by the window length squared.
    fn score(&self, power: f64) -> f64 {
        power / (self.n as f64 * self.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_dsp::signal::NoiseSource;
    use biscatter_radar::cssk::CsskAlphabet;
    use biscatter_rf::frame::ChirpTrain;
    use biscatter_rf::inches_to_m;
    use biscatter_rf::tag_frontend::TagFrontEnd;

    fn setup(bits: usize) -> (CsskAlphabet, TagFrontEnd, SymbolDecider) {
        let alphabet = CsskAlphabet::new(9e9, 1e9, bits, 20e-6, 120e-6).unwrap();
        let fe = TagFrontEnd::coax_prototype(inches_to_m(45.0), 9.5e9);
        let delta_t = fe.pair.delta_t();
        let decider = SymbolDecider::from_alphabet(&alphabet, delta_t, fe.adc.sample_rate_hz);
        (alphabet, fe, decider)
    }

    fn capture_symbols(
        alphabet: &CsskAlphabet,
        fe: &TagFrontEnd,
        symbols: &[DownlinkSymbol],
        snr_db: f64,
        seed: u64,
    ) -> Vec<f64> {
        let chirps: Vec<_> = symbols.iter().map(|&s| alphabet.chirp_for(s)).collect();
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let mut noise = NoiseSource::new(seed);
        fe.capture_train(&train, snr_db, 0.0, &mut noise)
    }

    #[test]
    fn bank_has_all_candidates() {
        let (alphabet, _, decider) = setup(5);
        assert_eq!(decider.candidates.len(), alphabet.n_slopes());
        assert_eq!(decider.candidates[0].symbol, DownlinkSymbol::Header);
        assert_eq!(
            decider.candidates.last().unwrap().symbol,
            DownlinkSymbol::Sync
        );
    }

    #[test]
    fn decodes_every_symbol_at_high_snr() {
        let (alphabet, fe, decider) = setup(4);
        let symbols: Vec<DownlinkSymbol> = (0..16).map(DownlinkSymbol::Data).collect();
        let stream = capture_symbols(&alphabet, &fe, &symbols, 35.0, 1);
        let decided = decider.decide_stream(&stream, 120);
        assert_eq!(decided, symbols);
    }

    #[test]
    fn decodes_header_and_sync() {
        let (alphabet, fe, decider) = setup(5);
        let symbols = vec![
            DownlinkSymbol::Header,
            DownlinkSymbol::Header,
            DownlinkSymbol::Sync,
            DownlinkSymbol::Data(20),
        ];
        let stream = capture_symbols(&alphabet, &fe, &symbols, 30.0, 2);
        let decided = decider.decide_stream(&stream, 120);
        assert_eq!(decided, symbols);
    }

    #[test]
    fn survives_moderate_noise() {
        let (alphabet, fe, decider) = setup(5);
        let symbols: Vec<DownlinkSymbol> = (0..32).map(|i| DownlinkSymbol::Data(i % 32)).collect();
        let stream = capture_symbols(&alphabet, &fe, &symbols, 18.0, 3);
        let decided = decider.decide_stream(&stream, 120);
        let errors = decided.iter().zip(&symbols).filter(|(a, b)| a != b).count();
        assert!(errors <= 1, "{errors} symbol errors at 18 dB");
    }

    #[test]
    fn errors_are_adjacent_symbols() {
        // At low SNR, when a symbol errs it should usually err to a
        // neighbouring slope (the premise of Gray coding).
        let (alphabet, fe, decider) = setup(6);
        let symbols: Vec<DownlinkSymbol> = (0..64).map(|i| DownlinkSymbol::Data(i % 64)).collect();
        let stream = capture_symbols(&alphabet, &fe, &symbols, 6.0, 4);
        let decided = decider.decide_stream(&stream, 120);
        let mut errors = 0;
        let mut adjacent = 0;
        for (d, s) in decided.iter().zip(&symbols) {
            if let (DownlinkSymbol::Data(a), DownlinkSymbol::Data(b)) = (d, s) {
                if a != b {
                    errors += 1;
                    if a.abs_diff(*b) <= 2 {
                        adjacent += 1;
                    }
                }
            }
        }
        if errors >= 4 {
            assert!(
                adjacent * 2 >= errors,
                "only {adjacent}/{errors} errors were near-adjacent"
            );
        }
    }

    #[test]
    fn short_slot_scores_low() {
        let (_, _, decider) = setup(5);
        let tiny = vec![0.0; 3];
        let c = decider.candidates[0];
        assert_eq!(decider.candidate_score(&tiny, &c), f64::NEG_INFINITY);
        assert_eq!(
            decider.decide_slot(&tiny),
            (DownlinkSymbol::Header, f64::NEG_INFINITY)
        );
    }

    /// The scorer written out the long way: mean removal and an inline Hann
    /// window into a scratch copy, then a plain Goertzel pass. The oracle
    /// the bank must match bit for bit.
    fn reference_score(slot: &[f64], c: &Candidate, fs: f64) -> f64 {
        let n = ((c.duration_s * fs).round() as usize).min(slot.len());
        if n < 4 {
            return f64::NEG_INFINITY;
        }
        let window = &slot[..n];
        let mean = window.iter().sum::<f64>() / n as f64;
        let ac: Vec<f64> = window
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let w = 0.5 - 0.5 * (std::f64::consts::TAU * i as f64 / n as f64).cos();
                (x - mean) * w
            })
            .collect();
        biscatter_dsp::goertzel::goertzel_power(&ac, c.beat_freq_hz / fs) / (n as f64 * n as f64)
    }

    #[test]
    fn bank_matches_reference_scorer_bit_for_bit() {
        let (alphabet, fe, decider) = setup(5);
        let symbols: Vec<DownlinkSymbol> = (0..12).map(|i| DownlinkSymbol::Data(i * 2)).collect();
        let stream = capture_symbols(&alphabet, &fe, &symbols, 10.0, 6);
        let mut scores = vec![0.0; decider.candidates.len()];
        // Whole slots, and slots shorter than the longest chirps, so that
        // truncated windows and candidates too short to score show up too.
        for slot_len in [120usize, 101, 64, 21, 5] {
            let bank = decider.bank(slot_len);
            for slot in stream.chunks_exact(slot_len).take(12) {
                bank.scores(slot, &mut scores);
                let mut want = (DownlinkSymbol::Header, f64::NEG_INFINITY);
                for (c, &got) in decider.candidates.iter().zip(&scores) {
                    let r = reference_score(slot, c, decider.fs);
                    assert_eq!(got.to_bits(), r.to_bits(), "{:?}, {slot_len}", c.symbol);
                    let alone = decider.candidate_score(slot, c);
                    assert_eq!(alone.to_bits(), r.to_bits(), "{:?}, {slot_len}", c.symbol);
                    if r > want.1 {
                        want = (c.symbol, r);
                    }
                }
                let got = bank.decide(slot);
                assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
                assert_eq!(decider.decide_slot(slot), got);
            }
        }
    }

    /// The slot a batch decides at `start`: `len` samples from there, zeros
    /// past the end of the capture.
    fn padded_slot(samples: &[f64], start: usize, len: usize) -> Vec<f64> {
        let mut slot: Vec<f64> = samples.iter().skip(start).take(len).copied().collect();
        slot.resize(len, 0.0);
        slot
    }

    #[test]
    fn batches_match_reference_scorer_bit_for_bit() {
        let (alphabet, fe, decider) = setup(5);
        let symbols: Vec<DownlinkSymbol> =
            (0..12).map(|i| DownlinkSymbol::Data(i * 2 + 1)).collect();
        let stream = capture_symbols(&alphabet, &fe, &symbols, 8.0, 7);
        let len = stream.len();
        let n_cand = decider.candidates.len();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut below = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        // Batch sizes 0–25 (the timing sweep's range; an empty batch ends
        // almost every decode) and one of 70, which takes three layouts.
        for slot_len in [120usize, 64, 21, 5] {
            let bank = decider.bank(slot_len);
            for size in (0..=25).chain([70]) {
                // Arbitrary starts, repeated starts, and slots that run past
                // the end of the capture or start beyond it.
                let mut starts: Vec<usize> = Vec::with_capacity(size);
                for _ in 0..size {
                    let start = match below(10) {
                        0..=4 => below(len),
                        5 | 6 => len - 1 - below(slot_len),
                        7 => len + below(3),
                        _ if !starts.is_empty() => starts[below(starts.len())],
                        _ => 0,
                    };
                    starts.push(start);
                }
                let mut decided = vec![(DownlinkSymbol::Sync, 0.0); size];
                bank.decide_batch(&stream, &starts, &mut decided);
                let mut scores = vec![0.0; size * n_cand];
                bank.scores_batch(&stream, &starts, &mut scores);
                for (k, &start) in starts.iter().enumerate() {
                    let slot = padded_slot(&stream, start, slot_len);
                    let mut want = (DownlinkSymbol::Header, f64::NEG_INFINITY);
                    for (c, cand) in decider.candidates.iter().enumerate() {
                        let r = reference_score(&slot, cand, decider.fs);
                        let got = scores[k * n_cand + c];
                        assert_eq!(
                            got.to_bits(),
                            r.to_bits(),
                            "{slot_len}, {size}, {start}, {c}"
                        );
                        if r > want.1 {
                            want = (cand.symbol, r);
                        }
                    }
                    let got = decided[k];
                    assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
                    assert_eq!(bank.decide(&slot), got);
                }
            }
        }
    }

    #[test]
    fn decider_is_send_sync_clone() {
        fn check<T: Send + Sync + Clone>() {}
        check::<SymbolDecider>();
    }

    #[test]
    fn span_is_the_longest_window_that_fits() {
        let (_, _, decider) = setup(5);
        let longest = decider
            .candidates
            .iter()
            .map(|c| (c.duration_s * decider.fs).round() as usize)
            .max()
            .unwrap();
        assert!(longest < 120);
        assert_eq!(decider.span(120), longest);
        assert_eq!(decider.span(121), longest);
        assert_eq!(decider.span(50), 50);
    }

    #[test]
    fn empty_stream() {
        let (_, _, decider) = setup(3);
        assert!(decider.decide_stream(&[], 120).is_empty());
        assert!(decider.decide_stream(&[0.0; 500], 0).is_empty());
    }
}

//! One-time slope → beat-frequency calibration (paper §3.2.1).
//!
//! Equation 11 predicts the beat frequency from `ΔL`, `k`, and the chirp
//! slope — but the delay line's velocity factor is only nominally known and
//! drifts across a GHz of bandwidth ("the equation assumes the dielectric
//! constant ... remains constant ... this may not hold in practice"). The
//! paper's remedy, reproduced here: transmit each symbol once at close range
//! and record the *measured* beat frequency per slope. The resulting table
//! replaces the theoretical frequencies in the decision bank. The paper runs
//! this once at 0.5 m and reuses it everywhere. The experiments in this
//! repository do not: every figure, the ablations and
//! `isac::synthesize_frame` decide with the uncalibrated
//! `BiScatterSystem::nominal_decider()`. Only the `calibration_workflow`
//! example and one test in `tests/two_way_integration.rs` decode with a
//! measured table.

use crate::demod::{Candidate, SymbolDecider};
use biscatter_dsp::signal::NoiseSource;
use biscatter_dsp::spectrum::{find_peak, periodogram};
use biscatter_dsp::window::WindowKind;
use biscatter_link::packet::DownlinkSymbol;
use biscatter_radar::cssk::CsskAlphabet;
use biscatter_rf::frame::ChirpTrain;
use biscatter_rf::tag_frontend::TagFrontEnd;

/// A measured slope→beat table.
#[derive(Debug, Clone)]
pub struct CalibrationTable {
    /// Measured candidates (symbol, duration, measured beat frequency).
    pub candidates: Vec<Candidate>,
    /// ADC rate the table was measured at, Hz.
    pub fs: f64,
}

impl CalibrationTable {
    /// Runs the calibration: captures each alphabet symbol `reps` times
    /// through the given front-end at `snr_db` (use a high value — the paper
    /// calibrates at 0.5 m) and records the measured peak beat frequency.
    pub fn measure(
        alphabet: &CsskAlphabet,
        front_end: &TagFrontEnd,
        t_period: f64,
        snr_db: f64,
        reps: usize,
        seed: u64,
    ) -> Self {
        let fs = front_end.adc.sample_rate_hz;
        let mut noise = NoiseSource::new(seed);
        let mut all_symbols: Vec<DownlinkSymbol> =
            vec![DownlinkSymbol::Header, DownlinkSymbol::Sync];
        all_symbols.extend((0..alphabet.n_data_symbols() as u16).map(DownlinkSymbol::Data));

        let mut candidates = Vec::with_capacity(all_symbols.len());
        for sym in all_symbols {
            let duration = alphabet.duration_for(sym);
            let chirps = vec![alphabet.chirp_for(sym); reps.max(1)];
            let train = ChirpTrain::with_fixed_period(&chirps, t_period).unwrap();
            let samples = front_end.capture_train(&train, snr_db, 0.0, &mut noise);
            // Average the measured peak over the repetitions.
            let period_samples = (t_period * fs).round() as usize;
            let n_window = ((duration * fs).round() as usize).min(period_samples);
            // Coarse estimate from the periodogram of the first repetition.
            let mut coarse = 0.0;
            if n_window <= samples.len() {
                let window = &samples[..n_window];
                let mean = window.iter().sum::<f64>() / window.len() as f64;
                let ac: Vec<f64> = window.iter().map(|v| v - mean).collect();
                let (freqs, power) = periodogram(&ac, fs, WindowKind::Hann);
                if let Some(peak) = find_peak(&power) {
                    coarse = peak.refined_bin * freqs.get(1).copied().unwrap_or(0.0);
                }
            }
            // Fine search with the *decoder's own* Hann-windowed Goertzel
            // metric, averaged over the repetitions: because decoding scores
            // candidates the same way, any estimator bias cancels between
            // calibration and operation. Every grid frequency is a probe
            // candidate of the same duration, scoring the first `n_window`
            // samples of a repetition: one bank scores them all on every
            // repetition in one batch, and each probe sums its repetitions
            // in order.
            let span = (0.1 * coarse).max(2.0 * fs / n_window.max(1) as f64);
            let grid = 80usize;
            let probes = SymbolDecider::from_candidates(
                (0..=grid)
                    .map(|g| coarse - span / 2.0 + span * g as f64 / grid as f64)
                    .filter(|&f| f > 0.0)
                    .map(|f| Candidate {
                        symbol: sym,
                        duration_s: duration,
                        beat_freq_hz: f,
                    })
                    .collect(),
                fs,
            );
            let starts: Vec<usize> = (0..reps.max(1))
                .map(|rep| rep * period_samples)
                .take_while(|start| start + n_window <= samples.len())
                .collect();
            let n_probes = probes.candidates.len();
            let mut scores = vec![0.0; starts.len() * n_probes];
            probes
                .bank(n_window)
                .scores_batch(&samples, &starts, &mut scores);
            let mut totals = vec![0.0; n_probes];
            for rep in scores.chunks_exact(n_probes) {
                for (total, score) in totals.iter_mut().zip(rep) {
                    *total += score;
                }
            }
            let mut best = (coarse, f64::NEG_INFINITY);
            for (probe, &total) in probes.candidates.iter().zip(&totals) {
                if total > best.1 {
                    best = (probe.beat_freq_hz, total);
                }
            }
            let measured = best.0;
            candidates.push(Candidate {
                symbol: sym,
                duration_s: duration,
                beat_freq_hz: measured,
            });
        }
        // Keep bank ordering consistent with SymbolDecider::from_alphabet:
        // header, data ascending, sync.
        candidates.sort_by_key(|c| match c.symbol {
            DownlinkSymbol::Header => 0u32,
            DownlinkSymbol::Data(v) => 1 + v as u32,
            DownlinkSymbol::Sync => u32::MAX,
        });
        CalibrationTable { candidates, fs }
    }

    /// Builds a decision bank from the measured table.
    pub fn decider(&self) -> SymbolDecider {
        SymbolDecider::from_candidates(self.candidates.clone(), self.fs)
    }

    /// Effective `ΔT` implied by the measurements (least-squares fit of
    /// `f = B·ΔT/T` over the table) — the calibrated counterpart of
    /// eq. 10's nominal value.
    pub fn fitted_delta_t(&self, bandwidth: f64) -> f64 {
        // f_i = B*ΔT*(1/T_i): ΔT = sum(f_i * s_i) / (B * sum(s_i^2)).
        let mut num = 0.0;
        let mut den = 0.0;
        for c in &self.candidates {
            let s = 1.0 / c.duration_s;
            num += c.beat_freq_hz * s;
            den += s * s;
        }
        num / (bandwidth * den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_rf::inches_to_m;

    fn alphabet() -> CsskAlphabet {
        CsskAlphabet::new(9e9, 1e9, 4, 20e-6, 120e-6).unwrap()
    }

    /// A front-end whose lines have a *different* velocity factor than the
    /// nominal k = 0.7 — the mismatch calibration exists to absorb.
    fn detuned_front_end() -> TagFrontEnd {
        let mut fe = TagFrontEnd::coax_prototype(inches_to_m(45.0), 9.5e9);
        fe.pair.short.velocity_factor = 0.66;
        fe.pair.long.velocity_factor = 0.66;
        fe.pair.short.dispersion_per_ghz = -0.005;
        fe.pair.long.dispersion_per_ghz = -0.005;
        fe
    }

    #[test]
    fn calibration_measures_actual_beats() {
        let a = alphabet();
        let fe = detuned_front_end();
        let table = CalibrationTable::measure(&a, &fe, 120e-6, 35.0, 4, 1);
        assert_eq!(table.candidates.len(), a.n_slopes());
        // Each measured frequency should be close to the *true* front-end
        // beat, not the nominal-k prediction.
        for c in &table.candidates {
            let truth = fe.beat_freq(&a.chirp_for(c.symbol));
            let rel = (c.beat_freq_hz - truth).abs() / truth;
            assert!(
                rel < 0.05,
                "{:?}: measured {} vs true {truth}",
                c.symbol,
                c.beat_freq_hz
            );
        }
    }

    #[test]
    fn calibrated_decoder_beats_nominal_on_detuned_tag() {
        let a = alphabet();
        let fe = detuned_front_end();
        // Nominal decider assumes k = 0.7.
        let nominal_dt = inches_to_m(45.0) / (0.7 * biscatter_dsp::SPEED_OF_LIGHT);
        let nominal = SymbolDecider::from_alphabet(&a, nominal_dt, fe.adc.sample_rate_hz);
        let calibrated = CalibrationTable::measure(&a, &fe, 120e-6, 35.0, 4, 2).decider();

        let symbols: Vec<DownlinkSymbol> = (0..16).map(DownlinkSymbol::Data).collect();
        let chirps: Vec<_> = symbols.iter().map(|&s| a.chirp_for(s)).collect();
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let mut noise = NoiseSource::new(3);
        let stream = fe.capture_train(&train, 30.0, 0.0, &mut noise);

        let err = |d: &SymbolDecider| {
            d.decide_stream(&stream, 120)
                .iter()
                .zip(&symbols)
                .filter(|(x, y)| x != y)
                .count()
        };
        let e_nom = err(&nominal);
        let e_cal = err(&calibrated);
        assert_eq!(e_cal, 0, "calibrated decoder should be perfect at 30 dB");
        assert!(
            e_nom > e_cal,
            "nominal ({e_nom} errors) should be worse than calibrated ({e_cal})"
        );
    }

    #[test]
    fn fitted_delta_t_recovers_true_delay() {
        let a = alphabet();
        let fe = detuned_front_end();
        let table = CalibrationTable::measure(&a, &fe, 120e-6, 35.0, 2, 4);
        let fitted = table.fitted_delta_t(1e9);
        let truth = fe.pair.delta_t_at(9.5e9);
        // Short chirps hold only a few beat cycles, so the periodogram peak
        // carries a small frequency bias; the fit recovers ΔT to within a
        // few percent, which is all the (self-consistent) decoder needs.
        assert!(
            (fitted - truth).abs() / truth < 0.08,
            "fitted {fitted} vs true {truth}"
        );
    }
}

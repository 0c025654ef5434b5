//! The tag's differential decoder front-end (paper §3.2.1, Fig. 4).
//!
//! Signal path: antenna → splitter → {short delay line, long delay line} →
//! combiner → square-law envelope detector → ADC. For an incident FMCW chirp
//! the two arms differ by delay `ΔT`, so the detector output contains a beat
//! tone at `Δf = α ΔT` whose phase is
//!
//! `Δφ(t) = φ(t) − φ(t − ΔT) = 2π (f0 ΔT + α ΔT t − α ΔT²/2)`.
//!
//! Two simulation paths exist (DESIGN.md §5):
//!
//! * **analytic envelope** ([`TagFrontEnd::capture_train`]) — the exact
//!   phase difference at each ADC sample, plus calibrated noise and ADC
//!   quantization. This is what all BER experiments run on (kHz rate → fast).
//!   A dispersion-free pair fills each sweep with one oscillator (its phase
//!   is linear in the sample index there); a dispersive pair evaluates the
//!   phase and its cosine sample by sample.
//! * **scaled passband** (`TagFrontEnd::capture_passband`, compiled for
//!   tests only) — synthesizes the actual RF waveform at a frequency-scaled
//!   carrier and pushes it through the real component chain (sum of arms →
//!   square law → LPF). The unit tests use it to prove the analytic model
//!   exact.

use crate::chirp::Chirp;
use crate::components::delay_line::DelayLinePair;
use crate::components::envelope_detector::EnvelopeDetector;
use crate::components::{Adc, Splitter};
use crate::frame::{ChirpSlot, ChirpTrain};
use biscatter_dsp::signal::NoiseSource;
use biscatter_dsp::simd::{self, tone_fill};
use biscatter_dsp::{Cpx, TAU};
use std::cell::Cell;

/// The assembled tag analog front-end.
#[derive(Debug, Clone)]
pub struct TagFrontEnd {
    /// The two delay lines.
    pub pair: DelayLinePair,
    /// Input splitter (a second identical part recombines; both contribute
    /// loss to the link budget but cancel out of the normalized envelope).
    pub splitter: Splitter,
    /// Envelope detector.
    pub detector: EnvelopeDetector,
    /// Sampling ADC.
    pub adc: Adc,
    /// Per-chirp beat start-phase randomization, in turns (0 = perfectly
    /// repeatable chirp start frequency, 1 = fully random phase). The beat
    /// tone's phase is `f0·ΔT` (tens of carrier cycles across the delay
    /// difference), so even small PLL start-frequency jitter — a few MHz on
    /// a 9 GHz synthesizer — randomizes it completely between chirps. Real
    /// synthesizers (LMX2492 class) sit at the "fully random" end.
    pub start_phase_jitter: f64,
}

impl TagFrontEnd {
    /// A front-end matching the paper's wired-validation configuration:
    /// coax lines with the given `ΔL` (metres), ADL6010-class detector,
    /// 12-bit / 1 MHz MCU ADC.
    pub fn coax_prototype(delta_l_m: f64, ref_freq_hz: f64) -> Self {
        use crate::components::delay_line::DelayLine;
        TagFrontEnd {
            pair: DelayLinePair::from_difference(
                DelayLine::coax(0.0, ref_freq_hz),
                0.05,
                delta_l_m,
            ),
            splitter: Splitter::zc2pd(),
            detector: EnvelopeDetector::adl6010(),
            adc: Adc::mcu_12bit_1mhz(),
            start_phase_jitter: 1.0,
        }
    }

    /// Differential delay `ΔT` at the chirp's instantaneous frequency
    /// (captures delay-line dispersion across the sweep).
    pub fn delta_t_at(&self, f_hz: f64) -> f64 {
        self.pair.delta_t_at(f_hz)
    }

    /// Predicted beat frequency for `chirp` at its center frequency
    /// (paper eq. 11 with the dispersive `ΔT`).
    pub fn beat_freq(&self, chirp: &Chirp) -> f64 {
        chirp.slope() * self.delta_t_at(chirp.center_freq())
    }

    /// Beat phase `Δφ` at time `t` into the sweep of `chirp`, plus the
    /// start phase `phase0` (start-frequency jitter), with `ΔT` evaluated at
    /// the instantaneous sweep frequency (dispersion).
    fn beat_phase(&self, chirp: &Chirp, t: f64, phase0: f64) -> f64 {
        let f_inst = chirp.instantaneous_freq(t);
        let dt = self.delta_t_at(f_inst);
        let alpha = chirp.slope();
        TAU * (chirp.f0 * dt + alpha * dt * t - 0.5 * alpha * dt * dt) + phase0
    }

    /// Noise-free analytic envelope sample at time `t` into the sweep of
    /// `chirp` (normalized arm amplitude 1), with an extra beat phase
    /// `phase0` (start-frequency jitter). Returns `None` outside the sweep.
    fn envelope_at(&self, chirp: &Chirp, t: f64, phase0: f64) -> Option<f64> {
        if t < 0.0 || t > chirp.duration {
            return None;
        }
        Some(
            self.detector
                .analytic_output(1.0, self.beat_phase(chirp, t, phase0)),
        )
    }

    /// Captures the ADC stream for a full chirp train at the given envelope
    /// SNR.
    ///
    /// * The beat tone's AC amplitude is 1 (normalized); noise sigma is set
    ///   so the tone-power to noise-power ratio equals `snr_db`.
    /// * `time_offset_s` shifts the ADC clock relative to the train start —
    ///   use it to exercise the tag's synchronization (the tag does *not*
    ///   know the slot boundaries a priori).
    /// * During inter-chirp gaps the detector sees only noise.
    ///
    /// Returns the quantized ADC samples covering the entire train duration.
    ///
    /// The noise-free envelope of a dispersion-free pair comes from one
    /// oscillator per sweep, within 1e-12 of the per-sample cosine that a
    /// dispersive pair evaluates. A quantized sample can differ between the
    /// two only if its value before rounding lies within about 1e-9 of a
    /// step from a code boundary (a chance of about 1e-9 per sample).
    pub fn capture_train(
        &self,
        train: &ChirpTrain,
        snr_db: f64,
        time_offset_s: f64,
        noise: &mut NoiseSource,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.capture_train_into(train, snr_db, time_offset_s, noise, &mut out);
        out
    }

    /// [`TagFrontEnd::capture_train`] into a reusable buffer (cleared
    /// first), so a frame loop captures without allocating.
    pub fn capture_train_into(
        &self,
        train: &ChirpTrain,
        snr_db: f64,
        time_offset_s: f64,
        noise: &mut NoiseSource,
        out: &mut Vec<f64>,
    ) {
        // AC beat amplitude is a² = 1; rms = 1/sqrt(2).
        let sigma = (1.0 / 2f64.sqrt()) / 10f64.powf(snr_db / 20.0);
        let per_sample = self.pair.is_dispersive();
        self.envelope_into(train, time_offset_s, noise, per_sample, out);
        // One deviate per sample in sample order, after the phase draws.
        noise.add_awgn(out, sigma);
        // Quantized as `quantize(s / 2.2 · full_scale) · 2.2`, one step per
        // pass, so the rounding runs as one dispatched kernel.
        let quantizer = self.adc.quantizer();
        let full_scale = self.adc.full_scale;
        for s in out.iter_mut() {
            *s = quantizer.steps(*s / 2.2 * full_scale);
        }
        simd::round(out);
        for s in out.iter_mut() {
            *s = quantizer.level(*s) * 2.2;
        }
    }

    /// The capture's noise-free envelope, into `out`, after one beat
    /// start-phase draw per chirp from `noise`: sample by sample when
    /// `per_sample` is set (the dispersive path, and the sweep fill's
    /// oracle), sweep by sweep otherwise (which needs a dispersion-free
    /// pair).
    fn envelope_into(
        &self,
        train: &ChirpTrain,
        time_offset_s: f64,
        noise: &mut NoiseSource,
        per_sample: bool,
        out: &mut Vec<f64>,
    ) {
        // Rounded, not floored: `duration` sums `d + (T − d)` per slot and
        // can land one ulp under `n·T`, which would drop the last sample of
        // the last full slot.
        let n = (train.duration() * self.adc.sample_rate_hz).round() as usize;
        // Each slot's start time, then one beat start-phase draw per chirp
        // (PLL start-frequency jitter).
        let mut times = SLOT_TIMES.take();
        times.clear();
        times.extend(train.iter_timed().map(|(t0, _)| t0));
        times.extend((0..train.len()).map(|_| noise.uniform() * TAU * self.start_phase_jitter));
        let slots = Slots {
            slots: train.slots(),
            starts: &times[..train.len()],
            phases: &times[train.len()..],
        };
        out.clear();
        out.resize(n, 0.0);
        if per_sample {
            self.envelope_per_sample(&slots, time_offset_s, out);
        } else {
            self.envelope_per_sweep(&slots, time_offset_s, out);
        }
        SLOT_TIMES.set(times);
    }

    /// [`TagFrontEnd::envelope_into`] into a fresh buffer.
    #[cfg(test)]
    fn envelope(
        &self,
        train: &ChirpTrain,
        time_offset_s: f64,
        noise: &mut NoiseSource,
        per_sample: bool,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.envelope_into(train, time_offset_s, noise, per_sample, &mut out);
        out
    }

    /// The noise-free envelope, sample `i` at ADC time
    /// `t = i/fs + time_offset_s`: each sample finds the slot containing
    /// `t` and evaluates [`Self::envelope_at`] there (zero outside every
    /// sweep).
    fn envelope_per_sample(&self, slots: &Slots<'_>, time_offset_s: f64, out: &mut [f64]) {
        let fs = self.adc.sample_rate_hz;
        let mut slot_idx = 0usize;
        for (i, o) in out.iter_mut().enumerate() {
            let t = i as f64 / fs + time_offset_s;
            // Advance to the slot containing t (monotone sweep).
            while slot_idx + 1 < slots.starts.len() && t >= slots.starts[slot_idx + 1] {
                slot_idx += 1;
            }
            let (t0, slot) = (slots.starts[slot_idx], &slots.slots[slot_idx]);
            *o = self
                .envelope_at(&slot.chirp, t - t0, slots.phases[slot_idx])
                .unwrap_or(0.0);
        }
    }

    /// [`Self::envelope_per_sample`] for a dispersion-free pair, one sweep
    /// at a time. `ΔT` is then one constant, so the beat phase is linear in
    /// the sample index across a sweep. Each sweep's samples — the ones the
    /// per-sample loop gives it, found with its time expression and its
    /// comparisons — are filled by one oscillator
    /// ([`biscatter_dsp::simd::tone_fill`]) seeded with the per-sample
    /// phase at the first of them and turned by `2π·α·ΔT/fs` per sample.
    /// Samples outside every sweep stay zero.
    fn envelope_per_sweep(&self, slots: &Slots<'_>, time_offset_s: f64, out: &mut [f64]) {
        let fs = self.adc.sample_rate_hz;
        let n = out.len();
        let t_at = |i: usize| i as f64 / fs + time_offset_s;
        // The first sample at or after time `t`, to within a sample or two;
        // `first_reached` walks from there to the exact one.
        let guess = |t: f64| ((t - time_offset_s) * fs).ceil();
        let mut first = 0usize;
        for (s, (&t0, slot)) in slots.starts.iter().zip(slots.slots).enumerate() {
            // Slot s owns samples first..end: the per-sample loop moves to
            // the next slot at its first sample with t ≥ that slot's start.
            let end = match slots.starts.get(s + 1) {
                Some(&t1) => first_reached(first, n, guess(t1), |i| t_at(i) >= t1),
                None => n,
            };
            let chirp = &slot.chirp;
            let d = chirp.duration;
            // `envelope_at`'s own tests on τ = t − t0: before the sweep while
            // τ < 0, past it once τ > d.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let lo = first_reached(first, end, guess(t0), |i| !(t_at(i) - t0 < 0.0));
            let hi = first_reached(lo, end, guess(t0 + d), |i| t_at(i) - t0 > d);
            if lo < hi {
                let run = &mut out[lo..hi];
                let phase = self.beat_phase(chirp, t_at(lo) - t0, slots.phases[s]);
                let step = TAU * chirp.slope() * self.delta_t_at(chirp.f0) / fs;
                tone_fill(run, Cpx::cis(phase), Cpx::cis(step));
                for v in run.iter_mut() {
                    *v = self.detector.analytic_output_cos(1.0, *v);
                }
            }
            first = end;
        }
    }

    /// Scaled-passband validation path: synthesizes the real RF waveform of
    /// `chirp` at RF sample rate `fs_rf`, applies the two delayed arms
    /// (phase-exact delays), sums, and runs the square-law detector.
    ///
    /// Intended for *scaled* carriers (e.g. `f0` of a few hundred kHz) where
    /// `fs_rf` is tractable; the physics is scale-invariant in `α ΔT`.
    /// Returns the detector output at `fs_rf` (decimate as needed). The
    /// reference the envelope path's tests compare against.
    #[cfg(test)]
    fn capture_passband(&self, chirp: &Chirp, fs_rf: f64) -> Vec<f64> {
        let n = (chirp.duration * fs_rf).round() as usize;
        let dt_short = self.pair.short.delay_at(chirp.center_freq());
        let dt_long = self.pair.long.delay_at(chirp.center_freq());
        let rf: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs_rf;
                let s1 = if t >= dt_short {
                    chirp.phase(t - dt_short).cos()
                } else {
                    0.0
                };
                let s2 = if t >= dt_long {
                    chirp.phase(t - dt_long).cos()
                } else {
                    0.0
                };
                s1 + s2
            })
            .collect();
        self.detector.detect(&rf, fs_rf)
    }

    /// Total front-end insertion loss at frequency `f` (two splitter
    /// passes + mean delay-line loss), dB — feeds the downlink budget.
    pub fn insertion_loss_db(&self, f_hz: f64) -> f64 {
        self.splitter
            .port_loss_db(crate::components::splitter::SplitPort::A)
            + self.splitter.combine_loss_db()
            + self.pair.mean_insertion_loss_db(f_hz)
    }
}

/// A train's slots as the envelope fills read them: each slot, its start
/// time and its beat start phase.
struct Slots<'a> {
    slots: &'a [ChirpSlot],
    starts: &'a [f64],
    phases: &'a [f64],
}

thread_local! {
    /// Storage for a capture's slot start times and phases, reused by every
    /// capture on this thread.
    static SLOT_TIMES: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// The first index in `lo..hi` at which `reached` holds, or `hi` if none
/// does, for a predicate that is monotone in the index (false, then true).
/// Walks from `guess` (clamped into `lo..=hi`), so an estimate that is off
/// by a sample or two costs a step or two.
fn first_reached(lo: usize, hi: usize, guess: f64, reached: impl Fn(usize) -> bool) -> usize {
    // `as` saturates: a negative or NaN guess lands on 0.
    let mut i = (guess as usize).clamp(lo, hi);
    while i > lo && reached(i - 1) {
        i -= 1;
    }
    while i < hi && !reached(i) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inches_to_m;
    use biscatter_dsp::spectrum::{find_peak, periodogram};
    use biscatter_dsp::window::WindowKind;

    fn front_end(delta_l_in: f64) -> TagFrontEnd {
        TagFrontEnd::coax_prototype(inches_to_m(delta_l_in), 9.5e9)
    }

    fn peak_freq(samples: &[f64], fs: f64) -> f64 {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let ac: Vec<f64> = samples.iter().map(|v| v - mean).collect();
        let (freqs, power) = periodogram(&ac, fs, WindowKind::Hann);
        find_peak(&power).unwrap().refined_bin * freqs[1]
    }

    #[test]
    fn beat_freq_matches_eq11() {
        // B = 1 GHz, ΔL = 45 in, k = 0.7: Δf = B ΔL/(T k c).
        let fe = front_end(45.0);
        let chirp = Chirp::new(9e9, 1e9, 100e-6);
        let expected = 1e9 * inches_to_m(45.0) / (100e-6 * 0.7 * 299_792_458.0);
        let got = fe.beat_freq(&chirp);
        assert!(
            (got - expected).abs() / expected < 1e-9,
            "{got} vs {expected}"
        );
    }

    #[test]
    fn capture_shows_beat_tone() {
        let fe = front_end(45.0);
        let chirps = vec![Chirp::new(9e9, 1e9, 96e-6)];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let mut noise = NoiseSource::new(1);
        let samples = fe.capture_train(&train, 40.0, 0.0, &mut noise);
        assert_eq!(samples.len(), 120);
        // Only analyze the sweep portion (96 samples).
        let f_est = peak_freq(&samples[..96], fe.adc.sample_rate_hz);
        let f_expected = fe.beat_freq(&train.slots()[0].chirp);
        assert!(
            (f_est - f_expected).abs() < 2.5e3,
            "est {f_est}, expected {f_expected}"
        );
    }

    #[test]
    fn gap_contains_only_noise() {
        let fe = front_end(45.0);
        let chirps = vec![Chirp::new(9e9, 1e9, 40e-6)];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let mut noise = NoiseSource::new(2);
        let samples = fe.capture_train(&train, 30.0, 0.0, &mut noise);
        // Samples 40.. are in the gap: their power should be far below the
        // sweep portion.
        let p = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64;
        assert!(p(&samples[..40]) > 20.0 * p(&samples[50..]));
    }

    #[test]
    fn passband_validates_analytic_beat() {
        // Scaled-down experiment: the analytic model and the full passband
        // chain must agree on the beat frequency. Scale: f0 = 100 kHz,
        // B = 400 kHz, T = 50 ms, ΔT exaggerated via a long "cable" so the
        // beat lands at a measurable frequency.
        use crate::components::delay_line::DelayLine;
        let mut line = DelayLine::coax(0.0, 100e3);
        line.loss_db_per_m = 0.0;
        let fe = TagFrontEnd {
            pair: DelayLinePair::from_difference(line, 10.0, 30_000.0), // ΔT = 143 µs
            splitter: Splitter::ideal(),
            detector: EnvelopeDetector {
                video_bandwidth_hz: 50e3,
                noise_floor_dbm: -70.0,
                responsivity: 1.0,
            },
            adc: Adc::mcu_12bit_1mhz(),
            start_phase_jitter: 0.0,
        };
        let chirp = Chirp::new(100e3, 400e3, 50e-3);
        let fs_rf = 4e6;
        let analytic_f = fe.beat_freq(&chirp); // α ΔT = 8e6 * 1.43e-4 ≈ 1.14 kHz
        let detected = fe.capture_passband(&chirp, fs_rf);
        // Skip the detector transient, analyze the steady portion.
        let skip = (0.2 * detected.len() as f64) as usize;
        let f_est = peak_freq(&detected[skip..], fs_rf);
        assert!(
            (f_est - analytic_f).abs() / analytic_f < 0.05,
            "passband {f_est} vs analytic {analytic_f}"
        );
    }

    #[test]
    fn snr_controls_noise_level() {
        let fe = front_end(45.0);
        let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); 8];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let mut n1 = NoiseSource::new(3);
        let mut n2 = NoiseSource::new(3);
        let clean = fe.capture_train(&train, 60.0, 0.0, &mut n1);
        let noisy = fe.capture_train(&train, 0.0, 0.0, &mut n2);
        // Compare variance of the gap samples (pure noise region).
        let gap = |v: &[f64]| {
            let mut g = Vec::new();
            for slot in 0..8 {
                g.extend_from_slice(&v[slot * 120 + 100..slot * 120 + 119]);
            }
            let m = g.iter().sum::<f64>() / g.len() as f64;
            g.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / g.len() as f64
        };
        assert!(gap(&noisy) > 100.0 * gap(&clean).max(1e-12));
    }

    #[test]
    fn time_offset_shifts_pattern() {
        let fe = front_end(45.0);
        let chirps = vec![Chirp::new(9e9, 1e9, 60e-6)];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let mut n1 = NoiseSource::new(4);
        let mut n2 = NoiseSource::new(4);
        let aligned = fe.capture_train(&train, 60.0, 0.0, &mut n1);
        let shifted = fe.capture_train(&train, 60.0, 30e-6, &mut n2);
        // With a 30 µs offset the sweep ends 30 samples earlier.
        let p = |v: &[f64], lo: usize, hi: usize| v[lo..hi].iter().map(|x| x * x).sum::<f64>();
        assert!(p(&aligned, 40, 60) > 10.0 * p(&shifted, 40, 60));
    }

    #[test]
    fn insertion_loss_reasonable() {
        let fe = front_end(18.0);
        let loss = fe.insertion_loss_db(9.5e9);
        // Two splitter passes (~7.2 dB) + short cable loss: order 8–10 dB.
        assert!(loss > 6.0 && loss < 12.0, "loss {loss}");
    }

    /// A paper system's front end and the train of an ISAC frame
    /// (`isac_frame`: a packet's symbols, padded with header chirps to
    /// `chirps` slots): the 9 GHz 5-bit alphabet on a 45-inch line, or the
    /// 24 GHz 3-bit alphabet on a 72-inch line.
    fn isac_capture_setup(bits: usize, chirps: usize) -> (TagFrontEnd, ChirpTrain) {
        use biscatter_link::packet::DownlinkPacket;
        use biscatter_radar::cssk::CsskAlphabet;
        use biscatter_radar::sequencer::isac_frame;
        let (f0, bandwidth, delta_l_in) = match bits {
            5 => (9e9, 1e9, 45.0),
            _ => (24e9, 250e6, 72.0),
        };
        let alphabet = CsskAlphabet::new(f0, bandwidth, bits, 20e-6, 120e-6).unwrap();
        let packet = DownlinkPacket::new(b"CMD1".to_vec());
        let (frame, _, _) = isac_frame(&packet, &alphabet, 120e-6, chirps).unwrap();
        // The radar crate builds on the library build of this crate, so its
        // train is another type: rebuild the slots from their fields.
        let mut train = ChirpTrain::new();
        for s in frame.slots() {
            train.push(ChirpSlot {
                chirp: Chirp::new(s.chirp.f0, s.chirp.bandwidth, s.chirp.duration),
                inter_delay: s.inter_delay,
            });
        }
        let fe = TagFrontEnd::coax_prototype(inches_to_m(delta_l_in), f0 + 0.5 * bandwidth);
        (fe, train)
    }

    /// `capture_train` as the per-sample loop computes it: each sample's
    /// envelope from its own cosine, then the noise, then `Adc::quantize`
    /// one sample at a time.
    fn per_sample_capture(
        fe: &TagFrontEnd,
        train: &ChirpTrain,
        snr_db: f64,
        time_offset_s: f64,
        noise: &mut NoiseSource,
    ) -> Vec<f64> {
        let sigma = (1.0 / 2f64.sqrt()) / 10f64.powf(snr_db / 20.0);
        let mut out = fe.envelope(train, time_offset_s, noise, true);
        noise.add_awgn(&mut out, sigma);
        for s in out.iter_mut() {
            *s = fe.adc.quantize(*s / 2.2 * fe.adc.full_scale) * 2.2;
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The per-sweep oscillator fill against the per-sample loop it
    /// replaces on dispersion-free lines: the noise-free envelope within
    /// 1e-12, and the quantized capture bit for bit, across both paper
    /// alphabets, 32- and 128-chirp frames, ADC clock offsets from zero
    /// through fractions of a microsecond to a whole slot, SNRs from 2 to
    /// 60 dB, and fixed or random beat start phases.
    #[test]
    fn sweep_fill_matches_per_sample_oracle() {
        let offsets = [0.0, 0.37e-6, 2.5e-6, 57.3e-6, 81.3e-6, 120e-6];
        let mut seed = 0u64;
        let mut worst = 0.0f64;
        for alphabet in [5, 3] {
            for chirps in [32, 128] {
                let (mut fe, train) = isac_capture_setup(alphabet, chirps);
                assert!(!fe.pair.is_dispersive());
                for jitter in [0.0, 1.0] {
                    fe.start_phase_jitter = jitter;
                    for &offset in &offsets {
                        seed += 1;
                        let oracle = fe.envelope(&train, offset, &mut NoiseSource::new(seed), true);
                        let swept = fe.envelope(&train, offset, &mut NoiseSource::new(seed), false);
                        assert_eq!(oracle.len(), swept.len());
                        for (i, (a, b)) in oracle.iter().zip(&swept).enumerate() {
                            // Exact zeros outside the sweeps, on the same samples.
                            assert_eq!(*a == 0.0, *b == 0.0, "sample {i}: {a} vs {b}");
                            worst = worst.max((a - b).abs());
                        }
                        for snr_db in [2.0, 13.0, 31.0, 60.0] {
                            let mut noise = NoiseSource::new(seed);
                            let want = per_sample_capture(&fe, &train, snr_db, offset, &mut noise);
                            let mut noise = NoiseSource::new(seed);
                            let got = fe.capture_train(&train, snr_db, offset, &mut noise);
                            assert!(
                                bits(&want) == bits(&got),
                                "{alphabet}-bit, {chirps} chirps, offset {offset}, {snr_db} dB, jitter {jitter}"
                            );
                        }
                    }
                }
            }
        }
        assert!(worst <= 1e-12, "envelope moved by {worst:e}");
    }

    /// A dispersive pair's ΔT changes across each sweep, so its beat phase
    /// is not linear in time: `capture_train` must keep the per-sample
    /// loop, whose output it then equals exactly.
    #[test]
    fn dispersive_pair_runs_per_sample() {
        let (mut fe, train) = isac_capture_setup(5, 32);
        fe.pair.short.dispersion_per_ghz = -0.01;
        fe.pair.long.dispersion_per_ghz = -0.01;
        assert!(fe.pair.is_dispersive());
        for (seed, offset) in [(1u64, 0.0), (2, 37e-6)] {
            let mut noise = NoiseSource::new(seed);
            let want = per_sample_capture(&fe, &train, 30.0, offset, &mut noise);
            let got = fe.capture_train(&train, 30.0, offset, &mut NoiseSource::new(seed));
            assert_eq!(bits(&want), bits(&got));
            // The sweep fill would be wrong here: the choice is load-bearing.
            let oracle = fe.envelope(&train, offset, &mut NoiseSource::new(seed), true);
            let swept = fe.envelope(&train, offset, &mut NoiseSource::new(seed), false);
            let moved = oracle
                .iter()
                .zip(&swept)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(
                moved > 1e-3,
                "dispersion moved the envelope by only {moved:e}"
            );
        }
    }

    #[test]
    fn dispersion_changes_beat_slightly() {
        // With dispersion the beat frequency depends on where in the band
        // the sweep sits; without it, only on the slope. Reference the lines
        // at 9.0 GHz so a 9.5 GHz-centered sweep sees a velocity shift.
        let mut fe = TagFrontEnd::coax_prototype(inches_to_m(45.0), 9.0e9);
        fe.pair.short.dispersion_per_ghz = -0.01;
        fe.pair.long.dispersion_per_ghz = -0.01;
        let low = Chirp::new(9.0e9, 1e9, 100e-6); // centered at 9.5 GHz
        let high = Chirp::new(10.0e9, 1e9, 100e-6); // centered at 10.5 GHz
        let f_low = fe.beat_freq(&low);
        let f_high = fe.beat_freq(&high);
        let rel = (f_high - f_low).abs() / f_low;
        assert!(rel > 1e-3 && rel < 0.05, "relative shift {rel}");
        // Without dispersion the two agree exactly.
        let ideal = TagFrontEnd::coax_prototype(inches_to_m(45.0), 9.0e9);
        assert!((ideal.beat_freq(&low) - ideal.beat_freq(&high)).abs() < 1e-9);
    }
}

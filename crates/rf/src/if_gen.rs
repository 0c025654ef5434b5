//! Dechirped IF-domain sample generation.
//!
//! The radar mixes each received reflection with its own transmitted chirp;
//! a reflector at delay `τ = 2r/c` produces the IF phase
//!
//! `φ_IF(t) = φ(t) − φ(t−τ) = 2π (f0 τ + α τ t − α τ² / 2)`
//!
//! i.e. a tone at `f_IF = α τ = 2 α r / c` (paper eq. 3) with a
//! range-dependent phase offset. Simulating *this* domain at the radar's IF
//! sample rate (MHz) is the standard equivalent-baseband substitution for
//! full GHz passband simulation (DESIGN.md §5, level 3) — it is phase-exact
//! for every quantity the receiver measures.
//!
//! Tag modulation enters as a time-varying amplitude on the tag's scatterer,
//! evaluated at *absolute* time so the switch waveform is continuous across
//! chirps — exactly what the radar's slow-time FFT later exploits.
//!
//! Each scatterer's tone is synthesized with a complex phase oscillator (one
//! complex multiply per sample, renormalized every [`RENORM_INTERVAL`]
//! samples) instead of a per-sample `cos()`, and unmodulated scatterers skip
//! the per-sample amplitude evaluation entirely — together the dominant cost
//! of frame synthesis in clutter-rich scenes.

use crate::chirp::Chirp;
use crate::scene::{Scatterer, Scene, TagModulation};
use crate::slab::{ArrayCapture, SampleSlab};
use biscatter_compute::ComputePool;
use biscatter_dsp::planner::{with_planner, FftPlanner};
use biscatter_dsp::signal::NoiseSource;
use biscatter_dsp::{Cpx, Real, SPEED_OF_LIGHT, TAU};

/// Per-scatterer dechirp geometry at one chirp start: the IF tone phasor
/// rotation and starting phase. `None` when the scatterer is behind the
/// radar.
#[inline]
fn scatterer_tone(s: &Scatterer, chirp: &Chirp, fs: f64, t_start: f64) -> Option<(f64, Cpx)> {
    // Range (hence delay) at the chirp start; intra-chirp motion is
    // negligible at indoor velocities (µm over 100 µs).
    let r = s.range_at(t_start);
    if r <= 0.0 {
        return None;
    }
    let alpha = chirp.slope();
    let tau = 2.0 * r / SPEED_OF_LIGHT;
    let f_if = alpha * tau;
    let phase0 = TAU * (chirp.f0 * tau - 0.5 * alpha * tau * tau);
    Some((phase0, Cpx::cis(TAU * f_if / fs)))
}

/// Fills `amps[i] = s.amplitude_at(t_start + i/fs)` for a modulated
/// scatterer, rounded once into the sample precision; returns `None`
/// (leaving `amps` untouched) when the amplitude is constant so callers can
/// skip the per-sample evaluation entirely.
///
/// The waveform is evaluated in f64 (absolute-time switch phase needs the
/// precision). The modulation `match` is hoisted out of the sample loop and
/// `rem_euclid(1.0)` becomes `x − x.floor()`: the two compare identically
/// against the duty threshold for every finite `x` (both are exact for
/// `x ≥ 0`, and round the same exact value otherwise), so the fill matches
/// [`Scatterer::amplitude_at`] bit for bit — at a couple of vector
/// instructions instead of an `fmod` call per sample.
#[inline]
fn modulated_amplitudes<'a, T: Real>(
    s: &Scatterer,
    t_start: f64,
    fs: f64,
    amps: &'a mut [T],
) -> Option<&'a [T]> {
    #[inline]
    fn fract_pos(x: f64) -> f64 {
        x - x.floor()
    }
    let level = |active: bool| {
        T::from_f64(if active {
            s.amplitude
        } else {
            s.amplitude * s.leak
        })
    };
    match &s.modulation {
        TagModulation::None => return None,
        TagModulation::Subcarrier { freq_hz, duty } => {
            let (f, duty) = (*freq_hz, *duty);
            for (i, a) in amps.iter_mut().enumerate() {
                let t = t_start + i as f64 / fs;
                *a = level(fract_pos(t * f) < duty);
            }
        }
        TagModulation::OokBits {
            freq_hz,
            bit_duration_s,
            bits,
        } => {
            let f = *freq_hz;
            for (i, a) in amps.iter_mut().enumerate() {
                let t = t_start + i as f64 / fs;
                let active = if bits.is_empty() {
                    false
                } else {
                    let idx = ((t / bit_duration_s).floor() as usize) % bits.len();
                    bits[idx] && fract_pos(t * f) < 0.5
                };
                *a = level(active);
            }
        }
        TagModulation::FskBits {
            freq0_hz,
            freq1_hz,
            bit_duration_s,
            bits,
        } => {
            for (i, a) in amps.iter_mut().enumerate() {
                let t = t_start + i as f64 / fs;
                let active = if bits.is_empty() {
                    false
                } else {
                    let idx = ((t / bit_duration_s).floor() as usize) % bits.len();
                    let f = if bits[idx] { *freq1_hz } else { *freq0_hz };
                    fract_pos(t * f) < 0.5
                };
                *a = level(active);
            }
        }
    }
    Some(amps)
}

/// Synthesizes one chirp's noiseless IF signal into `out` (assumed zeroed)
/// at antenna `k` of a uniform linear array with `spacing_wavelengths`
/// element pitch: the sum of every scatterer's oscillator tone, in scene
/// order, each starting phase advanced by `k · 2π d_λ sin θ` (the
/// narrowband array model; `k = 0` is the single-antenna receiver). Pure —
/// consumes no RNG state — so chirps can be synthesized in any order (or in
/// parallel) and still produce bit-identical samples.
///
/// Each tone is a phase oscillator `ph ← ph · rot` (`rot = e^{i 2π f_IF /
/// fs}`) whose inner loop lives in `biscatter_dsp::simd` behind runtime
/// dispatch: the serial recurrence is blocked into independent phase
/// streams (four in f64, eight in f32) renormalized every 256 samples, with
/// the amplitude taken per sample for modulated scatterers and hoisted for
/// unmodulated ones. In f64 the error bound is the serial recurrence's —
/// amplitude drift ≤ ~`2Rε ≈ 1.1e-13` relative between renormalizations,
/// phase drift ~`nε` radians over an `n`-sample chirp — and the result is
/// bit-identical across dispatch tiers (DESIGN.md §9 and §14). Geometry is
/// always f64; only the per-sample accumulation runs in `T`.
fn synth_chirp<T: Real>(
    out: &mut [T],
    chirp: &Chirp,
    scene: &Scene,
    fs: f64,
    t_start: f64,
    k: usize,
    spacing_wavelengths: f64,
) {
    with_planner(|p: &mut FftPlanner<T>| {
        p.with_real_scratch(out.len(), |_, amps| {
            for s in &scene.scatterers {
                let Some((phase0, rot)) = scatterer_tone(s, chirp, fs, t_start) else {
                    continue;
                };
                let array_phase = TAU * spacing_wavelengths * s.azimuth_rad.sin();
                let amps = modulated_amplitudes(s, t_start, fs, &mut amps[..]);
                let ph0 = Cpx::cis(phase0 + k as f64 * array_phase);
                T::osc_accum(out, amps, T::from_f64(s.amplitude), ph0, rot);
            }
        })
    });
}

/// IF receiver parameters.
#[derive(Debug, Clone, Copy)]
pub struct IfReceiver {
    /// IF ADC sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Additive white noise standard deviation at the IF output (same
    /// arbitrary amplitude units as the scene's scatterer amplitudes).
    pub noise_sigma: f64,
}

impl IfReceiver {
    /// Generates the IF samples for one chirp.
    ///
    /// * `chirp` — the transmitted sweep,
    /// * `scene` — the reflectors,
    /// * `t_start` — absolute start time of this chirp (sets target motion
    ///   and tag-modulation phase),
    /// * `noise` — seeded noise source (pass the same source across chirps
    ///   of a frame for independent noise per chirp).
    pub fn dechirp(
        &self,
        chirp: &Chirp,
        scene: &Scene,
        t_start: f64,
        noise: &mut NoiseSource,
    ) -> Vec<f64> {
        let n = chirp.if_samples(self.sample_rate_hz);
        let mut out = vec![0.0f64; n];
        synth_chirp(&mut out, chirp, scene, self.sample_rate_hz, t_start, 0, 0.0);
        if self.noise_sigma > 0.0 {
            noise.add_awgn(&mut out, self.noise_sigma);
        }
        out
    }

    /// Generates IF samples for one chirp at every antenna of a uniform
    /// linear RX array with `spacing_wavelengths` element pitch. A scatterer
    /// at azimuth `θ` arrives at antenna `k` with an extra phase of
    /// `2π k d_λ sin θ` (the narrowband array model); noise is independent
    /// per antenna.
    pub fn dechirp_array(
        &self,
        chirp: &Chirp,
        scene: &Scene,
        t_start: f64,
        n_rx: usize,
        spacing_wavelengths: f64,
        noise: &mut NoiseSource,
    ) -> Vec<Vec<f64>> {
        let n = chirp.if_samples(self.sample_rate_hz);
        let mut out = vec![vec![0.0f64; n]; n_rx];
        for (k, rx) in out.iter_mut().enumerate() {
            synth_chirp(
                rx,
                chirp,
                scene,
                self.sample_rate_hz,
                t_start,
                k,
                spacing_wavelengths,
            );
        }
        if self.noise_sigma > 0.0 {
            for rx in out.iter_mut() {
                noise.add_awgn(rx, self.noise_sigma);
            }
        }
        out
    }

    /// Multi-antenna variant of [`IfReceiver::dechirp_train`]: returns the
    /// whole capture as one rx-major `[rx][chirp][sample]` slab. Synthesis
    /// fans out over the global [`ComputePool`]; see
    /// [`IfReceiver::dechirp_train_array_into`].
    pub fn dechirp_train_array(
        &self,
        train: &crate::frame::ChirpTrain,
        scene: &Scene,
        t_frame_start: f64,
        n_rx: usize,
        spacing_wavelengths: f64,
        noise: &mut NoiseSource,
    ) -> ArrayCapture {
        let mut out = ArrayCapture::new();
        self.dechirp_train_array_into(
            ComputePool::global(),
            train,
            scene,
            t_frame_start,
            n_rx,
            spacing_wavelengths,
            noise,
            &mut out,
        );
        out
    }

    /// Synthesizes a multi-antenna capture into a reusable [`ArrayCapture`],
    /// fanning the `n_rx × n_chirps` independent rows out across `pool`.
    ///
    /// Bit-identical to the serial chirp-by-chirp path: tone synthesis
    /// consumes no RNG (each row's samples are the same floating-point ops
    /// in the same order regardless of scheduling), and the stateful noise
    /// source is applied afterwards on the caller thread in the serial
    /// order — chirp-major, antenna-minor, exactly as the per-chirp
    /// [`IfReceiver::dechirp_array`] loop would.
    // One parameter per physical input; bundling them would just move the
    // argument list into a struct literal at every call site.
    #[allow(clippy::too_many_arguments)]
    pub fn dechirp_train_array_into(
        &self,
        pool: &ComputePool,
        train: &crate::frame::ChirpTrain,
        scene: &Scene,
        t_frame_start: f64,
        n_rx: usize,
        spacing_wavelengths: f64,
        noise: &mut NoiseSource,
        out: &mut ArrayCapture,
    ) {
        let fs = self.sample_rate_hz;
        let slots = train.slots();
        let n_chirps = slots.len();
        out.layout(n_rx, slots.iter().map(|s| s.chirp.if_samples(fs)));
        {
            let (offsets, data) = out.parts_mut();
            pool.par_ragged(data, offsets, |row, samples| {
                let (rx, c) = (row / n_chirps, row % n_chirps);
                synth_chirp(
                    samples,
                    &slots[c].chirp,
                    scene,
                    fs,
                    t_frame_start + train.slot_start(c),
                    rx,
                    spacing_wavelengths,
                );
            });
        }
        if self.noise_sigma > 0.0 {
            for c in 0..n_chirps {
                for rx in 0..n_rx {
                    noise.add_awgn(out.chirp_mut(rx, c), self.noise_sigma);
                }
            }
        }
    }

    /// Generates IF samples for every chirp of a train (absolute-time
    /// aligned), returning one `Vec` per chirp. Synthesis fans out over the
    /// global [`ComputePool`]; bit-identical to the sequential per-chirp
    /// path (tone synthesis is RNG-free, noise is added serially in chirp
    /// order afterwards).
    pub fn dechirp_train(
        &self,
        train: &crate::frame::ChirpTrain,
        scene: &Scene,
        t_frame_start: f64,
        noise: &mut NoiseSource,
    ) -> Vec<Vec<f64>> {
        let fs = self.sample_rate_hz;
        let slots = train.slots();
        let mut out: Vec<Vec<f64>> = slots
            .iter()
            .map(|s| vec![0.0f64; s.chirp.if_samples(fs)])
            .collect();
        ComputePool::global().par_chunks(&mut out, 1, |c, row| {
            synth_chirp(
                &mut row[0],
                &slots[c].chirp,
                scene,
                fs,
                t_frame_start + train.slot_start(c),
                0,
                0.0,
            );
        });
        if self.noise_sigma > 0.0 {
            for row in out.iter_mut() {
                noise.add_awgn(row, self.noise_sigma);
            }
        }
        out
    }

    /// Zero-allocation variant of [`IfReceiver::dechirp_train`], in either
    /// sample precision: lays the frame out in a reusable [`SampleSlab`] and
    /// fans chirp synthesis out across `pool`. Bit-identical to the
    /// sequential path (see [`IfReceiver::dechirp_train_array_into`] for the
    /// argument).
    ///
    /// Chirp geometry is computed in f64 either way. In f32 the per-sample
    /// synthesis runs in single precision and the noise comes from the
    /// precision's own generator (the fast inverse-CDF draw, see
    /// [`Real::add_awgn`]) — seeded and deterministic, but a *different*
    /// realization than f64's Box–Muller; cross-precision validation is
    /// statistical (detection/decode agreement at operating SNR) plus
    /// noiseless kernel bounds, not sample equality.
    pub fn dechirp_train_into<T: Real>(
        &self,
        pool: &ComputePool,
        train: &crate::frame::ChirpTrain,
        scene: &Scene,
        t_frame_start: f64,
        noise: &mut NoiseSource,
        out: &mut SampleSlab<T>,
    ) {
        let fs = self.sample_rate_hz;
        let slots = train.slots();
        out.layout_rows(slots.iter().map(|s| s.chirp.if_samples(fs)));
        {
            let (offsets, data) = out.parts_mut();
            pool.par_ragged(data, offsets, |r, row| {
                synth_chirp(
                    row,
                    &slots[r].chirp,
                    scene,
                    fs,
                    t_frame_start + train.slot_start(r),
                    0,
                    0.0,
                );
            });
        }
        if self.noise_sigma > 0.0 {
            for r in 0..out.rows() {
                T::add_awgn(noise, out.row_mut(r), self.noise_sigma);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ChirpTrain;
    use crate::scene::{Scatterer, TagModulation};
    use biscatter_dsp::spectrum::{find_peak, periodogram};
    use biscatter_dsp::window::WindowKind;

    fn rx() -> IfReceiver {
        IfReceiver {
            sample_rate_hz: 2e6,
            noise_sigma: 0.0,
        }
    }

    /// The seed implementation evaluated `amp·cos(phase0 + 2π f_IF t)` per
    /// sample; the oscillator recurrence must reproduce it to well below the
    /// simulation's noise floor (see `RENORM_INTERVAL` for the bound).
    #[test]
    fn oscillator_matches_direct_cos() {
        let chirp = Chirp::new(9e9, 1e9, 200e-6); // 400 samples at 2 MHz
        let mut tag = Scatterer::tag(4.0, 1.5, 3000.0);
        tag.leak = 0.05;
        let scene = Scene::new()
            .with(Scatterer::clutter(2.0, 3.0))
            .with(Scatterer::mover(6.0, 1.0, 0.5))
            .with(tag);
        let receiver = rx();
        let fs = receiver.sample_rate_hz;
        for t_start in [0.0, 0.0123] {
            let mut noise = NoiseSource::new(1);
            let got = receiver.dechirp(&chirp, &scene, t_start, &mut noise);
            let alpha = chirp.slope();
            let mut want = vec![0.0f64; got.len()];
            for s in &scene.scatterers {
                let r = s.range_at(t_start);
                let tau = 2.0 * r / biscatter_dsp::SPEED_OF_LIGHT;
                let f_if = alpha * tau;
                let phase0 = biscatter_dsp::TAU * (chirp.f0 * tau - 0.5 * alpha * tau * tau);
                for (i, w) in want.iter_mut().enumerate() {
                    let t = i as f64 / fs;
                    *w += s.amplitude_at(t_start + t)
                        * (phase0 + biscatter_dsp::TAU * f_if * t).cos();
                }
            }
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < 1e-9, "sample {i}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn single_target_beat_frequency() {
        let chirp = Chirp::new(9e9, 1e9, 100e-6);
        let scene = Scene::new().with(Scatterer::clutter(5.0, 1.0));
        let mut noise = NoiseSource::new(1);
        let samples = rx().dechirp(&chirp, &scene, 0.0, &mut noise);
        assert_eq!(samples.len(), 200);
        let (freqs, power) = periodogram(&samples, 2e6, WindowKind::Hann);
        let peak = find_peak(&power).unwrap();
        let f_est = peak.refined_bin * freqs[1];
        let f_expected = chirp.beat_freq_for_range(5.0);
        assert!(
            (f_est - f_expected).abs() < 8e3,
            "got {f_est}, expected {f_expected}"
        );
    }

    #[test]
    fn two_targets_two_peaks() {
        let chirp = Chirp::new(9e9, 1e9, 200e-6);
        let scene = Scene::new()
            .with(Scatterer::clutter(2.0, 1.0))
            .with(Scatterer::clutter(6.0, 1.0));
        let mut noise = NoiseSource::new(2);
        let samples = rx().dechirp(&chirp, &scene, 0.0, &mut noise);
        let (freqs, power) = periodogram(&samples, 2e6, WindowKind::Hann);
        let df = freqs[1];
        let f2 = chirp.beat_freq_for_range(2.0);
        let f6 = chirp.beat_freq_for_range(6.0);
        let bin = |f: f64| (f / df).round() as usize;
        // Power near each expected beat should dominate the floor.
        let floor: f64 = power.iter().sum::<f64>() / power.len() as f64;
        assert!(power[bin(f2)] > 10.0 * floor);
        assert!(power[bin(f6)] > 10.0 * floor);
    }

    #[test]
    fn amplitude_scales_power() {
        let chirp = Chirp::new(9e9, 1e9, 100e-6);
        let mut noise = NoiseSource::new(3);
        let strong = rx().dechirp(
            &chirp,
            &Scene::new().with(Scatterer::clutter(4.0, 2.0)),
            0.0,
            &mut noise,
        );
        let weak = rx().dechirp(
            &chirp,
            &Scene::new().with(Scatterer::clutter(4.0, 1.0)),
            0.0,
            &mut noise,
        );
        let p = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        assert!((p(&strong) / p(&weak) - 4.0).abs() < 0.01);
    }

    #[test]
    fn moving_target_shifts_range_over_time() {
        let chirp = Chirp::new(9e9, 1e9, 100e-6);
        let scene = Scene::new().with(Scatterer::mover(5.0, 10.0, 1.0));
        let mut noise = NoiseSource::new(4);
        let early = rx().dechirp(&chirp, &scene, 0.0, &mut noise);
        let late = rx().dechirp(&chirp, &scene, 0.1, &mut noise); // +1 m
        let peak_freq = |v: &[f64]| {
            let (freqs, power) = periodogram(v, 2e6, WindowKind::Hann);
            find_peak(&power).unwrap().refined_bin * freqs[1]
        };
        let f_early = peak_freq(&early);
        let f_late = peak_freq(&late);
        let df_expected = chirp.beat_freq_for_range(6.0) - chirp.beat_freq_for_range(5.0);
        assert!(
            ((f_late - f_early) - df_expected).abs() < 0.2 * df_expected,
            "shift {} vs expected {}",
            f_late - f_early,
            df_expected
        );
    }

    #[test]
    fn tag_modulation_gates_chirps() {
        // Tag toggling at half the chirp rate: alternate chirps see the tag
        // on/off. Modulation freq chosen so chirp starts land on opposite
        // half-cycles.
        let period = 100e-6;
        let chirps = vec![Chirp::new(9e9, 1e9, 80e-6); 4];
        let train = ChirpTrain::with_fixed_period(&chirps, period).unwrap();
        let mod_freq = 1.0 / (2.0 * period); // 5 kHz
        let mut tag = Scatterer::tag(4.0, 1.0, mod_freq);
        tag.leak = 0.0;
        tag.modulation = TagModulation::Subcarrier {
            freq_hz: mod_freq,
            duty: 0.5,
        };
        let scene = Scene::new().with(tag);
        let mut noise = NoiseSource::new(5);
        let per_chirp = rx().dechirp_train(&train, &scene, 0.0, &mut noise);
        let p = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        // Chirps 0, 2 on; 1, 3 off (leak = 0).
        assert!(p(&per_chirp[0]) > 1.0);
        assert!(p(&per_chirp[1]) < 1e-9);
        assert!(p(&per_chirp[2]) > 1.0);
        assert!(p(&per_chirp[3]) < 1e-9);
    }

    #[test]
    fn noise_changes_between_chirps() {
        let chirp = Chirp::new(9e9, 1e9, 50e-6);
        let scene = Scene::new();
        let receiver = IfReceiver {
            sample_rate_hz: 2e6,
            noise_sigma: 0.1,
        };
        let mut noise = NoiseSource::new(6);
        let a = receiver.dechirp(&chirp, &scene, 0.0, &mut noise);
        let b = receiver.dechirp(&chirp, &scene, 0.0, &mut noise);
        assert_ne!(a, b);
    }

    fn busy_scene() -> Scene {
        let mut tag = Scatterer::tag(4.0, 1.0, 3000.0);
        tag.modulation = TagModulation::Subcarrier {
            freq_hz: 3000.0,
            duty: 0.5,
        };
        Scene::new()
            .with(Scatterer::clutter(2.0, 3.0))
            .with(Scatterer::mover(6.0, 1.0, 0.5))
            .with(tag)
    }

    #[test]
    fn train_into_bit_identical_across_pool_sizes() {
        let chirps = vec![Chirp::new(9e9, 1e9, 80e-6); 6];
        let train = ChirpTrain::with_fixed_period(&chirps, 100e-6).unwrap();
        let scene = busy_scene();
        let receiver = IfReceiver {
            sample_rate_hz: 2e6,
            noise_sigma: 0.1,
        };
        let mut n_ref = NoiseSource::new(11);
        let reference = receiver.dechirp_train(&train, &scene, 0.0, &mut n_ref);
        for threads in [1usize, 2, 4] {
            let pool = ComputePool::new(threads);
            let mut noise = NoiseSource::new(11);
            let mut slab: SampleSlab = SampleSlab::new();
            receiver.dechirp_train_into(&pool, &train, &scene, 0.0, &mut noise, &mut slab);
            assert_eq!(slab.rows(), reference.len());
            for (c, row) in reference.iter().enumerate() {
                assert_eq!(slab.row(c), &row[..], "chirp {c}, {threads} threads");
            }
        }
    }

    #[test]
    fn train_array_bit_identical_to_per_chirp_serial() {
        let chirps = vec![Chirp::new(9e9, 1e9, 80e-6); 4];
        let train = ChirpTrain::with_fixed_period(&chirps, 100e-6).unwrap();
        let mut scene = busy_scene();
        scene.scatterers[0].azimuth_rad = 0.3;
        scene.scatterers[2].azimuth_rad = -0.2;
        let receiver = IfReceiver {
            sample_rate_hz: 2e6,
            noise_sigma: 0.05,
        };
        let (n_rx, spacing) = (3usize, 0.5);
        // Serial baseline: the seed's chirp-by-chirp array dechirp.
        let mut n_ref = NoiseSource::new(12);
        let reference: Vec<Vec<Vec<f64>>> = train
            .iter_timed()
            .map(|(t0, slot)| {
                receiver.dechirp_array(&slot.chirp, &scene, t0, n_rx, spacing, &mut n_ref)
            })
            .collect();
        for threads in [1usize, 2, 4] {
            let pool = ComputePool::new(threads);
            let mut noise = NoiseSource::new(12);
            let mut cap = ArrayCapture::new();
            receiver.dechirp_train_array_into(
                &pool, &train, &scene, 0.0, n_rx, spacing, &mut noise, &mut cap,
            );
            assert_eq!((cap.n_rx(), cap.n_chirps()), (n_rx, reference.len()));
            for (c, per_antenna) in reference.iter().enumerate() {
                for (k, want) in per_antenna.iter().enumerate() {
                    assert_eq!(
                        cap.chirp(k, c),
                        &want[..],
                        "chirp {c} rx {k}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn f32_train_tracks_f64_noiseless() {
        let chirps = vec![Chirp::new(9e9, 1e9, 80e-6); 6];
        let train = ChirpTrain::with_fixed_period(&chirps, 100e-6).unwrap();
        let scene = busy_scene();
        // Noiseless so the residual is pure f32 synthesis rounding; the
        // noisy case diverges by design (the f32 tier draws its own fast
        // realization, validated statistically at the frame level).
        let receiver = IfReceiver {
            sample_rate_hz: 2e6,
            noise_sigma: 0.0,
        };
        let pool = ComputePool::new(1);
        let mut n64 = NoiseSource::new(21);
        let mut slab: SampleSlab = SampleSlab::new();
        receiver.dechirp_train_into(&pool, &train, &scene, 0.0, &mut n64, &mut slab);
        let mut n32 = NoiseSource::new(21);
        let mut slab32 = SampleSlab::<f32>::new();
        receiver.dechirp_train_into(&pool, &train, &scene, 0.0, &mut n32, &mut slab32);
        assert_eq!(slab32.rows(), slab.rows());
        for r in 0..slab.rows() {
            for (i, (&g, &w)) in slab32.row(r).iter().zip(slab.row(r)).enumerate() {
                assert!(
                    (g as f64 - w).abs() < 1e-3,
                    "row {r} sample {i}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn f32_train_noise_is_seeded_and_scaled() {
        let chirps = vec![Chirp::new(9e9, 1e9, 80e-6); 6];
        let train = ChirpTrain::with_fixed_period(&chirps, 100e-6).unwrap();
        let scene = Scene::new(); // empty: the slab is pure noise
        let receiver = IfReceiver {
            sample_rate_hz: 2e6,
            noise_sigma: 0.25,
        };
        let pool = ComputePool::new(1);
        let mut a = SampleSlab::<f32>::new();
        let mut b = SampleSlab::<f32>::new();
        let mut na = NoiseSource::new(33);
        let mut nb = NoiseSource::new(33);
        receiver.dechirp_train_into(&pool, &train, &scene, 0.0, &mut na, &mut a);
        receiver.dechirp_train_into(&pool, &train, &scene, 0.0, &mut nb, &mut b);
        let mut sum_sq = 0.0f64;
        let mut n = 0usize;
        for r in 0..a.rows() {
            assert_eq!(a.row(r), b.row(r), "same seed must replay exactly");
            for &v in a.row(r) {
                sum_sq += (v as f64) * (v as f64);
                n += 1;
            }
        }
        let std = (sum_sq / n as f64).sqrt();
        assert!((std - 0.25).abs() < 0.01, "noise std {std}");
    }

    #[test]
    fn behind_radar_ignored() {
        let chirp = Chirp::new(9e9, 1e9, 50e-6);
        let scene = Scene::new().with(Scatterer::clutter(-1.0, 1.0));
        let mut noise = NoiseSource::new(7);
        let samples = rx().dechirp(&chirp, &scene, 0.0, &mut noise);
        assert!(samples.iter().all(|&x| x == 0.0));
    }
}

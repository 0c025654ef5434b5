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
//! complex multiply per sample, renormalized every 256 samples) instead of a
//! per-sample `cos()`, and a tag's switch is evaluated once per switch edge
//! rather than once per sample: its amplitudes are filled by runs, and a
//! chirp that sees one level (every unmodulated scatterer, and a tag between
//! two edges) takes the oscillator's constant-amplitude branch.

use crate::chirp::Chirp;
use crate::scene::{Scatterer, Scene, SwitchState};
use crate::slab::SampleSlab;
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

/// A scatterer's amplitude over one chirp, `s.amplitude_at(t_start + i/fs)`
/// rounded once into the sample precision, in the form
/// [`Real::osc_accum`] takes it: `(None, level)` when one level covers the
/// whole chirp (`amps` untouched), otherwise `(Some(amps), _)` with `amps`
/// filled sample by sample.
///
/// The switch state is evaluated in f64 (absolute-time switch phase needs
/// the precision), but only at run edges, not at every sample: sample times
/// grow with `i`, so each state of [`switch_state`] covers one contiguous
/// run of samples. A chirp whose first and last samples share a state is
/// therefore a single run. Otherwise each run's end is found by galloping
/// out from its start and bisecting on the exact per-sample state, and the
/// run is filled with its level — so every sample gets the level the
/// per-sample evaluation gives it, at a few state evaluations per switch
/// edge instead of one per sample.
///
/// [`switch_state`]: crate::scene::TagModulation::switch_state
fn switched_amplitudes<'a, T: Real>(
    s: &Scatterer,
    t_start: f64,
    fs: f64,
    amps: &'a mut [T],
) -> (Option<&'a [T]>, T) {
    let state = |i: usize| s.modulation.switch_state(t_start + i as f64 / fs);
    let level = |st: SwitchState| {
        T::from_f64(if st.reflective {
            s.amplitude
        } else {
            s.amplitude * s.leak
        })
    };
    let n = amps.len();
    let first = state(0);
    let last = state(n.saturating_sub(1));
    if first == last {
        return (None, level(first));
    }
    let (mut start, mut run) = (0, first);
    while run != last {
        // `state(start)` is `run` and `state(n − 1)` is not. Gallop out
        // until a probe leaves the run, then bisect: `lo` stays in the
        // run and `hi` past it, with `next = state(hi)`.
        let (mut lo, mut hi, mut next, mut step) = (start, n - 1, last, 1);
        while lo + step < hi {
            let st = state(lo + step);
            if st != run {
                (hi, next) = (lo + step, st);
                break;
            }
            lo += step;
            step *= 2;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let st = state(mid);
            if st == run {
                lo = mid;
            } else {
                (hi, next) = (mid, st);
            }
        }
        amps[start..hi].fill(level(run));
        (start, run) = (hi, next);
    }
    amps[start..].fill(level(run));
    (Some(amps), level(first))
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
/// the amplitude taken per sample for chirps a tag's switch toggles in and
/// hoisted for one-level ones. In f64 the error bound is the serial
/// recurrence's — amplitude drift ≤ ~`2Rε ≈ 1.1e-13` relative between
/// renormalizations, phase drift ~`nε` radians over an `n`-sample chirp —
/// and the result is bit-identical across dispatch tiers (DESIGN.md §9 and
/// §14). Geometry is always f64; only the per-sample accumulation runs in
/// `T`.
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
                let (amps, level) = switched_amplitudes(s, t_start, fs, &mut amps[..]);
                let ph0 = Cpx::cis(phase0 + k as f64 * array_phase);
                T::osc_accum(out, amps, level, ph0, rot);
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
    /// per antenna. The oracle the array-synthesis tests check
    /// [`IfReceiver::dechirp_train_array_into`] against.
    #[cfg(test)]
    fn dechirp_array(
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

    /// Generates IF samples for every chirp of a train (absolute-time
    /// aligned) into a fresh slab, one row per chirp: the allocating
    /// convenience over [`IfReceiver::dechirp_train_into`] on the global
    /// [`ComputePool`].
    pub fn dechirp_train(
        &self,
        train: &crate::frame::ChirpTrain,
        scene: &Scene,
        t_frame_start: f64,
        noise: &mut NoiseSource,
    ) -> SampleSlab {
        let mut out = SampleSlab::new();
        self.dechirp_train_into(
            ComputePool::global(),
            train,
            scene,
            t_frame_start,
            noise,
            &mut out,
        );
        out
    }

    /// Generates a train's IF samples into a reusable [`SampleSlab`], in
    /// either sample precision: the single-antenna receiver, antenna 0 of
    /// [`IfReceiver::dechirp_train_array_into`].
    ///
    /// Chirp geometry is computed in f64 either way. In f32 the per-sample
    /// synthesis runs in single precision; the noise is the same deviate
    /// stream in either precision ([`NoiseSource::add_awgn`]), each scaled
    /// deviate rounded once to f32. Cross-precision validation is still
    /// statistical (detection/decode agreement at operating SNR) plus
    /// noiseless kernel bounds, not sample equality: the tones differ by f32
    /// rounding.
    pub fn dechirp_train_into<T: Real>(
        &self,
        pool: &ComputePool,
        train: &crate::frame::ChirpTrain,
        scene: &Scene,
        t_frame_start: f64,
        noise: &mut NoiseSource,
        out: &mut SampleSlab<T>,
    ) {
        self.dechirp_train_array_into(
            pool,
            train,
            scene,
            t_frame_start,
            0.0,
            noise,
            std::slice::from_mut(out),
        );
    }

    /// Synthesizes a train's IF samples at every antenna of a uniform linear
    /// RX array with `spacing_wavelengths` element pitch, one slab per
    /// antenna (`out.len()` antennas; antenna `k` fills `out[k]`). A
    /// scatterer at azimuth `θ` arrives at antenna `k` with an extra phase of
    /// `2π k d_λ sin θ` (the narrowband array model); noise is independent
    /// per antenna. Each slab's rows fan out across `pool`.
    ///
    /// Bit-identical to the serial chirp-by-chirp path: tone synthesis
    /// consumes no RNG (each row's samples are the same floating-point ops
    /// in the same order regardless of scheduling), and the stateful noise
    /// source is applied afterwards on the caller thread in the serial
    /// order — chirp-major, antenna-minor, exactly as a per-chirp loop
    /// would (the unit tests keep that loop as the oracle).
    // One parameter per physical input; bundling them would just move the
    // argument list into a struct literal at every call site.
    #[allow(clippy::too_many_arguments)]
    pub fn dechirp_train_array_into<T: Real>(
        &self,
        pool: &ComputePool,
        train: &crate::frame::ChirpTrain,
        scene: &Scene,
        t_frame_start: f64,
        spacing_wavelengths: f64,
        noise: &mut NoiseSource,
        out: &mut [SampleSlab<T>],
    ) {
        let fs = self.sample_rate_hz;
        let slots = train.slots();
        for (k, slab) in out.iter_mut().enumerate() {
            slab.layout_rows(slots.iter().map(|s| s.chirp.if_samples(fs)));
            let (offsets, data) = slab.parts_mut();
            pool.par_ragged(data, offsets, |c, row| {
                synth_chirp(
                    row,
                    &slots[c].chirp,
                    scene,
                    fs,
                    t_frame_start + train.slot_start(c),
                    k,
                    spacing_wavelengths,
                );
            });
        }
        if self.noise_sigma > 0.0 {
            for c in 0..slots.len() {
                for slab in out.iter_mut() {
                    noise.add_awgn(slab.row_mut(c), self.noise_sigma);
                }
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
    /// simulation's noise floor (DESIGN.md §9.2 gives the bound).
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
        assert!(p(per_chirp.row(0)) > 1.0);
        assert!(p(per_chirp.row(1)) < 1e-9);
        assert!(p(per_chirp.row(2)) > 1.0);
        assert!(p(per_chirp.row(3)) < 1e-9);
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
        // Serial baseline: one chirp at a time, noise drawn per chirp.
        let mut n_ref = NoiseSource::new(11);
        let reference: Vec<Vec<f64>> = train
            .iter_timed()
            .map(|(t0, slot)| receiver.dechirp(&slot.chirp, &scene, t0, &mut n_ref))
            .collect();
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
            let mut slabs: Vec<SampleSlab> = vec![SampleSlab::new(); n_rx];
            receiver.dechirp_train_array_into(
                &pool, &train, &scene, 0.0, spacing, &mut noise, &mut slabs,
            );
            assert!(slabs.iter().all(|s| s.rows() == reference.len()));
            for (c, per_antenna) in reference.iter().enumerate() {
                for (k, want) in per_antenna.iter().enumerate() {
                    assert_eq!(
                        slabs[k].row(c),
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
        // Noiseless so the residual is pure f32 synthesis rounding; both
        // precisions draw the same noise deviates, so noise would only add
        // the rounding of each scaled deviate to f32.
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

    /// The per-sample amplitude fill that `switched_amplitudes` replaced,
    /// kept verbatim as its oracle: every sample re-derives the switch
    /// state from `t_start + i/fs`. `None` means the constant amplitude
    /// `s.amplitude`.
    fn per_sample_amplitudes<'a, T: Real>(
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

    /// Asserts that the run fill hands the oscillator the oracle's
    /// amplitude bits at every one of `n` samples, and that a one-level
    /// chirp leaves the buffer unwritten. Returns whether it was one level.
    fn assert_fill_matches<T: Real>(s: &Scatterer, t_start: f64, fs: f64, n: usize) -> bool {
        let mut oracle = vec![T::ZERO; n];
        let want = match per_sample_amplitudes(s, t_start, fs, &mut oracle) {
            Some(a) => a.to_vec(),
            None => vec![T::from_f64(s.amplitude); n],
        };
        let mut buf = vec![T::from_f64(f64::NAN); n];
        let (amps, level) = switched_amplitudes(s, t_start, fs, &mut buf);
        let one_level = amps.is_none();
        let got = amps.map_or_else(|| vec![level; n], <[T]>::to_vec);
        let bits = |x: T| x.to_f64().to_bits();
        if let Some(i) = (0..n).find(|&i| bits(got[i]) != bits(want[i])) {
            panic!(
                "{}: sample {i} of {n} is {:?}, per-sample {:?} ({s:?}, t_start {t_start}, fs {fs})",
                std::any::type_name::<T>(),
                got[i],
                want[i]
            );
        }
        if one_level {
            assert!(buf.iter().all(|x| x.to_f64().is_nan()), "buffer written");
        }
        one_level
    }

    fn assert_fill_matches_both(s: &Scatterer, t_start: f64, fs: f64, n: usize) -> bool {
        assert_fill_matches::<f32>(s, t_start, fs, n);
        assert_fill_matches::<f64>(s, t_start, fs, n)
    }

    fn tag_with(modulation: TagModulation, leak: f64) -> Scatterer {
        Scatterer {
            modulation,
            leak,
            ..Scatterer::tag(3.0, 0.7, 1.0)
        }
    }

    fn ook(freq_hz: f64, bit_duration_s: f64, bits: &[u8]) -> TagModulation {
        TagModulation::OokBits {
            freq_hz,
            bit_duration_s,
            bits: bits.iter().map(|&b| b == 1).collect(),
        }
    }

    fn fsk(freq0_hz: f64, freq1_hz: f64, bit_duration_s: f64, bits: &[u8]) -> TagModulation {
        TagModulation::FskBits {
            freq0_hz,
            freq1_hz,
            bit_duration_s,
            bits: bits.iter().map(|&b| b == 1).collect(),
        }
    }

    #[test]
    fn run_fill_matches_per_sample_edge_cases() {
        let sub = |freq_hz, duty| TagModulation::Subcarrier { freq_hz, duty };
        // Bits shorter than a subcarrier half-cycle: the wrapped bit index
        // repeats within one cycle, so a fill keyed on it mis-fills this
        // chirp.
        assert_fill_matches_both(
            &tag_with(ook(9309.4, 0.25e-6, &[0, 1, 0]), 0.01),
            0.0155,
            4e6,
            1024,
        );
        // Switch edges landing exactly on samples: f = fs/m, t_start = k/fs.
        let fs = 2e6;
        for m in [2.0, 3.0, 40.0, 64.0] {
            for k in [0.0, 1.0, 12_345.0, 4e6 + 7.0] {
                let t0 = k / fs;
                assert_fill_matches_both(&tag_with(sub(fs / m, 0.5), 0.01), t0, fs, 400);
                let bit = 5.0 * m / fs;
                let ook = ook(fs / m, bit, &[1, 0, 1, 1]);
                assert_fill_matches_both(&tag_with(ook, 0.01), t0, fs, 400);
                let fsk = fsk(fs / m, fs / (2.0 * m), bit, &[0, 1, 1]);
                assert_fill_matches_both(&tag_with(fsk, 0.01), t0, fs, 400);
            }
        }
        // Duty 0 and 1 (and beyond): the switch never leaves one state
        // within a cycle.
        for duty in [0.0, 1.0, -0.5, 1.5] {
            for t0 in [0.0, 3e-4, 1.25] {
                assert_fill_matches_both(&tag_with(sub(3300.0, duty), 0.01), t0, 2e6, 192);
            }
        }
        // Empty bits absorb; leak 0 silences the absorptive state.
        for leak in [0.0, 0.01] {
            assert_fill_matches_both(&tag_with(ook(1e3, 1e-4, &[]), leak), 0.01, 2e6, 200);
            let empty_fsk = fsk(1e3, 2e3, 1e-4, &[]);
            assert_fill_matches_both(&tag_with(empty_fsk, leak), 0.01, 2e6, 200);
            assert_fill_matches_both(&tag_with(sub(2.5e4, 0.3), leak), 1e-3, 2e6, 200);
            assert_fill_matches_both(&tag_with(TagModulation::None, leak), 0.5, 2e6, 200);
        }
        // Bits shorter than one sample, and subcarriers near the sample rate.
        for t0 in [0.0, 0.0155, 2.0] {
            let fast_ook = ook(9e5, 0.3 / 4e6, &[1, 0, 1, 1, 0]);
            assert_fill_matches_both(&tag_with(fast_ook, 0.01), t0, 4e6, 700);
            let fast_fsk = fsk(1.9e6, 3.1e5, 0.7 / 4e6, &[0, 1]);
            assert_fill_matches_both(&tag_with(fast_fsk, 0.01), t0, 4e6, 700);
            assert_fill_matches_both(&tag_with(sub(3.9e6, 0.5), 0.01), t0, 4e6, 700);
        }
        // A chirp late in a long frame, where t·f is large.
        for t0 in [3600.0 + 1.5e-5, 86_400.123_456] {
            assert_fill_matches_both(&tag_with(sub(3311.7, 0.5), 0.01), t0, 2e6, 192);
            let slow_ook = ook(3311.7, 8.0 * 120e-6, &[1, 0, 0, 1, 1, 0, 1]);
            assert_fill_matches_both(&tag_with(slow_ook, 0.01), t0, 2e6, 192);
            let slow_fsk = fsk(2100.0, 3311.7, 50e-6, &[1, 0, 1]);
            assert_fill_matches_both(&tag_with(slow_fsk, 0.01), t0, 2e6, 192);
        }
        // Zero- and one-sample chirps.
        for n in [0, 1, 2] {
            assert_fill_matches_both(&tag_with(sub(3e5, 0.5), 0.01), 1e-3, 2e6, n);
        }
    }

    /// Seeded random modulations, sample rates, chirp lengths and start
    /// times, spanning slow switches (one level per chirp), fast ones
    /// (edges every sample), exact on-sample edges and negative times.
    #[test]
    fn run_fill_matches_per_sample_sweep() {
        let mut rng = NoiseSource::new(0x5EED_F111);
        let cases = if cfg!(debug_assertions) {
            20_000
        } else {
            400_000
        };
        let mut one_level = 0;
        for _ in 0..cases {
            let mut below = |k: usize| (rng.uniform() * k as f64) as usize;
            let fs = [2e6, 4e6, 10e6][below(3)];
            let n = 1 + below(512);
            let exact = below(4) == 0;
            let modulation_kind = below(4);
            let n_bits = below(6);
            let leak = [0.0, 0.01, 0.3][below(3)];
            let bits: Vec<u8> = (0..n_bits).map(|_| below(2) as u8).collect();
            let mut log_uniform = |lo: f64, hi: f64| lo * (hi / lo).powf(rng.uniform());
            let (f0, f1, bit_s) = if exact {
                let m = |u: f64| 1.0 + (u * 64.0).floor();
                let (m0, m1, mb) = (m(rng.uniform()), m(rng.uniform()), m(rng.uniform()));
                (fs / m0, fs / m1, mb / fs)
            } else {
                (
                    log_uniform(1.0, fs),
                    log_uniform(1.0, fs),
                    log_uniform(0.1 / fs, 1e-2),
                )
            };
            let t_start = match (exact, (rng.uniform() * 4.0) as usize) {
                (true, _) => (rng.uniform() * 1e7).floor() / fs,
                (false, 0) => 0.0,
                (false, 1) => rng.uniform() * 1e-2,
                (false, 2) => rng.uniform() * 100.0,
                _ => -rng.uniform() * 1e-3,
            };
            let modulation = match modulation_kind {
                0 => TagModulation::None,
                1 => TagModulation::Subcarrier {
                    freq_hz: f0,
                    duty: rng.uniform() * 1.2 - 0.1,
                },
                2 => ook(f0, bit_s, &bits),
                _ => fsk(f0, f1, bit_s, &bits),
            };
            let mut s = tag_with(modulation, leak);
            s.amplitude = 1e-3 * 1e4f64.powf(rng.uniform());
            one_level += usize::from(assert_fill_matches_both(&s, t_start, fs, n));
        }
        // Both paths must be well exercised.
        assert!(
            (cases / 5..cases * 4 / 5).contains(&one_level),
            "{one_level} of {cases} chirps had one level"
        );
    }
}

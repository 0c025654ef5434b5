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
//! Each scatterer's unit tone is written by a complex phase oscillator (one
//! complex multiply per sample, renormalized every 256 samples) instead of a
//! per-sample `cos()`, and a chirp's samples are the level-weighted sum of
//! its scatterers' tones, added in scene order a few tones per pass. A tag's
//! switch is evaluated once per switch edge rather than once per sample: its
//! level comes as runs, and a pass runs over stretches of samples in which
//! none of its tones changes level. A static reflector's tone depends only
//! on the chirp's shape, so a train fills it once per shape and antenna and
//! every slot of that shape reads it; a moving one's tone is filled per
//! slot (DESIGN.md §9.2).

use crate::chirp::Chirp;
use crate::frame::ChirpTrain;
use crate::scene::{Scatterer, Scene, SwitchState};
use crate::slab::SampleSlab;
use biscatter_compute::ComputePool;
use biscatter_dsp::planner::{with_planner, FftPlanner};
use biscatter_dsp::signal::NoiseSource;
use biscatter_dsp::simd::TONES_PER_PASS;
use biscatter_dsp::{Cpx, Real, SPEED_OF_LIGHT, TAU};
use std::cell::Cell;

/// Whether a scatterer is behind the radar (and so contributes nothing) in
/// a chirp starting at `t_start`.
fn behind_radar(s: &Scatterer, t_start: f64) -> bool {
    s.range_at(t_start) <= 0.0
}

/// Whether a scatterer's tone is the same in every slot of a shape: without
/// motion, `range_at` is `range_m` at every slot start, so the tone's
/// starting phase and rotation have the same bits in every slot.
fn is_static(s: &Scatterer) -> bool {
    s.velocity_mps == 0.0
}

/// One chirp shape as antenna `k` of a uniform linear array with
/// `spacing_wavelengths` element pitch receives it at sample rate `fs`:
/// everything a scatterer's IF tone depends on besides the chirp's start
/// time (`k = 0` is the single-antenna receiver).
#[derive(Clone, Copy)]
struct Reception<'a> {
    chirp: &'a Chirp,
    fs: f64,
    k: usize,
    spacing_wavelengths: f64,
}

impl Reception<'_> {
    /// Per-scatterer dechirp geometry at one chirp start: the IF tone's
    /// starting phasor, advanced by `k · 2π d_λ sin θ` (the narrowband
    /// array model), and its per-sample rotation. `None` when the scatterer
    /// is behind the radar.
    #[inline]
    fn tone(&self, s: &Scatterer, t_start: f64) -> Option<(Cpx, Cpx)> {
        // Range (hence delay) at the chirp start; intra-chirp motion is
        // negligible at indoor velocities (µm over 100 µs).
        if behind_radar(s, t_start) {
            return None;
        }
        let r = s.range_at(t_start);
        let alpha = self.chirp.slope();
        let tau = 2.0 * r / SPEED_OF_LIGHT;
        let f_if = alpha * tau;
        let phase0 = TAU * (self.chirp.f0 * tau - 0.5 * alpha * tau * tau);
        let array_phase = TAU * self.spacing_wavelengths * s.azimuth_rad.sin();
        Some((
            Cpx::cis(phase0 + self.k as f64 * array_phase),
            Cpx::cis(TAU * f_if / self.fs),
        ))
    }

    /// Writes a static scatterer's unit tone for this shape into its table
    /// slot; movers and scatterers behind the radar leave theirs unwritten.
    fn fill_static<T: Real>(&self, tone: &mut [T], s: &Scatterer, t_start: f64) {
        if is_static(s) {
            if let Some((ph0, rot)) = self.tone(s, t_start) {
                T::tone_fill(tone, ph0, rot);
            }
        }
    }
}

/// A scatterer's amplitude over one `n`-sample chirp,
/// `s.amplitude_at(t_start + i/fs)`, as runs of one level: `(end, level)`
/// pairs whose ends increase to `n` (an empty chirp is one run ending at
/// 0). The row rounds each level once into the sample precision.
///
/// The switch state is evaluated in f64 (absolute-time switch phase needs
/// the precision), but only at run edges, not at every sample: sample times
/// grow with `i`, so each state of [`switch_state`] covers one contiguous
/// run of samples. A chirp whose first and last samples share a state is
/// therefore a single run. Otherwise each run's end is first looked for at
/// the sample the waveform's formula predicts
/// ([`TagModulation::next_edge_s`]): if the sample before it is still in the
/// run and it is not, it is the run's end, since a state covers one
/// contiguous run. When that probe misses (rounding put the edge one sample
/// off), the end is found by galloping out from the run's start and
/// bisecting on the exact per-sample state. Either way every sample gets
/// the level the per-sample evaluation gives it, at two state evaluations
/// per switch edge (a few more on a miss) instead of one per sample.
///
/// [`switch_state`]: crate::scene::TagModulation::switch_state
/// [`TagModulation::next_edge_s`]: crate::scene::TagModulation::next_edge_s
struct SwitchRuns<'a> {
    s: &'a Scatterer,
    t_start: f64,
    fs: f64,
    n: usize,
    /// The next run's start and state; `None` once the last run is out.
    next: Option<(usize, SwitchState)>,
    /// The state of the chirp's last sample, which the last run has.
    last: SwitchState,
}

impl<'a> SwitchRuns<'a> {
    fn new(s: &'a Scatterer, t_start: f64, fs: f64, n: usize) -> Self {
        let state = |i: usize| s.modulation.switch_state(t_start + i as f64 / fs);
        SwitchRuns {
            s,
            t_start,
            fs,
            n,
            next: Some((0, state(0))),
            last: state(n.saturating_sub(1)),
        }
    }

    #[inline]
    fn state(&self, i: usize) -> SwitchState {
        self.s
            .modulation
            .switch_state(self.t_start + i as f64 / self.fs)
    }

    fn level(&self, st: SwitchState) -> f64 {
        if st.reflective {
            self.s.amplitude
        } else {
            self.s.amplitude * self.s.leak
        }
    }
}

impl Iterator for SwitchRuns<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        let (start, run) = self.next?;
        if run == self.last {
            self.next = None;
            return Some((self.n, self.level(run)));
        }
        // `state(start)` is `run` and `state(n − 1)` is not. Probe the
        // predicted edge: the first sample at or after the edge time.
        let guess = ((self.s.modulation.next_edge_s(run) - self.t_start) * self.fs).ceil();
        if guess > start as f64 && guess <= (self.n - 1) as f64 {
            let hi = guess as usize;
            if self.state(hi - 1) == run {
                let next = self.state(hi);
                if next != run {
                    self.next = Some((hi, next));
                    return Some((hi, self.level(run)));
                }
            }
        }
        // The probe missed: gallop out until a probe leaves the run, then
        // bisect: `lo` stays in the run and `hi` past it, with
        // `next = state(hi)`.
        let (mut lo, mut hi, mut next, mut step) = (start, self.n - 1, self.last, 1);
        while lo + step < hi {
            let st = self.state(lo + step);
            if st != run {
                (hi, next) = (lo + step, st);
                break;
            }
            lo += step;
            step *= 2;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let st = self.state(mid);
            if st == run {
                lo = mid;
            } else {
                (hi, next) = (mid, st);
            }
        }
        self.next = Some((hi, next));
        Some((hi, self.level(run)))
    }
}

/// Adds one pass of tones to `out`, each weighted by its scatterer's level
/// runs: the fused kernel runs once per stretch of samples in which no tone
/// of the pass changes level.
fn add_pass<T: Real>(out: &mut [T], tones: &[&[T]], runs: &mut [Option<SwitchRuns<'_>>]) {
    let m = tones.len();
    let next_run = |r: &mut Option<SwitchRuns<'_>>| {
        let (end, level) = r
            .as_mut()
            .and_then(Iterator::next)
            .expect("level runs reach the end of the chirp");
        (end, T::from_f64(level))
    };
    let mut cur = [(0usize, T::ZERO); TONES_PER_PASS];
    for (c, r) in cur.iter_mut().zip(runs.iter_mut()) {
        *c = next_run(r);
    }
    let n = out.len();
    let mut lo = 0;
    while lo < n {
        let hi = cur[..m].iter().map(|c| c.0).min().unwrap_or(n);
        let levels = cur.map(|c| c.1);
        let seg: [&[T]; TONES_PER_PASS] =
            std::array::from_fn(|g| tones.get(g).map_or(&[][..], |t| &t[lo..hi]));
        T::tones_accum(&mut out[lo..hi], &seg[..m], &levels[..m]);
        for (c, r) in cur[..m].iter_mut().zip(runs.iter_mut()) {
            if c.0 == hi && hi < n {
                *c = next_run(r);
            }
        }
        lo = hi;
    }
}

/// Adds the tones of `scene` to `out`, one chirp of `rx`'s shape starting
/// at `t_start`. `table` holds the scene's static tones for this shape and
/// antenna, scatterer `j` at `table[j·n..(j+1)·n]`; movers' tones depend on
/// `t_start`, so they are filled here, into this thread's scratch. Each
/// sample becomes `((out + a₀·t₀) + a₁·t₁) + …` over the scatterers in front
/// of the radar, in scene order, whatever the pass boundaries — the sum of
/// adding one tone at a time.
fn synth_row<T: Real>(out: &mut [T], table: &[T], scene: &Scene, rx: Reception<'_>, t_start: f64) {
    let n = out.len();
    if n == 0 {
        return;
    }
    let movers = scene.scatterers.iter().filter(|s| !is_static(s)).count();
    with_planner(|p: &mut FftPlanner<T>| {
        p.with_real_scratch(movers.min(TONES_PER_PASS) * n, |_, scratch| {
            let mut rest = scene.scatterers.iter().enumerate();
            loop {
                let mut slots = scratch.chunks_exact_mut(n);
                let mut tones: [&[T]; TONES_PER_PASS] = [&[]; TONES_PER_PASS];
                let mut runs: [Option<SwitchRuns<'_>>; TONES_PER_PASS] = Default::default();
                let mut m = 0;
                for (j, s) in rest.by_ref() {
                    tones[m] = if is_static(s) {
                        if behind_radar(s, t_start) {
                            continue;
                        }
                        &table[j * n..(j + 1) * n]
                    } else {
                        let Some((ph0, rot)) = rx.tone(s, t_start) else {
                            continue;
                        };
                        let slot = slots.next().expect("one scratch tone per mover of a pass");
                        T::tone_fill(slot, ph0, rot);
                        slot
                    };
                    runs[m] = Some(SwitchRuns::new(s, t_start, rx.fs, n));
                    m += 1;
                    if m == TONES_PER_PASS {
                        break;
                    }
                }
                if m == 0 {
                    break;
                }
                add_pass(out, &tones[..m], &mut runs[..m]);
            }
        })
    });
}

/// Synthesizes one chirp's noiseless IF signal into `out` (assumed zeroed)
/// as `rx` receives it: the sum of every scatterer's oscillator tone, in
/// scene order. Pure — consumes no RNG state — so chirps can be synthesized in
/// any order (or in parallel) and still produce bit-identical samples. The
/// train path builds its rows from the same two steps, with each shape's
/// static tones filled once for all its rows.
///
/// Each tone is a phase oscillator `ph ← ph · rot` (`rot = e^{i 2π f_IF /
/// fs}`) whose inner loop lives in `biscatter_dsp::simd` behind runtime
/// dispatch: the serial recurrence is blocked into independent phase
/// streams (four in f64, eight in f32) renormalized every 256 samples. In
/// f64 the error bound is the serial recurrence's — amplitude drift ≤
/// ~`2Rε ≈ 1.1e-13` relative between renormalizations, phase drift ~`nε`
/// radians over an `n`-sample chirp — and the result is bit-identical
/// across dispatch tiers (DESIGN.md §9 and §14). Geometry is always f64;
/// only the per-sample tones and sums run in `T`.
fn synth_chirp<T: Real>(out: &mut [T], scene: &Scene, rx: Reception<'_>, t_start: f64) {
    let n = out.len();
    if n == 0 {
        return;
    }
    let mut table = with_planner(|p: &mut FftPlanner<T>| p.take_table());
    table.resize(scene.scatterers.len() * n, T::ZERO);
    for (tone, s) in table.chunks_exact_mut(n).zip(&scene.scatterers) {
        rx.fill_static(tone, s, t_start);
    }
    synth_row(out, &table, scene, rx, t_start);
    with_planner(|p: &mut FftPlanner<T>| p.put_table(table));
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
        let rx = Reception {
            chirp,
            fs: self.sample_rate_hz,
            k: 0,
            spacing_wavelengths: 0.0,
        };
        synth_chirp(&mut out, scene, rx, t_start);
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
    fn dechirp_array<T: Real>(
        &self,
        chirp: &Chirp,
        scene: &Scene,
        t_start: f64,
        n_rx: usize,
        spacing_wavelengths: f64,
        noise: &mut NoiseSource,
    ) -> Vec<Vec<T>> {
        let n = chirp.if_samples(self.sample_rate_hz);
        let mut out = vec![vec![T::ZERO; n]; n_rx];
        for (k, row) in out.iter_mut().enumerate() {
            let rx = Reception {
                chirp,
                fs: self.sample_rate_hz,
                k,
                spacing_wavelengths,
            };
            synth_chirp(row, scene, rx, t_start);
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
        train: &ChirpTrain,
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
        train: &ChirpTrain,
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
    /// per antenna. The slabs are one destination of
    /// [`IfReceiver::for_each_shape`]: each shape's rows fan out across
    /// `pool`, each written in place, noise included.
    ///
    /// Bit-identical to the serial chirp-by-chirp path: tone synthesis
    /// consumes no RNG (each row's samples are the same floating-point ops
    /// in the same order regardless of scheduling, and a static scatterer's
    /// tone has the same bits in every slot of a shape), and each row draws
    /// its noise from its own place in the serial order — chirp-major,
    /// antenna-minor, exactly as a per-chirp loop would (the unit tests keep
    /// that loop, and the serial post-pass over the slabs, as oracles).
    // One parameter per physical input; bundling them would just move the
    // argument list into a struct literal at every call site.
    #[allow(clippy::too_many_arguments)]
    pub fn dechirp_train_array_into<T: Real>(
        &self,
        pool: &ComputePool,
        train: &ChirpTrain,
        scene: &Scene,
        t_frame_start: f64,
        spacing_wavelengths: f64,
        noise: &mut NoiseSource,
        out: &mut [SampleSlab<T>],
    ) {
        let fs = self.sample_rate_hz;
        for slab in out.iter_mut() {
            slab.layout_rows(train.slots().iter().map(|s| s.chirp.if_samples(fs)));
        }
        let n_rx = out.len();
        self.for_each_shape(
            pool,
            train,
            scene,
            t_frame_start,
            spacing_wavelengths,
            n_rx,
            noise,
            |rows| {
                let (offsets, data) = out[rows.antenna()].parts_mut();
                pool.par_ragged(data, offsets, |c, row| {
                    if train.shape(c) == rows.shape() {
                        rows.fill(c, row);
                    }
                });
            },
        );
    }

    /// The one synthesis path of a train's rows, with the destination left
    /// to `rows`: per antenna `k < n_rx` and chirp shape
    /// ([`ChirpTrain::shape`]), in that order, it calls `rows` on the
    /// calling thread with a [`ShapeRows`] that fills any row of that shape
    /// at that antenna, in any order, on any thread ([`ShapeRows::fill`]);
    /// `rows` fans them out and puts each wherever it goes.
    ///
    /// Before the call, every static scatterer's tone for the shape is
    /// filled once into a table sized to the scene (a fan-out over
    /// scatterers across `pool`). Each row's IF noise starts at its place in
    /// the serial stream — chirp-major, antenna-minor, one draw per sample
    /// — reached by [`NoiseSource::jump`] from `noise`'s state, and `noise`
    /// ends where the serial fill leaves it. So the rows hold the same bits
    /// whatever order they are filled in, and no destination needs the
    /// whole train's samples at once.
    #[allow(clippy::too_many_arguments)]
    pub fn for_each_shape<T: Real>(
        &self,
        pool: &ComputePool,
        train: &ChirpTrain,
        scene: &Scene,
        t_frame_start: f64,
        spacing_wavelengths: f64,
        n_rx: usize,
        noise: &mut NoiseSource,
        mut rows: impl FnMut(&ShapeRows<'_, T>),
    ) {
        let fs = self.sample_rate_hz;
        let slots = train.slots();
        let mut starts = ROW_STARTS.take();
        starts.clear();
        let mut total = 0;
        for s in slots {
            starts.push(total);
            total += s.chirp.if_samples(fs);
        }
        let row_noise = (self.noise_sigma > 0.0).then(|| RowNoise {
            origin: noise.clone(),
            sigma: self.noise_sigma,
            n_rx,
            starts: &starts,
        });
        for k in 0..n_rx {
            for shape in (0..slots.len()).filter(|&c| train.shape(c) == c) {
                let chirp = &slots[shape].chirp;
                let n = chirp.if_samples(fs);
                let rx = Reception {
                    chirp,
                    fs,
                    k,
                    spacing_wavelengths,
                };
                let t_shape = t_frame_start + train.slot_start(shape);
                let mut table = with_planner(|p: &mut FftPlanner<T>| p.take_table());
                table.resize(scene.scatterers.len() * n, T::ZERO);
                pool.par_chunks(&mut table, n, |j, tone| {
                    rx.fill_static(tone, &scene.scatterers[j], t_shape);
                });
                rows(&ShapeRows {
                    train,
                    scene,
                    rx,
                    shape,
                    n,
                    t_frame_start,
                    table: &table,
                    noise: row_noise.as_ref(),
                });
                with_planner(|p: &mut FftPlanner<T>| p.put_table(table));
            }
        }
        ROW_STARTS.set(starts);
        if self.noise_sigma > 0.0 {
            noise.jump((n_rx * total) as u64);
        }
    }
}

thread_local! {
    /// Per-thread storage for a train's row starts (each chirp's first
    /// sample in a one-antenna stream), reused across frames.
    static ROW_STARTS: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
}

/// Where the rows of a train draw their IF noise: the generator at the
/// train's first draw, the deviation, and each row's place in the
/// chirp-major, antenna-minor stream.
struct RowNoise<'a> {
    origin: NoiseSource,
    sigma: f64,
    n_rx: usize,
    starts: &'a [usize],
}

/// The rows of one chirp shape at one antenna, as
/// [`IfReceiver::for_each_shape`] hands them to a destination: everything
/// filling one of them needs, shared read-only by every thread that fills
/// one.
pub struct ShapeRows<'a, T> {
    train: &'a ChirpTrain,
    scene: &'a Scene,
    rx: Reception<'a>,
    shape: usize,
    n: usize,
    t_frame_start: f64,
    /// The shape's static tones, scatterer `j` at `table[j·n..(j+1)·n]`.
    table: &'a [T],
    noise: Option<&'a RowNoise<'a>>,
}

impl<T: Real> ShapeRows<'_, T> {
    /// The shape: the first chirp of the train with this chirp, and so
    /// every chirp `c` with `train.shape(c)` equal to it.
    pub fn shape(&self) -> usize {
        self.shape
    }

    /// The antenna the rows are received at.
    pub fn antenna(&self) -> usize {
        self.rx.k
    }

    /// Samples in each row of the shape.
    pub fn samples(&self) -> usize {
        self.n
    }

    /// Fills chirp `c`'s row ([`ShapeRows::samples`] long, any contents)
    /// with its IF signal and noise: zeros, the scene's tones added in scene
    /// order, then one scaled deviate per sample from the row's place in
    /// the stream.
    ///
    /// # Panics
    /// Panics if `row` is not [`ShapeRows::samples`] long.
    pub fn fill(&self, c: usize, row: &mut [T]) {
        assert_eq!(row.len(), self.n, "chirp {c}'s row");
        let t_start = self.t_frame_start + self.train.slot_start(c);
        row.fill(T::ZERO);
        synth_row(row, self.table, self.scene, self.rx, t_start);
        if let Some(noise) = self.noise {
            let mut src = noise.origin.clone();
            src.jump((noise.n_rx * noise.starts[c] + self.rx.k * self.n) as u64);
            src.add_awgn(row, noise.sigma);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Clutter, then an OOK tag with bits, a mover, a subcarrier tag and a
    /// scatterer behind the radar, spread in azimuth for the array.
    fn memo_scene() -> Scene {
        let mut clutter = Scatterer::clutter(2.0, 3.0);
        clutter.azimuth_rad = 0.1;
        let mut ook = Scatterer::tag(3.5, 0.8, 2500.0);
        ook.modulation = TagModulation::OokBits {
            freq_hz: 2500.0,
            bit_duration_s: 310e-6,
            bits: vec![true, false, true, true, false],
        };
        ook.azimuth_rad = 0.25;
        let mut subcarrier = Scatterer::tag(5.0, 1.2, 1700.0);
        subcarrier.azimuth_rad = -0.4;
        Scene::new()
            .with(clutter)
            .with(ook)
            .with(Scatterer::mover(6.0, -1.5, 0.5))
            .with(subcarrier)
            .with(Scatterer::clutter(-1.0, 2.0))
    }

    /// The dechirp before shapes and passes, kept as the oracle of every
    /// row: each scatterer's tone filled on its own and added sample by
    /// sample, `out[i] += amp_i · tone[i]`, in scene order, with `amp_i`
    /// from the per-sample fill.
    fn one_tone_at_a_time<T: Real>(
        n: usize,
        scene: &Scene,
        rx: Reception<'_>,
        t_start: f64,
    ) -> Vec<T> {
        let mut out = vec![T::ZERO; n];
        let mut tone = vec![T::ZERO; n];
        let mut buf = vec![T::ZERO; n];
        for s in &scene.scatterers {
            let Some((ph0, rot)) = rx.tone(s, t_start) else {
                continue;
            };
            T::tone_fill(&mut tone, ph0, rot);
            let amps = per_sample_amplitudes(s, t_start, rx.fs, &mut buf)
                .map_or_else(|| vec![T::from_f64(s.amplitude); n], <[T]>::to_vec);
            for ((o, &t), &a) in out.iter_mut().zip(&tone).zip(&amps) {
                *o += a * t;
            }
        }
        out
    }

    /// The train path, which fills each shape's static tones once, against
    /// a per-chirp loop over the array oracle, bit for bit: at every pool
    /// size, on both antennas, in both precisions. Every per-chirp row also
    /// equals the one-tone-at-a-time sum.
    fn memoised_train_matches_per_chirp<T: Real>(train: &ChirpTrain) {
        let scene = memo_scene();
        let receiver = IfReceiver {
            sample_rate_hz: 2e6,
            noise_sigma: 0.05,
        };
        let (fs, n_rx, spacing) = (receiver.sample_rate_hz, 2usize, 0.5);
        let mut n_ref = NoiseSource::new(41);
        let reference: Vec<Vec<Vec<T>>> = train
            .iter_timed()
            .map(|(t0, slot)| {
                receiver.dechirp_array(&slot.chirp, &scene, t0, n_rx, spacing, &mut n_ref)
            })
            .collect();
        for (t0, slot) in train.iter_timed() {
            let n = slot.chirp.if_samples(fs);
            for k in 0..n_rx {
                let mut row = vec![T::ZERO; n];
                let rx = Reception {
                    chirp: &slot.chirp,
                    fs,
                    k,
                    spacing_wavelengths: spacing,
                };
                synth_chirp(&mut row, &scene, rx, t0);
                let want = one_tone_at_a_time::<T>(n, &scene, rx, t0);
                assert_eq!(row, want, "chirp at {t0} rx {k}");
            }
        }
        for threads in [1usize, 2, 4] {
            let pool = ComputePool::new(threads);
            let mut noise = NoiseSource::new(41);
            let mut slabs = vec![SampleSlab::<T>::new(); n_rx];
            receiver.dechirp_train_array_into(
                &pool, train, &scene, 0.0, spacing, &mut noise, &mut slabs,
            );
            for (c, per_antenna) in reference.iter().enumerate() {
                for (k, want) in per_antenna.iter().enumerate() {
                    assert_eq!(
                        slabs[k].row(c),
                        &want[..],
                        "{}: chirp {c} rx {k}, {threads} threads",
                        std::any::type_name::<T>()
                    );
                }
            }
        }
    }

    #[test]
    fn memoised_train_matches_per_chirp_oracle() {
        // Repeated shapes interleaved with single-slot ones.
        let chirp = |us: f64| Chirp::new(9e9, 1e9, us * 1e-6);
        let (h, a, b, c) = (chirp(80.0), chirp(61.5), chirp(45.0), chirp(33.0));
        let chirps = [h, h, a, h, b, a, c, h, h, b, h];
        let train = ChirpTrain::with_fixed_period(&chirps, 100e-6).unwrap();
        let shapes: Vec<usize> = (0..train.len()).map(|i| train.shape(i)).collect();
        assert_eq!(shapes, [0, 0, 2, 0, 4, 2, 6, 0, 0, 4, 0]);
        memoised_train_matches_per_chirp::<f64>(&train);
        memoised_train_matches_per_chirp::<f32>(&train);
    }

    /// The serial noise post-pass the producer replaced, kept as its
    /// oracle: noiseless rows first, then one fill per row on one
    /// generator, chirp-major, antenna-minor.
    fn serial_post_pass<T: Real>(
        receiver: &IfReceiver,
        pool: &ComputePool,
        train: &ChirpTrain,
        scene: &Scene,
        noise: &mut NoiseSource,
        out: &mut [SampleSlab<T>],
    ) {
        let quiet = IfReceiver {
            noise_sigma: 0.0,
            ..*receiver
        };
        let mut unused = NoiseSource::new(1);
        quiet.dechirp_train_array_into(pool, train, scene, 0.0, 0.5, &mut unused, out);
        for c in 0..train.len() {
            for slab in out.iter_mut() {
                noise.add_awgn(slab.row_mut(c), receiver.noise_sigma);
            }
        }
    }

    /// Rows filled from their places in the stream equal the serial
    /// post-pass bit for bit, and leave the generator where it leaves it:
    /// 1 and 2 antennas, pools of 1 and 2 threads, in both precisions,
    /// into slabs whose cells still hold NaN from an earlier layout.
    fn producer_matches_serial_post_pass<T: Real>(train: &ChirpTrain, scene: &Scene) {
        let receiver = IfReceiver {
            sample_rate_hz: 10e6,
            noise_sigma: 0.05,
        };
        let bits = |slab: &SampleSlab<T>, c: usize| -> Vec<u64> {
            slab.row(c).iter().map(|v| v.to_f64().to_bits()).collect()
        };
        for n_rx in [1usize, 2] {
            for threads in [1usize, 2] {
                let pool = ComputePool::new(threads);
                let mut want_noise = NoiseSource::new(53);
                let mut want = vec![SampleSlab::<T>::new(); n_rx];
                serial_post_pass(&receiver, &pool, train, scene, &mut want_noise, &mut want);
                let mut got_noise = NoiseSource::new(53);
                let mut got = vec![SampleSlab::<T>::new(); n_rx];
                for slab in &mut got {
                    slab.layout_rows(std::iter::repeat(2_000).take(train.len()));
                    slab.parts_mut().1.fill(T::from_f64(f64::NAN));
                }
                receiver.dechirp_train_array_into(
                    &pool,
                    train,
                    scene,
                    0.0,
                    0.5,
                    &mut got_noise,
                    &mut got,
                );
                for c in 0..train.len() {
                    for k in 0..n_rx {
                        assert_eq!(
                            bits(&got[k], c),
                            bits(&want[k], c),
                            "{}: chirp {c} rx {k} of {n_rx}, {threads} threads",
                            std::any::type_name::<T>()
                        );
                    }
                }
                assert_eq!(
                    got_noise.gaussian().to_bits(),
                    want_noise.gaussian().to_bits(),
                    "the generator ends where the serial pass leaves it"
                );
            }
        }
    }

    #[test]
    fn rows_noised_in_place_match_serial_post_pass() {
        // A 31-scatterer scene on 1,200-, 960- and 400-sample chirps: a
        // shape's table holds 37,200 tone samples at the longest.
        let mut scene = memo_scene();
        for i in 0..26 {
            let mut clutter = Scatterer::clutter(1.0 + 0.37 * i as f64, 0.5 + 0.1 * i as f64);
            clutter.azimuth_rad = 0.02 * i as f64 - 0.2;
            scene = scene.with(clutter);
        }
        assert_eq!(scene.scatterers.len(), 31);
        let (long, short) = (Chirp::new(9e9, 1e9, 120e-6), Chirp::new(9e9, 1e9, 96e-6));
        let chirps = [
            long,
            short,
            long,
            long,
            short,
            Chirp::new(9e9, 1e9, 40e-6),
            long,
        ];
        let train = ChirpTrain::with_fixed_period(&chirps, 150e-6).unwrap();
        producer_matches_serial_post_pass::<f64>(&train, &scene);
        producer_matches_serial_post_pass::<f32>(&train, &scene);
        producer_matches_serial_post_pass::<f64>(&train, &busy_scene());
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

    /// The per-sample amplitude fill that the level runs replaced, kept
    /// verbatim as their oracle: every sample re-derives the switch state
    /// from `t_start + i/fs`. `None` means the constant amplitude
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

    /// Asserts that the level runs, expanded, give the oracle's amplitude
    /// bits at every one of `n` samples, with run ends increasing to `n`.
    /// Returns whether the chirp was one run.
    fn assert_fill_matches<T: Real>(s: &Scatterer, t_start: f64, fs: f64, n: usize) -> bool {
        let mut oracle = vec![T::ZERO; n];
        let want = match per_sample_amplitudes(s, t_start, fs, &mut oracle) {
            Some(a) => a.to_vec(),
            None => vec![T::from_f64(s.amplitude); n],
        };
        let runs: Vec<(usize, T)> = SwitchRuns::new(s, t_start, fs, n)
            .map(|(end, level)| (end, T::from_f64(level)))
            .collect();
        let mut got = Vec::with_capacity(n);
        for &(end, level) in &runs {
            assert!(end > got.len() || n == 0, "empty run before {end} of {n}");
            got.resize(end, level);
        }
        assert_eq!(got.len(), n, "runs {runs:?} end short of {n}");
        let bits = |x: T| x.to_f64().to_bits();
        if let Some(i) = (0..n).find(|&i| bits(got[i]) != bits(want[i])) {
            panic!(
                "{}: sample {i} of {n} is {:?}, per-sample {:?} ({s:?}, t_start {t_start}, fs {fs})",
                std::any::type_name::<T>(),
                got[i],
                want[i]
            );
        }
        runs.len() == 1
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

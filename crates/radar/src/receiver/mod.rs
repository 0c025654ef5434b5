//! The BiScatter radar receive chain (paper §3.3).
//!
//! Per frame, the radar:
//!
//! 1. dechirps each received chirp into IF samples (done by
//!    [`biscatter_rf::if_gen`]),
//! 2. computes a windowed, zero-padded **range FFT** per chirp
//!    ([`range_profile`]),
//! 3. applies **IF correction** ([`if_correction`]): converts each chirp's
//!    bins to metres using *that chirp's* slope and resamples onto a common
//!    range grid — undoing the range-profile ambiguity CSSK would otherwise
//!    cause (paper Fig. 7),
//! 4. subtracts the first chirp's profile as **background** (paper §3.3),
//!    on read, through a [`CommsView`] of the aligned rows,
//! 5. runs a slow-time FFT to form the **range–Doppler map** ([`doppler`]),
//!    where the tag's switch modulation appears as a tone at its modulation
//!    frequency,
//! 6. **localizes** the tag by matched-filtering its modulation signature
//!    and parabolic-interpolating the range peak ([`localize`]), and
//! 7. **demodulates the uplink** bits from the slow-time sequence at the
//!    tag's range ([`uplink`]).
//!
//! [`receive_frame_into`] runs steps 1–4 chirp by chirp, each chirp's IF
//! samples range-transformed in cache as soon as they are synthesized; the
//! frame keeps no slab of IF samples. [`align_frame_into`] runs steps 2–4
//! on a slab that holds them.
//!
//! Steps 1–5 and the uplink amplitude extraction are generic over the
//! sample precision ([`Real`]): f64 is the oracle, f32 the opt-in fast tier.
//! Geometry (bin ranges, the common grid, interpolation weights) stays f64
//! in both, and the range–Doppler power lands in an f64 map, so everything
//! from localization on is the same code on either precision.

pub mod acquire;
pub mod aoa;
pub mod doppler;
pub mod if_correction;
pub mod localize;
pub mod multitag;
pub mod range_profile;
pub mod uplink;

use biscatter_compute::ComputePool;
use biscatter_dsp::complex::Complex;
use biscatter_dsp::planner::{with_planner, FftPlanner};
use biscatter_dsp::resample::{apply_taps_into, linspace, Tap};
use biscatter_dsp::signal::NoiseSource;
use biscatter_dsp::Real;
use biscatter_rf::frame::ChirpTrain;
use biscatter_rf::if_gen::IfReceiver;
use biscatter_rf::scene::Scene;
use biscatter_rf::slab::SampleSlab;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Per-thread storage for one shape's IF-correction taps: taken out
    /// while that shape's rows fan out (the caller runs rows too) and put
    /// back after, so steady-state frames reuse its capacity.
    static TAPS: Cell<Vec<Tap>> = const { Cell::new(Vec::new()) };
}

/// Receiver processing configuration.
#[derive(Debug, Clone)]
pub struct RxConfig {
    /// IF sample rate, Hz (must match the IF capture).
    pub if_sample_rate: f64,
    /// Range-FFT length (zero-padded); power of two.
    pub n_fft: usize,
    /// Extent of the common range grid, metres.
    pub max_range_m: f64,
    /// Number of points on the common range grid.
    pub n_range_bins: usize,
    /// Whether to apply IF correction (disable to reproduce the Fig. 7(a)
    /// ambiguity).
    pub if_correction: bool,
    /// Whether to subtract the first chirp as background.
    pub background_subtraction: bool,
}

impl Default for RxConfig {
    fn default() -> Self {
        RxConfig {
            if_sample_rate: 10e6,
            n_fft: 1024,
            max_range_m: 15.0,
            n_range_bins: 1024,
            if_correction: true,
            background_subtraction: true,
        }
    }
}

impl RxConfig {
    /// The common range grid (uniform, `n_range_bins` points over
    /// `[0, max_range_m]`).
    pub fn range_grid(&self) -> Vec<f64> {
        linspace(0.0, self.max_range_m, self.n_range_bins)
    }
}

/// A frame of per-chirp complex range profiles on the common grid, ready for
/// slow-time processing, in sample precision `T`.
#[derive(Debug, Clone)]
pub struct AlignedFrame<T = f64> {
    /// `profiles[chirp][range_bin]`, complex.
    pub profiles: Vec<Vec<Complex<T>>>,
    /// The common range grid, metres (f64 in either precision: geometry
    /// never drops precision). Shared (`Arc`) so downstream products like
    /// the range–Doppler map reference it instead of cloning.
    pub range_grid: Arc<[f64]>,
    /// Chirp slot period, s (slow-time sample interval).
    pub t_period: f64,
}

impl<T> Default for AlignedFrame<T> {
    fn default() -> Self {
        AlignedFrame {
            profiles: Vec::new(),
            range_grid: Vec::new().into(),
            t_period: 0.0,
        }
    }
}

impl<T: Real> AlignedFrame<T> {
    /// Number of chirps (slow-time length).
    pub fn n_chirps(&self) -> usize {
        self.profiles.len()
    }

    /// Slow-time sample rate = chirp rate, Hz.
    pub fn chirp_rate(&self) -> f64 {
        1.0 / self.t_period
    }

    /// Background subtraction (paper §3.3): subtracts chirp 0's profile
    /// from every row. Row 0 computes `x − x` in place rather than storing
    /// zeros, so IEEE semantics (+0.0 sign, NaN propagation) are those of
    /// subtracting a copy of the row from itself.
    pub fn subtract_background(&mut self) {
        let Some((first, rest)) = self.profiles.split_first_mut() else {
            return;
        };
        for p in rest.iter_mut() {
            for (v, r) in p.iter_mut().zip(first.iter()) {
                *v -= *r;
            }
        }
        #[allow(clippy::eq_op)]
        for v in first.iter_mut() {
            let x = *v;
            *v = x - x;
        }
    }
}

/// The comms (localization and uplink) path of an aligned frame: what the
/// range–Doppler map, the multi-tag amplitude sweep and the uplink
/// demodulator read.
///
/// With background subtraction (paper §3.3) the path is chirp `c`'s
/// profile minus chirp 0's, computed on read — row 0 as `x − x` — so it
/// equals [`AlignedFrame::subtract_background`] element for element (±0,
/// infinities and NaN included) without a second copy of the frame. A
/// caller states which kind of rows it holds by the constructor it picks.
#[derive(Debug, Clone, Copy)]
pub struct CommsView<'a, T = f64> {
    frame: &'a AlignedFrame<T>,
    minus_chirp0: bool,
}

impl<'a, T: Real> CommsView<'a, T> {
    /// The comms path of sensing rows `frame`: chirp 0 subtracted on read
    /// when `subtract_background`, the rows as they stand otherwise.
    pub fn new(frame: &'a AlignedFrame<T>, subtract_background: bool) -> Self {
        CommsView {
            frame,
            minus_chirp0: subtract_background,
        }
    }

    /// A frame whose rows already are the comms path: aligned by
    /// [`align_frame`] with [`RxConfig::background_subtraction`] set (or a
    /// chain run without subtraction). Nothing is subtracted on read.
    pub fn stored(frame: &'a AlignedFrame<T>) -> Self {
        Self::new(frame, false)
    }

    /// Number of chirps (slow-time length).
    pub fn n_chirps(&self) -> usize {
        self.frame.n_chirps()
    }

    /// Chirp slot period, s (slow-time sample interval).
    pub fn t_period(&self) -> f64 {
        self.frame.t_period
    }

    /// The common range grid, metres, shared with the sensing rows.
    pub fn range_grid(&self) -> &'a Arc<[f64]> {
        &self.frame.range_grid
    }

    /// Bins `bins` of chirp `c` on the comms path, in order.
    ///
    /// # Panics
    /// Panics if `c` or `bins` lie outside the frame.
    #[inline]
    pub fn segment(
        &self,
        c: usize,
        bins: std::ops::Range<usize>,
    ) -> impl Iterator<Item = Complex<T>> + 'a {
        let rows = &self.frame.profiles;
        let row = &rows[c][bins.clone()];
        let background = &rows[0][bins];
        let minus_chirp0 = self.minus_chirp0;
        row.iter()
            .zip(background)
            .map(move |(&v, &b)| if minus_chirp0 { v - b } else { v })
    }

    /// Bin `r` of chirp `c` on the comms path.
    ///
    /// # Panics
    /// Panics if `c` or `r` lie outside the frame.
    #[inline]
    pub fn at(&self, c: usize, r: usize) -> Complex<T> {
        let mut bin = self.segment(c, r..r + 1);
        bin.next().expect("a one-bin segment")
    }
}

/// Runs steps 2–4 of the chain: per-chirp range FFT, IF correction onto the
/// common grid, optional background subtraction.
///
/// `if_per_chirp.row(i)` are the dechirped samples of chirp `i` of `train`,
/// at one antenna. Convenience wrapper over [`align_frame_into`] running on
/// the global compute pool.
pub fn align_frame<T: Real>(
    cfg: &RxConfig,
    train: &ChirpTrain,
    if_per_chirp: &SampleSlab<T>,
) -> AlignedFrame<T> {
    let mut out = AlignedFrame::default();
    align_frame_into(ComputePool::global(), cfg, train, if_per_chirp, &mut out);
    out
}

/// [`align_frame`] on an explicit pool, recycling `out`'s buffers.
///
/// The IF correction's taps (which bins bracket each grid point, and with
/// what weight) depend only on a chirp's shape and profile length, so they
/// are derived once per shape ([`ChirpTrain::shape`]) on the calling thread;
/// then that shape's chirps fan out across `pool` (each an independent FFT +
/// resample writing its own profile row, so the parallel result is
/// bit-identical to the serial loop). The background subtraction stays
/// serial. The range grid `Arc`, the per-chirp profile vectors, the taps and
/// the per-thread spectrum scratch (lent by the precision's planner) are
/// reused across calls, which makes repeated frames allocation-free in
/// steady state.
pub fn align_frame_into<T: Real>(
    pool: &ComputePool,
    cfg: &RxConfig,
    train: &ChirpTrain,
    if_per_chirp: &SampleSlab<T>,
    out: &mut AlignedFrame<T>,
) {
    assert_eq!(
        train.len(),
        if_per_chirp.rows(),
        "one IF capture per chirp required"
    );
    lay_out_frame(cfg, train.len(), out);
    let grid: &[f64] = &out.range_grid;
    if cfg.if_correction {
        // A row's taps follow from its chirp and its profile length, so
        // they are derived once per (shape, length) before those rows fan
        // out; the buffer leaves its thread-local while they do.
        let bins =
            |c: usize| range_profile::transform_len(if_per_chirp.row(c).len(), cfg.n_fft) / 2 + 1;
        let mut taps = TAPS.take();
        for (r, slot) in train.slots().iter().enumerate() {
            let shape = train.shape(r);
            let of_r = |c: usize| train.shape(c) == shape && bins(c) == bins(r);
            if (shape..r).any(of_r) {
                continue;
            }
            if_correction::range_taps_into(
                &slot.chirp,
                cfg.if_sample_rate,
                cfg.n_fft,
                bins(r),
                grid,
                &mut taps,
            );
            pool.par_chunks(&mut out.profiles, 1, |c, row| {
                if of_r(c) {
                    land_row(
                        cfg,
                        if_per_chirp.row(c),
                        Some(&taps),
                        grid.len(),
                        &mut row[0],
                    );
                }
            });
        }
        TAPS.set(taps);
    } else {
        pool.par_chunks(&mut out.profiles, 1, |c, row| {
            land_row(cfg, if_per_chirp.row(c), None, grid.len(), &mut row[0]);
        });
    }
    finish_frame(cfg, train, out);
}

/// Steps 1–4 of the chain in one pass, with no frame of IF samples: what
/// [`IfReceiver::dechirp_train_into`] and then [`align_frame_into`] give,
/// bit for bit, `noise` left in the same state.
///
/// Per chirp shape, the IF-correction taps are derived once (and the
/// shape's static tones filled once, by [`IfReceiver::for_each_shape`]);
/// then the shape's chirps fan out across `pool`, each synthesized and
/// noised into this thread's row buffer (lent by the precision's planner)
/// and range-transformed straight into its profile row. A row's IF samples
/// stay in cache from synthesis through the transform, and the frame holds
/// one row per thread instead of every chirp's samples. Returns how the
/// rows' time divided between synthesis and transform
/// ([`FrontEndSplit`]).
pub fn receive_frame_into<T: Real>(
    pool: &ComputePool,
    cfg: &RxConfig,
    rx: &IfReceiver,
    train: &ChirpTrain,
    scene: &Scene,
    noise: &mut NoiseSource,
    out: &mut AlignedFrame<T>,
) -> FrontEndSplit {
    lay_out_frame(cfg, train.len(), out);
    let (grid, profiles): (&[f64], _) = (&out.range_grid, &mut out.profiles);
    let (synthesis_ns, transform_ns) = (AtomicU64::new(0), AtomicU64::new(0));
    let mut taps = TAPS.take();
    rx.for_each_shape(pool, train, scene, 0.0, 0.0, 1, noise, |rows| {
        let shape = rows.shape();
        if cfg.if_correction {
            let bins = range_profile::transform_len(rows.samples(), cfg.n_fft) / 2 + 1;
            let chirp = &train.slots()[shape].chirp;
            if_correction::range_taps_into(
                chirp,
                cfg.if_sample_rate,
                cfg.n_fft,
                bins,
                grid,
                &mut taps,
            );
        }
        let taps = cfg.if_correction.then_some(&taps[..]);
        pool.par_chunks(profiles, 1, |c, profile| {
            if train.shape(c) != shape {
                return;
            }
            let t0 = Instant::now();
            let mut row = with_planner(|p: &mut FftPlanner<T>| p.take_row());
            row.clear();
            row.resize(rows.samples(), T::ZERO);
            rows.fill(c, &mut row);
            let t1 = Instant::now();
            land_row(cfg, &row, taps, grid.len(), &mut profile[0]);
            with_planner(|p: &mut FftPlanner<T>| p.put_row(row));
            let t2 = Instant::now();
            synthesis_ns.fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
            transform_ns.fetch_add((t2 - t1).as_nanos() as u64, Ordering::Relaxed);
        });
    });
    TAPS.set(taps);
    finish_frame(cfg, train, out);
    FrontEndSplit {
        synthesis_ns: synthesis_ns.into_inner(),
        transform_ns: transform_ns.into_inner(),
    }
}

/// How [`receive_frame_into`]'s rows spent their time, summed over rows
/// and threads: synthesizing and noising IF samples (the dechirp), and
/// range-transforming them onto the grid (the align).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontEndSplit {
    /// Nanoseconds filling rows with IF signal and noise.
    pub synthesis_ns: u64,
    /// Nanoseconds transforming rows into profile rows.
    pub transform_ns: u64,
}

impl FrontEndSplit {
    /// Divides `wall_ns` of front-end time into (dechirp, align) in the
    /// ratio of the rows' synthesis and transform time; the two add up to
    /// `wall_ns`, so serial work outside the rows (taps, tables, the
    /// background subtraction) is shared out in the same ratio.
    pub fn divide(&self, wall_ns: u64) -> (u64, u64) {
        let busy = u128::from(self.synthesis_ns) + u128::from(self.transform_ns);
        let dechirp = (u128::from(wall_ns) * u128::from(self.synthesis_ns))
            .checked_div(busy)
            .map_or(wall_ns, |ns| ns as u64);
        (dechirp, wall_ns - dechirp)
    }
}

/// Sizes `out` for `n_chirps` profile rows on `cfg`'s common grid, keeping
/// its grid `Arc` when it still matches the config: a linspace grid is
/// fully determined by (first, last, len), and the expected last element
/// replays linspace's own arithmetic, so the comparison is exact without
/// building a throwaway grid.
fn lay_out_frame<T>(cfg: &RxConfig, n_chirps: usize, out: &mut AlignedFrame<T>) {
    let expected_last = if cfg.n_range_bins > 1 {
        let step = cfg.max_range_m / (cfg.n_range_bins - 1) as f64;
        step * (cfg.n_range_bins - 1) as f64
    } else {
        0.0
    };
    let reusable = cfg.n_range_bins > 0
        && out.range_grid.len() == cfg.n_range_bins
        && out.range_grid.first() == Some(&0.0)
        && out.range_grid.last() == Some(&expected_last);
    if !reusable {
        out.range_grid = cfg.range_grid().into();
    }
    out.profiles.resize_with(n_chirps, Vec::new);
}

/// One chirp's profile row from its IF samples: the range FFT (through
/// this thread's planner and spectrum scratch), then the shape's IF
/// correction `taps`, or, uncorrected, the raw bins truncated or padded to
/// the grid's `grid_len` points (reproducing the paper's Fig. 7(a)
/// ambiguity).
fn land_row<T: Real>(
    cfg: &RxConfig,
    samples: &[T],
    taps: Option<&[Tap]>,
    grid_len: usize,
    profile: &mut Vec<Complex<T>>,
) {
    with_planner(|p: &mut FftPlanner<T>| {
        p.with_cpx_scratch(0, |p, spectrum| {
            range_profile::complex_profile_into(p, samples, cfg.n_fft, spectrum);
            match taps {
                Some(taps) => apply_taps_into(spectrum, taps, profile),
                None => {
                    profile.clear();
                    profile.extend(spectrum.iter().take(grid_len));
                    profile.resize(grid_len, Complex::ZERO);
                }
            }
        })
    });
}

/// The serial tail of a frame's alignment: the background subtraction the
/// config asks for, and the slow-time sample interval.
fn finish_frame<T: Real>(cfg: &RxConfig, train: &ChirpTrain, out: &mut AlignedFrame<T>) {
    if cfg.background_subtraction {
        out.subtract_background();
    }
    out.t_period = train.slots().first().map_or(0.0, |s| s.period());
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_dsp::signal::NoiseSource;
    use biscatter_rf::chirp::Chirp;
    use biscatter_rf::if_gen::IfReceiver;
    use biscatter_rf::scene::{Scatterer, Scene};

    // The f32 chain's accuracy against the f64 one is pinned by
    // `biscatter-core`'s precision oracle; this checks the frame shape of
    // the uncorrected path, which the oracle does not exercise.
    fn uncorrected_frame_has_grid_shape<T: Real>() {
        let cfg = RxConfig {
            if_correction: false,
            background_subtraction: false,
            ..RxConfig::default()
        };
        let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); 8];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let rx = IfReceiver {
            sample_rate_hz: 10e6,
            noise_sigma: 0.0,
        };
        let scene = Scene::new().with(Scatterer::clutter(3.0, 1.0));
        let mut slab = SampleSlab::<T>::new();
        let mut noise = NoiseSource::new(1);
        rx.dechirp_train_into(
            ComputePool::global(),
            &train,
            &scene,
            0.0,
            &mut noise,
            &mut slab,
        );
        let frame = align_frame(&cfg, &train, &slab);
        assert_eq!(frame.n_chirps(), 8);
        for p in &frame.profiles {
            assert_eq!(p.len(), cfg.n_range_bins);
        }
        assert!((frame.chirp_rate() - 1.0 / 120e-6).abs() < 1e-6);
    }

    /// A frame whose rows mix ordinary values with ±0, ±∞ and NaN, in
    /// every combination against chirp 0's bin.
    fn special_frame<T: Real>() -> AlignedFrame<T> {
        let specials = [
            0.0,
            -0.0,
            1.5,
            -2.25,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            1e-310,
        ];
        let m = specials.len();
        let value = |i: usize| T::from_f64(specials[i % m]);
        let profiles = (0..m)
            .map(|c| {
                (0..m * m)
                    .map(|r| Complex::new(value(r + c * (r / m)), value(r / m + 3 * c)))
                    .collect()
            })
            .collect();
        AlignedFrame {
            profiles,
            range_grid: (0..m * m).map(|r| r as f64).collect::<Vec<_>>().into(),
            t_period: 1e-4,
        }
    }

    fn comms_view_matches_subtract_background<T: Real>() {
        let frame = special_frame::<T>();
        let mut stored = frame.clone();
        stored.subtract_background();
        let bits = |z: Complex<T>| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits());
        let n_range = frame.range_grid.len();
        let view = CommsView::new(&frame, true);
        let as_stored = CommsView::stored(&stored);
        for (c, row) in stored.profiles.iter().enumerate() {
            let segment: Vec<_> = view.segment(c, 0..n_range).map(bits).collect();
            let want: Vec<_> = row.iter().map(|&z| bits(z)).collect();
            assert_eq!(segment, want, "chirp {c}");
            for (r, &z) in row.iter().enumerate() {
                assert_eq!(bits(view.at(c, r)), bits(z), "chirp {c}, bin {r}");
                assert_eq!(bits(as_stored.at(c, r)), bits(z));
            }
            let off: Vec<_> = CommsView::new(&frame, false)
                .segment(c, 0..n_range)
                .map(bits)
                .collect();
            let rows: Vec<_> = frame.profiles[c].iter().map(|&z| bits(z)).collect();
            assert_eq!(off, rows, "no subtraction reads the rows as they stand");
        }
    }

    /// The comms view is `subtract_background` element for element, bit
    /// for bit: row 0 as `x − x` (NaN for ±∞ and NaN, +0 otherwise), every
    /// other row minus it, signed zeros and NaN payloads as IEEE gives them.
    #[test]
    fn comms_view_equals_subtract_background_with_special_values() {
        comms_view_matches_subtract_background::<f64>();
        comms_view_matches_subtract_background::<f32>();
    }

    #[test]
    fn uncorrected_frames_have_grid_shape_in_both_precisions() {
        uncorrected_frame_has_grid_shape::<f64>();
        uncorrected_frame_has_grid_shape::<f32>();
    }
}

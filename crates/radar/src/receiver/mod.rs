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
//!    on read: the aligned rows stay the sensing path, and the comms path
//!    is only a view of them ([`AlignedFrame::comms`]),
//! 5. runs a slow-time FFT to form the **range–Doppler map** ([`doppler`]),
//!    where the tag's switch modulation appears as a tone at its modulation
//!    frequency,
//! 6. **localizes** the tag by matched-filtering its modulation signature
//!    and parabolic-interpolating the range peak ([`localize`]), and
//! 7. **demodulates the uplink** bits from the slow-time sequence at the
//!    tag's range ([`uplink`]).
//!
//! [`receive_frame_into`] runs steps 1–3 chirp by chirp, each chirp's IF
//! samples range-transformed in cache as soon as they are synthesized; the
//! frame keeps no slab of IF samples. [`align_frame_into`] runs steps 2–3
//! on a slab that holds them. Both land every chirp's profile in one slab
//! of rows ([`AlignedFrame`]), shape by shape.
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
///
/// The rows are the sensing path: the IF-corrected profiles with nothing
/// subtracted. They sit in one row-major slab, every row as wide as the
/// grid, its capacity reused across frames. The comms path is a view of
/// them ([`AlignedFrame::comms`]) under the background policy the frame was
/// aligned with.
#[derive(Debug, Clone)]
pub struct AlignedFrame<T = f64> {
    /// Row `c` is chirp `c`'s profile, one cell per grid point.
    pub profiles: SampleSlab<Complex<T>>,
    /// The common range grid, metres (f64 in either precision: geometry
    /// never drops precision). Shared (`Arc`) so downstream products like
    /// the range–Doppler map reference it instead of cloning.
    pub range_grid: Arc<[f64]>,
    /// Chirp slot period, s (slow-time sample interval).
    pub t_period: f64,
    /// Whether the comms path subtracts chirp 0 on read: the aligning
    /// config's [`RxConfig::background_subtraction`], until
    /// [`AlignedFrame::subtract_background`] applies it to the rows.
    background_subtraction: bool,
}

impl<T: Real> Default for AlignedFrame<T> {
    fn default() -> Self {
        AlignedFrame {
            profiles: SampleSlab::new(),
            range_grid: Vec::new().into(),
            t_period: 0.0,
            background_subtraction: false,
        }
    }
}

impl<T: Real> AlignedFrame<T> {
    /// Number of chirps (slow-time length).
    pub fn n_chirps(&self) -> usize {
        self.profiles.rows()
    }

    /// Slow-time sample rate = chirp rate, Hz.
    pub fn chirp_rate(&self) -> f64 {
        1.0 / self.t_period
    }

    /// The comms (localization and uplink) path: what the range–Doppler
    /// map, the multi-tag amplitude sweep and the uplink demodulator read.
    pub fn comms(&self) -> CommsView<'_, T> {
        CommsView { frame: self }
    }

    /// Background subtraction (paper §3.3) in place: subtracts chirp 0's
    /// profile from every row. Row 0 computes `x − x` rather than storing
    /// zeros, so IEEE semantics (+0.0 sign, NaN propagation) are those of
    /// subtracting a copy of the row from itself. The rows are then the
    /// comms path, and [`AlignedFrame::comms`] subtracts nothing more. The
    /// frame path never calls it: it is the reference the view is checked
    /// against.
    pub fn subtract_background(&mut self) {
        self.background_subtraction = false;
        let width = self.profiles.iter().next().map_or(0, <[_]>::len);
        let (_, cells) = self.profiles.parts_mut();
        if width == 0 {
            return;
        }
        let (first, rest) = cells.split_at_mut(width);
        for row in rest.chunks_exact_mut(width) {
            for (v, r) in row.iter_mut().zip(first.iter()) {
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

/// The comms (localization and uplink) path of an aligned frame, from
/// [`AlignedFrame::comms`].
///
/// Under background subtraction (paper §3.3) the path is chirp `c`'s
/// profile minus chirp 0's, computed on read — row 0 as `x − x` — so it
/// equals [`AlignedFrame::subtract_background`] element for element (±0,
/// infinities and NaN included) without a second copy of the frame.
/// Without it, the path is the rows as they stand.
#[derive(Debug, Clone, Copy)]
pub struct CommsView<'a, T = f64> {
    frame: &'a AlignedFrame<T>,
}

impl<'a, T: Real> CommsView<'a, T> {
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
        let row = &rows.row(c)[bins.clone()];
        let background = &rows.row(0)[bins];
        let minus_chirp0 = self.frame.background_subtraction;
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

/// Runs steps 2–3 of the chain: per-chirp range FFT and IF correction onto
/// the common grid; the comms path then reads the rows with the background
/// policy `cfg` sets ([`AlignedFrame::comms`]).
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
/// Rows land shape by shape ([`ChirpTrain::shape`]), as in
/// [`receive_frame_into`]: the IF correction's taps are derived once per
/// shape on the calling thread, then that shape's chirps fan out across
/// `pool` (each an independent FFT + resample writing its own row, so the
/// parallel result is bit-identical to the serial loop). The range grid
/// `Arc`, the row slab, the taps and the per-thread spectrum scratch (lent
/// by the precision's planner) are reused across calls, which makes
/// repeated frames allocation-free in steady state.
///
/// # Panics
/// Panics if the slab does not hold one row per chirp, or if two chirps of
/// one shape have rows of different lengths (rows from [`IfReceiver`]
/// never do).
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
    lay_out_frame(cfg, train, out);
    for shape in (0..train.len()).filter(|&c| train.shape(c) == c) {
        let samples = if_per_chirp.row(shape).len();
        land_shape(pool, cfg, train, shape, samples, out, |c, land| {
            let row = if_per_chirp.row(c);
            assert_eq!(row.len(), samples, "chirp {c}'s row and its shape's");
            land(row);
        });
    }
}

/// Steps 1–3 of the chain in one pass, with no frame of IF samples: what
/// [`IfReceiver::dechirp_train_into`] and then [`align_frame_into`] give,
/// bit for bit, `noise` left in the same state.
///
/// Per chirp shape, the shape's static tones are filled once (by
/// [`IfReceiver::for_each_shape`]) and its rows land as in
/// [`align_frame_into`]: each chirp synthesized and noised into this
/// thread's row buffer (lent by the precision's planner) and
/// range-transformed straight into its row of the frame. A row's IF samples
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
    lay_out_frame(cfg, train, out);
    let (synthesis_ns, transform_ns) = (AtomicU64::new(0), AtomicU64::new(0));
    rx.for_each_shape(pool, train, scene, 0.0, 0.0, 1, noise, |rows| {
        let (shape, samples) = (rows.shape(), rows.samples());
        land_shape(pool, cfg, train, shape, samples, out, |c, land| {
            let t0 = Instant::now();
            let mut row = with_planner(|p: &mut FftPlanner<T>| p.take_row());
            row.resize(samples, T::ZERO);
            rows.fill(c, &mut row);
            let t1 = Instant::now();
            land(&row);
            with_planner(|p: &mut FftPlanner<T>| p.put_row(row));
            let t2 = Instant::now();
            synthesis_ns.fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
            transform_ns.fetch_add((t2 - t1).as_nanos() as u64, Ordering::Relaxed);
        });
    });
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
    /// `wall_ns`, so serial work outside the rows (taps, tables) is shared
    /// out in the same ratio.
    pub fn divide(&self, wall_ns: u64) -> (u64, u64) {
        let busy = u128::from(self.synthesis_ns) + u128::from(self.transform_ns);
        let dechirp = (u128::from(wall_ns) * u128::from(self.synthesis_ns))
            .checked_div(busy)
            .map_or(wall_ns, |ns| ns as u64);
        (dechirp, wall_ns - dechirp)
    }
}

/// Lays `out` out for `train` on `cfg`'s common grid: one row per chirp,
/// as wide as the grid, the slow-time interval, and the background policy.
/// The grid `Arc` is kept when it still matches the config: a linspace grid
/// is fully determined by (first, last, len), and the expected last element
/// replays linspace's own arithmetic, so the comparison is exact without
/// building a throwaway grid.
fn lay_out_frame<T: Real>(cfg: &RxConfig, train: &ChirpTrain, out: &mut AlignedFrame<T>) {
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
    out.profiles
        .layout_rows(std::iter::repeat(cfg.n_range_bins).take(train.len()));
    out.t_period = train.slots().first().map_or(0.0, |s| s.period());
    out.background_subtraction = cfg.background_subtraction;
}

/// Lands the rows of chirp shape `shape`, whose IF rows are `samples`
/// long: its IF-correction taps are derived once (when `cfg` corrects),
/// then its chirps fan out across `pool`, each calling `source(c, land)`,
/// which hands `land` chirp `c`'s IF samples to range-transform into its
/// row.
fn land_shape<T: Real>(
    pool: &ComputePool,
    cfg: &RxConfig,
    train: &ChirpTrain,
    shape: usize,
    samples: usize,
    out: &mut AlignedFrame<T>,
    source: impl Fn(usize, &mut dyn FnMut(&[T])) + Sync,
) {
    let mut taps = TAPS.take();
    if cfg.if_correction {
        if_correction::range_taps_into(
            &train.slots()[shape].chirp,
            cfg.if_sample_rate,
            cfg.n_fft,
            range_profile::transform_len(samples, cfg.n_fft) / 2 + 1,
            &out.range_grid,
            &mut taps,
        );
    }
    let shape_taps = cfg.if_correction.then_some(&taps[..]);
    let (offsets, cells) = out.profiles.parts_mut();
    pool.par_ragged(cells, offsets, |c, row| {
        if train.shape(c) == shape {
            source(c, &mut |samples| land_row(cfg, samples, shape_taps, row));
        }
    });
    TAPS.set(taps);
}

/// One chirp's profile row from its IF samples: the range FFT (through
/// this thread's planner and spectrum scratch), then the shape's IF
/// correction `taps`, or, uncorrected, the raw bins truncated or padded to
/// the row's grid points (reproducing the paper's Fig. 7(a) ambiguity).
/// Every cell of `profile` is written once.
fn land_row<T: Real>(
    cfg: &RxConfig,
    samples: &[T],
    taps: Option<&[Tap]>,
    profile: &mut [Complex<T>],
) {
    with_planner(|p: &mut FftPlanner<T>| {
        p.with_cpx_scratch(0, |p, spectrum| {
            range_profile::complex_profile_into(p, samples, cfg.n_fft, spectrum);
            match taps {
                Some(taps) => apply_taps_into(spectrum, taps, profile),
                None => {
                    let n = spectrum.len().min(profile.len());
                    let (bins, padding) = profile.split_at_mut(n);
                    bins.copy_from_slice(&spectrum[..n]);
                    padding.fill(Complex::ZERO);
                }
            }
        })
    });
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
        for p in frame.profiles.iter() {
            assert_eq!(p.len(), cfg.n_range_bins);
        }
        assert!((frame.chirp_rate() - 1.0 / 120e-6).abs() < 1e-6);
    }

    /// A frame whose rows mix ordinary values with ±0, ±∞, NaN and
    /// subnormals (in f64, and in f32), in every combination against chirp
    /// 0's bin, laid out as aligned under background subtraction.
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
            -1e-40,
        ];
        let m = specials.len();
        let value = |i: usize| T::from_f64(specials[i % m]);
        let mut frame = AlignedFrame::default();
        frame.profiles.layout_rows(std::iter::repeat(m * m).take(m));
        for c in 0..m {
            for (r, z) in frame.profiles.row_mut(c).iter_mut().enumerate() {
                *z = Complex::new(value(r + c * (r / m)), value(r / m + 3 * c));
            }
        }
        frame.range_grid = (0..m * m).map(|r| r as f64).collect::<Vec<_>>().into();
        frame.t_period = 1e-4;
        frame.background_subtraction = true;
        frame
    }

    /// `align_frame` with background subtraction on a capture whose rows
    /// are ordinary, all +0, all −0, subnormal, or hold an infinity or a
    /// NaN, so the profiles carry +0, subnormal and NaN cells through the
    /// transform and the IF correction (−0 and ±∞ come out of neither; the
    /// hand-built frame covers them).
    fn aligned_special_frame<T: Real>() -> AlignedFrame<T> {
        let chirps = vec![Chirp::new(9e9, 1e9, 12.8e-6); 6];
        let train = ChirpTrain::with_fixed_period(&chirps, 16e-6).unwrap();
        let rows: [fn(usize) -> f64; 6] = [
            |i| (i as f64 * 0.3).sin(),
            |_| 0.0,
            |_| -0.0,
            |i| 1e-310 * (i % 3) as f64 - 1e-40 * (i % 2) as f64,
            |i| if i == 5 { f64::INFINITY } else { 0.5 },
            |i| if i == 7 { f64::NAN } else { -0.25 },
        ];
        let mut slab = SampleSlab::<T>::new();
        slab.layout_rows(std::iter::repeat(128).take(rows.len()));
        for (c, row) in rows.iter().enumerate() {
            for (i, v) in slab.row_mut(c).iter_mut().enumerate() {
                *v = T::from_f64(row(i));
            }
        }
        let cfg = RxConfig {
            n_fft: 128,
            n_range_bins: 97,
            ..RxConfig::default()
        };
        let frame = align_frame(&cfg, &train, &slab);
        let parts = |c: usize| frame.profiles.row(c).iter().flat_map(|z| [z.re, z.im]);
        let any = |c: usize, f: fn(f64) -> bool| parts(c).any(|x| f(x.to_f64()));
        assert!(any(5, f64::is_nan), "a NaN row");
        assert!(any(1, |x| x == 0.0), "+0 cells");
        let tiny = |x: f64| x != 0.0 && x.abs() < f32::MIN_POSITIVE as f64;
        assert!(any(3, tiny), "subnormal cells");
        frame
    }

    fn comms_view_matches_subtract_background<T: Real>() {
        let bits = |z: Complex<T>| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits());
        for frame in [special_frame::<T>(), aligned_special_frame::<T>()] {
            let mut stored = frame.clone();
            stored.subtract_background();
            let n_range = frame.range_grid.len();
            let view = frame.comms();
            let as_stored = stored.comms();
            for (c, row) in stored.profiles.iter().enumerate() {
                let segment: Vec<_> = view.segment(c, 0..n_range).map(bits).collect();
                let want: Vec<_> = row.iter().map(|&z| bits(z)).collect();
                assert_eq!(segment, want, "chirp {c}");
                for (r, &z) in row.iter().enumerate() {
                    assert_eq!(bits(view.at(c, r)), bits(z), "chirp {c}, bin {r}");
                    assert_eq!(bits(as_stored.at(c, r)), bits(z), "subtracted once");
                }
            }
            let unsubtracted = AlignedFrame {
                background_subtraction: false,
                ..frame.clone()
            };
            for (c, row) in frame.profiles.iter().enumerate() {
                let off: Vec<_> = unsubtracted
                    .comms()
                    .segment(c, 0..n_range)
                    .map(bits)
                    .collect();
                let rows: Vec<_> = row.iter().map(|&z| bits(z)).collect();
                assert_eq!(off, rows, "no subtraction reads the rows as they stand");
            }
        }
    }

    /// The comms view is `subtract_background` element for element, bit
    /// for bit: row 0 as `x − x` (NaN for ±∞ and NaN, +0 otherwise), every
    /// other row minus it, signed zeros, subnormals and NaN payloads as
    /// IEEE gives them, on a hand-built frame and on one `align_frame`
    /// leaves; once the rows are subtracted in place, the view reads them
    /// as they stand.
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

//! Slow-time (Doppler / modulation-frequency) processing.
//!
//! After IF correction the frame is a chirps × range matrix. An FFT down
//! each range column converts per-chirp variation into the modulation
//! spectrum: a static reflector stays at 0 Hz, a mover appears at its Doppler
//! shift, and a BiScatter tag — whose amplitude toggles as a square wave —
//! appears at its switch modulation frequency (and odd harmonics, the sinc
//! structure the paper notes in §3.3).

use super::CommsView;
use biscatter_compute::ComputePool;
use biscatter_dsp::complex::Complex;
use biscatter_dsp::planner::{with_planner, FftPlanner};
use biscatter_dsp::simd;
use biscatter_dsp::window::WindowKind;
use biscatter_dsp::Real;
use std::sync::Arc;

/// A range–Doppler (range–modulation) power map.
///
/// Power lives in one row-major slab (`n_doppler × n_range`) instead of the
/// seed's `Vec<Vec<f64>>`, and the range grid is shared with the source
/// [`AlignedFrame`](super::AlignedFrame) through an `Arc` instead of
/// cloned per map.
#[derive(Debug, Clone)]
pub struct RangeDopplerMap {
    /// Row-major `[doppler_bin][range_bin]` power slab.
    power: Vec<f64>,
    /// The range grid, metres (shared with the aligned frame).
    pub range_grid: Arc<[f64]>,
    /// Slow-time FFT length (number of Doppler bins).
    pub n_doppler: usize,
    /// Chirp period, s.
    pub t_period: f64,
}

impl Default for RangeDopplerMap {
    fn default() -> Self {
        RangeDopplerMap {
            power: Vec::new(),
            range_grid: Vec::new().into(),
            n_doppler: 0,
            t_period: 0.0,
        }
    }
}

impl RangeDopplerMap {
    /// Number of range bins per Doppler row.
    pub fn n_range(&self) -> usize {
        self.range_grid.len()
    }

    /// Power at Doppler bin `d`, range bin `r`.
    pub fn at(&self, d: usize, r: usize) -> f64 {
        self.power[d * self.n_range() + r]
    }

    /// The Doppler bin closest to modulation frequency `f_hz` (positive
    /// frequencies only).
    pub fn bin_for_freq(&self, f_hz: f64) -> usize {
        let bin = (f_hz * self.t_period * self.n_doppler as f64).round() as usize;
        bin.min(self.n_doppler / 2)
    }

    /// The power-vs-range slice at Doppler bin `k`.
    pub fn range_slice(&self, k: usize) -> &[f64] {
        let n_range = self.n_range();
        &self.power[k * n_range..(k + 1) * n_range]
    }

    /// Sums power over a small window of Doppler bins around `center`
    /// (inclusive ± `half_width`, clamped to the positive-frequency half)
    /// into a caller-owned buffer (cleared and resized), so hot paths can
    /// reuse scratch instead of allocating a fresh band per harmonic per
    /// call.
    pub fn range_slice_banded_into(&self, center: usize, half_width: usize, out: &mut Vec<f64>) {
        let (lo, hi) = self.band_bins(center, half_width);
        let n_range = self.n_range();
        out.clear();
        out.resize(n_range, 0.0);
        for k in lo..=hi {
            for (o, &p) in out.iter_mut().zip(self.range_slice(k)) {
                *o += p;
            }
        }
    }

    /// The clamped inclusive Doppler-bin window `[lo, hi]` that
    /// [`range_slice_banded_into`](Self::range_slice_banded_into) sums around
    /// `center`.
    /// Exposed so the multi-tag engine can dedup identical bands across tags
    /// while reproducing the exact same row set.
    pub fn band_bins(&self, center: usize, half_width: usize) -> (usize, usize) {
        let lo = center.saturating_sub(half_width);
        let hi = (center + half_width).min(self.n_doppler / 2);
        (lo, hi)
    }
}

/// Computes the range–Doppler map of an aligned frame's comms path. A
/// Hann window is applied along slow time to contain leakage from the
/// strong static clutter at 0 Hz. Convenience wrapper over
/// [`range_doppler_into`] on the global compute pool.
pub fn range_doppler<T: Real>(comms: CommsView<'_, T>) -> RangeDopplerMap {
    let mut out = RangeDopplerMap::default();
    range_doppler_into(ComputePool::global(), comms, &mut out);
    out
}

/// Range bins transformed side by side: one block holds `BLK` adjacent
/// columns, so each chirp's row contributes one contiguous read of `BLK`
/// cells and each butterfly one broadcast factor over `BLK` columns. At
/// 128 chirps a block is 32 KiB of f64 samples, inside L1; 8 bins ran the
/// warehouse stage about 20 % slower, 32 (64 KiB) about 5 % slower.
const BLK: usize = 16;

/// [`range_doppler`] on an explicit pool, recycling `out`'s power slab.
///
/// Range bins go through the slow-time FFT 16 at a time: a block's
/// gather reads each chirp's 16 cells straight off the comms path (chirp 0
/// subtracted there under background subtraction), applies that chirp's
/// window coefficient, and writes them to the chirp's bit-reversed row;
/// [`FftPlan::process_columns`](biscatter_dsp::planner::FftPlan::process_columns)
/// then runs the radix-2 stages across the block's columns side by side.
/// Every column sees the operations one transform per column would give
/// it, so the map is bit for bit that of the background-subtracted frame
/// transformed column by column. The transform runs in the frame's sample
/// precision; each bin's `|·|²` is widened to f64 as it lands in the map,
/// row-major, so every downstream consumer runs unchanged on either
/// precision.
///
/// Range bins are split into contiguous bands across the pool with a fixed
/// operation order per column, so the parallel map is bit-identical to the
/// serial one. Steady state reuses the slab, the shared grid `Arc`, the
/// plan's tables and the per-thread block lent by the precision's planner
/// — no allocation per frame.
pub fn range_doppler_into<T: Real>(
    pool: &ComputePool,
    comms: CommsView<'_, T>,
    out: &mut RangeDopplerMap,
) {
    let n_chirps = comms.n_chirps();
    let range_grid = comms.range_grid();
    let n_range = range_grid.len();
    let n_doppler = biscatter_dsp::fft::next_pow2(n_chirps);

    out.n_doppler = n_doppler;
    out.t_period = comms.t_period();
    if !Arc::ptr_eq(&out.range_grid, range_grid) {
        out.range_grid = Arc::clone(range_grid);
    }
    out.power.clear();
    out.power.resize(n_doppler * n_range, 0.0);

    // Bands of at least one block, at most ~4 per pool thread, so work
    // stays balanced without shredding cache lines at band boundaries.
    let col_chunk = n_range
        .div_ceil(4 * pool.threads())
        .clamp(BLK, n_range.max(BLK));
    pool.par_columns(&mut out.power, n_doppler, n_range, col_chunk, |band| {
        // Window, plan, and block come from per-thread caches; looked up
        // inside the closure because they are `Rc`/thread-local and must
        // not cross threads.
        let window = WindowKind::Hann.cached(n_chirps);
        let coeffs = T::window(&window);
        with_planner(|p: &mut FftPlanner<T>| {
            let plan = p.plan(n_doppler);
            p.with_cpx_scratch(BLK * n_doppler, |_, scratch| {
                let cols = band.cols();
                let mut r0 = cols.start;
                while r0 < cols.end {
                    let w = (cols.end - r0).min(BLK);
                    let block = &mut scratch[..w * n_doppler];
                    plan.process_columns(block, w, |c, row| {
                        if let Some(&wc) = coeffs.get(c) {
                            for (cell, v) in row.iter_mut().zip(comms.segment(c, r0..r0 + w)) {
                                *cell = v.scale(wc);
                            }
                        } else {
                            // Zero padding past the last chirp.
                            row.fill(Complex::ZERO);
                        }
                    });
                    // Powers go out row-major: `w` adjacent cells per
                    // Doppler row, one contiguous block row each, added to
                    // the zeroed slab (`0 + |v|²` is `|v|²`: a power is
                    // never −0).
                    let at = r0 - cols.start;
                    for (d, bins) in block.chunks_exact(w).enumerate() {
                        simd::norm_sq_accum(&mut band.row_mut(d)[at..at + w], bins);
                    }
                    r0 += w;
                }
            })
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::{align_frame, AlignedFrame, RxConfig};
    use biscatter_dsp::signal::NoiseSource;
    use biscatter_rf::chirp::Chirp;
    use biscatter_rf::frame::ChirpTrain;
    use biscatter_rf::if_gen::IfReceiver;
    use biscatter_rf::scene::{Scatterer, Scene};

    fn run_frame(scene: &Scene, n_chirps: usize, seed: u64) -> RangeDopplerMap {
        let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); n_chirps];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let rx = IfReceiver {
            sample_rate_hz: 10e6,
            noise_sigma: 0.001,
        };
        let mut noise = NoiseSource::new(seed);
        let if_data = rx.dechirp_train(&train, scene, 0.0, &mut noise);
        let cfg = RxConfig::default();
        let frame = align_frame(&cfg, &train, &if_data);
        range_doppler(frame.comms())
    }

    fn grid_index(map: &RangeDopplerMap, r: f64) -> usize {
        map.range_grid
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - r).abs().partial_cmp(&(b.1 - r).abs()).unwrap())
            .unwrap()
            .0
    }

    #[test]
    fn tag_appears_at_modulation_bin() {
        // 128 chirps at 120 µs: chirp rate 8333 Hz, Doppler res 65 Hz.
        // Tag modulating at 1041.7 Hz (bin 16 of 128 → bin 16 of 128-pt FFT).
        let f_mod = 16.0 / (128.0 * 120e-6);
        let scene = Scene::new()
            .with(Scatterer::clutter(2.0, 5.0))
            .with(Scatterer::tag(5.0, 1.0, f_mod));
        let map = run_frame(&scene, 128, 1);
        let mod_bin = map.bin_for_freq(f_mod);
        assert_eq!(mod_bin, 16);
        let slice = map.range_slice(mod_bin);
        let tag_idx = grid_index(&map, 5.0);
        let clutter_idx = grid_index(&map, 2.0);
        // Tag range bin dominates the modulation slice.
        let best = slice
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            (best as i64 - tag_idx as i64).abs() <= 5,
            "peak at grid {best}, tag at {tag_idx}"
        );
        assert!(slice[tag_idx] > 100.0 * slice[clutter_idx]);
    }

    #[test]
    fn static_clutter_stays_at_dc() {
        let scene = Scene::new().with(Scatterer::clutter(3.0, 2.0));
        let map = run_frame(&scene, 64, 2);
        // Background subtraction removes chirp-0 copy; disable its effect by
        // checking relative power: all energy at DC region vs elsewhere.
        let idx = grid_index(&map, 3.0);
        // DC bin (0) should hold nothing after background subtraction, and
        // mid-band bins should be noise-level.
        let mid = map.n_doppler / 4;
        let p_mid = map.at(mid, idx);
        let total_off_dc: f64 = (2..map.n_doppler / 2).map(|d| map.at(d, idx)).sum();
        assert!(p_mid < 1e-3, "static target leaked to mid-band: {p_mid}");
        assert!(total_off_dc < 1e-2, "off-DC energy {total_off_dc}");
    }

    #[test]
    fn mover_appears_at_doppler_shift() {
        // v = 1 m/s receding at 9.5 GHz: f_d = 2 v f0 / c ≈ 63.4 Hz.
        // With 256 chirps at 120 µs, Doppler res = 32.6 Hz → bin ≈ 2.
        let scene = Scene::new().with(Scatterer::mover(4.0, 1.0, 1.0));
        let map = run_frame(&scene, 256, 3);
        let idx = grid_index(&map, 4.0);
        // Find the strongest non-DC Doppler bin at the mover's range.
        let (best, _) = (1..map.n_doppler / 2)
            .map(|d| (d, map.at(d, idx)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let f_est = biscatter_dsp::fft::bin_to_freq(best, map.n_doppler, 1.0 / map.t_period);
        // Expected Doppler: phase of the IF changes 2*f0*v/c per second...
        // our IF model rebuilds tau per chirp, so range migration produces
        // the beat; expected f_d = 2 v f_center / c ≈ 63 Hz (within a bin
        // or two).
        let f_expected = 2.0 * 1.0 * 9.5e9 / 3e8;
        assert!(
            (f_est - f_expected).abs() < 66.0,
            "Doppler est {f_est}, expected {f_expected}"
        );
    }

    #[test]
    fn banded_slice_sums_bins() {
        let f_mod = 16.0 / (128.0 * 120e-6);
        let scene = Scene::new().with(Scatterer::tag(5.0, 1.0, f_mod));
        let map = run_frame(&scene, 128, 4);
        let c = map.bin_for_freq(f_mod);
        let single = map.range_slice(c).to_vec();
        let mut banded = Vec::new();
        map.range_slice_banded_into(c, 1, &mut banded);
        let idx = grid_index(&map, 5.0);
        assert!(banded[idx] >= single[idx]);
    }

    /// The per-column transform the stage ran before its column kernel:
    /// each range bin's windowed, zero-padded slow-time column through one
    /// `FftPlan::process`, `|·|²` widened into a row-major map. Kept as the
    /// stage's oracle.
    fn per_column_oracle<T: Real>(frame: &AlignedFrame<T>) -> Vec<f64> {
        let n_chirps = frame.n_chirps();
        let n_range = frame.range_grid.len();
        let n_doppler = biscatter_dsp::fft::next_pow2(n_chirps);
        let window = WindowKind::Hann.cached(n_chirps);
        let coeffs = T::window(&window);
        let plan = biscatter_dsp::planner::FftPlan::<T>::new(n_doppler);
        let mut power = vec![0.0; n_doppler * n_range];
        let mut column = vec![Complex::<T>::ZERO; n_doppler];
        for r in 0..n_range {
            column.fill(Complex::ZERO);
            for (c, (row, &wc)) in frame.profiles.iter().zip(coeffs).enumerate() {
                column[c] = row[r].scale(wc);
            }
            plan.process(&mut column);
            for (d, v) in column.iter().enumerate() {
                power[d * n_range + r] = v.norm_sq().to_f64();
            }
        }
        power
    }

    fn map_bits(map: &RangeDopplerMap) -> Vec<u64> {
        map.power.iter().map(|p| p.to_bits()).collect()
    }

    /// A noisy tag-and-clutter frame aligned under background subtraction:
    /// `n_range` grid bins (not a multiple of the column block).
    fn sensing_frame<T: Real>(n_chirps: usize, n_range: usize) -> AlignedFrame<T> {
        let chirps = vec![Chirp::new(9e9, 1e9, 96e-6); n_chirps];
        let train = ChirpTrain::with_fixed_period(&chirps, 120e-6).unwrap();
        let rx = IfReceiver {
            sample_rate_hz: 10e6,
            noise_sigma: 0.01,
        };
        let scene = Scene::new()
            .with(Scatterer::clutter(2.0, 5.0))
            .with(Scatterer::tag(5.0, 1.0, 1041.7));
        let mut slab = biscatter_rf::slab::SampleSlab::<T>::new();
        let mut noise = NoiseSource::new(n_chirps as u64);
        rx.dechirp_train_into(
            ComputePool::global(),
            &train,
            &scene,
            0.0,
            &mut noise,
            &mut slab,
        );
        let cfg = RxConfig {
            n_range_bins: n_range,
            ..RxConfig::default()
        };
        align_frame(&cfg, &train, &slab)
    }

    fn stage_matches_subtracted_oracle<T: Real>() {
        let pools = [ComputePool::new(1), ComputePool::new(2)];
        for n_chirps in [32, 48, 64, 128] {
            for n_range in [203, 1021] {
                let frame = sensing_frame::<T>(n_chirps, n_range);
                let mut subtracted = frame.clone();
                subtracted.subtract_background();
                let plain = AlignedFrame {
                    background_subtraction: false,
                    ..frame.clone()
                };
                let want = per_column_oracle(&subtracted);
                let as_stored = per_column_oracle(&frame);
                for pool in &pools {
                    let mut map = RangeDopplerMap::default();
                    range_doppler_into(pool, frame.comms(), &mut map);
                    assert_eq!(map.n_doppler, n_chirps.next_power_of_two());
                    let bits: Vec<u64> = want.iter().map(|p| p.to_bits()).collect();
                    assert!(
                        map_bits(&map) == bits,
                        "{n_chirps} chirps x {n_range} bins, {} threads",
                        pool.threads()
                    );
                    range_doppler_into(pool, subtracted.comms(), &mut map);
                    assert!(map_bits(&map) == bits, "rows subtracted in place");
                    range_doppler_into(pool, plain.comms(), &mut map);
                    let bits: Vec<u64> = as_stored.iter().map(|p| p.to_bits()).collect();
                    assert!(map_bits(&map) == bits, "rows as they stand");
                }
            }
        }
    }

    /// The stage read from sensing rows, chirp 0 subtracted as it gathers,
    /// is `subtract_background` followed by one transform per column, bit
    /// for bit: 32, 48 (zero-padded), 64 and 128 chirps, range-bin counts
    /// off the block, pools of one and two threads, both precisions.
    #[test]
    fn stage_matches_subtract_background_then_per_column() {
        stage_matches_subtracted_oracle::<f64>();
        stage_matches_subtracted_oracle::<f32>();
    }

    #[test]
    fn doppler_freq_bins() {
        let map = RangeDopplerMap {
            power: vec![0.0; 32],
            range_grid: vec![0.0, 1.0, 2.0, 3.0].into(),
            n_doppler: 8,
            t_period: 1e-3,
        };
        assert_eq!(map.bin_for_freq(125.0), 1);
        assert_eq!(map.bin_for_freq(1e9), 4); // clamped to Nyquist bin
    }
}

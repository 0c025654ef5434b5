//! Flattened sample storage for frame-sized captures.
//!
//! The frame hot path used to shuttle `Vec<Vec<f64>>` (one inner `Vec` per
//! chirp) and, for arrays, `Vec<Vec<Vec<f64>>>` between stages — one heap
//! allocation per chirp per frame. This module provides the flat
//! replacements: [`SampleSlab`] stores all chirps of a capture in a single
//! contiguous buffer with an offsets table (rows may have different
//! lengths, since chirps of different durations produce different sample
//! counts), and [`ArrayCapture`] stores a whole multi-antenna capture
//! rx-major (`[rx][chirp][sample]`) with stride accessors. Both reuse their
//! capacity across frames, which is what makes the arena path
//! allocation-free in steady state.
//!
//! [`ChirpRows`] abstracts "an ordered set of per-chirp sample rows" so the
//! radar's alignment stage accepts either representation (or the legacy
//! nested `Vec`s) through one code path. Slabs and rows are generic over the
//! sample precision ([`Real`]); the bare names mean f64.

use biscatter_dsp::Real;

/// Read access to the per-chirp sample rows of one capture, in precision
/// `T`.
pub trait ChirpRows<T = f64>: Sync {
    /// Number of chirp rows.
    fn n_rows(&self) -> usize;
    /// The samples of row `r`.
    fn row(&self, r: usize) -> &[T];
}

impl<T: Real> ChirpRows<T> for [Vec<T>] {
    fn n_rows(&self) -> usize {
        self.len()
    }
    fn row(&self, r: usize) -> &[T] {
        &self[r]
    }
}

impl<T: Real> ChirpRows<T> for Vec<Vec<T>> {
    fn n_rows(&self) -> usize {
        self.len()
    }
    fn row(&self, r: usize) -> &[T] {
        &self[r]
    }
}

impl<T: Real, R: ChirpRows<T> + ?Sized> ChirpRows<T> for &R {
    fn n_rows(&self) -> usize {
        (**self).n_rows()
    }
    fn row(&self, r: usize) -> &[T] {
        (**self).row(r)
    }
}

/// A ragged 2-D sample buffer: every row lives in one contiguous `data`
/// vector, delimited by a non-decreasing `offsets` table
/// (`row r = data[offsets[r]..offsets[r + 1]]`). Relaying out the slab
/// reuses existing capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSlab<T = f64> {
    data: Vec<T>,
    offsets: Vec<usize>,
}

/// The f32 slab, under the name the `biscatter-e2e` benchmark imports.
pub type SampleSlab32 = SampleSlab<f32>;

impl<T: Real> Default for SampleSlab<T> {
    /// An empty slab, the same as [`SampleSlab::new`].
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Real> SampleSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        SampleSlab {
            data: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Clears the slab and lays out `lens` zero-filled rows, reusing
    /// capacity from previous frames.
    pub fn layout_rows(&mut self, lens: impl Iterator<Item = usize>) {
        self.data.clear();
        self.offsets.clear();
        self.offsets.push(0);
        let mut total = 0usize;
        for len in lens {
            total += len;
            self.offsets.push(total);
        }
        self.data.resize(total, T::ZERO);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The samples of row `r`.
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Mutable samples of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[self.offsets[r]..self.offsets[r + 1]]
    }

    /// The offsets table (length `rows() + 1`) and the mutable flat data,
    /// split so both can feed `ComputePool::par_ragged`.
    pub fn parts_mut(&mut self) -> (&[usize], &mut [T]) {
        (&self.offsets, &mut self.data)
    }
}

impl<T: Real> ChirpRows<T> for SampleSlab<T> {
    fn n_rows(&self) -> usize {
        self.rows()
    }
    fn row(&self, r: usize) -> &[T] {
        SampleSlab::row(self, r)
    }
}

/// A multi-antenna capture stored rx-major in one flat buffer:
/// `[rx][chirp][sample]`. All antennas share the same per-chirp layout
/// (`chirp_offsets`), so antenna `k`'s block starts at `k * rx_stride()`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayCapture {
    data: Vec<f64>,
    /// Per-chirp start offsets within one antenna block (length
    /// `n_chirps + 1`).
    chirp_offsets: Vec<usize>,
    /// Row offsets over the whole buffer for all `n_rx * n_chirps` rows in
    /// (rx, chirp) order — the table `ComputePool::par_ragged` consumes.
    flat_offsets: Vec<usize>,
    n_rx: usize,
}

impl Default for ArrayCapture {
    /// An empty capture, the same as [`ArrayCapture::new`].
    fn default() -> Self {
        Self::new()
    }
}

impl ArrayCapture {
    /// Creates an empty capture.
    pub fn new() -> Self {
        ArrayCapture {
            data: Vec::new(),
            chirp_offsets: vec![0],
            flat_offsets: vec![0],
            n_rx: 0,
        }
    }

    /// Clears the capture and lays out `n_rx` zero-filled antenna blocks of
    /// the per-chirp lengths in `lens`, reusing capacity.
    pub fn layout(&mut self, n_rx: usize, lens: impl Iterator<Item = usize>) {
        self.n_rx = n_rx;
        self.chirp_offsets.clear();
        self.chirp_offsets.push(0);
        let mut total = 0usize;
        for len in lens {
            total += len;
            self.chirp_offsets.push(total);
        }
        let stride = total;
        self.flat_offsets.clear();
        self.flat_offsets.push(0);
        for rx in 0..n_rx {
            for c in 1..self.chirp_offsets.len() {
                self.flat_offsets.push(rx * stride + self.chirp_offsets[c]);
            }
        }
        self.data.clear();
        self.data.resize(n_rx * stride, 0.0);
    }

    /// Number of antennas.
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// Number of chirps per antenna.
    pub fn n_chirps(&self) -> usize {
        self.chirp_offsets.len() - 1
    }

    /// Samples occupied by one antenna block.
    pub fn rx_stride(&self) -> usize {
        *self.chirp_offsets.last().unwrap()
    }

    /// The samples of chirp `c` at antenna `rx`.
    pub fn chirp(&self, rx: usize, c: usize) -> &[f64] {
        let base = rx * self.rx_stride();
        &self.data[base + self.chirp_offsets[c]..base + self.chirp_offsets[c + 1]]
    }

    /// Mutable samples of chirp `c` at antenna `rx`.
    pub fn chirp_mut(&mut self, rx: usize, c: usize) -> &mut [f64] {
        let base = rx * self.rx_stride();
        let (lo, hi) = (self.chirp_offsets[c], self.chirp_offsets[c + 1]);
        &mut self.data[base + lo..base + hi]
    }

    /// All rows in (rx, chirp) order as an offsets table plus mutable flat
    /// data, for `ComputePool::par_ragged`. Row `rx * n_chirps + c` is
    /// chirp `c` of antenna `rx`.
    pub fn parts_mut(&mut self) -> (&[usize], &mut [f64]) {
        (&self.flat_offsets, &mut self.data)
    }

    /// A [`ChirpRows`] view of antenna `rx`'s block.
    pub fn rx_view(&self, rx: usize) -> RxChirps<'_> {
        let stride = self.rx_stride();
        RxChirps {
            data: &self.data[rx * stride..(rx + 1) * stride],
            offsets: &self.chirp_offsets,
        }
    }
}

/// One antenna's chirps within an [`ArrayCapture`].
#[derive(Debug, Clone, Copy)]
pub struct RxChirps<'a> {
    data: &'a [f64],
    offsets: &'a [usize],
}

impl ChirpRows for RxChirps<'_> {
    fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }
    fn row(&self, r: usize) -> &[f64] {
        &self.data[self.offsets[r]..self.offsets[r + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_layout_and_rows() {
        let mut slab: SampleSlab = SampleSlab::new();
        slab.layout_rows([3usize, 0, 2].into_iter());
        assert_eq!(slab.rows(), 3);
        assert_eq!(slab.data.len(), 5);
        slab.row_mut(0).fill(1.0);
        slab.row_mut(2).fill(3.0);
        assert_eq!(slab.row(0), &[1.0, 1.0, 1.0]);
        assert_eq!(slab.row(1), &[] as &[f64]);
        assert_eq!(slab.row(2), &[3.0, 3.0]);
    }

    #[test]
    fn slab_relayout_reuses_and_zeroes() {
        let mut slab: SampleSlab = SampleSlab::new();
        slab.layout_rows([4usize, 4].into_iter());
        slab.row_mut(1).fill(9.0);
        let cap = {
            let (_, data) = slab.parts_mut();
            data.len()
        };
        assert_eq!(cap, 8);
        slab.layout_rows([2usize, 2].into_iter());
        assert!(slab.row(0).iter().chain(slab.row(1)).all(|&v| v == 0.0));
    }

    #[test]
    fn default_is_new() {
        // A default value must be usable before its first layout: the
        // offsets table already holds its leading 0.
        let slab = SampleSlab::<f64>::default();
        assert_eq!(slab, SampleSlab::new());
        assert_eq!((slab.rows(), slab.data.len()), (0, 0));
        assert_eq!(SampleSlab::<f32>::default(), SampleSlab::new());
        assert_eq!(SampleSlab::<f32>::default().rows(), 0);
        let cap = ArrayCapture::default();
        assert_eq!(cap, ArrayCapture::new());
        assert_eq!((cap.n_chirps(), cap.rx_stride()), (0, 0));
    }

    #[test]
    fn array_capture_stride_layout() {
        let mut cap = ArrayCapture::new();
        cap.layout(2, [3usize, 2].into_iter());
        assert_eq!(cap.n_rx(), 2);
        assert_eq!(cap.n_chirps(), 2);
        assert_eq!(cap.rx_stride(), 5);
        cap.chirp_mut(0, 0).fill(1.0);
        cap.chirp_mut(0, 1).fill(2.0);
        cap.chirp_mut(1, 0).fill(3.0);
        cap.chirp_mut(1, 1).fill(4.0);
        assert_eq!(cap.chirp(0, 1), &[2.0, 2.0]);
        assert_eq!(cap.chirp(1, 0), &[3.0, 3.0, 3.0]);
        let v0 = cap.rx_view(0);
        let v1 = cap.rx_view(1);
        assert_eq!(v0.row(0), &[1.0, 1.0, 1.0]);
        assert_eq!(v1.row(1), &[4.0, 4.0]);
    }

    #[test]
    fn array_capture_flat_offsets_cover_rows() {
        let mut cap = ArrayCapture::new();
        cap.layout(3, [2usize, 1, 3].into_iter());
        let n_chirps = cap.n_chirps();
        let stride = cap.rx_stride();
        let (offsets, data) = cap.parts_mut();
        assert_eq!(offsets.len(), 3 * 3 + 1);
        assert_eq!(*offsets.last().unwrap(), data.len());
        for rx in 0..3 {
            for c in 0..n_chirps {
                let row = rx * n_chirps + c;
                assert_eq!(offsets[row], rx * stride + [0, 2, 3][c]);
            }
        }
    }
}

//! Flattened sample storage for frame-sized captures.
//!
//! [`SampleSlab`] is the one IF capture type: it stores all chirps of one
//! antenna's capture in a single contiguous buffer with an offsets table
//! (rows may have different lengths, since chirps of different durations
//! produce different sample counts). A multi-antenna capture is one slab per
//! antenna. A slab reuses its capacity across frames, which is what makes
//! the arena path allocation-free in steady state. Slabs are generic over
//! the sample precision ([`Real`]); the bare name means f64.

use biscatter_dsp::Real;

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
    }
}

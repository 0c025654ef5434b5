//! Flattened row storage for frame-sized captures.
//!
//! [`SampleSlab`] is the one frame buffer type: it stores every row of a
//! frame in a single contiguous buffer with an offsets table. Rows may
//! differ in length: an IF capture's chirps of different durations give
//! different sample counts, and a multi-antenna capture is one slab per
//! antenna. The aligned frame (`radar::receiver::AlignedFrame`) keeps its
//! complex range profiles in one too, every row as wide as the range grid.
//! A slab reuses its capacity across frames, which is what makes the frame
//! path allocation-free in steady state. The bare name means f64 samples.

/// A ragged 2-D buffer: every row lives in one contiguous `data` vector,
/// delimited by a non-decreasing `offsets` table
/// (`row r = data[offsets[r]..offsets[r + 1]]`). Relaying out the slab
/// reuses existing capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSlab<T = f64> {
    data: Vec<T>,
    offsets: Vec<usize>,
}

/// The f32 slab, under the name the `biscatter-e2e` benchmark imports.
pub type SampleSlab32 = SampleSlab<f32>;

impl<T: Copy + Default> Default for SampleSlab<T> {
    /// An empty slab, the same as [`SampleSlab::new`].
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> SampleSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        SampleSlab {
            data: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Lays out rows of `lens` elements, reusing capacity from previous
    /// frames. Cells are not cleared: a cell that the previous layout held
    /// keeps its value, a new one is `T::default()`. Whoever fills the slab
    /// writes every cell.
    pub fn layout_rows(&mut self, lens: impl Iterator<Item = usize>) {
        self.offsets.clear();
        self.offsets.reserve(lens.size_hint().0 + 1);
        self.offsets.push(0);
        let mut total = 0usize;
        for len in lens {
            total += len;
            self.offsets.push(total);
        }
        self.data.resize(total, T::default());
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The cells of row `r`.
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Mutable cells of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[self.offsets[r]..self.offsets[r + 1]]
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.offsets.windows(2).map(|w| &self.data[w[0]..w[1]])
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
        let rows: Vec<&[f64]> = slab.iter().collect();
        assert_eq!(rows, [&[1.0, 1.0, 1.0][..], &[], &[3.0, 3.0]]);
    }

    #[test]
    fn slab_relayout_reuses_capacity_without_clearing() {
        let mut slab: SampleSlab = SampleSlab::new();
        slab.layout_rows([4usize, 4].into_iter());
        slab.row_mut(1).fill(9.0);
        let ptr = slab.data.as_ptr();
        slab.layout_rows([3usize, 5].into_iter());
        assert_eq!(slab.row(0), &[0.0; 3]);
        assert_eq!(
            slab.row(1),
            &[0.0, 9.0, 9.0, 9.0, 9.0],
            "cells keep their values"
        );
        slab.layout_rows([2usize, 2].into_iter());
        assert_eq!(slab.data.as_ptr(), ptr, "relayouts keep the buffer");
        assert_eq!(slab.rows(), 2);
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

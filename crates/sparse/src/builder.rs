//! Coordinate-format accumulation of sparse matrices.

use crate::csr::CsrMatrix;

/// A COO (triplet) accumulator that produces a [`CsrMatrix`].
///
/// Duplicate `(row, col)` entries are *summed* — convenient for transition
/// systems where several high-level events map to the same state pair (e.g.
/// two different RAID failure events leading to the same lumped state).
#[derive(Clone, Debug)]
pub struct CooBuilder {
    nrows: usize,
    ncols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooBuilder {
    /// New empty builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        assert!(nrows < u32::MAX as usize && ncols < u32::MAX as usize);
        CooBuilder {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Like [`CooBuilder::new`] with a capacity hint for the entry vector.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        let mut b = Self::new(nrows, ncols);
        b.entries.reserve(cap);
        b
    }

    /// Enlarges the matrix to `nrows × ncols`. Existing entries are kept;
    /// dimensions never shrink. State-space exploration uses this to feed
    /// entries before the final state count is known.
    pub fn grow(&mut self, nrows: usize, ncols: usize) {
        assert!(nrows < u32::MAX as usize && ncols < u32::MAX as usize);
        self.nrows = self.nrows.max(nrows);
        self.ncols = self.ncols.max(ncols);
    }

    /// Records `A[i][j] += v`. Zero values are dropped.
    ///
    /// # Panics
    /// If the indices are out of range.
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.nrows, "row {i} out of range ({})", self.nrows);
        assert!(j < self.ncols, "col {j} out of range ({})", self.ncols);
        if v != 0.0 {
            self.entries.push((i as u32, j as u32, v));
        }
    }

    /// Number of recorded triplets (before duplicate merging).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finalizes into CSR: sorts by `(row, col)`, merges duplicates.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|e| (e.0, e.1));
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut last: Option<(u32, u32)> = None;
        for (i, j, v) in self.entries {
            if last == Some((i, j)) {
                *values.last_mut().expect("entry exists when last is set") += v;
            } else {
                col_idx.push(j);
                values.push(v);
                row_ptr[i as usize + 1] += 1;
                last = Some((i, j));
            }
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix::from_parts(self.nrows, self.ncols, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(0, 1, 2.5);
        b.push(1, 0, 4.0);
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 3.5);
        assert_eq!(m.get(1, 0), 4.0);
    }

    #[test]
    fn zeros_are_dropped() {
        let mut b = CooBuilder::new(1, 1);
        b.push(0, 0, 0.0);
        assert!(b.is_empty());
        let m = b.build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let mut b = CooBuilder::new(3, 3);
        b.push(2, 2, 9.0);
        b.push(0, 1, 1.0);
        b.push(1, 0, 5.0);
        b.push(0, 0, 7.0);
        let m = b.build();
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(
            triplets,
            vec![(0, 0, 7.0), (0, 1, 1.0), (1, 0, 5.0), (2, 2, 9.0)]
        );
    }

    #[test]
    fn empty_rows_are_represented() {
        let mut b = CooBuilder::new(4, 4);
        b.push(3, 0, 1.0);
        let m = b.build();
        assert_eq!(m.row(0).count(), 0);
        assert_eq!(m.row(3).count(), 1);
    }

    #[test]
    fn grow_extends_dimensions_monotonically() {
        let mut b = CooBuilder::new(1, 1);
        b.push(0, 0, 1.0);
        b.grow(3, 3);
        b.push(2, 1, 4.0);
        b.grow(2, 2); // never shrinks
        let m = b.build();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 1), 4.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_row_panics() {
        let mut b = CooBuilder::new(2, 2);
        b.push(2, 0, 1.0);
    }

    #[test]
    fn merge_only_within_same_row() {
        // Column 1 appears as the last entry of row 0 and the first of row 1 —
        // these must NOT be merged.
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(1, 1, 2.0);
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 1), 2.0);
    }
}

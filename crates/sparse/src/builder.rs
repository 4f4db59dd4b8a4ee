//! Coordinate-format accumulation of sparse matrices.

use crate::csr::{CsrMatrix, CsrPattern};
use std::sync::Arc;

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
        sort_entries(&mut self.entries);
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

    /// Finalizes like [`CooBuilder::build`], and also returns the
    /// [`CooPlan`] that rebuilds the same matrix from another set of values
    /// pushed at the same positions.
    ///
    /// Each entry's push position rides in the value slot of the triplet
    /// that `build` sorts, so the one sort yields `build`'s exact
    /// permutation: the sort compares `(row, col)` keys only, and the keys
    /// are the same. Duplicates then merge in `build`'s order.
    ///
    /// # Panics
    /// If more than `u32::MAX` entries were pushed.
    pub fn build_with_plan(mut self) -> (CsrMatrix, CooPlan) {
        let pushed: Vec<f64> = self.entries.iter().map(|e| e.2).collect();
        assert!(
            pushed.len() <= u32::MAX as usize,
            "a COO plan indexes its entries with u32"
        );
        for (k, e) in self.entries.iter_mut().enumerate() {
            e.2 = k as f64;
        }
        sort_entries(&mut self.entries);
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut order: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut ends: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut last: Option<(u32, u32)> = None;
        for (i, j, k) in self.entries {
            if last != Some((i, j)) {
                if last.is_some() {
                    ends.push(order.len() as u32);
                }
                col_idx.push(j);
                row_ptr[i as usize + 1] += 1;
                last = Some((i, j));
            }
            order.push(k as u32);
        }
        if last.is_some() {
            ends.push(order.len() as u32);
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        // The plan outlives the build: give back the room merged
        // duplicates left.
        col_idx.shrink_to_fit();
        ends.shrink_to_fit();
        let plan = CooPlan {
            pattern: CsrPattern::new(self.nrows, self.ncols, row_ptr, col_idx),
            order,
            ends,
        };
        (plan.build(&pushed), plan)
    }
}

/// The one sort every COO build runs: by `(row, col)`. An unstable sort's
/// permutation depends only on the keys it compares, so two entry lists
/// with the same key sequence are permuted alike.
fn sort_entries(entries: &mut [(u32, u32, f64)]) {
    entries.sort_unstable_by_key(|e| (e.0, e.1));
}

/// The sort and duplicate merge of one [`CooBuilder`] build
/// ([`CooBuilder::build_with_plan`]): the CSR pattern, and for each stored
/// entry the push positions merged into it, in merge order. A rate variant
/// that pushes its nonzero values at the same positions gets the matrix its
/// own `build` would make, bit for bit, without sorting. Every matrix the
/// plan builds, the planned build's own included, shares the plan's one
/// [`CsrPattern`]: a variant allocates its values alone.
#[derive(Debug)]
pub struct CooPlan {
    pattern: Arc<CsrPattern>,
    /// Push positions in sorted order.
    order: Vec<u32>,
    /// Stored entry `s` merges `order[ends[s - 1]..ends[s]]` (from 0 for
    /// `s = 0`).
    ends: Vec<u32>,
}

impl CooPlan {
    /// The matrix whose `k`-th pushed value was `pushed[k]`, over the
    /// plan's shared pattern.
    ///
    /// # Panics
    /// If `pushed` does not hold one value per push of the planned build.
    pub fn build(&self, pushed: &[f64]) -> CsrMatrix {
        assert_eq!(pushed.len(), self.order.len(), "one value per push");
        let mut values = Vec::with_capacity(self.ends.len());
        let mut start = 0;
        for &end in &self.ends {
            let merged = &self.order[start..end as usize];
            let mut v = pushed[merged[0] as usize];
            for &k in &merged[1..] {
                v += pushed[k as usize];
            }
            values.push(v);
            start = end as usize;
        }
        CsrMatrix::from_pattern(self.pattern.clone(), values)
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
    fn plan_rebuilds_each_variant_as_its_own_build() {
        // Three parallel arcs into (0, 1): the merge order decides the
        // rounding of their sum.
        let keys = [(0, 1), (1, 0), (0, 1), (0, 0), (0, 1), (1, 1)];
        let coo = |values: &[f64]| {
            let mut b = CooBuilder::new(2, 2);
            for (&(i, j), &v) in keys.iter().zip(values) {
                b.push(i, j, v);
            }
            b
        };
        let base = [0.1, 2.0, 1e16, -3.0, -1e16, 5.0];
        let (m, plan) = coo(&base).build_with_plan();
        assert_eq!(m, coo(&base).build());
        assert_eq!(m.nnz(), 4);
        let variant = [0.3, 7.0, 1e-3, -9.0, 1.0, 2.5];
        let rebuilt = plan.build(&variant);
        assert_eq!(rebuilt, coo(&variant).build());
        assert!(
            Arc::ptr_eq(rebuilt.pattern(), m.pattern()),
            "every build of a plan shares one pattern allocation"
        );
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

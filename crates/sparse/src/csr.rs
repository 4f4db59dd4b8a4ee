//! Compressed sparse row matrices.

#[cfg(test)]
use crate::builder::CooBuilder;

/// An immutable CSR (compressed sparse row) matrix of `f64` entries.
///
/// Column indices are `u32` — state spaces in this workspace stay far below
/// `2³²` — which halves index memory traffic during products (a measurable win
/// for the SpMV-bound randomization solvers; see the workspace performance
/// notes).
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s entries.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from raw CSR arrays. Intended for [`CooBuilder`](crate::builder::CooBuilder); validates the
    /// structural invariants in debug builds.
    pub(crate) fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert_eq!(*row_ptr.last().unwrap(), values.len());
        debug_assert!(col_idx.iter().all(|&c| (c as usize) < ncols.max(1)));
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The `n×n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over the entries of row `i` as `(col, value)` pairs.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[span.clone()]
            .iter()
            .zip(&self.values[span])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Iterator over all entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| self.row(i).map(move |(j, v)| (i, j, v)))
    }

    /// Entry lookup by binary search within the row (rows are column-sorted).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let span = &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]];
        match span.binary_search(&(j as u32)) {
            Ok(k) => self.values[self.row_ptr[i] + k],
            Err(_) => 0.0,
        }
    }

    /// `y = A·x` (gather form). `y` is fully overwritten.
    ///
    /// # Panics
    /// If `x.len() != ncols` or `y.len() != nrows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        assert_eq!(y.len(), self.nrows, "y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                // Safety note: indices validated at construction.
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *yi = acc;
        }
    }

    /// Convenience allocating version of [`CsrMatrix::mul_vec_into`].
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Blocked product `Y = A·X` over `k` right-hand sides stored
    /// **interleaved**: column `j` of `X` lives at `x[col*k + j]`, and column
    /// `j` of `Y` at `y[row*k + j]`. One streaming pass of the matrix
    /// advances all `k` vectors — the point of blocked stepping — and each
    /// output column is accumulated with its own accumulator in the row's
    /// CSR entry order, so column `j` of the result is **bitwise identical**
    /// to a [`CsrMatrix::mul_vec_into`] call on column `j` alone. This is
    /// the serial ground truth the blocked kernels must match.
    ///
    /// # Panics
    /// If `k == 0`, `x.len() != ncols·k` or `y.len() != nrows·k`.
    pub fn mul_mat_into(&self, x: &[f64], y: &mut [f64], k: usize) {
        assert!(k > 0, "rhs block must be positive");
        assert!(k <= crate::kernel::MAX_RHS_BLOCK, "rhs block too large");
        assert_eq!(x.len(), self.ncols * k, "x length mismatch");
        assert_eq!(y.len(), self.nrows * k, "y length mismatch");
        // Monomorphized per width so the accumulator is a const-size array —
        // the runtime-length slice version spends most of its time in
        // per-row memset/memcpy calls on short-row matrices.
        match k {
            1 => self.mul_mat_into_k::<1>(x, y),
            2 => self.mul_mat_into_k::<2>(x, y),
            3 => self.mul_mat_into_k::<3>(x, y),
            4 => self.mul_mat_into_k::<4>(x, y),
            5 => self.mul_mat_into_k::<5>(x, y),
            6 => self.mul_mat_into_k::<6>(x, y),
            7 => self.mul_mat_into_k::<7>(x, y),
            8 => self.mul_mat_into_k::<8>(x, y),
            _ => unreachable!("rhs block validated against MAX_RHS_BLOCK"),
        }
    }

    /// Const-width body of [`CsrMatrix::mul_mat_into`].
    fn mul_mat_into_k<const K: usize>(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..self.nrows {
            let mut acc = [0.0f64; K];
            for e in self.row_ptr[i]..self.row_ptr[i + 1] {
                let v = self.values[e];
                let c = self.col_idx[e] as usize * K;
                for (j, a) in acc.iter_mut().enumerate() {
                    *a += v * x[c + j];
                }
            }
            y[i * K..(i + 1) * K].copy_from_slice(&acc);
        }
    }

    /// `yᵀ = xᵀ·A` (scatter form, serial).
    ///
    /// Solvers prefer the gather form on the transposed matrix; this exists for
    /// validation and one-shot uses.
    pub fn vec_mul_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "x length mismatch");
        assert_eq!(y.len(), self.ncols, "y length mismatch");
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue; // distributions are often sparse at early steps
            }
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                y[self.col_idx[k] as usize] += xi * self.values[k];
            }
        }
    }

    /// Transposed copy (CSR of `Aᵀ`), via a counting sort over columns.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for i in 0..self.nrows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k] as usize;
                let dst = cursor[j];
                cursor[j] += 1;
                col_idx[dst] = i as u32;
                values[dst] = self.values[k];
            }
        }
        CsrMatrix::from_parts(self.ncols, self.nrows, row_ptr, col_idx, values)
    }

    /// Row sums (for generators these should be ~0; for stochastic matrices ~1).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|i| self.row(i).map(|(_, v)| v).sum())
            .collect()
    }

    /// Largest absolute diagonal entry — the minimal valid uniformization rate
    /// for a generator.
    pub fn max_abs_diag(&self) -> f64 {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i).abs())
            .fold(0.0, f64::max)
    }

    /// Checks row-stochasticity to tolerance `tol` (each row sums to 1, all
    /// entries non-negative).
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        self.values.iter().all(|&v| v >= -tol)
            && self.row_sums().iter().all(|s| (s - 1.0).abs() <= tol)
    }

    /// Returns `I + α·A` for square `A` (used to uniformize generators:
    /// `P = I + Q/Λ`). The diagonal is materialized even where `A` has none.
    ///
    /// Built directly in CSR form rather than via [`CooBuilder`](crate::builder::CooBuilder) (which
    /// drops exact zeros): the result's pattern must be a pure function of
    /// `A`'s pattern, never of value cancellation. `1 + α·a_ii` rounds to
    /// exactly `0.0` for the row attaining the uniformization rate, and
    /// dropping that entry would give structurally identical chains
    /// different `P` patterns, breaking plan re-binding across rate
    /// variants.
    pub fn identity_plus_scaled(&self, alpha: f64) -> CsrMatrix {
        assert_eq!(self.nrows, self.ncols, "matrix must be square");
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.values.len() + self.nrows);
        let mut values: Vec<f64> = Vec::with_capacity(self.values.len() + self.nrows);
        row_ptr.push(0usize);
        for i in 0..self.nrows {
            let mut has_diag = false;
            for (j, v) in self.row(i) {
                if !has_diag && j > i {
                    // Column-sorted insert of a missing diagonal.
                    col_idx.push(i as u32);
                    values.push(1.0);
                    has_diag = true;
                }
                let mut val = alpha * v;
                if j == i {
                    val += 1.0;
                    has_diag = true;
                }
                col_idx.push(j as u32);
                values.push(val);
            }
            if !has_diag {
                col_idx.push(i as u32);
                values.push(1.0);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts(self.nrows, self.ncols, row_ptr, col_idx, values)
    }

    /// A matrix with this one's exact sparsity pattern and `values` in
    /// pattern order — the value re-bind primitive: a rate variant of a
    /// cached matrix clones the pattern arrays (a memcpy) instead of
    /// re-running construction.
    ///
    /// # Panics
    /// If `values.len()` differs from this matrix's nnz.
    pub fn with_values(&self, values: Vec<f64>) -> CsrMatrix {
        assert_eq!(
            values.len(),
            self.nnz(),
            "value re-bind requires one value per stored entry"
        );
        CsrMatrix::from_parts(
            self.nrows,
            self.ncols,
            self.row_ptr.clone(),
            self.col_idx.clone(),
            values,
        )
    }

    /// Dense copy (tests / tiny oracles only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for (i, j, v) in self.iter() {
            d[i][j] = v;
        }
        d
    }

    /// Heap bytes held by the CSR arrays, counted by **capacity** (what the
    /// allocator actually handed out), not length. Used by bounded artifact
    /// caches for byte accounting; audited against a counting allocator by
    /// the engine's byte-accounting test.
    pub fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.col_idx.capacity() * std::mem::size_of::<u32>()
            + self.row_ptr.capacity() * std::mem::size_of::<usize>()
    }

    /// Raw access to the row pointer array (read-only).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw access to the column index array (read-only).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Raw access to the value array (read-only).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Splits the row range into `chunks` contiguous pieces with roughly equal
    /// *work* (nnz), not equal row counts — rows of randomized RAID models vary
    /// widely in fill.
    pub fn balanced_row_chunks(&self, chunks: usize) -> Vec<std::ops::Range<usize>> {
        let chunks = chunks.max(1);
        let total = self.nnz();
        let per = total.div_ceil(chunks).max(1);
        let mut out = Vec::with_capacity(chunks);
        let mut start = 0usize;
        let mut acc = 0usize;
        for i in 0..self.nrows {
            acc += self.row_ptr[i + 1] - self.row_ptr[i];
            if acc >= per {
                out.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        if start < self.nrows {
            out.push(start..self.nrows);
        }
        if out.is_empty() {
            out.push(0..self.nrows);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        let mut b = CooBuilder::new(2, 3);
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(1, 1, 3.0);
        b.build()
    }

    #[test]
    fn get_and_row_iteration() {
        let m = small();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn mul_and_vecmul_agree_with_hand_computation() {
        let m = small();
        let y = m.mul_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 6.0]);
        let mut yt = vec![0.0; 3];
        m.vec_mul_into(&[1.0, 2.0], &mut yt);
        assert_eq!(yt, vec![1.0, 6.0, 2.0]);
    }

    #[test]
    fn blocked_product_matches_columns_bitwise() {
        let m = small();
        for k in 1..=8usize {
            let x: Vec<f64> = (0..3 * k).map(|i| (i as f64 * 0.7).sin() + 0.1).collect();
            let mut y = vec![9.0; 2 * k];
            m.mul_mat_into(&x, &mut y, k);
            for j in 0..k {
                let xj: Vec<f64> = (0..3).map(|c| x[c * k + j]).collect();
                let mut yj = vec![0.0; 2];
                m.mul_vec_into(&xj, &mut yj);
                for r in 0..2 {
                    assert_eq!(y[r * k + j].to_bits(), yj[r].to_bits(), "k={k} col={j}");
                }
            }
        }
    }

    #[test]
    fn transpose_has_swapped_entries() {
        let m = small().transpose();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.get(2, 0), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn identity_and_uniformization() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, -1.0);
        b.push(0, 1, 1.0);
        b.push(1, 0, 2.0);
        b.push(1, 1, -2.0);
        let q = b.build();
        let p = q.identity_plus_scaled(1.0 / 2.0);
        assert!(p.is_row_stochastic(1e-14));
        assert_eq!(p.get(0, 0), 0.5);
        assert_eq!(p.get(1, 0), 1.0);
        assert_eq!(p.get(1, 1), 0.0);
        assert_eq!(q.max_abs_diag(), 2.0);
    }

    #[test]
    fn identity_plus_scaled_materializes_missing_diagonal() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.0); // no (0,0) and no row-1 entries at all
        let a = b.build();
        let p = a.identity_plus_scaled(0.5);
        assert_eq!(p.get(0, 0), 1.0);
        assert_eq!(p.get(0, 1), 0.5);
        assert_eq!(p.get(1, 1), 1.0);
    }

    #[test]
    fn balanced_chunks_cover_all_rows() {
        let m = small();
        for chunks in 1..5 {
            let parts = m.balanced_row_chunks(chunks);
            let mut covered = 0;
            let mut expected_start = 0;
            for r in &parts {
                assert_eq!(r.start, expected_start);
                expected_start = r.end;
                covered += r.len();
            }
            assert_eq!(covered, m.nrows());
        }
    }

    #[test]
    fn row_sums_and_stochastic_check() {
        let m = small();
        assert_eq!(m.row_sums(), vec![3.0, 3.0]);
        assert!(!m.is_row_stochastic(1e-12));
        assert!(CsrMatrix::identity(4).is_row_stochastic(0.0));
    }
}

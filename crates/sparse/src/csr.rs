//! Compressed sparse row matrices.
//!
//! A [`CsrMatrix`] is its values beside a [`CsrPattern`] — the shape,
//! `row_ptr` and `col_idx` — held through an `Arc`. Whenever two matrices
//! are known to have the same structure they hold one pattern: a rate
//! variant made by [`CsrMatrix::with_values`], every point a
//! [`CooPlan`](crate::CooPlan) builds, and clones. Work that reads nothing
//! but the pattern, the SpMV [`ChunkPlan`]s, is memoized on it
//! ([`CsrMatrix::chunk_plan`]), so it runs once per pattern.

#[cfg(test)]
use crate::builder::CooBuilder;
use crate::parallel::ChunkPlan;
use crate::pool::lock;
use std::sync::{Arc, Mutex};

/// The immutable sparsity pattern of a [`CsrMatrix`]: its shape and its
/// CSR index arrays, plus the chunk plans computed over it. Matrices share
/// it through an `Arc` (see the module docs); equality compares the shape
/// and the arrays, never the memoized plans.
#[derive(Debug)]
pub struct CsrPattern {
    nrows: usize,
    ncols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s entries.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    /// `(chunk count, plan)` pairs; linear scan — one entry per chunk count
    /// ever requested.
    plans: Mutex<Vec<(usize, Arc<ChunkPlan>)>>,
}

impl CsrPattern {
    /// A pattern from raw CSR arrays, with no chunk plan yet; validates the
    /// structural invariants in debug builds.
    pub(crate) fn new(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
    ) -> Arc<Self> {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        debug_assert!(col_idx.iter().all(|&c| (c as usize) < ncols.max(1)));
        Arc::new(CsrPattern {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            plans: Mutex::default(),
        })
    }

    /// Whether `a` and `b` are one structure: a pointer comparison when
    /// they are one allocation, one comparison of the index arrays when
    /// they are not.
    pub fn same(a: &Arc<CsrPattern>, b: &Arc<CsrPattern>) -> bool {
        Arc::ptr_eq(a, b) || **a == **b
    }

    /// Heap bytes held by the index arrays, counted by capacity. Chunk
    /// plans hold row ranges alone (a few words per chunk) and are not
    /// counted.
    pub fn heap_bytes(&self) -> usize {
        self.col_idx.capacity() * std::mem::size_of::<u32>()
            + self.row_ptr.capacity() * std::mem::size_of::<usize>()
    }
}

impl PartialEq for CsrPattern {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }
}

/// An immutable CSR (compressed sparse row) matrix of `f64` entries.
///
/// Column indices are `u32` — state spaces in this workspace stay far below
/// `2³²` — which halves index memory traffic during products (a measurable win
/// for the SpMV-bound randomization solvers; see the workspace performance
/// notes). The pattern is shared (see the module docs); equality compares
/// contents, whether or not two matrices share one pattern.
#[derive(Clone, Debug)]
pub struct CsrMatrix {
    pattern: Arc<CsrPattern>,
    values: Vec<f64>,
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        CsrPattern::same(&self.pattern, &other.pattern) && self.values == other.values
    }
}

impl CsrMatrix {
    /// Builds from raw CSR arrays, under a pattern of its own. Intended for
    /// [`CooBuilder`](crate::builder::CooBuilder).
    pub(crate) fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        CsrMatrix::from_pattern(CsrPattern::new(nrows, ncols, row_ptr, col_idx), values)
    }

    /// A matrix over a shared `pattern`, with `values` in pattern order.
    pub(crate) fn from_pattern(pattern: Arc<CsrPattern>, values: Vec<f64>) -> Self {
        debug_assert_eq!(pattern.col_idx.len(), values.len());
        CsrMatrix { pattern, values }
    }

    /// The `n×n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix::from_parts(
            n,
            n,
            (0..=n).collect(),
            (0..n as u32).collect(),
            vec![1.0; n],
        )
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.pattern.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.pattern.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The shared sparsity pattern.
    #[inline]
    pub fn pattern(&self) -> &Arc<CsrPattern> {
        &self.pattern
    }

    /// Iterator over the entries of row `i` as `(col, value)` pairs.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let row_ptr = self.row_ptr();
        let span = row_ptr[i]..row_ptr[i + 1];
        self.col_idx()[span.clone()]
            .iter()
            .zip(&self.values[span])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Iterator over all entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows()).flat_map(move |i| self.row(i).map(move |(j, v)| (i, j, v)))
    }

    /// Entry lookup by binary search within the row (rows are column-sorted).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let row_ptr = self.row_ptr();
        let span = &self.col_idx()[row_ptr[i]..row_ptr[i + 1]];
        match span.binary_search(&(j as u32)) {
            Ok(k) => self.values[row_ptr[i] + k],
            Err(_) => 0.0,
        }
    }

    /// `y = A·x` (gather form). `y` is fully overwritten.
    ///
    /// # Panics
    /// If `x.len() != ncols` or `y.len() != nrows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols(), "x length mismatch");
        assert_eq!(y.len(), self.nrows(), "y length mismatch");
        let (row_ptr, col_idx) = (self.row_ptr(), self.col_idx());
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in row_ptr[i]..row_ptr[i + 1] {
                // Safety note: indices validated at construction.
                acc += self.values[k] * x[col_idx[k] as usize];
            }
            *yi = acc;
        }
    }

    /// Convenience allocating version of [`CsrMatrix::mul_vec_into`].
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows()];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// `yᵀ = xᵀ·A` (scatter form, serial).
    ///
    /// Solvers prefer the gather form on the transposed matrix; this exists for
    /// validation and one-shot uses.
    pub fn vec_mul_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows(), "x length mismatch");
        assert_eq!(y.len(), self.ncols(), "y length mismatch");
        let (row_ptr, col_idx) = (self.row_ptr(), self.col_idx());
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue; // distributions are often sparse at early steps
            }
            for k in row_ptr[i]..row_ptr[i + 1] {
                y[col_idx[k] as usize] += xi * self.values[k];
            }
        }
    }

    /// Transposed copy (CSR of `Aᵀ`), via a counting sort over columns.
    pub fn transpose(&self) -> CsrMatrix {
        let (nrows, ncols) = (self.nrows(), self.ncols());
        let mut counts = vec![0usize; ncols + 1];
        for &c in self.col_idx() {
            counts[c as usize + 1] += 1;
        }
        for j in 0..ncols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for i in 0..nrows {
            for (j, v) in self.row(i) {
                let dst = cursor[j];
                cursor[j] += 1;
                col_idx[dst] = i as u32;
                values[dst] = v;
            }
        }
        CsrMatrix::from_parts(ncols, nrows, row_ptr, col_idx, values)
    }

    /// Row sums (for generators these should be ~0; for stochastic matrices ~1).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows())
            .map(|i| self.row(i).map(|(_, v)| v).sum())
            .collect()
    }

    /// Largest absolute diagonal entry — the minimal valid uniformization rate
    /// for a generator.
    pub fn max_abs_diag(&self) -> f64 {
        (0..self.nrows().min(self.ncols()))
            .map(|i| self.get(i, i).abs())
            .fold(0.0, f64::max)
    }

    /// Checks column-stochasticity to tolerance `tol` (each column sums to
    /// 1, all entries non-negative): what the transpose of a row-stochastic
    /// matrix, such as a uniformized `Pᵀ`, must be.
    pub fn is_column_stochastic(&self, tol: f64) -> bool {
        let mut sums = vec![0.0; self.ncols()];
        for (&c, &v) in self.col_idx().iter().zip(&self.values) {
            sums[c as usize] += v;
        }
        self.values.iter().all(|&v| v >= -tol) && sums.iter().all(|s| (s - 1.0).abs() <= tol)
    }

    /// Returns `(I + α·A)ᵀ` for square `A` (used to uniformize generators:
    /// `Pᵀ = (I + Q/Λ)ᵀ`), by one counting sort over `A`'s columns and
    /// without materializing `I + α·A`. Each entry is the scalar operation
    /// of the row-major form: `α·a_ij` off the diagonal, `α·a_ii + 1.0` on
    /// it, and `1.0` where `A` stores no diagonal — the diagonal is
    /// materialized in every row. Within a result row, entries appear in
    /// source-row order, as [`CsrMatrix::transpose`] emits them.
    ///
    /// Built directly rather than via [`CooBuilder`](crate::builder::CooBuilder) (which
    /// drops exact zeros): the result's pattern must be a pure function of
    /// `A`'s pattern, never of value cancellation. `1 + α·a_ii` rounds to
    /// exactly `0.0` for the row attaining the uniformization rate, and
    /// dropping that entry would give structurally identical chains
    /// different patterns, breaking the value rebind (`with_values` through
    /// a lineage's slot map) across rate variants.
    pub fn identity_plus_scaled_transposed(&self, alpha: f64) -> CsrMatrix {
        assert_eq!(self.nrows(), self.ncols(), "matrix must be square");
        let n = self.nrows();
        let (src_ptr, src_cols) = (self.row_ptr(), self.col_idx());
        // Count pass: every column's entries, plus the materialized
        // diagonal of each row that stores none.
        let mut row_ptr = vec![0usize; n + 1];
        for i in 0..n {
            let mut has_diag = false;
            for &j in &src_cols[src_ptr[i]..src_ptr[i + 1]] {
                row_ptr[j as usize + 1] += 1;
                has_diag |= j as usize == i;
            }
            if !has_diag {
                row_ptr[i + 1] += 1;
            }
        }
        for j in 0..n {
            row_ptr[j + 1] += row_ptr[j];
        }
        // Fill pass: scatter row by row, so each result row lists its
        // source rows in ascending order.
        let mut col_idx = vec![0u32; row_ptr[n]];
        let mut values = vec![0.0; row_ptr[n]];
        let mut cursor = row_ptr[..n].to_vec();
        for i in 0..n {
            let mut has_diag = false;
            for (j, v) in self.row(i) {
                let mut val = alpha * v;
                if j == i {
                    val += 1.0;
                    has_diag = true;
                }
                col_idx[cursor[j]] = i as u32;
                values[cursor[j]] = val;
                cursor[j] += 1;
            }
            if !has_diag {
                col_idx[cursor[i]] = i as u32;
                values[cursor[i]] = 1.0;
                cursor[i] += 1;
            }
        }
        CsrMatrix::from_parts(n, n, row_ptr, col_idx, values)
    }

    /// A matrix with this one's exact sparsity pattern and `values` in
    /// pattern order — the value re-bind primitive. The result shares this
    /// matrix's pattern, and with it the chunk plans already computed over
    /// it: a rate variant of a cached matrix copies no index array and
    /// re-runs no construction.
    ///
    /// # Panics
    /// If `values.len()` differs from this matrix's nnz.
    pub fn with_values(&self, values: Vec<f64>) -> CsrMatrix {
        assert_eq!(
            values.len(),
            self.nnz(),
            "value re-bind requires one value per stored entry"
        );
        CsrMatrix::from_pattern(self.pattern.clone(), values)
    }

    /// Dense copy (tests / tiny oracles only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols()]; self.nrows()];
        for (i, j, v) in self.iter() {
            d[i][j] = v;
        }
        d
    }

    /// Heap bytes the matrix reaches — its values and its pattern's index
    /// arrays — counted by **capacity** (what the allocator actually handed
    /// out), not length. A pattern shared by several matrices counts in
    /// each of them; a bounded cache that holds several charges it once
    /// (see [`CsrPattern::heap_bytes`]). Audited against a counting
    /// allocator by the engine's byte-accounting test.
    pub fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>() + self.pattern.heap_bytes()
    }

    /// Raw access to the row pointer array (read-only).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.pattern.row_ptr
    }

    /// Raw access to the column index array (read-only).
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.pattern.col_idx
    }

    /// Raw access to the value array (read-only).
    #[inline]
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
        let nrows = self.nrows();
        let row_ptr = self.row_ptr();
        let mut out = Vec::with_capacity(chunks);
        let mut start = 0usize;
        let mut acc = 0usize;
        for i in 0..nrows {
            acc += row_ptr[i + 1] - row_ptr[i];
            if acc >= per {
                out.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        if start < nrows {
            out.push(start..nrows);
        }
        if out.is_empty() {
            out.push(0..nrows);
        }
        out
    }

    /// The [`ChunkPlan`] splitting this matrix into at most `chunks`
    /// pieces, computed once per pattern and chunk count and then handed
    /// to every matrix that shares the pattern.
    pub fn chunk_plan(&self, chunks: usize) -> Arc<ChunkPlan> {
        let mut plans = lock(&self.pattern.plans);
        // A plan over a matrix with fewer rows than `chunks` holds fewer
        // chunks, so the memo keys by the requested count, not `len()`.
        if let Some((_, plan)) = plans.iter().find(|(c, _)| *c == chunks) {
            return plan.clone();
        }
        let plan = Arc::new(ChunkPlan::new(self, chunks));
        plans.push((chunks, plan.clone()));
        plan
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

    /// Equality compares contents: separately built equal matrices are
    /// equal, and matrices sharing one pattern with different values, or
    /// holding the same values under different patterns, are not.
    #[test]
    fn equality_compares_contents_not_allocations() {
        let (a, b) = (small(), small());
        assert!(!Arc::ptr_eq(a.pattern(), b.pattern()));
        assert_eq!(a, b);
        let doubled = a.with_values(a.values().iter().map(|v| 2.0 * v).collect());
        assert!(Arc::ptr_eq(a.pattern(), doubled.pattern()));
        assert_ne!(a, doubled);
        assert_eq!(doubled, b.with_values(doubled.values().to_vec()));
        let mut moved = CooBuilder::new(2, 3);
        moved.push(0, 0, 1.0);
        moved.push(0, 1, 2.0);
        moved.push(1, 1, 3.0);
        let moved = moved.build();
        assert_eq!(moved.values(), a.values());
        assert_ne!(**a.pattern(), **moved.pattern());
        assert_ne!(a, moved);
    }

    /// A rebound matrix steps with the plans already computed over its
    /// pattern; a plan is computed once per chunk count.
    #[test]
    fn with_values_shares_pattern_and_chunk_plans() {
        let m = small();
        let plan = m.chunk_plan(2);
        let rebound = m.with_values(vec![4.0, 5.0, 6.0]);
        assert!(Arc::ptr_eq(&plan, &rebound.chunk_plan(2)));
        let single = rebound.chunk_plan(1);
        assert!(!Arc::ptr_eq(&plan, &single));
        assert!(Arc::ptr_eq(&single, &m.chunk_plan(1)));
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
        let p_t = q.identity_plus_scaled_transposed(1.0 / 2.0);
        assert!(p_t.is_column_stochastic(1e-14));
        assert_eq!(p_t.get(0, 0), 0.5);
        assert_eq!(p_t.get(0, 1), 1.0);
        assert_eq!(p_t.get(1, 1), 0.0);
        assert_eq!(q.max_abs_diag(), 2.0);
    }

    #[test]
    fn identity_plus_scaled_materializes_missing_diagonal() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.0); // no (0,0) and no row-1 entries at all
        let a = b.build();
        let p_t = a.identity_plus_scaled_transposed(0.5);
        assert_eq!(p_t.nnz(), 3);
        assert_eq!(p_t.get(0, 0), 1.0);
        assert_eq!(p_t.get(1, 0), 0.5);
        assert_eq!(p_t.get(1, 1), 1.0);
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
        assert!(!m.is_column_stochastic(1e-12));
        assert!(CsrMatrix::identity(4).is_column_stochastic(0.0));
    }
}

//! The two SpMV loops the stepping layer runs, and the per-row fold every
//! product passes through.
//!
//! The randomization solvers spend nearly all their time in `y = A·x` over
//! one fixed matrix, and the models the paper evaluates produce short rows
//! (the RAID generators store about seven entries per row). Per-element
//! bounds checks and loop overhead rival the arithmetic there, so each
//! [`ChunkPlan`](crate::ChunkPlan) selects one of two loops **once**, at
//! construction, through `KernelKind::select`:
//!
//! * **generic** — the textbook bounds-checked CSR gather; the ground truth
//!   the other loop must match bitwise, and the loop for matrices too small
//!   (under 4,096 entries or 8 rows) to amortize the one-time column
//!   validation below.
//! * **shortrow** — the same loop with unchecked indexing over the matrix's
//!   own CSR arrays, validated once by an `O(nnz)` column scan. Every other
//!   matrix gets it.
//!
//! Selection reads nothing but the matrix's nnz and row count, so it is a
//! deterministic function of the matrix and neither loop keeps a layout of
//! its own: a plan holds no copy of any matrix array.
//!
//! ## Folds
//!
//! A solver's step does more than the product: it kills states, sums the
//! new iterate, takes its reward dot product. Each loop therefore hands
//! every row's value to a [`RowFold`] just before the store, and stores
//! what the fold returns, so those reductions ride the row loop instead of
//! re-reading the iterate in passes of their own. The fold is passed **by
//! value** and returned, so its accumulators live in registers across the
//! rows; the plain product is the no-op fold `()`. There is one loop per
//! kernel kind, folded or not.
//!
//! ## Bitwise identity
//!
//! Both loops accumulate each output row's products **in the row's CSR
//! order with a single accumulator**, exactly like the serial
//! [`CsrMatrix::mul_vec_into`]. The proptests pin both to that serial
//! result bit for bit, non-finite inputs included. A fold sees the rows of
//! the range it is handed in increasing order, each exactly once; how the
//! pooled product keeps that order across chunks is in [`crate::parallel`].
//!
//! ## Safety
//!
//! The shortrow loop indexes unchecked. Its soundness rests on one
//! invariant: every stored column is `< ncols`. [`CooBuilder`](crate::CooBuilder)
//! enforces it and every transform preserves it; `ChunkPlan::new`
//! re-validates it with one scan before the unchecked loop is ever
//! selected, and `KernelKind::mul_rows` asserts that the input and
//! output slices fit the matrix and row range it is handed.

use crate::csr::CsrMatrix;

/// Below this nnz the generic loop runs: the shortrow loop's one-time
/// column scan would rival the products a matrix this small ever receives.
const MIN_KERNEL_NNZ: usize = 4_096;

/// Below this many rows the generic loop runs whatever the nnz: such a
/// matrix carries hundreds of entries per row, nothing like the short rows
/// the unchecked loop exists for.
const MIN_KERNEL_ROWS: usize = 8;

/// A reduction over a product's rows, run inside the SpMV row loop.
///
/// The loop calls [`RowFold::row`] once per output row, in increasing row
/// order, with the row's value just before storing it, and stores what it
/// returns. Implementations are small structs of accumulators, which the
/// kernel takes and returns by value so that they stay in registers across
/// the rows; a fold that only reads `v` returns it unchanged.
pub trait RowFold {
    /// Folds row `i`'s value `v` and returns the value to store.
    fn row(&mut self, i: usize, v: f64) -> f64;
}

/// The plain product: every row is stored as computed.
impl RowFold for () {
    #[inline(always)]
    fn row(&mut self, _i: usize, v: f64) -> f64 {
        v
    }
}

/// The SpMV loop a [`ChunkPlan`](crate::ChunkPlan) runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Bounds-checked CSR loop.
    Generic,
    /// Unchecked-indexing CSR loop.
    ShortRow,
}

impl KernelKind {
    /// The loop for a matrix with `nnz` stored entries and `nrows` rows —
    /// the one place the choice is made.
    pub(crate) fn select(nnz: usize, nrows: usize) -> KernelKind {
        if nnz < MIN_KERNEL_NNZ || nrows < MIN_KERNEL_ROWS {
            KernelKind::Generic
        } else {
            KernelKind::ShortRow
        }
    }

    /// Stable name used in reports, CSVs and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Generic => "generic",
            KernelKind::ShortRow => "shortrow",
        }
    }

    /// Computes rows `range` of `y = m·x` into `out` (chunk-local slice)
    /// with this loop, passing each row through `fold` in row order, and
    /// returns the fold.
    ///
    /// # Panics
    /// If `x.len() != m.ncols()`, `range.end > m.nrows()` or
    /// `out.len() != range.len()`.
    pub(crate) fn mul_rows<F: RowFold>(
        self,
        m: &CsrMatrix,
        x: &[f64],
        out: &mut [f64],
        range: std::ops::Range<usize>,
        fold: F,
    ) -> F {
        assert_eq!(x.len(), m.ncols(), "x length mismatch");
        assert!(range.end <= m.nrows(), "row range out of bounds");
        assert_eq!(out.len(), range.len(), "output slice mismatch");
        match self {
            KernelKind::Generic => mul_rows_generic(m, x, out, range, fold),
            // SAFETY: every stored column is < ncols (the CSR construction
            // invariant, re-validated by `ChunkPlan::new` before it selects
            // this loop), and ncols == x.len(); rows and `out` are bounded
            // by the asserts above.
            KernelKind::ShortRow => unsafe { mul_rows_unchecked(m, x, out, range, fold) },
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Safe generic CSR loop — the reference semantics the shortrow loop must
/// match bitwise.
fn mul_rows_generic<F: RowFold>(
    m: &CsrMatrix,
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
    mut fold: F,
) -> F {
    let row_ptr = m.row_ptr();
    let col_idx = m.col_idx();
    let values = m.values();
    for (local, i) in range.enumerate() {
        let mut acc = 0.0;
        for k in row_ptr[i]..row_ptr[i + 1] {
            acc += values[k] * x[col_idx[k] as usize];
        }
        out[local] = fold.row(i, acc);
    }
    fold
}

/// Row-wise CSR loop with unchecked indexing — the shortrow kernel.
///
/// # Safety
/// Requires every stored column of `m` to be `< x.len()` (the CSR
/// invariant, validated once by `ChunkPlan::new`), `range.end <= nrows`
/// and `out.len() == range.len()`.
unsafe fn mul_rows_unchecked<F: RowFold>(
    m: &CsrMatrix,
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
    mut fold: F,
) -> F {
    let (row_ptr, cols, values) = (m.row_ptr(), m.col_idx(), m.values());
    unsafe {
        for (local, i) in range.enumerate() {
            let s = *row_ptr.get_unchecked(i);
            let e = *row_ptr.get_unchecked(i + 1);
            let mut acc = 0.0;
            for k in s..e {
                acc += values.get_unchecked(k) * x.get_unchecked(*cols.get_unchecked(k) as usize);
            }
            *out.get_unchecked_mut(local) = fold.row(i, acc);
        }
    }
    fold
}

/// Verifies the CSR construction invariant the unchecked loop relies on.
pub(crate) fn columns_in_range(m: &CsrMatrix) -> bool {
    let n = m.ncols();
    m.col_idx().iter().all(|&c| (c as usize) < n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CooBuilder;
    use crate::{ChunkPlan, WorkerPool};

    fn dense_to_csr(rows: &[Vec<f64>]) -> CsrMatrix {
        let mut b = CooBuilder::new(rows.len(), rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    b.push(i, j, v);
                }
            }
        }
        b.build()
    }

    fn pseudo_random(n: usize, m: usize, seed: u64, fill: f64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| {
                        let v = next();
                        if v.abs() < 0.5 * (1.0 - fill) {
                            0.0
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect()
    }

    const ALL_KINDS: [KernelKind; 2] = [KernelKind::Generic, KernelKind::ShortRow];

    #[test]
    fn every_kernel_is_bitwise_identical_to_serial() {
        for (n, m, seed) in [
            (67usize, 67usize, 1u64),
            (123, 51, 2),
            (51, 123, 3),
            (9, 9, 4),
        ] {
            let a = dense_to_csr(&pseudo_random(n, m, seed, 0.4));
            let x: Vec<f64> = (0..m).map(|j| ((j * 37 + 11) % 23) as f64 - 11.0).collect();
            let mut want = vec![0.0; n];
            a.mul_vec_into(&x, &mut want);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            for kind in ALL_KINDS {
                // Whole matrix in one chunk, and split into odd chunks.
                let mut got = vec![1.0; n];
                kind.mul_rows(&a, &x, &mut got, 0..n, ());
                assert_eq!(bits(&want), bits(&got), "{kind} full");
                let mut got = vec![1.0; n];
                let mut start = 0;
                while start < n {
                    let end = (start + 7).min(n);
                    kind.mul_rows(&a, &x, &mut got[start..end], start..end, ());
                    start = end;
                }
                assert_eq!(bits(&want), bits(&got), "{kind} chunked");
            }
        }
    }

    /// Non-finite input entries must propagate exactly as in the serial
    /// product: rows that read them turn non-finite, rows that do not stay
    /// finite, bit for bit.
    #[test]
    fn non_finite_inputs_stay_bitwise_identical() {
        let n = 32;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            for d in 1..=(i % 5) {
                b.push(i, (i + d) % n, -0.5 / d as f64);
            }
        }
        let a = b.build();
        let mut x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.3).sin()).collect();
        x[0] = f64::INFINITY;
        x[5] = f64::NAN;
        let mut want = vec![0.0; n];
        a.mul_vec_into(&x, &mut want);
        assert!(
            want.iter().any(|v| v.is_finite()),
            "test needs rows untouched by the non-finite entries"
        );
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for kind in ALL_KINDS {
            let mut got = vec![0.0; n];
            kind.mul_rows(&a, &x, &mut got, 0..n, ());
            assert_eq!(bits(&want), bits(&got), "{kind}");
        }
    }

    /// Adversarial shapes: empty rows, overlong rows, an odd row count, and
    /// non-finite input entries — all at once. Both loops must still match
    /// serial bit for bit, whole and chunked.
    #[test]
    fn adversarial_shapes_stay_bitwise_identical() {
        let n = 43;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            match i % 7 {
                // Empty rows (no entries at all).
                0 => {}
                // Overlong rows.
                3 => {
                    for d in 0..n / 2 {
                        b.push(i, (i + d) % n, 0.25 + d as f64 * 1e-3);
                    }
                }
                // Short ragged rows.
                r => {
                    b.push(i, i, 2.0);
                    for d in 1..r {
                        b.push(i, (i + d * 5) % n, -0.125 / d as f64);
                    }
                }
            }
        }
        let a = b.build();
        let mut x: Vec<f64> = (0..n).map(|j| ((j * 29 + 7) % 13) as f64 - 6.0).collect();
        x[0] = f64::NEG_INFINITY;
        x[1] = f64::NAN;
        x[n - 1] = -0.0;
        let mut want = vec![0.0; n];
        a.mul_vec_into(&x, &mut want);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for kind in ALL_KINDS {
            let mut got = vec![0.0; n];
            kind.mul_rows(&a, &x, &mut got, 0..n, ());
            assert_eq!(bits(&want), bits(&got), "{kind} full");
            let mut got = vec![0.0; n];
            for (lo, hi) in [(0usize, 5usize), (5, 9), (9, n)] {
                kind.mul_rows(&a, &x, &mut got[lo..hi], lo..hi, ());
            }
            assert_eq!(bits(&want), bits(&got), "{kind} chunked");
        }
    }

    #[test]
    fn selection_is_deterministic_and_structure_driven() {
        // Too small => generic regardless of shape.
        let small = dense_to_csr(&pseudo_random(20, 20, 5, 0.5));
        assert_eq!(ChunkPlan::new(&small, 1).kernel_kind(), KernelKind::Generic);
        // Large => shortrow, stable across rebuilds (the RAID-generator
        // shape).
        let n = 1200;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 1.0);
            for d in 1..4 {
                b.push(i, (i + d * 7) % n, 0.1);
            }
        }
        let m = b.build();
        let first = ChunkPlan::new(&m, 1).kernel_kind();
        assert_eq!(first, KernelKind::ShortRow);
        for chunks in [1, 2, 3] {
            assert_eq!(ChunkPlan::new(&m, chunks).kernel_kind(), first);
        }
        // Both thresholds bind: enough entries on too few rows stays
        // generic, and the boundaries are inclusive on the shortrow side.
        assert_eq!(
            KernelKind::select(MIN_KERNEL_NNZ, MIN_KERNEL_ROWS - 1),
            KernelKind::Generic
        );
        assert_eq!(
            KernelKind::select(MIN_KERNEL_NNZ - 1, 1_000_000),
            KernelKind::Generic
        );
        assert_eq!(
            KernelKind::select(MIN_KERNEL_NNZ, MIN_KERNEL_ROWS),
            KernelKind::ShortRow
        );
    }

    /// A plan runs its loop only on the shape it was selected for: a matrix
    /// with the same rows and entries but one more column is refused, even
    /// though `x` fits that matrix.
    #[test]
    #[should_panic(expected = "chunk plan does not cover")]
    fn kernel_rejects_a_different_matrix() {
        let a = dense_to_csr(&pseudo_random(30, 30, 6, 0.4));
        let mut wider = CooBuilder::new(30, 31);
        for (i, j, v) in a.iter() {
            wider.push(i, j, v);
        }
        let b = wider.build();
        assert_eq!((a.nrows(), a.nnz()), (b.nrows(), b.nnz()));
        let plan = ChunkPlan::new(&a, 2);
        let mut out = vec![0.0; 30];
        b.mul_vec_pooled_into(&[1.0; 31], &mut out, &plan, WorkerPool::global());
    }
}

//! The two SpMV loops the stepping layer runs.
//!
//! The randomization solvers spend nearly all their time in `y = A·x` over
//! one fixed matrix, and the models the paper evaluates produce short rows
//! (the RAID generators store about seven entries per row). Per-element
//! bounds checks and loop overhead rival the arithmetic there, so each
//! [`ChunkPlan`](crate::ChunkPlan) resolves one of two loops **once**, at
//! construction:
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
//! Both loops also come blocked: [`MAX_RHS_BLOCK`] or fewer interleaved
//! right-hand sides advance in one streaming pass of the matrix, through a
//! const-generic body per block width.
//!
//! ## Bitwise identity
//!
//! Both loops accumulate each output row's products **in the row's CSR
//! order with a single accumulator** (one per right-hand side when
//! blocked), exactly like the serial [`CsrMatrix::mul_vec_into`]. The
//! proptests pin both to that serial result bit for bit, non-finite inputs
//! included.
//!
//! ## Safety
//!
//! The shortrow loop indexes unchecked. Its soundness rests on one
//! invariant: every stored column is `< ncols`. [`CooBuilder`](crate::CooBuilder)
//! enforces it and every transform preserves it; `Kernel::build`
//! re-validates it with one scan before the unchecked loop is ever
//! selected, and `mul_rows`/`mul_rows_block` assert that the matrix and
//! slices they are handed have the shape the kernel was built for.

use crate::csr::CsrMatrix;

/// Largest supported right-hand-side block for the blocked (multi-vector)
/// SpMM entry points. Bounds the per-row accumulator arrays.
pub const MAX_RHS_BLOCK: usize = 8;

/// Below this nnz the generic loop runs: the shortrow loop's one-time
/// column scan would rival the products a matrix this small ever receives.
const MIN_KERNEL_NNZ: usize = 4_096;

/// Below this many rows the generic loop runs whatever the nnz: such a
/// matrix carries hundreds of entries per row, nothing like the short rows
/// the unchecked loop exists for.
const MIN_KERNEL_ROWS: usize = 8;

/// A user-facing kernel selection: automatic, or one forced kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// Pick from the matrix's size (the default).
    #[default]
    Auto,
    /// Force the generic bounds-checked CSR loop.
    Generic,
    /// Force the unchecked short-row loop.
    ShortRow,
}

impl KernelChoice {
    /// The forced kind, or `None` for `Auto`.
    pub fn forced(self) -> Option<KernelKind> {
        match self {
            KernelChoice::Auto => None,
            KernelChoice::Generic => Some(KernelKind::Generic),
            KernelChoice::ShortRow => Some(KernelKind::ShortRow),
        }
    }

    /// Parses the CLI/spec spelling (`auto`, `generic`, `shortrow`).
    pub fn parse(s: &str) -> Result<KernelChoice, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(KernelChoice::Auto),
            "generic" => Ok(KernelChoice::Generic),
            "shortrow" => Ok(KernelChoice::ShortRow),
            other => Err(format!(
                "unknown kernel {other:?} (expected auto/generic/shortrow)"
            )),
        }
    }
}

/// A resolved kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Bounds-checked CSR loop.
    Generic,
    /// Unchecked-indexing CSR loop.
    ShortRow,
}

impl KernelKind {
    /// The kernel [`KernelChoice::Auto`] resolves to for a matrix with
    /// `nnz` stored entries and `nrows` rows.
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
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Safe generic CSR loop — the reference semantics the shortrow loop must
/// match bitwise.
fn mul_rows_generic(m: &CsrMatrix, x: &[f64], out: &mut [f64], range: std::ops::Range<usize>) {
    let row_ptr = m.row_ptr();
    let col_idx = m.col_idx();
    let values = m.values();
    for (local, i) in range.enumerate() {
        let mut acc = 0.0;
        for k in row_ptr[i]..row_ptr[i + 1] {
            acc += values[k] * x[col_idx[k] as usize];
        }
        out[local] = acc;
    }
}

/// Row-wise CSR loop with unchecked indexing — the shortrow kernel.
///
/// # Safety
/// Requires every stored column of `m` to be `< x.len()` (validated once by
/// [`Kernel::build`]), `range.end <= nrows` and `out.len() == range.len()`.
unsafe fn mul_rows_unchecked(
    m: &CsrMatrix,
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
) {
    let (row_ptr, cols, values) = (m.row_ptr(), m.col_idx(), m.values());
    unsafe {
        for (local, i) in range.enumerate() {
            let s = *row_ptr.get_unchecked(i);
            let e = *row_ptr.get_unchecked(i + 1);
            let mut acc = 0.0;
            for k in s..e {
                acc += values.get_unchecked(k) * x.get_unchecked(*cols.get_unchecked(k) as usize);
            }
            *out.get_unchecked_mut(local) = acc;
        }
    }
}

/// Safe blocked generic CSR loop — the blocked reference semantics: `k`
/// interleaved right-hand sides, each output column accumulated with its
/// own accumulator in the row's CSR entry order (column `j` is bitwise
/// equal to [`mul_rows_generic`] on column `j` alone).
fn mul_rows_block_generic(
    m: &CsrMatrix,
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
    k: usize,
) {
    // Monomorphized per width like the unchecked loop (see
    // `mul_rows_block_unchecked`): the const-size accumulator is what keeps
    // the bounds-checked ground truth within sight of it.
    match k {
        1 => mul_rows_block_generic_k::<1>(m, x, out, range),
        2 => mul_rows_block_generic_k::<2>(m, x, out, range),
        3 => mul_rows_block_generic_k::<3>(m, x, out, range),
        4 => mul_rows_block_generic_k::<4>(m, x, out, range),
        5 => mul_rows_block_generic_k::<5>(m, x, out, range),
        6 => mul_rows_block_generic_k::<6>(m, x, out, range),
        7 => mul_rows_block_generic_k::<7>(m, x, out, range),
        8 => mul_rows_block_generic_k::<8>(m, x, out, range),
        _ => unreachable!("rhs block validated against MAX_RHS_BLOCK"),
    }
}

/// Const-width body of [`mul_rows_block_generic`] (fully bounds-checked).
fn mul_rows_block_generic_k<const K: usize>(
    m: &CsrMatrix,
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
) {
    let row_ptr = m.row_ptr();
    let col_idx = m.col_idx();
    let values = m.values();
    for (local, i) in range.enumerate() {
        let mut acc = [0.0f64; K];
        for e in row_ptr[i]..row_ptr[i + 1] {
            let v = values[e];
            let c = col_idx[e] as usize * K;
            for (j, a) in acc.iter_mut().enumerate() {
                *a += v * x[c + j];
            }
        }
        out[local * K..(local + 1) * K].copy_from_slice(&acc);
    }
}

/// Unchecked blocked row-wise loop. One streaming pass of the row's entries
/// advances all `k` columns.
///
/// Dispatches the runtime width to a const-generic monomorphization:
/// a `[f64; K]` accumulator compiles to straight-line register code, where
/// a runtime-length `&mut acc[..k]` costs a `memset`/`memcpy` call pair
/// per row — on short-row matrices those calls dominate the products
/// themselves. Bits are unchanged: each column's accumulation order is
/// identical at every width.
///
/// # Safety
/// Contract of [`mul_rows_unchecked`], with `x`/`out` holding `k`
/// interleaved columns (`out.len() == range.len()·k`).
unsafe fn mul_rows_block_unchecked(
    m: &CsrMatrix,
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
    k: usize,
) {
    unsafe {
        match k {
            1 => mul_rows_block_unchecked_k::<1>(m, x, out, range),
            2 => mul_rows_block_unchecked_k::<2>(m, x, out, range),
            3 => mul_rows_block_unchecked_k::<3>(m, x, out, range),
            4 => mul_rows_block_unchecked_k::<4>(m, x, out, range),
            5 => mul_rows_block_unchecked_k::<5>(m, x, out, range),
            6 => mul_rows_block_unchecked_k::<6>(m, x, out, range),
            7 => mul_rows_block_unchecked_k::<7>(m, x, out, range),
            8 => mul_rows_block_unchecked_k::<8>(m, x, out, range),
            _ => unreachable!("rhs block validated against MAX_RHS_BLOCK"),
        }
    }
}

/// Const-width body of [`mul_rows_block_unchecked`].
///
/// # Safety
/// Contract of [`mul_rows_block_unchecked`] with `k = K`.
unsafe fn mul_rows_block_unchecked_k<const K: usize>(
    m: &CsrMatrix,
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
) {
    let (row_ptr, cols, values) = (m.row_ptr(), m.col_idx(), m.values());
    unsafe {
        for (local, i) in range.enumerate() {
            let s = *row_ptr.get_unchecked(i);
            let e = *row_ptr.get_unchecked(i + 1);
            let mut acc = [0.0f64; K];
            for kk in s..e {
                let v = *values.get_unchecked(kk);
                let c = *cols.get_unchecked(kk) as usize * K;
                for (j, a) in acc.iter_mut().enumerate() {
                    *a += v * x.get_unchecked(c + j);
                }
            }
            for (j, a) in acc.iter().enumerate() {
                *out.get_unchecked_mut(local * K + j) = *a;
            }
        }
    }
}

/// A resolved kernel bound to one matrix's shape. Built once per
/// [`ChunkPlan`](crate::ChunkPlan) and reused across millions of products;
/// it reads every index and value from the matrix it is handed.
#[derive(Clone, Debug)]
pub struct Kernel {
    kind: KernelKind,
    nrows: usize,
    ncols: usize,
    nnz: usize,
}

impl Kernel {
    /// Resolves `choice` for `m` (from its nnz and row count for `Auto`).
    /// The unchecked loop validates the CSR column invariant once here.
    pub(crate) fn build(m: &CsrMatrix, choice: KernelChoice) -> Kernel {
        let kind = choice
            .forced()
            .unwrap_or_else(|| KernelKind::select(m.nnz(), m.nrows()));
        // A matrix violating its own construction invariant never gets the
        // unchecked loop (defense in depth; unreachable through CooBuilder).
        let kind = if kind == KernelKind::ShortRow && !columns_in_range(m) {
            KernelKind::Generic
        } else {
            kind
        };
        Kernel {
            kind,
            nrows: m.nrows(),
            ncols: m.ncols(),
            nnz: m.nnz(),
        }
    }

    /// The resolved kind.
    pub(crate) fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Computes rows `range` of `y = m·x` into `out` (chunk-local slice).
    ///
    /// # Panics
    /// If `m` does not match the matrix this kernel was built from
    /// (shape/nnz), or the slice lengths disagree with `range`.
    pub(crate) fn mul_rows(
        &self,
        m: &CsrMatrix,
        x: &[f64],
        out: &mut [f64],
        range: std::ops::Range<usize>,
    ) {
        assert!(
            m.nrows() == self.nrows && m.ncols() == self.ncols && m.nnz() == self.nnz,
            "kernel was built for a different matrix"
        );
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        assert!(range.end <= self.nrows, "row range out of bounds");
        assert_eq!(out.len(), range.len(), "output slice mismatch");
        match self.kind {
            KernelKind::Generic => mul_rows_generic(m, x, out, range),
            // SAFETY: every stored column is < ncols (the CSR construction
            // invariant, re-validated in `build`), and ncols == x.len();
            // rows and `out` are bounded by the asserts above.
            KernelKind::ShortRow => unsafe { mul_rows_unchecked(m, x, out, range) },
        }
    }

    /// Blocked (multi-vector) product: computes rows `range` of `Y = m·X`
    /// over `k` **interleaved** right-hand sides (`x[col·k + j]`,
    /// `out[(row − range.start)·k + j]`) in one streaming pass of the
    /// matrix. Each output column is bitwise identical to a single-vector
    /// [`Kernel::mul_rows`] call on that column — the blocked layer never
    /// trades identity for speed.
    ///
    /// # Panics
    /// As [`Kernel::mul_rows`], plus if `k` is 0 or above
    /// [`MAX_RHS_BLOCK`], or the slice lengths disagree with `range`/`k`.
    pub(crate) fn mul_rows_block(
        &self,
        m: &CsrMatrix,
        x: &[f64],
        out: &mut [f64],
        range: std::ops::Range<usize>,
        k: usize,
    ) {
        assert!((1..=MAX_RHS_BLOCK).contains(&k), "rhs block out of range");
        if k == 1 {
            // Identical bits, better-tuned single-vector loops.
            self.mul_rows(m, x, out, range);
            return;
        }
        assert!(
            m.nrows() == self.nrows && m.ncols() == self.ncols && m.nnz() == self.nnz,
            "kernel was built for a different matrix"
        );
        assert_eq!(x.len(), self.ncols * k, "x length mismatch");
        assert!(range.end <= self.nrows, "row range out of bounds");
        assert_eq!(out.len(), range.len() * k, "output slice mismatch");
        match self.kind {
            KernelKind::Generic => mul_rows_block_generic(m, x, out, range, k),
            // SAFETY: every stored column is < ncols (the CSR construction
            // invariant, re-validated in `build`), so `col·k + j < ncols·k
            // == x.len()`; rows and `out` are bounded by the asserts above.
            KernelKind::ShortRow => unsafe { mul_rows_block_unchecked(m, x, out, range, k) },
        }
    }
}

/// Verifies the CSR construction invariant the unchecked loop relies on.
fn columns_in_range(m: &CsrMatrix) -> bool {
    let n = m.ncols();
    m.col_idx().iter().all(|&c| (c as usize) < n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CooBuilder;

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

    const ALL_FORCED: [KernelChoice; 2] = [KernelChoice::Generic, KernelChoice::ShortRow];

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
            for choice in ALL_FORCED {
                let kernel = Kernel::build(&a, choice);
                // Whole matrix in one chunk, and split into odd chunks.
                let mut got = vec![1.0; n];
                kernel.mul_rows(&a, &x, &mut got, 0..n);
                assert_eq!(bits(&want), bits(&got), "{choice:?} full");
                let mut got = vec![1.0; n];
                let mut start = 0;
                while start < n {
                    let end = (start + 7).min(n);
                    kernel.mul_rows(&a, &x, &mut got[start..end], start..end);
                    start = end;
                }
                assert_eq!(bits(&want), bits(&got), "{choice:?} chunked");
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
        for choice in ALL_FORCED {
            let kernel = Kernel::build(&a, choice);
            let mut got = vec![0.0; n];
            kernel.mul_rows(&a, &x, &mut got, 0..n);
            assert_eq!(bits(&want), bits(&got), "{choice:?}");
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
        for choice in ALL_FORCED {
            let kernel = Kernel::build(&a, choice);
            let mut got = vec![0.0; n];
            kernel.mul_rows(&a, &x, &mut got, 0..n);
            assert_eq!(bits(&want), bits(&got), "{choice:?} full");
            let mut got = vec![0.0; n];
            for (lo, hi) in [(0usize, 5usize), (5, 9), (9, n)] {
                kernel.mul_rows(&a, &x, &mut got[lo..hi], lo..hi);
            }
            assert_eq!(bits(&want), bits(&got), "{choice:?} chunked");
        }
    }

    /// Every (kernel, k) blocked product must be bitwise identical per
    /// column to the serial single-vector product — including odd k, chunk
    /// boundaries, and non-finite inputs.
    #[test]
    fn blocked_products_are_bitwise_identical_to_serial_columns() {
        for (n, m, seed) in [(67usize, 67usize, 1u64), (123, 51, 2), (9, 9, 4)] {
            let a = dense_to_csr(&pseudo_random(n, m, seed, 0.4));
            for k in [1usize, 2, 3, 4, 5, 8] {
                let mut x: Vec<f64> = (0..m * k)
                    .map(|j| ((j * 37 + 11) % 23) as f64 - 11.0)
                    .collect();
                x[0] = f64::INFINITY;
                if m * k > 5 {
                    x[5] = f64::NAN;
                }
                let mut want = vec![0.0; n * k];
                // Column-wise serial ground truth.
                for j in 0..k {
                    let xj: Vec<f64> = (0..m).map(|c| x[c * k + j]).collect();
                    let mut yj = vec![0.0; n];
                    a.mul_vec_into(&xj, &mut yj);
                    for r in 0..n {
                        want[r * k + j] = yj[r];
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                // The serial blocked reference itself.
                let mut got = vec![1.0; n * k];
                a.mul_mat_into(&x, &mut got, k);
                assert_eq!(bits(&want), bits(&got), "mul_mat_into k={k}");
                for choice in ALL_FORCED {
                    let kernel = Kernel::build(&a, choice);
                    let mut got = vec![1.0; n * k];
                    kernel.mul_rows_block(&a, &x, &mut got, 0..n, k);
                    assert_eq!(bits(&want), bits(&got), "{choice:?} k={k}");
                    let mut got = vec![1.0; n * k];
                    let mut start = 0;
                    while start < n {
                        let end = (start + 7).min(n);
                        kernel.mul_rows_block(&a, &x, &mut got[start * k..end * k], start..end, k);
                        start = end;
                    }
                    assert_eq!(bits(&want), bits(&got), "{choice:?} k={k} chunked");
                }
            }
        }
    }

    #[test]
    fn selection_is_deterministic_and_structure_driven() {
        // Too small => generic regardless of shape.
        let small = dense_to_csr(&pseudo_random(20, 20, 5, 0.5));
        assert_eq!(
            Kernel::build(&small, KernelChoice::Auto).kind(),
            KernelKind::Generic
        );
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
        let first = Kernel::build(&m, KernelChoice::Auto).kind();
        assert_eq!(first, KernelKind::ShortRow);
        for _ in 0..3 {
            assert_eq!(Kernel::build(&m, KernelChoice::Auto).kind(), first);
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

    #[test]
    fn forced_kernels_resolve_as_requested() {
        let m = dense_to_csr(&pseudo_random(40, 40, 9, 0.4));
        for choice in ALL_FORCED {
            assert_eq!(Kernel::build(&m, choice).kind(), choice.forced().unwrap());
        }
        assert!(KernelChoice::parse("ShortRow").is_ok());
        assert!(KernelChoice::parse("warp").is_err());
        assert!(KernelChoice::parse("sliced").is_err());
    }

    #[test]
    #[should_panic(expected = "different matrix")]
    fn kernel_rejects_a_different_matrix() {
        let a = dense_to_csr(&pseudo_random(30, 30, 6, 0.4));
        let b = dense_to_csr(&pseudo_random(31, 31, 7, 0.4));
        let kernel = Kernel::build(&a, KernelChoice::ShortRow);
        let mut out = vec![0.0; 31];
        kernel.mul_rows(&b, &vec![1.0; 31], &mut out, 0..31);
    }
}

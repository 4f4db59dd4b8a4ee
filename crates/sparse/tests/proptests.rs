//! Property-based tests for the sparse substrate: every operation is checked
//! against a dense reference on random matrices.

use proptest::prelude::*;
use regenr_sparse::{ChunkPlan, CooBuilder, CsrMatrix, KernelKind, WorkerPool};

/// A matrix as `(rows, nrows, ncols)`, each row its `(column, value)`
/// entries.
type SparseRows = (Vec<Vec<(usize, f64)>>, usize, usize);

/// Random dense matrix plus its CSR image.
fn arb_matrix() -> impl Strategy<Value = (Vec<Vec<f64>>, usize, usize)> {
    (1usize..12, 1usize..12).prop_flat_map(|(n, m)| {
        prop::collection::vec(prop::collection::vec(-5.0f64..5.0, m), n).prop_map(
            move |mut rows| {
                // Sparsify ~half the entries.
                for (i, row) in rows.iter_mut().enumerate() {
                    for (j, v) in row.iter_mut().enumerate() {
                        if (i * 31 + j * 17) % 2 == 0 {
                            *v = 0.0;
                        }
                    }
                }
                (rows, n, m)
            },
        )
    })
}

/// Random square matrix mixing empty rows, rows without a stored diagonal
/// and rows with one (plus a random off-diagonal sparsity pattern).
fn arb_square() -> impl Strategy<Value = (Vec<Vec<f64>>, usize)> {
    (1usize..12, 0usize..1000).prop_flat_map(|(n, seed)| {
        prop::collection::vec(prop::collection::vec(-5.0f64..5.0, n), n).prop_map(
            move |mut rows| {
                for (i, row) in rows.iter_mut().enumerate() {
                    // 0: empty row, 1: no diagonal, 2 and 3: diagonal kept.
                    let kind = (i + seed) % 4;
                    for (j, v) in row.iter_mut().enumerate() {
                        let drop = if j == i {
                            kind < 2
                        } else {
                            kind == 0 || (i * 31 + j * 17 + seed) % 2 == 0
                        };
                        if drop {
                            *v = 0.0;
                        }
                    }
                }
                (rows, n)
            },
        )
    })
}

/// [`arb_matrix`] as sparse rows: at most 11×11, so every plan over it
/// selects the generic loop.
fn arb_small() -> impl Strategy<Value = SparseRows> {
    arb_matrix().prop_map(|(rows, n, m)| {
        let rows = rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(j, &v)| (j, v))
                    .collect()
            })
            .collect();
        (rows, n, m)
    })
}

/// Random square matrix past both shortrow thresholds: 600–999 rows of
/// 8–12 entries at distinct columns (at least 4,800 stored entries), with
/// seeded pseudo-random columns and values.
fn arb_large() -> impl Strategy<Value = SparseRows> {
    (600usize..1000, 0u64..u64::MAX).prop_map(|(n, seed)| {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let stride = n / 12;
        let rows = (0..n)
            .map(|i| {
                let offset = next() as usize;
                let len = 8 + (next() % 5) as usize;
                (0..len)
                    .map(|k| {
                        let value = (next() as f64 / (1u64 << 31) as f64 - 0.5) * 10.0;
                        ((i + offset + k * stride) % n, value)
                    })
                    .collect()
            })
            .collect();
        (rows, n, n)
    })
}

/// The adversarial transforms: row `long_row % n` filled in every column
/// and the row after it emptied, plus, by `poison`, one non-finite entry in
/// the input vector (a reordered reduction would change bits on these).
fn adversarial(
    (mut rows, n, m): SparseRows,
    long_row: usize,
    poison: usize,
) -> (SparseRows, Vec<f64>) {
    if n > 1 {
        let lr = long_row % n;
        rows[lr] = (0..m).map(|j| (j, 0.5 + j as f64 * 1e-3)).collect();
        rows[(lr + 1) % n].clear();
    }
    let mut x = probe_vector(m);
    match poison {
        0 => x[0] = f64::INFINITY,
        1 => x[m - 1] = f64::NAN,
        2 => x[m / 2] = f64::NEG_INFINITY,
        _ => {}
    }
    ((rows, n, m), x)
}

fn probe_vector(m: usize) -> Vec<f64> {
    (0..m).map(|j| ((j * 13 + 5) % 11) as f64 - 5.0).collect()
}

fn sparse_to_csr((rows, n, m): &SparseRows) -> CsrMatrix {
    let mut b = CooBuilder::new(*n, *m);
    for (i, row) in rows.iter().enumerate() {
        for &(j, v) in row {
            b.push(i, j, v);
        }
    }
    b.build()
}

/// Asserts that a plan over `c` selects `kind` and that its pooled
/// products, repeated on a warm pool, are bitwise the serial product.
fn assert_plan_is_bitwise_serial(
    c: &CsrMatrix,
    x: &[f64],
    chunks: usize,
    pool: &WorkerPool,
    kind: KernelKind,
) {
    let mut serial = vec![0.0; c.nrows()];
    c.mul_vec_into(x, &mut serial);
    let serial_bits: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
    let plan = ChunkPlan::new(c, chunks);
    assert_eq!(
        plan.kernel_kind(),
        kind,
        "{} rows, {} nnz",
        c.nrows(),
        c.nnz()
    );
    let mut pooled = vec![1.0; c.nrows()];
    for _ in 0..2 {
        c.mul_vec_pooled_into(x, &mut pooled, &plan, pool);
        let got: Vec<u64> = pooled.iter().map(|v| v.to_bits()).collect();
        assert_eq!(&serial_bits, &got, "kernel {kind}");
    }
}

fn to_csr(rows: &[Vec<f64>], n: usize, m: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(n, m);
    for (i, row) in rows.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 {
                b.push(i, j, v);
            }
        }
    }
    b.build()
}

proptest! {
    #[test]
    fn get_matches_dense((rows, n, m) in arb_matrix()) {
        let c = to_csr(&rows, n, m);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                prop_assert_eq!(c.get(i, j), v);
            }
        }
    }

    #[test]
    fn mul_vec_matches_dense((rows, n, m) in arb_matrix(), seed in 0u64..1000) {
        let c = to_csr(&rows, n, m);
        let x: Vec<f64> = (0..m).map(|j| ((j as u64 + seed) % 7) as f64 - 3.0).collect();
        let want: Vec<f64> = rows
            .iter()
            .map(|row| row.iter().zip(&x).map(|(r, v)| r * v).sum())
            .collect();
        let got = c.mul_vec(&x);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-10, "{g} vs {w}");
        }
    }

    #[test]
    fn vec_mul_is_transpose_mul((rows, n, m) in arb_matrix()) {
        let c = to_csr(&rows, n, m);
        let ct = c.transpose();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut scatter = vec![0.0; m];
        c.vec_mul_into(&x, &mut scatter);
        let gather = ct.mul_vec(&x);
        for (a, b) in scatter.iter().zip(&gather) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_involution((rows, n, m) in arb_matrix()) {
        let c = to_csr(&rows, n, m);
        let tt = c.transpose().transpose();
        prop_assert_eq!(c.nnz(), tt.nnz());
        for (i, j, v) in c.iter() {
            prop_assert_eq!(tt.get(i, j), v);
        }
    }

    /// The pooled kernel is bitwise identical to the serial one on random
    /// matrices, for every combination of pool size and chunk count —
    /// including repeated products on a warm pool (the solver loop shape).
    #[test]
    fn pooled_product_is_bitwise_serial(
        (rows, n, m) in arb_matrix(),
        pool_threads in 1usize..5,
        chunks in 1usize..9,
    ) {
        let c = to_csr(&rows, n, m);
        let x: Vec<f64> = (0..m).map(|j| ((j * 13 + 5) % 11) as f64 - 5.0).collect();
        let mut serial = vec![0.0; n];
        c.mul_vec_into(&x, &mut serial);
        let pool = WorkerPool::new(pool_threads);
        let plan = ChunkPlan::new(&c, chunks);
        let mut pooled = vec![1.0; n];
        for _ in 0..3 {
            c.mul_vec_pooled_into(&x, &mut pooled, &plan, &pool);
            prop_assert_eq!(&serial, &pooled);
        }
    }

    /// Both loops, each forced by a matrix size that selects it — the
    /// generic one on small random matrices, the shortrow one on large
    /// ones — are bitwise identical to the serial product for every
    /// combination of pool size and chunk count, including repeated
    /// products on a warm pool (the solver loop shape).
    #[test]
    fn every_forced_kernel_is_bitwise_serial(
        small in arb_small(),
        large in arb_large(),
        pool_threads in 1usize..5,
        chunks in 1usize..9,
    ) {
        let pool = WorkerPool::new(pool_threads);
        for (rows, kind) in [(small, KernelKind::Generic), (large, KernelKind::ShortRow)] {
            let c = sparse_to_csr(&rows);
            assert_plan_is_bitwise_serial(&c, &probe_vector(rows.2), chunks, &pool, kind);
        }
    }

    /// Both loops are bitwise identical to the serial product on
    /// adversarial inputs, small and large: empty and overlong rows, and
    /// input vectors carrying non-finite values — the cases where a
    /// reordered reduction would change bits.
    #[test]
    fn every_kernel_is_bitwise_serial_on_adversarial_inputs(
        small in arb_small(),
        large in arb_large(),
        pool_threads in 1usize..4,
        chunks in 1usize..9,
        poison in 0usize..4,
        long_row in 0usize..1000,
    ) {
        let pool = WorkerPool::new(pool_threads);
        for (rows, kind) in [(small, KernelKind::Generic), (large, KernelKind::ShortRow)] {
            let (rows, x) = adversarial(rows, long_row, poison);
            let c = sparse_to_csr(&rows);
            assert_plan_is_bitwise_serial(&c, &x, chunks, &pool, kind);
        }
    }

    /// Kernel auto-selection is deterministic: a function of the matrix
    /// alone — repeated analyses and different chunk counts always resolve
    /// the same kernel.
    #[test]
    fn kernel_selection_is_deterministic(
        (rows, n, m) in arb_matrix(),
        chunks_a in 1usize..9,
        chunks_b in 1usize..9,
    ) {
        let c = to_csr(&rows, n, m);
        let first = ChunkPlan::new(&c, chunks_a).kernel_kind();
        prop_assert_eq!(first, ChunkPlan::new(&c, chunks_b).kernel_kind());
        prop_assert_eq!(first, ChunkPlan::new(&c, chunks_a).kernel_kind());
        // An independently rebuilt identical matrix selects identically.
        let again = to_csr(&rows, n, m);
        prop_assert_eq!(first, ChunkPlan::new(&again, chunks_b).kernel_kind());
    }

    /// The direct `(I + αA)ᵀ` builder is bit for bit the two-step form:
    /// `I + αA` assembled by `CooBuilder`, then transposed.
    #[test]
    fn identity_plus_scaled_transposed_is_bitwise_two_step(
        (rows, n) in arb_square(),
        alpha in 0.01f64..2.0,
    ) {
        let a = to_csr(&rows, n, n);
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 1.0);
        }
        for (i, j, v) in a.iter() {
            b.push(i, j, alpha * v);
        }
        let want = b.build().transpose();
        let got = a.identity_plus_scaled_transposed(alpha);
        prop_assert_eq!(got.row_ptr(), want.row_ptr());
        prop_assert_eq!(got.col_idx(), want.col_idx());
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn row_sums_match_dense((rows, n, m) in arb_matrix()) {
        let c = to_csr(&rows, n, m);
        for (i, s) in c.row_sums().iter().enumerate() {
            let want: f64 = rows[i].iter().sum();
            prop_assert!((s - want).abs() < 1e-10);
        }
    }

    #[test]
    fn balanced_chunks_partition_rows((rows, n, m) in arb_matrix(), chunks in 1usize..8) {
        let c = to_csr(&rows, n, m);
        let parts = c.balanced_row_chunks(chunks);
        let mut next = 0;
        for p in &parts {
            prop_assert_eq!(p.start, next);
            next = p.end;
        }
        prop_assert_eq!(next, n);
    }
}

//! Property-based tests for the sparse substrate: every operation is checked
//! against a dense reference on random matrices.

use proptest::prelude::*;
use regenr_sparse::{
    ChunkPlan, CooBuilder, CsrMatrix, KernelChoice, ParallelConfig, WorkerPool, MAX_RHS_BLOCK,
};

/// Every kernel selection a plan accepts.
const ALL_CHOICES: [KernelChoice; 3] = [
    KernelChoice::Auto,
    KernelChoice::Generic,
    KernelChoice::ShortRow,
];

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

    #[test]
    fn parallel_product_is_bitwise_serial((rows, n, m) in arb_matrix(), threads in 1usize..6) {
        let c = to_csr(&rows, n, m);
        let x: Vec<f64> = (0..m).map(|j| 1.0 / (j + 1) as f64).collect();
        let mut serial = vec![0.0; n];
        let mut par = vec![0.0; n];
        c.mul_vec_into(&x, &mut serial);
        let cfg = ParallelConfig { min_nnz: 0, threads, kernel: KernelChoice::Auto, ..Default::default() };
        c.mul_vec_parallel_into(&x, &mut par, &cfg);
        prop_assert_eq!(&serial, &par);
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

    /// Both kernels — forced via the plan — are bitwise
    /// identical to the serial product on random matrices, for every
    /// combination of pool size and chunk count, including repeated
    /// products on a warm pool (the solver loop shape).
    #[test]
    fn every_forced_kernel_is_bitwise_serial(
        (rows, n, m) in arb_matrix(),
        pool_threads in 1usize..5,
        chunks in 1usize..9,
    ) {
        let c = to_csr(&rows, n, m);
        let x: Vec<f64> = (0..m).map(|j| ((j * 13 + 5) % 11) as f64 - 5.0).collect();
        let mut serial = vec![0.0; n];
        c.mul_vec_into(&x, &mut serial);
        let serial_bits: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
        let pool = WorkerPool::new(pool_threads);
        for choice in ALL_CHOICES {
            let plan = ChunkPlan::with_kernel(&c, chunks, choice);
            let mut pooled = vec![1.0; n];
            for _ in 0..2 {
                c.mul_vec_pooled_into(&x, &mut pooled, &plan, &pool);
                let got: Vec<u64> = pooled.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&serial_bits, &got, "kernel {:?}", choice);
            }
        }
    }

    /// Every kernel is bitwise identical to the serial product on
    /// adversarial inputs: empty and overlong rows, and input vectors
    /// carrying non-finite values — the cases where a reordered reduction
    /// would change bits.
    #[test]
    fn every_kernel_is_bitwise_serial_on_adversarial_inputs(
        (rows, n, m) in arb_matrix(),
        pool_threads in 1usize..4,
        chunks in 1usize..9,
        poison in 0usize..4,
        long_row in 0usize..12,
    ) {
        let mut rows = rows;
        // One overlong row (every column filled) and one emptied row.
        if n > 1 {
            let lr = long_row % n;
            for (j, v) in rows[lr].iter_mut().enumerate() {
                *v = 0.5 + j as f64 * 1e-3;
            }
            rows[(lr + 1) % n].iter_mut().for_each(|v| *v = 0.0);
        }
        let c = to_csr(&rows, n, m);
        let mut x: Vec<f64> = (0..m).map(|j| ((j * 13 + 5) % 11) as f64 - 5.0).collect();
        match poison {
            0 => x[0] = f64::INFINITY,
            1 => x[m - 1] = f64::NAN,
            2 => x[m / 2] = f64::NEG_INFINITY,
            _ => {}
        }
        let mut serial = vec![0.0; n];
        c.mul_vec_into(&x, &mut serial);
        let serial_bits: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
        let pool = WorkerPool::new(pool_threads);
        for choice in ALL_CHOICES {
            let plan = ChunkPlan::with_kernel(&c, chunks, choice);
            let mut pooled = vec![1.0; n];
            for _ in 0..2 {
                c.mul_vec_pooled_into(&x, &mut pooled, &plan, &pool);
                let got: Vec<u64> = pooled.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&serial_bits, &got, "kernel {:?}", choice);
            }
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

    /// Blocked SpMM over `k` interleaved right-hand sides is bitwise
    /// identical to `k` independent serial `mul_vec_into` products, for
    /// every kernel, pool size, chunk count, and block width — on
    /// adversarial inputs (ragged rows, emptied rows, and non-finite
    /// poison values where any reordered reduction would change bits).
    #[test]
    fn blocked_spmm_is_bitwise_k_serial_columns(
        (rows, n, m) in arb_matrix(),
        pool_threads in 1usize..4,
        chunks in 1usize..9,
        k in 1usize..MAX_RHS_BLOCK + 1,
        poison in 0usize..4,
        long_row in 0usize..12,
    ) {
        let mut rows = rows;
        if n > 1 {
            let lr = long_row % n;
            for (j, v) in rows[lr].iter_mut().enumerate() {
                *v = 0.5 + j as f64 * 1e-3;
            }
            rows[(lr + 1) % n].iter_mut().for_each(|v| *v = 0.0);
        }
        let c = to_csr(&rows, n, m);
        // k distinct columns; poison one entry of one column.
        let mut cols_x: Vec<Vec<f64>> = (0..k)
            .map(|j| (0..m).map(|i| ((i * 13 + 5 + j * 7) % 11) as f64 - 5.0).collect())
            .collect();
        match poison {
            0 => cols_x[0][0] = f64::INFINITY,
            1 => cols_x[k - 1][m - 1] = f64::NAN,
            2 => cols_x[k / 2][m / 2] = f64::NEG_INFINITY,
            _ => {}
        }
        // Serial reference: one mul_vec_into per column.
        let mut want_bits = vec![0u64; n * k];
        for (j, xj) in cols_x.iter().enumerate() {
            let mut yj = vec![0.0; n];
            c.mul_vec_into(xj, &mut yj);
            for (i, v) in yj.iter().enumerate() {
                want_bits[i * k + j] = v.to_bits();
            }
        }
        // Interleave the inputs.
        let mut x = vec![0.0; m * k];
        for (j, xj) in cols_x.iter().enumerate() {
            for (i, v) in xj.iter().enumerate() {
                x[i * k + j] = *v;
            }
        }
        let pool = WorkerPool::new(pool_threads);
        for choice in ALL_CHOICES {
            let plan = ChunkPlan::with_kernel(&c, chunks, choice);
            let mut y = vec![1.0; n * k];
            for _ in 0..2 {
                c.mul_mat_pooled_into(&x, &mut y, &plan, &pool, k);
                let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(
                    &want_bits, &got,
                    "kernel {:?} k {} (resolved {:?})",
                    choice, k, plan.kernel_kind()
                );
            }
        }
        // The serial blocked entry point obeys the same contract.
        let mut y = vec![1.0; n * k];
        c.mul_mat_into(&x, &mut y, k);
        let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&want_bits, &got, "serial mul_mat_into k {}", k);
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

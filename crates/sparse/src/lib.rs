//! Sparse linear algebra for Markov-chain solvers.
//!
//! The whole workspace manipulates two kinds of objects:
//!
//! * CTMC **generators** `Q` (row sums zero, non-negative off-diagonal),
//! * randomized DTMC **transition matrices** `P = I + Q/Λ` (row-stochastic),
//!
//! both stored as [`CsrMatrix`], whose sparsity pattern ([`CsrPattern`]) is
//! shared through an `Arc` by every matrix known to have the same
//! structure (see [`csr`]). Probability distributions are *row* vectors
//! propagated as `πᵀ ← πᵀ P`; for cache-friendly, parallelizable gathers the
//! solvers keep `Pᵀ` in CSR form and compute `π ← Pᵀ·π` (see
//! [`CsrMatrix::mul_vec_into`] and [`CsrMatrix::mul_vec_pooled_into`]).
//!
//! Parallel products distribute disjoint row chunks over a persistent
//! [`WorkerPool`] of parked threads — no locks or atomics inside a product,
//! data-race freedom by construction, and bitwise-identical results to the
//! serial kernel. Each [`ChunkPlan`] also selects one of the two SpMV
//! [`kernel`] loops (generic or short-row) from the matrix's size. The
//! [`Workspace`] arena gives solvers reusable scratch vectors so
//! sweep-heavy workloads stop allocating in their inner loops.

pub mod builder;
pub mod csr;
pub mod kernel;
pub mod parallel;
pub mod pool;
pub mod simd;
pub mod workspace;

pub use builder::{CooBuilder, CooPlan};
pub use csr::{CsrMatrix, CsrPattern};
pub use kernel::KernelKind;
pub use parallel::{effective_threads, ChunkPlan, ParallelConfig};
pub use pool::{WorkerPool, WorkerPoolStats};
pub use simd::{Backend, BackendChoice};
pub use workspace::{Workspace, WorkspaceStats};

#[cfg(test)]
mod dense_ref {
    //! Dense reference implementations used only by tests.

    /// Dense matrix–vector product `A·x`.
    pub fn dense_mul_vec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, v)| r * v).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense_ref::dense_mul_vec;

    fn random_dense(n: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
        // Small deterministic LCG so the test needs no external RNG.
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
                        if v.abs() < 0.2 {
                            0.0
                        } else {
                            v
                        } // ~40% fill
                    })
                    .collect()
            })
            .collect()
    }

    fn to_csr(a: &[Vec<f64>]) -> CsrMatrix {
        let mut b = CooBuilder::new(a.len(), a[0].len());
        for (i, row) in a.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    b.push(i, j, v);
                }
            }
        }
        b.build()
    }

    #[test]
    fn csr_matches_dense_product() {
        for seed in 0..5u64 {
            let a = random_dense(37, 23, seed);
            let m = to_csr(&a);
            let x: Vec<f64> = (0..23).map(|i| (i as f64 * 0.37).sin()).collect();
            let want = dense_mul_vec(&a, &x);
            let mut got = vec![0.0; 37];
            m.mul_vec_into(&x, &mut got);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-12, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let a = random_dense(301, 301, 7);
        let m = to_csr(&a);
        let x: Vec<f64> = (0..301).map(|i| (i as f64).cos()).collect();
        let mut serial = vec![0.0; 301];
        let mut par = vec![0.0; 301];
        m.mul_vec_into(&x, &mut serial);
        let plan = ChunkPlan::new(&m, 4);
        m.mul_vec_pooled_into(&x, &mut par, &plan, WorkerPool::global());
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s, p, "parallel result must be bitwise identical per row");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = random_dense(19, 31, 3);
        let m = to_csr(&a);
        let tt = m.transpose().transpose();
        assert_eq!(m.nrows(), tt.nrows());
        assert_eq!(m.ncols(), tt.ncols());
        let x: Vec<f64> = (0..31).map(|i| i as f64 + 1.0).collect();
        let mut y1 = vec![0.0; 19];
        let mut y2 = vec![0.0; 19];
        m.mul_vec_into(&x, &mut y1);
        tt.mul_vec_into(&x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-13);
        }
    }
}

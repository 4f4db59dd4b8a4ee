//! Parallel sparse matrix–vector products.
//!
//! The randomization solvers are SpMV-bound: a single `UR(10⁵ h)` standard-
//! randomization run performs millions of products over the same matrix. The
//! parallel kernels here split the *output* rows into nnz-balanced chunks
//! ([`ChunkPlan`]) and let threads write disjoint slices — no synchronization
//! inside the product, deterministic results (each row is reduced serially,
//! so every parallel product is **bitwise identical** to the serial one).
//!
//! A [`ChunkPlan`] is more than the row ranges: at construction it selects
//! one of the two SpMV loops (see [`crate::kernel`]) — generic CSR or
//! unchecked short-row — that every chunk then executes. A plan reads the
//! matrix's pattern alone, so [`CsrMatrix::chunk_plan`] computes it **once
//! per pattern** and chunk count, and every matrix sharing the pattern —
//! rate variants rebound over one `Pᵀ` pattern included — steps with the
//! same plan across millions of products.
//!
//! [`CsrMatrix::mul_vec_folded_into`] runs a plan's chunks on a persistent
//! [`WorkerPool`] of parked threads; this is what the solvers use (via
//! `Uniformized::stepper`), because repeated products pay only a condvar
//! wake instead of per-product thread creation. Steppers plan small
//! matrices as one chunk under [`ParallelConfig::min_nnz`] (a pool wake ≫
//! product cost there), which runs on the calling thread.
//!
//! ## Ordered folds
//!
//! A product's [`RowFold`] sees every row exactly once and **in row
//! order**, whatever the chunk count, the pool size or which thread ran
//! which chunk, so a fold's result is as deterministic as the product's:
//!
//! * a single-chunk plan folds every row inside the kernel;
//! * in a multi-chunk plan the calling thread folds, inside the kernel,
//!   each chunk it claims while the chunks before it are all folded — it
//!   claims in increasing order, so that holds from chunk 0 until a worker
//!   claims one first;
//! * every later chunk (one a worker ran, or one the caller claimed after
//!   that gap) is folded after the pool run returns, row by row over the
//!   stored values, before the product returns.
//!
//! The fold state never crosses a thread: workers run the plain loop, and
//! the caller hands its fold from chunk to chunk by value.

use crate::csr::CsrMatrix;
use crate::kernel::{columns_in_range, KernelKind, RowFold};
use crate::pool::WorkerPool;

/// Tuning for the parallel SpMV kernels.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Below this nnz the serial kernel is used (dispatch overhead ≫ product
    /// cost).
    pub min_nnz: usize,
    /// Chunk count / maximum SpMV concurrency; `0` means "use available
    /// parallelism".
    pub threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            // ~50k nnz ≈ the point where a few microseconds of dispatch
            // overhead stops mattering relative to memory-bound SpMV work.
            min_nnz: 50_000,
            threads: 0,
        }
    }
}

/// Resolves `threads = 0` to the machine's available parallelism.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// An nnz-balanced decomposition of a matrix's rows into contiguous chunks —
/// the unit of work the parallel kernels distribute — plus the SpMV loop
/// every chunk executes. Computing the plan is `O(nrows)`, plus one
/// `O(nnz)` column validation when the short-row loop is selected;
/// [`CsrMatrix::chunk_plan`] computes it **once per pattern** and reuses it
/// across millions of products. A plan holds no copy of the matrix: it
/// serves any matrix of the shape and nnz it was built for.
#[derive(Clone, Debug)]
pub struct ChunkPlan {
    ranges: Vec<std::ops::Range<usize>>,
    kernel: KernelKind,
    nrows: usize,
    ncols: usize,
    nnz: usize,
}

impl ChunkPlan {
    /// Plans `matrix`'s rows into at most `chunks` nnz-balanced pieces and
    /// selects the loop from the matrix's size (`KernelKind::select`).
    pub fn new(matrix: &CsrMatrix, chunks: usize) -> ChunkPlan {
        let kernel = match KernelKind::select(matrix.nnz(), matrix.nrows()) {
            // A matrix violating its own construction invariant never gets
            // the unchecked loop (defense in depth; unreachable through
            // CooBuilder).
            KernelKind::ShortRow if !columns_in_range(matrix) => KernelKind::Generic,
            kind => kind,
        };
        ChunkPlan {
            ranges: matrix.balanced_row_chunks(chunks),
            kernel,
            nrows: matrix.nrows(),
            ncols: matrix.ncols(),
            nnz: matrix.nnz(),
        }
    }

    /// The planned row ranges (contiguous, covering all rows in order).
    pub fn ranges(&self) -> &[std::ops::Range<usize>] {
        &self.ranges
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the plan has no chunks (zero-row matrix).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The loop this plan selected (a function of the matrix alone, never
    /// of the chunk count).
    pub fn kernel_kind(&self) -> KernelKind {
        self.kernel
    }

    /// Panics unless this plan was built for `matrix`'s shape and nnz.
    fn check_matrix(&self, matrix: &CsrMatrix) {
        assert!(
            self.nrows == matrix.nrows()
                && self.ncols == matrix.ncols()
                && self.nnz == matrix.nnz(),
            "chunk plan does not cover this matrix's shape"
        );
    }
}

/// Invariant of the ordered fold: the caller's chunk hands its fold back.
const HANDED_BACK: &str = "the fold is handed back after every chunk";

/// A raw mutable pointer that may cross threads: the pooled kernel hands
/// each chunk a disjoint slice of the output vector.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl CsrMatrix {
    /// `y = A·x` over a precomputed [`ChunkPlan`] on a persistent
    /// [`WorkerPool`], through the plan's loop: the no-op fold of
    /// [`CsrMatrix::mul_vec_folded_into`]. Bitwise identical to
    /// [`CsrMatrix::mul_vec_into`] regardless of the kernel, the pool size,
    /// or how chunks get claimed.
    ///
    /// # Panics
    /// If `x`/`y` lengths mismatch the matrix, or the plan was built for a
    /// different shape or nnz.
    pub fn mul_vec_pooled_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        plan: &ChunkPlan,
        pool: &WorkerPool,
    ) {
        self.mul_vec_folded_into(x, y, plan, pool, ());
    }

    /// `y = A·x` with every row passed through `fold` in row order (see
    /// the module docs): row `i` stores `fold.row(i, (A·x)_i)`. Returns the
    /// fold. The stored values and the fold's result are bitwise
    /// independent of the pool size and of how chunks get claimed;
    /// single-chunk plans skip the pool entirely and run the kernel on the
    /// calling thread.
    ///
    /// # Panics
    /// If `x`/`y` lengths mismatch the matrix, or the plan was built for a
    /// different shape or nnz.
    pub fn mul_vec_folded_into<F: RowFold>(
        &self,
        x: &[f64],
        y: &mut [f64],
        plan: &ChunkPlan,
        pool: &WorkerPool,
        fold: F,
    ) -> F {
        assert_eq!(x.len(), self.ncols(), "x length mismatch");
        assert_eq!(y.len(), self.nrows(), "y length mismatch");
        plan.check_matrix(self);
        if plan.len() <= 1 {
            let Some(range) = plan.ranges.first() else {
                return fold;
            };
            // Same fault name as the pooled path: single-chunk plans
            // (1-core machines) must still be able to inject a chunk
            // death for the supervisor's recovery story.
            regenr_failpoint::failpoint!("pool-chunk");
            return plan.kernel.mul_rows(self, x, y, range.clone(), fold);
        }
        let out = SendPtr(y.as_mut_ptr());
        let chunk = move |c: usize| {
            let out = out;
            let range = plan.ranges[c].clone();
            // SAFETY: plan ranges are disjoint and within nrows == y.len(),
            // and each chunk index is claimed once, so each chunk writes a
            // private slice of `y`.
            let slice =
                unsafe { std::slice::from_raw_parts_mut(out.0.add(range.start), range.len()) };
            (slice, range)
        };
        // The caller's fold, and how many leading chunks it has folded.
        let mut state = Some(fold);
        let mut folded = 0;
        pool.run_split(
            plan.len(),
            |c| {
                let (slice, range) = chunk(c);
                plan.kernel.mul_rows(self, x, slice, range, ());
            },
            |c| {
                let (slice, range) = chunk(c);
                if c == folded {
                    let fold = state.take().expect(HANDED_BACK);
                    state = Some(plan.kernel.mul_rows(self, x, slice, range, fold));
                    folded += 1;
                } else {
                    plan.kernel.mul_rows(self, x, slice, range, ());
                }
            },
        );
        let mut fold = state.expect(HANDED_BACK);
        let start = plan.ranges.get(folded).map_or(y.len(), |r| r.start);
        for (i, v) in y.iter_mut().enumerate().skip(start) {
            *v = fold.row(i, *v);
        }
        fold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CooBuilder;

    fn band_matrix(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0 + i as f64 * 1e-3);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -0.5);
            }
        }
        b.build()
    }

    #[test]
    fn pooled_with_explicit_plan_and_pool() {
        // One band matrix below the shortrow threshold and one above it, so
        // both loops run pooled.
        for (n, kind) in [(503, KernelKind::Generic), (1_501, KernelKind::ShortRow)] {
            let m = band_matrix(n);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut want = vec![0.0; n];
            m.mul_vec_into(&x, &mut want);
            for pool_threads in [1, 2, 5] {
                let pool = WorkerPool::new(pool_threads);
                for chunks in [1, 2, 7, 32] {
                    let plan = ChunkPlan::new(&m, chunks);
                    assert_eq!(plan.kernel_kind(), kind, "n={n}");
                    let mut got = vec![0.0; n];
                    // Repeated products on the same warm pool and plan.
                    for _ in 0..3 {
                        m.mul_vec_pooled_into(&x, &mut got, &plan, &pool);
                    }
                    assert_eq!(got, want, "n={n} pool={pool_threads} chunks={chunks}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk plan does not cover")]
    fn plan_from_wrong_matrix_is_rejected() {
        let a = band_matrix(10);
        let b = band_matrix(20);
        let plan = ChunkPlan::new(&a, 2);
        let mut y = vec![0.0; 20];
        b.mul_vec_pooled_into(&[1.0; 20], &mut y, &plan, WorkerPool::global());
    }

    /// A separately built identical matrix (bitwise-identical content,
    /// its own pattern allocation) is a valid plan target, for the
    /// unchecked loop too.
    #[test]
    fn plan_accepts_an_identical_clone() {
        let n = 1_501;
        let a = band_matrix(n);
        let b = band_matrix(n);
        assert!(!std::sync::Arc::ptr_eq(a.pattern(), b.pattern()));
        let plan = ChunkPlan::new(&a, 2);
        assert_eq!(plan.kernel_kind(), KernelKind::ShortRow);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut want = vec![0.0; n];
        a.mul_vec_into(&x, &mut want);
        let mut got = vec![0.0; n];
        b.mul_vec_pooled_into(&x, &mut got, &plan, WorkerPool::global());
        assert_eq!(want, got);
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn more_threads_than_rows() {
        let m = band_matrix(3);
        let plan = ChunkPlan::new(&m, 16);
        assert!(plan.len() <= 3, "never more chunks than rows");
        let mut y = vec![0.0; 3];
        m.mul_vec_pooled_into(&[1.0, 2.0, 3.0], &mut y, &plan, &WorkerPool::new(4));
        let mut want = vec![0.0; 3];
        m.mul_vec_into(&[1.0, 2.0, 3.0], &mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn spawn_and_pool_share_the_chunk_bounds() {
        let m = band_matrix(200);
        for chunks in [1, 3, 8] {
            let plan = ChunkPlan::new(&m, chunks);
            let direct = m.balanced_row_chunks(chunks);
            assert_eq!(plan.ranges(), &direct[..], "chunks={chunks}");
        }
    }
}

//! Parallel sparse matrix–vector products.
//!
//! The randomization solvers are SpMV-bound: a single `UR(10⁵ h)` standard-
//! randomization run performs millions of products over the same matrix. The
//! parallel kernels here split the *output* rows into nnz-balanced chunks
//! ([`ChunkPlan`]) and let threads write disjoint slices — no synchronization
//! inside the product, deterministic results (each row is reduced serially,
//! so every parallel product is **bitwise identical** to the serial one).
//!
//! A [`ChunkPlan`] is more than the row ranges: at construction it resolves
//! one of the two SpMV loops (see [`crate::kernel`]) — generic CSR or
//! unchecked short-row — that every chunk then executes. Steppers compute
//! the plan **once per matrix** and reuse it across millions of products
//! (`Uniformized::stepper` in `regenr-ctmc` caches plans per
//! `(chunk count, kernel choice, block width)`).
//!
//! [`CsrMatrix::mul_vec_pooled_into`] runs a plan's chunks on a persistent
//! [`WorkerPool`] of parked threads; this is what the solvers use (via
//! `Uniformized::stepper`), because repeated products pay only a condvar
//! wake instead of per-product thread creation.
//! [`CsrMatrix::mul_vec_parallel_into`] keeps its historical signature and
//! routes through the shared global pool; small matrices fall back to the
//! serial path under [`ParallelConfig::min_nnz`] (a pool wake ≫ product cost
//! there).

use crate::csr::CsrMatrix;
use crate::kernel::{Kernel, KernelChoice, KernelKind, MAX_RHS_BLOCK};
use crate::pool::WorkerPool;

/// How many right-hand sides one streaming pass of the matrix should move
/// (blocked SpMM). The matrix is the bandwidth bottleneck: stepping `k`
/// vectors per pass amortizes the stream over `k` results, so per-vector
/// cost drops nearly `k`-fold once the kernels are memory-bound. Affects
/// speed only — each of the `k` columns is accumulated exactly as the
/// serial single-vector product would, so every column stays bitwise
/// identical to [`CsrMatrix::mul_vec_into`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RhsBlockChoice {
    /// Let the caller's grouping logic pick a width **per resolved kernel**
    /// (see [`RhsBlockChoice::auto_width`]) whenever at least two
    /// compatible computations can share a pass, else serial.
    #[default]
    Auto,
    /// A fixed block width (1, 2, 4, or 8); `1` disables blocking.
    Fixed(usize),
}

impl RhsBlockChoice {
    /// Parses `"auto" | "1" | "2" | "4" | "8"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(Self::Auto),
            "1" => Ok(Self::Fixed(1)),
            "2" => Ok(Self::Fixed(2)),
            "4" => Ok(Self::Fixed(4)),
            "8" => Ok(Self::Fixed(8)),
            other => Err(format!(
                "unknown rhs_block {other:?} (expected auto, 1, 2, 4, or 8)"
            )),
        }
    }

    /// The canonical spelling [`RhsBlockChoice::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Fixed(1) => "1",
            Self::Fixed(2) => "2",
            Self::Fixed(4) => "4",
            Self::Fixed(8) => "8",
            Self::Fixed(_) => "fixed",
        }
    }

    /// The measured `Auto` block width for each resolved kernel (the
    /// blocked-RHS ablation in `repro kernels` / `results/kernels.csv`):
    /// shortrow's per-cell speedup keeps growing through `k = 8` (2.19× at
    /// G=40, 2.83× at G=20 over `k = 1`, vs 1.99×/2.43× at `k = 4`) because
    /// its bitwise in-order reduction is latency-bound and wider blocks hide
    /// more of it; generic stays at the all-round `k = 4`, where its
    /// bounds-checked blocked loop plateaus.
    pub fn auto_width(kind: KernelKind) -> usize {
        match kind {
            KernelKind::ShortRow => MAX_RHS_BLOCK,
            KernelKind::Generic => 4,
        }
    }

    /// The width the caller's *grouping* stage should chunk compatible
    /// computations to, before the kernel is resolved: `Auto` groups up to
    /// [`MAX_RHS_BLOCK`] (execution narrows to
    /// [`RhsBlockChoice::resolve_for`]'s per-kernel width once the kernel
    /// is known), fixed widths are clamped to `[1, MAX_RHS_BLOCK]`.
    pub fn plan_width(self, group: usize) -> usize {
        match self {
            Self::Auto => {
                if group >= 2 {
                    MAX_RHS_BLOCK
                } else {
                    1
                }
            }
            Self::Fixed(k) => k.clamp(1, MAX_RHS_BLOCK),
        }
    }

    /// Resolves the *execution* block width for a group of `group`
    /// compatible computations running on kernel `kind`: `Auto` uses the
    /// per-kernel [`RhsBlockChoice::auto_width`] table when there is
    /// anything to group, fixed widths are clamped to
    /// `[1, MAX_RHS_BLOCK]`.
    pub fn resolve_for(self, kind: KernelKind, group: usize) -> usize {
        match self {
            Self::Auto => {
                if group >= 2 {
                    Self::auto_width(kind)
                } else {
                    1
                }
            }
            Self::Fixed(k) => k.clamp(1, MAX_RHS_BLOCK),
        }
    }
}

/// Tuning for the parallel SpMV kernels.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Below this nnz the serial kernel is used (dispatch overhead ≫ product
    /// cost).
    pub min_nnz: usize,
    /// Chunk count / maximum SpMV concurrency; `0` means "use available
    /// parallelism".
    pub threads: usize,
    /// Which SpMV loop plan-driven products run (steppers and explicit
    /// [`ChunkPlan`]s) — [`KernelChoice::Auto`] picks from the matrix's
    /// size. [`CsrMatrix::mul_vec_parallel_into`] ignores this field and
    /// always runs the generic loop: it re-plans every call, where the
    /// short-row loop's one-time column validation would rival the product
    /// it serves. Both loops are bitwise identical to the serial product,
    /// so this knob affects speed only.
    pub kernel: KernelChoice,
    /// Blocked-RHS stepping width for callers that can batch compatible
    /// computations over one matrix (see [`RhsBlockChoice`]). Speed only:
    /// every blocked column is bitwise identical to the serial product.
    pub rhs_block: RhsBlockChoice,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            // ~50k nnz ≈ the point where a few microseconds of dispatch
            // overhead stops mattering relative to memory-bound SpMV work.
            min_nnz: 50_000,
            threads: 0,
            kernel: KernelChoice::Auto,
            rhs_block: RhsBlockChoice::Auto,
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
/// the unit of work the parallel kernels distribute — plus the resolved
/// [`Kernel`] every chunk executes. Computing the plan is `O(nrows)`, plus
/// one `O(nnz)` column validation when the short-row loop is selected;
/// steppers compute it **once per matrix** and reuse it across millions of
/// products. A plan holds no copy of the matrix: it serves any matrix of
/// the shape and nnz it was built for.
#[derive(Clone, Debug)]
pub struct ChunkPlan {
    ranges: Vec<std::ops::Range<usize>>,
    kernel: Kernel,
    nrows: usize,
    nnz: usize,
}

impl ChunkPlan {
    /// Plans `matrix`'s rows into at most `chunks` nnz-balanced pieces,
    /// auto-selecting the kernel from the matrix's size.
    pub fn new(matrix: &CsrMatrix, chunks: usize) -> ChunkPlan {
        Self::with_kernel(matrix, chunks, KernelChoice::Auto)
    }

    /// Like [`ChunkPlan::new`] with an explicit kernel choice.
    pub fn with_kernel(matrix: &CsrMatrix, chunks: usize, choice: KernelChoice) -> ChunkPlan {
        ChunkPlan {
            ranges: matrix.balanced_row_chunks(chunks),
            kernel: Kernel::build(matrix, choice),
            nrows: matrix.nrows(),
            nnz: matrix.nnz(),
        }
    }

    /// Rebinds this plan to `matrix`: a matrix with the **identical
    /// sparsity structure** as `donor` (the matrix this plan was built
    /// from) but new values. The nnz-balanced chunk ranges and the
    /// resolved kernel carry over unchanged — both are deterministic
    /// functions of the structure alone — so the rebound plan skips the
    /// chunking pass and the column validation.
    ///
    /// # Panics
    /// If this plan was not built from `donor`, or `donor` and `matrix`
    /// differ in shape, row pointers, or column indices — the carried-over
    /// column validation would not cover `matrix` otherwise, so the
    /// structure match is asserted, not assumed.
    pub fn rebind(&self, donor: &CsrMatrix, matrix: &CsrMatrix) -> ChunkPlan {
        self.check_matrix(donor);
        assert!(
            donor.nrows() == matrix.nrows()
                && donor.ncols() == matrix.ncols()
                && donor.row_ptr() == matrix.row_ptr()
                && donor.col_idx() == matrix.col_idx(),
            "plan rebind requires identical sparsity structure"
        );
        self.clone()
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

    /// The kernel this plan resolved (selection is deterministic: a function
    /// of the matrix alone, never of the chunk count).
    pub fn kernel_kind(&self) -> KernelKind {
        self.kernel.kind()
    }

    /// The resolved kernel.
    pub(crate) fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Panics unless this plan covers `matrix`'s rows and entries.
    fn check_matrix(&self, matrix: &CsrMatrix) {
        assert!(
            self.nrows == matrix.nrows() && self.nnz == matrix.nnz(),
            "chunk plan does not cover this matrix's rows"
        );
    }
}

/// A raw mutable pointer that may cross threads: the pooled kernel hands
/// each chunk a disjoint slice of the output vector.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl CsrMatrix {
    /// `y = A·x` over a precomputed [`ChunkPlan`] on a persistent
    /// [`WorkerPool`], through the plan's resolved kernel. Bitwise identical
    /// to [`CsrMatrix::mul_vec_into`] regardless of the kernel, the pool
    /// size, or how chunks get claimed; single-chunk plans skip the pool
    /// entirely and run the kernel on the calling thread.
    ///
    /// # Panics
    /// If `x`/`y` lengths mismatch the matrix, or the plan was built from a
    /// different matrix (shape/nnz mismatch).
    pub fn mul_vec_pooled_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        plan: &ChunkPlan,
        pool: &WorkerPool,
    ) {
        assert_eq!(x.len(), self.ncols(), "x length mismatch");
        assert_eq!(y.len(), self.nrows(), "y length mismatch");
        plan.check_matrix(self);
        if plan.len() <= 1 {
            if let Some(range) = plan.ranges.first() {
                // Same fault name as the pooled path: single-chunk plans
                // (1-core machines) must still be able to inject a chunk
                // death for the supervisor's recovery story.
                regenr_failpoint::failpoint!("pool-chunk");
                plan.kernel().mul_rows(self, x, y, range.clone());
            }
            return;
        }
        let out = SendPtr(y.as_mut_ptr());
        pool.run(plan.len(), move |c| {
            let out = out;
            let range = plan.ranges[c].clone();
            // SAFETY: plan ranges are disjoint and within nrows == y.len(),
            // so each chunk writes a private slice of `y`.
            let slice =
                unsafe { std::slice::from_raw_parts_mut(out.0.add(range.start), range.len()) };
            plan.kernel().mul_rows(self, x, slice, range);
        });
    }

    /// Blocked `Y = A·X` for `k` interleaved right-hand sides over a
    /// precomputed [`ChunkPlan`] on a persistent [`WorkerPool`]: `x` holds
    /// `ncols` rows of `k` columns (`x[c*k + j]`), `y` receives `nrows`
    /// rows of `k` columns. One streaming pass of the matrix moves all `k`
    /// vectors, which is what breaks the bandwidth wall for multi-horizon
    /// sweeps. Every column is bitwise identical to the serial
    /// [`CsrMatrix::mul_vec_into`] on that column alone, regardless of the
    /// kernel, block width, pool size, or chunking.
    ///
    /// # Panics
    /// If `k` is 0 or exceeds [`MAX_RHS_BLOCK`], `x`/`y` lengths mismatch
    /// `ncols*k`/`nrows*k`, or the plan was built from a different matrix.
    pub fn mul_mat_pooled_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        plan: &ChunkPlan,
        pool: &WorkerPool,
        k: usize,
    ) {
        assert!(
            (1..=MAX_RHS_BLOCK).contains(&k),
            "rhs block {k} out of range"
        );
        if k == 1 {
            return self.mul_vec_pooled_into(x, y, plan, pool);
        }
        assert_eq!(x.len(), self.ncols() * k, "x length mismatch");
        assert_eq!(y.len(), self.nrows() * k, "y length mismatch");
        plan.check_matrix(self);
        if plan.len() <= 1 {
            if let Some(range) = plan.ranges.first() {
                regenr_failpoint::failpoint!("pool-chunk");
                plan.kernel().mul_rows_block(self, x, y, range.clone(), k);
            }
            return;
        }
        let out = SendPtr(y.as_mut_ptr());
        pool.run(plan.len(), move |c| {
            let out = out;
            let range = plan.ranges[c].clone();
            // SAFETY: plan ranges are disjoint and within nrows, so each
            // chunk writes a private `k`-column slice of `y`.
            let slice = unsafe {
                std::slice::from_raw_parts_mut(out.0.add(range.start * k), range.len() * k)
            };
            plan.kernel().mul_rows_block(self, x, slice, range, k);
        });
    }

    /// `y = A·x` through the shared global [`WorkerPool`], planning chunks
    /// per call. Falls back to [`CsrMatrix::mul_vec_into`] when the matrix
    /// is small or only one thread is requested. Results are bitwise
    /// identical to the serial product.
    ///
    /// Callers issuing *repeated* products over one matrix should prefer a
    /// cached plan (`Uniformized::stepper` in `regenr-ctmc`) — this entry
    /// point re-plans every call, so it always uses the generic kernel (a
    /// per-call column validation would rival the product it serves).
    pub fn mul_vec_parallel_into(&self, x: &[f64], y: &mut [f64], cfg: &ParallelConfig) {
        assert_eq!(x.len(), self.ncols(), "x length mismatch");
        assert_eq!(y.len(), self.nrows(), "y length mismatch");
        let threads = effective_threads(cfg.threads);
        if self.nnz() < cfg.min_nnz || threads <= 1 {
            self.mul_vec_into(x, y);
            return;
        }
        let plan = ChunkPlan::with_kernel(self, threads, KernelChoice::Generic);
        self.mul_vec_pooled_into(x, y, &plan, WorkerPool::global());
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

    const ALL_CHOICES: [KernelChoice; 3] = [
        KernelChoice::Auto,
        KernelChoice::Generic,
        KernelChoice::ShortRow,
    ];

    #[test]
    fn parallel_equals_serial_various_thread_counts() {
        let n = 997;
        let m = band_matrix(n);
        let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        let mut want = vec![0.0; n];
        m.mul_vec_into(&x, &mut want);
        for threads in [1, 2, 3, 8, 64] {
            let cfg = ParallelConfig {
                min_nnz: 0,
                threads,
                kernel: KernelChoice::Auto,
                ..Default::default()
            };
            let mut got = vec![0.0; n];
            m.mul_vec_parallel_into(&x, &mut got, &cfg);
            assert_eq!(got, want, "pooled threads={threads}");
        }
    }

    #[test]
    fn pooled_with_explicit_plan_and_pool() {
        let n = 503;
        let m = band_matrix(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut want = vec![0.0; n];
        m.mul_vec_into(&x, &mut want);
        for pool_threads in [1, 2, 5] {
            let pool = WorkerPool::new(pool_threads);
            for chunks in [1, 2, 7, 32] {
                for choice in ALL_CHOICES {
                    let plan = ChunkPlan::with_kernel(&m, chunks, choice);
                    let mut got = vec![0.0; n];
                    // Repeated products on the same warm pool and plan.
                    for _ in 0..3 {
                        m.mul_vec_pooled_into(&x, &mut got, &plan, &pool);
                    }
                    assert_eq!(got, want, "pool={pool_threads} chunks={chunks} {choice:?}");
                }
            }
        }
    }

    /// Pooled blocked products: every column bitwise identical to serial,
    /// across kernels, pool sizes, chunk counts, and block widths.
    #[test]
    fn pooled_blocked_product_is_bitwise_serial_per_column() {
        let n = 337;
        let m = band_matrix(n);
        let mut want = vec![0.0; n];
        let x: Vec<f64> = (0..n).map(|i| ((i * 13) % 29) as f64 - 14.0).collect();
        m.mul_vec_into(&x, &mut want);
        let pool = WorkerPool::new(3);
        for k in [1usize, 2, 4, 8] {
            let xk: Vec<f64> = (0..n * k).map(|i| x[i / k]).collect();
            for chunks in [1, 2, 7] {
                for choice in ALL_CHOICES {
                    let plan = ChunkPlan::with_kernel(&m, chunks, choice);
                    let mut got = vec![0.0; n * k];
                    m.mul_mat_pooled_into(&xk, &mut got, &plan, &pool, k);
                    for r in 0..n {
                        for j in 0..k {
                            assert_eq!(
                                got[r * k + j].to_bits(),
                                want[r].to_bits(),
                                "k={k} chunks={chunks} {choice:?} row {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rhs_block_choice_parses_and_resolves() {
        assert_eq!(RhsBlockChoice::parse("auto"), Ok(RhsBlockChoice::Auto));
        assert_eq!(RhsBlockChoice::parse("4"), Ok(RhsBlockChoice::Fixed(4)));
        assert!(RhsBlockChoice::parse("3").is_err());
        assert!(RhsBlockChoice::parse("16").is_err());
        // Grouping width: Auto chunks to the table maximum (execution
        // narrows per kernel), singleton groups never block.
        assert_eq!(RhsBlockChoice::Auto.plan_width(1), 1);
        assert_eq!(RhsBlockChoice::Auto.plan_width(2), MAX_RHS_BLOCK);
        assert_eq!(RhsBlockChoice::Fixed(1).plan_width(100), 1);
        assert_eq!(RhsBlockChoice::Fixed(8).plan_width(2), 8);
        // Execution width: per-kernel under Auto, clamped fixed otherwise.
        for kind in [KernelKind::Generic, KernelKind::ShortRow] {
            assert_eq!(RhsBlockChoice::Auto.resolve_for(kind, 1), 1, "{kind:?}");
            assert_eq!(
                RhsBlockChoice::Auto.resolve_for(kind, 2),
                RhsBlockChoice::auto_width(kind),
                "{kind:?}"
            );
            assert_eq!(RhsBlockChoice::Fixed(8).resolve_for(kind, 2), 8);
        }
        assert_eq!(RhsBlockChoice::auto_width(KernelKind::ShortRow), 8);
        assert_eq!(RhsBlockChoice::auto_width(KernelKind::Generic), 4);
        assert_eq!(RhsBlockChoice::Fixed(4).name(), "4");
    }

    /// Rebinding a plan to a same-structure different-values matrix must
    /// keep the resolved kernel and chunk ranges and produce products
    /// bitwise identical to a plan built fresh on the new matrix.
    #[test]
    fn plan_rebind_matches_fresh_build_for_every_kernel() {
        let n = 256;
        let a = band_matrix(n);
        let mut bld = CooBuilder::new(n, n);
        for (i, j, v) in a.iter() {
            bld.push(i, j, v * 1.75 + 0.125); // same pattern, new values
        }
        let b = bld.build();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 23) as f64 - 11.0).collect();
        let mut want = vec![0.0; n];
        b.mul_vec_into(&x, &mut want);
        let pool = WorkerPool::new(2);
        for choice in ALL_CHOICES {
            let donor_plan = ChunkPlan::with_kernel(&a, 3, choice);
            let rebound = donor_plan.rebind(&a, &b);
            assert_eq!(rebound.kernel_kind(), donor_plan.kernel_kind());
            assert_eq!(rebound.ranges(), donor_plan.ranges());
            let mut got = vec![0.0; n];
            b.mul_vec_pooled_into(&x, &mut got, &rebound, &pool);
            for r in 0..n {
                assert_eq!(
                    got[r].to_bits(),
                    want[r].to_bits(),
                    "{choice:?} row {r} after rebind"
                );
            }
            // Blocked path too.
            let k = 4;
            let xk: Vec<f64> = (0..n * k).map(|i| x[i / k]).collect();
            let mut gotk = vec![0.0; n * k];
            b.mul_mat_pooled_into(&xk, &mut gotk, &rebound, &pool, k);
            for r in 0..n {
                for j in 0..k {
                    assert_eq!(gotk[r * k + j].to_bits(), want[r].to_bits());
                }
            }
        }
    }

    /// Rebinding across different structures must be rejected loudly.
    #[test]
    #[should_panic(expected = "identical sparsity structure")]
    fn rebind_across_structures_is_rejected() {
        let a = band_matrix(64);
        let mut bld = CooBuilder::new(64, 64);
        for i in 0..64 {
            bld.push(i, i, 1.0); // diagonal-only: different pattern
        }
        let b = bld.build();
        let plan = ChunkPlan::new(&a, 2);
        let _ = plan.rebind(&a, &b);
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

    /// A clone (bitwise-identical content, different allocation) is a valid
    /// plan target.
    #[test]
    fn plan_accepts_an_identical_clone() {
        let n = 64;
        let a = band_matrix(n);
        let b = a.clone();
        let plan = ChunkPlan::with_kernel(&a, 2, KernelChoice::ShortRow);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut want = vec![0.0; n];
        a.mul_vec_into(&x, &mut want);
        let mut got = vec![0.0; n];
        b.mul_vec_pooled_into(&x, &mut got, &plan, WorkerPool::global());
        assert_eq!(want, got);
    }

    #[test]
    fn small_matrix_uses_serial_path() {
        let m = band_matrix(4);
        let cfg = ParallelConfig::default(); // min_nnz = 50k > nnz
        let mut y = vec![0.0; 4];
        m.mul_vec_parallel_into(&[1.0; 4], &mut y, &cfg);
        let mut want = vec![0.0; 4];
        m.mul_vec_into(&[1.0; 4], &mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn more_threads_than_rows() {
        let m = band_matrix(3);
        let cfg = ParallelConfig {
            min_nnz: 0,
            threads: 16,
            kernel: KernelChoice::Auto,
            ..Default::default()
        };
        let mut y = vec![0.0; 3];
        m.mul_vec_parallel_into(&[1.0, 2.0, 3.0], &mut y, &cfg);
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

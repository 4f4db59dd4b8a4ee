//! Randomization (uniformization) of a CTMC.
//!
//! Given a CTMC with generator `Q` and a rate `Λ ≥ max_i |q_ii|`, the
//! randomized DTMC has transition matrix `P = I + Q/Λ`; the CTMC at time `t`
//! equals the DTMC observed at a Poisson(`Λt`) number of steps. Every solver
//! in the workspace starts from a [`Uniformized`] view.

use crate::chain::Ctmc;
use regenr_sparse::{
    effective_threads, Backend, ChunkPlan, CsrMatrix, KernelChoice, KernelKind, ParallelConfig,
    WorkerPool,
};
use std::sync::{Arc, Mutex};

/// Shared memo of nnz-balanced [`ChunkPlan`]s for `Pᵀ`, keyed by
/// [`PlanKey`] `(chunks, kernel)` — a plan carries the resolved SpMV
/// loop, so forcing a different kernel yields a distinct plan. Wrapped in
/// an `Arc` so clones of a [`Uniformized`] share the same plans (they
/// describe the same matrix); the inner list is tiny — one entry per
/// distinct configuration ever requested.
#[derive(Clone, Debug, Default)]
struct PlanCache(Arc<Mutex<PlanList>>);

/// Everything that distinguishes one cached plan from another: the chunk
/// decomposition and the kernel resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PlanKey {
    chunks: usize,
    kernel: KernelChoice,
}

/// `(key, plan)` pairs; linear scan — a handful of entries at most.
type PlanList = Vec<(PlanKey, Arc<ChunkPlan>)>;

impl PlanCache {
    fn get_or_plan(&self, matrix: &CsrMatrix, key: PlanKey) -> Arc<ChunkPlan> {
        let mut plans = regenr_sparse::pool::lock(&self.0);
        if let Some((_, plan)) = plans.iter().find(|(k, _)| *k == key) {
            return plan.clone();
        }
        let plan = Arc::new(ChunkPlan::with_kernel(matrix, key.chunks, key.kernel));
        plans.push((key, plan.clone()));
        plan
    }
}

/// A uniformized view of a CTMC: the randomized DTMC matrix `P`, its transpose
/// (for gather-style products) and the randomization rate `Λ`.
#[derive(Clone, Debug)]
pub struct Uniformized {
    /// Randomization rate `Λ`.
    pub lambda: f64,
    /// `P = I + Q/Λ` (row-stochastic).
    pub p: CsrMatrix,
    /// `Pᵀ`, used to propagate row distributions as `π ← Pᵀπ`.
    pub p_t: CsrMatrix,
    /// Chunk plans for `p_t`, computed once per chunk count (see
    /// [`Uniformized::stepper`]).
    plans: PlanCache,
    /// Source position in `p`'s value array for each `p_t` entry — the
    /// transpose permutation, computed lazily by the first
    /// [`Uniformized::rebind_values`] and shared with every rebound
    /// descendant (same pattern ⇒ same permutation). Later rebinds fill
    /// `Pᵀ` with a sequential-write gather instead of re-running the
    /// transpose counting sort.
    t_perm: std::sync::OnceLock<Arc<Vec<u32>>>,
}

/// A DTMC stepping kernel bound to one uniformization: the chunk plan — and
/// with it the SpMV loop the plan resolved — is computed **once** (and
/// cached on the [`Uniformized`]) instead of per product, and repeated
/// steps run on the persistent shared [`WorkerPool`] —
/// the execution shape every SpMV-bound solver loop wants. Obtain one from
/// [`Uniformized::stepper`]; results are bitwise identical to the serial
/// product regardless of kernel, pool size, or chunk count.
pub struct Stepper<'a> {
    p_t: &'a CsrMatrix,
    /// Single-chunk plans run the kernel directly on the calling thread
    /// with zero dispatch overhead (matrix below the parallel threshold, or
    /// one thread requested).
    plan: Arc<ChunkPlan>,
    pool: &'static Arc<WorkerPool>,
}

impl Stepper<'_> {
    /// One DTMC step: `out = Pᵀ·π`.
    pub fn step(&self, pi: &[f64], out: &mut [f64]) {
        self.p_t.mul_vec_pooled_into(pi, out, &self.plan, self.pool);
    }

    /// Whether steps are dispatched to the worker pool (`false` ⇒ the
    /// kernel runs serially on the calling thread).
    pub fn is_pooled(&self) -> bool {
        self.plan.len() > 1
    }

    /// The SpMV loop steps execute (reported in the engine's per-cell
    /// output).
    pub fn kernel_kind(&self) -> KernelKind {
        self.plan.kernel_kind()
    }

    /// The execution backend: always [`Backend::Scalar`]. Kept for the
    /// benchmark harness, which records it per cell.
    pub fn backend(&self) -> Backend {
        Backend::Scalar
    }
}

impl Uniformized {
    /// Uniformizes at `Λ = (1+θ) · max_i |q_ii|`.
    ///
    /// `θ = 0` is the paper's choice (rate exactly the maximum output rate).
    /// Strictly positive `θ` guarantees an aperiodic DTMC (every state gets a
    /// self-loop), which matters for steady-state detection. If the chain has
    /// no transitions at all (`max = 0`), `Λ = 1` is used.
    pub fn new(ctmc: &Ctmc, theta: f64) -> Self {
        assert!(theta >= 0.0, "safety factor must be non-negative");
        let max_rate = ctmc.generator().max_abs_diag();
        let lambda = if max_rate == 0.0 {
            1.0
        } else {
            max_rate * (1.0 + theta)
        };
        Self::with_rate(ctmc, lambda)
    }

    /// Uniformizes at an explicit rate `Λ ≥ max_i |q_ii|`.
    ///
    /// # Panics
    /// If `Λ` is below the maximum output rate (the resulting matrix would
    /// have negative diagonal entries).
    pub fn with_rate(ctmc: &Ctmc, lambda: f64) -> Self {
        let max_rate = ctmc.generator().max_abs_diag();
        assert!(
            lambda >= max_rate * (1.0 - 1e-12),
            "uniformization rate {lambda} below max output rate {max_rate}"
        );
        let p = ctmc.generator().identity_plus_scaled(1.0 / lambda);
        debug_assert!(p.is_row_stochastic(1e-9));
        let p_t = p.transpose();
        Uniformized {
            lambda,
            p,
            p_t,
            plans: PlanCache::default(),
            t_perm: std::sync::OnceLock::new(),
        }
    }

    /// A stepping kernel with its chunk plan (and SpMV loop) resolved once
    /// under `cfg` (see [`Stepper`]) and cached per `(chunks, kernel)`.
    /// Solver loops build this once per solve and call [`Stepper::step`]
    /// per product.
    pub fn stepper(&self, cfg: &ParallelConfig) -> Stepper<'_> {
        let threads = effective_threads(cfg.threads);
        let chunks = if self.p_t.nnz() >= cfg.min_nnz && threads > 1 {
            threads
        } else {
            // Below the parallel threshold the kernel still runs (its serial
            // wins are exactly what the threshold regime keeps), just
            // without pool dispatch.
            1
        };
        let key = PlanKey {
            chunks,
            kernel: cfg.kernel,
        };
        Stepper {
            p_t: &self.p_t,
            plan: self.plans.get_or_plan(&self.p_t, key),
            pool: WorkerPool::global(),
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.p.nrows()
    }

    /// Approximate heap footprint in bytes: both CSR matrices by allocator
    /// capacity (see [`CsrMatrix::heap_bytes`]). Cached chunk plans hold no
    /// copy of either matrix, so this is the whole footprint; it is fixed
    /// at construction. Audited against a counting allocator by the
    /// engine's byte-accounting test.
    pub fn approx_bytes(&self) -> usize {
        self.p.heap_bytes() + self.p_t.heap_bytes()
    }

    /// Heap bytes held by cached chunk plans beyond [`Uniformized::approx_bytes`]:
    /// always zero, since no plan copies a matrix array. Kept for the
    /// benchmark harness, which adds it to the bytes one step streams.
    pub fn plan_bytes(&self) -> usize {
        0
    }

    /// Rebuilds this uniformization for a **rate variant** of the chain it
    /// was built from — same sparsity structure, different numbers — while
    /// reusing every cached chunk plan's row chunking and kernel selection
    /// instead of re-deriving them. The donor's plans are re-bound to the
    /// new `Pᵀ` via [`ChunkPlan::rebind`], so the returned artifact answers
    /// its first stepper request without a chunking pass or column scan.
    ///
    /// `Λ` is derived exactly as [`Uniformized::new`] would for `ctmc`, so
    /// the result is bitwise identical to a cold `Uniformized::new(ctmc,
    /// theta)` in `lambda`, `p`, and `p_t`; only the plan cache seeding
    /// differs.
    ///
    /// # Panics
    /// If `ctmc`'s uniformized matrix has a different sparsity pattern
    /// than this one's (the donor belongs to a structurally different
    /// chain).
    pub fn rebind_values(&self, ctmc: &Ctmc, theta: f64) -> Self {
        assert!(theta >= 0.0, "safety factor must be non-negative");
        let max_rate = ctmc.generator().max_abs_diag();
        let lambda = if max_rate == 0.0 {
            1.0
        } else {
            max_rate * (1.0 + theta)
        };
        // Fill `P = I + Q/Λ` values straight through the donor's pattern: a
        // lockstep walk of each donor `P` row against the corresponding `Q`
        // row. `P`'s pattern is `Q`'s plus a materialized diagonal (see
        // `identity_plus_scaled`), so the only donor entry allowed to miss
        // in `Q` is the diagonal — any other mismatch, or a `Q` entry the
        // donor lacks, means the chains are structurally different and the
        // walk panics rather than rebinding garbage. This replaces a full
        // `identity_plus_scaled` + `transpose` (allocation, counting sort)
        // with two value passes over cloned patterns, which is what makes a
        // delta-warm grid point cheap relative to a cold build.
        let q = ctmc.generator();
        let n = self.p.nrows();
        let scale = 1.0 / lambda;
        assert!(
            q.nrows() == n && self.p.nnz() <= q.nnz() + n,
            "uniformization rebind requires identical sparsity structure"
        );
        let mut vals = vec![0.0; self.p.nnz()];
        for i in 0..n {
            let mut qk = q.row_ptr()[i];
            let qe = q.row_ptr()[i + 1];
            let (ps, pe) = (self.p.row_ptr()[i], self.p.row_ptr()[i + 1]);
            for (&j, v) in self.p.col_idx()[ps..pe].iter().zip(&mut vals[ps..pe]) {
                if qk < qe && q.col_idx()[qk] == j {
                    let x = q.values()[qk] * scale;
                    *v = if j as usize == i { 1.0 + x } else { x };
                    qk += 1;
                } else {
                    // Donor-only entry: must be the materialized diagonal.
                    assert!(
                        j as usize == i,
                        "uniformization rebind requires identical sparsity structure"
                    );
                    *v = 1.0;
                }
            }
            assert!(
                qk == qe,
                "uniformization rebind requires identical sparsity structure"
            );
        }
        let p = self.p.with_values(vals);
        debug_assert!(p.is_row_stochastic(1e-9));
        // `Pᵀ` values via the cached transpose permutation: the donor's
        // `Pᵀ` row_ptr already *is* the counting sort's prefix table, and
        // within a transpose row the entries appear in source-row order —
        // exactly the order a row-major walk of `P` emits them. The
        // permutation is computed once per donor lineage and shared, so
        // every later grid point fills `Pᵀ` with one sequential-write
        // gather pass.
        let src = self
            .t_perm
            .get_or_init(|| {
                let mut next: Vec<usize> = self.p_t.row_ptr()[..n].to_vec();
                let mut src = vec![0u32; self.p.nnz()];
                for i in 0..n {
                    for pk in self.p.row_ptr()[i]..self.p.row_ptr()[i + 1] {
                        let j = self.p.col_idx()[pk] as usize;
                        src[next[j]] = pk as u32;
                        next[j] += 1;
                    }
                }
                Arc::new(src)
            })
            .clone();
        let p_vals = p.values();
        let tvals: Vec<f64> = src.iter().map(|&k| p_vals[k as usize]).collect();
        let p_t = self.p_t.with_values(tvals);
        let plans = PlanCache::default();
        {
            let donor = regenr_sparse::pool::lock(&self.plans.0);
            let mut inner = regenr_sparse::pool::lock(&plans.0);
            for (key, plan) in donor.iter() {
                inner.push((*key, Arc::new(plan.rebind(&self.p_t, &p_t))));
            }
        }
        Uniformized {
            lambda,
            p,
            p_t,
            plans,
            t_perm: std::sync::OnceLock::from(src),
        }
    }

    /// Asserts this uniformization is plausibly built from `ctmc`: same
    /// state count and a rate at least the chain's maximum exit rate.
    /// Solvers accepting a caller-supplied (cached) uniformization call this
    /// to catch artifact/chain mix-ups cheaply (`O(n)`, not `O(nnz)`).
    ///
    /// # Panics
    /// If the state counts differ or the rate is below the maximum exit
    /// rate (either means the artifact cannot belong to this chain).
    pub fn assert_built_from(&self, ctmc: &Ctmc) {
        assert_eq!(
            self.n_states(),
            ctmc.n_states(),
            "uniformization does not match the chain"
        );
        assert!(
            self.lambda >= ctmc.generator().max_abs_diag() * (1.0 - 1e-12),
            "uniformization rate {} below the chain's max exit rate (artifact from a different chain?)",
            self.lambda
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Ctmc {
        Ctmc::from_rates(
            3,
            &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0), (2, 0, 0.5)],
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.5, 0.0],
        )
        .unwrap()
    }

    #[test]
    fn rate_is_max_exit_rate() {
        let u = Uniformized::new(&chain(), 0.0);
        assert_eq!(u.lambda, 4.0);
        assert!(u.p.is_row_stochastic(1e-12));
        // P[1][1] = 1 - 4/4 = 0, P[0][0] = 1 - 2/4 = 0.5.
        assert_eq!(u.p.get(1, 1), 0.0);
        assert_eq!(u.p.get(0, 0), 0.5);
        assert_eq!(u.p.get(0, 1), 0.5);
    }

    #[test]
    fn safety_factor_adds_self_loops() {
        let u = Uniformized::new(&chain(), 0.1);
        assert!((u.lambda - 4.4).abs() < 1e-12);
        // Every diagonal entry now strictly positive => aperiodic.
        for i in 0..3 {
            assert!(u.p.get(i, i) > 0.0, "state {i} lacks self-loop");
        }
    }

    #[test]
    fn step_preserves_mass() {
        let u = Uniformized::new(&chain(), 0.0);
        let stepper = u.stepper(&ParallelConfig::default());
        let mut pi = vec![1.0, 0.0, 0.0];
        let mut next = vec![0.0; 3];
        for _ in 0..50 {
            stepper.step(&pi, &mut next);
            std::mem::swap(&mut pi, &mut next);
            let mass: f64 = pi.iter().sum();
            assert!((mass - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn absorbing_only_chain_gets_unit_rate() {
        let c = Ctmc::from_rates(2, &[], vec![1.0, 0.0], vec![0.0, 0.0]).unwrap();
        let u = Uniformized::new(&c, 0.0);
        assert_eq!(u.lambda, 1.0);
        assert_eq!(u.p.get(0, 0), 1.0);
        assert_eq!(u.p.get(1, 1), 1.0);
    }

    #[test]
    #[should_panic]
    fn too_small_rate_panics() {
        Uniformized::with_rate(&chain(), 1.0);
    }

    /// `rebind_values` on a rate-scaled chain is bitwise identical to a
    /// cold build — matrices, `Λ`, and stepped products — while arriving
    /// with the donor's plans already re-bound.
    #[test]
    fn rebind_values_matches_cold_build_and_preseeds_plans() {
        let n = 64;
        let mut rates = Vec::new();
        for i in 0..n - 1 {
            rates.push((i, i + 1, 1.0 + i as f64 * 0.01));
            rates.push((i + 1, i, 0.5));
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let base = Ctmc::from_rates(n, &rates, init.clone(), vec![1.0; n]).unwrap();
        let scaled_rates: Vec<_> = rates.iter().map(|&(i, j, r)| (i, j, r * 1.75)).collect();
        let variant = Ctmc::from_rates(n, &scaled_rates, init, vec![1.0; n]).unwrap();
        let donor = Uniformized::new(&base, 0.0);
        // Populate the donor with a plan per kernel.
        let cfg = ParallelConfig {
            min_nnz: 0,
            threads: 2,
            kernel: KernelChoice::ShortRow,
        };
        let _ = donor.stepper(&cfg);
        let _ = donor.stepper(&ParallelConfig {
            kernel: KernelChoice::Generic,
            ..cfg
        });
        let warm = donor.rebind_values(&variant, 0.0);
        let cold = Uniformized::new(&variant, 0.0);
        assert_eq!(warm.lambda.to_bits(), cold.lambda.to_bits());
        assert_eq!(warm.p_t.values(), cold.p_t.values());
        assert_eq!(warm.p_t.row_ptr(), cold.p_t.row_ptr());
        // Both donor plans arrived re-bound, under the donor's keys,
        // before the first stepper request.
        let keys = |u: &Uniformized| -> Vec<PlanKey> {
            regenr_sparse::pool::lock(&u.plans.0)
                .iter()
                .map(|(k, _)| *k)
                .collect()
        };
        assert_eq!(keys(&warm), keys(&donor));
        assert_eq!(keys(&warm).len(), 2);
        let pi: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut got = vec![0.0; n];
        let mut want = vec![0.0; n];
        warm.stepper(&cfg).step(&pi, &mut got);
        cold.stepper(&cfg).step(&pi, &mut want);
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits(), "rebound step must be bitwise");
        }
        assert_eq!(keys(&warm).len(), 2, "the preseeded plan served the step");
    }

    /// Rebinding across genuinely different structures is rejected — a
    /// donor from another chain must never silently produce wrong plans.
    #[test]
    #[should_panic(expected = "identical sparsity structure")]
    fn rebind_values_rejects_different_structure() {
        let u = Uniformized::new(&chain(), 0.0);
        let other = Ctmc::from_rates(
            3,
            &[(0, 1, 2.0), (1, 2, 3.0), (2, 0, 0.5)],
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.5, 0.0],
        )
        .unwrap();
        let _ = u.rebind_values(&other, 0.0);
    }

    #[test]
    fn stepper_matches_step_into_and_caches_plans() {
        let u = Uniformized::new(&chain(), 0.0);
        // Force the pooled path even on this tiny chain.
        let cfg = ParallelConfig {
            min_nnz: 0,
            threads: 4,
            kernel: KernelChoice::Auto,
        };
        let stepper = u.stepper(&cfg);
        assert!(stepper.is_pooled());
        let pi = [0.2, 0.3, 0.5];
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        stepper.step(&pi, &mut a);
        u.p_t.mul_vec_into(&pi, &mut b);
        assert_eq!(a, b, "pooled step must be bitwise identical to serial");
        // Same configuration → the cached plan is shared (same allocation).
        let again = u.stepper(&cfg);
        assert!(
            Arc::ptr_eq(&stepper.plan, &again.plan),
            "plan must be computed once per matrix"
        );
        // A forced kernel resolves its own plan, and tiny matrices
        // auto-select the generic kernel.
        let forced = u.stepper(&ParallelConfig {
            kernel: KernelChoice::ShortRow,
            ..cfg
        });
        assert!(!Arc::ptr_eq(&stepper.plan, &forced.plan));
        assert_eq!(forced.kernel_kind(), KernelKind::ShortRow);
        assert_eq!(stepper.kernel_kind(), KernelKind::Generic);
        let mut c = vec![0.0; 3];
        forced.step(&pi, &mut c);
        assert_eq!(a, c, "forced kernel must be bitwise identical");
        // Below the nnz threshold the stepper runs serially.
        assert!(!u.stepper(&ParallelConfig::default()).is_pooled());
    }
}

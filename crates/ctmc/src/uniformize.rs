//! Randomization (uniformization) of a CTMC.
//!
//! Given a CTMC with generator `Q` and a rate `Λ ≥ max_i |q_ii|`, the
//! randomized DTMC has transition matrix `P = I + Q/Λ`; the CTMC at time `t`
//! equals the DTMC observed at a Poisson(`Λt`) number of steps. Every solver
//! in the workspace starts from a [`Uniformized`] view, and every one of
//! them steps `π ← Pᵀπ`, so the view holds `Pᵀ` alone, built straight from
//! `Q` without materializing `P`. A rate variant rebound from a cached view
//! ([`Uniformized::rebind_values`]) shares its `Pᵀ` pattern and the chunk
//! plans memoized on it.

use crate::chain::Ctmc;
use regenr_sparse::{
    effective_threads, Backend, ChunkPlan, CsrMatrix, CsrPattern, KernelKind, ParallelConfig,
    WorkerPool,
};
use std::sync::{Arc, OnceLock};

/// A uniformized view of a CTMC: the transpose `Pᵀ` of the randomized DTMC
/// matrix `P = I + Q/Λ` (for gather-style products) and the randomization
/// rate `Λ`. `P` itself is never stored: `Pᵀ` is built from `Q` directly
/// ([`CsrMatrix::identity_plus_scaled_transposed`]), and `P`'s row pattern
/// is `Q`'s plus the diagonal.
///
/// A cold build and every rate variant rebound from it
/// ([`Uniformized::rebind_values`]) form a **lineage**: they share one `Pᵀ`
/// pattern, the chunk plans memoized on it, and one map from each
/// generator entry to its `Pᵀ` slot.
#[derive(Clone, Debug)]
pub struct Uniformized {
    /// Randomization rate `Λ`.
    pub lambda: f64,
    /// `Pᵀ = (I + Q/Λ)ᵀ` (column-stochastic), used to propagate row
    /// distributions as `π ← Pᵀπ`. Its chunk plans are memoized on its
    /// pattern (see [`Uniformized::stepper`]).
    pub p_t: CsrMatrix,
    /// The lineage's [`RebindMap`], computed lazily by the first
    /// [`Uniformized::rebind_values`] and shared with every rebound
    /// descendant (same pattern ⇒ same map).
    rebind_map: OnceLock<Arc<RebindMap>>,
}

/// Where each generator entry lands in `Pᵀ`, for one **lineage** — a cold
/// uniformization plus every rate variant rebound from it, which all share
/// one sparsity pattern. `q` is the generator pattern the map was built
/// for; `slots[k]` is the `Pᵀ` position of `Q`'s `k`-th stored entry
/// (row-major order), and the slots from `q.nnz()` on are the diagonals
/// `Pᵀ` materializes for rows where `Q` stores none, whose value is always
/// `1.0`. A rebind then fills `Pᵀ` in one pass over `Q`.
#[derive(Debug)]
struct RebindMap {
    q: Arc<CsrPattern>,
    slots: Vec<u32>,
}

impl RebindMap {
    /// Replays [`CsrMatrix::identity_plus_scaled_transposed`]'s fill pass
    /// for `q` against `p_t`'s pattern, recording each entry's slot.
    ///
    /// # Panics
    /// If `q`'s uniformized pattern is not exactly `p_t`'s.
    fn new(q: &CsrMatrix, p_t: &CsrMatrix) -> Self {
        let n = p_t.nrows();
        assert!(q.nrows() == n, "{STRUCTURE}");
        let (row_ptr, cols) = (p_t.row_ptr(), p_t.col_idx());
        let mut cursor = row_ptr[..n].to_vec();
        let mut take = |i: usize, j: usize| {
            let dst = cursor[j];
            assert!(
                dst < row_ptr[j + 1] && cols[dst] as usize == i,
                "{STRUCTURE}"
            );
            cursor[j] += 1;
            u32::try_from(dst).expect("a rebind map indexes Pᵀ with u32 slots")
        };
        let mut slots = Vec::with_capacity(p_t.nnz());
        let mut diags = Vec::new();
        for i in 0..n {
            let mut has_diag = false;
            for (j, _) in q.row(i) {
                has_diag |= j == i;
                slots.push(take(i, j));
            }
            if !has_diag {
                diags.push(take(i, i));
            }
        }
        slots.extend(diags);
        assert!(slots.len() == p_t.nnz(), "{STRUCTURE}");
        RebindMap {
            q: q.pattern().clone(),
            slots,
        }
    }

    /// Panics unless `q` has the generator pattern the map was built for:
    /// a pointer comparison when `q` shares it (the points of one grid),
    /// one comparison of the index arrays when `q` was built on its own (a
    /// served request's variant).
    fn check(&self, q: &CsrMatrix) {
        assert!(CsrPattern::same(&self.q, q.pattern()), "{STRUCTURE}");
    }

    /// Heap bytes of the slot array, by capacity. The generator pattern kept
    /// for [`RebindMap::check`] is not counted: a grid's chains hold it
    /// anyway, and only a variant built on its own (a served request's)
    /// leaves it to the map alone once its chain is dropped.
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

/// Panic message of a rebind across different sparsity structures.
const STRUCTURE: &str = "uniformization rebind requires identical sparsity structure";

/// A DTMC stepping kernel bound to one uniformization: the chunk plan — and
/// with it the SpMV loop the plan resolved — is computed **once** per `Pᵀ`
/// pattern (memoized on it, so a whole lineage shares it) instead of per
/// product, and repeated steps run on the persistent shared
/// [`WorkerPool`] — the execution shape every SpMV-bound solver loop wants.
/// Obtain one from [`Uniformized::stepper`]; results are bitwise identical
/// to the serial product regardless of kernel, pool size, or chunk count.
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

/// The uniformization rate for a chain whose largest exit rate is
/// `max_rate = max_i |q_ii|`: `Λ = (1+θ)·max_rate`, or `1` when the chain
/// has no transitions (`max_rate = 0`). Every `Λ` in the workspace comes
/// from here.
pub fn uniformization_rate(max_rate: f64, theta: f64) -> f64 {
    if max_rate == 0.0 {
        1.0
    } else {
        max_rate * (1.0 + theta)
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
        let lambda = uniformization_rate(ctmc.generator().max_abs_diag(), theta);
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
        let p_t = ctmc
            .generator()
            .identity_plus_scaled_transposed(1.0 / lambda);
        debug_assert!(p_t.is_column_stochastic(1e-9));
        Uniformized {
            lambda,
            p_t,
            rebind_map: OnceLock::new(),
        }
    }

    /// A stepping kernel with its chunk plan (and SpMV loop) resolved once
    /// under `cfg` (see [`Stepper`]) and memoized on `Pᵀ`'s pattern per
    /// chunk count ([`CsrMatrix::chunk_plan`]).
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
        Stepper {
            p_t: &self.p_t,
            plan: self.p_t.chunk_plan(chunks),
            pool: WorkerPool::global(),
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.p_t.nrows()
    }

    /// Approximate heap footprint in bytes, by allocator capacity: `Pᵀ`
    /// (see [`CsrMatrix::heap_bytes`]) plus, once a rate variant has been
    /// rebound from the lineage, its rebind map. Chunk plans hold no copy
    /// of the matrix. Everything but `Pᵀ`'s values is shared with the
    /// lineage ([`Uniformized::shared_bytes`]). Audited against a counting
    /// allocator by the engine's byte-accounting test.
    pub fn approx_bytes(&self) -> usize {
        self.p_t.heap_bytes() + self.rebind_map.get().map_or(0, |m| m.heap_bytes())
    }

    /// The part of [`Uniformized::approx_bytes`] the whole lineage shares:
    /// `Pᵀ`'s pattern and the rebind map, if built. A bounded cache
    /// charges it once per pattern, however many variants it holds.
    pub fn shared_bytes(&self) -> usize {
        self.p_t.pattern().heap_bytes() + self.rebind_map.get().map_or(0, |m| m.heap_bytes())
    }

    /// Heap bytes held by cached chunk plans beyond [`Uniformized::approx_bytes`]:
    /// always zero, since no plan copies a matrix array. Kept for the
    /// benchmark harness, which adds it to the bytes one step streams.
    pub fn plan_bytes(&self) -> usize {
        0
    }

    /// Rebuilds this uniformization for a **rate variant** of the chain it
    /// was built from — same sparsity structure, different numbers — by
    /// filling fresh values in one pass over the new `Q` through the
    /// lineage's slot map, instead of re-running the counting sort. The
    /// result shares this `Pᵀ`'s pattern, and with it every chunk plan
    /// already computed over it: it steps without planning.
    ///
    /// The structure check is a pointer comparison when `ctmc`'s generator
    /// shares the pattern the lineage's map was built for (the points of one
    /// grid), and one comparison of the two generator patterns otherwise;
    /// the first rebind of a lineage checks every entry while it builds the
    /// map.
    ///
    /// `Λ` is derived exactly as [`Uniformized::new`] would for `ctmc`, and
    /// every value is the builder's scalar operation, so the result is
    /// bitwise identical to a cold `Uniformized::new(ctmc, theta)` in
    /// `lambda` and `p_t`.
    ///
    /// # Panics
    /// If `ctmc`'s uniformized matrix has a different sparsity pattern
    /// than this one's (the donor belongs to a structurally different
    /// chain).
    pub fn rebind_values(&self, ctmc: &Ctmc, theta: f64) -> Self {
        assert!(theta >= 0.0, "safety factor must be non-negative");
        let lambda = uniformization_rate(ctmc.generator().max_abs_diag(), theta);
        let q = ctmc.generator();
        let map = self
            .rebind_map
            .get_or_init(|| Arc::new(RebindMap::new(q, &self.p_t)))
            .clone();
        map.check(q);
        let (row_ptr, cols, rates) = (q.row_ptr(), q.col_idx(), q.values());
        let alpha = 1.0 / lambda;
        let mut vals = vec![0.0; self.p_t.nnz()];
        let (q_slots, diag_slots) = map.slots.split_at(q.nnz());
        for i in 0..q.nrows() {
            for k in row_ptr[i]..row_ptr[i + 1] {
                let x = alpha * rates[k];
                vals[q_slots[k] as usize] = if cols[k] as usize == i { x + 1.0 } else { x };
            }
        }
        for &dst in diag_slots {
            vals[dst as usize] = 1.0;
        }
        let p_t = self.p_t.with_values(vals);
        debug_assert!(p_t.is_column_stochastic(1e-9));
        Uniformized {
            lambda,
            p_t,
            rebind_map: OnceLock::from(map),
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
        assert!(u.p_t.is_column_stochastic(1e-12));
        // P[1][1] = 1 - 4/4 = 0, P[0][0] = 1 - 2/4 = 0.5, P[0][1] = 2/4.
        assert_eq!(u.p_t.get(1, 1), 0.0);
        assert_eq!(u.p_t.get(0, 0), 0.5);
        assert_eq!(u.p_t.get(1, 0), 0.5);
    }

    #[test]
    fn safety_factor_adds_self_loops() {
        let u = Uniformized::new(&chain(), 0.1);
        assert!((u.lambda - 4.4).abs() < 1e-12);
        // Every diagonal entry now strictly positive => aperiodic.
        for i in 0..3 {
            assert!(u.p_t.get(i, i) > 0.0, "state {i} lacks self-loop");
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
        assert_eq!(u.p_t.get(0, 0), 1.0);
        assert_eq!(u.p_t.get(1, 1), 1.0);
    }

    #[test]
    #[should_panic]
    fn too_small_rate_panics() {
        Uniformized::with_rate(&chain(), 1.0);
    }

    /// A birth–death chain of `n` states with every rate multiplied by
    /// `scale`; above the shortrow threshold at `n = 1_500` (`Pᵀ` stores
    /// 3n − 2 entries).
    fn scaled_chain(n: usize, scale: f64) -> Ctmc {
        let mut rates = Vec::new();
        for i in 0..n - 1 {
            rates.push((i, i + 1, (1.0 + i as f64 * 0.01) * scale));
            rates.push((i + 1, i, 0.5 * scale));
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        Ctmc::from_rates(n, &rates, init, vec![1.0; n]).unwrap()
    }

    /// Asserts `warm` is bitwise the cold build `cold` — `Λ`, `Pᵀ` and one
    /// stepped product under `cfg`.
    fn assert_bitwise_cold(warm: &Uniformized, cold: &Uniformized, cfg: &ParallelConfig) {
        assert_eq!(warm.lambda.to_bits(), cold.lambda.to_bits());
        assert_eq!(warm.p_t.values(), cold.p_t.values());
        assert_eq!(warm.p_t.row_ptr(), cold.p_t.row_ptr());
        assert_eq!(warm.p_t.col_idx(), cold.p_t.col_idx());
        let n = warm.n_states();
        let pi: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut got = vec![0.0; n];
        let mut want = vec![0.0; n];
        warm.stepper(cfg).step(&pi, &mut got);
        cold.stepper(cfg).step(&pi, &mut want);
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits(), "rebound step must be bitwise");
        }
    }

    /// `rebind_values` on a rate-scaled chain is bitwise identical to a
    /// cold build — matrices, `Λ`, and stepped products — and shares its
    /// donor's `Pᵀ` pattern, so it steps with the plan the donor already
    /// computed: the same ranges and loop a cold build plans.
    #[test]
    fn rebind_values_matches_cold_build_and_shares_donor_plans() {
        let n = 1_500;
        let variant = scaled_chain(n, 1.75);
        let donor = Uniformized::new(&scaled_chain(n, 1.0), 0.0);
        let cfg = ParallelConfig {
            min_nnz: 0,
            threads: 2,
        };
        let donor_stepper = donor.stepper(&cfg);
        let warm = donor.rebind_values(&variant, 0.0);
        let cold = Uniformized::new(&variant, 0.0);
        assert!(Arc::ptr_eq(warm.p_t.pattern(), donor.p_t.pattern()));
        let (warm_stepper, cold_stepper) = (warm.stepper(&cfg), cold.stepper(&cfg));
        assert!(
            Arc::ptr_eq(&warm_stepper.plan, &donor_stepper.plan),
            "the donor's plan is handed over"
        );
        assert_eq!(warm_stepper.plan.ranges(), cold_stepper.plan.ranges());
        assert_eq!(warm_stepper.kernel_kind(), cold_stepper.kernel_kind());
        assert_eq!(warm_stepper.kernel_kind(), KernelKind::ShortRow);
        assert_bitwise_cold(&warm, &cold, &cfg);
    }

    /// A variant built on its own — its generator equal in structure to the
    /// lineage's but not sharing its pattern allocation, as a served
    /// request's is — passes the array comparison, rebinds bitwise equal to
    /// a cold build, and adopts the donor's `Pᵀ` pattern. So does a variant
    /// over the generator pattern the lineage's map was built for, which
    /// passes by pointer.
    #[test]
    fn separately_built_variant_rebinds_bitwise_and_adopts_donor_pattern() {
        let n = 1_500;
        let donor = Uniformized::new(&scaled_chain(n, 1.0), 0.0);
        let first = scaled_chain(n, 0.5);
        let warm = donor.rebind_values(&first, 0.0);
        let cfg = ParallelConfig {
            min_nnz: 0,
            threads: 2,
        };
        let q = first.generator();
        let doubled = Ctmc::new(
            q.with_values(q.values().iter().map(|v| 2.0 * v).collect()),
            first.initial().to_vec(),
            first.rewards().to_vec(),
        )
        .unwrap();
        for variant in [scaled_chain(n, 3.0), scaled_chain(n, 1e-3), doubled] {
            let own = !Arc::ptr_eq(variant.generator().pattern(), q.pattern());
            assert_eq!(**variant.generator().pattern(), **q.pattern());
            let rebound = warm.rebind_values(&variant, 0.0);
            assert!(
                Arc::ptr_eq(rebound.p_t.pattern(), donor.p_t.pattern()),
                "own generator pattern: {own}"
            );
            assert_bitwise_cold(&rebound, &Uniformized::new(&variant, 0.0), &cfg);
        }
    }

    /// Rebinding across genuinely different structures is rejected — a
    /// donor from another chain must never silently produce a wrong `Pᵀ`:
    /// a chain with fewer transitions while the lineage's map is built,
    /// and one with the same nnz but an entry moved to another column by
    /// the pattern comparison once the map exists.
    #[test]
    #[should_panic(expected = "identical sparsity structure")]
    fn rebind_values_rejects_different_structure() {
        let with_rates = |rates: &[(usize, usize, f64)]| {
            Ctmc::from_rates(3, rates, vec![1.0, 0.0, 0.0], vec![1.0, 0.5, 0.0]).unwrap()
        };
        let u = Uniformized::new(&chain(), 0.0);
        let fewer = with_rates(&[(0, 1, 2.0), (1, 2, 3.0), (2, 0, 0.5)]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            u.rebind_values(&fewer, 0.0)
        }))
        .expect_err("fewer transitions must be rejected");
        assert!(err
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("identical sparsity structure")));
        // A rate variant builds the lineage's map; the moved entry then
        // lands in a `Pᵀ` row other than its column.
        let warm = u.rebind_values(
            &with_rates(&[(0, 1, 4.0), (1, 0, 1.0), (1, 2, 3.0), (2, 0, 0.5)]),
            0.0,
        );
        let moved = with_rates(&[(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0), (2, 1, 0.5)]);
        let _ = warm.rebind_values(&moved, 0.0);
    }

    #[test]
    fn stepper_matches_step_into_and_caches_plans() {
        let u = Uniformized::new(&chain(), 0.0);
        // Force the pooled path even on this tiny chain.
        let cfg = ParallelConfig {
            min_nnz: 0,
            threads: 4,
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
        // Tiny matrices select the generic kernel.
        assert_eq!(stepper.kernel_kind(), KernelKind::Generic);
        // Below the nnz threshold the stepper runs serially.
        assert!(!u.stepper(&ParallelConfig::default()).is_pooled());
    }
}

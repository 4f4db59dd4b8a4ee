//! Computation of the regenerative-randomization parameters.
//!
//! For the randomized DTMC `X̂` (rate `Λ`, matrix `P`) started at the
//! regenerative state `r` and *killed* on return to `r` or absorption, define
//! the sub-distribution `π_k` over `S` of surviving paths (`π_0 = e_r`). The
//! transformed model of the paper is fully described by scalar sequences —
//! we store them **unnormalized** (products with `a(k)`), which is exactly the
//! form the closed-form transforms need and avoids divisions by vanishing
//! survival probabilities:
//!
//! * `a(k)   = ‖π_k‖₁`                         — survival probability,
//! * `c(k)   = r·π_k        (= a(k)·b(k))`      — reward mass,
//! * `u(k)   = (π_k P)_r    (= a(k)·q_k)`       — return-to-`r` mass,
//! * `y_i(k) = (π_k P)_{f_i}(= a(k)·v^i_k)`     — absorption mass into `f_i`,
//!
//! and the primed analogues for the chain started from the initial
//! distribution `α` restricted to `S∖{r}` (present when `α_r < 1`), killed on
//! *first visit* to `r` or absorption.
//!
//! ## Truncation control
//!
//! The truncated model routes the mass surviving `K` steps into an absorbing
//! error state `a` with zero reward, so the model error on either measure is
//! at most `r_max · P[V(t) = a]`. Mass can only sit at depth `K` if it
//! survived `K` consecutive steps since a visit to `r`, so at any DTMC step
//! the flow into `a` is `≤ a(K)`, and is zero before step `K`; mixing over
//! the Poisson(Λt) step count,
//!
//! ```text
//! P[V(t)=a] ≤ min( P[N ≥ K],  a(K) · E[(N−K+1)⁺] ).
//! ```
//!
//! Stepping stops at the first `K` where `r_max` times this is within budget.
//! For small `t` the first term dominates (`K ≈` Poisson right tail ≈ SR's
//! step count); for large `t` the second does, giving the paper's
//! `K = O(log(Λt/ε) / log(1/γ))` growth with `γ` the decay rate of `a(k)`.
//! The primed chain is traversed at most once, so its truncation uses the
//! tighter `min(P[N ≥ L], a'(L))`.

use regenr_ctmc::{analyze, Ctmc, CtmcError, Uniformized};
use regenr_numeric::{KahanSum, PoissonWeights};
use regenr_sparse::{ParallelConfig, Workspace};

/// Hard cap on `K`/`L` (guards against a poorly visited regenerative state,
/// where the method degenerates; the paper assumes `r` is visited often).
const MAX_DEPTH: usize = 2_000_000;

/// Options shared by RR and RRL.
#[derive(Clone, Copy, Debug)]
pub struct RegenOptions {
    /// Total absolute error budget `ε` (the paper uses `10⁻¹²`); half goes to
    /// model truncation, half to solving the truncated model.
    pub epsilon: f64,
    /// Uniformization safety factor (`0` matches the paper).
    pub theta: f64,
    /// Parallel SpMV configuration for the construction stepping.
    pub parallel: ParallelConfig,
}

impl Default for RegenOptions {
    fn default() -> Self {
        RegenOptions {
            epsilon: 1e-12,
            theta: 0.0,
            parallel: ParallelConfig::default(),
        }
    }
}

/// One killed chain's unnormalized parameter sequences.
#[derive(Clone, Debug, Default)]
pub struct KilledChainParams {
    /// `a(0..=K)` — survival mass (length `K+1`).
    pub a: Vec<f64>,
    /// `c(0..=K)` — reward mass (length `K+1`).
    pub c: Vec<f64>,
    /// `u(0..K)` — return mass to `r` per step (length `K`).
    pub u: Vec<f64>,
    /// `y[i](0..K)` — absorption mass into absorbing state `i` (length `K`
    /// each, one vector per absorbing state, same order as
    /// [`RegenParams::absorbing`]).
    pub y: Vec<Vec<f64>>,
}

impl KilledChainParams {
    /// Truncation depth `K` (number of stepping products performed).
    pub fn depth(&self) -> usize {
        self.a.len() - 1
    }

    fn approx_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        // Capacities, not lengths: the sequences grow by pushes during the
        // stepping loop, so the allocator hands out up to 2× the final
        // length — counting lengths under-reported cached bytes by that
        // factor (caught by the engine's counting-allocator audit).
        (self.a.capacity() + self.c.capacity() + self.u.capacity()) * f
            + self.y.iter().map(|v| v.capacity() * f).sum::<usize>()
    }
}

/// Checks `r` against an already-computed absorbing-state list: in range and
/// not absorbing. The cheap half of the solvers' validation, shared by the
/// analyzing constructors and the facts-reusing ones.
pub(crate) fn check_regen_state(
    ctmc: &Ctmc,
    absorbing: &[usize],
    r: usize,
) -> Result<(), CtmcError> {
    if r >= ctmc.n_states() {
        return Err(CtmcError::BadRegenerativeState {
            state: r,
            reason: "index out of range",
        });
    }
    if absorbing.contains(&r) {
        return Err(CtmcError::BadRegenerativeState {
            state: r,
            reason: "state is absorbing",
        });
    }
    Ok(())
}

/// The complete parameter set describing the truncated transformed model
/// `V_{K,L}` for one `(chain, r, t, ε)` instance.
#[derive(Clone, Debug)]
pub struct RegenParams {
    /// Randomization rate `Λ`.
    pub lambda: f64,
    /// The regenerative state index.
    pub r_index: usize,
    /// Initial mass on `r` (`α_r`); the primed chain exists iff `< 1`.
    pub alpha_r: f64,
    /// Parameters of the chain started at `r` (the `K`-chain).
    pub main: KilledChainParams,
    /// Parameters of the chain started from `α` off `r` (the `L`-chain),
    /// present iff `α_r < 1`.
    pub primed: Option<KilledChainParams>,
    /// Absorbing state indices of the original chain (`f_1…f_A`).
    pub absorbing: Vec<usize>,
    /// Reward rates of the absorbing states, same order.
    pub absorbing_rewards: Vec<f64>,
    /// Largest reward rate of the original chain.
    pub r_max: f64,
    /// The certified model-truncation error actually achieved (≤ the budget).
    pub truncation_error: f64,
}

impl RegenParams {
    /// Total construction steps `K (+ L)` — the paper's step count for
    /// RR/RRL.
    pub fn construction_steps(&self) -> usize {
        self.main.depth() + self.primed.as_ref().map_or(0, |p| p.depth())
    }

    /// Approximate heap footprint in bytes (the stored scalar sequences, by
    /// vector capacity — what the allocator actually handed out). Used by
    /// bounded artifact caches for byte accounting; audited against a
    /// counting allocator by the engine's byte-accounting test.
    pub fn approx_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        self.main.approx_bytes()
            + self.primed.as_ref().map_or(0, |p| p.approx_bytes())
            + self.absorbing.capacity() * std::mem::size_of::<usize>()
            + self.absorbing_rewards.capacity() * f
    }

    /// Computes the parameters for horizon `t` under `opts`.
    ///
    /// Validates the paper's structural assumptions (via
    /// [`regenr_ctmc::analyze`]) and that `r` is a non-absorbing state.
    pub fn compute(
        ctmc: &Ctmc,
        r: usize,
        t: f64,
        opts: &RegenOptions,
    ) -> Result<RegenParams, CtmcError> {
        let info = analyze(ctmc)?;
        check_regen_state(ctmc, &info.absorbing, r)?;
        assert!(t >= 0.0, "time must be non-negative");
        assert!(opts.epsilon > 0.0, "epsilon must be positive");

        let unif = Uniformized::new(ctmc, opts.theta);
        let mut ws = Workspace::new();
        Self::compute_with_ws(ctmc, &unif, &info.absorbing, r, t, opts, &mut ws)
    }

    /// Like [`RegenParams::compute`] with a pre-built uniformization and
    /// absorbing-state list (the solvers share them across calls) and
    /// caller-owned scratch: the killed-chain stepping reuses `ws` buffers,
    /// so repeated computations (horizon widening, sweeps) allocate no
    /// steady-state scratch vectors.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_with_ws(
        ctmc: &Ctmc,
        unif: &Uniformized,
        absorbing: &[usize],
        r: usize,
        t: f64,
        opts: &RegenOptions,
        ws: &mut Workspace,
    ) -> Result<RegenParams, CtmcError> {
        let n = ctmc.n_states();
        let r_max = ctmc.max_reward();
        let alpha_r = ctmc.initial()[r];
        let has_primed = alpha_r < 1.0 - 1e-15;

        // Poisson window for the truncation bound. The weights only enter a
        // *bound*, so a modest coverage suffices; the tail bounds are part of
        // survival()/expected_excess() and keep the bound one-sided.
        let lambda_t = unif.lambda * t;
        let w = PoissonWeights::new(lambda_t, (opts.epsilon * 1e-3).clamp(1e-300, 0.5));

        let budget = opts.epsilon / 2.0;
        let (budget_main, budget_primed) = if has_primed {
            (budget / 2.0, budget / 2.0)
        } else {
            (budget, 0.0)
        };

        // Main chain: starts at r with mass 1.
        let mut start = ws.take_zeroed(n);
        start[r] = 1.0;
        let (main, err_main) = step_killed_chain(
            ctmc,
            unif,
            absorbing,
            r,
            start,
            &w,
            budget_main,
            opts,
            CycleKind::Repeating,
            ws,
        );

        // Primed chain: starts from α restricted to S∖{r} (absorbing states
        // carry no initial mass by the analyze() check).
        let (primed, err_primed) = if has_primed {
            let mut start = ws.take_copied(ctmc.initial());
            start[r] = 0.0;
            for &f in absorbing {
                start[f] = 0.0;
            }
            let (p, e) = step_killed_chain(
                ctmc,
                unif,
                absorbing,
                r,
                start,
                &w,
                budget_primed,
                opts,
                CycleKind::OneShot,
                ws,
            );
            (Some(p), e)
        } else {
            (None, 0.0)
        };

        Ok(RegenParams {
            lambda: unif.lambda,
            r_index: r,
            alpha_r,
            main,
            primed,
            absorbing: absorbing.to_vec(),
            absorbing_rewards: absorbing.iter().map(|&f| ctmc.rewards()[f]).collect(),
            r_max,
            truncation_error: err_main + err_primed,
        })
    }
}

impl RegenParams {
    /// Smallest depths `(K, L)` whose truncation bound meets the `ε/2` budget
    /// at horizon `t`, using the *stored* sequences (no re-stepping).
    ///
    /// The truncation bound is monotone in `t`, so parameters computed at
    /// `t_max` serve every `t ≤ t_max` by prefix truncation — the basis of
    /// [`crate::RrlSolver::solve_many`], an extension over the paper's
    /// per-`t` recomputation. Returns `None` when the stored depth is
    /// insufficient (i.e. `t` exceeds the horizon the parameters were built
    /// for).
    pub fn depth_for_horizon(&self, t: f64, epsilon: f64) -> Option<(usize, Option<usize>)> {
        assert!(t >= 0.0 && epsilon > 0.0);
        let w = PoissonWeights::new(self.lambda * t, (epsilon * 1e-3).clamp(1e-300, 0.5));
        let budget = epsilon / 2.0;
        let (budget_main, budget_primed) = if self.primed.is_some() {
            (budget / 2.0, budget / 2.0)
        } else {
            (budget, 0.0)
        };
        let k = self.find_depth(&self.main, &w, budget_main, CycleKind::Repeating)?;
        let l = match &self.primed {
            Some(p) => Some(self.find_depth(p, &w, budget_primed, CycleKind::OneShot)?),
            None => None,
        };
        Some((k, l))
    }

    fn find_depth(
        &self,
        chain: &KilledChainParams,
        w: &PoissonWeights,
        budget: f64,
        kind: CycleKind,
    ) -> Option<usize> {
        for (k, &a_k) in chain.a.iter().enumerate() {
            let reach = w.survival(k as u64);
            let b = match kind {
                CycleKind::Repeating => (a_k * w.expected_excess(k as u64)).min(reach),
                CycleKind::OneShot => a_k.min(reach),
            };
            if self.r_max * b <= budget || a_k <= f64::MIN_POSITIVE {
                return Some(k);
            }
        }
        None
    }

    /// Prefix-truncated copy at depths `(k, l)` (both must not exceed the
    /// stored depths).
    pub fn truncated(&self, k: usize, l: Option<usize>) -> RegenParams {
        regenr_failpoint::failpoint!("rrl-truncate");
        assert!(k <= self.main.depth(), "k exceeds stored depth");
        let main = truncate_chain(&self.main, k);
        let primed = match (&self.primed, l) {
            (Some(p), Some(l)) => {
                assert!(l <= p.depth(), "l exceeds stored depth");
                Some(truncate_chain(p, l))
            }
            (None, None) => None,
            _ => panic!("primed-chain presence mismatch in truncation"),
        };
        RegenParams {
            lambda: self.lambda,
            r_index: self.r_index,
            alpha_r: self.alpha_r,
            main,
            primed,
            absorbing: self.absorbing.clone(),
            absorbing_rewards: self.absorbing_rewards.clone(),
            r_max: self.r_max,
            truncation_error: self.truncation_error,
        }
    }
}

/// Prefix of one killed chain's sequences at depth `k`.
fn truncate_chain(chain: &KilledChainParams, k: usize) -> KilledChainParams {
    KilledChainParams {
        a: chain.a[..=k].to_vec(),
        c: chain.c[..=k].to_vec(),
        u: chain.u[..k].to_vec(),
        y: chain.y.iter().map(|yi| yi[..k].to_vec()).collect(),
    }
}

/// Whether a killed chain restarts on every visit to `r` (the main chain) or
/// is traversed at most once (the primed chain) — this changes the sound
/// truncation bound (see module docs).
#[derive(Clone, Copy, PartialEq)]
enum CycleKind {
    Repeating,
    OneShot,
}

/// Steps one killed chain until its truncation bound meets `budget`.
/// Returns the parameters and the certified error bound achieved. `start`
/// is consumed as the iterate and returned to `ws` on exit.
#[allow(clippy::too_many_arguments)]
fn step_killed_chain(
    ctmc: &Ctmc,
    unif: &Uniformized,
    absorbing: &[usize],
    r: usize,
    start: Vec<f64>,
    w: &PoissonWeights,
    budget: f64,
    opts: &RegenOptions,
    kind: CycleKind,
    ws: &mut Workspace,
) -> (KilledChainParams, f64) {
    let r_max = ctmc.max_reward();
    let n_abs = absorbing.len();
    let mut pi = start;
    let mut next = ws.take_zeroed(pi.len());

    let a0 = KahanSum::sum_slice(&pi);
    let mut params = KilledChainParams {
        a: vec![a0],
        c: vec![ctmc.reward_dot(&pi)],
        u: Vec::new(),
        y: vec![Vec::new(); n_abs],
    };

    let bound = |k: usize, a_k: f64| -> f64 {
        let kk = k as u64;
        let reach = w.survival(kk); // P[N ≥ k]
        let b = match kind {
            CycleKind::Repeating => (a_k * w.expected_excess(kk)).min(reach),
            CycleKind::OneShot => a_k.min(reach),
        };
        r_max * b
    };

    // k = 0 check: with a(0) possibly < 1 (primed chain), the bound may
    // already hold — then the chain contributes nothing representable and
    // K = 0 (no stepping).
    if bound(0, a0) <= budget || a0 == 0.0 {
        let err = bound(0, a0);
        ws.give(pi);
        ws.give(next);
        return (params, err);
    }

    let stepper = unif.stepper(&opts.parallel);
    loop {
        let k = params.u.len(); // about to compute step k -> k+1
        stepper.step(&pi, &mut next);
        // Kill on return to r / absorption, recording the killed mass.
        params.u.push(next[r]);
        next[r] = 0.0;
        for (i, &f) in absorbing.iter().enumerate() {
            params.y[i].push(next[f]);
            next[f] = 0.0;
        }
        std::mem::swap(&mut pi, &mut next);
        let a_next = KahanSum::sum_slice(&pi);
        params.a.push(a_next);
        params.c.push(ctmc.reward_dot(&pi));

        let depth = k + 1;
        let err = bound(depth, a_next);
        if err <= budget || a_next <= f64::MIN_POSITIVE {
            ws.give(pi);
            ws.give(next);
            return (params, err.min(budget));
        }
        assert!(
            depth < MAX_DEPTH,
            "regenerative truncation exceeded max_depth={MAX_DEPTH} — the \
             regenerative state {r} is visited too rarely for this method"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(l: f64, m: f64) -> Ctmc {
        Ctmc::from_rates(2, &[(0, 1, l), (1, 0, m)], vec![1.0, 0.0], vec![0.0, 1.0]).unwrap()
    }

    #[test]
    fn invariants_hold_on_two_state() {
        let c = two_state(0.1, 1.0);
        let p = RegenParams::compute(&c, 0, 100.0, &RegenOptions::default()).unwrap();
        assert_eq!(p.r_index, 0);
        assert_eq!(p.alpha_r, 1.0);
        assert!(p.primed.is_none());
        let m = &p.main;
        // a is non-increasing, starts at 1.
        assert_eq!(m.a[0], 1.0);
        for k in 1..m.a.len() {
            assert!(m.a[k] <= m.a[k - 1] + 1e-15);
        }
        // q + w + v = 1 in unnormalized form: u(k) + a(k+1) = a(k) (A = 0).
        for k in 0..m.u.len() {
            let lhs = m.u[k] + m.a[k + 1];
            assert!((lhs - m.a[k]).abs() < 1e-14, "k={k}: {lhs} vs {}", m.a[k]);
        }
        // c(k) ≤ r_max·a(k).
        for k in 0..m.c.len() {
            assert!(m.c[k] <= p.r_max * m.a[k] + 1e-15);
        }
        assert!(p.truncation_error <= 0.5e-12);
    }

    #[test]
    fn absorbing_mass_accounted() {
        // 0 <-> 1, 1 -> f at rate 0.2.
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 0.2)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
        )
        .unwrap();
        let p = RegenParams::compute(&c, 0, 50.0, &RegenOptions::default()).unwrap();
        let m = &p.main;
        assert_eq!(p.absorbing, vec![2]);
        // Conservation with absorption: u(k) + y(k) + a(k+1) = a(k).
        for k in 0..m.u.len() {
            let lhs = m.u[k] + m.y[0][k] + m.a[k + 1];
            assert!((lhs - m.a[k]).abs() < 1e-14, "k={k}");
        }
        // Absorption mass must be strictly positive somewhere.
        assert!(m.y[0].iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn primed_chain_appears_when_initial_off_r() {
        let c = two_state(0.5, 1.0).with_initial(vec![0.25, 0.75]).unwrap();
        let p = RegenParams::compute(&c, 0, 10.0, &RegenOptions::default()).unwrap();
        assert!((p.alpha_r - 0.25).abs() < 1e-15);
        let pr = p.primed.as_ref().expect("primed chain expected");
        assert!((pr.a[0] - 0.75).abs() < 1e-15);
        // Primed chain conservation: u'(k) + a'(k+1) = a'(k).
        for k in 0..pr.u.len() {
            assert!((pr.u[k] + pr.a[k + 1] - pr.a[k]).abs() < 1e-14);
        }
    }

    #[test]
    fn k_grows_with_horizon_then_saturates_logarithmically() {
        // A 3-state cycle where the return to r takes a geometric number of
        // steps (state 2 keeps a self-loop under randomization), so a(k)
        // decays geometrically instead of dying out.
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 0.01), (1, 2, 1.0), (2, 0, 0.5)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let opts = RegenOptions::default();
        let k = |t: f64| {
            RegenParams::compute(&c, 0, t, &opts)
                .unwrap()
                .construction_steps()
        };
        let (k1, k100, k10000) = (k(1.0), k(100.0), k(10_000.0));
        assert!(k1 < k100 && k100 <= k10000, "{k1} {k100} {k10000}");
        // Logarithmic regime: the jump per factor-100 in t must shrink.
        assert!(
            (k10000 - k100) < (k100 - k1) + k100,
            "K growth must taper: {k1} {k100} {k10000}"
        );
    }

    #[test]
    fn rejects_absorbing_regenerative_state() {
        let c = Ctmc::from_rates(2, &[(0, 1, 1.0)], vec![1.0, 0.0], vec![0.0, 1.0]).unwrap();
        let err = RegenParams::compute(&c, 1, 1.0, &RegenOptions::default());
        assert!(matches!(
            err,
            Err(CtmcError::BadRegenerativeState { state: 1, .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_state() {
        let c = two_state(1.0, 1.0);
        let err = RegenParams::compute(&c, 7, 1.0, &RegenOptions::default());
        assert!(matches!(
            err,
            Err(CtmcError::BadRegenerativeState { state: 7, .. })
        ));
    }

    #[test]
    fn dying_chain_terminates_exactly() {
        // 0 -> 1 -> f, no way back except killing: a(k) hits 0 at k=3.
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
        )
        .unwrap();
        // Λ = 1: P has no self-loops except f. Killed chain from 0: after
        // step 1 mass on 1 (a=1), after step 2 all mass returns to 0 or
        // absorbs => a(2) = 0.
        let p = RegenParams::compute(&c, 0, 1e6, &RegenOptions::default()).unwrap();
        assert!(p.main.a.last().copied().unwrap() <= f64::MIN_POSITIVE);
        assert!(p.main.depth() <= 3);
        assert!(p.truncation_error == 0.0 || p.truncation_error <= 1e-300);
    }
}

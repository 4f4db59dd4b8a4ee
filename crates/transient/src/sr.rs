//! Standard randomization (SR / uniformization), the paper's baseline.
//!
//! With `P = I + Q/Λ` and `π_n = α P^n`,
//!
//! * `TRR(t) = Σ_n Po_{Λt}(n) · r·π_n`,
//! * `MRR(t) = (1/(Λt)) Σ_n P[N(t) ≥ n+1] · r·π_n`
//!   (from `∫₀ᵗ Po_{Λτ}(n) dτ = P[N(t) ≥ n+1]/Λ`),
//!
//! truncated at the Fox–Glynn window `[L, R]` of `Poisson(Λt)` with discarded
//! mass `≤ ε/r_max`, so the absolute error is `≤ ε`. The step count — `R`, the
//! right truncation point — is what Table 2 of the paper reports for SR.
//!
//! Numerical safety: all terms are non-negative (this is randomization's
//! selling point), sums are compensated, and distributions are propagated by
//! gather-style products on `Pᵀ` (parallelized above a size threshold).

use crate::window::{PoissonWindows, RewardDot};
use crate::{MeasureKind, Solution};
use regenr_ctmc::{Ctmc, Uniformized};
use regenr_sparse::{ParallelConfig, Workspace};
use std::sync::Arc;

/// Options for [`SrSolver`].
#[derive(Clone, Copy, Debug)]
pub struct SrOptions {
    /// Total absolute error budget `ε` (the paper uses `10⁻¹²`).
    pub epsilon: f64,
    /// Uniformization safety factor `θ` (`Λ = (1+θ)·max rate`); `0` matches
    /// the paper.
    pub theta: f64,
    /// Parallel SpMV configuration.
    pub parallel: ParallelConfig,
}

impl Default for SrOptions {
    fn default() -> Self {
        SrOptions {
            epsilon: 1e-12,
            theta: 0.0,
            parallel: ParallelConfig::default(),
        }
    }
}

/// Standard-randomization solver bound to one chain.
#[derive(Clone, Debug)]
pub struct SrSolver<'a> {
    ctmc: &'a Ctmc,
    unif: Arc<Uniformized>,
    opts: SrOptions,
}

impl<'a> SrSolver<'a> {
    /// Uniformizes the chain and prepares the solver.
    pub fn new(ctmc: &'a Ctmc, opts: SrOptions) -> Self {
        let unif = Arc::new(Uniformized::new(ctmc, opts.theta));
        Self::with_uniformized(ctmc, unif, opts)
    }

    /// Reuses a prebuilt uniformization (the engine's artifact-cache path).
    /// `unif` must have been built from `ctmc` at `opts.theta`.
    pub fn with_uniformized(ctmc: &'a Ctmc, unif: Arc<Uniformized>, opts: SrOptions) -> Self {
        assert!(opts.epsilon > 0.0, "epsilon must be positive");
        unif.assert_built_from(ctmc);
        SrSolver { ctmc, unif, opts }
    }

    /// The randomization rate in use.
    pub fn lambda(&self) -> f64 {
        self.unif.lambda
    }

    /// Computes `TRR(t)` or `MRR(t)` with absolute error `≤ ε`.
    pub fn solve(&self, measure: MeasureKind, t: f64) -> Solution {
        self.solve_with(measure, t, &mut Workspace::new())
    }

    /// Like [`SrSolver::solve`] with caller-owned scratch: repeated solves
    /// through one [`Workspace`] perform no steady-state vector allocations.
    /// A one-horizon call into [`SrSolver::solve_many_with`].
    pub fn solve_with(&self, measure: MeasureKind, t: f64, ws: &mut Workspace) -> Solution {
        self.solve_many_with(measure, &[t], ws)[0]
    }

    /// Computes the measure at *many* horizons in a single propagation sweep.
    ///
    /// SR propagates the same DTMC sequence `π_0, π_1, …` regardless of `t`;
    /// only the Poisson weights differ. This method steps once up to the
    /// largest right truncation point and accumulates every horizon's
    /// weighted sum on the way — `max(Λtᵢ)` products instead of `Σ Λtᵢ`.
    /// Each cell (value, `steps` and bound) is bitwise what a one-horizon
    /// [`SrSolver::solve`] returns: its sum sees the same terms in the same
    /// order.
    pub fn solve_many(&self, measure: MeasureKind, ts: &[f64]) -> Vec<Solution> {
        self.solve_many_with(measure, ts, &mut Workspace::new())
    }

    /// Like [`SrSolver::solve_many`] with caller-owned scratch: the
    /// propagation loop performs zero steady-state heap allocations.
    pub fn solve_many_with(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Vec<Solution> {
        // Discarded Poisson mass δ contributes ≤ δ·r_max to either measure.
        let mut windows = PoissonWindows::new(
            self.ctmc,
            self.unif.lambda,
            measure,
            ts,
            self.opts.epsilon,
            1.0,
        );
        let mut cells = vec![windows.still(); ts.len()];
        let Some(max_right) = windows.max_right() else {
            return cells;
        };

        let stepper = self.unif.stepper(&self.opts.parallel);
        let mut pi = ws.take_copied(self.ctmc.initial());
        regenr_failpoint::failpoint!("sr-nan", |_fired| {
            if let Some(slot) = pi.first_mut() {
                *slot = f64::NAN;
            }
        });
        let mut next = ws.take_zeroed(pi.len());
        let mut rr = self.ctmc.reward_dot(&pi);
        for n in 0..=max_right {
            regenr_failpoint::failpoint!("sr-step");
            windows.add(n, rr, |h, cell| cells[h] = cell);
            if n < max_right {
                // One pass per step: the product folds in r·π_{n+1}, the
                // next window term.
                let fold = RewardDot::new(self.ctmc.rewards());
                rr = stepper.step_folded(&pi, &mut next, fold).value();
                std::mem::swap(&mut pi, &mut next);
            }
        }
        ws.give(pi);
        ws.give(next);
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-state repairable unit with closed-form unavailability
    /// `UA(t) = λ/(λ+μ) · (1 − e^{−(λ+μ)t})`.
    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        Ctmc::from_rates(
            2,
            &[(0, 1, lambda), (1, 0, mu)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        )
        .unwrap()
    }

    fn ua_exact(lambda: f64, mu: f64, t: f64) -> f64 {
        lambda / (lambda + mu) * (1.0 - (-(lambda + mu) * t).exp())
    }

    #[test]
    fn trr_matches_closed_form() {
        let (l, m) = (1e-3, 1.0);
        let c = two_state(l, m);
        let s = SrSolver::new(&c, SrOptions::default());
        for &t in &[0.01, 0.1, 1.0, 10.0, 100.0, 1000.0] {
            let got = s.solve(MeasureKind::Trr, t);
            let want = ua_exact(l, m, t);
            assert!(
                (got.value - want).abs() < 1e-11,
                "t={t}: {} vs {want}",
                got.value
            );
        }
    }

    #[test]
    fn mrr_matches_closed_form_integral() {
        // ∫₀ᵗ UA = λ/(λ+μ)·(t − (1−e^{−(λ+μ)t})/(λ+μ)); MRR = that / t.
        let (l, m) = (0.5, 2.0);
        let c = two_state(l, m);
        let s = SrSolver::new(&c, SrOptions::default());
        for &t in &[0.1, 1.0, 5.0, 50.0] {
            let got = s.solve(MeasureKind::Mrr, t);
            let lm = l + m;
            let want = l / lm * (t - (1.0 - (-lm * t).exp()) / lm) / t;
            assert!(
                (got.value - want).abs() < 1e-11,
                "t={t}: {} vs {want}",
                got.value
            );
        }
    }

    #[test]
    fn t_zero_returns_initial_reward() {
        let c = two_state(1.0, 1.0);
        let s = SrSolver::new(&c, SrOptions::default());
        let got = s.solve(MeasureKind::Trr, 0.0);
        assert_eq!(got.value, 0.0);
        assert_eq!(got.steps, 0);
    }

    #[test]
    fn absorbing_chain_unreliability() {
        // 0 -> 1 (absorbing) at rate λ: UR(t) = 1 − e^{−λt}.
        let l = 0.37;
        let c = Ctmc::from_rates(2, &[(0, 1, l)], vec![1.0, 0.0], vec![0.0, 1.0]).unwrap();
        let s = SrSolver::new(&c, SrOptions::default());
        for &t in &[0.1, 1.0, 3.0, 10.0] {
            let got = s.solve(MeasureKind::Trr, t).value;
            let want = 1.0 - (-l * t).exp();
            assert!((got - want).abs() < 1e-12, "t={t}: {got} vs {want}");
        }
    }

    #[test]
    fn steps_grow_linearly_with_t() {
        let c = two_state(1.0, 1.0);
        let s = SrSolver::new(&c, SrOptions::default());
        let s10 = s.solve(MeasureKind::Trr, 10.0).steps;
        let s1000 = s.solve(MeasureKind::Trr, 1000.0).steps;
        assert!(s1000 > 50 * s10 / 10, "SR steps must scale ~linearly in t");
    }

    #[test]
    fn solve_many_empty_and_degenerate() {
        let c = two_state(1.0, 1.0);
        let s = SrSolver::new(&c, SrOptions::default());
        assert!(s.solve_many(MeasureKind::Trr, &[]).is_empty());
        let zeros = s.solve_many(MeasureKind::Trr, &[0.0, 0.0]);
        assert_eq!(zeros[0].value, 0.0);
        assert_eq!(zeros[1].steps, 0);
    }

    #[test]
    fn workspace_reuse_is_allocation_free() {
        let c = two_state(0.3, 1.1);
        let s = SrSolver::new(&c, SrOptions::default());
        let mut ws = Workspace::new();
        let ts = [5.0, 0.5, 50.0];
        let warm = s.solve_many_with(MeasureKind::Trr, &ts, &mut ws);
        let after_warmup = ws.stats().fresh_allocs;
        for _ in 0..5 {
            let again = s.solve_many_with(MeasureKind::Trr, &ts, &mut ws);
            for (a, b) in warm.iter().zip(&again) {
                assert_eq!(a.value, b.value, "reuse must not change values");
            }
        }
        assert_eq!(
            ws.stats().fresh_allocs,
            after_warmup,
            "warmed-up solve_many must not allocate scratch vectors"
        );
    }
}

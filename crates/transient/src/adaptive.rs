//! Adaptive (active-set) randomization — related-work extension.
//!
//! Van Moorsel & Sanders' adaptive uniformization lowers the randomization
//! *rate* while the process can only occupy a subset of states. Adapting the
//! rate changes the jump-count distribution to a general birth process, whose
//! weights are expensive to control rigorously; as documented in DESIGN.md we
//! implement the closely related **active-set** optimization instead: the
//! rate stays `Λ`, but each step's product only touches rows that are
//! reachable from the current support — the result is *exactly* SR's (states
//! outside the frontier carry zero probability), while early steps cost
//! `O(active nnz)` instead of `O(total nnz)`. For small `t` (where the
//! Poisson window ends before the frontier saturates) this captures the same
//! effect the paper attributes to adaptive uniformization: cheaper small-`t`
//! transients.
//!
//! Neither the frontier nor `π_n` depends on `t`, so
//! [`AdaptiveSolver::solve_many_with`] serves a whole horizon grid from one
//! propagation, up to the largest Fox–Glynn right point; each cell's
//! `steps` is still its own right point `R_t`.

use crate::window::PoissonWindows;
use crate::{MeasureKind, Solution};
use regenr_ctmc::{Ctmc, Uniformized};
use regenr_sparse::Workspace;
use std::sync::Arc;

/// Options for [`AdaptiveSolver`].
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveOptions {
    /// Total absolute error budget `ε`.
    pub epsilon: f64,
    /// Uniformization safety factor.
    pub theta: f64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            epsilon: 1e-12,
            theta: 0.0,
        }
    }
}

/// Active-set randomization solver.
pub struct AdaptiveSolver<'a> {
    ctmc: &'a Ctmc,
    unif: Arc<Uniformized>,
    opts: AdaptiveOptions,
}

/// Diagnostics from an adaptive run.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveReport {
    /// The solution proper.
    pub solution: Solution,
    /// Number of states active at the final step.
    pub final_active: usize,
    /// Sum over steps of active-row nnz actually touched (work proxy;
    /// SR's equivalent is `steps × nnz`).
    pub touched_nnz: usize,
}

impl<'a> AdaptiveSolver<'a> {
    /// Uniformizes the chain and prepares the solver.
    pub fn new(ctmc: &'a Ctmc, opts: AdaptiveOptions) -> Self {
        let unif = Arc::new(Uniformized::new(ctmc, opts.theta));
        Self::with_uniformized(ctmc, unif, opts)
    }

    /// Reuses a prebuilt uniformization (the engine's artifact-cache path).
    /// `unif` must have been built from `ctmc` at `opts.theta`.
    pub fn with_uniformized(ctmc: &'a Ctmc, unif: Arc<Uniformized>, opts: AdaptiveOptions) -> Self {
        unif.assert_built_from(ctmc);
        AdaptiveSolver { ctmc, unif, opts }
    }

    /// Computes the measure; numerically identical to SR.
    pub fn solve(&self, measure: MeasureKind, t: f64) -> Solution {
        self.solve_report(measure, t).solution
    }

    /// Like [`AdaptiveSolver::solve`] with work accounting.
    pub fn solve_report(&self, measure: MeasureKind, t: f64) -> AdaptiveReport {
        self.solve_report_with(measure, t, &mut Workspace::new())
    }

    /// Like [`AdaptiveSolver::solve_report`] with caller-owned scratch for
    /// the distribution vectors (the frontier bookkeeping is per-solve). A
    /// one-horizon call into [`AdaptiveSolver::solve_many_with`].
    pub fn solve_report_with(
        &self,
        measure: MeasureKind,
        t: f64,
        ws: &mut Workspace,
    ) -> AdaptiveReport {
        self.solve_many_with(measure, &[t], ws)[0]
    }

    /// Computes the measure at *many* horizons from one propagation.
    ///
    /// Neither the active set nor `π_n` depends on `t`: this method steps
    /// once, up to the largest right truncation point, and accumulates every
    /// horizon's Poisson-weighted sum on the way. Each report — value,
    /// `steps` (its own `R_t`), `final_active` and `touched_nnz` — is
    /// bitwise what a one-horizon call produces, because each accumulator
    /// sees the same terms in the same order and a horizon's counters are
    /// read when the propagation reaches its `R_t`.
    pub fn solve_many_with(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Vec<AdaptiveReport> {
        let n = self.ctmc.n_states();
        let mut windows = PoissonWindows::new(
            self.ctmc,
            self.unif.lambda,
            measure,
            ts,
            self.opts.epsilon,
            1.0,
        );
        let mut reports = vec![
            AdaptiveReport {
                solution: windows.still(),
                final_active: 0,
                touched_nnz: 0,
            };
            ts.len()
        ];
        let Some(max_right) = windows.max_right() else {
            return reports;
        };

        // Frontier bookkeeping: `active` lists states that can carry mass at
        // the current step; each step extends it with successors of newly
        // activated states. `Pᵀ`'s rows are predecessor lists, so successors
        // come from the generator's rows instead: `P`'s row pattern is
        // `Q`'s plus the diagonal, and the state being expanded is already
        // active, so `active`'s order is the same as walking `P`.
        let q = self.ctmc.generator();
        let p_t = &self.unif.p_t;
        let mut is_active = vec![false; n];
        let mut active: Vec<u32> = Vec::new();
        for (i, &a) in self.ctmc.initial().iter().enumerate() {
            if a > 0.0 {
                is_active[i] = true;
                active.push(i as u32);
            }
        }

        let mut pi = ws.take_copied(self.ctmc.initial());
        let mut next = ws.take_zeroed(n);
        let mut touched = 0usize;
        // `active[..expanded]` already had its successors activated.
        let mut expanded = 0;
        for step in 0..=max_right {
            let rr: f64 = active
                .iter()
                .map(|&i| pi[i as usize] * self.ctmc.rewards()[i as usize])
                .sum();
            windows.add(step, rr, |h, solution| {
                reports[h] = AdaptiveReport {
                    solution,
                    final_active: active.len(),
                    touched_nnz: touched,
                };
            });
            if step == max_right {
                break;
            }
            // Expand the frontier: successors of the states activated since
            // the last expansion become active (pushed behind them, so they
            // are expanded at the next step).
            let frontier = active.len();
            for k in expanded..frontier {
                for (j, _) in q.row(active[k] as usize) {
                    if !is_active[j] {
                        is_active[j] = true;
                        active.push(j as u32);
                    }
                }
            }
            expanded = frontier;
            // Gather-product restricted to active rows of Pᵀ.
            for &i in &active {
                let i = i as usize;
                let mut s = 0.0;
                let row = p_t.row_ptr();
                for k in row[i]..row[i + 1] {
                    s += p_t.values()[k] * pi[p_t.col_idx()[k] as usize];
                }
                touched += row[i + 1] - row[i];
                next[i] = s;
            }
            for &i in &active {
                pi[i as usize] = next[i as usize];
            }
        }
        ws.give(pi);
        ws.give(next);
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sr::{SrOptions, SrSolver};

    /// A long birth chain where small t keeps the frontier small.
    fn birth_chain(n: usize) -> Ctmc {
        let mut rates = Vec::new();
        for i in 0..n - 1 {
            rates.push((i, i + 1, 1.0));
            rates.push((i + 1, i, 0.5));
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let rewards: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        Ctmc::from_rates(n, &rates, init, rewards).unwrap()
    }

    #[test]
    fn matches_sr_exactly() {
        let c = birth_chain(200);
        let ad = AdaptiveSolver::new(&c, AdaptiveOptions::default());
        let sr = SrSolver::new(&c, SrOptions::default());
        for &t in &[0.5, 3.0, 30.0] {
            for m in [MeasureKind::Trr, MeasureKind::Mrr] {
                let a = ad.solve(m, t).value;
                let b = sr.solve(m, t).value;
                assert!((a - b).abs() < 1e-12, "t={t} {m:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn frontier_stays_small_for_small_t() {
        let c = birth_chain(2000);
        let ad = AdaptiveSolver::new(&c, AdaptiveOptions::default());
        let rep = ad.solve_report(MeasureKind::Trr, 1.0);
        // With Λ=1.5 and t=1, the Poisson window ends around n≈20, so at most
        // ~21 chain positions can be active.
        assert!(
            rep.final_active < 60,
            "frontier should stay local: {}",
            rep.final_active
        );
        // Work proxy far below SR's steps × nnz.
        let nnz = c.generator().nnz();
        assert!(rep.touched_nnz < rep.solution.steps * nnz / 10);
    }

    #[test]
    fn frontier_saturates_for_large_t() {
        let c = birth_chain(50);
        let ad = AdaptiveSolver::new(&c, AdaptiveOptions::default());
        let rep = ad.solve_report(MeasureKind::Trr, 1000.0);
        assert_eq!(rep.final_active, 50);
    }

    /// Expanding through the generator's rows activates exactly what
    /// expanding through `P`'s rows (`Pᵀ` transposed back) does, on a chain
    /// whose absorbing states store no diagonal in `Q` but get one in `P`.
    #[test]
    fn frontier_matches_expansion_over_p_rows() {
        let n = 30;
        let mut rates = Vec::new();
        for i in (0..n).filter(|i| i % 7 != 6) {
            rates.push((i, (i + 1) % n, 1.0));
            rates.push((i, (5 * i + 3) % n, 0.3));
        }
        let mut init = vec![0.0; n];
        init[0] = 0.5;
        init[13] = 0.5;
        let rewards: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let c = Ctmc::from_rates(n, &rates, init, rewards).unwrap();
        assert!((0..n).any(|i| c.generator().row(i).all(|(j, _)| j != i)));
        let ad = AdaptiveSolver::new(&c, AdaptiveOptions::default());
        let p = ad.unif.p_t.transpose();
        for &t in &[0.5, 2.0, 8.0] {
            let rep = ad.solve_report(MeasureKind::Trr, t);
            let mut is_active: Vec<bool> = c.initial().iter().map(|&a| a > 0.0).collect();
            let mut active: Vec<usize> = (0..n).filter(|&i| is_active[i]).collect();
            let mut touched = 0;
            for _ in 0..rep.solution.steps {
                for k in 0..active.len() {
                    for (j, _) in p.row(active[k]) {
                        if !is_active[j] {
                            is_active[j] = true;
                            active.push(j);
                        }
                    }
                }
                touched += active
                    .iter()
                    .map(|&i| ad.unif.p_t.row(i).count())
                    .sum::<usize>();
            }
            assert_eq!(rep.final_active, active.len(), "t={t}");
            assert_eq!(rep.touched_nnz, touched, "t={t}");
        }
    }
}

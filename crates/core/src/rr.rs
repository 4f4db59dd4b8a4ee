//! The original regenerative randomization method (RR) — the paper's
//! predecessor baseline: build `V_{K,L}`, then solve it with standard
//! randomization.

use crate::params::{RegenOptions, RegenParams};
use crate::regen::{RegenMethod, RegenSolver};
use crate::vmodel::build_truncated_model;
use regenr_ctmc::CtmcError;
use regenr_sparse::Workspace;
use regenr_transient::{MeasureKind, SrOptions, SrSolver};
use std::time::Duration;

/// Options for [`RrSolver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RrOptions {
    /// Shared regenerative-randomization options (`ε`, `θ`, caps).
    pub regen: RegenOptions,
}

/// Result of an RR solve.
#[derive(Clone, Copy, Debug)]
pub struct RrSolution {
    /// The measure value.
    pub value: f64,
    /// Construction steps `K (+ L)` — the paper's reported step count.
    pub construction_steps: usize,
    /// Depth `K` of the main chain.
    pub k: usize,
    /// Depth `L` of the primed chain (0 when absent).
    pub l: usize,
    /// Steps of the *inner* standard-randomization solve of `V_{K,L}`
    /// (`≈ Λt` — the cost RRL eliminates).
    pub inner_steps: usize,
    /// Total error bound (`ε`).
    pub error_bound: f64,
}

impl RegenMethod for RrOptions {
    type Solution = RrSolution;

    fn regen(&self) -> &RegenOptions {
        &self.regen
    }

    fn at_zero(value: f64) -> RrSolution {
        RrSolution {
            value,
            construction_steps: 0,
            k: 0,
            l: 0,
            inner_steps: 0,
            error_bound: 0.0,
        }
    }

    fn solve_stage(
        solver: &RrSolver<'_>,
        params: &RegenParams,
        measure: MeasureKind,
        t: f64,
        _built: Duration,
        ws: &mut Workspace,
    ) -> Result<RrSolution, CtmcError> {
        solver.solve_from(params, measure, t, ws)
    }
}

/// Regenerative-randomization solver: the truncated model is solved by
/// standard randomization, so the total error is `≤ ε` (`ε/2` model
/// truncation + `ε/2` inner SR). A horizon grid shares one parameter
/// construction, but each horizon's inner solve is still `Θ(Λt)` — RR's
/// defining cost, which RRL eliminates.
pub type RrSolver<'a> = RegenSolver<'a, RrOptions>;

impl RrSolver<'_> {
    /// RR's solve stage: solves the truncated model described by
    /// already-computed (and, for `t` below their horizon, already-sliced)
    /// parameters with an inner standard randomization.
    pub fn solve_from(
        &self,
        params: &RegenParams,
        measure: MeasureKind,
        t: f64,
        ws: &mut Workspace,
    ) -> Result<RrSolution, CtmcError> {
        let regen = self.options().regen;
        let (vmodel, _) = build_truncated_model(params)?;
        let inner = SrSolver::new(
            &vmodel,
            SrOptions {
                epsilon: regen.epsilon / 2.0,
                theta: regen.theta,
                parallel: regen.parallel,
            },
        );
        let sol = inner.solve_with(measure, t, ws);
        Ok(RrSolution {
            value: sol.value,
            construction_steps: params.construction_steps(),
            k: params.main.depth(),
            l: params.primed.as_ref().map_or(0, |p| p.depth()),
            inner_steps: sol.steps,
            error_bound: regen.epsilon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regenr_ctmc::Ctmc;

    #[test]
    fn solve_many_matches_per_t_solves() {
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 0.05), (1, 2, 1.0), (2, 0, 0.5), (1, 0, 0.5)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let rr = RrSolver::new(&c, 0, opts(1e-11)).unwrap();
        let ts = [0.0, 0.5, 50.0, 5.0];
        for meas in [MeasureKind::Trr, MeasureKind::Mrr] {
            let many = rr.solve_many(meas, &ts).unwrap();
            for (sol, &t) in many.iter().zip(&ts) {
                let single = rr.solve(meas, t).unwrap();
                // Identical truncation criterion ⇒ identical depths & values.
                assert_eq!(sol.construction_steps, single.construction_steps, "t={t}");
                assert!(
                    (sol.value - single.value).abs() < 1e-13,
                    "t={t} {meas:?}: {} vs {}",
                    sol.value,
                    single.value
                );
            }
        }
    }

    fn opts(eps: f64) -> RrOptions {
        RrOptions {
            regen: RegenOptions {
                epsilon: eps,
                ..Default::default()
            },
        }
    }

    /// RR against the closed form of the 2-state repairable unit.
    #[test]
    fn matches_closed_form_availability() {
        let (l, m) = (1e-3, 1.0);
        let c =
            Ctmc::from_rates(2, &[(0, 1, l), (1, 0, m)], vec![1.0, 0.0], vec![0.0, 1.0]).unwrap();
        let rr = RrSolver::new(&c, 0, opts(1e-12)).unwrap();
        for &t in &[1.0, 100.0, 10_000.0] {
            let got = rr.solve(MeasureKind::Trr, t).unwrap();
            let want = l / (l + m) * (1.0 - (-(l + m) * t).exp());
            assert!(
                (got.value - want).abs() < 1e-11,
                "t={t}: {} vs {want}",
                got.value
            );
        }
    }

    /// RR against SR on a 4-state model with an absorbing failure state.
    #[test]
    fn matches_sr_with_absorbing() {
        let c = Ctmc::from_rates(
            4,
            &[
                (0, 1, 0.2),
                (1, 0, 2.0),
                (1, 2, 0.5),
                (2, 0, 1.0),
                (2, 3, 0.05),
            ],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0],
        )
        .unwrap();
        let rr = RrSolver::new(&c, 0, opts(1e-11)).unwrap();
        let sr = SrSolver::new(
            &c,
            SrOptions {
                epsilon: 1e-12,
                ..Default::default()
            },
        );
        for &t in &[0.5, 10.0, 200.0] {
            for meas in [MeasureKind::Trr, MeasureKind::Mrr] {
                let got = rr.solve(meas, t).unwrap().value;
                let want = sr.solve(meas, t).value;
                assert!(
                    (got - want).abs() < 5e-11,
                    "t={t} {meas:?}: {got} vs {want}"
                );
            }
        }
    }

    /// Construction steps must be far below SR steps for large t (the whole
    /// point of the method).
    #[test]
    fn construction_steps_sublinear_in_t() {
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 0.05), (1, 2, 1.0), (2, 0, 0.5), (1, 0, 0.5)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let rr = RrSolver::new(&c, 0, opts(1e-12)).unwrap();
        let s1 = rr.solve(MeasureKind::Trr, 1e2).unwrap();
        let s2 = rr.solve(MeasureKind::Trr, 1e4).unwrap();
        assert!(s2.construction_steps < 2 * s1.construction_steps + 200);
        assert!(s2.inner_steps > 50 * s2.construction_steps);
    }

    #[test]
    fn zero_horizon() {
        let c = Ctmc::from_rates(
            2,
            &[(0, 1, 1.0), (1, 0, 1.0)],
            vec![1.0, 0.0],
            vec![0.5, 1.0],
        )
        .unwrap();
        let rr = RrSolver::new(&c, 0, opts(1e-12)).unwrap();
        let s = rr.solve(MeasureKind::Trr, 0.0).unwrap();
        assert_eq!(s.value, 0.5);
        assert_eq!(s.construction_steps, 0);
    }

    #[test]
    fn bad_regenerative_state_rejected() {
        let c = Ctmc::from_rates(2, &[(0, 1, 1.0)], vec![1.0, 0.0], vec![0.0, 1.0]).unwrap();
        assert!(RrSolver::new(&c, 1, opts(1e-12)).is_err());
        assert!(RrSolver::new(&c, 5, opts(1e-12)).is_err());
    }
}

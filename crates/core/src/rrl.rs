//! RRL — regenerative randomization with Laplace transform inversion.
//!
//! **The paper's new variant.** The truncated transformed model is *not*
//! solved by stepping; instead its closed-form transform
//! ([`crate::transform`]) is evaluated at the Durbin abscissae and inverted
//! numerically ([`regenr_laplace`]). The `Θ(Λt)` inner stepping of RR becomes
//! a few hundred `O(K)` transform evaluations, which is why the paper finds
//! RRL "significantly faster than the original regenerative randomization for
//! large `t` and models of moderate size".
//!
//! Error budget (paper §2.2): `ε/2` to model truncation (construction), then
//! `ε/4` to the inversion's approximation error via the damping parameter and
//! `ε/4` to its series-truncation error via the `ε/100` convergence tolerance
//! (a factor-25 reserve).

use crate::params::{RegenOptions, RegenParams};
use crate::regen::{RegenMethod, RegenSolver};
use crate::transform::TransformEvaluator;
use regenr_ctmc::CtmcError;
use regenr_laplace::{
    damping_for_bounded, damping_for_linear_growth, DurbinInverter, InverterOptions,
};
use regenr_sparse::Workspace;
use regenr_transient::MeasureKind;
use std::time::{Duration, Instant};

/// Options for [`RrlSolver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RrlOptions {
    /// Shared regenerative-randomization options (`ε`, `θ`, caps).
    pub regen: RegenOptions,
    /// Laplace-inversion tuning (`T = 8t`, ε-acceleration by default).
    pub inverter: InverterOptions,
}

/// Result of an RRL solve.
#[derive(Clone, Copy, Debug)]
pub struct RrlSolution {
    /// The measure value.
    pub value: f64,
    /// Construction steps `K (+ L)` — identical to RR's; the paper's Tables
    /// 1–2 report this number for the RR/RRL column.
    pub construction_steps: usize,
    /// Depth `K` of the main chain.
    pub k: usize,
    /// Depth `L` of the primed chain (0 when absent).
    pub l: usize,
    /// Transform evaluations performed by the inversion (the paper observed
    /// 105–329).
    pub abscissae: usize,
    /// Whether the inversion's convergence criterion was met.
    pub inversion_converged: bool,
    /// Wall time spent building the parameters (stepping the DTMC); every
    /// positive horizon of a grid reports the one shared construction's.
    pub construction_time: Duration,
    /// Wall time spent in transform evaluation + inversion (the paper reports
    /// this at ~1–2% of the total).
    pub inversion_time: Duration,
    /// Total error bound (`ε`).
    pub error_bound: f64,
}

impl RegenMethod for RrlOptions {
    type Solution = RrlSolution;

    fn regen(&self) -> &RegenOptions {
        &self.regen
    }

    fn at_zero(value: f64) -> RrlSolution {
        RrlSolution {
            value,
            construction_steps: 0,
            k: 0,
            l: 0,
            abscissae: 0,
            inversion_converged: true,
            construction_time: Duration::ZERO,
            inversion_time: Duration::ZERO,
            error_bound: 0.0,
        }
    }

    fn solve_stage(
        solver: &RrlSolver<'_>,
        params: &RegenParams,
        measure: MeasureKind,
        t: f64,
        built: Duration,
        _ws: &mut Workspace,
    ) -> Result<RrlSolution, CtmcError> {
        Ok(RrlSolution {
            construction_time: built,
            ..solver.invert_params(params, measure, t)
        })
    }
}

/// The RRL solver.
pub type RrlSolver<'a> = RegenSolver<'a, RrlOptions>;

impl RrlSolver<'_> {
    /// `TRR(t)` with total error `≤ ε`.
    pub fn trr(&self, t: f64) -> Result<RrlSolution, CtmcError> {
        self.solve(MeasureKind::Trr, t)
    }

    /// `MRR(t)` with total error `≤ ε`.
    pub fn mrr(&self, t: f64) -> Result<RrlSolution, CtmcError> {
        self.solve(MeasureKind::Mrr, t)
    }

    /// RRL's solve stage: inverts the transform of the truncated model
    /// described by precomputed (and sliced) parameters. perfbench's trace
    /// replay calls it to time the two stages separately.
    pub fn invert_params(&self, params: &RegenParams, measure: MeasureKind, t: f64) -> RrlSolution {
        let opts = self.options();
        let eps = opts.regen.epsilon;
        let r_max = params.r_max;
        let t_period = opts.inverter.t_multiplier * t;
        let evaluator = TransformEvaluator::new(params);
        let inverter = DurbinInverter::new(opts.inverter);

        let t1 = Instant::now();
        let (value, abscissae, converged) = match measure {
            MeasureKind::Trr => {
                let a = damping_for_bounded(eps, r_max, t_period);
                let res = inverter.invert(|s| evaluator.trr(s), t, a, eps / 100.0);
                // TRR is a probability-weighted reward: clamp the tiny
                // inversion overshoot outside [0, r_max].
                (res.value.clamp(0.0, r_max), res.abscissae, res.converged)
            }
            MeasureKind::Mrr => {
                let a = damping_for_linear_growth(eps, r_max, t, t_period);
                let res = inverter.invert(|s| evaluator.c_integral(s), t, a, eps * t / 100.0);
                (
                    (res.value / t).clamp(0.0, r_max),
                    res.abscissae,
                    res.converged,
                )
            }
        };
        let inversion_time = t1.elapsed();

        // `mut` is used only when failpoint sites are compiled in.
        #[allow(unused_mut)]
        let mut value = value;
        #[allow(unused_mut)]
        let mut converged = converged;
        regenr_failpoint::failpoint!("rrl-nan", |_fired| value = f64::NAN);
        regenr_failpoint::failpoint!("rrl-nonconverged", |_fired| converged = false);

        RrlSolution {
            value,
            construction_steps: params.construction_steps(),
            k: params.main.depth(),
            l: params.primed.as_ref().map_or(0, |p| p.depth()),
            abscissae,
            inversion_converged: converged,
            construction_time: Duration::ZERO,
            inversion_time,
            error_bound: eps,
        }
    }

    /// Computes **certified two-sided bounds** on `TRR(t)` — an extension
    /// following the paper's companion report on bounding performability
    /// measures (ref.\[2\] in its bibliography).
    ///
    /// The truncated model under-counts exactly the probability mass parked
    /// in the truncation state `a`; rewarding `a` with `0` (the default)
    /// gives a lower bound and with `r_max` an upper bound, so
    /// `upper − lower = r_max·P[V(t)=a] ≤ ε/2` by the truncation criterion.
    /// Each side additionally carries the `ε/2` inversion budget, so the
    /// returned interval, widened by `ε`, contains the true value.
    pub fn trr_bounds(&self, t: f64) -> Result<(f64, f64), CtmcError> {
        assert!(t >= 0.0);
        if t == 0.0 {
            let v = self.ctmc.reward_dot(self.ctmc.initial());
            return Ok((v, v));
        }
        let opts = self.options();
        let eps = opts.regen.epsilon;
        let params = self.parameters(t)?;
        let r_max = params.r_max;
        let t_period = opts.inverter.t_multiplier * t;
        let evaluator = TransformEvaluator::new(&params);
        let inverter = DurbinInverter::new(opts.inverter);
        let a = damping_for_bounded(eps, r_max, t_period);
        let lower = inverter
            .invert(|s| evaluator.trr(s), t, a, eps / 100.0)
            .value
            .clamp(0.0, r_max);
        let upper = inverter
            .invert(
                |s| evaluator.trr(s) + r_max * evaluator.trunc_occupancy(s),
                t,
                a,
                eps / 100.0,
            )
            .value
            .clamp(0.0, r_max);
        // Inversion noise can make the sides cross by O(ε); never return an
        // inverted interval.
        Ok((lower.min(upper), upper.max(lower)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regenr_ctmc::Ctmc;
    use regenr_transient::{SrOptions, SrSolver};

    fn opts(eps: f64) -> RrlOptions {
        RrlOptions {
            regen: RegenOptions {
                epsilon: eps,
                ..Default::default()
            },
            inverter: InverterOptions::default(),
        }
    }

    #[test]
    fn matches_closed_form_availability() {
        let (l, m) = (1e-3, 1.0);
        let c =
            Ctmc::from_rates(2, &[(0, 1, l), (1, 0, m)], vec![1.0, 0.0], vec![0.0, 1.0]).unwrap();
        let rrl = RrlSolver::new(&c, 0, opts(1e-12)).unwrap();
        for &t in &[1.0, 100.0, 10_000.0, 1_000_000.0] {
            let got = rrl.trr(t).unwrap();
            let want = l / (l + m) * (1.0 - (-(l + m) * t).exp());
            assert!(got.inversion_converged, "t={t}: inversion did not converge");
            assert!(
                (got.value - want).abs() < 1e-10,
                "t={t}: {} vs {want}",
                got.value
            );
        }
    }

    #[test]
    fn matches_sr_on_cyclic_model_both_measures() {
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 0.05), (1, 2, 1.0), (2, 0, 0.5), (1, 0, 0.5)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let rrl = RrlSolver::new(&c, 0, opts(1e-11)).unwrap();
        let sr = SrSolver::new(
            &c,
            SrOptions {
                epsilon: 1e-13,
                ..Default::default()
            },
        );
        for &t in &[0.5, 5.0, 50.0, 500.0] {
            for meas in [MeasureKind::Trr, MeasureKind::Mrr] {
                let got = rrl.solve(meas, t).unwrap();
                let want = sr.solve(meas, t).value;
                assert!(got.inversion_converged);
                assert!(
                    (got.value - want).abs() < 1e-9,
                    "t={t} {meas:?}: {} vs {want}",
                    got.value
                );
            }
        }
    }

    #[test]
    fn unreliability_with_absorbing_state() {
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
        let rrl = RrlSolver::new(&c, 0, opts(1e-11)).unwrap();
        let sr = SrSolver::new(
            &c,
            SrOptions {
                epsilon: 1e-13,
                ..Default::default()
            },
        );
        for &t in &[1.0, 30.0, 300.0] {
            for meas in [MeasureKind::Trr, MeasureKind::Mrr] {
                let got = rrl.solve(meas, t).unwrap().value;
                let want = sr.solve(meas, t).value;
                assert!((got - want).abs() < 1e-9, "t={t} {meas:?}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn primed_chain_initial_distribution() {
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 0.05), (1, 2, 1.0), (2, 0, 0.5), (1, 0, 0.5)],
            vec![0.2, 0.5, 0.3],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let rrl = RrlSolver::new(&c, 0, opts(1e-11)).unwrap();
        let sr = SrSolver::new(
            &c,
            SrOptions {
                epsilon: 1e-13,
                ..Default::default()
            },
        );
        for &t in &[1.0, 25.0] {
            let got = rrl.trr(t).unwrap();
            assert!(got.l > 0, "primed chain must be present");
            let want = sr.solve(MeasureKind::Trr, t).value;
            assert!(
                (got.value - want).abs() < 1e-9,
                "t={t}: {} vs {want}",
                got.value
            );
        }
    }

    #[test]
    fn abscissae_in_papers_ballpark() {
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 0.05), (1, 2, 1.0), (2, 0, 0.5), (1, 0, 0.5)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let rrl = RrlSolver::new(&c, 0, opts(1e-12)).unwrap();
        let got = rrl.trr(1000.0).unwrap();
        assert!(
            got.abscissae >= 20 && got.abscissae <= 3000,
            "abscissae {} far outside the paper's 105–329 ballpark",
            got.abscissae
        );
    }

    #[test]
    fn bounds_bracket_the_true_value() {
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 0.05), (1, 2, 1.0), (2, 0, 0.5), (1, 0, 0.5)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let eps = 1e-10;
        let rrl = RrlSolver::new(&c, 0, opts(eps)).unwrap();
        let sr = SrSolver::new(
            &c,
            SrOptions {
                epsilon: 1e-13,
                ..Default::default()
            },
        );
        for &t in &[0.5, 5.0, 50.0, 500.0] {
            let (lo, hi) = rrl.trr_bounds(t).unwrap();
            let truth = sr.solve(MeasureKind::Trr, t).value;
            assert!(lo <= hi);
            assert!(
                truth >= lo - eps && truth <= hi + eps,
                "t={t}: truth {truth} outside [{lo}, {hi}]"
            );
            assert!(hi - lo <= eps, "t={t}: gap {} exceeds ε", hi - lo);
        }
    }

    #[test]
    fn bounds_coincide_when_model_is_exact() {
        // Two-state unit: the killed chain dies at depth 2, no truncation
        // mass, so the bounds collapse to inversion noise.
        let c = Ctmc::from_rates(
            2,
            &[(0, 1, 0.1), (1, 0, 1.0)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        )
        .unwrap();
        let rrl = RrlSolver::new(&c, 0, opts(1e-12)).unwrap();
        let (lo, hi) = rrl.trr_bounds(10.0).unwrap();
        assert!(
            hi - lo < 1e-12,
            "gap {} should be pure inversion noise",
            hi - lo
        );
    }

    #[test]
    fn solve_many_matches_per_t_solves() {
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 0.05), (1, 2, 1.0), (2, 0, 0.5), (1, 0, 0.5)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let rrl = RrlSolver::new(&c, 0, opts(1e-11)).unwrap();
        let ts = [0.5, 5.0, 500.0, 50.0];
        for meas in [MeasureKind::Trr, MeasureKind::Mrr] {
            let many = rrl.solve_many(meas, &ts).unwrap();
            for (sol, &t) in many.iter().zip(&ts) {
                let single = rrl.solve(meas, t).unwrap();
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

    #[test]
    fn solve_many_with_primed_chain_and_zero() {
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 0.05), (1, 2, 1.0), (2, 0, 0.5), (1, 0, 0.5)],
            vec![0.4, 0.6, 0.0],
            vec![0.3, 1.0, 1.0],
        )
        .unwrap();
        let rrl = RrlSolver::new(&c, 0, opts(1e-11)).unwrap();
        let ts = [0.0, 1.0, 30.0];
        let many = rrl.solve_many(MeasureKind::Trr, &ts).unwrap();
        assert!((many[0].value - (0.4 * 0.3 + 0.6 * 1.0)).abs() < 1e-14);
        for (sol, &t) in many.iter().zip(&ts).skip(1) {
            let single = rrl.trr(t).unwrap();
            assert!((sol.value - single.value).abs() < 1e-13, "t={t}");
        }
    }

    #[test]
    fn zero_horizon() {
        let c = Ctmc::from_rates(
            2,
            &[(0, 1, 1.0), (1, 0, 1.0)],
            vec![1.0, 0.0],
            vec![0.25, 1.0],
        )
        .unwrap();
        let rrl = RrlSolver::new(&c, 0, opts(1e-12)).unwrap();
        assert_eq!(rrl.trr(0.0).unwrap().value, 0.25);
    }
}

//! Dense adaptive Runge–Kutta oracle for the Kolmogorov forward equations.
//!
//! `π'(τ) = π(τ)·Q`, integrated with the Cash–Karp embedded RK4(5) pair and
//! PI step-size control. This is deliberately a *different numerical family*
//! from randomization, so agreement between the two is strong evidence of
//! correctness — it is used as a cross-validation oracle in tests and is only
//! suitable for small, non-stiff-to-moderately-stiff models (dense `O(n²)`
//! per stage).
//!
//! `MRR` is computed by augmenting the system with the running reward integral
//! `I'(τ) = r·π(τ)`.

use crate::{MeasureKind, Solution};
use regenr_ctmc::Ctmc;
use regenr_sparse::Workspace;

/// Hard cap on accepted plus rejected steps.
const MAX_STEPS: usize = 50_000_000;

/// Dense RK4(5) transient solver (test oracle).
pub struct OdeSolver<'a> {
    ctmc: &'a Ctmc,
    q_dense: Vec<Vec<f64>>,
    /// Local error tolerance per step (absolute, per component).
    tol: f64,
}

impl<'a> OdeSolver<'a> {
    /// Densifies the generator; intended for models with ≲ 1000 states.
    /// `tol` is the local error tolerance per step (absolute, per
    /// component).
    pub fn new(ctmc: &'a Ctmc, tol: f64) -> Self {
        OdeSolver {
            ctmc,
            q_dense: ctmc.generator().to_dense(),
            tol,
        }
    }

    /// Computes `TRR(t)` or `MRR(t)`.
    pub fn solve(&self, measure: MeasureKind, t: f64) -> Solution {
        self.solve_with(measure, t, &mut Workspace::new())
    }

    /// Like [`OdeSolver::solve`] with caller-owned scratch: the stage
    /// vectors are reused across repeated solves.
    pub fn solve_with(&self, measure: MeasureKind, t: f64, ws: &mut Workspace) -> Solution {
        assert!(t >= 0.0);
        let pi = self.integrate(t, ws);
        let n = self.ctmc.n_states();
        let value = match measure {
            MeasureKind::Trr => self.ctmc.reward_dot(&pi[..n]),
            MeasureKind::Mrr => {
                if t == 0.0 {
                    self.ctmc.reward_dot(&pi[..n])
                } else {
                    pi[n] / t
                }
            }
        };
        ws.give(pi);
        Solution {
            value,
            steps: 0,
            error_bound: f64::NAN,
        }
    }

    /// Integrates the augmented system `[π, ∫ r·π]` from 0 to `t`. The
    /// returned vector comes from `ws`; callers should give it back when
    /// done with it.
    fn integrate(&self, t: f64, ws: &mut Workspace) -> Vec<f64> {
        let n = self.ctmc.n_states();
        let mut y = ws.take_copied(self.ctmc.initial());
        y.push(0.0); // reward integral
        if t == 0.0 {
            return y;
        }

        // Cash–Karp tableau.
        const A: [[f64; 5]; 5] = [
            [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0],
            [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0],
            [3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0, 0.0, 0.0],
            [-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0, 0.0],
            [
                1631.0 / 55296.0,
                175.0 / 512.0,
                575.0 / 13824.0,
                44275.0 / 110592.0,
                253.0 / 4096.0,
            ],
        ];
        const B5: [f64; 6] = [
            37.0 / 378.0,
            0.0,
            250.0 / 621.0,
            125.0 / 594.0,
            0.0,
            512.0 / 1771.0,
        ];
        const B4: [f64; 6] = [
            2825.0 / 27648.0,
            0.0,
            18575.0 / 48384.0,
            13525.0 / 55296.0,
            277.0 / 14336.0,
            1.0 / 4.0,
        ];

        let deriv = |y: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.resize(n + 1, 0.0);
            // π' = πQ  (row vector times matrix).
            for (i, &yi) in y.iter().enumerate().take(n) {
                if yi == 0.0 {
                    continue;
                }
                for (j, qij) in self.q_dense[i].iter().enumerate() {
                    if *qij != 0.0 {
                        out[j] += yi * qij;
                    }
                }
            }
            out[n] = self.ctmc.reward_dot(&y[..n]);
        };

        // Initial step heuristic: a fraction of the fastest time constant.
        let max_rate = (0..n).map(|i| self.ctmc.exit_rate(i)).fold(0.0, f64::max);
        let mut h = if max_rate > 0.0 { 0.1 / max_rate } else { t };
        h = h.min(t);
        let mut tau = 0.0f64;
        let mut k: Vec<Vec<f64>> = (0..6).map(|_| ws.take_zeroed(n + 1)).collect();
        let mut ytmp = ws.take_zeroed(n + 1);
        let mut steps = 0usize;

        while tau < t {
            if tau + h > t {
                h = t - tau;
            }
            deriv(&y, &mut k[0]);
            for stage in 1..6 {
                for (i, v) in ytmp.iter_mut().enumerate() {
                    let mut acc = y[i];
                    for (s, ks) in k.iter().enumerate().take(stage) {
                        let a = A[stage - 1][s];
                        if a != 0.0 {
                            acc += h * a * ks[i];
                        }
                    }
                    *v = acc;
                }
                let (head, tail) = k.split_at_mut(stage);
                let _ = head;
                deriv(&ytmp, &mut tail[0]);
            }
            // 5th-order solution and 4th-order error estimate.
            let mut err: f64 = 0.0;
            for (i, slot) in ytmp.iter_mut().enumerate() {
                let mut y5 = y[i];
                let mut y4 = y[i];
                for (s, ks) in k.iter().enumerate() {
                    y5 += h * B5[s] * ks[i];
                    y4 += h * B4[s] * ks[i];
                }
                err = err.max((y5 - y4).abs());
                *slot = y5;
            }
            steps += 1;
            assert!(
                steps <= MAX_STEPS,
                "ODE oracle exceeded {MAX_STEPS} steps (model too stiff for the oracle)"
            );
            if err <= self.tol || h <= 1e-15 * t.max(1.0) {
                y.copy_from_slice(&ytmp);
                tau += h;
            }
            // PI controller (classic safety factor 0.9, order-5 exponent).
            let scale = if err > 0.0 {
                0.9 * (self.tol / err).powf(0.2)
            } else {
                5.0
            };
            h *= scale.clamp(0.2, 5.0);
        }
        for stage in k {
            ws.give(stage);
        }
        ws.give(ytmp);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sr::{SrOptions, SrSolver};

    fn three_state() -> Ctmc {
        Ctmc::from_rates(
            3,
            &[
                (0, 1, 0.8),
                (1, 0, 0.4),
                (1, 2, 0.6),
                (2, 0, 1.5),
                (2, 1, 0.2),
            ],
            vec![0.6, 0.4, 0.0],
            vec![2.0, 1.0, 0.0],
        )
        .unwrap()
    }

    #[test]
    fn agrees_with_sr_trr() {
        let c = three_state();
        let ode = OdeSolver::new(&c, 1e-12);
        let sr = SrSolver::new(&c, SrOptions::default());
        for &t in &[0.1, 1.0, 4.0, 20.0] {
            let a = ode.solve(MeasureKind::Trr, t).value;
            let b = sr.solve(MeasureKind::Trr, t).value;
            assert!((a - b).abs() < 1e-9, "t={t}: ode {a} vs sr {b}");
        }
    }

    #[test]
    fn agrees_with_sr_mrr() {
        let c = three_state();
        let ode = OdeSolver::new(&c, 1e-12);
        let sr = SrSolver::new(&c, SrOptions::default());
        for &t in &[0.5, 2.0, 10.0] {
            let a = ode.solve(MeasureKind::Mrr, t).value;
            let b = sr.solve(MeasureKind::Mrr, t).value;
            assert!((a - b).abs() < 1e-8, "t={t}: ode {a} vs sr {b}");
        }
    }

    #[test]
    fn distribution_stays_a_distribution() {
        let c = three_state();
        let ode = OdeSolver::new(&c, 1e-12);
        let d = &ode.integrate(7.3, &mut Workspace::new())[..c.n_states()];
        let mass: f64 = d.iter().sum();
        assert!((mass - 1.0).abs() < 1e-9);
        assert!(d.iter().all(|&p| p >= -1e-12));
    }

    #[test]
    fn exponential_decay_exact() {
        // Pure death 0 -> 1: π_0(t) = e^{-t}.
        let c = Ctmc::from_rates(2, &[(0, 1, 1.0)], vec![1.0, 0.0], vec![1.0, 0.0]).unwrap();
        let ode = OdeSolver::new(&c, 1e-12);
        for &t in &[0.5f64, 2.0, 8.0] {
            let v = ode.solve(MeasureKind::Trr, t).value;
            assert!((v - (-t).exp()).abs() < 1e-10, "t={t}");
        }
    }
}

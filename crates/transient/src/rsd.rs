//! Randomization with steady-state detection (RSD).
//!
//! For an *irreducible* chain the DTMC iterates `π_n = α P^n` converge to the
//! stationary vector; once they have converged to within the error budget,
//! all remaining Poisson-weighted terms can reuse the detected vector and the
//! stepping stops — the paper's Table 1 shows RSD's step count saturating at
//! the detection step while SR's keeps growing with `t`.
//!
//! ## Detection criterion
//!
//! Let `d_n = ‖π_n − π_{n−1}‖₁`. Row-stochasticity makes `d_n` non-increasing
//! (`‖μP‖₁ ≤ ‖μ‖₁`). For an aperiodic chain `d_n → 0` geometrically with the
//! subdominant-eigenvalue modulus `ρ`; then for any `m > n`
//!
//! `|r·π_m − r·π_n| ≤ r_max Σ_{j>n} d_j ≤ r_max · d_n · ρ/(1−ρ)`.
//!
//! We estimate `ρ̂` from a sliding window of observed ratios (the fully
//! rigorous bound of Sericola 1999 needs spectral information that is not
//! available here; the estimate is conservative: we take the *maximum* ratio
//! over the window) and stop at the first `n*` where
//! `r_max · d_{n*} · ρ̂/(1−ρ̂) ≤ ε/2`. This is a practical variant: the
//! reported bound is an estimate, not a rigorous bound.
//!
//! Periodic chains never trigger detection under `θ = 0` uniformization; pass
//! `theta > 0` to force self-loops (aperiodicity) — the solver then behaves
//! like SR until detection fires.
//!
//! ## Many horizons, one propagation
//!
//! Neither the iterates nor the detection step `n*` depend on `t`, so
//! [`RsdSolver::solve_many_with`] serves a whole horizon grid from one run
//! of `π_n`: each horizon keeps its own Poisson window and accumulator, and
//! each cell's `steps` is its own `min(R_t, n*)` — the Fox–Glynn right point
//! when the window ends first, the detection step otherwise. A grid whose
//! horizons all reach detection therefore costs `n*` products in total,
//! not `n*` per horizon.

use crate::window::{PoissonWindows, RewardDot};
use crate::{MeasureKind, Solution};
use regenr_ctmc::{Ctmc, Uniformized};
use regenr_numeric::PoissonWeights;
use regenr_sparse::{ParallelConfig, RowFold, Workspace};
use std::sync::Arc;

/// Sliding-window length for the contraction-ratio estimate.
const RATIO_WINDOW: usize = 16;

/// Minimum number of steps before detection may fire (guards against
/// transient plateaus in `d_n`).
const WARMUP: usize = 32;

/// Options for [`RsdSolver`].
#[derive(Clone, Copy, Debug)]
pub struct RsdOptions {
    /// Total absolute error budget `ε`.
    pub epsilon: f64,
    /// Uniformization safety factor (`0` matches the paper; `> 0` guarantees
    /// aperiodicity).
    pub theta: f64,
    /// Parallel SpMV configuration.
    pub parallel: ParallelConfig,
}

impl Default for RsdOptions {
    fn default() -> Self {
        RsdOptions {
            epsilon: 1e-12,
            theta: 0.0,
            parallel: ParallelConfig::default(),
        }
    }
}

/// Steady-state-detection solver bound to one chain.
#[derive(Clone, Debug)]
pub struct RsdSolver<'a> {
    ctmc: &'a Ctmc,
    unif: Arc<Uniformized>,
    opts: RsdOptions,
}

/// Extra diagnostics from an RSD run.
#[derive(Clone, Copy, Debug)]
pub struct RsdReport {
    /// The solution proper.
    pub solution: Solution,
    /// Step at which stationarity was detected (`None` if the Poisson window
    /// was exhausted first, in which case RSD degenerated to SR).
    pub detected_at: Option<usize>,
    /// Final `‖π_n − π_{n−1}‖₁` observed.
    pub final_delta: f64,
}

impl<'a> RsdSolver<'a> {
    /// Uniformizes the chain and prepares the solver.
    pub fn new(ctmc: &'a Ctmc, opts: RsdOptions) -> Self {
        let unif = Arc::new(Uniformized::new(ctmc, opts.theta));
        Self::with_uniformized(ctmc, unif, opts)
    }

    /// Reuses a prebuilt uniformization (the engine's artifact-cache path).
    /// `unif` must have been built from `ctmc` at `opts.theta`.
    pub fn with_uniformized(ctmc: &'a Ctmc, unif: Arc<Uniformized>, opts: RsdOptions) -> Self {
        assert!(opts.epsilon > 0.0, "epsilon must be positive");
        unif.assert_built_from(ctmc);
        RsdSolver { ctmc, unif, opts }
    }

    /// The randomization rate in use.
    pub fn lambda(&self) -> f64 {
        self.unif.lambda
    }

    /// Computes the measure with steady-state detection; see module docs for
    /// the error-control discussion.
    pub fn solve(&self, measure: MeasureKind, t: f64) -> Solution {
        self.solve_report(measure, t).solution
    }

    /// Like [`RsdSolver::solve`] but with detection diagnostics.
    pub fn solve_report(&self, measure: MeasureKind, t: f64) -> RsdReport {
        self.solve_report_with(measure, t, &mut Workspace::new())
    }

    /// Like [`RsdSolver::solve_report`] with caller-owned scratch: repeated
    /// solves through one [`Workspace`] perform no steady-state vector
    /// allocations. A one-horizon call into [`RsdSolver::solve_many_with`].
    pub fn solve_report_with(&self, measure: MeasureKind, t: f64, ws: &mut Workspace) -> RsdReport {
        self.solve_many_with(measure, &[t], ws)[0]
    }

    /// Computes the measure at *many* horizons from one propagation.
    ///
    /// Stepping, the `‖π_n − π_{n−1}‖₁` deltas and the ratio-window
    /// detection do not depend on `t`; only the Poisson window does. This
    /// method steps `π_n` once, up to the detection step `n*` or the
    /// largest right truncation point, whichever comes first, and keeps one
    /// window and one compensated accumulator per horizon. A horizon whose
    /// right point `R_t` comes before `n*` closes there, exactly as a
    /// one-horizon solve would stop at its own `R_t`; the others add the
    /// detected vector's tail. Every report — value, `steps` (=
    /// `min(R_t, n*)`), `detected_at` and `final_delta` — is bitwise what a
    /// one-horizon call produces: each accumulator sees the same terms in
    /// the same order.
    pub fn solve_many_with(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Vec<RsdReport> {
        // Half of ε pays for the truncated Poisson mass, half for the tail
        // the detected vector stands in for.
        let mut windows = PoissonWindows::new(
            self.ctmc,
            self.unif.lambda,
            measure,
            ts,
            self.opts.epsilon,
            2.0,
        );
        let mut reports = vec![
            RsdReport {
                solution: windows.still(),
                detected_at: None,
                final_delta: f64::NAN,
            };
            ts.len()
        ];
        let Some(max_right) = windows.max_right() else {
            return reports;
        };
        let mut detector = Detector::new(self.ctmc.max_reward(), self.opts.epsilon / 2.0);

        let stepper = self.unif.stepper(&self.opts.parallel);
        let mut pi = ws.take_copied(self.ctmc.initial());
        let mut next = ws.take_zeroed(pi.len());
        let mut rr = self.ctmc.reward_dot(&pi);
        let mut detected_at = None;
        let mut final_delta = f64::NAN;

        for n in 0..=max_right {
            // A Poisson window ending before detection closes after `n`
            // steps, as in SR.
            windows.add(n, rr, |h, solution| {
                reports[h] = RsdReport {
                    solution,
                    detected_at: None,
                    final_delta,
                };
            });
            if n == max_right {
                break;
            }

            // One pass per step: the product folds in d_{n+1} =
            // ‖π_{n+1} − π_n‖₁ and r·π_{n+1}, the next window term.
            let fold = StepFold::new(&pi, self.ctmc.rewards());
            let fold = stepper.step_folded(&pi, &mut next, fold);
            let d = fold.delta;
            rr = fold.dot.value();
            std::mem::swap(&mut pi, &mut next);
            let steps = (n + 1) as usize;
            final_delta = d;
            if detector.detects(steps, d) {
                detected_at = Some(steps);
                break;
            }
        }

        // Account for the remaining Poisson mass with the detected vector.
        // When detection fires at step n* the loop has accumulated the terms
        // for π_0 … π_{n*−1}, and `pi` holds π_{n*}; the missing mass is
        //   TRR: Σ_{n≥n*} Po(n)        = survival(n*),
        //   MRR: Σ_{n≥n*} P[N ≥ n+1]   = Σ_{j≥n*+1} P[N ≥ j] = excess(n*+1).
        // Horizons with `R_t < n*` closed in the loop.
        if let Some(n_star) = detected_at {
            let n_star = n_star as u64;
            let tail = |w: &PoissonWeights| match measure {
                MeasureKind::Trr => w.survival(n_star),
                MeasureKind::Mrr => w.expected_excess(n_star + 1),
            };
            windows.close_open(
                n_star,
                |w| tail(w) * rr,
                |h, solution| {
                    reports[h] = RsdReport {
                        solution,
                        detected_at,
                        final_delta,
                    };
                },
            );
        }
        ws.give(pi);
        ws.give(next);
        reports
    }
}

/// RSD's per-step fold: `‖π_{n+1} − π_n‖₁` and `r·π_{n+1}`, each summed in
/// row order from `-0.0` as the separate passes over the stored vectors
/// summed them.
struct StepFold<'a> {
    prev: &'a [f64],
    delta: f64,
    dot: RewardDot<'a>,
}

impl<'a> StepFold<'a> {
    fn new(prev: &'a [f64], rewards: &'a [f64]) -> Self {
        StepFold {
            prev,
            delta: -0.0,
            dot: RewardDot::new(rewards),
        }
    }
}

impl RowFold for StepFold<'_> {
    #[inline(always)]
    fn row(&mut self, i: usize, v: f64) -> f64 {
        self.delta += (v - self.prev[i]).abs();
        self.dot.row(i, v)
    }
}

/// The detection rule of the module docs, fed `d_n` once per step.
pub(crate) struct Detector {
    /// The last `RATIO_WINDOW` ratios `d_n / d_{n−1}` (capped at 1).
    ratios: Vec<f64>,
    prev_delta: f64,
    r_max: f64,
    budget: f64,
}

impl Detector {
    pub(crate) fn new(r_max: f64, budget: f64) -> Self {
        Detector {
            ratios: Vec::with_capacity(RATIO_WINDOW),
            prev_delta: f64::INFINITY,
            r_max,
            budget,
        }
    }

    /// Whether stationarity is detected after `steps` steps, the last of
    /// which moved the iterate by `d` in L1.
    pub(crate) fn detects(&mut self, steps: usize, d: f64) -> bool {
        // An exact fixed point (d = 0, common when the contraction is so
        // strong that d underflows before the ratio window fills) is
        // stationarity with zero tail error: detect immediately.
        if d == 0.0 {
            return true;
        }
        if self.prev_delta.is_finite() && self.prev_delta > 0.0 {
            let ratio = (d / self.prev_delta).min(1.0);
            if self.ratios.len() == RATIO_WINDOW {
                self.ratios.remove(0);
            }
            self.ratios.push(ratio);
        }
        self.prev_delta = d;
        if steps < WARMUP || self.ratios.len() < RATIO_WINDOW {
            return false;
        }
        // Conservative contraction estimate: worst ratio in the window.
        let rho = self.ratios.iter().copied().fold(0.0f64, f64::max);
        rho < 1.0 - 1e-9 && self.r_max * d * rho / (1.0 - rho) <= self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sr::{SrOptions, SrSolver};

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        Ctmc::from_rates(
            2,
            &[(0, 1, lambda), (1, 0, mu)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn matches_sr_on_small_model() {
        let c = two_state(0.3, 1.7);
        let rsd = RsdSolver::new(&c, RsdOptions::default());
        let sr = SrSolver::new(&c, SrOptions::default());
        for &t in &[0.5, 5.0, 50.0, 5000.0] {
            let a = rsd.solve(MeasureKind::Trr, t).value;
            let b = sr.solve(MeasureKind::Trr, t).value;
            assert!((a - b).abs() < 1e-10, "t={t}: rsd {a} vs sr {b}");
            let am = rsd.solve(MeasureKind::Mrr, t).value;
            let bm = sr.solve(MeasureKind::Mrr, t).value;
            assert!((am - bm).abs() < 1e-10, "t={t} (MRR): rsd {am} vs sr {bm}");
        }
    }

    #[test]
    fn detection_caps_steps_for_large_t() {
        let c = two_state(0.3, 1.7);
        let rsd = RsdSolver::new(&c, RsdOptions::default());
        let r1 = rsd.solve_report(MeasureKind::Trr, 1e3);
        let r2 = rsd.solve_report(MeasureKind::Trr, 1e6);
        assert!(r2.detected_at.is_some(), "steady state must be detected");
        assert_eq!(
            r1.solution.steps, r2.solution.steps,
            "detected step count must be t-independent once saturated"
        );
        // SR, by contrast, needs ~Λt steps at t = 1e6.
        let sr = SrSolver::new(&c, SrOptions::default());
        assert!(sr.solve(MeasureKind::Trr, 1e6).steps > 100 * r2.solution.steps);
    }

    #[test]
    fn exact_fixed_point_detects_immediately() {
        // λ + μ = Λ: the DTMC contracts by ~1e-3 per step, so d underflows
        // to exactly 0 long before the ratio window fills; the fixed-point
        // fast path must still detect.
        let c = two_state(1e-3, 1.0);
        let rsd = RsdSolver::new(&c, RsdOptions::default());
        let r = rsd.solve_report(MeasureKind::Trr, 1e6);
        assert!(r.detected_at.is_some(), "fixed point must be detected");
        assert!(r.solution.steps < 200, "steps: {}", r.solution.steps);
        let want = 1e-3 / 1.001;
        assert!((r.solution.value - want).abs() < 1e-10);
    }

    #[test]
    fn small_t_behaves_like_sr() {
        let c = two_state(0.3, 1.7);
        let rsd = RsdSolver::new(&c, RsdOptions::default());
        let r = rsd.solve_report(MeasureKind::Trr, 0.5);
        assert!(r.detected_at.is_none(), "no detection expected at tiny t");
    }

    #[test]
    fn detected_value_is_stationary_limit() {
        // As t → ∞, TRR(t) → stationary unavailability μ... λ/(λ+μ).
        let (l, m) = (0.4, 1.3);
        let c = two_state(l, m);
        let rsd = RsdSolver::new(&c, RsdOptions::default());
        let v = rsd.solve(MeasureKind::Trr, 1e9).value;
        assert!((v - l / (l + m)).abs() < 1e-9);
    }

    #[test]
    fn periodic_chain_with_theta_zero_never_detects_but_stays_correct() {
        // 3-cycle with uniform rates is periodic under θ=0 randomization.
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0],
        )
        .unwrap();
        let rsd = RsdSolver::new(&c, RsdOptions::default());
        let r = rsd.solve_report(MeasureKind::Trr, 30.0);
        assert!(r.detected_at.is_none(), "periodic chain must not detect");
        let sr = SrSolver::new(&c, SrOptions::default());
        let b = sr.solve(MeasureKind::Trr, 30.0).value;
        assert!((r.solution.value - b).abs() < 1e-10);
        // With θ>0 the chain becomes aperiodic and detection fires eventually.
        let rsd2 = RsdSolver::new(
            &c,
            RsdOptions {
                theta: 0.2,
                ..Default::default()
            },
        );
        let r2 = rsd2.solve_report(MeasureKind::Trr, 1e7);
        assert!(r2.detected_at.is_some());
        assert!((r2.solution.value - 1.0 / 3.0).abs() < 1e-9);
    }
}

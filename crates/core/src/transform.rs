//! Closed-form Laplace transforms of the truncated transformed model
//! (Section 2.1 of the paper).
//!
//! ## Derivation (re-derived and verified)
//!
//! Write `z = Λ/(s+Λ)`. The Kolmogorov equations of `V_{K,L}` in the Laplace
//! domain give, for the `K`-chain states (`p_k = P[V(t)=s_k]`):
//!
//! ```text
//! (s+Λ)·p~_k = Λ w_{k-1} p~_{k-1}            (1 ≤ k ≤ K)
//!   ⇒ p~_k = a(k)·z^k·p~_0            (Π w_j telescopes to a(k))
//! ```
//!
//! and the balance at `s_0` (initial mass `α_r`, inflows `q_k` from `s_k` and
//! `q'_k` from `s'_k`):
//!
//! ```text
//! s·p~_0 − α_r = −Λ p~_0 + Λ Σ_{k<K} q_k p~_k + Λ Σ_{k<L} q'_k p~'_k .
//! ```
//!
//! Substituting `q_k = 1 − w_k − v_k`, telescoping `Σ (a(k)−a(k+1)) z^k`, and
//! using `Λ/z = s+Λ` yields `p~_0 = A(s)/B(s)` with
//!
//! ```text
//! B(s) = s·Σ_{k≤K} a(k) z^k + Λ·Σ_{k<K} v_k a(k) z^k + Λ·a(K)·z^K ,
//! A(s) = 1 − s/(s+Λ)·Σ_{k≤L} a'(k) z^k − Λ/(s+Λ)·Σ_{k<L} v'_k a'(k) z^k
//!          − a'(L)·z^{L+1}        (A ≡ 1 when α_r = 1) ,
//! ```
//!
//! the primed chain solving to `p~'_k = a'(k)·z^k/(s+Λ)` directly. The
//! absorbing states integrate their inflows (`p~_{f_i} = inflow/s`), giving
//!
//! ```text
//! TRR~(s) = [ Σ_{k≤K} c(k) z^k + (Λ/s)·Σ_{k<K} d(k) z^k ] · A(s)/B(s)
//!         + 1/(s+Λ)·Σ_{k≤L} c'(k) z^k + (1/s)·Σ_{k<L} d'(k) z^{k+1} ,
//! ```
//!
//! with `c(k) = a(k) b(k)` the unnormalized reward masses and
//! `d(k) = Σ_i r_{f_i}·v^i_k·a(k)` the reward-weighted absorption masses —
//! precisely the quantities [`crate::params`] records. Finally
//! `C~(s) = TRR~(s)/s` for `C(t) = t·MRR(t)`.
//!
//! These expressions match the paper's after accounting for OCR artifacts
//! (the printed formulas drop some `Λ` factors); every identity above is
//! regression-tested against exact analytic transforms of small models and
//! against time-domain solutions of the same `V_{K,L}`.

use crate::params::{KilledChainParams, RegenParams};
use regenr_numeric::Complex64;

/// Evaluator of `TRR~(s)` and `C~(s)` for one computed parameter set.
///
/// Construction precomputes the real coefficient arrays; each evaluation is
/// `O(K + L)` complex operations (Horner's rule).
#[derive(Clone, Debug)]
pub struct TransformEvaluator {
    lambda: f64,
    alpha_r: f64,
    /// `a(0..=K)`.
    a: Vec<f64>,
    /// `c(0..=K)`.
    c: Vec<f64>,
    /// `d(0..K)` — reward-weighted absorption masses.
    d: Vec<f64>,
    /// `v(0..K)` — total absorption masses (`Σ_i y_i(k)`).
    v: Vec<f64>,
    /// Primed analogues (empty when `α_r = 1`).
    a_p: Vec<f64>,
    c_p: Vec<f64>,
    d_p: Vec<f64>,
    v_p: Vec<f64>,
}

/// Combines per-absorbing-state masses into the total and reward-weighted
/// coefficient arrays.
fn combine(chain: &KilledChainParams, rewards: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let depth = chain.depth();
    let mut v = vec![0.0; depth];
    let mut d = vec![0.0; depth];
    for (yi, &rf) in chain.y.iter().zip(rewards) {
        for k in 0..depth {
            v[k] += yi[k];
            d[k] += rf * yi[k];
        }
    }
    (v, d)
}

/// Complex Horner evaluation of `Σ coef[k]·z^k`.
fn horner(coef: &[f64], z: Complex64) -> Complex64 {
    let mut acc = Complex64::ZERO;
    for &c in coef.iter().rev() {
        acc = acc * z + c;
    }
    acc
}

impl TransformEvaluator {
    /// Precomputes the coefficient arrays from a parameter set.
    pub fn new(params: &RegenParams) -> Self {
        let (v, d) = combine(&params.main, &params.absorbing_rewards);
        let (a_p, c_p, v_p, d_p) = match &params.primed {
            Some(p) => {
                let (vp, dp) = combine(p, &params.absorbing_rewards);
                (p.a.clone(), p.c.clone(), vp, dp)
            }
            None => (Vec::new(), Vec::new(), Vec::new(), Vec::new()),
        };
        TransformEvaluator {
            lambda: params.lambda,
            alpha_r: params.alpha_r,
            a: params.main.a.clone(),
            c: params.main.c.clone(),
            d,
            v,
            a_p,
            c_p,
            d_p,
            v_p,
        }
    }

    /// `TRR~(s)` — Laplace transform of the truncated transient reward rate.
    pub fn trr(&self, s: Complex64) -> Complex64 {
        let lambda = self.lambda;
        let s_lam = s + lambda;
        let z = Complex64::from_real(lambda) / s_lam;
        let k_depth = self.a.len() - 1;

        // B(s) = s·Σ a z^k + Λ·Σ v a z^k + Λ·a(K)·z^K.
        let b = s * horner(&self.a, z)
            + lambda * horner(&self.v, z)
            + Complex64::from_real(lambda * self.a[k_depth]) * z.powi(k_depth as u32);

        // A(s); 1 when there is no primed chain.
        let a_of_s = if self.a_p.is_empty() {
            Complex64::ONE
        } else {
            let l_depth = self.a_p.len() - 1;
            Complex64::ONE
                - (s / s_lam) * horner(&self.a_p, z)
                - (Complex64::from_real(lambda) / s_lam) * horner(&self.v_p, z)
                - Complex64::from_real(self.a_p[l_depth]) * z.powi(l_depth as u32 + 1)
        };

        let p0 = a_of_s / b;
        let mut out =
            (horner(&self.c, z) + (Complex64::from_real(lambda) / s) * horner(&self.d, z)) * p0;
        if !self.a_p.is_empty() {
            out += horner(&self.c_p, z) / s_lam;
            out += (z / s) * horner(&self.d_p, z);
        }
        out
    }

    /// `C~(s) = TRR~(s)/s` — transform of `C(t) = t·MRR(t)`.
    pub fn c_integral(&self, s: Complex64) -> Complex64 {
        self.trr(s) / s
    }

    /// Laplace transform of `P[V(t) = a]`, the occupancy of the truncation
    /// state.
    ///
    /// The truncation state integrates the inflows `Λ·p_K(t)` (and
    /// `Λ·p'_L(t)` when the primed chain exists):
    /// `p~_a(s) = (Λ/s)·a(K)·z^K·p~_0(s) + (1/s)·a'(L)·z^{L+1}`.
    ///
    /// Used by the *bounding* variant of RRL (an extension following the
    /// paper's companion report ref.\[2\]): rewarding `a` with `0` vs `r_max`
    /// yields certified lower/upper bounds whose gap is exactly the model
    /// truncation error.
    pub fn trunc_occupancy(&self, s: Complex64) -> Complex64 {
        let lambda = self.lambda;
        let s_lam = s + lambda;
        let z = Complex64::from_real(lambda) / s_lam;
        let k_depth = self.a.len() - 1;
        let b = s * horner(&self.a, z)
            + lambda * horner(&self.v, z)
            + Complex64::from_real(lambda * self.a[k_depth]) * z.powi(k_depth as u32);
        let a_of_s = if self.a_p.is_empty() {
            Complex64::ONE
        } else {
            let l_depth = self.a_p.len() - 1;
            Complex64::ONE
                - (s / s_lam) * horner(&self.a_p, z)
                - (Complex64::from_real(lambda) / s_lam) * horner(&self.v_p, z)
                - Complex64::from_real(self.a_p[l_depth]) * z.powi(l_depth as u32 + 1)
        };
        let p0 = a_of_s / b;
        let mut out = (Complex64::from_real(lambda) / s)
            * Complex64::from_real(self.a[k_depth])
            * z.powi(k_depth as u32)
            * p0;
        if !self.a_p.is_empty() {
            let l_depth = self.a_p.len() - 1;
            out += Complex64::from_real(self.a_p[l_depth]) * z.powi(l_depth as u32 + 1) / s;
        }
        out
    }

    /// `α_r` of the underlying parameter set.
    pub fn alpha_r(&self) -> f64 {
        self.alpha_r
    }

    /// The randomization rate.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{RegenOptions, RegenParams};
    use regenr_ctmc::Ctmc;

    fn eval_points() -> Vec<Complex64> {
        vec![
            Complex64::new(0.31, 0.0),
            Complex64::new(1.7, 2.3),
            Complex64::new(0.05, -14.0),
            Complex64::new(3.0, 100.0),
            Complex64::new(1e-4, 0.4),
        ]
    }

    /// Two-state repairable unit is represented *exactly* by V_K (the killed
    /// chain dies at depth 2 when μ = Λ), so the evaluator must reproduce the
    /// analytic transform `UA~(s) = λ / (s (s+λ+μ))` to machine precision.
    #[test]
    fn exact_two_state_availability_transform() {
        let (l, m) = (0.1, 1.0);
        let c =
            Ctmc::from_rates(2, &[(0, 1, l), (1, 0, m)], vec![1.0, 0.0], vec![0.0, 1.0]).unwrap();
        let p = RegenParams::compute(&c, 0, 100.0, &RegenOptions::default()).unwrap();
        assert!(
            p.main.a.last().copied().unwrap() <= f64::MIN_POSITIVE,
            "model must be exact"
        );
        let ev = TransformEvaluator::new(&p);
        for s in eval_points() {
            let got = ev.trr(s);
            let want = Complex64::from_real(l) / (s * (s + (l + m)));
            assert!(
                (got - want).abs() < 1e-13 * want.abs().max(1e-3),
                "s={s:?}: {got:?} vs {want:?}"
            );
        }
    }

    /// Pure-death chain: `UR~(s) = λ/(s(s+λ))`.
    #[test]
    fn exact_pure_death_unreliability_transform() {
        let l = 0.7;
        let c = Ctmc::from_rates(2, &[(0, 1, l)], vec![1.0, 0.0], vec![0.0, 1.0]).unwrap();
        let p = RegenParams::compute(&c, 0, 10.0, &RegenOptions::default()).unwrap();
        let ev = TransformEvaluator::new(&p);
        for s in eval_points() {
            let got = ev.trr(s);
            let want = Complex64::from_real(l) / (s * (s + l));
            assert!(
                (got - want).abs() < 1e-13 * want.abs().max(1e-3),
                "s={s:?}: {got:?} vs {want:?}"
            );
        }
    }

    /// Primed-chain case: initial distribution off `r`. Analytic transform of
    /// `π_1(t) = λ/(λ+μ) + (π_1(0) − λ/(λ+μ))e^{−(λ+μ)t}`.
    #[test]
    fn exact_two_state_with_primed_chain() {
        let (l, m) = (0.1, 1.0);
        let pi1_0 = 0.75;
        let c = Ctmc::from_rates(
            2,
            &[(0, 1, l), (1, 0, m)],
            vec![1.0 - pi1_0, pi1_0],
            vec![0.0, 1.0],
        )
        .unwrap();
        let p = RegenParams::compute(&c, 0, 100.0, &RegenOptions::default()).unwrap();
        assert!(p.primed.is_some());
        let ev = TransformEvaluator::new(&p);
        let ss = l / (l + m);
        for s in eval_points() {
            let got = ev.trr(s);
            let want =
                Complex64::from_real(ss) / s + Complex64::from_real(pi1_0 - ss) / (s + (l + m));
            assert!(
                (got - want).abs() < 1e-12 * want.abs().max(1e-3),
                "s={s:?}: {got:?} vs {want:?}"
            );
        }
    }

    /// `C~ = TRR~/s` by construction.
    #[test]
    fn c_integral_is_trr_over_s() {
        let c = Ctmc::from_rates(
            2,
            &[(0, 1, 0.2), (1, 0, 0.9)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        )
        .unwrap();
        let p = RegenParams::compute(&c, 0, 10.0, &RegenOptions::default()).unwrap();
        let ev = TransformEvaluator::new(&p);
        let s = Complex64::new(0.8, 1.1);
        assert!((ev.c_integral(s) * s - ev.trr(s)).abs() < 1e-15);
    }

    /// Initial-value theorem: `s·TRR~(s) → TRR(0) = r·α` as `s → ∞`.
    #[test]
    fn initial_value_theorem() {
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 0.3), (1, 2, 1.0), (2, 0, 0.5), (1, 0, 0.2)],
            vec![1.0, 0.0, 0.0],
            vec![0.7, 1.0, 0.2],
        )
        .unwrap();
        let p = RegenParams::compute(&c, 0, 10.0, &RegenOptions::default()).unwrap();
        let ev = TransformEvaluator::new(&p);
        let s = Complex64::from_real(1e9);
        let v = (s * ev.trr(s)).re;
        assert!((v - 0.7).abs() < 1e-6, "s·TRR~(s) = {v}, want 0.7");
    }
}

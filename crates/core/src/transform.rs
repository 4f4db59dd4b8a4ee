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
//!
//! ## Evaluation
//!
//! Each of the eight sums above is a Horner chain of complex multiply-adds
//! in `z`, and the inversion evaluates them at every abscissa. One series
//! at a time, each step waits on the previous one's latency; so one pass
//! from the highest power down steps all of them together. Every
//! accumulator still does exactly what its own Horner pass would, so the
//! sums are bit for bit the same.

use crate::params::{KilledChainParams, RegenParams};
use regenr_numeric::Complex64;

/// Evaluator of `TRR~(s)` and `C~(s)` for one computed parameter set.
///
/// Construction precomputes the real coefficient arrays; each evaluation is
/// `O(K + L)` complex operations (Horner's rule), in one pass over all of
/// them (see the module docs).
#[derive(Clone, Debug)]
pub struct TransformEvaluator {
    lambda: f64,
    alpha_r: f64,
    /// The `K`-chain's coefficients.
    main: ChainCoefs,
    /// The `L`-chain's (absent when `α_r = 1`).
    primed: Option<ChainCoefs>,
}

/// One killed chain's coefficient arrays.
#[derive(Clone, Debug)]
struct ChainCoefs {
    /// `a(0..=depth)`.
    a: Vec<f64>,
    /// `c(0..=depth)`.
    c: Vec<f64>,
    /// `v(0..depth)` — total absorption masses (`Σ_i y_i(k)`).
    v: Vec<f64>,
    /// `d(0..depth)` — reward-weighted absorption masses.
    d: Vec<f64>,
}

impl ChainCoefs {
    /// Combines the per-absorbing-state masses into the total and
    /// reward-weighted arrays.
    fn new(chain: &KilledChainParams, rewards: &[f64]) -> Self {
        let depth = chain.depth();
        let mut v = vec![0.0; depth];
        let mut d = vec![0.0; depth];
        for (yi, &rf) in chain.y.iter().zip(rewards) {
            for k in 0..depth {
                v[k] += yi[k];
                d[k] += rf * yi[k];
            }
        }
        ChainCoefs {
            a: chain.a.clone(),
            c: chain.c.clone(),
            v,
            d,
        }
    }

    /// The chain's depth (`K` or `L`).
    fn depth(&self) -> usize {
        self.v.len()
    }
}

/// One chain's four Horner accumulators: `Σ a(k)·z^k`, `Σ c(k)·z^k`,
/// `Σ v(k)·z^k` and `Σ d(k)·z^k`.
#[derive(Clone, Copy, Debug)]
struct ChainSums {
    a: Complex64,
    c: Complex64,
    v: Complex64,
    d: Complex64,
}

impl ChainSums {
    const ZERO: ChainSums = ChainSums {
        a: Complex64::ZERO,
        c: Complex64::ZERO,
        v: Complex64::ZERO,
        d: Complex64::ZERO,
    };

    /// The Horner step at the top power, `depth`, which only `a` and `c`
    /// reach.
    #[inline(always)]
    fn top(&mut self, coefs: &ChainCoefs, z: Complex64) {
        let k = coefs.depth();
        self.a = self.a * z + coefs.a[k];
        self.c = self.c * z + coefs.c[k];
    }

    /// The Horner step at power `k < depth`, all four series.
    #[inline(always)]
    fn step(&mut self, coefs: &ChainCoefs, k: usize, z: Complex64) {
        self.a = self.a * z + coefs.a[k];
        self.c = self.c * z + coefs.c[k];
        self.v = self.v * z + coefs.v[k];
        self.d = self.d * z + coefs.d[k];
    }
}

/// Every Horner sum one evaluation at `z` needs — four per chain — in one
/// pass from the highest power down. Each sum is a dependency chain of
/// complex multiply-adds, so one series alone leaves the floating-point
/// units waiting on latency; stepping the four (or eight) together
/// overlaps them. Every accumulator still starts at zero and performs
/// exactly `acc = acc·z + coef[k]` for `k` from its top down, the operations
/// of a separate Horner pass over its array, so every sum is bit for bit
/// that pass's. The primed sums are zero when there is no primed chain.
fn horner_sums(
    main: &ChainCoefs,
    primed: Option<&ChainCoefs>,
    z: Complex64,
) -> (ChainSums, ChainSums) {
    let mut m = ChainSums::ZERO;
    let mut p = ChainSums::ZERO;
    m.top(main, z);
    let Some(pc) = primed else {
        for k in (0..main.depth()).rev() {
            m.step(main, k, z);
        }
        return (m, p);
    };
    p.top(pc, z);
    let (k_depth, l_depth) = (main.depth(), pc.depth());
    // The deeper chain runs alone down to the shallower one's depth (one of
    // these ranges is empty), then both run together.
    for k in (l_depth..k_depth).rev() {
        m.step(main, k, z);
    }
    for k in (k_depth..l_depth).rev() {
        p.step(pc, k, z);
    }
    for k in (0..k_depth.min(l_depth)).rev() {
        m.step(main, k, z);
        p.step(pc, k, z);
    }
    (m, p)
}

/// The quantities `TRR~(s)` and the truncation occupancy share at one `s`.
struct Evaluation {
    s_lam: Complex64,
    z: Complex64,
    main: ChainSums,
    primed: ChainSums,
    /// `p~_0(s) = A(s)/B(s)`.
    p0: Complex64,
}

impl TransformEvaluator {
    /// Precomputes the coefficient arrays from a parameter set.
    pub fn new(params: &RegenParams) -> Self {
        TransformEvaluator {
            lambda: params.lambda,
            alpha_r: params.alpha_r,
            main: ChainCoefs::new(&params.main, &params.absorbing_rewards),
            primed: params
                .primed
                .as_ref()
                .map(|p| ChainCoefs::new(p, &params.absorbing_rewards)),
        }
    }

    /// The Horner sums at `z = Λ/(s+Λ)` and `p~_0(s)`.
    fn evaluate(&self, s: Complex64) -> Evaluation {
        let lambda = self.lambda;
        let s_lam = s + lambda;
        let z = Complex64::from_real(lambda) / s_lam;
        let (m, p) = horner_sums(&self.main, self.primed.as_ref(), z);
        let k_depth = self.main.depth();

        // B(s) = s·Σ a z^k + Λ·Σ v a z^k + Λ·a(K)·z^K.
        let b = s * m.a
            + lambda * m.v
            + Complex64::from_real(lambda * self.main.a[k_depth]) * z.powi(k_depth as u32);

        // A(s); 1 when there is no primed chain.
        let a_of_s = match &self.primed {
            None => Complex64::ONE,
            Some(pc) => {
                let l_depth = pc.depth();
                Complex64::ONE
                    - (s / s_lam) * p.a
                    - (Complex64::from_real(lambda) / s_lam) * p.v
                    - Complex64::from_real(pc.a[l_depth]) * z.powi(l_depth as u32 + 1)
            }
        };
        Evaluation {
            s_lam,
            z,
            main: m,
            primed: p,
            p0: a_of_s / b,
        }
    }

    /// `TRR~(s)` — Laplace transform of the truncated transient reward rate.
    pub fn trr(&self, s: Complex64) -> Complex64 {
        let e = self.evaluate(s);
        let mut out = (e.main.c + (Complex64::from_real(self.lambda) / s) * e.main.d) * e.p0;
        if self.primed.is_some() {
            out += e.primed.c / e.s_lam;
            out += (e.z / s) * e.primed.d;
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
        let e = self.evaluate(s);
        let k_depth = self.main.depth();
        let mut out = (Complex64::from_real(self.lambda) / s)
            * Complex64::from_real(self.main.a[k_depth])
            * e.z.powi(k_depth as u32)
            * e.p0;
        if let Some(pc) = &self.primed {
            let l_depth = pc.depth();
            out += Complex64::from_real(pc.a[l_depth]) * e.z.powi(l_depth as u32 + 1) / s;
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

    /// Complex Horner evaluation of `Σ coef[k]·z^k`, one series at a time.
    fn horner(coef: &[f64], z: Complex64) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for &c in coef.iter().rev() {
            acc = acc * z + c;
        }
        acc
    }

    /// Coefficients of a chain of depth `depth` with signed values across
    /// many magnitudes.
    fn coefs(depth: usize, seed: u64) -> ChainCoefs {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.3) * 10f64.powi((state % 9) as i32 - 4)
        };
        let mut series = |len: usize| (0..len).map(|_| next()).collect::<Vec<f64>>();
        ChainCoefs {
            a: series(depth + 1),
            c: series(depth + 1),
            v: series(depth),
            d: series(depth),
        }
    }

    /// The one-pass evaluation is bit for bit one Horner pass per series,
    /// without a primed chain and with one shallower, as deep as, or
    /// deeper than the main chain (depth 0 included).
    #[test]
    fn interleaved_horner_is_bitwise_one_pass_per_series() {
        let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
        let assert_sums = |sums: &ChainSums, coefs: &ChainCoefs, z: Complex64, case: &str| {
            assert_eq!(bits(sums.a), bits(horner(&coefs.a, z)), "a {case}");
            assert_eq!(bits(sums.c), bits(horner(&coefs.c, z)), "c {case}");
            assert_eq!(bits(sums.v), bits(horner(&coefs.v, z)), "v {case}");
            assert_eq!(bits(sums.d), bits(horner(&coefs.d, z)), "d {case}");
        };
        let lambda = 23.75;
        for (i, s) in eval_points().into_iter().enumerate() {
            let z = Complex64::from_real(lambda) / (s + lambda);
            for k_depth in [0, 1, 7, 300] {
                let main = coefs(k_depth, 2 * i as u64 + 1);
                let (m, p) = horner_sums(&main, None, z);
                assert_sums(&m, &main, z, &format!("K={k_depth}"));
                assert_eq!(bits(p.a), bits(Complex64::ZERO));
                for l_depth in [0, 1, k_depth, k_depth + 3, 301] {
                    let primed = coefs(l_depth, 2 * i as u64 + 2);
                    let case = format!("K={k_depth} L={l_depth}");
                    let (m, p) = horner_sums(&main, Some(&primed), z);
                    assert_sums(&m, &main, z, &case);
                    assert_sums(&p, &primed, z, &format!("primed {case}"));
                }
            }
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

//! Poisson probability weights in the style of Fox & Glynn.
//!
//! Every randomization (uniformization) solver needs the weights
//! `Po_λ(n) = e^{-λ} λ^n / n!` over a window `[L, R]` that captures at least
//! `1 − δ` of the probability mass, for `λ = Λt` that can reach `~10⁷`. Naive
//! evaluation overflows/underflows; the classic remedy (Fox & Glynn, CACM 1988)
//! anchors the recursion at the mode and truncates both tails with certified
//! geometric bounds, which is what [`PoissonWeights`] implements.
//!
//! Beyond the weights themselves the solvers need two derived quantities:
//!
//! * `P[N ≥ n]` (survival), used by the `MRR` accumulation in standard
//!   randomization, and
//! * `E[(N − k + 1)⁺]` (expected excess), used by the regenerative
//!   randomization truncation bound (see `regenr-core`).
//!
//! Both are precomputed as compensated suffix sums.

use crate::kahan::KahanSum;
use crate::special::ln_factorial;

/// Stable point evaluation of the Poisson pmf via logarithms.
///
/// Accuracy is limited (~1e-13 relative) by `ln Γ`; use [`PoissonWeights`] when
/// a consistent family of weights is needed.
pub fn poisson_pmf(lambda: f64, n: u64) -> f64 {
    assert!(lambda >= 0.0);
    if lambda == 0.0 {
        return if n == 0 { 1.0 } else { 0.0 };
    }
    (-lambda + n as f64 * lambda.ln() - ln_factorial(n)).exp()
}

/// `P[N ≥ k]` for `N ~ Poisson(λ)` by direct summation of the dominant side.
///
/// Intended for tests and small-to-moderate `λ`; solvers use the precomputed
/// suffix sums in [`PoissonWeights`].
pub fn poisson_cdf_complement(lambda: f64, k: u64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    // Sum the smaller side for accuracy.
    if (k as f64) <= lambda {
        // Left side P[N < k] is the smaller... not necessarily; just sum left side.
        let mut acc = KahanSum::new();
        let mut p = poisson_pmf(lambda, 0);
        for n in 0..k {
            if n > 0 {
                p *= lambda / n as f64;
            }
            acc.add(p);
        }
        (1.0 - acc.value()).max(0.0)
    } else {
        let mut acc = KahanSum::new();
        let mut p = poisson_pmf(lambda, k);
        let mut n = k;
        loop {
            acc.add(p);
            n += 1;
            p *= lambda / n as f64;
            if p < 1e-30 * acc.value().max(1e-300) && n > (lambda as u64) + k {
                break;
            }
        }
        acc.value().min(1.0)
    }
}

/// Poisson weights over a certified window `[left, right]`.
///
/// Guarantees `Σ_{n∉[left,right]} Po_λ(n) ≤ δ`, split between the two tails.
/// Weights are stored *unnormalized* (true pmf values up to roundoff); the
/// captured mass is available as [`PoissonWeights::total`].
#[derive(Clone, Debug)]
pub struct PoissonWeights {
    /// The Poisson parameter `λ = Λt`.
    pub lambda: f64,
    /// First retained index `L`.
    pub left: u64,
    /// Last retained index `R`.
    pub right: u64,
    /// `weights[i] = Po_λ(left + i)`.
    pub weights: Vec<f64>,
    /// Raw captured mass `Σ_{n=L}^{R} Po_λ(n)` before normalization
    /// (diagnostic; the stored `weights` are normalized to sum to 1).
    pub total: f64,
    /// Certified bound on the discarded left-tail mass.
    pub left_tail_bound: f64,
    /// Certified bound on the discarded right-tail mass.
    pub right_tail_bound: f64,
    /// `suffix[i] = Σ_{j≥i} weights[j]` (within the window).
    suffix: Vec<f64>,
    /// `excess[i] = Σ_{j≥i} suffix[j]` (within the window), i.e. the window part
    /// of `E[(N − (left+i) + 1)⁺]`.
    excess: Vec<f64>,
}

impl PoissonWeights {
    /// Computes weights covering at least `1 − δ` of the mass of `Poisson(λ)`.
    ///
    /// # Panics
    /// If `λ < 0`, `δ ≤ 0`, or `δ ≥ 1`.
    pub fn new(lambda: f64, delta: f64) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
        if lambda == 0.0 {
            return PoissonWeights {
                lambda,
                left: 0,
                right: 0,
                weights: vec![1.0],
                total: 1.0,
                left_tail_bound: 0.0,
                right_tail_bound: 0.0,
                suffix: vec![1.0],
                excess: vec![1.0],
            };
        }
        let mode = lambda.floor() as u64;
        let p_mode = poisson_pmf(lambda, mode);
        debug_assert!(p_mode > 0.0, "mode weight underflowed; λ={lambda}");
        let half = 0.5 * delta;

        // Walk down from the mode. Ratio p(n-1)/p(n) = n/λ < 1 below the mode,
        // so once the cumulative remainder bound p(n)·ρ/(1−ρ) with ρ = n/λ drops
        // under δ/2 we may stop.
        let mut down: Vec<f64> = Vec::new();
        let mut left = mode;
        let mut left_bound = 0.0;
        {
            let mut p = p_mode;
            while left > 0 {
                let rho = left as f64 / lambda; // ratio for the next step down
                let remainder = p * rho / (1.0 - rho).max(f64::MIN_POSITIVE);
                if rho < 1.0 && remainder <= half {
                    left_bound = remainder;
                    break;
                }
                p *= rho;
                left -= 1;
                down.push(p);
            }
        }

        // Walk up from the mode. Ratio p(n+1)/p(n) = λ/(n+1) < 1 above the mode.
        let mut up: Vec<f64> = Vec::new();
        let mut right = mode;
        let right_bound;
        {
            let mut p = p_mode;
            loop {
                let r = lambda / (right as f64 + 1.0);
                if r < 1.0 {
                    let remainder = p * r / (1.0 - r);
                    if remainder <= half {
                        right_bound = remainder;
                        break;
                    }
                }
                p *= r;
                right += 1;
                up.push(p);
            }
        }

        let n = down.len() + 1 + up.len();
        let mut weights: Vec<f64> = Vec::with_capacity(n);
        weights.extend(down.iter().rev());
        weights.push(p_mode);
        weights.extend(up.iter());

        // Normalize: the anchor p(mode) inherits the (small) relative error of
        // ln Γ at huge arguments, which is a *common factor* of every weight;
        // dividing by the captured sum removes it. `total` keeps the raw
        // captured-mass estimate for diagnostics.
        let total = KahanSum::sum_slice(&weights);
        let inv = 1.0 / total;
        for w in &mut weights {
            *w *= inv;
        }

        // Compensated suffix sums for survival and excess queries.
        let mut suffix = vec![0.0; n];
        let mut acc = KahanSum::new();
        for i in (0..n).rev() {
            acc.add(weights[i]);
            suffix[i] = acc.value();
        }
        let mut excess = vec![0.0; n];
        let mut acc2 = KahanSum::new();
        for i in (0..n).rev() {
            acc2.add(suffix[i]);
            excess[i] = acc2.value();
        }

        PoissonWeights {
            lambda,
            left,
            right,
            weights,
            total,
            left_tail_bound: left_bound,
            right_tail_bound: right_bound,
            suffix,
            excess,
        }
    }

    /// An upper bound on `PoissonWeights::new(λ, δ).len()`, in closed form
    /// and without allocating, so a caller can size a grid's windows before
    /// it opens any.
    ///
    /// Each walk in [`PoissonWeights::new`] stops at the first point whose
    /// remainder bound is at most `δ/2`. Below the mode that remainder is
    /// `Po_λ(n−1)·λ/y` at `n = λ − y`, above it `Po_λ(n+1)·(λ+x)/x` at
    /// `n + 1 = λ + x`. The Poisson Chernoff bounds
    /// `P[N ≤ λ−y] ≤ exp(−y²/(2λ))` and
    /// `P[N ≥ λ+x] ≤ exp(−x²/(2(λ + x/3)))` put both under `δ/4` once `y`
    /// and `x` reach `x* = c/3 + √(c²/9 + 2cλ)` with
    /// `c = ln(4/δ) + ln(1 + √(λ/2))`: the second term of `c` pays for the
    /// `λ/x` factor, and the 4 (not 2) leaves a factor 2 for the rounding of
    /// the walked weights. So the left walk takes at most
    /// `min(⌊λ⌋, x* + 1)` steps, the right walk at most `x* + 1`, and the
    /// mode adds one weight.
    ///
    /// # Panics
    /// If `λ < 0`, `δ ≤ 0`, or `δ ≥ 1`.
    pub fn len_bound(lambda: f64, delta: f64) -> f64 {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
        let c = (4.0 / delta).ln() + (1.0 + (lambda / 2.0).sqrt()).ln();
        let x = c / 3.0 + (c * c / 9.0 + 2.0 * c * lambda).sqrt();
        lambda.floor().min(x + 1.0) + x + 2.0
    }

    /// Number of retained weights.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when the window is empty (never happens for valid inputs).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// `Po_λ(n)`, zero outside the window.
    pub fn pmf(&self, n: u64) -> f64 {
        if n < self.left || n > self.right {
            0.0
        } else {
            self.weights[(n - self.left) as usize]
        }
    }

    /// `P[N ≥ n]`, within the certified tail bounds.
    ///
    /// Below the window this is 1 (up to the discarded left tail); above the
    /// window it is bounded by the right-tail remainder.
    pub fn survival(&self, n: u64) -> f64 {
        if n <= self.left {
            1.0
        } else if n > self.right {
            self.right_tail_bound
        } else {
            self.suffix[(n - self.left) as usize] + self.right_tail_bound
        }
    }

    /// Upper bound on `E[(N − k + 1)⁺] = Σ_{j≥k} P[N ≥ j]`.
    ///
    /// Used by the regenerative-randomization truncation criterion. Below the
    /// window the exact value is `λ − k + 1 + E[(k−1−N)⁺] ≤ λ − k + 1 + 1`
    /// (the last term bounded crudely but safely by `1` via the tiny discarded
    /// left tail plus in-window contribution); above the window it falls back
    /// to a geometric bound on the discarded tail.
    pub fn expected_excess(&self, k: u64) -> f64 {
        if k > self.right {
            // Σ_{j≥k} P[N≥j] ≤ Σ_{j≥k} right_tail_bound decays geometrically;
            // bound by remainder/(1-r) with r the ratio at the window edge.
            let r = self.lambda / (self.right as f64 + 1.0);
            return self.right_tail_bound / (1.0 - r).max(1e-3);
        }
        if k < self.left {
            // Σ_{j≥k} P[N≥j] = (left - k)·~1 + Σ_{j≥left} P[N≥j].
            return (self.left - k) as f64 + self.excess[0] + self.right_excess_bound();
        }
        self.excess[(k - self.left) as usize] + self.right_excess_bound()
    }

    fn right_excess_bound(&self) -> f64 {
        let r = self.lambda / (self.right as f64 + 1.0);
        self.right_tail_bound / (1.0 - r).max(1e-3)
    }

    /// Iterator over `(n, Po_λ(n))` pairs in the window.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.weights
            .iter()
            .enumerate()
            .map(move |(i, &w)| (self.left + i as u64, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regenr_numeric_test_sum(xs: &[f64]) -> f64 {
        KahanSum::sum_slice(xs)
    }

    #[test]
    fn pmf_small_lambda_exact() {
        // λ=2: p(0)=e^-2, p(1)=2e^-2, p(2)=2e^-2, p(3)=4/3 e^-2.
        let e2 = (-2.0f64).exp();
        assert!((poisson_pmf(2.0, 0) - e2).abs() < 1e-16);
        assert!((poisson_pmf(2.0, 1) - 2.0 * e2).abs() < 1e-15);
        assert!((poisson_pmf(2.0, 3) - 4.0 / 3.0 * e2).abs() < 1e-15);
    }

    #[test]
    fn weights_cover_mass() {
        for &lambda in &[0.5, 1.0, 22.0, 500.0, 1e4, 2.2e6] {
            let w = PoissonWeights::new(lambda, 1e-12);
            assert!(
                (w.total - 1.0).abs() <= 1e-6,
                "λ={lambda}: captured {}",
                w.total
            );
            let s = regenr_numeric_test_sum(&w.weights);
            assert!((s - 1.0).abs() < 1e-12, "normalized sum {s}");
            assert!(w.left_tail_bound <= 5e-13);
            assert!(w.right_tail_bound <= 5e-13);
        }
    }

    #[test]
    fn weights_match_pointwise_pmf() {
        let lambda = 345.0;
        let w = PoissonWeights::new(lambda, 1e-13);
        for n in (w.left..=w.right).step_by(17) {
            let direct = poisson_pmf(lambda, n);
            let rel = (w.pmf(n) - direct).abs() / direct.max(1e-300);
            assert!(rel < 1e-7, "n={n}: {} vs {direct}", w.pmf(n));
        }
    }

    #[test]
    fn survival_is_monotone_and_correct() {
        let lambda = 40.0;
        let w = PoissonWeights::new(lambda, 1e-13);
        let mut prev = 1.0;
        for n in 0..(w.right + 5) {
            let s = w.survival(n);
            assert!(s <= prev + 1e-15, "survival must be non-increasing");
            prev = s;
        }
        // Compare against direct computation at a few points.
        for &n in &[10u64, 30, 40, 50, 70] {
            let direct = poisson_cdf_complement(lambda, n);
            assert!(
                (w.survival(n) - direct).abs() < 1e-10,
                "n={n}: {} vs {direct}",
                w.survival(n)
            );
        }
    }

    #[test]
    fn excess_identity() {
        // E[(N-k+1)^+] = Σ_{j>=k} P[N>=j]; check against brute force at λ=15.
        let lambda = 15.0;
        let w = PoissonWeights::new(lambda, 1e-14);
        for &k in &[0u64, 5, 14, 15, 16, 30, 50] {
            let mut brute = 0.0;
            for n in k..200 {
                brute += (n - k + 1) as f64 * poisson_pmf(lambda, n);
            }
            let est = w.expected_excess(k);
            assert!(
                est + 1e-9 >= brute && est <= brute + (lambda - k as f64).abs().max(2.0) + 1e-6,
                "k={k}: est {est} brute {brute}"
            );
        }
    }

    #[test]
    fn zero_lambda_degenerate() {
        let w = PoissonWeights::new(0.0, 1e-12);
        assert_eq!(w.pmf(0), 1.0);
        assert_eq!(w.survival(1), 0.0);
        assert_eq!(w.total, 1.0);
    }

    #[test]
    fn huge_lambda_window_is_sane() {
        let lambda = 4.4e6;
        let w = PoissonWeights::new(lambda, 1e-12);
        // Window should be O(√λ · √log(1/δ)) wide, i.e. tens of thousands.
        assert!(w.len() < 200_000, "window unexpectedly wide: {}", w.len());
        assert!((w.left as f64) < lambda && (w.right as f64) > lambda);
        assert!(w.total > 1.0 - 1e-11);
    }

    /// The closed-form bound covers every window the walk builds, and for
    /// the long windows of a solver's small `δ` it is within 2× of the
    /// length.
    #[test]
    fn len_bound_covers_every_window() {
        let lambdas = [
            0.0, 1e-6, 0.3, 1.0, 2.0, 2.5, 7.0, 19.99, 64.0, 100.0, 1e3, 2.5e3, 1e4, 4.4e4, 1e5,
            2.4e6, 1e7, 9e8,
        ];
        for &lambda in &lambdas {
            for &delta in &[0.5, 0.1, 1e-3, 1e-6, 1e-10, 5e-13, 1e-15, 1e-20, 1e-300] {
                let len = PoissonWeights::new(lambda, delta).len() as f64;
                let bound = PoissonWeights::len_bound(lambda, delta);
                assert!(bound >= len, "λ={lambda} δ={delta}: bound {bound} < {len}");
                assert!(
                    lambda < 100.0 || delta > 1e-6 || bound <= 2.0 * len,
                    "λ={lambda} δ={delta}: bound {bound} is loose for {len}"
                );
            }
        }
        // At the engine's Λt limit, for a typical ε.
        let len = PoissonWeights::new(1e10, 5e-13).len() as f64;
        assert!(PoissonWeights::len_bound(1e10, 5e-13) >= len);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_delta() {
        PoissonWeights::new(1.0, 0.0);
    }
}

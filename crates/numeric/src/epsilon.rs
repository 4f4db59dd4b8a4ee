//! Wynn's ε-algorithm for convergence acceleration.
//!
//! The Durbin/Crump Laplace-inversion series converges slowly (terms decay like
//! `1/k` for discontinuous integrands); Wynn's ε-algorithm applied to the
//! partial sums produces the same limit with dramatically fewer terms — this is
//! exactly the acceleration the paper's Section 2.2 uses ("accelerates the
//! convergence of the series of (1) using the epsilon algorithm").
//!
//! The implementation is the streaming "moving lozenge": after feeding partial
//! sum `S_n` only the previous anti-diagonal of the ε-table is kept, so memory
//! is `O(n)` and each new term costs `O(n)` arithmetic. The best current
//! estimate is the highest even-order entry of the newest anti-diagonal.

use crate::Complex64;

/// Streaming ε-algorithm over complex partial sums.
#[derive(Clone, Debug, Default)]
pub struct EpsilonAcceleratorC {
    /// Previous anti-diagonal of the ε table (ε_k for k = 0..len-1).
    diag: Vec<Complex64>,
    /// Number of partial sums fed so far.
    count: usize,
    /// Most recent accelerated estimate.
    best: Complex64,
    /// Set once two adjacent table entries coincide to roundoff: the limit has
    /// been reached at some finite order and deeper columns would only amplify
    /// noise (QUADPACK's `qelg` applies the same cutoff).
    converged: bool,
}

/// Relative coincidence threshold for declaring numerical convergence of a
/// table column (a few ulps).
const EPS_REL: f64 = 1e-15;

impl EpsilonAcceleratorC {
    /// New empty accelerator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the next partial sum `S_n`; returns the current accelerated
    /// estimate of the limit.
    pub fn push(&mut self, s: Complex64) -> Complex64 {
        self.count += 1;
        if self.converged {
            // The table already produced the limit to roundoff; keep it.
            return self.best;
        }
        // Compute the new anti-diagonal. The recursion is
        //   ε_{k+1}^{(m)} = ε_{k-1}^{(m+1)} + 1 / (ε_k^{(m+1)} − ε_k^{(m)})
        // with ε_k^{(m+1)} on the NEW anti-diagonal (index k) and both
        // ε_{k-1}^{(m+1)} and ε_k^{(m)} on the OLD one (indices k-1, k).
        let m = self.diag.len();
        let mut new_diag = Vec::with_capacity(m + 1);
        new_diag.push(s); // ε_0^{(n)} = S_n
        let mut prev_prev = Complex64::ZERO; // ε_{-1} ≡ 0
        for k in 0..m {
            let cur_new = new_diag[k];
            let cur_old = self.diag[k];
            let delta = cur_new - cur_old;
            let scale = cur_new.abs().max(cur_old.abs());
            if delta.abs() <= EPS_REL * scale || delta.abs() < 1e-300 {
                // Column k has numerically converged. Even-order entries are
                // genuine extrapolants; odd-order ones are auxiliary.
                self.best = if k % 2 == 0 { cur_new } else { new_diag[k - 1] };
                self.converged = true;
                self.diag = new_diag;
                return self.best;
            }
            let val = prev_prev + Complex64::ONE / delta;
            prev_prev = cur_old;
            new_diag.push(val);
        }
        self.diag = new_diag;
        // Best estimate: highest even-index entry of the anti-diagonal.
        let last_even = (self.diag.len() - 1) & !1usize;
        self.best = self.diag[last_even];
        self.best
    }

    /// Number of partial sums consumed.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` before any partial sum has been fed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Most recent accelerated estimate ([`Complex64::ZERO`] before any input).
    pub fn estimate(&self) -> Complex64 {
        self.best
    }
}

/// Streaming ε-algorithm over real partial sums (thin wrapper over the complex
/// implementation; the recursion is identical).
#[derive(Clone, Debug, Default)]
pub struct EpsilonAccelerator {
    inner: EpsilonAcceleratorC,
}

impl EpsilonAccelerator {
    /// New empty accelerator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the next partial sum; returns the accelerated estimate.
    pub fn push(&mut self, s: f64) -> f64 {
        self.inner.push(Complex64::from_real(s)).re
    }

    /// Number of partial sums consumed.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` before any partial sum has been fed.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Most recent accelerated estimate.
    pub fn estimate(&self) -> f64 {
        self.inner.estimate().re
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ε-algorithm is exact for geometric series after a handful of terms.
    #[test]
    fn geometric_series_is_summed_exactly() {
        for &r in &[0.5f64, -0.7, 0.95, -0.99] {
            let limit = 1.0 / (1.0 - r);
            let mut acc = EpsilonAccelerator::new();
            let mut partial = 0.0;
            let mut term = 1.0;
            let mut est = 0.0;
            for _ in 0..8 {
                partial += term;
                term *= r;
                est = acc.push(partial);
            }
            assert!(
                (est - limit).abs() < 1e-10 * limit.abs(),
                "r={r}: est {est} vs {limit}"
            );
        }
    }

    /// ln 2 = Σ (-1)^{k+1}/k converges painfully slowly; acceleration should
    /// reach ~1e-12 with a few dozen terms (direct summation needs ~10^12).
    #[test]
    fn alternating_harmonic_series() {
        let mut acc = EpsilonAccelerator::new();
        let mut partial = 0.0;
        let mut est = 0.0;
        for k in 1..=40 {
            partial += if k % 2 == 1 { 1.0 } else { -1.0 } / k as f64;
            est = acc.push(partial);
        }
        assert!(
            (est - std::f64::consts::LN_2).abs() < 1e-12,
            "est {est} vs ln2"
        );
    }

    /// π/4 = Σ (-1)^k/(2k+1) (Leibniz) — another classical stress test.
    #[test]
    fn leibniz_series() {
        let mut acc = EpsilonAccelerator::new();
        let mut partial = 0.0;
        let mut est = 0.0;
        for k in 0..40 {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            partial += sign / (2 * k + 1) as f64;
            est = acc.push(partial);
        }
        assert!((est - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    /// Complex geometric series with complex ratio.
    #[test]
    fn complex_geometric() {
        let r = Complex64::new(0.4, 0.5);
        let limit = Complex64::ONE / (Complex64::ONE - r);
        let mut acc = EpsilonAcceleratorC::new();
        let mut partial = Complex64::ZERO;
        let mut term = Complex64::ONE;
        let mut est = Complex64::ZERO;
        for _ in 0..10 {
            partial += term;
            term *= r;
            est = acc.push(partial);
        }
        assert!((est - limit).abs() < 1e-10);
    }

    /// A constant sequence must be returned unchanged (and not divide by zero).
    #[test]
    fn constant_sequence_is_stable() {
        let mut acc = EpsilonAccelerator::new();
        let mut est = 0.0;
        for _ in 0..10 {
            est = acc.push(42.0);
        }
        assert!((est - 42.0).abs() < 1e-9);
    }

    /// Convergent but non-alternating: Σ 1/k² = π²/6. The ε-algorithm is less
    /// spectacular on monotone series but must still beat direct partial sums.
    #[test]
    fn basel_series_improved() {
        let truth = std::f64::consts::PI * std::f64::consts::PI / 6.0;
        let mut acc = EpsilonAccelerator::new();
        let mut partial = 0.0;
        let mut est = 0.0;
        for k in 1..=60 {
            partial += 1.0 / ((k * k) as f64);
            est = acc.push(partial);
        }
        let direct_err = (partial - truth).abs();
        let accel_err = (est - truth).abs();
        assert!(
            accel_err < direct_err / 3.0,
            "acceleration too weak: {accel_err} vs direct {direct_err}"
        );
    }
}

//! Compensated summation.
//!
//! Randomization-based solvers accumulate hundreds of thousands to millions of
//! non-negative terms spanning many orders of magnitude; the Laplace
//! inversion series adds signed terms with cancellation. Both benefit from
//! Neumaier's improved Kahan–Babuška summation, which carries a running
//! compensation for the low-order bits lost at each addition.

/// Neumaier compensated accumulator for `f64`.
#[derive(Clone, Copy, Debug, Default)]
pub struct KahanSum {
    sum: f64,
    comp: f64,
}

impl KahanSum {
    /// A fresh accumulator holding 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// Current compensated value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }

    /// Sums a slice with compensation.
    pub fn sum_slice(xs: &[f64]) -> f64 {
        let mut k = KahanSum::new();
        for &x in xs {
            k.add(x);
        }
        k.value()
    }
}

impl Extend<f64> for KahanSum {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_cancellation() {
        // Classic Neumaier stress case: naive summation returns 0, true sum is 2.
        let xs = [1.0, 1e100, 1.0, -1e100];
        let naive: f64 = xs.iter().sum();
        assert_eq!(naive, 0.0);
        assert_eq!(KahanSum::sum_slice(&xs), 2.0);
    }

    #[test]
    fn many_small_terms() {
        let n = 10_000_000usize;
        let mut k = KahanSum::new();
        for _ in 0..n {
            k.add(0.1);
        }
        let exact = 0.1 * n as f64;
        assert!((k.value() - exact).abs() / exact < 1e-15);
    }

    #[test]
    fn extend_trait() {
        let mut k = KahanSum::new();
        k.extend((0..100).map(|i| i as f64));
        assert_eq!(k.value(), 4950.0);
    }
}

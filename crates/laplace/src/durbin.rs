//! Durbin's trapezoidal inversion with ε-algorithm acceleration.

use regenr_numeric::{Complex64, EpsilonAccelerator, KahanSum};

/// Minimum number of series terms before convergence may be declared.
const MIN_TERMS: usize = 8;

/// Number of consecutive under-tolerance differences required.
const STABLE_NEEDED: usize = 3;

/// Options for [`DurbinInverter`].
#[derive(Clone, Copy, Debug)]
pub struct InverterOptions {
    /// Period multiplier `m` in `T = m·t`. Crump: 1, Piessens–Huysmans: 16,
    /// the paper (and this default): 8.
    pub t_multiplier: f64,
    /// Apply Wynn's ε-algorithm to the partial sums (the paper's choice).
    /// `false` sums the series directly, the baseline `repro ablation`
    /// compares the acceleration against.
    pub accelerate: bool,
    /// Hard cap on series terms (the paper observed 105–329 abscissae; the
    /// cap only guards against divergence on malformed transforms).
    pub max_terms: usize,
}

impl Default for InverterOptions {
    fn default() -> Self {
        InverterOptions {
            t_multiplier: 8.0,
            accelerate: true,
            max_terms: 200_000,
        }
    }
}

/// Result of one inversion.
#[derive(Clone, Copy, Debug)]
pub struct InversionResult {
    /// The inverted value `f(t)`.
    pub value: f64,
    /// Number of transform evaluations (abscissae), including `f̃(a)`.
    pub abscissae: usize,
    /// Whether the convergence criterion was met before `max_terms`.
    pub converged: bool,
}

/// Durbin/Crump numerical inverter.
///
/// The caller supplies the damping parameter `a` (see [`crate::damping`]) and
/// the convergence tolerance `tol` *in the units of the original function*:
/// iteration stops once three consecutive accelerated estimates
/// move by less than `tol` (the paper uses `tol = ε/100` for `TRR` and
/// `ε·t/100` for `C`).
#[derive(Clone, Copy, Debug, Default)]
pub struct DurbinInverter {
    /// Tuning knobs.
    pub opts: InverterOptions,
}

impl DurbinInverter {
    /// Inverter with the paper's defaults (`T = 8t`, ε-acceleration).
    pub fn new(opts: InverterOptions) -> Self {
        DurbinInverter { opts }
    }

    /// Inverts `f̃` at time `t > 0`.
    ///
    /// `transform` is called at `s = a` and `s = a + ikπ/T`, `k = 1, 2, …`.
    pub fn invert<F>(&self, mut transform: F, t: f64, a: f64, tol: f64) -> InversionResult
    where
        F: FnMut(Complex64) -> Complex64,
    {
        assert!(t > 0.0, "inversion time must be positive");
        assert!(a > 0.0, "damping parameter must be positive");
        assert!(tol > 0.0, "tolerance must be positive");
        let t_period = self.opts.t_multiplier * t;
        let scale = (a * t).exp() / t_period;

        // k = 0 term: f̃(a)/2 (real by conjugate symmetry of real originals).
        let mut partial = KahanSum::new();
        partial.add(0.5 * transform(Complex64::from_real(a)).re);
        let mut abscissae = 1usize;

        let omega = std::f64::consts::PI / t_period; // abscissa spacing
                                                     // e^{ikπt/T} advances by a fixed rotation each term; recompute from
                                                     // angle periodically to stop phase drift.
        let rot = Complex64::new((omega * t).cos(), (omega * t).sin());
        let mut phase = Complex64::ONE;

        let mut acc = EpsilonAccelerator::new();
        let mut prev_est = f64::NAN;
        let mut stable = 0usize;
        let mut est = partial.value();

        for k in 1..=self.opts.max_terms {
            phase *= rot;
            if k % 256 == 0 {
                // Refresh the rotation from the exact angle.
                let ang = omega * t * k as f64;
                phase = Complex64::new(ang.cos(), ang.sin());
            }
            let s = Complex64::new(a, omega * k as f64);
            let term = (transform(s) * phase).re;
            abscissae += 1;
            partial.add(term);

            est = if self.opts.accelerate {
                acc.push(partial.value())
            } else {
                partial.value()
            };

            if k >= MIN_TERMS && prev_est.is_finite() {
                if (est - prev_est).abs() * scale <= tol {
                    stable += 1;
                    if stable >= STABLE_NEEDED {
                        return InversionResult {
                            value: est * scale,
                            abscissae,
                            converged: true,
                        };
                    }
                } else {
                    stable = 0;
                }
            }
            prev_est = est;
        }
        InversionResult {
            value: est * scale,
            abscissae,
            converged: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::damping::{damping_for_bounded, damping_for_linear_growth};

    fn invert_bounded(
        f: impl FnMut(Complex64) -> Complex64,
        t: f64,
        f_max: f64,
        eps: f64,
    ) -> InversionResult {
        let inv = DurbinInverter::default();
        let t_period = inv.opts.t_multiplier * t;
        let a = damping_for_bounded(eps, f_max, t_period);
        inv.invert(f, t, a, eps / 100.0)
    }

    #[test]
    fn exponential_decay() {
        // f(t) = e^{-t}, f̃(s) = 1/(s+1), bounded by 1.
        for &t in &[0.3, 1.0, 5.0] {
            let r = invert_bounded(|s| (s + 1.0).inv(), t, 1.0, 1e-10);
            assert!(r.converged);
            assert!(
                (r.value - (-t).exp()).abs() < 1e-9,
                "t={t}: {} vs {}",
                r.value,
                (-t).exp()
            );
        }
    }

    #[test]
    fn constant_function() {
        // f(t) = 1, f̃ = 1/s.
        let r = invert_bounded(|s| s.inv(), 2.0, 1.0, 1e-10);
        assert!(r.converged);
        assert!((r.value - 1.0).abs() < 1e-9, "{}", r.value);
    }

    #[test]
    fn rising_exponential_cdf() {
        // f(t) = 1 − e^{-λt}, f̃ = λ/(s(s+λ)) — the unreliability shape.
        let lam = 0.7;
        for &t in &[0.5, 2.0, 20.0] {
            let r = invert_bounded(
                |s| Complex64::from_real(lam) / (s * (s + lam)),
                t,
                1.0,
                1e-11,
            );
            let want = 1.0 - (-lam * t).exp();
            assert!(r.converged);
            assert!(
                (r.value - want).abs() < 1e-10,
                "t={t}: {} vs {want}",
                r.value
            );
        }
    }

    #[test]
    fn damped_oscillation() {
        // f(t) = e^{-t} cos(5t), f̃ = (s+1)/((s+1)² + 25); |f| ≤ 1.
        let t = 1.3;
        let r = invert_bounded(
            |s| (s + 1.0) / ((s + 1.0) * (s + 1.0) + 25.0),
            t,
            1.0,
            1e-10,
        );
        let want = (-t).exp() * (5.0 * t).cos();
        assert!(r.converged);
        assert!((r.value - want).abs() < 1e-9, "{} vs {want}", r.value);
    }

    #[test]
    fn linear_ramp_with_growth_damping() {
        // f(t) = t, f̃ = 1/s² — the C(t) = t·MRR(t) shape with rate 1.
        let eps = 1e-10;
        for &t in &[1.0f64, 10.0, 1000.0] {
            let inv = DurbinInverter::default();
            let t_period = inv.opts.t_multiplier * t;
            let a = damping_for_linear_growth(eps, 1.0, t, t_period);
            let r = inv.invert(|s| (s * s).inv(), t, a, eps * t / 100.0);
            assert!(r.converged);
            assert!(
                (r.value - t).abs() < 1e-8 * t.max(1.0),
                "t={t}: {} vs {t}",
                r.value
            );
        }
    }

    #[test]
    fn abscissae_counts_are_moderate() {
        // The paper reports 105–329 abscissae on its workloads; a smooth
        // transform at ε=1e-12 should land in the same ballpark.
        let r = invert_bounded(|s| (s + 0.5).inv(), 3.0, 1.0, 1e-12);
        assert!(r.converged);
        assert!(
            r.abscissae >= 20 && r.abscissae <= 2000,
            "unexpected abscissae count {}",
            r.abscissae
        );
    }

    #[test]
    fn unaccelerated_mode_needs_more_terms() {
        let opts = InverterOptions {
            accelerate: false,
            ..Default::default()
        };
        let inv = DurbinInverter::new(opts);
        let eps = 1e-6;
        let t = 1.0;
        let a = damping_for_bounded(eps, 1.0, 8.0);
        let raw = inv.invert(|s| (s + 1.0).inv(), t, a, eps / 100.0);
        let acc = invert_bounded(|s| (s + 1.0).inv(), t, 1.0, eps);
        assert!((acc.value - (-1.0f64).exp()).abs() < 1e-6);
        assert!(
            !raw.converged || raw.abscissae > acc.abscissae,
            "acceleration must reduce abscissae: raw {} vs acc {}",
            raw.abscissae,
            acc.abscissae
        );
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_time() {
        DurbinInverter::default().invert(|s| s.inv(), 0.0, 1.0, 1e-6);
    }
}

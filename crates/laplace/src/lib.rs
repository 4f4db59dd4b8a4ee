//! Numerical Laplace transform inversion (Section 2.2 of the paper).
//!
//! The paper inverts the closed-form transforms of the truncated transformed
//! model with Durbin's trapezoidal approximation
//!
//! ```text
//! f(t) ≈ (e^{at}/T) · [ f̃(a)/2 + Σ_{k≥1} Re( f̃(a + ikπ/T) · e^{ikπt/T} ) ]
//! ```
//!
//! whose discretization error is `Σ_{k≥1} f(2kT + t)·e^{−2akT}`. Crump (1976)
//! takes `T = t` and accelerates the series with the ε-algorithm (fast, can be
//! unstable); Piessens & Huysmans (1984) take `T = 16t` (stable, slow). The
//! paper lands on **`T = 8t` with ε-acceleration** — the default here, with
//! the multiplier exposed for `repro ablation`.
//!
//! Error control follows the paper exactly: the budget `ε/2` given to the
//! inversion splits into `ε/4` *approximation* (discretization) error —
//! controlled by the damping parameter `a`, see [`damping`] — and `ε/4`
//! *truncation* error — controlled by stopping once consecutive accelerated
//! estimates differ by `≤ ε/100`, keeping the paper's factor-25 reserve
//! between the observable difference and the true truncation error.

//! ```
//! use regenr_laplace::{damping_for_bounded, DurbinInverter};
//! use regenr_numeric::Complex64;
//!
//! // Invert f~(s) = 1/(s+1) at t = 2 with absolute error <= 1e-10.
//! let (t, eps) = (2.0, 1e-10);
//! let inv = DurbinInverter::default();             // T = 8t, ε-accelerated
//! let a = damping_for_bounded(eps, 1.0, inv.opts.t_multiplier * t);
//! let r = inv.invert(|s| (s + 1.0).inv(), t, a, eps / 100.0);
//! assert!(r.converged);
//! assert!((r.value - (-t as f64).exp()).abs() < 1e-9);
//! ```

pub mod damping;
pub mod durbin;

pub use damping::{damping_for_bounded, damping_for_linear_growth};
pub use durbin::{DurbinInverter, InversionResult, InverterOptions};

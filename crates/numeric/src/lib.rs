//! Numerical substrate for the `regenr` workspace.
//!
//! Everything here is implemented from scratch (no external numerics crates):
//!
//! * [`Complex64`] — double-precision complex arithmetic used by the Laplace
//!   transform evaluation and inversion machinery,
//! * [`kahan`] — compensated (Neumaier) summation for long, cancellation-prone sums,
//! * [`poisson`] — Fox–Glynn-style computation of Poisson probability weights with
//!   guaranteed tail coverage, used by every randomization-based solver,
//! * [`epsilon`] — Wynn's ε-algorithm for convergence acceleration of (complex)
//!   series, used by Durbin/Crump Laplace inversion,
//! * [`special`] — `ln Γ` and related special functions.

pub mod complex;
pub mod epsilon;
pub mod kahan;
pub mod poisson;
pub mod special;

pub use complex::Complex64;
pub use epsilon::{EpsilonAccelerator, EpsilonAcceleratorC};
pub use kahan::KahanSum;
pub use poisson::{poisson_cdf_complement, poisson_pmf, PoissonWeights};
pub use special::ln_gamma;

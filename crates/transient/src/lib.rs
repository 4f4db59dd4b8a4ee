//! Baseline transient solvers for rewarded CTMCs.
//!
//! These are the methods the paper compares against:
//!
//! * [`sr`] — **standard randomization** (SR, a.k.a. uniformization): the
//!   reference method with rigorous error control; cost `Θ(Λt)` DTMC steps,
//!   prohibitive for stiff dependability models at large horizons,
//! * [`rsd`] — **randomization with steady-state detection** (RSD, after
//!   Sericola 1999): for irreducible chains, stops stepping once the DTMC has
//!   numerically reached stationarity,
//! * [`adaptive`] — **adaptive active-set randomization**, a related-work
//!   extension in the spirit of adaptive uniformization (van Moorsel &
//!   Sanders 1994): products touch only the reachable frontier, so small-`t`
//!   transients cost `O(active nnz)` (see the module docs for how this
//!   relates to the original rate-adapting formulation),
//! * [`ode`] — a dense adaptive RK4(5) integrator of the Kolmogorov equations,
//!   used as an *independent* cross-validation oracle on small models.
//!
//! All solvers compute the paper's two measures ([`MeasureKind`]):
//! `TRR(t) = E[r_{X(t)}]` and `MRR(t) = (1/t)·E[∫₀ᵗ r_{X(τ)} dτ]`.

//! ```
//! use regenr_transient::{SrSolver, SrOptions, MeasureKind};
//! use regenr_ctmc::Ctmc;
//!
//! let ctmc = Ctmc::from_rates(
//!     2,
//!     &[(0, 1, 0.5), (1, 0, 2.0)],
//!     vec![1.0, 0.0],
//!     vec![0.0, 1.0],
//! ).unwrap();
//! let sr = SrSolver::new(&ctmc, SrOptions::default());
//! let ua = sr.solve(MeasureKind::Trr, 3.0);
//! let exact = 0.5 / 2.5 * (1.0 - (-2.5f64 * 3.0).exp());
//! assert!((ua.value - exact).abs() < 1e-11);
//! ```

pub mod adaptive;
pub mod ode;
pub mod rsd;
pub mod sr;
mod window;

pub use adaptive::{AdaptiveOptions, AdaptiveSolver};
pub use ode::OdeSolver;
pub use rsd::{RsdOptions, RsdSolver};
pub use sr::{SrOptions, SrSolver};

// The execution-layer scratch arena every `_with` solver entry point takes;
// re-exported so downstream callers need not depend on `regenr-sparse`.
pub use regenr_sparse::{Workspace, WorkspaceStats};

/// Which of the paper's two measures to compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeasureKind {
    /// Transient reward rate at time `t`: `TRR(t) = Σ_i r_i P[X(t)=i]`.
    Trr,
    /// Mean reward rate over `[0,t]`: `MRR(t) = (1/t)∫₀ᵗ TRR(τ) dτ`.
    Mrr,
}

/// A solver result: the measure value plus work/accuracy accounting, which is
/// what the paper's tables report.
#[derive(Clone, Copy, Debug)]
pub struct Solution {
    /// The computed measure value.
    pub value: f64,
    /// Number of DTMC steps (vector–matrix products) performed — the "number
    /// of steps" column of Tables 1 and 2.
    pub steps: usize,
    /// A bound on the absolute error of `value` (guaranteed for SR, practical
    /// for RSD; see the solver docs).
    pub error_bound: f64,
}

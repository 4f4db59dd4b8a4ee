//! Regenerative randomization (RR) and its Laplace-transform-inversion
//! variant (RRL) — the contribution of the reproduced paper.
//!
//! ## Method overview
//!
//! Pick a *regenerative state* `r` in the strongly connected part `S` of the
//! chain. Randomize `X` at rate `Λ` into the DTMC `X̂`. Stepping `X̂` killed on
//! return to `r` / absorption yields scalar sequences (`a(k)`, `c(k)`, …, see
//! [`params::RegenParams`]) that characterize a *transformed* CTMC `V_{K,L}`
//! (Fig. 1 of the paper, [`vmodel`]) whose `TRR`/`MRR` match the original
//! chain's up to a controlled truncation error `ε/2`. The transformed model is
//! a chain of `K` states with returns to the head, so:
//!
//! * **RR** ([`RrSolver`]) solves `V_{K,L}` by standard randomization — cheap
//!   per step (≈3 transitions per state) but still `Θ(Λt)` steps;
//! * **RRL** ([`RrlSolver`]) — the paper's new variant — evaluates the
//!   *closed-form Laplace transform* of the truncated model's measures
//!   ([`transform`]) and inverts it numerically with `regenr-laplace`,
//!   replacing the `Θ(Λt)` inner stepping with a few hundred transform
//!   evaluations of cost `O(K)` each.
//!
//! The number of *construction* steps (`K`, plus `L` when the initial
//! distribution has mass off `r`) is identical for RR and RRL — this is the
//! "number of steps" the paper's Tables 1–2 report for the RR/RRL column.
//!
//! ```
//! use regenr_core::{RrlSolver, RrlOptions};
//! use regenr_ctmc::Ctmc;
//!
//! // Repairable unit; unavailability via the paper's RRL method.
//! let ctmc = Ctmc::from_rates(
//!     2,
//!     &[(0, 1, 1e-3), (1, 0, 1.0)],
//!     vec![1.0, 0.0],
//!     vec![0.0, 1.0],
//! ).unwrap();
//! let solver = RrlSolver::new(&ctmc, 0, RrlOptions::default()).unwrap();
//! let sol = solver.trr(1000.0).unwrap();
//! let exact = 1e-3 / 1.001 * (1.0 - (-1.001f64 * 1000.0).exp());
//! assert!((sol.value - exact).abs() < 1e-10);
//! assert!(sol.inversion_converged);
//! ```

pub mod params;
pub mod regen;
pub mod rr;
pub mod rrl;
pub mod select;
pub mod transform;
pub mod vmodel;

pub use params::{KilledChainParams, RegenOptions, RegenParams};
pub use regen::{Construct, ParamSource, RegenMethod, RegenSolver};
pub use rr::{RrOptions, RrSolution, RrSolver};
pub use rrl::{RrlOptions, RrlSolution, RrlSolver};
pub use select::select_regenerative_state;
pub use transform::TransformEvaluator;
pub use vmodel::build_truncated_model;

//! # regenr — transient analysis of dependability/performability CTMC models
//!
//! A reproduction of *J. A. Carrasco, "Transient Analysis of
//! Dependability/Performability Models by Regenerative Randomization with
//! Laplace Transform Inversion", IPDPS 2000 Workshops (IPPS 2000)*.
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`numeric`] — complex arithmetic, compensated sums, Poisson weights,
//!   Wynn ε-algorithm;
//! * [`sparse`] — CSR sparse matrices and (parallel) vector–matrix products;
//! * [`ctmc`] — CTMC representation, validation, uniformization and a
//!   high-level model compiler;
//! * [`transient`] — baseline solvers: standard randomization (SR),
//!   randomization with steady-state detection (RSD), adaptive uniformization,
//!   dense oracles;
//! * [`laplace`] — Durbin/Crump numerical Laplace inversion with ε-algorithm
//!   acceleration and the paper's damping-parameter selection;
//! * [`core`] — the paper's contribution: regenerative randomization (RR) and
//!   its Laplace-transform-inversion variant (RRL);
//! * [`models`] — the level-5 RAID dependability model of the evaluation
//!   section plus auxiliary models;
//! * [`engine`] — the unified solver engine: one [`Solver`](engine::Solver)
//!   interface over all six methods with capability flags, batch
//!   [`SolveRequest`](engine::SolveRequest)s with `Auto` dispatch (SR for
//!   small `Λt`, RSD for irreducible chains, RRL for stiff/large-horizon
//!   absorbing cases), a fingerprint-keyed artifact cache, parallel sweeps
//!   over `(model × measure × horizon)` grids, and the `regenr` CLI.
//!
//! ## Quickstart
//!
//! ```
//! use regenr::prelude::*;
//!
//! // A 2-state repairable unit: failure rate 1e-3/h, repair rate 1/h.
//! let ctmc = regenr::models::two_state::repairable_unit(1e-3, 1.0);
//! // Unavailability at t = 1000h by the paper's RRL method, error <= 1e-10:
//! let opts = RrlOptions {
//!     regen: RegenOptions { epsilon: 1e-10, ..Default::default() },
//!     ..Default::default()
//! };
//! let sol = RrlSolver::new(&ctmc, 0, opts).unwrap();
//! let ua = sol.trr(1000.0).unwrap();
//! let exact = 1e-3 / (1e-3 + 1.0) * (1.0 - (-(1e-3 + 1.0f64) * 1000.0).exp());
//! assert!((ua.value - exact).abs() < 1e-9);
//! ```
//!
//! ## Engine quickstart — batch sweeps with automatic method choice
//!
//! Hand-picking a solver per workload is exactly what the engine layer
//! removes: submit a request per (model, measure) with a horizon grid, let
//! `Auto` dispatch per horizon, and read structured reports.
//!
//! ```
//! use regenr::prelude::*;
//! use std::sync::Arc;
//!
//! let engine = Engine::new();
//! let unit = Arc::new(regenr::models::two_state::repairable_unit(1e-3, 1.0));
//! let requests = vec![
//!     SolveRequest::new("unit_ua", unit.clone(), vec![1.0, 10.0, 1e4]).epsilon(1e-10),
//!     SolveRequest::new("unit_mrr", unit, vec![1e4])
//!         .measure(MeasureKind::Mrr)
//!         .epsilon(1e-10),
//! ];
//! let sweep = engine.sweep(&requests);
//! assert!(sweep.failures.is_empty());
//! // Small Λt cells ran SR; large-horizon cells of this irreducible chain
//! // ran RSD — and every cell reports which method ran and why.
//! assert_eq!(sweep.reports[0].method, Method::Sr);
//! assert_eq!(sweep.reports[2].method, Method::Rsd);
//! // Artifacts (uniformizations, …) were shared across the batch.
//! assert!(sweep.cache.uniformized.hits > 0);
//! ```

pub use regenr_core as core;
pub use regenr_ctmc as ctmc;
pub use regenr_engine as engine;
pub use regenr_laplace as laplace;
pub use regenr_models as models;
pub use regenr_numeric as numeric;
pub use regenr_sparse as sparse;
pub use regenr_transient as transient;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use regenr_core::{
        select_regenerative_state, RegenOptions, RegenParams, RrOptions, RrSolver, RrlOptions,
        RrlSolver,
    };
    pub use regenr_ctmc::{Ctmc, CtmcBuilder, ModelSpec};
    pub use regenr_engine::{
        CacheConfig, CacheStats, Engine, EngineOptions, ExecStats, Method, MethodChoice,
        SolveReport, SolveRequest, Solver, SweepReport,
    };
    pub use regenr_laplace::{DurbinInverter, InverterOptions};
    pub use regenr_numeric::{Complex64, PoissonWeights};
    pub use regenr_sparse::{CsrMatrix, WorkerPool, Workspace};
    pub use regenr_transient::{MeasureKind, RsdOptions, RsdSolver, Solution, SrOptions, SrSolver};
}

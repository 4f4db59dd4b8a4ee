//! # regenr-engine — the unified solver engine
//!
//! The paper's point (Carrasco, IPPS 2000) is that *which* transient method
//! wins — SR, RSD, RR, or RRL — depends on the model class (irreducible vs.
//! absorbing), stiffness, and the horizon `t`. Each solver crate exposes its
//! own constructor API; this crate puts one request/response layer on top:
//!
//! * [`Solver`] — one `solve(measure, t)` interface over all six methods,
//!   with per-method [`Capabilities`] (absorbing-chain support, MRR support,
//!   rigorous error bounds, …);
//! * [`SolveRequest`] / [`Engine::solve`] — batch solves over horizon
//!   grids, with [`MethodChoice::Auto`] encoding the paper's decision
//!   logic (SR for small `Λt`, RSD for irreducible chains, RRL for
//!   stiff/large-horizon absorbing cases) and structured [`SolveReport`]s
//!   (method chosen, dispatch reason, step counts, error bounds);
//! * [`ArtifactCache`] — a two-level artifact graph: uniformizations,
//!   structure analyses and RR/RRL killed-chain parameters keyed by a
//!   *structural* and a full [fingerprint](fingerprint::model_fps), so
//!   repeated requests across horizons/tolerances skip the expensive
//!   rebuilds and rate variants of one topology re-bind the cached `Pᵀ`
//!   pattern and Tarjan facts instead of rebuilding them;
//! * [`Engine::sweep`] — parallel, supervised execution of
//!   `(model × measure × horizon)` grids on the shared `WorkerPool`, plus
//!   the `regenr` CLI binary that runs a sweep from a JSON spec and prints
//!   a JSON report.
//!
//! ## Quickstart
//!
//! ```
//! use regenr_engine::{Engine, MethodChoice, SolveRequest, Method};
//! use std::sync::Arc;
//!
//! let model = Arc::new(regenr_models::two_state::repairable_unit(1e-3, 1.0));
//! let engine = Engine::new();
//! let req = SolveRequest::new("unit", model, vec![1.0, 10.0, 1e4]).epsilon(1e-10);
//! let reports = engine.solve(&req).unwrap();
//! // Small Λt → SR; this chain is irreducible, so large horizons go to RSD.
//! assert_eq!(reports[0].method, Method::Sr);
//! assert_eq!(reports[2].method, Method::Rsd);
//! let exact = 1e-3 / 1.001 * (1.0 - (-1.001f64 * 1e4).exp());
//! assert!((reports[2].value - exact).abs() < 1e-8);
//! ```

pub mod cache;
pub mod engine;
pub mod fingerprint;
pub mod json;
pub mod method;
pub mod serve;
pub mod solver;
pub mod spec;

pub use cache::{ArtifactCache, CacheConfig, CacheStats, ChainFacts, PoolStats};
pub use engine::{
    DispatchReason, Engine, EngineOptions, ExecStats, MethodChoice, RobustnessStats, SolveReport,
    SolveRequest, SweepFailure, SweepProgress, SweepReport, ADAPTIVE_MIN_STATES, SMALL_LAMBDA_T,
    TINY_LAMBDA_T,
};
pub use fingerprint::{canonicalize_spec, model_fps, ModelFps};
pub use json::Json;
pub use method::{Capabilities, Method, ALL_METHODS};
pub use serve::{serve_stats_json, ServeConfig, ServeStats, Server};
pub use solver::{build_solver, EngineSolution, SolveConfig, Solver, UnifiedSolver};
pub use spec::{
    cache_stats_json, cell_to_json, failure_to_json, report_to_json, robustness_json,
    stable_report_to_json, SweepSpec,
};

use regenr_ctmc::CtmcError;
use std::fmt;

/// Engine-level errors.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The underlying chain machinery rejected the model/solve.
    Chain(CtmcError),
    /// The requested method cannot handle this model/measure.
    Unsupported {
        /// The method that was requested.
        method: Method,
        /// Why it cannot run.
        reason: String,
    },
    /// The request itself is malformed.
    InvalidRequest(String),
    /// A solver job panicked; the sweep isolated it and carried on. The
    /// payload is the panic message — this indicates a solver bug, not a
    /// bad request.
    JobPanicked(String),
    /// A solution failed the supervisor's numerical-health check (non-finite
    /// value, value outside the reward bounds, or a method-specific
    /// convergence flag unset), and no method of its fallback chain
    /// recovered the job.
    Unhealthy(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Chain(e) => write!(f, "chain error: {e}"),
            EngineError::Unsupported { method, reason } => {
                write!(f, "method {method} unsupported here: {reason}")
            }
            EngineError::InvalidRequest(reason) => write!(f, "invalid request: {reason}"),
            EngineError::JobPanicked(message) => {
                write!(f, "solver job panicked: {message}")
            }
            EngineError::Unhealthy(reason) => {
                write!(f, "numerical health check failed: {reason}")
            }
        }
    }
}

impl EngineError {
    /// Whether this error describes *infrastructure* misbehaviour (a panic,
    /// an injected fault, a corrupted solution) rather than a property of
    /// the request or model. The serve layer maps infrastructure failures
    /// to `5xx` and model/request errors to `4xx` — an injected fault must
    /// never masquerade as a model error.
    pub fn is_infrastructure(&self) -> bool {
        matches!(
            self,
            EngineError::JobPanicked(_)
                | EngineError::Unhealthy(_)
                | EngineError::Chain(CtmcError::Injected { .. })
        )
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Chain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CtmcError> for EngineError {
    fn from(e: CtmcError) -> Self {
        EngineError::Chain(e)
    }
}

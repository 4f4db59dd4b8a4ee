//! The unified [`Solver`] interface over every transient method in the
//! workspace.
//!
//! Each concrete solver keeps its specialized API (RRL's bounds, RSD's
//! detection report, …); this module gives them one common
//! `solve(measure, t)` surface plus capability flags so the engine — or any
//! generic caller — can treat them interchangeably. The [`UnifiedSolver`]
//! enum is the zero-boxing dispatch vehicle; [`build_solver`] constructs one
//! from a [`Method`] tag with per-method validation.

use crate::cache::ChainFacts;
use crate::method::{Capabilities, Method};
use crate::EngineError;
use regenr_core::{
    select_regenerative_state, ParamSource, RegenOptions, RrOptions, RrSolver, RrlOptions,
    RrlSolver, SelectOptions,
};
use regenr_ctmc::{Ctmc, CtmcError, Uniformized};
use regenr_laplace::InverterOptions;
use regenr_sparse::{ParallelConfig, Workspace};
use regenr_transient::{
    AdaptiveOptions, AdaptiveSolver, MeasureKind, OdeOptions, OdeSolver, RsdOptions, RsdSolver,
    SrOptions, SrSolver,
};
use std::sync::Arc;

/// A solver result in the engine's common shape.
#[derive(Clone, Copy, Debug)]
pub struct EngineSolution {
    /// The measure value.
    pub value: f64,
    /// Work steps: DTMC products for SR/RSD/adaptive, construction steps
    /// `K (+ L)` for RR/RRL (the paper's reported number), `0` for the ODE
    /// oracle.
    pub steps: usize,
    /// Error bound as reported by the method (`NaN` for the ODE oracle,
    /// whose step control is local, not global).
    pub error_bound: f64,
    /// Laplace abscissae evaluated (RRL only; `0` elsewhere).
    pub abscissae: usize,
    /// Health flag: `false` only when a method's internal convergence
    /// criterion failed (RRL's Laplace inversion). Methods that run to an
    /// a-priori truncation point — including RSD when it completes the full
    /// Poisson sum without detecting stationarity, which is exactly as
    /// rigorous as SR — report `true`.
    pub converged: bool,
}

impl From<regenr_transient::Solution> for EngineSolution {
    fn from(s: regenr_transient::Solution) -> Self {
        EngineSolution {
            value: s.value,
            steps: s.steps,
            error_bound: s.error_bound,
            abscissae: 0,
            converged: true,
        }
    }
}

impl From<regenr_core::RrlSolution> for EngineSolution {
    fn from(s: regenr_core::RrlSolution) -> Self {
        EngineSolution {
            value: s.value,
            steps: s.construction_steps,
            error_bound: s.error_bound,
            abscissae: s.abscissae,
            converged: s.inversion_converged,
        }
    }
}

impl From<regenr_core::RrSolution> for EngineSolution {
    fn from(s: regenr_core::RrSolution) -> Self {
        EngineSolution {
            value: s.value,
            steps: s.construction_steps,
            error_bound: s.error_bound,
            abscissae: 0,
            converged: true,
        }
    }
}

/// The one interface every transient method exposes.
pub trait Solver {
    /// Which method this is.
    fn method(&self) -> Method;

    /// This method's capability flags.
    fn capabilities(&self) -> Capabilities {
        self.method().capabilities()
    }

    /// Computes the measure at horizon `t`.
    fn solve(&self, measure: MeasureKind, t: f64) -> Result<EngineSolution, EngineError>;

    /// Computes the measure at many horizons: [`Solver::solve_many_ws`]
    /// with a fresh [`Workspace`]. Methods with shareable work override
    /// that: SR, RSD and Adaptive serve the whole grid from one DTMC
    /// propagation, RR and RRL from one parameter construction.
    fn solve_many(
        &self,
        measure: MeasureKind,
        ts: &[f64],
    ) -> Result<Vec<EngineSolution>, EngineError> {
        self.solve_many_ws(measure, ts, &mut Workspace::new())
    }

    /// Like [`Solver::solve_many`] with caller-owned scratch: solvers
    /// threading the [`Workspace`] through their inner loops perform zero
    /// steady-state vector allocations across the horizon grid. The default
    /// ignores the workspace and loops over [`Solver::solve`].
    fn solve_many_ws(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Result<Vec<EngineSolution>, EngineError> {
        let _ = ws;
        ts.iter().map(|&t| self.solve(measure, t)).collect()
    }
}

impl Solver for SrSolver<'_> {
    fn method(&self) -> Method {
        Method::Sr
    }

    fn solve(&self, measure: MeasureKind, t: f64) -> Result<EngineSolution, EngineError> {
        Ok(SrSolver::solve(self, measure, t).into())
    }

    fn solve_many_ws(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Result<Vec<EngineSolution>, EngineError> {
        Ok(SrSolver::solve_many_with(self, measure, ts, ws)
            .into_iter()
            .map(Into::into)
            .collect())
    }
}

impl Solver for RsdSolver<'_> {
    fn method(&self) -> Method {
        Method::Rsd
    }

    fn solve(&self, measure: MeasureKind, t: f64) -> Result<EngineSolution, EngineError> {
        // Whether detection fired or the full Poisson sum ran, the result is
        // within ε (the undetected case degenerates to SR); `steps` tells
        // the two apart.
        Ok(RsdSolver::solve(self, measure, t).into())
    }

    fn solve_many_ws(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Result<Vec<EngineSolution>, EngineError> {
        Ok(self
            .solve_many_with(measure, ts, ws)
            .into_iter()
            .map(|r| r.solution.into())
            .collect())
    }
}

impl Solver for AdaptiveSolver<'_> {
    fn method(&self) -> Method {
        Method::Adaptive
    }

    fn solve(&self, measure: MeasureKind, t: f64) -> Result<EngineSolution, EngineError> {
        Ok(AdaptiveSolver::solve(self, measure, t).into())
    }

    fn solve_many_ws(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Result<Vec<EngineSolution>, EngineError> {
        Ok(self
            .solve_many_with(measure, ts, ws)
            .into_iter()
            .map(|r| r.solution.into())
            .collect())
    }
}

impl Solver for OdeSolver<'_> {
    fn method(&self) -> Method {
        Method::Ode
    }

    fn solve(&self, measure: MeasureKind, t: f64) -> Result<EngineSolution, EngineError> {
        Ok(OdeSolver::solve(self, measure, t).into())
    }

    fn solve_many_ws(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Result<Vec<EngineSolution>, EngineError> {
        Ok(ts
            .iter()
            .map(|&t| self.solve_with(measure, t, ws).into())
            .collect())
    }
}

impl Solver for RrSolver<'_> {
    fn method(&self) -> Method {
        Method::Rr
    }

    fn solve(&self, measure: MeasureKind, t: f64) -> Result<EngineSolution, EngineError> {
        Ok(RrSolver::solve(self, measure, t)?.into())
    }

    fn solve_many_ws(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Result<Vec<EngineSolution>, EngineError> {
        Ok(RrSolver::solve_many_with(self, measure, ts, ws)?
            .into_iter()
            .map(Into::into)
            .collect())
    }
}

impl Solver for RrlSolver<'_> {
    fn method(&self) -> Method {
        Method::Rrl
    }

    fn solve(&self, measure: MeasureKind, t: f64) -> Result<EngineSolution, EngineError> {
        Ok(RrlSolver::solve(self, measure, t)?.into())
    }

    fn solve_many_ws(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Result<Vec<EngineSolution>, EngineError> {
        Ok(RrlSolver::solve_many_with(self, measure, ts, ws)?
            .into_iter()
            .map(Into::into)
            .collect())
    }
}

/// Per-solve configuration shared by every method.
#[derive(Clone, Copy, Debug)]
pub struct SolveConfig {
    /// Total absolute error budget `ε`.
    pub epsilon: f64,
    /// Uniformization safety factor `θ`.
    pub theta: f64,
    /// Regenerative state for RR/RRL; `None` picks the paper's pristine
    /// state (index 0) and falls back to occupancy-based selection when
    /// that state is invalid.
    pub regen_state: Option<usize>,
    /// Laplace-inversion tuning for RRL.
    pub inverter: InverterOptions,
    /// Inner SpMV parallelism.
    pub parallel: ParallelConfig,
    /// Hard state-count limit for the dense ODE oracle.
    pub dense_limit: usize,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            epsilon: 1e-12,
            theta: 0.0,
            regen_state: None,
            inverter: InverterOptions::default(),
            parallel: ParallelConfig::default(),
            dense_limit: 1_000,
        }
    }
}

/// Any of the six solvers, behind one type. Implements [`Solver`] by
/// delegation; [`UnifiedSolver::solve_many_from`] also hands RR and RRL a
/// parameter source (the engine's artifact cache).
pub enum UnifiedSolver<'a> {
    /// Standard randomization.
    Sr(SrSolver<'a>),
    /// Steady-state detection.
    Rsd(RsdSolver<'a>),
    /// Active-set randomization.
    Adaptive(AdaptiveSolver<'a>),
    /// Dense ODE oracle.
    Ode(OdeSolver<'a>),
    /// Regenerative randomization.
    Rr(RrSolver<'a>),
    /// Regenerative randomization + Laplace inversion.
    Rrl(RrlSolver<'a>),
}

impl<'a> UnifiedSolver<'a> {
    /// The inner RRL solver, when this is the RRL method.
    pub fn as_rrl(&self) -> Option<&RrlSolver<'a>> {
        match self {
            UnifiedSolver::Rrl(s) => Some(s),
            _ => None,
        }
    }

    /// The inner RR solver, when this is the RR method.
    pub fn as_rr(&self) -> Option<&RrSolver<'a>> {
        match self {
            UnifiedSolver::Rr(s) => Some(s),
            _ => None,
        }
    }

    /// Like [`Solver::solve_many_ws`], with RR's and RRL's killed-chain
    /// parameters taken from `source`; the stepping methods hold none and
    /// ignore it.
    pub fn solve_many_from(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
        source: &mut dyn ParamSource,
    ) -> Result<Vec<EngineSolution>, EngineError> {
        fn cells<S: Into<EngineSolution>>(sols: Vec<S>) -> Vec<EngineSolution> {
            sols.into_iter().map(Into::into).collect()
        }
        Ok(match self {
            UnifiedSolver::Rr(s) => cells(s.solve_many_from(measure, ts, ws, source)?),
            UnifiedSolver::Rrl(s) => cells(s.solve_many_from(measure, ts, ws, source)?),
            _ => return self.solve_many_ws(measure, ts, ws),
        })
    }

    fn inner(&self) -> &dyn Solver {
        match self {
            UnifiedSolver::Sr(s) => s,
            UnifiedSolver::Rsd(s) => s,
            UnifiedSolver::Adaptive(s) => s,
            UnifiedSolver::Ode(s) => s,
            UnifiedSolver::Rr(s) => s,
            UnifiedSolver::Rrl(s) => s,
        }
    }
}

impl Solver for UnifiedSolver<'_> {
    fn method(&self) -> Method {
        self.inner().method()
    }

    fn solve(&self, measure: MeasureKind, t: f64) -> Result<EngineSolution, EngineError> {
        self.inner().solve(measure, t)
    }

    fn solve_many_ws(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Result<Vec<EngineSolution>, EngineError> {
        self.inner().solve_many_ws(measure, ts, ws)
    }
}

/// Picks the regenerative state: the explicit request, else the paper's
/// pristine state `0`, else (when `0` is invalid, e.g. absorbing) the
/// occupancy-ranking heuristic.
pub fn pick_regen_state(
    ctmc: &Ctmc,
    facts: &ChainFacts,
    requested: Option<usize>,
    theta: f64,
) -> Result<usize, CtmcError> {
    if let Some(r) = requested {
        return Ok(r);
    }
    if !facts.absorbing.contains(&0) && facts.n_states > 0 {
        return Ok(0);
    }
    select_regenerative_state(
        ctmc,
        SelectOptions {
            theta,
            ..Default::default()
        },
    )
}

/// Builds a validated solver for `method` on `ctmc`. `unif` is the cached
/// uniformization for methods that need one; pass `None` to build it here
/// (it is never built for the ODE oracle, which does not randomize).
pub fn build_solver<'a>(
    method: Method,
    ctmc: &'a Ctmc,
    facts: &ChainFacts,
    unif: Option<Arc<Uniformized>>,
    cfg: &SolveConfig,
) -> Result<UnifiedSolver<'a>, EngineError> {
    let caps = method.capabilities();
    if !caps.supports_absorbing && !facts.absorbing.is_empty() {
        return Err(EngineError::Unsupported {
            method,
            reason: format!(
                "chain has {} absorbing state(s); {method} requires an irreducible chain",
                facts.absorbing.len()
            ),
        });
    }
    if caps.dense_only && facts.n_states > cfg.dense_limit {
        return Err(EngineError::Unsupported {
            method,
            reason: format!(
                "{} states exceed the dense-oracle limit of {}",
                facts.n_states, cfg.dense_limit
            ),
        });
    }
    let regen = RegenOptions {
        epsilon: cfg.epsilon,
        theta: cfg.theta,
        parallel: cfg.parallel,
        ..Default::default()
    };
    let theta = cfg.theta;
    // Deferred so the ODE arm never pays for (or caches) a randomization.
    let unif = move || unif.unwrap_or_else(|| Arc::new(Uniformized::new(ctmc, theta)));
    Ok(match method {
        Method::Sr => UnifiedSolver::Sr(SrSolver::with_uniformized(
            ctmc,
            unif(),
            SrOptions {
                epsilon: cfg.epsilon,
                theta: cfg.theta,
                parallel: cfg.parallel,
            },
        )),
        Method::Rsd => UnifiedSolver::Rsd(RsdSolver::with_uniformized(
            ctmc,
            unif(),
            RsdOptions {
                epsilon: cfg.epsilon,
                theta: cfg.theta,
                parallel: cfg.parallel,
                ..Default::default()
            },
        )),
        Method::Adaptive => UnifiedSolver::Adaptive(AdaptiveSolver::with_uniformized(
            ctmc,
            unif(),
            AdaptiveOptions {
                epsilon: cfg.epsilon,
                theta: cfg.theta,
            },
        )),
        Method::Ode => UnifiedSolver::Ode(OdeSolver::new(
            ctmc,
            OdeOptions {
                tol: cfg.epsilon,
                ..Default::default()
            },
        )),
        // RR/RRL reuse the cached structure analysis: `new` would re-run
        // the `O(n + nnz)` Tarjan pass per job even though the engine
        // already holds `ChainFacts` for this fingerprint.
        Method::Rr => {
            let r = pick_regen_state(ctmc, facts, cfg.regen_state, cfg.theta)?;
            UnifiedSolver::Rr(RrSolver::with_uniformized_facts(
                ctmc,
                r,
                unif(),
                facts.absorbing.clone(),
                RrOptions { regen },
            )?)
        }
        Method::Rrl => {
            let r = pick_regen_state(ctmc, facts, cfg.regen_state, cfg.theta)?;
            UnifiedSolver::Rrl(RrlSolver::with_uniformized_facts(
                ctmc,
                r,
                unif(),
                facts.absorbing.clone(),
                RrlOptions {
                    regen,
                    inverter: cfg.inverter,
                },
            )?)
        }
    })
}

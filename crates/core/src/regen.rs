//! The regenerative core RR and RRL share.
//!
//! Both methods build the same killed-chain parameters and differ only in
//! how they solve the truncated model `V_{K,L}`: RR steps it with an inner
//! SR, RRL inverts its closed-form transform. [`RegenSolver`] holds what
//! they share — the chain, its uniformization (`Pᵀ`), the absorbing states,
//! the regenerative state `r` and the [`RegenOptions`] — and owns the
//! construction, the entry points and the one horizon-grid protocol,
//! [`RegenSolver::solve_many_from`]. [`crate::RrSolver`] and
//! [`crate::RrlSolver`] are its two instances; each method adds only its
//! solve stage ([`RegenMethod`]).

use crate::params::{check_regen_state, RegenOptions, RegenParams};
use regenr_ctmc::{analyze, Ctmc, CtmcError, Uniformized};
use regenr_sparse::Workspace;
use regenr_transient::MeasureKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A regenerative method, named by its options type: where the shared
/// options sit in it, and its solve stage.
pub trait RegenMethod: Sized {
    /// One horizon's result.
    type Solution;

    /// The options RR and RRL share.
    fn regen(&self) -> &RegenOptions;

    /// The `t = 0` cell, whose value is `r·α`.
    fn at_zero(value: f64) -> Self::Solution;

    /// Solves the truncated model described by `params`, already sliced to
    /// horizon `t`; `built` is the construction's wall time.
    fn solve_stage(
        solver: &RegenSolver<'_, Self>,
        params: &RegenParams,
        measure: MeasureKind,
        t: f64,
        built: Duration,
        ws: &mut Workspace,
    ) -> Result<Self::Solution, CtmcError>;
}

/// Where [`RegenSolver::solve_many_from`] gets its killed-chain parameters: the
/// solvers' own entry points construct them ([`Construct`]); the engine
/// passes its artifact cache.
pub trait ParamSource {
    /// Parameters for `(regen, r)` covering at least horizon `t`.
    /// `build(h)` is the solver's own construction at horizon `h`.
    fn params(
        &mut self,
        regen: &RegenOptions,
        r: usize,
        t: f64,
        build: &mut dyn FnMut(f64) -> Result<RegenParams, CtmcError>,
    ) -> Result<Arc<RegenParams>, CtmcError>;
}

/// The [`ParamSource`] that constructs the parameters on every call.
pub struct Construct;

impl ParamSource for Construct {
    fn params(
        &mut self,
        _regen: &RegenOptions,
        _r: usize,
        t: f64,
        build: &mut dyn FnMut(f64) -> Result<RegenParams, CtmcError>,
    ) -> Result<Arc<RegenParams>, CtmcError> {
        build(t).map(Arc::new)
    }
}

/// A regenerative-randomization solver bound to one chain and regenerative
/// state; `O` is the method's options ([`crate::RrOptions`] or
/// [`crate::RrlOptions`]), which name its solve stage.
pub struct RegenSolver<'a, O> {
    pub(crate) ctmc: &'a Ctmc,
    unif: Arc<Uniformized>,
    absorbing: Vec<usize>,
    r: usize,
    opts: O,
}

impl<'a, O: RegenMethod> RegenSolver<'a, O> {
    /// Validates the chain structure and the regenerative state, then
    /// uniformizes once (shared across solves). Validation runs first, so
    /// invalid inputs fail before the `O(nnz)` uniformization.
    pub fn new(ctmc: &'a Ctmc, r: usize, opts: O) -> Result<Self, CtmcError> {
        let absorbing = analyze(ctmc)?.absorbing;
        check_regen_state(ctmc, &absorbing, r)?;
        let unif = Arc::new(Uniformized::new(ctmc, opts.regen().theta));
        Ok(RegenSolver {
            ctmc,
            unif,
            absorbing,
            r,
            opts,
        })
    }

    /// Reuses a prebuilt uniformization **and** a cached structure analysis:
    /// `absorbing` must be the chain's ascending absorbing-state list as
    /// produced by [`regenr_ctmc::analyze`] on this very chain (the engine
    /// passes its cached `ChainFacts`). This skips the `O(n + nnz)` Tarjan
    /// pass entirely — only the regenerative state is re-checked against the
    /// supplied list — so a caller handing over facts from a *different*
    /// chain gets whatever that list implies, not an error. `unif` must have
    /// been built from `ctmc` at the options' `θ`.
    pub fn with_uniformized_facts(
        ctmc: &'a Ctmc,
        r: usize,
        unif: Arc<Uniformized>,
        absorbing: Vec<usize>,
        opts: O,
    ) -> Result<Self, CtmcError> {
        check_regen_state(ctmc, &absorbing, r)?;
        unif.assert_built_from(ctmc);
        Ok(RegenSolver {
            ctmc,
            unif,
            absorbing,
            r,
            opts,
        })
    }

    /// The randomization rate.
    pub fn lambda(&self) -> f64 {
        self.unif.lambda
    }

    /// The regenerative state in use (callers deriving cache keys must use
    /// this, not re-run their own selection).
    pub fn regenerative_state(&self) -> usize {
        self.r
    }

    /// The options in effect.
    pub fn options(&self) -> &O {
        &self.opts
    }

    /// Exposes the computed parameters for a horizon (diagnostics, benches).
    pub fn parameters(&self, t: f64) -> Result<RegenParams, CtmcError> {
        self.parameters_with(t, &mut Workspace::new())
    }

    /// Like [`RegenSolver::parameters`] with caller-owned scratch.
    pub fn parameters_with(&self, t: f64, ws: &mut Workspace) -> Result<RegenParams, CtmcError> {
        RegenParams::compute_with_ws(
            self.ctmc,
            &self.unif,
            &self.absorbing,
            self.r,
            t,
            self.opts.regen(),
            ws,
        )
    }

    /// Computes the measure at horizon `t` with total error `≤ ε`.
    pub fn solve(&self, measure: MeasureKind, t: f64) -> Result<O::Solution, CtmcError> {
        self.solve_with(measure, t, &mut Workspace::new())
    }

    /// Like [`RegenSolver::solve`] with caller-owned scratch for the
    /// construction stepping and the solve stage. A one-horizon call into
    /// [`RegenSolver::solve_many_with`].
    pub fn solve_with(
        &self,
        measure: MeasureKind,
        t: f64,
        ws: &mut Workspace,
    ) -> Result<O::Solution, CtmcError> {
        let mut cells = self.solve_many_with(measure, &[t], ws)?;
        Ok(cells.remove(0))
    }

    /// Solves the measure at *many* horizons from one parameter
    /// construction — an extension over the paper, which recomputes the
    /// killed-chain sequences for each `t`.
    pub fn solve_many(
        &self,
        measure: MeasureKind,
        ts: &[f64],
    ) -> Result<Vec<O::Solution>, CtmcError> {
        self.solve_many_with(measure, ts, &mut Workspace::new())
    }

    /// Like [`RegenSolver::solve_many`] with caller-owned scratch.
    pub fn solve_many_with(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Result<Vec<O::Solution>, CtmcError> {
        self.solve_many_from(measure, ts, ws, &mut Construct)
    }

    /// The horizon-grid protocol of RR and RRL, with the parameters taken
    /// from `source` (the engine passes its artifact cache). When some
    /// horizon is positive, the parameters for `max(ts)` come from `source`,
    /// once. Each horizon is then either a `t = 0` cell or the method's
    /// solve stage on the parameters sliced to that horizon's own depths
    /// `(K, L)`. The truncation bound is monotone in `t`, so those depths —
    /// and the cells — are the ones a construction at that horizon alone
    /// would produce, while the `Θ(K·nnz)` stepping is paid once per grid.
    pub fn solve_many_from(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
        source: &mut dyn ParamSource,
    ) -> Result<Vec<O::Solution>, CtmcError> {
        let regen = self.opts.regen();
        let t_max = ts.iter().copied().fold(0.0f64, f64::max);
        let built = if t_max > 0.0 {
            let t0 = Instant::now();
            let params =
                source.params(regen, self.r, t_max, &mut |h| self.parameters_with(h, ws))?;
            Some((params, t0.elapsed()))
        } else {
            None
        };
        ts.iter()
            .map(|&t| {
                assert!(t >= 0.0, "time must be non-negative");
                match &built {
                    Some((params, elapsed)) if t > 0.0 => {
                        let (k, l) = params
                            .depth_for_horizon(t, regen.epsilon)
                            .expect("parameters built for max(ts) cover every smaller horizon");
                        let sliced = params.truncated(k, l);
                        O::solve_stage(self, &sliced, measure, t, *elapsed, ws)
                    }
                    _ => Ok(O::at_zero(self.ctmc.reward_dot(self.ctmc.initial()))),
                }
            })
            .collect()
    }
}

//! The engine proper: batch requests, `Auto` method dispatch, and the
//! parallel sweep executor.
//!
//! ## Dispatch
//!
//! `Auto` encodes the paper's Section 3 decision logic per horizon:
//!
//! 1. **small `Λt`** — standard randomization; at small horizons SR's
//!    `Θ(Λt)` step count is tiny and it carries a rigorous bound;
//! 2. **irreducible chain** — randomization with steady-state detection
//!    (the `UA(t)` column of Table 1): its step count saturates at the
//!    detection step;
//! 3. **otherwise** (absorbing chains at stiff/large horizons — the `UR(t)`
//!    column of Table 2, where SR needs millions of steps) — RRL, whose
//!    construction cost saturates in `t` and whose inversion is `O(K)` per
//!    abscissa.
//!
//! ## Sweep execution
//!
//! [`Engine::sweep`] plans every request into `(model, measure,
//! method-group-of-horizons)` jobs and executes the jobs on the shared
//! persistent worker pool. Horizons that share a method stay together so
//! the per-method batch paths (`SrSolver::solve_many`'s single propagation
//! sweep, RRL's shared construction) keep their savings; independent jobs
//! run concurrently, and the pool's work stealing lets idle workers claim
//! the jobs' inner SpMV chunks — a narrow sweep on a wide machine keeps
//! every core busy (see `regenr_sparse::pool`).

use crate::cache::{ArtifactCache, CacheConfig, CacheStats, CachedParams, ChainFacts};
use crate::fingerprint::{model_fps, ModelFps};
use crate::method::Method;
use crate::solver::{build_solver, SolveConfig};
use crate::EngineError;
use regenr_ctmc::{uniformization_rate, Ctmc};
use regenr_laplace::InverterOptions;
use regenr_numeric::PoissonWeights;
use regenr_sparse::{
    effective_threads, ParallelConfig, WorkerPool, WorkerPoolStats, Workspace, WorkspaceStats,
};
use regenr_transient::MeasureKind;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a request picks its method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodChoice {
    /// Per-horizon automatic dispatch (the engine's reason is reported).
    Auto,
    /// Force one method for every horizon; capability violations are errors.
    Fixed(Method),
}

/// A batch solve request: one model, one measure, many horizons.
#[derive(Clone)]
pub struct SolveRequest {
    /// The chain to analyse.
    pub model: Arc<Ctmc>,
    /// Display name used in reports.
    pub name: String,
    /// Which measure to compute.
    pub measure: MeasureKind,
    /// Horizons (hours); report order follows this order.
    pub horizons: Vec<f64>,
    /// Total absolute error budget `ε`.
    pub epsilon: f64,
    /// Method selection.
    pub method: MethodChoice,
    /// Regenerative state override for RR/RRL.
    pub regen_state: Option<usize>,
    /// Precomputed fingerprints for `model`, if the constructor already has
    /// them (the spec layer fingerprints each model once at parse time, so
    /// grid sweeps do not re-hash every matrix on every solve). Must
    /// describe `model` exactly — the engine trusts it as a cache key and
    /// only cross-checks under `debug_assertions`. `None` means the engine
    /// fingerprints the model itself.
    pub fps: Option<crate::fingerprint::ModelFps>,
    /// Extra same-method attempts the sweep supervisor may spend on a
    /// failing cell before walking the method-fallback chain (panics,
    /// solver errors, and health-check failures all count). `0` — the
    /// default — means one attempt per method.
    pub max_retries: usize,
}

impl SolveRequest {
    /// A request with the paper's defaults (`TRR`, `ε = 10⁻¹²`, `Auto`).
    pub fn new(name: impl Into<String>, model: Arc<Ctmc>, horizons: Vec<f64>) -> Self {
        SolveRequest {
            model,
            name: name.into(),
            measure: MeasureKind::Trr,
            horizons,
            epsilon: 1e-12,
            method: MethodChoice::Auto,
            regen_state: None,
            fps: None,
            max_retries: 0,
        }
    }

    /// Sets the measure.
    pub fn measure(mut self, measure: MeasureKind) -> Self {
        self.measure = measure;
        self
    }

    /// Sets the error budget.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the method selection.
    pub fn method(mut self, method: MethodChoice) -> Self {
        self.method = method;
        self
    }

    /// Sets the supervisor's same-method retry budget.
    pub fn max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }
}

/// Why dispatch picked a method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchReason {
    /// The request fixed the method.
    FixedByRequest,
    /// Tiny `Λt` on a large sparse model: the active-set frontier stays far
    /// below the state count, so adaptive randomization touches a fraction
    /// of the matrix per step (numerically identical to SR).
    TinyHorizonActiveSet,
    /// `Λt` below the SR threshold: SR is cheap and rigorous.
    SmallHorizon,
    /// Irreducible chain at large `Λt`: steady-state detection saturates.
    IrreducibleSteadyState,
    /// Absorbing/stiff chain at large `Λt`: RRL's construction saturates.
    StiffLargeHorizon,
}

impl DispatchReason {
    /// Stable string used in JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DispatchReason::FixedByRequest => "fixed_by_request",
            DispatchReason::TinyHorizonActiveSet => "tiny_lambda_t_active_set",
            DispatchReason::SmallHorizon => "small_lambda_t",
            DispatchReason::IrreducibleSteadyState => "irreducible_steady_state",
            DispatchReason::StiffLargeHorizon => "stiff_large_horizon",
        }
    }
}

impl fmt::Display for DispatchReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One solved (model, measure, horizon) cell.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Request display name.
    pub model: String,
    /// Full fingerprint of the model, structure and values
    /// ([`ModelFps::full`]).
    pub fingerprint: u64,
    /// The measure computed.
    pub measure: MeasureKind,
    /// The horizon.
    pub t: f64,
    /// The method that ran.
    pub method: Method,
    /// Why it was chosen.
    pub reason: DispatchReason,
    /// The measure value.
    pub value: f64,
    /// Work steps (see [`crate::EngineSolution::steps`]).
    pub steps: usize,
    /// Error bound reported by the method.
    pub error_bound: f64,
    /// Laplace abscissae (RRL only).
    pub abscissae: usize,
    /// Method-specific convergence flag.
    pub converged: bool,
    /// `Λt` at dispatch time.
    pub lambda_t: f64,
    /// The SpMV loop the solver's stepper executes (`"none"` for the dense
    /// ODE oracle, which never randomizes, and for Adaptive).
    pub kernel: &'static str,
    /// The execution backend that loop runs on: `"scalar"`, or `"none"`
    /// whenever `kernel` is `"none"`. Omitted, like `kernel`, from
    /// `--stable` reports.
    pub backend: &'static str,
    /// Whether the uniformization came from the artifact cache.
    pub unif_cache_hit: bool,
    /// Whether RRL's killed-chain parameters came from the cache.
    pub params_cache_hit: bool,
    /// Wall time of this cell's share of the solve.
    pub wall: Duration,
    /// Solve attempts the supervisor spent on this cell's job (`1` for the
    /// common healthy path). Execution accounting — omitted, like `wall`
    /// and `kernel`, from `--stable` reports.
    pub attempts: u32,
    /// When the cell recovered on a *different* method than planned, the
    /// method that produced this value (equal to `method`); `None` for
    /// first-method solves. Execution accounting, omitted from `--stable`
    /// reports.
    pub recovered_via: Option<Method>,
}

/// A request that could not be planned or executed.
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// Request display name.
    pub model: String,
    /// The measure requested.
    pub measure: MeasureKind,
    /// What went wrong.
    pub error: String,
    /// Whether the failure is *infrastructure* misbehaviour (panic,
    /// injected fault, corrupted solution) rather than a property of the
    /// request — see [`EngineError::is_infrastructure`]. The serve layer
    /// keys its 5xx-vs-4xx split off this.
    pub infrastructure: bool,
}

/// Execution-layer accounting for one sweep: how the shared worker pool and
/// the per-worker workspaces were used.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// The execution backend every stepping cell ran on (always
    /// `"scalar"`; see [`regenr_sparse::simd`]).
    pub simd_backend: &'static str,
    /// Sweep-level concurrency actually achieved: the worker count after
    /// resolving `threads = 0`, capping by the job count, and accounting
    /// for the execution mode — `1` when the sweep ran inline (single job,
    /// or the shared pool was busy at submission), the scoped/pooled
    /// worker count otherwise.
    pub sweep_workers: usize,
    /// Threads the shared SpMV pool executes on.
    pub pool_threads: usize,
    /// Pool activity during this sweep (delta of the shared pool's
    /// counters). `stolen_chunks` counts inner SpMV chunks idle pool
    /// workers claimed from running jobs — the concurrency work stealing
    /// recovered; runs that found no free job slot count as inline.
    pub pool: WorkerPoolStats,
    /// Workspace activity summed over the sweep's workers. `fresh_allocs`
    /// far below `takes` is the zero-steady-state-allocation property.
    pub workspace: WorkspaceStats,
}

/// Supervisor accounting for one sweep: how often solutions failed the
/// numerical-health check and what it took to recover them. All zero on the
/// healthy path (and always, in builds without the `failpoints` feature,
/// unless a genuine solver bug or non-convergence strikes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RobustnessStats {
    /// Attempts whose solutions were rejected by the health check
    /// (non-finite value, value outside the reward bounds, convergence
    /// flag unset).
    pub health_failures: u64,
    /// Jobs that produced their result on a fallback method after the
    /// planned method's attempts were exhausted.
    pub fallbacks: u64,
    /// Re-attempts after a failed attempt, on any method (same-method
    /// retries and fallback attempts both count).
    pub retries: u64,
    /// Cells whose final value arrived after at least one failed attempt.
    pub recovered_cells: u64,
}

impl RobustnessStats {
    /// Sums counters (for aggregating sweeps into service-level totals).
    pub fn merge(&mut self, other: &RobustnessStats) {
        self.health_failures += other.health_failures;
        self.fallbacks += other.fallbacks;
        self.retries += other.retries;
        self.recovered_cells += other.recovered_cells;
    }
}

/// Everything a sweep produced.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Per-cell reports, ordered by (request, horizon) as submitted.
    pub reports: Vec<SolveReport>,
    /// Requests that failed (the rest of the sweep still ran).
    pub failures: Vec<SweepFailure>,
    /// Jobs skipped because the observer cancelled the sweep mid-flight
    /// (per-request deadlines in the serve layer). The cells those jobs
    /// would have produced are simply absent from `reports`; every cell
    /// that *is* present was computed normally and stays valid. Always `0`
    /// for [`Engine::sweep`].
    pub cancelled_jobs: usize,
    /// Cache counters accumulated on the engine at sweep end.
    pub cache: CacheStats,
    /// Worker-pool and workspace accounting for this sweep.
    pub exec: ExecStats,
    /// Supervisor accounting: health-check failures, retries, fallbacks,
    /// recovered cells.
    pub robustness: RobustnessStats,
    /// Total wall time of the sweep.
    pub wall: Duration,
}

/// Observer hooks for a running sweep, polled and called from sweep worker
/// threads. The serve layer uses this to stream per-cell results as they
/// finish and to cancel a sweep when a request's deadline expires; the
/// default implementations make any `Sync` type a no-op observer.
pub trait SweepProgress: Sync {
    /// Polled by workers before claiming each job; returning `true` stops
    /// further jobs from starting. Jobs already running complete normally
    /// (their reports stay valid) — cancellation is a clean between-job
    /// cut, not an abort.
    fn cancelled(&self) -> bool {
        false
    }

    /// Called with each job's reports as the job completes, in completion
    /// order (not submission order). May be called concurrently from
    /// several workers.
    fn on_reports(&self, _reports: &[SolveReport]) {}
}

/// The no-op observer [`Engine::sweep`] runs under.
struct NoProgress;

impl SweepProgress for NoProgress {}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Uniformization safety factor `θ` (`0` matches the paper).
    pub theta: f64,
    /// Worker threads for sweeps (`0` = available parallelism). Sweep jobs
    /// run on the shared persistent worker pool; this caps how many run
    /// concurrently.
    pub threads: usize,
    /// Dense ODE-oracle state limit.
    pub dense_oracle_max_states: usize,
    /// Laplace-inversion tuning for RRL.
    pub inverter: InverterOptions,
    /// Inner SpMV parallelism (per solver).
    pub parallel: ParallelConfig,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            theta: 0.0,
            threads: 0,
            dense_oracle_max_states: 1_000,
            inverter: InverterOptions::default(),
            parallel: ParallelConfig::default(),
        }
    }
}

/// The solver engine: dispatch + artifact cache + sweep executor.
pub struct Engine {
    opts: EngineOptions,
    cache: ArtifactCache,
    /// The shared persistent worker pool: sweep jobs run on it, and the
    /// solvers' pooled SpMV kernels publish into the same pool's job slots,
    /// where idle workers steal their chunks (see `regenr_sparse::pool`).
    ///
    /// Invariant: this is always [`WorkerPool::global`] — the steppers
    /// inside the solvers submit to the global pool directly, so an engine
    /// on any *other* pool would split the machine between two pools. A
    /// future custom-pool constructor must plumb its pool into `Stepper`
    /// first.
    pool: Arc<WorkerPool>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::with_options(EngineOptions::default())
    }
}

/// A sweep job's result slot, filled by whichever worker executes it.
type JobCell = Mutex<Option<Result<Vec<SolveReport>, EngineError>>>;

/// `Λt` at or below which `Auto` prefers SR. The paper's grids show SR
/// competitive through `Λt ≈ 10³` and hopeless beyond `10⁴`.
pub const SMALL_LAMBDA_T: f64 = 2_000.0;

/// `Λt` at or below which `Auto` prefers *adaptive* (active-set)
/// randomization on large sparse models: the Poisson window ends after
/// `≈ Λt + O(√(Λt))` steps, so the reachable frontier stays a fraction of
/// the state space and each step touches only the active rows. About 2⁶
/// expected DTMC steps: deep enough to be worth solving, shallow enough
/// that a breadth-`Λt` frontier stays local in the RAID-style models the
/// paper evaluates.
pub const TINY_LAMBDA_T: f64 = 64.0;

/// Minimum state count before `Auto` considers adaptive randomization — on
/// small models the frontier saturates immediately and plain SR's simpler
/// loop wins.
pub const ADAPTIVE_MIN_STATES: usize = 2_048;

/// Largest `Λt` a request may ask for. Every randomization solver builds a
/// Poisson window of about `20·√(Λt)` weights, so an unbounded horizon
/// grows memory until the process is killed (`Λt = 10¹⁴` already peaks
/// near 5 GB). The limit is about 2,000× the largest `Λt` of any benchmark
/// or corpus spec.
const MAX_LAMBDA_T: f64 = 1e10;

/// Most Poisson-window weights one request's horizons may need in total,
/// by [`PoissonWeights::len_bound`]. A weight costs three `f64`s (the
/// weight and its survival and excess sums), so this is about 120 MB of
/// windows. It admits two horizons at the `Λt` limit for any `ε ≥ 10⁻¹⁵`
/// with unit rewards (about 1.8·10⁶ weights each at `ε = 10⁻¹²`). It is
/// about 100× the largest need of any benchmark, CI or corpus spec: 52,344
/// for the paper grid's G = 40 UR request. Without it, a 14 KB body of
/// 1,000 horizons near the `Λt` limit asks for about 29 GB.
const MAX_WINDOW_WEIGHTS: f64 = 5e6;

/// Longest panic message a report will carry. Panic payloads are
/// attacker/bug-controlled strings that end up in failure reports and
/// NDJSON streams; a pathological payload must not bloat them.
const MAX_PANIC_MESSAGE_BYTES: usize = 512;

/// Best-effort extraction of a panic payload's message, bounded to
/// [`MAX_PANIC_MESSAGE_BYTES`] (truncated on a char boundary, with any
/// invalid UTF-8 already handled by the `&str`/`String` downcasts).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg: &str = if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    };
    // Strip non-UTF8 lossily: `&str` is always valid UTF-8, but defensive
    // re-encoding keeps the guarantee even if an unpaired surrogate ever
    // sneaks through a downcast boundary.
    let msg = String::from_utf8_lossy(msg.as_bytes());
    if msg.len() <= MAX_PANIC_MESSAGE_BYTES {
        return msg.into_owned();
    }
    let mut cut = MAX_PANIC_MESSAGE_BYTES;
    while !msg.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}… [truncated {} bytes]", &msg[..cut], msg.len() - cut)
}

/// One planned unit of work: a run of horizons of one request that share a
/// method.
struct Job {
    req_idx: usize,
    /// All four model fingerprints (full/structure and the generator-only
    /// full/structural pair), computed once at plan time — hashing the
    /// full CSR is `O(nnz)`, workers must not redo it. The
    /// generator-only `unif` fingerprint keys the uniformization artifact
    /// (uniformization never sees initials or rewards, so models differing
    /// only in those share one cached `Uniformized`); `unif_structure` lets
    /// the cache rebuild a rate variant's uniformization by re-binding a
    /// structural donor's `Pᵀ` pattern.
    fps: ModelFps,
    /// Structure facts, resolved once at plan time.
    facts: Arc<ChainFacts>,
    method: Method,
    reason: DispatchReason,
    /// Horizon values of this group.
    ts: Vec<f64>,
    /// Positions of those horizons in the request's `horizons` vector.
    slots: Vec<usize>,
}

impl Job {
    /// A copy of this job dispatched to a different method (the supervisor's
    /// fallback path). The dispatch `reason` is kept: it documents why the
    /// *planned* method was chosen; the switch itself is recorded in
    /// [`SolveReport::recovered_via`].
    fn with_method(&self, method: Method) -> Job {
        Job {
            req_idx: self.req_idx,
            fps: self.fps,
            facts: self.facts.clone(),
            method,
            reason: self.reason,
            ts: self.ts.clone(),
            slots: self.slots.clone(),
        }
    }
}

/// The supervisor's deterministic method-fallback chain: methods to try,
/// in order, after the planned method's attempts are exhausted. Every
/// fallback supports absorbing chains and MRR, ends in SR (the rigorous
/// always-applicable baseline), and never *adds* capability requirements —
/// so a fallback attempt can only fail for the same reasons any solve can.
fn fallback_chain(method: Method) -> &'static [Method] {
    match method {
        Method::Rrl => &[Method::Rr, Method::Sr],
        Method::Rr => &[Method::Sr],
        Method::Adaptive => &[Method::Sr],
        Method::Rsd => &[Method::Sr],
        Method::Ode => &[Method::Sr],
        Method::Sr => &[],
    }
}

/// Live counters behind [`RobustnessStats`], shared by the sweep workers.
#[derive(Default)]
struct RobustCounters {
    health_failures: AtomicU64,
    fallbacks: AtomicU64,
    retries: AtomicU64,
    recovered_cells: AtomicU64,
}

impl RobustCounters {
    fn snapshot(&self) -> RobustnessStats {
        RobustnessStats {
            health_failures: self.health_failures.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            recovered_cells: self.recovered_cells.load(Ordering::Relaxed),
        }
    }
}

/// The supervisor's numerical-health check over one job's reports.
///
/// Every measure this engine computes is a reward expectation (TRR) or a
/// time-average of one (MRR), so any healthy value lies in the closed
/// reward range `[min r_i, max r_i]`; the tolerance absorbs inversion
/// overshoot proportional to the request's error budget. Non-finite values
/// and unset method convergence flags (RRL's inversion flag) are rejected
/// outright.
fn health_check(req: &SolveRequest, reports: &[SolveReport]) -> Result<(), String> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &r in req.model.rewards() {
        lo = lo.min(r);
        hi = hi.max(r);
    }
    if !lo.is_finite() || !hi.is_finite() {
        // Degenerate (empty) reward vector: nothing to bound.
        (lo, hi) = (f64::NEG_INFINITY, f64::INFINITY);
    }
    let tol = (1e-9 + 10.0 * req.epsilon) * (1.0 + hi.abs());
    for r in reports {
        if !r.value.is_finite() {
            return Err(format!("non-finite value {} at t={}", r.value, r.t));
        }
        if r.value < lo - tol || r.value > hi + tol {
            return Err(format!(
                "value {} at t={} outside reward bounds [{lo}, {hi}] (tol {tol})",
                r.value, r.t
            ));
        }
        if !r.converged {
            return Err(format!("method {} did not converge at t={}", r.method, r.t));
        }
    }
    Ok(())
}

/// The sweep's claim order over planned jobs, as job indices. RSD, RR and
/// RRL jobs come first, by descending generator nnz: these are the
/// long-horizon methods, and a job's cost grows with its matrix, so the
/// longest jobs start together instead of one after the other at the tail
/// of the sweep (on the paper grid, the G = 40 RSD and RRL jobs). Every
/// other job — SR, Adaptive and ODE — keeps first-job order behind them.
/// The sort is stable and keyed on properties of the input only, so the
/// order is deterministic; `--stable` output does not depend on it, because
/// results are collected by (request, horizon) slot.
fn plan_units(jobs: &[Job], reqs: &[SolveRequest]) -> Vec<usize> {
    use std::cmp::Reverse;
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    // `sort_by_key` is stable: jobs with equal keys keep first-job order.
    order.sort_by_key(|&i| match jobs[i].method {
        Method::Rsd | Method::Rr | Method::Rrl => {
            (0, Reverse(reqs[jobs[i].req_idx].model.generator().nnz()))
        }
        _ => (1, Reverse(0)),
    });
    order
}

impl Engine {
    /// An engine with default options and an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with explicit options.
    pub fn with_options(opts: EngineOptions) -> Self {
        Self::with_cache_config(opts, CacheConfig::unbounded())
    }

    /// An engine with explicit options and artifact-cache capacity limits
    /// (per-pool LRU eviction — the configuration a long-running service
    /// wants so the cache does not grow with every model it has ever seen).
    pub fn with_cache_config(opts: EngineOptions, cache_cfg: CacheConfig) -> Self {
        Engine {
            opts,
            cache: ArtifactCache::with_config(cache_cfg),
            pool: WorkerPool::global().clone(),
        }
    }

    /// The options in effect.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// The shared artifact cache (counters, manual clearing).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The worker pool sweep jobs and pooled SpMVs execute on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Dispatches one (facts, horizon) cell under `Auto`.
    ///
    /// Tiny `Λt` on a large sparse model goes to adaptive (active-set)
    /// randomization — numerically identical to SR, but each step touches
    /// only the reachable frontier; small `Λt` otherwise goes to SR; beyond
    /// that, irreducible chains go to RSD and absorbing ones to RRL.
    pub fn auto_method(&self, facts: &ChainFacts, t: f64) -> (Method, DispatchReason) {
        let lambda = self.lambda(facts);
        if t > 0.0 && lambda * t <= TINY_LAMBDA_T && facts.n_states >= ADAPTIVE_MIN_STATES {
            (Method::Adaptive, DispatchReason::TinyHorizonActiveSet)
        } else if lambda * t <= SMALL_LAMBDA_T {
            (Method::Sr, DispatchReason::SmallHorizon)
        } else if facts.irreducible {
            (Method::Rsd, DispatchReason::IrreducibleSteadyState)
        } else {
            (Method::Rrl, DispatchReason::StiffLargeHorizon)
        }
    }

    /// `Λ` of the uniformization the engine dispatches on and caps `Λt`
    /// with: the rule [`regenr_ctmc::Uniformized::new`] applies.
    fn lambda(&self, facts: &ChainFacts) -> f64 {
        uniformization_rate(facts.max_rate, self.opts.theta)
    }

    fn solve_config(&self, req: &SolveRequest) -> SolveConfig {
        SolveConfig {
            epsilon: req.epsilon,
            theta: self.opts.theta,
            regen_state: req.regen_state,
            inverter: self.opts.inverter,
            parallel: self.opts.parallel,
            dense_limit: self.opts.dense_oracle_max_states,
        }
    }

    /// Plans a request into method groups (validates fixed methods).
    fn plan(&self, req_idx: usize, req: &SolveRequest) -> Result<Vec<Job>, EngineError> {
        if req.horizons.is_empty() {
            return Err(EngineError::InvalidRequest(
                "request has no horizons".into(),
            ));
        }
        if !req.epsilon.is_finite() || req.epsilon <= 0.0 {
            return Err(EngineError::InvalidRequest(format!(
                "epsilon must be positive and finite, got {}",
                req.epsilon
            )));
        }
        // A bad θ would otherwise panic inside Uniformized::new on a sweep
        // worker thread; surface it as a request failure instead.
        if !self.opts.theta.is_finite() || self.opts.theta < 0.0 {
            return Err(EngineError::InvalidRequest(format!(
                "engine theta must be non-negative and finite, got {}",
                self.opts.theta
            )));
        }
        let fps = req.fps.unwrap_or_else(|| model_fps(&req.model));
        debug_assert!(
            req.fps.is_none_or(|f| f == model_fps(&req.model)),
            "SolveRequest::fps does not describe SolveRequest::model"
        );
        // A value of size `r_max` is stored only to within the f64 spacing
        // there, `r_max·2⁻⁵²`; a smaller ε cannot be met, and RRL would
        // report it as met.
        let r_max = req.model.max_reward();
        let epsilon_floor = r_max * f64::EPSILON;
        if req.epsilon < epsilon_floor {
            return Err(EngineError::InvalidRequest(format!(
                "epsilon {:e} is below the floor {epsilon_floor:e} \
                 (r_max = {r_max} times the f64 epsilon), which f64 cannot honour",
                req.epsilon
            )));
        }
        let facts = self.cache.facts_for(&fps, &req.model)?;
        let lambda = self.lambda(&facts);
        // SR, RSD and Adaptive hold one Poisson window per positive horizon
        // for the whole propagation. RSD's `δ = ε/(2·r_max)` is the smallest
        // of theirs, so these lengths bound each one's windows.
        let delta = (req.epsilon / (2.0 * r_max)).clamp(f64::MIN_POSITIVE, 0.5);
        let mut window_weights = 0.0;
        let mut jobs: Vec<Job> = Vec::new();
        for (slot, &t) in req.horizons.iter().enumerate() {
            if !t.is_finite() || t < 0.0 {
                return Err(EngineError::InvalidRequest(format!(
                    "horizon must be non-negative and finite, got {t}"
                )));
            }
            let lambda_t = lambda * t;
            if lambda_t > MAX_LAMBDA_T {
                return Err(EngineError::InvalidRequest(format!(
                    "horizon {t} gives Λt = {lambda_t:e}, above the limit {MAX_LAMBDA_T:e}"
                )));
            }
            if t > 0.0 {
                window_weights += PoissonWeights::len_bound(lambda_t, delta);
            }
            let (method, reason) = match req.method {
                MethodChoice::Fixed(m) => (m, DispatchReason::FixedByRequest),
                MethodChoice::Auto => self.auto_method(&facts, t),
            };
            match jobs.last_mut() {
                Some(job) if job.method == method => {
                    job.ts.push(t);
                    job.slots.push(slot);
                }
                _ => jobs.push(Job {
                    req_idx,
                    fps,
                    facts: facts.clone(),
                    method,
                    reason,
                    ts: vec![t],
                    slots: vec![slot],
                }),
            }
        }
        if window_weights > MAX_WINDOW_WEIGHTS {
            return Err(EngineError::InvalidRequest(format!(
                "{} horizons need Poisson windows of up to {window_weights:.3e} weights \
                 in total, above the limit {MAX_WINDOW_WEIGHTS:e}",
                req.horizons.len()
            )));
        }
        Ok(jobs)
    }

    /// Executes one planned job; returns reports in the job's slot order.
    /// `ws` is the executing worker's scratch arena, reused across the jobs
    /// it claims.
    fn run_job(
        &self,
        req: &SolveRequest,
        job: &Job,
        ws: &mut Workspace,
    ) -> Result<Vec<SolveReport>, EngineError> {
        // Test seam for the sweep's panic isolation: solver panics are rare
        // (they indicate bugs, not bad requests) and none is reachable
        // through a planned request, so tests inject one by name.
        #[cfg(test)]
        if req.name == "__panic_injection__" {
            panic!("injected solver panic (test seam)");
        }
        let ctmc: &Ctmc = &req.model;
        let fp = job.fps.full;
        let facts = &job.facts;
        let cfg = self.solve_config(req);
        // The ODE oracle never randomizes — don't build (or count) a
        // uniformization for it. The delta-aware lookup lets a rate
        // variant's miss rebind a structural donor's `Pᵀ` pattern.
        let (unif, unif_hit) = if job.method == Method::Ode {
            (None, false)
        } else {
            let (unif, hit) =
                self.cache
                    .uniformized_delta(job.fps.unif, job.fps.unif_structure, ctmc, cfg.theta);
            (Some(unif), hit)
        };
        // The kernel (and execution backend) the solver's stepper resolves
        // under this parallel config (cached on the uniformization — same
        // plan the solver uses). Adaptive propagates over its active set
        // row-by-row and never builds a stepper, so like the ODE oracle it
        // reports no kernel (and must not force a plan it would never use).
        let (kernel, backend) = match &unif {
            Some(u) if job.method != Method::Adaptive => {
                let stepper = u.stepper(&cfg.parallel);
                (stepper.kernel_kind().name(), stepper.backend().name())
            }
            _ => ("none", "none"),
        };
        let solver = build_solver(job.method, ctmc, facts, unif, &cfg)?;
        let lambda = self.lambda(facts);

        let t0 = Instant::now();
        // RR and RRL take their killed-chain parameters from the artifact
        // cache, linked to the uniformization they were constructed on, so
        // cost-aware eviction protects that parent; the stepping methods
        // hold no parameters.
        let mut params = CachedParams {
            cache: &self.cache,
            fps: job.fps,
            hit: false,
        };
        let solutions = solver.solve_many_from(req.measure, &job.ts, ws, &mut params)?;
        let per_cell = t0.elapsed() / job.ts.len().max(1) as u32;

        Ok(job
            .ts
            .iter()
            .zip(&solutions)
            .map(|(&t, sol)| SolveReport {
                model: req.name.clone(),
                fingerprint: fp,
                measure: req.measure,
                t,
                method: job.method,
                reason: job.reason,
                value: sol.value,
                steps: sol.steps,
                error_bound: sol.error_bound,
                abscissae: sol.abscissae,
                converged: sol.converged,
                lambda_t: lambda * t,
                kernel,
                backend,
                unif_cache_hit: unif_hit,
                params_cache_hit: params.hit,
                wall: per_cell,
                attempts: 1,
                recovered_via: None,
            })
            .collect())
    }

    /// Supervised execution of one job: run the planned method, health-check
    /// every solution, and on a panic, a solver error, or a health failure
    /// retry — first the same method up to the request's `max_retries`
    /// budget, then down the deterministic [`fallback_chain`]. Backoff
    /// between attempts is a short, bounded, deterministic sleep (failure
    /// causes that heal with time — a cache slot mid-rebuild, a transient
    /// pool stall — get room to do so without turning retries into a spin).
    fn run_supervised(
        &self,
        req: &SolveRequest,
        job: &Job,
        ws: &mut Workspace,
        counters: &RobustCounters,
    ) -> Result<Vec<SolveReport>, EngineError> {
        let mut attempts: u32 = 0;
        let mut last_err: Option<EngineError> = None;
        for (mi, method) in std::iter::once(job.method)
            .chain(fallback_chain(job.method).iter().copied())
            .enumerate()
        {
            let tries = if mi == 0 {
                1 + req.max_retries as u32
            } else {
                1
            };
            let fallback_job;
            let job_m: &Job = if method == job.method {
                job
            } else {
                fallback_job = job.with_method(method);
                &fallback_job
            };
            for _ in 0..tries {
                // Any attempt after the first is a retry.
                if attempts > 0 {
                    counters.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(u64::from(attempts.min(4))));
                }
                attempts += 1;
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.run_job(req, job_m, ws)
                }));
                let err = match outcome {
                    Err(payload) => {
                        // Nothing the unwound solver touched may reach the
                        // next occupant of this worker's arena.
                        ws.discard_all();
                        EngineError::JobPanicked(panic_message(&payload))
                    }
                    Ok(Err(e)) => e,
                    Ok(Ok(mut reports)) => match health_check(req, &reports) {
                        Err(why) => {
                            counters.health_failures.fetch_add(1, Ordering::Relaxed);
                            EngineError::Unhealthy(why)
                        }
                        Ok(()) => {
                            if attempts > 1 {
                                counters
                                    .recovered_cells
                                    .fetch_add(reports.len() as u64, Ordering::Relaxed);
                            }
                            if mi > 0 {
                                counters.fallbacks.fetch_add(1, Ordering::Relaxed);
                            }
                            for r in &mut reports {
                                r.attempts = attempts;
                                r.recovered_via = (mi > 0).then_some(method);
                            }
                            return Ok(reports);
                        }
                    },
                };
                // Only infrastructure failures (panics, injected faults,
                // corrupted solutions) are worth retrying; a model/request
                // error is deterministic and would only be masked by a
                // fallback silently answering a different question. On a
                // *fallback* method the same error just means this method
                // is ineligible for the model — move to the next one and
                // keep reporting the infrastructure cause.
                if !err.is_infrastructure() {
                    if mi == 0 {
                        return Err(err);
                    }
                    break;
                }
                last_err = Some(err);
            }
        }
        Err(last_err.expect("supervisor made at least one attempt"))
    }

    /// Solves one request (sequentially); reports follow the horizon order.
    pub fn solve(&self, req: &SolveRequest) -> Result<Vec<SolveReport>, EngineError> {
        let jobs = self.plan(0, req)?;
        let mut ws = Workspace::new();
        let mut slots: Vec<Option<SolveReport>> = vec![None; req.horizons.len()];
        for job in &jobs {
            let reports = self.run_job(req, job, &mut ws)?;
            for (slot, report) in job.slots.iter().zip(reports) {
                slots[*slot] = Some(report);
            }
        }
        Ok(slots
            .into_iter()
            .map(|r| r.expect("every slot solved"))
            .collect())
    }

    /// Runs a batch of requests, fanning the planned jobs out over sweep
    /// workers. Failures are collected per request; healthy requests still
    /// complete.
    ///
    /// Thread budget: at most [`EngineOptions::threads`] jobs run
    /// concurrently, as work on the shared pool; the jobs' inner pooled
    /// SpMVs publish into the same pool, where any idle worker steals
    /// their chunks. Every thread therefore stays busy whether the sweep
    /// is wider or narrower than the machine, and total concurrency never
    /// exceeds the pool size (`sweep workers × SpMV threads` cannot
    /// oversubscribe).
    pub fn sweep(&self, reqs: &[SolveRequest]) -> SweepReport {
        self.sweep_observed(reqs, &NoProgress)
    }

    /// [`Engine::sweep`] with an observer: `progress.on_reports` fires with
    /// each job's reports as the job completes (the serve layer streams
    /// them to clients), and `progress.cancelled()` is polled before every
    /// job claim so a deadline can stop the sweep cleanly mid-flight —
    /// completed cells stay in the report, skipped jobs are counted in
    /// [`SweepReport::cancelled_jobs`] instead of failing their requests.
    pub fn sweep_observed(
        &self,
        reqs: &[SolveRequest],
        progress: &dyn SweepProgress,
    ) -> SweepReport {
        let t0 = Instant::now();
        let pool_before = self.pool.stats();
        let mut jobs: Vec<Job> = Vec::new();
        let mut failures: Vec<SweepFailure> = Vec::new();
        for (req_idx, req) in reqs.iter().enumerate() {
            match self.plan(req_idx, req) {
                Ok(planned) => jobs.extend(planned),
                Err(e) => failures.push(SweepFailure {
                    model: req.name.clone(),
                    measure: req.measure,
                    error: e.to_string(),
                    infrastructure: e.is_infrastructure(),
                }),
            }
        }

        // Long-horizon jobs are claimed first (see `plan_units`).
        let order = plan_units(&jobs, reqs);
        let results: Vec<JobCell> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = effective_threads(self.opts.threads).min(jobs.len().max(1));
        let ws_totals: Mutex<WorkspaceStats> = Mutex::new(WorkspaceStats::default());

        // Every job runs under the supervisor: panics are caught (isolated
        // from the worker pool and from other jobs), every solution is
        // health-checked, and failing jobs retry down the method-fallback
        // chain before they are reported as that request's failure. The job
        // cells themselves are written only after the catch, so they can
        // never be poisoned by solver code. Each worker owns one workspace
        // for all the jobs it claims, so scratch vectors are reused across
        // jobs, not just across the horizons of one.
        let robust = RobustCounters::default();
        let run_worker = || {
            let mut ws = Workspace::new();
            loop {
                if progress.cancelled() {
                    break;
                }
                let u = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = order.get(u) else { break };
                let job = &jobs[i];
                let outcome = self.run_supervised(&reqs[job.req_idx], job, &mut ws, &robust);
                if let Ok(reports) = &outcome {
                    progress.on_reports(reports);
                }
                *crate::cache::lock(&results[i]) = Some(outcome);
            }
            crate::cache::lock(&ws_totals).merge(&ws.stats());
        };
        // Sweep-level execution: a single worker runs inline (the whole
        // pool stays available for the job's inner SpMVs); otherwise the
        // sweep jobs run *as* pool work. The pool's work stealing makes one
        // mode enough — there is no wide-sweep/narrow-sweep cliff anymore:
        // a sweep narrower than the machine leaves workers idle, and those
        // workers steal the jobs' inner SpMV chunks (each inner product
        // publishes into its own job slot instead of degrading to inline
        // execution), while a sweep as wide as the machine keeps every
        // worker on solver jobs and the inner products drain on their
        // submitters — `sweep workers × SpMV threads` still never
        // oversubscribes.
        let achieved_workers = if workers <= 1 {
            run_worker();
            1
        } else if self.pool.run(workers, |_| run_worker()) {
            workers.min(self.pool.threads())
        } else {
            // No free job slot (exceptionally deep nesting) or a
            // single-thread pool: every job ran inline on this thread.
            1
        };

        // Collect in (request, horizon) submission order.
        let mut per_req: Vec<Vec<Option<SolveReport>>> =
            reqs.iter().map(|r| vec![None; r.horizons.len()]).collect();
        let mut failed_reqs: Vec<Option<(String, bool)>> = vec![None; reqs.len()];
        let cancelled = progress.cancelled();
        let mut cancelled_jobs = 0usize;
        for (job, cell) in jobs.iter().zip(results) {
            match cell
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
            {
                Some(Ok(reports)) => {
                    for (slot, report) in job.slots.iter().zip(reports) {
                        per_req[job.req_idx][*slot] = Some(report);
                    }
                }
                Some(Err(e)) => {
                    failed_reqs[job.req_idx] = Some((e.to_string(), e.is_infrastructure()))
                }
                // An unexecuted job under cancellation is the deadline
                // doing its job — the request is partial, not failed. An
                // unexecuted job *without* cancellation is a scheduler bug
                // and must surface loudly.
                None if cancelled => cancelled_jobs += 1,
                // Not being executed at all is a scheduler fault, never a
                // model property.
                None => failed_reqs[job.req_idx] = Some(("job was not executed".into(), true)),
            }
        }
        let mut reports = Vec::new();
        for (req_idx, slots) in per_req.into_iter().enumerate() {
            if let Some((error, infrastructure)) = failed_reqs[req_idx].take() {
                failures.push(SweepFailure {
                    model: reqs[req_idx].name.clone(),
                    measure: reqs[req_idx].measure,
                    error,
                    infrastructure,
                });
                continue;
            }
            reports.extend(slots.into_iter().flatten());
        }

        SweepReport {
            reports,
            failures,
            cancelled_jobs,
            cache: self.cache.stats(),
            exec: ExecStats {
                simd_backend: regenr_sparse::simd::resolve(regenr_sparse::BackendChoice::Auto)
                    .name(),
                sweep_workers: achieved_workers,
                pool_threads: self.pool.threads(),
                pool: self.pool.stats().since(&pool_before),
                workspace: ws_totals
                    .into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            },
            robustness: robust.snapshot(),
            wall: t0.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regenr_models::two_state;

    fn repairable() -> Arc<Ctmc> {
        Arc::new(two_state::repairable_unit(1e-3, 1.0))
    }

    fn non_repairable() -> Arc<Ctmc> {
        Arc::new(two_state::non_repairable_unit(1e-3))
    }

    #[test]
    fn auto_picks_sr_for_small_horizons() {
        let engine = Engine::new();
        let reports = engine
            .solve(&SolveRequest::new("u", repairable(), vec![1.0, 10.0]))
            .unwrap();
        for r in &reports {
            assert_eq!(r.method, Method::Sr, "t={}", r.t);
            assert_eq!(r.reason, DispatchReason::SmallHorizon);
        }
    }

    /// A birth–death chain big enough to clear [`ADAPTIVE_MIN_STATES`].
    fn large_birth_chain(n: usize) -> Arc<Ctmc> {
        let mut rates = Vec::new();
        for i in 0..n - 1 {
            rates.push((i, i + 1, 1.0));
            rates.push((i + 1, i, 0.5));
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let rewards: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        Arc::new(Ctmc::from_rates(n, &rates, init, rewards).unwrap())
    }

    #[test]
    fn auto_picks_adaptive_for_tiny_horizons_on_large_models() {
        let engine = Engine::new();
        let model = large_birth_chain(2_500);
        // Λ = 1.5, t = 10 → Λt = 15 ≤ TINY_LAMBDA_T: the frontier stays
        // tiny compared to the 2 500 states.
        let reports = engine
            .solve(&SolveRequest::new("big", model.clone(), vec![10.0]).epsilon(1e-10))
            .unwrap();
        assert_eq!(reports[0].method, Method::Adaptive);
        assert_eq!(reports[0].reason, DispatchReason::TinyHorizonActiveSet);
        // Numerically the active-set method *is* SR.
        let sr = engine
            .solve(
                &SolveRequest::new("big_sr", model.clone(), vec![10.0])
                    .epsilon(1e-10)
                    .method(MethodChoice::Fixed(Method::Sr)),
            )
            .unwrap();
        assert!((reports[0].value - sr[0].value).abs() < 1e-12);
        // The same horizon on a small model still dispatches to SR, and a
        // larger horizon on the big model leaves the tiny-Λt regime.
        let small = engine
            .solve(&SolveRequest::new("small", repairable(), vec![10.0]))
            .unwrap();
        assert_eq!(small[0].method, Method::Sr);
        let deeper = engine
            .solve(&SolveRequest::new("big_t", model, vec![500.0]).epsilon(1e-10))
            .unwrap();
        assert_eq!(deeper[0].reason, DispatchReason::SmallHorizon);
    }

    /// RR killed-chain parameters are cached across requests — and because
    /// RR and RRL build identical sequences for the same `(r, ε, θ)`, each
    /// method warms the cache for the other.
    #[test]
    fn rr_params_cached_across_requests_and_shared_with_rrl() {
        let engine = Engine::new();
        let mk = |name: &str, method| {
            SolveRequest::new(name, repairable(), vec![50.0, 500.0])
                .epsilon(1e-10)
                .method(MethodChoice::Fixed(method))
        };
        let first = engine.solve(&mk("rr1", Method::Rr)).unwrap();
        assert!(first.iter().all(|r| !r.params_cache_hit));
        let second = engine.solve(&mk("rr2", Method::Rr)).unwrap();
        assert!(
            second.iter().all(|r| r.params_cache_hit),
            "second RR request must reuse the killed-chain parameters"
        );
        // RRL with the same (r, ε, θ) hits the entry RR built.
        let rrl = engine.solve(&mk("rrl", Method::Rrl)).unwrap();
        assert!(
            rrl.iter().all(|r| r.params_cache_hit),
            "RRL must reuse RR's cached parameters"
        );
        for (a, b) in first.iter().zip(&rrl) {
            assert!(
                (a.value - b.value).abs() < 1e-9,
                "t={}: rr {} vs rrl {}",
                a.t,
                a.value,
                b.value
            );
        }
        assert_eq!(engine.cache().stats().regen_params.entries, 1);
    }

    /// Fixed RR and RRL sweeps served from a warm parameter cache — one
    /// entry built for a larger horizon, sliced to each cell's depths —
    /// equal the solvers' own `solve_many_with`, bit for bit, on a chain
    /// with a primed chain and a `t = 0` cell.
    #[test]
    fn warm_params_cache_matches_the_solvers_own_grid() {
        use crate::solver::EngineSolution;
        use regenr_core::{RegenOptions, RrOptions, RrSolver, RrlOptions, RrlSolver};
        let chain = Arc::new(
            Ctmc::from_rates(
                4,
                &[
                    (0, 1, 0.2),
                    (1, 0, 2.0),
                    (1, 2, 0.5),
                    (2, 0, 1.0),
                    (2, 3, 0.05),
                ],
                vec![0.7, 0.3, 0.0, 0.0],
                vec![0.0, 0.5, 0.0, 1.0],
            )
            .unwrap(),
        );
        let eps = 1e-10;
        let ts = vec![0.0, 5.0, 500.0, 50.0];
        let engine = Engine::new();
        let warm = SolveRequest::new("warm", chain.clone(), vec![5000.0])
            .epsilon(eps)
            .method(MethodChoice::Fixed(Method::Rr));
        assert!(!engine.solve(&warm).unwrap()[0].params_cache_hit);

        let regen = RegenOptions {
            epsilon: eps,
            ..Default::default()
        };
        let rr = RrSolver::new(&chain, 0, RrOptions { regen }).unwrap();
        let rrl = RrlSolver::new(
            &chain,
            0,
            RrlOptions {
                regen,
                ..Default::default()
            },
        )
        .unwrap();
        let mut ws = Workspace::new();
        for measure in [MeasureKind::Trr, MeasureKind::Mrr] {
            for method in [Method::Rr, Method::Rrl] {
                let req = SolveRequest::new("grid", chain.clone(), ts.clone())
                    .epsilon(eps)
                    .measure(measure)
                    .method(MethodChoice::Fixed(method));
                let cells = engine.solve(&req).unwrap();
                let want: Vec<EngineSolution> = match method {
                    Method::Rr => rr
                        .solve_many_with(measure, &ts, &mut ws)
                        .unwrap()
                        .into_iter()
                        .map(Into::into)
                        .collect(),
                    _ => rrl
                        .solve_many_with(measure, &ts, &mut ws)
                        .unwrap()
                        .into_iter()
                        .map(Into::into)
                        .collect(),
                };
                for (cell, want) in cells.iter().zip(&want) {
                    let ctx = format!("{method} {measure:?} t={}", cell.t);
                    assert!(cell.params_cache_hit, "{ctx}: served from the cache");
                    assert_eq!(cell.value.to_bits(), want.value.to_bits(), "{ctx}");
                    assert_eq!(cell.steps, want.steps, "{ctx}");
                    assert_eq!(
                        cell.error_bound.to_bits(),
                        want.error_bound.to_bits(),
                        "{ctx}"
                    );
                    assert_eq!(cell.abscissae, want.abscissae, "{ctx}");
                    assert_eq!(cell.converged, want.converged, "{ctx}");
                }
                assert!(
                    want[1].steps > 0 && want[1].steps < want[2].steps,
                    "{method}: sliced"
                );
            }
        }
        assert_eq!(engine.cache().stats().regen_params.entries, 1);
    }

    #[test]
    fn auto_picks_rsd_for_irreducible_large_horizons() {
        let engine = Engine::new();
        let reports = engine
            .solve(&SolveRequest::new("u", repairable(), vec![1e6]))
            .unwrap();
        assert_eq!(reports[0].method, Method::Rsd);
        assert_eq!(reports[0].reason, DispatchReason::IrreducibleSteadyState);
        let exact = 1e-3 / 1.001;
        assert!((reports[0].value - exact).abs() < 1e-9);
    }

    #[test]
    fn auto_picks_rrl_for_absorbing_large_horizons() {
        let engine = Engine::new();
        // Λ = 1e-3, so t must be huge for Λt to pass the SR threshold.
        let t = 4e6;
        let reports = engine
            .solve(&SolveRequest::new("u", non_repairable(), vec![t]).epsilon(1e-10))
            .unwrap();
        assert_eq!(reports[0].method, Method::Rrl);
        assert_eq!(reports[0].reason, DispatchReason::StiffLargeHorizon);
        let exact = 1.0 - (-1e-3 * t).exp();
        assert!(
            (reports[0].value - exact).abs() < 1e-8,
            "{} vs {exact}",
            reports[0].value
        );
    }

    #[test]
    fn fixed_rsd_on_absorbing_chain_is_rejected() {
        let engine = Engine::new();
        let req = SolveRequest::new("u", non_repairable(), vec![1.0])
            .method(MethodChoice::Fixed(Method::Rsd));
        match engine.solve(&req) {
            Err(EngineError::Unsupported { method, .. }) => assert_eq!(method, Method::Rsd),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    /// An ε below `r_max·2⁻⁵²` cannot be honoured in f64: on RAID G = 2 UR
    /// at t = 10⁵ h, RRL read 0 at ε = 1e-300 and reported the cell
    /// converged. The plan refuses such an ε and names the floor; a chain
    /// with no reward has no floor.
    #[test]
    fn epsilon_below_the_f64_floor_is_refused() {
        let spec = crate::SweepSpec::parse(
            r#"{"epsilon":1e-300,"method":"rrl","horizons":[100000],
                "models":[{"kind":"raid","g":2,"absorbing":true}]}"#,
        )
        .unwrap();
        let report = Engine::new().sweep(&spec.requests);
        assert!(report.reports.is_empty());
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert!(
            failure
                .error
                .contains("below the floor 2.220446049250313e-16"),
            "{}",
            failure.error
        );
        assert!(!failure.infrastructure);

        let engine = Engine::new();
        let at_floor = SolveRequest::new("u", repairable(), vec![1.0]).epsilon(f64::EPSILON);
        assert!(engine.solve(&at_floor).is_ok());
        let no_reward = Arc::new(
            Ctmc::from_rates(
                2,
                &[(0, 1, 1e-3), (1, 0, 1.0)],
                vec![1.0, 0.0],
                vec![0.0; 2],
            )
            .unwrap(),
        );
        let req = SolveRequest::new("zero", no_reward, vec![1.0]).epsilon(1e-300);
        assert_eq!(engine.solve(&req).unwrap()[0].value, 0.0);
    }

    #[test]
    fn fixed_methods_agree_on_the_same_cell() {
        let engine = Engine::new();
        let t = 50.0;
        let mut values = Vec::new();
        for m in [
            Method::Sr,
            Method::Adaptive,
            Method::Ode,
            Method::Rr,
            Method::Rrl,
        ] {
            let req = SolveRequest::new("u", repairable(), vec![t])
                .epsilon(1e-10)
                .method(MethodChoice::Fixed(m));
            values.push((m, engine.solve(&req).unwrap()[0].value));
        }
        let reference = values[0].1;
        for (m, v) in values {
            assert!((v - reference).abs() < 1e-8, "{m}: {v} vs {reference}");
        }
    }

    #[test]
    fn mrr_flows_through_dispatch() {
        let engine = Engine::new();
        let t = 1e5;
        let req = SolveRequest::new("u", repairable(), vec![t])
            .measure(MeasureKind::Mrr)
            .epsilon(1e-10);
        let reports = engine.solve(&req).unwrap();
        assert_eq!(reports[0].method, Method::Rsd);
        let want = two_state::interval_unavailability(1e-3, 1.0, t);
        assert!((reports[0].value - want).abs() < 1e-8);
    }

    #[test]
    fn repeated_requests_hit_the_uniformization_cache() {
        let engine = Engine::new();
        let model = repairable();
        let req = SolveRequest::new("u", model.clone(), vec![1.0, 1e6]);
        let first = engine.solve(&req).unwrap();
        assert!(first.iter().any(|r| !r.unif_cache_hit));
        // An independently *rebuilt* model with identical structure still
        // hits: the key is the fingerprint, not the allocation.
        let again = SolveRequest::new("u2", repairable(), vec![1.0, 1e6]);
        let second = engine.solve(&again).unwrap();
        assert!(
            second.iter().all(|r| r.unif_cache_hit),
            "second request must reuse the uniformization"
        );
        assert!(engine.cache().stats().uniformized.hits >= 2);
    }

    #[test]
    fn sweep_collects_failures_without_poisoning_good_requests() {
        let engine = Engine::new();
        let good = SolveRequest::new("good", repairable(), vec![1.0]);
        let bad = SolveRequest::new("bad", non_repairable(), vec![1.0])
            .method(MethodChoice::Fixed(Method::Rsd));
        let empty = SolveRequest::new("empty", repairable(), vec![]);
        let report = engine.sweep(&[good, bad, empty]);
        assert_eq!(report.reports.len(), 1);
        assert_eq!(report.reports[0].model, "good");
        assert_eq!(report.failures.len(), 2);
    }

    #[test]
    fn sweep_parallel_matches_sequential() {
        let mk = |threads| {
            Engine::with_options(EngineOptions {
                threads,
                ..Default::default()
            })
        };
        let reqs: Vec<SolveRequest> = (1..5)
            .map(|i| {
                SolveRequest::new(
                    format!("m{i}"),
                    Arc::new(two_state::repairable_unit(1e-3 * i as f64, 1.0)),
                    vec![1.0, 100.0, 1e5],
                )
                .epsilon(1e-10)
            })
            .collect();
        let seq = mk(1).sweep(&reqs);
        let par = mk(4).sweep(&reqs);
        assert!(seq.failures.is_empty() && par.failures.is_empty());
        assert_eq!(seq.reports.len(), par.reports.len());
        for (a, b) in seq.reports.iter().zip(&par.reports) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.t, b.t);
            assert_eq!(a.method, b.method);
            assert_eq!(a.value, b.value, "parallel sweep must be deterministic");
        }
    }

    /// Claim order: RSD/RR/RRL jobs first by descending generator nnz, ties
    /// and every other job in first-job order.
    #[test]
    fn plan_units_claims_long_horizon_singles_first_by_nnz() {
        let small = large_birth_chain(10);
        let mid = large_birth_chain(20);
        let big = large_birth_chain(30);
        let small_rewarded = Arc::new(small.with_rewards(vec![1.0; 10]).unwrap());
        let fixed = |name: &str, model: &Arc<Ctmc>, method| {
            SolveRequest::new(name, model.clone(), vec![10.0, 100.0])
                .epsilon(1e-10)
                .method(MethodChoice::Fixed(method))
        };
        let reqs = [
            fixed("sr_a", &small, Method::Sr),
            fixed("adaptive", &mid, Method::Adaptive),
            fixed("rsd_small", &small, Method::Rsd),
            fixed("rr_big", &big, Method::Rr),
            fixed("rrl_mid", &mid, Method::Rrl),
            fixed("sr_b", &small_rewarded, Method::Sr),
            fixed("rsd_small_again", &small_rewarded, Method::Rsd),
            fixed("ode", &small, Method::Ode),
        ];
        let engine = Engine::new();
        let jobs: Vec<Job> = reqs
            .iter()
            .enumerate()
            .flat_map(|(i, req)| engine.plan(i, req).unwrap())
            .collect();
        // Fixed methods: one job per request, so job index = request index.
        assert_eq!(jobs.len(), reqs.len());
        assert_eq!(plan_units(&jobs, &reqs), [3, 4, 2, 6, 0, 1, 5, 7]);
    }

    /// Regression (PR 2): a panicking solver job used to unwind through the
    /// scoped worker pool and abort the entire sweep (poisoning its result
    /// mutexes on the way). It must instead surface as that request's
    /// failure while every other request completes.
    #[test]
    fn sweep_isolates_a_panicking_job() {
        for threads in [1, 4] {
            let engine = Engine::with_options(EngineOptions {
                threads,
                ..Default::default()
            });
            let good_a = SolveRequest::new("good_a", repairable(), vec![1.0, 10.0]);
            let boom = SolveRequest::new("__panic_injection__", repairable(), vec![1.0]);
            let good_b = SolveRequest::new("good_b", non_repairable(), vec![1.0]);
            let report = engine.sweep(&[good_a, boom, good_b]);
            assert_eq!(report.reports.len(), 3, "threads={threads}");
            assert!(report.reports.iter().all(|r| r.model.starts_with("good")));
            assert_eq!(report.failures.len(), 1);
            assert!(
                report.failures[0].error.contains("panicked"),
                "failure must carry the panic: {}",
                report.failures[0].error
            );
            // The engine (and its cache) stay usable after the panic.
            let again = engine.sweep(&[SolveRequest::new("again", repairable(), vec![1.0])]);
            assert!(again.failures.is_empty());
            assert_eq!(again.reports.len(), 1);
        }
    }

    /// With capacity limits the pools obey their caps while the sweep still
    /// produces correct values and warm repeats still hit.
    #[test]
    fn bounded_cache_respects_caps_during_sweeps() {
        let cap = 3;
        let engine = Engine::with_cache_config(
            EngineOptions::default(),
            crate::cache::CacheConfig::with_max_entries(cap),
        );
        let reqs: Vec<SolveRequest> = (1..=8)
            .map(|i| {
                SolveRequest::new(
                    format!("m{i}"),
                    Arc::new(two_state::repairable_unit(1e-3 * i as f64, 1.0)),
                    vec![1.0, 100.0],
                )
                .epsilon(1e-10)
            })
            .collect();
        let report = engine.sweep(&reqs);
        assert!(report.failures.is_empty());
        let stats = engine.cache().stats();
        assert!(stats.uniformized.entries <= cap);
        assert!(stats.structure.entries <= cap);
        assert!(stats.uniformized.evictions > 0, "8 models through cap 3");
        for r in &report.reports {
            let (l, m) = (1e-3 * r.model[1..].parse::<f64>().unwrap(), 1.0);
            let exact = l / (l + m) * (1.0 - (-(l + m) * r.t).exp());
            assert!((r.value - exact).abs() < 1e-8, "{} t={}", r.model, r.t);
        }
    }

    #[test]
    fn sweep_reports_execution_stats_with_workspace_reuse() {
        let engine = Engine::with_options(EngineOptions {
            threads: 1,
            ..Default::default()
        });
        let reqs: Vec<SolveRequest> = (1..4)
            .map(|i| {
                SolveRequest::new(
                    format!("m{i}"),
                    Arc::new(two_state::repairable_unit(1e-3 * i as f64, 1.0)),
                    vec![1.0, 10.0, 100.0],
                )
                .epsilon(1e-10)
            })
            .collect();
        let report = engine.sweep(&reqs);
        assert!(report.failures.is_empty());
        let exec = report.exec;
        assert_eq!(exec.sweep_workers, 1);
        assert!(exec.pool_threads >= 1);
        assert!(exec.workspace.takes > 0, "solvers must draw scratch");
        assert!(
            exec.workspace.reused > 0,
            "one worker over three same-sized jobs must reuse scratch: {:?}",
            exec.workspace
        );
        assert_eq!(
            exec.workspace.takes,
            exec.workspace.fresh_allocs + exec.workspace.reused
        );
    }

    /// The per-cell kernel reflects what the solver's stepper actually
    /// runs: stepping methods report the loop their plan selected — generic
    /// on a small chain, shortrow on one above the threshold — and Adaptive
    /// and the ODE oracle never build a stepper and report `"none"`.
    #[test]
    fn reported_kernel_tracks_solver_stepping() {
        let engine = Engine::new();
        // SR and RSD cells step through the uniformization.
        let reports = engine
            .solve(&SolveRequest::new("u", repairable(), vec![1.0, 1e6]))
            .unwrap();
        assert_eq!(reports[0].method, Method::Sr);
        assert_eq!(reports[0].kernel, "generic");
        assert_eq!(reports[1].method, Method::Rsd);
        assert_eq!(reports[1].kernel, "generic");
        // A stepping cell reports the scalar backend.
        assert_eq!(reports[0].backend, "scalar");
        // Pᵀ of the 2,500-state chain stores 7,498 entries: shortrow.
        // Λt = 150 is past the active-set regime, so SR steps it.
        let big = engine
            .solve(&SolveRequest::new("big", large_birth_chain(2_500), vec![100.0]).epsilon(1e-10))
            .unwrap();
        assert_eq!(big[0].method, Method::Sr);
        assert_eq!(big[0].kernel, "shortrow");
        // Adaptive (active-set, no stepper) and ODE report no kernel.
        let adaptive = engine
            .solve(&SolveRequest::new("big", large_birth_chain(2_500), vec![10.0]).epsilon(1e-10))
            .unwrap();
        assert_eq!(adaptive[0].method, Method::Adaptive);
        assert_eq!(adaptive[0].kernel, "none");
        assert_eq!(adaptive[0].backend, "none");
        let ode = engine
            .solve(
                &SolveRequest::new("u", repairable(), vec![1.0])
                    .method(MethodChoice::Fixed(Method::Ode)),
            )
            .unwrap();
        assert_eq!(ode[0].kernel, "none");
        assert_eq!(ode[0].backend, "none");
    }

    /// `sweep_observed` must (a) hand every job's reports to the observer
    /// as jobs finish, and (b) stop claiming jobs once `cancelled()` turns
    /// true — skipped jobs count as `cancelled_jobs`, not failures, and the
    /// completed cells stay in the report.
    #[test]
    fn observed_sweep_streams_jobs_and_cancels_cleanly() {
        struct Tap {
            cells: AtomicUsize,
            cancel_after: usize,
        }
        impl SweepProgress for Tap {
            fn cancelled(&self) -> bool {
                self.cells.load(Ordering::SeqCst) >= self.cancel_after
            }
            fn on_reports(&self, reports: &[SolveReport]) {
                self.cells.fetch_add(reports.len(), Ordering::SeqCst);
            }
        }
        let engine = Engine::with_options(EngineOptions {
            threads: 1,
            ..Default::default()
        });
        let reqs: Vec<SolveRequest> = (1..=4)
            .map(|i| {
                SolveRequest::new(
                    format!("m{i}"),
                    Arc::new(two_state::repairable_unit(1e-3 * i as f64, 1.0)),
                    vec![1.0],
                )
            })
            .collect();
        // Observer that never cancels: sees every cell, nothing skipped.
        let tap = Tap {
            cells: AtomicUsize::new(0),
            cancel_after: usize::MAX,
        };
        let full = engine.sweep_observed(&reqs, &tap);
        assert!(full.failures.is_empty());
        assert_eq!(full.cancelled_jobs, 0);
        assert_eq!(full.reports.len(), 4);
        assert_eq!(tap.cells.load(Ordering::SeqCst), 4);
        // Cancel after the first cell lands: with one worker the remaining
        // jobs are skipped cleanly — partial reports, zero failures.
        let tap = Tap {
            cells: AtomicUsize::new(0),
            cancel_after: 1,
        };
        let partial = engine.sweep_observed(&reqs, &tap);
        assert!(
            partial.failures.is_empty(),
            "cancellation must not masquerade as failure: {:?}",
            partial.failures
        );
        assert_eq!(partial.reports.len(), 1);
        assert_eq!(partial.cancelled_jobs, 3);
        // Cancelled before anything ran: all jobs skipped.
        let tap = Tap {
            cells: AtomicUsize::new(0),
            cancel_after: 0,
        };
        let none = engine.sweep_observed(&reqs, &tap);
        assert!(none.reports.is_empty() && none.failures.is_empty());
        assert_eq!(none.cancelled_jobs, 4);
    }

    #[test]
    fn zero_horizon_reports_initial_reward() {
        let engine = Engine::new();
        let reports = engine
            .solve(&SolveRequest::new("u", repairable(), vec![0.0]))
            .unwrap();
        assert_eq!(reports[0].value, 0.0);
        assert_eq!(reports[0].steps, 0);
    }

    /// Panic payloads are bug/attacker-controlled strings that land in
    /// failure reports and NDJSON streams — the extractor must bound them
    /// to [`MAX_PANIC_MESSAGE_BYTES`] without splitting a character.
    #[test]
    fn panic_messages_are_bounded_on_char_boundaries() {
        fn extract(payload: impl std::any::Any + Send) -> String {
            let boxed: Box<dyn std::any::Any + Send> = Box::new(payload);
            panic_message(boxed.as_ref())
        }

        let short = extract("solver exploded");
        assert_eq!(short, "solver exploded");
        assert_eq!(extract(String::from("owned")), "owned");
        assert_eq!(extract(42_i32), "non-string panic payload");

        let long = extract("x".repeat(2_000));
        assert!(
            long.len() < MAX_PANIC_MESSAGE_BYTES + 64,
            "{} bytes leaked through the bound",
            long.len()
        );
        assert!(long.ends_with("[truncated 1488 bytes]"), "{long}");

        // 3-byte chars: 512 is not a boundary (512 % 3 == 2), so the cut
        // must back off rather than split the ellipsis mid-sequence.
        let multi = extract("…".repeat(200));
        assert!(multi.ends_with("[truncated 90 bytes]"), "{multi}");
        assert!(multi.starts_with('…'));
    }
}

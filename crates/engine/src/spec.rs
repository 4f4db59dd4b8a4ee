//! JSON sweep specs and JSON reports for the `regenr` CLI.
//!
//! A spec is one object with engine-wide settings plus a model list; every
//! setting can be overridden per model. Example:
//!
//! ```json
//! {
//!   "epsilon": 1e-12,
//!   "method": "auto",
//!   "threads": 4,
//!   "cache": { "max_entries": 64, "max_bytes": 268435456 },
//!   "horizons": [1, 10, 100, 1000, 10000, 100000],
//!   "measures": ["trr"],
//!   "models": [
//!     { "kind": "raid", "g": 20 },
//!     { "kind": "raid", "g": 20, "absorbing": true },
//!     { "kind": "two_state", "lambda": 1e-3, "mu": 1.0 },
//!     { "kind": "cyclic", "n": 5, "horizons": [0.5, 5] },
//!     { "kind": "duplex", "lambda": 0.01, "mu": 1.0, "coverage": 0.95 },
//!     { "kind": "machines", "machines": 16, "repairmen": 2,
//!       "lambda": 0.02, "mu": 1.0, "measures": ["trr", "mrr"] },
//!     { "kind": "multiproc", "n_proc": 4, "n_mem": 3, "lambda_p": 1e-4,
//!       "lambda_m": 5e-5, "coverage": 0.98, "mu": 1.0, "delta": 6.0 },
//!     { "kind": "compose", "crews": 2, "reward": "capacity",
//!       "components": [
//!         { "name": "web", "count": 4, "lambda": 0.01, "mu": 1.0,
//!           "coverage": 0.99, "required": 1 },
//!         { "name": "db", "count": 2, "lambda": 0.005, "mu": 0.5,
//!           "required": 1, "deps": [
//!             { "on": "web", "min_working": 1, "factor": 2.0 } ] } ] },
//!     { "kind": "inline", "name": "custom",
//!       "rates": [[0, 1, 0.001], [1, 0, 1.0]],
//!       "rewards": [0, 1] }
//!   ]
//! }
//! ```
//!
//! Inline models describe the rate matrix directly: `"rates"` is a list of
//! `[from, to, rate]` triples, `"rewards"` the per-state reward rates, and
//! the optional `"initial"` distribution defaults to all mass on state 0
//! (`"n"` overrides the inferred state count). This covers chains no named
//! generator produces, without touching the CLI.
//!
//! Compose models are declarative component systems (see
//! `regenr_models::compose`): each component class has a `"count"`, a
//! per-unit failure rate `"lambda"`, a per-crew repair rate `"mu"`
//! (default 0 = no repair), a `"coverage"` probability (default 1),
//! a `"required"` minimum of working units for the system to be up
//! (default 0), and optional `"deps"` rules multiplying the failure rate by
//! `"factor"` while class `"on"` has fewer than `"min_working"` working
//! units. Model-level knobs: `"crews"` (repair crews, assigned in
//! name-sorted class order; default 1), `"uncovered"` (`"absorbing"` or
//! `{"reboot": rate}`; default absorbing), `"down_absorbing"` (lump every
//! system-down transition into the absorbing state; default false),
//! `"reward"` (`"down"`, `"up"`, `"capacity"` or `{"working": "class"}`;
//! default `"down"`), and `"max_states"` (exploration cap; exceeding it is
//! a spec error, default and largest accepted value 5,000,000, the limit
//! every other kind explores under). Components are sorted by name before
//! compilation, so permuted listings produce the identical chain — same
//! fingerprint, same artifact-cache key, same `--stable` report. Like every
//! other named kind, the chain is built by `CtmcBuilder::explore`, which
//! streams each transition into the sparse builder as it is found and
//! keeps no state table or triplet buffer.
//!
//! The `duplex`, `machines` and `multiproc` kinds are canned compositions:
//! each validates its own keys, then builds through its preset
//! (`ComposeModel::duplex`, `::machines`, `::multiproc`) under the same
//! state cap. A unit count of 0 (`"machines"`, `"n_proc"`, `"n_mem"`) is a
//! spec error naming the field, as are zero failure rates and, once a
//! covered failure can degrade the system, a zero repair rate.
//!
//! Any model object may carry a first-class `"sensitivity"` sweep form:
//!
//! ```json
//! { "kind": "raid", "g": 20,
//!   "sensitivity": { "param": "lambda_d", "grid": [0.5, 1, 2, 4] } }
//! ```
//!
//! expands into one model instance per grid point with the named rate
//! multiplied by the factor, requested as `{name}@{param}={factor}` (e.g.
//! `raid_g20_ua@lambda_d=0.5`; a factor whose `Display` form is longer
//! than 24 characters prints in exponent form, `1e-321`). Grid factors
//! must be positive and finite: scaling a rate by a positive factor never
//! changes which transitions exist, so every instance shares the base
//! model's **structural** fingerprint by construction. On the
//! explorer-built kinds (`raid`,
//! `compose` and its `duplex`, `machines` and `multiproc` presets) the grid
//! therefore explores its state space once: the first point's
//! `CtmcBuilder::explore_grid` keeps the state table, each transition's
//! target and its COO sort, and every later point is replayed over them
//! (`regenr_ctmc::Replay`) into the chain its own exploration would build,
//! bit for bit, over the first point's generator pattern (one shared
//! allocation). A point whose rates underflow or overflow so that its
//! transitions differ is explored on its own, so it fails or solves exactly
//! as a one-point grid would. Downstream, the engine's artifact graph
//! re-binds the cached `Pᵀ` pattern and chain facts across the grid instead
//! of rebuilding them, and every rebound `Pᵀ` shares the first one's
//! pattern (see `crate::cache`). Scalable parameters
//! per kind — probabilities like `p_r` and `coverage` are deliberately not
//! scalable: `raid` → `lambda_d`, `lambda_s`, `lambda_c`, `mu_drc`,
//! `mu_drp`, `mu_crp`, `mu_sr`, `mu_g`; `two_state`/`duplex`/`machines` →
//! `lambda`, `mu`; `multiproc` → `lambda_p`, `lambda_m`, `mu`, `delta`;
//! `compose` → `lambda`, `mu` (applied to every class via the models
//! crate's scaling hook); `inline` → `rate` (scales every transition).
//! Unknown keys inside the `"sensitivity"` object are rejected by name,
//! like everywhere else in a spec.
//!
//! Within a model object, unknown keys are rejected by name just like
//! top-level keys: `{"kind": "duplex", "coverge": 0.9}` names the typo and
//! lists the keys the kind accepts.
//!
//! Unknown top-level keys are rejected by name (a typo like `"thetta"`
//! must be an error, not a silently ignored knob). One key exists for the
//! `regenr serve` subsystem and is ignored by the offline CLI:
//! `"deadline_ms"` (per-request deadline; the server cancels the sweep
//! cleanly when it expires).

use crate::cache::CacheConfig;
use crate::engine::{
    EngineOptions, MethodChoice, SolveReport, SolveRequest, SweepFailure, SweepReport,
};
use crate::json::Json;
use crate::method::Method;
use regenr_ctmc::{Ctmc, CtmcBuilder, CtmcError, ModelSpec, Replay};
use regenr_models::{
    compose::{
        ComponentClass, ComposeError, ComposeModel, ComposeState, RewardKind, UncoveredPolicy,
    },
    multiproc::MultiprocParams,
    RaidModel, RaidParams, RaidState,
};
use regenr_transient::MeasureKind;
use std::sync::Arc;

/// A parsed sweep spec: engine options plus the request grid.
pub struct SweepSpec {
    /// Engine-wide options from the spec.
    pub options: EngineOptions,
    /// Artifact-cache capacity limits (`"cache": {"max_entries", "max_bytes"}`;
    /// unbounded when absent).
    pub cache: CacheConfig,
    /// One request per (model, measure) pair.
    pub requests: Vec<SolveRequest>,
    /// Per-request deadline in milliseconds (`"deadline_ms"`). Honored by
    /// `regenr serve`: the sweep is cancelled cleanly once it expires —
    /// cells already streamed stay valid and the final record reports
    /// `"status":"deadline"`. The offline CLI ignores it.
    pub deadline_ms: Option<u64>,
}

/// Every key a spec may carry at the top level. `SweepSpec::from_json`
/// rejects anything else by name, so a typo like `"thetta"` is a parse
/// error (HTTP 400 through the server) instead of a silently-ignored knob
/// running a wrong-config sweep.
const KNOWN_SPEC_KEYS: &[&str] = &[
    "epsilon",
    "method",
    "threads",
    "cache",
    "horizons",
    "measures",
    "models",
    "theta",
    "deadline_ms",
];

fn measure_name(m: MeasureKind) -> &'static str {
    match m {
        MeasureKind::Trr => "trr",
        MeasureKind::Mrr => "mrr",
    }
}

fn parse_measure(s: &str) -> Result<MeasureKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "trr" => Ok(MeasureKind::Trr),
        "mrr" => Ok(MeasureKind::Mrr),
        other => Err(format!("unknown measure {other:?} (expected trr or mrr)")),
    }
}

fn parse_method_choice(s: &str) -> Result<MethodChoice, String> {
    if s.eq_ignore_ascii_case("auto") {
        Ok(MethodChoice::Auto)
    } else {
        s.parse::<Method>().map(MethodChoice::Fixed)
    }
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a string")),
    }
}

fn get_f64(obj: &Json, key: &str) -> Result<Option<f64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a number")),
    }
}

fn get_u32(obj: &Json, key: &str) -> Result<Option<u32>, String> {
    match get_f64(obj, key)? {
        None => Ok(None),
        Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= u32::MAX as f64 => Ok(Some(x as u32)),
        Some(x) => Err(format!(
            "field {key:?} must be a non-negative integer, got {x}"
        )),
    }
}

/// Reads an optional non-negative integer that may exceed `u32` (durations
/// in milliseconds).
fn get_ms(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match get_f64(obj, key)? {
        None => Ok(None),
        Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Ok(Some(x as u64)),
        Some(x) => Err(format!(
            "field {key:?} must be a non-negative integer (milliseconds), got {x}"
        )),
    }
}

fn get_bool(obj: &Json, key: &str) -> Result<Option<bool>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a boolean")),
    }
}

/// `ε` keys artifact-cache entries and divides error budgets, so a
/// non-finite or non-positive value is a spec error, not something to let
/// degenerate into NaN-keyed cache entries or panics deep in a solver.
fn get_epsilon(obj: &Json) -> Result<Option<f64>, String> {
    match get_f64(obj, "epsilon")? {
        None => Ok(None),
        Some(x) if x.is_finite() && x > 0.0 => Ok(Some(x)),
        Some(x) => Err(format!(
            "field \"epsilon\" must be a positive finite number, got {x}"
        )),
    }
}

fn get_cache_config(doc: &Json) -> Result<CacheConfig, String> {
    let obj = match doc.get("cache") {
        None | Some(Json::Null) => return Ok(CacheConfig::unbounded()),
        Some(v @ Json::Obj(_)) => v,
        // A mistyped "cache" (e.g. a bare number) must not silently mean
        // "unbounded" — the caller thinks they capped the cache.
        Some(v) => {
            return Err(format!(
                "field \"cache\" must be an object like \
                 {{\"max_entries\": 64, \"max_bytes\": 268435456}}, got {v}"
            ))
        }
    };
    // 0 is a valid cap: retain nothing, every build is cold. The CI
    // determinism check relies on it to compare delta-warm sweeps against
    // genuinely cold ones through the CLI alone.
    let cap = |key: &str| -> Result<Option<usize>, String> {
        match get_f64(obj, key)? {
            None => Ok(None),
            Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Ok(Some(x as usize)),
            Some(x) => Err(format!(
                "field \"cache.{key}\" must be a non-negative integer, got {x}"
            )),
        }
    };
    Ok(CacheConfig {
        max_entries: cap("max_entries")?,
        max_bytes: cap("max_bytes")?,
    })
}

fn get_horizons(obj: &Json) -> Result<Option<Vec<f64>>, String> {
    match obj.get("horizons") {
        None => Ok(None),
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| "field \"horizons\" must be an array".to_string())?;
            items
                .iter()
                .map(|x| {
                    x.as_f64()
                        .filter(|t| *t >= 0.0)
                        .ok_or_else(|| "horizons must be non-negative numbers".to_string())
                })
                .collect::<Result<Vec<f64>, String>>()
                .map(Some)
        }
    }
}

fn get_measures(obj: &Json) -> Result<Option<Vec<MeasureKind>>, String> {
    match obj.get("measures") {
        None => Ok(None),
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| "field \"measures\" must be an array".to_string())?;
            items
                .iter()
                .map(|x| {
                    x.as_str()
                        .ok_or_else(|| "measures must be strings".to_string())
                        .and_then(parse_measure)
                })
                .collect::<Result<Vec<MeasureKind>, String>>()
                .map(Some)
        }
    }
}

/// Reads an optional array of numbers (e.g. `"rewards"`, `"initial"`).
fn get_f64_array(obj: &Json, key: &str) -> Result<Option<Vec<f64>>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| format!("field {key:?} must be an array of numbers"))?;
            items
                .iter()
                .map(|x| {
                    x.as_f64()
                        .filter(|f| f.is_finite())
                        .ok_or_else(|| format!("field {key:?} must contain finite numbers"))
                })
                .collect::<Result<Vec<f64>, String>>()
                .map(Some)
        }
    }
}

/// Keys every model object may carry regardless of kind (the per-model
/// overrides read by `SweepSpec::from_json`).
const COMMON_MODEL_KEYS: &[&str] = &[
    "kind",
    "name",
    "horizons",
    "epsilon",
    "method",
    "measures",
    "regen_state",
    "sensitivity",
];

/// Parses a model's `"sensitivity"` sweep form —
/// `{"param": "lambda_d", "grid": [0.5, 1, 2]}` — into the parameter name
/// and the validated factor grid. Factors are *multipliers on the base
/// rate*; they must be positive and finite so scaling never changes which
/// transitions exist (that is what guarantees every grid point shares the
/// base model's structural fingerprint).
fn parse_sensitivity(obj: &Json) -> Result<Option<(String, Vec<f64>)>, String> {
    let v = match obj.get("sensitivity") {
        None | Some(Json::Null) => return Ok(None),
        Some(v) => v,
    };
    reject_unknown_keys(v, "\"sensitivity\"", &[&["param", "grid"]])?;
    let param = v.get("param").and_then(Json::as_str).ok_or_else(|| {
        "\"sensitivity\" needs a string \"param\" (the rate to scale)".to_string()
    })?;
    let grid = v
        .get("grid")
        .and_then(Json::as_arr)
        .ok_or_else(|| "\"sensitivity\" needs a \"grid\" array of scale factors".to_string())?;
    if grid.is_empty() {
        return Err("\"sensitivity\" grid must not be empty".to_string());
    }
    let factors = grid
        .iter()
        .map(|x| {
            x.as_f64()
                .filter(|f| f.is_finite() && *f > 0.0)
                .ok_or_else(|| {
                    format!(
                        "\"sensitivity\" grid factors must be positive finite numbers \
                     (multipliers on the base rate), got {x}"
                    )
                })
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(Some((param.to_string(), factors)))
}

/// Applies a sensitivity scale factor to the named rate of a model kind,
/// erroring (by name, listing the scalable rates) when the parameter is
/// not one of them — a typo'd param must never produce a grid of identical
/// models. Probabilities (`p_r`, `coverage`) are deliberately *not*
/// scalable: scaling them would change branching structure, not rates.
fn apply_rate_scale(
    kind: &str,
    scale: Option<(&str, f64)>,
    rates: &mut [(&str, &mut f64)],
) -> Result<(), String> {
    let Some((param, factor)) = scale else {
        return Ok(());
    };
    for (name, v) in rates.iter_mut() {
        if *name == param {
            **v *= factor;
            return Ok(());
        }
    }
    if rates.is_empty() {
        return Err(format!("{kind} models have no scalable rates"));
    }
    Err(format!(
        "{kind} models have no scalable rate {param:?} (expected one of: {})",
        rates.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
    ))
}

/// Rejects a negative or non-finite rate, naming the model kind and the
/// field: the model constructors take non-negative rates as a
/// precondition, and a spec value must never reach them unchecked.
fn check_rates(kind: &str, rates: &[(&str, f64)]) -> Result<(), String> {
    for &(key, v) in rates {
        if !(v.is_finite() && v >= 0.0) {
            return Err(format!(
                "{kind} {key:?} must be a non-negative finite number, got {v}"
            ));
        }
    }
    Ok(())
}

/// Rejects unknown keys in `obj` by name, listing the keys `what` accepts.
/// Mirrors the top-level typo guard: `{"kind": "duplex", "coverge": 0.9}`
/// must be an error naming `"coverge"`, never a silently ignored knob.
fn reject_unknown_keys(obj: &Json, what: &str, known: &[&[&str]]) -> Result<(), String> {
    let Json::Obj(members) = obj else {
        return Err(format!("{what} must be a JSON object"));
    };
    let unknown: Vec<&str> = members
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| !known.iter().any(|set| set.contains(k)))
        .collect();
    if unknown.is_empty() {
        return Ok(());
    }
    let mut names: Vec<&str> = known.iter().flat_map(|set| set.iter().copied()).collect();
    names.sort_unstable();
    Err(format!(
        "unknown key(s) in {what}: {} (known keys: {})",
        unknown
            .iter()
            .map(|k| format!("{k:?}"))
            .collect::<Vec<_>>()
            .join(", "),
        names.join(", ")
    ))
}

/// Rejects a zero rate where the kind needs a positive one, naming the
/// model kind and the field. Call after [`check_rates`].
fn check_positive(kind: &str, rates: &[(&str, f64)]) -> Result<(), String> {
    for &(key, v) in rates {
        if v <= 0.0 {
            return Err(format!("{kind} {key:?} must be positive, got {v}"));
        }
    }
    Ok(())
}

/// Rejects a unit count of zero, naming the model kind and the field: a
/// component class needs at least one unit.
fn check_counts(kind: &str, counts: &[(&str, u32)]) -> Result<(), String> {
    for &(key, n) in counts {
        if n == 0 {
            return Err(format!("{kind} {key:?} must be at least 1, got 0"));
        }
    }
    Ok(())
}

/// One grid point's chain, before it is compiled.
enum Chain {
    /// Built directly: `two_state`, `cyclic` and `inline`.
    Built(Ctmc),
    /// Compiled by the explorer.
    Raid(RaidModel),
    /// Compiled by the explorer under a state cap; `kind` names the spec
    /// kind in errors.
    Compose {
        kind: &'static str,
        model: ComposeModel,
        max_states: usize,
    },
}

/// One of the models crate's canned compositions (`duplex`, `machines`,
/// `multiproc`), under the state cap every kind explores under.
fn preset(kind: &'static str, model: Result<ComposeModel, ComposeError>) -> Result<Chain, String> {
    Ok(Chain::Compose {
        kind,
        model: model.map_err(|e| format!("{kind} model: {e}"))?,
        max_states: CtmcBuilder::default().max_states,
    })
}

/// The longest grid factor a point name prints in `f64` `Display` form.
const MAX_DISPLAY_FACTOR: usize = 24;

/// A grid factor as its point name prints it: `Display` (`0.5`, `1e-7` as
/// `0.0000001`) up to [`MAX_DISPLAY_FACTOR`] characters, and the shortest
/// round-trip exponent form beyond (`1e-321`, not 320 zeros).
fn factor_name(factor: f64) -> String {
    let shown = factor.to_string();
    if shown.len() <= MAX_DISPLAY_FACTOR {
        shown
    } else {
        format!("{factor:e}")
    }
}

/// Compiles one model object's grid points, in grid order. The first
/// explorer-built point of a grid with more points to come explores and
/// keeps its [`Replay`]; every later point replays it, so a grid explores
/// its state space once.
#[derive(Default)]
struct GridCompiler {
    raid: Option<Replay<RaidState>>,
    compose: Option<Replay<ComposeState>>,
}

impl GridCompiler {
    /// Compiles `chain`; `more` says whether later points of the grid
    /// follow.
    fn compile(&mut self, chain: Chain, more: bool) -> Result<Ctmc, String> {
        let (kind, built) = match chain {
            Chain::Built(ctmc) => return Ok(ctmc),
            Chain::Raid(model) => (
                "raid",
                compile(&mut self.raid, &model, CtmcBuilder::default(), more),
            ),
            Chain::Compose {
                kind,
                model,
                max_states,
            } => {
                let builder = CtmcBuilder::with_max_states(max_states);
                (kind, compile(&mut self.compose, &model, builder, more))
            }
        };
        built.map_err(|e| format!("{kind} model failed to build: {e}"))
    }
}

/// Compiles `model` by replaying `base`, or explores it, keeping the
/// exploration as the base when `more` points follow.
fn compile<M: ModelSpec>(
    base: &mut Option<Replay<M::State>>,
    model: &M,
    builder: CtmcBuilder,
    more: bool,
) -> Result<Ctmc, CtmcError> {
    match base {
        Some(replay) => replay.build(model),
        None if more => {
            let (ctmc, replay) = builder.explore_grid(model)?;
            *base = Some(replay);
            Ok(ctmc)
        }
        None => builder.explore(model, |_, _| {}),
    }
}

/// Reads a `"kind": "multiproc"` model (the degradable multiprocessor of
/// `regenr_models::multiproc`, compiled by its canned composition).
fn multiproc_model(obj: &Json, scale: Option<(&str, f64)>) -> Result<(String, Chain), String> {
    let need_f64 =
        |key: &str| get_f64(obj, key)?.ok_or_else(|| format!("multiproc model needs {key:?}"));
    let need_u32 =
        |key: &str| get_u32(obj, key)?.ok_or_else(|| format!("multiproc model needs {key:?}"));
    let absorbing = get_bool(obj, "absorbing")?.unwrap_or(false);
    let delta = match get_f64(obj, "delta")? {
        Some(d) if d.is_finite() && d > 0.0 => d,
        Some(d) => return Err(format!("multiproc \"delta\" must be positive, got {d}")),
        // The reboot rate is never read in the absorbing-crash variant.
        None if absorbing => 1.0,
        None => {
            return Err(
                "multiproc model needs \"delta\" (reboot rate) unless \"absorbing\" is true"
                    .to_string(),
            )
        }
    };
    let mut params = MultiprocParams {
        n_proc: need_u32("n_proc")?,
        n_mem: need_u32("n_mem")?,
        lambda_p: need_f64("lambda_p")?,
        lambda_m: need_f64("lambda_m")?,
        coverage: need_f64("coverage")?,
        mu: need_f64("mu")?,
        delta,
        absorbing_crash: absorbing,
    };
    apply_rate_scale(
        "multiproc",
        scale,
        &mut [
            ("lambda_p", &mut params.lambda_p),
            ("lambda_m", &mut params.lambda_m),
            ("mu", &mut params.mu),
            ("delta", &mut params.delta),
        ],
    )?;
    check_counts(
        "multiproc",
        &[("n_proc", params.n_proc), ("n_mem", params.n_mem)],
    )?;
    if !(0.0..=1.0).contains(&params.coverage) {
        return Err(format!(
            "multiproc \"coverage\" must be in [0, 1], got {}",
            params.coverage
        ));
    }
    check_rates(
        "multiproc",
        &[
            ("lambda_p", params.lambda_p),
            ("lambda_m", params.lambda_m),
            ("mu", params.mu),
        ],
    )?;
    // Failure rates must be positive, and so must the repair rate once a
    // covered failure can degrade the system.
    check_positive(
        "multiproc",
        &[("lambda_p", params.lambda_p), ("lambda_m", params.lambda_m)],
    )?;
    if params.coverage > 0.0 {
        check_positive("multiproc", &[("mu", params.mu)])?;
    }
    let chain = preset("multiproc", ComposeModel::multiproc(&params))?;
    Ok((
        format!(
            "multiproc_{}x{}{}",
            params.n_proc,
            params.n_mem,
            if absorbing { "_ur" } else { "" }
        ),
        chain,
    ))
}

/// Keys a compose component object accepts.
const COMPONENT_KEYS: &[&str] = &[
    "name", "count", "lambda", "mu", "coverage", "required", "deps",
];

/// Parses the component classes of a compose model, **sorted by name** so
/// permuted listings compile to the identical chain (same fingerprint,
/// same cache key, byte-identical stable report).
fn parse_components(obj: &Json) -> Result<Vec<ComponentClass>, String> {
    let comps = obj
        .get("components")
        .and_then(Json::as_arr)
        .ok_or_else(|| "compose model needs a \"components\" array".to_string())?;
    let mut classes = Vec::with_capacity(comps.len());
    for (i, comp) in comps.iter().enumerate() {
        let what = format!("components[{i}]");
        reject_unknown_keys(comp, &what, &[COMPONENT_KEYS])?;
        let name = comp
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{what} needs a string \"name\""))?;
        let count = get_u32(comp, "count")?.ok_or_else(|| format!("{what} needs \"count\""))?;
        let lambda = get_f64(comp, "lambda")?.ok_or_else(|| format!("{what} needs \"lambda\""))?;
        let mu = get_f64(comp, "mu")?.unwrap_or(0.0);
        let mut class = ComponentClass::new(name, count, lambda, mu);
        if let Some(c) = get_f64(comp, "coverage")? {
            class = class.coverage(c);
        }
        if let Some(r) = get_u32(comp, "required")? {
            class = class.required(r);
        }
        match comp.get("deps") {
            None | Some(Json::Null) => {}
            Some(v) => {
                let deps = v
                    .as_arr()
                    .ok_or_else(|| format!("{what}.deps must be an array"))?;
                for (j, dep) in deps.iter().enumerate() {
                    let dwhat = format!("{what}.deps[{j}]");
                    reject_unknown_keys(dep, &dwhat, &[&["on", "min_working", "factor"]])?;
                    let on = dep
                        .get("on")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{dwhat} needs a string \"on\""))?;
                    let factor = get_f64(dep, "factor")?
                        .ok_or_else(|| format!("{dwhat} needs \"factor\""))?;
                    // Default threshold 1: the rule fires while the watched
                    // class has nothing working.
                    let min_working = get_u32(dep, "min_working")?.unwrap_or(1);
                    class = class.dep(on, min_working, factor);
                }
            }
        }
        classes.push(class);
    }
    classes.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(classes)
}

/// Reads a `"kind": "compose"` model and its `"max_states"` cap (see
/// `regenr_models::compose` and the module docs for the grammar).
fn compose_model(obj: &Json, scale: Option<(&str, f64)>) -> Result<(String, Chain), String> {
    let classes = parse_components(obj)?;
    let crews = get_u32(obj, "crews")?.unwrap_or(1);
    let uncovered = match obj.get("uncovered") {
        None | Some(Json::Null) => UncoveredPolicy::Absorbing,
        Some(Json::Str(s)) if s == "absorbing" => UncoveredPolicy::Absorbing,
        Some(v @ Json::Obj(_)) => {
            reject_unknown_keys(v, "\"uncovered\"", &[&["reboot"]])?;
            let delta = get_f64(v, "reboot")?
                .ok_or_else(|| "\"uncovered\" object needs a \"reboot\" rate".to_string())?;
            UncoveredPolicy::Reboot(delta)
        }
        Some(v) => {
            return Err(format!(
                "field \"uncovered\" must be \"absorbing\" or {{\"reboot\": rate}}, got {v}"
            ))
        }
    };
    let down_absorbing = get_bool(obj, "down_absorbing")?.unwrap_or(false);
    let reward = match obj.get("reward") {
        None | Some(Json::Null) => RewardKind::Down,
        Some(Json::Str(s)) => match s.as_str() {
            "down" => RewardKind::Down,
            "up" => RewardKind::Up,
            "capacity" => RewardKind::Capacity,
            other => {
                return Err(format!(
                    "unknown reward {other:?} (expected down/up/capacity or \
                     {{\"working\": \"class\"}})"
                ))
            }
        },
        Some(v @ Json::Obj(_)) => {
            reject_unknown_keys(v, "\"reward\"", &[&["working"]])?;
            let class = v
                .get("working")
                .and_then(Json::as_str)
                .ok_or_else(|| "\"reward\" object needs a \"working\" class name".to_string())?;
            RewardKind::Working(class.to_string())
        }
        Some(v) => {
            return Err(format!(
                "field \"reward\" must be a string or {{\"working\": \"class\"}}, got {v}"
            ))
        }
    };
    let model = ComposeModel::new(classes, crews, uncovered, down_absorbing, reward)
        .map_err(|e| format!("compose model: {e}"))?;
    // The models-crate scaling hook: every class's lambda or mu scaled
    // in one shot, re-validated, state space unchanged by construction.
    let model = match scale {
        Some((param, factor)) => model
            .with_scaled_rate(param, factor)
            .map_err(|e| format!("compose model: {e}"))?,
        None => model,
    };
    // A spec may lower the exploration cap, never raise it: every other
    // kind explores under the builder's default limit, and a larger cap
    // lets one spec grow the process until allocation fails.
    let limit = CtmcBuilder::default().max_states;
    let max_states = match get_u32(obj, "max_states")? {
        None => limit,
        Some(n) if (1..=limit).contains(&(n as usize)) => n as usize,
        Some(n) => {
            return Err(format!(
                "compose \"max_states\" must be in [1, {limit}], got {n}"
            ))
        }
    };
    Ok((
        model.default_name(),
        Chain::Compose {
            kind: "compose",
            model,
            max_states,
        },
    ))
}

/// Builds an inline model from a `"rates": [[from, to, rate], …]` triple
/// list (see the module docs for the schema). Inline models have no named
/// rate parameters, so their one scalable sensitivity param is `"rate"`:
/// every transition rate is multiplied by the factor.
fn build_inline_model(obj: &Json, scale: Option<(&str, f64)>) -> Result<Ctmc, String> {
    let rate_factor = match scale {
        None => 1.0,
        Some(("rate", factor)) => factor,
        Some((param, _)) => {
            return Err(format!(
                "inline models have no scalable rate {param:?} \
                 (expected \"rate\", which scales every transition)"
            ))
        }
    };
    let triples = obj.get("rates").and_then(Json::as_arr).ok_or_else(|| {
        "inline model needs a \"rates\" array of [from, to, rate] triples".to_string()
    })?;
    let mut rates: Vec<(usize, usize, f64)> = Vec::with_capacity(triples.len());
    let mut max_state = 0usize;
    for (i, item) in triples.iter().enumerate() {
        let triple = item
            .as_arr()
            .filter(|a| a.len() == 3)
            .ok_or_else(|| format!("rates[{i}] must be a [from, to, rate] triple"))?;
        let state = |j: usize, what: &str| -> Result<usize, String> {
            triple[j]
                .as_usize()
                .ok_or_else(|| format!("rates[{i}]: {what} must be a non-negative integer"))
        };
        let (from, to) = (state(0, "from")?, state(1, "to")?);
        let rate = triple[2]
            .as_f64()
            .filter(|r| r.is_finite() && *r >= 0.0)
            .ok_or_else(|| format!("rates[{i}]: rate must be a non-negative finite number"))?;
        max_state = max_state.max(from).max(to);
        rates.push((from, to, rate * rate_factor));
    }
    let rewards = get_f64_array(obj, "rewards")?.ok_or_else(|| {
        "inline model needs a \"rewards\" array (per-state reward rates)".to_string()
    })?;
    let initial = get_f64_array(obj, "initial")?;
    let inferred = (max_state + 1)
        .max(rewards.len())
        .max(initial.as_ref().map_or(0, Vec::len));
    let n = match get_u32(obj, "n")? {
        Some(n) if (n as usize) < inferred => {
            return Err(format!(
                "inline model \"n\" = {n} is below the {inferred} states its arrays imply"
            ))
        }
        Some(n) => n as usize,
        None => inferred,
    };
    if rewards.len() != n {
        return Err(format!(
            "inline model has {} rewards for {n} states",
            rewards.len()
        ));
    }
    let initial = match initial {
        Some(init) => {
            if init.len() != n {
                return Err(format!(
                    "inline model has {} initial entries for {n} states",
                    init.len()
                ));
            }
            init
        }
        None => {
            // Default: all mass on state 0 (the paper's pristine state).
            let mut init = vec![0.0; n];
            init[0] = 1.0;
            init
        }
    };
    Ctmc::from_rates(n, &rates, initial, rewards)
        .map_err(|e| format!("inline model failed to validate: {e}"))
}

/// Reads the chain described by one model object; returns (name, chain).
/// `scale` is a `(param, factor)` pair from a `"sensitivity"` expansion:
/// the named rate is multiplied by the factor before the chain is built,
/// so every grid point is a pure rate variant sharing the base model's
/// structural fingerprint.
fn model_point(obj: &Json, scale: Option<(&str, f64)>) -> Result<(String, Chain), String> {
    let kind = obj
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "model needs a string \"kind\"".to_string())?;
    // Every kind rejects keys it does not read, naming the typo and the
    // keys it accepts (the per-model analog of the top-level guard).
    let kind_keys: &[&str] = match kind {
        "raid" => &["g", "c_h", "d_h", "p_r", "absorbing"],
        "two_state" => &["lambda", "mu", "absorbing"],
        "cyclic" => &["n"],
        "duplex" => &["lambda", "mu", "coverage"],
        "machines" => &["machines", "repairmen", "lambda", "mu"],
        "multiproc" => &[
            "n_proc",
            "n_mem",
            "lambda_p",
            "lambda_m",
            "coverage",
            "mu",
            "delta",
            "absorbing",
        ],
        "compose" => &[
            "components",
            "crews",
            "uncovered",
            "down_absorbing",
            "reward",
            "max_states",
        ],
        "inline" => &["rates", "rewards", "initial", "n"],
        _ => &[],
    };
    if !kind_keys.is_empty() {
        reject_unknown_keys(
            obj,
            &format!("{kind} model"),
            &[COMMON_MODEL_KEYS, kind_keys],
        )?;
    }
    let (default_name, chain) = match kind {
        "raid" => {
            let g = get_u32(obj, "g")?.ok_or_else(|| "raid model needs \"g\"".to_string())?;
            // The state stores disk counts in a u16 and spare counts in a
            // byte.
            if !(1..=u16::MAX as u32).contains(&g) {
                return Err(format!("raid \"g\" must be in [1, 65535], got {g}"));
            }
            let mut params = RaidParams::paper(g);
            for (key, slot) in [("c_h", &mut params.c_h), ("d_h", &mut params.d_h)] {
                if let Some(v) = get_u32(obj, key)? {
                    if v > u8::MAX as u32 {
                        return Err(format!("raid {key:?} must be at most 255, got {v}"));
                    }
                    *slot = v;
                }
            }
            if let Some(p_r) = get_f64(obj, "p_r")? {
                if !(p_r > 0.0 && p_r <= 1.0) {
                    return Err(format!("raid \"p_r\" must be in (0, 1], got {p_r}"));
                }
                params.p_r = p_r;
            }
            apply_rate_scale(
                "raid",
                scale,
                &mut [
                    ("lambda_d", &mut params.lambda_d),
                    ("lambda_s", &mut params.lambda_s),
                    ("lambda_c", &mut params.lambda_c),
                    ("mu_drc", &mut params.mu_drc),
                    ("mu_drp", &mut params.mu_drp),
                    ("mu_crp", &mut params.mu_crp),
                    ("mu_sr", &mut params.mu_sr),
                    ("mu_g", &mut params.mu_g),
                ],
            )?;
            let absorbing = get_bool(obj, "absorbing")?.unwrap_or(false);
            if absorbing {
                params = params.with_absorbing_failure();
            }
            (
                format!("raid_g{g}_{}", if absorbing { "ur" } else { "ua" }),
                Chain::Raid(RaidModel::new(params)),
            )
        }
        "two_state" => {
            let mut lambda =
                get_f64(obj, "lambda")?.ok_or_else(|| "two_state needs \"lambda\"".to_string())?;
            let absorbing = get_bool(obj, "absorbing")?.unwrap_or(false);
            if absorbing {
                // The non-repairable variant has no repair rate to scale.
                apply_rate_scale(
                    "two_state (absorbing)",
                    scale,
                    &mut [("lambda", &mut lambda)],
                )?;
                check_rates("two_state", &[("lambda", lambda)])?;
                (
                    "two_state_nonrepairable".to_string(),
                    Chain::Built(regenr_models::two_state::non_repairable_unit(lambda)),
                )
            } else {
                let mut mu =
                    get_f64(obj, "mu")?.ok_or_else(|| "two_state needs \"mu\"".to_string())?;
                apply_rate_scale(
                    "two_state",
                    scale,
                    &mut [("lambda", &mut lambda), ("mu", &mut mu)],
                )?;
                check_rates("two_state", &[("lambda", lambda), ("mu", mu)])?;
                (
                    "two_state".to_string(),
                    Chain::Built(regenr_models::two_state::repairable_unit(lambda, mu)),
                )
            }
        }
        "cyclic" => {
            let n = get_u32(obj, "n")?.ok_or_else(|| "cyclic needs \"n\"".to_string())?;
            let max_states = CtmcBuilder::default().max_states;
            if !(2..=max_states).contains(&(n as usize)) {
                return Err(format!(
                    "cyclic \"n\" must be in [2, {max_states}], got {n}"
                ));
            }
            apply_rate_scale("cyclic", scale, &mut [])?;
            (
                format!("cyclic_{n}"),
                Chain::Built(regenr_models::cyclic::ring(n as usize)),
            )
        }
        "duplex" => {
            let mut lambda =
                get_f64(obj, "lambda")?.ok_or_else(|| "duplex needs \"lambda\"".to_string())?;
            let mut mu = get_f64(obj, "mu")?.ok_or_else(|| "duplex needs \"mu\"".to_string())?;
            apply_rate_scale(
                "duplex",
                scale,
                &mut [("lambda", &mut lambda), ("mu", &mut mu)],
            )?;
            let coverage =
                get_f64(obj, "coverage")?.ok_or_else(|| "duplex needs \"coverage\"".to_string())?;
            if !(0.0..=1.0).contains(&coverage) {
                return Err(format!(
                    "duplex \"coverage\" must be in [0, 1], got {coverage}"
                ));
            }
            check_rates("duplex", &[("lambda", lambda), ("mu", mu)])?;
            (
                "duplex".to_string(),
                preset("duplex", ComposeModel::duplex(lambda, mu, coverage))?,
            )
        }
        "machines" => {
            let machines = get_u32(obj, "machines")?
                .ok_or_else(|| "machines model needs \"machines\"".to_string())?;
            let repairmen = get_u32(obj, "repairmen")?
                .ok_or_else(|| "machines model needs \"repairmen\"".to_string())?;
            let mut lambda = get_f64(obj, "lambda")?
                .ok_or_else(|| "machines model needs \"lambda\"".to_string())?;
            let mut mu =
                get_f64(obj, "mu")?.ok_or_else(|| "machines model needs \"mu\"".to_string())?;
            apply_rate_scale(
                "machines",
                scale,
                &mut [("lambda", &mut lambda), ("mu", &mut mu)],
            )?;
            check_counts(
                "machines",
                &[("machines", machines), ("repairmen", repairmen)],
            )?;
            check_rates("machines", &[("lambda", lambda), ("mu", mu)])?;
            check_positive("machines", &[("lambda", lambda), ("mu", mu)])?;
            (
                format!("machines_{machines}x{repairmen}"),
                preset(
                    "machines",
                    ComposeModel::machines(machines, repairmen, lambda, mu),
                )?,
            )
        }
        "multiproc" => multiproc_model(obj, scale)?,
        "compose" => compose_model(obj, scale)?,
        "inline" => (
            "inline".to_string(),
            Chain::Built(build_inline_model(obj, scale)?),
        ),
        other => {
            return Err(format!(
                "unknown model kind {other:?} \
                 (expected raid/two_state/cyclic/duplex/machines/multiproc/compose/inline)"
            ))
        }
    };
    let name = get_str(obj, "name")?
        .map(str::to_string)
        .unwrap_or(default_name);
    Ok((name, chain))
}

impl SweepSpec {
    /// Parses a spec document.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&doc)
    }

    /// Interprets an already-parsed document.
    pub fn from_json(doc: &Json) -> Result<SweepSpec, String> {
        let Json::Obj(members) = doc else {
            return Err("spec must be a JSON object".to_string());
        };
        // Reject unknown top-level keys by name, before anything else: a
        // typo must produce a clear error, never a wrong-config sweep.
        let unknown: Vec<&str> = members
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| !KNOWN_SPEC_KEYS.contains(k))
            .collect();
        if !unknown.is_empty() {
            return Err(format!(
                "unknown spec field(s): {} (known top-level fields: {})",
                unknown
                    .iter()
                    .map(|k| format!("{k:?}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                KNOWN_SPEC_KEYS.join(", ")
            ));
        }
        let mut options = EngineOptions::default();
        if let Some(x) = get_u32(doc, "threads")? {
            options.threads = x as usize;
        }
        if let Some(x) = get_f64(doc, "theta")? {
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "field \"theta\" must be a non-negative finite number, got {x}"
                ));
            }
            options.theta = x;
        }

        let cache = get_cache_config(doc)?;
        let default_epsilon = get_epsilon(doc)?.unwrap_or(1e-12);
        let default_method = match get_str(doc, "method")? {
            Some(s) => parse_method_choice(s)?,
            None => MethodChoice::Auto,
        };
        let default_horizons = get_horizons(doc)?;
        let default_measures = get_measures(doc)?.unwrap_or(vec![MeasureKind::Trr]);

        let models = doc
            .get("models")
            .and_then(Json::as_arr)
            .ok_or_else(|| "spec needs a \"models\" array".to_string())?;
        if models.is_empty() {
            return Err("spec has an empty \"models\" array".to_string());
        }

        let mut requests = Vec::new();
        for model_obj in models {
            // The "sensitivity" sweep form expands one model object into a
            // rate-scaled instance per grid point. Every instance shares
            // the base model's *structural* fingerprint by construction
            // (only rate values change, never which transitions exist), so
            // the grid explores its state space once (`GridCompiler`) and
            // the engine's artifact graph re-binds the cached `Pᵀ` pattern
            // and chain facts across the whole grid.
            let points: Vec<Option<(String, f64)>> = match parse_sensitivity(model_obj)? {
                None => vec![None],
                Some((param, grid)) => grid
                    .into_iter()
                    .map(|factor| Some((param.clone(), factor)))
                    .collect(),
            };
            let mut grid = GridCompiler::default();
            for (k, point) in points.iter().enumerate() {
                let scale = point.as_ref().map(|(p, f)| (p.as_str(), *f));
                let (base_name, chain) = model_point(model_obj, scale)?;
                let ctmc = grid.compile(chain, k + 1 < points.len())?;
                let name = match point {
                    // Grid points are distinguishable by name:
                    // `raid_g20_ua@lambda_d=0.5`.
                    Some((param, factor)) => {
                        format!("{base_name}@{param}={}", factor_name(*factor))
                    }
                    None => base_name,
                };
                let model = Arc::new(ctmc);
                // Fingerprint once here, not once per solve: a sensitivity
                // grid hands the same engine dozens of rate variants, and
                // hashing each 100k-entry matrix inside the timed sweep
                // would dilute the delta-rebind win the grid exists to
                // demonstrate.
                let fps = Some(crate::fingerprint::model_fps(&model));
                let horizons = get_horizons(model_obj)?
                    .or_else(|| default_horizons.clone())
                    .ok_or_else(|| {
                        format!("model {name:?} has no horizons (none at the top level either)")
                    })?;
                let epsilon = get_epsilon(model_obj)?.unwrap_or(default_epsilon);
                let method = match get_str(model_obj, "method")? {
                    Some(s) => parse_method_choice(s)?,
                    None => default_method,
                };
                let regen_state = match model_obj.get("regen_state") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_usize().ok_or_else(|| {
                        format!("field \"regen_state\" must be a non-negative integer, got {v}")
                    })?),
                };
                let measures = get_measures(model_obj)?.unwrap_or(default_measures.clone());
                for measure in measures {
                    requests.push(SolveRequest {
                        model: model.clone(),
                        name: name.clone(),
                        measure,
                        horizons: horizons.clone(),
                        epsilon,
                        method,
                        regen_state,
                        fps,
                    });
                }
            }
        }
        Ok(SweepSpec {
            options,
            cache,
            requests,
            deadline_ms: get_ms(doc, "deadline_ms")?,
        })
    }
}

/// Serializes a sweep report (the CLI's output document).
pub fn report_to_json(report: &SweepReport) -> Json {
    report_to_json_opts(report, false)
}

/// Like [`report_to_json`] but omitting every execution-dependent field —
/// wall times, cache counters (hit/miss splits vary with scheduling under
/// contention), pool/workspace gauges — so reports from runs that differ
/// only in thread counts are **byte-for-byte identical**. This is what the
/// CI determinism job diffs (`regenr sweep … --stable`).
pub fn stable_report_to_json(report: &SweepReport) -> Json {
    report_to_json_opts(report, true)
}

/// Serializes one solved cell. The serve layer streams exactly these
/// objects (plus a `"record"` tag) as NDJSON, so a streamed cell and the
/// matching entry of an offline report can never drift apart.
pub fn cell_to_json(r: &SolveReport, stable: bool) -> Json {
    let mut fields = vec![
        ("model".into(), Json::Str(r.model.clone())),
        (
            "fingerprint".into(),
            Json::Str(format!("{:016x}", r.fingerprint)),
        ),
        ("measure".into(), Json::Str(measure_name(r.measure).into())),
        ("t".into(), Json::Num(r.t)),
        ("method".into(), Json::Str(r.method.name().into())),
        ("reason".into(), Json::Str(r.reason.as_str().into())),
        ("value".into(), Json::Num(r.value)),
        ("steps".into(), Json::Num(r.steps as f64)),
        ("error_bound".into(), Json::Num(r.error_bound)),
        ("abscissae".into(), Json::Num(r.abscissae as f64)),
        ("converged".into(), Json::Bool(r.converged)),
        ("lambda_t".into(), Json::Num(r.lambda_t)),
    ];
    if !stable {
        // The kernel and its backend are execution facts, not a result:
        // --stable reports leave them out.
        fields.push(("kernel".into(), Json::Str(r.kernel.into())));
        fields.push(("backend".into(), Json::Str(r.backend.into())));
        fields.push(("unif_cache_hit".into(), Json::Bool(r.unif_cache_hit)));
        fields.push(("params_cache_hit".into(), Json::Bool(r.params_cache_hit)));
        fields.push(("wall_seconds".into(), Json::Num(r.wall.as_secs_f64())));
        // Supervision annotations are execution facts too: a recovered
        // cell's *value* is bitwise-identical to running the fallback
        // method directly, so --stable output stays byte-for-byte stable
        // whether or not faults were injected.
        fields.push(("attempts".into(), Json::Num(r.attempts as f64)));
        if let Some(via) = r.recovered_via {
            fields.push(("recovered_via".into(), Json::Str(via.name().into())));
        }
    }
    Json::Obj(fields)
}

/// Serializes one sweep failure (shared by reports and the serve summary).
pub fn failure_to_json(f: &SweepFailure) -> Json {
    Json::Obj(vec![
        ("model".into(), Json::Str(f.model.clone())),
        ("measure".into(), Json::Str(measure_name(f.measure).into())),
        ("error".into(), Json::Str(f.error.clone())),
        (
            "kind".into(),
            Json::Str(
                if f.infrastructure {
                    "infrastructure"
                } else {
                    "model"
                }
                .into(),
            ),
        ),
    ])
}

/// Serializes [`crate::engine::RobustnessStats`] (the report's
/// `"execution".robustness` object; also aggregated by `GET /stats`).
pub fn robustness_json(r: &crate::engine::RobustnessStats) -> Json {
    Json::Obj(vec![
        (
            "health_failures".into(),
            Json::Num(r.health_failures as f64),
        ),
        ("fallbacks".into(), Json::Num(r.fallbacks as f64)),
        ("retries".into(), Json::Num(r.retries as f64)),
        (
            "recovered_cells".into(),
            Json::Num(r.recovered_cells as f64),
        ),
    ])
}

/// Serializes the artifact-cache counters (the report's `"cache"` object;
/// also served by `GET /stats`).
pub fn cache_stats_json(stats: &crate::cache::CacheStats) -> Json {
    let pool = |p: crate::cache::PoolStats| {
        Json::Obj(vec![
            ("hits".into(), Json::Num(p.hits as f64)),
            ("misses".into(), Json::Num(p.misses as f64)),
            ("evictions".into(), Json::Num(p.evictions as f64)),
            ("entries".into(), Json::Num(p.entries as f64)),
            ("bytes".into(), Json::Num(p.bytes as f64)),
            // Live rebuild-cost gauge (the eviction weight input), in
            // array-elements-touched units — alongside bytes so capacity
            // planning can see both axes.
            ("cost".into(), Json::Num(p.cost as f64)),
        ])
    };
    Json::Obj(vec![
        ("structure".into(), pool(stats.structure)),
        ("uniformized".into(), pool(stats.uniformized)),
        ("regen_params".into(), pool(stats.regen_params)),
        // Artifact-graph counters: structure facts served to rate variants
        // of a cached topology, uniformizations built by re-binding a
        // structural donor's `Pᵀ` pattern, and dependents orphaned by evicting
        // their parent artifact.
        ("derived_hits".into(), Json::Num(stats.derived_hits as f64)),
        ("rebinds".into(), Json::Num(stats.rebinds as f64)),
        ("orphaned".into(), Json::Num(stats.orphaned as f64)),
    ])
}

fn report_to_json_opts(report: &SweepReport, stable: bool) -> Json {
    let reports = report
        .reports
        .iter()
        .map(|r| cell_to_json(r, stable))
        .collect();
    let failures = report.failures.iter().map(failure_to_json).collect();
    let mut doc = vec![
        ("reports".into(), Json::Arr(reports)),
        ("failures".into(), Json::Arr(failures)),
    ];
    if !stable {
        doc.push(("cache".into(), cache_stats_json(&report.cache)));
        let exec = &report.exec;
        doc.push((
            "execution".into(),
            Json::Obj(vec![
                ("simd_backend".into(), Json::Str(exec.simd_backend.into())),
                ("sweep_workers".into(), Json::Num(exec.sweep_workers as f64)),
                ("pool_threads".into(), Json::Num(exec.pool_threads as f64)),
                (
                    "pool".into(),
                    Json::Obj(vec![
                        (
                            "pooled_runs".into(),
                            Json::Num(exec.pool.pooled_runs as f64),
                        ),
                        (
                            "inline_runs".into(),
                            Json::Num(exec.pool.inline_runs as f64),
                        ),
                        ("chunks".into(), Json::Num(exec.pool.chunks as f64)),
                        (
                            "stolen_chunks".into(),
                            Json::Num(exec.pool.stolen_chunks as f64),
                        ),
                        (
                            "overlapped_runs".into(),
                            Json::Num(exec.pool.overlapped_runs as f64),
                        ),
                    ]),
                ),
                (
                    "workspace".into(),
                    Json::Obj(vec![
                        ("takes".into(), Json::Num(exec.workspace.takes as f64)),
                        (
                            "fresh_allocs".into(),
                            Json::Num(exec.workspace.fresh_allocs as f64),
                        ),
                        ("reused".into(), Json::Num(exec.workspace.reused as f64)),
                    ]),
                ),
                // The artifact-graph reuse counters repeated here: how much
                // of this sweep's build work was served by the graph
                // (derived facts, plan rebinds) vs. lost to parent
                // evictions — execution accounting, not results.
                (
                    "derived_hits".into(),
                    Json::Num(report.cache.derived_hits as f64),
                ),
                ("rebinds".into(), Json::Num(report.cache.rebinds as f64)),
                ("orphaned".into(), Json::Num(report.cache.orphaned as f64)),
                ("robustness".into(), robustness_json(&report.robustness)),
            ]),
        ));
        doc.push(("wall_seconds".into(), Json::Num(report.wall.as_secs_f64())));
    }
    Json::Obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_spec() {
        let spec = SweepSpec::parse(
            r#"{
                "epsilon": 1e-10,
                "horizons": [1, 10],
                "models": [
                    {"kind": "two_state", "lambda": 1e-3, "mu": 1.0},
                    {"kind": "cyclic", "n": 4, "measures": ["trr", "mrr"]}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.requests.len(), 3, "1 two_state + 2 cyclic measures");
        assert_eq!(spec.requests[0].epsilon, 1e-10);
        assert_eq!(spec.requests[0].horizons, vec![1.0, 10.0]);
        assert_eq!(spec.requests[2].measure, MeasureKind::Mrr);
    }

    #[test]
    fn deep_nesting_is_a_spec_error() {
        for body in [
            format!(r#"{{"horizons": [1], "models": {}"#, "[".repeat(100_000)),
            r#"{"a":"#.repeat(100_000),
        ] {
            let Err(err) = SweepSpec::parse(&body) else {
                panic!("deep nesting must be rejected");
            };
            assert!(err.contains("depth limit of 128"), "{err}");
        }
    }

    #[test]
    fn per_model_overrides_win() {
        let spec = SweepSpec::parse(
            r#"{
                "horizons": [1],
                "method": "sr",
                "models": [
                    {"kind": "two_state", "lambda": 0.1, "mu": 1.0,
                     "horizons": [5, 50], "method": "rrl", "epsilon": 1e-8}
                ]
            }"#,
        )
        .unwrap();
        let req = &spec.requests[0];
        assert_eq!(req.horizons, vec![5.0, 50.0]);
        assert_eq!(req.method, MethodChoice::Fixed(Method::Rrl));
        assert_eq!(req.epsilon, 1e-8);
    }

    #[test]
    fn parses_cache_config() {
        let spec = SweepSpec::parse(
            r#"{
                "horizons": [1],
                "cache": {"max_entries": 8, "max_bytes": 1048576},
                "models": [{"kind": "cyclic", "n": 3}]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.cache.max_entries, Some(8));
        assert_eq!(spec.cache.max_bytes, Some(1048576));
        // Absent → unbounded; partial → only that cap.
        let spec = SweepSpec::parse(r#"{"horizons": [1], "models": [{"kind": "cyclic", "n": 3}]}"#)
            .unwrap();
        assert_eq!(spec.cache, CacheConfig::unbounded());
        let spec = SweepSpec::parse(
            r#"{"horizons": [1], "cache": {"max_entries": 2},
                "models": [{"kind": "cyclic", "n": 3}]}"#,
        )
        .unwrap();
        assert_eq!(spec.cache.max_entries, Some(2));
        assert_eq!(spec.cache.max_bytes, None);
    }

    #[test]
    fn rejects_bad_cache_config() {
        // 0 is valid — a cache that retains nothing (cold every time).
        let spec = SweepSpec::parse(
            r#"{"horizons": [1], "cache": {"max_entries": 0},
                "models": [{"kind": "cyclic", "n": 3}]}"#,
        )
        .unwrap();
        assert_eq!(spec.cache.max_entries, Some(0));
        for bad in ["-1", "2.5", "1e400", "\"lots\""] {
            let doc = format!(
                r#"{{"horizons": [1], "cache": {{"max_entries": {bad}}},
                    "models": [{{"kind": "cyclic", "n": 3}}]}}"#
            );
            assert!(SweepSpec::parse(&doc).is_err(), "cache cap {bad} accepted");
        }
        // A mistyped "cache" value must be an error, not a silent unbounded
        // cache.
        for bad in ["64", "\"small\"", "[4]", "true"] {
            let doc = format!(
                r#"{{"horizons": [1], "cache": {bad},
                    "models": [{{"kind": "cyclic", "n": 3}}]}}"#
            );
            assert!(SweepSpec::parse(&doc).is_err(), "cache {bad} accepted");
        }
    }

    /// Non-finite or non-positive ε must fail at parse time — downstream it
    /// would key cache entries by NaN bits or break the error-budget splits.
    #[test]
    fn rejects_non_finite_epsilon() {
        for bad in ["0", "-1e-12", "1e999", "-1e999"] {
            let top = format!(
                r#"{{"epsilon": {bad}, "horizons": [1],
                    "models": [{{"kind": "cyclic", "n": 3}}]}}"#
            );
            assert!(
                SweepSpec::parse(&top).is_err(),
                "top-level ε {bad} accepted"
            );
            let per_model = format!(
                r#"{{"horizons": [1],
                    "models": [{{"kind": "cyclic", "n": 3, "epsilon": {bad}}}]}}"#
            );
            assert!(
                SweepSpec::parse(&per_model).is_err(),
                "per-model ε {bad} accepted"
            );
        }
    }

    #[test]
    fn parses_inline_rate_matrix_model() {
        let spec = SweepSpec::parse(
            r#"{
                "horizons": [1, 100],
                "models": [
                    {"kind": "inline", "name": "unit",
                     "rates": [[0, 1, 0.001], [1, 0, 1.0]],
                     "rewards": [0, 1]}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.requests.len(), 1);
        let req = &spec.requests[0];
        assert_eq!(req.name, "unit");
        assert_eq!(req.model.n_states(), 2);
        assert_eq!(req.model.initial(), &[1.0, 0.0], "default initial is e_0");
        assert_eq!(req.model.rewards(), &[0.0, 1.0]);
        // Explicit initial + padding states via "n".
        let spec = SweepSpec::parse(
            r#"{
                "horizons": [1],
                "models": [
                    {"kind": "inline", "n": 3,
                     "rates": [[0, 1, 0.5], [1, 0, 2.0]],
                     "initial": [0.25, 0.75, 0],
                     "rewards": [1, 0, 0]}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.requests[0].model.n_states(), 3);
        assert_eq!(spec.requests[0].model.initial()[1], 0.75);
    }

    #[test]
    fn rejects_bad_inline_models() {
        let parse = |models: &str| {
            SweepSpec::parse(&format!(r#"{{"horizons": [1], "models": [{models}]}}"#))
        };
        // Missing rates / rewards.
        assert!(parse(r#"{"kind": "inline", "rewards": [1]}"#).is_err());
        assert!(parse(r#"{"kind": "inline", "rates": [[0, 1, 1.0]]}"#).is_err());
        // Malformed triples.
        assert!(parse(r#"{"kind": "inline", "rates": [[0, 1]], "rewards": [1, 1]}"#).is_err());
        assert!(
            parse(r#"{"kind": "inline", "rates": [[0, 1, -2.0]], "rewards": [1, 1]}"#).is_err(),
            "negative rate must be rejected"
        );
        assert!(
            parse(r#"{"kind": "inline", "rates": [[0, 1.5, 1.0]], "rewards": [1, 1]}"#).is_err(),
            "fractional state index must be rejected"
        );
        // Dimension mismatches.
        assert!(
            parse(r#"{"kind": "inline", "rates": [[0, 1, 1.0]], "rewards": [1]}"#).is_err(),
            "rewards shorter than the state count must be rejected"
        );
        assert!(
            parse(r#"{"kind": "inline", "n": 1, "rates": [[0, 1, 1.0]], "rewards": [1, 1]}"#)
                .is_err(),
            "n below the implied state count must be rejected"
        );
        // Invalid chains still fail through Ctmc construction validation.
        assert!(
            parse(
                r#"{"kind": "inline", "rates": [[0, 1, 1.0]],
                    "initial": [0.25, 0.25], "rewards": [1, 1]}"#
            )
            .is_err(),
            "an initial distribution not summing to 1 must be rejected"
        );
        assert!(
            parse(r#"{"kind": "inline", "rates": [[0, 1, 1.0]], "rewards": [1, -1]}"#).is_err(),
            "negative rewards must be rejected"
        );
    }

    #[test]
    fn stable_report_omits_execution_dependent_fields() {
        let spec = SweepSpec::parse(
            r#"{"horizons": [1], "models": [{"kind": "two_state", "lambda": 1e-3, "mu": 1.0}]}"#,
        )
        .unwrap();
        let engine = crate::Engine::with_cache_config(spec.options, spec.cache);
        let report = engine.sweep(&spec.requests);
        let full = report_to_json(&report).to_string();
        let stable = stable_report_to_json(&report).to_string();
        for field in [
            "wall_seconds",
            "cache",
            "execution",
            "unif_cache_hit",
            "kernel",
            "backend",
            "simd_backend",
            "stolen_chunks",
        ] {
            assert!(full.contains(field), "full report must contain {field}");
            assert!(!stable.contains(field), "stable report leaks {field}");
        }
        assert!(stable.contains("\"value\""));
    }

    /// `"kernel"` is no longer a knob: any value, even one it used to
    /// accept, is the unknown-key error, which names the key.
    #[test]
    fn rejects_bad_kernel_knob() {
        for bad in [
            "\"auto\"",
            "\"generic\"",
            "\"shortrow\"",
            "\"warp\"",
            "3",
            "true",
        ] {
            let doc = format!(
                r#"{{"kernel": {bad}, "horizons": [1],
                    "models": [{{"kind": "cyclic", "n": 3}}]}}"#
            );
            let err = SweepSpec::parse(&doc).map(|_| ()).unwrap_err();
            assert!(
                err.contains("unknown spec field") && err.contains("\"kernel\""),
                "kernel {bad}: {err}"
            );
        }
    }

    /// `"backend"` is no longer a knob: any value, even `"auto"`, is the
    /// unknown-key error, which names the key.
    #[test]
    fn rejects_bad_backend_knob() {
        for bad in ["\"auto\"", "\"scalar\"", "\"avx2\"", "3", "true"] {
            let doc = format!(
                r#"{{"backend": {bad}, "horizons": [1],
                    "models": [{{"kind": "cyclic", "n": 3}}]}}"#
            );
            let err = SweepSpec::parse(&doc).map(|_| ()).unwrap_err();
            assert!(
                err.contains("unknown spec field") && err.contains("\"backend\""),
                "backend {bad}: {err}"
            );
        }
    }

    /// `"rhs_block"` and `"index_width"` are no longer knobs: any value,
    /// even one they used to accept, is the unknown-key error, which names
    /// the key.
    #[test]
    fn rejects_bad_rhs_block_and_index_width_knobs() {
        for (key, values) in [
            ("rhs_block", ["\"auto\"", "1", "\"4\"", "8", "true"]),
            (
                "index_width",
                ["\"auto\"", "16", "\"32\"", "\"48\"", "false"],
            ),
        ] {
            for bad in values {
                let doc = format!(
                    r#"{{"{key}": {bad}, "horizons": [1],
                        "models": [{{"kind": "cyclic", "n": 3}}]}}"#
                );
                let err = SweepSpec::parse(&doc).map(|_| ()).unwrap_err();
                assert!(
                    err.contains("unknown spec field") && err.contains(&format!("{key:?}")),
                    "{key} {bad}: {err}"
                );
            }
        }
    }

    /// Typos in top-level spec keys must be named errors, not silently
    /// ignored knobs — server clients get a 400 instead of a wrong-config
    /// sweep.
    #[test]
    fn rejects_unknown_top_level_keys_by_name() {
        let fail = |text: &str| SweepSpec::parse(text).map(|_| ()).unwrap_err();
        let err = fail(
            r#"{"horizons": [1], "kernal": "auto",
                "models": [{"kind": "cyclic", "n": 3}]}"#,
        );
        assert!(err.contains("\"kernal\""), "error must name the key: {err}");
        assert!(err.contains("unknown spec field"), "{err}");
        // Several unknowns are all named.
        let err = fail(
            r#"{"horizons": [1], "kernal": "auto", "epsilonn": 1e-9,
                "models": [{"kind": "cyclic", "n": 3}]}"#,
        );
        assert!(
            err.contains("\"kernal\"") && err.contains("\"epsilonn\""),
            "{err}"
        );
        // `Auto`'s thresholds are constants, not keys; each method gets one
        // attempt, and serve has no stall.
        for key in [
            "small_lambda_t",
            "tiny_lambda_t",
            "adaptive_min_states",
            "max_retries",
            "debug_stall_ms",
        ] {
            let err = fail(&format!(
                r#"{{"horizons": [1], "{key}": 64,
                    "models": [{{"kind": "cyclic", "n": 3}}]}}"#
            ));
            assert!(
                err.contains("unknown spec field") && err.contains(&format!("{key:?}")),
                "{key}: {err}"
            );
        }
        // A non-object document is a clear error too.
        assert!(fail("[1, 2]").contains("object"));
    }

    /// `deadline_ms` is recognized (serve consumes it; the CLI ignores it)
    /// and validated.
    #[test]
    fn parses_serve_only_fields() {
        let spec = SweepSpec::parse(
            r#"{"horizons": [1], "deadline_ms": 250,
                "models": [{"kind": "cyclic", "n": 3}]}"#,
        )
        .unwrap();
        assert_eq!(spec.deadline_ms, Some(250));
        let spec = SweepSpec::parse(r#"{"horizons": [1], "models": [{"kind": "cyclic", "n": 3}]}"#)
            .unwrap();
        assert_eq!(spec.deadline_ms, None);
        for bad in ["-1", "2.5", "\"soon\""] {
            let doc = format!(
                r#"{{"horizons": [1], "deadline_ms": {bad},
                    "models": [{{"kind": "cyclic", "n": 3}}]}}"#
            );
            assert!(SweepSpec::parse(&doc).is_err(), "deadline {bad} accepted");
        }
    }

    /// Typos *inside model objects* are rejected by name too, with the
    /// error listing the keys that kind accepts.
    #[test]
    fn rejects_unknown_model_keys_by_name() {
        let fail = |models: &str| {
            SweepSpec::parse(&format!(r#"{{"horizons": [1], "models": [{models}]}}"#))
                .map(|_| ())
                .unwrap_err()
        };
        let err = fail(r#"{"kind": "duplex", "lambda": 0.01, "mu": 1.0, "coverge": 0.9}"#);
        assert!(
            err.contains("\"coverge\""),
            "error must name the key: {err}"
        );
        assert!(
            err.contains("coverage"),
            "error must list known keys: {err}"
        );
        assert!(err.contains("duplex"), "{err}");
        // Per-model override keys stay accepted for every kind.
        SweepSpec::parse(
            r#"{"horizons": [1], "models": [
                {"kind": "cyclic", "n": 3, "name": "ring", "epsilon": 1e-9,
                 "method": "sr", "measures": ["trr"], "regen_state": 0,
                 "horizons": [2]}]}"#,
        )
        .unwrap();
        let err = fail(
            r#"{"kind": "machines", "machines": 4, "repairmen": 1,
                           "lambda": 0.1, "mu": 1.0, "coverage": 0.9}"#,
        );
        assert!(
            err.contains("\"coverage\""),
            "machines has no coverage: {err}"
        );
        let err = fail(
            r#"{"kind": "compose", "crew": 2,
                           "components": [{"name": "a", "count": 1, "lambda": 0.1}]}"#,
        );
        assert!(err.contains("\"crew\"") && err.contains("crews"), "{err}");
        // Unknown-kind errors list every kind, including the new ones.
        let err = fail(r#"{"kind": "warp"}"#);
        assert!(
            err.contains("multiproc") && err.contains("compose"),
            "{err}"
        );
    }

    #[test]
    fn parses_multiproc_kind() {
        let spec = SweepSpec::parse(
            r#"{"horizons": [1], "models": [
                {"kind": "multiproc", "n_proc": 4, "n_mem": 3, "lambda_p": 1e-4,
                 "lambda_m": 5e-5, "coverage": 0.98, "mu": 1.0, "delta": 6.0}]}"#,
        )
        .unwrap();
        assert_eq!(spec.requests[0].name, "multiproc_4x3");
        assert_eq!(spec.requests[0].model.n_states(), 5 * 4 + 1);
        // Absorbing variant: delta optional, name tagged.
        let spec = SweepSpec::parse(
            r#"{"horizons": [1], "models": [
                {"kind": "multiproc", "n_proc": 2, "n_mem": 2, "lambda_p": 1e-4,
                 "lambda_m": 5e-5, "coverage": 0.9, "mu": 1.0, "absorbing": true}]}"#,
        )
        .unwrap();
        assert_eq!(spec.requests[0].name, "multiproc_2x2_ur");
        // With no coverage a failure only crashes the system, so the repair
        // rate is never used and may be zero.
        let spec = SweepSpec::parse(
            r#"{"horizons": [1], "models": [
                {"kind": "multiproc", "n_proc": 2, "n_mem": 2, "lambda_p": 1e-4,
                 "lambda_m": 5e-5, "coverage": 0, "mu": 0, "delta": 1.0}]}"#,
        )
        .unwrap();
        assert_eq!(spec.requests[0].model.n_states(), 2);
        for bad in [
            r#"{"kind": "multiproc", "n_proc": 2, "n_mem": 2, "lambda_p": 1e-4,
                "lambda_m": 5e-5, "coverage": 0.9, "mu": 1.0}"#, // no delta
            r#"{"kind": "multiproc", "n_proc": 2, "n_mem": 2, "lambda_p": 1e-4,
                "lambda_m": 5e-5, "coverage": 1.9, "mu": 1.0, "delta": 1.0}"#,
        ] {
            assert!(
                SweepSpec::parse(&format!(r#"{{"horizons": [1], "models": [{bad}]}}"#)).is_err(),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn parses_compose_kind_with_order_independent_name() {
        let forward = SweepSpec::parse(
            r#"{"horizons": [1], "models": [
                {"kind": "compose", "crews": 1, "reward": "capacity",
                 "uncovered": {"reboot": 6.0},
                 "components": [
                   {"name": "proc", "count": 4, "lambda": 1e-4, "mu": 1.0,
                    "coverage": 0.98, "required": 1},
                   {"name": "mem", "count": 3, "lambda": 5e-5, "mu": 1.0,
                    "coverage": 0.98, "required": 1}]}]}"#,
        )
        .unwrap();
        let reversed = SweepSpec::parse(
            r#"{"horizons": [1], "models": [
                {"kind": "compose", "crews": 1, "reward": "capacity",
                 "uncovered": {"reboot": 6.0},
                 "components": [
                   {"name": "mem", "count": 3, "lambda": 5e-5, "mu": 1.0,
                    "coverage": 0.98, "required": 1},
                   {"name": "proc", "count": 4, "lambda": 1e-4, "mu": 1.0,
                    "coverage": 0.98, "required": 1}]}]}"#,
        )
        .unwrap();
        assert_eq!(forward.requests[0].name, "compose_mem3_proc4");
        assert_eq!(reversed.requests[0].name, "compose_mem3_proc4");
        let fp = |spec: &SweepSpec| crate::model_fps(&spec.requests[0].model).full;
        assert_eq!(
            fp(&forward),
            fp(&reversed),
            "permuted component lists must fingerprint identically"
        );
        assert_eq!(forward.requests[0].model.n_states(), 5 * 4 + 1);
    }

    #[test]
    fn compose_state_cap_is_a_spec_error() {
        let err = SweepSpec::parse(
            r#"{"horizons": [1], "models": [
                {"kind": "compose", "max_states": 5,
                 "components": [
                   {"name": "m", "count": 9, "lambda": 0.1, "mu": 1.0}]}]}"#,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.contains("cap of 5 states"), "{err}");
        // Validation errors surface with context, not as panics.
        let err = SweepSpec::parse(
            r#"{"horizons": [1], "models": [
                {"kind": "compose", "components": [
                   {"name": "m", "count": 2, "lambda": 0.1,
                    "deps": [{"on": "ghost", "factor": 0.0}]}]}]}"#,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.contains("ghost"), "{err}");
    }

    /// The `"sensitivity"` sweep form expands a model into rate-scaled
    /// instances that share one *structural* fingerprint (the property the
    /// artifact graph's delta-warm path rides on) while their full/value
    /// fingerprints differ.
    #[test]
    fn sensitivity_expands_into_structure_sharing_rate_variants() {
        let spec = SweepSpec::parse(
            r#"{"horizons": [1, 100], "models": [
                {"kind": "two_state", "lambda": 1e-3, "mu": 1.0,
                 "sensitivity": {"param": "lambda", "grid": [0.5, 1, 2]}}]}"#,
        )
        .unwrap();
        assert_eq!(spec.requests.len(), 3);
        let names: Vec<&str> = spec.requests.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "two_state@lambda=0.5",
                "two_state@lambda=1",
                "two_state@lambda=2"
            ]
        );
        let fps: Vec<crate::ModelFps> = spec
            .requests
            .iter()
            .map(|r| crate::model_fps(&r.model))
            .collect();
        for fp in &fps[1..] {
            assert_eq!(
                fp.structure, fps[0].structure,
                "grid points must share the structural fingerprint"
            );
            assert_eq!(fp.unif_structure, fps[0].unif_structure);
            assert_ne!(fp.full, fps[0].full, "values must differ");
        }
        // The middle point is factor 1: bitwise the base model.
        assert_eq!(
            crate::model_fps(&spec.requests[1].model).full,
            crate::model_fps(&regenr_models::two_state::repairable_unit(1e-3, 1.0)).full,
        );
        // A raid rate param works through the params table; the explicit
        // "name" override still applies before the suffix.
        let spec = SweepSpec::parse(
            r#"{"horizons": [1], "models": [
                {"kind": "raid", "g": 2, "name": "r",
                 "sensitivity": {"param": "lambda_d", "grid": [0.25]}}]}"#,
        )
        .unwrap();
        assert_eq!(spec.requests[0].name, "r@lambda_d=0.25");
    }

    /// Bad sensitivity forms are named errors: unknown inner keys, bad
    /// grids, and params that are not scalable rates for the kind.
    #[test]
    fn rejects_bad_sensitivity_forms() {
        let fail = |model: &str| {
            SweepSpec::parse(&format!(r#"{{"horizons": [1], "models": [{model}]}}"#))
                .map(|_| ())
                .unwrap_err()
        };
        let two_state = |sens: &str| {
            format!(r#"{{"kind": "two_state", "lambda": 1e-3, "mu": 1.0, "sensitivity": {sens}}}"#)
        };
        // Unknown key inside the object, rejected by name.
        let err = fail(&two_state(r#"{"params": "lambda", "grid": [1]}"#));
        assert!(err.contains("\"params\""), "{err}");
        // Missing/empty/invalid grids.
        assert!(fail(&two_state(r#"{"param": "lambda"}"#)).contains("grid"));
        assert!(fail(&two_state(r#"{"param": "lambda", "grid": []}"#)).contains("empty"));
        // (Non-finite factors cannot arrive through JSON — the parser
        // rejects `1e999`/`NaN` as invalid numbers before validation.)
        for bad in ["[0]", "[-1]", "[\"2\"]"] {
            let err = fail(&two_state(&format!(
                r#"{{"param": "lambda", "grid": {bad}}}"#
            )));
            assert!(err.contains("positive finite"), "grid {bad}: {err}");
        }
        // A param that is not a scalable rate of the kind, with the valid
        // set listed — probabilities are not rates.
        let err = fail(&two_state(r#"{"param": "theta", "grid": [1]}"#));
        assert!(err.contains("\"theta\"") && err.contains("lambda"), "{err}");
        let err = fail(
            r#"{"kind": "raid", "g": 2,
                "sensitivity": {"param": "p_r", "grid": [1]}}"#,
        );
        assert!(err.contains("\"p_r\"") && err.contains("lambda_d"), "{err}");
        let err = fail(
            r#"{"kind": "cyclic", "n": 3,
                "sensitivity": {"param": "lambda", "grid": [1]}}"#,
        );
        assert!(err.contains("no scalable rates"), "{err}");
        let err = fail(
            r#"{"kind": "inline", "rates": [[0, 1, 1.0]], "rewards": [1, 0],
                "sensitivity": {"param": "lambda", "grid": [1]}}"#,
        );
        assert!(err.contains("\"rate\""), "{err}");
    }

    /// A grid explores its state space once and replays the rest; every
    /// point is still, bit for bit, the chain its own one-point grid
    /// builds.
    #[test]
    fn grid_points_equal_their_one_point_grids() {
        let bits = |c: &Ctmc| {
            let f = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let q = c.generator();
            (
                q.row_ptr().to_vec(),
                q.col_idx().to_vec(),
                f(q.values()),
                f(c.initial()),
                f(c.rewards()),
            )
        };
        let cluster = r#""kind": "compose", "reward": {"working": "web"}, "crews": 2,
            "components": [
              {"name": "web", "count": 4, "lambda": 0.01, "mu": 1.0, "coverage": 0.9,
               "required": 1, "deps": [{"on": "db", "factor": 2.0}]},
              {"name": "db", "count": 3, "lambda": 0.005, "mu": 0.5, "required": 1}]"#;
        for (model, param) in [
            (r#""kind": "raid", "g": 3, "absorbing": true"#, "mu_sr"),
            (r#""kind": "raid", "g": 4"#, "lambda_c"),
            (cluster, "lambda"),
            (cluster, "mu"),
            (
                r#""kind": "duplex", "lambda": 0.1, "mu": 1.0, "coverage": 0.9"#,
                "mu",
            ),
            (
                r#""kind": "multiproc", "n_proc": 3, "n_mem": 2, "lambda_p": 1e-3,
                   "lambda_m": 1e-3, "coverage": 0.9, "mu": 1, "delta": 2"#,
                "delta",
            ),
        ] {
            let requests = |grid: &str| {
                SweepSpec::parse(&format!(
                    r#"{{"horizons": [1], "models": [{{{model},
                        "sensitivity": {{"param": "{param}", "grid": {grid}}}}}]}}"#
                ))
                .unwrap()
                .requests
            };
            let factors = ["0.5", "1", "3", "1e-7"];
            let grid = requests(&format!("[{}]", factors.join(", ")));
            assert_eq!(grid.len(), factors.len());
            for (point, factor) in grid.iter().zip(factors) {
                let one = &requests(&format!("[{factor}]"))[0];
                assert_eq!(point.name, one.name);
                assert_eq!(bits(&point.model), bits(&one.model), "{}", point.name);
            }
        }
    }

    /// Point names print a factor in `Display` form up to 24 characters,
    /// which every ordinary factor fits, and in exponent form beyond, so
    /// extreme factors stay readable.
    #[test]
    fn grid_point_names_stay_short_for_extreme_factors() {
        let names = |grid: &str| -> Vec<String> {
            SweepSpec::parse(&format!(
                r#"{{"horizons": [1], "models": [{{"kind": "two_state",
                    "lambda": 1.0, "mu": 1.0,
                    "sensitivity": {{"param": "mu", "grid": {grid}}}}}]}}"#
            ))
            .unwrap()
            .requests
            .into_iter()
            .map(|r| r.name)
            .collect()
        };
        let factors = "[1e-321, 5e-324, 1e300, 0.5, 1, 2.75, 1e-7, 0.6123456789012345, 1e21]";
        let want = [
            "1e-321",
            "5e-324",
            "1e300",
            "0.5",
            "1",
            "2.75",
            "0.0000001",
            "0.6123456789012345",
            "1000000000000000000000",
        ];
        let got = names(factors);
        assert_eq!(got.len(), want.len());
        for (name, factor) in got.iter().zip(want) {
            assert_eq!(name, &format!("two_state@mu={factor}"));
        }
        assert_eq!(factor_name(1.5e-300), "1.5e-300");
        // 23 characters: still `Display`.
        assert_eq!(
            factor_name(1.2345678901234568e-5),
            "0.000012345678901234568"
        );
    }

    /// Compose and inline models scale through their own hooks: compose via
    /// `ComposeModel::with_scaled_rate`, inline by scaling every triple.
    #[test]
    fn sensitivity_scales_compose_and_inline_models() {
        let spec = SweepSpec::parse(
            r#"{"horizons": [1], "models": [
                {"kind": "compose", "components": [
                   {"name": "m", "count": 2, "lambda": 0.1, "mu": 1.0}],
                 "sensitivity": {"param": "lambda", "grid": [1, 2]}}]}"#,
        )
        .unwrap();
        assert_eq!(spec.requests.len(), 2);
        let fps: Vec<crate::ModelFps> = spec
            .requests
            .iter()
            .map(|r| crate::model_fps(&r.model))
            .collect();
        assert_eq!(fps[0].structure, fps[1].structure);
        assert_ne!(fps[0].full, fps[1].full);
        let spec = SweepSpec::parse(
            r#"{"horizons": [1], "models": [
                {"kind": "inline", "rates": [[0, 1, 0.5], [1, 0, 2.0]],
                 "rewards": [1, 0],
                 "sensitivity": {"param": "rate", "grid": [2]}}]}"#,
        )
        .unwrap();
        let q = spec.requests[0].model.generator();
        assert_eq!(q.get(0, 1), 1.0, "0.5 doubled");
        assert_eq!(q.get(1, 0), 4.0, "2.0 doubled");
    }

    /// The cache JSON carries the artifact-graph counters and the per-pool
    /// rebuild-cost gauge alongside bytes; `--stable` reports stay free of
    /// all of it.
    #[test]
    fn cache_stats_json_surfaces_graph_counters_and_costs() {
        let spec = SweepSpec::parse(
            r#"{"horizons": [1, 10], "models": [
                {"kind": "two_state", "lambda": 1e-3, "mu": 1.0,
                 "sensitivity": {"param": "lambda", "grid": [1, 2, 4]}}]}"#,
        )
        .unwrap();
        let engine = crate::Engine::with_cache_config(spec.options, spec.cache);
        let report = engine.sweep(&spec.requests);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let stats = engine.cache().stats();
        assert!(
            stats.derived_hits > 0,
            "a sensitivity grid must share structure facts: {stats:?}"
        );
        assert!(stats.structure.cost > 0, "facts carry a rebuild cost");
        let cache_json = cache_stats_json(&stats).to_string();
        for field in ["derived_hits", "rebinds", "orphaned", "\"cost\""] {
            assert!(cache_json.contains(field), "cache json lacks {field}");
        }
        let full = report_to_json(&report).to_string();
        let stable = stable_report_to_json(&report).to_string();
        for field in ["derived_hits", "rebinds", "orphaned"] {
            assert!(full.contains(field), "full report lacks {field}");
            assert!(!stable.contains(field), "stable report leaks {field}");
        }
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(SweepSpec::parse("{}").is_err());
        assert!(SweepSpec::parse(r#"{"models": []}"#).is_err());
        assert!(SweepSpec::parse(r#"{"models": [{"kind": "warp"}]}"#).is_err());
        assert!(
            SweepSpec::parse(r#"{"models": [{"kind": "cyclic", "n": 3}]}"#).is_err(),
            "no horizons anywhere must be rejected"
        );
        assert!(SweepSpec::parse(
            r#"{"horizons": [1], "method": "warp", "models": [{"kind": "cyclic", "n": 3}]}"#
        )
        .is_err());
        assert!(
            SweepSpec::parse(
                r#"{"horizons": [1],
                    "models": [{"kind": "cyclic", "n": 3, "regen_state": 1.5}]}"#
            )
            .is_err(),
            "a mistyped regen_state must be rejected, not silently defaulted"
        );
        // Wrong-typed strings are named errors, never silently defaulted.
        for (doc, field) in [
            (
                r#"{"horizons": [1], "method": 5, "models": [{"kind": "cyclic", "n": 3}]}"#,
                "method",
            ),
            (
                r#"{"horizons": [1], "models": [{"kind": "cyclic", "n": 3, "method": ["sr"]}]}"#,
                "method",
            ),
            (
                r#"{"horizons": [1], "models": [{"kind": "cyclic", "n": 3, "name": 7}]}"#,
                "name",
            ),
        ] {
            let err = SweepSpec::parse(doc).map(|_| ()).unwrap_err();
            assert!(
                err.contains(&format!("{field:?} must be a string")),
                "{doc}: {err}"
            );
        }
        // Values a model constructor or the chain builder cannot take are
        // spec errors naming the field, never a panic.
        for (model, field) in [
            (r#"{"kind": "raid", "g": 0}"#, "\"g\""),
            (
                r#"{"kind": "raid", "g": 65536}"#,
                "\"g\" must be in [1, 65535]",
            ),
            (r#"{"kind": "raid", "g": 2, "p_r": 0}"#, "\"p_r\""),
            (r#"{"kind": "raid", "g": 2, "p_r": 1.5}"#, "\"p_r\""),
            (r#"{"kind": "raid", "g": 2, "d_h": 256}"#, "\"d_h\""),
            (
                r#"{"kind": "machines", "machines": 4, "repairmen": 0, "lambda": 0.1, "mu": 1}"#,
                "\"repairmen\"",
            ),
            (
                r#"{"kind": "machines", "machines": 4, "repairmen": 1, "lambda": -1, "mu": 1}"#,
                "\"lambda\"",
            ),
            (
                r#"{"kind": "machines", "machines": 4, "repairmen": 1, "lambda": 0, "mu": 1}"#,
                "\"lambda\" must be positive",
            ),
            (
                r#"{"kind": "machines", "machines": 0, "repairmen": 1, "lambda": 0.1, "mu": 1}"#,
                "\"machines\" must be at least 1",
            ),
            (
                r#"{"kind": "multiproc", "n_proc": 0, "n_mem": 3, "lambda_p": 1e-3,
                    "lambda_m": 1e-3, "coverage": 0.9, "mu": 1, "delta": 2}"#,
                "\"n_proc\" must be at least 1",
            ),
            (
                r#"{"kind": "multiproc", "n_proc": 3, "n_mem": 0, "lambda_p": 1e-3,
                    "lambda_m": 1e-3, "coverage": 0.9, "mu": 1, "delta": 2}"#,
                "\"n_mem\" must be at least 1",
            ),
            (
                r#"{"kind": "multiproc", "n_proc": 3, "n_mem": 2, "lambda_p": 0,
                    "lambda_m": 1e-3, "coverage": 0.9, "mu": 1, "delta": 2}"#,
                "\"lambda_p\" must be positive",
            ),
            (
                r#"{"kind": "multiproc", "n_proc": 3, "n_mem": 2, "lambda_p": 1e-3,
                    "lambda_m": 1e-3, "coverage": 0.9, "mu": 0, "delta": 2}"#,
                "\"mu\" must be positive",
            ),
            (r#"{"kind": "cyclic", "n": 0}"#, "\"n\""),
            (r#"{"kind": "cyclic", "n": 1}"#, "\"n\""),
            (r#"{"kind": "cyclic", "n": 4000000000}"#, "\"n\""),
            (
                r#"{"kind": "two_state", "lambda": -1, "mu": 1}"#,
                "\"lambda\"",
            ),
            (
                r#"{"kind": "two_state", "lambda": -1, "absorbing": true}"#,
                "\"lambda\"",
            ),
            (
                r#"{"kind": "duplex", "lambda": 0.1, "mu": -1, "coverage": 0.9}"#,
                "\"mu\"",
            ),
            (
                r#"{"kind": "duplex", "lambda": -1, "mu": 1, "coverage": 0.9}"#,
                "\"lambda\"",
            ),
            // A rate that underflows to zero reaches the chain builder.
            (
                r#"{"kind": "raid", "g": 2,
                    "sensitivity": {"param": "lambda_d", "grid": [1e-320]}}"#,
                "failed to build",
            ),
            // So does an exit rate that overflows, on any grid point.
            (
                r#"{"kind": "compose", "components": [
                    {"name": "a", "count": 1, "lambda": 1e307, "mu": 1},
                    {"name": "b", "count": 1, "lambda": 1e307, "mu": 1}],
                    "sensitivity": {"param": "lambda", "grid": [1, 10]}}"#,
                "compose model failed to build: generator row 0 has the non-finite entry",
            ),
        ] {
            let doc = format!(r#"{{"horizons": [1], "models": [{model}]}}"#);
            let err = SweepSpec::parse(&doc).map(|_| ()).unwrap_err();
            assert!(err.contains(field), "{model}: {err}");
        }
    }
}

//! Declarative component-system models compiled to CTMCs.
//!
//! The paper's evaluation models were produced by the authors' in-house
//! modeling tool (Section 3); this module is the repo's equivalent: a system
//! is described as named **component classes** — each with a count, an
//! exponential per-unit failure rate, a repair rate, an imperfect coverage
//! probability, and a minimum number of working units the system needs —
//! plus a global repair-crew limit, a policy for uncovered failures, and a
//! reward expression. [`ComposeModel`] implements
//! [`ModelSpec`] over a packed per-class-count state
//! vector, so the breadth-first [`CtmcBuilder`] every family uses compiles
//! it to a validated [`Ctmc`].
//!
//! Dependency rules condition a class's failure rate on another class's
//! state: `Dependency { on, min_working, factor }` multiplies the failure
//! rate by `factor` whenever class `on` has fewer than `min_working` units
//! working. `factor = 0` models dormancy (a component cannot fail while its
//! power feed is down), `factor > 1` models stress.
//!
//! The `duplex`, `machines` and `multiproc` families are canned
//! compositions ([`ComposeModel::duplex`], [`ComposeModel::machines`],
//! [`ComposeModel::multiproc`]), and the engine's spec kinds of those names
//! build through them. Property tests (`tests/compose_equiv.rs`) and the
//! fixed-input unit tests below hold each preset bit for bit to a
//! hand-coded builder of the same chain (`tests/hand_coded/`). The RAID
//! model stays hand-coded as the paper anchor.

use crate::multiproc::MultiprocParams;
use regenr_ctmc::{Ctmc, CtmcBuilder, CtmcError, ModelSpec};
use std::fmt;

/// A failure-rate modifier conditioned on another class's state.
#[derive(Clone, Debug, PartialEq)]
pub struct Dependency {
    /// Name of the watched class.
    pub on: String,
    /// The rule fires while the watched class has fewer than this many
    /// working units.
    pub min_working: u32,
    /// Multiplier applied to the failure rate while the rule fires
    /// (`0` = dormant, `> 1` = stressed).
    pub factor: f64,
}

/// One class of identical components.
#[derive(Clone, Debug, PartialEq)]
pub struct ComponentClass {
    /// Class name (unique within a model).
    pub name: String,
    /// Number of units.
    pub count: u32,
    /// Per-unit failure rate.
    pub lambda: f64,
    /// Per-crew repair rate for this class.
    pub mu: f64,
    /// Probability a failure is covered (reconfiguration succeeds).
    pub coverage: f64,
    /// Minimum working units for the system to be *up*.
    pub required: u32,
    /// Failure-rate modifiers.
    pub deps: Vec<Dependency>,
}

impl ComponentClass {
    /// A class with perfect coverage, no up-requirement and no dependencies.
    pub fn new(name: impl Into<String>, count: u32, lambda: f64, mu: f64) -> Self {
        ComponentClass {
            name: name.into(),
            count,
            lambda,
            mu,
            coverage: 1.0,
            required: 0,
            deps: Vec::new(),
        }
    }

    /// Sets the coverage probability.
    pub fn coverage(mut self, coverage: f64) -> Self {
        self.coverage = coverage;
        self
    }

    /// Sets the minimum working units for system-up.
    pub fn required(mut self, required: u32) -> Self {
        self.required = required;
        self
    }

    /// Adds a dependency rule.
    pub fn dep(mut self, on: impl Into<String>, min_working: u32, factor: f64) -> Self {
        self.deps.push(Dependency {
            on: on.into(),
            min_working,
            factor,
        });
        self
    }
}

/// What happens on an uncovered failure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UncoveredPolicy {
    /// The system is lost: absorbing `Failed` state (mission reliability).
    Absorbing,
    /// The system crashes and reboots to the full configuration at this rate.
    Reboot(f64),
}

/// Reward expression evaluated per state.
#[derive(Clone, Debug, PartialEq)]
pub enum RewardKind {
    /// `1` when the system is down — `TRR(t)` is unreliability/unavailability.
    Down,
    /// `1` when the system is up.
    Up,
    /// Minimum working count over all classes while up, `0` when down
    /// (computational capacity).
    Capacity,
    /// Working count of one class.
    Working(String),
}

/// Validation errors of a composition.
#[derive(Clone, Debug, PartialEq)]
pub enum ComposeError {
    /// A model needs at least one component class.
    NoClasses,
    /// Two classes share a name.
    DuplicateClass(String),
    /// A class has zero units.
    EmptyClass(String),
    /// A rate/probability parameter is out of range.
    BadParameter {
        /// Offending class.
        class: String,
        /// What is wrong.
        what: &'static str,
    },
    /// A dependency references an unknown class.
    UnknownDependency {
        /// Depending class.
        class: String,
        /// Unresolved name.
        on: String,
    },
    /// A class depends on itself.
    SelfDependency(String),
    /// The packed state vector does not fit in 64 bits.
    StateTooWide {
        /// Total bits required.
        bits: u32,
    },
    /// The reboot rate is not positive and finite.
    BadRebootRate(f64),
    /// `down_absorbing` lumps *every* system-down transition into the
    /// absorbing `Failed` state, which only makes sense when uncovered
    /// failures go there too.
    DownAbsorbingNeedsAbsorbing,
    /// A `working(class)` reward references an unknown class.
    UnknownRewardClass(String),
    /// A rate-scaling request named an unknown parameter or used a factor
    /// that is not positive and finite (see
    /// [`ComposeModel::with_scaled_rate`]).
    BadScale {
        /// The requested parameter.
        param: String,
        /// The requested factor.
        factor: f64,
    },
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::NoClasses => write!(f, "a composition needs at least one class"),
            ComposeError::DuplicateClass(name) => write!(f, "duplicate class {name:?}"),
            ComposeError::EmptyClass(name) => write!(f, "class {name:?} has count 0"),
            ComposeError::BadParameter { class, what } => {
                write!(f, "class {class:?}: {what}")
            }
            ComposeError::UnknownDependency { class, on } => {
                write!(f, "class {class:?} depends on unknown class {on:?}")
            }
            ComposeError::SelfDependency(name) => {
                write!(f, "class {name:?} depends on itself")
            }
            ComposeError::StateTooWide { bits } => write!(
                f,
                "packed state vector needs {bits} bits, more than the 64 available"
            ),
            ComposeError::BadRebootRate(rate) => {
                write!(f, "reboot rate {rate} must be positive and finite")
            }
            ComposeError::DownAbsorbingNeedsAbsorbing => write!(
                f,
                "down_absorbing requires the absorbing uncovered policy (not reboot)"
            ),
            ComposeError::BadScale { param, factor } => write!(
                f,
                "cannot scale {param:?} by {factor} \
                 (param must be \"lambda\" or \"mu\", factor positive and finite)"
            ),
            ComposeError::UnknownRewardClass(name) => {
                write!(f, "reward references unknown class {name:?}")
            }
        }
    }
}

impl std::error::Error for ComposeError {}

/// State of a composition: per-class working counts packed into a `u64`,
/// plus the two special sinks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ComposeState {
    /// Working counts, packed per class (see [`ComposeModel::working`]).
    Up(u64),
    /// Absorbing system-loss state.
    Failed,
    /// Crashed by an uncovered failure, awaiting reboot.
    Crashed,
}

/// Resolved dependency: class index, threshold, factor.
type ResolvedDep = (usize, u32, f64);

/// A validated component-system model, compilable via
/// [`ModelSpec`].
///
/// Class declaration order is semantic: repair crews are assigned to failed
/// components in class order, and transition emission (hence BFS state
/// numbering) follows it. Spec-level parsing sorts classes by name so that
/// permuted component listings compile to identical chains.
#[derive(Clone, Debug)]
pub struct ComposeModel {
    classes: Vec<ComponentClass>,
    crews: u32,
    uncovered: UncoveredPolicy,
    down_absorbing: bool,
    reward: RewardKind,
    /// Bit offset of each class in the packed state.
    shifts: Vec<u32>,
    /// Bit width of each class.
    widths: Vec<u32>,
    /// Per-class dependencies with the watched class resolved to an index.
    resolved_deps: Vec<Vec<ResolvedDep>>,
    /// Class index for [`RewardKind::Working`] (0 otherwise).
    reward_class: usize,
}

impl ComposeModel {
    /// Validates and compiles the class structure.
    pub fn new(
        classes: Vec<ComponentClass>,
        crews: u32,
        uncovered: UncoveredPolicy,
        down_absorbing: bool,
        reward: RewardKind,
    ) -> Result<Self, ComposeError> {
        if classes.is_empty() {
            return Err(ComposeError::NoClasses);
        }
        for (i, c) in classes.iter().enumerate() {
            if classes[..i].iter().any(|o| o.name == c.name) {
                return Err(ComposeError::DuplicateClass(c.name.clone()));
            }
            if c.count == 0 {
                return Err(ComposeError::EmptyClass(c.name.clone()));
            }
            let bad = |what| ComposeError::BadParameter {
                class: c.name.clone(),
                what,
            };
            if !(c.lambda.is_finite() && c.lambda >= 0.0) {
                return Err(bad("lambda must be finite and >= 0"));
            }
            if !(c.mu.is_finite() && c.mu >= 0.0) {
                return Err(bad("mu must be finite and >= 0"));
            }
            if !(0.0..=1.0).contains(&c.coverage) {
                return Err(bad("coverage must be in [0, 1]"));
            }
            if c.required > c.count {
                return Err(bad("required exceeds count"));
            }
            for d in &c.deps {
                if d.on == c.name {
                    return Err(ComposeError::SelfDependency(c.name.clone()));
                }
                if !(d.factor.is_finite() && d.factor >= 0.0) {
                    return Err(bad("dependency factor must be finite and >= 0"));
                }
            }
        }
        let index_of = |name: &str| classes.iter().position(|c| c.name == name);
        let mut resolved_deps = Vec::with_capacity(classes.len());
        for c in &classes {
            let mut deps = Vec::with_capacity(c.deps.len());
            for d in &c.deps {
                let on = index_of(&d.on).ok_or_else(|| ComposeError::UnknownDependency {
                    class: c.name.clone(),
                    on: d.on.clone(),
                })?;
                deps.push((on, d.min_working, d.factor));
            }
            resolved_deps.push(deps);
        }
        let mut shifts = Vec::with_capacity(classes.len());
        let mut widths = Vec::with_capacity(classes.len());
        let mut total: u32 = 0;
        for c in &classes {
            let width = 32 - c.count.leading_zeros();
            shifts.push(total);
            widths.push(width);
            total += width;
        }
        if total > 64 {
            return Err(ComposeError::StateTooWide { bits: total });
        }
        if let UncoveredPolicy::Reboot(delta) = uncovered {
            if !(delta.is_finite() && delta > 0.0) {
                return Err(ComposeError::BadRebootRate(delta));
            }
            if down_absorbing {
                return Err(ComposeError::DownAbsorbingNeedsAbsorbing);
            }
        }
        let reward_class = match &reward {
            RewardKind::Working(name) => {
                index_of(name).ok_or_else(|| ComposeError::UnknownRewardClass(name.clone()))?
            }
            _ => 0,
        };
        Ok(ComposeModel {
            classes,
            crews,
            uncovered,
            down_absorbing,
            reward,
            shifts,
            widths,
            resolved_deps,
            reward_class,
        })
    }

    /// The duplex system of [`crate::redundant`] as a composition: one class
    /// of two units, coverage `c`, one crew, uncovered and system-down
    /// transitions both absorbing, reward = failure indicator. States are
    /// numbered duplex, simplex, failed; at `c = 0` the simplex state is
    /// unreachable and never numbered.
    pub fn duplex(lambda: f64, mu: f64, coverage: f64) -> Result<Self, ComposeError> {
        ComposeModel::new(
            vec![ComponentClass::new("unit", 2, lambda, mu)
                .coverage(coverage)
                .required(1)],
            1,
            UncoveredPolicy::Absorbing,
            true,
            RewardKind::Down,
        )
    }

    /// The machines-repairman performability model: one class of `machines`
    /// units failing at `λ` each, `repairmen` crews repairing at `μ` each,
    /// reward = number of working machines (so `TRR(t)` is the expected
    /// capacity). State `k` failed machines is numbered `k`.
    pub fn machines(
        machines: u32,
        repairmen: u32,
        lambda: f64,
        mu: f64,
    ) -> Result<Self, ComposeError> {
        ComposeModel::new(
            vec![ComponentClass::new("machine", machines, lambda, mu)],
            repairmen,
            UncoveredPolicy::Absorbing,
            false,
            RewardKind::Capacity,
        )
    }

    /// The degradable multiprocessor of [`crate::multiproc`] as a
    /// composition: `proc` and `mem` classes sharing one crew (processors
    /// first), coverage split per failure, capacity reward `min(p, m)`.
    pub fn multiproc(params: &MultiprocParams) -> Result<Self, ComposeError> {
        let uncovered = if params.absorbing_crash {
            UncoveredPolicy::Absorbing
        } else {
            UncoveredPolicy::Reboot(params.delta)
        };
        ComposeModel::new(
            vec![
                ComponentClass::new("proc", params.n_proc, params.lambda_p, params.mu)
                    .coverage(params.coverage)
                    .required(1),
                ComponentClass::new("mem", params.n_mem, params.lambda_m, params.mu)
                    .coverage(params.coverage)
                    .required(1),
            ],
            1,
            uncovered,
            false,
            RewardKind::Capacity,
        )
    }

    /// The component classes, in declaration order.
    pub fn classes(&self) -> &[ComponentClass] {
        &self.classes
    }

    /// Returns a copy of this model with every class's failure rate
    /// (`param = "lambda"`) or repair rate (`param = "mu"`) multiplied by
    /// `factor`. This is the rate-scaling hook sensitivity sweeps use:
    /// a positive finite factor never changes which rates are zero, so the
    /// scaled model explores the identical state space and the compiled
    /// chain shares the base model's *structural* fingerprint by
    /// construction — the engine's artifact graph can re-bind cached
    /// plans and chain facts across the whole grid.
    pub fn with_scaled_rate(&self, param: &str, factor: f64) -> Result<Self, ComposeError> {
        let bad = || ComposeError::BadScale {
            param: param.to_string(),
            factor,
        };
        if !(factor.is_finite() && factor > 0.0) {
            return Err(bad());
        }
        let mut classes = self.classes.clone();
        for c in &mut classes {
            match param {
                "lambda" => c.lambda *= factor,
                "mu" => c.mu *= factor,
                _ => return Err(bad()),
            }
        }
        ComposeModel::new(
            classes,
            self.crews,
            self.uncovered,
            self.down_absorbing,
            self.reward.clone(),
        )
    }

    /// Order-independent default model name: class names and counts in
    /// sorted order, e.g. `compose_mem3_proc4`.
    pub fn default_name(&self) -> String {
        let mut parts: Vec<String> = self
            .classes
            .iter()
            .map(|c| format!("{}{}", c.name, c.count))
            .collect();
        parts.sort();
        format!("compose_{}", parts.join("_"))
    }

    /// Working count of class `i` in a packed state.
    pub fn working(&self, packed: u64, i: usize) -> u32 {
        ((packed >> self.shifts[i]) & ((1u64 << self.widths[i]) - 1)) as u32
    }

    /// Whether every class of a packed state has its required units
    /// working.
    fn is_up(&self, packed: u64) -> bool {
        self.classes
            .iter()
            .enumerate()
            .all(|(i, c)| self.working(packed, i) >= c.required)
    }

    /// The packed state with every unit working.
    fn full(&self) -> u64 {
        self.classes
            .iter()
            .zip(&self.shifts)
            .map(|(c, &s)| (c.count as u64) << s)
            .sum()
    }

    /// Compiles the model, exploring at most `max_states` states; more is
    /// [`CtmcError::StateSpaceExceeded`], which `compose` specs report as an
    /// input error.
    pub fn build(&self, max_states: usize) -> Result<Ctmc, CtmcError> {
        CtmcBuilder::with_max_states(max_states).explore(self, |_, _| {})
    }
}

impl ModelSpec for ComposeModel {
    type State = ComposeState;

    fn initial(&self) -> Vec<(ComposeState, f64)> {
        vec![(ComposeState::Up(self.full()), 1.0)]
    }

    fn reward(&self, state: &ComposeState) -> f64 {
        let packed = match *state {
            ComposeState::Up(packed) => packed,
            ComposeState::Failed | ComposeState::Crashed => {
                return match self.reward {
                    RewardKind::Down => 1.0,
                    _ => 0.0,
                }
            }
        };
        let up = self.is_up(packed);
        match &self.reward {
            RewardKind::Down => {
                if up {
                    0.0
                } else {
                    1.0
                }
            }
            RewardKind::Up => {
                if up {
                    1.0
                } else {
                    0.0
                }
            }
            RewardKind::Capacity => {
                if up {
                    (0..self.classes.len())
                        .map(|i| self.working(packed, i))
                        .min()
                        .unwrap_or(0) as f64
                } else {
                    0.0
                }
            }
            RewardKind::Working(_) => self.working(packed, self.reward_class) as f64,
        }
    }

    fn transitions(&self, state: &ComposeState) -> Vec<(ComposeState, f64)> {
        let packed = match *state {
            ComposeState::Up(packed) => packed,
            ComposeState::Failed => return Vec::new(),
            ComposeState::Crashed => {
                return match self.uncovered {
                    UncoveredPolicy::Reboot(delta) => {
                        vec![(ComposeState::Up(self.full()), delta)]
                    }
                    // Unreachable: Crashed only exists under Reboot.
                    UncoveredPolicy::Absorbing => Vec::new(),
                };
            }
        };
        let up = self.is_up(packed);
        // At most a covered and an uncovered failure and a repair per class.
        let mut out = Vec::with_capacity(3 * self.classes.len());
        // Failures, in class order, covered branch before uncovered — the
        // exact emission order (and arithmetic: `w·λ` then `·c` / `·(1−c)`)
        // of the hand-coded families, so BFS numbering and every rate bit
        // pattern match them. The order depends only on the state and on
        // which rates are positive, so the rate variants of a sensitivity
        // grid emit alike and replay the first point's exploration. A
        // target differs from `packed` in one class's field, by one unit,
        // which never carries into the next field.
        for (i, c) in self.classes.iter().enumerate() {
            let working = self.working(packed, i);
            if working == 0 {
                continue;
            }
            let mut rate = working as f64 * c.lambda;
            for &(on, min_working, factor) in &self.resolved_deps[i] {
                if self.working(packed, on) < min_working {
                    rate *= factor;
                }
            }
            if rate <= 0.0 {
                continue;
            }
            // Only class `i` loses a unit, so the target is up exactly when
            // this state is and class `i` keeps its requirement.
            if self.down_absorbing && !(up && working > c.required) {
                // Covered or not, the system is lost: lump the full rate
                // into the absorbing state (bitwise `rate`, not
                // `rate·c + rate·(1−c)`).
                out.push((ComposeState::Failed, rate));
                continue;
            }
            if c.coverage > 0.0 {
                let target = packed - (1u64 << self.shifts[i]);
                out.push((ComposeState::Up(target), rate * c.coverage));
            }
            if c.coverage < 1.0 {
                let sink = match self.uncovered {
                    UncoveredPolicy::Absorbing => ComposeState::Failed,
                    UncoveredPolicy::Reboot(_) => ComposeState::Crashed,
                };
                out.push((sink, rate * (1.0 - c.coverage)));
            }
        }
        // Repairs: crews are assigned to failed components in class order.
        let mut crews_left = self.crews;
        for (i, c) in self.classes.iter().enumerate() {
            if crews_left == 0 {
                break;
            }
            let assigned = (c.count - self.working(packed, i)).min(crews_left);
            crews_left -= assigned;
            if assigned > 0 && c.mu > 0.0 {
                let target = packed + (1u64 << self.shifts[i]);
                out.push((ComposeState::Up(target), assigned as f64 * c.mu));
            }
        }
        out
    }
}

/// The hand-coded oracle chains, shared with `tests/compose_equiv.rs`.
#[cfg(test)]
#[path = "../tests/hand_coded/mod.rs"]
mod hand_coded;

#[cfg(test)]
mod tests {
    use super::*;
    use regenr_transient::{MeasureKind, SrOptions, SrSolver};

    use hand_coded::assert_ctmc_bitwise_eq;

    /// A state cap no test model comes near.
    const CAP: usize = 10_000;

    /// Builds `model`, collecting its state table through the explorer's
    /// numbering callback.
    fn build_with_states(model: &ComposeModel) -> (Ctmc, Vec<ComposeState>) {
        let mut states = Vec::new();
        let ctmc = CtmcBuilder::with_max_states(CAP)
            .explore(model, |_, s| states.push(*s))
            .unwrap();
        (ctmc, states)
    }

    #[test]
    fn duplex_composition_is_bitwise_identical() {
        for &(lambda, mu, coverage) in &[(0.01, 1.0, 0.95), (0.3, 2.5, 0.5), (1e-4, 0.7, 1.0)] {
            let hand = hand_coded::duplex(lambda, mu, coverage);
            let composed = ComposeModel::duplex(lambda, mu, coverage)
                .unwrap()
                .build(CAP)
                .unwrap();
            assert_ctmc_bitwise_eq(&hand, &composed);
        }
    }

    #[test]
    fn machines_composition_is_bitwise_identical() {
        for &(machines, repairmen) in &[(8u32, 2u32), (1, 1), (5, 5), (12, 3)] {
            let hand = hand_coded::machines(machines, repairmen, 0.13, 1.7);
            let composed = ComposeModel::machines(machines, repairmen, 0.13, 1.7)
                .unwrap()
                .build(CAP)
                .unwrap();
            assert_ctmc_bitwise_eq(&hand, &composed);
        }
    }

    #[test]
    fn multiproc_composition_is_bitwise_identical() {
        for absorbing_crash in [false, true] {
            let params = MultiprocParams {
                absorbing_crash,
                ..Default::default()
            };
            let hand = hand_coded::multiproc(&params);
            let composed = ComposeModel::multiproc(&params)
                .unwrap()
                .build(CAP)
                .unwrap();
            assert_ctmc_bitwise_eq(&hand, &composed);
        }
    }

    #[test]
    fn multiproc_perfect_coverage_composition_matches() {
        let params = MultiprocParams {
            coverage: 1.0,
            ..Default::default()
        };
        let hand = hand_coded::multiproc(&params);
        let composed = ComposeModel::multiproc(&params)
            .unwrap()
            .build(CAP)
            .unwrap();
        assert_ctmc_bitwise_eq(&hand, &composed);
    }

    #[test]
    fn dormant_dependency_suppresses_failures() {
        // Disks cannot fail while the (single) power feed is down.
        let model = ComposeModel::new(
            vec![
                ComponentClass::new("power", 1, 0.01, 2.0).required(1),
                ComponentClass::new("disk", 2, 0.05, 1.0)
                    .required(1)
                    .dep("power", 1, 0.0),
            ],
            1,
            UncoveredPolicy::Absorbing,
            false,
            RewardKind::Down,
        )
        .unwrap();
        let (ctmc, states) = build_with_states(&model);
        // Find the state with power down, both disks up; its only outgoing
        // transitions must be the repair (disk failures are dormant).
        let dark = states
            .iter()
            .position(|s| matches!(s, ComposeState::Up(p) if model.working(*p, 0) == 0 && model.working(*p, 1) == 2))
            .expect("power-down state reachable");
        let row: Vec<_> = ctmc
            .generator()
            .row(dark)
            .filter(|&(j, _)| j != dark)
            .collect();
        assert_eq!(row.len(), 1, "only the power repair may leave {row:?}");
        assert_eq!(row[0].1, 2.0);
    }

    #[test]
    fn stress_dependency_raises_failure_rate() {
        // Remaining units fail 3× faster once the pool is degraded.
        let model = ComposeModel::new(
            vec![
                ComponentClass::new("unit", 3, 0.1, 1.0)
                    .required(1)
                    .dep("spare", 1, 3.0),
                ComponentClass::new("spare", 1, 0.1, 1.0),
            ],
            1,
            UncoveredPolicy::Absorbing,
            false,
            RewardKind::Up,
        )
        .unwrap();
        let (ctmc, states) = build_with_states(&model);
        let find = |unit: u32, spare: u32| {
            states
                .iter()
                .position(|s| matches!(s, ComposeState::Up(p) if model.working(*p, 0) == unit && model.working(*p, 1) == spare))
                .unwrap()
        };
        let calm = find(3, 1);
        let stressed = find(3, 0);
        let calm_rate = ctmc.generator().get(calm, find(2, 1));
        let stressed_rate = ctmc.generator().get(stressed, find(2, 0));
        assert_eq!(calm_rate, 3.0 * 0.1);
        assert_eq!(stressed_rate, 3.0 * 0.1 * 3.0);
    }

    #[test]
    fn k_of_n_with_coverage_reaches_absorbing_failed() {
        let model = ComposeModel::new(
            vec![ComponentClass::new("node", 5, 0.02, 1.0)
                .coverage(0.95)
                .required(3)],
            2,
            UncoveredPolicy::Absorbing,
            true,
            RewardKind::Down,
        )
        .unwrap();
        let (ctmc, states) = build_with_states(&model);
        // Working counts 5, 4, 3 plus the absorbing Failed state: any
        // transition below the k = 3 threshold is lumped.
        assert_eq!(ctmc.n_states(), 4);
        let failed = states
            .iter()
            .position(|s| *s == ComposeState::Failed)
            .unwrap();
        assert_eq!(ctmc.exit_rate(failed), 0.0);
        assert_eq!(ctmc.rewards()[failed], 1.0);
    }

    #[test]
    fn state_cap_is_a_spec_level_error() {
        let model = ComposeModel::machines(100, 4, 0.1, 1.0).unwrap();
        match model.build(10) {
            Err(CtmcError::StateSpaceExceeded { max_states: 10 }) => {}
            other => panic!("expected StateSpaceExceeded, got {other:?}"),
        }
    }

    #[test]
    fn default_name_is_order_independent() {
        let a = ComposeModel::multiproc(&MultiprocParams::default()).unwrap();
        assert_eq!(a.default_name(), "compose_mem3_proc4");
    }

    #[test]
    fn validation_rejects_bad_structures() {
        let unit = || ComponentClass::new("unit", 2, 0.1, 1.0);
        let build = |classes: Vec<ComponentClass>| {
            ComposeModel::new(
                classes,
                1,
                UncoveredPolicy::Absorbing,
                false,
                RewardKind::Down,
            )
        };
        assert_eq!(build(vec![]).unwrap_err(), ComposeError::NoClasses);
        assert_eq!(
            build(vec![unit(), unit()]).unwrap_err(),
            ComposeError::DuplicateClass("unit".into())
        );
        assert_eq!(
            build(vec![ComponentClass::new("unit", 0, 0.1, 1.0)]).unwrap_err(),
            ComposeError::EmptyClass("unit".into())
        );
        assert!(matches!(
            build(vec![unit().coverage(1.5)]).unwrap_err(),
            ComposeError::BadParameter { .. }
        ));
        assert!(matches!(
            build(vec![unit().required(3)]).unwrap_err(),
            ComposeError::BadParameter { .. }
        ));
        assert_eq!(
            build(vec![unit().dep("ghost", 1, 2.0)]).unwrap_err(),
            ComposeError::UnknownDependency {
                class: "unit".into(),
                on: "ghost".into()
            }
        );
        assert_eq!(
            build(vec![unit().dep("unit", 1, 2.0)]).unwrap_err(),
            ComposeError::SelfDependency("unit".into())
        );
        let wide: Vec<ComponentClass> = ["a", "b", "c"]
            .iter()
            .map(|n| ComponentClass::new(*n, u32::MAX, 0.1, 1.0))
            .collect();
        assert_eq!(
            build(wide).unwrap_err(),
            ComposeError::StateTooWide { bits: 96 }
        );
        assert_eq!(
            ComposeModel::new(
                vec![unit()],
                1,
                UncoveredPolicy::Reboot(0.0),
                false,
                RewardKind::Down
            )
            .unwrap_err(),
            ComposeError::BadRebootRate(0.0)
        );
        assert_eq!(
            ComposeModel::new(
                vec![unit()],
                1,
                UncoveredPolicy::Reboot(1.0),
                true,
                RewardKind::Down
            )
            .unwrap_err(),
            ComposeError::DownAbsorbingNeedsAbsorbing
        );
        assert_eq!(
            ComposeModel::new(
                vec![unit()],
                1,
                UncoveredPolicy::Absorbing,
                false,
                RewardKind::Working("ghost".into())
            )
            .unwrap_err(),
            ComposeError::UnknownRewardClass("ghost".into())
        );
    }

    /// The sensitivity-scaling hook: a scaled model explores the identical
    /// state space (same pattern, so same structural fingerprint) with the
    /// targeted rates multiplied; bad params/factors are rejected.
    #[test]
    fn scaled_rates_share_the_state_space_and_reject_bad_requests() {
        let model = ComposeModel::new(
            vec![
                ComponentClass::new("a", 2, 0.1, 1.0).required(1),
                ComponentClass::new("b", 1, 0.05, 0.5),
            ],
            1,
            UncoveredPolicy::Absorbing,
            false,
            RewardKind::Down,
        )
        .unwrap();
        let scaled = model.with_scaled_rate("lambda", 2.0).unwrap();
        assert_eq!(scaled.classes()[0].lambda, 0.2);
        assert_eq!(scaled.classes()[0].mu, 1.0, "mu untouched");
        let base = model.build(CAP).unwrap();
        let twice = scaled.build(CAP).unwrap();
        assert_eq!(base.n_states(), twice.n_states());
        assert_eq!(base.generator().row_ptr(), twice.generator().row_ptr());
        assert_eq!(base.generator().col_idx(), twice.generator().col_idx());
        for (bad_param, bad_factor) in [("rate", 2.0), ("mu", 0.0), ("mu", f64::NAN)] {
            assert!(
                model.with_scaled_rate(bad_param, bad_factor).is_err(),
                "{bad_param} × {bad_factor} accepted"
            );
        }
    }

    #[test]
    fn state_space_is_machine_count_plus_one() {
        let ctmc = ComposeModel::machines(8, 2, 0.1, 1.0)
            .unwrap()
            .build(CAP)
            .unwrap();
        assert_eq!(ctmc.n_states(), 9);
        assert_eq!(ctmc.max_reward(), 8.0);
    }

    #[test]
    fn capacity_decreases_from_full() {
        let ctmc = ComposeModel::machines(4, 1, 0.2, 1.0)
            .unwrap()
            .build(CAP)
            .unwrap();
        let sr = SrSolver::new(&ctmc, SrOptions::default());
        let early = sr.solve(MeasureKind::Trr, 0.1).value;
        let late = sr.solve(MeasureKind::Trr, 100.0).value;
        assert!(early > late, "capacity must decay toward steady state");
        assert!(late > 0.0 && early < 4.0);
    }

    #[test]
    fn single_machine_reduces_to_two_state() {
        let ctmc = ComposeModel::machines(1, 1, 0.3, 1.1)
            .unwrap()
            .build(CAP)
            .unwrap();
        let sr = SrSolver::new(&ctmc, SrOptions::default());
        let t = 2.0;
        // Availability = 1 − UA of the two-state model.
        let ua = crate::two_state::unavailability(0.3, 1.1, t);
        assert!((sr.solve(MeasureKind::Trr, t).value - (1.0 - ua)).abs() < 1e-11);
    }
}

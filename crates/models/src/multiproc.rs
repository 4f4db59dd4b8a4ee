//! Fault-tolerant multiprocessor performability model.
//!
//! The classic degradable-system example of the performability literature
//! (Meyer-style): `P` processors and `M` memory modules, each failing
//! independently; a failure is *covered* (successful reconfiguration) with
//! probability `c`, otherwise the whole system crashes. A single repairman
//! restores modules (processors first); a crashed system is rebooted to full
//! configuration at rate `δ` (or, in the mission-reliability variant, the
//! crash is absorbing). Computational capacity — the reward rate — is
//! `min(p, m)` for an operational configuration, `0` otherwise, giving a
//! genuinely multi-level reward structure.

use regenr_ctmc::{Ctmc, CtmcBuilder, CtmcError, ModelSpec};

/// Parameters of the multiprocessor model.
#[derive(Clone, Copy, Debug)]
pub struct MultiprocParams {
    /// Number of processors.
    pub n_proc: u32,
    /// Number of memory modules.
    pub n_mem: u32,
    /// Per-processor failure rate.
    pub lambda_p: f64,
    /// Per-memory failure rate.
    pub lambda_m: f64,
    /// Coverage probability of a failure.
    pub coverage: f64,
    /// Repair rate of the single repairman (processors first).
    pub mu: f64,
    /// Reboot rate after a crash; ignored in the absorbing variant.
    pub delta: f64,
    /// `true`: crash state absorbing (mission reliability, `A = 1`).
    pub absorbing_crash: bool,
}

impl Default for MultiprocParams {
    fn default() -> Self {
        MultiprocParams {
            n_proc: 4,
            n_mem: 3,
            lambda_p: 1e-4,
            lambda_m: 5e-5,
            coverage: 0.98,
            mu: 1.0,
            delta: 6.0,
            absorbing_crash: false,
        }
    }
}

/// State of the multiprocessor model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MultiprocState {
    /// `p` processors and `m` memories operational (the system is *up* iff
    /// `p ≥ 1` and `m ≥ 1`; fully failed-by-attrition configurations are
    /// still repairable).
    Up {
        /// Operational processors.
        p: u32,
        /// Operational memories.
        m: u32,
    },
    /// Crashed by an uncovered failure.
    Crashed,
}

/// The model, compilable via [`ModelSpec`].
#[derive(Clone, Copy, Debug)]
pub struct MultiprocModel {
    /// Model parameters.
    pub params: MultiprocParams,
}

impl MultiprocModel {
    /// New model from parameters.
    pub fn new(params: MultiprocParams) -> Self {
        MultiprocModel { params }
    }

    /// Compiles the reachable chain (full configuration has index 0).
    pub fn build(&self) -> Result<Ctmc, CtmcError> {
        CtmcBuilder::default().explore(self, |_, _| {})
    }
}

impl ModelSpec for MultiprocModel {
    type State = MultiprocState;

    fn initial(&self) -> Vec<(MultiprocState, f64)> {
        vec![(
            MultiprocState::Up {
                p: self.params.n_proc,
                m: self.params.n_mem,
            },
            1.0,
        )]
    }

    fn reward(&self, state: &MultiprocState) -> f64 {
        match *state {
            MultiprocState::Up { p, m } if p >= 1 && m >= 1 => p.min(m) as f64,
            _ => 0.0,
        }
    }

    fn transitions(&self, state: &MultiprocState) -> Vec<(MultiprocState, f64)> {
        let pr = &self.params;
        let mut out = Vec::with_capacity(5);
        match *state {
            MultiprocState::Crashed => {
                if !pr.absorbing_crash {
                    out.push((
                        MultiprocState::Up {
                            p: pr.n_proc,
                            m: pr.n_mem,
                        },
                        pr.delta,
                    ));
                }
            }
            MultiprocState::Up { p, m } => {
                // Failures with coverage split; uncovered failures crash the
                // system regardless of redundancy.
                if p > 0 {
                    let rate = p as f64 * pr.lambda_p;
                    if pr.coverage > 0.0 {
                        out.push((MultiprocState::Up { p: p - 1, m }, rate * pr.coverage));
                    }
                    if pr.coverage < 1.0 {
                        out.push((MultiprocState::Crashed, rate * (1.0 - pr.coverage)));
                    }
                }
                if m > 0 {
                    let rate = m as f64 * pr.lambda_m;
                    if pr.coverage > 0.0 {
                        out.push((MultiprocState::Up { p, m: m - 1 }, rate * pr.coverage));
                    }
                    if pr.coverage < 1.0 {
                        out.push((MultiprocState::Crashed, rate * (1.0 - pr.coverage)));
                    }
                }
                // Single repairman, processors first.
                if p < pr.n_proc {
                    out.push((MultiprocState::Up { p: p + 1, m }, pr.mu));
                } else if m < pr.n_mem {
                    out.push((MultiprocState::Up { p, m: m + 1 }, pr.mu));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regenr_transient::{MeasureKind, SrOptions, SrSolver};

    /// Builds the model and its state table, collected through the
    /// explorer's numbering callback.
    fn build_with_states(params: MultiprocParams) -> (Ctmc, Vec<MultiprocState>) {
        let mut states = Vec::new();
        let ctmc = CtmcBuilder::default()
            .explore(&MultiprocModel::new(params), |_, s| states.push(*s))
            .unwrap();
        (ctmc, states)
    }

    #[test]
    fn state_space_is_grid_plus_crash() {
        let ctmc = MultiprocModel::new(MultiprocParams::default())
            .build()
            .unwrap();
        // (P+1)(M+1) up-configurations + crashed.
        assert_eq!(ctmc.n_states(), 5 * 4 + 1);
        assert_eq!(ctmc.max_reward(), 3.0); // min(4, 3)
    }

    #[test]
    fn initial_state_has_full_capacity() {
        let model = MultiprocModel::new(MultiprocParams::default());
        let ctmc = model.build().unwrap();
        assert_eq!(ctmc.rewards()[0], 3.0);
        assert_eq!(ctmc.initial()[0], 1.0);
    }

    #[test]
    fn capacity_decays_and_repairman_prioritizes_processors() {
        let (ctmc, states) = build_with_states(MultiprocParams::default());
        let up = |p, m| {
            states
                .iter()
                .position(|s| *s == MultiprocState::Up { p, m })
                .unwrap()
        };
        // From (p=2, m=3) the repairman must work on processors.
        assert_eq!(ctmc.generator().get(up(2, 3), up(3, 3)), 1.0);
        // From (p=4, m=1) it repairs memory.
        assert_eq!(ctmc.generator().get(up(4, 1), up(4, 2)), 1.0);
    }

    #[test]
    fn perfect_coverage_never_crashes() {
        let params = MultiprocParams {
            coverage: 1.0,
            ..Default::default()
        };
        let (_, states) = build_with_states(params);
        assert!(
            !states.contains(&MultiprocState::Crashed),
            "crash state must be unreachable at c = 1"
        );
    }

    #[test]
    fn mean_capacity_decreases_with_worse_coverage() {
        let mrr = |coverage: f64| {
            let ctmc = MultiprocModel::new(MultiprocParams {
                coverage,
                ..Default::default()
            })
            .build()
            .unwrap();
            let sr = SrSolver::new(&ctmc, SrOptions::default());
            sr.solve(MeasureKind::Mrr, 1000.0).value
        };
        let good = mrr(0.999);
        let bad = mrr(0.9);
        assert!(
            good > bad,
            "better coverage must give more capacity: {good} vs {bad}"
        );
    }

    #[test]
    fn absorbing_variant_loses_capacity_permanently() {
        let params = MultiprocParams {
            absorbing_crash: true,
            ..Default::default()
        };
        let ctmc = MultiprocModel::new(params).build().unwrap();
        let sr = SrSolver::new(&ctmc, SrOptions::default());
        // With an absorbing crash, long-run capacity tends to the attrition
        // equilibrium *conditioned on survival*, strictly below the
        // repairable variant's.
        let cap_abs = sr.solve(MeasureKind::Trr, 50_000.0).value;
        let rep = MultiprocModel::new(MultiprocParams::default())
            .build()
            .unwrap();
        let sr_rep = SrSolver::new(&rep, SrOptions::default());
        let cap_rep = sr_rep.solve(MeasureKind::Trr, 50_000.0).value;
        assert!(cap_abs < cap_rep, "{cap_abs} vs {cap_rep}");
    }
}

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
//!
//! The chain is compiled as a canned composition,
//! [`ComposeModel::multiproc`](crate::compose::ComposeModel::multiproc),
//! from these parameters.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{ComposeModel, ComposeState};
    use regenr_ctmc::{Ctmc, CtmcBuilder};
    use regenr_transient::{MeasureKind, SrOptions, SrSolver};

    /// A state cap no test model comes near.
    const CAP: usize = 10_000;

    fn build(params: MultiprocParams) -> Ctmc {
        ComposeModel::multiproc(&params)
            .unwrap()
            .build(CAP)
            .unwrap()
    }

    /// Builds the model and its state table, collected through the
    /// explorer's numbering callback.
    fn build_with_states(params: MultiprocParams) -> (ComposeModel, Ctmc, Vec<ComposeState>) {
        let model = ComposeModel::multiproc(&params).unwrap();
        let mut states = Vec::new();
        let ctmc = CtmcBuilder::with_max_states(CAP)
            .explore(&model, |_, s| states.push(*s))
            .unwrap();
        (model, ctmc, states)
    }

    #[test]
    fn state_space_is_grid_plus_crash() {
        let ctmc = build(MultiprocParams::default());
        // (P+1)(M+1) up-configurations + crashed.
        assert_eq!(ctmc.n_states(), 5 * 4 + 1);
        assert_eq!(ctmc.max_reward(), 3.0); // min(4, 3)
    }

    #[test]
    fn initial_state_has_full_capacity() {
        let ctmc = build(MultiprocParams::default());
        assert_eq!(ctmc.rewards()[0], 3.0);
        assert_eq!(ctmc.initial()[0], 1.0);
    }

    #[test]
    fn capacity_decays_and_repairman_prioritizes_processors() {
        let (model, ctmc, states) = build_with_states(MultiprocParams::default());
        // Class 0 is `proc`, class 1 `mem`.
        let up = |p, m| {
            states
                .iter()
                .position(|s| {
                    matches!(s, ComposeState::Up(x)
                        if model.working(*x, 0) == p && model.working(*x, 1) == m)
                })
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
        let (_, _, states) = build_with_states(params);
        assert!(
            !states.contains(&ComposeState::Crashed),
            "crash state must be unreachable at c = 1"
        );
    }

    #[test]
    fn mean_capacity_decreases_with_worse_coverage() {
        let mrr = |coverage: f64| {
            let ctmc = build(MultiprocParams {
                coverage,
                ..Default::default()
            });
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
        let ctmc = build(MultiprocParams {
            absorbing_crash: true,
            ..Default::default()
        });
        let sr = SrSolver::new(&ctmc, SrOptions::default());
        // With an absorbing crash, long-run capacity tends to the attrition
        // equilibrium *conditioned on survival*, strictly below the
        // repairable variant's.
        let cap_abs = sr.solve(MeasureKind::Trr, 50_000.0).value;
        let rep = build(MultiprocParams::default());
        let sr_rep = SrSolver::new(&rep, SrOptions::default());
        let cap_rep = sr_rep.solve(MeasureKind::Trr, 50_000.0).value;
        assert!(cap_abs < cap_rep, "{cap_abs} vs {cap_rep}");
    }
}

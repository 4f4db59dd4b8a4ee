//! Machines-repairman performability model.
//!
//! `m` identical machines fail at rate `λ` each; `r` repairmen fix them at
//! rate `μ` each. State = number of failed machines; reward = number of
//! *working* machines, so `TRR(t)` is the expected computational capacity and
//! `MRR(t)` the mean capacity over a mission — a classic performability
//! measure with a non-binary reward structure (unlike the RAID models, whose
//! rewards are failure indicators).

use regenr_ctmc::{Ctmc, CtmcBuilder, CtmcError, ModelSpec};

/// The machines-repairman model.
#[derive(Clone, Copy, Debug)]
pub struct MachinesModel {
    /// Number of machines.
    pub machines: u32,
    /// Number of repairmen.
    pub repairmen: u32,
    /// Per-machine failure rate.
    pub lambda: f64,
    /// Per-repairman repair rate.
    pub mu: f64,
}

impl ModelSpec for MachinesModel {
    /// Number of failed machines.
    type State = u32;

    fn initial(&self) -> Vec<(u32, f64)> {
        vec![(0, 1.0)]
    }

    fn transitions(&self, &k: &u32) -> Vec<(u32, f64)> {
        let mut out = Vec::with_capacity(2);
        if k < self.machines {
            out.push((k + 1, (self.machines - k) as f64 * self.lambda));
        }
        if k > 0 {
            out.push((k - 1, k.min(self.repairmen) as f64 * self.mu));
        }
        out
    }

    fn reward(&self, &k: &u32) -> f64 {
        (self.machines - k) as f64
    }
}

impl MachinesModel {
    /// Compiles the model (state 0 = all machines up = index 0).
    pub fn build(&self) -> Result<Ctmc, CtmcError> {
        CtmcBuilder::default().explore(self, |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regenr_transient::{MeasureKind, SrOptions, SrSolver};

    #[test]
    fn state_space_is_machine_count_plus_one() {
        let m = MachinesModel {
            machines: 8,
            repairmen: 2,
            lambda: 0.1,
            mu: 1.0,
        };
        let ctmc = m.build().unwrap();
        assert_eq!(ctmc.n_states(), 9);
        assert_eq!(ctmc.max_reward(), 8.0);
    }

    #[test]
    fn capacity_decreases_from_full() {
        let m = MachinesModel {
            machines: 4,
            repairmen: 1,
            lambda: 0.2,
            mu: 1.0,
        };
        let ctmc = m.build().unwrap();
        let sr = SrSolver::new(&ctmc, SrOptions::default());
        let early = sr.solve(MeasureKind::Trr, 0.1).value;
        let late = sr.solve(MeasureKind::Trr, 100.0).value;
        assert!(early > late, "capacity must decay toward steady state");
        assert!(late > 0.0 && early < 4.0);
    }

    #[test]
    fn single_machine_reduces_to_two_state() {
        let m = MachinesModel {
            machines: 1,
            repairmen: 1,
            lambda: 0.3,
            mu: 1.1,
        };
        let ctmc = m.build().unwrap();
        let sr = SrSolver::new(&ctmc, SrOptions::default());
        let t = 2.0;
        // Availability = 1 − UA of the two-state model.
        let ua = crate::two_state::unavailability(0.3, 1.1, t);
        assert!((sr.solve(MeasureKind::Trr, t).value - (1.0 - ua)).abs() < 1e-11);
    }
}

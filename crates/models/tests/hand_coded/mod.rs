//! Hand-coded builders of the chains the `duplex`, `machines` and
//! `multiproc` presets compose: the oracle the presets are held to bit for
//! bit. Each spells its chain out state by state, independently of the
//! composition compiler.
//!
//! Shared by `tests/compose_equiv.rs` (random inputs) and, through a
//! `#[path]` module, by `compose.rs`'s unit tests (fixed inputs). The
//! including module brings `MultiprocParams` into scope.

use super::MultiprocParams;
use regenr_ctmc::{Ctmc, CtmcBuilder, ModelSpec};

/// The duplex system: state 0 = duplex, 1 = simplex, 2 = failed
/// (absorbing). Reward = failure indicator.
pub fn duplex(lambda: f64, mu: f64, coverage: f64) -> Ctmc {
    Ctmc::from_rates(
        3,
        &[
            (0, 1, 2.0 * lambda * coverage),
            (0, 2, 2.0 * lambda * (1.0 - coverage)),
            (1, 0, mu),
            (1, 2, lambda),
        ],
        vec![1.0, 0.0, 0.0],
        vec![0.0, 0.0, 1.0],
    )
    .unwrap()
}

/// Machines-repairman: state = number of failed machines, reward = number
/// of working machines.
pub fn machines(machines: u32, repairmen: u32, lambda: f64, mu: f64) -> Ctmc {
    let model = MachinesModel {
        machines,
        repairmen,
        lambda,
        mu,
    };
    CtmcBuilder::default().explore(&model, |_, _| {}).unwrap()
}

/// The degradable multiprocessor: coverage split per failure, one
/// repairman (processors first), reboot or absorbing crash, capacity reward
/// `min(p, m)` while `p ≥ 1` and `m ≥ 1`.
pub fn multiproc(params: &MultiprocParams) -> Ctmc {
    CtmcBuilder::default()
        .explore(&MultiprocModel(*params), |_, _| {})
        .unwrap()
}

/// Bitwise CTMC equality: structure, every rate bit, initial, rewards.
pub fn assert_ctmc_bitwise_eq(a: &Ctmc, b: &Ctmc) {
    assert_eq!(a.n_states(), b.n_states(), "state count");
    assert_eq!(a.generator().row_ptr(), b.generator().row_ptr(), "row_ptr");
    assert_eq!(a.generator().col_idx(), b.generator().col_idx(), "col_idx");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(a.generator().values()),
        bits(b.generator().values()),
        "rates"
    );
    assert_eq!(bits(a.initial()), bits(b.initial()), "initial");
    assert_eq!(bits(a.rewards()), bits(b.rewards()), "rewards");
}

struct MachinesModel {
    machines: u32,
    repairmen: u32,
    lambda: f64,
    mu: f64,
}

impl ModelSpec for MachinesModel {
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

/// State of the degradable multiprocessor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum MultiprocState {
    /// `p` processors and `m` memories operational.
    Up { p: u32, m: u32 },
    /// Crashed by an uncovered failure.
    Crashed,
}

struct MultiprocModel(MultiprocParams);

impl ModelSpec for MultiprocModel {
    type State = MultiprocState;

    fn initial(&self) -> Vec<(MultiprocState, f64)> {
        vec![(
            MultiprocState::Up {
                p: self.0.n_proc,
                m: self.0.n_mem,
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
        let pr = &self.0;
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

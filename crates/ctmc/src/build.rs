//! High-level model specification and reachable-state-space generation.
//!
//! The paper's evaluation models (level-5 RAID dependability) were produced by
//! the authors' in-house modeling tool. This module is our substitute: a model
//! is a type implementing [`ModelSpec`] — a state struct plus a transition
//! function — and [`CtmcBuilder::explore`] compiles it into a validated
//! [`Ctmc`] by breadth-first exploration of the reachable state space.
//!
//! State numbering is deterministic (BFS discovery order from the initial
//! states, which are numbered first in the given order), so state indices are
//! stable across runs and usable in regression tests.
//!
//! Exploration streams: each transition goes into a growable [`CooBuilder`]
//! as it is found, and exit rates and rewards grow state by state. The only
//! other per-state structures are the state → index map, dropped before the
//! CSR build, and the BFS queue. No state table or triplet buffer is kept; a
//! caller that wants the high-level states collects them through the
//! closure that [`CtmcBuilder::explore`] calls as each state is numbered.

use crate::chain::{Ctmc, CtmcError};
use regenr_sparse::CooBuilder;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A high-level stochastic model: implement this for your domain model and
/// compile it with [`CtmcBuilder::explore`].
pub trait ModelSpec {
    /// State descriptor. Must be hashable; keep it small (it is cloned into
    /// the state index and the BFS queue).
    type State: Clone + Eq + Hash;

    /// Initial states with their probabilities (must sum to 1).
    fn initial(&self) -> Vec<(Self::State, f64)>;

    /// Outgoing transitions `(target, rate)` of a state; rates must be
    /// positive and finite ([`CtmcBuilder`] rejects any other rate with
    /// [`CtmcError::InvalidRate`]). An empty vector makes the state
    /// absorbing.
    fn transitions(&self, state: &Self::State) -> Vec<(Self::State, f64)>;

    /// Reward rate of a state (≥ 0).
    fn reward(&self, state: &Self::State) -> f64;
}

/// Breadth-first reachable-state-space compiler.
pub struct CtmcBuilder {
    /// Hard cap on the number of explored states (guards against model bugs
    /// that make the space explode).
    pub max_states: usize,
}

impl Default for CtmcBuilder {
    fn default() -> Self {
        CtmcBuilder {
            max_states: 5_000_000,
        }
    }
}

/// The explorer's per-state bookkeeping: one entry per numbered state in
/// `index`, `exit` and `rewards`, and the states not yet expanded in
/// `queue`.
struct Frontier<S> {
    index: HashMap<S, usize>,
    queue: VecDeque<(S, usize)>,
    exit: Vec<f64>,
    rewards: Vec<f64>,
}

impl CtmcBuilder {
    /// Builder with a custom exploration cap.
    pub fn with_max_states(max_states: usize) -> Self {
        CtmcBuilder { max_states }
    }

    /// Explores the reachable state space of `spec` and compiles it.
    ///
    /// `on_state(i, s)` is called once per state, when `s` is numbered `i`,
    /// so the calls come in index order. Pass `|_, _| {}` unless the
    /// high-level states are wanted.
    ///
    /// Exceeding `max_states` returns [`CtmcError::StateSpaceExceeded`] and a
    /// non-positive or non-finite rate returns [`CtmcError::InvalidRate`] —
    /// clean input-level errors, so generated models (spec files) can be
    /// rejected without panicking.
    pub fn explore<M: ModelSpec>(
        &self,
        spec: &M,
        mut on_state: impl FnMut(usize, &M::State),
    ) -> Result<Ctmc, CtmcError> {
        regenr_failpoint::failpoint_return!(
            "ctmc-explore",
            Err(CtmcError::Injected {
                failpoint: "ctmc-explore"
            })
        );
        let mut f = Frontier {
            index: HashMap::new(),
            queue: VecDeque::new(),
            exit: Vec::new(),
            rewards: Vec::new(),
        };
        // The index of `s`, numbering and queueing it first if it is new.
        let mut number = |f: &mut Frontier<M::State>, s: M::State| match f.index.entry(s) {
            Entry::Occupied(e) => Ok(*e.get()),
            Entry::Vacant(e) => {
                let id = f.exit.len();
                if id >= self.max_states {
                    return Err(CtmcError::StateSpaceExceeded {
                        max_states: self.max_states,
                    });
                }
                f.exit.push(0.0);
                f.rewards.push(spec.reward(e.key()));
                on_state(id, e.key());
                f.queue.push_back((e.key().clone(), id));
                e.insert(id);
                Ok(id)
            }
        };

        let mut initial_pairs: Vec<(usize, f64)> = Vec::new();
        for (s, p) in spec.initial() {
            initial_pairs.push((number(&mut f, s)?, p));
        }
        let mut b = CooBuilder::new(0, 0);
        while let Some((from, id)) = f.queue.pop_front() {
            for (target, rate) in spec.transitions(&from) {
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(CtmcError::InvalidRate { from: id, rate });
                }
                let tid = number(&mut f, target)?;
                if tid != id {
                    // Both endpoints are < exit.len() (the states known so far).
                    b.grow(f.exit.len(), f.exit.len());
                    b.push(id, tid, rate);
                    f.exit[id] += rate;
                }
            }
        }

        let n = f.exit.len();
        regenr_failpoint::failpoint_return!(
            "ctmc-csr-build",
            Err(CtmcError::Injected {
                failpoint: "ctmc-csr-build"
            })
        );
        drop(f.index);
        b.grow(n, n);
        for (i, &e) in f.exit.iter().enumerate() {
            if e > 0.0 {
                b.push(i, i, -e);
            }
        }
        let mut initial = vec![0.0f64; n];
        for (id, p) in initial_pairs {
            initial[id] += p;
        }
        Ctmc::new(b.build(), initial, f.rewards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An M/M/1/K queue: arrivals λ, service μ, capacity K; reward = queue
    /// occupancy (a classic performability structure).
    struct Mm1k {
        lambda: f64,
        mu: f64,
        k: u32,
    }

    impl ModelSpec for Mm1k {
        type State = u32;

        fn initial(&self) -> Vec<(u32, f64)> {
            vec![(0, 1.0)]
        }

        fn transitions(&self, &n: &u32) -> Vec<(u32, f64)> {
            let mut out = Vec::new();
            if n < self.k {
                out.push((n + 1, self.lambda));
            }
            if n > 0 {
                out.push((n - 1, self.mu));
            }
            out
        }

        fn reward(&self, &n: &u32) -> f64 {
            n as f64
        }
    }

    /// Explores `spec` under the default cap, collecting the state table
    /// through the numbering callback.
    fn explore_with_states<M: ModelSpec>(spec: &M) -> (Ctmc, Vec<M::State>) {
        let mut states = Vec::new();
        let ctmc = CtmcBuilder::default()
            .explore(spec, |i, s| {
                assert_eq!(i, states.len(), "states are reported in index order");
                states.push(s.clone());
            })
            .unwrap();
        (ctmc, states)
    }

    #[test]
    fn mm1k_has_k_plus_one_states() {
        let (ctmc, states) = explore_with_states(&Mm1k {
            lambda: 1.0,
            mu: 2.0,
            k: 10,
        });
        assert_eq!(ctmc.n_states(), 11);
        // BFS order: 0, 1, 2, ...
        assert_eq!(states, (0..=10).collect::<Vec<u32>>());
        assert_eq!(ctmc.exit_rate(0), 1.0);
        assert_eq!(ctmc.exit_rate(5), 3.0);
        assert_eq!(ctmc.exit_rate(10), 2.0);
        assert_eq!(ctmc.rewards()[7], 7.0);
    }

    /// Transitions to the same target are merged by the COO builder.
    struct TwoPaths;
    impl ModelSpec for TwoPaths {
        type State = u8;
        fn initial(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, &s: &u8) -> Vec<(u8, f64)> {
            match s {
                0 => vec![(1, 2.0), (1, 3.0)], // two events, same lumped target
                1 => vec![(0, 1.0)],
                _ => vec![],
            }
        }
        fn reward(&self, _: &u8) -> f64 {
            0.0
        }
    }

    #[test]
    fn duplicate_transitions_are_summed() {
        let ctmc = CtmcBuilder::default()
            .explore(&TwoPaths, |_, _| {})
            .unwrap();
        assert_eq!(ctmc.generator().get(0, 1), 5.0);
        assert_eq!(ctmc.exit_rate(0), 5.0);
    }

    /// Unbounded birth chain — trips any finite exploration cap.
    struct Unbounded;
    impl ModelSpec for Unbounded {
        type State = u64;
        fn initial(&self) -> Vec<(u64, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, &s: &u64) -> Vec<(u64, f64)> {
            vec![(s + 1, 1.0)]
        }
        fn reward(&self, _: &u64) -> f64 {
            0.0
        }
    }

    #[test]
    fn cap_is_a_clean_error() {
        let mut numbered = 0;
        match CtmcBuilder::with_max_states(100).explore(&Unbounded, |_, _| numbered += 1) {
            Err(CtmcError::StateSpaceExceeded { max_states }) => assert_eq!(max_states, 100),
            other => panic!("expected StateSpaceExceeded, got {other:?}"),
        }
        assert_eq!(numbered, 100, "the state over the cap is never numbered");
    }

    /// A model whose state 1 leaves at a caller-chosen rate.
    struct BadRate(f64);
    impl ModelSpec for BadRate {
        type State = u8;
        fn initial(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, &s: &u8) -> Vec<(u8, f64)> {
            match s {
                0 => vec![(1, 1.0)],
                _ => vec![(0, self.0)],
            }
        }
        fn reward(&self, _: &u8) -> f64 {
            0.0
        }
    }

    #[test]
    fn non_positive_or_non_finite_rates_are_clean_errors() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match CtmcBuilder::default().explore(&BadRate(rate), |_, _| {}) {
                Err(CtmcError::InvalidRate { from: 1, rate: r }) => {
                    assert_eq!(r.to_bits(), rate.to_bits())
                }
                other => panic!("rate {rate}: expected InvalidRate, got {other:?}"),
            }
        }
    }

    #[test]
    fn split_initial_distribution() {
        let spec = Mm1k {
            lambda: 1.0,
            mu: 1.0,
            k: 3,
        };
        struct Wrapper(Mm1k);
        impl ModelSpec for Wrapper {
            type State = u32;
            fn initial(&self) -> Vec<(u32, f64)> {
                vec![(0, 0.25), (2, 0.75)]
            }
            fn transitions(&self, s: &u32) -> Vec<(u32, f64)> {
                self.0.transitions(s)
            }
            fn reward(&self, s: &u32) -> f64 {
                self.0.reward(s)
            }
        }
        let (ctmc, states) = explore_with_states(&Wrapper(spec));
        // Initial states are numbered first, in the given order.
        assert_eq!(states[..2], [0, 2]);
        assert_eq!(ctmc.initial()[..2], [0.25, 0.75]);
    }
}

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
//! as it is found, and exit rates and rewards grow state by state. The state
//! table, in index order, doubles as the BFS queue; the state → index map is
//! dropped before the CSR build. A caller that wants the high-level states
//! collects them through the closure that [`CtmcBuilder::explore`] calls as
//! each state is numbered.
//!
//! A grid of rate variants explores once. [`CtmcBuilder::explore_grid`]
//! compiles the base point and also keeps, in a [`Replay`], the state table,
//! each transition's target index and the permutation of the base's COO
//! sort (a [`CooPlan`]). [`Replay::build`] compiles each later point by
//! walking the table in index order, with no hashing, no queue and no sort.
//! It checks that the point's transitions hit the same targets in the same
//! order with positive finite rates, and that its initial states are the
//! base's. The point's values are then gathered through the plan, so
//! parallel arcs merge in the order of the point's own exploration and the
//! chain is that exploration's, bit for bit. Every replayed generator
//! shares the base's sparsity pattern (one allocation, held by the plan),
//! so a point adds only its values, initial vector and rewards. A point
//! that fails the check (a rate that underflows to zero drops a
//! transition, say) is explored from scratch.

use crate::chain::{Ctmc, CtmcError};
use regenr_sparse::{CooBuilder, CooPlan};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// A high-level stochastic model: implement this for your domain model and
/// compile it with [`CtmcBuilder::explore`].
pub trait ModelSpec {
    /// State descriptor. Must be hashable; keep it small (it is cloned into
    /// the state index and the state table).
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
/// `index`, `states`, `exit` and `rewards`. The state table, in index
/// order, doubles as the BFS queue.
struct Frontier<S> {
    index: HashMap<S, usize>,
    states: Vec<S>,
    exit: Vec<f64>,
    rewards: Vec<f64>,
}

/// One exploration before its CSR build: every arc, then each state's
/// diagonal, in `coo`; the state table in index order; the index of each
/// initial pair with its probability; and the rewards.
struct Explored<S> {
    coo: CooBuilder,
    states: Vec<S>,
    initial_pairs: Vec<(usize, f64)>,
    rewards: Vec<f64>,
}

/// The initial distribution over `n` states, summed in the order the pairs
/// were given.
fn distribution(n: usize, pairs: impl IntoIterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut initial = vec![0.0f64; n];
    for (id, p) in pairs {
        initial[id] += p;
    }
    initial
}

/// Each transition's target, recorded by a grid base's exploration: state
/// `i`'s transitions hit `targets[offsets[i]..offsets[i + 1]]`, in emission
/// order, self-loops included.
struct Arcs {
    offsets: Vec<usize>,
    targets: Vec<u32>,
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
        on_state: impl FnMut(usize, &M::State),
    ) -> Result<Ctmc, CtmcError> {
        let Explored {
            coo,
            states,
            initial_pairs,
            rewards,
        } = self.bfs(spec, on_state, None)?;
        let initial = distribution(states.len(), initial_pairs);
        drop(states);
        Ctmc::new(coo.build(), initial, rewards)
    }

    /// Explores `spec` as the base point of a grid of rate variants: the
    /// chain [`CtmcBuilder::explore`] returns, and the [`Replay`] that
    /// compiles each later point without a search.
    pub fn explore_grid<M: ModelSpec>(
        &self,
        spec: &M,
    ) -> Result<(Ctmc, Replay<M::State>), CtmcError> {
        let mut arcs = Arcs {
            offsets: vec![0],
            targets: Vec::new(),
        };
        let e = self.bfs(spec, |_, _| {}, Some(&mut arcs))?;
        arcs.targets.shrink_to_fit();
        let (generator, plan) = e.coo.build_with_plan();
        let initial = distribution(e.states.len(), e.initial_pairs.iter().copied());
        let ctmc = Ctmc::new(generator, initial, e.rewards)?;
        let replay = Replay {
            max_states: self.max_states,
            states: e.states,
            initial: e.initial_pairs.into_iter().map(|(id, _)| id).collect(),
            arcs,
            plan,
            pushed: Vec::new(),
            exit: Vec::new(),
        };
        Ok((ctmc, replay))
    }

    /// The one breadth-first search. States are numbered in discovery
    /// order, so state `i` is expanded `i`-th. `arcs`, when given, records
    /// every transition's target.
    fn bfs<M: ModelSpec>(
        &self,
        spec: &M,
        mut on_state: impl FnMut(usize, &M::State),
        mut arcs: Option<&mut Arcs>,
    ) -> Result<Explored<M::State>, CtmcError> {
        regenr_failpoint::failpoint_return!(
            "ctmc-explore",
            Err(CtmcError::Injected {
                failpoint: "ctmc-explore"
            })
        );
        let mut f = Frontier {
            index: HashMap::new(),
            states: Vec::new(),
            exit: Vec::new(),
            rewards: Vec::new(),
        };
        // The index of `s`, numbering it first if it is new.
        let mut number = |f: &mut Frontier<M::State>, s: M::State| match f.index.entry(s) {
            Entry::Occupied(e) => Ok(*e.get()),
            Entry::Vacant(e) => {
                let id = f.states.len();
                if id >= self.max_states {
                    return Err(CtmcError::StateSpaceExceeded {
                        max_states: self.max_states,
                    });
                }
                f.exit.push(0.0);
                f.rewards.push(spec.reward(e.key()));
                on_state(id, e.key());
                f.states.push(e.key().clone());
                e.insert(id);
                Ok(id)
            }
        };

        let mut initial_pairs: Vec<(usize, f64)> = Vec::new();
        for (s, p) in spec.initial() {
            initial_pairs.push((number(&mut f, s)?, p));
        }
        let mut b = CooBuilder::new(0, 0);
        let mut id = 0;
        while id < f.states.len() {
            for (target, rate) in spec.transitions(&f.states[id]) {
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(CtmcError::InvalidRate { from: id, rate });
                }
                let tid = number(&mut f, target)?;
                if let Some(arcs) = arcs.as_deref_mut() {
                    let tid = u32::try_from(tid).expect("state indices fit the COO's u32");
                    arcs.targets.push(tid);
                }
                if tid != id {
                    // Both endpoints are < exit.len() (the states known so far).
                    b.grow(f.exit.len(), f.exit.len());
                    b.push(id, tid, rate);
                    f.exit[id] += rate;
                }
            }
            if let Some(arcs) = arcs.as_deref_mut() {
                arcs.offsets.push(arcs.targets.len());
            }
            id += 1;
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
        Ok(Explored {
            coo: b,
            states: f.states,
            initial_pairs,
            rewards: f.rewards,
        })
    }
}

/// A grid's base exploration, kept to compile the grid's later points: the
/// state table, each transition's target, and the [`CooPlan`] of the base's
/// CSR build.
///
/// [`Replay::build`] walks the table in index order and calls the point's
/// `transitions` on each state; no state is hashed and nothing is queued.
/// When every transition hits the base's target in the base's order with a
/// positive finite rate, and the initial states are the base's, the point's
/// own [`CtmcBuilder::explore`] would number every state alike and push
/// every entry at the same position, so the plan gathers its values into
/// the matrix that exploration would build, bit for bit, sharing the
/// base's generator pattern allocation. Any other point is explored from
/// scratch.
pub struct Replay<S> {
    max_states: usize,
    states: Vec<S>,
    /// The index of each initial pair.
    initial: Vec<usize>,
    arcs: Arcs,
    plan: CooPlan,
    /// Scratch, kept from point to point: the values in push order and the
    /// exit rates.
    pushed: Vec<f64>,
    exit: Vec<f64>,
}

impl<S: Eq> Replay<S> {
    /// Compiles `point` into the chain `CtmcBuilder::explore` returns for
    /// it under the base's state cap: by replay when it follows the base,
    /// by its own exploration when it does not.
    pub fn build<M: ModelSpec<State = S>>(&mut self, point: &M) -> Result<Ctmc, CtmcError> {
        let Some(initial) = self.replay(point) else {
            return CtmcBuilder::with_max_states(self.max_states).explore(point, |_, _| {});
        };
        regenr_failpoint::failpoint_return!(
            "ctmc-csr-build",
            Err(CtmcError::Injected {
                failpoint: "ctmc-csr-build"
            })
        );
        let rewards = self.states.iter().map(|s| point.reward(s)).collect();
        Ctmc::new(self.plan.build(&self.pushed), initial, rewards)
    }

    /// Fills `pushed` with the point's values in push order and returns its
    /// initial distribution, or `None` when its exploration would differ
    /// from the base's.
    fn replay<M: ModelSpec<State = S>>(&mut self, point: &M) -> Option<Vec<f64>> {
        let n = self.states.len();
        let pairs = point.initial();
        if pairs.len() != self.initial.len() {
            return None;
        }
        let mut probabilities = Vec::with_capacity(pairs.len());
        for ((s, p), &id) in pairs.into_iter().zip(&self.initial) {
            if s != self.states[id] {
                return None;
            }
            probabilities.push((id, p));
        }
        let (pushed, exit) = (&mut self.pushed, &mut self.exit);
        pushed.clear();
        exit.clear();
        exit.resize(n, 0.0);
        for (id, state) in self.states.iter().enumerate() {
            let targets = &self.arcs.targets[self.arcs.offsets[id]..self.arcs.offsets[id + 1]];
            let transitions = point.transitions(state);
            if transitions.len() != targets.len() {
                return None;
            }
            for ((target, rate), &tid) in transitions.into_iter().zip(targets) {
                let tid = tid as usize;
                if !(rate > 0.0 && rate.is_finite()) || target != self.states[tid] {
                    return None;
                }
                if tid != id {
                    pushed.push(rate);
                    exit[id] += rate;
                }
            }
        }
        pushed.extend(exit.iter().filter(|&&e| e > 0.0).map(|&e| -e));
        Some(distribution(n, probabilities))
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

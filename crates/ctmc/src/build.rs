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

use crate::chain::{Ctmc, CtmcError};
use regenr_sparse::CooBuilder;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A high-level stochastic model: implement this for your domain model and
/// compile it with [`CtmcBuilder::explore`].
pub trait ModelSpec {
    /// State descriptor. Must be hashable; keep it small (it is cloned into
    /// the state table).
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

/// Result of state-space exploration: the compiled chain plus the mapping
/// between state structs and indices.
#[derive(Clone, Debug)]
pub struct BuiltModel<S> {
    /// The compiled, validated CTMC.
    pub ctmc: Ctmc,
    /// `states[i]` is the high-level state with index `i`.
    pub states: Vec<S>,
    /// Reverse mapping.
    pub index: HashMap<S, usize>,
}

impl<S: Clone + Eq + Hash> BuiltModel<S> {
    /// Index of a high-level state, if reachable.
    pub fn state_index(&self, s: &S) -> Option<usize> {
        self.index.get(s).copied()
    }
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

impl CtmcBuilder {
    /// Builder with a custom exploration cap.
    pub fn with_max_states(max_states: usize) -> Self {
        CtmcBuilder { max_states }
    }

    /// Explores the reachable state space of `spec` and compiles it.
    ///
    /// Exceeding `max_states` returns [`CtmcError::StateSpaceExceeded`] and a
    /// non-positive or non-finite rate returns [`CtmcError::InvalidRate`] —
    /// clean input-level errors, so generated models (spec files) can be
    /// rejected without panicking.
    pub fn explore<M: ModelSpec>(&self, spec: &M) -> Result<BuiltModel<M::State>, CtmcError> {
        regenr_failpoint::failpoint_return!(
            "ctmc-explore",
            Err(CtmcError::Injected {
                failpoint: "ctmc-explore"
            })
        );
        let mut states: Vec<M::State> = Vec::new();
        let mut index: HashMap<M::State, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut initial_pairs: Vec<(usize, f64)> = Vec::new();

        for (s, p) in spec.initial() {
            let id = match index.entry(s.clone()) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let id = states.len();
                    if id >= self.max_states {
                        return Err(CtmcError::StateSpaceExceeded {
                            max_states: self.max_states,
                        });
                    }
                    e.insert(id);
                    states.push(s);
                    queue.push_back(id);
                    id
                }
            };
            initial_pairs.push((id, p));
        }

        // Triplets are accumulated first because the state count is unknown
        // until exploration finishes.
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        while let Some(id) = queue.pop_front() {
            let from = states[id].clone();
            for (target, rate) in spec.transitions(&from) {
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(CtmcError::InvalidRate { from: id, rate });
                }
                let tid = match index.entry(target.clone()) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let tid = states.len();
                        if tid >= self.max_states {
                            return Err(CtmcError::StateSpaceExceeded {
                                max_states: self.max_states,
                            });
                        }
                        e.insert(tid);
                        states.push(target);
                        queue.push_back(tid);
                        tid
                    }
                };
                if tid != id {
                    triplets.push((id, tid, rate));
                }
            }
        }

        let n = states.len();
        regenr_failpoint::failpoint_return!(
            "ctmc-csr-build",
            Err(CtmcError::Injected {
                failpoint: "ctmc-csr-build"
            })
        );
        let mut exit = vec![0.0f64; n];
        let mut b = CooBuilder::with_capacity(n, n, triplets.len() + n);
        for (i, j, r) in triplets {
            b.push(i, j, r);
            exit[i] += r;
        }
        for (i, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                b.push(i, i, -e);
            }
        }

        let mut initial = vec![0.0f64; n];
        for (id, p) in initial_pairs {
            initial[id] += p;
        }
        let rewards: Vec<f64> = states.iter().map(|s| spec.reward(s)).collect();
        let ctmc = Ctmc::new(b.build(), initial, rewards)?;
        Ok(BuiltModel {
            ctmc,
            states,
            index,
        })
    }

    /// Streaming variant of [`CtmcBuilder::explore`]: frontier expansion
    /// feeds the COO accumulator incrementally instead of materializing the
    /// full state table and a separate triplet buffer.
    ///
    /// Eager exploration holds, at peak, the state vector, the hash index,
    /// the BFS queue *and* an unbounded triplet vector that is only folded
    /// into the matrix builder after exploration finishes. Here each
    /// transition goes straight into a growable [`CooBuilder`] as it is
    /// discovered, rewards and exit rates grow state-by-state, and no state
    /// vector is kept at all (the queue carries the state structs) — so
    /// million-state compositions build without the duplicated peak.
    ///
    /// State numbering is BFS discovery order, identical to `explore`: the
    /// two methods produce bit-for-bit the same [`Ctmc`]. The trade-off is
    /// that no [`BuiltModel`] index is returned.
    pub fn explore_streaming<M: ModelSpec>(&self, spec: &M) -> Result<Ctmc, CtmcError> {
        regenr_failpoint::failpoint_return!(
            "ctmc-explore-streaming",
            Err(CtmcError::Injected {
                failpoint: "ctmc-explore-streaming"
            })
        );
        let mut index: HashMap<M::State, usize> = HashMap::new();
        let mut queue: VecDeque<(M::State, usize)> = VecDeque::new();
        let mut initial_pairs: Vec<(usize, f64)> = Vec::new();
        let mut exit: Vec<f64> = Vec::new();
        let mut rewards: Vec<f64> = Vec::new();
        let mut b = CooBuilder::new(0, 0);

        for (s, p) in spec.initial() {
            let id = match index.entry(s.clone()) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let id = exit.len();
                    if id >= self.max_states {
                        return Err(CtmcError::StateSpaceExceeded {
                            max_states: self.max_states,
                        });
                    }
                    e.insert(id);
                    exit.push(0.0);
                    rewards.push(spec.reward(&s));
                    queue.push_back((s, id));
                    id
                }
            };
            initial_pairs.push((id, p));
        }

        while let Some((from, id)) = queue.pop_front() {
            for (target, rate) in spec.transitions(&from) {
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(CtmcError::InvalidRate { from: id, rate });
                }
                let tid = match index.entry(target.clone()) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let tid = exit.len();
                        if tid >= self.max_states {
                            return Err(CtmcError::StateSpaceExceeded {
                                max_states: self.max_states,
                            });
                        }
                        e.insert(tid);
                        exit.push(0.0);
                        rewards.push(spec.reward(&target));
                        queue.push_back((target, tid));
                        tid
                    }
                };
                if tid != id {
                    // Both endpoints are < exit.len() (the states known so far).
                    b.grow(exit.len(), exit.len());
                    b.push(id, tid, rate);
                    exit[id] += rate;
                }
            }
        }

        let n = exit.len();
        regenr_failpoint::failpoint_return!(
            "ctmc-csr-build",
            Err(CtmcError::Injected {
                failpoint: "ctmc-csr-build"
            })
        );
        drop(index);
        b.grow(n, n);
        for (i, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                b.push(i, i, -e);
            }
        }
        let mut initial = vec![0.0f64; n];
        for (id, p) in initial_pairs {
            initial[id] += p;
        }
        Ctmc::new(b.build(), initial, rewards)
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

    #[test]
    fn mm1k_has_k_plus_one_states() {
        let built = CtmcBuilder::default()
            .explore(&Mm1k {
                lambda: 1.0,
                mu: 2.0,
                k: 10,
            })
            .unwrap();
        assert_eq!(built.ctmc.n_states(), 11);
        assert_eq!(built.states[0], 0);
        // BFS order: 0, 1, 2, ...
        for (i, s) in built.states.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
        assert_eq!(built.ctmc.exit_rate(0), 1.0);
        assert_eq!(built.ctmc.exit_rate(5), 3.0);
        assert_eq!(built.ctmc.exit_rate(10), 2.0);
        assert_eq!(built.ctmc.rewards()[7], 7.0);
        assert_eq!(built.state_index(&3), Some(3));
        assert_eq!(built.state_index(&11), None);
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
        let built = CtmcBuilder::default().explore(&TwoPaths).unwrap();
        assert_eq!(built.ctmc.generator().get(0, 1), 5.0);
        assert_eq!(built.ctmc.exit_rate(0), 5.0);
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
        let builder = CtmcBuilder::with_max_states(100);
        for result in [
            builder.explore(&Unbounded).map(|_| ()),
            builder.explore_streaming(&Unbounded).map(|_| ()),
        ] {
            match result {
                Err(CtmcError::StateSpaceExceeded { max_states }) => assert_eq!(max_states, 100),
                other => panic!("expected StateSpaceExceeded, got {other:?}"),
            }
        }
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
        let builder = CtmcBuilder::default();
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for result in [
                builder.explore(&BadRate(rate)).map(|_| ()),
                builder.explore_streaming(&BadRate(rate)).map(|_| ()),
            ] {
                match result {
                    Err(CtmcError::InvalidRate { from: 1, rate: r }) => {
                        assert_eq!(r.to_bits(), rate.to_bits())
                    }
                    other => panic!("rate {rate}: expected InvalidRate, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn streaming_matches_eager_bitwise() {
        let spec = Mm1k {
            lambda: 0.7,
            mu: 1.3,
            k: 25,
        };
        let eager = CtmcBuilder::default().explore(&spec).unwrap().ctmc;
        let streamed = CtmcBuilder::default().explore_streaming(&spec).unwrap();
        assert_eq!(eager.n_states(), streamed.n_states());
        assert_eq!(eager.generator().row_ptr(), streamed.generator().row_ptr());
        assert_eq!(eager.generator().col_idx(), streamed.generator().col_idx());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(eager.generator().values()),
            bits(streamed.generator().values())
        );
        assert_eq!(bits(eager.initial()), bits(streamed.initial()));
        assert_eq!(bits(eager.rewards()), bits(streamed.rewards()));
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
        let built = CtmcBuilder::default().explore(&Wrapper(spec)).unwrap();
        assert_eq!(built.ctmc.initial()[built.state_index(&0).unwrap()], 0.25);
        assert_eq!(built.ctmc.initial()[built.state_index(&2).unwrap()], 0.75);
    }
}

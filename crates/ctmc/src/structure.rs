//! Structural analysis: absorbing states and strong connectivity.
//!
//! The paper's method requires `Ω = S ∪ {f_1,…,f_A}` with the `f_i` absorbing
//! and `S` strongly connected (every state of `S` reachable from every other
//! within `S`). [`analyze`] verifies exactly this, using an iterative Tarjan
//! SCC pass (explicit stack — RAID models reach >10⁴ states, deep recursion
//! would overflow).

use crate::chain::{Ctmc, CtmcError};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`analyze`] runs (monotone, never reset).
///
/// The Tarjan pass is `O(n + nnz)` and callers holding cached results (the
/// engine's `ChainFacts` pool) are expected to share them instead of
/// re-analyzing; this diagnostic counter lets tests assert exactly that —
/// "structure analysis ran once per distinct chain" — without instrumenting
/// every call site.
static ANALYSIS_RUNS: AtomicU64 = AtomicU64::new(0);

/// Number of times [`analyze`] has run in this process.
pub fn analysis_runs() -> u64 {
    ANALYSIS_RUNS.load(Ordering::Relaxed)
}

/// Result of [`analyze`].
#[derive(Clone, Debug)]
pub struct StructureInfo {
    /// Indices of absorbing states (`A` of the paper), ascending.
    pub absorbing: Vec<usize>,
    /// Number of SCCs among the non-absorbing states.
    pub transient_sccs: usize,
    /// `true` when every non-absorbing state can reach some absorbing state
    /// (vacuously true when there are none).
    pub absorbing_reachable: bool,
}

impl StructureInfo {
    /// Whether the chain is irreducible in the paper's sense (`A = 0`).
    pub fn is_irreducible(&self) -> bool {
        self.absorbing.is_empty() && self.transient_sccs == 1
    }
}

/// Analyzes the structure of a chain and checks the paper's assumptions.
///
/// Returns an error when the non-absorbing part splits into several SCCs, or
/// when initial mass sits on an absorbing state (`P[X(0)=f_i] = 0` in the
/// paper).
pub fn analyze(ctmc: &Ctmc) -> Result<StructureInfo, CtmcError> {
    ANALYSIS_RUNS.fetch_add(1, Ordering::Relaxed);
    let n = ctmc.n_states();
    let absorbing = ctmc.absorbing_states();
    let is_absorbing = {
        let mut v = vec![false; n];
        for &a in &absorbing {
            v[a] = true;
        }
        v
    };
    for (i, &p) in ctmc.initial().iter().enumerate() {
        if p > 0.0 && is_absorbing[i] {
            return Err(CtmcError::InitialMassOnAbsorbing { state: i });
        }
    }

    let sccs = tarjan_scc_restricted(ctmc, &is_absorbing);
    let info = StructureInfo {
        absorbing_reachable: absorbing_reachable(ctmc, &is_absorbing),
        transient_sccs: sccs,
        absorbing,
    };
    if info.transient_sccs > 1 {
        return Err(CtmcError::NotStronglyConnected {
            components: info.transient_sccs,
        });
    }
    Ok(info)
}

/// Iterative Tarjan SCC count over the subgraph of non-absorbing states.
fn tarjan_scc_restricted(ctmc: &Ctmc, skip: &[bool]) -> usize {
    let n = ctmc.n_states();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut scc_count = 0usize;

    // Explicit DFS state: (node, edge iterator position).
    for start in 0..n {
        if skip[start] || index[start] != UNVISITED {
            continue;
        }
        let mut call_stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        let succ = |v: usize| -> Vec<usize> {
            ctmc.generator()
                .row(v)
                .filter(|&(j, rate)| j != v && rate > 0.0 && !skip[j])
                .map(|(j, _)| j)
                .collect()
        };
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        call_stack.push((start, succ(start), 0));

        while let Some((v, neighbours, pos)) = call_stack.last_mut() {
            if *pos < neighbours.len() {
                let w = neighbours[*pos];
                *pos += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    let w_succ = succ(w);
                    call_stack.push((w, w_succ, 0));
                } else if on_stack[w] {
                    let lv = low[*v].min(index[w]);
                    low[*v] = lv;
                }
            } else {
                let v = *v;
                call_stack.pop();
                if let Some((parent, _, _)) = call_stack.last() {
                    let lp = low[*parent].min(low[v]);
                    low[*parent] = lp;
                }
                if low[v] == index[v] {
                    scc_count += 1;
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
    }
    scc_count
}

/// Checks every non-absorbing state can reach an absorbing one (reverse BFS
/// from the absorbing set). Vacuously true with no absorbing states.
fn absorbing_reachable(ctmc: &Ctmc, is_absorbing: &[bool]) -> bool {
    let n = ctmc.n_states();
    if !is_absorbing.iter().any(|&a| a) {
        return true;
    }
    // Build reverse adjacency implicitly via the transpose.
    let qt = ctmc.generator().transpose();
    let mut seen = is_absorbing.to_vec();
    let mut queue: Vec<usize> = (0..n).filter(|&i| is_absorbing[i]).collect();
    while let Some(v) = queue.pop() {
        for (j, rate) in qt.row(v) {
            if rate > 0.0 && !seen[j] {
                seen[j] = true;
                queue.push(j);
            }
        }
    }
    seen.iter().all(|&s| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irreducible_two_state() {
        let c = Ctmc::from_rates(
            2,
            &[(0, 1, 1.0), (1, 0, 2.0)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        )
        .unwrap();
        let info = analyze(&c).unwrap();
        assert!(info.is_irreducible());
        assert!(info.absorbing.is_empty());
    }

    #[test]
    fn absorbing_chain_structure() {
        // 0 <-> 1 -> 2 (absorbing)
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 0.1)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
        )
        .unwrap();
        let info = analyze(&c).unwrap();
        assert_eq!(info.absorbing, vec![2]);
        assert_eq!(info.transient_sccs, 1);
        assert!(info.absorbing_reachable);
        assert!(!info.is_irreducible());
    }

    #[test]
    fn split_transient_part_rejected() {
        // 0 -> 2, 1 -> 2: states 0 and 1 are separate singleton SCCs.
        let c = Ctmc::from_rates(
            3,
            &[(0, 2, 1.0), (1, 2, 1.0)],
            vec![0.5, 0.5, 0.0],
            vec![0.0; 3],
        )
        .unwrap();
        let err = analyze(&c);
        assert!(matches!(
            err,
            Err(CtmcError::NotStronglyConnected { components: 2 })
        ));
    }

    #[test]
    fn initial_mass_on_absorbing_rejected() {
        let c = Ctmc::from_rates(2, &[(0, 1, 1.0)], vec![0.5, 0.5], vec![0.0, 1.0]).unwrap();
        assert!(matches!(
            analyze(&c),
            Err(CtmcError::InitialMassOnAbsorbing { state: 1 })
        ));
    }

    #[test]
    fn big_cycle_is_one_scc() {
        let n = 500;
        let mut rates = Vec::new();
        for i in 0..n {
            rates.push((i, (i + 1) % n, 1.0));
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let c = Ctmc::from_rates(n, &rates, init, vec![0.0; n]).unwrap();
        let info = analyze(&c).unwrap();
        assert!(info.is_irreducible());
    }

    #[test]
    fn chain_with_unreachable_absorbing_ok() {
        // 0 <-> 1, plus isolated absorbing state 2 never entered: the
        // "reach absorbing" diagnostic is false but structure is still legal.
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 1.0), (1, 0, 1.0)],
            vec![1.0, 0.0, 0.0],
            vec![0.0; 3],
        )
        .unwrap();
        let info = analyze(&c).unwrap();
        assert_eq!(info.absorbing, vec![2]);
        assert!(!info.absorbing_reachable);
    }
}

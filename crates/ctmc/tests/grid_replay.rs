//! Property test: every point of a rate grid, compiled by replaying the
//! base point's exploration, equals its own `explore` bit for bit — the
//! same state numbering and CSR pattern, and the same bit pattern in every
//! rate, initial probability and reward — or fails with the same error. A
//! replayed point holds the base's pattern allocation itself.
//!
//! Every state carries several parallel arcs into one target, so the order
//! in which duplicates merge decides the rounding of their sum.

use proptest::prelude::*;
use regenr_ctmc::{Ctmc, CtmcBuilder, CtmcError, ModelSpec};
use std::sync::Arc;

/// A chain given by its arcs, every rate and reward multiplied by `factor`.
/// Mass starts on the first and the last state.
struct Scaled<'a> {
    arcs: &'a [Vec<(u32, f64)>],
    factor: f64,
}

impl ModelSpec for Scaled<'_> {
    type State = u32;

    fn initial(&self) -> Vec<(u32, f64)> {
        vec![(0, 0.25), (self.arcs.len() as u32 - 1, 0.75)]
    }

    fn transitions(&self, &s: &u32) -> Vec<(u32, f64)> {
        self.arcs[s as usize]
            .iter()
            .map(|&(t, r)| (t, r * self.factor))
            .collect()
    }

    fn reward(&self, &s: &u32) -> f64 {
        s as f64 * self.factor
    }
}

fn assert_same(replayed: &Result<Ctmc, CtmcError>, cold: &Result<Ctmc, CtmcError>) {
    let (a, b) = match (replayed, cold) {
        (Ok(a), Ok(b)) => (a, b),
        _ => {
            assert_eq!(replayed.as_ref().err(), cold.as_ref().err());
            return;
        }
    };
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

proptest! {
    #[test]
    fn grid_points_replay_to_their_own_exploration(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..40, -3.0f64..3.0), 0..8),
            2..40,
        ),
        parallel in prop::collection::vec(-6.0f64..6.0, 3..6),
        exponents in prop::collection::vec(-3.0f64..3.0, 5),
        k in 0usize..3,
        underflow in any::<bool>(),
    ) {
        let n = raw.len() as u32;
        // Rates log-uniform in [1e-3, 1e3], self-loops included; every
        // state also has the parallel arcs into its successor.
        let arcs: Vec<Vec<(u32, f64)>> = raw
            .iter()
            .enumerate()
            .map(|(s, row)| {
                let mut row: Vec<(u32, f64)> =
                    row.iter().map(|&(t, x)| (t % n, 10f64.powf(x))).collect();
                let next = (s as u32 + 1) % n;
                row.extend(parallel.iter().map(|&x| (next, 10f64.powf(x))));
                row
            })
            .collect();
        let k = [1, 2, 5][k];
        let mut factors: Vec<f64> = exponents[..k].iter().map(|&x| 10f64.powf(x)).collect();
        if underflow && k > 1 {
            // Rates below about 0.025 underflow to zero: a point whose
            // structure differs, which the replay hands to `explore`.
            factors[k - 1] = 1e-322;
        }
        let builder = CtmcBuilder::default();
        let point = |factor| Scaled { arcs: &arcs, factor };
        let (base, mut replay) = builder.explore_grid(&point(factors[0])).unwrap();
        let base_pattern = &base.generator().pattern().clone();
        assert_same(&Ok(base), &builder.explore(&point(factors[0]), |_, _| {}));
        for &f in &factors[1..] {
            let replayed = replay.build(&point(f));
            assert_same(&replayed, &builder.explore(&point(f), |_, _| {}));
            if f != 1e-322 {
                // Replayed, not explored: the base's pattern allocation.
                let q = replayed.unwrap();
                prop_assert!(Arc::ptr_eq(q.generator().pattern(), base_pattern));
            }
        }
    }
}

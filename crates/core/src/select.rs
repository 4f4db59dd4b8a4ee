//! Automatic selection of the regenerative state.
//!
//! The paper assumes the modeller supplies `r` ("its performance will be good
//! when `r` is visited often in the DTMC `X̂`") and uses the fully operational
//! state in all experiments. This module provides a heuristic for when no
//! natural choice is known: pick the non-absorbing state with the largest
//! *cumulative expected occupancy* of the randomized DTMC over a bounded
//! number of steps,
//!
//! `score(i) = Σ_{n≤N} (α P^n)_i ,`
//!
//! which approximates (up to normalization) the expected number of visits —
//! exactly the quantity the method wants maximized. For irreducible chains
//! this converges to the stationary ranking; for absorbing chains it ranks by
//! pre-absorption occupancy, where stationary mass would be useless (it all
//! sits on the `f_i`).

use regenr_ctmc::{analyze, Ctmc, CtmcError, Uniformized};
use regenr_sparse::ParallelConfig;

/// Number of DTMC steps the occupancy is accumulated over.
const OCCUPANCY_STEPS: usize = 2_000;

/// Picks a regenerative state by cumulative-occupancy ranking of the chain
/// randomized with safety factor `theta`.
///
/// Returns the index of the highest-scoring non-absorbing state. Fails with
/// the structural errors of [`regenr_ctmc::analyze`] when the chain violates
/// the paper's assumptions.
pub fn select_regenerative_state(ctmc: &Ctmc, theta: f64) -> Result<usize, CtmcError> {
    let info = analyze(ctmc)?;
    let is_absorbing = {
        let mut v = vec![false; ctmc.n_states()];
        for &a in &info.absorbing {
            v[a] = true;
        }
        v
    };
    let unif = Uniformized::new(ctmc, theta);
    let stepper = unif.stepper(&ParallelConfig::default());
    let mut pi = ctmc.initial().to_vec();
    let mut next = vec![0.0; pi.len()];
    let mut score = pi.clone();
    for _ in 0..OCCUPANCY_STEPS {
        stepper.step(&pi, &mut next);
        std::mem::swap(&mut pi, &mut next);
        for (s, p) in score.iter_mut().zip(&pi) {
            *s += p;
        }
    }
    let best = score
        .iter()
        .enumerate()
        .filter(|&(i, _)| !is_absorbing[i])
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
        .map(|(i, _)| i)
        .expect("at least one non-absorbing state exists");
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_dominant_state_of_a_repairable_unit() {
        // Up state dominates occupancy by 1000:1.
        let c = Ctmc::from_rates(
            2,
            &[(0, 1, 1e-3), (1, 0, 1.0)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        )
        .unwrap();
        assert_eq!(select_regenerative_state(&c, 0.0).unwrap(), 0);
    }

    #[test]
    fn never_picks_an_absorbing_state() {
        // Strong drift into the absorbing state: occupancy mass ends there,
        // but the selection must stay within S.
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 1.0), (1, 0, 0.1), (1, 2, 5.0)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
        )
        .unwrap();
        let r = select_regenerative_state(&c, 0.0).unwrap();
        assert!(r < 2, "picked absorbing state {r}");
    }

    #[test]
    fn raid_heuristic_agrees_with_papers_choice() {
        use regenr_models::{RaidModel, RaidParams};
        let ctmc = RaidModel::new(RaidParams {
            g: 4,
            ..Default::default()
        })
        .build()
        .unwrap();
        // The paper's choice is the pristine state (index 0).
        let r = select_regenerative_state(&ctmc, 0.0).unwrap();
        assert_eq!(r, 0);
    }

    #[test]
    fn propagates_structural_errors() {
        let c = Ctmc::from_rates(
            3,
            &[(0, 2, 1.0), (1, 2, 1.0)],
            vec![0.5, 0.5, 0.0],
            vec![0.0; 3],
        )
        .unwrap();
        assert!(select_regenerative_state(&c, 0.0).is_err());
    }
}

//! A ring of `n` states with unit rates.
//!
//! With every exit rate equal to the uniformization rate, the randomized
//! DTMC has no self-loops and is *periodic* — the stress case for
//! steady-state detection (`d_n` never decays under θ=0 randomization). Used
//! by failure-injection tests.

use regenr_ctmc::Ctmc;

/// Builds the ring; reward 1 on state 0.
pub fn ring(n: usize) -> Ctmc {
    assert!(n >= 2);
    let rates: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
    let mut initial = vec![0.0; n];
    initial[0] = 1.0;
    let mut rewards = vec![0.0; n];
    rewards[0] = 1.0;
    Ctmc::from_rates(n, &rates, initial, rewards).expect("ring is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use regenr_ctmc::{analyze, Uniformized};
    use regenr_transient::{MeasureKind, SrOptions, SrSolver};

    #[test]
    fn ring_is_irreducible_and_periodic_under_theta_zero() {
        let c = ring(6);
        assert!(analyze(&c).unwrap().is_irreducible());
        let u = Uniformized::new(&c, 0.0);
        for i in 0..6 {
            assert_eq!(u.p_t.get(i, i), 0.0, "θ=0 ring must lack self-loops");
        }
    }

    #[test]
    fn occupancy_converges_to_uniform() {
        let c = ring(5);
        let sr = SrSolver::new(&c, SrOptions::default());
        let v = sr.solve(MeasureKind::Trr, 500.0).value;
        assert!(
            (v - 0.2).abs() < 1e-9,
            "long-run occupancy must be 1/n, got {v}"
        );
    }
}

//! Property tests: canned compositions are *bitwise* equal to hand-coded
//! builders of the same chains — same state numbering (BFS discovery
//! order), same CSR structure, and the same bit pattern in every rate,
//! reward and initial-probability entry, across random parameters.
//!
//! The hand-coded builders in `hand_coded/` are the oracle: each spells its
//! chain out state by state, independently of the composition compiler the
//! engine builds these kinds through. Fixed inputs the random ranges miss
//! (coverage exactly 1, both crash variants) are `compose.rs`'s unit tests.

mod hand_coded;

use hand_coded::assert_ctmc_bitwise_eq;
use proptest::prelude::*;
use regenr_models::compose::ComposeModel;
use regenr_models::multiproc::MultiprocParams;

/// A state cap no generated model comes near.
const CAP: usize = 10_000;

fn check_duplex(lambda: f64, mu: f64, coverage: f64) {
    let composed = ComposeModel::duplex(lambda, mu, coverage)
        .unwrap()
        .build(CAP)
        .unwrap();
    assert_ctmc_bitwise_eq(&hand_coded::duplex(lambda, mu, coverage), &composed);
}

fn check_machines(machines: u32, repairmen: u32, lambda: f64, mu: f64) {
    let composed = ComposeModel::machines(machines, repairmen, lambda, mu)
        .unwrap()
        .build(CAP)
        .unwrap();
    assert_ctmc_bitwise_eq(
        &hand_coded::machines(machines, repairmen, lambda, mu),
        &composed,
    );
}

fn check_multiproc(params: MultiprocParams) {
    let composed = ComposeModel::multiproc(&params)
        .unwrap()
        .build(CAP)
        .unwrap();
    assert_ctmc_bitwise_eq(&hand_coded::multiproc(&params), &composed);
}

proptest! {
    #[test]
    fn composed_duplex_bitwise_matches_hand_coded(
        lambda in 1e-6f64..1.0,
        mu in 1e-3f64..10.0,
        // Strictly positive coverage: at c = 0 the hand-coded builder keeps
        // an unreachable simplex state that exploration never numbers.
        coverage in 0.01f64..1.0,
    ) {
        check_duplex(lambda, mu, coverage);
    }

    #[test]
    fn composed_machines_bitwise_matches_hand_coded(
        machines in 1u32..40,
        repairmen in 1u32..40,
        lambda in 1e-6f64..1.0,
        mu in 1e-3f64..10.0,
    ) {
        check_machines(machines, repairmen, lambda, mu);
    }

    #[test]
    fn composed_multiproc_bitwise_matches_hand_coded(
        n_proc in 1u32..8,
        n_mem in 1u32..8,
        lambda_p in 1e-6f64..0.1,
        lambda_m in 1e-6f64..0.1,
        coverage in 0.01f64..1.0,
        mu in 0.1f64..5.0,
        delta in 0.1f64..10.0,
        absorbing_crash in any::<bool>(),
    ) {
        check_multiproc(MultiprocParams {
            n_proc, n_mem, lambda_p, lambda_m, coverage, mu, delta, absorbing_crash,
        });
    }
}

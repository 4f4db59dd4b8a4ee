//! Property tests: canned compositions are *bitwise* equal to the
//! hand-coded model families — same state numbering (BFS discovery order),
//! same CSR structure, and the same bit pattern in every rate, reward and
//! initial-probability entry, across random parameters.

use proptest::prelude::*;
use regenr_ctmc::Ctmc;
use regenr_models::compose::ComposeModel;
use regenr_models::machines::MachinesModel;
use regenr_models::multiproc::{MultiprocModel, MultiprocParams};
use regenr_models::redundant::duplex_with_coverage;

/// A state cap no generated model comes near.
const CAP: usize = 10_000;

fn assert_ctmc_bitwise_eq(a: &Ctmc, b: &Ctmc) {
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

proptest! {
    #[test]
    fn composed_duplex_bitwise_matches_hand_coded(
        lambda in 1e-6f64..1.0,
        mu in 1e-3f64..10.0,
        // Strictly positive coverage: at c = 0 the hand-coded builder keeps
        // an unreachable simplex state that exploration never numbers.
        coverage in 0.01f64..1.0,
    ) {
        let hand = duplex_with_coverage(lambda, mu, coverage);
        let composed = ComposeModel::duplex(lambda, mu, coverage)
            .unwrap()
            .build(CAP)
            .unwrap();
        assert_ctmc_bitwise_eq(&hand, &composed);
    }

    #[test]
    fn composed_machines_bitwise_matches_hand_coded(
        machines in 1u32..40,
        repairmen in 1u32..40,
        lambda in 1e-6f64..1.0,
        mu in 1e-3f64..10.0,
    ) {
        let hand = MachinesModel { machines, repairmen, lambda, mu }
            .build()
            .unwrap();
        let composed = ComposeModel::machines(machines, repairmen, lambda, mu)
            .unwrap()
            .build(CAP)
            .unwrap();
        assert_ctmc_bitwise_eq(&hand, &composed);
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
        let params = MultiprocParams {
            n_proc, n_mem, lambda_p, lambda_m, coverage, mu, delta, absorbing_crash,
        };
        let hand = MultiprocModel::new(params).build().unwrap();
        let composed = ComposeModel::multiproc(&params).unwrap().build(CAP).unwrap();
        assert_ctmc_bitwise_eq(&hand, &composed);
    }
}

//! RAID model validation against the paper's published figures.

use super::*;
use regenr_ctmc::{analyze, Ctmc, CtmcBuilder};

/// Builds `model`, collecting its state table through the explorer's
/// numbering callback.
fn build_with_states(model: &RaidModel) -> (Ctmc, Vec<RaidState>) {
    let mut states = Vec::new();
    let ctmc = CtmcBuilder::default()
        .explore(model, |_, s| states.push(*s))
        .unwrap();
    (ctmc, states)
}

#[test]
fn state_count_matches_paper_g20() {
    let ctmc = RaidModel::new(RaidParams::paper(20)).build().unwrap();
    assert_eq!(ctmc.n_states(), 3841, "paper: 3,841 states at G=20");
}

#[test]
fn state_count_matches_paper_g40() {
    let ctmc = RaidModel::new(RaidParams::paper(40)).build().unwrap();
    assert_eq!(ctmc.n_states(), 14_081, "paper: 14,081 states at G=40");
}

#[test]
fn transition_counts_near_paper() {
    // Paper: 24,785 transitions at G=20; 94,405 at G=40 (availability
    // variant), and "one transition less" for the absorbing variant. Our
    // generator merges parallel arcs between the same state pair (e.g. the
    // three distinct failure events leading to the lumped Failed state),
    // which the authors' tool appears to count separately: we measure
    // 22,737 / 87,097 — within 9% with identical state counts
    // (`repro sizes` prints both beside each other).
    for (g, want) in [(20u32, 24_785usize), (40, 94_405)] {
        let ctmc = RaidModel::new(RaidParams::paper(g)).build().unwrap();
        let got = ctmc.generator().nnz() - diag_count(&ctmc);
        let rel = (got as f64 - want as f64).abs() / want as f64;
        assert!(
            rel < 0.10,
            "G={g}: {got} off-diagonal transitions vs paper's {want}"
        );
    }
}

fn diag_count(c: &Ctmc) -> usize {
    (0..c.n_states())
        .filter(|&i| c.generator().get(i, i) != 0.0)
        .count()
}

#[test]
fn absorbing_variant_has_one_transition_less() {
    let ua = RaidModel::new(RaidParams::paper(20)).build().unwrap();
    let ur = RaidModel::new(RaidParams::paper(20).with_absorbing_failure())
        .build()
        .unwrap();
    assert_eq!(ua.n_states(), ur.n_states());
    let ua_t = ua.generator().nnz() - diag_count(&ua);
    let ur_t = ur.generator().nnz() - diag_count(&ur);
    assert_eq!(
        ua_t,
        ur_t + 1,
        "paper: absorbing variant has one transition less"
    );
}

#[test]
fn structure_satisfies_paper_assumptions() {
    let ua = RaidModel::new(RaidParams::paper(20)).build().unwrap();
    let info = analyze(&ua).unwrap();
    assert!(info.is_irreducible(), "UA model must be irreducible (A=0)");

    let ur = RaidModel::new(RaidParams::paper(20).with_absorbing_failure())
        .build()
        .unwrap();
    let info = analyze(&ur).unwrap();
    assert_eq!(info.absorbing.len(), 1, "UR model must have A=1");
    assert!(info.absorbing_reachable);
}

#[test]
fn pristine_state_is_index_zero() {
    let model = RaidModel::new(RaidParams::paper(20));
    let (ctmc, states) = build_with_states(&model);
    assert_eq!(states[0], model.pristine());
    assert_eq!(ctmc.initial()[0], 1.0);
}

#[test]
fn reward_structure_is_failure_indicator() {
    let (ctmc, states) = build_with_states(&RaidModel::new(RaidParams::paper(20)));
    let failed = states.iter().position(|s| *s == RaidState::Failed).unwrap();
    for (i, &r) in ctmc.rewards().iter().enumerate() {
        if i == failed {
            assert_eq!(r, 1.0);
        } else {
            assert_eq!(r, 0.0);
        }
    }
}

#[test]
fn uniformization_rate_in_expected_range() {
    // The dominant exit rate is the all-groups-reconstructing state:
    // ~G·μ_DRC + spare refills + failures ≈ G+1.
    for g in [20u32, 40] {
        let ctmc = RaidModel::new(RaidParams::paper(g)).build().unwrap();
        let max = ctmc.generator().max_abs_diag();
        // Dominant state: one failed disk + G−1 reconstructions + repairman
        // (μ_DRP = 4) + spare refills ⇒ Λ ≈ G + 3.75.
        assert!(
            max > g as f64 && max < g as f64 + 5.0,
            "G={g}: Λ = {max} outside the expected (G, G+5) band"
        );
    }
}

#[test]
fn state_invariants_hold_everywhere() {
    let (_, states) = build_with_states(&RaidModel::new(RaidParams::paper(20)));
    let g = 20u16;
    for s in &states {
        match *s {
            RaidState::Op {
                nfd,
                ndr,
                al,
                nsd,
                nsc,
            } => {
                assert!(nfd + ndr <= g);
                assert!(al || nfd + ndr >= 2, "AL must be canonical");
                assert!(nsd <= 3 && nsc <= 1);
            }
            RaidState::CtrlDown { nwd, nsd, nsc } => {
                assert!(nwd <= g);
                assert!(nsd <= 3 && nsc <= 1);
            }
            RaidState::Failed => {}
        }
    }
}

#[test]
fn small_instance_is_well_formed() {
    // A tiny instance exercises the boundary arithmetic (u == g etc.).
    let params = RaidParams {
        g: 2,
        d_h: 1,
        c_h: 1,
        ..Default::default()
    };
    let ctmc = RaidModel::new(params).build().unwrap();
    assert_eq!(ctmc.n_states(), 4 * (2 * 6) + 1);
    analyze(&ctmc).unwrap();
}

//! Direct regression tests against the figures the paper publishes:
//! model sizes, step-count tables, and the `UR(10⁵ h)` scalars.

use regenr::models::{RaidModel, RaidParams};
use regenr::prelude::*;

fn rrl(ctmc: &regenr::ctmc::Ctmc) -> RrlSolver<'_> {
    RrlSolver::new(
        ctmc,
        0,
        RrlOptions {
            regen: RegenOptions {
                epsilon: 1e-12,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn model_sizes_match_paper() {
    let g20 = RaidModel::new(RaidParams::paper(20)).build().unwrap();
    let g40 = RaidModel::new(RaidParams::paper(40)).build().unwrap();
    assert_eq!(g20.n_states(), 3_841);
    assert_eq!(g40.n_states(), 14_081);
}

/// Table 1 (UA measure): the paper's RR/RRL step counts, reproduced to ±2.
#[test]
fn table1_step_counts_match_paper() {
    let paper: [(u32, [usize; 6]); 2] = [
        (20, [56, 323, 2_234, 2_708, 2_938, 3_157]),
        (40, [86, 554, 4_187, 5_123, 5_549, 5_957]),
    ];
    for (g, want) in paper {
        let ctmc = RaidModel::new(RaidParams::paper(g)).build().unwrap();
        let solver = rrl(&ctmc);
        for (i, &t) in [1.0, 10.0, 100.0, 1e3, 1e4, 1e5].iter().enumerate() {
            let got = solver.trr(t).unwrap().construction_steps;
            assert!(
                got.abs_diff(want[i]) <= 2,
                "G={g}, t={t}: {got} steps vs paper's {}",
                want[i]
            );
        }
    }
}

/// Table 2 (UR measure): the paper's RR/RRL step counts, reproduced to ±2.
#[test]
fn table2_step_counts_match_paper() {
    let paper: [(u32, [usize; 6]); 2] = [
        (20, [56, 323, 2_233, 2_708, 2_937, 3_157]),
        (40, [86, 554, 4_186, 5_122, 5_547, 5_955]),
    ];
    for (g, want) in paper {
        let ctmc = RaidModel::new(RaidParams::paper(g).with_absorbing_failure())
            .build()
            .unwrap();
        let solver = rrl(&ctmc);
        for (i, &t) in [1.0, 10.0, 100.0, 1e3, 1e4, 1e5].iter().enumerate() {
            let got = solver.trr(t).unwrap().construction_steps;
            assert!(
                got.abs_diff(want[i]) <= 2,
                "G={g}, t={t}: {got} steps vs paper's {}",
                want[i]
            );
        }
    }
}

/// The paper's headline unreliability scalars (calibration of `P_R` used
/// only the G=20 value; G=40 is out-of-sample, see `regenr-bench`'s
/// `calibrate_pr` example).
#[test]
fn unreliability_scalars_match_paper() {
    for (g, want) in [(20u32, 0.50480), (40, 0.74750)] {
        let ctmc = RaidModel::new(RaidParams::paper(g).with_absorbing_failure())
            .build()
            .unwrap();
        let got = rrl(&ctmc).trr(1e5).unwrap().value;
        assert!(
            (got - want).abs() < 5e-5,
            "G={g}: UR(1e5) = {got} vs paper's {want}"
        );
    }
}

/// RSD steps saturate at the detection point for t ≥ 100 h (Table 1's RSD
/// column shows the same plateau, at 2,612/4,823).
#[test]
fn rsd_steps_saturate_like_paper() {
    let ctmc = RaidModel::new(RaidParams::paper(20)).build().unwrap();
    let rsd = RsdSolver::new(&ctmc, RsdOptions::default());
    let s100 = rsd.solve(MeasureKind::Trr, 100.0).steps;
    let s1e4 = rsd.solve(MeasureKind::Trr, 1e4).steps;
    let s1e5 = rsd.solve(MeasureKind::Trr, 1e5).steps;
    assert_eq!(s100, s1e4, "RSD must saturate at detection");
    assert_eq!(s100, s1e5);
    // Same order of magnitude as the paper's 2,612.
    assert!((1_500..4_000).contains(&s100), "detection step {s100}");
}

/// The paper notes the inversion consumed ~1–2% of RRL's time and used
/// 105–329 abscissae; verify the same orders of magnitude.
#[test]
fn inversion_cost_is_small_fraction() {
    let ctmc = RaidModel::new(RaidParams::paper(20)).build().unwrap();
    let solver = rrl(&ctmc);
    let sol = solver.trr(1e4).unwrap();
    assert!(
        (50..=600).contains(&sol.abscissae),
        "abscissae {} outside the paper's ballpark",
        sol.abscissae
    );
    let total = (sol.construction_time + sol.inversion_time).as_secs_f64();
    let share = sol.inversion_time.as_secs_f64() / total;
    assert!(
        share < 0.25,
        "inversion share {share} should be a small fraction"
    );
}

/// ε = 1e-12 at UR(1e5) ≈ 0.5 demands ~14 significant digits from the
/// inversion — the paper's stability argument. RRL vs RR (time-domain
/// solution of the same truncated model) must agree to that level.
#[test]
fn inversion_is_stable_to_fourteen_digits() {
    let ctmc = RaidModel::new(
        RaidParams {
            g: 4,
            ..Default::default()
        }
        .with_absorbing_failure(),
    )
    .build()
    .unwrap();
    let opts = RegenOptions {
        epsilon: 1e-12,
        ..Default::default()
    };
    let rr = RrSolver::new(&ctmc, 0, RrOptions { regen: opts }).unwrap();
    let rrl_s = RrlSolver::new(
        &ctmc,
        0,
        RrlOptions {
            regen: opts,
            ..Default::default()
        },
    )
    .unwrap();
    for &t in &[100.0, 1_000.0] {
        let a = rr.solve(MeasureKind::Trr, t).unwrap().value;
        let b = rrl_s.trr(t).unwrap().value;
        assert!(
            (a - b).abs() < 1e-12,
            "t={t}: RR {a} vs RRL {b} — inversion lost digits"
        );
    }
}

/// More hot spares must not hurt dependability (sanity of the parametric
/// model the paper varies over `G`, `C_H`, `D_H`).
#[test]
fn dependability_is_monotone_in_spares() {
    use regenr::models::{RaidModel, RaidParams};
    let ur = |c_h: u32, d_h: u32| {
        let p = RaidParams {
            g: 4,
            c_h,
            d_h,
            ..Default::default()
        }
        .with_absorbing_failure();
        let ctmc = RaidModel::new(p).build().unwrap();
        rrl(&ctmc).trr(1e4).unwrap().value
    };
    let base = ur(1, 3);
    assert!(
        ur(0, 3) >= base - 1e-12,
        "fewer controller spares must not help"
    );
    assert!(ur(1, 1) >= base - 1e-12, "fewer disk spares must not help");
    assert!(ur(2, 5) <= base + 1e-12, "more spares must not hurt");
}

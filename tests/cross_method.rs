//! Cross-method integration tests: every solver must agree on every model
//! within the error budgets, including the paper's RAID workloads.

use regenr::engine::SweepSpec;
use regenr::models::redundant::duplex_unreliability;
use regenr::models::{two_state, ComposeModel, RaidModel, RaidParams};
use regenr::prelude::*;
use regenr::transient::{AdaptiveOptions, AdaptiveSolver, OdeSolver};

const EPS: f64 = 1e-11;

fn regen_opts() -> RegenOptions {
    RegenOptions {
        epsilon: EPS,
        ..Default::default()
    }
}

fn all_trr(ctmc: &regenr::ctmc::Ctmc, r: usize, t: f64) -> Vec<(&'static str, f64)> {
    let sr = SrSolver::new(
        ctmc,
        SrOptions {
            epsilon: EPS,
            ..Default::default()
        },
    );
    let rsd = RsdSolver::new(
        ctmc,
        RsdOptions {
            epsilon: EPS,
            ..Default::default()
        },
    );
    let ad = AdaptiveSolver::new(
        ctmc,
        AdaptiveOptions {
            epsilon: EPS,
            ..Default::default()
        },
    );
    let rr = RrSolver::new(
        ctmc,
        r,
        RrOptions {
            regen: regen_opts(),
        },
    )
    .unwrap();
    let rrl = RrlSolver::new(
        ctmc,
        r,
        RrlOptions {
            regen: regen_opts(),
            ..Default::default()
        },
    )
    .unwrap();
    vec![
        ("SR", sr.solve(MeasureKind::Trr, t).value),
        ("RSD", rsd.solve(MeasureKind::Trr, t).value),
        ("adaptive", ad.solve(MeasureKind::Trr, t).value),
        ("RR", rr.solve(MeasureKind::Trr, t).unwrap().value),
        ("RRL", rrl.trr(t).unwrap().value),
    ]
}

fn assert_all_close(results: &[(&'static str, f64)], tol: f64, ctx: &str) {
    let (_, reference) = results[0];
    for &(name, v) in results {
        assert!(
            (v - reference).abs() < tol,
            "{ctx}: {name} gives {v}, SR gives {reference}"
        );
    }
}

#[test]
fn five_solvers_agree_on_two_state() {
    let c = two_state::repairable_unit(2e-3, 0.8);
    for &t in &[0.5, 5.0, 500.0] {
        let r = all_trr(&c, 0, t);
        assert_all_close(&r, 1e-9, &format!("two-state t={t}"));
        // And against the closed form.
        let exact = two_state::unavailability(2e-3, 0.8, t);
        assert!((r[0].1 - exact).abs() < 1e-10);
    }
}

fn duplex(coverage: f64) -> Ctmc {
    ComposeModel::duplex(0.02, 0.5, coverage)
        .unwrap()
        .build(10)
        .unwrap()
}

#[test]
fn five_solvers_agree_on_duplex() {
    let c = duplex(0.93);
    for &t in &[1.0, 50.0] {
        assert_all_close(&all_trr(&c, 0, t), 1e-9, &format!("duplex t={t}"));
    }
}

/// The `duplex` spec kind through the engine's Auto dispatch against the
/// closed form, at an interior coverage and at both ends. At coverage 0 the
/// simplex state is unreachable, and the chain must still solve.
#[test]
fn duplex_kind_matches_closed_form() {
    for coverage in [0.93, 1.0, 0.0] {
        let spec = SweepSpec::parse(&format!(
            r#"{{"epsilon": 1e-12, "horizons": [1, 50, 1000], "measures": ["trr"],
                "models": [{{"kind": "duplex", "lambda": 0.02, "mu": 0.5, "coverage": {coverage}}}]}}"#
        ))
        .unwrap();
        let sweep = Engine::with_options(spec.options).sweep(&spec.requests);
        assert!(
            sweep.failures.is_empty(),
            "coverage {coverage}: {:?}",
            sweep.failures
        );
        assert_eq!(sweep.reports.len(), 3);
        for cell in &sweep.reports {
            let exact = duplex_unreliability(0.02, 0.5, coverage, cell.t);
            assert!(
                (cell.value - exact).abs() < 1e-10,
                "coverage {coverage}, t = {}: {} vs {exact}",
                cell.t,
                cell.value
            );
        }
    }
}

#[test]
fn solvers_agree_on_small_raid_availability() {
    // A small instance keeps SR affordable while exercising the full
    // transition catalogue.
    let ctmc = RaidModel::new(RaidParams {
        g: 4,
        ..Default::default()
    })
    .build()
    .unwrap();
    for &t in &[1.0, 20.0] {
        assert_all_close(&all_trr(&ctmc, 0, t), 1e-9, &format!("raid4 t={t}"));
    }
}

#[test]
fn solvers_agree_on_small_raid_unreliability() {
    let ctmc = RaidModel::new(
        RaidParams {
            g: 4,
            ..Default::default()
        }
        .with_absorbing_failure(),
    )
    .build()
    .unwrap();
    for &t in &[1.0, 20.0] {
        assert_all_close(&all_trr(&ctmc, 0, t), 1e-9, &format!("raid4-UR t={t}"));
    }
}

#[test]
fn mrr_agrees_across_methods() {
    let c = duplex(0.93);
    let sr = SrSolver::new(
        &c,
        SrOptions {
            epsilon: EPS,
            ..Default::default()
        },
    );
    let rr = RrSolver::new(
        &c,
        0,
        RrOptions {
            regen: regen_opts(),
        },
    )
    .unwrap();
    let rrl = RrlSolver::new(
        &c,
        0,
        RrlOptions {
            regen: regen_opts(),
            ..Default::default()
        },
    )
    .unwrap();
    for &t in &[0.5, 10.0, 100.0] {
        let a = sr.solve(MeasureKind::Mrr, t).value;
        let b = rr.solve(MeasureKind::Mrr, t).unwrap().value;
        let c2 = rrl.mrr(t).unwrap().value;
        assert!((a - b).abs() < 1e-9, "t={t}: SR {a} vs RR {b}");
        assert!((a - c2).abs() < 1e-9, "t={t}: SR {a} vs RRL {c2}");
    }
}

#[test]
fn ode_oracle_agrees_on_dense_path() {
    // Independent numerical family (adaptive RK4(5) on the dense generator).
    let ctmc = RaidModel::new(RaidParams {
        g: 2,
        ..Default::default()
    })
    .build()
    .unwrap();
    let ode = OdeSolver::new(&ctmc, 1e-12);
    let sr = SrSolver::new(
        &ctmc,
        SrOptions {
            epsilon: 1e-13,
            ..Default::default()
        },
    );
    for &t in &[0.5, 5.0] {
        let a = ode.solve(MeasureKind::Trr, t).value;
        let b = sr.solve(MeasureKind::Trr, t).value;
        assert!((a - b).abs() < 1e-9, "t={t}: ode {a} vs sr {b}");
    }
}

#[test]
fn rrl_handles_paper_scale_horizons() {
    // At t = 1e5 h SR would need ~4.4e6 steps; RRL stays in the thousands
    // and returns in well under a second.
    let ctmc = RaidModel::new(RaidParams::paper(20)).build().unwrap();
    let rrl = RrlSolver::new(
        &ctmc,
        0,
        RrlOptions {
            regen: RegenOptions {
                epsilon: 1e-12,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let sol = rrl.trr(1e5).unwrap();
    assert!(sol.inversion_converged);
    assert!(sol.construction_steps < 4000);
    // Long-run unavailability of the G=20 system (regression value computed
    // by RSD and RRL independently).
    assert!((sol.value - 2.811109e-5).abs() < 1e-9);
}

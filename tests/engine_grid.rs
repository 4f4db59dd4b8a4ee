//! Engine integration tests: the paper's RAID workloads through `Auto`
//! dispatch, artifact-cache reuse across requests, and the cross-method
//! agreement property on the small closed-form models.

use regenr::engine::{
    report_to_json, DispatchReason, SweepSpec, ADAPTIVE_MIN_STATES, SMALL_LAMBDA_T, TINY_LAMBDA_T,
};
use regenr::models::{two_state, RaidModel, RaidParams};
use regenr::prelude::*;
use std::sync::Arc;

const T_GRID: [f64; 6] = [1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0];

/// The headline acceptance scenario: both paper workloads (irreducible UA,
/// absorbing UR) across the full horizon grid, solved with `method: Auto`.
/// The engine must pick SR at small `Λt`, RSD for the irreducible model and
/// RRL for the absorbing one at large `Λt`, and a *second* solve of the same
/// model fingerprint must reuse the cached uniformization.
#[test]
fn raid_grid_dispatches_and_caches() {
    let ua = Arc::new(RaidModel::new(RaidParams::paper(20)).build().unwrap());
    let ur = Arc::new(
        RaidModel::new(RaidParams::paper(20).with_absorbing_failure())
            .build()
            .unwrap(),
    );

    let engine = Engine::new();
    let sweep = engine.sweep(&[
        SolveRequest::new("raid_g20_ua", ua.clone(), T_GRID.to_vec()),
        SolveRequest::new("raid_g20_ur", ur.clone(), T_GRID.to_vec()),
    ]);
    assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
    assert_eq!(sweep.reports.len(), 12);

    for r in &sweep.reports {
        // Mirror the documented dispatch ladder — tiny Λt on a large sparse
        // model → active-set, small Λt → SR, then RSD/RRL by structure —
        // using the *cell's own* model (the UA/UR variants may diverge in
        // Λ or state count if the grid is ever reparameterized).
        let model = if r.model == "raid_g20_ua" { &ua } else { &ur };
        let lambda = model.generator().max_abs_diag();
        let expect = if lambda * r.t <= TINY_LAMBDA_T && model.n_states() >= ADAPTIVE_MIN_STATES {
            (Method::Adaptive, DispatchReason::TinyHorizonActiveSet)
        } else if lambda * r.t <= SMALL_LAMBDA_T {
            (Method::Sr, DispatchReason::SmallHorizon)
        } else if r.model == "raid_g20_ua" {
            (Method::Rsd, DispatchReason::IrreducibleSteadyState)
        } else {
            (Method::Rrl, DispatchReason::StiffLargeHorizon)
        };
        assert_eq!((r.method, r.reason), expect, "cell {} t={}", r.model, r.t);
        assert!(r.converged, "cell {} t={} did not converge", r.model, r.t);
    }
    // The paper's regimes must actually occur on this grid (plus the
    // active-set regime this engine adds at tiny Λt).
    assert!(sweep.reports.iter().any(|r| r.method == Method::Adaptive));
    assert!(sweep.reports.iter().any(|r| r.method == Method::Sr));
    assert!(sweep.reports.iter().any(|r| r.method == Method::Rsd));
    assert!(sweep.reports.iter().any(|r| r.method == Method::Rrl));

    // Headline scalar: UR(1e5 h) = 0.50480 at G = 20.
    let headline = sweep
        .reports
        .iter()
        .find(|r| r.model == "raid_g20_ur" && r.t == 1e5)
        .unwrap();
    assert!(
        (headline.value - 0.50480).abs() < 5e-6,
        "UR(1e5) = {}",
        headline.value
    );

    // Second solve of the same fingerprints: every cell must hit the
    // uniformization cache — no chain is re-uniformized.
    let before = engine.cache().stats();
    let again = engine.sweep(&[
        SolveRequest::new("raid_g20_ua#2", ua, T_GRID.to_vec()),
        SolveRequest::new("raid_g20_ur#2", ur, T_GRID.to_vec()),
    ]);
    assert!(again.failures.is_empty());
    assert!(
        again.reports.iter().all(|r| r.unif_cache_hit),
        "every repeated cell must reuse the cached uniformization"
    );
    assert_eq!(
        again.cache.uniformized.misses, before.uniformized.misses,
        "no new uniformization may be built on the repeat sweep"
    );
    assert!(again.cache.uniformized.hits > before.uniformized.hits);
    // RRL's killed-chain parameters are reused too (UR grid, same ε).
    assert!(again.cache.regen_params.hits > before.regen_params.hits);

    // The values of the repeat sweep are identical (same artifacts, same
    // arithmetic).
    for (a, b) in sweep.reports.iter().zip(&again.reports) {
        assert_eq!(a.value, b.value, "t={} {}", a.t, a.model);
    }
}

/// Cross-method property: on the closed-form two-state model and the cyclic
/// model, every method capable of the cell agrees within the error budgets.
#[test]
fn capable_methods_agree_on_small_models() {
    let eps = 1e-10;
    let tol = 1e-8;
    let models: [(&str, Arc<regenr::ctmc::Ctmc>); 3] = [
        ("two_state", Arc::new(two_state::repairable_unit(0.3, 1.7))),
        (
            "two_state_absorbing",
            Arc::new(two_state::non_repairable_unit(0.37)),
        ),
        ("cyclic", Arc::new(regenr::models::cyclic::ring(5))),
    ];
    let engine = Engine::new();
    for (name, model) in models {
        let absorbing = !model.absorbing_states().is_empty();
        for measure in [MeasureKind::Trr, MeasureKind::Mrr] {
            for t in [0.5, 5.0, 50.0] {
                let mut values: Vec<(Method, f64, f64)> = Vec::new();
                for method in regenr::engine::ALL_METHODS {
                    if absorbing && !method.capabilities().supports_absorbing {
                        continue;
                    }
                    let req = SolveRequest::new(name, model.clone(), vec![t])
                        .measure(measure)
                        .epsilon(eps)
                        .method(MethodChoice::Fixed(method));
                    let report = engine.solve(&req).unwrap().remove(0);
                    values.push((method, report.value, report.error_bound));
                }
                assert!(values.len() >= 5, "{name}: too few capable methods ran");
                let (m0, v0, _) = values[0];
                for &(m, v, _) in &values[1..] {
                    assert!(
                        (v - v0).abs() < tol,
                        "{name} {measure:?} t={t}: {m} = {v} vs {m0} = {v0}"
                    );
                }
            }
        }
    }
}

/// The CLI path: a JSON spec parses, sweeps, and serializes to a report
/// document with the expected cells.
#[test]
fn json_spec_roundtrip() {
    let spec = SweepSpec::parse(
        r#"{
            "epsilon": 1e-10,
            "horizons": [1, 10000],
            "models": [
                {"kind": "two_state", "lambda": 1e-3, "mu": 1.0},
                {"kind": "duplex", "lambda": 0.01, "mu": 1.0, "coverage": 0.95,
                 "measures": ["trr", "mrr"]}
            ]
        }"#,
    )
    .unwrap();
    assert_eq!(spec.requests.len(), 3);
    let engine = Engine::with_options(spec.options);
    let sweep = engine.sweep(&spec.requests);
    assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
    assert_eq!(sweep.reports.len(), 6);

    let doc = report_to_json(&sweep);
    let parsed = regenr::engine::Json::parse(&doc.to_string()).unwrap();
    let cells = parsed.get("reports").unwrap().as_arr().unwrap();
    assert_eq!(cells.len(), 6);
    assert_eq!(cells[0].get("model").unwrap().as_str(), Some("two_state"));
    assert!(cells[0].get("value").unwrap().as_f64().is_some());
    // The two-state closed form survives the JSON round trip.
    let ua1 = cells[0].get("value").unwrap().as_f64().unwrap();
    assert!((ua1 - two_state::unavailability(1e-3, 1.0, 1.0)).abs() < 1e-9);
}

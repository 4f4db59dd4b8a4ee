//! Cache-lifecycle integration tests (PR 2): bounded pools under a large
//! sweep, the paper grid through a capped cache, and the property that
//! caching is *transparent* — cache-on and cache-off sweeps produce
//! bitwise-identical values.

use proptest::prelude::*;
use regenr::engine::SweepSpec;
use regenr::models::{two_state, RaidModel, RaidParams};
use regenr::prelude::*;
use std::sync::Arc;

/// The acceptance scenario: a 100-request sweep through a capped cache.
/// Pool sizes never exceed the cap, eviction churn actually happens, the
/// warm repeats still hit, the paper's unreliability scalars
/// (`UR(1e5 h) = 0.50480` at `G = 20`, `0.74750` at `G = 40`) reproduce,
/// and the structure analysis runs once per distinct fingerprint.
#[test]
fn bounded_cache_serves_100_requests_and_reproduces_the_paper_grid() {
    let cap = 4;
    let engine =
        Engine::with_cache_config(EngineOptions::default(), CacheConfig::with_max_entries(cap));

    // 8 distinct small fingerprints, each requested 12 times (churn + warm
    // hits), plus the two paper RAID workloads requested twice each.
    let small: Vec<Arc<regenr::ctmc::Ctmc>> = (1..=8)
        .map(|i| Arc::new(two_state::repairable_unit(1e-3 * i as f64, 1.0)))
        .collect();
    let ur20 = Arc::new(
        RaidModel::new(RaidParams::paper(20).with_absorbing_failure())
            .build()
            .unwrap(),
    );
    let ur40 = Arc::new(
        RaidModel::new(RaidParams::paper(40).with_absorbing_failure())
            .build()
            .unwrap(),
    );

    let mut reqs: Vec<SolveRequest> = Vec::new();
    for round in 0..12 {
        for (i, model) in small.iter().enumerate() {
            reqs.push(
                SolveRequest::new(
                    format!("small_{i}_r{round}"),
                    model.clone(),
                    vec![1.0, 100.0],
                )
                .epsilon(1e-10),
            );
        }
    }
    for round in 0..2 {
        reqs.push(SolveRequest::new(
            format!("raid_g20_ur_r{round}"),
            ur20.clone(),
            vec![1e5],
        ));
        reqs.push(SolveRequest::new(
            format!("raid_g40_ur_r{round}"),
            ur40.clone(),
            vec![1e5],
        ));
    }
    assert_eq!(reqs.len(), 100);

    // Sweep in chunks and check the caps at every observation point, not
    // just at the end.
    let mut reports = Vec::new();
    for chunk in reqs.chunks(20) {
        let sweep = engine.sweep(chunk);
        assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
        reports.extend(sweep.reports);
        let stats = engine.cache().stats();
        for (pool, s) in [
            ("structure", stats.structure),
            ("uniformized", stats.uniformized),
            ("regen_params", stats.regen_params),
        ] {
            assert!(
                s.entries <= cap,
                "{pool} pool exceeded the cap: {} > {cap}",
                s.entries
            );
        }
    }
    assert_eq!(reports.len(), 196, "96×2 small cells + 4 RAID cells");

    let stats = engine.cache().stats();
    assert!(
        stats.uniformized.evictions > 0,
        "10 fingerprints through cap {cap} must evict"
    );
    assert!(
        stats.uniformized.hits > 0 && stats.structure.hits > 0,
        "warm repeats must hit: {stats:?}"
    );
    // The artifact graph keys chain facts *structurally*: the eight rate
    // variants of the small unit share one structure entry (served as
    // derived hits), so structure misses count distinct topologies — the
    // small unit, RAID `G = 20`, and RAID `G = 40` — not distinct
    // fingerprints. (The strict once-per-structure analysis invariant
    // lives in `regenr-engine`'s `analysis_once` test, which owns the
    // process-global analyze counter.)
    assert_eq!(stats.structure.misses, 3);
    assert!(
        stats.derived_hits > 0,
        "rate variants must share structure facts: {stats:?}"
    );

    for (name, want) in [("raid_g20_ur", 0.50480), ("raid_g40_ur", 0.74750)] {
        for r in reports.iter().filter(|r| r.model.starts_with(name)) {
            assert!(
                (r.value - want).abs() < 5e-5,
                "{}: UR(1e5) = {} vs paper's {want}",
                r.model,
                r.value
            );
        }
    }
}

/// Strategy: a random small request grid — repairable/non-repairable
/// two-state units with random rates, shared and per-request horizons.
fn arb_grid() -> impl Strategy<Value = Vec<(f64, bool, Vec<f64>, f64)>> {
    prop::collection::vec(
        (
            0.01f64..2.0,
            any::<bool>(),
            prop::collection::vec(0.1f64..5_000.0, 1..4),
            1e-10f64..1e-7,
        ),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    /// Caching must be invisible in the results: the same grid swept with an
    /// unbounded cache and with a disabled cache (`max_entries: 0` retains
    /// nothing) produces bitwise-identical values — reused/widened/sliced
    /// RRL parameters are exact prefixes of what a cold build would compute.
    #[test]
    fn cache_on_and_off_sweeps_are_bitwise_identical(grid in arb_grid()) {
        let reqs: Vec<SolveRequest> = grid
            .iter()
            .enumerate()
            .map(|(i, (lambda, absorbing, horizons, epsilon))| {
                let model = if *absorbing {
                    Arc::new(two_state::non_repairable_unit(*lambda))
                } else {
                    Arc::new(two_state::repairable_unit(*lambda, 1.0))
                };
                SolveRequest::new(format!("m{i}"), model, horizons.clone()).epsilon(*epsilon)
            })
            .collect();
        // threads: 1 pins job order so the cached run reuses/widens entries
        // in a deterministic sequence (parallel-vs-sequential identity is
        // covered separately in the engine's unit tests).
        let opts = EngineOptions { threads: 1, ..Default::default() };
        let on = Engine::with_options(opts);
        let off = Engine::with_cache_config(
            opts,
            CacheConfig { max_entries: Some(0), max_bytes: None },
        );

        // Sweep twice on the cached engine so the second pass runs entirely
        // warm; all three passes must agree bit for bit.
        let warm_up = on.sweep(&reqs);
        let cached = on.sweep(&reqs);
        let uncached = off.sweep(&reqs);
        prop_assert_eq!(warm_up.failures.len(), 0);
        prop_assert_eq!(uncached.failures.len(), 0);
        let off_stats = off.cache().stats();
        prop_assert_eq!(off_stats.uniformized.hits, 0);
        prop_assert_eq!(off_stats.uniformized.entries, 0);

        prop_assert_eq!(cached.reports.len(), uncached.reports.len());
        for ((a, b), c) in cached.reports.iter().zip(&uncached.reports).zip(&warm_up.reports) {
            prop_assert_eq!(a.t, b.t);
            prop_assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "cache-on {} vs cache-off {} at {} t={}",
                a.value,
                b.value,
                a.model,
                a.t
            );
            prop_assert_eq!(a.value.to_bits(), c.value.to_bits());
        }
    }
}

/// Strategy: a random sensitivity sweep — model family, scalable rate,
/// scale grid, horizons, and engine thread count all drawn at random. The
/// spec layer expands it into one rate variant per factor, all sharing one
/// generator structure.
fn arb_sensitivity() -> impl Strategy<Value = (usize, bool, usize, Vec<f64>, Vec<f64>, usize)> {
    (
        0usize..4,
        any::<bool>(),
        0usize..2,
        prop::collection::vec(0.3f64..3.0, 2..5),
        prop::collection::vec(0.1f64..1_000.0, 1..3),
        1usize..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..Default::default() })]

    /// The delta-rebind path must be invisible in the results: a
    /// sensitivity grid swept warm on one engine (every point after the
    /// first re-binds the donor's `Pᵀ` pattern and chain facts)
    /// is bitwise identical to solving each point on a cache cleared
    /// before it (every point pays the full cold build) — across random
    /// chain families, scale grids, and thread counts.
    #[test]
    fn delta_warm_sweep_matches_cleared_cache_point_solves(
        (family, absorbing, param_idx, grid, horizons, threads) in arb_sensitivity()
    ) {
        let fmt_list = |xs: &[f64]| {
            xs.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")
        };
        let (model, param) = match family {
            0 => (r#""kind": "raid", "g": 2"#.to_string(),
                  ["lambda_d", "lambda_s"][param_idx]),
            1 => (r#""kind": "two_state", "lambda": 1e-3, "mu": 1.0"#.to_string(),
                  ["lambda", "mu"][param_idx]),
            2 => (r#""kind": "duplex", "lambda": 0.01, "mu": 1.0, "coverage": 0.95"#
                      .to_string(),
                  ["lambda", "mu"][param_idx]),
            _ => (r#""kind": "machines", "machines": 4, "repairmen": 2, "lambda": 0.02, "mu": 1.0"#.to_string(),
                  ["lambda", "mu"][param_idx]),
        };
        let spec_json = format!(
            r#"{{"epsilon": 1e-10, "threads": {threads}, "horizons": [{}],
                "models": [{{{model}{}
                  , "sensitivity": {{"param": "{param}", "grid": [{}]}}}}]}}"#,
            fmt_list(&horizons),
            if absorbing && family == 0 { r#", "absorbing": true"# } else { "" },
            fmt_list(&grid),
        );
        let spec = SweepSpec::parse(&spec_json).unwrap();
        prop_assert_eq!(spec.requests.len(), grid.len());

        let warm = Engine::with_cache_config(spec.options, spec.cache);
        let cold = Engine::with_cache_config(spec.options, spec.cache);
        let mut warm_reports = Vec::new();
        let mut cold_reports = Vec::new();
        for req in &spec.requests {
            let sweep = warm.sweep(std::slice::from_ref(req));
            prop_assert_eq!(sweep.failures.len(), 0, "warm: {:?}", sweep.failures);
            warm_reports.extend(sweep.reports);
            cold.cache().clear();
            let sweep = cold.sweep(std::slice::from_ref(req));
            prop_assert_eq!(sweep.failures.len(), 0, "cold: {:?}", sweep.failures);
            cold_reports.extend(sweep.reports);
        }

        // Distinct non-unit factors after the first point must have ridden
        // the delta path (a duplicate factor is a plain full-fp hit).
        let distinct = {
            let mut f: Vec<u64> = grid.iter().map(|x| x.to_bits()).collect();
            f.sort_unstable();
            f.dedup();
            f.len()
        };
        let stats = warm.cache().stats();
        if distinct > 1 {
            prop_assert!(stats.rebinds > 0, "no rebinds on {distinct} variants: {stats:?}");
            prop_assert!(stats.derived_hits > 0, "no derived facts: {stats:?}");
        }

        prop_assert_eq!(warm_reports.len(), cold_reports.len());
        for (w, c) in warm_reports.iter().zip(&cold_reports) {
            prop_assert_eq!(&w.model, &c.model);
            prop_assert_eq!(w.t, c.t);
            prop_assert_eq!(
                w.value.to_bits(),
                c.value.to_bits(),
                "delta-warm {} vs cleared-cache {} at {} t={}",
                w.value,
                c.value,
                w.model,
                w.t
            );
        }
    }
}

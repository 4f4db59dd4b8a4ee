//! Whole-curve computation with shared construction (`solve_many`).
//!
//! ```text
//! cargo run --example multi_horizon --release
//! ```
//!
//! The paper computes the killed-chain parameters separately for each `t`.
//! Because the truncation bound is monotone in `t`, this library can compute
//! them once at the largest horizon and answer every smaller `t` by prefix
//! truncation — turning a 25-point `UA(t)` curve into one construction pass
//! plus 25 cheap inversions. This example measures the speedup on the
//! `G = 20` RAID model and verifies the values are identical to per-`t`
//! solves.

use regenr::core::select_regenerative_state;
use regenr::models::{RaidModel, RaidParams};
use regenr::prelude::*;
use std::time::Instant;

fn main() {
    let ctmc = RaidModel::new(RaidParams::paper(20)).build().unwrap();

    // The auto-selection heuristic recovers the paper's choice (pristine).
    let r = select_regenerative_state(&ctmc, 0.0).unwrap();
    println!("auto-selected regenerative state: {r} (paper uses the pristine state, index 0)");

    let rrl = RrlSolver::new(
        &ctmc,
        r,
        RrlOptions {
            regen: RegenOptions {
                epsilon: 1e-12,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();

    // 25 log-spaced horizons from 1 h to 1e5 h.
    let ts: Vec<f64> = (0..25).map(|i| 10f64.powf(i as f64 * 5.0 / 24.0)).collect();

    let t0 = Instant::now();
    let curve = rrl.solve_many(MeasureKind::Trr, &ts).unwrap();
    let shared = t0.elapsed();

    let t0 = Instant::now();
    let individual: Vec<_> = ts.iter().map(|&t| rrl.trr(t).unwrap()).collect();
    let per_t = t0.elapsed();

    println!("\n{:>12} {:>14} {:>8}", "t (h)", "UA(t)", "K used");
    for ((sol, single), &t) in curve.iter().zip(&individual).zip(&ts) {
        assert!((sol.value - single.value).abs() < 1e-13, "t={t}");
        assert_eq!(sol.construction_steps, single.construction_steps);
        println!(
            "{t:>12.2} {:>14.6e} {:>8}",
            sol.value, sol.construction_steps
        );
    }
    println!(
        "\nshared construction: {shared:.2?}   per-t construction: {per_t:.2?}   speedup ×{:.1}",
        per_t.as_secs_f64() / shared.as_secs_f64()
    );
}

//! Unreliability of the paper's level-5 RAID system (`UR(t)`, Section 3,
//! Table 2 workload): the system-failed state is absorbing (`A = 1`) —
//! through the solver engine.
//!
//! ```text
//! cargo run --example raid_unreliability --release [G]
//! ```
//!
//! Reproduces the paper's headline scalars: `UR(10⁵ h) = 0.50480` at `G=20`
//! and `0.74750` at `G=40` (with `P_R` calibrated by `regenr-bench`'s
//! `calibrate_pr` example).
//! Under `Auto` dispatch the engine uses SR only where it is cheap (small
//! `Λt`) and RRL beyond — exactly the regime split of Table 2, where SR
//! needs millions of steps at `t = 10⁵ h` and RRL a few thousand.

use regenr::models::{RaidModel, RaidParams};
use regenr::prelude::*;
use std::sync::Arc;

fn main() {
    let g: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);

    println!("building RAID unreliability model, G={g} ...");
    let ctmc = RaidModel::new(RaidParams::paper(g).with_absorbing_failure())
        .build()
        .unwrap();
    println!("  {} states", ctmc.n_states());
    let model = Arc::new(ctmc);

    let engine = Engine::new();
    let request = SolveRequest::new(
        format!("raid_g{g}_ur"),
        model,
        vec![1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0],
    );
    let reports = engine.solve(&request).unwrap();

    println!(
        "\n{:>9} {:>14} {:>7} {:>26} {:>8}",
        "t (h)", "UR(t)", "method", "dispatch reason", "steps"
    );
    for r in &reports {
        println!(
            "{:>9.0} {:>14.6e} {:>7} {:>26} {:>8}",
            r.t,
            r.value,
            r.method.name(),
            r.reason.as_str(),
            r.steps
        );
    }
    assert_eq!(
        reports.last().unwrap().method,
        Method::Rrl,
        "the large-horizon absorbing cells must dispatch to RRL"
    );

    let headline = reports.last().unwrap().value;
    let expected = if g == 20 {
        Some(0.50480)
    } else if g == 40 {
        Some(0.74750)
    } else {
        None
    };
    if let Some(want) = expected {
        println!(
            "\nUR(1e5 h) = {headline:.5} — paper reports {want:.5} (Δ = {:+.1e})",
            headline - want
        );
    } else {
        println!("\nUR(1e5 h) = {headline:.5}");
    }
}

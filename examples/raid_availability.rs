//! Point unavailability of the paper's level-5 RAID system (`UA(t)`,
//! Section 3, Table 1 workload) — through the solver engine.
//!
//! ```text
//! cargo run --example raid_availability --release [G]
//! ```
//!
//! Builds the irreducible RAID model (`A = 0`) and submits the paper's time
//! grid as one engine request with `Auto` dispatch: the engine runs SR at
//! the small-`Λt` horizons and switches to steady-state detection (RSD) for
//! the large ones — the per-horizon method choice Table 1 implies. A second,
//! fixed-method RRL request cross-checks every value and demonstrates the
//! artifact cache: both requests share one cached uniformization.

use regenr::models::{RaidModel, RaidParams};
use regenr::prelude::*;
use std::sync::Arc;

fn main() {
    let g: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);

    println!("building RAID availability model, G={g} ...");
    let ctmc = RaidModel::new(RaidParams::paper(g)).build().unwrap();
    println!(
        "  {} states, {} generator entries, Λ = {:.4}/h",
        ctmc.n_states(),
        ctmc.generator().nnz(),
        ctmc.generator().max_abs_diag()
    );
    let model = Arc::new(ctmc);

    let t_grid = vec![1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0];
    let engine = Engine::new();
    let auto = SolveRequest::new(format!("raid_g{g}_ua"), model.clone(), t_grid.clone());
    let rrl_check = SolveRequest::new(format!("raid_g{g}_ua_rrl"), model, t_grid.clone())
        .method(MethodChoice::Fixed(Method::Rrl));
    let sweep = engine.sweep(&[auto, rrl_check]);
    assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);

    let (auto_reports, rrl_reports) = sweep.reports.split_at(t_grid.len());
    println!(
        "\n{:>9} {:>14} {:>7} {:>26} {:>8} {:>9}",
        "t (h)", "UA(t)", "method", "dispatch reason", "steps", "K (RRL)"
    );
    for (a, r) in auto_reports.iter().zip(rrl_reports) {
        assert!(
            (a.value - r.value).abs() < 1e-9,
            "Auto and RRL disagree at t={}: {} vs {}",
            a.t,
            a.value,
            r.value
        );
        println!(
            "{:>9.0} {:>14.6e} {:>7} {:>26} {:>8} {:>9}",
            a.t,
            a.value,
            a.method.name(),
            a.reason.as_str(),
            a.steps,
            r.steps
        );
    }

    let cache = sweep.cache;
    println!(
        "\nAuto dispatch and fixed RRL agree to <1e-9 at every horizon; \
         uniformization cache: {} hits / {} misses.",
        cache.uniformized.hits, cache.uniformized.misses
    );
    assert!(
        cache.uniformized.hits > 0,
        "the second request must reuse the cached uniformization"
    );
}

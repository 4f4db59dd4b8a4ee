//! Performability analysis with a non-binary reward structure.
//!
//! ```text
//! cargo run --example performability --release
//! ```
//!
//! A machines-repairman system: 16 machines (λ = 0.02/h each), 2 repairmen
//! (μ = 1/h each); the reward rate of a state is the number of working
//! machines. `TRR(t)` is then the expected computational capacity at time `t`
//! and `MRR(t)` the mean capacity over a mission of length `t` — the paper's
//! two measures on a genuinely performability-flavoured model (rewards are
//! not a failure indicator).

use regenr::models::ComposeModel;
use regenr::prelude::*;

/// Long-run expected number of working machines, from the birth–death
/// stationary distribution: `π_{k+1} = π_k·(m−k)λ / (min(k+1, r)·μ)` for
/// `k` failed machines.
fn long_run_capacity(machines: u32, repairmen: u32, lambda: f64, mu: f64) -> f64 {
    let mut weight = 1.0;
    let (mut mass, mut capacity) = (0.0, 0.0);
    for k in 0..=machines {
        mass += weight;
        capacity += weight * (machines - k) as f64;
        weight *= (machines - k) as f64 * lambda / ((k + 1).min(repairmen) as f64 * mu);
    }
    capacity / mass
}

fn main() {
    let (machines, repairmen, lambda, mu) = (16, 2, 0.02, 1.0);
    let ctmc = ComposeModel::machines(machines, repairmen, lambda, mu)
        .unwrap()
        .build(1_000)
        .unwrap();
    println!(
        "machines-repairman model: {} states, r_max = {}",
        ctmc.n_states(),
        ctmc.max_reward()
    );

    let epsilon = 1e-12;
    let rrl = RrlSolver::new(
        &ctmc,
        0,
        RrlOptions {
            regen: RegenOptions {
                epsilon,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let sr = SrSolver::new(
        &ctmc,
        SrOptions {
            epsilon,
            ..Default::default()
        },
    );

    println!(
        "\n{:>9} {:>18} {:>18}",
        "t (h)", "capacity TRR(t)", "mean capacity MRR(t)"
    );
    for t in [0.5, 2.0, 10.0, 50.0, 250.0] {
        let trr = rrl.trr(t).unwrap().value;
        let mrr = rrl.mrr(t).unwrap().value;
        // Cross-check against standard randomization.
        assert!((trr - sr.solve(MeasureKind::Trr, t).value).abs() < 1e-9);
        assert!((mrr - sr.solve(MeasureKind::Mrr, t).value).abs() < 1e-9);
        println!("{t:>9.1} {trr:>18.8} {mrr:>18.8}");
    }

    // Long-run capacity from the birth–death closed form for reference.
    let long_run = long_run_capacity(machines, repairmen, lambda, mu);
    println!("\nlong-run expected capacity: {long_run:.8} machines");
    let trr_inf = rrl.trr(10_000.0).unwrap().value;
    assert!((trr_inf - long_run).abs() < 1e-7);
    println!("TRR(10⁴ h) = {trr_inf:.8} — converged to the stationary value.");
}

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

use regenr::models::machines::MachinesModel;
use regenr::prelude::*;
use regenr::transient::stationary_distribution;

fn main() {
    let model = MachinesModel {
        machines: 16,
        repairmen: 2,
        lambda: 0.02,
        mu: 1.0,
    };
    let ctmc = model.build().unwrap();
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

    // Long-run capacity from the stationary distribution for reference.
    let pi = stationary_distribution(&ctmc, 1e-14, 1_000_000).unwrap();
    let long_run = ctmc.reward_dot(&pi);
    println!("\nlong-run expected capacity: {long_run:.8} machines");
    let trr_inf = rrl.trr(10_000.0).unwrap().value;
    assert!((trr_inf - long_run).abs() < 1e-7);
    println!("TRR(10⁴ h) = {trr_inf:.8} — converged to the stationary value.");
}

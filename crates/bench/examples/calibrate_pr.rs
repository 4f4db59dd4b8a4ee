//! Calibration of the reconstruction success probability `P_R`.
//!
//! The paper never states P_R numerically. This example bisects it against
//! the published `UR(1e5 h) = 0.50480` at G=20 and then checks the G=40
//! value `0.74750` *out of sample* — one fitted scalar matching two
//! independent observables to all five published digits.

use regenr_core::{RegenOptions, RrlOptions, RrlSolver};
use regenr_models::{RaidModel, RaidParams};

fn ur(g: u32, p_r: f64, t: f64) -> f64 {
    let params = RaidParams {
        p_r,
        ..RaidParams::paper(g)
    }
    .with_absorbing_failure();
    let ctmc = RaidModel::new(params).build().unwrap();
    let opts = RrlOptions {
        regen: RegenOptions {
            epsilon: 1e-10,
            ..Default::default()
        },
        ..Default::default()
    };
    RrlSolver::new(&ctmc, 0, opts)
        .unwrap()
        .trr(t)
        .unwrap()
        .value
}

fn main() {
    let t = 1e5;
    let (mut lo, mut hi) = (0.9975f64, 0.9999f64);
    for _ in 0..25 {
        let mid = 0.5 * (lo + hi);
        if ur(20, mid, t) > 0.50480 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let pr = 0.5 * (lo + hi);
    println!("calibrated P_R = {pr:.7}");
    println!("UR20 = {:.5} (paper 0.50480)", ur(20, pr, t));
    println!("UR40 = {:.5} (paper 0.74750, out-of-sample)", ur(40, pr, t));
}

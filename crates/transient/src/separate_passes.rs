//! SR's and RSD's stepping loops as they ran before their reductions moved
//! into the product's fold: the product, then separate passes over the
//! stored vector (`reward_dot`, and RSD's L1 delta). The folded loops must
//! report exactly what these do, bit for bit.

use crate::rsd::{Detector, RsdOptions, RsdReport, RsdSolver};
use crate::sr::{SrOptions, SrSolver};
use crate::window::PoissonWindows;
use crate::{MeasureKind, Solution};
use regenr_ctmc::{Ctmc, Uniformized};
use regenr_models::{RaidModel, RaidParams};
use regenr_numeric::PoissonWeights;
use regenr_sparse::ParallelConfig;
use std::sync::Arc;

/// RAID G ≤ 8, UA and UR, and a chain with two absorbing states whose
/// initial distribution is spread over three states.
fn chains() -> Vec<(String, Ctmc)> {
    let mut chains = Vec::new();
    for g in [2, 5, 8] {
        let ua = RaidParams::paper(g);
        chains.push((
            format!("raid g={g} UA"),
            RaidModel::new(ua).build().unwrap(),
        ));
        let ur = ua.with_absorbing_failure();
        chains.push((
            format!("raid g={g} UR"),
            RaidModel::new(ur).build().unwrap(),
        ));
    }
    let two_absorbing = Ctmc::from_rates(
        5,
        &[
            (0, 1, 1.0),
            (1, 0, 0.7),
            (1, 2, 0.4),
            (2, 1, 0.9),
            (1, 3, 0.05),
            (2, 4, 0.02),
        ],
        vec![0.5, 0.25, 0.25, 0.0, 0.0],
        vec![0.0, 0.5, 1.0, 2.0, 3.0],
    )
    .unwrap();
    chains.push(("two absorbing states".into(), two_absorbing));
    chains
}

/// One chunk, and four on the shared pool.
const CONFIGS: [ParallelConfig; 2] = [
    ParallelConfig {
        min_nnz: 50_000,
        threads: 0,
    },
    ParallelConfig {
        min_nnz: 0,
        threads: 4,
    },
];

const EPSILON: f64 = 1e-12;

fn sr_separate_passes(
    ctmc: &Ctmc,
    unif: &Uniformized,
    cfg: &ParallelConfig,
    measure: MeasureKind,
    ts: &[f64],
) -> Vec<Solution> {
    let mut windows = PoissonWindows::new(ctmc, unif.lambda, measure, ts, EPSILON, 1.0);
    let mut cells = vec![windows.still(); ts.len()];
    let Some(max_right) = windows.max_right() else {
        return cells;
    };
    let stepper = unif.stepper(cfg);
    let mut pi = ctmc.initial().to_vec();
    let mut next = vec![0.0; pi.len()];
    for n in 0..=max_right {
        windows.add(n, ctmc.reward_dot(&pi), |h, cell| cells[h] = cell);
        if n < max_right {
            stepper.step(&pi, &mut next);
            std::mem::swap(&mut pi, &mut next);
        }
    }
    cells
}

fn rsd_separate_passes(
    ctmc: &Ctmc,
    unif: &Uniformized,
    cfg: &ParallelConfig,
    measure: MeasureKind,
    ts: &[f64],
) -> Vec<RsdReport> {
    let mut windows = PoissonWindows::new(ctmc, unif.lambda, measure, ts, EPSILON, 2.0);
    let mut reports = vec![
        RsdReport {
            solution: windows.still(),
            detected_at: None,
            final_delta: f64::NAN,
        };
        ts.len()
    ];
    let Some(max_right) = windows.max_right() else {
        return reports;
    };
    let mut detector = Detector::new(ctmc.max_reward(), EPSILON / 2.0);
    let stepper = unif.stepper(cfg);
    let mut pi = ctmc.initial().to_vec();
    let mut next = vec![0.0; pi.len()];
    let (mut detected_at, mut final_delta) = (None, f64::NAN);
    for n in 0..=max_right {
        windows.add(n, ctmc.reward_dot(&pi), |h, solution| {
            reports[h] = RsdReport {
                solution,
                detected_at: None,
                final_delta,
            };
        });
        if n == max_right {
            break;
        }
        stepper.step(&pi, &mut next);
        let d: f64 = next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        final_delta = d;
        if detector.detects(n as usize + 1, d) {
            detected_at = Some(n as usize + 1);
            break;
        }
    }
    if let Some(n_star) = detected_at {
        let n_star = n_star as u64;
        let rr = ctmc.reward_dot(&pi);
        let tail = |w: &PoissonWeights| match measure {
            MeasureKind::Trr => w.survival(n_star),
            MeasureKind::Mrr => w.expected_excess(n_star + 1),
        };
        windows.close_open(
            n_star,
            |w| tail(w) * rr,
            |h, solution| {
                reports[h] = RsdReport {
                    solution,
                    detected_at,
                    final_delta,
                };
            },
        );
    }
    reports
}

fn solution_bits(s: &Solution) -> (u64, usize, u64) {
    (s.value.to_bits(), s.steps, s.error_bound.to_bits())
}

#[test]
fn folded_sr_is_bitwise_the_separate_passes() {
    let ts = [0.0, 1.0, 10.0, 100.0, 1000.0];
    for (name, ctmc) in chains() {
        let unif = Arc::new(Uniformized::new(&ctmc, 0.0));
        for cfg in &CONFIGS {
            let opts = SrOptions {
                epsilon: EPSILON,
                parallel: *cfg,
                ..SrOptions::default()
            };
            let sr = SrSolver::with_uniformized(&ctmc, unif.clone(), opts);
            for measure in [MeasureKind::Trr, MeasureKind::Mrr] {
                let got = sr.solve_many(measure, &ts);
                let want = sr_separate_passes(&ctmc, &unif, cfg, measure, &ts);
                for (h, (g, w)) in got.iter().zip(&want).enumerate() {
                    let case = format!("{name} {measure:?} t={} threads={}", ts[h], cfg.threads);
                    assert_eq!(solution_bits(g), solution_bits(w), "{case}");
                }
            }
        }
    }
}

#[test]
fn folded_rsd_is_bitwise_the_separate_passes() {
    // UA detects within 1,109 steps (G = 8), before t = 100 closes; UR
    // and the two-absorbing chain step to t = 1000 (11,751 steps at G = 8).
    let ts = [1.0, 100.0, 1000.0];
    let mut detected = 0;
    for (name, ctmc) in chains() {
        let unif = Arc::new(Uniformized::new(&ctmc, 0.0));
        for cfg in &CONFIGS {
            let opts = RsdOptions {
                epsilon: EPSILON,
                parallel: *cfg,
                ..RsdOptions::default()
            };
            let rsd = RsdSolver::with_uniformized(&ctmc, unif.clone(), opts);
            for measure in [MeasureKind::Trr, MeasureKind::Mrr] {
                let got = rsd.solve_many_with(measure, &ts, &mut crate::Workspace::new());
                let want = rsd_separate_passes(&ctmc, &unif, cfg, measure, &ts);
                for (h, (g, w)) in got.iter().zip(&want).enumerate() {
                    let case = format!("{name} {measure:?} t={} threads={}", ts[h], cfg.threads);
                    assert_eq!(
                        solution_bits(&g.solution),
                        solution_bits(&w.solution),
                        "{case}"
                    );
                    assert_eq!(g.detected_at, w.detected_at, "{case}");
                    assert_eq!(g.final_delta.to_bits(), w.final_delta.to_bits(), "{case}");
                    detected += usize::from(g.detected_at.is_some());
                }
            }
        }
    }
    assert!(detected > 0, "some horizon must reach detection");
}

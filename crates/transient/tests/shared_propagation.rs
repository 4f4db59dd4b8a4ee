//! RSD and Adaptive serve a whole horizon grid from one propagation. These
//! properties pin that sharing to the one-horizon calls: every report —
//! value, `steps` and each method's diagnostics — must be bitwise what
//! `solve_many_with(&[t])` returns for that horizon alone.

use proptest::prelude::*;
use regenr_ctmc::Ctmc;
use regenr_transient::adaptive::AdaptiveReport;
use regenr_transient::rsd::RsdReport;
use regenr_transient::{
    AdaptiveOptions, AdaptiveSolver, MeasureKind, RsdOptions, RsdSolver, Workspace,
};

/// The θ = 0 periodic 3-cycle: `d_n` never shrinks, so RSD never detects.
fn periodic_cycle() -> Ctmc {
    Ctmc::from_rates(
        3,
        &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
        vec![1.0, 0.0, 0.0],
        vec![1.0, 0.0, 0.0],
    )
    .unwrap()
}

/// A random irreducible chain with 2–6 states and random rewards — or, when
/// `periodic` is drawn, the 3-cycle above.
fn arb_chain() -> impl Strategy<Value = Ctmc> {
    (
        2usize..7,
        prop::collection::vec(0.0f64..2.0, 36),
        prop::collection::vec(0.0f64..3.0, 6),
        any::<bool>(),
    )
        .prop_map(|(n, raw, rewards, periodic)| {
            if periodic {
                return periodic_cycle();
            }
            // A cycle makes the chain irreducible.
            let mut rates: Vec<(usize, usize, f64)> =
                (0..n).map(|i| (i, (i + 1) % n, 0.5)).collect();
            for i in 0..n {
                for j in 0..n {
                    if i != j && raw[i * 6 + j] > 0.25 {
                        rates.push((i, j, raw[i * 6 + j]));
                    }
                }
            }
            let mut initial = vec![0.0; n];
            initial[0] = 1.0;
            Ctmc::from_rates(n, &rates, initial, rewards[..n].to_vec()).unwrap()
        })
}

/// An unsorted horizon grid spanning 10⁻³…10³ (Poisson windows that end
/// long before detection and long after it), optionally with a `0` and a
/// duplicate inserted.
fn arb_horizons() -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec(-3.0f64..3.0, 1..6),
        any::<bool>(),
        any::<bool>(),
        0usize..6,
    )
        .prop_map(|(exponents, zero, duplicate, at)| {
            let mut ts: Vec<f64> = exponents.iter().map(|e| 10f64.powf(*e)).collect();
            if duplicate {
                ts.insert(at % ts.len(), ts[0]);
            }
            if zero {
                ts.insert(at % (ts.len() + 1), 0.0);
            }
            ts
        })
}

fn measure(mrr: bool) -> MeasureKind {
    if mrr {
        MeasureKind::Mrr
    } else {
        MeasureKind::Trr
    }
}

fn assert_rsd_matches_single(solver: &RsdSolver<'_>, m: MeasureKind, ts: &[f64]) -> Vec<RsdReport> {
    let mut ws = Workspace::new();
    let many = solver.solve_many_with(m, ts, &mut ws);
    assert_eq!(many.len(), ts.len());
    for (got, &t) in many.iter().zip(ts) {
        let want = solver.solve_many_with(m, &[t], &mut ws)[0];
        let ctx = format!("{m:?} t={t} ts={ts:?}");
        assert_eq!(
            got.solution.value.to_bits(),
            want.solution.value.to_bits(),
            "{ctx}"
        );
        assert_eq!(got.solution.steps, want.solution.steps, "{ctx}");
        assert_eq!(
            got.solution.error_bound.to_bits(),
            want.solution.error_bound.to_bits(),
            "{ctx}"
        );
        assert_eq!(got.detected_at, want.detected_at, "{ctx}");
        assert_eq!(
            got.final_delta.to_bits(),
            want.final_delta.to_bits(),
            "{ctx}"
        );
    }
    many
}

fn assert_adaptive_matches_single(
    solver: &AdaptiveSolver<'_>,
    m: MeasureKind,
    ts: &[f64],
) -> Vec<AdaptiveReport> {
    let mut ws = Workspace::new();
    let many = solver.solve_many_with(m, ts, &mut ws);
    assert_eq!(many.len(), ts.len());
    for (got, &t) in many.iter().zip(ts) {
        let want = solver.solve_many_with(m, &[t], &mut ws)[0];
        let ctx = format!("{m:?} t={t} ts={ts:?}");
        assert_eq!(
            got.solution.value.to_bits(),
            want.solution.value.to_bits(),
            "{ctx}"
        );
        assert_eq!(got.solution.steps, want.solution.steps, "{ctx}");
        assert_eq!(
            got.solution.error_bound.to_bits(),
            want.solution.error_bound.to_bits(),
            "{ctx}"
        );
        assert_eq!(got.final_active, want.final_active, "{ctx}");
        assert_eq!(got.touched_nnz, want.touched_nnz, "{ctx}");
    }
    many
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// One RSD propagation equals one call per horizon, bitwise.
    #[test]
    fn rsd_many_matches_single_horizon_calls(chain in arb_chain(), ts in arb_horizons(), mrr in any::<bool>()) {
        let solver = RsdSolver::new(&chain, RsdOptions { epsilon: 1e-10, ..Default::default() });
        assert_rsd_matches_single(&solver, measure(mrr), &ts);
    }

    /// One Adaptive propagation equals one call per horizon, bitwise.
    #[test]
    fn adaptive_many_matches_single_horizon_calls(chain in arb_chain(), ts in arb_horizons(), mrr in any::<bool>()) {
        let solver = AdaptiveSolver::new(&chain, AdaptiveOptions { epsilon: 1e-10, ..Default::default() });
        assert_adaptive_matches_single(&solver, measure(mrr), &ts);
    }
}

/// One grid holding every case the shared loop distinguishes: `t = 0`, a
/// window ending before detection, detected horizons, and a duplicate.
#[test]
fn rsd_grid_mixes_windows_ending_before_and_after_detection() {
    let chain = Ctmc::from_rates(
        2,
        &[(0, 1, 0.3), (1, 0, 1.7)],
        vec![1.0, 0.0],
        vec![0.0, 1.0],
    )
    .unwrap();
    let solver = RsdSolver::new(&chain, RsdOptions::default());
    let ts = [1e4, 0.5, 0.0, 1e2, 0.5];
    for m in [MeasureKind::Trr, MeasureKind::Mrr] {
        let reports = assert_rsd_matches_single(&solver, m, &ts);
        let n_star = reports[0].detected_at.expect("t = 1e4 detects");
        assert_eq!(reports[0].solution.steps, n_star);
        assert_eq!(
            reports[3].detected_at,
            Some(n_star),
            "detection is t-independent"
        );
        assert_eq!(reports[3].solution.steps, n_star);
        assert_eq!(reports[1].detected_at, None, "t = 0.5 closes before n*");
        assert!(reports[1].solution.steps < n_star);
        assert_eq!(reports[2].solution.steps, 0);
    }
}

/// The periodic 3-cycle never detects: every horizon runs its own full
/// Poisson window inside the shared propagation.
#[test]
fn rsd_periodic_cycle_never_detects() {
    let chain = periodic_cycle();
    let solver = RsdSolver::new(&chain, RsdOptions::default());
    let ts = [30.0, 3.0, 0.0, 300.0];
    for m in [MeasureKind::Trr, MeasureKind::Mrr] {
        for r in assert_rsd_matches_single(&solver, m, &ts) {
            assert_eq!(r.detected_at, None);
        }
    }
}

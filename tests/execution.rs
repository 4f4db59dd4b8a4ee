//! Execution-core properties: pooled SpMV and pooled solvers are bitwise
//! identical to serial execution, and workspaces make repeated solves
//! allocation-free.
//!
//! The determinism half is the contract the CI `threads=1` vs `threads=4`
//! job checks end-to-end on the CLI; here it is a property over *random*
//! chains and sweep specs.

use proptest::prelude::*;
use regenr::ctmc::Ctmc;
use regenr::prelude::*;
use regenr::sparse::ParallelConfig;
use std::sync::Arc;

/// Strategy: a random strongly connected CTMC with 2–7 states, optionally
/// with one absorbing state, plus a random horizon grid (a miniature sweep
/// spec).
fn arb_chain_and_grid() -> impl Strategy<Value = (Ctmc, Vec<f64>)> {
    // Horizons up to 400 h cross the Λt ≈ 2000 SR threshold on the faster
    // chains, so the grids exercise the RSD/RRL dispatch arms too.
    (
        2usize..7,
        any::<bool>(),
        prop::collection::vec(0.0f64..400.0, 1..4),
    )
        .prop_flat_map(|(n, absorbing, ts)| {
            let n_rates = n * n;
            (
                prop::collection::vec(0.0f64..2.0, n_rates),
                prop::collection::vec(0.0f64..3.0, n + 1),
                Just(absorbing),
                Just(n),
                Just(ts),
            )
                .prop_map(|(raw, rewards, absorbing, n, ts)| {
                    let mut rates: Vec<(usize, usize, f64)> = Vec::new();
                    // A cycle guarantees strong connectivity of S.
                    for i in 0..n {
                        rates.push((i, (i + 1) % n, 0.5));
                    }
                    for i in 0..n {
                        for j in 0..n {
                            let r = raw[i * n + j];
                            if i != j && r > 0.25 {
                                rates.push((i, j, r));
                            }
                        }
                    }
                    let total = if absorbing { n + 1 } else { n };
                    if absorbing {
                        rates.push((1, n, 0.05));
                    }
                    let mut initial = vec![0.0; total];
                    initial[0] = 1.0;
                    let mut rw = rewards;
                    rw.truncate(total);
                    rw.resize(total, 1.0);
                    (Ctmc::from_rates(total, &rates, initial, rw).unwrap(), ts)
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Pooled SR (chunked stepping through the worker pool) is bitwise
    /// identical to strictly serial SR on random chains.
    #[test]
    fn pooled_solver_is_bitwise_serial((chain, ts) in arb_chain_and_grid()) {
        let serial = SrSolver::new(&chain, SrOptions {
            epsilon: 1e-10,
            parallel: ParallelConfig { min_nnz: usize::MAX, threads: 1 },
            ..Default::default()
        });
        let pooled = SrSolver::new(&chain, SrOptions {
            epsilon: 1e-10,
            // Force the pooled kernel even on these tiny matrices.
            parallel: ParallelConfig { min_nnz: 0, threads: 4 },
            ..Default::default()
        });
        for m in [MeasureKind::Trr, MeasureKind::Mrr] {
            let a = serial.solve_many(m, &ts);
            let b = pooled.solve_many(m, &ts);
            for ((x, y), t) in a.iter().zip(&b).zip(&ts) {
                prop_assert_eq!(
                    x.value.to_bits(), y.value.to_bits(),
                    "{:?} t={}: serial {} vs pooled {}", m, t, x.value, y.value
                );
                prop_assert_eq!(x.steps, y.steps);
            }
        }
    }

    /// Engine sweeps with 1 and 4 sweep workers produce bitwise-identical
    /// reports on random chains and horizon grids — parallel execution
    /// changes scheduling, never values.
    #[test]
    fn sweep_values_are_bitwise_identical_across_thread_counts(
        (chain, ts) in arb_chain_and_grid()
    ) {
        let model = Arc::new(chain);
        let reqs: Vec<SolveRequest> = [MeasureKind::Trr, MeasureKind::Mrr]
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                SolveRequest::new(format!("m{i}"), model.clone(), ts.clone())
                    .measure(m)
                    .epsilon(1e-10)
            })
            .collect();
        let mk = |threads| {
            Engine::with_options(EngineOptions { threads, ..Default::default() })
        };
        let one = mk(1).sweep(&reqs);
        let four = mk(4).sweep(&reqs);
        prop_assert!(one.failures.is_empty(), "{:?}", one.failures);
        prop_assert!(four.failures.is_empty(), "{:?}", four.failures);
        prop_assert_eq!(one.reports.len(), four.reports.len());
        for (a, b) in one.reports.iter().zip(&four.reports) {
            prop_assert_eq!(&a.model, &b.model);
            prop_assert_eq!(a.t.to_bits(), b.t.to_bits());
            prop_assert_eq!(a.method, b.method);
            prop_assert_eq!(
                a.value.to_bits(), b.value.to_bits(),
                "{} t={}: 1-thread {} vs 4-thread {}", a.model, a.t, a.value, b.value
            );
            prop_assert_eq!(a.steps, b.steps);
        }
    }
}

/// Workspace reuse across an engine-shaped workload: repeated `solve_many`
/// calls through one workspace stop allocating after warm-up, for every
/// solver the engine dispatches to.
#[test]
fn workspaces_stop_allocating_after_warmup() {
    let chain = regenr::models::two_state::repairable_unit(1e-3, 1.0);
    let ts = [1.0, 50.0, 500.0];
    let mut ws = Workspace::new();

    let sr = SrSolver::new(
        &chain,
        SrOptions {
            epsilon: 1e-10,
            ..Default::default()
        },
    );
    let rsd = RsdSolver::new(
        &chain,
        RsdOptions {
            epsilon: 1e-10,
            ..Default::default()
        },
    );
    let rrl = RrlSolver::new(
        &chain,
        0,
        RrlOptions {
            regen: RegenOptions {
                epsilon: 1e-10,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();

    // Warm-up round: every solver sizes its scratch.
    sr.solve_many_with(MeasureKind::Trr, &ts, &mut ws);
    for &t in &ts {
        rsd.solve_report_with(MeasureKind::Trr, t, &mut ws);
    }
    rrl.solve_many_with(MeasureKind::Trr, &ts, &mut ws).unwrap();
    let warm = ws.stats();

    for _ in 0..3 {
        sr.solve_many_with(MeasureKind::Trr, &ts, &mut ws);
        for &t in &ts {
            rsd.solve_report_with(MeasureKind::Trr, t, &mut ws);
        }
        rrl.solve_many_with(MeasureKind::Trr, &ts, &mut ws).unwrap();
    }
    let after = ws.stats();
    assert!(after.takes > warm.takes, "solvers must draw scratch");
    assert_eq!(
        after.fresh_allocs, warm.fresh_allocs,
        "no steady-state growth: every post-warm-up take must be a reuse \
         (warm {warm:?}, after {after:?})"
    );
}

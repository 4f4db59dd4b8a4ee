//! Grids of rate variants explore once: every point after the first is
//! compiled by replaying the first point's exploration, and must equal its
//! own cold build bit for bit, over the first point's generator pattern
//! (one shared allocation, not a copy). Covered here: RAID at G ≤ 8 over
//! each of the eight rates a `"sensitivity"` grid may scale, in both
//! variants, and compositions with dependencies, reboot, `down_absorbing`
//! and a `working` reward.

#[allow(dead_code)]
mod hand_coded;

use hand_coded::assert_ctmc_bitwise_eq;
use regenr_ctmc::{CtmcBuilder, ModelSpec};
use regenr_models::compose::{ComponentClass, ComposeModel, RewardKind, UncoveredPolicy};
use regenr_models::multiproc::MultiprocParams;
use regenr_models::{RaidModel, RaidParams};
use std::cell::Cell;
use std::sync::Arc;

/// A state cap no test model comes near.
const CAP: usize = 10_000;

/// Counts `transitions` calls: a replay calls it once per state, and one
/// that falls back to exploring calls it again.
struct Counted<'a, M> {
    model: &'a M,
    calls: Cell<usize>,
}

impl<M: ModelSpec> ModelSpec for Counted<'_, M> {
    type State = M::State;

    fn initial(&self) -> Vec<(M::State, f64)> {
        self.model.initial()
    }

    fn transitions(&self, state: &M::State) -> Vec<(M::State, f64)> {
        self.calls.set(self.calls.get() + 1);
        self.model.transitions(state)
    }

    fn reward(&self, state: &M::State) -> f64 {
        self.model.reward(state)
    }
}

/// Compiles `points` as one grid (the first explored, the rest replayed)
/// and checks each against its own exploration, and that every replayed
/// generator shares the base's pattern allocation.
fn check_grid<M: ModelSpec>(points: &[M]) {
    let builder = CtmcBuilder::with_max_states(CAP);
    let (base, mut replay) = builder.explore_grid(&points[0]).unwrap();
    assert_ctmc_bitwise_eq(&base, &builder.explore(&points[0], |_, _| {}).unwrap());
    for model in &points[1..] {
        let cold = builder.explore(model, |_, _| {}).unwrap();
        let point = Counted {
            model,
            calls: Cell::new(0),
        };
        let replayed = replay.build(&point).unwrap();
        assert_ctmc_bitwise_eq(&replayed, &cold);
        assert_eq!(point.calls.get(), cold.n_states(), "replayed, not explored");
        assert!(
            Arc::ptr_eq(replayed.generator().pattern(), base.generator().pattern()),
            "a replayed point shares the base's generator pattern"
        );
    }
}

#[test]
fn raid_grids_over_every_scalable_rate() {
    for g in [1, 2, 5, 8] {
        for absorbing in [false, true] {
            for rate in 0..8 {
                let model = |factor: f64| {
                    let mut p = RaidParams::paper(g);
                    if absorbing {
                        p = p.with_absorbing_failure();
                    }
                    *[
                        &mut p.lambda_d,
                        &mut p.lambda_s,
                        &mut p.lambda_c,
                        &mut p.mu_drc,
                        &mut p.mu_drp,
                        &mut p.mu_crp,
                        &mut p.mu_sr,
                        &mut p.mu_g,
                    ][rate] *= factor;
                    RaidModel::new(p)
                };
                check_grid(&[0.5, 1.0, 3.7, 1e-9, 250.0].map(model));
            }
        }
    }
}

#[test]
fn compose_grids_with_deps_reboot_down_absorbing_and_working_reward() {
    let tiers = || {
        vec![
            ComponentClass::new("app", 4, 0.02, 1.0)
                .coverage(0.97)
                .required(2)
                .dep("power", 1, 3.0),
            ComponentClass::new("disk", 3, 0.01, 0.5)
                .coverage(0.99)
                .required(1)
                .dep("power", 1, 0.0),
            ComponentClass::new("power", 2, 0.005, 2.0).required(1),
        ]
    };
    let models = [
        ComposeModel::new(
            tiers(),
            2,
            UncoveredPolicy::Absorbing,
            false,
            RewardKind::Working("app".into()),
        ),
        ComposeModel::new(
            tiers(),
            1,
            UncoveredPolicy::Reboot(6.0),
            false,
            RewardKind::Capacity,
        ),
        ComposeModel::new(tiers(), 3, UncoveredPolicy::Absorbing, true, RewardKind::Up),
        ComposeModel::multiproc(&MultiprocParams {
            n_proc: 4,
            n_mem: 3,
            lambda_p: 1e-3,
            lambda_m: 5e-4,
            coverage: 0.95,
            mu: 1.0,
            delta: 4.0,
            absorbing_crash: false,
        }),
    ];
    for model in models {
        let model = model.unwrap();
        for param in ["lambda", "mu"] {
            check_grid(
                &[0.5, 1.0, 2.0, 1e-6, 40.0].map(|f| model.with_scaled_rate(param, f).unwrap()),
            );
        }
    }
}

//! Dependability/performability models used by the paper's evaluation and by
//! this repository's tests, examples, and benches.
//!
//! * [`raid`] — the level-5 RAID architecture of the paper's Section 3
//!   (Fig. 2): `G` parity groups × `N` disks, `N` controllers, hot spares,
//!   reconstruction with overload, global repair; `UA(t)` (irreducible) and
//!   `UR(t)` (absorbing) variants;
//! * [`two_state`] — the textbook repairable unit with closed-form
//!   availability (the validation anchor of the test suite);
//! * [`redundant`] — the duplex system with imperfect failure coverage and
//!   an absorbing uncovered-failure state: its unreliability closed form;
//! * [`multiproc`] — the degradable multiprocessor's parameters (processors
//!   × memories, coverage, priority repair, capacity rewards `min(p, m)`);
//! * [`cyclic`] — a ring of states; with equal rates its randomized DTMC is
//!   periodic, stressing steady-state detection;
//! * [`compose`] — declarative component-system models (classes × counts ×
//!   rates × coverage × dependencies × repair crews) compiled to CTMCs. The
//!   duplex, machines-repairman and multiprocessor families are canned
//!   compositions ([`ComposeModel::duplex`], [`ComposeModel::machines`],
//!   [`ComposeModel::multiproc`]), held bit for bit to the hand-coded
//!   builders in `tests/hand_coded/`.
//!
//! [`RaidModel`] and [`ComposeModel`] are the crate's only
//! [`ModelSpec`](regenr_ctmc::ModelSpec) implementations; [`two_state`] and
//! [`cyclic`] write their small chains out rate by rate.

pub mod compose;
pub mod cyclic;
pub mod multiproc;
pub mod raid;
pub mod redundant;
pub mod two_state;

pub use compose::{
    ComponentClass, ComposeError, ComposeModel, ComposeState, Dependency, RewardKind,
    UncoveredPolicy,
};
pub use raid::{RaidModel, RaidParams, RaidState};

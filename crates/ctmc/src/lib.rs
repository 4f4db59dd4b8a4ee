//! Continuous-time Markov chain representation and model compilation.
//!
//! The paper analyses rewarded CTMCs `X` with state space `Ω = S ∪ {f_1…f_A}`
//! where the `f_i` are absorbing, all states in `S` are strongly connected,
//! and a non-negative reward rate `r_i` is attached to every state. This crate
//! provides:
//!
//! * [`Ctmc`] — validated sparse generator + initial distribution + rewards,
//! * [`structure`] — Tarjan SCC analysis verifying the paper's structural
//!   assumptions (absorbing detection, strong connectivity of `S`),
//! * [`uniformize`] — randomization `P = I + Q/Λ` with the transposed matrix
//!   precomputed for gather-style propagation,
//! * [`build`] — a small "stochastic model compiler": implement [`ModelSpec`]
//!   for your high-level model (state struct + transition function) and
//!   [`CtmcBuilder`] explores the reachable state space breadth-first into a
//!   [`Ctmc`] (this replaces the authors' in-house modeling tool).

//! ```
//! use regenr_ctmc::{CtmcBuilder, ModelSpec};
//!
//! // A birth-death model defined at the high level and compiled to a CTMC.
//! struct Queue { cap: u32 }
//! impl ModelSpec for Queue {
//!     type State = u32;
//!     fn initial(&self) -> Vec<(u32, f64)> { vec![(0, 1.0)] }
//!     fn transitions(&self, &n: &u32) -> Vec<(u32, f64)> {
//!         let mut out = Vec::new();
//!         if n < self.cap { out.push((n + 1, 1.0)); }
//!         if n > 0 { out.push((n - 1, 2.0)); }
//!         out
//!     }
//!     fn reward(&self, &n: &u32) -> f64 { n as f64 }
//! }
//! let built = CtmcBuilder::default().explore(&Queue { cap: 5 }).unwrap();
//! assert_eq!(built.ctmc.n_states(), 6);
//! ```

pub mod build;
pub mod chain;
pub mod export;
pub mod structure;
pub mod uniformize;

pub use build::{BuiltModel, CtmcBuilder, ModelSpec};
pub use chain::{Ctmc, CtmcError, RewardedCtmc};
pub use export::{stats, to_dot, CtmcStats};
pub use structure::{analysis_runs, analyze, StructureInfo};
pub use uniformize::{uniformization_rate, Stepper, Uniformized};

//! The level-5 RAID dependability model of the paper's evaluation section.
//!
//! ## Architecture (paper Fig. 2)
//!
//! `G·N` disks organized in `G` parity groups of `N` disks; `N` controllers,
//! each controlling a *string* of `G` disks (one per group); `C_H` hot spare
//! controllers and `D_H` hot spare disks. The system is operational while
//! every parity group has at least `N−1` available disks — equivalently, no
//! parity group has two unavailable disks.
//!
//! ## Behaviour (paper Section 3, reconstructed)
//!
//! * Disks fail at `λ_D`; disks of a group under reconstruction are
//!   *overloaded* and fail at `λ_S`. Controllers fail at `λ_C`. A failed
//!   controller makes its whole string unavailable.
//! * A repairman replaces failed disks/controllers from the hot spares at
//!   `μ_DRP`/`μ_CRP` (controllers first). Units lacking spares — and the
//!   missing spares themselves — are replaced at `μ_SR` by unlimited
//!   repairmen.
//! * A replaced disk starts *reconstruction* (rate `μ_DRC`, success
//!   probability `P_R`) once every other disk of its group is available;
//!   after a controller replacement every disk of the string that was
//!   unavailable starts reconstruction. A failed reconstruction fails the
//!   system.
//! * A failed system is restored to pristine condition by a global repair at
//!   `μ_G`.
//!
//! ## Lumped state space
//!
//! The paper uses a "pessimistic approximated model" over the state variables
//! `(NFD, NDR, NWD, NSD, AL, NFC, NSC, F)`. Working back from the published
//! state counts — 3,841 states at `G=20` and 14,081 at `G=40`, which factor
//! exactly as `8·G·(G+4) + 1 = (D_H+1)(C_H+1)·[ (G²+3G−1) + (G+1) ] + 1` —
//! the reachable lumped space must be:
//!
//! * `NFC = 0`: `(NFD, NDR, AL)` with `NFD+NDR ≤ G`, `AL ≡ aligned` forced
//!   `YES` when fewer than two disks are unavailable (`G²+3G−1` combos), and
//!   `NWD = 0` (controller replacement restarts every pending reconstruction
//!   at once);
//! * `NFC = 1`: `(NWD)` with `NWD ≤ G` and `NFD = NDR = 0` (see below),
//!   `AL = YES` (`G+1` combos);
//! * times `(NSD, NSC) ∈ [0,D_H]×[0,C_H]`, plus the single lumped failed
//!   state `F`.
//!
//! The `NFD = 0` invariant under `NFC = 1` encodes the model's *pessimism*:
//! a controller failure is survivable only when every individually
//! unavailable disk sits on the failed controller's own string — which, since
//! a physically failed (dead) disk's data cannot be read through any
//! controller, the lumped model only grants to *reconstructing* disks
//! (`NFD = 0`, all reconstruction positions on the common string). All other
//! controller failures, and every disk failure while a controller is down,
//! are treated as system failures. The alignment approximation is taken
//! verbatim from the paper: when an unavailable disk becomes available and at
//! least two others remain, the remainder is still considered unaligned.
//!
//! With these rules the generated chains have exactly the paper's state
//! counts: 3,841 at `G=20` and 14,081 at `G=40`. The transition counts
//! differ: the paper publishes 24,785 and 94,405, and our availability
//! chains have 22,737 and 87,097, because the explorer merges parallel arcs
//! between the same pair of states (the separate failure events that all
//! lead to the lumped failed state, for one) into one generator entry.
//! `repro sizes` writes both beside each other.
//!
//! The reconstruction success probability `P_R` is not given a numeric value
//! in the paper; the `calibrate_pr` example of `regenr-bench` fits it to the
//! reported `UR(10⁵ h)` values.

mod spec;

pub use spec::{RaidModel, RaidParams, RaidState};

#[cfg(test)]
mod tests;

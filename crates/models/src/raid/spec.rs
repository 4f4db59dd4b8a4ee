//! Transition catalogue of the lumped RAID model.

use regenr_ctmc::{Ctmc, CtmcBuilder, CtmcError, ModelSpec};

/// Parameters of the RAID level-5 model. Defaults are the paper's fixed
/// values (all rates in h⁻¹) with the paper's `G=20, C_H=1, D_H=3` instance.
#[derive(Clone, Copy, Debug)]
pub struct RaidParams {
    /// Number of parity groups (`G`); the paper evaluates 20 and 40.
    pub g: u32,
    /// Disks per parity group = number of controllers (`N = 5`).
    pub n: u32,
    /// Hot spare controllers (`C_H = 1`).
    pub c_h: u32,
    /// Hot spare disks (`D_H = 3`).
    pub d_h: u32,
    /// Disk failure rate (`λ_D = 10⁻⁵`).
    pub lambda_d: f64,
    /// Overloaded-disk failure rate (`λ_S = 2·10⁻⁵`).
    pub lambda_s: f64,
    /// Controller failure rate (`λ_C = 5·10⁻⁵`).
    pub lambda_c: f64,
    /// Reconstruction rate per group (`μ_DRC = 1`).
    pub mu_drc: f64,
    /// Disk replacement rate with spare (`μ_DRP = 4`).
    pub mu_drp: f64,
    /// Controller replacement rate with spare (`μ_CRP = 4`).
    pub mu_crp: f64,
    /// Spare-refill / no-spare replacement rate (`μ_SR = 0.25`).
    pub mu_sr: f64,
    /// Global repair rate (`μ_G = 0.25`).
    pub mu_g: f64,
    /// Reconstruction success probability (`P_R`; calibrated by the
    /// `calibrate_pr` example of `regenr-bench`).
    pub p_r: f64,
    /// `false`: availability model (global repair, irreducible, `A = 0`);
    /// `true`: reliability model (failed state absorbing, `A = 1`).
    pub absorbing_failure: bool,
}

impl Default for RaidParams {
    fn default() -> Self {
        RaidParams {
            g: 20,
            n: 5,
            c_h: 1,
            d_h: 3,
            lambda_d: 1e-5,
            lambda_s: 2e-5,
            lambda_c: 5e-5,
            mu_drc: 1.0,
            mu_drp: 4.0,
            mu_crp: 4.0,
            mu_sr: 0.25,
            mu_g: 0.25,
            p_r: 0.9989821,
            absorbing_failure: false,
        }
    }
}

impl RaidParams {
    /// The paper's instance with `G` parity groups (UA variant).
    pub fn paper(g: u32) -> Self {
        RaidParams {
            g,
            ..Default::default()
        }
    }

    /// Switches to the unreliability variant (absorbing failure, `A = 1`).
    pub fn with_absorbing_failure(mut self) -> Self {
        self.absorbing_failure = true;
        self
    }
}

/// Lumped RAID state (see the module docs for the invariants).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RaidState {
    /// All controllers up (`NFC = 0`, `NWD = 0`).
    Op {
        /// Failed disks awaiting replacement.
        nfd: u16,
        /// Disks under reconstruction.
        ndr: u16,
        /// All unavailable disks on one string (forced `true` when fewer than
        /// two disks are unavailable).
        al: bool,
        /// Hot spare disks on the shelf.
        nsd: u8,
        /// Hot spare controllers on the shelf.
        nsc: u8,
    },
    /// One controller down (`NFC = 1`, `NFD = NDR = 0`, `AL = YES`).
    CtrlDown {
        /// Replaced disks waiting for the string to come back.
        nwd: u16,
        /// Hot spare disks on the shelf.
        nsd: u8,
        /// Hot spare controllers on the shelf.
        nsc: u8,
    },
    /// The lumped system-failed state.
    Failed,
}

/// The RAID model as a compilable [`ModelSpec`].
///
/// Precondition: `1 ≤ g ≤ 65,535` and `c_h, d_h ≤ 255`, because a
/// [`RaidState`] stores disk counts in a `u16` and spare counts in a `u8`.
/// Larger values wrap silently; the spec layer refuses them by name.
#[derive(Clone, Copy, Debug)]
pub struct RaidModel {
    /// Model parameters.
    pub params: RaidParams,
}

impl RaidModel {
    /// New model from parameters.
    pub fn new(params: RaidParams) -> Self {
        RaidModel { params }
    }

    /// The pristine state (no failures, full spares) — the initial and
    /// regenerative state of the paper's experiments.
    pub fn pristine(&self) -> RaidState {
        RaidState::Op {
            nfd: 0,
            ndr: 0,
            al: true,
            nsd: self.params.d_h as u8,
            nsc: self.params.c_h as u8,
        }
    }

    /// Compiles the model into a CTMC (BFS over the reachable space). The
    /// pristine state always has index 0, so it can be used directly as the
    /// regenerative state.
    pub fn build(&self) -> Result<Ctmc, CtmcError> {
        CtmcBuilder::default().explore(self, |_, _| {})
    }
}

impl ModelSpec for RaidModel {
    type State = RaidState;

    fn initial(&self) -> Vec<(RaidState, f64)> {
        vec![(self.pristine(), 1.0)]
    }

    fn reward(&self, state: &RaidState) -> f64 {
        // Both paper measures (UA and UR) reward the failed state with 1.
        match state {
            RaidState::Failed => 1.0,
            _ => 0.0,
        }
    }

    fn transitions(&self, state: &RaidState) -> Vec<(RaidState, f64)> {
        let p = &self.params;
        let g = p.g as u16;
        let nf = p.n as f64;
        let gf = p.g as f64;
        let mut out: Vec<(RaidState, f64)> = Vec::with_capacity(10);

        match *state {
            RaidState::Failed => {
                if !p.absorbing_failure {
                    out.push((self.pristine(), p.mu_g));
                }
            }

            RaidState::Op {
                nfd,
                ndr,
                al,
                nsd,
                nsc,
            } => {
                let u = nfd + ndr;
                debug_assert!(u <= g);
                debug_assert!(al || u >= 2);
                let uf = u as f64;

                // --- Disk failures -------------------------------------
                // Collisions (same group as an unavailable disk) fail the
                // system: the N−1 overloaded partners of each reconstructing
                // group at λ_S, the N−1 partners of each failed disk at λ_D.
                let to_failed_rate =
                    ndr as f64 * (nf - 1.0) * p.lambda_s + nfd as f64 * (nf - 1.0) * p.lambda_d;
                if u == 0 {
                    // First failure is trivially aligned.
                    out.push((op(nfd + 1, ndr, true, nsd, nsc), gf * nf * p.lambda_d));
                } else if u < g {
                    if al {
                        // Remaining disks of the common string: stay aligned.
                        out.push((op(nfd + 1, ndr, true, nsd, nsc), (gf - uf) * p.lambda_d));
                        // Other strings, non-colliding groups: unaligned.
                        out.push((
                            op(nfd + 1, ndr, false, nsd, nsc),
                            (gf - uf) * (nf - 1.0) * p.lambda_d,
                        ));
                    } else {
                        // Already unaligned: every non-colliding landing
                        // keeps it so.
                        out.push((
                            op(nfd + 1, ndr, false, nsd, nsc),
                            (gf - uf) * nf * p.lambda_d,
                        ));
                    }
                }
                // (u == g: every group already hosts an unavailable disk, so
                // every further failure is a collision, counted above.)

                // --- Reconstruction completion --------------------------
                if ndr > 0 {
                    let u_after = u - 1;
                    let al_after = al || u_after <= 1;
                    out.push((
                        op(nfd, ndr - 1, al_after, nsd, nsc),
                        ndr as f64 * p.mu_drc * p.p_r,
                    ));
                }

                // --- Disk replacement -----------------------------------
                if nfd > 0 {
                    // Repairman with a spare (free: no controller is down).
                    if nsd > 0 {
                        out.push((op(nfd - 1, ndr + 1, al, nsd - 1, nsc), p.mu_drp));
                    }
                    // Disks beyond the spare supply: unlimited μ_SR crews.
                    let lacking = (nfd as i32 - nsd as i32).max(0) as f64;
                    if lacking > 0.0 {
                        out.push((op(nfd - 1, ndr + 1, al, nsd, nsc), lacking * p.mu_sr));
                    }
                }

                // --- Controller failure ---------------------------------
                if u == 0 {
                    out.push((ctrl_down(0, nsd, nsc), nf * p.lambda_c));
                } else if al && nfd == 0 {
                    // Only the common string's controller is survivable:
                    // its reconstructing positions become waiting disks.
                    out.push((ctrl_down(ndr, nsd, nsc), p.lambda_c));
                    out.push((RaidState::Failed, (nf - 1.0) * p.lambda_c));
                } else {
                    // Unaligned, or a dead disk's data is unreadable through
                    // any controller: pessimistically a system failure.
                    out.push((RaidState::Failed, nf * p.lambda_c));
                }

                // --- Reconstruction failure + collisions → Failed -------
                let fail_rate = to_failed_rate + ndr as f64 * p.mu_drc * (1.0 - p.p_r);
                if fail_rate > 0.0 {
                    out.push((RaidState::Failed, fail_rate));
                }

                // --- Spare refills --------------------------------------
                if (nsd as u32) < p.d_h {
                    out.push((
                        op(nfd, ndr, al, nsd + 1, nsc),
                        (p.d_h - nsd as u32) as f64 * p.mu_sr,
                    ));
                }
                if (nsc as u32) < p.c_h {
                    out.push((
                        op(nfd, ndr, al, nsd, nsc + 1),
                        (p.c_h - nsc as u32) as f64 * p.mu_sr,
                    ));
                }
            }

            RaidState::CtrlDown { nwd, nsd, nsc } => {
                // Any disk failure on an operational string collides with the
                // down string's unavailable disk in that group.
                out.push((RaidState::Failed, gf * (nf - 1.0) * p.lambda_d));
                // A second controller failure downs a second string.
                out.push((RaidState::Failed, (nf - 1.0) * p.lambda_c));

                // Controller replacement: the whole string returns and every
                // disk that was unavailable (the G−nwd stale ones and the nwd
                // replaced ones) starts reconstruction simultaneously.
                if nsc > 0 {
                    out.push((op(0, g, true, nsd, nsc - 1), p.mu_crp));
                } else {
                    out.push((op(0, g, true, nsd, nsc), p.mu_sr));
                }
                let _ = nwd; // dynamically inert; distinguishes lumped states

                // --- Spare refills --------------------------------------
                if (nsd as u32) < p.d_h {
                    out.push((
                        ctrl_down(nwd, nsd + 1, nsc),
                        (p.d_h - nsd as u32) as f64 * p.mu_sr,
                    ));
                }
                if (nsc as u32) < p.c_h {
                    out.push((
                        ctrl_down(nwd, nsd, nsc + 1),
                        (p.c_h - nsc as u32) as f64 * p.mu_sr,
                    ));
                }
            }
        }
        out
    }
}

/// Canonicalizing constructor: `al` is forced `true` below two unavailable
/// disks so lumped states are unique.
fn op(nfd: u16, ndr: u16, al: bool, nsd: u8, nsc: u8) -> RaidState {
    RaidState::Op {
        nfd,
        ndr,
        al: al || (nfd + ndr) <= 1,
        nsd,
        nsc,
    }
}

fn ctrl_down(nwd: u16, nsd: u8, nsc: u8) -> RaidState {
    RaidState::CtrlDown { nwd, nsd, nsc }
}

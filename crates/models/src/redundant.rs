//! Duplex system with imperfect failure coverage.
//!
//! Two active units (failure rate `λ` each). A unit failure is *covered*
//! with probability `c` (the survivor carries the load, repair at `μ`) and
//! uncovered with probability `1−c` (immediate, unrecoverable system
//! failure). From the simplex state a second failure is also fatal. This is
//! the smallest interesting model with an absorbing state (`A = 1`) whose
//! unreliability has a simple closed form, used to validate the absorbing
//! paths of every solver.
//!
//! The chain is compiled as a canned composition,
//! [`ComposeModel::duplex`](crate::compose::ComposeModel::duplex): duplex
//! first, then simplex, then failed (absorbing); reward = failure indicator
//! (`TRR(t) = UR(t)`). At `c = 0` the simplex state is unreachable and is
//! never numbered.

/// Closed-form unreliability of the duplex system, from the explicit 2×2
/// matrix exponential of the transient block.
pub fn duplex_unreliability(lambda: f64, mu: f64, coverage: f64, t: f64) -> f64 {
    // Transient generator restricted to {duplex, simplex}:
    //   [ −2λ        2λc ]
    //   [  μ      −(λ+μ) ]
    // UR(t) = 1 − (p_0(t) + p_1(t)).
    let a = -2.0 * lambda;
    let b = 2.0 * lambda * coverage;
    let c2 = mu;
    let d = -(lambda + mu);
    // Eigenvalues of the 2×2 block.
    let tr = a + d;
    let det = a * d - b * c2;
    let disc = (tr * tr / 4.0 - det).max(0.0).sqrt();
    let (s1, s2) = (tr / 2.0 + disc, tr / 2.0 - disc);
    // p(t) = e^{At}·p(0) with p(0) = (1,0); survival = 1ᵀp(t).
    // Diagonalize: survival(t) = k1·e^{s1 t} + k2·e^{s2 t} where k_i follow
    // from matching value and derivative at t=0:
    //   survival(0) = 1,  survival'(0) = 1ᵀA p(0) = a + b.
    let sp0 = a + b;
    if (s1 - s2).abs() < 1e-14 {
        // Defective/repeated root: survival = (1 + (sp0 − s1)·t)·e^{s1 t}.
        return 1.0 - (1.0 + (sp0 - s1) * t) * (s1 * t).exp();
    }
    let k1 = (sp0 - s2) / (s1 - s2);
    let k2 = 1.0 - k1;
    1.0 - (k1 * (s1 * t).exp() + k2 * (s2 * t).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::ComposeModel;
    use regenr_transient::{MeasureKind, SrOptions, SrSolver};

    #[test]
    fn closed_form_matches_sr() {
        let (l, m, c) = (0.01, 1.0, 0.95);
        let chain = ComposeModel::duplex(l, m, c).unwrap().build(10).unwrap();
        let sr = SrSolver::new(&chain, SrOptions::default());
        for &t in &[1.0, 10.0, 100.0, 1000.0] {
            let got = sr.solve(MeasureKind::Trr, t).value;
            let want = duplex_unreliability(l, m, c, t);
            assert!((got - want).abs() < 1e-10, "t={t}: {got} vs {want}");
        }
    }

    #[test]
    fn perfect_coverage_beats_imperfect() {
        let (l, m, t) = (0.01, 1.0, 100.0);
        assert!(
            duplex_unreliability(l, m, 1.0, t) < duplex_unreliability(l, m, 0.9, t),
            "higher coverage must lower unreliability"
        );
    }

    #[test]
    fn unreliability_is_monotone_in_t() {
        let mut prev = 0.0;
        for i in 1..50 {
            let ur = duplex_unreliability(0.05, 0.5, 0.98, i as f64);
            assert!(ur >= prev - 1e-12);
            prev = ur;
        }
        assert!(prev > 0.0 && prev <= 1.0);
    }
}

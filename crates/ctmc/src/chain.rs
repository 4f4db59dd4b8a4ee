//! The validated CTMC type.

use regenr_sparse::{CooBuilder, CsrMatrix};
use std::fmt;

/// Errors raised while constructing or validating a [`Ctmc`].
#[derive(Clone, Debug, PartialEq)]
pub enum CtmcError {
    /// An off-diagonal generator entry was negative.
    NegativeRate { from: usize, to: usize, rate: f64 },
    /// A [`ModelSpec`](crate::ModelSpec) produced a transition whose rate
    /// is not positive and finite.
    InvalidRate { from: usize, rate: f64 },
    /// A generator entry is infinite or NaN — an exit rate that overflowed,
    /// say.
    NonFiniteRate { from: usize, to: usize, rate: f64 },
    /// A generator row does not sum to ~0.
    RowSumNonZero { state: usize, sum: f64 },
    /// The initial distribution has negative mass or does not sum to 1.
    BadInitialDistribution { sum: f64 },
    /// A reward rate was negative (the paper assumes `r_i ≥ 0`).
    NegativeReward { state: usize, reward: f64 },
    /// Dimension mismatch between generator / rewards / initial vector.
    DimensionMismatch { what: &'static str },
    /// The regenerative state is invalid for the requested operation
    /// (absorbing, unreachable, or carries no initial/return structure).
    BadRegenerativeState { state: usize, reason: &'static str },
    /// The chain violates the paper's structural assumption: the non-absorbing
    /// part must be a single strongly connected component.
    NotStronglyConnected { components: usize },
    /// Initial probability mass was placed on an absorbing state (the paper
    /// assumes `P[X(0) = f_i] = 0`).
    InitialMassOnAbsorbing { state: usize },
    /// State-space exploration exceeded the configured cap. For generated
    /// models (e.g. `compose` specs) this is an input condition, not a bug:
    /// callers surface it as a spec-level error.
    StateSpaceExceeded { max_states: usize },
    /// A fault injected by an armed failpoint (`failpoints` builds only).
    /// Infrastructure, never a property of the model — supervisors retry,
    /// and serve must not report it as a model error.
    Injected { failpoint: &'static str },
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtmcError::NegativeRate { from, to, rate } => {
                write!(
                    f,
                    "negative transition rate {rate} from state {from} to {to}"
                )
            }
            CtmcError::InvalidRate { from, rate } => {
                write!(
                    f,
                    "model produced a non-positive or non-finite rate {rate} out of state {from}"
                )
            }
            CtmcError::NonFiniteRate { from, to, rate } => {
                write!(
                    f,
                    "generator row {from} has the non-finite entry {rate} in column {to}"
                )
            }
            CtmcError::RowSumNonZero { state, sum } => {
                write!(f, "generator row {state} sums to {sum}, expected 0")
            }
            CtmcError::BadInitialDistribution { sum } => {
                write!(f, "initial distribution sums to {sum}, expected 1")
            }
            CtmcError::NegativeReward { state, reward } => {
                write!(f, "negative reward rate {reward} at state {state}")
            }
            CtmcError::DimensionMismatch { what } => write!(f, "dimension mismatch: {what}"),
            CtmcError::BadRegenerativeState { state, reason } => {
                write!(f, "bad regenerative state {state}: {reason}")
            }
            CtmcError::NotStronglyConnected { components } => write!(
                f,
                "non-absorbing states form {components} strongly connected components, expected 1"
            ),
            CtmcError::InitialMassOnAbsorbing { state } => {
                write!(f, "initial probability mass on absorbing state {state}")
            }
            CtmcError::StateSpaceExceeded { max_states } => {
                write!(f, "state space exceeded the cap of {max_states} states")
            }
            CtmcError::Injected { failpoint } => {
                write!(f, "fault injected at failpoint {failpoint}")
            }
        }
    }
}

impl std::error::Error for CtmcError {}

/// A finite, homogeneous CTMC with a reward-rate structure.
///
/// Invariants enforced at construction:
/// * generator entries finite, off-diagonal ones non-negative, row sums ≈ 0,
/// * initial distribution non-negative with total mass ≈ 1,
/// * rewards non-negative (the paper's assumption `r_i ≥ 0`).
#[derive(Clone, Debug)]
pub struct Ctmc {
    generator: CsrMatrix,
    initial: Vec<f64>,
    rewards: Vec<f64>,
}

/// Tolerance for validation checks (row sums, initial mass). Generators are
/// assembled from `f64` rate sums, so exact zero is not attainable.
const VALIDATION_TOL: f64 = 1e-9;

impl Ctmc {
    /// Builds a CTMC from a generator `Q`, initial distribution `α` and reward
    /// vector `r`, validating all invariants.
    pub fn new(
        generator: CsrMatrix,
        initial: Vec<f64>,
        rewards: Vec<f64>,
    ) -> Result<Self, CtmcError> {
        let n = generator.nrows();
        if generator.ncols() != n {
            return Err(CtmcError::DimensionMismatch {
                what: "generator must be square",
            });
        }
        if initial.len() != n {
            return Err(CtmcError::DimensionMismatch {
                what: "initial distribution length",
            });
        }
        if rewards.len() != n {
            return Err(CtmcError::DimensionMismatch {
                what: "reward vector length",
            });
        }
        // One pass over the rows. A negative rate anywhere is reported
        // before the first bad row, which is kept until the scan ends.
        let mut bad_row = None;
        for i in 0..n {
            let (mut sum, mut diagonal, mut non_finite) = (0.0, 0.0, None);
            for (j, v) in generator.row(i) {
                if i != j && v < 0.0 {
                    return Err(CtmcError::NegativeRate {
                        from: i,
                        to: j,
                        rate: v,
                    });
                }
                if !v.is_finite() {
                    non_finite.get_or_insert(CtmcError::NonFiniteRate {
                        from: i,
                        to: j,
                        rate: v,
                    });
                }
                if j == i {
                    diagonal = v;
                }
                sum += v;
            }
            if bad_row.is_none() {
                // Scale the tolerance with the exit rate: large rates
                // accumulate proportionally larger float error.
                let tol = VALIDATION_TOL * diagonal.abs().max(1.0);
                let bad_sum = sum.is_nan() || sum.abs() > tol;
                bad_row = non_finite
                    .or_else(|| bad_sum.then_some(CtmcError::RowSumNonZero { state: i, sum }));
            }
        }
        if let Some(e) = bad_row {
            return Err(e);
        }
        let mass: f64 = initial.iter().sum();
        if initial.iter().any(|&p| p < 0.0) || mass.is_nan() || (mass - 1.0).abs() > VALIDATION_TOL
        {
            return Err(CtmcError::BadInitialDistribution { sum: mass });
        }
        for (i, &r) in rewards.iter().enumerate() {
            if r < 0.0 {
                return Err(CtmcError::NegativeReward {
                    state: i,
                    reward: r,
                });
            }
        }
        Ok(Ctmc {
            generator,
            initial,
            rewards,
        })
    }

    /// Convenience constructor from rate triplets `(from, to, rate)`; the
    /// diagonal is filled in automatically.
    pub fn from_rates(
        n: usize,
        rates: &[(usize, usize, f64)],
        initial: Vec<f64>,
        rewards: Vec<f64>,
    ) -> Result<Self, CtmcError> {
        let mut exit = vec![0.0f64; n];
        let mut b = CooBuilder::with_capacity(n, n, rates.len() + n);
        for &(i, j, rate) in rates {
            if rate < 0.0 {
                return Err(CtmcError::NegativeRate {
                    from: i,
                    to: j,
                    rate,
                });
            }
            if i == j {
                continue; // self-rates are meaningless in a CTMC
            }
            b.push(i, j, rate);
            exit[i] += rate;
        }
        for (i, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                b.push(i, i, -e);
            }
        }
        Ctmc::new(b.build(), initial, rewards)
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.generator.nrows()
    }

    /// The infinitesimal generator `Q`.
    pub fn generator(&self) -> &CsrMatrix {
        &self.generator
    }

    /// The initial distribution `α`.
    pub fn initial(&self) -> &[f64] {
        &self.initial
    }

    /// The reward-rate vector `r`.
    pub fn rewards(&self) -> &[f64] {
        &self.rewards
    }

    /// Largest reward rate `r_max = max_i r_i` (drives every error bound in
    /// the paper).
    pub fn max_reward(&self) -> f64 {
        self.rewards.iter().copied().fold(0.0, f64::max)
    }

    /// Exit rate `-q_ii` of a state.
    pub fn exit_rate(&self, i: usize) -> f64 {
        -self.generator.get(i, i)
    }

    /// States with zero exit rate.
    pub fn absorbing_states(&self) -> Vec<usize> {
        (0..self.n_states())
            .filter(|&i| self.exit_rate(i) == 0.0)
            .collect()
    }

    /// Replaces the reward vector (same chain, different measure), validating
    /// non-negativity.
    pub fn with_rewards(&self, rewards: Vec<f64>) -> Result<Ctmc, CtmcError> {
        Ctmc::new(self.generator.clone(), self.initial.clone(), rewards)
    }

    /// Replaces the initial distribution.
    pub fn with_initial(&self, initial: Vec<f64>) -> Result<Ctmc, CtmcError> {
        Ctmc::new(self.generator.clone(), initial, self.rewards.clone())
    }

    /// Expected reward rate under a distribution `π`: `Σ_i π_i r_i`.
    pub fn reward_dot(&self, pi: &[f64]) -> f64 {
        debug_assert_eq!(pi.len(), self.rewards.len());
        pi.iter().zip(&self.rewards).map(|(p, r)| p * r).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> Ctmc {
        // 0 --λ--> 1, 1 --μ--> 0.
        Ctmc::from_rates(
            2,
            &[(0, 1, 0.001), (1, 0, 1.0)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn valid_chain_accepted() {
        let c = two_state();
        assert_eq!(c.n_states(), 2);
        assert_eq!(c.exit_rate(0), 0.001);
        assert_eq!(c.exit_rate(1), 1.0);
        assert_eq!(c.max_reward(), 1.0);
        assert!(c.absorbing_states().is_empty());
    }

    #[test]
    fn negative_rate_rejected() {
        let err = Ctmc::from_rates(2, &[(0, 1, -1.0)], vec![1.0, 0.0], vec![0.0, 0.0]);
        assert!(matches!(err, Err(CtmcError::NegativeRate { .. })));
    }

    #[test]
    fn bad_row_sum_rejected() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.0); // missing diagonal -1
        let err = Ctmc::new(b.build(), vec![1.0, 0.0], vec![0.0, 0.0]);
        assert!(matches!(
            err,
            Err(CtmcError::RowSumNonZero { state: 0, .. })
        ));
    }

    /// An exit rate that overflows to infinity is rejected, naming its row;
    /// so is any other non-finite entry. The row sum of such a row is
    /// infinite or NaN, which no tolerance check may pass.
    #[test]
    fn non_finite_entries_rejected() {
        let err = Ctmc::from_rates(
            2,
            &[(0, 1, 1e308), (0, 1, 1e308), (1, 0, 1.0)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        );
        assert_eq!(
            err.unwrap_err(),
            CtmcError::NonFiniteRate {
                from: 0,
                to: 0,
                rate: f64::NEG_INFINITY
            }
        );
        for v in [f64::INFINITY, f64::NAN] {
            let mut b = CooBuilder::new(2, 2);
            b.push(0, 1, 1.0);
            b.push(0, 0, -1.0);
            b.push(1, 0, v);
            b.push(1, 1, -v);
            let err = Ctmc::new(b.build(), vec![1.0, 0.0], vec![0.0; 2]);
            assert!(
                matches!(err, Err(CtmcError::NonFiniteRate { from: 1, .. })),
                "{v}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_initial_rejected() {
        let err = Ctmc::from_rates(2, &[(0, 1, 1.0), (1, 0, 1.0)], vec![0.7, 0.7], vec![0.0; 2]);
        assert!(matches!(err, Err(CtmcError::BadInitialDistribution { .. })));
        let err = Ctmc::from_rates(
            2,
            &[(0, 1, 1.0), (1, 0, 1.0)],
            vec![f64::NAN, 0.0],
            vec![0.0; 2],
        );
        assert!(matches!(err, Err(CtmcError::BadInitialDistribution { .. })));
    }

    #[test]
    fn negative_reward_rejected() {
        let err = Ctmc::from_rates(
            2,
            &[(0, 1, 1.0), (1, 0, 1.0)],
            vec![1.0, 0.0],
            vec![0.0, -1.0],
        );
        assert!(matches!(
            err,
            Err(CtmcError::NegativeReward { state: 1, .. })
        ));
    }

    #[test]
    fn absorbing_detection() {
        let c = Ctmc::from_rates(
            3,
            &[(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
        )
        .unwrap();
        assert_eq!(c.absorbing_states(), vec![2]);
    }

    #[test]
    fn self_rates_ignored() {
        let c = Ctmc::from_rates(
            2,
            &[(0, 0, 5.0), (0, 1, 1.0), (1, 0, 1.0)],
            vec![1.0, 0.0],
            vec![0.0, 0.0],
        )
        .unwrap();
        assert_eq!(c.exit_rate(0), 1.0);
    }

    #[test]
    fn reward_dot_product() {
        let c = two_state();
        assert_eq!(c.reward_dot(&[0.25, 0.75]), 0.75);
    }

    #[test]
    fn with_rewards_revalidates() {
        let c = two_state();
        assert!(c.with_rewards(vec![1.0, -0.1]).is_err());
        let c2 = c.with_rewards(vec![2.0, 3.0]).unwrap();
        assert_eq!(c2.max_reward(), 3.0);
    }
}

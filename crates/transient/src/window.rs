//! The horizon-grid protocol SR, RSD and Adaptive share.
//!
//! All three step one DTMC sequence `π_0, π_1, …` and serve a whole horizon
//! grid from it. Horizon `t` keeps its own Fox–Glynn window `[L, R_t]` of
//! `Poisson(Λt)` and its own compensated sum of
//!
//! * `TRR`: `Po_{Λt}(n) · r·π_n`,
//! * `MRR`: `P[N(t) ≥ n+1] · r·π_n`, finished by `÷ Λt`,
//!
//! which closes at its right point `R_t`: the cell's `steps` is `R_t`. A
//! solver feeds `r·π_n` once per step; SR and RSD fold it into the product
//! that computes `π_n` ([`RewardDot`]). What a solver does between steps
//! (RSD's detection, Adaptive's frontier) stays its own. `t = 0` and an all-zero
//! reward vector need no propagation: those cells are `r·α` with zero steps
//! and a zero bound.

use crate::{MeasureKind, Solution};
use regenr_ctmc::Ctmc;
use regenr_numeric::{KahanSum, PoissonWeights};
use regenr_sparse::RowFold;

/// The term a solver feeds [`PoissonWindows::add`], `r·π_{n+1}`, folded
/// into the product that computes `π_{n+1}`: each row adds `v·r_i` as it
/// is stored, in row order from `-0.0`, exactly the sum
/// [`Ctmc::reward_dot`] takes over the stored vector.
#[derive(Clone, Copy)]
pub(crate) struct RewardDot<'a> {
    rewards: &'a [f64],
    dot: f64,
}

impl<'a> RewardDot<'a> {
    pub(crate) fn new(rewards: &'a [f64]) -> Self {
        RewardDot { rewards, dot: -0.0 }
    }

    /// `r·π` over the rows folded so far.
    pub(crate) fn value(&self) -> f64 {
        self.dot
    }
}

impl RowFold for RewardDot<'_> {
    #[inline(always)]
    fn row(&mut self, i: usize, v: f64) -> f64 {
        self.dot += v * self.rewards[i];
        v
    }
}

/// One Poisson window and compensated sum per horizon of a grid.
pub(crate) struct PoissonWindows<'t> {
    measure: MeasureKind,
    lambda: f64,
    epsilon: f64,
    ts: &'t [f64],
    windows: Vec<Option<PoissonWeights>>,
    sums: Vec<KahanSum>,
    still: Solution,
}

impl<'t> PoissonWindows<'t> {
    /// Opens a window for every positive horizon of `ts` on `ctmc`
    /// uniformized at `lambda`. `ε` is split into `parts` equal shares and
    /// the window's truncated Poisson mass may cost one of them: it is at
    /// most `δ = ε / (parts · r_max)` (capped at ½). Closed cells report
    /// `ε` as their bound.
    pub(crate) fn new(
        ctmc: &Ctmc,
        lambda: f64,
        measure: MeasureKind,
        ts: &'t [f64],
        epsilon: f64,
        parts: f64,
    ) -> Self {
        let r_max = ctmc.max_reward();
        let delta = (epsilon / (parts * r_max)).min(0.5);
        let windows = ts
            .iter()
            .map(|&t| {
                assert!(t >= 0.0, "time must be non-negative");
                (t > 0.0 && r_max != 0.0).then(|| PoissonWeights::new(lambda * t, delta))
            })
            .collect();
        PoissonWindows {
            measure,
            lambda,
            epsilon,
            ts,
            windows,
            sums: vec![KahanSum::new(); ts.len()],
            still: Solution {
                value: ctmc.reward_dot(ctmc.initial()),
                steps: 0,
                error_bound: 0.0,
            },
        }
    }

    /// The cell of a horizon that needs no propagation, and every cell's
    /// value until its window closes.
    pub(crate) fn still(&self) -> Solution {
        self.still
    }

    /// The products the propagation needs: the largest right point, or
    /// `None` when no horizon needs one.
    pub(crate) fn max_right(&self) -> Option<u64> {
        self.windows.iter().flatten().map(|w| w.right).max()
    }

    /// Adds `rr = r·π_n` to every window still open at step `n`. A window
    /// whose right point is `n` closes: its cell goes to `closed` with its
    /// horizon's index.
    pub(crate) fn add(&mut self, n: u64, rr: f64, mut closed: impl FnMut(usize, Solution)) {
        for h in 0..self.windows.len() {
            let Some(w) = &self.windows[h] else { continue };
            if n > w.right {
                continue;
            }
            match self.measure {
                MeasureKind::Trr => {
                    let wn = w.pmf(n);
                    if wn > 0.0 {
                        self.sums[h].add(wn * rr);
                    }
                }
                MeasureKind::Mrr => self.sums[h].add(w.survival(n + 1) * rr),
            }
            if n == w.right {
                closed(h, self.cell(h, self.sums[h].value(), n));
            }
        }
    }

    /// Closes every window still open after the terms `0..n` (its right
    /// point is at least `n`) with `tail(window)` added to its sum; each
    /// cell, with `steps = n`, goes to `closed`.
    pub(crate) fn close_open(
        &self,
        n: u64,
        tail: impl Fn(&PoissonWeights) -> f64,
        mut closed: impl FnMut(usize, Solution),
    ) {
        for (h, w) in self.windows.iter().enumerate() {
            match w {
                Some(w) if w.right >= n => {
                    closed(h, self.cell(h, self.sums[h].value() + tail(w), n));
                }
                _ => {}
            }
        }
    }

    fn cell(&self, h: usize, sum: f64, steps: u64) -> Solution {
        Solution {
            value: match self.measure {
                MeasureKind::Trr => sum,
                MeasureKind::Mrr => sum / (self.lambda * self.ts[h]),
            },
            steps: steps as usize,
            error_bound: self.epsilon,
        }
    }
}

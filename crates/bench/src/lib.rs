//! Shared infrastructure for the `regenr` benchmark harness.
//!
//! The paper's evaluation (Section 3) consists of two tables (step counts)
//! and two figures (CPU-time curves) over the same workload grid:
//!
//! * models: level-5 RAID, `G ∈ {20, 40}`, `C_H = 1`, `D_H = 3`;
//! * measures: `UA(t)` (irreducible) and `UR(t)` (absorbing);
//! * horizons: `t ∈ {1, 10, 10², 10³, 10⁴, 10⁵} h`;
//! * error bound `ε = 10⁻¹²`.
//!
//! [`Workload`] materializes and caches the four *built* chains for the
//! `repro` binary. Solver-side artifacts
//! (uniformizations, killed-chain parameters) are cached one layer down by
//! `regenr_engine::ArtifactCache`, which generalizes this per-chain memo to
//! arbitrary models keyed by structural fingerprint — `repro engine` runs
//! the same grid through that path.

use regenr_core::{RegenOptions, RrOptions, RrSolver, RrlOptions, RrlSolver};
use regenr_ctmc::Ctmc;
use regenr_models::{RaidModel, RaidParams};
use regenr_sparse::pool::lock;
use regenr_transient::{RsdOptions, RsdSolver, SrOptions, SrSolver};
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The paper's error bound.
pub const EPSILON: f64 = 1e-12;
/// The paper's horizon grid (hours).
pub const T_GRID: [f64; 6] = [1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0];
/// The paper's model sizes.
pub const G_VALUES: [u32; 2] = [20, 40];

/// Which paper measure/model variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Point unavailability — irreducible model (`A = 0`).
    Ua,
    /// Unreliability — absorbing failed state (`A = 1`).
    Ur,
}

/// Lazily built, cached RAID chains for the benchmark grid.
#[derive(Default)]
pub struct Workload {
    cache: Mutex<HashMap<(u32, Variant), Arc<Ctmc>>>,
}

impl Workload {
    /// New empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The RAID chain for `(G, variant)`, built on first use.
    pub fn chain(&self, g: u32, variant: Variant) -> Arc<Ctmc> {
        let mut cache = lock(&self.cache);
        cache
            .entry((g, variant))
            .or_insert_with(|| {
                let mut params = RaidParams::paper(g);
                if variant == Variant::Ur {
                    params = params.with_absorbing_failure();
                }
                Arc::new(RaidModel::new(params).build().expect("RAID model builds"))
            })
            .clone()
    }
}

/// SR with the paper's settings.
pub fn make_sr(ctmc: &Ctmc) -> SrSolver<'_> {
    SrSolver::new(
        ctmc,
        SrOptions {
            epsilon: EPSILON,
            ..Default::default()
        },
    )
}

/// RSD with the paper's settings.
pub fn make_rsd(ctmc: &Ctmc) -> RsdSolver<'_> {
    RsdSolver::new(
        ctmc,
        RsdOptions {
            epsilon: EPSILON,
            ..Default::default()
        },
    )
}

/// RR with the paper's settings (regenerative state = pristine = index 0).
pub fn make_rr(ctmc: &Ctmc) -> RrSolver<'_> {
    RrSolver::new(
        ctmc,
        0,
        RrOptions {
            regen: RegenOptions {
                epsilon: EPSILON,
                ..Default::default()
            },
        },
    )
    .expect("pristine state is regenerative")
}

/// RRL with the paper's settings.
pub fn make_rrl(ctmc: &Ctmc) -> RrlSolver<'_> {
    RrlSolver::new(
        ctmc,
        0,
        RrlOptions {
            regen: RegenOptions {
                epsilon: EPSILON,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("pristine state is regenerative")
}

/// One timed run of a solver closure; returns `(value, seconds)`.
pub fn time_once<F: FnOnce() -> f64>(f: F) -> (f64, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// A simple CSV sink under `results/`.
pub struct CsvWriter {
    file: std::fs::File,
}

impl CsvWriter {
    /// Creates `results/<name>.csv` (directories included) with a header row.
    pub fn create(name: &str, header: &str) -> std::io::Result<Self> {
        std::fs::create_dir_all("results")?;
        let mut file = std::fs::File::create(format!("results/{name}.csv"))?;
        writeln!(file, "{header}")?;
        Ok(CsvWriter { file })
    }

    /// Appends one row.
    pub fn row(&mut self, fields: &[String]) -> std::io::Result<()> {
        writeln!(self.file, "{}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_caches_chains() {
        let w = Workload::new();
        let a = w.chain(20, Variant::Ua);
        let b = w.chain(20, Variant::Ua);
        assert!(Arc::ptr_eq(&a, &b), "second access must hit the cache");
        assert_eq!(a.n_states(), 3841);
    }

    #[test]
    fn ua_and_ur_differ_in_absorbing_structure() {
        let w = Workload::new();
        let ua = w.chain(20, Variant::Ua);
        let ur = w.chain(20, Variant::Ur);
        assert_eq!(ua.n_states(), ur.n_states());
        assert!(ua.absorbing_states().is_empty());
        assert_eq!(ur.absorbing_states().len(), 1);
    }

    #[test]
    fn timer_returns_value_and_duration() {
        let (v, s) = time_once(|| 42.0);
        assert_eq!(v, 42.0);
        assert!(s >= 0.0);
    }
}

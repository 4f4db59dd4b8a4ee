//! Scalar-only execution backend, kept for the benchmark harness.
//!
//! Both SpMV loops (see [`crate::kernel`]) are scalar: every product runs
//! on [`Backend::Scalar`]. This module remains only because the benchmark
//! harness in `perfbench/` records `resolve(BackendChoice::Auto).name()` in
//! each run's environment; remove it together with that use.

/// A backend selection; automatic is the only one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// The one backend there is (the default).
    #[default]
    Auto,
}

/// A resolved execution backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The scalar loops.
    Scalar,
}

impl Backend {
    /// Stable name used in reports: `"scalar"`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
        }
    }
}

/// Resolves a backend selection: always [`Backend::Scalar`].
pub fn resolve(choice: BackendChoice) -> Backend {
    match choice {
        BackendChoice::Auto => Backend::Scalar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_simd_builds_resolve_everything_to_scalar() {
        assert_eq!(resolve(BackendChoice::Auto), Backend::Scalar);
        assert_eq!(resolve(BackendChoice::default()).name(), "scalar");
    }
}

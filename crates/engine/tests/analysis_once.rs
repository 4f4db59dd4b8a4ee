//! The tentpole invariant of the ChainFacts plumbing, proved through the
//! process-global [`regenr_ctmc::analysis_runs`] counter: the `O(n + nnz)`
//! Tarjan structure analysis runs **once per fingerprint**, not once per
//! job, because RR/RRL construction consumes the engine's cached facts via
//! `with_uniformized_facts`.
//!
//! This file deliberately holds a single `#[test]` — the counter is global
//! to the test process, so the invariant can only be asserted without racing
//! siblings in a binary of its own.

use regenr_engine::{Engine, Method, MethodChoice, SolveRequest};
use std::sync::Arc;

#[test]
fn structure_analysis_runs_once_per_fingerprint() {
    let engine = Engine::new();
    let absorbing = Arc::new(regenr_models::two_state::non_repairable_unit(1e-3));
    let irreducible = Arc::new(regenr_models::two_state::repairable_unit(1e-3, 1.0));

    let before = regenr_ctmc::analysis_runs();
    // Repeated requests and mixed methods over two fingerprints. Every
    // RR/RRL solver must reuse the cached analysis rather than run its
    // own; `Auto` dispatch adds SR/RSD/RRL jobs on top.
    for _ in 0..3 {
        for method in [
            MethodChoice::Auto,
            MethodChoice::Fixed(Method::Rr),
            MethodChoice::Fixed(Method::Rrl),
        ] {
            let req = SolveRequest::new("abs", absorbing.clone(), vec![50.0, 4e6])
                .epsilon(1e-10)
                .method(method);
            engine.solve(&req).unwrap();
        }
        let req = SolveRequest::new("irr", irreducible.clone(), vec![1.0, 1e6]).epsilon(1e-10);
        engine.solve(&req).unwrap();
    }

    let analyses = regenr_ctmc::analysis_runs() - before;
    assert_eq!(
        analyses, 2,
        "two fingerprints must cost exactly two structure analyses"
    );
    let stats = engine.cache().stats().structure;
    assert_eq!(stats.misses, 2, "cache built facts once per fingerprint");
    assert_eq!(stats.entries, 2);
    assert!(stats.hits >= 10, "every later plan consult must hit");
}

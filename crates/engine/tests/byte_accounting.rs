//! Allocator-truth audit of the artifact cache's byte accounting: the
//! `approx_bytes` estimates the bounded cache charges for `Uniformized` and
//! `RegenParams` artifacts are cross-checked against a counting global
//! allocator (live bytes = allocated − freed across the construction), as
//! is the once-per-pattern charge of a lineage of rate variants and the
//! one generator pattern a parsed sensitivity grid holds. A dedicated
//! integration-test binary because the counting allocator is necessarily
//! process-global.

use regenr_core::{RegenOptions, RegenParams};
use regenr_ctmc::{Ctmc, Uniformized};
use regenr_engine::{model_fps, ArtifactCache, CacheConfig, SweepSpec};
use regenr_sparse::ParallelConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// A birth–death chain large enough that the artifacts dominate fixed
/// overheads (struct headers, the plan-cache mutex, …).
fn birth_chain(n: usize) -> Ctmc {
    scaled_birth_chain(n, 1.0)
}

/// [`birth_chain`] with every rate multiplied by `scale`: a rate variant.
fn scaled_birth_chain(n: usize, scale: f64) -> Ctmc {
    let mut rates = Vec::new();
    for i in 0..n - 1 {
        rates.push((i, i + 1, scale));
        rates.push((i + 1, i, 0.5 * scale));
    }
    let mut init = vec![0.0; n];
    init[0] = 1.0;
    let rewards: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    Ctmc::from_rates(n, &rates, init, rewards).unwrap()
}

/// Asserts `estimate` is within `tol` (relative) of the measured live-byte
/// delta.
fn assert_close(what: &str, measured: i64, estimate: usize, tol: f64) {
    assert!(measured > 0, "{what}: measurement window saw no allocation");
    let ratio = estimate as f64 / measured as f64;
    assert!(
        (ratio - 1.0).abs() <= tol,
        "{what}: approx_bytes {estimate} vs allocator truth {measured} (ratio {ratio:.3}, \
         tolerance ±{tol})"
    );
}

/// One `#[test]` on purpose: the live-byte counter is process-global, so a
/// sibling test running on another libtest thread would pollute the
/// measurement windows (same constraint `analysis_once.rs` documents for
/// its process-global counter). Every audit below runs sequentially.
#[test]
fn approx_bytes_matches_allocator_truth() {
    // Uniformized: `Pᵀ` alone, capacity-accounted — the builder's count
    // and cursor tables are freed before the window closes.
    let chain = birth_chain(4_000);
    // Dry run so lazy one-time allocations don't pollute the window.
    drop(Uniformized::new(&chain, 0.0));
    let before = live_bytes();
    let unif = Uniformized::new(&chain, 0.0);
    let measured = live_bytes() - before;
    assert_close("Uniformized", measured, unif.approx_bytes(), 0.10);
    assert_eq!(unif.approx_bytes(), unif.p_t.heap_bytes());
    drop(unif);
    assert!(
        live_bytes() <= before,
        "dropping the artifact must release its bytes"
    );

    // RegenParams: push-grown killed-chain sequences, capacity-accounted
    // (length-based math under-reported these by up to 2×).
    let chain = birth_chain(1_500);
    let opts = RegenOptions {
        epsilon: 1e-10,
        ..Default::default()
    };
    let t = 200.0;
    drop(RegenParams::compute(&chain, 0, t, &opts).unwrap());
    let before = live_bytes();
    let params = RegenParams::compute(&chain, 0, t, &opts).unwrap();
    let measured = live_bytes() - before;
    assert_close("RegenParams", measured, params.approx_bytes(), 0.15);
    drop(params);
    assert!(
        live_bytes() <= before,
        "dropping the parameters must release their bytes"
    );

    // Chunk plans, allocator truth: a plan holds row ranges and a kernel
    // tag, never a copy of a matrix array, so steppers built on a cached
    // artifact leave its charge (`approx_bytes`, taken once at insertion)
    // honest.
    let chain = birth_chain(4_000);
    let configs = [1, 4].map(|threads| ParallelConfig {
        min_nnz: 0,
        threads,
    });
    // Dry run on a twin artifact so pool/one-time allocations don't
    // pollute the measurement window.
    {
        let twin = Uniformized::new(&chain, 0.0);
        for cfg in &configs {
            let _ = twin.stepper(cfg);
        }
    }
    let unif = Uniformized::new(&chain, 0.0);
    let before = live_bytes();
    let steppers: Vec<_> = configs.iter().map(|cfg| unif.stepper(cfg)).collect();
    let measured = live_bytes() - before;
    assert_eq!(unif.plan_bytes(), 0);
    assert!(
        (measured as f64) < 0.01 * unif.approx_bytes() as f64,
        "chunk plans allocated {measured} bytes against {} of matrices",
        unif.approx_bytes()
    );
    drop(steppers);

    // End to end: a cache capped at the matrices keeps the entry however
    // many steppers run on it.
    let fps = model_fps(&chain);
    let cache = ArtifactCache::with_config(CacheConfig {
        max_entries: None,
        max_bytes: Some(unif.approx_bytes()),
    });
    let (cached, hit) = cache.uniformized_delta(fps.unif, fps.unif_structure, &chain, 0.0);
    assert!(!hit);
    for cfg in &configs {
        let _stepper = cached.stepper(cfg);
    }
    let stats = cache.stats().uniformized;
    assert_eq!((stats.entries, stats.evictions), (1, 0));
    assert_eq!(stats.bytes, cached.approx_bytes());
    drop((cached, cache, unif));

    // A cold `Pᵀ` and three rate variants rebound from it share one
    // pattern and rebind map; a bounded cache charges each artifact its
    // values and the shared part once. A fifth variant then evicts the
    // donor (the least recently used entry) while its variants live.
    let chains: Vec<Ctmc> = [1.0, 1.25, 1.5, 1.75, 2.0]
        .iter()
        .map(|&scale| scaled_birth_chain(4_000, scale))
        .collect();
    let delta = |cache: &ArtifactCache, chain: &Ctmc| {
        let fps = model_fps(chain);
        cache
            .uniformized_delta(fps.unif, fps.unif_structure, chain, 0.0)
            .0
    };
    let lineage = |cache: &ArtifactCache| -> Vec<Arc<Uniformized>> {
        chains[..4].iter().map(|c| delta(cache, c)).collect()
    };
    // Dry run, so lazy one-time allocations don't pollute the window.
    drop(lineage(&ArtifactCache::with_config(
        CacheConfig::with_max_entries(4),
    )));
    let cache = ArtifactCache::with_config(CacheConfig::with_max_entries(4));
    let before = live_bytes();
    let mut live = lineage(&cache);
    let measured = live_bytes() - before;
    let stats = cache.stats();
    assert_eq!((stats.rebinds, stats.uniformized.evictions), (3, 0));
    let values: usize = live
        .iter()
        .map(|u| u.approx_bytes() - u.shared_bytes())
        .sum();
    assert!(live
        .iter()
        .all(|u| Arc::ptr_eq(u.p_t.pattern(), live[0].p_t.pattern())));
    assert_eq!(
        stats.uniformized.bytes,
        values + live[3].shared_bytes(),
        "the shared pattern and rebind map are charged once"
    );
    assert_close(
        "cold Pᵀ + 3 rebound variants",
        measured,
        stats.uniformized.bytes,
        0.10,
    );
    live.push(delta(&cache, &chains[4]));
    drop(live.remove(0));
    let measured = live_bytes() - before;
    let stats = cache.stats();
    assert_eq!((stats.rebinds, stats.uniformized.evictions), (4, 1));
    assert_close(
        "4 rebound variants, donor evicted",
        measured,
        stats.uniformized.bytes,
        0.10,
    );
    drop((live, cache));
    assert!(
        live_bytes() <= before,
        "dropping the lineage must release its bytes"
    );

    // Parsing a sensitivity grid replays one exploration over one
    // generator pattern: the 4-point grid holds two more points than the
    // 2-point grid, each its values, initial vector and rewards, and no
    // pattern of its own.
    let spec = |grid: &str| {
        format!(
            r#"{{"horizons": [1], "models": [{{"kind": "compose", "crews": 2,
                "reward": "capacity", "components": [
                  {{"name": "web", "count": 20, "lambda": 0.001, "mu": 1.0,
                    "coverage": 0.999, "required": 2}},
                  {{"name": "app", "count": 20, "lambda": 0.0008, "mu": 1.0,
                    "required": 2}},
                  {{"name": "db", "count": 20, "lambda": 0.0005, "mu": 1.0,
                    "required": 2}}],
                "sensitivity": {{"param": "lambda", "grid": {grid}}}}}]}}"#
        )
    };
    let parse = |grid: &str| SweepSpec::parse(&spec(grid)).unwrap();
    drop(parse("[1, 2, 3, 4]"));
    let before = live_bytes();
    let two = parse("[1, 2]");
    let two_bytes = live_bytes() - before;
    drop(two);
    let before = live_bytes();
    let four = parse("[1, 2, 3, 4]");
    let four_bytes = live_bytes() - before;
    let models: Vec<&Ctmc> = four.requests.iter().map(|r| &*r.model).collect();
    assert_eq!(models.len(), 4);
    let q = models[0].generator();
    assert!(models
        .iter()
        .all(|m| Arc::ptr_eq(m.generator().pattern(), q.pattern())));
    let f64s = std::mem::size_of::<f64>();
    let point = (q.nnz() + 2 * models[0].n_states()) * f64s;
    assert!(
        q.pattern().heap_bytes() > point / 4,
        "the pattern is large enough to tell apart"
    );
    assert_close(
        "points 3 and 4 of a grid",
        four_bytes - two_bytes,
        2 * point,
        0.05,
    );
}

//! Allocator-truth audit of the artifact cache's byte accounting: the
//! `approx_bytes` estimates the bounded cache charges for `Uniformized` and
//! `RegenParams` artifacts are cross-checked against a counting global
//! allocator (live bytes = allocated − freed across the construction).
//! A dedicated integration-test binary because the counting allocator is
//! necessarily process-global.

use regenr_core::{RegenOptions, RegenParams};
use regenr_ctmc::{Ctmc, Uniformized};
use regenr_engine::fingerprint::unif_fingerprint;
use regenr_engine::{ArtifactCache, CacheConfig};
use regenr_sparse::{KernelChoice, ParallelConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

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
    let mut rates = Vec::new();
    for i in 0..n - 1 {
        rates.push((i, i + 1, 1.0));
        rates.push((i + 1, i, 0.5));
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
/// its process-global counter). Both artifacts are audited sequentially.
#[test]
fn approx_bytes_matches_allocator_truth() {
    // Uniformized: both CSR matrices, capacity-accounted.
    let chain = birth_chain(4_000);
    // Dry run so lazy one-time allocations don't pollute the window.
    drop(Uniformized::new(&chain, 0.0));
    let before = live_bytes();
    let unif = Uniformized::new(&chain, 0.0);
    let measured = live_bytes() - before;
    assert_close("Uniformized", measured, unif.approx_bytes(), 0.10);
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
    let configs: Vec<ParallelConfig> = [KernelChoice::ShortRow, KernelChoice::Generic]
        .into_iter()
        .flat_map(|kernel| {
            [1, 4].map(|threads| ParallelConfig {
                min_nnz: 0,
                threads,
                kernel,
                ..Default::default()
            })
        })
        .collect();
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
    let fp = unif_fingerprint(&chain);
    let cache = ArtifactCache::with_config(CacheConfig {
        max_entries: None,
        max_bytes: Some(unif.approx_bytes()),
    });
    let (cached, hit) = cache.uniformized(fp, &chain, 0.0);
    assert!(!hit);
    for cfg in &configs {
        let _stepper = cached.stepper(cfg);
    }
    let stats = cache.stats().uniformized;
    assert_eq!((stats.entries, stats.evictions), (1, 0));
    assert_eq!(stats.bytes, cached.approx_bytes());
}

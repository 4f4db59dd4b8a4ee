//! Allocator-truth test for the execution layer: a warm [`WorkerPool`]
//! serves runs with **zero steady-state heap allocations** — the job-slot
//! recycling replaced the per-run `Arc<JobState>` allocation of the original
//! design — and so does a folded product whose chunks workers steal (the
//! ordered-fold bookkeeping allocates nothing). A dedicated integration
//! test binary because the counting allocator is necessarily process-global.

use regenr_sparse::{ChunkPlan, CooBuilder, CsrMatrix, RowFold, WorkerPool, Workspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Sizes of the most recent allocations — diagnostic breadcrumbs for a
/// failure (a bare count is useless for finding the stray allocation).
static RING: [AtomicU64; 32] = [const { AtomicU64::new(0) }; 32];

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let i = ALLOCS.fetch_add(1, Ordering::Relaxed) as usize;
        RING[i % 32].store(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let i = ALLOCS.fetch_add(1, Ordering::Relaxed) as usize;
        RING[i % 32].store(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn recent_sizes() -> Vec<u64> {
    RING.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

fn band_matrix(n: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        b.push(i, i, 2.0);
        if i > 0 {
            b.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            b.push(i, i + 1, -0.5);
        }
    }
    b.build()
}

/// Warm pool + cached plan + workspace-held buffers: repeated pooled
/// products perform no allocations at all — on the submitting thread *or*
/// the workers stealing chunks during the measured window (any allocation,
/// on any thread, fails the test). Then the same for folded products whose
/// chunks workers steal.
#[test]
fn warm_pool_runs_are_allocation_free() {
    let pool = WorkerPool::new(4);
    let n = 2_000;
    let m = band_matrix(n);
    let plan = ChunkPlan::new(&m, 8);
    let mut ws = Workspace::new();
    let x = ws.take_zeroed(n);
    let mut y = ws.take_zeroed(n);

    // Warm-up: force every worker through the full claim-and-execute path
    // (sleeping chunks make the submitter yield claims to the workers) so
    // any lazy per-thread init happens before the measured window; then
    // settle with the product itself.
    for _ in 0..3 {
        pool.run(32, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
    }
    for _ in 0..50 {
        m.mul_vec_pooled_into(&x, &mut y, &plan, &pool);
    }

    let before = allocations();
    for _ in 0..500 {
        m.mul_vec_pooled_into(&x, &mut y, &plan, &pool);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state pooled products must not allocate ({delta} in 500 runs; \
         recent sizes {:?})",
        recent_sizes()
    );

    // Raw pool runs (no SpMV) are allocation-free as well.
    let before = allocations();
    for _ in 0..500 {
        pool.run(8, |_| {});
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "raw pool.run must not allocate ({delta} in 500; recent sizes {:?})",
        recent_sizes()
    );
    ws.give(x);
    ws.give(y);

    assert_folded_products_with_stolen_chunks_allocate_nothing(&pool, &m, &plan);
}

/// A row sum whose first row stalls until a pool worker has stolen a chunk
/// of the product (counted past `stolen`), so that every product below
/// hands its later chunks to the fold that runs after the pool run.
#[derive(Clone, Copy)]
struct StallingSum<'p> {
    sum: f64,
    await_steal: Option<(&'p WorkerPool, u64)>,
}

impl RowFold for StallingSum<'_> {
    fn row(&mut self, _i: usize, v: f64) -> f64 {
        if let Some((pool, stolen)) = self.await_steal.take() {
            let t0 = Instant::now();
            while pool.stats().stolen_chunks <= stolen {
                assert!(t0.elapsed() < Duration::from_secs(30), "no worker stole");
                std::thread::yield_now();
            }
        }
        self.sum += v;
        v
    }
}

/// Folded products nested in a pool job (so idle workers count as
/// stealing their chunks), each waiting for a steal: a warm pool of four
/// threads over a plan of eight chunks allocates nothing on any thread —
/// not the caller's fold hand-off, not the fold after the run. Called from
/// the one test above: a concurrent test would count its own allocations.
fn assert_folded_products_with_stolen_chunks_allocate_nothing(
    pool: &WorkerPool,
    m: &CsrMatrix,
    plan: &ChunkPlan,
) {
    assert_eq!((pool.threads(), plan.len()), (4, 8));
    let n = m.nrows();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut want = vec![0.0; n];
    m.mul_vec_into(&x, &mut want);
    let want_sum: f64 = want.iter().fold(0.0, |s, v| s + v);
    let out = Mutex::new((vec![0.0; n], 0.0));
    let product = || {
        let fold = StallingSum {
            sum: 0.0,
            await_steal: Some((pool, pool.stats().stolen_chunks)),
        };
        pool.run(2, |job| {
            if job == 0 {
                let mut out = out.lock().unwrap();
                out.1 = m.mul_vec_folded_into(&x, &mut out.0, plan, pool, fold).sum;
            }
        });
    };

    for _ in 0..50 {
        product();
    }

    let stolen = pool.stats().stolen_chunks;
    let before = allocations();
    for _ in 0..500 {
        product();
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state folded products must not allocate ({delta} in 500 runs; \
         recent sizes {:?})",
        recent_sizes()
    );
    assert!(
        pool.stats().stolen_chunks >= stolen + 500,
        "every product had a chunk stolen"
    );
    let out = out.lock().unwrap();
    assert_eq!(out.0, want);
    assert_eq!(out.1.to_bits(), want_sum.to_bits());
}

//! Reusable vector arenas for the solvers' scratch state.
//!
//! Every solver's inner loop propagates distributions through a pair (or a
//! handful) of `n_states`-sized `f64` vectors. Allocating them per `solve`
//! call is invisible for one solve and expensive for a sweep: `solve_many`
//! over a horizon grid, or an engine sweep over hundreds of requests, would
//! churn the allocator with megabyte-sized buffers that are immediately
//! recycled. A [`Workspace`] keeps returned buffers and hands them back out,
//! so a warmed-up solver performs **zero steady-state heap allocations** for
//! its vector scratch: after the first solve on a given model size, every
//! `take` is served from the free list.
//!
//! The arena is deliberately simple — a free list of `Vec<f64>` reused by
//! best-fit capacity — because the workloads cycle through a tiny set of
//! sizes (`n`, `n + 1`). It is `&mut`-threaded, not shared: each engine
//! sweep job owns one.

/// Counters describing how a [`Workspace`] was used. `fresh_allocs` staying
/// flat across repeated solves is the zero-steady-state-allocation property
/// the execution layer promises (asserted by the workspace-reuse tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Buffers handed out.
    pub takes: u64,
    /// Takes that had to allocate a fresh buffer.
    pub fresh_allocs: u64,
    /// Takes served from the free list.
    pub reused: u64,
    /// Buffers currently parked in the free list.
    pub pooled: usize,
    /// Capacity (in `f64`s) parked in the free list.
    pub pooled_capacity: usize,
}

impl WorkspaceStats {
    /// Sums the *counters* (`takes`, `fresh_allocs`, `reused`) for
    /// aggregating per-worker workspaces into one report. The free-list
    /// gauges (`pooled`, `pooled_capacity`) describe one live arena at one
    /// instant — summing end-of-life snapshots would report freed buffers
    /// as parked — so they are left at the accumulator's own values.
    pub fn merge(&mut self, other: &WorkspaceStats) {
        self.takes += other.takes;
        self.fresh_allocs += other.fresh_allocs;
        self.reused += other.reused;
    }
}

/// A reusable arena of `f64` vectors. See the module docs.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<Vec<f64>>,
    takes: u64,
    fresh_allocs: u64,
    reused: u64,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops the best-fitting free buffer (smallest capacity ≥ `n`, else the
    /// largest available to grow in place), or allocates fresh.
    fn pop(&mut self, n: usize) -> Vec<f64> {
        self.takes += 1;
        let best = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= n)
            .min_by_key(|(_, v)| v.capacity())
            .map(|(i, _)| i)
            .or_else(|| {
                self.free
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, v)| v.capacity())
                    .map(|(i, _)| i)
            });
        match best {
            Some(i) => {
                let buf = self.free.swap_remove(i);
                if buf.capacity() >= n {
                    self.reused += 1;
                } else {
                    // Growing an undersized buffer reallocates.
                    self.fresh_allocs += 1;
                }
                buf
            }
            None => {
                self.fresh_allocs += 1;
                Vec::new()
            }
        }
    }

    /// A buffer of length `n`, zero-filled.
    pub fn take_zeroed(&mut self, n: usize) -> Vec<f64> {
        let mut buf = self.pop(n);
        buf.clear();
        buf.resize(n, 0.0);
        buf
    }

    /// A buffer holding a copy of `src`.
    pub fn take_copied(&mut self, src: &[f64]) -> Vec<f64> {
        let mut buf = self.pop(src.len());
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// Returns a buffer to the free list for reuse.
    pub fn give(&mut self, buf: Vec<f64>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Drops every parked buffer. Call after catching a panic from a solver
    /// that was using this workspace: `take_*` always overwrites the data it
    /// hands out, but discarding the arena outright guarantees nothing an
    /// unwound solver touched — contents *or* capacity bookkeeping — can
    /// reach the next occupant. Counters are preserved.
    pub fn discard_all(&mut self) {
        self.free.clear();
    }

    /// Usage counters and free-list gauges.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            takes: self.takes,
            fresh_allocs: self.fresh_allocs,
            reused: self.reused,
            pooled: self.free.len(),
            pooled_capacity: self.free.iter().map(Vec::capacity).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_reuses_the_buffer() {
        let mut ws = Workspace::new();
        let a = ws.take_zeroed(100);
        assert_eq!(a.len(), 100);
        let ptr = a.as_ptr();
        ws.give(a);
        let b = ws.take_zeroed(64);
        assert_eq!(b.as_ptr(), ptr, "smaller request must reuse the buffer");
        assert_eq!(b.len(), 64);
        assert!(b.iter().all(|&x| x == 0.0));
        let stats = ws.stats();
        assert_eq!(stats.takes, 2);
        assert_eq!(stats.fresh_allocs, 1);
        assert_eq!(stats.reused, 1);
    }

    #[test]
    fn take_copied_copies() {
        let mut ws = Workspace::new();
        let src = [1.0, 2.5, -3.0];
        let buf = ws.take_copied(&src);
        assert_eq!(buf, src);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let mut ws = Workspace::new();
        // Warm up with the two sizes a solver cycles through.
        for _ in 0..2 {
            let a = ws.take_zeroed(500);
            let b = ws.take_zeroed(501);
            ws.give(a);
            ws.give(b);
        }
        let warm = ws.stats().fresh_allocs;
        for _ in 0..100 {
            let a = ws.take_copied(&vec![1.0; 500]);
            let b = ws.take_zeroed(501);
            ws.give(a);
            ws.give(b);
        }
        assert_eq!(
            ws.stats().fresh_allocs,
            warm,
            "steady state must not allocate"
        );
        assert_eq!(ws.stats().reused, 2 + 200);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        let small = ws.take_zeroed(10);
        let big = ws.take_zeroed(1000);
        let (small_ptr, big_ptr) = (small.as_ptr(), big.as_ptr());
        ws.give(big);
        ws.give(small);
        let got = ws.take_zeroed(8);
        assert_eq!(got.as_ptr(), small_ptr, "best fit must pick the small one");
        let got_big = ws.take_zeroed(900);
        assert_eq!(got_big.as_ptr(), big_ptr);
    }

    #[test]
    fn merge_sums_counters_but_not_gauges() {
        let mut a = WorkspaceStats {
            takes: 1,
            fresh_allocs: 1,
            reused: 0,
            pooled: 2,
            pooled_capacity: 10,
        };
        let b = WorkspaceStats {
            takes: 3,
            fresh_allocs: 0,
            reused: 3,
            pooled: 1,
            pooled_capacity: 5,
        };
        a.merge(&b);
        assert_eq!(a.takes, 4);
        assert_eq!(a.reused, 3);
        // Gauges are per-arena snapshots, not counters: no summing.
        assert_eq!(a.pooled, 2);
        assert_eq!(a.pooled_capacity, 10);
    }
}

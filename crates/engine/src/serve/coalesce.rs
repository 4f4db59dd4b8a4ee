//! In-flight request coalescing: identical specs share one computation.
//!
//! This generalizes the artifact cache's per-key build slots from single
//! artifacts to whole sweeps. The first request for a spec publishes a
//! pending [`SharedRun`] and the server spawns the run's **owner**, a
//! detached thread that builds the spec, takes an admission slot and
//! computes. Every connection, the first one included, is only a
//! **subscriber**: it waits for the owner's verdict (accepted, or a
//! refusal it sends as its response), then streams the same cells as they
//! land or renders the same final report. The run key is the
//! *canonicalized* spec document, so whitespace and formatting differences
//! still coalesce while any semantic difference (including `deadline_ms`)
//! keeps runs separate.
//!
//! No subscriber can wait on a run without an owner: the owner's drop
//! guard ends the run through [`SharedRun::abandon`] on any unwind.

use crate::cache::lock;
use crate::engine::{SolveReport, SweepReport};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Terminal status of a shared run, carried into every summary record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Every job completed (per-request failures may still be present).
    Ok,
    /// The deadline expired mid-flight; streamed cells stay valid.
    Deadline,
    /// Every compute attempt unwound (an infrastructure fault); the
    /// subscribers are released rather than left waiting forever.
    Error,
}

impl RunStatus {
    /// Stable string used in summary records.
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Deadline => "deadline",
            RunStatus::Error => "error",
        }
    }
}

/// An owner's refusal of a run: the HTTP status and body every subscriber
/// answers with.
pub type Refusal = (u16, String);

/// An accepted run's final report and status.
pub type Finished = (Arc<SweepReport>, RunStatus);

#[derive(Default)]
struct RunState {
    /// `None` until the owner accepts (`Ok`) or refuses (`Err`) the run.
    verdict: Option<Result<(), Refusal>>,
    /// Cells in completion order, appended as sweep jobs finish. Stored as
    /// reports (not serialized strings) so each subscriber renders with its
    /// own `stable` flag.
    cells: Vec<SolveReport>,
    /// The final report of an accepted run, once it is done.
    done: Option<Finished>,
}

/// One in-flight sweep: written by its owner, read by its subscribers.
#[derive(Default)]
pub struct SharedRun {
    state: Mutex<RunState>,
    cond: Condvar,
}

impl SharedRun {
    fn update(&self, apply: impl FnOnce(&mut RunState)) {
        apply(&mut lock(&self.state));
        self.cond.notify_all();
    }

    fn wait_for(&self, ready: impl Fn(&RunState) -> bool) -> MutexGuard<'_, RunState> {
        self.cond
            .wait_while(lock(&self.state), |st| !ready(st))
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Accepts the run: subscribers start streaming or waiting for the
    /// final report.
    pub fn accept(&self) {
        self.update(|st| st.verdict = Some(Ok(())));
    }

    /// Refuses the run: every subscriber answers with `refusal`.
    pub fn refuse(&self, refusal: Refusal) {
        self.update(|st| st.verdict = Some(Err(refusal)));
    }

    /// Appends freshly completed cells and wakes subscribers. Called from
    /// sweep worker threads via the owner's observer.
    pub fn push_cells(&self, cells: &[SolveReport]) {
        self.update(|st| st.cells.extend_from_slice(cells));
    }

    /// Publishes an accepted run's final report and wakes everyone.
    pub fn finish(&self, report: SweepReport, status: RunStatus) {
        self.update(|st| st.done = Some((Arc::new(report), status)));
    }

    /// Ends a run whose owner is gone: subscribers still waiting for the
    /// verdict get `refusal`, and an accepted run finishes as
    /// [`RunStatus::Error`]. A run that already ended is left as it is.
    pub fn abandon(&self, refusal: Refusal) {
        self.update(|st| {
            if st.verdict.is_none() {
                st.verdict = Some(Err(refusal));
            } else if st.done.is_none() {
                st.done = Some((Arc::default(), RunStatus::Error));
            }
        });
    }

    /// Blocks until the owner has accepted or refused the run.
    pub fn verdict(&self) -> Result<(), Refusal> {
        let st = self.wait_for(|st| st.verdict.is_some());
        st.verdict.clone().expect("waited for the verdict")
    }

    /// Blocks until cells beyond `cursor` exist or the accepted run is
    /// done; returns the new cells and, once the run is done, how it
    /// finished.
    pub fn next_cells(&self, cursor: usize) -> (Vec<SolveReport>, Option<Finished>) {
        let st = self.wait_for(|st| st.cells.len() > cursor || st.done.is_some());
        (st.cells[cursor..].to_vec(), st.done.clone())
    }

    /// Blocks until the run is refused or done; returns the refusal or the
    /// final report and status.
    pub fn outcome(&self) -> Result<Finished, Refusal> {
        let st = self.wait_for(|st| matches!(st.verdict, Some(Err(_))) || st.done.is_some());
        match (&st.verdict, &st.done) {
            (Some(Err(refusal)), _) => Err(refusal.clone()),
            (_, Some(done)) => Ok(done.clone()),
            _ => unreachable!("waited for a refusal or the final report"),
        }
    }
}

/// The table of in-flight runs, keyed by canonical spec text.
#[derive(Default)]
pub struct InflightTable {
    runs: Mutex<HashMap<String, Arc<SharedRun>>>,
}

impl InflightTable {
    /// Joins the in-flight run for `key`, or publishes a new pending one.
    /// Returns the run and whether this call published it, in which case
    /// the caller must start the run's owner.
    pub fn join_or_start(&self, key: &str) -> (Arc<SharedRun>, bool) {
        regenr_failpoint::failpoint!("serve-coalesce");
        let mut runs = lock(&self.runs);
        if let Some(run) = runs.get(key) {
            return (run.clone(), false);
        }
        let run = Arc::new(SharedRun::default());
        runs.insert(key.to_string(), run.clone());
        (run, true)
    }

    /// Removes a finished run. New identical specs after this start fresh
    /// computations (and hit the warmed artifact cache instead).
    pub fn complete(&self, key: &str) {
        lock(&self.runs).remove(key);
    }

    /// Number of runs currently in flight.
    pub fn len(&self) -> usize {
        lock(&self.runs).len()
    }

    /// True when no run is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_identical_key_becomes_follower() {
        let table = InflightTable::default();
        let (run, started) = table.join_or_start("a");
        assert!(started, "first arrival must start the run");
        let (follower, started) = table.join_or_start("a");
        assert!(!started, "identical in-flight key must coalesce");
        assert!(Arc::ptr_eq(&run, &follower));
        let (_, started) = table.join_or_start("b");
        assert!(started, "a different key is a different run");
        assert_eq!(table.len(), 2);
        table.complete("a");
        table.complete("b");
        assert!(table.is_empty());
        // After completion the key starts again (fresh computation).
        assert!(table.join_or_start("a").1);
    }

    #[test]
    fn followers_stream_cells_then_final_report() {
        let run = Arc::new(SharedRun::default());
        let follower = run.clone();
        let t = std::thread::spawn(move || {
            follower.verdict().expect("accepted");
            let mut seen = 0;
            loop {
                let (cells, done) = follower.next_cells(seen);
                seen += cells.len();
                if let Some((_, status)) = done {
                    return (seen, status);
                }
            }
        });
        run.accept();
        // No real SolveReport constructor shortcut here — empty pushes
        // still exercise wake-ups; the done flag carries the report.
        run.push_cells(&[]);
        run.finish(SweepReport::default(), RunStatus::Ok);
        let (seen, status) = t.join().unwrap();
        assert_eq!(seen, 0);
        assert_eq!(status, RunStatus::Ok);
    }

    /// An abandoned run releases every waiter: before the verdict with the
    /// refusal, after it as an error; a finished run keeps its outcome.
    #[test]
    fn abandoned_run_releases_its_subscribers() {
        let refusal = || (503, "gone".to_string());
        let pending = SharedRun::default();
        pending.abandon(refusal());
        assert_eq!(pending.verdict(), Err(refusal()));
        assert_eq!(pending.outcome().map(|_| ()), Err(refusal()));

        let accepted = SharedRun::default();
        accepted.accept();
        accepted.abandon(refusal());
        assert_eq!(accepted.verdict(), Ok(()));
        assert_eq!(accepted.next_cells(0).1.unwrap().1, RunStatus::Error);
        assert_eq!(accepted.outcome().unwrap().1, RunStatus::Error);

        let finished = SharedRun::default();
        finished.accept();
        finished.finish(SweepReport::default(), RunStatus::Deadline);
        finished.abandon(refusal());
        assert_eq!(finished.outcome().unwrap().1, RunStatus::Deadline);
    }
}

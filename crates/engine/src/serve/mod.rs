//! `regenr serve` — the persistent solver service.
//!
//! A hand-rolled HTTP/1.1 server over `std::net` (same no-dependency
//! discipline as the no-serde [`crate::json`] layer) that keeps one
//! [`Engine`] — artifact cache, worker pool, warmed workspaces — alive
//! across requests, so the second client asking for a `UR(1e5h)` sweep is
//! nearly all cache hits. Endpoints:
//!
//! | endpoint               | behavior                                        |
//! |------------------------|-------------------------------------------------|
//! | `POST /sweep`          | run the spec, stream per-cell results as NDJSON |
//! |                        | (chunked), final `"record":"summary"` line      |
//! | `POST /sweep/report`   | run the spec, return the full report document — |
//! |                        | `?stable=1` is byte-for-byte what               |
//! |                        | `regenr sweep <spec> --stable` prints           |
//! | `GET /healthz`         | liveness                                        |
//! | `GET /stats`           | serve counters + cache counters                 |
//! | `POST /shutdown`       | graceful drain (SIGTERM does the same)          |
//!
//! Three server-grade behaviors are the point, not extras:
//!
//! 1. **Coalescing** ([`coalesce`]): identical specs in flight share one
//!    computation — followers stream the leader's cells and count toward
//!    `coalesced`, not toward the engine.
//! 2. **Admission control + deadlines**: at most `max_inflight` distinct
//!    sweeps compute concurrently; excess distinct specs get `429` with a
//!    structured body instead of queuing unboundedly. A `"deadline_ms"`
//!    spec field cancels a sweep cleanly between jobs — cells already
//!    streamed stay valid and the summary says `"status":"deadline"`.
//! 3. **Graceful lifecycle**: `POST /shutdown` or SIGTERM stops accepting,
//!    drains in-flight connections, and returns from [`Server::run`]; the
//!    cache and pool live as long as the server, not a request.
//! 4. **Fault containment**: a leader that unwinds mid-sweep promotes a
//!    subscribed follower to recompute (up to
//!    [`ServeConfig::leader_retries`] re-elections per run) instead of
//!    erroring every subscriber; handler panics answer `500`, exhausted
//!    runs answer `503` — infrastructure faults never masquerade as model
//!    errors, which keep their structured `4xx` bodies.
//!
//! Engine-wide knobs (`threads`, `kernel`, `rhs_block`, `theta`, dispatch
//! thresholds, `cache`) are fixed at server startup — a spec carrying them
//! is rejected with `400`, because silently serving it with different
//! options would produce reports that diverge from the same spec run
//! offline. Per-model fields (`epsilon`, `method`, `horizons`, `measures`,
//! `regen_state`) remain fully per-request.

pub mod coalesce;
pub mod http;

use crate::cache::{lock, CacheConfig};
use crate::engine::{Engine, EngineOptions, SolveReport, SweepProgress, SweepReport};
use crate::json::Json;
use crate::spec::{cache_stats_json, cell_to_json, failure_to_json, SweepSpec};
use coalesce::{FollowEvent, InflightTable, Joined, LeaderGuard, RunStatus, SharedRun};
use http::{read_request, write_response, Chunked, HttpError, Request};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server configuration (CLI: `regenr serve [--addr] [--threads]
/// [--max-inflight]`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`HOST:PORT`; port `0` picks a free port).
    pub addr: String,
    /// Sweep worker threads per request (`0` = available parallelism);
    /// becomes the shared engine's [`EngineOptions::threads`].
    pub threads: usize,
    /// Maximum distinct sweeps computing concurrently; excess load is
    /// rejected with `429`. Coalesced followers don't consume slots.
    pub max_inflight: usize,
    /// Request body limit (`413` beyond it).
    pub max_body_bytes: usize,
    /// Artifact-cache capacity. A long-running service must bound its
    /// cache; the default keeps 256 models / 512 MiB under LRU eviction.
    pub cache: CacheConfig,
    /// Leader re-elections budgeted per coalesced run: when a leader's
    /// handler unwinds mid-sweep this many times, a subscribed follower is
    /// promoted to recompute instead of every subscriber getting an error.
    pub leader_retries: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".into(),
            threads: 0,
            max_inflight: 4,
            max_body_bytes: 16 * 1024 * 1024,
            cache: CacheConfig {
                max_entries: Some(256),
                max_bytes: Some(512 * 1024 * 1024),
            },
            leader_retries: 2,
        }
    }
}

/// Monotonic serve counters, surfaced in every summary record and by
/// `GET /stats` (the [`crate::ExecStats`]/[`crate::CacheStats`] of the
/// serve layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests parsed off the wire (all endpoints).
    pub requests: u64,
    /// Sweep computations actually started (coalesced requests excluded).
    pub sweeps: u64,
    /// Requests served by subscribing to an identical in-flight sweep.
    pub coalesced: u64,
    /// Requests rejected with `429` by admission control.
    pub rejected: u64,
    /// Sweeps cancelled by their deadline.
    pub deadline_expired: u64,
    /// Requests rejected with `4xx` parse/validation errors.
    pub bad_requests: u64,
    /// NDJSON cell records written to clients (all connections).
    pub cells_streamed: u64,
    /// High-water mark of concurrently computing sweeps.
    pub inflight_highwater: u64,
    /// Followers promoted to leader after a leader died mid-sweep.
    pub promotions: u64,
    /// Request handlers that panicked (answered `500`; infrastructure
    /// faults, never request errors).
    pub handler_panics: u64,
}

#[derive(Default)]
struct ServeCounters {
    requests: AtomicU64,
    sweeps: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    deadline_expired: AtomicU64,
    bad_requests: AtomicU64,
    cells_streamed: AtomicU64,
    inflight_highwater: AtomicU64,
    promotions: AtomicU64,
    handler_panics: AtomicU64,
}

impl ServeCounters {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            cells_streamed: self.cells_streamed.load(Ordering::Relaxed),
            inflight_highwater: self.inflight_highwater.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
        }
    }
}

/// Serializes the serve counters (summary records and `GET /stats`).
pub fn serve_stats_json(s: &ServeStats) -> Json {
    Json::Obj(vec![
        ("requests".into(), Json::Num(s.requests as f64)),
        ("sweeps".into(), Json::Num(s.sweeps as f64)),
        ("coalesced".into(), Json::Num(s.coalesced as f64)),
        ("rejected".into(), Json::Num(s.rejected as f64)),
        (
            "deadline_expired".into(),
            Json::Num(s.deadline_expired as f64),
        ),
        ("bad_requests".into(), Json::Num(s.bad_requests as f64)),
        ("cells_streamed".into(), Json::Num(s.cells_streamed as f64)),
        (
            "inflight_highwater".into(),
            Json::Num(s.inflight_highwater as f64),
        ),
        ("promotions".into(), Json::Num(s.promotions as f64)),
        ("handler_panics".into(), Json::Num(s.handler_panics as f64)),
    ])
}

/// The admission gate: a bounded count of concurrently computing sweeps.
/// `Mutex<usize>` rather than lock-free — admission happens once per
/// sweep, under the in-flight table's decision, never on a hot path.
struct Gate {
    max: usize,
    cur: Mutex<usize>,
}

impl Gate {
    fn admit(&self, counters: &ServeCounters) -> bool {
        let mut cur = lock(&self.cur);
        if *cur >= self.max {
            return false;
        }
        *cur += 1;
        counters
            .inflight_highwater
            .fetch_max(*cur as u64, Ordering::Relaxed);
        true
    }

    /// Admits unconditionally — for a promoted follower retaking a dead
    /// leader's run. The dead leader's slot is released as its handler
    /// unwinds, but the promotion must never lose a race against that
    /// release: transiently exceeding `max` by the in-flight promotions is
    /// the lesser evil versus rejecting the retry (stranding followers).
    fn admit_forced(&self, counters: &ServeCounters) {
        let mut cur = lock(&self.cur);
        *cur += 1;
        counters
            .inflight_highwater
            .fetch_max(*cur as u64, Ordering::Relaxed);
    }

    fn release(&self) {
        *lock(&self.cur) -= 1;
    }

    fn inflight(&self) -> usize {
        *lock(&self.cur)
    }
}

/// Releases the leader's admission slot on scope exit (including unwind).
struct AdmitRelease<'a>(&'a Gate);

impl Drop for AdmitRelease<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// SIGTERM/SIGINT land here; the accept loop polls it. Registered through
/// a direct `signal(2)` FFI declaration — the workspace has no `libc`
/// crate, and an atomic store is async-signal-safe.
static TERM_SIGNAL: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod signal {
    use super::TERM_SIGNAL;
    use std::sync::atomic::Ordering;

    extern "C" fn on_term(_sig: i32) {
        TERM_SIGNAL.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }
}

/// The persistent solver service. One engine (cache + pool) for the whole
/// process; connections are handled on their own threads; sweeps coalesce
/// through the in-flight table and compute under the admission gate.
pub struct Server {
    engine: Engine,
    table: InflightTable,
    gate: Gate,
    counters: ServeCounters,
    cfg: ServeConfig,
    listener: TcpListener,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    active: AtomicUsize,
    /// Service-lifetime aggregate of every sweep's [`RobustnessStats`].
    robust: Mutex<crate::engine::RobustnessStats>,
}

impl Server {
    /// Binds the listener and builds the shared engine. The returned
    /// server is inert until [`Server::run`].
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Arc<Server>> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let options = EngineOptions {
            threads: cfg.threads,
            ..EngineOptions::default()
        };
        Ok(Arc::new(Server {
            engine: Engine::with_cache_config(options, cfg.cache),
            table: InflightTable::default(),
            gate: Gate {
                max: cfg.max_inflight.max(1),
                cur: Mutex::new(0),
            },
            counters: ServeCounters::default(),
            cfg,
            listener,
            local_addr,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            robust: Mutex::new(crate::engine::RobustnessStats::default()),
        }))
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared engine (cache counters for tests and `GET /stats`).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Current serve counters.
    pub fn stats(&self) -> ServeStats {
        self.counters.snapshot()
    }

    /// Service-lifetime robustness counters (summed over every sweep this
    /// server computed, including leader retries and promoted recomputes).
    pub fn robustness(&self) -> crate::engine::RobustnessStats {
        *lock(&self.robust)
    }

    /// Requests a graceful shutdown: stop accepting, drain in-flight
    /// connections, return from [`Server::run`].
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || TERM_SIGNAL.load(Ordering::SeqCst)
    }

    /// Accepts connections until shutdown/SIGTERM, then drains. Each
    /// connection runs on its own thread; compute concurrency is bounded
    /// by the admission gate (and the shared worker pool), not by the
    /// connection count, so coalesced storms can be much wider than
    /// `max_inflight`.
    pub fn run(self: &Arc<Self>) -> std::io::Result<()> {
        #[cfg(unix)]
        signal::install();
        self.listener.set_nonblocking(true)?;
        while !self.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let server = Arc::clone(self);
                    server.active.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        // Decrement on unwind too: a panicking handler
                        // must not wedge the drain loop forever.
                        struct Active(Arc<Server>);
                        impl Drop for Active {
                            fn drop(&mut self) {
                                self.0.active.fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                        let _active = Active(Arc::clone(&server));
                        handle_connection(&server, stream);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: in-flight sweeps finish and their connections close; new
        // connections are no longer accepted.
        while self.active.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

/// 64-bit FNV-1a over the canonicalized spec document — the coalescing
/// key. Canonicalization (parse → [`crate::fingerprint::canonicalize_spec`]
/// → compact re-serialize) makes whitespace, float spelling and compose
/// component order irrelevant while any semantic difference (including
/// `deadline_ms`) separates runs.
fn spec_key(doc: &Json) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in crate::fingerprint::canonicalize_spec(doc)
        .to_string()
        .bytes()
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn error_body(code: &str, detail: String) -> String {
    Json::Obj(vec![
        ("error".into(), Json::Str(code.into())),
        ("detail".into(), Json::Str(detail)),
    ])
    .to_string()
}

/// Engine-wide spec knobs that are fixed at server startup. Serving a spec
/// that sets them would silently produce reports diverging from the same
/// spec run offline, so they are rejected loudly instead.
const FIXED_ENGINE_KEYS: &[&str] = &[
    "threads",
    "kernel",
    "rhs_block",
    "theta",
    "small_lambda_t",
    "tiny_lambda_t",
    "adaptive_min_states",
    "cache",
];

/// Parses and validates a posted spec; returns the spec and its
/// coalescing key, or a ready-to-send `(status, body)` error.
fn parse_posted_spec(body: &[u8]) -> Result<(SweepSpec, u64), (u16, String)> {
    let text = std::str::from_utf8(body)
        .map_err(|_| (400, error_body("bad_encoding", "body is not UTF-8".into())))?;
    let doc = Json::parse(text).map_err(|e| {
        // A document over the nesting cap may still be valid JSON: it is a
        // spec beyond a limit, not a syntax error.
        let code = if e.is_too_deep() {
            "bad_spec"
        } else {
            "bad_json"
        };
        (400, error_body(code, e.to_string()))
    })?;
    for key in FIXED_ENGINE_KEYS {
        if doc.get(key).is_some() {
            return Err((
                400,
                error_body(
                    "fixed_engine_option",
                    format!(
                        "spec field {key:?} configures the engine and is fixed at server \
                         startup; remove it (per-model fields stay per-request)"
                    ),
                ),
            ));
        }
    }
    let spec = SweepSpec::from_json(&doc).map_err(|e| (400, error_body(spec_error_code(&e), e)))?;
    let key = spec_key(&doc);
    Ok((spec, key))
}

/// Names a spec error for the structured `"error"` field. Model-*build*
/// failures (a compose model blowing its `max_states` cap, a component
/// graph that cannot be compiled) get their own codes so a client can
/// tell "your model is too big" from "your JSON is wrong" — all of them
/// are request properties (`4xx`), never infrastructure (`5xx`). The
/// matched phrases are the `Display` texts of our own error types, pinned
/// by `posted_spec_validation_maps_to_http_errors`.
fn spec_error_code(detail: &str) -> &'static str {
    if detail.contains("state space exceeded the cap") {
        "state_space_exceeded"
    } else if detail.contains("failed to build") {
        "model_build_failed"
    } else {
        "bad_spec"
    }
}

/// The sweep observer a leader computes under: cells are published to the
/// shared run (leader and followers stream from it), and the deadline is
/// polled between jobs.
struct RunObserver<'a> {
    run: &'a SharedRun,
    deadline: Option<Instant>,
}

impl SweepProgress for RunObserver<'_> {
    fn cancelled(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn on_reports(&self, reports: &[SolveReport]) {
        self.run.push_cells(reports);
    }
}

/// Builds the final `"record":"summary"` line. Stable mode keeps only the
/// deterministic fields; the full form carries the serve counters
/// (coalesced/rejected/deadline/high-water — the satellite counters) and
/// the cache snapshot.
fn summary_json(
    report: &SweepReport,
    status: RunStatus,
    coalesced: bool,
    stable: bool,
    stats: &ServeStats,
) -> Json {
    let mut fields = vec![
        ("record".into(), Json::Str("summary".into())),
        ("status".into(), Json::Str(status.as_str().into())),
        ("cells".into(), Json::Num(report.reports.len() as f64)),
        ("coalesced".into(), Json::Bool(coalesced)),
        (
            "failures".into(),
            Json::Arr(report.failures.iter().map(failure_to_json).collect()),
        ),
    ];
    if !stable {
        fields.push((
            "cancelled_jobs".into(),
            Json::Num(report.cancelled_jobs as f64),
        ));
        fields.push(("serve".into(), serve_stats_json(stats)));
        fields.push(("cache".into(), cache_stats_json(&report.cache)));
        fields.push(("wall_seconds".into(), Json::Num(report.wall.as_secs_f64())));
    }
    Json::Obj(fields)
}

/// Writes one batch of cell records to a client.
fn write_cells(
    server: &Server,
    cells: &[SolveReport],
    chunked: &mut Chunked<'_>,
    stable: bool,
) -> std::io::Result<()> {
    for cell in cells {
        regenr_failpoint::failpoint!("serve-write");
        let Json::Obj(mut fields) = cell_to_json(cell, stable) else {
            unreachable!("cell_to_json returns an object");
        };
        fields.insert(0, ("record".into(), Json::Str("cell".into())));
        chunked.record(&Json::Obj(fields).to_string())?;
        server
            .counters
            .cells_streamed
            .fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

/// Streams a shared run's cells from `cursor` until the run finishes;
/// returns the final cursor. Promotion-blind — leaders (original and
/// promoted) stream through this.
fn stream_cells_from(
    server: &Server,
    run: &SharedRun,
    chunked: &mut Chunked<'_>,
    stable: bool,
    mut cursor: usize,
) -> std::io::Result<usize> {
    loop {
        let (cells, done) = run.next_cells(cursor);
        cursor += cells.len();
        write_cells(server, &cells, chunked, stable)?;
        if done {
            return Ok(cursor);
        }
    }
}

/// Writes the final `"record":"summary"` line for a finished run.
fn write_summary(
    server: &Server,
    run: &SharedRun,
    chunked: &mut Chunked<'_>,
    stable: bool,
    coalesced: bool,
) -> std::io::Result<()> {
    let (report, status) = run.wait_done();
    let report = report.unwrap_or_default();
    let summary = summary_json(
        &report,
        status,
        coalesced,
        stable,
        &server.counters.snapshot(),
    );
    chunked.record(&summary.to_string())
}

/// Runs a sweep as the leader of `run`: optional stall (load-testing
/// knob), the observed sweep with deadline polling, then publication of
/// the final report to followers. Returns nothing — results flow through
/// the shared run.
fn compute_as_leader(server: &Server, spec: &SweepSpec, guard: LeaderGuard<'_>) {
    if let Some(ms) = spec.debug_stall_ms {
        std::thread::sleep(Duration::from_millis(ms));
    }
    // After the stall, so a chaos spec using `debug_stall_ms` can gather
    // followers before the injected leader death.
    regenr_failpoint::failpoint!("serve-leader");
    let deadline = spec
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let observer = RunObserver {
        run: guard.run(),
        deadline,
    };
    let report = server.engine.sweep_observed(&spec.requests, &observer);
    lock(&server.robust).merge(&report.robustness);
    let status = if report.cancelled_jobs > 0 && observer.cancelled() {
        server
            .counters
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed);
        RunStatus::Deadline
    } else {
        RunStatus::Ok
    };
    guard.finish(report, status);
}

/// Computes as leader on a scoped thread while streaming the shared run's
/// cells (from `cursor`) and the final summary to this connection. A
/// compute panic is contained *here*, not propagated: the dying
/// [`LeaderGuard`] either promotes a follower — whose recomputation this
/// same loop keeps streaming — or fails the run, and either way this
/// client still receives a complete, well-terminated body.
#[allow(clippy::too_many_arguments)]
fn lead_and_stream(
    server: &Server,
    spec: &SweepSpec,
    guard: LeaderGuard<'_>,
    run: &SharedRun,
    chunked: &mut Chunked<'_>,
    stable: bool,
    cursor: usize,
    coalesced: bool,
) {
    let streamed = std::thread::scope(|s| {
        s.spawn(|| {
            let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                compute_as_leader(server, spec, guard)
            }));
            if computed.is_err() {
                server
                    .counters
                    .handler_panics
                    .fetch_add(1, Ordering::Relaxed);
            }
        });
        stream_cells_from(server, run, chunked, stable, cursor)
    });
    if streamed.is_ok() {
        let _ = write_summary(server, run, chunked, stable, coalesced);
    }
}

/// Follower-side cleanup: unsubscribes on scope exit (including unwind).
/// If this abandons the run's last chance at a promoted leader, it fails
/// the run and unpublishes the key so every other follower is released —
/// nobody is left waiting on a run no one can finish.
struct Subscription<'a> {
    table: &'a InflightTable,
    key: u64,
    run: &'a Arc<SharedRun>,
    active: bool,
}

impl<'a> Subscription<'a> {
    fn new(table: &'a InflightTable, key: u64, run: &'a Arc<SharedRun>) -> Self {
        // join_or_lead already subscribed us under the table lock.
        Subscription {
            table,
            key,
            run,
            active: true,
        }
    }

    fn end(&mut self) {
        if std::mem::take(&mut self.active) && self.run.unsubscribe() {
            self.run.finish(SweepReport::default(), RunStatus::Error);
            self.table.complete(self.key);
        }
    }
}

impl Drop for Subscription<'_> {
    fn drop(&mut self) {
        self.end();
    }
}

/// `POST /sweep`: chunked NDJSON streaming.
fn handle_sweep_stream(server: &Server, stream: &mut TcpStream, req: &Request) {
    let stable = req.query_flag("stable");
    let (spec, key) = match parse_posted_spec(&req.body) {
        Ok(parsed) => parsed,
        Err((status, body)) => {
            server.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = write_response(stream, status, &body);
            return;
        }
    };
    match server
        .table
        .join_or_lead(key, server.cfg.leader_retries, || {
            server.gate.admit(&server.counters)
        }) {
        Joined::Rejected => reject_overloaded(server, stream),
        Joined::Follower(run) => {
            server.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut sub = Subscription::new(&server.table, key, &run);
            let Ok(mut chunked) = Chunked::start(stream) else {
                return; // sub drop unsubscribes (and fails a stranding run)
            };
            let mut cursor = 0usize;
            loop {
                match run.follow(cursor) {
                    FollowEvent::Cells(cells, done) => {
                        cursor += cells.len();
                        if write_cells(server, &cells, &mut chunked, stable).is_err() {
                            break;
                        }
                        if done {
                            let _ = write_summary(server, &run, &mut chunked, stable, true);
                            break;
                        }
                    }
                    FollowEvent::Promoted => {
                        // The leader died; this follower retakes the run.
                        // It stops being a passive subscriber first, so a
                        // second death with no other followers fails fast
                        // instead of waiting on its own promotion.
                        sub.end();
                        server.counters.promotions.fetch_add(1, Ordering::Relaxed);
                        server.gate.admit_forced(&server.counters);
                        let _release = AdmitRelease(&server.gate);
                        server.counters.sweeps.fetch_add(1, Ordering::Relaxed);
                        let guard = LeaderGuard::new(&server.table, key, run.clone());
                        lead_and_stream(
                            server,
                            &spec,
                            guard,
                            &run,
                            &mut chunked,
                            stable,
                            cursor,
                            true,
                        );
                        break;
                    }
                }
            }
            let _ = chunked.finish();
        }
        Joined::Leader(run) => {
            let _release = AdmitRelease(&server.gate);
            server.counters.sweeps.fetch_add(1, Ordering::Relaxed);
            let guard = LeaderGuard::new(&server.table, key, run.clone());
            // Headers go out before the sweep computes: clients (and the
            // admission tests) observe acceptance immediately, and slow
            // sweeps stream cell-by-cell from the first completed job.
            let Ok(mut chunked) = Chunked::start(stream) else {
                return; // guard drop releases any racing followers
            };
            // The handler thread streams; a scoped thread computes. Both
            // sides read the same shared run, so the leader's body is
            // byte-for-byte what a follower of the same run receives
            // (modulo the per-connection `coalesced` flag).
            lead_and_stream(server, &spec, guard, &run, &mut chunked, stable, 0, false);
            let _ = chunked.finish();
        }
    }
}

/// `POST /sweep/report`: the full report document in one response.
/// `?stable=1` bodies are byte-for-byte identical to
/// `regenr sweep <spec> --stable` — the CI serve-smoke job diffs exactly
/// this against the offline CLI.
fn handle_sweep_report(server: &Server, stream: &mut TcpStream, req: &Request) {
    let stable = req.query_flag("stable");
    let (spec, key) = match parse_posted_spec(&req.body) {
        Ok(parsed) => parsed,
        Err((status, body)) => {
            server.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = write_response(stream, status, &body);
            return;
        }
    };
    let (report, status) = match server
        .table
        .join_or_lead(key, server.cfg.leader_retries, || {
            server.gate.admit(&server.counters)
        }) {
        Joined::Rejected => return reject_overloaded(server, stream),
        Joined::Follower(run) => {
            server.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut sub = Subscription::new(&server.table, key, &run);
            match run.wait_done_or_promote() {
                Some((report, status)) => {
                    sub.end();
                    (report.unwrap_or_default(), status)
                }
                None => {
                    // Promoted: recompute the dead leader's run here.
                    sub.end();
                    server.counters.promotions.fetch_add(1, Ordering::Relaxed);
                    server.gate.admit_forced(&server.counters);
                    let _release = AdmitRelease(&server.gate);
                    server.counters.sweeps.fetch_add(1, Ordering::Relaxed);
                    let guard = LeaderGuard::new(&server.table, key, run.clone());
                    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        compute_as_leader(server, &spec, guard)
                    }));
                    if computed.is_err() {
                        server
                            .counters
                            .handler_panics
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    let (report, status) = run.wait_done();
                    (report.unwrap_or_default(), status)
                }
            }
        }
        Joined::Leader(run) => {
            let _release = AdmitRelease(&server.gate);
            server.counters.sweeps.fetch_add(1, Ordering::Relaxed);
            let guard = LeaderGuard::new(&server.table, key, run.clone());
            // A compute panic is contained: the dying guard promotes a
            // follower (wait_done below then returns the recovered run —
            // even this leader's own client gets the recomputed report)
            // or fails the run, which the status check turns into a 503.
            let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                compute_as_leader(server, &spec, guard)
            }));
            if computed.is_err() {
                server
                    .counters
                    .handler_panics
                    .fetch_add(1, Ordering::Relaxed);
            }
            let (report, status) = run.wait_done();
            (report.unwrap_or_default(), status)
        }
    };
    if status == RunStatus::Error {
        // The sweep died for infrastructure reasons (leader panic with the
        // retry budget exhausted) — never a property of the posted spec,
        // so this must not look like a model error: 503, retryable.
        let _ = write_response(
            stream,
            503,
            &error_body(
                "infrastructure",
                "sweep failed for infrastructure reasons (leader died, retries \
                 exhausted); the spec was accepted — retry the request"
                    .into(),
            ),
        );
        return;
    }
    let doc = if stable {
        crate::spec::stable_report_to_json(&report)
    } else {
        crate::spec::report_to_json(&report)
    };
    // The CLI prints the document with println! — match its trailing
    // newline so `cmp` against `regenr sweep --stable` output passes.
    let _ = write_response(stream, 200, &format!("{doc}\n"));
}

fn reject_overloaded(server: &Server, stream: &mut TcpStream) {
    server.counters.rejected.fetch_add(1, Ordering::Relaxed);
    let body = Json::Obj(vec![
        ("error".into(), Json::Str("overloaded".into())),
        (
            "detail".into(),
            Json::Str(
                "in-flight sweep budget exhausted; retry later or coalesce onto an \
                 identical in-flight spec"
                    .into(),
            ),
        ),
        ("max_inflight".into(), Json::Num(server.gate.max as f64)),
        ("inflight".into(), Json::Num(server.gate.inflight() as f64)),
    ])
    .to_string();
    let _ = write_response(stream, 429, &body);
}

fn handle_stats(server: &Server, stream: &mut TcpStream) {
    let body = Json::Obj(vec![
        (
            "serve".into(),
            serve_stats_json(&server.counters.snapshot()),
        ),
        ("inflight_runs".into(), Json::Num(server.table.len() as f64)),
        (
            "robustness".into(),
            crate::spec::robustness_json(&server.robustness()),
        ),
        (
            "cache".into(),
            cache_stats_json(&server.engine.cache().stats()),
        ),
    ])
    .to_string();
    let _ = write_response(stream, 200, &body);
}

fn handle_connection(server: &Server, mut stream: TcpStream) {
    // A dead or stalled client must not pin a handler thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let req = match read_request(&mut stream, server.cfg.max_body_bytes) {
        Ok(req) => req,
        Err(HttpError::Malformed(what)) => {
            server.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = write_response(&mut stream, 400, &error_body("bad_request", what.into()));
            return;
        }
        Err(HttpError::TooLarge) => {
            server.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = write_response(
                &mut stream,
                413,
                &error_body("too_large", "request exceeds the configured limit".into()),
            );
            return;
        }
        Err(HttpError::Io(_)) => return,
    };
    server.counters.requests.fetch_add(1, Ordering::Relaxed);
    // A panicking handler answers 500 — an infrastructure fault must look
    // like one, never close the connection silently or (worse) surface as
    // a request error. If the handler already streamed a response body the
    // 500 write simply fails or trails a finished exchange; best effort.
    let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        regenr_failpoint::failpoint!("serve-read");
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/sweep") => handle_sweep_stream(server, &mut stream, &req),
            ("POST", "/sweep/report") => handle_sweep_report(server, &mut stream, &req),
            ("GET", "/healthz") => {
                let _ = write_response(
                    &mut stream,
                    200,
                    &Json::Obj(vec![("status".into(), Json::Str("ok".into()))]).to_string(),
                );
            }
            ("GET", "/stats") => handle_stats(server, &mut stream),
            ("POST", "/shutdown") => {
                let _ = write_response(
                    &mut stream,
                    200,
                    &Json::Obj(vec![("status".into(), Json::Str("draining".into()))]).to_string(),
                );
                server.shutdown();
            }
            (_, "/sweep" | "/sweep/report" | "/shutdown") | ("POST", "/healthz" | "/stats") => {
                let _ = write_response(
                    &mut stream,
                    405,
                    &error_body("method_not_allowed", format!("{} {}", req.method, req.path)),
                );
            }
            _ => {
                let _ =
                    write_response(&mut stream, 404, &error_body("not_found", req.path.clone()));
            }
        }
    }));
    if dispatched.is_err() {
        server
            .counters
            .handler_panics
            .fetch_add(1, Ordering::Relaxed);
        let _ = write_response(
            &mut stream,
            500,
            &error_body(
                "internal_panic",
                "request handler panicked; the fault is in the server, not the request".into(),
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_key_canonicalizes_whitespace_but_not_semantics() {
        let a = Json::parse(r#"{"horizons":[1,10],"epsilon":1e-10}"#).unwrap();
        let b = Json::parse("{ \"horizons\" : [ 1,\n 10 ],\t\"epsilon\": 1e-10 }").unwrap();
        assert_eq!(spec_key(&a), spec_key(&b), "formatting must coalesce");
        let c = Json::parse(r#"{"horizons":[1,10],"epsilon":1e-9}"#).unwrap();
        assert_ne!(spec_key(&a), spec_key(&c), "semantic changes must not");
        let d = Json::parse(r#"{"horizons":[1,10],"epsilon":1e-10,"deadline_ms":5}"#).unwrap();
        assert_ne!(spec_key(&a), spec_key(&d), "deadlines separate runs");
    }

    /// Permuting a compose model's component list must coalesce to the
    /// same in-flight run (the canonicalizer sorts components by name
    /// before hashing).
    #[test]
    fn spec_key_is_component_order_independent() {
        let forward = Json::parse(
            r#"{"horizons":[1],"models":[{"kind":"compose","components":[
                {"name":"a","count":1,"lambda":0.1},
                {"name":"b","count":2,"lambda":0.2}]}]}"#,
        )
        .unwrap();
        let reversed = Json::parse(
            r#"{"horizons":[1],"models":[{"kind":"compose","components":[
                {"name":"b","count":2,"lambda":0.2},
                {"name":"a","count":1,"lambda":0.1}]}]}"#,
        )
        .unwrap();
        assert_eq!(spec_key(&forward), spec_key(&reversed));
        let changed = Json::parse(
            r#"{"horizons":[1],"models":[{"kind":"compose","components":[
                {"name":"b","count":3,"lambda":0.2},
                {"name":"a","count":1,"lambda":0.1}]}]}"#,
        )
        .unwrap();
        assert_ne!(spec_key(&forward), spec_key(&changed));
    }

    #[test]
    fn gate_admits_to_capacity_and_tracks_highwater() {
        let counters = ServeCounters::default();
        let gate = Gate {
            max: 2,
            cur: Mutex::new(0),
        };
        assert!(gate.admit(&counters));
        assert!(gate.admit(&counters));
        assert!(!gate.admit(&counters), "third sweep must be rejected");
        assert_eq!(gate.inflight(), 2);
        gate.release();
        assert!(gate.admit(&counters), "released slots are reusable");
        assert_eq!(counters.snapshot().inflight_highwater, 2);
    }

    #[test]
    fn posted_spec_validation_maps_to_http_errors() {
        // Engine-wide knobs are fixed at startup.
        let err = parse_posted_spec(
            br#"{"horizons":[1],"threads":4,"models":[{"kind":"cyclic","n":3}]}"#,
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.0, 400);
        assert!(err.1.contains("fixed_engine_option"), "{}", err.1);
        // The blocked-stepping knob is engine-wide too: the server's
        // stepper plans are shared across requests, so a posted spec may
        // not retune it per request.
        let err = parse_posted_spec(
            br#"{"horizons":[1],"rhs_block":4,"models":[{"kind":"cyclic","n":3}]}"#,
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.0, 400);
        assert!(err.1.contains("fixed_engine_option"), "{}", err.1);
        // Keys that are no knob at all are the parser's unknown-key error.
        for knob in [r#""backend":"auto""#, r#""index_width":"16""#] {
            let body = format!(r#"{{"horizons":[1],{knob},"models":[{{"kind":"cyclic","n":3}}]}}"#);
            let err = parse_posted_spec(body.as_bytes()).map(|_| ()).unwrap_err();
            assert_eq!(err.0, 400, "{knob}");
            assert!(err.1.contains("bad_spec"), "{knob}: {}", err.1);
            let name = knob.split(':').next().unwrap();
            assert!(
                err.1.contains(&name.replace('"', "\\\"")),
                "{knob}: {}",
                err.1
            );
        }
        // Unknown keys surface the spec parser's naming error.
        let err = parse_posted_spec(
            br#"{"horizons":[1],"kernal":"auto","models":[{"kind":"cyclic","n":3}]}"#,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.1.contains("kernal"), "{}", err.1);
        // Bad JSON is a 400 with the byte offset.
        let err = parse_posted_spec(b"{nope").map(|_| ()).unwrap_err();
        assert!(err.1.contains("bad_json"), "{}", err.1);
        // Model-build failures carry their own structured names — an
        // over-cap compose spec is a *request* property: 4xx with the
        // error named, never an infrastructure 5xx. This also pins the
        // `Display` phrases `spec_error_code` keys on.
        let err = parse_posted_spec(
            br#"{"horizons": [1], "models": [
                {"kind": "compose", "max_states": 5,
                 "components": [
                   {"name": "m", "count": 9, "lambda": 0.1, "mu": 1.0}]}]}"#,
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.0, 400);
        assert!(err.1.contains("state_space_exceeded"), "{}", err.1);
        assert!(err.1.contains("cap of 5 states"), "{}", err.1);
        // A valid spec parses and produces a stable key.
        let (spec, key) = parse_posted_spec(
            br#"{"horizons":[1],"deadline_ms":50,"models":[{"kind":"cyclic","n":3}]}"#,
        )
        .map_err(|e| e.1)
        .unwrap();
        assert_eq!(spec.requests.len(), 1);
        assert_eq!(spec.deadline_ms, Some(50));
        assert_ne!(key, 0);
    }
}

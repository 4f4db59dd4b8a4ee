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
//! Four server-grade behaviors are the point, not extras:
//!
//! 1. **Coalescing** ([`coalesce`]): identical specs in flight share one
//!    computation. Each run has one detached owner thread that builds the
//!    spec, takes the admission slot and computes; every connection, the
//!    first one included, subscribes to the run and counts toward
//!    `coalesced` unless it started it. A coalesced request never builds
//!    the models the owner has already built.
//! 2. **Admission control + deadlines**: at most `max_inflight` distinct
//!    sweeps compute concurrently; excess distinct specs get `429` with a
//!    structured body instead of queuing unboundedly. A `"deadline_ms"`
//!    spec field cancels a sweep cleanly between jobs — cells already
//!    streamed stay valid and the summary says `"status":"deadline"`.
//! 3. **Graceful lifecycle**: the accept loop sleeps in `poll(2)` until a
//!    connection arrives, so a request is accepted as soon as it is
//!    pending. `POST /shutdown` or SIGTERM stops accepting within one poll
//!    timeout, waits for in-flight connections and run owners to finish,
//!    and returns from [`Server::run`]; the cache and pool live as long as
//!    the server, not a request. Accept errors (such as running out of
//!    file descriptors) back off and never end the loop, and a request
//!    must arrive whole within one read deadline.
//! 4. **Fault containment**: a run's owner computes once; an owner that
//!    unwinds counts in `handler_panics` and ends its run as
//!    [`RunStatus::Error`] (`503` on `/sweep/report`, an `error` summary on
//!    `/sweep`), and a handler panic answers `500` — infrastructure faults
//!    never masquerade as model errors, which keep their structured `4xx`
//!    bodies. Recovery from a failed job is the engine supervisor's
//!    method fallback, inside the one compute.
//!
//! The engine-wide spec knobs (`threads`, `theta`, `cache`) are fixed at
//! server startup — a spec carrying them is rejected with `400`, because
//! silently serving it with different options would produce reports that
//! diverge from the same spec run offline. Per-model fields (`epsilon`,
//! `method`, `horizons`, `measures`, `regen_state`) remain fully
//! per-request.

pub mod coalesce;
pub mod http;

use crate::cache::{lock, CacheConfig};
use crate::engine::{Engine, EngineOptions, SolveReport, SweepProgress, SweepReport};
use crate::json::Json;
use crate::spec::{cache_stats_json, cell_to_json, failure_to_json, SweepSpec};
use coalesce::{InflightTable, Refusal, RunStatus, SharedRun};
use http::{
    read_request, write_response, Chunked, DeadlineReader, HttpError, Request, MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// rejected with `429`. Coalesced subscribers don't consume slots.
    pub max_inflight: usize,
    /// Artifact-cache capacity. A long-running service must bound its
    /// cache; the default keeps 256 models / 512 MiB under LRU eviction.
    pub cache: CacheConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".into(),
            threads: 0,
            max_inflight: 4,
            cache: CacheConfig {
                max_entries: Some(256),
                max_bytes: Some(512 * 1024 * 1024),
            },
        }
    }
}

/// Time a client has to send its whole request (head and body), and to
/// accept each response write.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest the accept loop waits for a connection before it looks at the
/// shutdown flag and [`TERM_SIGNAL`] again: the most a drain waits to
/// start.
const ACCEPT_WAIT: Duration = Duration::from_millis(5);

/// Pause after an accept error, such as running out of file descriptors.
/// The listener stays readable while connections queue, so without it the
/// loop would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Monotonic serve counters, surfaced in every summary record and by
/// `GET /stats` (the [`crate::ExecStats`]/[`crate::CacheStats`] of the
/// serve layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests parsed off the wire (all endpoints).
    pub requests: u64,
    /// Runs accepted for computation (coalesced requests excluded).
    pub sweeps: u64,
    /// Requests served by an accepted run that another request started.
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
    /// Request handlers and run owners that panicked (infrastructure
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
        ("handler_panics".into(), Json::Num(s.handler_panics as f64)),
    ])
}

/// The admission gate: a bounded count of concurrently computing sweeps.
/// `Mutex<usize>` rather than lock-free — admission happens once per run,
/// never on a hot path.
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

    fn release(&self) {
        *lock(&self.cur) -= 1;
    }

    fn inflight(&self) -> usize {
        *lock(&self.cur)
    }
}

/// Releases an owner's admission slot on scope exit (including unwind).
struct AdmitRelease<'a>(&'a Gate);

impl Drop for AdmitRelease<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// SIGTERM/SIGINT land here; the accept loop reads it each time it wakes,
/// at least once per [`ACCEPT_WAIT`]. Registered through a direct
/// `signal(2)` FFI declaration — the workspace has no `libc` crate, and an
/// atomic store is async-signal-safe.
static TERM_SIGNAL: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    use super::TERM_SIGNAL;
    use std::os::fd::AsRawFd;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    extern "C" fn on_term(_sig: i32) {
        TERM_SIGNAL.store(true, Ordering::SeqCst);
    }

    /// `struct pollfd`, the same layout on every unix.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }

    pub fn install_term_handler() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `on_term` only stores to an atomic, which is
        // async-signal-safe.
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }

    /// Waits until `fd` has a connection to accept or `timeout` passes.
    /// Returns `false` when `poll` fails (a signal interrupted it, say).
    pub fn wait_readable(fd: &impl AsRawFd, timeout: Duration) -> bool {
        const POLLIN: i16 = 0x1;
        let mut pfd = PollFd {
            fd: fd.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `pfd` is one live, initialized `pollfd` for the whole
        // call, and `nfds` is 1.
        unsafe { poll(&mut pfd, 1, ms) >= 0 }
    }
}

/// The persistent solver service. One engine (cache + pool) for the whole
/// process; connections and run owners have their own threads; sweeps
/// coalesce through the in-flight table and compute under the admission
/// gate.
pub struct Server {
    engine: Engine,
    table: InflightTable,
    gate: Gate,
    counters: ServeCounters,
    listener: TcpListener,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    /// Connection threads and run owners still running; the drain waits
    /// on `idle` for this to reach zero.
    active: Mutex<usize>,
    /// Signalled when `active` drops to zero.
    idle: Condvar,
    /// Service-lifetime aggregate of every sweep's [`RobustnessStats`].
    robust: Mutex<crate::engine::RobustnessStats>,
}

/// Counts a thread in [`Server`]'s `active` until dropped — on unwind and
/// when the thread fails to spawn, too — so the drain can never wait
/// forever nor miss a running thread.
struct Active(Arc<Server>);

impl Active {
    fn enter(server: &Arc<Server>) -> Active {
        *lock(&server.active) += 1;
        Active(Arc::clone(server))
    }
}

impl Drop for Active {
    fn drop(&mut self) {
        let mut active = lock(&self.0.active);
        *active -= 1;
        if *active == 0 {
            self.0.idle.notify_all();
        }
    }
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
            listener,
            local_addr,
            shutdown: AtomicBool::new(false),
            active: Mutex::new(0),
            idle: Condvar::new(),
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
    /// server computed).
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
    ///
    /// With nothing to accept, the loop sleeps in `poll(2)` on the
    /// listener (a plain sleep off unix) for at most 5 ms, so a connection
    /// is accepted as soon as it arrives, and a shutdown request or SIGTERM
    /// is seen within that wait. The drain then blocks until the last
    /// connection thread and run owner has finished.
    pub fn run(self: &Arc<Self>) -> std::io::Result<()> {
        #[cfg(unix)]
        sys::install_term_handler();
        self.listener.set_nonblocking(true)?;
        while !self.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let active = Active::enter(self);
                    // A failed spawn drops the closure: the connection
                    // closes and `active` is released.
                    let _ = std::thread::Builder::new()
                        .spawn(move || handle_connection(&active.0, stream));
                }
                // Nothing to accept: wait for a connection, or for the
                // next look at the drain flags.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    #[cfg(unix)]
                    if !sys::wait_readable(&self.listener, ACCEPT_WAIT) {
                        std::thread::sleep(ACCEPT_BACKOFF);
                    }
                    #[cfg(not(unix))]
                    std::thread::sleep(ACCEPT_WAIT);
                }
                // An accept error such as running out of file descriptors:
                // back off and keep accepting. Only a drain ends the loop.
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
        // Drain: in-flight runs finish and their connections close; new
        // connections are no longer accepted.
        let _idle = self
            .idle
            .wait_while(lock(&self.active), |active| *active > 0)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Ok(())
    }
}

/// The coalescing key: the canonicalized spec document
/// ([`crate::fingerprint::canonicalize_spec`], compactly re-serialized).
/// Whitespace, float spelling and compose component order are irrelevant,
/// while any semantic difference (including `deadline_ms`) separates
/// runs.
fn spec_key(doc: &Json) -> String {
    crate::fingerprint::canonicalize_spec(doc).to_string()
}

fn error_body(code: &str, detail: String) -> String {
    Json::Obj(vec![
        ("error".into(), Json::Str(code.into())),
        ("detail".into(), Json::Str(detail)),
    ])
    .to_string()
}

/// The answer when a run fails for infrastructure reasons — never a
/// property of the posted spec, so it must not look like a model error:
/// `503`, retryable.
fn infrastructure_refusal() -> Refusal {
    (
        503,
        error_body(
            "infrastructure",
            "sweep failed for infrastructure reasons; the spec is not at fault — retry \
             the request"
                .into(),
        ),
    )
}

/// Engine-wide spec knobs that are fixed at server startup. Serving a spec
/// that sets them would silently produce reports diverging from the same
/// spec run offline, so they are rejected loudly instead.
const FIXED_ENGINE_KEYS: &[&str] = &["threads", "theta", "cache"];

/// Reads a posted body as a spec document, answered on the connection:
/// UTF-8, JSON, and no engine-wide knob. Building the spec is the run
/// owner's job ([`build_spec`]).
fn parse_posted_doc(body: &[u8]) -> Result<Json, Refusal> {
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
    Ok(doc)
}

/// Builds a posted document into a spec, models included; a spec error is
/// the run's refusal.
fn build_spec(doc: &Json) -> Result<SweepSpec, Refusal> {
    SweepSpec::from_json(doc).map_err(|e| (400, error_body(spec_error_code(&e), e)))
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

/// The sweep observer an owner computes under: cells are published to the
/// shared run (every subscriber streams from it), and the deadline is
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

/// The owner of one coalesced run, on its own thread. Dropping it — when
/// the owner returns, unwinds, or fails to spawn — ends the run if it has
/// not ended (a refusal or [`RunStatus::Error`], see
/// [`SharedRun::abandon`]) and unpublishes the key, so no subscriber can
/// wait on a run that has no owner.
struct Owner {
    active: Active,
    run: Arc<SharedRun>,
    key: String,
}

impl Drop for Owner {
    fn drop(&mut self) {
        let server = &self.active.0;
        if std::thread::panicking() {
            server
                .counters
                .handler_panics
                .fetch_add(1, Ordering::Relaxed);
        }
        self.run.abandon(infrastructure_refusal());
        server.table.complete(&self.key);
    }
}

/// Starts the owner of a freshly published run.
fn spawn_owner(server: &Arc<Server>, run: Arc<SharedRun>, key: String, doc: Json) {
    let owner = Owner {
        active: Active::enter(server),
        run,
        key,
    };
    // A failed spawn drops the closure, and `owner` with it.
    let _ = std::thread::Builder::new().spawn(move || own_run(&owner.active.0, &owner.run, &doc));
}

/// A run owner's work: build the spec, take the admission slot, compute
/// once, publish the final report. Each step that fails ends the run with
/// a refusal every subscriber answers with. An owner that unwinds frees
/// its slot on the way out, and its [`Owner`] guard ends the run.
fn own_run(server: &Server, run: &SharedRun, doc: &Json) {
    let spec = match build_spec(doc) {
        Ok(spec) => spec,
        Err(refusal) => return run.refuse(refusal),
    };
    if !server.gate.admit(&server.counters) {
        return run.refuse((429, overloaded_body(server)));
    }
    let (report, status) = {
        let _release = AdmitRelease(&server.gate);
        server.counters.sweeps.fetch_add(1, Ordering::Relaxed);
        run.accept();
        compute(server, &spec, run)
    };
    // The slot is free before any subscriber hears that the run is done.
    run.finish(report, status);
}

/// The run's computation: the observed sweep with deadline polling.
fn compute(server: &Server, spec: &SweepSpec, run: &SharedRun) -> (SweepReport, RunStatus) {
    regenr_failpoint::failpoint!("serve-owner");
    let deadline = spec
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let observer = RunObserver { run, deadline };
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
    (report, status)
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

/// `POST /sweep` (`streaming`) and `POST /sweep/report`. The connection
/// parses the document, joins the run for its key (starting the run's
/// owner if it is the first), and waits for the owner's verdict; a refusal
/// is its response. `/sweep` then streams the run's cells as chunked
/// NDJSON, `/sweep/report` renders the final report — `?stable=1` bodies
/// are byte-for-byte identical to `regenr sweep <spec> --stable`, which
/// the CI serve-smoke job diffs against the offline CLI.
fn handle_sweep(server: &Arc<Server>, stream: &mut TcpStream, req: &Request, streaming: bool) {
    let doc = match parse_posted_doc(&req.body) {
        Ok(doc) => doc,
        Err(refusal) => return refuse(server, stream, refusal),
    };
    let key = spec_key(&doc);
    let (run, started) = server.table.join_or_start(&key);
    if started {
        spawn_owner(server, Arc::clone(&run), key, doc);
    }
    // `/sweep` waits for the verdict and streams cells as they land;
    // `/sweep/report` waits once, for the end of the run.
    let verdict = if streaming {
        run.verdict().map(|()| None)
    } else {
        run.outcome().map(Some)
    };
    let finished = match verdict {
        Ok(finished) => finished,
        Err(refusal) => return refuse(server, stream, refusal),
    };
    if !started {
        server.counters.coalesced.fetch_add(1, Ordering::Relaxed);
    }
    let stable = req.query_flag("stable");
    match finished {
        Some((report, status)) => write_report(stream, &report, status, stable),
        None => stream_run(server, stream, &run, stable, !started),
    }
}

/// Answers a request that will not run, counting it on this connection:
/// `429` as `rejected`, other `4xx` as `bad_requests`.
fn refuse(server: &Server, stream: &mut TcpStream, (status, body): Refusal) {
    match status {
        429 => server.counters.rejected.fetch_add(1, Ordering::Relaxed),
        400..=499 => server.counters.bad_requests.fetch_add(1, Ordering::Relaxed),
        _ => 0,
    };
    let _ = write_response(stream, status, &body);
}

/// Streams an accepted run to one client: headers at once (before the
/// sweep computes, so clients observe acceptance immediately), each cell
/// as it lands, then the summary record.
fn stream_run(
    server: &Server,
    stream: &mut TcpStream,
    run: &SharedRun,
    stable: bool,
    coalesced: bool,
) {
    let Ok(mut chunked) = Chunked::start(stream) else {
        return;
    };
    let mut cursor = 0;
    loop {
        let (cells, done) = run.next_cells(cursor);
        cursor += cells.len();
        if write_cells(server, &cells, &mut chunked, stable).is_err() {
            return;
        }
        if let Some((report, status)) = done {
            let stats = server.counters.snapshot();
            let summary = summary_json(&report, status, coalesced, stable, &stats);
            if chunked.record(&summary.to_string()).is_ok() {
                let _ = chunked.finish();
            }
            return;
        }
    }
}

/// Renders a finished run as one report document.
fn write_report(stream: &mut TcpStream, report: &SweepReport, status: RunStatus, stable: bool) {
    if status == RunStatus::Error {
        let (status, body) = infrastructure_refusal();
        let _ = write_response(stream, status, &body);
        return;
    }
    let doc = if stable {
        crate::spec::stable_report_to_json(report)
    } else {
        crate::spec::report_to_json(report)
    };
    // The CLI prints the document with println! — match its trailing
    // newline so `cmp` against `regenr sweep --stable` output passes.
    let _ = write_response(stream, 200, &format!("{doc}\n"));
}

fn overloaded_body(server: &Server) -> String {
    Json::Obj(vec![
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
    .to_string()
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

fn handle_connection(server: &Arc<Server>, mut stream: TcpStream) {
    // A dead, stalled or trickling client must not pin a handler thread
    // (and with it the drain): the whole request must arrive within one
    // deadline, and each response write within the same timeout.
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let reader = DeadlineReader::new(&stream, Instant::now() + IO_TIMEOUT);
    let req = match read_request(reader) {
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
                &error_body(
                    "too_large",
                    format!(
                        "request head over {MAX_HEAD_BYTES} bytes or body over \
                         {MAX_BODY_BYTES} bytes"
                    ),
                ),
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
            ("POST", "/sweep") => handle_sweep(server, &mut stream, &req, true),
            ("POST", "/sweep/report") => handle_sweep(server, &mut stream, &req, false),
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
    /// same in-flight run (the canonicalizer sorts components by name).
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
        // What the connection answers itself, then what the owner refuses.
        let parse_posted_spec =
            |body: &[u8]| parse_posted_doc(body).and_then(|doc| build_spec(&doc));
        // Engine-wide knobs are fixed at startup.
        let err = parse_posted_spec(
            br#"{"horizons":[1],"threads":4,"models":[{"kind":"cyclic","n":3}]}"#,
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.0, 400);
        assert!(err.1.contains("fixed_engine_option"), "{}", err.1);
        // Keys that are no knob at all are the parser's unknown-key error:
        // dispatch thresholds, same-method retries and the test stall too.
        for knob in [
            r#""backend":"auto""#,
            r#""index_width":"16""#,
            r#""rhs_block":4"#,
            r#""kernel":"auto""#,
            r#""small_lambda_t":2000"#,
            r#""tiny_lambda_t":64"#,
            r#""adaptive_min_states":2048"#,
            r#""max_retries":2"#,
            r#""debug_stall_ms":40"#,
        ] {
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
        // A valid spec parses and builds.
        let spec = parse_posted_spec(
            br#"{"horizons":[1],"deadline_ms":50,"models":[{"kind":"cyclic","n":3}]}"#,
        )
        .map_err(|e| e.1)
        .unwrap();
        assert_eq!(spec.requests.len(), 1);
        assert_eq!(spec.deadline_ms, Some(50));
    }
}

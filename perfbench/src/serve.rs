//! The `serve_mix` workload: a `regenr serve` child with its default
//! configuration, driven closed-loop by `nproc` connections, each posting
//! a seeded mix of hot corpus specs and fresh RAID variants to `POST
//! /sweep` (NDJSON) and `POST /sweep/report?stable=1`.

use crate::report::{Layers, Outcome, Tally};
use crate::stats::{median, quantile, Rng};
use crate::sys;
use crate::trace::{Replayer, Tracer};
use crate::Ctx;
use regenr_engine::serve::http::parse_response;
use regenr_engine::{Json, ServeConfig, SweepSpec};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of requests drawn from the hot corpus (the rest are fresh RAID
/// variants the cache has never seen).
const HOT_SHARE: f64 = 0.7;
/// Horizons of every fresh variant.
const FRESH_HORIZONS: usize = 4;

/// One spec the mix can post.
#[derive(Clone)]
struct HotSpec {
    name: String,
    body: Arc<str>,
    cells: usize,
    /// `regenr sweep <spec> --stable`, solved offline during set-up.
    stable: Arc<[u8]>,
}

#[derive(Clone, Copy, PartialEq)]
enum Endpoint {
    Stream,
    StableReport,
}

impl Endpoint {
    fn target(self) -> &'static str {
        match self {
            Endpoint::Stream => "/sweep",
            Endpoint::StableReport => "/sweep/report?stable=1",
        }
    }
}

/// A request of the mix.
#[derive(Clone)]
struct Planned {
    hot: Option<usize>,
    endpoint: Endpoint,
    body: Arc<str>,
    cells: usize,
}

/// A seeded request stream: one per connection, plus one for pre-fill.
struct Mix {
    rng: Rng,
    hot: Arc<Vec<HotSpec>>,
    fresh_only: bool,
}

impl Mix {
    fn new(seed: u64, stream: u64, hot: Arc<Vec<HotSpec>>) -> Mix {
        Mix {
            rng: Rng::new(seed.wrapping_mul(0x100_0000_01b3) ^ (stream.wrapping_add(1) << 32)),
            hot,
            fresh_only: false,
        }
    }

    /// A stream of fresh variants only (the cache pre-fill).
    fn fresh_only(seed: u64, stream: u64, hot: Arc<Vec<HotSpec>>) -> Mix {
        Mix {
            fresh_only: true,
            ..Mix::new(seed, stream, hot)
        }
    }

    /// A RAID G ∈ [6, 13] absorbing model at a seeded `lambda_d` factor
    /// (six decimals, so variants practically never repeat).
    fn fresh(&mut self) -> Planned {
        let g = self.rng.range(6, 13);
        let f = self.rng.factor(0.5, 2.0, 6);
        let body = format!(
            r#"{{"epsilon": 1e-10, "horizons": [1, 10, 100, 1000], "models": [{{"kind": "raid", "g": {g}, "absorbing": true, "sensitivity": {{"param": "lambda_d", "grid": [{f}]}}}}]}}"#
        );
        Planned {
            hot: None,
            endpoint: Endpoint::StableReport,
            body: body.into(),
            cells: FRESH_HORIZONS,
        }
    }

    fn next(&mut self) -> Planned {
        if self.fresh_only {
            return self.fresh();
        }
        let endpoint = if self.rng.unit() < 0.5 {
            Endpoint::Stream
        } else {
            Endpoint::StableReport
        };
        if self.rng.unit() < HOT_SHARE {
            let i = self.rng.range(0, self.hot.len() as u64 - 1) as usize;
            let h = &self.hot[i];
            Planned {
                hot: Some(i),
                endpoint,
                body: h.body.clone(),
                cells: h.cells,
            }
        } else {
            Planned {
                endpoint,
                ..self.fresh()
            }
        }
    }
}

/// One HTTP exchange, timed from the client.
struct Exchange {
    status: u16,
    body: Vec<u8>,
    start: Instant,
    connected: Instant,
    first_byte: Instant,
    end: Instant,
}

fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> std::io::Result<Exchange> {
    let start = Instant::now();
    let mut s = TcpStream::connect(addr)?;
    let connected = Instant::now();
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: regenr\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(request.as_bytes())?;
    let mut raw = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 64 * 1024];
    let mut first_byte = None;
    loop {
        let n = match s.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(Instant::now);
        raw.extend_from_slice(&chunk[..n]);
    }
    let end = Instant::now();
    let (status, body) = parse_response(&raw).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
    })?;
    Ok(Exchange {
        status,
        body,
        start,
        connected,
        first_byte: first_byte.unwrap_or(end),
        end,
    })
}

fn get_json(addr: SocketAddr, target: &str) -> Result<Json, String> {
    let ex = http(addr, "GET", target, "").map_err(|e| format!("GET {target}: {e}"))?;
    let text = std::str::from_utf8(&ex.body).map_err(|_| "body is not UTF-8")?;
    if ex.status != 200 {
        return Err(format!("GET {target}: HTTP {}", ex.status));
    }
    Json::parse(text).map_err(|e| format!("GET {target}: {e}"))
}

/// A gated response: the cell values (bit patterns) and, for NDJSON
/// streams, the run's own `wall_seconds`.
struct Checked {
    values: Vec<u64>,
    wall_seconds: Option<f64>,
}

fn cell_values(cells: &[Json]) -> Result<Vec<u64>, String> {
    cells
        .iter()
        .map(|c| {
            let v = c
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("cell without value")?;
            if !v.is_finite() || c.get("converged").and_then(Json::as_bool) != Some(true) {
                return Err(format!("cell value {v} not finite/converged"));
            }
            Ok(v.to_bits())
        })
        .collect()
}

/// The correctness gate: 200, `"status":"ok"` (NDJSON) or no failures
/// (report), the expected cell count, fresh values inside the RAID reward
/// range [0, 1], and hot `?stable=1` bodies byte-identical to the offline
/// `--stable` report.
fn check(p: &Planned, hot: &[HotSpec], ex: &Exchange) -> Result<Checked, String> {
    if ex.status != 200 {
        return Err(format!("HTTP {}", ex.status));
    }
    let text = std::str::from_utf8(&ex.body).map_err(|_| "body is not UTF-8")?;
    let (values, wall_seconds) = match p.endpoint {
        Endpoint::Stream => {
            let mut cells = Vec::new();
            let mut summary = None;
            for line in text.lines().filter(|l| !l.is_empty()) {
                let rec = Json::parse(line).map_err(|e| format!("bad NDJSON line: {e}"))?;
                match rec.get("record").and_then(Json::as_str) {
                    Some("cell") => cells.push(rec),
                    Some("summary") => summary = Some(rec),
                    _ => return Err("NDJSON record of unknown type".into()),
                }
            }
            let summary = summary.ok_or("stream without summary")?;
            if summary.get("status").and_then(Json::as_str) != Some("ok") {
                return Err(format!("summary status is not ok: {summary}"));
            }
            let n = summary.get("cells").and_then(Json::as_usize);
            if n != Some(p.cells) || cells.len() != p.cells {
                return Err(format!("{} cells, want {}", cells.len(), p.cells));
            }
            (
                cell_values(&cells)?,
                summary.get("wall_seconds").and_then(Json::as_f64),
            )
        }
        Endpoint::StableReport => {
            if let Some(i) = p.hot {
                if ex.body != *hot[i].stable {
                    return Err(format!(
                        "{}: ?stable=1 body differs from the offline report",
                        hot[i].name
                    ));
                }
            }
            let doc = Json::parse(text).map_err(|e| format!("bad report: {e}"))?;
            let failures = doc
                .get("failures")
                .and_then(Json::as_arr)
                .ok_or("no failures")?;
            if !failures.is_empty() {
                return Err(format!("report failures: {}", Json::Arr(failures.to_vec())));
            }
            let cells = doc
                .get("reports")
                .and_then(Json::as_arr)
                .ok_or("no reports")?;
            if cells.len() != p.cells {
                return Err(format!("{} cells, want {}", cells.len(), p.cells));
            }
            (cell_values(cells)?, None)
        }
    };
    // NDJSON cells arrive in completion order: compare value multisets.
    let mut values = values;
    values.sort_unstable();
    if p.hot.is_none() {
        for &bits in &values {
            let v = f64::from_bits(bits);
            if !(-1e-9..=1.0 + 1e-9).contains(&v) {
                return Err(format!("fresh RAID value {v} outside [0, 1]"));
            }
        }
    }
    Ok(Checked {
        values,
        wall_seconds,
    })
}

/// The hot corpus: `specs/*.json` minus `large_cluster.json`, with the
/// server-rejected `"cache"` key stripped, each solved offline with
/// `regenr sweep --stable` for the byte-identity gate.
fn load_hot(ctx: &Ctx) -> Result<Vec<HotSpec>, String> {
    let dir = ctx.root.join("specs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter(|p| p.file_name().is_some_and(|n| n != "large_cluster.json"))
        .collect();
    files.sort();
    let mut hot = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Json::Obj(mut doc) = Json::parse(&text).map_err(|e| e.to_string())? else {
            return Err(format!("{} is not an object", path.display()));
        };
        doc.retain(|(k, _)| k != "cache");
        let body = Json::Obj(doc).to_string();
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let cells = SweepSpec::parse(&body)?
            .requests
            .iter()
            .map(|r| r.horizons.len())
            .sum();
        let file = ctx.out.join(format!("hot-{name}.json"));
        std::fs::write(&file, &body).map_err(|e| format!("{}: {e}", file.display()))?;
        let stable = offline_stable(&ctx.regenr, &file)?;
        hot.push(HotSpec {
            name,
            body: body.into(),
            cells,
            stable: stable.into(),
        });
    }
    if hot.is_empty() {
        return Err("no hot specs under specs/".into());
    }
    Ok(hot)
}

fn offline_stable(regenr: &Path, spec: &Path) -> Result<Vec<u8>, String> {
    let out = Command::new(regenr)
        .arg("sweep")
        .arg(spec)
        .arg("--stable")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("offline solve of {} failed", spec.display()));
    }
    Ok(out.stdout)
}

/// A running `regenr serve` child.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    log: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    fn start(regenr: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(regenr)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn regenr serve: {e}"))?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if err.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = sys::wait_child(&child);
                return Err("regenr serve exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr
                    .parse()
                    .map_err(|_| format!("bad listen address in {line:?}"))?;
            }
        };
        // Forward the rest of the server's log so its pipe never fills.
        let log = std::thread::spawn(move || {
            let mut line = String::new();
            while err.read_line(&mut line).is_ok_and(|n| n > 0) {
                eprint!("{line}");
                line.clear();
            }
        });
        Ok(ServerProc {
            child,
            addr,
            log: Some(log),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the server (`POST /shutdown`), waits for it to exit (killing
    /// it after 30 s) and joins the log forwarder.
    fn stop(mut self) -> Result<(), String> {
        let asked = http(self.addr, "POST", "/shutdown", "").is_ok();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut clean = asked;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    clean &= status.success();
                    break;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    clean = false;
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
        if clean {
            Ok(())
        } else {
            Err("regenr serve did not drain cleanly".into())
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One finished request of the mix, gated after the window closes so the
/// load connections spend no time checking.
struct Done {
    planned: Planned,
    ex: Exchange,
    result: Result<Checked, String>,
}

/// Drives one closed-loop connection per mix until `until` passes or
/// `stop` is set (each connection sends at least one request), then gates
/// every response.
fn drive(
    addr: SocketAddr,
    mixes: Vec<Mix>,
    hot: &[HotSpec],
    until: Instant,
    stop: &AtomicBool,
) -> Vec<Vec<Done>> {
    let sent: Vec<Vec<(Planned, Exchange)>> = std::thread::scope(|s| {
        let handles: Vec<_> = mixes
            .into_iter()
            .map(|mut mix| {
                s.spawn(move || {
                    let mut sent = Vec::new();
                    while sent.is_empty()
                        || (Instant::now() < until && !stop.load(Ordering::Relaxed))
                    {
                        let planned = mix.next();
                        let ex = http(addr, "POST", planned.endpoint.target(), &planned.body)
                            .unwrap_or_else(|e| {
                                let now = Instant::now();
                                Exchange {
                                    status: 0,
                                    body: e.to_string().into_bytes(),
                                    start: now,
                                    connected: now,
                                    first_byte: now,
                                    end: now,
                                }
                            });
                        sent.push((planned, ex));
                    }
                    sent
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect()
    });
    sent.into_iter()
        .map(|conn| {
            conn.into_iter()
                .map(|(planned, ex)| {
                    let result = check(&planned, hot, &ex);
                    Done {
                        planned,
                        ex,
                        result,
                    }
                })
                .collect()
        })
        .collect()
}

fn tally_done(tally: &mut Tally, done: &[Done]) {
    for d in done {
        let target = d.planned.endpoint.target();
        tally.record(
            "serve_mix",
            d.result
                .as_ref()
                .map(|_| ())
                .map_err(|why| format!("{target}: {why}")),
        );
    }
}

fn connections() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// A set-up server, its hot corpus, and the set-up requests in order.
struct SetUp {
    server: ServerProc,
    hot: Arc<Vec<HotSpec>>,
    sent: Vec<Planned>,
}

/// Set-up: offline reference solves, server start, `/healthz`, one pass
/// over the hot specs, then fresh variants until the uniformization pool
/// evicts (the cache is at its cap). Returns the server and the requests
/// sent, in order, so a traced run can replay them.
fn set_up(ctx: &Ctx, tally: &mut Tally) -> Result<SetUp, String> {
    let hot = Arc::new(load_hot(ctx)?);
    let server = ServerProc::start(&ctx.regenr)?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while get_json(server.addr, "/healthz").is_err() {
        if Instant::now() > deadline {
            return Err("regenr serve never became healthy".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut sent = Vec::new();
    for (i, h) in hot.iter().enumerate() {
        let planned = Planned {
            hot: Some(i),
            endpoint: Endpoint::StableReport,
            body: h.body.clone(),
            cells: h.cells,
        };
        let ex = http(
            server.addr,
            "POST",
            planned.endpoint.target(),
            &planned.body,
        )
        .map_err(|e| e.to_string())?;
        let result = check(&planned, &hot, &ex);
        tally_done(
            tally,
            &[Done {
                planned: planned.clone(),
                ex,
                result,
            }],
        );
        sent.push(planned);
    }
    // Pre-fill over every connection until the uniformization pool
    // evicts, i.e. the cache is at its cap (smoke mode: a few requests).
    let conns = connections();
    let mixes = (0..conns)
        .map(|c| Mix::fresh_only(ctx.seed, u64::MAX - c as u64, hot.clone()))
        .collect();
    let stop = AtomicBool::new(ctx.smoke);
    let deadline = Instant::now() + Duration::from_secs(60);
    let prefilled = std::thread::scope(|s| {
        let load = s.spawn(|| drive(server.addr, mixes, &hot, deadline, &stop));
        let mut full = ctx.smoke;
        while !full && Instant::now() < deadline && !load.is_finished() {
            std::thread::sleep(Duration::from_millis(20));
            full = get_json(server.addr, "/stats")
                .ok()
                .and_then(|st| {
                    st.get("cache")?
                        .get("uniformized")?
                        .get("evictions")?
                        .as_f64()
                })
                .is_some_and(|e| e > 0.0);
        }
        stop.store(true, Ordering::Relaxed);
        (full, load.join().expect("pre-fill load thread panicked"))
    });
    let (full, per_conn) = prefilled;
    if !full {
        return Err("cache never reached its cap during pre-fill".into());
    }
    let mut prefill: Vec<Done> = per_conn.into_iter().flatten().collect();
    prefill.sort_by_key(|d| d.ex.end);
    tally_done(tally, &prefill);
    sent.extend(prefill.into_iter().map(|d| d.planned));
    Ok(SetUp { server, hot, sent })
}

/// The untraced run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..ctx.setups {
        let t0 = Instant::now();
        let SetUp { server, hot, .. } = set_up(ctx, &mut tally)?;
        setups.push(t0.elapsed().as_secs_f64());
        if i + 1 < ctx.setups {
            server.stop()?;
        } else {
            kept = Some((server, hot));
        }
    }
    let (server, hot) = kept.expect("at least one set-up");
    let pid = server.pid();
    let conns = connections();
    let mixes = (0..conns)
        .map(|c| Mix::new(ctx.seed, c as u64, hot.clone()))
        .collect();
    let cpu0 = sys::proc_cpu(pid).map_err(|e| e.to_string())?;
    let jiffies = sys::CpuJiffies::now();
    let start = Instant::now();
    let per_conn = drive(
        server.addr,
        mixes,
        &hot,
        start + ctx.seconds,
        &AtomicBool::new(false),
    );
    let window = start.elapsed().as_secs_f64();
    let cpu = sys::proc_cpu(pid).map_err(|e| e.to_string())? - cpu0;
    let steal = jiffies.steal_pct_until(&sys::CpuJiffies::now());
    let rss = sys::proc_peak_rss_mb(pid).map_err(|e| e.to_string())?;
    server.stop()?;

    let all: Vec<&Done> = per_conn.iter().flatten().collect();
    for c in &per_conn {
        tally_done(&mut tally, c);
    }
    let lat: Vec<f64> = all
        .iter()
        .filter(|d| d.result.is_ok())
        .map(|d| (d.ex.end - d.ex.start).as_secs_f64() * 1e3)
        .collect();
    let done = lat.len().max(1) as f64;
    let mut out = Outcome::new(&tally);
    out.env(
        "simd_backend",
        Json::Str(
            regenr_sparse::simd::resolve(regenr_sparse::BackendChoice::Auto)
                .name()
                .into(),
        ),
    );
    out.env("steal_pct", Json::Num(steal));
    out.env("in_flight", Json::Num(conns as f64));
    out.env("window_requests", Json::Num(lat.len() as f64));
    out.metric("setup_s", median(&setups), "s");
    out.metric("req_ms_p50", median(&lat), "ms");
    out.metric("req_ms_p99", quantile(&lat, 0.99), "ms");
    out.metric("req_per_s", lat.len() as f64 / window, "1/s");
    out.metric("cpu_ms_per_req", cpu.as_secs_f64() * 1e3 / done, "ms");
    out.metric("peak_rss_mb", rss, "MB");
    Ok(out)
}

/// The traced run: the same set-up and mix with every HTTP round trip in
/// a span (and `GET /stats` counters around the window), then a serial
/// in-process replay of the same requests — set-up included — through a
/// cache configured like the server's, with spans around every layer call.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let SetUp {
        server,
        hot,
        sent: setup_sent,
    } = set_up(ctx, &mut tally)?;
    let pid = server.pid();
    let conns = connections();
    let mixes = (0..conns)
        .map(|c| Mix::new(ctx.seed, c as u64, hot.clone()))
        .collect();
    let mut layers = Layers::default();
    let mut tracer = Tracer::new();
    let before = get_json(server.addr, "/stats")?;
    let cpu0 = sys::proc_cpu(pid).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let phase = ctx.seconds / 2;
    let per_conn = drive(
        server.addr,
        mixes,
        &hot,
        start + phase,
        &AtomicBool::new(false),
    );
    let cpu = sys::proc_cpu(pid).map_err(|e| e.to_string())? - cpu0;
    let after = get_json(server.addr, "/stats")?;
    server.stop()?;
    for c in &per_conn {
        tally_done(&mut tally, c);
    }
    layers.add_stats_delta(&before, &after);

    // HTTP spans, one request id per exchange, in completion order.
    let mut window: Vec<&Done> = per_conn.iter().flatten().collect();
    window.sort_by_key(|d| d.ex.end);
    let (mut connect, mut ttfb, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for (i, d) in window.iter().enumerate() {
        tracer.request = i as u64 + 1;
        tracer.record_tree(
            "http.round_trip",
            d.ex.start,
            d.ex.end,
            &[
                ("http.connect", d.ex.start, d.ex.connected),
                ("http.wait_first_byte", d.ex.connected, d.ex.first_byte),
            ],
        );
        connect.push((d.ex.connected - d.ex.start).as_secs_f64() * 1e3);
        ttfb.push((d.ex.first_byte - d.ex.start).as_secs_f64() * 1e3);
        if let Ok(Checked {
            wall_seconds: Some(w),
            ..
        }) = &d.result
        {
            overhead.push((d.ex.end - d.ex.start).as_secs_f64() * 1e3 - w * 1e3);
        }
    }
    let ok = window.iter().filter(|d| d.result.is_ok()).count().max(1);
    layers.program_requests = ok as f64;
    layers.untraced_cpu_ms = cpu.as_secs_f64() * 1e3 / ok as f64;
    layers.connect_ms = median(&connect);
    layers.ttfb_ms = median(&ttfb);
    layers.overhead_ms = median(&overhead);

    // In-process replay: set-up requests first (spans kept, not counted),
    // then the window's requests until the budget runs out.
    let mut replayer = Replayer::new(ServeConfig::default().cache);
    tracer.request = 0;
    for p in &setup_sent {
        replayer
            .replay(&mut tracer, &p.body)
            .map_err(|e| format!("set-up replay failed: {e}"))?;
    }
    replayer.counts = Default::default();
    let mut replayed = HashSet::new();
    let mut replay_cpu = Duration::ZERO;
    let budget_start = Instant::now();
    for (i, d) in window.iter().enumerate() {
        if !replayed.is_empty() && budget_start.elapsed() >= ctx.seconds - phase {
            break;
        }
        let id = i as u64 + 1;
        tracer.request = id;
        let c0 = sys::self_cpu();
        let result = replayer.replay(&mut tracer, &d.planned.body);
        replay_cpu += sys::self_cpu() - c0;
        // The served values were gated already; a replay must reproduce them.
        let served = d.result.as_ref().map(|c| c.values.clone()).ok();
        tally.record(
            "serve_mix",
            result.and_then(|cells| {
                let mut bits: Vec<u64> = cells.iter().map(|c| c.value.to_bits()).collect();
                bits.sort_unstable();
                match served {
                    Some(v) if v != bits => {
                        Err(format!("replay of request {id} differs from the server's"))
                    }
                    _ => Ok(()),
                }
            }),
        );
        replayed.insert(id);
    }
    layers.traced_cpu_ms = replay_cpu.as_secs_f64() * 1e3 / replayed.len().max(1) as f64;
    let counts = std::mem::take(&mut replayer.counts);
    let largest = replayer.largest.take();
    let mut out = Outcome::new(&tally);
    layers.finish(
        ctx,
        &mut tracer,
        &replayed,
        counts,
        largest.as_deref(),
        &mut out,
    )?;
    Ok(out)
}

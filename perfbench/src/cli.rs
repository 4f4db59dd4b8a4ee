//! The CLI workloads: every request is one `regenr sweep <spec>` process
//! (a cold engine), driven closed-loop with one request in flight, timed
//! by wall clock and by the child's own CPU time and peak RSS (`wait4`).

use crate::report::{Layers, Outcome, Tally};
use crate::stats::{median, Rng};
use crate::sys;
use crate::trace::{Replayer, Tracer};
use crate::Ctx;
use regenr_engine::{CacheConfig, Json, SweepSpec};
use std::collections::{HashMap, HashSet};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One finished CLI request.
pub struct CliRequest {
    pub wall: Duration,
    pub cpu: Duration,
    pub rss_mb: f64,
    /// Time for `fork`+`exec` to return (the CLI's "connect").
    pub spawn: Duration,
    /// Time to the first byte of the report on stdout.
    pub ttfb: Duration,
    pub exit: Option<i32>,
    pub stdout: Vec<u8>,
}

/// Runs `regenr sweep <spec>` once and reaps it with `wait4`.
pub fn run_request(regenr: &Path, spec: &Path) -> std::io::Result<CliRequest> {
    let t0 = Instant::now();
    let mut child = Command::new(regenr)
        .arg("sweep")
        .arg(spec)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let spawn = t0.elapsed();
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut stdout = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut ttfb = None;
    loop {
        let n = match out.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                let _ = child.kill();
                let _ = sys::wait_child(&child);
                return Err(e);
            }
        };
        if n == 0 {
            break;
        }
        ttfb.get_or_insert_with(|| t0.elapsed());
        stdout.extend_from_slice(&chunk[..n]);
    }
    let (exit, usage) = sys::wait_child(&child)?;
    Ok(CliRequest {
        wall: t0.elapsed(),
        cpu: usage.cpu(),
        rss_mb: usage.maxrss_mb(),
        spawn,
        ttfb: ttfb.unwrap_or(spawn),
        exit,
        stdout,
    })
}

/// `(model, t) → (method, value)` rows of `results/engine.csv`.
type EngineRows = HashMap<(String, u64), (String, f64)>;

/// What the correctness gate compares a report against.
enum Expect {
    PaperGrid(EngineRows),
    /// Reward range of the cluster model (rates do not change rewards).
    Cluster {
        lo: f64,
        hi: f64,
    },
}

/// A CLI workload instance for one seed.
pub struct CliWorkload {
    pub name: &'static str,
    pub spec: String,
    /// Cells every report must hold.
    cells: usize,
    expect: Expect,
}

/// The paper's Section 3 grid: RAID G ∈ {20, 40} × {UA, UR} ×
/// t ∈ {1, 10, …, 10⁵} h at ε = 1e-12 under Auto dispatch (24 cells;
/// seed-independent). Smoke mode keeps the G = 20 half.
fn paper_grid_spec(smoke: bool) -> String {
    let gs: &[u32] = if smoke { &[20] } else { &[20, 40] };
    let models: Vec<String> = gs
        .iter()
        .flat_map(|g| {
            [
                format!(r#"{{"kind": "raid", "g": {g}}}"#),
                format!(r#"{{"kind": "raid", "g": {g}, "absorbing": true}}"#),
            ]
        })
        .collect();
    format!(
        r#"{{"epsilon": 1e-12, "horizons": [1, 10, 100, 1000, 10000, 100000], "models": [{}]}}"#,
        models.join(", ")
    )
}

/// `results/engine.csv` rows keyed by report model name and horizon.
fn load_engine_csv(root: &Path) -> Result<EngineRows, String> {
    let path = root.join("results/engine.csv");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = HashMap::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() < 7 {
            continue;
        }
        let model = format!("raid_g{}_{}", f[0], f[1].to_ascii_lowercase());
        let t: u64 = f[2]
            .parse()
            .map_err(|_| format!("bad horizon in {line:?}"))?;
        let value: f64 = f[6].parse().map_err(|_| format!("bad value in {line:?}"))?;
        rows.insert((model, t), (f[3].to_string(), value));
    }
    // The paper's headline numbers, stated outright: a stale reference
    // must not pass for a correct one.
    for (model, want) in [("raid_g20_ur", 0.50480), ("raid_g40_ur", 0.74750)] {
        match rows.get(&(model.to_string(), 100_000)) {
            Some((_, v)) if (v - want).abs() <= 5e-6 => {}
            other => return Err(format!("{}: {model} UR(1e5) is {other:?}", path.display())),
        }
    }
    Ok(rows)
}

/// `specs/large_cluster.json` (≈108k states) with a seeded 4-point
/// `"sensitivity"` grid on `lambda` (factors in [0.5, 2]) and horizons
/// [1, 10, 100]. Smoke mode shrinks the classes to a few units.
fn cluster_spec(root: &Path, seed: u64, smoke: bool) -> Result<(String, String), String> {
    let path = root.join("specs/large_cluster.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Json::Obj(mut doc) = Json::parse(&text).map_err(|e| e.to_string())? else {
        return Err("large_cluster.json is not an object".into());
    };
    // One factor per equal log-width stratum of [0.5, 2]: every seed gets
    // distinct points spread over the whole range.
    let mut rng = Rng::new(seed);
    let points = if smoke { 2 } else { 4 };
    let edge = |i: usize| 0.5 * 4f64.powf(i as f64 / points as f64);
    let grid: Vec<Json> = (0..points)
        .map(|i| Json::Num(rng.factor(edge(i), edge(i + 1), 3)))
        .collect();
    for (key, value) in doc.iter_mut() {
        match key.as_str() {
            "horizons" => {
                *value = Json::Arr(vec![Json::Num(1.0), Json::Num(10.0), Json::Num(100.0)])
            }
            "models" => {
                let Json::Arr(models) = value else {
                    return Err("large_cluster.json models is not an array".into());
                };
                for model in models.iter_mut() {
                    let Json::Obj(fields) = model else { continue };
                    if smoke {
                        shrink_components(fields);
                    }
                    fields.push((
                        "sensitivity".into(),
                        Json::Obj(vec![
                            ("param".into(), Json::Str("lambda".into())),
                            ("grid".into(), Json::Arr(grid.clone())),
                        ]),
                    ));
                }
            }
            _ => {}
        }
    }
    let with_grid = Json::Obj(doc.clone()).to_string();
    // The base spec (no grid) gives the gate the model's reward range.
    for (key, value) in doc.iter_mut() {
        if let ("models", Json::Arr(models)) = (key.as_str(), value) {
            for model in models.iter_mut() {
                if let Json::Obj(fields) = model {
                    fields.retain(|(k, _)| k != "sensitivity");
                }
            }
        }
    }
    Ok((with_grid, Json::Obj(doc).to_string()))
}

fn shrink_components(fields: &mut [(String, Json)]) {
    for (key, value) in fields.iter_mut() {
        if let ("components", Json::Arr(comps)) = (key.as_str(), value) {
            for comp in comps.iter_mut() {
                if let Json::Obj(cf) = comp {
                    for (k, v) in cf.iter_mut() {
                        match k.as_str() {
                            "count" => *v = Json::Num(6.0),
                            "required" => *v = Json::Num(2.0),
                            _ => {}
                        }
                    }
                }
            }
        }
    }
}

impl CliWorkload {
    /// Builds the workload's inputs and its correctness reference.
    pub fn new(name: &str, ctx: &Ctx) -> Result<CliWorkload, String> {
        match name {
            "paper_grid" => Ok(CliWorkload {
                name: "paper_grid",
                spec: paper_grid_spec(ctx.smoke),
                // Two models (UA, UR) per G, six horizons each.
                cells: if ctx.smoke { 12 } else { 24 },
                expect: Expect::PaperGrid(load_engine_csv(&ctx.root)?),
            }),
            "cluster_sensitivity" => {
                let (spec, base) = cluster_spec(&ctx.root, ctx.seed, ctx.smoke)?;
                let base = SweepSpec::parse(&base)?;
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for req in &base.requests {
                    for &r in req.model.rewards() {
                        lo = lo.min(r);
                        hi = hi.max(r);
                    }
                }
                Ok(CliWorkload {
                    name: "cluster_sensitivity",
                    spec,
                    // One request per grid point, each with three horizons.
                    cells: base.requests.len() * if ctx.smoke { 2 } else { 4 } * 3,
                    expect: Expect::Cluster { lo, hi },
                })
            }
            _ => Err(format!("unknown CLI workload {name:?}")),
        }
    }

    /// The correctness gate for one report. Returns the cell values (bit
    /// patterns) on success, for the cross-request determinism check.
    fn check(&self, report: &Json) -> Result<Vec<u64>, String> {
        let failures = report
            .get("failures")
            .and_then(Json::as_arr)
            .ok_or("no failures array")?;
        if !failures.is_empty() {
            return Err(format!("sweep failures: {}", Json::Arr(failures.to_vec())));
        }
        let cells = report
            .get("reports")
            .and_then(Json::as_arr)
            .ok_or("no reports array")?;
        let mut values = Vec::with_capacity(cells.len());
        for cell in cells {
            let field = |k: &str| cell.get(k).ok_or_else(|| format!("cell lacks {k:?}"));
            let value = field("value")?.as_f64().ok_or("value is not a number")?;
            let t = field("t")?.as_f64().ok_or("t is not a number")?;
            let model = field("model")?.as_str().ok_or("model is not a string")?;
            let method = field("method")?.as_str().ok_or("method is not a string")?;
            if !value.is_finite() || field("converged")?.as_bool() != Some(true) {
                return Err(format!("{model} t={t}: value {value} not finite/converged"));
            }
            match &self.expect {
                Expect::PaperGrid(rows) => {
                    let (want_method, want) = rows
                        .get(&(model.to_string(), t as u64))
                        .ok_or_else(|| format!("{model} t={t} not in results/engine.csv"))?;
                    // ε or one unit of the CSV's last printed digit (11
                    // significant digits), whichever is looser.
                    let digit = 10f64.powf(want.abs().log10().floor() - 10.0);
                    let tol = digit.max(1e-12);
                    if method != want_method || (value - want).abs() > tol {
                        return Err(format!(
                            "{model} t={t}: got {method} {value:e}, want {want_method} {want:e} (tol {tol:e})"
                        ));
                    }
                }
                Expect::Cluster { lo, hi } => {
                    let slack = 1e-9 * (1.0 + hi.abs());
                    if value < lo - slack || value > hi + slack {
                        return Err(format!("{model} t={t}: {value} outside [{lo}, {hi}]"));
                    }
                }
            }
            values.push(value.to_bits());
        }
        if values.len() != self.cells {
            return Err(format!("{} cells, want {}", values.len(), self.cells));
        }
        Ok(values)
    }
}

/// Parses and gates one request's output; `first` holds the first
/// request's value bits for the determinism check.
fn gate(wl: &CliWorkload, req: &CliRequest, first: &mut Option<Vec<u64>>) -> Result<Json, String> {
    if req.exit != Some(0) {
        return Err(format!("regenr exited with {:?}", req.exit));
    }
    let text = std::str::from_utf8(&req.stdout).map_err(|_| "report is not UTF-8")?;
    let doc = Json::parse(text).map_err(|e| format!("report is not JSON: {e}"))?;
    let values = wl.check(&doc)?;
    match first {
        None => *first = Some(values),
        Some(f) if *f != values => {
            return Err("values differ bitwise from the first request".into())
        }
        Some(_) => {}
    }
    Ok(doc)
}

fn write_spec(ctx: &Ctx, wl: &CliWorkload) -> Result<PathBuf, String> {
    let path = ctx.out.join(format!("{}-{}.json", wl.name, ctx.seed));
    std::fs::write(&path, &wl.spec).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The untraced run: several timed set-ups (inputs + one checked warm-up
/// request each), then the closed-loop window.
pub fn run(ctx: &Ctx, name: &str) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut first = None;
    let mut setups = Vec::new();
    let mut spec_path = PathBuf::new();
    let mut wl = None;
    let mut simd = String::from("unknown");
    for _ in 0..ctx.setups {
        let t0 = Instant::now();
        let w = CliWorkload::new(name, ctx)?;
        spec_path = write_spec(ctx, &w)?;
        let req = run_request(&ctx.regenr, &spec_path).map_err(|e| e.to_string())?;
        if let Some(doc) = tally.record(name, gate(&w, &req, &mut first)) {
            if let Some(s) = doc.get("execution").and_then(|e| e.get("simd_backend")) {
                simd = s.as_str().unwrap_or("unknown").to_string();
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        wl = Some(w);
    }
    let wl = wl.expect("at least one set-up");

    let jiffies = sys::CpuJiffies::now();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut cpu = Duration::ZERO;
    let mut rss = Vec::new();
    let mut sent = 0;
    while sent == 0 || start.elapsed() < ctx.seconds {
        sent += 1;
        let req = run_request(&ctx.regenr, &spec_path).map_err(|e| e.to_string())?;
        let ok = tally.record(name, gate(&wl, &req, &mut first)).is_some();
        if ok {
            walls.push(req.wall.as_secs_f64() * 1e3);
            cpu += req.cpu;
            rss.push(req.rss_mb);
        }
    }
    let window = start.elapsed().as_secs_f64();
    let steal = jiffies.steal_pct_until(&sys::CpuJiffies::now());
    let done = walls.len().max(1) as f64;
    let mut out = Outcome::new(&tally);
    out.env("simd_backend", Json::Str(simd));
    out.env("steal_pct", Json::Num(steal));
    out.env("in_flight", Json::Num(1.0));
    out.env("window_requests", Json::Num(walls.len() as f64));
    out.metric("setup_s", median(&setups), "s");
    out.metric("req_ms_p50", median(&walls), "ms");
    out.metric("req_ms_p99", crate::stats::quantile(&walls, 0.99), "ms");
    out.metric("req_per_s", walls.len() as f64 / window, "1/s");
    out.metric("cpu_ms_per_req", cpu.as_secs_f64() * 1e3 / done, "ms");
    // The smallest per-request peak: which glibc malloc arena each sweep
    // thread lands in depends on timing, and a second arena adds ~2 MB to
    // some paper-grid requests (none under MALLOC_ARENA_MAX=1). The share
    // of such requests moves with the host's scheduling, so the median or
    // maximum jumps between runs; the minimum tracks what the sweep needs.
    out.metric("peak_rss_mb", crate::stats::quantile(&rss, 0.0), "MB");
    Ok(out)
}

/// The traced run: a short untraced phase (CLI requests, for the
/// program-exported counters and the untraced CPU baseline), then serial
/// in-process replays of the same request with spans, then the probes.
pub fn run_traced(ctx: &Ctx, name: &str) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut first = None;
    let wl = CliWorkload::new(name, ctx)?;
    let spec_path = write_spec(ctx, &wl)?;
    let mut layers = Layers::default();

    // Untraced phase: the program's own counters, per request.
    let phase = ctx.seconds / 3;
    let start = Instant::now();
    let (mut cpu, mut n) = (Duration::ZERO, 0u32);
    let (mut spawn, mut ttfb, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    while (n < 2 || start.elapsed() < phase) && tally.failed < 3 {
        let req = run_request(&ctx.regenr, &spec_path).map_err(|e| e.to_string())?;
        let Some(doc) = tally.record(name, gate(&wl, &req, &mut first)) else {
            continue;
        };
        n += 1;
        cpu += req.cpu;
        spawn.push(req.spawn.as_secs_f64() * 1e3);
        ttfb.push(req.ttfb.as_secs_f64() * 1e3);
        let inner = doc
            .get("wall_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        overhead.push(req.wall.as_secs_f64() * 1e3 - inner * 1e3);
        layers.add_report_counters(&doc);
    }
    layers.untraced_cpu_ms = cpu.as_secs_f64() * 1e3 / f64::from(n.max(1));
    layers.connect_ms = median(&spawn);
    layers.ttfb_ms = median(&ttfb);
    layers.overhead_ms = median(&overhead);
    layers.program_requests = f64::from(n);

    // Traced phase: each replay gets a cold cache, like a fresh process.
    let mut tracer = Tracer::new();
    let mut replay_cpu = Duration::ZERO;
    let mut replayed = HashSet::new();
    let mut largest = None;
    let mut counts = crate::trace::ReplayCounts::default();
    let start = Instant::now();
    let budget = ctx.seconds - phase;
    while replayed.is_empty() || start.elapsed() < budget {
        let mut replayer = Replayer::new(CacheConfig::unbounded());
        tracer.request = replayed.len() as u64 + 1;
        let c0 = sys::self_cpu();
        let result = replayer.replay(&mut tracer, &wl.spec);
        replay_cpu += sys::self_cpu() - c0;
        tally.record(
            name,
            result.and_then(|cells| {
                let bits: Vec<u64> = cells.iter().map(|c| c.value.to_bits()).collect();
                if first.as_ref() == Some(&bits) {
                    Ok(())
                } else {
                    Err("replayed values differ from the program's".into())
                }
            }),
        );
        replayed.insert(tracer.request);
        counts.add(&replayer.counts);
        largest = replayer.largest.take().or(largest);
    }
    layers.traced_cpu_ms = replay_cpu.as_secs_f64() * 1e3 / replayed.len() as f64;
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

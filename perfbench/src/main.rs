//! `perfbench` — the regenr benchmark harness.
//!
//! ```text
//! perfbench --workload <paper_grid|cluster_sensitivity|serve_mix>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Run from the repository root. It builds the measured program (the
//! default-feature release `regenr` binary), sets the workload up, measures
//! for `--seconds`, checks every response, and prints one JSON result
//! object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is a separate traced run reporting the
//! per-layer metrics. `--smoke` runs tiny sizes and checks that the output
//! names every metric of `BENCHMARK.json` with its unit. See README.md for
//! the workloads and what each metric should move.

mod cli;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use regenr_engine::Json;
use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["paper_grid", "cluster_sensitivity", "serve_mix"];

/// What every workload needs to know about the run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub smoke: bool,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// The checkout root (the current directory).
    pub root: PathBuf,
    /// Scratch directory for specs, traces and run records.
    pub out: PathBuf,
    /// The measured binary.
    pub regenr: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => args.trace = value()? == "1",
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() {
        args.seconds = if args.smoke { 2.0 } else { 10.0 };
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Builds `regenr` exactly as the README tells users to (default
/// features, release profile) and returns its path.
fn build_regenr(root: &Path) -> Result<PathBuf, String> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates/engine").is_dir() {
        return Err("run from the repository root (no Cargo.toml / crates/engine here)".into());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "regenr-engine",
            "--bin",
            "regenr",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err("cargo build of regenr failed".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release/regenr");
    if !bin.is_file() {
        return Err(format!("{} missing after the build", bin.display()));
    }
    Ok(bin)
}

fn git_sha(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// FNV-1a over the paths and contents of the measured sources (the
/// workspace manifests and every file under `crates/` and `src/`): names
/// the program version where no git metadata is present.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The environment of this run, recorded so a noisy run can be attributed
/// to the machine.
fn environment(ctx: &Ctx, trace: bool, out: &Outcome) -> Json {
    let mut env = vec![
        ("workload".into(), Json::Str(ctx.workload.clone())),
        ("seed".into(), Json::Num(ctx.seed as f64)),
        ("seconds".into(), Json::Num(ctx.seconds.as_secs_f64())),
        ("trace".into(), Json::Bool(trace)),
        ("smoke".into(), Json::Bool(ctx.smoke)),
        ("git_sha".into(), Json::Str(git_sha(&ctx.root))),
        ("source_digest".into(), Json::Str(source_digest(&ctx.root))),
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model".into(), Json::Str(sys::cpu_model())),
        (
            "l2_bytes".into(),
            Json::Num(sys::cache_bytes(2).unwrap_or(0) as f64),
        ),
        (
            "l3_bytes".into(),
            Json::Num(sys::cache_bytes(3).unwrap_or(0) as f64),
        ),
        ("build_profile".into(), Json::Str("release".into())),
        ("features".into(), Json::Str("default".into())),
    ];
    env.extend(out.env.iter().cloned());
    Json::Obj(env)
}

/// Smoke mode: every metric `BENCHMARK.json` lists for this mode must be
/// printed, with the listed unit, and nothing else.
fn check_names(root: &Path, trace: bool, out: &Outcome) -> Result<(), String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let listed = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks metrics")?;
    let mut want: Vec<(String, String)> = listed
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect();
    let mut got: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect();
    want.sort();
    got.sort();
    if want != got {
        let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
        let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
        return Err(format!(
            "{key} mismatch: missing {missing:?}, unlisted {extra:?}"
        ));
    }
    Ok(())
}

fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    match (ctx.workload.as_str(), trace) {
        ("serve_mix", false) => serve::run(ctx),
        ("serve_mix", true) => serve::run_traced(ctx),
        (name, false) => cli::run(ctx, name),
        (name, true) => cli::run_traced(ctx, name),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("the current directory is readable");
    let regenr = match build_regenr(&root) {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = root.join(".perfbench-out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: {}: {e}", out.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        smoke: args.smoke,
        setups: if args.smoke { 1 } else { 3 },
        root,
        out,
        regenr,
    };
    // Smoke mode exercises both modes and checks both metric lists.
    let modes: &[bool] = if args.smoke {
        &[false, true]
    } else {
        &[args.trace]
    };
    let mut code = 0;
    for &trace in modes {
        let started = Instant::now();
        let outcome = match run(&ctx, trace) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench {}: {e}", ctx.workload);
                std::process::exit(1);
            }
        };
        let env = environment(&ctx, trace, &outcome);
        let record = ctx.out.join(format!(
            "run-{}-seed{}-trace{}.json",
            ctx.workload,
            ctx.seed,
            u8::from(trace)
        ));
        let result = outcome.result_json();
        let doc = Json::Obj(vec![
            ("env".into(), env.clone()),
            ("result".into(), result.clone()),
            (
                "elapsed_s".into(),
                Json::Num(started.elapsed().as_secs_f64()),
            ),
        ]);
        if let Err(e) = std::fs::write(&record, doc.pretty()) {
            eprintln!("perfbench: {}: {e}", record.display());
        }
        println!("{}", Json::Obj(vec![("env".into(), env)]));
        if args.smoke {
            if let Err(e) = check_names(&ctx.root, trace, &outcome) {
                eprintln!("perfbench smoke {}: {e}", ctx.workload);
                code = 1;
            }
            if !outcome.correct() {
                eprintln!("perfbench smoke {}: run was not correct", ctx.workload);
                code = 1;
            }
        }
        println!("{result}");
    }
    std::process::exit(code);
}

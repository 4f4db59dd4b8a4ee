//! `regenr` — run a solver-engine sweep from a JSON spec.
//!
//! ```text
//! regenr sweep <spec.json>     run the spec (use '-' for stdin)
//! regenr sweep - --pretty      pretty-print the report
//! regenr sweep - --stable      omit timing/cache/pool fields so reports
//!                              from runs differing only in thread counts
//!                              diff byte-for-byte (CI determinism job)
//! regenr demo [G]              built-in paper workload (RAID UA+UR grid)
//! regenr methods               list methods and capability flags
//! regenr serve [--addr HOST:PORT] [--threads N] [--max-inflight K]
//!                              persistent solver service: POST sweep specs,
//!                              stream per-cell NDJSON results; identical
//!                              in-flight specs coalesce onto one
//!                              computation; see regenr_engine::serve
//! ```
//!
//! Output is a single JSON report on stdout: one entry per
//! `(model, measure, horizon)` cell with the value, the method chosen and
//! why, step counts, error bounds, and artifact-cache counters. Spec model
//! kinds: `raid`, `two_state`, `cyclic`, `duplex`, `machines`, `multiproc`,
//! `compose` (declarative component systems — classes × rates × coverage ×
//! dependencies, compiled by the same state-space explorer as the named
//! kinds; the `specs/` corpus at the repo root holds ready-to-run
//! examples), and `inline` rate
//! matrices. See `regenr_engine::spec` for the full schema.
//!
//! Exit codes: 0 ok, 1 a sweep with failed requests, 2 a usage or spec
//! error — an unknown flag, a missing flag value or an extra argument
//! prints the usage line and exits 2.

use regenr_engine::{
    report_to_json, stable_report_to_json, Engine, Json, ServeConfig, Server, SweepSpec,
    ALL_METHODS,
};
use std::io::Read;

const USAGE: &str =
    "usage: regenr <sweep <spec.json|->|demo [G]|methods|serve> [--pretty] [--stable]\n\
     serve flags: --addr HOST:PORT  --threads N  --max-inflight K\n\
     see the module docs of regenr_engine::spec for the spec schema";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args).unwrap_or_else(|why| {
        eprintln!("regenr: {why}\n{USAGE}");
        2
    });
    std::process::exit(code);
}

/// Dispatches a command line; `Err` is a usage error (exit 2).
fn run(args: &[String]) -> Result<i32, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    match command.as_str() {
        "sweep" => {
            let (positional, pretty, stable) = split_flags(rest, true)?;
            match positional[..] {
                [path] => Ok(sweep(path, pretty, stable)),
                _ => Err("sweep takes exactly one spec path ('-' for stdin)".into()),
            }
        }
        "demo" => {
            let (positional, pretty, stable) = split_flags(rest, true)?;
            let g = match positional[..] {
                [] => 20,
                [g] => g
                    .parse()
                    .map_err(|_| format!("demo G must be a positive integer, got {g:?}"))?,
                _ => return Err("demo takes at most one argument, G".into()),
            };
            Ok(demo(g, pretty, stable))
        }
        "methods" => {
            let (positional, pretty, _) = split_flags(rest, false)?;
            if !positional.is_empty() {
                return Err("methods takes no arguments".into());
            }
            methods(pretty);
            Ok(0)
        }
        "serve" => Ok(serve(serve_config(rest)?)),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Splits a command's arguments into positionals and the output flags:
/// `--pretty`, and `--stable` where `stable_ok`. Any other flag is an error.
fn split_flags(args: &[String], stable_ok: bool) -> Result<(Vec<&str>, bool, bool), String> {
    let (mut positional, mut pretty, mut stable) = (Vec::new(), false, false);
    for arg in args {
        match arg.as_str() {
            "--pretty" => pretty = true,
            "--stable" if stable_ok => stable = true,
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(format!("unknown flag {flag:?}"))
            }
            p => positional.push(p),
        }
    }
    Ok((positional, pretty, stable))
}

/// Reads `serve`'s `--flag VALUE` pairs; anything else is an error.
fn serve_config(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let count = match flag.as_str() {
            "--addr" => None,
            "--threads" => Some(&mut cfg.threads),
            "--max-inflight" => Some(&mut cfg.max_inflight),
            other => return Err(format!("unknown serve argument {other:?}")),
        };
        let value = args
            .next()
            .ok_or_else(|| format!("serve {flag} needs a value"))?;
        match count {
            None => cfg.addr = value.clone(),
            Some(slot) => {
                *slot = value.parse().map_err(|_| {
                    format!("serve {flag} needs a non-negative integer, got {value:?}")
                })?
            }
        }
    }
    Ok(cfg)
}

fn serve(cfg: ServeConfig) -> i32 {
    let max_inflight = cfg.max_inflight;
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("regenr serve: failed to bind: {e}");
            return 1;
        }
    };
    eprintln!(
        "regenr serve: listening on {} (max-inflight {max_inflight}); POST /sweep, \
         POST /sweep/report, GET /healthz, GET /stats, POST /shutdown; SIGTERM drains",
        server.local_addr()
    );
    match server.run() {
        Ok(()) => {
            let stats = server.stats();
            eprintln!(
                "regenr serve: drained; requests={} sweeps={} coalesced={} rejected={} \
                 deadline_expired={} inflight_highwater={}",
                stats.requests,
                stats.sweeps,
                stats.coalesced,
                stats.rejected,
                stats.deadline_expired,
                stats.inflight_highwater
            );
            0
        }
        Err(e) => {
            eprintln!("regenr serve: accept loop failed: {e}");
            1
        }
    }
}

fn emit(doc: &Json, pretty: bool) {
    if pretty {
        println!("{}", doc.pretty());
    } else {
        println!("{doc}");
    }
}

fn run_spec(text: &str, pretty: bool, stable: bool) -> i32 {
    let spec = match SweepSpec::parse(text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("spec error: {e}");
            return 2;
        }
    };
    let engine = Engine::with_cache_config(spec.options, spec.cache);
    let report = engine.sweep(&spec.requests);
    let doc = if stable {
        stable_report_to_json(&report)
    } else {
        report_to_json(&report)
    };
    emit(&doc, pretty);
    if report.failures.is_empty() {
        0
    } else {
        1
    }
}

fn sweep(path: &str, pretty: bool, stable: bool) -> i32 {
    let text = if path == "-" {
        let mut buf = String::new();
        match std::io::stdin().read_to_string(&mut buf) {
            Ok(_) => buf,
            Err(e) => {
                eprintln!("failed to read stdin: {e}");
                return 2;
            }
        }
    } else {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return 2;
            }
        }
    };
    run_spec(&text, pretty, stable)
}

/// The paper's Section 3 workload as a built-in spec: level-5 RAID, UA
/// (irreducible) and UR (absorbing) across the full horizon grid.
fn demo(g: u32, pretty: bool, stable: bool) -> i32 {
    let spec = format!(
        r#"{{
            "epsilon": 1e-12,
            "horizons": [1, 10, 100, 1000, 10000, 100000],
            "models": [
                {{"kind": "raid", "g": {g}}},
                {{"kind": "raid", "g": {g}, "absorbing": true}}
            ]
        }}"#
    );
    run_spec(&spec, pretty, stable)
}

fn methods(pretty: bool) {
    let list = ALL_METHODS
        .iter()
        .map(|m| {
            let caps = m.capabilities();
            Json::Obj(vec![
                ("method".into(), Json::Str(m.name().into())),
                (
                    "supports_absorbing".into(),
                    Json::Bool(caps.supports_absorbing),
                ),
                ("supports_mrr".into(), Json::Bool(caps.supports_mrr)),
                (
                    "rigorous_error_bound".into(),
                    Json::Bool(caps.rigorous_error_bound),
                ),
                (
                    "horizon_independent_cost".into(),
                    Json::Bool(caps.horizon_independent_cost),
                ),
                ("dense_only".into(), Json::Bool(caps.dense_only)),
            ])
        })
        .collect();
    emit(&Json::Arr(list), pretty);
}

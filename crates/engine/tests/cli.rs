//! The `regenr` command line: unknown flags, missing flag values and extra
//! arguments are usage errors, and spec values no model accepts are spec
//! errors — both exit 2 with a message, never a panic and never a run.
//! Horizons beyond the engine's `Λt` limit, or whose Poisson windows would
//! not fit its memory limit, are request failures (exit 1). `regenr serve`
//! drains and exits 0 on SIGTERM.

use std::io::Write;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `regenr args…` with `stdin` and returns its exit code, stdout and
/// stderr. A run still going after 30 s (a server that started instead of
/// refusing its arguments) is killed and fails the test.
fn regenr(args: &[&str], stdin: &str) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_regenr"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn regenr");
    // A usage error exits before reading stdin; the broken pipe is fine.
    let _ = child.stdin.take().unwrap().write_all(stdin.as_bytes());
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("regenr {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flags_and_extra_arguments_are_usage_errors() {
    let spec = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_tiny_spec.json");
    std::fs::write(
        &spec,
        r#"{"horizons": [1], "models": [{"kind": "cyclic", "n": 3}]}"#,
    )
    .unwrap();
    let spec = spec.to_str().unwrap();
    let (code, _, stderr) = regenr(&["sweep", spec, "--stable"], "");
    assert_eq!(code, Some(0), "the spec itself is fine: {stderr}");
    for args in [
        &["sweep", spec, "--stabel"][..],
        &["sweep", spec, spec],
        &["sweep"],
        &["demo", "20", "--bogus"],
        &["methods", "extra"],
        &["serve", "--threads"],
        &["serve", "--max-inflight", "many"],
        &["serve", "--adr", "127.0.0.1:0"],
        &[],
    ] {
        let (code, _, stderr) = regenr(args, "");
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: regenr"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn spec_values_no_model_accepts_exit_2() {
    let (code, _, stderr) = regenr(&["demo", "0"], "");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("spec error") && stderr.contains("\"g\""),
        "{stderr}"
    );
    for model in [
        r#"{"kind":"raid","g":2,"p_r":0}"#,
        r#"{"kind":"raid","g":65536}"#,
        r#"{"kind":"machines","machines":4,"repairmen":0,"lambda":0.1,"mu":1}"#,
        r#"{"kind":"machines","machines":0,"repairmen":1,"lambda":0.1,"mu":1}"#,
        r#"{"kind":"multiproc","n_proc":0,"n_mem":3,"lambda_p":1e-3,"lambda_m":1e-3,"coverage":0.9,"mu":1,"delta":2}"#,
        r#"{"kind":"multiproc","n_proc":3,"n_mem":0,"lambda_p":1e-3,"lambda_m":1e-3,"coverage":0.9,"mu":1,"delta":2}"#,
        r#"{"kind":"cyclic","n":1}"#,
        r#"{"kind":"two_state","lambda":-1,"mu":1}"#,
        r#"{"kind":"cyclic","n":3,"method":["sr"]}"#,
        r#"{"kind":"compose","max_states":5000001,"components":[{"name":"m","count":2,"lambda":0.1,"mu":1.0}]}"#,
    ] {
        let spec = format!(r#"{{"horizons":[1],"models":[{model}]}}"#);
        let (code, _, stderr) = regenr(&["sweep", "-"], &spec);
        assert_eq!(code, Some(2), "{model}: {stderr}");
        assert!(stderr.starts_with("spec error"), "{model}: {stderr}");
    }
    // A compose spec may lower the state-space cap to the builder's limit,
    // not raise it past.
    let spec = r#"{"horizons":[1],"models":[{"kind":"compose","max_states":5000000,"components":[{"name":"m","count":2,"lambda":0.1,"mu":1.0}]}]}"#;
    let (code, _, stderr) = regenr(&["sweep", "-"], spec);
    assert_eq!(code, Some(0), "{stderr}");
}

/// An exit rate that overflows to infinity is a spec error naming the
/// state, whether a model's rates or an inline chain's add up to it.
#[test]
fn overflowing_exit_rates_exit_2() {
    for (spec, what) in [
        (
            r#"{"horizons":[1],"models":[{"kind":"compose","components":[
                {"name":"a","count":1,"lambda":1e308,"mu":1},
                {"name":"b","count":1,"lambda":1e308,"mu":1}]}]}"#,
            "compose model failed to build",
        ),
        (
            r#"{"horizons":[0],"models":[{"kind":"inline",
                "rates":[[0,1,1e308],[0,1,1e308],[1,0,1]],"rewards":[0,1]}]}"#,
            "inline model failed to validate",
        ),
    ] {
        let (code, stdout, stderr) = regenr(&["sweep", "-"], spec);
        assert_eq!(code, Some(2), "{what}: {stdout}{stderr}");
        assert_eq!(
            stderr,
            format!(
                "spec error: {what}: generator row 0 has the non-finite entry -inf in column 0\n"
            )
        );
    }
}

/// A grid point whose rates underflow has other transitions than the
/// grid's first point. It is explored on its own, so each point fails or
/// solves as a one-point grid would.
#[test]
fn grid_points_of_a_different_structure_build_on_their_own() {
    let grid = |factors: &str| {
        format!(
            r#"{{"horizons":[1,10],"models":[{{"kind":"compose","components":[
                {{"name":"a","count":1,"lambda":0.001,"mu":1.0}},
                {{"name":"b","count":1,"lambda":0.001,"mu":1.0,"coverage":0.5,
                  "deps":[{{"on":"a","factor":0.5}}]}}],
                "sensitivity":{{"param":"lambda","grid":{factors}}}}}]}}"#
        )
    };
    // The first point's failure rates underflow to zero, leaving its
    // initial state absorbing; the second point solves.
    let (code, stdout, stderr) = regenr(&["sweep", "-", "--stable"], &grid("[1e-321, 1]"));
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(stderr, "");
    assert!(
        stdout.contains(
            r#""error":"chain error: initial probability mass on absorbing state 0","kind":"model""#
        ),
        "{stdout}"
    );
    assert_eq!(
        stdout
            .matches(r#""model":"compose_a1_b1@lambda=1","#)
            .count(),
        2
    );
    // The second point's rate out of state 1 underflows to zero.
    let (code, stdout, stderr) = regenr(&["sweep", "-", "--stable"], &grid("[1, 1e-320]"));
    assert_eq!(code, Some(2), "{stdout}");
    assert_eq!(stdout, "");
    assert_eq!(
        stderr,
        "spec error: compose model failed to build: model produced a non-positive or \
         non-finite rate 0 out of state 1\n"
    );
}

/// A horizon whose `Λt` is above the engine's limit fails as a request,
/// named under `"failures"`, before any Poisson window is built: just
/// above the limit, and at `t = 1e20`, which would otherwise allocate
/// until the process is killed.
#[test]
fn horizons_beyond_the_lambda_t_limit_fail_fast() {
    for t in ["1.0000001e10", "1e20"] {
        let spec = format!(
            r#"{{"horizons":[{t}],"models":[{{"kind":"two_state","lambda":1,"absorbing":true}}]}}"#
        );
        let start = Instant::now();
        let (code, stdout, stderr) = regenr(&["sweep", "-"], &spec);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "t = {t} took too long"
        );
        assert_eq!(code, Some(1), "t = {t}: {stderr}");
        assert!(stdout.contains(r#""reports":[]"#), "t = {t}: {stdout}");
        assert!(
            stdout.contains("Λt = ") && stdout.contains("above the limit 1e10"),
            "t = {t}: {stdout}"
        );
    }
}

/// A 14 KB body of 1,000 horizons, each under the `Λt` limit, would open
/// about 29 GB of Poisson windows. It fails as a request that names the
/// total, before any window is built.
#[test]
fn a_thousand_horizons_near_the_lambda_t_limit_fail_fast() {
    let horizons: Vec<String> = (0..1000)
        .map(|i| format!("{}", 9e9 + 1e6 * i as f64))
        .collect();
    let spec = format!(
        r#"{{"horizons":[{}],"models":[{{"kind":"two_state","lambda":1e-3,"mu":1}}]}}"#,
        horizons.join(",")
    );
    let start = Instant::now();
    let (code, stdout, stderr) = regenr(&["sweep", "-"], &spec);
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "took {took:?}");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.contains(r#""reports":[]"#), "{stdout}");
    assert!(
        stdout.contains("1000 horizons need Poisson windows of up to ")
            && stdout.contains("above the limit 5e6"),
        "{stdout}"
    );
}

/// An ε below the spacing of f64 at the largest reward fails as a request
/// that names the floor. RRL used to answer this body with value 0,
/// `error_bound` 1e-300 and `converged` true.
#[test]
fn epsilon_below_the_f64_floor_fails_as_a_request() {
    let spec = r#"{"epsilon":1e-300,"method":"rrl","horizons":[100000],"models":[{"kind":"raid","g":2,"absorbing":true}]}"#;
    let (code, stdout, stderr) = regenr(&["sweep", "-"], spec);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.contains(r#""reports":[]"#), "{stdout}");
    assert!(
        stdout.contains("epsilon 1e-300 is below the floor 2.220446049250313e-16"),
        "{stdout}"
    );
}

/// SIGTERM drains the server: it exits 0 within a second and prints its
/// drained banner. The signal goes through `sh`'s `kill`, since the
/// workspace has no `libc` crate.
#[cfg(unix)]
#[test]
fn sigterm_drains_and_exits_0() {
    use std::io::{BufRead, BufReader, Read};
    use std::net::SocketAddr;
    let mut child = Command::new(env!("CARGO_BIN_EXE_regenr"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn regenr serve");
    let mut log = BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    log.read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));
    // A served request shows the accept loop, and so the handler, is up.
    let (status, _) =
        regenr_engine::serve::http::http_request(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    let signalled = Instant::now();
    let kill = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", child.id())])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let deadline = signalled + Duration::from_secs(1);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("regenr serve was still running 1 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(status.success(), "{status:?}");
    let mut rest = String::new();
    log.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("regenr serve: drained;"), "{rest}");
}

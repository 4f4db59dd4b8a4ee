//! Wire-level tests for `regenr serve`: coalescing, deadlines, admission
//! control, validation errors, and graceful lifecycle — all against a real
//! listener on a loopback port.

use regenr_engine::serve::http::{http_request, send_request_head};
use regenr_engine::{Engine, ServeConfig, Server, SweepSpec};
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small but multi-cell workload: 4 horizons × 1 model = 4 sweep jobs.
const SPEC_BODY: &str =
    r#"{"horizons":[1, 10, 100, 1000], "models":[{"kind":"cyclic","n":6}], "epsilon":1e-10}"#;

/// Four cells from one job that computes for about half a second in the
/// test profile: SR steps RAID G = 20 15,030 times to reach t = 600. It
/// holds a run in flight while other requests arrive.
const LONG_SPEC: &str = r#"{"horizons":[1, 10, 100, 600], "method":"sr",
    "models":[{"kind":"raid","g":20}], "epsilon":1e-10}"#;

fn start_server(cfg: ServeConfig) -> (Arc<Server>, SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(cfg).expect("bind loopback");
    let addr = server.local_addr();
    let runner = Arc::clone(&server);
    let handle = std::thread::spawn(move || runner.run().expect("accept loop"));
    (server, addr, handle)
}

fn default_cfg() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    let (status, bytes) = http_request(addr, "POST", target, body).expect("request");
    (status, String::from_utf8(bytes).expect("utf-8 body"))
}

/// Appends one `"key":value` member to a JSON-object spec string.
fn with_field(spec: &str, member: &str) -> String {
    format!("{},{member}}}", spec.trim_end().trim_end_matches('}'))
}

fn shutdown(server: &Arc<Server>, addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("run() returns after drain");
    assert!(server.stats().requests >= 1);
}

/// Two identical concurrent requests must produce ONE engine computation
/// and byte-identical `--stable` bodies; the served body must also match
/// what the offline engine produces for the same requests.
#[test]
fn identical_concurrent_requests_coalesce_to_one_computation() {
    let (server, addr, handle) = start_server(default_cfg());
    // The long job keeps the first request's run in flight long enough
    // for the second request to attach.
    let first = std::thread::spawn(move || post(addr, "/sweep/report?stable=1", LONG_SPEC));
    wait_until("run accepted", || server.stats().sweeps == 1);
    let (second_status, second_body) = post(addr, "/sweep/report?stable=1", LONG_SPEC);
    let (first_status, first_body) = first.join().unwrap();

    assert_eq!((first_status, second_status), (200, 200));
    assert_eq!(
        first_body, second_body,
        "coalesced bodies must be byte-identical"
    );
    let stats = server.stats();
    assert_eq!(stats.sweeps, 1, "one computation for two requests");
    assert_eq!(stats.coalesced, 1);
    assert_eq!(stats.rejected, 0);

    // The engine ran the sweep once: exactly as many cache builds as a
    // single offline run of the same spec performs.
    let offline = Engine::new();
    let offline_spec = SweepSpec::parse(LONG_SPEC).expect("spec parses");
    let offline_report = offline.sweep(&offline_spec.requests);
    assert_eq!(
        server.engine().cache().stats().uniformized.misses,
        offline_report.cache.uniformized.misses,
        "subscribers must not touch the engine"
    );
    // Served stable body == offline stable report (plus the CLI newline).
    let offline_body = format!(
        "{}\n",
        regenr_engine::stable_report_to_json(&offline_report)
    );
    assert_eq!(
        first_body, offline_body,
        "served --stable must match offline"
    );

    shutdown(&server, addr, handle);
}

/// A tiny deadline cancels cleanly: the stream stays well-formed, the
/// summary says `"status":"deadline"`, and the server remains healthy.
#[test]
fn deadline_cancels_cleanly_and_server_stays_healthy() {
    let (server, addr, handle) = start_server(default_cfg());
    let spec = with_field(SPEC_BODY, r#""deadline_ms":0"#);
    let (status, body) = post(addr, "/sweep", &spec);
    assert_eq!(status, 200, "a deadline is a clean result, not an error");
    let summary = body
        .lines()
        .last()
        .expect("stream ends with a summary record");
    let doc = regenr_engine::Json::parse(summary).expect("summary is valid JSON");
    assert_eq!(
        doc.get("status").and_then(|s| s.as_str()),
        Some("deadline"),
        "summary: {summary}"
    );
    assert_eq!(doc.get("record").and_then(|s| s.as_str()), Some("summary"));
    let cancelled = doc
        .get("cancelled_jobs")
        .and_then(|n| n.as_f64())
        .expect("full summary carries cancelled_jobs");
    assert!(cancelled >= 1.0, "at least one job must have been cut");
    assert_eq!(server.stats().deadline_expired, 1);

    // Every line before the summary is a valid cell record — partial
    // results stay usable.
    for line in body.lines().filter(|l| *l != summary) {
        let cell = regenr_engine::Json::parse(line).expect("cell line is valid JSON");
        assert_eq!(cell.get("record").and_then(|s| s.as_str()), Some("cell"));
    }

    // The server is still healthy: the same spec without the deadline
    // completes fully.
    let (status, body) = post(addr, "/sweep", SPEC_BODY);
    assert_eq!(status, 200);
    let summary = body.lines().last().unwrap();
    let doc = regenr_engine::Json::parse(summary).unwrap();
    assert_eq!(doc.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(doc.get("cells").and_then(|n| n.as_f64()), Some(4.0));

    shutdown(&server, addr, handle);
}

/// With a full admission gate, distinct specs get a structured 429 while
/// identical specs still coalesce (they don't need a slot).
#[test]
fn admission_control_rejects_distinct_but_coalesces_identical() {
    let cfg = ServeConfig {
        max_inflight: 1,
        ..default_cfg()
    };
    let (server, addr, handle) = start_server(cfg);
    let first = std::thread::spawn(move || post(addr, "/sweep", LONG_SPEC));
    wait_until("run accepted", || server.stats().sweeps == 1);

    // Distinct spec: the only slot is taken → 429 with a structured body.
    let distinct = r#"{"horizons":[1], "models":[{"kind":"cyclic","n":4}]}"#;
    let (status, body) = post(addr, "/sweep/report", distinct);
    assert_eq!(status, 429, "body: {body}");
    let doc = regenr_engine::Json::parse(&body).expect("429 body is structured JSON");
    assert_eq!(
        doc.get("error").and_then(|s| s.as_str()),
        Some("overloaded")
    );
    assert_eq!(doc.get("max_inflight").and_then(|n| n.as_f64()), Some(1.0));

    // A bad spec is still a 400, not a 429: the build comes before the
    // admission gate.
    let bad = r#"{"horizons":[1], "models":[{"kind":"cyclic"}]}"#;
    let (status, body) = post(addr, "/sweep/report", bad);
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("bad_spec"), "{body}");

    // Identical spec: coalesces onto the in-flight run, no slot needed.
    let (status, _body) = post(addr, "/sweep/report", LONG_SPEC);
    assert_eq!(status, 200);
    let (status, _) = first.join().unwrap();
    assert_eq!(status, 200);

    let stats = server.stats();
    assert_eq!(stats.sweeps, 1);
    assert_eq!(stats.coalesced, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.bad_requests, 1);
    assert_eq!(stats.inflight_highwater, 1);

    shutdown(&server, addr, handle);
}

/// Spec validation surfaces as structured 400s: unknown keys are named,
/// engine-wide knobs are refused, bad JSON reports its offset, and model
/// values no constructor accepts are spec errors.
#[test]
fn validation_errors_are_structured_400s() {
    let (server, addr, handle) = start_server(default_cfg());

    let (status, body) = post(
        addr,
        "/sweep/report",
        r#"{"horizonz":[1], "models":[{"kind":"cyclic","n":3}]}"#,
    );
    assert_eq!(status, 400);
    assert!(
        body.contains("horizonz"),
        "must name the unknown key: {body}"
    );

    let (status, body) = post(
        addr,
        "/sweep/report",
        r#"{"horizons":[1], "threads": 8, "models":[{"kind":"cyclic","n":3}]}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("fixed_engine_option"), "{body}");

    let (status, body) = post(addr, "/sweep", "{not json");
    assert_eq!(status, 400);
    assert!(body.contains("bad_json"), "{body}");

    // Values a model constructor or the chain builder cannot take, and
    // wrong-typed strings, are the spec's fault: a 400, never a handler
    // panic answered as an infrastructure 5xx.
    let models = [
        r#"{"kind":"raid","g":0}"#,
        r#"{"kind":"raid","g":65536}"#,
        r#"{"kind":"raid","g":2,"p_r":0}"#,
        r#"{"kind":"raid","g":2,"p_r":1.5}"#,
        r#"{"kind":"machines","machines":4,"repairmen":0,"lambda":0.1,"mu":1}"#,
        r#"{"kind":"machines","machines":0,"repairmen":1,"lambda":0.1,"mu":1}"#,
        r#"{"kind":"multiproc","n_proc":0,"n_mem":3,"lambda_p":1e-3,"lambda_m":1e-3,"coverage":0.9,"mu":1,"delta":2}"#,
        r#"{"kind":"multiproc","n_proc":3,"n_mem":0,"lambda_p":1e-3,"lambda_m":1e-3,"coverage":0.9,"mu":1,"delta":2}"#,
        r#"{"kind":"cyclic","n":0}"#,
        r#"{"kind":"cyclic","n":1}"#,
        r#"{"kind":"two_state","lambda":-1,"mu":1}"#,
        r#"{"kind":"duplex","lambda":-1,"mu":1,"coverage":0.9}"#,
        r#"{"kind":"raid","g":2,"sensitivity":{"param":"lambda_d","grid":[1e-320]}}"#,
        // Exit rates that overflow to infinity.
        r#"{"kind":"compose","components":[{"name":"a","count":1,"lambda":1e308,"mu":1},{"name":"b","count":1,"lambda":1e308,"mu":1}]}"#,
        r#"{"kind":"inline","rates":[[0,1,1e308],[0,1,1e308],[1,0,1]],"rewards":[0,1]}"#,
        r#"{"kind":"cyclic","n":3,"method":["sr"]}"#,
        r#"{"kind":"cyclic","n":3,"name":7}"#,
    ];
    for model in models {
        let spec = format!(r#"{{"horizons":[1],"models":[{model}]}}"#);
        let (status, body) = post(addr, "/sweep/report", &spec);
        assert_eq!(status, 400, "{model}: {body}");
        assert!(
            body.contains("bad_spec") || body.contains("model_build_failed"),
            "{model}: {body}"
        );
    }
    let (status, body) = post(
        addr,
        "/sweep/report",
        r#"{"horizons":[1],"method":5,"models":[{"kind":"cyclic","n":3}]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("must be a string"), "{body}");

    let stats = server.stats();
    assert_eq!(stats.bad_requests, 3 + models.len() as u64 + 1);
    assert_eq!(stats.handler_panics, 0);
    assert_eq!(stats.sweeps, 0, "no computation was started");
    shutdown(&server, addr, handle);
}

/// A horizon beyond the engine's `Λt` limit is a request failure that the
/// report and the stream summary name, not a handler panic and not a run
/// that grows the server until it is killed.
#[test]
fn horizon_beyond_the_lambda_t_limit_is_a_named_failure() {
    let (server, addr, handle) = start_server(default_cfg());
    let spec = r#"{"horizons":[1.0000001e10],"models":[{"kind":"two_state","lambda":1,"absorbing":true}]}"#;
    let (status, body) = post(addr, "/sweep/report", spec);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("above the limit 1e10"), "{body}");
    let (status, body) = post(addr, "/sweep", spec);
    assert_eq!(status, 200, "{body}");
    let summary = body.lines().last().expect("stream ends with a summary");
    assert!(summary.contains("above the limit 1e10"), "{summary}");
    assert_eq!(server.stats().handler_panics, 0);
    shutdown(&server, addr, handle);
}

/// A grid point whose rates underflow has other transitions than the
/// grid's first point, and is built on its own: served, the grid answers
/// what the offline sweep prints.
#[test]
fn grid_points_of_a_different_structure_serve_as_offline() {
    let (server, addr, handle) = start_server(default_cfg());
    let grid = |factors: &str| {
        format!(
            r#"{{"horizons":[1,10],"models":[{{"kind":"compose","components":[
                {{"name":"a","count":1,"lambda":0.001,"mu":1.0}},
                {{"name":"b","count":1,"lambda":0.001,"mu":1.0,"coverage":0.5,
                  "deps":[{{"on":"a","factor":0.5}}]}}],
                "sensitivity":{{"param":"lambda","grid":{factors}}}}}]}}"#
        )
    };
    // The first point fails as a model, the second solves.
    let spec = grid("[1e-321, 1]");
    let (status, body) = post(addr, "/sweep/report?stable=1", &spec);
    assert_eq!(status, 200, "{body}");
    let offline = SweepSpec::parse(&spec).expect("spec parses");
    let report = Engine::new().sweep(&offline.requests);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(
        body,
        format!("{}\n", regenr_engine::stable_report_to_json(&report))
    );
    assert!(
        body.contains("initial probability mass on absorbing state 0"),
        "{body}"
    );
    // The second point fails to build: the spec's fault.
    let (status, body) = post(addr, "/sweep/report?stable=1", &grid("[1, 1e-320]"));
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("compose model failed to build: model produced a non-positive or non-finite rate 0 out of state 1"),
        "{body}"
    );
    assert_eq!(server.stats().handler_panics, 0);
    shutdown(&server, addr, handle);
}

/// A compose spec asking for a state-space cap above the builder's limit
/// is a spec error the run owner answers before exploring anything: a 400
/// `bad_spec` naming the field, never a server that allocates until it
/// aborts.
#[test]
fn compose_cap_above_the_limit_is_a_400() {
    let (server, addr, handle) = start_server(default_cfg());
    let spec = r#"{"horizons":[1],"models":[{"kind":"compose","max_states":5000001,
        "components":[{"name":"m","count":2,"lambda":0.1,"mu":1.0}]}]}"#;
    let (status, body) = post(addr, "/sweep/report", spec);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_spec"), "{body}");
    assert!(body.contains("max_states"), "{body}");
    assert_eq!(server.stats().handler_panics, 0);
    let (status, body) = post(addr, "/sweep/report", SPEC_BODY);
    assert_eq!(status, 200, "the server keeps serving: {body}");
    shutdown(&server, addr, handle);
}

/// A body nested far past the parser's depth cap is a structured 400, not
/// a stack overflow that aborts the server.
#[test]
fn deeply_nested_body_is_a_400_and_the_server_survives() {
    let (server, addr, handle) = start_server(default_cfg());
    for target in ["/sweep/report", "/sweep"] {
        let (status, body) = post(addr, target, &"[".repeat(100_000));
        assert_eq!(status, 400, "{target}");
        assert!(body.contains("bad_spec"), "{body}");
        assert!(body.contains("depth limit of 128"), "{body}");
    }
    let (status, body) = http_request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, br#"{"status":"ok"}"#);
    assert_eq!(server.stats().bad_requests, 2);
    shutdown(&server, addr, handle);
}

/// A request head carrying a byte that is not UTF-8 is a counted 400, not
/// a connection closed with an empty reply, and the server keeps serving.
#[test]
fn non_utf8_head_is_a_counted_400() {
    use std::io::{Read, Write};
    let (server, addr, handle) = start_server(default_cfg());
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nX-Bad: \xff\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let (status, body) = regenr_engine::serve::http::parse_response(&raw).expect("a response");
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&raw));
    assert!(String::from_utf8_lossy(&body).contains("bad_request"));
    assert_eq!(server.stats().bad_requests, 1);
    let (status, body) = http_request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, br#"{"status":"ok"}"#);
    shutdown(&server, addr, handle);
}

/// A head declaring a body one byte over the cap is a counted 413 naming
/// the cap, answered before any body byte is sent, and the server keeps
/// serving.
#[test]
fn body_over_the_limit_is_a_counted_413() {
    use regenr_engine::serve::http::MAX_BODY_BYTES;
    use std::io::Write;
    let (server, addr, handle) = start_server(default_cfg());
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let (status, body) = regenr_engine::serve::http::parse_response(&raw).expect("a response");
    let body = String::from_utf8_lossy(&body);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("too_large"), "{body}");
    assert!(body.contains(&MAX_BODY_BYTES.to_string()), "{body}");
    let stats = server.stats();
    assert_eq!((stats.bad_requests, stats.requests), (1, 0));
    let (status, body) = http_request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, br#"{"status":"ok"}"#);
    shutdown(&server, addr, handle);
}

/// A `"debug_stall_ms"` of any length is an unknown spec key: a 400 that
/// never takes an admission slot, so such requests cannot hold the server,
/// and a distinct spec is still admitted right after.
#[test]
fn over_limit_stall_is_a_400_and_takes_no_slot() {
    let cfg = ServeConfig {
        max_inflight: 1,
        ..default_cfg()
    };
    let (server, addr, handle) = start_server(cfg);
    let stalls = [0, 40, 1_000, 1_001];
    for ms in stalls {
        let stall = format!(r#""debug_stall_ms":{ms}"#);
        for target in ["/sweep/report", "/sweep"] {
            let (status, body) = post(addr, target, &with_field(SPEC_BODY, &stall));
            assert_eq!(status, 400, "{target} {ms}: {body}");
            assert!(body.contains("bad_spec"), "{body}");
            assert!(
                body.contains(r#"unknown spec field(s): \"debug_stall_ms\""#),
                "{body}"
            );
        }
    }
    let stats = server.stats();
    assert_eq!(
        (stats.sweeps, stats.bad_requests),
        (0, 2 * stalls.len() as u64)
    );
    let (status, body) = post(addr, "/sweep/report", SPEC_BODY);
    assert_eq!(status, 200, "{body}");
    shutdown(&server, addr, handle);
}

/// Liveness, stats, routing errors, and graceful shutdown.
#[test]
fn lifecycle_healthz_stats_routing_and_drain() {
    let (server, addr, handle) = start_server(default_cfg());

    let (status, body) = http_request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, br#"{"status":"ok"}"#);

    let (status, _) = post(addr, "/sweep/report", SPEC_BODY);
    assert_eq!(status, 200);

    let (status, body) = http_request(addr, "GET", "/stats", "").unwrap();
    assert_eq!(status, 200);
    let doc = regenr_engine::Json::parse(&String::from_utf8(body).unwrap()).unwrap();
    let serve = doc.get("serve").expect("stats carries serve counters");
    assert_eq!(serve.get("sweeps").and_then(|n| n.as_f64()), Some(1.0));
    assert!(doc.get("cache").is_some(), "stats carries cache counters");

    let (status, _) = http_request(addr, "GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(addr, "GET", "/sweep", "").unwrap();
    assert_eq!(status, 405, "GET on a POST endpoint");

    // Graceful drain: the run loop returns once in-flight connections are
    // done (the join inside `shutdown` would hang forever otherwise).
    shutdown(&server, addr, handle);
    let stats = server.stats();
    assert_eq!(stats.sweeps, 1);
    assert_eq!(stats.bad_requests, 0);
}

/// An idle server accepts a connection as soon as it arrives, not when a
/// timer next fires: back-to-back health checks each take well under the
/// accept loop's 5 ms wait.
#[test]
fn back_to_back_requests_do_not_wait_for_a_tick() {
    let (server, addr, handle) = start_server(default_cfg());
    let mut took: Vec<Duration> = (0..20)
        .map(|_| {
            let start = Instant::now();
            let (status, _) = http_request(addr, "GET", "/healthz", "").unwrap();
            assert_eq!(status, 200);
            start.elapsed()
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median {median:?} over {took:?}"
    );
    shutdown(&server, addr, handle);
}

/// On an idle server, `run()` returns promptly once `POST /shutdown` is
/// answered: the accept loop notices the request within one poll timeout,
/// and the drain wakes as soon as the last connection thread ends.
#[test]
fn shutdown_returns_promptly_on_an_idle_server() {
    let (_server, addr, handle) = start_server(default_cfg());
    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    let answered = Instant::now();
    handle.join().expect("run() returns after drain");
    let took = answered.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "run() returned after {took:?}"
    );
}

/// A 14 KB body of 1,000 horizons near the `Λt` limit would open about
/// 29 GB of Poisson windows. The engine refuses it at plan time: both
/// endpoints name the failure fast, and no handler panics.
#[test]
fn a_thousand_horizons_near_the_lambda_t_limit_are_a_named_failure() {
    let (server, addr, handle) = start_server(default_cfg());
    let horizons: Vec<String> = (0..1000)
        .map(|i| format!("{}", 9e9 + 1e6 * i as f64))
        .collect();
    let spec = format!(
        r#"{{"horizons":[{}],"models":[{{"kind":"two_state","lambda":1e-3,"mu":1}}]}}"#,
        horizons.join(",")
    );
    for target in ["/sweep/report", "/sweep"] {
        let start = Instant::now();
        let (status, body) = post(addr, target, &spec);
        let took = start.elapsed();
        assert_eq!(status, 200, "{target}: {body}");
        assert!(took < Duration::from_secs(1), "{target} took {took:?}");
        assert!(
            body.contains("1000 horizons need Poisson windows")
                && body.contains("above the limit 5e6"),
            "{target}: {body}"
        );
    }
    assert_eq!(server.stats().handler_panics, 0);
    shutdown(&server, addr, handle);
}

/// The run belongs to its owner, not to the connection that started it:
/// when the first of two streaming clients hangs up after the headers, the
/// other still gets the whole stream, from the same single computation.
#[test]
fn first_client_hanging_up_leaves_the_run_to_the_others() {
    let (server, addr, handle) = start_server(default_cfg());

    let mut first = TcpStream::connect(addr).unwrap();
    send_request_head(&mut first, "POST", "/sweep", LONG_SPEC).unwrap();
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        first.read_exact(&mut byte).expect("response headers");
        head.push(byte[0]);
    }
    assert!(head.starts_with(b"HTTP/1.1 200"), "{head:?}");

    let second = std::thread::spawn(move || post(addr, "/sweep", LONG_SPEC));
    wait_until("second client subscribed", || server.stats().coalesced == 1);
    drop(first);

    let (status, body) = second.join().unwrap();
    assert_eq!(status, 200);
    let summary = regenr_engine::Json::parse(body.lines().last().unwrap()).unwrap();
    assert_eq!(summary.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(summary.get("cells").and_then(|n| n.as_f64()), Some(4.0));
    assert_eq!(body.lines().count(), 5, "four cells and the summary");
    let stats = server.stats();
    assert_eq!((stats.sweeps, stats.handler_panics), (1, 0));
    shutdown(&server, addr, handle);
}

/// Running out of file descriptors is an accept error to wait out, not a
/// reason to exit: idle connections fill a small descriptor limit, and the
/// server keeps running, then serves and drains once they close.
#[cfg(unix)]
#[test]
fn running_out_of_descriptors_does_not_end_the_server() {
    use std::process::{Command, Stdio};
    let mut child = Command::new("sh")
        .args([
            "-c",
            r#"ulimit -n 64 && exec "$0" serve --addr 127.0.0.1:0"#,
            env!("CARGO_BIN_EXE_regenr"),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn regenr serve");
    let mut log = BufReader::new(child.stderr.take().unwrap());
    let addr: SocketAddr = loop {
        let mut line = String::new();
        assert!(
            log.read_line(&mut line).unwrap() > 0,
            "exited before listening"
        );
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().unwrap().parse().unwrap();
        }
    };
    // Keep reading the log, so the exit summary never meets a closed pipe.
    let log = std::thread::spawn(move || std::io::copy(&mut log, &mut std::io::sink()));

    let idle: Vec<TcpStream> = (0..100)
        .filter_map(|_| TcpStream::connect(addr).ok())
        .collect();
    #[cfg(target_os = "linux")]
    let cpu_before = cpu_ticks(child.id());
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        child.try_wait().unwrap().is_none(),
        "the server exited while idle connections held its descriptors"
    );
    assert_eq!(idle.len(), 100, "every idle connection got through");
    // The listener stays readable while connections queue, so an accept
    // loop without its back-off would spin through the whole window.
    #[cfg(target_os = "linux")]
    {
        let spent = cpu_ticks(child.id()) - cpu_before;
        assert!(
            spent < 10,
            "the server used {spent} ticks (10 ms each) of CPU in 300 ms"
        );
    }
    drop(idle);
    wait_until("healthz", || {
        matches!(http_request(addr, "GET", "/healthz", ""), Ok((200, _)))
    });
    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    assert!(
        child.wait().unwrap().success(),
        "clean exit after the drain"
    );
    log.join().unwrap().unwrap();
}

/// User plus system CPU time of process `pid`, in the clock ticks of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 per second on Linux).
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("/proc/<pid>/stat");
    // Fields after the parenthesized command name, from field 3 (state);
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .expect("stat has a command name")
        .1
        .split_whitespace()
        .collect();
    let field = |n: usize| fields[n - 3].parse::<u64>().expect("numeric tick count");
    field(14) + field(15)
}

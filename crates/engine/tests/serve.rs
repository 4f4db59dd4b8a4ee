//! Wire-level tests for `regenr serve`: coalescing, deadlines, admission
//! control, validation errors, and graceful lifecycle — all against a real
//! listener on a loopback port.

use regenr_engine::serve::http::http_request;
use regenr_engine::{Engine, ServeConfig, Server, SweepSpec};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small but multi-cell workload: 4 horizons × 1 model = 4 sweep jobs.
const SPEC_BODY: &str =
    r#"{"horizons":[1, 10, 100, 1000], "models":[{"kind":"cyclic","n":6}], "epsilon":1e-10}"#;

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
    // The stall keeps the leader's run in flight long enough for the
    // second request to attach deterministically.
    let spec = with_field(SPEC_BODY, r#""debug_stall_ms":400"#);

    let leader_spec = spec.clone();
    let leader_addr = addr;
    let leader =
        std::thread::spawn(move || post(leader_addr, "/sweep/report?stable=1", &leader_spec));
    wait_until("leader admitted", || server.stats().sweeps == 1);
    let (f_status, f_body) = post(addr, "/sweep/report?stable=1", &spec);
    let (l_status, l_body) = leader.join().unwrap();

    assert_eq!((l_status, f_status), (200, 200));
    assert_eq!(l_body, f_body, "coalesced bodies must be byte-identical");
    let stats = server.stats();
    assert_eq!(stats.sweeps, 1, "one computation for two requests");
    assert_eq!(stats.coalesced, 1);
    assert_eq!(stats.rejected, 0);

    // The engine ran the sweep once: exactly as many cache builds as a
    // single offline run of the same spec performs.
    let offline = Engine::new();
    let offline_spec = SweepSpec::parse(SPEC_BODY).expect("spec parses");
    let offline_report = offline.sweep(&offline_spec.requests);
    assert_eq!(
        server.engine().cache().stats().uniformized.misses,
        offline_report.cache.uniformized.misses,
        "followers must not touch the engine"
    );
    // Served stable body == offline stable report (plus the CLI newline).
    let offline_body = format!(
        "{}\n",
        regenr_engine::stable_report_to_json(&offline_report)
    );
    assert_eq!(l_body, offline_body, "served --stable must match offline");

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
    let stalled = with_field(SPEC_BODY, r#""debug_stall_ms":500"#);

    let leader_spec = stalled.clone();
    let leader = std::thread::spawn(move || post(addr, "/sweep", &leader_spec));
    wait_until("leader admitted", || server.stats().sweeps == 1);

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

    // Identical spec: coalesces onto the in-flight run, no slot needed.
    let (status, _body) = post(addr, "/sweep/report", &stalled);
    assert_eq!(status, 200);
    let (status, _) = leader.join().unwrap();
    assert_eq!(status, 200);

    let stats = server.stats();
    assert_eq!(stats.sweeps, 1);
    assert_eq!(stats.coalesced, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.inflight_highwater, 1);

    shutdown(&server, addr, handle);
}

/// Spec validation surfaces as structured 400s: unknown keys are named,
/// engine-wide knobs are refused, bad JSON reports its offset.
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

    assert_eq!(server.stats().bad_requests, 3);
    assert_eq!(server.stats().sweeps, 0, "no computation was started");
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

/// `debug_stall_ms` above its cap is a spec error: a 400 that never takes
/// an admission slot, so a handful of such requests cannot wedge the
/// server, and a distinct spec is still admitted right after.
#[test]
fn over_limit_stall_is_a_400_and_takes_no_slot() {
    let cfg = ServeConfig {
        max_inflight: 1,
        ..default_cfg()
    };
    let (server, addr, handle) = start_server(cfg);
    let stall = format!(
        r#""debug_stall_ms":{}"#,
        regenr_engine::spec::MAX_DEBUG_STALL_MS + 1
    );
    for target in ["/sweep/report", "/sweep"] {
        let (status, body) = post(addr, target, &with_field(SPEC_BODY, &stall));
        assert_eq!(status, 400, "{target}: {body}");
        assert!(body.contains("bad_spec"), "{body}");
        assert!(body.contains("debug_stall_ms"), "{body}");
    }
    let stats = server.stats();
    assert_eq!((stats.sweeps, stats.bad_requests), (0, 2));
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

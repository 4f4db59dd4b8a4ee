//! Fault-injection tests — compiled only with `--features failpoints`.
//!
//! The failpoint registry is process-global, so every test here serializes
//! on [`REGISTRY`] and clears the registry on entry and exit; this file is
//! its own integration binary, so the unarmed engine/serve suites never see
//! an armed registry.

#![cfg(feature = "failpoints")]

use regenr_engine::serve::http::http_request;
use regenr_engine::serve::RUN_RETRIES;
use regenr_engine::{Engine, Json, Method, ServeConfig, Server, SweepSpec};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static REGISTRY: Mutex<()> = Mutex::new(());

/// Serializes the process-global registry and guarantees a clean slate on
/// entry and (via `Drop`) on exit, even when the test panics.
fn armed(spec: &str) -> MutexGuard<'static, ()> {
    let guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    regenr_failpoint::clear();
    regenr_failpoint::configure(spec).expect("failpoint spec parses");
    guard
}

struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        regenr_failpoint::clear();
    }
}

fn sweep(spec_body: &str) -> regenr_engine::SweepReport {
    let spec = SweepSpec::parse(spec_body).expect("spec parses");
    Engine::new().sweep(&spec.requests)
}

/// An injected NaN fails the health check and the supervisor walks the
/// fallback chain: RRL's corrupted inversion recovers on RR, annotated on
/// the cell and counted in the sweep's robustness aggregate.
#[test]
fn injected_nan_recovers_via_the_fallback_chain() {
    let _lock = armed("rrl-nan=nan,count=1");
    let _clean = Disarm;
    let report = sweep(
        r#"{"horizons":[10000],"method":"rrl",
            "models":[{"kind":"raid","g":8,"absorbing":true}],"epsilon":1e-10}"#,
    );
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let cell = &report.reports[0];
    assert_eq!(cell.method, Method::Rr, "RRL's first fallback is RR");
    assert_eq!(cell.recovered_via, Some(Method::Rr));
    assert_eq!(cell.attempts, 2);
    assert!(cell.value.is_finite() && cell.value >= 0.0);
    assert_eq!(report.robustness.health_failures, 1);
    assert_eq!(report.robustness.fallbacks, 1);
    assert_eq!(report.robustness.recovered_cells, 1);
}

/// A chunk panic mid-SpMV is caught by the supervisor, the worker's arenas
/// are discarded, and the *same* method is retried under the request's
/// `max_retries` budget — no fallback, so `recovered_via` stays `None`.
#[test]
fn chunk_panic_retries_the_same_method() {
    let _lock = armed("pool-chunk=panic,count=1");
    let _clean = Disarm;
    let report = sweep(
        r#"{"horizons":[10000],"max_retries":2,
            "models":[{"kind":"raid","g":20}],"epsilon":1e-10}"#,
    );
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let cell = &report.reports[0];
    assert_eq!(cell.attempts, 2, "one panic, one clean retry");
    assert_eq!(cell.recovered_via, None, "same method, not a fallback");
    assert!(report.robustness.retries >= 1);
    assert_eq!(report.robustness.recovered_cells, 1);
}

/// When every retry and fallback is exhausted the failure surfaces as
/// *infrastructure* (the serve layer's 5xx basis) — never as a model error.
#[test]
fn exhausted_recovery_is_an_infrastructure_failure() {
    // `every=1`: the fault re-fires on the retry and on every fallback.
    let _lock = armed("sr-nan=nan,every=1");
    let _clean = Disarm;
    let report = sweep(
        r#"{"horizons":[1],"method":"sr","max_retries":1,
            "models":[{"kind":"cyclic","n":4}],"epsilon":1e-10}"#,
    );
    assert!(report.reports.is_empty());
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert!(
        failure.infrastructure,
        "an injected fault must never masquerade as a model error: {}",
        failure.error
    );
    assert!(failure.error.contains("health"), "{}", failure.error);
    assert!(report.robustness.health_failures >= 2, "retry also failed");
}

/// A request whose deadline expires while its run's owner is killed. The
/// owner's retry must bring every subscriber back with a *clean* status
/// (`deadline` or `ok`, depending on who wins the race) — none may hang
/// or see a malformed stream.
#[test]
fn deadline_expiry_racing_owner_death_stays_clean() {
    let _lock = armed("serve-owner=panic,count=1");
    let _clean = Disarm;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let runner = Arc::clone(&server);
    let run_handle = std::thread::spawn(move || runner.run().expect("accept loop"));

    // The stall lets every client subscribe before the injected death; the
    // deadline (measured from each compute attempt) expires mid-stall, so
    // the retried attempt races deadline expiry by construction.
    let spec = r#"{"horizons":[1,10,100,1000],"models":[{"kind":"cyclic","n":6}],
                   "epsilon":1e-10,"debug_stall_ms":300,"deadline_ms":100}"#;
    let (tx, rx) = std::sync::mpsc::channel();
    for _ in 0..4 {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let (status, body) = http_request(addr, "POST", "/sweep", spec).expect("request");
            let _ = tx.send((status, String::from_utf8_lossy(&body).into_owned()));
        });
    }
    drop(tx);
    for i in 0..4 {
        let (status, body) = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("client {i} hung: a subscriber was stranded"));
        assert_eq!(status, 200, "{body}");
        let summary = body.lines().last().expect("stream ends with a summary");
        let doc = Json::parse(summary).expect("summary is valid JSON");
        assert_eq!(doc.get("record").and_then(|s| s.as_str()), Some("summary"));
        let status = doc.get("status").and_then(|s| s.as_str()).unwrap();
        assert!(
            status == "deadline" || status == "ok",
            "clean terminal status required, got {status:?}: {summary}"
        );
        for line in body.lines().filter(|l| *l != summary) {
            let cell = Json::parse(line).expect("cell line is valid JSON");
            assert_eq!(cell.get("record").and_then(|s| s.as_str()), Some("cell"));
        }
    }
    assert!(
        server.stats().run_retries >= 1,
        "the owner must have retried the attempt that died"
    );

    // The server survived the race: the same spec, unarmed and undeadlined,
    // completes fully.
    let clean = r#"{"horizons":[1,10],"models":[{"kind":"cyclic","n":6}],"epsilon":1e-10}"#;
    let (status, body) = http_request(addr, "POST", "/sweep/report", clean).expect("request");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

    let (status, _) = http_request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    run_handle.join().expect("drain");
}

/// A run whose owner dies on every attempt reports `503 infrastructure`
/// on `/sweep/report` — the spec was fine, the infrastructure was not, and
/// the client may simply retry.
#[test]
fn lone_leader_death_is_a_503_not_a_model_error() {
    // `every=1` keeps killing the owner through its entire retry budget.
    let _lock = armed("serve-owner=panic,every=1");
    let _clean = Disarm;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let runner = Arc::clone(&server);
    let run_handle = std::thread::spawn(move || runner.run().expect("accept loop"));

    let spec = r#"{"horizons":[1],"models":[{"kind":"cyclic","n":4}],"epsilon":1e-10}"#;
    let (status, body) = http_request(addr, "POST", "/sweep/report", spec).expect("request");
    let body = String::from_utf8_lossy(&body);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("infrastructure"), "{body}");
    let stats = server.stats();
    assert_eq!(stats.run_retries, u64::from(RUN_RETRIES));
    assert_eq!(stats.handler_panics, u64::from(RUN_RETRIES) + 1);

    // Disarmed, the identical request succeeds — proof the 503 described
    // the infrastructure, not the spec.
    regenr_failpoint::clear();
    let (status, _) = http_request(addr, "POST", "/sweep/report", spec).expect("request");
    assert_eq!(status, 200);

    let (status, _) = http_request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    run_handle.join().expect("drain");
}

/// Coalesced requests never build the spec: the run's owner builds it
/// once, and every other connection only parses the document. A delay of
/// zero at the model-build site counts the builds without changing them.
#[test]
fn coalesced_requests_build_the_spec_once() {
    let _lock = armed("ctmc-csr-build=delay:0");
    let _clean = Disarm;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let runner = Arc::clone(&server);
    let run_handle = std::thread::spawn(move || runner.run().expect("accept loop"));

    let spec = r#"{"horizons":[1,10],"debug_stall_ms":300,"epsilon":1e-10,
                   "models":[{"kind":"compose","components":[
                     {"name":"m","count":3,"lambda":0.1,"mu":1.0}]}]}"#;
    let clients: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || http_request(addr, "POST", "/sweep/report", spec)))
        .collect();
    let bodies: Vec<Vec<u8>> = clients
        .into_iter()
        .map(|c| {
            let (status, body) = c.join().unwrap().expect("request");
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
            body
        })
        .collect();
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "one run, one body");
    let stats = server.stats();
    assert_eq!((stats.sweeps, stats.coalesced), (1, 7));
    assert_eq!(regenr_failpoint::fired_count("ctmc-csr-build"), 1);

    let (status, _) = http_request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    run_handle.join().expect("drain");
}

/// A panic while the run's owner builds the spec is the server's fault:
/// every subscriber gets `503 infrastructure`, the panic counts once, and
/// the identical spec builds and runs once the fault is gone.
#[test]
fn owner_build_panic_is_a_503() {
    let _lock = armed("ctmc-csr-build=panic,count=1");
    let _clean = Disarm;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let runner = Arc::clone(&server);
    let run_handle = std::thread::spawn(move || runner.run().expect("accept loop"));

    let spec = r#"{"horizons":[1],"epsilon":1e-10,"models":[{"kind":"compose",
                   "components":[{"name":"m","count":2,"lambda":0.1,"mu":1.0}]}]}"#;
    let (status, body) = http_request(addr, "POST", "/sweep/report", spec).expect("request");
    let body = String::from_utf8_lossy(&body);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("infrastructure"), "{body}");
    let stats = server.stats();
    assert_eq!((stats.handler_panics, stats.sweeps), (1, 0));
    let (status, _) = http_request(addr, "POST", "/sweep/report", spec).expect("request");
    assert_eq!(status, 200);

    let (status, _) = http_request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    run_handle.join().expect("drain");
}

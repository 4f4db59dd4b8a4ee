//! Deterministic fuzzing of the two parsers that face the network: byte
//! mutations of every `specs/*.json` through `Json::parse` and
//! `SweepSpec::from_json`, and mutated raw request heads through
//! `read_request`. Nothing may panic (or abort the test process), every
//! error must say what was wrong, and every case must return within a
//! fixed time bound. The proptest shim seeds each property from its name,
//! so every run replays the same cases.

use proptest::prelude::*;
use proptest::TestRng;
use regenr_engine::serve::http::{read_request, HttpError, MAX_BODY_BYTES};
use regenr_engine::{Json, SweepSpec};
use std::time::{Duration, Instant};

/// Wall-clock bound per case. Both parsers are linear in their input; a
/// case this slow means one is looping, backtracking, or building a model
/// far beyond what the input describes.
const CASE_BOUND: Duration = Duration::from_secs(2);

/// Bytes a mutation inserts besides random ones: JSON and HTTP syntax, a
/// non-UTF-8 byte, NUL.
const SYNTAX: &[u8] = b"{}[]\":,-+.0123456789eE\\ \r\n\t:/?\xff\x00";

/// Every `specs/*.json`, sorted by name.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut specs: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("specs/ directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("readable spec"))
        })
        .collect();
    specs.sort();
    assert!(specs.len() >= 8, "corpus went missing: {specs:?}");
    specs
}

/// One to four byte-level mutations: flip a bit, insert a byte, delete a
/// byte, duplicate a span, or truncate.
fn mutate(bytes: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + rng.below(4) {
        let len = out.len();
        let at = rng.below(len as u64 + 1) as usize;
        match rng.below(5) {
            0 if at < len => out[at] ^= 1 << rng.below(8),
            1 => {
                let byte = if rng.below(2) == 0 {
                    SYNTAX[rng.below(SYNTAX.len() as u64) as usize]
                } else {
                    rng.below(256) as u8
                };
                out.insert(at, byte);
            }
            2 if at < len => {
                out.remove(at);
            }
            3 if at < len => {
                let end = (at + 1 + rng.below(32) as usize).min(len);
                let span = out[at..end].to_vec();
                out.splice(at..at, span);
            }
            _ => out.truncate(at),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1000, ..Default::default() })]

    /// Mutated corpus specs through the JSON parser and the spec parser.
    /// The text is decoded lossily, as the CLI reading a file would see
    /// it (the server rejects a non-UTF-8 body before parsing).
    #[test]
    fn mutated_specs_fail_cleanly(pick in 0usize..1 << 16, seed in 0u64..1 << 48) {
        let specs = corpus();
        let (name, bytes) = &specs[pick % specs.len()];
        let mutated = mutate(bytes, &mut TestRng::from_seed(seed));
        let text = String::from_utf8_lossy(&mutated);
        let started = Instant::now();
        match Json::parse(&text) {
            Err(e) => prop_assert!(!e.to_string().is_empty(), "{name}: empty JSON error"),
            Ok(doc) => {
                if let Err(e) = SweepSpec::from_json(&doc) {
                    prop_assert!(!e.is_empty(), "{name}: empty spec error for {text}");
                }
            }
        }
        let took = started.elapsed();
        prop_assert!(took < CASE_BOUND, "{name}: took {took:?} on {text}");
    }

    /// Mutated request heads (with and without a body) through the request
    /// reader, under the server's body cap.
    #[test]
    fn mutated_request_heads_fail_cleanly(pick in 0usize..2, seed in 0u64..1 << 48) {
        let heads: [&[u8]; 2] = [
            b"POST /sweep/report?stable=1 HTTP/1.1\r\nHost: regenr\r\n\
              Content-Length: 17\r\nConnection: close\r\n\r\n{\"horizons\": [1]}",
            b"GET /healthz HTTP/1.1\r\nHost: regenr\r\n\r\n",
        ];
        let mutated = mutate(heads[pick], &mut TestRng::from_seed(seed));
        let started = Instant::now();
        match read_request(&mutated[..]) {
            Ok(req) => prop_assert!(req.body.len() <= MAX_BODY_BYTES),
            Err(HttpError::Malformed(what)) => prop_assert!(!what.is_empty()),
            Err(HttpError::Io(e)) => prop_assert!(!e.to_string().is_empty()),
            Err(HttpError::TooLarge) => {}
        }
        let took = started.elapsed();
        prop_assert!(
            took < CASE_BOUND,
            "took {took:?} on {:?}",
            String::from_utf8_lossy(&mutated)
        );
    }
}

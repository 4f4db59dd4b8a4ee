//! The run's result line and the per-layer metric set of a traced run.

use crate::trace::{probe_stepping, probe_stream, ReplayCounts, Tracer};
use crate::Ctx;
use regenr_ctmc::Uniformized;
use regenr_engine::Json;
use std::collections::HashSet;
use std::time::Duration;

/// The result of one run: the gate's tallies, the metrics, and the
/// environment facts recorded beside them.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub env: Vec<(String, Json)>,
}

impl Outcome {
    pub fn new(tally: &Tally) -> Outcome {
        Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: Vec::new(),
            env: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn env(&mut self, key: &str, value: Json) {
        self.env.push((key.to_string(), value));
    }

    /// Correct when every request passed its gate and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The last line of standard output.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Requests sent and requests that failed the correctness gate.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one gated request, logging why it failed; returns its value
    /// when it passed.
    pub fn record<T>(&mut self, workload: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(why) => {
                self.failed += 1;
                eprintln!("perfbench {workload}: request failed: {why}");
                None
            }
        }
    }
}

/// Artifact-cache pool names, as the program exports them.
const POOLS: [&str; 3] = ["structure", "uniformized", "regen_params"];

/// Everything a traced run measures, before it becomes metrics.
#[derive(Default)]
pub struct Layers {
    /// Requests the program-exported counters below were summed over.
    pub program_requests: f64,
    pub pool_hits: [f64; 3],
    pub pool_misses: [f64; 3],
    pub evictions: f64,
    pub cache_bytes: f64,
    pub stolen_chunks: Option<f64>,
    pub fresh_allocs: Option<f64>,
    pub retries: f64,
    pub fallbacks: f64,
    pub coalesced: f64,
    pub rejected: f64,
    /// Front end: medians per request (process spawn / first stdout byte /
    /// wall minus the report's own wall for the CLI; TCP connect / first
    /// response byte / latency minus `wall_seconds` for the service).
    pub connect_ms: f64,
    pub ttfb_ms: f64,
    pub overhead_ms: f64,
    pub untraced_cpu_ms: f64,
    pub traced_cpu_ms: f64,
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut v = doc;
    for k in path {
        match v.get(k) {
            Some(x) => v = x,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

impl Layers {
    /// Adds one CLI report's exported counters (`"cache"`, `"execution"`).
    pub fn add_report_counters(&mut self, doc: &Json) {
        for (i, pool) in POOLS.iter().enumerate() {
            self.pool_hits[i] += num(doc, &["cache", pool, "hits"]);
            self.pool_misses[i] += num(doc, &["cache", pool, "misses"]);
            self.evictions += num(doc, &["cache", pool, "evictions"]);
        }
        self.cache_bytes = POOLS.iter().map(|p| num(doc, &["cache", p, "bytes"])).sum();
        *self.stolen_chunks.get_or_insert(0.0) += num(doc, &["execution", "pool", "stolen_chunks"]);
        *self.fresh_allocs.get_or_insert(0.0) +=
            num(doc, &["execution", "workspace", "fresh_allocs"]);
        self.retries += num(doc, &["execution", "robustness", "retries"]);
        self.fallbacks += num(doc, &["execution", "robustness", "fallbacks"]);
    }

    /// Adds the difference of two `GET /stats` documents.
    pub fn add_stats_delta(&mut self, before: &Json, after: &Json) {
        let d = |path: &[&str]| num(after, path) - num(before, path);
        for (i, pool) in POOLS.iter().enumerate() {
            self.pool_hits[i] += d(&["cache", pool, "hits"]);
            self.pool_misses[i] += d(&["cache", pool, "misses"]);
            self.evictions += d(&["cache", pool, "evictions"]);
        }
        self.cache_bytes = POOLS
            .iter()
            .map(|p| num(after, &["cache", p, "bytes"]))
            .sum();
        self.retries += d(&["robustness", "retries"]);
        self.fallbacks += d(&["robustness", "fallbacks"]);
        self.coalesced += d(&["serve", "coalesced"]);
        self.rejected += d(&["serve", "rejected"]);
    }

    /// Turns spans, replay counts and probes into the per-layer metrics of
    /// `out`, and writes the spans to a Chrome trace file.
    pub fn finish(
        &self,
        ctx: &Ctx,
        tracer: &mut Tracer,
        requests: &HashSet<u64>,
        counts: ReplayCounts,
        largest: Option<&Uniformized>,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let n = requests.len().max(1) as f64;
        // Probe spans belong to no request.
        tracer.request = 0;
        let step = largest.map(|u| probe_stepping(tracer, u, Duration::from_millis(150)));
        let self_ms = tracer.self_times(requests);
        let ms = |name: &str| self_ms.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3) / n;
        let per = |x: u64| x as f64 / n;

        // Stepping, with the machine's streaming bandwidth beside it.
        let l2 = crate::sys::cache_bytes(2).unwrap_or(0);
        let llc = crate::sys::last_level_cache().unwrap_or(0);
        // Each array at least 4× the last-level cache (64 MiB in smoke
        // mode), but the two never take more than half the free memory.
        let stream_bytes = if ctx.smoke {
            64 << 20
        } else {
            (4 * llc)
                .max(64 << 20)
                .min(crate::sys::mem_available_bytes().unwrap_or(usize::MAX) / 4)
        };
        let stream_gbps = probe_stream(stream_bytes);
        match &step {
            Some(p) => {
                out.metric("sparse.step_us", p.step_us, "us");
                out.metric("sparse.bytes_per_step", p.bytes_per_step as f64, "B");
                out.metric(
                    "sparse.step_gbps",
                    p.bytes_per_step as f64 / (p.step_us * 1e3),
                    "GB/s",
                );
                out.metric("sparse.matrix_mb", p.matrix_bytes as f64 / 1e6, "MB");
                out.metric(
                    "sparse.cache_resident",
                    if p.matrix_bytes <= l2 { 1.0 } else { 0.0 },
                    "count",
                );
            }
            None => {
                for (name, unit) in [
                    ("sparse.step_us", "us"),
                    ("sparse.bytes_per_step", "B"),
                    ("sparse.step_gbps", "GB/s"),
                    ("sparse.matrix_mb", "MB"),
                    ("sparse.cache_resident", "count"),
                ] {
                    out.metric(name, 0.0, unit);
                }
            }
        }
        out.metric("sparse.stream_gbps", stream_gbps, "GB/s");
        out.metric("sparse.stream_array_mb", stream_bytes as f64 / 1e6, "MB");
        out.metric("sparse.plan_ms", ms("sparse.plan"), "ms");
        out.metric("sparse.products", per(counts.products), "count");
        let stolen = self.stolen_chunks.map_or(per(counts.stolen_chunks), |s| {
            s / self.program_requests.max(1.0)
        });
        out.metric("pool.stolen_chunks", stolen, "count");

        // Baseline solvers.
        out.metric("transient.rsd_ms", ms("transient.rsd"), "ms");
        out.metric("transient.sr_ms", ms("transient.sr"), "ms");
        out.metric("transient.adaptive_ms", ms("transient.adaptive"), "ms");
        out.metric("transient.steps", per(counts.transient_steps), "count");

        // RRL.
        out.metric("core.regen_params_ms", ms("core.parameters_with"), "ms");
        out.metric("core.regen_steps", per(counts.regen_steps), "count");
        out.metric("laplace.invert_ms", ms("laplace.invert_params"), "ms");
        out.metric("laplace.abscissae", per(counts.abscissae), "count");

        // Model build: `SweepSpec::from_json` builds and fingerprints every
        // model; the fingerprint replay splits the two.
        let spec_ms = ms("spec.from_json");
        let fps_ms = ms("fingerprint.model_fps");
        out.metric("spec.build_ms", spec_ms, "ms");
        out.metric("models.build_ms", (spec_ms - fps_ms).max(0.0), "ms");
        out.metric("fingerprint.fps_ms", fps_ms, "ms");
        out.metric("ctmc.states", per(counts.states), "count");
        out.metric("ctmc.nnz", per(counts.nnz), "count");

        // Artifact reuse.
        out.metric("ctmc.facts_ms", ms("cache.facts_for"), "ms");
        out.metric("ctmc.uniformize_ms", ms("ctmc.uniformized_new"), "ms");
        out.metric("ctmc.rebind_ms", ms("ctmc.rebind_values"), "ms");
        out.metric("cache.rebinds", per(counts.rebinds), "count");
        out.metric("cache.derived_hits", per(counts.derived_hits), "count");

        // Cache (program-exported counters).
        let pr = self.program_requests.max(1.0);
        for (i, pool) in POOLS.iter().enumerate() {
            let lookups = self.pool_hits[i] + self.pool_misses[i];
            let ratio = if lookups > 0.0 {
                self.pool_hits[i] / lookups
            } else {
                0.0
            };
            out.metric(&format!("cache.{pool}.hit_ratio"), ratio, "ratio");
            out.metric(&format!("cache.{pool}.lookups"), lookups / pr, "count");
        }
        out.metric("cache.evictions", self.evictions / pr, "count");
        out.metric("cache.bytes", self.cache_bytes, "B");

        // Front end.
        out.metric("json.parse_ms", ms("json.parse"), "ms");
        out.metric("json.serialize_ms", ms("json.serialize"), "ms");
        out.metric("serve.connect_ms", self.connect_ms, "ms");
        out.metric("serve.ttfb_ms", self.ttfb_ms, "ms");
        out.metric("serve.overhead_ms", self.overhead_ms, "ms");
        out.metric("serve.coalesced", self.coalesced, "count");
        out.metric("serve.rejected", self.rejected, "count");

        // Supervision.
        out.metric("engine.retries", self.retries / pr, "count");
        out.metric("engine.fallbacks", self.fallbacks / pr, "count");
        let fresh = self
            .fresh_allocs
            .map_or(per(counts.fresh_allocs), |f| f / pr);
        out.metric("workspace.fresh_allocs", fresh, "count");

        // The trace itself.
        out.metric("trace.requests", n, "count");
        out.metric("trace.spans", tracer.spans.len() as f64, "count");
        out.metric("trace.cpu_ms_per_req", self.traced_cpu_ms, "ms");
        out.metric(
            "trace.overhead_cpu_ms",
            self.traced_cpu_ms - self.untraced_cpu_ms,
            "ms",
        );

        let path = ctx
            .out
            .join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
        tracer
            .write_chrome_trace(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(p) = &step {
            eprintln!(
                "perfbench {}: stepping probe on {} states / {} nnz: Pᵀ+layout {:.3} MB \
                 ({}), stream probe arrays {:.0} MB each (LLC {:.0} MB)",
                ctx.workload,
                p.states,
                p.nnz,
                p.matrix_bytes as f64 / 1e6,
                if p.matrix_bytes <= l2 {
                    "cache-resident: no roofline ratio"
                } else {
                    "beyond L2"
                },
                stream_bytes as f64 / 1e6,
                llc as f64 / 1e6,
            );
        }
        Ok(())
    }
}

//! The traced run's instruments: an in-memory span recorder, a serial
//! replay of a request through the engine's public layer functions (the
//! same calls `Engine::run_job` makes, each wrapped in a span), and the
//! stepping and streaming-bandwidth probes.
//!
//! Spans come only from this harness's own calls into the layers; the
//! program itself is not instrumented.

use regenr_ctmc::Uniformized;
use regenr_engine::{
    build_solver, model_fps, report_to_json, ArtifactCache, CacheConfig, Engine, EngineSolution,
    Json, Method, SolveConfig, SolveReport, Solver, SweepReport, SweepSpec,
};
use regenr_sparse::{WorkerPool, Workspace};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span: a call into a layer's public function.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.open(name);
        let out = f(self);
        self.close(idx);
        out
    }

    fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.origin.elapsed();
        self.stack.pop();
    }

    /// Renames a finished span (classification known only after the call).
    fn rename(&mut self, idx: usize, name: &'static str) {
        self.spans[idx].name = name;
    }

    /// Records a span measured elsewhere, with its children.
    pub fn record_tree(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        children: &[(&'static str, Instant, Instant)],
    ) {
        let rel = |t: Instant| t.saturating_duration_since(self.origin);
        let parent = self.spans.len();
        self.spans.push(Span {
            name,
            start: rel(start),
            end: rel(end),
            parent: self.stack.last().copied(),
            request: self.request,
        });
        for &(child, s, e) in children {
            self.spans.push(Span {
                name: child,
                start: rel(s),
                end: rel(e),
                parent: Some(parent),
                request: self.request,
            });
        }
    }

    /// Self time per span name (span duration minus the part its children
    /// cover), summed over spans of the requests in `requests`.
    pub fn self_times(&self, requests: &HashSet<u64>) -> BTreeMap<&'static str, Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if requests.contains(&s.request) {
                let own = s.end.saturating_sub(s.start).saturating_sub(child[i]);
                *out.entry(s.name).or_insert(Duration::ZERO) += own;
            }
        }
        out
    }

    /// Writes every span as Chrome trace-event JSON (viewable in Perfetto):
    /// complete events with name, start, duration, request id and parent.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start.as_nanos() as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::Num(s.end.saturating_sub(s.start).as_nanos() as f64 / 1e3),
                    ),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("request".into(), Json::Num(s.request as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        std::fs::write(path, Json::Arr(events).to_string())
    }
}

/// Counts gathered while replaying requests.
#[derive(Default)]
pub struct ReplayCounts {
    /// States and nonzeros summed over each request's distinct models.
    pub states: u64,
    pub nnz: u64,
    /// DTMC products: one propagation per SR job, one per horizon for RSD
    /// and adaptive, and the killed-chain construction for RR/RRL.
    pub products: u64,
    /// Cell step counts of the baseline solvers (SR, RSD, adaptive).
    pub transient_steps: u64,
    /// Killed-chain construction depth of every RR/RRL job.
    pub regen_steps: u64,
    pub abscissae: u64,
    pub stolen_chunks: u64,
    pub fresh_allocs: u64,
    pub rebinds: u64,
    pub derived_hits: u64,
}

impl ReplayCounts {
    pub fn add(&mut self, o: &ReplayCounts) {
        self.states += o.states;
        self.nnz += o.nnz;
        self.products += o.products;
        self.transient_steps += o.transient_steps;
        self.regen_steps += o.regen_steps;
        self.abscissae += o.abscissae;
        self.stolen_chunks += o.stolen_chunks;
        self.fresh_allocs += o.fresh_allocs;
        self.rebinds += o.rebinds;
        self.derived_hits += o.derived_hits;
    }
}

/// The engine-side replay context: one artifact cache (fresh per request
/// for the CLI workloads, shared across requests for the service), plus
/// the largest uniformization seen, for the stepping probe.
pub struct Replayer {
    pub cache: ArtifactCache,
    pub counts: ReplayCounts,
    pub largest: Option<Arc<Uniformized>>,
}

impl Replayer {
    pub fn new(cfg: CacheConfig) -> Replayer {
        Replayer {
            cache: ArtifactCache::with_config(cfg),
            counts: ReplayCounts::default(),
            largest: None,
        }
    }

    /// Replays one request exactly as a fresh engine would run it — parse,
    /// spec build, fingerprint, chain facts, then every planned job
    /// serially, as `Engine::run_job` does — and serializes the report.
    /// Returns the cells in report order, or `Err` on any error the engine
    /// would report as a failure.
    pub fn replay(&mut self, tr: &mut Tracer, text: &str) -> Result<Vec<SolveReport>, String> {
        let pool_before = WorkerPool::global().stats();
        let cache_before = self.cache.stats();
        let t0 = Instant::now();
        let out = tr.span("request", |tr| self.replay_inner(tr, text));
        let wall = t0.elapsed();
        let cache_after = self.cache.stats();
        self.counts.rebinds += cache_after.rebinds - cache_before.rebinds;
        self.counts.derived_hits += cache_after.derived_hits - cache_before.derived_hits;
        self.counts.stolen_chunks += WorkerPool::global()
            .stats()
            .since(&pool_before)
            .stolen_chunks;
        let (cells, ws_fresh) = out?;
        self.counts.fresh_allocs += ws_fresh;
        let report = SweepReport {
            reports: cells,
            cache: cache_after,
            wall,
            ..SweepReport::default()
        };
        tr.span("json.serialize", |_| {
            std::hint::black_box(report_to_json(&report).to_string());
        });
        Ok(report.reports)
    }

    fn replay_inner(
        &mut self,
        tr: &mut Tracer,
        text: &str,
    ) -> Result<(Vec<SolveReport>, u64), String> {
        let doc = tr
            .span("json.parse", |_| Json::parse(text))
            .map_err(|e| e.to_string())?;
        let spec = tr.span("spec.from_json", |_| SweepSpec::from_json(&doc))?;
        let dispatcher = Engine::with_options(spec.options);
        let opts = *dispatcher.options();
        let mut ws = Workspace::new();
        let mut cells = Vec::new();
        let mut seen_models = HashSet::new();
        for req in &spec.requests {
            let fps = tr.span("fingerprint.model_fps", |_| model_fps(&req.model));
            if seen_models.insert(fps.full) {
                self.counts.states += req.model.n_states() as u64;
                self.counts.nnz += req.model.generator().nnz() as u64;
            }
            let facts = tr
                .span("cache.facts_for", |_| {
                    self.cache.facts_for(&fps, &req.model)
                })
                .map_err(|e| e.to_string())?;
            let lambda = if facts.max_rate == 0.0 {
                1.0
            } else {
                facts.max_rate * (1.0 + opts.theta)
            };
            let cfg = SolveConfig {
                epsilon: req.epsilon,
                theta: opts.theta,
                regen_state: req.regen_state,
                inverter: opts.inverter,
                parallel: opts.parallel,
                dense_limit: opts.dense_oracle_max_states,
            };
            // Method groups of consecutive horizons, as the engine plans.
            let mut jobs: Vec<(Method, regenr_engine::DispatchReason, Vec<f64>)> = Vec::new();
            for &t in &req.horizons {
                let (method, reason) = match req.method {
                    regenr_engine::MethodChoice::Fixed(m) => {
                        (m, regenr_engine::DispatchReason::FixedByRequest)
                    }
                    regenr_engine::MethodChoice::Auto => dispatcher.auto_method(&facts, t),
                };
                match jobs.last_mut() {
                    Some(job) if job.0 == method => job.2.push(t),
                    _ => jobs.push((method, reason, vec![t])),
                }
            }
            for (method, reason, ts) in jobs {
                let (unif, unif_hit) = if method == Method::Ode {
                    (None, false)
                } else {
                    let before = self.cache.stats();
                    let idx = tr.open("cache.uniformized_delta");
                    let (u, hit) = self.cache.uniformized_delta(
                        fps.unif,
                        fps.unif_structure,
                        &req.model,
                        cfg.theta,
                    );
                    tr.close(idx);
                    if !hit {
                        let rebound = self.cache.stats().rebinds > before.rebinds;
                        tr.rename(
                            idx,
                            if rebound {
                                "ctmc.rebind_values"
                            } else {
                                "ctmc.uniformized_new"
                            },
                        );
                    }
                    let bigger = self
                        .largest
                        .as_ref()
                        .is_none_or(|l| u.p_t.nnz() > l.p_t.nnz());
                    if bigger {
                        self.largest = Some(u.clone());
                    }
                    (Some(u), hit)
                };
                let (kernel, backend) = match &unif {
                    Some(u) if method != Method::Adaptive => tr.span("sparse.plan", |_| {
                        let stepper = u.stepper(&cfg.parallel);
                        (stepper.kernel_kind().name(), stepper.backend().name())
                    }),
                    _ => ("none", "none"),
                };
                let solver = tr
                    .span("engine.build_solver", |_| {
                        build_solver(method, &req.model, &facts, unif, &cfg)
                    })
                    .map_err(|e| e.to_string())?;
                let t_max = ts.iter().copied().fold(0.0f64, f64::max);
                let solutions: Vec<EngineSolution> =
                    if let (Some(rrl), true) = (solver.as_rrl(), t_max > 0.0) {
                        let (params, _) = tr
                            .span("cache.regen_params_linked", |tr| {
                                self.cache.regen_params_linked(
                                    fps.full,
                                    fps.unif,
                                    &rrl.options().regen,
                                    rrl.regenerative_state(),
                                    t_max,
                                    |h| {
                                        tr.span("core.parameters_with", |_| {
                                            rrl.parameters_with(h, &mut ws)
                                        })
                                    },
                                )
                            })
                            .map_err(|e| e.to_string())?;
                        let mut sols = Vec::new();
                        for &t in &ts {
                            let sol: EngineSolution = if t == 0.0 {
                                Solver::solve(rrl, req.measure, t).map_err(|e| e.to_string())?
                            } else {
                                let (k, l) = params
                                    .depth_for_horizon(t, req.epsilon)
                                    .ok_or("cached parameters do not cover the horizon")?;
                                let sliced = params.truncated(k, l);
                                tr.span("laplace.invert_params", |_| {
                                    rrl.invert_params(&sliced, req.measure, t)
                                })
                                .into()
                            };
                            sols.push(sol);
                        }
                        self.counts.regen_steps +=
                            sols.iter().map(|s| s.steps as u64).max().unwrap_or(0);
                        sols
                    } else if let (Some(rr), true) = (solver.as_rr(), t_max > 0.0) {
                        let (params, _) = tr
                            .span("cache.regen_params_linked", |tr| {
                                self.cache.regen_params_linked(
                                    fps.full,
                                    fps.unif,
                                    &rr.options().regen,
                                    rr.regenerative_state(),
                                    t_max,
                                    |h| {
                                        tr.span("core.parameters_with", |_| {
                                            rr.parameters_with(h, &mut ws)
                                        })
                                    },
                                )
                            })
                            .map_err(|e| e.to_string())?;
                        let mut sols: Vec<EngineSolution> = Vec::new();
                        for &t in &ts {
                            let (k, l) = params
                                .depth_for_horizon(t, req.epsilon)
                                .ok_or("cached parameters do not cover the horizon")?;
                            let sliced = params.truncated(k, l);
                            let sol = tr
                                .span("core.rr_solve_from", |_| {
                                    rr.solve_from(&sliced, req.measure, t, &mut ws)
                                })
                                .map_err(|e| e.to_string())?;
                            sols.push(sol.into());
                        }
                        self.counts.regen_steps +=
                            sols.iter().map(|s| s.steps as u64).max().unwrap_or(0);
                        sols
                    } else {
                        let name = match method {
                            Method::Sr => "transient.sr",
                            Method::Rsd => "transient.rsd",
                            Method::Adaptive => "transient.adaptive",
                            _ => "transient.other",
                        };
                        let sols = tr
                            .span(name, |_| solver.solve_many_ws(req.measure, &ts, &mut ws))
                            .map_err(|e| e.to_string())?;
                        let steps = sols.iter().map(|s| s.steps as u64);
                        self.counts.transient_steps += steps.clone().sum::<u64>();
                        self.counts.products += match method {
                            Method::Sr => steps.max().unwrap_or(0),
                            _ => steps.sum(),
                        };
                        sols
                    };
                if matches!(method, Method::Rr | Method::Rrl) {
                    self.counts.products +=
                        solutions.iter().map(|s| s.steps as u64).max().unwrap_or(0);
                }
                self.counts.abscissae += solutions.iter().map(|s| s.abscissae as u64).sum::<u64>();
                cells.extend(ts.iter().zip(&solutions).map(|(&t, sol)| SolveReport {
                    model: req.name.clone(),
                    fingerprint: fps.full,
                    measure: req.measure,
                    t,
                    method,
                    reason,
                    value: sol.value,
                    steps: sol.steps,
                    error_bound: sol.error_bound,
                    abscissae: sol.abscissae,
                    converged: sol.converged,
                    lambda_t: lambda * t,
                    kernel,
                    backend,
                    unif_cache_hit: unif_hit,
                    params_cache_hit: false,
                    wall: Duration::ZERO,
                    attempts: 1,
                    recovered_via: None,
                }));
            }
        }
        Ok((cells, ws.stats().fresh_allocs))
    }
}

/// Stepping probe on one uniformization: the median time of one
/// `Stepper::step` (µs) and the computed bytes one step streams — `Pᵀ`
/// plus the kernel layout plus the input and output vectors.
pub struct StepProbe {
    pub step_us: f64,
    pub matrix_bytes: usize,
    pub bytes_per_step: usize,
    pub states: usize,
    pub nnz: usize,
}

pub fn probe_stepping(tr: &mut Tracer, unif: &Uniformized, budget: Duration) -> StepProbe {
    let cfg = regenr_sparse::ParallelConfig::default();
    let stepper = unif.stepper(&cfg);
    let n = unif.n_states();
    let mut x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    for _ in 0..4 {
        stepper.step(&x, &mut y);
        std::mem::swap(&mut x, &mut y);
    }
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 16 || (start.elapsed() < budget && times.len() < 20_000) {
        let t0 = Instant::now();
        tr.span("sparse.step", |_| stepper.step(&x, &mut y));
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        std::mem::swap(&mut x, &mut y);
    }
    std::hint::black_box(&x);
    let matrix_bytes = unif.p_t.heap_bytes() + unif.plan_bytes();
    StepProbe {
        step_us: crate::stats::median(&times),
        matrix_bytes,
        bytes_per_step: matrix_bytes + 2 * n * std::mem::size_of::<f64>(),
        states: n,
        nnz: unif.p_t.nnz(),
    }
}

/// Streaming-copy bandwidth probe: copies an array of `bytes` bytes into a
/// second one of the same size, and returns the median rate over three
/// timed passes in GB/s, counting the bytes read plus the bytes written.
pub fn probe_stream(bytes: usize) -> f64 {
    let n = bytes / std::mem::size_of::<f64>();
    let src = vec![1.0f64; n];
    let mut dst = vec![0.0f64; n];
    dst.copy_from_slice(&src);
    let mut rates = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(&dst);
        rates.push(2.0 * bytes as f64 / secs / 1e9);
    }
    crate::stats::median(&rates)
}

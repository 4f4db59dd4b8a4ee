//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p regenr-bench --release --bin repro -- [--quick] <what>
//!   what ∈ { sizes | table1 | table2 | fig3 | fig4 | scalars | ablation |
//!            sweep | compose | engine | sensitivity | kernels | serve |
//!            chaos | all }
//!
//! `chaos` (not part of `all`) storms an in-process server with faults
//! injected through the failpoint layer; build with `--features failpoints`.
//! ```
//!
//! Output goes to stdout (pretty tables) and `results/*.csv` (series data).
//! `--quick` caps the `Θ(Λt)` methods (SR everywhere, RR's inner solve) at
//! `t ≤ 10³ h`, which keeps a full run to a couple of minutes; without it the
//! harness faithfully runs the paper's complete grid (SR alone then performs
//! millions of vector–matrix products, exactly the cost the paper plots).

use regenr_bench::*;
use regenr_transient::MeasureKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let w = Workload::new();
    match what {
        "sizes" => sizes(&w),
        "table1" => table1(&w),
        "table2" => table2(&w),
        "fig3" => fig3(&w, quick),
        "fig4" => fig4(&w, quick),
        "scalars" => scalars(&w),
        "ablation" => {
            ablation(&w);
            ablation_theta(&w);
        }
        "sweep" => sweep(),
        "compose" => compose_corpus(),
        "engine" => engine_grid(&w),
        "sensitivity" => sensitivity(),
        "kernels" => kernel_ablation(&w),
        "serve" => serve_load(),
        "chaos" => chaos(),
        "all" => {
            sizes(&w);
            table1(&w);
            table2(&w);
            fig3(&w, quick);
            fig4(&w, quick);
            scalars(&w);
            ablation(&w);
            ablation_theta(&w);
            sweep();
            compose_corpus();
            engine_grid(&w);
            sensitivity();
            kernel_ablation(&w);
            serve_load();
        }
        other => {
            eprintln!("unknown target {other:?}; see --help in the module docs");
            std::process::exit(2);
        }
    }
}

/// Model sizes vs the paper's. Our transition counts are lower: the
/// explorer merges parallel arcs between the same pair of states.
fn sizes(w: &Workload) {
    println!("\n== model sizes (paper: 3,841/24,785 at G=20; 14,081/94,405 at G=40) ==");
    // The paper's states and UA transitions per G; its UR chain has one
    // transition fewer.
    let paper: [(usize, usize); 2] = [(3_841, 24_785), (14_081, 94_405)];
    let mut csv = CsvWriter::create(
        "sizes",
        "g,variant,states,paper_states,transitions,paper_transitions",
    )
    .unwrap();
    for (gi, &g) in G_VALUES.iter().enumerate() {
        let (paper_states, paper_ua) = paper[gi];
        for (variant, name, paper_transitions) in [
            (Variant::Ua, "UA", paper_ua),
            (Variant::Ur, "UR", paper_ua - 1),
        ] {
            let c = w.chain(g, variant);
            let diag = (0..c.n_states())
                .filter(|&i| c.generator().get(i, i) != 0.0)
                .count();
            let transitions = c.generator().nnz() - diag;
            println!(
                "  G={g} {name}: {} states, {} transitions, Λ = {:.4}",
                c.n_states(),
                transitions,
                c.generator().max_abs_diag()
            );
            csv.row(&[
                g.to_string(),
                name.to_string(),
                c.n_states().to_string(),
                paper_states.to_string(),
                transitions.to_string(),
                paper_transitions.to_string(),
            ])
            .unwrap();
        }
    }
}

/// Table 1: steps of RR/RRL vs RSD for UA(t).
fn table1(w: &Workload) {
    println!("\n== Table 1: steps for UA(t) (paper values in parentheses) ==");
    let paper_rr: [[usize; 6]; 2] = [
        [56, 323, 2_234, 2_708, 2_938, 3_157],
        [86, 554, 4_187, 5_123, 5_549, 5_957],
    ];
    let paper_rsd: [[usize; 6]; 2] = [
        [66, 355, 2_612, 2_612, 2_612, 2_612],
        [99, 594, 4_823, 4_823, 4_823, 4_823],
    ];
    let mut csv = CsvWriter::create(
        "table1",
        "g,t,rr_rrl_steps,paper_rr_rrl_steps,rsd_steps,paper_rsd_steps",
    )
    .unwrap();
    for (gi, &g) in G_VALUES.iter().enumerate() {
        let chain = w.chain(g, Variant::Ua);
        let rrl = make_rrl(&chain);
        let rsd = make_rsd(&chain);
        println!("  G={g}:");
        println!(
            "  {:>9} {:>18} {:>18}",
            "t (h)", "RR/RRL steps", "RSD steps"
        );
        for (ti, &t) in T_GRID.iter().enumerate() {
            let k = rrl.trr(t).unwrap().construction_steps;
            let r = rsd.solve(MeasureKind::Trr, t).steps;
            println!(
                "  {:>9.0} {:>10} ({:>5}) {:>10} ({:>5})",
                t, k, paper_rr[gi][ti], r, paper_rsd[gi][ti]
            );
            csv.row(&[
                g.to_string(),
                t.to_string(),
                k.to_string(),
                paper_rr[gi][ti].to_string(),
                r.to_string(),
                paper_rsd[gi][ti].to_string(),
            ])
            .unwrap();
        }
    }
}

/// Table 2: steps of RR/RRL vs SR for UR(t).
fn table2(w: &Workload) {
    println!("\n== Table 2: steps for UR(t) (paper values in parentheses) ==");
    let paper_rr: [[usize; 6]; 2] = [
        [56, 323, 2_233, 2_708, 2_937, 3_157],
        [86, 554, 4_186, 5_122, 5_547, 5_955],
    ];
    let paper_sr: [[usize; 6]; 2] = [
        [65, 354, 2_726, 24_844, 240_958, 2_386_068],
        [98, 593, 4_849, 45_234, 442_203, 4_390_141],
    ];
    let mut csv = CsvWriter::create(
        "table2",
        "g,t,rr_rrl_steps,paper_rr_rrl_steps,sr_steps,paper_sr_steps",
    )
    .unwrap();
    for (gi, &g) in G_VALUES.iter().enumerate() {
        let chain = w.chain(g, Variant::Ur);
        let rrl = make_rrl(&chain);
        let sr = make_sr(&chain);
        println!("  G={g}:");
        println!("  {:>9} {:>18} {:>20}", "t (h)", "RR/RRL steps", "SR steps");
        for (ti, &t) in T_GRID.iter().enumerate() {
            let k = rrl.trr(t).unwrap().construction_steps;
            // SR's step count is its Poisson right point — computable without
            // running the expensive propagation.
            let lambda_t = sr.lambda() * t;
            let pw = regenr_numeric::PoissonWeights::new(lambda_t, EPSILON);
            let s = pw.right as usize;
            println!(
                "  {:>9.0} {:>10} ({:>5}) {:>10} ({:>9})",
                t, k, paper_rr[gi][ti], s, paper_sr[gi][ti]
            );
            csv.row(&[
                g.to_string(),
                t.to_string(),
                k.to_string(),
                paper_rr[gi][ti].to_string(),
                s.to_string(),
                paper_sr[gi][ti].to_string(),
            ])
            .unwrap();
        }
    }
}

/// Figure 3: CPU time of RRL / RR / RSD for UA(t), log–log series.
fn fig3(w: &Workload, quick: bool) {
    println!(
        "\n== Figure 3: CPU seconds for UA(t) {} ==",
        quick_note(quick)
    );
    let mut csv = CsvWriter::create("fig3", "g,t,method,seconds,value").unwrap();
    for g in G_VALUES {
        let chain = w.chain(g, Variant::Ua);
        let rrl = make_rrl(&chain);
        let rr = make_rr(&chain);
        let rsd = make_rsd(&chain);
        println!("  G={g}:");
        println!("  {:>9} {:>12} {:>12} {:>12}", "t (h)", "RRL", "RR", "RSD");
        for &t in &T_GRID {
            let (v_rrl, s_rrl) = time_once(|| rrl.trr(t).unwrap().value);
            let (v_rsd, s_rsd) = time_once(|| rsd.solve(MeasureKind::Trr, t).value);
            check(v_rrl, v_rsd, 1e-8, &format!("fig3 G={g} t={t} RRL vs RSD"));
            csv_row(&mut csv, g, t, "RRL", s_rrl, v_rrl);
            csv_row(&mut csv, g, t, "RSD", s_rsd, v_rsd);
            let rr_cell = if quick && t > 1_000.0 {
                csv_row(&mut csv, g, t, "RR", f64::NAN, f64::NAN);
                "   (skipped)".to_string()
            } else {
                let (v_rr, s_rr) = time_once(|| rr.solve(MeasureKind::Trr, t).unwrap().value);
                check(v_rrl, v_rr, 1e-8, &format!("fig3 G={g} t={t} RRL vs RR"));
                csv_row(&mut csv, g, t, "RR", s_rr, v_rr);
                format!("{s_rr:>12.4}")
            };
            println!("  {t:>9.0} {s_rrl:>12.4} {rr_cell} {s_rsd:>12.4}");
        }
    }
}

/// Figure 4: CPU time of RRL / RR / SR for UR(t), log–log series.
fn fig4(w: &Workload, quick: bool) {
    println!(
        "\n== Figure 4: CPU seconds for UR(t) {} ==",
        quick_note(quick)
    );
    let mut csv = CsvWriter::create("fig4", "g,t,method,seconds,value").unwrap();
    for g in G_VALUES {
        let chain = w.chain(g, Variant::Ur);
        let rrl = make_rrl(&chain);
        let rr = make_rr(&chain);
        let sr = make_sr(&chain);
        println!("  G={g}:");
        println!("  {:>9} {:>12} {:>12} {:>12}", "t (h)", "RRL", "RR", "SR");
        for &t in &T_GRID {
            let (v_rrl, s_rrl) = time_once(|| rrl.trr(t).unwrap().value);
            csv_row(&mut csv, g, t, "RRL", s_rrl, v_rrl);
            let skip = quick && t > 1_000.0;
            let rr_cell = if skip {
                csv_row(&mut csv, g, t, "RR", f64::NAN, f64::NAN);
                "   (skipped)".to_string()
            } else {
                let (v_rr, s_rr) = time_once(|| rr.solve(MeasureKind::Trr, t).unwrap().value);
                check(v_rrl, v_rr, 1e-8, &format!("fig4 G={g} t={t} RRL vs RR"));
                csv_row(&mut csv, g, t, "RR", s_rr, v_rr);
                format!("{s_rr:>12.4}")
            };
            let sr_cell = if skip {
                csv_row(&mut csv, g, t, "SR", f64::NAN, f64::NAN);
                "   (skipped)".to_string()
            } else {
                let (v_sr, s_sr) = time_once(|| sr.solve(MeasureKind::Trr, t).value);
                check(v_rrl, v_sr, 1e-8, &format!("fig4 G={g} t={t} RRL vs SR"));
                csv_row(&mut csv, g, t, "SR", s_sr, v_sr);
                format!("{s_sr:>12.4}")
            };
            println!("  {t:>9.0} {s_rrl:>12.4} {rr_cell} {sr_cell}");
        }
    }
}

/// The paper's reported scalars: UR(1e5), abscissae counts, LT share.
fn scalars(w: &Workload) {
    println!("\n== scalars ==");
    let mut csv = CsvWriter::create(
        "scalars",
        "g,ur_1e5,paper_ur,abscissae_min,abscissae_max,lt_share",
    )
    .unwrap();
    for (g, paper_ur) in [(20u32, 0.50480), (40, 0.74750)] {
        let chain = w.chain(g, Variant::Ur);
        let rrl = make_rrl(&chain);
        let ur = rrl.trr(1e5).unwrap();
        let mut abs_min = usize::MAX;
        let mut abs_max = 0usize;
        let mut lt_share: f64 = 0.0;
        for &t in &T_GRID {
            let s = rrl.trr(t).unwrap();
            abs_min = abs_min.min(s.abscissae);
            abs_max = abs_max.max(s.abscissae);
            let total = (s.construction_time + s.inversion_time).as_secs_f64();
            lt_share = lt_share.max(s.inversion_time.as_secs_f64() / total.max(1e-12));
        }
        println!(
            "  G={g}: UR(1e5) = {:.5} (paper {paper_ur}); abscissae {abs_min}–{abs_max} \
             (paper 105–329); LT share ≤ {:.1}% (paper ~1–2%)",
            ur.value,
            100.0 * lt_share
        );
        csv.row(&[
            g.to_string(),
            format!("{:.6}", ur.value),
            paper_ur.to_string(),
            abs_min.to_string(),
            abs_max.to_string(),
            format!("{lt_share:.4}"),
        ])
        .unwrap();
    }
}

/// Ablations: T-multiplier and ε-acceleration choices of Section 2.2.
fn ablation(w: &Workload) {
    use regenr_core::{RegenOptions, RrlOptions, RrlSolver};
    use regenr_laplace::InverterOptions;
    println!("\n== ablation: inversion tuning (G=20, UR, t = 1e4 h) ==");
    let chain = w.chain(20, Variant::Ur);
    let t = 1e4;
    let reference = make_rrl(&chain).trr(t).unwrap().value;
    let mut csv = CsvWriter::create(
        "ablation_laplace",
        "t_multiplier,accelerate,abscissae,converged,abs_error",
    )
    .unwrap();
    println!(
        "  {:>6} {:>12} {:>10} {:>10} {:>12}",
        "T/t", "accelerated", "abscissae", "converged", "error"
    );
    for mult in [1.0, 2.0, 4.0, 8.0, 16.0] {
        for accel in [true, false] {
            let solver = RrlSolver::new(
                &chain,
                0,
                RrlOptions {
                    regen: RegenOptions {
                        epsilon: EPSILON,
                        ..Default::default()
                    },
                    inverter: InverterOptions {
                        t_multiplier: mult,
                        accelerate: accel,
                        max_terms: 100_000,
                    },
                },
            )
            .unwrap();
            let s = solver.trr(t).unwrap();
            let err = (s.value - reference).abs();
            println!(
                "  {mult:>6.0} {accel:>12} {:>10} {:>10} {err:>12.2e}",
                s.abscissae, s.inversion_converged
            );
            csv.row(&[
                mult.to_string(),
                accel.to_string(),
                s.abscissae.to_string(),
                s.inversion_converged.to_string(),
                format!("{err:.3e}"),
            ])
            .unwrap();
        }
    }
}

/// Ablation: uniformization safety factor θ (Λ = (1+θ)·max rate). Larger Λ
/// means more self-loop mass in the DTMC: a(k) decays more slowly per step,
/// so K grows — the paper's θ = 0 choice is optimal for construction cost.
fn ablation_theta(w: &Workload) {
    use regenr_core::{RegenOptions, RrlOptions, RrlSolver};
    println!("\n== ablation: uniformization safety factor (G=20, UA, t = 1e4 h) ==");
    let chain = w.chain(20, Variant::Ua);
    let mut csv = CsvWriter::create("ablation_theta", "theta,lambda,k_steps,value").unwrap();
    println!(
        "  {:>6} {:>10} {:>8} {:>14}",
        "theta", "lambda", "K", "UA(1e4)"
    );
    let mut reference = None;
    for theta in [0.0, 0.05, 0.2, 0.5, 1.0] {
        let solver = RrlSolver::new(
            &chain,
            0,
            RrlOptions {
                regen: RegenOptions {
                    epsilon: EPSILON,
                    theta,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let s = solver.trr(1e4).unwrap();
        let v = reference.get_or_insert(s.value);
        assert!(
            (s.value - *v).abs() < 1e-9,
            "theta={theta}: value changed: {} vs {v}",
            s.value
        );
        println!(
            "  {theta:>6.2} {:>10.4} {:>8} {:>14.6e}",
            solver.lambda(),
            s.construction_steps,
            s.value
        );
        csv.row(&[
            theta.to_string(),
            format!("{:.4}", solver.lambda()),
            s.construction_steps.to_string(),
            format!("{:.8e}", s.value),
        ])
        .unwrap();
    }
}

/// Corpus sweep: every spec under `specs/` runs three times with the
/// method forced to SR, RR and Auto, and the three value columns must
/// agree — the cross-method consistency check the paper's evaluation
/// rests on. On top of the per-cell agreement this asserts the compose
/// pipeline end to end: the large scenario really exceeds 100k states,
/// the canned `duplex`
/// kind and its compose spelling produce bitwise-equal values, and a
/// component-order permutation of a compose spec yields the same
/// fingerprints, an artifact-cache hit, and a byte-identical `--stable`
/// report.
fn compose_corpus() {
    use regenr_engine::{stable_report_to_json, Engine, Json, SweepSpec};
    use std::collections::BTreeMap;

    println!("\n== compose corpus: cross-method agreement over specs/ ==");
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir("specs")
        .expect("specs/ directory (run from the repo root)")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "corpus must hold at least 6 scenarios");

    let measure_name = |m: MeasureKind| match m {
        MeasureKind::Trr => "trr",
        MeasureKind::Mrr => "mrr",
    };
    const METHODS: [&str; 3] = ["sr", "rr", "auto"];
    let mut csv = CsvWriter::create(
        "compose_corpus",
        "spec,model,measure,t,states,sr,rr,auto,max_rel_delta",
    )
    .unwrap();

    let mut largest = 0usize;
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        // (model, measure, t-bits) → [sr, rr, auto] values; BTreeMap so the
        // printed/CSV order is stable across runs.
        let mut cells: BTreeMap<(String, &'static str, u64), [f64; 3]> = BTreeMap::new();
        let mut states: BTreeMap<String, usize> = BTreeMap::new();
        for (mi, method) in METHODS.iter().enumerate() {
            let Json::Obj(mut members) = Json::parse(&text).unwrap() else {
                panic!("{stem}: spec must be a JSON object");
            };
            members.retain(|(k, _)| k != "method");
            members.push(("method".into(), Json::Str((*method).to_string())));
            let spec =
                SweepSpec::from_json(&Json::Obj(members)).unwrap_or_else(|e| panic!("{stem}: {e}"));
            for r in &spec.requests {
                states.insert(r.name.clone(), r.model.n_states());
            }
            let engine = Engine::with_cache_config(spec.options, spec.cache);
            let report = engine.sweep(&spec.requests);
            assert!(
                report.failures.is_empty(),
                "{stem} [{method}]: {:?}",
                report.failures
            );
            for cell in &report.reports {
                cells
                    .entry((
                        cell.model.clone(),
                        measure_name(cell.measure),
                        cell.t.to_bits(),
                    ))
                    .or_insert([f64::NAN; 3])[mi] = cell.value;
            }
        }
        let mut worst = 0.0f64;
        for ((model, measure, t_bits), vals) in &cells {
            let t = f64::from_bits(*t_bits);
            let [sr, rr, auto] = *vals;
            assert!(
                vals.iter().all(|v| v.is_finite()),
                "{stem}/{model} {measure}({t}): a forced method produced no cell"
            );
            let scale = sr.abs().max(1.0);
            let delta = (sr - rr).abs().max((sr - auto).abs()) / scale;
            worst = worst.max(delta);
            assert!(
                delta < 1e-6,
                "{stem}/{model} {measure}({t}): methods disagree (sr={sr} rr={rr} auto={auto})"
            );
            csv.row(&[
                stem.clone(),
                model.clone(),
                measure.to_string(),
                t.to_string(),
                states[model].to_string(),
                format!("{sr:.12e}"),
                format!("{rr:.12e}"),
                format!("{auto:.12e}"),
                format!("{delta:.3e}"),
            ])
            .unwrap();
        }
        let max_states = states.values().copied().max().unwrap_or(0);
        largest = largest.max(max_states);
        println!(
            "  {stem}: {} cells × 3 methods, ≤{} states, worst rel Δ {worst:.3e}",
            cells.len(),
            max_states
        );

        // The duplex pair is chain-identical by construction (single class —
        // no crew-priority ambiguity), so its values must agree bitwise.
        if stem == "duplex_mission" {
            for ((model, measure, t_bits), vals) in &cells {
                if model != "duplex" {
                    continue;
                }
                let twin = cells
                    .get(&("duplex_composed".to_string(), measure, *t_bits))
                    .expect("composed twin cell");
                for (a, b) in vals.iter().zip(twin) {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "duplex vs compose spelling must agree bitwise ({a} vs {b})"
                    );
                }
            }
            println!("    duplex kind ≡ compose spelling (bitwise)");
        }
    }
    assert!(
        largest >= 100_000,
        "corpus must include a ≥100k-state scenario (got {largest})"
    );

    // Component-order independence: permute a compose spec's component
    // list, run original and permuted through ONE engine — fingerprints
    // match, the second sweep is served from the artifact cache, and the
    // `--stable` reports diff byte-for-byte.
    let text = std::fs::read_to_string("specs/cluster_repairable.json").unwrap();
    let forward = Json::parse(&text).unwrap();
    let permuted = {
        let Json::Obj(members) = forward.clone() else {
            unreachable!()
        };
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| {
                    if k != "models" {
                        return (k, v);
                    }
                    let Json::Arr(models) = v else {
                        panic!("models array")
                    };
                    let models = models
                        .into_iter()
                        .map(|m| {
                            let Json::Obj(mm) = m else {
                                panic!("model object")
                            };
                            Json::Obj(
                                mm.into_iter()
                                    .map(|(mk, mv)| {
                                        if mk == "components" {
                                            let Json::Arr(mut c) = mv else {
                                                panic!("components array")
                                            };
                                            c.reverse();
                                            (mk, Json::Arr(c))
                                        } else {
                                            (mk, mv)
                                        }
                                    })
                                    .collect(),
                            )
                        })
                        .collect();
                    (k, Json::Arr(models))
                })
                .collect(),
        )
    };
    let spec_a = SweepSpec::from_json(&forward).unwrap();
    let spec_b = SweepSpec::from_json(&permuted).unwrap();
    let engine = Engine::new();
    let report_a = engine.sweep(&spec_a.requests);
    let report_b = engine.sweep(&spec_b.requests);
    assert!(report_a.failures.is_empty() && report_b.failures.is_empty());
    let fp = |r: &regenr_engine::SweepReport| {
        r.reports.iter().map(|c| c.fingerprint).collect::<Vec<_>>()
    };
    assert_eq!(
        fp(&report_a),
        fp(&report_b),
        "permuted component list must fingerprint identically"
    );
    assert!(
        report_b.cache.uniformized.hits > report_a.cache.uniformized.hits
            && report_b.cache.uniformized.misses == report_a.cache.uniformized.misses,
        "permuted rerun must hit the artifact cache (a: {:?}, b: {:?})",
        report_a.cache.uniformized,
        report_b.cache.uniformized
    );
    let stable_a = stable_report_to_json(&report_a).to_string();
    let stable_b = stable_report_to_json(&report_b).to_string();
    assert_eq!(stable_a, stable_b, "stable reports must be byte-identical");
    println!(
        "  permutation: fingerprints equal, +{} cache hits, stable reports byte-identical",
        report_b.cache.uniformized.hits - report_a.cache.uniformized.hits
    );
}

/// Parametric sweep over hot-spare provisioning — the paper's Section 3
/// introduces `G`, `C_H`, `D_H` as the varied parameters; this regenerates
/// the dependability trade-off surface they imply.
fn sweep() {
    use regenr_models::{RaidModel, RaidParams};
    println!("\n== sweep: UA(1e4 h) and UR(1e4 h) vs hot-spare provisioning (G=20) ==");
    let mut csv = CsvWriter::create("sweep", "g,c_h,d_h,ua_1e4,ur_1e4,states").unwrap();
    println!(
        "  {:>4} {:>4} {:>4} {:>13} {:>13} {:>8}",
        "G", "C_H", "D_H", "UA(1e4)", "UR(1e4)", "states"
    );
    for c_h in [0u32, 1, 2] {
        for d_h in [1u32, 3, 5] {
            let base = RaidParams {
                c_h,
                d_h,
                ..RaidParams::paper(20)
            };
            let ua_chain = RaidModel::new(base).build().unwrap();
            let ur_chain = RaidModel::new(base.with_absorbing_failure())
                .build()
                .unwrap();
            let ua = make_rrl(&ua_chain).trr(1e4).unwrap().value;
            let ur = make_rrl(&ur_chain).trr(1e4).unwrap().value;
            println!(
                "  {:>4} {c_h:>4} {d_h:>4} {ua:>13.4e} {ur:>13.4e} {:>8}",
                20,
                ua_chain.n_states()
            );
            csv.row(&[
                "20".into(),
                c_h.to_string(),
                d_h.to_string(),
                format!("{ua:.6e}"),
                format!("{ur:.6e}"),
                ua_chain.n_states().to_string(),
            ])
            .unwrap();
        }
    }
    // Sanity: more spares must not hurt dependability.
    println!("  (monotonicity in D_H/C_H is asserted by tests/paper_results.rs)");
}

/// The whole paper grid through `regenr-engine`'s `Auto` dispatch: one
/// parallel sweep over (model × horizon), with dispatch reasons, step
/// counts, and artifact-cache counters — the production path that replaces
/// hand-picking a solver per workload.
fn engine_grid(w: &Workload) {
    use regenr_engine::{Engine, SolveRequest};
    println!("\n== engine: Auto dispatch over the paper grid ==");
    // No cache column: which sweep worker builds a shared uniformization
    // first varies run to run, and the file is tracked.
    let mut csv = CsvWriter::create("engine", "g,variant,t,method,reason,steps,value").unwrap();
    let engine = Engine::new();
    let reqs: Vec<SolveRequest> = G_VALUES
        .iter()
        .flat_map(|&g| {
            [(Variant::Ua, "ua"), (Variant::Ur, "ur")].map(|(variant, tag)| {
                SolveRequest::new(
                    format!("raid_g{g}_{tag}"),
                    w.chain(g, variant),
                    T_GRID.to_vec(),
                )
                .epsilon(EPSILON)
            })
        })
        .collect();
    let report = engine.sweep(&reqs);
    assert!(
        report.failures.is_empty(),
        "engine sweep failed: {:?}",
        report.failures
    );
    println!(
        "  {:>12} {:>9} {:>7} {:>26} {:>8} {:>14} {:>6}",
        "model", "t (h)", "method", "reason", "steps", "value", "cache"
    );
    for r in &report.reports {
        println!(
            "  {:>12} {:>9.0} {:>7} {:>26} {:>8} {:>14.6e} {:>6}",
            r.model,
            r.t,
            r.method.name(),
            r.reason.as_str(),
            r.steps,
            r.value,
            if r.unif_cache_hit { "hit" } else { "miss" }
        );
        let (g, variant) = r.model.split_once("_g").map_or(("?", "?"), |(_, rest)| {
            rest.split_once('_').unwrap_or((rest, "?"))
        });
        csv.row(&[
            g.to_string(),
            variant.to_uppercase(),
            r.t.to_string(),
            r.method.name().to_string(),
            r.reason.as_str().to_string(),
            r.steps.to_string(),
            format!("{:.10e}", r.value),
        ])
        .unwrap();
    }
    let cache = report.cache;
    println!(
        "  cache: uniformized {}h/{}m, structure {}h/{}m, regen-params {}h/{}m; wall {:.2}s",
        cache.uniformized.hits,
        cache.uniformized.misses,
        cache.structure.hits,
        cache.structure.misses,
        cache.regen_params.hits,
        cache.regen_params.misses,
        report.wall.as_secs_f64()
    );
    let exec = report.exec;
    println!(
        "  execution: {} sweep workers on a {}-thread pool; pool runs {} (+{} inline), \
         workspace takes {} ({} fresh, {} reused)",
        exec.sweep_workers,
        exec.pool_threads,
        exec.pool.pooled_runs,
        exec.pool.inline_runs,
        exec.workspace.takes,
        exec.workspace.fresh_allocs,
        exec.workspace.reused
    );
    pool_vs_serial(w);
}

/// Measures the execution layer directly: repeated SpMV stepping over the
/// G=40 RAID matrix (the hot loop of every randomization solver) through
/// an N-chunk plan on the persistent worker pool, against a one-chunk plan
/// on the calling thread. Both plans run the loop the matrix selects and
/// produce bitwise-identical iterates.
fn pool_vs_serial(w: &Workload) {
    use regenr_ctmc::Uniformized;
    use regenr_sparse::{ChunkPlan, WorkerPool};

    println!("\n== execution core: pooled vs serial SpMV (G=40 UR stepping) ==");
    let chain = w.chain(40, Variant::Ur);
    let unif = Uniformized::new(&chain, 0.0);
    let n = chain.n_states();
    let steps = 400usize;
    // `chunks` fixes the work decomposition; the pooled path runs it on
    // the global pool (and degrades to inline/serial on a single-core
    // pool). The CSV records the executing thread count so the artifact
    // never overstates the pool's concurrency.
    let pool = WorkerPool::global();
    let pool_threads = pool.threads();
    let chunks = pool_threads.max(4);
    let serial_plan = ChunkPlan::new(&unif.p_t, 1);
    let pooled_plan = ChunkPlan::new(&unif.p_t, chunks);
    let kernel = serial_plan.kernel_kind();
    assert_eq!(kernel, pooled_plan.kernel_kind(), "one loop per matrix");
    let exec_threads = |name: &str| match name {
        "serial" => 1,
        _ => pool_threads.min(chunks),
    };

    let mut csv =
        CsvWriter::create("exec_pool", "kernel,chunks,exec_threads,steps,seconds").unwrap();
    let mut finals = Vec::new();
    let mut run = |name: &str, plan: &ChunkPlan| -> f64 {
        let mut pi = chain.initial().to_vec();
        let mut next = vec![0.0; n];
        // Warm-up step so thread wake-up and caches settle.
        unif.p_t.mul_vec_pooled_into(&pi, &mut next, plan, pool);
        let t0 = std::time::Instant::now();
        for _ in 0..steps {
            unif.p_t.mul_vec_pooled_into(&pi, &mut next, plan, pool);
            std::mem::swap(&mut pi, &mut next);
        }
        let secs = t0.elapsed().as_secs_f64();
        finals.push(pi.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        csv.row(&[
            name.into(),
            plan.len().to_string(),
            exec_threads(name).to_string(),
            steps.to_string(),
            format!("{secs:.6}"),
        ])
        .unwrap();
        secs.max(f64::MIN_POSITIVE)
    };

    let serial = run("serial", &serial_plan);
    let pooled = run("pooled", &pooled_plan);
    assert_eq!(
        finals[0], finals[1],
        "pooled iterates must be bitwise serial"
    );
    println!(
        "  {steps} steps over {n} states x {} nnz, {chunks} chunks, {kernel} loop \
         (pool executes on {} thread(s)):",
        unif.p_t.nnz(),
        exec_threads("pooled"),
    );
    println!("  {:>16} {:>10.4}s", "serial", serial);
    println!(
        "  {:>16} {:>10.4}s ({:.2}x vs serial)",
        "pooled (warm)",
        pooled,
        serial / pooled
    );
    if pool_threads < chunks {
        println!(
            "  note: the global pool has only {pool_threads} thread(s) here, so the \
             pooled kernel ran (near-)serially."
        );
    }
}

/// The artifact-graph delta-warm path under a sensitivity sweep: a G=40
/// RAID rate grid (`lambda_d` scaled over 40 points, expressed through the
/// spec layer's `"sensitivity"` form) solved on two engines — *cold*,
/// clearing its cache before every point so each point pays the full
/// uniformize + Tarjan + chunk-plan build, and *delta-warm*, primed with
/// the first point so every later point re-binds the cached `Pᵀ` pattern
/// and facts onto its own rates. Each point's cold and warm solves run back
/// to back, the first of the pair alternating from point to point, so host
/// drift lands on both sides alike and neither inherits the other's warm
/// CPU caches. Asserts the reuse actually happened (`derived_hits > 0`, the
/// process-global structure-analysis counter flat across every warm
/// solve), that warm results are bitwise identical to cold, and that the
/// warm median per-point time beats cold by ≥ 2×.
/// `results/sensitivity.csv` records the per-point build/solve breakdown
/// of both modes, in the order they ran.
fn sensitivity() {
    use regenr_ctmc::analysis_runs;
    use regenr_engine::{Engine, SolveReport, SolveRequest, SweepSpec};

    println!("\n== sensitivity: G=40 RAID lambda_d grid, cold vs delta-warm ==");
    let grid: Vec<String> = (0..40)
        .map(|i| format!("{}", 0.25 + 0.05 * i as f64))
        .collect();
    let spec_json = format!(
        r#"{{"epsilon": 1e-12, "threads": 1, "horizons": [0.01, 0.1],
            "cache": {{"max_entries": 8}}, "models": [
            {{"kind": "raid", "g": 40, "absorbing": true,
              "sensitivity": {{"param": "lambda_d", "grid": [{}]}}}}]}}"#,
        grid.join(", ")
    );
    let spec = SweepSpec::parse(&spec_json).expect("sensitivity spec parses");
    assert_eq!(spec.requests.len(), 40, "one request per grid point");

    let mut csv = CsvWriter::create(
        "sensitivity",
        "point,factor,mode,build_seconds,solve_seconds,total_seconds,unif_hit",
    )
    .unwrap();
    // One solve of one grid point: total wall of the sweep call split into
    // the solver cells' own wall (solve) and the remainder (artifact builds
    // + dispatch). Returns the total and the reports.
    let mut solve_point =
        |i: usize, req: &SolveRequest, mode: &str, engine: &Engine| -> (f64, Vec<SolveReport>) {
            let t0 = std::time::Instant::now();
            let sweep = engine.sweep(std::slice::from_ref(req));
            let total = t0.elapsed().as_secs_f64();
            assert!(sweep.failures.is_empty(), "{mode}: {:?}", sweep.failures);
            let solve: f64 = sweep.reports.iter().map(|r| r.wall.as_secs_f64()).sum();
            let factor = req.name.rsplit('=').next().unwrap_or("?");
            csv.row(&[
                i.to_string(),
                factor.to_string(),
                mode.into(),
                format!("{:.6}", (total - solve).max(0.0)),
                format!("{solve:.6}"),
                format!("{total:.6}"),
                sweep.reports.iter().any(|r| r.unif_cache_hit).to_string(),
            ])
            .unwrap();
            (total, sweep.reports)
        };

    // Both engines honour the spec's cache cap. Warm, the cap matters: an
    // unbounded pool would retain all 40 uniformizations, so every point
    // would allocate its matrices from fresh kernel pages; capped, the
    // cost-aware eviction drops stale grid points (the structural parent is
    // dependent-weighted and survives) and the allocator recycles their
    // pages. Cold clears the cache per point anyway.
    let cold_engine = Engine::with_cache_config(spec.options, spec.cache);
    let warm_engine = Engine::with_cache_config(spec.options, spec.cache);
    // Prime the warm engine with the first grid point: every warm solve
    // after it must not trigger a single fresh Tarjan pass.
    let first = warm_engine.sweep(std::slice::from_ref(&spec.requests[0]));
    assert!(first.failures.is_empty(), "{:?}", first.failures);
    let mut warm_analyses = 0;
    let (mut cold_totals, mut warm_totals) = (Vec::new(), Vec::new());
    let (mut cold_reports, mut warm_reports) = (Vec::new(), Vec::new());
    for (i, req) in spec.requests.iter().enumerate() {
        // Point 0 hits the just-primed cache; points 1.. ride the delta
        // path (derived facts + `Pᵀ` rebinds). Even points run cold first,
        // odd points warm first.
        for cold in [i % 2 == 0, i % 2 == 1] {
            if cold {
                cold_engine.cache().clear();
                let (total, reports) = solve_point(i, req, "cold", &cold_engine);
                cold_totals.push(total);
                cold_reports.extend(reports);
            } else {
                let before = analysis_runs();
                let (total, reports) = solve_point(i, req, "warm", &warm_engine);
                warm_analyses += analysis_runs() - before;
                warm_totals.push(total);
                warm_reports.extend(reports);
            }
        }
    }
    assert_eq!(
        warm_analyses, 0,
        "warm grid points must re-bind cached chain facts, not re-analyze"
    );
    let stats = warm_engine.cache().stats();
    assert!(
        stats.derived_hits > 0,
        "the grid shares one structure: {stats:?}"
    );
    assert!(
        stats.rebinds > 0,
        "rate variants must re-bind Pᵀ: {stats:?}"
    );

    // Warm results are bitwise identical to cleared-cache cold solves.
    for (c, h) in cold_reports.iter().zip(&warm_reports) {
        assert_eq!(c.model, h.model);
        assert_eq!(
            c.value.to_bits(),
            h.value.to_bits(),
            "{}: cold {} != warm {}",
            c.model,
            c.value,
            h.value
        );
    }

    let median = |xs: &[f64]| -> f64 {
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    let cold_med = median(&cold_totals);
    let warm_med = median(&warm_totals);
    let speedup = cold_med / warm_med;
    println!(
        "  40 points x 2 horizons; cold median {:.4}s, delta-warm median {:.4}s ({speedup:.2}x)",
        cold_med, warm_med
    );
    println!(
        "  warm cache: derived_hits {}, rebinds {}, unif {}h/{}m; no structure analysis on \
         warm points",
        stats.derived_hits, stats.rebinds, stats.uniformized.hits, stats.uniformized.misses,
    );
    assert!(
        speedup >= 2.0,
        "delta-warm must be >= 2x faster than cold per grid point, got {speedup:.2}x"
    );
    println!("  bitwise: warm values identical to cold-cache solves (80 cells)");
}

/// Kernel ablation: warm repeated stepping on the uniformized `Pᵀ` of the
/// paper's G=20/40 UR models, one timing per SpMV loop: the serial
/// reference `CsrMatrix::mul_vec_into` as the generic baseline, and a
/// one-chunk plan running the loop the matrix selects. All timings are
/// single-threaded best-of-`rounds` so the numbers isolate the *loop* (the
/// pooled-vs-serial comparison in `engine` isolates the execution
/// strategy). Every final iterate is asserted bitwise identical to the
/// baseline; `results/kernels.csv` records the grid.
fn kernel_ablation(w: &Workload) {
    use regenr_ctmc::Uniformized;
    use regenr_sparse::{ChunkPlan, CsrMatrix, KernelKind, WorkerPool};

    let steps = 400usize;
    let rounds = 5usize;
    println!(
        "\n== kernels: SpMV loop ablation (stepping, serial, interleaved best of {rounds}) =="
    );
    let mut csv = CsvWriter::create(
        "kernels",
        "model,kernel,selected,steps,seconds,speedup_vs_generic",
    )
    .unwrap();
    // One timed pass of `steps` products through `step`. Every pass
    // restarts from `x0`, so final-iterate bits are comparable across
    // loops. Timing takes the minimum over `rounds` passes interleaved
    // *across* loops (round-robin) — consecutive-pass timing on a busy
    // machine lets frequency/noise drift hit one loop wholesale;
    // interleaving spreads it evenly so the ratios are fair.
    type Step<'a> = &'a dyn Fn(&[f64], &mut [f64]);
    let pass = |x0: &[f64], step: Step| -> (f64, Vec<u64>) {
        let mut pi = x0.to_vec();
        let mut next = vec![0.0; x0.len()];
        let t0 = std::time::Instant::now();
        for _ in 0..steps {
            step(&pi, &mut next);
            std::mem::swap(&mut pi, &mut next);
        }
        let secs = t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        (secs, pi.iter().map(|v| v.to_bits()).collect())
    };

    let g20 = Uniformized::new(&w.chain(20, Variant::Ur), 0.0);
    let g40 = Uniformized::new(&w.chain(40, Variant::Ur), 0.0);
    let grid: [(&str, &CsrMatrix, Vec<f64>); 2] = [
        (
            "ur_g20",
            &g20.p_t,
            w.chain(20, Variant::Ur).initial().to_vec(),
        ),
        (
            "ur_g40",
            &g40.p_t,
            w.chain(40, Variant::Ur).initial().to_vec(),
        ),
    ];

    for (model, m, x0) in grid {
        // A one-chunk plan runs on the calling thread.
        let plan = ChunkPlan::new(m, 1);
        let selected = plan.kernel_kind();
        println!(
            "  {model}: {} rows, {} nnz, mean row {:.1} -> selected kernel: {selected}",
            m.nrows(),
            m.nnz(),
            m.nnz() as f64 / m.nrows().max(1) as f64,
        );
        let reference = |x: &[f64], y: &mut [f64]| m.mul_vec_into(x, y);
        let planned =
            |x: &[f64], y: &mut [f64]| m.mul_vec_pooled_into(x, y, &plan, WorkerPool::global());
        // Names derive from KernelKind::name() — the same strings the CLI
        // and reports use — so the CSV can never drift.
        let loops: [(KernelKind, Step); 2] =
            [(KernelKind::Generic, &reference), (selected, &planned)];
        // Correctness pass: the planned loop bitwise identical to the
        // reference (this also warms caches).
        let generic_bits = pass(&x0, &reference).1;
        let (_, bits) = pass(&x0, &planned);
        assert_eq!(
            bits, generic_bits,
            "{model} kernel {selected}: iterates must be bitwise identical to generic"
        );
        // Timing: round-robin over loops, min per loop.
        let mut best = [f64::INFINITY; 2];
        for _ in 0..rounds {
            for (slot, (_, step)) in loops.iter().enumerate() {
                best[slot] = best[slot].min(pass(&x0, *step).0);
            }
        }
        let generic_secs = best[0];
        for ((kind, _), &secs) in loops.iter().zip(&best) {
            let vs_generic = generic_secs / secs;
            let is_selected = *kind == selected;
            println!(
                "  {:>10}{} {:>9.4}s  {:>5.2}x vs generic",
                kind.name(),
                if is_selected { "*" } else { " " },
                secs,
                vs_generic,
            );
            csv.row(&[
                model.to_string(),
                kind.name().to_string(),
                is_selected.to_string(),
                steps.to_string(),
                format!("{secs:.6}"),
                format!("{vs_generic:.3}"),
            ])
            .unwrap();
        }
    }
    println!("  (* = what Auto selects for this matrix; results/kernels.csv records the grid)");
}

/// `repro serve` — load-generates the solver service: an in-process
/// `regenr serve` instance takes a single-client baseline, a 32-client
/// identical-spec storm (the coalescing case), a 32-client distinct-spec
/// barrage through the admission gate (429 + retry), and a deadline phase.
/// Per-phase latency percentiles, throughput, and serve-counter deltas go
/// to `results/serve.csv`. Two acceptance bars are asserted: the identical
/// storm must coalesce ≥ 90 % of its clients onto one computation, and its
/// wall time must stay within 2× the single-distinct-spec baseline —
/// i.e. 32 identical clients cost about one sweep, not 32.
fn serve_load() {
    use regenr_engine::serve::http::http_request;
    use regenr_engine::{ServeConfig, ServeStats, Server};
    use std::net::SocketAddr;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    println!("\n== serve: request coalescing / admission / deadline load test ==");
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_inflight: 4,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let runner = Arc::clone(&server);
    let run_handle = std::thread::spawn(move || runner.run().expect("accept loop"));

    // One client: POST the spec to /sweep (streaming), retrying on 429
    // until admitted; returns the time-to-last-byte in milliseconds and
    // how many times admission pushed back.
    fn client_for(addr: SocketAddr, spec: String) -> (f64, u32) {
        let t0 = Instant::now();
        let mut retries = 0u32;
        loop {
            let (status, body) = http_request(addr, "POST", "/sweep", &spec).expect("request");
            match status {
                200 => {
                    assert!(
                        std::str::from_utf8(&body)
                            .expect("ndjson body")
                            .lines()
                            .last()
                            .expect("summary record")
                            .contains("\"record\":\"summary\""),
                        "stream must end with a summary record"
                    );
                    return (t0.elapsed().as_secs_f64() * 1e3, retries);
                }
                429 => {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("unexpected status {other}"),
            }
        }
    }
    let run_phase = |specs: Vec<String>| -> (Vec<f64>, u32, f64) {
        let t0 = Instant::now();
        let handles: Vec<_> = specs
            .into_iter()
            .map(|spec| std::thread::spawn(move || client_for(addr, spec)))
            .collect();
        let mut lat: Vec<f64> = Vec::new();
        let mut retries = 0u32;
        for h in handles {
            let (ms, r) = h.join().expect("client thread");
            lat.push(ms);
            retries += r;
        }
        lat.sort_by(f64::total_cmp);
        (lat, retries, t0.elapsed().as_secs_f64() * 1e3)
    };
    let pct = |sorted: &[f64], p: f64| -> f64 {
        sorted[((p / 100.0 * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)]
    };
    let raid_spec = |g: u32, extra: &str| {
        format!(
            r#"{{"horizons":[1,10,100,1000,10000,100000],"models":[{{"kind":"raid","g":{g}}},{{"kind":"raid","g":{g},"absorbing":true}}],"epsilon":1e-10{extra}}}"#
        )
    };

    let mut csv = CsvWriter::create(
        "serve",
        "phase,clients,retried_429,coalesced,rejected,deadline_expired,wall_ms,throughput_rps,p50_ms,p95_ms,p99_ms",
    )
    .unwrap();

    // Baseline: the storm's exact spec against a throwaway server, so the
    // ×2 acceptance bar compares identical cold-cache workloads — one
    // distinct client versus 32 coalesced ones.
    let storm_spec = raid_spec(20, "");
    let solo_wall = {
        let baseline = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .expect("bind baseline");
        let baddr = baseline.local_addr();
        let brunner = Arc::clone(&baseline);
        let bhandle = std::thread::spawn(move || brunner.run().expect("baseline loop"));
        let (solo_ms, _) = client_for(baddr, storm_spec.clone());
        baseline.shutdown();
        bhandle.join().expect("baseline drain");
        println!(
            "  {:>9}: 1 client in {solo_ms:>8.1} ms (distinct-spec cost)",
            "solo"
        );
        csv.row(&[
            "solo".into(),
            "1".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            format!("{solo_ms:.1}"),
            format!("{:.1}", 1e3 / solo_ms),
            format!("{solo_ms:.1}"),
            format!("{solo_ms:.1}"),
            format!("{solo_ms:.1}"),
        ])
        .unwrap();
        solo_ms
    };

    let mut before = server.stats();
    let mut phase = |name: &str, specs: Vec<String>| -> (f64, ServeStats) {
        let clients = specs.len();
        let (lat, retries, wall_ms) = run_phase(specs);
        let after = server.stats();
        let d = ServeStats {
            requests: after.requests - before.requests,
            sweeps: after.sweeps - before.sweeps,
            coalesced: after.coalesced - before.coalesced,
            rejected: after.rejected - before.rejected,
            deadline_expired: after.deadline_expired - before.deadline_expired,
            bad_requests: after.bad_requests - before.bad_requests,
            cells_streamed: after.cells_streamed - before.cells_streamed,
            inflight_highwater: after.inflight_highwater,
            handler_panics: after.handler_panics - before.handler_panics,
        };
        before = after;
        let rps = clients as f64 / (wall_ms / 1e3).max(1e-9);
        println!(
            "  {name:>9}: {clients:>2} clients in {wall_ms:>7.1} ms ({rps:>6.1} req/s) — \
             sweeps {} coalesced {} retried-429 {retries} deadline {}; \
             p50/p95/p99 = {:.1}/{:.1}/{:.1} ms",
            d.sweeps,
            d.coalesced,
            d.deadline_expired,
            pct(&lat, 50.0),
            pct(&lat, 95.0),
            pct(&lat, 99.0),
        );
        csv.row(&[
            name.into(),
            clients.to_string(),
            retries.to_string(),
            d.coalesced.to_string(),
            d.rejected.to_string(),
            d.deadline_expired.to_string(),
            format!("{wall_ms:.1}"),
            format!("{rps:.1}"),
            format!("{:.1}", pct(&lat, 50.0)),
            format!("{:.1}", pct(&lat, 95.0)),
            format!("{:.1}", pct(&lat, 99.0)),
        ])
        .unwrap();
        (wall_ms, d)
    };

    // Storm: 32 clients, all posting the identical (cold) spec.
    let (storm_wall, storm) = phase("storm", vec![storm_spec.clone(); 32]);
    // Distinct barrage: 32 clients, 32 distinct specs through the
    // admission gate (max_inflight = 4; clients retry on 429).
    let distinct: Vec<String> = (0..32)
        .map(|i| {
            format!(
                r#"{{"horizons":[1,10,100,{}],"models":[{{"kind":"raid","g":{}}}],"epsilon":1e-10}}"#,
                1000 + i,
                6 + (i % 8)
            )
        })
        .collect();
    let _ = phase("distinct", distinct);
    // Deadline: 8 identical clients whose sweep is cut mid-flight; the
    // partial streams stay well-formed and the server stays healthy.
    let _ = phase("deadline", vec![raid_spec(21, r#","deadline_ms":50"#); 8]);

    server.shutdown();
    run_handle.join().expect("drain");
    let total = server.stats();
    println!(
        "  totals: requests={} sweeps={} coalesced={} rejected={} deadline_expired={} \
         cells_streamed={} inflight_highwater={}",
        total.requests,
        total.sweeps,
        total.coalesced,
        total.rejected,
        total.deadline_expired,
        total.cells_streamed,
        total.inflight_highwater
    );

    // Acceptance bars (the subsystem's reason to exist).
    assert!(
        storm.coalesced >= 29,
        "identical-spec storm must coalesce >= 90% of 32 clients, got {}",
        storm.coalesced
    );
    assert_eq!(storm.sweeps, 1, "the storm must run exactly one sweep");
    assert!(
        storm_wall <= 2.0 * solo_wall,
        "32-client identical storm ({storm_wall:.1} ms) must cost <= 2x one distinct \
         spec ({solo_wall:.1} ms)"
    );
}

/// `repro chaos` — a fault storm against an in-process server with
/// failpoints armed. Each phase injects one class of infrastructure fault
/// (run-owner death, chunk panic, NaN corruption, cache-build abort, slow
/// writes) and asserts the robustness bars: no stranded client, a dead
/// owner's run ended for every subscriber, recovered values
/// bitwise-identical to running the fallback method directly, and a
/// healthy server afterwards. Results land in `results/chaos.csv`.
#[cfg(feature = "failpoints")]
fn chaos() {
    use regenr_engine::serve::http::http_request;
    use regenr_engine::{Json, ServeConfig, Server};
    use std::net::SocketAddr;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    println!("\n== chaos: failpoint-driven fault storm ==");
    regenr_failpoint::clear();
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_inflight: 4,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let runner = Arc::clone(&server);
    let run_handle = std::thread::spawn(move || runner.run().expect("accept loop"));

    // Storm `clients` identical posts at `path`; every client must come
    // back within the watchdog window — a stranded subscriber (stuck waiting
    // on a dead run) is exactly the bug this harness exists to catch.
    fn storm(
        addr: SocketAddr,
        path: &'static str,
        spec: &str,
        clients: usize,
    ) -> Vec<(u16, String)> {
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..clients {
            let tx = tx.clone();
            let spec = spec.to_string();
            std::thread::spawn(move || {
                let (status, body) = http_request(addr, "POST", path, &spec).expect("request");
                let _ = tx.send((status, String::from_utf8_lossy(&body).into_owned()));
            });
        }
        drop(tx);
        let mut out = Vec::with_capacity(clients);
        for i in 0..clients {
            match rx.recv_timeout(Duration::from_secs(120)) {
                Ok(r) => out.push(r),
                Err(_) => panic!("stranded client: only {i}/{clients} responses arrived"),
            }
        }
        out
    }

    fn num_at(doc: &Json, path: &[&str]) -> f64 {
        let mut j = doc;
        for key in path {
            j = j.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
        }
        let Json::Num(n) = j else {
            panic!("{path:?} is not a number")
        };
        *n
    }

    // Storms with `failpoints` armed, which must fire `site` exactly once;
    // returns the answers and the storm's wall time in ms.
    fn faulted(
        addr: SocketAddr,
        failpoints: &str,
        site: &str,
        path: &'static str,
        spec: &str,
        clients: usize,
    ) -> (Vec<(u16, String)>, f64) {
        regenr_failpoint::configure(failpoints).unwrap();
        let t0 = Instant::now();
        let results = storm(addr, path, spec, clients);
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let fired = regenr_failpoint::fired_count(site);
        regenr_failpoint::clear();
        assert_eq!(fired, 1, "failpoint {site} must fire once");
        (results, wall)
    }

    // The status of a stream's last record, which must be its summary.
    fn summary_status(body: &str) -> Option<&str> {
        let last = body.lines().last()?;
        if !last.contains(r#""record":"summary""#) {
            return None;
        }
        ["ok", "deadline", "error"]
            .into_iter()
            .find(|s| last.contains(&format!(r#""status":"{s}""#)))
    }

    // The one cell of a `200` `/sweep/report` answer.
    fn only_cell((status, body): &(u16, String)) -> Json {
        assert_eq!(*status, 200, "{body}");
        let doc = Json::parse(body).expect("report json");
        let Some(Json::Arr(cells)) = doc.get("reports") else {
            panic!("report has no cells: {body}")
        };
        assert_eq!(cells.len(), 1, "{body}");
        cells[0].clone()
    }

    // The bitwise bar: `answer`'s cell recovered on `via`, on its second
    // attempt, with exactly the bits `direct` (the same spec asking for
    // `via`, no fault armed) gives. Returns the direct cell.
    let recovered = |answer: &(u16, String), via: &str, direct: &str| {
        let cell = only_cell(answer);
        assert_eq!(cell.get("recovered_via"), Some(&Json::Str(via.into())));
        assert_eq!(num_at(&cell, &["attempts"]), 2.0);
        let value = num_at(&cell, &["value"]);
        let direct = only_cell(&storm(addr, "/sweep/report", direct, 1)[0]);
        let direct_value = num_at(&direct, &["value"]);
        assert_eq!(
            value.to_bits(),
            direct_value.to_bits(),
            "recovered value {value:e} must be bitwise identical to direct {via} {direct_value:e}"
        );
        println!("      bitwise: recovered {via} == direct {via} ({value:.12e})");
        direct
    };

    let mut csv = CsvWriter::create(
        "chaos",
        "phase,clients,ok,handler_panics,retries,recovered_cells,wall_ms",
    )
    .unwrap();
    let mut before_stats = server.stats();
    let mut before_robust = server.robustness();
    let mut record = |name: &str, clients: usize, ok: usize, wall_ms: f64| {
        let stats = server.stats();
        let robust = server.robustness();
        let panics = stats.handler_panics - before_stats.handler_panics;
        let retries = robust.retries - before_robust.retries;
        let recovered = robust.recovered_cells - before_robust.recovered_cells;
        println!(
            "  {name:>12}: {ok}/{clients} ok in {wall_ms:>7.1} ms — handler_panics {panics} \
             retries {retries} recovered_cells {recovered}"
        );
        csv.row(&[
            name.into(),
            clients.to_string(),
            ok.to_string(),
            panics.to_string(),
            retries.to_string(),
            recovered.to_string(),
            format!("{wall_ms:.1}"),
        ])
        .unwrap();
        before_stats = stats;
        before_robust = robust;
        (panics, retries, recovered)
    };

    // Phase 1 — owner kill: 32 identical streaming clients subscribe while
    // a build delay holds the run's owner in its model build, then the
    // owner panics as it starts computing. The run is not rerun: every
    // client gets a complete stream whose summary reads "error", and the
    // identical spec sent afterwards computes and reads "ok".
    {
        let spec = r#"{"horizons":[1,10,100],"models":[{"kind":"raid","g":8}],"epsilon":1e-10}"#;
        let (results, wall) = faulted(
            addr,
            "ctmc-csr-build=delay:300;serve-owner=panic,count=1",
            "serve-owner",
            "/sweep",
            spec,
            32,
        );
        let ended = results
            .iter()
            .filter(|(status, body)| *status == 200 && summary_status(body) == Some("error"))
            .count();
        let (panics, _, _) = record("owner-kill", 32, ended, wall);
        assert_eq!(ended, 32, "every stream must end in an error summary");
        assert_eq!(panics, 1, "one owner died, once");
        let (status, body) = &storm(addr, "/sweep", spec, 1)[0];
        assert_eq!((*status, summary_status(body)), (200, Some("ok")), "{body}");
    }

    // Phase 2 — chunk panic: a pool chunk panics mid-SpMV; the supervisor
    // catches the unwind, discards the worker's arenas, and recovers on the
    // fallback. RAID G = 20 UA at t = 100 plans RSD, whose fallback is SR.
    {
        let spec = |method: &str| {
            format!(
                r#"{{"horizons":[100],"method":"{method}","models":[{{"kind":"raid","g":20}}],"epsilon":1e-10}}"#
            )
        };
        let (results, wall) = faulted(
            addr,
            "pool-chunk=panic,count=1",
            "pool-chunk",
            "/sweep/report",
            &spec("auto"),
            1,
        );
        let (_, retries, recovered_cells) = record("chunk-panic", 1, 1, wall);
        assert_eq!((retries, recovered_cells), (1, 1), "one fallback recovered");
        recovered(&results[0], "sr", &spec("sr"));
    }

    // Phase 3 — NaN injection: RRL's inverted value is corrupted to NaN.
    // The health check rejects it and the supervisor falls back to RR,
    // RRL's first fallback.
    {
        let spec = |method: &str| {
            format!(
                r#"{{"horizons":[10000],"method":"{method}","models":[{{"kind":"raid","g":8,"absorbing":true}}],"epsilon":1e-10}}"#
            )
        };
        let (results, wall) = faulted(
            addr,
            "rrl-nan=nan,count=1",
            "rrl-nan",
            "/sweep/report",
            &spec("rrl"),
            1,
        );
        let (_, _, recovered_cells) = record("nan-inject", 1, 1, wall);
        assert_eq!(recovered_cells, 1, "the recovery must be counted");
        recovered(&results[0], "rr", &spec("rr"));
    }

    // Phase 4 — cache-build abort: the uniformization build panics once
    // mid-construction. The cache's slot cleanup removes the aborted slot
    // as the build unwinds, so the SR fallback builds the same uniformized
    // chain afresh, and the direct SR request finds it in the cache. RAID
    // G = 10 UA at t = 200 plans RSD (Λt = 2,750), whose fallback is SR.
    {
        let spec = |method: &str| {
            format!(
                r#"{{"horizons":[200],"method":"{method}","models":[{{"kind":"raid","g":10}}],"epsilon":1e-10}}"#
            )
        };
        let (results, wall) = faulted(
            addr,
            "cache-build-unif=panic,count=1",
            "cache-build-unif",
            "/sweep/report",
            &spec("auto"),
            1,
        );
        let (_, retries, _) = record("cache-abort", 1, 1, wall);
        assert_eq!(retries, 1);
        let direct = recovered(&results[0], "sr", &spec("sr"));
        assert_eq!(
            direct.get("unif_cache_hit"),
            Some(&Json::Bool(true)),
            "the rebuilt uniformization must be live in the cache"
        );
    }

    // Phase 5 — slow writes: every 5th cell record written to any client
    // stalls. Streams slow down but nobody wedges or drops records.
    {
        regenr_failpoint::configure("serve-write=delay:2,every=5").unwrap();
        let spec = r#"{"horizons":[1,10,100],"models":[{"kind":"raid","g":9}],"epsilon":1e-10}"#;
        let t0 = Instant::now();
        let results = storm(addr, "/sweep", spec, 32);
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        regenr_failpoint::clear();
        let ok = results
            .iter()
            .filter(|(status, body)| *status == 200 && summary_status(body).is_some())
            .count();
        record("slow-write", 32, ok, wall);
        assert_eq!(ok, 32, "slow writes must not wedge or truncate any stream");
    }

    // The server must come out of the storm healthy: liveness green, stats
    // servable, and a fresh (never-faulted) sweep solving cleanly.
    let (status, body) = http_request(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    assert!(body_str(&body).contains("ok"), "healthz must be green");
    let (status, body) = http_request(addr, "GET", "/stats", "").expect("stats");
    assert_eq!(status, 200);
    assert!(
        body_str(&body).contains("robustness"),
        "stats must carry the robustness aggregate"
    );
    let (status, _) = http_request(
        addr,
        "POST",
        "/sweep/report",
        r#"{"horizons":[1],"models":[{"kind":"raid","g":7}],"epsilon":1e-10}"#,
    )
    .expect("clean sweep");
    assert_eq!(status, 200, "the server must still solve after the storm");

    server.shutdown();
    run_handle.join().expect("drain");
    let total = server.stats();
    println!(
        "  healthy after storm: requests={} sweeps={} handler_panics={}",
        total.requests, total.sweeps, total.handler_panics
    );
    println!("  chaos: all bars passed");
}

#[cfg(feature = "failpoints")]
fn body_str(body: &[u8]) -> String {
    String::from_utf8_lossy(body).into_owned()
}

#[cfg(not(feature = "failpoints"))]
fn chaos() {
    eprintln!(
        "repro chaos needs the failpoint layer compiled in:\n  cargo run -p regenr-bench \
         --release --features failpoints --bin repro -- chaos"
    );
    std::process::exit(2);
}

fn quick_note(quick: bool) -> &'static str {
    if quick {
        "(--quick: Θ(Λt) methods capped at t ≤ 1e3)"
    } else {
        "(full grid)"
    }
}

/// Cross-method agreement check. The tolerance is looser than ε because the
/// Θ(Λt) methods accumulate floating-point roundoff over millions of steps,
/// which the analytic error budget does not cover (at t = 1e5 the inner SR
/// of RR performs ~4.4e6 compensated accumulations and drifts by ~1e-8 —
/// still 8 agreeing digits). Disagreement beyond tolerance aborts; smaller
/// drift is reported as a warning so the timing harness keeps running.
fn check(a: f64, b: f64, tol: f64, ctx: &str) {
    let d = (a - b).abs();
    assert!(d < 1e-6, "{ctx}: {a} vs {b} — methods genuinely disagree");
    if d >= tol {
        eprintln!("  warning: {ctx}: drift {d:.2e} (roundoff of the Θ(Λt) method)");
    }
}

fn csv_row(csv: &mut CsvWriter, g: u32, t: f64, method: &str, secs: f64, value: f64) {
    csv.row(&[
        g.to_string(),
        t.to_string(),
        method.to_string(),
        format!("{secs:.6}"),
        format!("{value:.10e}"),
    ])
    .unwrap();
}

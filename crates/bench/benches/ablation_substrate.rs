//! Substrate microbenchmarks: the building blocks every solver leans on.
//!
//! * sparse vector–matrix step on the G=40 RAID matrix — the inner loop of
//!   SR/RSD and of the RR/RRL construction — comparing the serial kernel
//!   with the warm-pool stepper at each chunk count;
//! * Poisson weight generation at small and huge `Λt`;
//! * Wynn ε-acceleration of an oscillating series;
//! * closed-form transform evaluation (one Durbin abscissa).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use regenr_bench::{make_rrl, Variant, Workload};
use regenr_core::TransformEvaluator;
use regenr_ctmc::Uniformized;
use regenr_numeric::{Complex64, EpsilonAcceleratorC, PoissonWeights};
use regenr_sparse::ParallelConfig;
use std::hint::black_box;

fn bench_spmv(c: &mut Criterion) {
    let w = Workload::new();
    let chain = w.chain(40, Variant::Ua);
    let unif = Uniformized::new(&chain, 0.0);
    let n = chain.n_states();
    let pi: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let mut out = vec![0.0; n];

    let mut group = c.benchmark_group("substrate_spmv_g40");
    group.bench_function("serial", |b| {
        b.iter(|| {
            unif.p_t.mul_vec_into(&pi, &mut out);
            black_box(out[0])
        })
    });
    for threads in [2usize, 4, 8] {
        let cfg = ParallelConfig {
            min_nnz: 0,
            threads,
            ..Default::default()
        };
        // Warm pool + cached chunk plan: what the solvers' steppers run.
        let stepper = unif.stepper(&cfg);
        // The `threads` axis is the *chunk* count; the pooled kernel
        // executes on at most the global pool's threads.
        group.bench_with_input(BenchmarkId::new("pooled", threads), &(), |b, ()| {
            b.iter(|| {
                stepper.step(&pi, &mut out);
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn bench_poisson(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_poisson");
    for lambda in [25.0, 2.5e4, 2.5e6] {
        group.bench_with_input(
            BenchmarkId::new("weights", lambda),
            &lambda,
            |b, &lambda| b.iter(|| black_box(PoissonWeights::new(lambda, 1e-12).len())),
        );
    }
    group.finish();
}

fn bench_epsilon(c: &mut Criterion) {
    c.bench_function("substrate_epsilon_64_terms", |b| {
        b.iter(|| {
            let mut acc = EpsilonAcceleratorC::new();
            let mut partial = Complex64::ZERO;
            for k in 1..=64 {
                let kf = k as f64;
                partial += Complex64::new((0.9f64).powi(k) * kf.cos(), kf.sin() / kf);
                acc.push(partial);
            }
            black_box(acc.estimate())
        })
    });
}

fn bench_transform_eval(c: &mut Criterion) {
    let w = Workload::new();
    let chain = w.chain(20, Variant::Ur);
    let rrl = make_rrl(&chain);
    let params = rrl.parameters(1e4).unwrap();
    let ev = TransformEvaluator::new(&params);
    let s = Complex64::new(2.3e-4, 0.71);
    c.bench_function("substrate_transform_eval_k2936", |b| {
        b.iter(|| black_box(ev.trr(black_box(s))))
    });
}

criterion_group!(
    benches,
    bench_spmv,
    bench_poisson,
    bench_epsilon,
    bench_transform_eval
);
criterion_main!(benches);

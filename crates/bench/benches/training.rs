//! Batched-training-engine benchmarks: scalar per-example objective vs
//! the fused design-matrix-view engine.
//!
//! Measures the pairs behind `results/BENCH_training.json` (see the
//! `training_baseline` binary, which records the same pairs to JSON):
//!
//! * end-to-end `train()` — scalar oracle vs batched engine,
//! * one objective evaluation — the scalar oracle vs `value_grad`,
//! * the `grads` statistics pass — per-example oracle vs view.
//!
//! Set `BLINKML_BENCH_SMOKE=1` for a quick CI-sized run.

use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::testing::{ScalarOracle, ScalarTrain};
use blinkml_core::ModelClassSpec;
use blinkml_data::generators::synthetic_logistic;
use blinkml_data::{DatasetMatrix, DenseVec, TrainScratch};

/// Disambiguate the feature type for direct trait-method calls.
type Spec = LogisticRegressionSpec;
fn as_dense(spec: &Spec) -> &dyn ModelClassSpec<DenseVec> {
    spec
}
fn oracle(spec: &Spec) -> &dyn ScalarOracle<DenseVec> {
    spec
}
use blinkml_optim::OptimOptions;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Benchmark sizes: (examples, features).
fn sizes() -> (usize, usize) {
    if std::env::var_os("BLINKML_BENCH_SMOKE").is_some() {
        (4_000, 32)
    } else {
        (50_000, 100)
    }
}

fn end_to_end_train(c: &mut Criterion) {
    let (n, d) = sizes();
    let mut g = c.benchmark_group("training_train");
    g.sample_size(10);
    let (data, _) = synthetic_logistic(n, d, 2.0, 1);
    let opts = OptimOptions::default();
    let batched = LogisticRegressionSpec::new(1e-3);
    let scalar = ScalarTrain(LogisticRegressionSpec::new(1e-3));
    g.bench_function(format!("scalar_n{n}_d{d}"), |bench| {
        bench.iter(|| scalar.train(black_box(&data), None, &opts).unwrap())
    });
    g.bench_function(format!("batched_n{n}_d{d}"), |bench| {
        bench.iter(|| batched.train(black_box(&data), None, &opts).unwrap())
    });
    g.finish();
}

fn single_eval(c: &mut Criterion) {
    let (n, d) = sizes();
    let mut g = c.benchmark_group("training_eval");
    g.sample_size(20);
    let (data, _) = synthetic_logistic(n, d, 2.0, 2);
    let spec = LogisticRegressionSpec::new(1e-3);
    let theta: Vec<f64> = (0..d).map(|i| (i as f64 * 0.17).sin() * 0.2).collect();
    g.bench_function(format!("objective_scalar_n{n}_d{d}"), |bench| {
        bench.iter(|| oracle(&spec).scalar_objective(black_box(&theta), &data))
    });
    let xm = DatasetMatrix::from_dataset(&data);
    let mut scratch = TrainScratch::new();
    let mut grad = vec![0.0; d];
    g.bench_function(format!("value_grad_n{n}_d{d}"), |bench| {
        bench.iter(|| {
            as_dense(&spec).value_grad(black_box(&theta), &xm.view(), &mut scratch, &mut grad)
        })
    });
    g.finish();
}

fn grads_pass(c: &mut Criterion) {
    let (n, d) = sizes();
    let (n, d) = (n / 5, d);
    let mut g = c.benchmark_group("training_grads");
    g.sample_size(10);
    let (data, _) = synthetic_logistic(n, d, 2.0, 3);
    let spec = LogisticRegressionSpec::new(1e-3);
    let theta: Vec<f64> = (0..d).map(|i| (i as f64 * 0.29).cos() * 0.2).collect();
    g.bench_function(format!("grads_scalar_n{n}_d{d}"), |bench| {
        bench.iter(|| oracle(&spec).scalar_grads(black_box(&theta), &data))
    });
    let xm = DatasetMatrix::from_dataset(&data);
    g.bench_function(format!("grads_view_n{n}_d{d}"), |bench| {
        bench.iter(|| as_dense(&spec).grads(black_box(&theta), &xm.view()))
    });
    g.finish();
}

criterion_group!(benches, end_to_end_train, single_eval, grads_pass);
criterion_main!(benches);

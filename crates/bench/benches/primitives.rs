//! Criterion microbenchmarks for the substrate primitives that every
//! experiment stresses: linear algebra kernels, factored sampling,
//! statistics computation, and the margin-cached diff engine.

use blinkml_core::compute_statistics;
use blinkml_core::diff_engine::{draw_pool, DiffEngine};
use blinkml_core::models::{LinearRegressionSpec, LogisticRegressionSpec, MaxEntSpec};
use blinkml_core::ModelClassSpec;
use blinkml_data::generators::{mnist_like, power_like, synthetic_logistic};
use blinkml_linalg::{blas, SymmetricEigen, ThinSvd};
use blinkml_optim::OptimOptions;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use blinkml_core::StatisticsMethod::{ClosedForm, InverseGradients, ObservedFisher};
use blinkml_linalg::testing::xorshift_matrix as random_matrix;

fn linalg_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("linalg");
    g.sample_size(20);
    let a = random_matrix(128, 128, 1);
    let b = random_matrix(128, 128, 2);
    g.bench_function("gemm_128", |bench| {
        bench.iter(|| blas::gemm(black_box(&a), black_box(&b)).unwrap())
    });
    let tall = random_matrix(1_000, 64, 3);
    g.bench_function("syrk_t_1000x64", |bench| {
        bench.iter(|| blas::syrk_t(black_box(&tall)))
    });
    let mut sym = blas::syrk_t(&random_matrix(96, 96, 4));
    sym.add_diag(1.0);
    g.bench_function("eigen_sym_96", |bench| {
        bench.iter_batched(
            || sym.clone(),
            |m| SymmetricEigen::new(black_box(&m)).unwrap(),
            BatchSize::SmallInput,
        )
    });
    let rect = random_matrix(200, 60, 5);
    g.bench_function("thin_svd_200x60", |bench| {
        bench.iter(|| ThinSvd::new(black_box(&rect)).unwrap())
    });
    g.finish();
}

fn training(c: &mut Criterion) {
    let mut g = c.benchmark_group("training");
    g.sample_size(10);
    let (data, _) = synthetic_logistic(5_000, 20, 2.0, 7);
    let spec = LogisticRegressionSpec::new(1e-3);
    g.bench_function("logreg_n5000_d20", |bench| {
        bench.iter(|| {
            spec.train(black_box(&data), None, &OptimOptions::default())
                .unwrap()
        })
    });
    let mnist = mnist_like(3_000, 8);
    let me = MaxEntSpec::new(1e-3, 10);
    g.bench_function("maxent_n3000_d196_k10", |bench| {
        bench.iter(|| {
            me.train(black_box(&mnist), None, &OptimOptions::default())
                .unwrap()
        })
    });
    g.finish();
}

fn statistics_methods(c: &mut Criterion) {
    // The Table/Figure 9 comparison in microbench form.
    let mut g = c.benchmark_group("fig9_statistics");
    g.sample_size(10);
    let (data, _) = synthetic_logistic(3_000, 24, 2.0, 9);
    let spec = LogisticRegressionSpec::new(1e-3);
    let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
    g.bench_function("observed_fisher_d24", |bench| {
        bench.iter(|| {
            compute_statistics(ObservedFisher, &spec, black_box(model.parameters()), &data).unwrap()
        })
    });
    g.bench_function("closed_form_d24", |bench| {
        bench.iter(|| {
            compute_statistics(ClosedForm, &spec, black_box(model.parameters()), &data).unwrap()
        })
    });
    g.bench_function("inverse_gradients_d24", |bench| {
        bench.iter(|| {
            compute_statistics(
                InverseGradients,
                &spec,
                black_box(model.parameters()),
                &data,
            )
            .unwrap()
        })
    });
    g.finish();
}

fn sampling_and_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampling");
    g.sample_size(20);
    let data = power_like(8_000, 11);
    let spec = LinearRegressionSpec::new(1e-3);
    let sample = data.sample(1_000, 1);
    let model = spec.train(&sample, None, &OptimOptions::default()).unwrap();
    let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &sample).unwrap();
    g.bench_function("draw_pool_100_d115", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            draw_pool(black_box(&stats), 100, seed)
        })
    });
    let pool = draw_pool(&stats, 100, 42);
    let holdout = data.sample(2_000, 2);
    let engine = DiffEngine::new(&spec, &holdout, model.parameters(), &pool, &pool);
    g.bench_function("sse_probe_k100_h2000", |bench| {
        // One binary-search probe of the Sample Size Estimator.
        bench.iter(|| {
            let mut hits = 0usize;
            for i in 0..100 {
                if engine.diff_two_stage(black_box(i), 0.02, 0.01) <= 0.05 {
                    hits += 1;
                }
            }
            hits
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    linalg_kernels,
    training,
    statistics_methods,
    sampling_and_diff
);
criterion_main!(benches);

//! Criterion benchmarks mirroring each paper experiment at reduced
//! scale — one group per table/figure, so `cargo bench` exercises every
//! reproduced pipeline end-to-end. The full-resolution tables come from
//! the `fig*` binaries (see DESIGN.md §4); these groups track the cost
//! of each pipeline over time.

use blinkml_bench::combos::ComboId;
use blinkml_core::baselines::{IncEstimator, SampleSizePolicy};
use blinkml_core::compute_statistics;
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::StatisticsMethod::ObservedFisher;
use blinkml_core::{BlinkMlConfig, ModelClassSpec, SampleSizeEstimator};
use blinkml_data::generators::criteo_like;
use blinkml_optim::OptimOptions;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Scale factor applied to the combo datasets (keeps each iteration in
/// the tens-of-milliseconds range).
const BENCH_SCALE: f64 = 0.1;

fn fig5_table4_speedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_table4_speedup");
    g.sample_size(10);
    // One representative combo per model family.
    for id in [ComboId::LrHiggs, ComboId::LinGas] {
        let combo = id.make(BENCH_SCALE, 5);
        g.bench_function(format!("blinkml_95pct/{}", id.label()), |bench| {
            let mut seed = 0u64;
            bench.iter(|| {
                seed += 1;
                combo.run_blinkml(black_box(0.05), 0.05, 300, 32, seed)
            })
        });
    }
    g.finish();
}

fn fig6_table5_guarantees(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_table5_guarantees");
    g.sample_size(10);
    let mut combo = ComboId::LrHiggs.make(BENCH_SCALE, 6);
    combo.train_full();
    g.bench_function("run_and_measure_actual_accuracy", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            let run = combo.run_blinkml(0.1, 0.05, 300, 32, seed);
            combo.actual_accuracy(black_box(&run.theta))
        })
    });
    g.finish();
}

fn fig7_tables67_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_tables67_baselines");
    g.sample_size(10);
    let combo = ComboId::LrHiggs.make(BENCH_SCALE, 7);
    for policy in ["fixed", "relative"] {
        g.bench_function(policy, |bench| {
            let mut seed = 0u64;
            bench.iter(|| {
                seed += 1;
                combo.run_policy(black_box(policy), 0.1, 0.05, 16, seed)
            })
        });
    }
    // IncEstimator at a small growth base (trains several models).
    let (data, _) = blinkml_data::generators::synthetic_logistic(8_000, 10, 2.0, 8);
    let split = data.split(500, 0, 1);
    let spec = LogisticRegressionSpec::new(1e-3);
    let config = BlinkMlConfig {
        epsilon: 0.1,
        num_param_samples: 32,
        ..BlinkMlConfig::default()
    };
    g.bench_function("inc_estimator", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            IncEstimator {
                base: 500,
                ..IncEstimator::default()
            }
            .run(&spec, &split.train, &split.holdout, &config, seed)
            .unwrap()
        })
    });
    g.finish();
}

fn fig8_table8_dimension(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_table8_dimension");
    g.sample_size(10);
    for d in [200usize, 2_000] {
        let data = criteo_like(12_000, d, 9);
        let split = data.split(800, 0, 2);
        let spec = LogisticRegressionSpec::new(1e-3);
        g.bench_function(format!("blinkml_pipeline_d{d}"), |bench| {
            let mut seed = 0u64;
            bench.iter(|| {
                seed += 1;
                let sample = split.train.sample(500, seed);
                let m = spec.train(&sample, None, &OptimOptions::default()).unwrap();
                compute_statistics(ObservedFisher, &spec, black_box(m.parameters()), &sample)
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn fig11_sample_size_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_sample_size_search");
    g.sample_size(10);
    let data = criteo_like(30_000, 1_000, 11);
    let split = data.split(1_000, 0, 3);
    let spec = LogisticRegressionSpec::new(1e-3);
    let sample = split.train.sample(800, 4);
    let model = spec.train(&sample, None, &OptimOptions::default()).unwrap();
    let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &sample).unwrap();
    g.bench_function("binary_search_k64", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            SampleSizeEstimator::new(64).estimate(
                &spec,
                black_box(model.parameters()),
                &stats,
                800,
                split.train.len(),
                &split.holdout,
                0.05,
                0.05,
                seed,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    fig5_table4_speedup,
    fig6_table5_guarantees,
    fig7_tables67_baselines,
    fig8_table8_dimension,
    fig11_sample_size_search
);
criterion_main!(benches);

//! Spectral-engine benchmarks: dense vs truncated randomized statistics.
//!
//! Measures the pairs behind `results/BENCH_spectral.json` (see the
//! `spectral_baseline` binary, which records the same pairs to JSON):
//!
//! * the ObservedFisher statistics phase — full `tred2`/`tql2` over the
//!   materialized second moment vs the matrix-free randomized solver,
//! * the raw eigensolvers on an explicit symmetric matrix,
//! * batched vs per-draw pool sampling through the covariance factor.
//!
//! Set `BLINKML_BENCH_SMOKE=1` for a quick CI-sized run.

use blinkml_core::models::LinearRegressionSpec;
use blinkml_core::StatisticsMethod::ObservedFisher;
use blinkml_core::{compute_statistics, compute_statistics_view, ModelClassSpec, SpectralMethod};
use blinkml_data::generators::synthetic_linear_decay;
use blinkml_data::{DatasetMatrix, DenseVec};
use blinkml_linalg::spectral::{randomized_eigen, DenseSymmetricOp};
use blinkml_linalg::SymmetricEigen;
use blinkml_optim::OptimOptions;
use blinkml_prob::{rng_from_seed, MvnSampler};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Benchmark sizes: (examples, features, rank, pool draws).
fn sizes() -> (usize, usize, usize, usize) {
    if std::env::var_os("BLINKML_BENCH_SMOKE").is_some() {
        (400, 48, 12, 16)
    } else {
        (2_000, 400, 48, 128)
    }
}

fn randomized_knobs(rank: usize) -> SpectralMethod {
    SpectralMethod::Randomized {
        rank,
        oversample: 16,
        power_iters: 1,
        tol: 1e-6,
    }
}

fn statistics_phase(c: &mut Criterion) {
    let (n, d, rank, _) = sizes();
    let mut g = c.benchmark_group("spectral_statistics");
    g.sample_size(10);
    let (data, _) = synthetic_linear_decay(n, d, 0.85, 0.5, 1);
    let spec = LinearRegressionSpec::new(1e-2);
    let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
    let xm = DatasetMatrix::from_dataset(&data);
    let statistics = |spectral: SpectralMethod| {
        compute_statistics_view::<DenseVec, _>(
            ObservedFisher,
            spectral,
            black_box(&spec),
            model.parameters(),
            &xm.view(),
        )
        .unwrap()
    };
    g.bench_function(format!("observed_fisher_dense_n{n}_d{d}"), |bench| {
        bench.iter(|| statistics(SpectralMethod::Dense))
    });
    g.bench_function(
        format!("observed_fisher_randomized_n{n}_d{d}_r{rank}"),
        |bench| bench.iter(|| statistics(randomized_knobs(rank))),
    );
    g.finish();
}

fn eigensolvers(c: &mut Criterion) {
    let (_, d, rank, _) = sizes();
    let mut g = c.benchmark_group("spectral_eigensolver");
    g.sample_size(10);
    // A decaying PSD matrix shaped like a regularized second moment
    // (scale floored like the data generator, so the spectrum stays
    // inside the dynamic range tql2 tolerates at any d).
    let probe = blinkml_linalg::testing::xorshift_matrix(2 * d, d, 2);
    let mut scaled = probe.clone();
    for i in 0..scaled.rows() {
        for (j, v) in scaled.row_mut(i).iter_mut().enumerate() {
            *v *= 0.85f64.powi(j as i32).max(1e-4);
        }
    }
    let a = blinkml_linalg::blas::syrk_t(&scaled);
    g.bench_function(format!("dense_tql2_d{d}"), |bench| {
        bench.iter(|| SymmetricEigen::new(black_box(&a)).unwrap())
    });
    g.bench_function(format!("randomized_d{d}_r{rank}"), |bench| {
        bench.iter(|| {
            randomized_eigen(&DenseSymmetricOp::new(black_box(&a)), rank, 16, 1, 1e-6).unwrap()
        })
    });
    g.finish();
}

fn pool_drawing(c: &mut Criterion) {
    let (n, d, _, pool_k) = sizes();
    let mut g = c.benchmark_group("spectral_pool");
    g.sample_size(10);
    let (data, _) = synthetic_linear_decay(n, d, 0.85, 0.5, 3);
    let spec = LinearRegressionSpec::new(1e-2);
    let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
    let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &data).unwrap();
    g.bench_function(format!("pool_per_draw_k{pool_k}_d{d}"), |bench| {
        bench.iter(|| {
            MvnSampler::new(&stats).sample_pool_seq(&mut rng_from_seed(7), black_box(pool_k))
        })
    });
    g.bench_function(format!("pool_batched_k{pool_k}_d{d}"), |bench| {
        bench.iter(|| MvnSampler::new(&stats).sample_pool(&mut rng_from_seed(7), black_box(pool_k)))
    });
    g.finish();
}

criterion_group!(benches, statistics_phase, eigensolvers, pool_drawing);
criterion_main!(benches);

//! Property-based tests of the core invariants: gradient consistency
//! across model classes, the scaling law of the parameter sampler, and
//! estimator monotonicity.

use blinkml_core::accuracy::sampling_alpha;
use blinkml_core::diff_engine::{draw_pool, DiffEngine};
use blinkml_core::grads::Grads;
use blinkml_core::models::{LinearRegressionSpec, LogisticRegressionSpec, MaxEntSpec};
use blinkml_core::testing::{view_grads, view_objective, NoBatch};
use blinkml_core::StatisticsMethod::ObservedFisher;
use blinkml_core::{compute_statistics, ModelClassSpec};
use blinkml_data::generators::{synthetic_linear, synthetic_logistic, synthetic_multiclass};
use blinkml_data::SparseVec;
use blinkml_linalg::Matrix;
use blinkml_optim::OptimOptions;
use proptest::prelude::*;

/// Random sparse gradient rows plus a shared shift, exercising the
/// sparse second-moment/Gram paths.
fn sparse_grads(n: usize, d: usize, seed: u64) -> Grads {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let rows = (0..n)
        .map(|_| {
            let mut pairs = Vec::new();
            for i in 0..d {
                if next() % 3 == 0 {
                    let v = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    pairs.push((i as u32, v));
                }
            }
            SparseVec::from_pairs(d, pairs)
        })
        .collect();
    let shift = (0..d)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect();
    Grads::Sparse { rows, shift }
}

/// Naive O(n·D²) second moment from materialized rows — the sequential
/// reference for both layouts.
fn naive_second_moment(g: &Grads) -> Matrix {
    let (n, d) = (g.num_rows(), g.dim());
    let mut j = Matrix::zeros(d, d);
    for i in 0..n {
        let row = g.row_dense(i);
        for a in 0..d {
            for b in 0..d {
                j[(a, b)] += row[a] * row[b] / n.max(1) as f64;
            }
        }
    }
    j
}

/// Naive Gram matrix from materialized rows.
fn naive_gram(g: &Grads) -> Matrix {
    let n = g.num_rows();
    let rows: Vec<Vec<f64>> = (0..n).map(|i| g.row_dense(i)).collect();
    Matrix::from_fn(n, n, |i, j| {
        rows[i]
            .iter()
            .zip(&rows[j])
            .map(|(a, b)| a * b)
            .sum::<f64>()
            / n.max(1) as f64
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn logistic_gradient_consistency(seed in 0u64..500, beta in 0.0f64..0.1) {
        // grads mean must equal the objective gradient at any θ.
        let (data, _) = synthetic_logistic(150, 4, 2.0, seed);
        let spec = LogisticRegressionSpec::new(beta);
        let theta: Vec<f64> = (0..4).map(|i| ((seed + i) % 7) as f64 * 0.1 - 0.3).collect();
        let (_, grad) = view_objective(&spec, &theta, &data);
        let mean = view_grads(&spec, &theta, &data).mean_row();
        for (g, m) in grad.iter().zip(&mean) {
            prop_assert!((g - m).abs() < 1e-10);
        }
    }

    #[test]
    fn linear_gradient_consistency(seed in 0u64..500) {
        let (data, _) = synthetic_linear(150, 3, 0.5, seed);
        let spec = LinearRegressionSpec::new(1e-3);
        let mut theta: Vec<f64> = (0..4).map(|i| (i as f64) * 0.2 - 0.3).collect();
        theta[3] = -0.2; // ln σ²
        let (_, grad) = view_objective(&spec, &theta, &data);
        let mean = view_grads(&spec, &theta, &data).mean_row();
        for (g, m) in grad.iter().zip(&mean) {
            prop_assert!((g - m).abs() < 1e-10);
        }
    }

    #[test]
    fn maxent_gradient_consistency(seed in 0u64..500) {
        let data = synthetic_multiclass(120, 3, 3, seed);
        let spec = MaxEntSpec::new(1e-3, 3);
        let theta: Vec<f64> = (0..9).map(|i| ((i * 5) % 11) as f64 * 0.05).collect();
        let (_, grad) = view_objective(&spec, &theta, &data);
        let mean = view_grads(&spec, &theta, &data).mean_row();
        for (g, m) in grad.iter().zip(&mean) {
            prop_assert!((g - m).abs() < 1e-10);
        }
    }

    #[test]
    fn alpha_is_monotone(n1 in 10usize..10_000, n2 in 10usize..10_000) {
        let big_n = 20_000usize;
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        // Larger samples give smaller parameter-sampling variance.
        prop_assert!(sampling_alpha(hi, big_n) <= sampling_alpha(lo, big_n));
        prop_assert!(sampling_alpha(lo, big_n) >= 0.0);
    }

    #[test]
    fn diff_engine_scaling_is_monotone_for_rms(seed in 0u64..100) {
        // For RMS (regression) differences, scaling the perturbation up
        // scales the difference exactly linearly.
        let (holdout, _) = synthetic_linear(200, 3, 0.3, seed);
        let spec = LinearRegressionSpec::new(0.0);
        let base = vec![0.5, -0.5, 0.25, 0.0];
        let pool = vec![vec![0.3, 0.2, -0.1, 0.05]];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        let v1 = engine.diff_one_stage(0, 0.5);
        let v2 = engine.diff_one_stage(0, 1.0);
        prop_assert!((v2 - 2.0 * v1).abs() < 1e-9, "linear scaling: {v1} vs {v2}");
    }

    #[test]
    fn accuracy_estimate_decreases_with_n(seed in 0u64..20) {
        let (data, _) = synthetic_logistic(3_000, 4, 2.0, seed);
        let split = data.split(400, 0, seed + 1);
        let spec = LogisticRegressionSpec::new(1e-3);
        let sample = split.train.sample(500, seed + 2);
        let model = spec.train(&sample, None, &OptimOptions::default()).unwrap();
        let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &sample).unwrap();
        let est = blinkml_core::ModelAccuracyEstimator::new(32);
        let full_n = split.train.len();
        let eps_200 = est.estimate(
            &spec, model.parameters(), &stats, 200, full_n, &split.holdout, 0.05, seed + 3,
        );
        let eps_1500 = est.estimate(
            &spec, model.parameters(), &stats, 1_500, full_n, &split.holdout, 0.05, seed + 3,
        );
        prop_assert!(eps_1500 <= eps_200, "{eps_1500} > {eps_200}");
    }

    #[test]
    fn gemm_diff_engine_matches_per_example_linear(
        h in 1usize..200, d in 1usize..8, k in 1usize..6, seed in 0u64..500,
    ) {
        // Batched GEMM construction vs. the per-example margins path,
        // for random shapes, one- and two-stage forms.
        let (holdout, _) = synthetic_linear(h, d, 0.4, seed);
        let spec = LinearRegressionSpec::new(1e-3);
        let base: Vec<f64> = (0..d + 1).map(|i| ((i * 3 + 1) as f64 * 0.17).sin()).collect();
        let pool: Vec<Vec<f64>> = (0..k)
            .map(|p| (0..d + 1).map(|i| ((p * 7 + i) as f64 * 0.29).cos() * 0.3).collect())
            .collect();
        let batched = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        let reference = NoBatch(spec.clone());
        let seq = DiffEngine::new(&reference, &holdout, &base, &pool, &pool);
        for i in 0..k {
            let f = batched.diff_one_stage(i, 0.7);
            let s = seq.diff_one_stage(i, 0.7);
            prop_assert!((f - s).abs() < 1e-12, "one-stage draw {i}: {f} vs {s}");
            let f2 = batched.diff_two_stage(i, 0.6, 0.3);
            let s2 = seq.diff_two_stage(i, 0.6, 0.3);
            prop_assert!((f2 - s2).abs() < 1e-12, "two-stage draw {i}: {f2} vs {s2}");
        }
    }

    #[test]
    fn gemm_diff_engine_matches_per_example_multiclass(
        h in 1usize..150, seed in 0u64..200,
    ) {
        // Multi-output margins (max-entropy, K = 3).
        let holdout = synthetic_multiclass(h, 3, 3, seed);
        let spec = MaxEntSpec::new(1e-3, 3);
        let base: Vec<f64> = (0..9).map(|i| (i as f64 * 0.23).sin()).collect();
        let pool: Vec<Vec<f64>> = (0..3)
            .map(|p| (0..9).map(|i| ((p * 5 + i) as f64 * 0.31).cos() * 0.4).collect())
            .collect();
        let batched = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        let reference = NoBatch(MaxEntSpec::new(1e-3, 3));
        let seq = DiffEngine::new(&reference, &holdout, &base, &pool, &pool);
        for i in 0..3 {
            prop_assert!(
                (batched.diff_one_stage(i, 0.9) - seq.diff_one_stage(i, 0.9)).abs() < 1e-12
            );
            prop_assert!(
                (batched.diff_two_stage(i, 0.5, 0.4) - seq.diff_two_stage(i, 0.5, 0.4)).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn parallel_moments_match_naive_dense(n in 1usize..60, d in 1usize..8, seed in 0u64..1_000) {
        // Includes D > n shapes (the Gram regime).
        let g = Grads::Dense(blinkml_linalg::testing::xorshift_matrix(n, d, seed));
        prop_assert!(g.second_moment().max_abs_diff(&naive_second_moment(&g)) < 1e-12);
        prop_assert!(g.gram().max_abs_diff(&naive_gram(&g)) < 1e-12);
    }

    #[test]
    fn parallel_moments_match_naive_sparse(n in 1usize..40, d in 1usize..30, seed in 0u64..1_000) {
        // Sparse layout, including the D > n implicit-factor regime.
        let g = sparse_grads(n, d, seed);
        prop_assert!(g.second_moment().max_abs_diff(&naive_second_moment(&g)) < 1e-12);
        prop_assert!(g.gram().max_abs_diff(&naive_gram(&g)) < 1e-12);
    }

    #[test]
    fn pool_draws_scale_with_factor(seed in 0u64..50) {
        // Sampling-by-scaling: pools are reusable across n because the
        // draw for sample size n is exactly √α · (unscaled draw).
        let (data, _) = synthetic_linear(2_000, 3, 0.5, seed);
        let spec = LinearRegressionSpec::new(1e-3);
        let sample = data.sample(400, seed);
        let model = spec.train(&sample, None, &OptimOptions::default()).unwrap();
        let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &sample).unwrap();
        let a = draw_pool(&stats, 4, seed + 10);
        let b = draw_pool(&stats, 4, seed + 10);
        prop_assert_eq!(a, b, "pools must be deterministic per seed");
    }
}

//! Integration tests for the truncated randomized spectral engine: the
//! matrix-free `Grads` operators, the `SpectralMethod::Randomized`
//! statistics path, the batched pool-drawing pipeline, and the
//! end-to-end Dense-vs-Randomized coordinator comparison.

use blinkml_core::diff_engine::draw_pool;
use blinkml_core::grads::Grads;
use blinkml_core::models::{LinearRegressionSpec, MaxEntSpec};
use blinkml_core::StatisticsMethod::{ClosedForm, ObservedFisher};
use blinkml_core::{
    compute_statistics, compute_statistics_view, BlinkMlConfig, Coordinator, ModelClassSpec,
    SpectralMethod,
};
use blinkml_data::generators::{synthetic_linear_decay, yelp_like};
use blinkml_data::{DatasetMatrix, DenseVec, SparseVec};
use blinkml_linalg::spectral::{randomized_eigen, SymmetricOp};
use blinkml_linalg::{Matrix, SymmetricEigen};
use blinkml_optim::OptimOptions;
use blinkml_prob::{rng_from_seed, MvnSampler};
use proptest::prelude::*;

/// Dense `Grads` with geometrically decaying column scales, so the
/// second-moment/Gram spectra decay the way regularized Fisher matrices
/// do in practice.
fn decaying_dense_grads(n: usize, d: usize, decay: f64, seed: u64) -> Grads {
    let mut m = blinkml_linalg::testing::xorshift_matrix(n, d, seed);
    for i in 0..n {
        for (j, v) in m.row_mut(i).iter_mut().enumerate() {
            *v *= decay.powi(j as i32);
        }
    }
    Grads::Dense(m)
}

/// Sparse `Grads` (rows + shared shift) with decaying value scales.
fn decaying_sparse_grads(n: usize, d: usize, seed: u64) -> Grads {
    let probe = blinkml_linalg::testing::xorshift_matrix(n, d, seed);
    let shift: Vec<f64> = (0..d).map(|j| 0.01 * 0.9f64.powi(j as i32)).collect();
    let rows = (0..n)
        .map(|i| {
            let mut idx = Vec::new();
            let mut val = Vec::new();
            for (j, &v) in probe.row(i).iter().enumerate() {
                // Keep roughly a third of the entries.
                if v > 0.15 {
                    idx.push(j as u32);
                    val.push(v * 0.85f64.powi(j as i32));
                }
            }
            SparseVec::new(d, idx, val)
        })
        .collect();
    Grads::Sparse { rows, shift }
}

/// Dominant eigenpairs of the randomized solver vs the dense solver on
/// the materialized matrix, within the relative tolerance.
fn assert_dominant_pairs_match(op: &dyn SymmetricOp, dense: &Matrix, label: &str) {
    let mut sym = dense.clone();
    sym.symmetrize();
    let exact = SymmetricEigen::new(&sym).unwrap();
    let approx = randomized_eigen(op, 8, 4, 2, 1e-9).unwrap();
    let lmax = exact.eigenvalues.first().copied().unwrap_or(0.0).max(0.0);
    if lmax == 0.0 {
        return;
    }
    let compare = approx.captured().min(8);
    for j in 0..compare {
        let got = approx.eigenvalues[j];
        let want = exact.eigenvalues[j];
        assert!(
            (got - want).abs() < 1e-6 * lmax,
            "{label}: eigenvalue {j}: {got} vs {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn randomized_matches_dense_eigen_dense_grads_both_regimes(seed in 0u64..500) {
        // D ≤ n: second-moment operator.
        let g = decaying_dense_grads(40, 12, 0.7, seed);
        assert_dominant_pairs_match(&g.second_moment_op(), &g.second_moment(), "J (dense, D≤n)");
        // D > n: Gram operator.
        let g = decaying_dense_grads(10, 25, 0.8, seed ^ 0x55);
        assert_dominant_pairs_match(&g.gram_op(), &g.gram(), "G (dense, D>n)");
    }

    #[test]
    fn randomized_matches_dense_eigen_sparse_grads_both_regimes(seed in 0u64..500) {
        // D ≤ n regime.
        let g = decaying_sparse_grads(45, 14, seed);
        assert_dominant_pairs_match(&g.second_moment_op(), &g.second_moment(), "J (sparse, D≤n)");
        // D > n regime.
        let g = decaying_sparse_grads(12, 30, seed ^ 0xAA);
        assert_dominant_pairs_match(&g.gram_op(), &g.gram(), "G (sparse, D>n)");
    }

    #[test]
    fn batched_pool_is_bitwise_identical_per_draw_through_statistics(seed in 0u64..100) {
        // Explicit factor (D ≤ n): linreg ObservedFisher.
        let (data, _) = synthetic_linear_decay(400, 8, 0.85, 0.3, seed);
        let spec = LinearRegressionSpec::new(1e-2);
        let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
        let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &data).unwrap();
        let batched = MvnSampler::new(&stats).sample_pool(&mut rng_from_seed(seed), 24);
        let per_draw = MvnSampler::new(&stats).sample_pool_seq(&mut rng_from_seed(seed), 24);
        prop_assert_eq!(batched, per_draw, "explicit factor must match bitwise");
    }
}

#[test]
fn batched_pool_is_bitwise_identical_for_implicit_factor() {
    // Implicit factor (D > n): sparse MaxEnt ObservedFisher.
    let data = yelp_like(40, 120, 3); // D = 5·120 = 600 > n = 40
    let spec = MaxEntSpec::new(1e-3, 5);
    let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
    let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &data).unwrap();
    let batched = MvnSampler::new(&stats).sample_pool(&mut rng_from_seed(9), 16);
    let per_draw = MvnSampler::new(&stats).sample_pool_seq(&mut rng_from_seed(9), 16);
    assert_eq!(batched, per_draw, "implicit factor must match bitwise");
    // And `draw_pool`, the estimator entry point, is the batched path.
    let pooled = draw_pool(&stats, 16, 9);
    assert_eq!(pooled, per_draw);
}

#[test]
fn truncated_covariance_is_within_frobenius_tolerance_dense() {
    // Explicit-factor regime (D ≤ n) with a genuinely truncated run: the
    // spectrum decays below tol inside the parameter dimension.
    let (data, _) = synthetic_linear_decay(1_500, 40, 0.8, 0.4, 11);
    let spec = LinearRegressionSpec::new(1e-2);
    let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
    let dense = compute_statistics(ObservedFisher, &spec, model.parameters(), &data).unwrap();
    let randomized = compute_statistics_view::<DenseVec, _>(
        ObservedFisher,
        SpectralMethod::Randomized {
            rank: 24,
            oversample: 8,
            power_iters: 2,
            tol: 1e-6,
        },
        &spec,
        model.parameters(),
        &DatasetMatrix::from_dataset(&data).view(),
    )
    .unwrap();
    assert!(
        randomized.rank() < dense.rank(),
        "randomized run should truncate ({} vs {})",
        randomized.rank(),
        dense.rank()
    );
    let c_dense = dense.covariance_dense();
    let c_rand = randomized.covariance_dense();
    let denom = c_dense.frobenius_norm().max(1e-12);
    let mut diff = c_dense.clone();
    diff.add_scaled(-1.0, &c_rand);
    let rel = diff.frobenius_norm() / denom;
    assert!(rel < 1e-2, "relative Frobenius error {rel}");
}

#[test]
fn truncated_covariance_is_within_frobenius_tolerance_sparse_implicit() {
    // Implicit-factor regime (D > n) through the Gram operator.
    let data = yelp_like(50, 150, 7); // D = 750 > n = 50
    let spec = MaxEntSpec::new(1e-2, 5);
    let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
    let dense = compute_statistics(ObservedFisher, &spec, model.parameters(), &data).unwrap();
    let randomized = compute_statistics_view::<SparseVec, _>(
        ObservedFisher,
        SpectralMethod::Randomized {
            rank: 16,
            oversample: 8,
            power_iters: 2,
            tol: 1e-7,
        },
        &spec,
        model.parameters(),
        &DatasetMatrix::from_dataset(&data).view(),
    )
    .unwrap();
    let c_dense = dense.covariance_dense();
    let c_rand = randomized.covariance_dense();
    let denom = c_dense.frobenius_norm().max(1e-12);
    let mut diff = c_dense.clone();
    diff.add_scaled(-1.0, &c_rand);
    let rel = diff.frobenius_norm() / denom;
    assert!(rel < 1e-2, "relative Frobenius error {rel}");
}

#[test]
fn closed_form_randomized_truncates_and_matches_dense() {
    // The Hessian-based methods must probe the unshifted J = H − βI:
    // probing H itself would floor every Ritz value at β, the tail test
    // could never pass, and the adaptive loop would blow up to the full
    // dimension. A genuinely truncated result (rank < dense rank) is
    // the regression signal that early convergence works.
    let (data, _) = synthetic_linear_decay(1_200, 40, 0.8, 0.4, 17);
    let spec = LinearRegressionSpec::new(1e-2);
    let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
    let dense = compute_statistics(ClosedForm, &spec, model.parameters(), &data).unwrap();
    let randomized = compute_statistics_view::<DenseVec, _>(
        ClosedForm,
        SpectralMethod::Randomized {
            rank: 24,
            oversample: 8,
            power_iters: 2,
            tol: 1e-6,
        },
        &spec,
        model.parameters(),
        &DatasetMatrix::from_dataset(&data).view(),
    )
    .unwrap();
    assert!(
        randomized.rank() < dense.rank(),
        "randomized ClosedForm should truncate ({} vs {})",
        randomized.rank(),
        dense.rank()
    );
    let c_dense = dense.covariance_dense();
    let c_rand = randomized.covariance_dense();
    let denom = c_dense.frobenius_norm().max(1e-12);
    let mut diff = c_dense.clone();
    diff.add_scaled(-1.0, &c_rand);
    let rel = diff.frobenius_norm() / denom;
    assert!(rel < 1e-2, "relative Frobenius error {rel}");
}

#[test]
fn marginal_variances_match_covariance_diagonal_implicit_branch() {
    // The blocked one-pass marginal_variances on the implicit factor
    // (the explicit branch is covered by the stats unit tests).
    let data = yelp_like(40, 120, 5);
    let spec = MaxEntSpec::new(1e-3, 5);
    let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
    let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &data).unwrap();
    let mv = stats.marginal_variances();
    let cov = stats.covariance_dense();
    for i in 0..stats.dim() {
        assert!(
            (mv[i] - cov[(i, i)]).abs() < 1e-10 * (1.0 + cov[(i, i)].abs()),
            "diag {i}: {} vs {}",
            mv[i],
            cov[(i, i)]
        );
    }
}

#[test]
fn coordinator_dense_and_randomized_pick_close_sample_sizes() {
    // End to end on a synthetic GLM with decaying feature spectrum: the
    // two spectral engines must agree on the initial ε estimate and the
    // chosen sample size within a small relative band.
    let (data, _) = synthetic_linear_decay(12_000, 30, 0.85, 0.5, 21);
    let spec = LinearRegressionSpec::new(1e-2);
    let config = |spectral: SpectralMethod| BlinkMlConfig {
        epsilon: 0.02,
        delta: 0.05,
        initial_sample_size: 500,
        holdout_size: 1_000,
        // A large pool: the two engines draw through *different* factor
        // bases (same covariance, different eigenvector rotation), so
        // their Monte Carlo quantiles only agree up to O(1/√k) noise.
        num_param_samples: 256,
        spectral,
        ..BlinkMlConfig::default()
    };
    let dense = Coordinator::new(config(SpectralMethod::Dense))
        .train(&spec, &data, 33)
        .unwrap();
    let randomized = Coordinator::new(config(SpectralMethod::Randomized {
        rank: 24,
        oversample: 8,
        power_iters: 2,
        tol: 1e-7,
    }))
    .train(&spec, &data, 33)
    .unwrap();
    let eps_rel = (dense.initial_epsilon - randomized.initial_epsilon).abs()
        / dense.initial_epsilon.max(1e-9);
    assert!(
        eps_rel < 0.10,
        "initial ε: dense {} vs randomized {} (rel {eps_rel})",
        dense.initial_epsilon,
        randomized.initial_epsilon
    );
    let n_rel =
        (dense.sample_size as f64 - randomized.sample_size as f64).abs() / dense.sample_size as f64;
    assert!(
        n_rel < 0.15,
        "sample size: dense {} vs randomized {} (rel {n_rel})",
        dense.sample_size,
        randomized.sample_size
    );
}

//! The zero-copy sampling layer's exactness contract.
//!
//! Property tests asserting that `train`, `grads` and
//! `compute_statistics` on a **gathered** index view over the pool
//! matrix, and on a **packed** capture of the same rows, are bit-equal
//! to the same calls on `DatasetMatrix::from_dataset(&train.sample(n,
//! seed))` — the materialized sample — across all four iteratively
//! trained model classes plus PPCA, dense and sparse features, and
//! thread budgets {1, 4}; plus Session checks that repeated `train()`
//! calls reproduce fresh coordinator runs.

use blinkml_core::diff_engine::draw_pool;
use blinkml_core::models::{
    LinearRegressionSpec, LogisticRegressionSpec, MaxEntSpec, PoissonRegressionSpec, PpcaSpec,
};
use blinkml_core::{
    compute_statistics, compute_statistics_view, BlinkMlConfig, Coordinator, ExecConfig,
    ModelAccuracyEstimator, ModelClassSpec, ModelStatistics, Session, SpectralMethod,
    StatisticsMethod,
};
use blinkml_data::generators::{
    low_rank_gaussian, synthetic_linear, synthetic_logistic, synthetic_multiclass,
    synthetic_poisson, yelp_like,
};
use blinkml_data::parallel::set_max_threads;
use blinkml_data::{Dataset, DatasetMatrix, Example, FeatureVec, MatrixView, SparseVec};
use blinkml_optim::OptimOptions;
use blinkml_prob::split_seed;
use proptest::prelude::*;

fn config(epsilon: f64, n0: usize, threads: Option<usize>) -> BlinkMlConfig {
    BlinkMlConfig {
        epsilon,
        delta: 0.05,
        initial_sample_size: n0,
        holdout_size: 600,
        num_param_samples: 24,
        exec: ExecConfig {
            max_threads: threads,
        },
        ..BlinkMlConfig::default()
    }
}

fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

/// Two statistics are the same factor: equal rank, bit-equal marginal
/// variances, and bit-equal parameter draws.
fn assert_stats_bitwise(a: &ModelStatistics, b: &ModelStatistics, what: &str) {
    assert_eq!(a.dim(), b.dim(), "{what}: dim");
    assert_eq!(a.rank(), b.rank(), "{what}: rank");
    assert_bits(
        &a.marginal_variances(),
        &b.marginal_variances(),
        &format!("{what}: marginal variances"),
    );
    for (da, db) in draw_pool(a, 4, 7).iter().zip(&draw_pool(b, 4, 7)) {
        assert_bits(da, db, &format!("{what}: draw"));
    }
}

/// Largest parameter dimension the InverseGradients method is run at:
/// its `D + 1` objective probes and `D × D` eigendecomposition dominate
/// the suite's debug-build time above this, and it is a deterministic
/// function of `value_grad`, which every class pins on its own.
const MAX_INVERSE_GRADIENTS_DIM: usize = 64;

/// Statistics of every method over `xm` (`None` where the model class
/// has no closed form, or InverseGradients above its dimension cap).
fn all_statistics<F: FeatureVec, S: ModelClassSpec<F>>(
    spec: &S,
    theta: &[f64],
    xm: &MatrixView,
) -> Vec<Option<ModelStatistics>> {
    [
        StatisticsMethod::ObservedFisher,
        StatisticsMethod::ClosedForm,
        StatisticsMethod::InverseGradients,
    ]
    .into_iter()
    .map(|method| {
        if method == StatisticsMethod::InverseGradients && theta.len() > MAX_INVERSE_GRADIENTS_DIM {
            return None;
        }
        compute_statistics_view(method, SpectralMethod::Dense, spec, theta, xm).ok()
    })
    .collect()
}

/// Train, `grads` and every statistics method on the gathered view and
/// on the packed capture of `train.sample_view(n, seed)` must be
/// bit-equal to the same calls on the materialized sample's matrix, at
/// thread budgets {1, 4}.
fn assert_views_match_materialized<F: FeatureVec, S: ModelClassSpec<F>>(
    spec: &S,
    train: &Dataset<F>,
    n: usize,
    seed: u64,
) {
    let opts = OptimOptions::default();
    let sample = train.sample(n, seed);
    let materialized = DatasetMatrix::from_dataset(&sample);
    let pool = DatasetMatrix::from_dataset(train);
    let drawn = train.sample_view(n, seed);
    let packed = pool.gather_packed(drawn.indices());
    for threads in [Some(1), Some(4)] {
        set_max_threads(threads);
        let reference = spec
            .train_view(&materialized.view(), None, &opts)
            .expect("materialized fit");
        let theta = reference.parameters();
        let ref_grads = spec.grads(theta, &materialized.view());
        let ref_stats = all_statistics(spec, theta, &materialized.view());
        let views: [(&str, MatrixView); 2] = [
            ("gathered", pool.gather(drawn.indices())),
            ("packed", packed.view()),
        ];
        for (kind, view) in views {
            let tag = format!("{} {kind} threads {threads:?}", spec.name());
            let model = spec.train_view(&view, None, &opts).expect("view fit");
            assert_bits(model.parameters(), theta, &format!("{tag}: θ"));
            assert_eq!(model.iterations, reference.iterations, "{tag}: iterations");
            assert_eq!(
                model.objective_value.to_bits(),
                reference.objective_value.to_bits(),
                "{tag}: objective value"
            );
            let grads = spec.grads(theta, &view);
            assert_eq!(grads.num_rows(), ref_grads.num_rows(), "{tag}: grads rows");
            for i in 0..grads.num_rows() {
                assert_bits(
                    &grads.row_dense(i),
                    &ref_grads.row_dense(i),
                    &format!("{tag}: grads row"),
                );
            }
            for (k, (got, want)) in all_statistics(spec, theta, &view)
                .iter()
                .zip(&ref_stats)
                .enumerate()
            {
                match (got, want) {
                    (Some(g), Some(w)) => assert_stats_bitwise(g, w, &format!("{tag}: method {k}")),
                    (None, None) => {}
                    _ => panic!("{tag}: method {k} succeeded on only one representation"),
                }
            }
        }
    }
    set_max_threads(None);
}

/// Binary labels (rating ≥ 2) over the sparse ratings data, for the
/// sparse GLM paths.
fn binarized(data: &Dataset<SparseVec>) -> Dataset<SparseVec> {
    Dataset::new(
        "sparse-binary",
        data.dim(),
        data.iter()
            .map(|e| Example {
                x: e.x.clone(),
                y: if e.y >= 2.0 { 1.0 } else { 0.0 },
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn logistic_view_is_bitwise_materialized(seed in 1u64..200) {
        let (data, _) = synthetic_logistic(3_000, 5, 2.0, seed);
        assert_views_match_materialized(&LogisticRegressionSpec::new(1e-3), &data, 700, seed);
        assert_views_match_materialized(
            &LogisticRegressionSpec::with_intercept(1e-3),
            &data,
            500,
            seed + 1,
        );
        // Sparse features exercise the CSR grads rows.
        let sparse = binarized(&yelp_like(1_200, 60, seed));
        assert_views_match_materialized(&LogisticRegressionSpec::new(1e-3), &sparse, 300, seed);
    }

    #[test]
    fn poisson_view_is_bitwise_materialized(seed in 1u64..200) {
        let (data, _) = synthetic_poisson(3_000, 4, seed);
        assert_views_match_materialized(&PoissonRegressionSpec::new(1e-3), &data, 600, seed);
    }

    #[test]
    fn linreg_view_is_bitwise_materialized(seed in 1u64..200) {
        let (data, _) = synthetic_linear(3_000, 5, 0.5, seed);
        assert_views_match_materialized(&LinearRegressionSpec::new(1e-3), &data, 600, seed);
        let sparse = yelp_like(1_200, 60, seed);
        assert_views_match_materialized(&LinearRegressionSpec::new(1e-3), &sparse, 300, seed);
    }

    #[test]
    fn maxent_dense_view_is_bitwise_materialized(seed in 1u64..200) {
        let data = synthetic_multiclass(2_500, 5, 3, seed);
        assert_views_match_materialized(&MaxEntSpec::new(1e-3, 3), &data, 500, seed);
    }

    #[test]
    fn maxent_sparse_view_is_bitwise_materialized(seed in 1u64..200) {
        // Sparse features exercise the CSR pool matrix and gathered
        // CSR margins/gradients.
        let data = yelp_like(1_200, 50, seed);
        assert_views_match_materialized(&MaxEntSpec::new(1e-3, 5), &data, 200, seed);
    }

    #[test]
    fn ppca_view_is_bitwise_materialized(seed in 1u64..200) {
        let data = low_rank_gaussian(2_000, 8, 3, 0.3, seed);
        assert_views_match_materialized(&PpcaSpec::new(3), &data, 500, seed);
        let sparse = yelp_like(800, 50, seed);
        assert_views_match_materialized(&PpcaSpec::new(3), &sparse, 300, seed);
    }
}

#[test]
fn estimate_final_accuracy_agrees_across_modes() {
    // The optional closing statistics pass reuses the final sample's
    // captured view; its fresh ε̂ must match statistics computed on the
    // materialized final sample (the coordinator's sub-seeds: holdout
    // split 100, final sample 3, closing estimate 4).
    let (data, _) = synthetic_logistic(10_000, 4, 2.0, 31);
    let spec = LogisticRegressionSpec::new(1e-3);
    let seed = 5;
    let mut cfg = config(0.02, 300, Some(2));
    cfg.estimate_final_accuracy = true;
    let out = Coordinator::new(cfg.clone())
        .train(&spec, &data, seed)
        .unwrap();
    assert!(!out.used_initial_model);
    let split = data.split(cfg.holdout_size, 0, split_seed(seed, 100));
    let final_sample = split.train.sample(out.sample_size, split_seed(seed, 3));
    let theta = out.model.parameters();
    let stats = compute_statistics(cfg.statistics_method, &spec, theta, &final_sample).unwrap();
    let eps = ModelAccuracyEstimator::new(cfg.num_param_samples).estimate(
        &spec,
        theta,
        &stats,
        out.sample_size,
        split.train.len(),
        &split.holdout,
        cfg.delta,
        split_seed(seed, 4),
    );
    set_max_threads(None);
    assert_eq!(out.estimated_epsilon.to_bits(), eps.to_bits());
}

#[test]
fn session_sweep_is_bitwise_fresh_coordinators() {
    // One Session driving an ε sweep (the multi-query serving scenario)
    // must reproduce, bit for bit, what a fresh coordinator computes for
    // each contract — while training the pilot exactly once.
    let (data, _) = synthetic_logistic(12_000, 5, 2.0, 41);
    let split = data.split(900, 0, 42);
    let spec = LogisticRegressionSpec::new(1e-3);
    let base = config(0.05, 350, None);
    let session = Session::new(base.clone(), &spec, &split.train, &split.holdout).unwrap();
    for epsilon in [0.30, 0.08, 0.03, 0.015] {
        let s = session.train(epsilon, 0.05, 9).unwrap();
        let mut cfg = base.clone();
        cfg.epsilon = epsilon;
        let c = Coordinator::new(cfg)
            .train_with_holdout(&spec, &split.train, &split.holdout, 9)
            .unwrap();
        assert_eq!(s.sample_size, c.sample_size, "ε={epsilon}");
        assert_eq!(s.initial_epsilon, c.initial_epsilon, "ε={epsilon}");
        assert_eq!(s.estimated_epsilon, c.estimated_epsilon, "ε={epsilon}");
        assert_eq!(s.model.parameters(), c.model.parameters(), "ε={epsilon}");
    }
    assert_eq!(session.cached_pilots(), 1, "one pilot serves the sweep");
}

#[test]
fn session_agrees_across_thread_budgets_and_modes() {
    // Both serving modes — an amortized Session and a fresh coordinator —
    // at thread budgets {1, 4} return the same outcome.
    let (data, _) = synthetic_logistic(8_000, 4, 2.0, 51);
    let split = data.split(700, 0, 52);
    let spec = LogisticRegressionSpec::new(1e-3);
    let mut outcomes = Vec::new();
    for threads in [Some(1), Some(4)] {
        let cfg = config(0.03, 300, threads);
        let session = Session::new(cfg.clone(), &spec, &split.train, &split.holdout).unwrap();
        outcomes.push(session.train(0.03, 0.05, 3).unwrap());
        outcomes.push(
            Coordinator::new(cfg)
                .train_with_holdout(&spec, &split.train, &split.holdout, 3)
                .unwrap(),
        );
    }
    set_max_threads(None);
    for o in &outcomes[1..] {
        assert_eq!(o.sample_size, outcomes[0].sample_size);
        assert_eq!(o.initial_epsilon, outcomes[0].initial_epsilon);
        assert_eq!(o.model.parameters(), outcomes[0].model.parameters());
    }
}

#[test]
fn sample_view_backs_the_same_sample_as_materialize() {
    // The index list behind sample_view is the one sample() clones.
    let (data, _) = synthetic_logistic(2_000, 3, 2.0, 61);
    let view = data.sample_view(500, 77);
    let owned = data.sample(500, 77);
    assert_eq!(view.len(), owned.len());
    for (k, e) in owned.iter().enumerate() {
        assert_eq!(view.get(k).x.as_slice(), e.x.as_slice());
        assert_eq!(view.get(k).y, e.y);
    }
}

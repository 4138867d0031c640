//! The batched training engine's exactness contract.
//!
//! Property tests asserting that `ModelClassSpec::value_grad` reproduces
//! the per-example scalar oracle (`testing::ScalarOracle`) — **bit for
//! bit** for all five model classes, dense and sparse features alike —
//! plus end-to-end checks: view training and the scalar training oracle
//! (`testing::ScalarTrain`) produce identical parameters, spec-level
//! pins over packed sample captures for every class, and the
//! coordinator's results are bit-identical across thread budgets.

use blinkml_core::models::{
    LinearRegressionSpec, LogisticRegressionSpec, MaxEntSpec, PoissonRegressionSpec, PpcaSpec,
};
use blinkml_core::testing::{view_grads, ScalarOracle, ScalarTrain};
use blinkml_core::{BlinkMlConfig, Coordinator, ExecConfig, ModelClassSpec, StatisticsMethod};
use blinkml_data::generators::{
    low_rank_gaussian, synthetic_linear, synthetic_logistic, synthetic_multiclass,
    synthetic_poisson, yelp_like,
};
use blinkml_data::parallel::set_max_threads;
use blinkml_data::{CaptureScratch, Dataset, DatasetMatrix, DenseVec, FeatureVec, TrainScratch};
use blinkml_linalg::testing::budget_lock;
use blinkml_optim::OptimOptions;
use proptest::prelude::*;

/// Assert the view value/gradient equals the scalar oracle objective at
/// `theta`, bitwise, for every thread budget in the test set.
fn assert_batched_equals_scalar<F: FeatureVec, S: ModelClassSpec<F> + ScalarOracle<F>>(
    spec: &S,
    theta: &[f64],
    data: &Dataset<F>,
    bitwise: bool,
) {
    let (v_ref, g_ref) = spec.scalar_objective(theta, data);
    let xm = DatasetMatrix::from_dataset(data);
    let _budget = budget_lock();
    for budget in [Some(1), Some(4)] {
        set_max_threads(budget);
        let mut scratch = TrainScratch::new();
        let mut grad = vec![f64::NAN; theta.len()];
        let v = spec.value_grad(theta, &xm.view(), &mut scratch, &mut grad);
        set_max_threads(None);
        if bitwise {
            assert_eq!(v, v_ref, "value (budget {budget:?})");
            assert_eq!(grad, g_ref, "gradient (budget {budget:?})");
        } else {
            let scale = 1.0 + v_ref.abs();
            assert!((v - v_ref).abs() <= 1e-12 * scale, "value {v} vs {v_ref}");
            for (i, (a, b)) in grad.iter().zip(&g_ref).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                    "gradient coord {i}: {a} vs {b}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn logistic_batched_is_bitwise_scalar(seed in 1u64..400, scale in 0.5f64..3.0) {
        let (data, _) = synthetic_logistic(600, 9, scale, seed);
        for spec in [LogisticRegressionSpec::new(1e-3), LogisticRegressionSpec::new(0.0)] {
            let theta: Vec<f64> = (0..9).map(|i| ((i as f64) * 0.37 + scale).sin() * 0.4).collect();
            assert_batched_equals_scalar(&spec, &theta, &data, true);
        }
        // Intercept spec: one extra unpenalized parameter.
        let spec = LogisticRegressionSpec::with_intercept(1e-2);
        let theta: Vec<f64> = (0..10).map(|i| ((i as f64) * 0.7).cos() * 0.3).collect();
        assert_batched_equals_scalar(&spec, &theta, &data, true);
    }

    #[test]
    fn poisson_batched_is_bitwise_scalar(seed in 1u64..400) {
        let (data, _) = synthetic_poisson(500, 6, seed);
        let spec = PoissonRegressionSpec::new(1e-3);
        let theta: Vec<f64> = (0..6).map(|i| (i as f64 * 0.21).sin() * 0.2).collect();
        assert_batched_equals_scalar(&spec, &theta, &data, true);
    }

    #[test]
    fn linreg_batched_is_bitwise_scalar(seed in 1u64..400, noise in 0.1f64..1.0) {
        let (data, _) = synthetic_linear(700, 8, noise, seed);
        let spec = LinearRegressionSpec::new(1e-3);
        let mut theta: Vec<f64> = (0..9).map(|i| (i as f64 * 0.5).cos() * 0.5).collect();
        theta[8] = -0.3; // u = ln σ²
        assert_batched_equals_scalar(&spec, &theta, &data, true);
    }

    #[test]
    fn maxent_dense_batched_is_bitwise_scalar(seed in 1u64..400) {
        let data = synthetic_multiclass(400, 5, 3, seed);
        let spec = MaxEntSpec::new(1e-3, 3);
        let theta: Vec<f64> = (0..15).map(|i| (i as f64 * 0.31).sin() * 0.4).collect();
        assert_batched_equals_scalar(&spec, &theta, &data, true);
    }

    #[test]
    fn maxent_sparse_batched_is_bitwise_scalar(seed in 1u64..400) {
        let data = yelp_like(300, 120, seed);
        let spec = MaxEntSpec::new(1e-3, 5);
        let theta: Vec<f64> = (0..600).map(|i| ((i * 7) % 13) as f64 * 0.02 - 0.1).collect();
        assert_batched_equals_scalar(&spec, &theta, &data, true);
    }

    #[test]
    fn ppca_batched_matches_scalar(seed in 1u64..400) {
        // PPCA's view pass reorders no per-row math (column-batched
        // aᵢ on dense blocks, scalar per-row gemv on sparse), so it is
        // bitwise for both layouts.
        let data = low_rank_gaussian(300, 6, 2, 0.3, seed);
        let spec = PpcaSpec::new(2);
        let mut theta: Vec<f64> = (0..13).map(|i| 0.1 + 0.05 * ((i * 5) % 7) as f64).collect();
        theta[12] = 0.4; // σ²
        assert_batched_equals_scalar(&spec, &theta, &data, true);

        // Sparse features: drop roughly half the entries per row.
        let sparse = Dataset::new(
            "sparse-ppca",
            6,
            data.iter()
                .enumerate()
                .map(|(i, e)| blinkml_data::Example {
                    x: blinkml_data::SparseVec::from_pairs(
                        6,
                        e.x.as_slice()
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| (i + j) % 2 == 0)
                            .map(|(j, &v)| (j as u32, v))
                            .collect(),
                    ),
                    y: e.y,
                })
                .collect::<Vec<_>>(),
        );
        assert_batched_equals_scalar(&spec, &theta, &sparse, true);
    }

    #[test]
    fn grads_view_matches_scalar_grads(seed in 1u64..300) {
        // The view grads path must reproduce the per-example oracle's
        // grads rows bitwise (dense and sparse).
        let (dense, _) = synthetic_logistic(300, 7, 2.0, seed);
        let spec = LogisticRegressionSpec::new(1e-3);
        let theta: Vec<f64> = (0..7).map(|i| (i as f64 * 0.43).sin() * 0.3).collect();
        let plain = spec.scalar_grads(&theta, &dense);
        let cached = view_grads(&spec, &theta, &dense);
        for i in 0..dense.len() {
            prop_assert_eq!(plain.row_dense(i), cached.row_dense(i), "dense row {}", i);
        }

        let sparse = yelp_like(200, 80, seed);
        let me = MaxEntSpec::new(1e-3, 5);
        let mtheta: Vec<f64> = (0..400).map(|i| ((i * 11) % 17) as f64 * 0.01).collect();
        let mplain = me.scalar_grads(&mtheta, &sparse);
        let mcached = view_grads(&me, &mtheta, &sparse);
        for i in 0..sparse.len() {
            prop_assert_eq!(mplain.row_dense(i), mcached.row_dense(i), "sparse row {}", i);
        }
    }
}

#[test]
fn view_training_reproduces_scalar_training_bitwise() {
    // The whole point of the bitwise contract: the optimizer follows the
    // identical trajectory, so trained parameters are equal — not just
    // close — and the iteration/convergence bookkeeping matches.
    let (data, _) = synthetic_logistic(4_000, 12, 2.0, 9);
    let spec = LogisticRegressionSpec::new(1e-3);
    let scalar_spec = ScalarTrain(LogisticRegressionSpec::new(1e-3));
    let opts = OptimOptions::default();
    let batched = spec.train(&data, None, &opts).unwrap();
    let scalar = scalar_spec.train(&data, None, &opts).unwrap();
    assert_eq!(batched.parameters(), scalar.parameters());
    assert_eq!(batched.iterations, scalar.iterations);
    assert_eq!(batched.objective_value, scalar.objective_value);

    // Same for a model routed to BFGS (dim < 100) and for linreg.
    let (lin, _) = synthetic_linear(3_000, 6, 0.4, 10);
    let lspec = LinearRegressionSpec::new(1e-3);
    let lbatched = lspec.train(&lin, None, &opts).unwrap();
    let lscalar = ScalarTrain(LinearRegressionSpec::new(1e-3))
        .train(&lin, None, &opts)
        .unwrap();
    assert_eq!(lbatched.parameters(), lscalar.parameters());
}

#[test]
fn hessian_cached_matches_uncached() {
    // The closed-form Hessian over a cached design-matrix view against
    // the per-example oracle on the materialized dataset.
    let (data, _) = synthetic_logistic(500, 6, 1.5, 11);
    let spec = LogisticRegressionSpec::new(1e-2);
    let theta: Vec<f64> = (0..6).map(|i| 0.1 * i as f64 - 0.2).collect();
    let xm = DatasetMatrix::from_dataset(&data);
    let h_cached = <LogisticRegressionSpec as ModelClassSpec<DenseVec>>::closed_form_hessian(
        &spec,
        &theta,
        &xm.view(),
    )
    .unwrap();
    let h_plain = spec.scalar_closed_form_hessian(&theta, &data).unwrap();
    assert!(
        h_cached.max_abs_diff(&h_plain) < 1e-12,
        "cached vs uncached Hessian diff {}",
        h_cached.max_abs_diff(&h_plain)
    );

    // Linear regression's view Hessian replays the oracle's per-example
    // accumulation, so it is bit-identical, dense and sparse.
    let (lin, _) = synthetic_linear(400, 5, 0.5, 12);
    let lspec = LinearRegressionSpec::new(1e-2);
    let mut ltheta: Vec<f64> = (0..6).map(|i| 0.15 * i as f64 - 0.3).collect();
    ltheta[5] = -0.4;
    let lxm = DatasetMatrix::from_dataset(&lin);
    let lh = <LinearRegressionSpec as ModelClassSpec<DenseVec>>::closed_form_hessian(
        &lspec,
        &ltheta,
        &lxm.view(),
    )
    .unwrap();
    let lh_ref = lspec.scalar_closed_form_hessian(&ltheta, &lin).unwrap();
    assert_bits(lh.as_slice(), lh_ref.as_slice(), "dense linreg Hessian");
    let sparse = yelp_like(200, 50, 13);
    let sxm = DatasetMatrix::from_dataset(&sparse);
    let stheta: Vec<f64> = (0..51)
        .map(|i| ((i * 7) % 11) as f64 * 0.01 - 0.05)
        .collect();
    let sh =
        <LinearRegressionSpec as ModelClassSpec<blinkml_data::SparseVec>>::closed_form_hessian(
            &lspec,
            &stheta,
            &sxm.view(),
        )
        .unwrap();
    let sh_ref = lspec.scalar_closed_form_hessian(&stheta, &sparse).unwrap();
    assert_bits(sh.as_slice(), sh_ref.as_slice(), "sparse linreg Hessian");
}

/// Assert two float slices are equal bit for bit.
fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

#[test]
fn coordinator_is_bit_identical_across_thread_budgets_with_batching() {
    // End-to-end determinism through the batched engine: a tight
    // contract (forcing statistics, sample-size search, and the second
    // training) must give bit-identical outputs at budgets 1 and 4.
    let (data, _) = synthetic_logistic(12_000, 6, 2.0, 21);
    let spec = LogisticRegressionSpec::new(1e-3);
    let mut cfg = BlinkMlConfig {
        epsilon: 0.02,
        delta: 0.05,
        initial_sample_size: 400,
        holdout_size: 800,
        num_param_samples: 32,
        statistics_method: StatisticsMethod::ObservedFisher,
        optim: OptimOptions::default(),
        estimate_final_accuracy: true,
        ..BlinkMlConfig::default()
    };
    let _budget = budget_lock();
    cfg.exec = ExecConfig::sequential();
    let a = Coordinator::new(cfg.clone())
        .train(&spec, &data, 3)
        .unwrap();
    cfg.exec = ExecConfig {
        max_threads: Some(4),
    };
    let b = Coordinator::new(cfg).train(&spec, &data, 3).unwrap();
    set_max_threads(None);
    assert_eq!(a.sample_size, b.sample_size);
    assert_eq!(a.initial_epsilon, b.initial_epsilon);
    assert_eq!(a.estimated_epsilon, b.estimated_epsilon);
    assert_eq!(a.model.parameters(), b.model.parameters());
}

/// One spec-level pin: training and `grads` on a packed capture of the
/// sample `train.sample_view(n, seed)` must reproduce the per-example
/// oracle on the materialized sample, bit for bit — the contract the
/// coordinator's sample path relies on.
/// Iterative classes are trained by the scalar oracle
/// ([`ScalarTrain`]); closed-form classes (PPCA) by `train` on the
/// materialized sample, with the recorded objective value pinned to the
/// oracle's.
fn assert_views_reproduce_oracle<F, S>(spec: &S, pool: &Dataset<F>, n: usize, seed: u64)
where
    F: FeatureVec,
    S: ModelClassSpec<F> + ScalarOracle<F> + Clone,
{
    let opts = OptimOptions::default();
    let sample = pool.sample(n, seed);
    let drawn = pool.sample_view(n, seed);
    let packed = DatasetMatrix::pack(pool, drawn.indices(), &mut CaptureScratch::new());
    let closed_form = spec.name() == "ppca";
    let reference = if closed_form {
        spec.train(&sample, None, &opts).unwrap()
    } else {
        ScalarTrain(spec.clone())
            .train(&sample, None, &opts)
            .unwrap()
    };
    if closed_form {
        let (v_ref, _) = spec.scalar_objective(reference.parameters(), &sample);
        assert_eq!(
            reference.objective_value.to_bits(),
            v_ref.to_bits(),
            "{}: closed-form objective value",
            spec.name()
        );
    }
    let theta = reference.parameters();
    let g_ref = spec.scalar_grads(theta, &sample);
    let _budget = budget_lock();
    for budget in [Some(1), Some(4)] {
        set_max_threads(budget);
        let view = packed.view();
        let tag = format!("{} packed budget {budget:?}", spec.name());
        let m = spec.train_view(&view, None, &opts).unwrap();
        assert_bits(m.parameters(), theta, &format!("{tag}: θ"));
        assert_eq!(m.iterations, reference.iterations, "{tag}: iterations");
        assert_eq!(
            m.objective_value.to_bits(),
            reference.objective_value.to_bits(),
            "{tag}: objective value"
        );
        let g = spec.grads(theta, &view);
        assert_eq!(g.num_rows(), n, "{tag}: grads rows");
        for i in 0..n {
            assert_bits(
                &g.row_dense(i),
                &g_ref.row_dense(i),
                &format!("{tag}: grads row"),
            );
        }
    }
    set_max_threads(None);
}

#[test]
fn spec_level_views_reproduce_the_scalar_oracle_for_all_classes() {
    let (logistic, _) = synthetic_logistic(3_000, 6, 2.0, 41);
    assert_views_reproduce_oracle(&LogisticRegressionSpec::new(1e-3), &logistic, 700, 1);
    assert_views_reproduce_oracle(
        &LogisticRegressionSpec::with_intercept(1e-3),
        &logistic,
        700,
        2,
    );
    let (poisson, _) = synthetic_poisson(3_000, 5, 42);
    assert_views_reproduce_oracle(&PoissonRegressionSpec::new(1e-3), &poisson, 600, 3);
    let (linear, _) = synthetic_linear(3_000, 6, 0.5, 43);
    assert_views_reproduce_oracle(&LinearRegressionSpec::new(1e-3), &linear, 600, 4);
    let multiclass = synthetic_multiclass(2_500, 5, 3, 44);
    assert_views_reproduce_oracle(&MaxEntSpec::new(1e-3, 3), &multiclass, 500, 5);
    let sparse = yelp_like(1_500, 80, 45);
    assert_views_reproduce_oracle(&MaxEntSpec::new(1e-3, 5), &sparse, 400, 6);
    assert_views_reproduce_oracle(&LinearRegressionSpec::new(1e-3), &sparse, 400, 7);
    let low_rank = low_rank_gaussian(2_000, 8, 3, 0.3, 46);
    assert_views_reproduce_oracle(&PpcaSpec::new(3), &low_rank, 500, 8);
    assert_views_reproduce_oracle(&PpcaSpec::new(3), &sparse, 400, 9);
}

#[test]
fn intercept_spec_trains_through_the_batched_engine() {
    let (base, _) = synthetic_logistic(3_000, 4, 2.0, 31);
    let shifted = Dataset::new(
        "shifted",
        4,
        base.iter()
            .map(|e| blinkml_data::Example {
                x: e.x.clone(),
                y: if e.x.as_slice().iter().sum::<f64>() - 1.0 > 0.0 {
                    1.0
                } else {
                    0.0
                },
            })
            .collect::<Vec<_>>(),
    );
    let spec = LogisticRegressionSpec::with_intercept(1e-3);
    let model = spec
        .train(&shifted, None, &OptimOptions::default())
        .unwrap();
    assert!(model.converged);
    let scalar = ScalarTrain(LogisticRegressionSpec::with_intercept(1e-3))
        .train(&shifted, None, &OptimOptions::default())
        .unwrap();
    assert_eq!(model.parameters(), scalar.parameters());
    // The fitted intercept should be decisively negative (threshold 1.0).
    let b = model.parameters()[4];
    assert!(b < -0.1, "intercept {b}");
}

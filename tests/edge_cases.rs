//! Edge-case and failure-injection tests across crate boundaries.

use blinkml::core::compute_statistics;
use blinkml::prelude::StatisticsMethod::ObservedFisher;
use blinkml::prelude::*;
use blinkml_data::{DenseVec, Example, SparseVec};
use blinkml_optim::OptimOptions;

#[test]
fn coordinator_rejects_invalid_contracts() {
    let data = higgs_like(5_000, 8, 1);
    let spec = LogisticRegressionSpec::new(1e-3);
    for (eps, delta) in [(0.0, 0.05), (1.0, 0.05), (0.05, 0.0), (0.05, 1.0)] {
        let config = BlinkMlConfig {
            epsilon: eps,
            delta,
            ..BlinkMlConfig::default()
        };
        assert!(
            Coordinator::new(config).train(&spec, &data, 2).is_err(),
            "contract ({eps}, {delta}) must be rejected"
        );
    }
}

#[test]
fn near_trivial_epsilon_returns_initial_model_immediately() {
    let data = higgs_like(20_000, 8, 3);
    let config = BlinkMlConfig {
        epsilon: 0.99,
        initial_sample_size: 300,
        num_param_samples: 16,
        ..BlinkMlConfig::default()
    };
    let spec = LogisticRegressionSpec::new(1e-3);
    let outcome = Coordinator::new(config).train(&spec, &data, 4).unwrap();
    assert!(outcome.used_initial_model);
    assert_eq!(outcome.sample_size, 300);
}

#[test]
fn rows_with_no_features_are_tolerated() {
    // Sparse datasets in the wild contain empty rows; the pipeline must
    // not choke on them.
    let dim = 50;
    let mut examples = Vec::new();
    for i in 0..4_000u32 {
        let x = if i % 7 == 0 {
            SparseVec::new(dim, vec![], vec![])
        } else {
            SparseVec::new(dim, vec![i % 50], vec![1.0])
        };
        examples.push(Example {
            x,
            y: (i % 2) as f64,
        });
    }
    let data = blinkml::data::Dataset::new("with-empty-rows", dim, examples);
    let spec = LogisticRegressionSpec::new(1e-2);
    let config = BlinkMlConfig {
        epsilon: 0.2,
        initial_sample_size: 300,
        holdout_size: 300,
        num_param_samples: 16,
        ..BlinkMlConfig::default()
    };
    let outcome = Coordinator::new(config).train(&spec, &data, 5).unwrap();
    assert!(!outcome.model.parameters().is_empty());
}

#[test]
fn constant_labels_still_train() {
    // Degenerate supervision: all labels identical. The MLE exists
    // thanks to regularization; the pipeline must complete.
    let examples: Vec<Example<DenseVec>> = (0..3_000)
        .map(|i| Example {
            x: DenseVec::new(vec![(i % 10) as f64 / 10.0, 1.0]),
            y: 0.0,
        })
        .collect();
    let data = blinkml::data::Dataset::new("constant-labels", 2, examples);
    let spec = LogisticRegressionSpec::new(1e-2);
    let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
    assert!(model.converged);
    // All-negative predictions.
    let err = spec.generalization_error(model.parameters(), &data);
    assert_eq!(err, 0.0);
}

#[test]
fn sample_size_estimator_handles_n0_equal_full_n() {
    let (data, _) = blinkml::data::generators::synthetic_logistic(2_000, 4, 2.0, 6);
    let split = data.split(300, 0, 7);
    let spec = LogisticRegressionSpec::new(1e-3);
    let n0 = split.train.len(); // initial sample IS the full data
    let sample = split.train.sample(n0, 8);
    let model = spec.train(&sample, None, &OptimOptions::default()).unwrap();
    let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &sample).unwrap();
    let est = SampleSizeEstimator::new(16).estimate(
        &spec,
        model.parameters(),
        &stats,
        n0,
        n0,
        &split.holdout,
        0.01,
        0.05,
        9,
    );
    assert_eq!(est.n, n0, "n0 = N must trivially satisfy any contract");
}

#[test]
fn duplicate_heavy_dataset_works() {
    // A dataset that is 99% one repeated example (extreme skew): the
    // covariance is near-singular; truncation must keep things finite.
    let mut examples: Vec<Example<DenseVec>> = (0..5_000)
        .map(|_| Example {
            x: DenseVec::new(vec![1.0, 0.0, 0.0]),
            y: 1.0,
        })
        .collect();
    for i in 0..50 {
        examples.push(Example {
            x: DenseVec::new(vec![0.0, 1.0, (i % 5) as f64 / 5.0]),
            y: 0.0,
        });
    }
    let data = blinkml::data::Dataset::new("skewed", 3, examples);
    let spec = LogisticRegressionSpec::new(1e-2);
    let sample = data.sample(1_000, 10);
    let model = spec.train(&sample, None, &OptimOptions::default()).unwrap();
    let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &sample).unwrap();
    let vars = stats.marginal_variances();
    assert!(vars.iter().all(|v| v.is_finite()), "variances: {vars:?}");
}

#[test]
fn maxent_with_rare_class_survives_sampling() {
    // Class 2 is so rare it may be absent from small samples; training
    // and estimation must still work.
    let mut examples = Vec::new();
    for i in 0..8_000u64 {
        let class = if i % 500 == 0 { 2 } else { (i % 2) as usize };
        let mut x = vec![0.0; 6];
        x[class] = 1.0;
        x[3 + (i % 3) as usize] = 0.5;
        examples.push(Example {
            x: DenseVec::new(x),
            y: class as f64,
        });
    }
    let data = blinkml::data::Dataset::new("rare-class", 6, examples);
    let spec = MaxEntSpec::new(1e-2, 3);
    let config = BlinkMlConfig {
        epsilon: 0.15,
        initial_sample_size: 400,
        holdout_size: 500,
        num_param_samples: 16,
        ..BlinkMlConfig::default()
    };
    let outcome = Coordinator::new(config).train(&spec, &data, 11).unwrap();
    assert!(outcome.sample_size <= data.len());
}

#[test]
fn estimate_final_accuracy_flag_reports_fresh_epsilon() {
    let data = higgs_like(25_000, 10, 12);
    let config = BlinkMlConfig {
        epsilon: 0.03,
        initial_sample_size: 300,
        num_param_samples: 48,
        estimate_final_accuracy: true,
        ..BlinkMlConfig::default()
    };
    let spec = LogisticRegressionSpec::new(1e-3);
    let outcome = Coordinator::new(config).train(&spec, &data, 13).unwrap();
    if !outcome.used_initial_model && outcome.sample_size < outcome.full_data_size {
        // The fresh estimate must be a real measurement, not the
        // contract constant echoed back.
        assert!(outcome.estimated_epsilon > 0.0);
        assert!(outcome.estimated_epsilon <= 0.03 * 2.0 + 0.05);
    }
}

#[test]
fn model_parameters_roundtrip_through_clone() {
    let (data, _) = blinkml::data::generators::synthetic_linear(2_000, 4, 0.3, 14);
    let spec = LinearRegressionSpec::new(1e-3);
    let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
    let cloned = model.clone();
    assert_eq!(model.parameters(), cloned.parameters());
    assert_eq!(model.sample_size, cloned.sample_size);
}

#[test]
fn session_rejects_invalid_contracts_per_query() {
    let data = higgs_like(5_000, 8, 21);
    let split = data.split(800, 0, 22);
    let spec = LogisticRegressionSpec::new(1e-3);
    let config = BlinkMlConfig {
        initial_sample_size: 300,
        num_param_samples: 16,
        ..BlinkMlConfig::default()
    };
    let session = Session::new(config, &spec, &split.train, &split.holdout).unwrap();
    for (eps, delta) in [(0.0, 0.05), (1.0, 0.05), (0.05, 0.0), (0.05, 1.0)] {
        assert!(
            session.train(eps, delta, 2).is_err(),
            "session contract ({eps}, {delta}) must be rejected"
        );
    }
    // A bad query leaves the session serviceable.
    assert!(session.train(0.2, 0.05, 2).is_ok());
}

#[test]
fn session_rejects_empty_pool_and_holdout() {
    let data = higgs_like(3_000, 6, 23);
    let split = data.split(500, 0, 24);
    let empty = blinkml::data::Dataset::<blinkml_data::DenseVec>::new("empty", 6, vec![]);
    let spec = LogisticRegressionSpec::new(1e-3);
    let config = BlinkMlConfig {
        initial_sample_size: 200,
        ..BlinkMlConfig::default()
    };
    assert!(Session::new(config.clone(), &spec, &empty, &split.holdout).is_err());
    assert!(Session::new(config, &spec, &split.train, &empty).is_err());
}

/// Minimal facade-level spec whose first training call panics mid-train:
/// the serving layer must contain the panic, surface `Err` to that one
/// query, retire the in-flight pilot entry (no poisoned cache), and keep
/// serving — the retry trains a fresh pilot and succeeds.
struct PanicOnceLinear {
    inner: LinearRegressionSpec,
    tripped: std::sync::atomic::AtomicBool,
}

impl ModelClassSpec<blinkml_data::DenseVec> for PanicOnceLinear {
    fn name(&self) -> &'static str {
        "panic-once-linear"
    }
    fn param_dim(&self, data_dim: usize) -> usize {
        ModelClassSpec::<blinkml_data::DenseVec>::param_dim(&self.inner, data_dim)
    }
    fn regularization(&self) -> f64 {
        ModelClassSpec::<blinkml_data::DenseVec>::regularization(&self.inner)
    }
    fn value_grad(
        &self,
        theta: &[f64],
        xm: &MatrixView,
        scratch: &mut blinkml_data::TrainScratch,
        grad: &mut [f64],
    ) -> f64 {
        ModelClassSpec::<blinkml_data::DenseVec>::value_grad(&self.inner, theta, xm, scratch, grad)
    }
    fn grads(&self, theta: &[f64], xm: &MatrixView) -> blinkml::core::grads::Grads {
        ModelClassSpec::<blinkml_data::DenseVec>::grads(&self.inner, theta, xm)
    }
    fn predict(&self, theta: &[f64], x: &blinkml_data::DenseVec) -> f64 {
        self.inner.predict(theta, x)
    }
    fn diff(
        &self,
        theta_a: &[f64],
        theta_b: &[f64],
        holdout: &blinkml::data::Dataset<blinkml_data::DenseVec>,
    ) -> f64 {
        self.inner.diff(theta_a, theta_b, holdout)
    }
    fn generalization_error(
        &self,
        theta: &[f64],
        data: &blinkml::data::Dataset<blinkml_data::DenseVec>,
    ) -> f64 {
        self.inner.generalization_error(theta, data)
    }
    fn train_view(
        &self,
        xm: &MatrixView,
        warm_start: Option<&[f64]>,
        options: &OptimOptions,
    ) -> Result<TrainedModel, blinkml::core::CoreError> {
        if !self.tripped.swap(true, std::sync::atomic::Ordering::SeqCst) {
            panic!("injected mid-train panic");
        }
        ModelClassSpec::<blinkml_data::DenseVec>::train_view(&self.inner, xm, warm_start, options)
    }
}

#[test]
fn server_survives_mid_train_panic_without_poisoned_cache() {
    let (data, _) = blinkml::data::generators::synthetic_linear(4_000, 4, 0.3, 25);
    let split = data.split(600, 0, 26);
    let config = BlinkMlConfig {
        initial_sample_size: 250,
        num_param_samples: 16,
        ..BlinkMlConfig::default()
    };
    let spec = PanicOnceLinear {
        inner: LinearRegressionSpec::new(1e-3),
        tripped: std::sync::atomic::AtomicBool::new(false),
    };
    let server = Server::spawn(
        config,
        // retry_budget 0 exposes the raw failure surface; the automatic
        // retry path is pinned by crates/core/tests/resilience.rs.
        ServeConfig {
            retry_budget: 0,
            ..ServeConfig::serial()
        },
        spec,
        vec![DatasetShard::new(1, split.train, split.holdout)],
    )
    .unwrap();
    let q = Query::new(1, 0.2, 0.05, 3);
    // First query hits the injected panic: Err, not a hang or a crash.
    assert!(server.query(q).is_err());
    // No poisoned entry: the resubmit leads a fresh pilot and succeeds,
    // and an unrelated contract keeps working too.
    assert!(server.query(q).is_ok());
    assert!(server.query(Query::new(1, 0.3, 0.05, 4)).is_ok());
    let stats = server.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.inflight, 0);
    server.shutdown();
}

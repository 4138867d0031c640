//! # BlinkML
//!
//! A Rust implementation of **BlinkML: Efficient Maximum Likelihood
//! Estimation with Probabilistic Guarantees** (Park, Qing, Shen, Mozafari —
//! SIGMOD 2019).
//!
//! BlinkML trains an *approximate* model on a uniform random sample instead
//! of the full training set and guarantees, with probability at least
//! `1 − δ`, that the approximate model's predictions deviate from those of
//! the (never trained) full model by at most `ε`.
//!
//! ## Quick start
//!
//! ```
//! use blinkml::prelude::*;
//!
//! // A small synthetic binary-classification dataset.
//! let dataset = higgs_like(5_000, 20, 42);
//!
//! // Ask for a model whose predictions agree with the full model on at
//! // least 90% of points, with 95% confidence.
//! let config = BlinkMlConfig {
//!     epsilon: 0.10,
//!     delta: 0.05,
//!     initial_sample_size: 500,
//!     ..BlinkMlConfig::default()
//! };
//! let spec = LogisticRegressionSpec::new(1e-3);
//! let outcome = Coordinator::new(config).train(&spec, &dataset, 7).unwrap();
//! assert!(outcome.model.parameters().len() > 0);
//! assert!(outcome.sample_size <= dataset.len());
//! ```
//!
//! The workspace is organized as one crate per subsystem; this facade
//! re-exports their public APIs:
//!
//! * [`linalg`] — dense linear algebra (BLAS-style kernels, Cholesky,
//!   symmetric eigendecomposition),
//! * [`prob`] — sampling and probability utilities (normal draws, factored
//!   multivariate normals, Hoeffding/quantile machinery),
//! * [`data`] — datasets, feature vectors (dense + sparse), samplers, and
//!   the six synthetic generators mirroring the paper's datasets,
//! * [`optim`] — BFGS / L-BFGS with strong-Wolfe line search,
//! * [`core`] — the BlinkML system itself: model-class specifications,
//!   statistics computation, the accuracy estimator, the sample-size
//!   estimator, and the coordinator.
//!
//! See `docs/ARCHITECTURE.md` for the paper-section → module map and
//! `docs/REPRODUCING.md` for the experiment suite.

#![warn(missing_docs)]

pub use blinkml_core as core;
pub use blinkml_data as data;
pub use blinkml_linalg as linalg;
pub use blinkml_optim as optim;
pub use blinkml_prob as prob;

/// One-stop imports for typical use.
pub mod prelude {
    pub use blinkml_core::accuracy::ModelAccuracyEstimator;
    pub use blinkml_core::baselines::{FixedRatio, IncEstimator, RelativeRatio, SampleSizePolicy};
    pub use blinkml_core::config::{BlinkMlConfig, ServeConfig, StatisticsMethod};
    pub use blinkml_core::coordinator::{Coordinator, TrainingOutcome, TrainingPhaseTimes};
    pub use blinkml_core::mcs::{ModelClassSpec, TrainedModel};
    pub use blinkml_core::models::linreg::LinearRegressionSpec;
    pub use blinkml_core::models::logreg::LogisticRegressionSpec;
    pub use blinkml_core::models::maxent::MaxEntSpec;
    pub use blinkml_core::models::poisson::PoissonRegressionSpec;
    pub use blinkml_core::models::ppca::PpcaSpec;
    pub use blinkml_core::sample_size::SampleSizeEstimator;
    pub use blinkml_core::serve::{DatasetShard, Query, ServedResponse, Server};
    pub use blinkml_core::session::Session;
    pub use blinkml_data::generators::{
        criteo_like, gas_like, higgs_like, mnist_like, power_like, yelp_like,
    };
    pub use blinkml_data::{Dataset, FeatureVec, IndexView, MatrixView, Split};
}

//! The BlinkML core: approximate MLE training with probabilistic
//! guarantees.
//!
//! This crate implements the system described in *BlinkML: Efficient
//! Maximum Likelihood Estimation with Probabilistic Guarantees* (SIGMOD
//! 2019):
//!
//! * [`mcs`] — the Model Class Specification abstraction (`value_grad`,
//!   `grads`, `predict`, `diff`) that keeps the rest of the system
//!   model-agnostic (paper §2.2),
//! * [`models`] — linear regression, logistic regression, max-entropy
//!   classification, Poisson regression, and PPCA,
//! * [`grads`] — per-example gradient matrices in dense and
//!   sparse-plus-shift layouts,
//! * [`stats`] — the three statistics computation methods (ClosedForm,
//!   InverseGradients, ObservedFisher) producing a sampling-ready factor
//!   of `H⁻¹JH⁻¹` (paper §3.4, §4.3),
//! * [`diff_engine`] — margin-cached prediction-difference evaluation
//!   over parameter pools,
//! * [`accuracy`] — the Model Accuracy Estimator (paper §3),
//! * [`sample_size`] — the Sample Size Estimator (paper §4),
//! * [`coordinator`] — the end-to-end workflow (paper §2.3),
//! * [`session`] — the amortized multi-query Session API (a recycled
//!   capture scratch + cached pilot statistics across repeated
//!   `train()` calls — the serving scenario),
//! * [`serve`] — the multi-tenant serving layer (request queue + worker
//!   pool, keyed LRU over pilot artifacts, in-flight coalescing) that
//!   promotes the Session's amortization to a concurrent service,
//!   including the streaming path: epoch-snapshot isolation over
//!   `blinkml_data::stream` pools with a drift-honest staleness ladder,
//! * [`baselines`] — FixedRatio / RelativeRatio / IncEstimator from the
//!   paper's §5.4 evaluation.

pub mod accuracy;
pub mod baselines;
pub mod config;
pub mod coordinator;
pub mod diff_engine;
pub mod error;
pub mod grads;
pub mod mcs;
pub mod models;
pub mod sample_size;
pub mod serve;
pub mod session;
pub mod stats;
pub mod sweep;
#[doc(hidden)]
pub mod testing;

pub use accuracy::ModelAccuracyEstimator;
pub use config::{BlinkMlConfig, ExecConfig, ServeConfig, ShedPolicy, StatisticsMethod};
pub use coordinator::{Coordinator, TrainingOutcome, TrainingPhaseTimes};
pub use error::CoreError;
pub use mcs::{DrawScores, ModelClassSpec, SweepEval, TrainedModel};
pub use sample_size::{SampleSizeEstimate, SampleSizeEstimator};
pub use serve::resilience::{CancelToken, DegradationRung, Pressure};
pub use serve::{
    DatasetShard, Query, ResponseHandle, ServeError, ServedResponse, ServedSweep, Server,
    ServerStats, StreamShard, SweepQuery, SweepResponseHandle,
};
pub use session::Session;
pub use stats::{compute_statistics, compute_statistics_view, ModelStatistics};
pub use sweep::{SweepPoint, SweepResult};

//! Sample-size baselines from the paper's §5.4 (Figure 7 / Tables 6–7).
//!
//! * **FixedRatio** — always train on a fixed fraction of `N` (1% in the
//!   paper), blind to the model and the requested accuracy.
//! * **RelativeRatio** — train on `(1 − ε)·10%` of `N`: scales with the
//!   request but is still blind to the model.
//! * **IncEstimator** — train models of growing size (`base·k²` at the
//!   `k`-th iteration) until the accuracy estimator certifies the
//!   contract; meets the accuracy but trains many models.

use crate::accuracy::ModelAccuracyEstimator;
use crate::config::BlinkMlConfig;
use crate::error::CoreError;
use crate::mcs::{ModelClassSpec, TrainedModel};
use crate::stats::compute_statistics;
use blinkml_data::{Dataset, FeatureVec};
use blinkml_prob::split_seed;
use std::time::{Duration, Instant};

/// Result of running a baseline policy.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// The trained model.
    pub model: TrainedModel,
    /// Sample size of the returned model.
    pub sample_size: usize,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Number of models trained along the way (1 for the ratio
    /// policies; ≥ 1 for IncEstimator).
    pub models_trained: usize,
}

/// A policy that picks a sample size (possibly iteratively) and trains.
pub trait SampleSizePolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Run the policy against a training pool and holdout.
    fn run<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        spec: &S,
        train: &Dataset<F>,
        holdout: &Dataset<F>,
        config: &BlinkMlConfig,
        seed: u64,
    ) -> Result<BaselineOutcome, CoreError>;
}

/// Train on a fixed fraction of the data (paper: 1%).
#[derive(Debug, Clone)]
pub struct FixedRatio {
    /// Fraction of `N` to train on.
    pub ratio: f64,
}

impl Default for FixedRatio {
    fn default() -> Self {
        FixedRatio { ratio: 0.01 }
    }
}

impl SampleSizePolicy for FixedRatio {
    fn name(&self) -> &'static str {
        "FixedRatio"
    }

    fn run<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        spec: &S,
        train: &Dataset<F>,
        _holdout: &Dataset<F>,
        config: &BlinkMlConfig,
        seed: u64,
    ) -> Result<BaselineOutcome, CoreError> {
        let t = Instant::now();
        let n = ((train.len() as f64 * self.ratio) as usize).clamp(1, train.len());
        let sample = train.sample(n, split_seed(seed, 0));
        let model = spec.train(&sample, None, &config.optim)?;
        Ok(BaselineOutcome {
            sample_size: n,
            elapsed: t.elapsed(),
            models_trained: 1,
            model,
        })
    }
}

/// Train on `(1 − ε) · 10%` of the data.
#[derive(Debug, Clone, Default)]
pub struct RelativeRatio;

impl SampleSizePolicy for RelativeRatio {
    fn name(&self) -> &'static str {
        "RelativeRatio"
    }

    fn run<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        spec: &S,
        train: &Dataset<F>,
        _holdout: &Dataset<F>,
        config: &BlinkMlConfig,
        seed: u64,
    ) -> Result<BaselineOutcome, CoreError> {
        let t = Instant::now();
        let frac = (1.0 - config.epsilon) * 0.1;
        let n = ((train.len() as f64 * frac) as usize).clamp(1, train.len());
        let sample = train.sample(n, split_seed(seed, 0));
        let model = spec.train(&sample, None, &config.optim)?;
        Ok(BaselineOutcome {
            sample_size: n,
            elapsed: t.elapsed(),
            models_trained: 1,
            model,
        })
    }
}

/// Grow the sample until the accuracy estimator certifies the contract
/// (`n_k = base · k²`, paper: base = 1000).
#[derive(Debug, Clone)]
pub struct IncEstimator {
    /// Base of the quadratic growth schedule.
    pub base: usize,
    /// Cap on the rows used for *statistics* computation at each
    /// iteration. `J = E[ψψᵀ]` is an expectation, so a bounded i.i.d.
    /// subsample estimates it regardless of how large the training
    /// sample has grown; without the cap, high-dimensional sparse
    /// workloads hit an `n × n` Gram inverse that grows
    /// cubically with the schedule. The trained model always uses the
    /// full `n_k` rows; only the certification statistics subsample.
    pub stats_sample_cap: usize,
}

impl Default for IncEstimator {
    fn default() -> Self {
        IncEstimator {
            base: 1_000,
            stats_sample_cap: 5_000,
        }
    }
}

impl SampleSizePolicy for IncEstimator {
    fn name(&self) -> &'static str {
        "IncEstimator"
    }

    fn run<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        spec: &S,
        train: &Dataset<F>,
        holdout: &Dataset<F>,
        config: &BlinkMlConfig,
        seed: u64,
    ) -> Result<BaselineOutcome, CoreError> {
        let t = Instant::now();
        let full_n = train.len();
        let accuracy = ModelAccuracyEstimator::new(config.num_param_samples);
        let mut warm: Option<Vec<f64>> = None;
        // `k` doubles as the trained-model count: one model per round.
        for k in 1.. {
            let n = (self.base * k * k).min(full_n);
            let sample = train.sample(n, split_seed(seed, k as u64));
            let model = spec.train(&sample, warm.as_deref(), &config.optim)?;
            if n == full_n {
                // Reached the full data: exact by construction.
                return Ok(BaselineOutcome {
                    sample_size: n,
                    elapsed: t.elapsed(),
                    models_trained: k,
                    model,
                });
            }
            let cap = self.stats_sample_cap.max(1);
            let stats_sample;
            let stats_data = if sample.len() > cap {
                stats_sample = sample.sample(cap, split_seed(seed, 2_000 + k as u64));
                &stats_sample
            } else {
                &sample
            };
            let stats = compute_statistics(
                config.statistics_method,
                spec,
                model.parameters(),
                stats_data,
            )?;
            let eps = accuracy.estimate(
                spec,
                model.parameters(),
                &stats,
                n,
                full_n,
                holdout,
                config.delta,
                split_seed(seed, 1_000 + k as u64),
            );
            if eps <= config.epsilon {
                return Ok(BaselineOutcome {
                    sample_size: n,
                    elapsed: t.elapsed(),
                    models_trained: k,
                    model,
                });
            }
            warm = Some(model.into_parameters());
        }
        unreachable!("loop exits via n == full_n at the latest");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::logreg::LogisticRegressionSpec;
    use blinkml_data::generators::synthetic_logistic;

    fn setup() -> (
        blinkml_data::Dataset<blinkml_data::DenseVec>,
        blinkml_data::Dataset<blinkml_data::DenseVec>,
        LogisticRegressionSpec,
        BlinkMlConfig,
    ) {
        let (full, _) = synthetic_logistic(12_000, 4, 2.0, 1);
        let split = full.split(800, 0, 2);
        let config = BlinkMlConfig {
            epsilon: 0.08,
            num_param_samples: 48,
            ..BlinkMlConfig::default()
        };
        (
            split.train,
            split.holdout,
            LogisticRegressionSpec::new(1e-3),
            config,
        )
    }

    #[test]
    fn fixed_ratio_uses_one_percent() {
        let (train, holdout, spec, config) = setup();
        let out = FixedRatio::default()
            .run(&spec, &train, &holdout, &config, 5)
            .unwrap();
        assert_eq!(out.sample_size, train.len() / 100);
        assert_eq!(out.models_trained, 1);
    }

    #[test]
    fn relative_ratio_scales_with_epsilon() {
        let (train, holdout, spec, mut config) = setup();
        config.epsilon = 0.05; // 95% accuracy → 9.5% sample
        let out = RelativeRatio
            .run(&spec, &train, &holdout, &config, 6)
            .unwrap();
        let expect = (train.len() as f64 * 0.095) as usize;
        assert_eq!(out.sample_size, expect);
    }

    #[test]
    fn inc_estimator_stops_when_contract_met() {
        let (train, holdout, spec, mut config) = setup();
        config.epsilon = 0.10;
        let inc = IncEstimator {
            base: 500,
            ..IncEstimator::default()
        };
        let out = inc.run(&spec, &train, &holdout, &config, 7).unwrap();
        assert!(out.models_trained >= 1);
        assert!(out.sample_size <= train.len());
        // The growth schedule must match base·k².
        let k = out.models_trained;
        assert_eq!(out.sample_size, (500 * k * k).min(train.len()));
    }

    #[test]
    fn inc_estimator_reaches_full_data_for_impossible_contract() {
        let (train, holdout, spec, mut config) = setup();
        config.epsilon = 1e-9; // effectively unattainable from a sample
        let inc = IncEstimator {
            base: 2_000,
            ..IncEstimator::default()
        };
        let out = inc.run(&spec, &train, &holdout, &config, 8).unwrap();
        assert_eq!(out.sample_size, train.len());
        assert!(out.models_trained > 1);
    }

    #[test]
    fn policy_names() {
        assert_eq!(FixedRatio::default().name(), "FixedRatio");
        assert_eq!(RelativeRatio.name(), "RelativeRatio");
        assert_eq!(IncEstimator::default().name(), "IncEstimator");
    }
}

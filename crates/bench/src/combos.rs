//! The eight (model, dataset) combinations of the paper's §5.1, behind a
//! type-erased runner so experiment binaries can sweep over all of them.

use blinkml_core::baselines::{FixedRatio, IncEstimator, RelativeRatio, SampleSizePolicy};
use blinkml_core::models::ppca::align_ppca_parameters;
use blinkml_core::models::{
    LinearRegressionSpec, LogisticRegressionSpec, MaxEntSpec, PoissonRegressionSpec, PpcaSpec,
};
use blinkml_core::{BlinkMlConfig, Coordinator, ModelClassSpec, StatisticsMethod};
use blinkml_data::generators::{
    criteo_like, gas_like, higgs_like, mnist_like, power_like, synthetic_poisson, yelp_like,
};
use blinkml_data::{Dataset, FeatureVec, Split};
use blinkml_optim::OptimOptions;
use std::time::{Duration, Instant};

/// L2 coefficient used by all paper experiments (§5.1).
pub const DEFAULT_BETA: f64 = 1e-3;

/// Number of PPCA factors used by the paper (§5.1).
pub const PPCA_FACTORS: usize = 10;

/// PPCA factors for the MNIST-like combo at harness scale.
///
/// The paper keeps `n₀ > D` for PPCA (`n₀ = 10 000 > D = 7 841`); the
/// asymptotic covariance estimate is rank-deficient — and therefore
/// overconfident — outside that regime. At this harness' `n₀ = 1 000`
/// and `d = 196`, q = 4 preserves the same inequality
/// (`D = 785 < n₀`). Recorded in EXPERIMENTS.md.
pub const PPCA_MNIST_FACTORS: usize = 4;

/// Identifier for one (model, dataset) combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComboId {
    /// Linear regression on the gas-sensor stand-in.
    LinGas,
    /// Linear regression on the power-consumption stand-in.
    LinPower,
    /// Logistic regression on the sparse CTR stand-in.
    LrCriteo,
    /// Logistic regression on the HIGGS stand-in.
    LrHiggs,
    /// Max-entropy on the image stand-in.
    MeMnist,
    /// Max-entropy on the sparse review stand-in.
    MeYelp,
    /// PPCA on the image stand-in.
    PpcaMnist,
    /// PPCA on the HIGGS stand-in.
    PpcaHiggs,
    /// Poisson regression on synthetic counts (extension; not in the
    /// paper's evaluation).
    PoissonSynthetic,
}

impl ComboId {
    /// The eight combinations evaluated in the paper, in figure order.
    pub fn paper_combos() -> [ComboId; 8] {
        [
            ComboId::LinGas,
            ComboId::LrCriteo,
            ComboId::MeMnist,
            ComboId::PpcaMnist,
            ComboId::LinPower,
            ComboId::LrHiggs,
            ComboId::MeYelp,
            ComboId::PpcaHiggs,
        ]
    }

    /// Display label matching the paper's subfigure captions.
    pub fn label(&self) -> &'static str {
        match self {
            ComboId::LinGas => "Lin, Gas-like",
            ComboId::LinPower => "Lin, Power-like",
            ComboId::LrCriteo => "LR, Criteo-like",
            ComboId::LrHiggs => "LR, HIGGS-like",
            ComboId::MeMnist => "ME, MNIST-like",
            ComboId::MeYelp => "ME, Yelp-like",
            ComboId::PpcaMnist => "PPCA, MNIST-like",
            ComboId::PpcaHiggs => "PPCA, HIGGS-like",
            ComboId::PoissonSynthetic => "Poisson, synthetic",
        }
    }

    /// Whether this combo uses the PPCA accuracy sweep.
    pub fn is_ppca(&self) -> bool {
        matches!(self, ComboId::PpcaMnist | ComboId::PpcaHiggs)
    }

    /// Initial sample size actually used for a requested `n0`.
    ///
    /// Returns `requested` unchanged for every combo: a smaller `n₀`
    /// would speed up the Gram-path combos' statistics (the `n₀ × n₀`
    /// Gram and its Cholesky inverse dominate at harness scale) but makes the
    /// factored covariance more rank-deficient — and therefore
    /// overconfident — so the guarantee experiments take precedence.
    /// The hook remains so time-focused runs can trade calibration for
    /// speed explicitly.
    pub fn effective_n0(&self, requested: usize) -> usize {
        requested
    }

    /// The requested-accuracy sweep of Figures 5/6 for this combo.
    pub fn accuracy_sweep(&self) -> &'static [f64] {
        if self.is_ppca() {
            crate::PPCA_ACCURACY_SWEEP
        } else {
            crate::GLM_ACCURACY_SWEEP
        }
    }

    /// Build the runner at a dataset scale factor (1.0 = harness
    /// default sizes; the paper's raw N values are 1–2 orders larger and
    /// are recorded in EXPERIMENTS.md).
    pub fn make(&self, scale: f64, seed: u64) -> Box<dyn ComboRunner> {
        let n = |base: usize| ((base as f64 * scale) as usize).max(12_000);
        match self {
            ComboId::LinGas => Box::new(TypedCombo::new(
                *self,
                gas_like(n(120_000), seed),
                LinearRegressionSpec::new(DEFAULT_BETA),
                None,
            )),
            ComboId::LinPower => Box::new(TypedCombo::new(
                *self,
                power_like(n(100_000), seed),
                LinearRegressionSpec::new(DEFAULT_BETA),
                None,
            )),
            ComboId::LrCriteo => Box::new(TypedCombo::new(
                *self,
                criteo_like(n(80_000), 20_000, seed),
                LogisticRegressionSpec::new(DEFAULT_BETA),
                None,
            )),
            ComboId::LrHiggs => Box::new(TypedCombo::new(
                *self,
                higgs_like(n(150_000), 28, seed),
                LogisticRegressionSpec::new(DEFAULT_BETA),
                None,
            )),
            ComboId::MeMnist => Box::new(TypedCombo::new(
                *self,
                mnist_like(n(60_000), seed),
                MaxEntSpec::new(DEFAULT_BETA, 10),
                None,
            )),
            ComboId::MeYelp => Box::new(TypedCombo::new(
                *self,
                yelp_like(n(50_000), 10_000, seed),
                MaxEntSpec::new(DEFAULT_BETA, 5),
                None,
            )),
            ComboId::PpcaMnist => Box::new(TypedCombo::new(
                *self,
                mnist_like(n(60_000), seed),
                PpcaSpec::new(PPCA_MNIST_FACTORS),
                Some(PPCA_MNIST_FACTORS),
            )),
            // PPCA's 1 − cos metric is only meaningful when the top-q
            // eigenspace is identifiable. The flat-spectrum higgs_like
            // generator is adversarial for it (eigenvalue crossings at
            // the q-boundary are non-local changes the asymptotics
            // cannot see), so the PPCA combo draws from a rank-10
            // latent model of the same dimensionality — the structure
            // real HIGGS features have. Recorded in EXPERIMENTS.md.
            ComboId::PpcaHiggs => Box::new(TypedCombo::new(
                *self,
                blinkml_data::generators::low_rank_gaussian(
                    n(150_000),
                    28,
                    PPCA_FACTORS,
                    0.3,
                    seed,
                ),
                PpcaSpec::new(PPCA_FACTORS),
                Some(PPCA_FACTORS),
            )),
            ComboId::PoissonSynthetic => Box::new(TypedCombo::new(
                *self,
                synthetic_poisson(n(100_000), 20, seed).0,
                PoissonRegressionSpec::new(DEFAULT_BETA),
                None,
            )),
        }
    }
}

/// Metadata of one BlinkML (or baseline) run.
#[derive(Debug, Clone)]
pub struct ComboRun {
    /// Final parameter vector.
    pub theta: Vec<f64>,
    /// Sample size of the returned model.
    pub sample_size: usize,
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
    /// Phase breakdown (zeroed for baselines without phases).
    pub initial_training: Duration,
    /// Statistics-computation time.
    pub statistics: Duration,
    /// Accuracy-estimation + sample-size-search time.
    pub search: Duration,
    /// Final-model training time.
    pub final_training: Duration,
    /// Whether the initial model satisfied the contract.
    pub used_initial: bool,
    /// Optimizer iterations of the returned model.
    pub iterations: usize,
}

/// A trained full model and its cost.
#[derive(Debug, Clone)]
pub struct FullModelInfo {
    /// Full-model parameters.
    pub theta: Vec<f64>,
    /// Wall-clock training time.
    pub elapsed: Duration,
    /// Optimizer iterations.
    pub iterations: usize,
}

/// Type-erased interface over one (model, dataset) combination.
pub trait ComboRunner: Send {
    /// The combo's identifier.
    fn id(&self) -> ComboId;

    /// Training-pool size `N`.
    fn train_len(&self) -> usize;

    /// Feature dimension `d`.
    fn dim(&self) -> usize;

    /// Train (and cache) the full model.
    fn train_full(&mut self) -> FullModelInfo;

    /// The cached full model, if already trained.
    fn full_model(&self) -> Option<&FullModelInfo>;

    /// Run BlinkML end-to-end for a requested accuracy.
    fn run_blinkml(&self, epsilon: f64, delta: f64, n0: usize, k: usize, seed: u64) -> ComboRun;

    /// Run one of the §5.4 baselines ("fixed", "relative", "inc").
    fn run_policy(&self, policy: &str, epsilon: f64, delta: f64, k: usize, seed: u64) -> ComboRun;

    /// Accuracy of `theta` against the cached full model on the test
    /// set: `1 − v` (PPCA parameters are aligned first).
    fn actual_accuracy(&self, theta: &[f64]) -> f64;

    /// Generalization error of `theta` on the test set.
    fn test_error(&self, theta: &[f64]) -> f64;
}

/// Generic implementation of [`ComboRunner`].
struct TypedCombo<F: FeatureVec, S: ModelClassSpec<F>> {
    id: ComboId,
    spec: S,
    split: Split<F>,
    full: Option<FullModelInfo>,
    ppca_factors: Option<usize>,
}

/// Holdout/test sizes used by every combo.
const HOLDOUT_SIZE: usize = 2_000;
const TEST_SIZE: usize = 3_000;

impl<F: FeatureVec, S: ModelClassSpec<F>> TypedCombo<F, S> {
    fn new(id: ComboId, data: Dataset<F>, spec: S, ppca_factors: Option<usize>) -> Self {
        let split = data.split(HOLDOUT_SIZE, TEST_SIZE, 0xB11A);
        TypedCombo {
            id,
            spec,
            split,
            full: None,
            ppca_factors,
        }
    }

    fn config(&self, epsilon: f64, delta: f64, n0: usize, k: usize) -> BlinkMlConfig {
        BlinkMlConfig {
            epsilon,
            delta,
            initial_sample_size: n0,
            holdout_size: HOLDOUT_SIZE,
            num_param_samples: k,
            statistics_method: StatisticsMethod::ObservedFisher,
            optim: OptimOptions::default(),
            estimate_final_accuracy: false,
            exec: Default::default(),
        }
    }
}

impl<F: FeatureVec, S: ModelClassSpec<F>> ComboRunner for TypedCombo<F, S> {
    fn id(&self) -> ComboId {
        self.id
    }

    fn train_len(&self) -> usize {
        self.split.train.len()
    }

    fn dim(&self) -> usize {
        self.split.train.dim()
    }

    fn train_full(&mut self) -> FullModelInfo {
        if let Some(full) = &self.full {
            return full.clone();
        }
        let t = Instant::now();
        let model = self
            .spec
            .train(&self.split.train, None, &OptimOptions::default())
            .expect("full-model training failed");
        let info = FullModelInfo {
            elapsed: t.elapsed(),
            iterations: model.iterations,
            theta: model.into_parameters(),
        };
        self.full = Some(info.clone());
        info
    }

    fn full_model(&self) -> Option<&FullModelInfo> {
        self.full.as_ref()
    }

    fn run_blinkml(&self, epsilon: f64, delta: f64, n0: usize, k: usize, seed: u64) -> ComboRun {
        let config = self.config(epsilon, delta, n0, k);
        let t = Instant::now();
        let outcome = Coordinator::new(config)
            .train_with_holdout(&self.spec, &self.split.train, &self.split.holdout, seed)
            .expect("blinkml run failed");
        let elapsed = t.elapsed();
        ComboRun {
            sample_size: outcome.sample_size,
            elapsed,
            initial_training: outcome.phases.initial_training,
            statistics: outcome.phases.statistics,
            search: outcome.phases.sample_size_search,
            final_training: outcome.phases.final_training,
            used_initial: outcome.used_initial_model,
            iterations: outcome.model.iterations,
            theta: outcome.model.into_parameters(),
        }
    }

    fn run_policy(&self, policy: &str, epsilon: f64, delta: f64, k: usize, seed: u64) -> ComboRun {
        let config = self.config(epsilon, delta, 1_000, k);
        let outcome = match policy {
            "fixed" => FixedRatio::default().run(
                &self.spec,
                &self.split.train,
                &self.split.holdout,
                &config,
                seed,
            ),
            "relative" => RelativeRatio.run(
                &self.spec,
                &self.split.train,
                &self.split.holdout,
                &config,
                seed,
            ),
            // Statistics capped at the coordinator's n₀ so the per-
            // iteration eigendecomposition stays tractable on this
            // machine (see IncEstimator::stats_sample_cap).
            "inc" => IncEstimator {
                base: 1_000,
                stats_sample_cap: 1_000,
            }
            .run(
                &self.spec,
                &self.split.train,
                &self.split.holdout,
                &config,
                seed,
            ),
            other => panic!("unknown policy '{other}'"),
        }
        .expect("baseline run failed");
        ComboRun {
            sample_size: outcome.sample_size,
            elapsed: outcome.elapsed,
            initial_training: Duration::ZERO,
            statistics: Duration::ZERO,
            search: Duration::ZERO,
            final_training: Duration::ZERO,
            used_initial: false,
            iterations: outcome.model.iterations,
            theta: outcome.model.into_parameters(),
        }
    }

    fn actual_accuracy(&self, theta: &[f64]) -> f64 {
        let full = self
            .full
            .as_ref()
            .expect("train_full must be called before actual_accuracy");
        let v = if let Some(q) = self.ppca_factors {
            let d = self.dim();
            let aligned = align_ppca_parameters(&full.theta, theta, d, q);
            self.spec.diff(&full.theta, &aligned, &self.split.test)
        } else {
            self.spec.diff(&full.theta, theta, &self.split.test)
        };
        1.0 - v
    }

    fn test_error(&self, theta: &[f64]) -> f64 {
        self.spec.generalization_error(theta, &self.split.test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_labels_and_sweeps() {
        for id in ComboId::paper_combos() {
            assert!(!id.label().is_empty());
            assert!(!id.accuracy_sweep().is_empty());
        }
        assert!(ComboId::PpcaMnist.is_ppca());
        assert!(!ComboId::LrHiggs.is_ppca());
    }

    #[test]
    fn small_combo_runs_end_to_end() {
        // Tiny scale so the test stays fast; exercises the full pipeline.
        let mut combo = ComboId::LrHiggs.make(0.1, 1);
        assert!(combo.train_len() > 5_000);
        assert_eq!(combo.dim(), 28);
        let full = combo.train_full();
        assert!(!full.theta.is_empty());
        let run = combo.run_blinkml(0.2, 0.05, 300, 32, 2);
        let acc = combo.actual_accuracy(&run.theta);
        assert!(acc > 0.8, "accuracy {acc} vs requested 0.8");
        let err = combo.test_error(&run.theta);
        assert!((0.0..=1.0).contains(&err));
    }

    #[test]
    fn baseline_policies_run() {
        let combo = ComboId::LrHiggs.make(0.1, 3);
        for policy in ["fixed", "relative"] {
            let run = combo.run_policy(policy, 0.1, 0.05, 16, 4);
            assert!(run.sample_size > 0);
        }
    }
}

//! Hyperparameter sweeps (paper §6.5, the hyperparameter-search
//! workload): one model per L2 coefficient λ over the same data and the
//! same `(ε, δ)` contract.
//!
//! A sweep is the coordinator's training pipeline
//! ([`crate::coordinator`]) run over K grid points at once, one spec per
//! λ from [`ModelClassSpec::with_regularization`]. This module is only
//! its front end: validate the grid, build the specs, and assemble a
//! [`SweepResult`]. A looped [`Session::train`](crate::Session) would
//! repay almost all of its cost to **memory traffic** — every grid point
//! streams the same pilot sample, the same holdout design matrix, and
//! (nearly) the same final sample through the cache, once per optimizer
//! probe, per λ. The pipeline shares that substrate instead:
//!
//! * **one pilot capture** — every λ's initial model trains against the
//!   same block,
//! * **lockstep fused fits** — the K quasi-Newton solves are resumable
//!   ([`blinkml_optim::Solve`]) and are driven round by round on the
//!   caller's thread through
//!   [`ModelClassSpec::value_grad_batched_multi`]: each round answers
//!   every unfinished solve's probe with one fused pass over the capture,
//!   which walks the rows in L1-sized blocks and reuses each block for
//!   up to K margin evaluations, then for up to K gradient
//!   accumulations (see `MatrixView::value_grad_fold_multi`). A spec
//!   without its own multi-λ kernel runs the trait's default, one
//!   `value_grad` per probe,
//! * **no base pass** — each λ's holdout base scores ride as one more
//!   column block in the GEMM that scores its ε₀ draw pool
//!   ([`HoldoutScorer::engine`](crate::diff_engine::HoldoutScorer::engine)),
//! * **one final capture** — deterministic subsampling is *nested* (the
//!   size-`n` sample is a prefix of the size-`n'` sample for `n ≤ n'`,
//!   same seed), so one capture of the largest chosen sample serves
//!   every grid point as a prefix view, for its final fit and its ε̂.
//!
//! **Exactness contract.** Every grid point's outcome — θ (to the bit,
//! via `f64::to_bits`), ε₀, ε̂, and the chosen sample size `n` — is
//! identical to an independent [`Session::train`](crate::Session) run
//! on a spec with that λ, which is the same pipeline at K = 1. The
//! multi-λ objective is bit-identical to [`ModelClassSpec::value_grad`]
//! over a prefix view, and prefix views to captures of the per-λ
//! samples; the round loop only *batches* probe evaluations, so each
//! λ's optimizer trajectory is exactly that of a solo solve.
//!
//! A sweep runs entirely on its caller's thread: it starts no thread of
//! its own, so `ExecConfig::sequential()` runs it on one thread, and a
//! panic in a kernel unwinds straight to the caller. Sweeps run without
//! a deadline (`RunControl::unbounded`) and bypass the pilot cache.

use crate::config::BlinkMlConfig;
use crate::coordinator::{run_pipeline, PipelineScratch, RunControl, TrainingOutcome};
use crate::error::CoreError;
use crate::mcs::ModelClassSpec;
use blinkml_data::{Dataset, FeatureVec};

/// One grid point's result.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The grid point's L2 coefficient.
    pub lambda: f64,
    /// Its training outcome, bit-identical to an independent run with
    /// this λ. Its phase times are **stage aggregates** shared by every
    /// point (the stages are fused; per-point attribution would be
    /// fiction).
    pub outcome: TrainingOutcome,
}

/// The result of a grid sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Per-λ results, in the plan's λ order.
    pub points: Vec<SweepPoint>,
    /// Whether the fused shared-substrate engine ran. Always `true`:
    /// every sweepable spec takes it (a spec without its own multi-λ
    /// kernel runs the default one, a `value_grad` per grid point). Kept
    /// so callers that report it keep compiling.
    pub fused: bool,
}

/// The sweep front end behind [`Session::sweep`](crate::Session) and the
/// serving layer: validate the λ grid, instantiate one spec per λ, run
/// the pipeline over all of them, and return the points in `lambdas`
/// order.
pub(crate) fn sweep_grid<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    scratch: &mut PipelineScratch,
    lambdas: &[f64],
    seed: u64,
) -> Result<SweepResult, CoreError> {
    if lambdas.is_empty() {
        return Err(CoreError::InvalidConfig(
            "sweep needs at least one λ grid point".into(),
        ));
    }
    if let Some(l) = lambdas.iter().find(|l| !(l.is_finite() && **l >= 0.0)) {
        return Err(CoreError::InvalidConfig(format!(
            "sweep λ must be finite and nonnegative, got {l}"
        )));
    }
    let specs: Vec<Box<dyn ModelClassSpec<F>>> = lambdas
        .iter()
        .map(|&l| {
            spec.with_regularization(l).ok_or_else(|| {
                CoreError::InvalidConfig(format!(
                    "model class '{}' has no swappable L2 coefficient to sweep",
                    spec.name()
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    let specs: Vec<&dyn ModelClassSpec<F>> = specs.iter().map(AsRef::as_ref).collect();
    let runs = run_pipeline(
        config,
        &specs,
        train,
        holdout,
        scratch,
        seed,
        None,
        false,
        &RunControl::unbounded(),
    )?;
    Ok(SweepResult {
        points: lambdas
            .iter()
            .zip(runs)
            .map(|(&lambda, run)| SweepPoint {
                lambda,
                outcome: run.outcome,
            })
            .collect(),
        fused: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::DrawScores;
    use crate::models::linreg::LinearRegressionSpec;
    use crate::models::logreg::LogisticRegressionSpec;
    use crate::models::ppca::PpcaSpec;
    use crate::session::Session;
    use blinkml_data::generators::{low_rank_gaussian, synthetic_linear, synthetic_logistic};
    use blinkml_data::{MatrixView, TrainScratch};

    fn config(n0: usize) -> BlinkMlConfig {
        BlinkMlConfig {
            epsilon: 0.05,
            delta: 0.05,
            initial_sample_size: n0,
            holdout_size: 600,
            num_param_samples: 32,
            ..BlinkMlConfig::default()
        }
    }

    fn assert_point_bitwise(p: &SweepPoint, solo: &TrainingOutcome, tag: &str) {
        assert_eq!(p.outcome.sample_size, solo.sample_size, "{tag}: n");
        assert_eq!(
            p.outcome.initial_epsilon.to_bits(),
            solo.initial_epsilon.to_bits(),
            "{tag}: ε₀"
        );
        assert_eq!(
            p.outcome.estimated_epsilon.to_bits(),
            solo.estimated_epsilon.to_bits(),
            "{tag}: ε̂"
        );
        assert_eq!(
            p.outcome.used_initial_model, solo.used_initial_model,
            "{tag}: path"
        );
        assert_eq!(p.outcome.search_probes, solo.search_probes, "{tag}: probes");
        assert_eq!(
            p.outcome.model.parameters().len(),
            solo.model.parameters().len()
        );
        for (a, b) in p
            .outcome
            .model
            .parameters()
            .iter()
            .zip(solo.model.parameters())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{tag}: θ");
        }
        assert_eq!(p.outcome.model.iterations, solo.model.iterations, "{tag}");
        assert_eq!(p.outcome.model.converged, solo.model.converged, "{tag}");
        assert_eq!(
            p.outcome.model.objective_value.to_bits(),
            solo.model.objective_value.to_bits(),
            "{tag}: objective value"
        );
    }

    /// The fused sweep must be bit-identical, per grid point, to looped
    /// independent Session runs on per-λ specs — a tight contract so
    /// final models actually train.
    #[test]
    fn fused_sweep_matches_looped_sessions_bitwise() {
        let (data, _) = synthetic_logistic(12_000, 5, 2.0, 31);
        let split = data.split(800, 0, 32);
        let spec = LogisticRegressionSpec::new(1e-3);
        let session = Session::new(config(400), &spec, &split.train, &split.holdout).unwrap();
        let lambdas = [1.0, 1e-2, 0.0, 1e-4];
        let sweep = session.sweep(&lambdas, 0.02, 0.05, 9).unwrap();
        assert!(sweep.fused);
        assert_eq!(sweep.points.len(), lambdas.len());
        for (point, &lambda) in sweep.points.iter().zip(&lambdas) {
            assert_eq!(point.lambda, lambda);
            let solo_spec = LogisticRegressionSpec::new(lambda);
            let solo_session =
                Session::new(config(400), &solo_spec, &split.train, &split.holdout).unwrap();
            let solo = solo_session.train(0.02, 0.05, 9).unwrap();
            assert_point_bitwise(point, &solo, &format!("λ={lambda}"));
        }
    }

    /// Grid order cannot matter: the same λ set in a different order
    /// returns the same per-λ results.
    #[test]
    fn sweep_results_are_order_independent() {
        let (data, _) = synthetic_linear(8_000, 4, 0.4, 33);
        let split = data.split(700, 0, 34);
        let spec = LinearRegressionSpec::new(1e-3);
        let session = Session::new(config(350), &spec, &split.train, &split.holdout).unwrap();
        let asc = session.sweep(&[1e-4, 1e-2, 1.0], 0.03, 0.05, 4).unwrap();
        let desc = session.sweep(&[1.0, 1e-2, 1e-4], 0.03, 0.05, 4).unwrap();
        assert!(asc.fused && desc.fused);
        for a in &asc.points {
            let d = desc
                .points
                .iter()
                .find(|p| p.lambda == a.lambda)
                .expect("same grid");
            for (x, y) in a
                .outcome
                .model
                .parameters()
                .iter()
                .zip(d.outcome.model.parameters())
            {
                assert_eq!(x.to_bits(), y.to_bits(), "λ={}", a.lambda);
            }
            assert_eq!(a.outcome.sample_size, d.outcome.sample_size);
        }
    }

    /// A spec without its own multi-λ kernel runs the fused engine on
    /// the trait's default kernel. Each point is bitwise a solo
    /// `Session::train` on that λ's spec, and bitwise the logistic sweep
    /// whose kernel it hides, at two λ orders and budgets {1, 4}. Every
    /// `value_grad_batched_multi` call runs on the thread that called
    /// `Session::sweep`.
    #[test]
    fn default_multi_lambda_kernel_sweep_matches_solo_runs() {
        use std::thread::{current, ThreadId};
        /// Logistic regression with its own multi-λ kernel hidden, so
        /// sweeps run the trait's default one, which calls `value_grad`
        /// once per eval on the thread it runs on. `value_grad` checks
        /// that thread against the one that built the spec, the thread
        /// that calls `Session::sweep` and `Session::train` below.
        struct SoloLambda(LogisticRegressionSpec, ThreadId);
        type Inner = dyn ModelClassSpec<blinkml_data::DenseVec>;
        impl ModelClassSpec<blinkml_data::DenseVec> for SoloLambda {
            fn name(&self) -> &'static str {
                Inner::name(&self.0)
            }
            fn param_dim(&self, data_dim: usize) -> usize {
                Inner::param_dim(&self.0, data_dim)
            }
            fn regularization(&self) -> f64 {
                Inner::regularization(&self.0)
            }
            fn value_grad(
                &self,
                theta: &[f64],
                xm: &MatrixView,
                scratch: &mut TrainScratch,
                grad: &mut [f64],
            ) -> f64 {
                assert_eq!(
                    current().id(),
                    self.1,
                    "an objective call left the caller's thread"
                );
                Inner::value_grad(&self.0, theta, xm, scratch, grad)
            }
            fn with_regularization(
                &self,
                beta: f64,
            ) -> Option<Box<dyn ModelClassSpec<blinkml_data::DenseVec>>> {
                Some(Box::new(SoloLambda(
                    LogisticRegressionSpec::new(beta),
                    self.1,
                )))
            }
            fn grads(&self, theta: &[f64], xm: &MatrixView) -> crate::grads::Grads {
                Inner::grads(&self.0, theta, xm)
            }
            fn predict(&self, theta: &[f64], x: &blinkml_data::DenseVec) -> f64 {
                self.0.predict(theta, x)
            }
            fn diff(&self, a: &[f64], b: &[f64], holdout: &Dataset<blinkml_data::DenseVec>) -> f64 {
                self.0.diff(a, b, holdout)
            }
            fn generalization_error(
                &self,
                theta: &[f64],
                data: &Dataset<blinkml_data::DenseVec>,
            ) -> f64 {
                self.0.generalization_error(theta, data)
            }
            fn margin_weights(
                &self,
                theta: &[f64],
                data_dim: usize,
            ) -> Option<blinkml_linalg::Matrix> {
                Inner::margin_weights(&self.0, theta, data_dim)
            }
            fn predict_from_margins(&self, scores: &[f64]) -> f64 {
                Inner::predict_from_margins(&self.0, scores)
            }
            fn margin_diff_sum(&self, scores: DrawScores<'_>, stop: f64) -> f64 {
                Inner::margin_diff_sum(&self.0, scores, stop)
            }
        }
        use crate::config::ExecConfig;
        use blinkml_data::parallel::set_max_threads;
        let _budget = blinkml_linalg::testing::budget_lock();
        let (data, _) = synthetic_logistic(5_000, 3, 2.0, 35);
        let split = data.split(500, 0, 36);
        let spec = SoloLambda(LogisticRegressionSpec::new(1e-3), current().id());
        for threads in [Some(1), Some(4)] {
            let cfg = BlinkMlConfig {
                exec: ExecConfig {
                    max_threads: threads,
                },
                ..config(300)
            };
            for grid in [[1e-2, 0.1, 0.0], [0.0, 0.1, 1e-2]] {
                let sweep = Session::new(cfg.clone(), &spec, &split.train, &split.holdout)
                    .unwrap()
                    .sweep(&grid, 0.04, 0.05, 5)
                    .unwrap();
                assert!(sweep.fused);
                let kernel = Session::new(
                    cfg.clone(),
                    &LogisticRegressionSpec::new(1e-3),
                    &split.train,
                    &split.holdout,
                )
                .unwrap()
                .sweep(&grid, 0.04, 0.05, 5)
                .unwrap();
                for (p, k) in sweep.points.iter().zip(&kernel.points) {
                    let tag = format!("λ={} t={threads:?} grid={grid:?}", p.lambda);
                    let solo_spec =
                        SoloLambda(LogisticRegressionSpec::new(p.lambda), current().id());
                    let solo = Session::new(cfg.clone(), &solo_spec, &split.train, &split.holdout)
                        .unwrap()
                        .train(0.04, 0.05, 5)
                        .unwrap();
                    assert_point_bitwise(p, &solo, &format!("solo {tag}"));
                    assert_point_bitwise(p, &k.outcome, &format!("kernel {tag}"));
                }
                assert!(
                    sweep.points.iter().any(|p| !p.outcome.used_initial_model),
                    "some point must train a final model"
                );
            }
        }
        set_max_threads(None);
    }

    /// A panic inside the fused multi-λ kernel must reach the caller of
    /// `Session::sweep` as the original panic; a watchdog turns a hang
    /// into a failure.
    #[test]
    fn multi_lambda_kernel_panic_reaches_the_caller() {
        use crate::testing::MultiLambdaPanicSpec;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::time::Duration;

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let (data, _) = synthetic_logistic(3_000, 4, 2.0, 43);
            let split = data.split(400, 0, 44);
            let spec = MultiLambdaPanicSpec(Box::new(LogisticRegressionSpec::new(1e-3)));
            let session = Session::new(config(300), &spec, &split.train, &split.holdout).unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.sweep(&[1e-2, 0.1, 1.0], 0.04, 0.05, 5)
            }));
            let _ = tx.send(outcome.map(|r| r.is_ok()));
        });
        let payload = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("sweep hung after a kernel panic")
            .expect_err("the kernel panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        assert_eq!(
            message.as_deref(),
            Some("injected fault: fused multi-λ kernel panic"),
            "the original panic reaches the caller"
        );
    }

    /// Model classes without a swappable L2 coefficient are rejected.
    #[test]
    fn non_sweepable_spec_is_rejected() {
        let data = low_rank_gaussian(600, 4, 2, 0.2, 39);
        let holdout = low_rank_gaussian(100, 4, 2, 0.2, 40);
        let spec = PpcaSpec::new(2);
        let session = Session::new(config(200), &spec, &data, &holdout).unwrap();
        assert!(matches!(
            session.sweep(&[0.1], 0.05, 0.05, 1),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    /// Degenerate grids are rejected before any work happens.
    #[test]
    fn degenerate_grids_are_rejected() {
        let (data, _) = synthetic_logistic(2_000, 3, 2.0, 41);
        let split = data.split(300, 0, 42);
        let spec = LogisticRegressionSpec::new(1e-3);
        let session = Session::new(config(200), &spec, &split.train, &split.holdout).unwrap();
        assert!(session.sweep(&[], 0.05, 0.05, 1).is_err());
        assert!(session.sweep(&[-1.0], 0.05, 0.05, 1).is_err());
        assert!(session.sweep(&[f64::NAN], 0.05, 0.05, 1).is_err());
        assert!(session.sweep(&[0.1], 0.0, 0.05, 1).is_err());
    }
}

//! The Model Class Specification (MCS) abstraction.
//!
//! An MCS is the contract between BlinkML's generic machinery and a
//! concrete model class (paper §2.2): it exposes the regularized
//! negative log-likelihood objective (`value_grad`), the per-example
//! gradient list (`grads`), the prediction function, and the
//! prediction-difference metric (`diff`). Everything else in the system
//! — statistics computation, accuracy estimation, sample-size search,
//! the coordinator — is written against this trait only.
//!
//! Every training and statistics method takes one data argument, a
//! [`MatrixView`] over the sample's rows; prediction and `diff` take
//! the holdout [`Dataset`]. A custom model class implements eight
//! methods — `name`, `param_dim`, `regularization`, `value_grad`,
//! `grads`, `predict`, `diff` and `generalization_error` — and gets
//! training ([`ModelClassSpec::train`]), statistics, accuracy
//! estimation and the coordinator for free.

use crate::error::CoreError;
use crate::grads::Grads;
use blinkml_data::{Dataset, DatasetMatrix, FeatureVec, MatrixView, TrainScratch};
use blinkml_linalg::Matrix;
use blinkml_optim::{minimize, Objective, OptimOptions};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// A model trained on a specific sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    theta: Vec<f64>,
    /// Sample size the model was trained on.
    pub sample_size: usize,
    /// Optimizer iterations (0 for closed-form training).
    pub iterations: usize,
    /// Whether the optimizer reported convergence.
    pub converged: bool,
    /// Final objective value.
    pub objective_value: f64,
}

impl TrainedModel {
    /// Construct from raw parts (used by MCS `train` implementations).
    pub fn new(
        theta: Vec<f64>,
        sample_size: usize,
        iterations: usize,
        converged: bool,
        objective_value: f64,
    ) -> Self {
        TrainedModel {
            theta,
            sample_size,
            iterations,
            converged,
            objective_value,
        }
    }

    /// The learned parameter vector `θ`.
    pub fn parameters(&self) -> &[f64] {
        &self.theta
    }

    /// Consume the model, returning `θ`.
    pub fn into_parameters(self) -> Vec<f64> {
        self.theta
    }
}

/// One grid point of a multi-λ batched objective evaluation
/// ([`ModelClassSpec::value_grad_batched_multi`]): the probe point `θ`,
/// the L2 coefficient `β` of this grid point, the sample-size prefix it
/// evaluates over, and its output buffers.
#[derive(Debug)]
pub struct SweepEval<'r> {
    /// Parameter vector of this grid point's probe.
    pub theta: &'r [f64],
    /// L2 regularization coefficient `β` of this grid point (replaces
    /// the spec's own [`ModelClassSpec::regularization`]).
    pub beta: f64,
    /// The probe evaluates over the view's first `rows` rows — the grid
    /// point's sample, nested as a prefix of the shared capture.
    pub rows: usize,
    /// Gradient output `∇f(θ)` (`param_dim` long, overwritten).
    pub grad: &'r mut [f64],
    /// Objective value output `f(θ)`.
    pub value: f64,
}

impl<'r> SweepEval<'r> {
    /// An evaluation of probe `θ` under coefficient `beta` over the
    /// first `rows` rows, writing the gradient into `grad`.
    pub fn new(theta: &'r [f64], beta: f64, rows: usize, grad: &'r mut [f64]) -> Self {
        SweepEval {
            theta,
            beta,
            rows,
            grad,
            value: 0.0,
        }
    }
}

/// What a model's prediction is computed from, for the fast-diff path.
///
/// Every GLM in the paper predicts through per-output linear scores
/// `x·θ_block`; exposing those lets the estimators precompute holdout
/// score matrices once per parameter-pool element and then evaluate the
/// prediction difference at any sample size in `O(holdout · outputs)`
/// (the engine behind the paper's "no additional training" sample-size
/// search being cheap in practice).
pub trait ModelClassSpec<F: FeatureVec>: Send + Sync {
    /// Short model-class name for reports.
    fn name(&self) -> &'static str;

    /// Parameter dimension for a dataset of feature dimension
    /// `data_dim`.
    fn param_dim(&self, data_dim: usize) -> usize;

    /// L2 regularization coefficient `β` (`r(θ) = βθ`, `J_r = βI`);
    /// return 0 for unregularized models.
    fn regularization(&self) -> f64;

    /// The set of label values this model class accepts — the contract
    /// the streaming ingest gate (`blinkml_data::stream`) enforces at
    /// append time so out-of-domain labels never poison pooled
    /// statistics. Defaults to any finite real (regression); supervised
    /// classification/count models override.
    fn label_domain(&self) -> blinkml_data::LabelDomain {
        blinkml_data::LabelDomain::AnyFinite
    }

    /// Averaged objective `f_n(θ)` (Equation 2) returned, its gradient
    /// `∇f_n(θ)` written into `grad`, over the rows of a design-matrix
    /// view: the full matrix of a materialized sample, a gathered index
    /// view over the pool matrix (the zero-copy sample representation),
    /// or a packed capture. The contract is exactness across view kinds:
    /// the value and gradient must depend only on the rows the view
    /// selects, so the built-in model classes are bit-identical for every
    /// view kind and thread budget (and to their per-example reference
    /// oracles in `crate::testing`). `scratch` persists across calls so
    /// line-search probes allocate nothing in steady state.
    fn value_grad(
        &self,
        theta: &[f64],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
        grad: &mut [f64],
    ) -> f64;

    /// Whether this model class implements
    /// [`Self::value_grad_batched_multi`] — the fused multi-λ objective
    /// kernel the sweep engine batches grid points through.
    fn multi_lambda_batched(&self) -> bool {
        false
    }

    /// Batched **multi-λ** objective evaluation: compute every grid
    /// point's `f(θ_k)` and `∇f(θ_k)` — each under its own L2
    /// coefficient `β_k` and over its own row-count prefix of `xm` — in
    /// one fused pass over the shared sample capture (margins computed
    /// once per chunk per probe while the rows are cache-hot, the K
    /// regularizer terms applied per-λ afterwards).
    ///
    /// The contract is exactness: each eval's `(value, grad)` must be
    /// **bit-identical** to [`Self::value_grad`] on a spec with
    /// [`Self::with_regularization`]`(β_k)` applied, over
    /// `xm.prefix(rows_k)`, at any thread budget.
    ///
    /// Only called when [`Self::multi_lambda_batched`] returns true.
    fn value_grad_batched_multi(
        &self,
        _evals: &mut [SweepEval],
        _xm: &MatrixView,
        _scratch: &mut TrainScratch,
    ) {
        unreachable!("value_grad_batched_multi() called on a model without multi-λ support");
    }

    /// This spec with its L2 coefficient replaced by `beta` — the
    /// sweep engine's way of instantiating one grid point. `None` (the
    /// default) marks model classes whose regularization cannot be
    /// swapped out (no regularizer, or one that is not a plain L2
    /// coefficient); `Session::sweep` rejects those with a config error.
    fn with_regularization(&self, _beta: f64) -> Option<Box<dyn ModelClassSpec<F>>> {
        None
    }

    /// The per-example gradient list `ψ_i = q(θ; x_i, y_i) + r(θ)`
    /// over the rows of `xm` (paper's `grads` MCS method). The
    /// coordinator passes the view it served for training, so the
    /// statistics phase never materializes the sample.
    fn grads(&self, theta: &[f64], xm: &MatrixView) -> Grads;

    /// Analytic Hessian of `g_n` at `θ` over the rows of `xm` when a
    /// closed form exists (paper §3.4 Method 1); `None` for models
    /// without one.
    fn closed_form_hessian(&self, _theta: &[f64], _xm: &MatrixView) -> Option<Matrix> {
        None
    }

    /// Predict the output for one feature vector (class index for
    /// classifiers, real value for regressors).
    fn predict(&self, theta: &[f64], x: &F) -> f64;

    /// Prediction difference `v` between two parameter vectors on a
    /// holdout set: disagreement rate for classifiers, RMS prediction
    /// difference for regressors, `1 − cos` for PPCA (paper §2.1 and
    /// Appendix C).
    fn diff(&self, theta_a: &[f64], theta_b: &[f64], holdout: &Dataset<F>) -> f64;

    /// Generalization error on labelled data: misclassification rate for
    /// classifiers, RMSE for regressors.
    fn generalization_error(&self, theta: &[f64], data: &Dataset<F>) -> f64;

    /// Number of linear-score outputs per example, when predictions are
    /// a pure function of per-block linear scores `x·θ_block`
    /// (`None` disables the fast-diff path; PPCA uses `None`).
    fn num_margin_outputs(&self, _data_dim: usize) -> Option<usize> {
        None
    }

    /// Linear scores for one example under `θ`, written into `out`
    /// (length [`Self::num_margin_outputs`]). Only called when margins
    /// are supported.
    fn margins(&self, _theta: &[f64], _x: &F, _out: &mut [f64]) {
        unreachable!("margins() called on a model without margin support");
    }

    /// The margin weight matrix `W(θ)` (`data_dim × outputs`, with
    /// `outputs` = [`Self::num_margin_outputs`]) such that the margin
    /// vector of example `x` is `xᵀ W(θ)`. The mapping `θ ↦ W(θ)` must be
    /// linear (for GLMs it is a slice, for max-entropy a reshape), so it
    /// applies to parameter-perturbation vectors as well as parameters.
    ///
    /// Returning `Some` lets `DiffEngine` build the holdout score
    /// matrices of an entire parameter pool with one blocked GEMM instead
    /// of per-example [`Self::margins`] calls — the batched fast path
    /// behind the estimators. `None` (the default) falls back to
    /// per-example scoring.
    fn margin_weights(&self, _theta: &[f64], _data_dim: usize) -> Option<Matrix> {
        None
    }

    /// Prediction as a function of the margin scores (paired with
    /// [`Self::margins`]).
    fn predict_from_margins(&self, _scores: &[f64]) -> f64 {
        unreachable!("predict_from_margins() called on a model without margin support");
    }

    /// Whether `v` compares real-valued predictions (RMS) rather than
    /// discrete ones (disagreement rate). Drives the fast-diff math.
    fn diff_is_rms(&self) -> bool {
        false
    }

    /// Train on `data`, optionally warm-starting from a previous
    /// parameter vector: captures `data` as one [`DatasetMatrix`] and
    /// runs [`Self::train_view`] on its full view.
    fn train(
        &self,
        data: &Dataset<F>,
        warm_start: Option<&[f64]>,
        options: &OptimOptions,
    ) -> Result<TrainedModel, CoreError> {
        let xm = DatasetMatrix::from_dataset(data);
        self.train_view(&xm.view(), warm_start, options)
    }

    /// Train on the rows of a design-matrix view — the full view of a
    /// materialized sample, a **gathered** view into a pool-resident
    /// matrix (the coordinator's zero-copy path), or a packed capture.
    /// The default runs the dimension-appropriate quasi-Newton solver
    /// on [`Self::value_grad`]; closed-form models (PPCA) override it.
    fn train_view(
        &self,
        xm: &MatrixView,
        warm_start: Option<&[f64]>,
        options: &OptimOptions,
    ) -> Result<TrainedModel, CoreError> {
        if xm.is_empty() {
            return Err(CoreError::InvalidData(
                "cannot train on an empty dataset".into(),
            ));
        }
        let dim = self.param_dim(xm.dim());
        let theta0: Vec<f64> = match warm_start {
            Some(w) => {
                if w.len() != dim {
                    return Err(CoreError::InvalidConfig(format!(
                        "warm start has dim {}, model needs {dim}",
                        w.len()
                    )));
                }
                w.to_vec()
            }
            None => vec![0.0; dim],
        };
        let adapter = ViewObjective {
            spec: self,
            dim,
            xm: *xm,
            scratch: RefCell::new(TrainScratch::new()),
            _marker: std::marker::PhantomData,
        };
        let result = minimize(&adapter, &theta0, options)?;
        Ok(TrainedModel {
            theta: result.theta,
            sample_size: xm.len(),
            iterations: result.iterations,
            converged: result.converged,
            objective_value: result.value,
        })
    }
}

/// Adapter exposing [`ModelClassSpec::value_grad`] to the optimizer:
/// the design-matrix view is held for the whole solve and the scratch
/// buffers persist across probes, so `value_grad_into` allocates
/// nothing.
struct ViewObjective<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> {
    spec: &'a S,
    dim: usize,
    xm: MatrixView<'a>,
    scratch: RefCell<TrainScratch>,
    _marker: std::marker::PhantomData<fn() -> F>,
}

impl<F: FeatureVec, S: ModelClassSpec<F> + ?Sized> Objective for ViewObjective<'_, F, S> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn value_grad(&self, theta: &[f64]) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; self.dim];
        let value = self.value_grad_into(theta, &mut grad);
        (value, grad)
    }

    fn value_grad_into(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        self.spec
            .value_grad(theta, &self.xm, &mut self.scratch.borrow_mut(), grad)
    }
}

/// Disagreement rate between two discrete predictors over a holdout set.
pub fn classification_diff<F: FeatureVec>(
    predict: impl Fn(&F) -> f64,
    predict_other: impl Fn(&F) -> f64,
    holdout: &Dataset<F>,
) -> f64 {
    if holdout.is_empty() {
        return 0.0;
    }
    let disagreements = holdout
        .iter()
        .filter(|e| predict(&e.x) != predict_other(&e.x))
        .count();
    disagreements as f64 / holdout.len() as f64
}

/// RMS difference between two real-valued predictors over a holdout set.
pub fn regression_diff<F: FeatureVec>(
    predict: impl Fn(&F) -> f64,
    predict_other: impl Fn(&F) -> f64,
    holdout: &Dataset<F>,
) -> f64 {
    if holdout.is_empty() {
        return 0.0;
    }
    let sum_sq: f64 = holdout
        .iter()
        .map(|e| {
            let d = predict(&e.x) - predict_other(&e.x);
            d * d
        })
        .sum();
    (sum_sq / holdout.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blinkml_data::DenseVec;
    use blinkml_data::Example;

    fn toy_holdout() -> Dataset<DenseVec> {
        let examples = (0..4)
            .map(|i| Example {
                x: DenseVec::new(vec![i as f64]),
                y: 0.0,
            })
            .collect();
        Dataset::new("toy", 1, examples)
    }

    #[test]
    fn classification_diff_counts_disagreements() {
        let h = toy_holdout();
        // Predictors disagree on x >= 2 (two of four examples).
        let a = |x: &DenseVec| if x.0[0] >= 2.0 { 1.0 } else { 0.0 };
        let b = |_: &DenseVec| 0.0;
        assert!((classification_diff(a, b, &h) - 0.5).abs() < 1e-12);
        assert_eq!(classification_diff(b, b, &h), 0.0);
    }

    #[test]
    fn regression_diff_is_rms() {
        let h = toy_holdout();
        let a = |x: &DenseVec| x.0[0];
        let b = |x: &DenseVec| x.0[0] + 2.0;
        assert!((regression_diff(a, b, &h) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diff_of_empty_holdout_is_zero() {
        let h = Dataset::<DenseVec>::new("empty", 1, vec![]);
        assert_eq!(classification_diff(|_| 0.0, |_| 1.0, &h), 0.0);
        assert_eq!(regression_diff(|_| 0.0, |_| 1.0, &h), 0.0);
    }

    #[test]
    fn trained_model_accessors() {
        let m = TrainedModel::new(vec![1.0, 2.0], 100, 5, true, 0.25);
        assert_eq!(m.parameters(), &[1.0, 2.0]);
        assert_eq!(m.sample_size, 100);
        assert!(m.converged);
        assert_eq!(m.into_parameters(), vec![1.0, 2.0]);
    }
}

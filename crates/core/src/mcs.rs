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
use std::ops::Range;

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

/// One parameter draw's holdout scores, the input of
/// [`ModelClassSpec::margin_diff_sum`]. Every slice is a flattened
/// `rows × outputs` score matrix, output-major: output `c` of holdout
/// row `j` sits at `c·rows + j`, so each output is one contiguous column
/// (for one output, simply row `j` at `j`). Holdout row `j` compares
/// two score vectors `a_j` and `b_j`:
///
/// - one-stage (`w = None`): `a = base` and `b = base + scale_u·u`;
/// - two-stage (`w = Some((w, scale_w))`): `a = base + scale_u·u` and
///   `b = a + scale_w·w`.
#[derive(Debug, Clone, Copy)]
pub struct DrawScores<'s> {
    /// Scores of the base parameter vector.
    pub base: &'s [f64],
    /// Scores of the first-stage perturbation `u_i`.
    pub u: &'s [f64],
    /// Scale applied to `u`.
    pub scale_u: f64,
    /// Scores of the second-stage perturbation `w_i` and its scale.
    pub w: Option<(&'s [f64], f64)>,
    /// Score outputs per row: the width of the spec's
    /// [`ModelClassSpec::margin_weights`] block.
    pub outputs: usize,
}

/// Rows per block of the blocked difference loops: a kernel checks its
/// stop threshold once per block.
pub(crate) const STOP_BLOCK: usize = 256;

impl DrawScores<'_> {
    /// Number of holdout rows.
    pub fn rows(&self) -> usize {
        self.base.len().checked_div(self.outputs).unwrap_or(0)
    }

    /// Write row `j`'s compared score vectors `a_j` and `b_j` into `a`
    /// and `b` (`outputs` entries each).
    pub(crate) fn fill(&self, j: usize, a: &mut [f64], b: &mut [f64]) {
        let rows = self.rows();
        for (c, (a, b)) in a.iter_mut().zip(b).enumerate() {
            let e = c * rows + j;
            let s = self.base[e];
            let sn = s + self.scale_u * self.u[e];
            (*a, *b) = match self.w {
                None => (s, sn),
                Some((w, scale_w)) => (sn, sn + scale_w * w[e]),
            };
        }
    }

    /// Sum `count(block)` over the holdout rows in blocks of up to
    /// [`STOP_BLOCK`] rows, in row order, stopping after the first block
    /// that leaves the sum `> stop`: the blocked loop behind the
    /// counting [`ModelClassSpec::margin_diff_sum`] overrides.
    pub(crate) fn count_blocks(
        &self,
        stop: f64,
        mut count: impl FnMut(Range<usize>) -> usize,
    ) -> f64 {
        let rows = self.rows();
        let mut total = 0usize;
        for first in (0..rows).step_by(STOP_BLOCK) {
            total += count(first..rows.min(first + STOP_BLOCK));
            if total as f64 > stop {
                break;
            }
        }
        total as f64
    }

    /// [`ModelClassSpec::margin_diff_sum`] for a discrete single-output
    /// predictor: the number of rows where `differ(a_j, b_j)`.
    pub(crate) fn count_single(&self, stop: f64, differ: impl Fn(f64, f64) -> bool) -> f64 {
        debug_assert_eq!(self.outputs, 1);
        let su = self.scale_u;
        self.count_blocks(stop, |block| {
            let (base, u) = (&self.base[block.clone()], &self.u[block.clone()]);
            match self.w {
                None => base
                    .iter()
                    .zip(u)
                    .map(|(&s, &u)| differ(s, s + su * u) as usize)
                    .sum::<usize>(),
                Some((w, sw)) => base
                    .iter()
                    .zip(u)
                    .zip(&w[block])
                    .map(|((&s, &u), &w)| {
                        let a = s + su * u;
                        differ(a, a + sw * w) as usize
                    })
                    .sum::<usize>(),
            }
        })
    }

    /// [`ModelClassSpec::margin_diff_sum`] for a real-valued
    /// single-output predictor: `Σ (predict(a_j) − predict(b_j))²`,
    /// summed sequentially in row order.
    pub(crate) fn sum_sq_single(&self, stop: f64, predict: impl Fn(f64) -> f64) -> f64 {
        debug_assert_eq!(self.outputs, 1);
        let rows = self.rows();
        let su = self.scale_u;
        let mut sum_sq = 0.0;
        for first in (0..rows).step_by(STOP_BLOCK) {
            let end = rows.min(first + STOP_BLOCK);
            let (base, u) = (&self.base[first..end], &self.u[first..end]);
            match self.w {
                None => {
                    for (&s, &u) in base.iter().zip(u) {
                        let d = predict(s) - predict(s + su * u);
                        sum_sq += d * d;
                    }
                }
                Some((w, sw)) => {
                    for ((&s, &u), &w) in base.iter().zip(u).zip(&w[first..end]) {
                        let a = s + su * u;
                        let d = predict(a) - predict(a + sw * w);
                        sum_sq += d * d;
                    }
                }
            }
            if sum_sq > stop {
                break;
            }
        }
        sum_sq
    }
}

/// What a model's prediction is computed from, for the fast-diff path.
///
/// Every GLM in the paper predicts through per-output affine scores
/// `b + x·θ_block`; exposing those lets the estimators precompute holdout
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

    /// The parameter vector a fit without a warm start begins from on
    /// the rows of `xm`: zeros by default. [`Self::train_view`] and the
    /// training pipeline's lockstep pilot fits both start here, so a
    /// spec that overrides it moves every path's cold start the same way.
    fn cold_start(&self, xm: &MatrixView) -> Vec<f64> {
        vec![0.0; self.param_dim(xm.dim())]
    }

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
    /// view: the full matrix of a dataset, a packed sample capture, or a
    /// row prefix of either. The contract is exactness across view kinds:
    /// the value and gradient must depend only on the rows the view
    /// selects, so the built-in model classes are bit-identical for every
    /// view kind and thread budget (and to their per-example reference
    /// oracles in `crate::testing`). `scratch` persists across calls so
    /// line-search probes reuse their buffers in steady state.
    fn value_grad(
        &self,
        theta: &[f64],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
        grad: &mut [f64],
    ) -> f64;

    /// Batched **multi-λ** objective evaluation, the one objective call
    /// of the training pipeline's lockstep fits (a sweep's K grid points): compute every grid point's `f(θ_k)` and
    /// `∇f(θ_k)`, each under its own L2 coefficient `β_k` and over its
    /// own row-count prefix of `xm`.
    ///
    /// The contract is exactness: each eval's `(value, grad)` must be
    /// **bit-identical** to [`Self::value_grad`] on a spec with
    /// [`Self::with_regularization`]`(β_k)` applied, over
    /// `xm.prefix(rows_k)`, at any thread budget. The default is that
    /// definition, one `value_grad` call per eval. The GLM families and
    /// linear regression override it with one fused pass over the
    /// shared sample capture (each row block loaded once for every
    /// probe's margins and once for every probe's gradient, the K
    /// regularizer terms applied per-λ afterwards; see
    /// `MatrixView::value_grad_fold_multi`), and meet the contract by
    /// construction: their `value_grad` is this kernel's one-eval case.
    ///
    /// # Panics
    /// The default panics if [`Self::with_regularization`] returns
    /// `None`; the pipeline never calls it on such a spec.
    fn value_grad_batched_multi(
        &self,
        evals: &mut [SweepEval],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
    ) {
        for e in evals.iter_mut() {
            let spec = self
                .with_regularization(e.beta)
                .expect("value_grad_batched_multi() needs a swappable L2 coefficient");
            e.value = spec.value_grad(e.theta, &xm.prefix(e.rows), scratch, e.grad);
        }
    }

    /// This spec with its L2 coefficient replaced by `beta` — how a
    /// sweep instantiates one grid point. `None` (the default) marks
    /// model classes whose regularization cannot be swapped out (no
    /// regularizer, or one that is not a plain L2 coefficient);
    /// `Session::sweep` rejects those with a config error.
    ///
    /// A sweep runs the training pipeline over one spec per λ. Its fit
    /// stages run one fit through [`Self::train_view`] and several as
    /// lockstep quasi-Newton solves on the first spec's
    /// [`Self::value_grad_batched_multi`], each eval at its own spec's
    /// [`Self::regularization`]. So a spec that returns `Some` must
    /// keep two promises for a sweep point to equal a solo
    /// [`Self::train`] with that λ: the returned spec's
    /// `regularization()` is `beta`, and it trains through the default
    /// `train_view` (an overridden one — a closed form, another start
    /// point — would differ from the lockstep solves).
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

    /// The affine margin block of `θ`, when predictions are a pure
    /// function of per-output affine scores: a `(data_dim + 1) × outputs`
    /// matrix whose first `data_dim` rows are the weights `W(θ)` and
    /// whose last row is the per-output offset `b(θ)` (an intercept GLM's
    /// `θ_b`, zeros for every other built-in spec), so the score vector
    /// of example `x` is `b(θ) + xᵀ W(θ)`. Its width is the spec's output
    /// count. The mapping `θ ↦ block` must be linear (for GLMs a slice,
    /// for max-entropy a reshape), so it applies to parameter-perturbation
    /// vectors as well as parameters, and it must give a block of the
    /// same shape for every `θ`.
    ///
    /// Returning `Some` lets `DiffEngine` build the holdout score
    /// matrices of an entire parameter pool with one fused GEMM, the
    /// fast path behind the estimators. `None` (the default; PPCA)
    /// leaves the engine on the spec's own [`Self::diff`].
    fn margin_weights(&self, _theta: &[f64], _data_dim: usize) -> Option<Matrix> {
        None
    }

    /// Prediction as a function of one example's score vector (a row of
    /// the scores [`Self::margin_weights`] defines).
    fn predict_from_margins(&self, _scores: &[f64]) -> f64 {
        unreachable!("predict_from_margins() called on a model without margin support");
    }

    /// Whether `v` compares real-valued predictions (RMS) rather than
    /// discrete ones (disagreement rate). Drives the fast-diff math.
    fn diff_is_rms(&self) -> bool {
        false
    }

    /// The batched difference kernel over one draw's holdout scores: the
    /// number of rows whose predictions from `a_j` and `b_j` (see
    /// [`DrawScores`]) disagree, or, when [`Self::diff_is_rms`], the sum
    /// of their squared prediction gaps, added in row order. The engine
    /// turns it into `v` (`sum / h`, or `√(sum / h)`).
    ///
    /// `stop` lets a caller that only needs a verdict skip the rest of
    /// the holdout: an implementation may return early, with its partial
    /// sum, once that sum exceeds `stop` (pass `f64::INFINITY` for the
    /// full value). Both sums only grow, so the partial sum decides any
    /// test the full one fails. Overrides must return exactly what this
    /// default loop returns whenever they do not stop early. The default
    /// calls [`Self::predict_from_margins`] twice per row and never
    /// stops early. Only called on specs whose
    /// [`Self::margin_weights`] returns `Some`.
    fn margin_diff_sum(&self, scores: DrawScores<'_>, _stop: f64) -> f64 {
        let outputs = scores.outputs;
        let mut a = vec![0.0; outputs];
        let mut b = vec![0.0; outputs];
        if self.diff_is_rms() {
            let mut sum_sq = 0.0;
            for j in 0..scores.rows() {
                scores.fill(j, &mut a, &mut b);
                let pa = self.predict_from_margins(&a);
                let pb = self.predict_from_margins(&b);
                sum_sq += (pa - pb) * (pa - pb);
            }
            sum_sq
        } else {
            let mut disagree = 0usize;
            for j in 0..scores.rows() {
                scores.fill(j, &mut a, &mut b);
                if self.predict_from_margins(&a) != self.predict_from_margins(&b) {
                    disagree += 1;
                }
            }
            disagree as f64
        }
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
    /// dataset, or a packed sample capture (the coordinator's path).
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
            None => self.cold_start(xm),
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

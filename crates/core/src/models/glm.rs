//! Shared machinery for single-output generalized linear models.
//!
//! Linear, logistic, and Poisson regression all fit the pattern
//! `f_n(θ) = (1/n) Σ ℓ(θᵀx_i, y_i) + (β/2)‖θ‖²`: the per-example
//! gradient is `ℓ'(m_i, y_i)·x_i + βθ` and the closed-form Hessian is
//! `(1/n) Xᵀ diag(ℓ'') X + βI`. A [`GlmFamily`] supplies the three
//! scalar functions; [`GlmSpec`] turns any family into a full
//! [`ModelClassSpec`].
//!
//! # Intercept
//!
//! [`GlmSpec::with_intercept`] appends an **unpenalized** bias as the
//! last parameter: margins become `θ_wᵀx + θ_b`, and the regularizer
//! `(β/2)‖θ_w‖²` covers the weights only. The objective, `grads`, and
//! the closed-form Hessian all skip the intercept consistently (the
//! gradient of an unpenalized coordinate must carry no `βθ` shift, or
//! the ObservedFisher statistics silently disagree with the optimizer).
//!
//! # Batched path
//!
//! [`ModelClassSpec::value_grad`] evaluates the objective against a
//! design-matrix view (full, pool-gathered or packed [`MatrixView`]):
//! one fused margin pass (`m = X·θ_w + θ_b`), one vectorized
//! [`GlmFamily::loss_dloss`] sweep over the margin block, and one
//! chunk-reduced `Xᵀw` gradient pass. Every reduction keeps the
//! per-example reference's chunk boundaries and accumulation order, so
//! the value and gradient are **bit-identical** to the scalar oracle
//! ([`ScalarOracle::scalar_objective`]) at any thread budget.

use crate::grads::Grads;
use crate::mcs::{classification_diff, regression_diff, ModelClassSpec, SweepEval};
use crate::testing::ScalarOracle;
use blinkml_data::parallel::{par_ranges, par_sum_vecs};
use blinkml_data::{
    Dataset, DatasetMatrix, FeatureVec, FoldRequest, MatrixView, SparseVec, TrainScratch,
};
use blinkml_linalg::Matrix;
use std::marker::PhantomData;

/// The scalar loss family of a single-output GLM.
pub trait GlmFamily: Send + Sync + 'static {
    /// Model-class name for reports.
    const NAME: &'static str;

    /// Whether the prediction difference is RMS-based (regression) or a
    /// disagreement rate (classification).
    const RMS_DIFF: bool;

    /// Per-example negative log-likelihood `ℓ(m, y)` at margin
    /// `m = θᵀx` (up to a `θ`-independent constant).
    fn loss(m: f64, y: f64) -> f64;

    /// `∂ℓ/∂m`.
    fn dloss(m: f64, y: f64) -> f64;

    /// Fused `(ℓ, ∂ℓ/∂m)` evaluation — the batched objective's inner
    /// kernel. The default calls [`Self::loss`] and [`Self::dloss`]
    /// separately; families whose loss and derivative share an `exp`
    /// (logistic, Poisson) override it with a shared-transcendental
    /// version that must return **bit-identical** values to the
    /// separate calls.
    fn loss_dloss(m: f64, y: f64) -> (f64, f64) {
        (Self::loss(m, y), Self::dloss(m, y))
    }

    /// `∂²ℓ/∂m²` when available in closed form (enables the ClosedForm
    /// statistics method).
    fn d2loss(m: f64, y: f64) -> Option<f64>;

    /// Prediction as a function of the margin.
    fn predict(m: f64) -> f64;

    /// Generalization error of one prediction against the true label:
    /// 0/1 loss for classifiers, squared error for regressors.
    fn example_error(m: f64, y: f64) -> f64;

    /// Label domain the ingest gate enforces for this family; defaults
    /// to any finite real (regression families).
    fn label_domain() -> blinkml_data::LabelDomain {
        blinkml_data::LabelDomain::AnyFinite
    }
}

/// A complete model-class specification built from a [`GlmFamily`].
#[derive(Debug, Clone)]
pub struct GlmSpec<Fam: GlmFamily> {
    beta: f64,
    intercept: bool,
    _family: PhantomData<Fam>,
}

impl<Fam: GlmFamily> GlmSpec<Fam> {
    /// Spec with L2-regularization coefficient `beta` (the paper uses
    /// `β = 0.001` throughout its experiments) and no intercept.
    pub fn new(beta: f64) -> Self {
        assert!(beta >= 0.0, "regularization must be nonnegative");
        GlmSpec {
            beta,
            intercept: false,
            _family: PhantomData,
        }
    }

    /// Spec with an **unpenalized** intercept appended as the last
    /// parameter: margins are `θ_wᵀx + θ_b` and the regularizer skips
    /// `θ_b` in the objective, gradient, `grads`, and Hessian alike.
    pub fn with_intercept(beta: f64) -> Self {
        assert!(beta >= 0.0, "regularization must be nonnegative");
        GlmSpec {
            beta,
            intercept: true,
            _family: PhantomData,
        }
    }

    /// Whether this spec carries an intercept parameter.
    pub fn has_intercept(&self) -> bool {
        self.intercept
    }

    /// The margin `θ_wᵀx (+ θ_b)` of one example.
    fn margin<F: FeatureVec>(&self, theta: &[f64], x: &F) -> f64 {
        if self.intercept {
            let d = theta.len() - 1;
            x.dot(&theta[..d]) + theta[d]
        } else {
            x.dot(theta)
        }
    }

    /// Number of penalized (weight) parameters for dimension `dim`.
    fn weight_len(&self, dim: usize) -> usize {
        if self.intercept {
            dim - 1
        } else {
            dim
        }
    }

    /// `(1/n) Xᵀ diag(ℓ'') X + βI` from the per-row curvature weights
    /// `wᵢ = ℓ''(mᵢ, yᵢ)/n`.
    fn hessian_from_weights(&self, xm: &MatrixView, weights: &[f64], dim: usize) -> Matrix {
        let d = xm.dim();
        // H_ww = Σ wᵢ·xᵢxᵢᵀ through the chunk-reduced Gram kernel (one
        // symmetric half instead of the dense rank-one updates).
        let ww = xm.weighted_gram(weights);
        let mut h = Matrix::zeros(dim, dim);
        for a in 0..d {
            h.row_mut(a)[..d].copy_from_slice(&ww.row(a)[..d]);
        }
        if self.intercept {
            // Border terms of the augmented design [x; 1].
            let mut border = vec![0.0; d];
            xm.weighted_sum_into(weights, &mut border);
            for (j, &v) in border.iter().enumerate() {
                h[(j, d)] = v;
                h[(d, j)] = v;
            }
            h[(d, d)] = weights.iter().sum();
        }
        // β on the penalized diagonal only — consistent with the
        // objective and grads skipping the intercept.
        for i in 0..self.weight_len(dim) {
            h[(i, i)] += self.beta;
        }
        h
    }
}

impl<Fam: GlmFamily, F: FeatureVec> ModelClassSpec<F> for GlmSpec<Fam> {
    fn name(&self) -> &'static str {
        Fam::NAME
    }

    fn param_dim(&self, data_dim: usize) -> usize {
        data_dim + usize::from(self.intercept)
    }

    fn regularization(&self) -> f64 {
        self.beta
    }

    fn label_domain(&self) -> blinkml_data::LabelDomain {
        Fam::label_domain()
    }

    fn value_grad(
        &self,
        theta: &[f64],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
        grad: &mut [f64],
    ) -> f64 {
        let d = xm.dim();
        let dim = theta.len();
        debug_assert_eq!(dim, d + usize::from(self.intercept));
        debug_assert_eq!(grad.len(), dim);
        let n = xm.len().max(1) as f64;
        let (w, b) = if self.intercept {
            (&theta[..d], theta[d])
        } else {
            (theta, 0.0)
        };
        // One fused sweep: chunk margins → loss/derivative (sharing the
        // family's transcendentals) → chunk gradient partial, with each
        // chunk's rows reused while cache-hot. Partial sums merge in the
        // scalar oracle's par_sum_vecs order, so value and gradient are
        // bit-identical to it on the sample the view selects.
        let mut dloss_sum = 0.0;
        let loss = xm.value_grad_fold(w, b, &mut grad[..d], scratch, |start, margins| {
            let (mut lpart, mut cpart) = (0.0, 0.0);
            for (local, m) in margins.iter_mut().enumerate() {
                let (l, c) = Fam::loss_dloss(*m, xm.label(start + local));
                lpart += l;
                cpart += c;
                *m = c;
            }
            dloss_sum += cpart;
            lpart
        });
        let mut value = loss / n;
        for g in grad[..d].iter_mut() {
            *g /= n;
        }
        if self.intercept {
            grad[d] = dloss_sum / n;
        }
        if self.beta > 0.0 {
            let wlen = self.weight_len(dim);
            let norm_sq: f64 = theta[..wlen].iter().map(|t| t * t).sum();
            value += 0.5 * self.beta * norm_sq;
            for (g, t) in grad[..wlen].iter_mut().zip(&theta[..wlen]) {
                *g += self.beta * t;
            }
        }
        value
    }

    fn multi_lambda_batched(&self) -> bool {
        true
    }

    fn value_grad_batched_multi(
        &self,
        evals: &mut [SweepEval],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
    ) {
        let d = xm.dim();
        let intercept = self.intercept;
        let dim = d + usize::from(intercept);
        // One fused multi-request sweep over the shared capture: every
        // grid point's weight-block fold runs chunk by chunk while the
        // rows are hot; the λ-dependent regularizer terms are applied
        // per-eval afterwards, so the data passes are shared across the
        // whole grid. Request k's (loss, dloss-sum, grad) come out
        // bit-identical to `value_grad_fold` over `xm.prefix(rows_k)`,
        // which is what makes each eval below bit-identical to
        // `value_grad` on a `with_regularization(β_k)` spec.
        let mut reqs: Vec<FoldRequest> = evals
            .iter_mut()
            .map(|e| {
                debug_assert_eq!(e.theta.len(), dim);
                debug_assert_eq!(e.grad.len(), dim);
                let (w, b) = if intercept {
                    (&e.theta[..d], e.theta[d])
                } else {
                    (e.theta, 0.0)
                };
                FoldRequest::new(w, b, e.rows, &mut e.grad[..d])
            })
            .collect();
        xm.value_grad_fold_multi(&mut reqs, scratch, |_k, start, margins| {
            let (mut lpart, mut cpart) = (0.0, 0.0);
            for (local, m) in margins.iter_mut().enumerate() {
                let (l, c) = Fam::loss_dloss(*m, xm.label(start + local));
                lpart += l;
                cpart += c;
                *m = c;
            }
            (lpart, cpart)
        });
        let results: Vec<(f64, f64)> = reqs.iter().map(|r| (r.loss, r.extra)).collect();
        drop(reqs);
        for (e, (loss, dloss_sum)) in evals.iter_mut().zip(results) {
            let n = e.rows.max(1) as f64;
            let mut value = loss / n;
            for g in e.grad[..d].iter_mut() {
                *g /= n;
            }
            if intercept {
                e.grad[d] = dloss_sum / n;
            }
            if e.beta > 0.0 {
                let wlen = self.weight_len(dim);
                let norm_sq: f64 = e.theta[..wlen].iter().map(|t| t * t).sum();
                value += 0.5 * e.beta * norm_sq;
                for (g, t) in e.grad[..wlen].iter_mut().zip(&e.theta[..wlen]) {
                    *g += e.beta * t;
                }
            }
            e.value = value;
        }
    }

    fn with_regularization(&self, beta: f64) -> Option<Box<dyn ModelClassSpec<F>>> {
        assert!(beta >= 0.0, "regularization must be nonnegative");
        Some(Box::new(GlmSpec::<Fam> {
            beta,
            intercept: self.intercept,
            _family: PhantomData,
        }))
    }

    fn grads(&self, theta: &[f64], xm: &MatrixView) -> Grads {
        let d = xm.dim();
        let dim = theta.len();
        let rows_n = xm.len();
        let (w, b) = if self.intercept {
            (&theta[..d], theta[d])
        } else {
            (theta, 0.0)
        };
        // One batched margin pass replaces the per-example dots; the
        // per-row fill then reads the contiguous block.
        let mut margins = vec![0.0; rows_n];
        xm.margins_into(w, b, &mut margins);
        let mut shift: Vec<f64> = theta.iter().map(|t| self.beta * t).collect();
        if self.intercept {
            shift[d] = 0.0;
        }
        if xm.is_sparse() {
            let rows: Vec<_> = par_ranges(rows_n, |range| {
                range
                    .map(|i| {
                        let c = Fam::dloss(margins[i], xm.label(i));
                        let (idx, val) = xm.sparse_row(i).expect("sparse block");
                        let mut indices: Vec<u32> = idx.to_vec();
                        let mut values: Vec<f64> = val.iter().map(|v| c * v).collect();
                        if self.intercept {
                            indices.push(d as u32);
                            values.push(c);
                        }
                        SparseVec::new(dim, indices, values)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            Grads::Sparse { rows, shift }
        } else {
            let mut m = Matrix::zeros(rows_n, dim);
            for (i, &margin) in margins.iter().enumerate() {
                let c = Fam::dloss(margin, xm.label(i));
                let row = m.row_mut(i);
                row.copy_from_slice(&shift);
                let xrow = xm.dense_row(i).expect("dense block");
                for (rj, &xj) in row[..d].iter_mut().zip(xrow) {
                    *rj += c * xj;
                }
                if self.intercept {
                    row[d] += c;
                }
            }
            Grads::Dense(m)
        }
    }

    fn closed_form_hessian(&self, theta: &[f64], xm: &MatrixView) -> Option<Matrix> {
        let d = xm.dim();
        let n = xm.len().max(1) as f64;
        let (w, b) = if self.intercept {
            (&theta[..d], theta[d])
        } else {
            (theta, 0.0)
        };
        // Curvature weights w_i = ℓ''(m_i, y_i)/n; any example without a
        // closed form disables the method.
        let mut margins = vec![0.0; xm.len()];
        xm.margins_into(w, b, &mut margins);
        let mut weights = vec![0.0; xm.len()];
        for (i, (wi, &m)) in weights.iter_mut().zip(&margins).enumerate() {
            *wi = Fam::d2loss(m, xm.label(i))? / n;
        }
        Some(self.hessian_from_weights(xm, &weights, theta.len()))
    }

    fn predict(&self, theta: &[f64], x: &F) -> f64 {
        Fam::predict(self.margin(theta, x))
    }

    fn diff(&self, theta_a: &[f64], theta_b: &[f64], holdout: &Dataset<F>) -> f64 {
        if Fam::RMS_DIFF {
            regression_diff(
                |x: &F| Fam::predict(self.margin(theta_a, x)),
                |x: &F| Fam::predict(self.margin(theta_b, x)),
                holdout,
            )
        } else {
            classification_diff(
                |x: &F| Fam::predict(self.margin(theta_a, x)),
                |x: &F| Fam::predict(self.margin(theta_b, x)),
                holdout,
            )
        }
    }

    fn generalization_error(&self, theta: &[f64], data: &Dataset<F>) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let total: f64 = data
            .iter()
            .map(|e| Fam::example_error(self.margin(theta, &e.x), e.y))
            .sum();
        let mean = total / data.len() as f64;
        if Fam::RMS_DIFF {
            mean.sqrt()
        } else {
            mean
        }
    }

    fn num_margin_outputs(&self, _data_dim: usize) -> Option<usize> {
        Some(1)
    }

    fn margins(&self, theta: &[f64], x: &F, out: &mut [f64]) {
        out[0] = self.margin(theta, x);
    }

    fn margin_weights(&self, theta: &[f64], data_dim: usize) -> Option<Matrix> {
        if self.intercept {
            // Affine margins (`xᵀw + b`) are outside the pure-linear
            // pool-GEMM contract; the diff engine falls back to the
            // per-example margins path, which includes the bias.
            return None;
        }
        debug_assert_eq!(theta.len(), data_dim);
        Some(Matrix::from_vec(data_dim, 1, theta.to_vec()))
    }

    fn predict_from_margins(&self, scores: &[f64]) -> f64 {
        Fam::predict(scores[0])
    }

    fn diff_is_rms(&self) -> bool {
        Fam::RMS_DIFF
    }
}

/// The per-example reference bodies (see [`ScalarOracle`]).
#[doc(hidden)]
impl<Fam: GlmFamily, F: FeatureVec> ScalarOracle<F> for GlmSpec<Fam> {
    fn scalar_objective(&self, theta: &[f64], data: &Dataset<F>) -> (f64, Vec<f64>) {
        let d = data.dim();
        let dim = theta.len();
        let n = data.len().max(1) as f64;
        // Accumulate [Σℓ, Σℓ'·x (, Σℓ')] in one parallel pass; slot 0 is
        // the loss, slots 1..=d the weight gradient, the last slot (when
        // an intercept is present) the bias gradient.
        let acc = par_sum_vecs(data.len(), dim + 1, |i, acc| {
            let e = data.get(i);
            let m = self.margin(theta, &e.x);
            acc[0] += Fam::loss(m, e.y);
            let c = Fam::dloss(m, e.y);
            e.x.add_scaled_into(c, &mut acc[1..=d]);
            if self.intercept {
                acc[1 + d] += c;
            }
        });
        let mut value = acc[0] / n;
        let mut grad: Vec<f64> = acc[1..].iter().map(|v| v / n).collect();
        if self.beta > 0.0 {
            // The regularizer covers the weights only: the intercept is
            // skipped here exactly as it is in `grads`' shift.
            let wlen = self.weight_len(dim);
            let norm_sq: f64 = theta[..wlen].iter().map(|t| t * t).sum();
            value += 0.5 * self.beta * norm_sq;
            for (g, t) in grad[..wlen].iter_mut().zip(&theta[..wlen]) {
                *g += self.beta * t;
            }
        }
        (value, grad)
    }

    fn scalar_grads(&self, theta: &[f64], data: &Dataset<F>) -> Grads {
        let d = data.dim();
        let dim = theta.len();
        let mut shift: Vec<f64> = theta.iter().map(|t| self.beta * t).collect();
        if self.intercept {
            // Unpenalized intercept: no βθ shift on the bias slot.
            shift[d] = 0.0;
        }
        if F::IS_SPARSE {
            let rows: Vec<_> = par_ranges(data.len(), |range| {
                range
                    .map(|i| {
                        let e = data.get(i);
                        let c = Fam::dloss(self.margin(theta, &e.x), e.y);
                        sparse_grad_row(&e.x, c, d, dim, self.intercept)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            Grads::Sparse { rows, shift }
        } else {
            let mut m = Matrix::zeros(data.len(), dim);
            for (i, e) in data.iter().enumerate() {
                let c = Fam::dloss(self.margin(theta, &e.x), e.y);
                let row = m.row_mut(i);
                row.copy_from_slice(&shift);
                e.x.add_scaled_into(c, &mut row[..d]);
                if self.intercept {
                    row[d] += c;
                }
            }
            Grads::Dense(m)
        }
    }

    fn scalar_closed_form_hessian(&self, theta: &[f64], data: &Dataset<F>) -> Option<Matrix> {
        let n = data.len().max(1) as f64;
        let mut weights = vec![0.0; data.len()];
        for (wi, e) in weights.iter_mut().zip(data.iter()) {
            *wi = Fam::d2loss(self.margin(theta, &e.x), e.y)? / n;
        }
        let xm = DatasetMatrix::from_dataset(data);
        Some(self.hessian_from_weights(&xm.view(), &weights, theta.len()))
    }
}

/// One sparse `grads` row `c·x` (plus the intercept slot when present)
/// embedded in dimension `dim`.
fn sparse_grad_row<F: FeatureVec>(
    x: &F,
    c: f64,
    d: usize,
    dim: usize,
    intercept: bool,
) -> SparseVec {
    if !intercept {
        return x.scaled_sparse(c, dim, 0);
    }
    let block = x.scaled_sparse(c, d, 0);
    let mut indices: Vec<u32> = block.indices().to_vec();
    let mut values: Vec<f64> = block.values().to_vec();
    indices.push(d as u32);
    values.push(c);
    SparseVec::new(dim, indices, values)
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::testing::{view_grads, view_objective};
    use blinkml_data::Dataset;

    /// Finite-difference check of `value_grad`'s gradient for any spec —
    /// the load-bearing invariant for every model class.
    pub fn check_gradient<F: FeatureVec, S: ModelClassSpec<F>>(
        spec: &S,
        theta: &[f64],
        data: &Dataset<F>,
        tol: f64,
    ) {
        let (_, grad) = view_objective(spec, theta, data);
        let eps = 1e-6;
        for i in 0..theta.len() {
            let mut plus = theta.to_vec();
            let mut minus = theta.to_vec();
            plus[i] += eps;
            minus[i] -= eps;
            let (fp, _) = view_objective(spec, &plus, data);
            let (fm, _) = view_objective(spec, &minus, data);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (grad[i] - fd).abs() < tol * (1.0 + fd.abs()),
                "gradient coord {i}: analytic {} vs finite-diff {fd}",
                grad[i]
            );
        }
    }

    /// Check that the mean grads row equals the objective gradient —
    /// the consistency contract between `grads` and `value_grad`.
    pub fn check_grads_mean<F: FeatureVec, S: ModelClassSpec<F>>(
        spec: &S,
        theta: &[f64],
        data: &Dataset<F>,
        tol: f64,
    ) {
        let (_, grad) = view_objective(spec, theta, data);
        let mean = view_grads(spec, theta, data).mean_row();
        for (g, m) in grad.iter().zip(&mean) {
            assert!((g - m).abs() < tol, "grads mean mismatch: {g} vs {m}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::logreg::LogisticFamily;
    use crate::testing::view_objective;
    use blinkml_data::generators::synthetic_logistic;
    use blinkml_data::DenseVec;
    use blinkml_optim::OptimOptions;
    use test_support::{check_gradient, check_grads_mean};

    type Spec = GlmSpec<LogisticFamily>;

    #[test]
    fn intercept_extends_param_dim_and_margin() {
        let spec = Spec::with_intercept(1e-3);
        assert!(spec.has_intercept());
        assert_eq!(<Spec as ModelClassSpec<DenseVec>>::param_dim(&spec, 4), 5);
        let x = DenseVec::new(vec![1.0, 2.0]);
        let theta = vec![0.5, -1.0, 0.25];
        // margin = 0.5 − 2.0 + 0.25
        assert_eq!(spec.margin(&theta, &x), 0.5 - 2.0 + 0.25);
    }

    #[test]
    fn intercept_gradient_matches_finite_differences() {
        let (data, _) = synthetic_logistic(250, 4, 2.0, 11);
        let spec = Spec::with_intercept(1e-2);
        let theta = vec![0.3, -0.2, 0.5, 0.1, -0.4];
        check_gradient(&spec, &theta, &data, 1e-5);
        check_grads_mean(&spec, &theta, &data, 1e-10);
    }

    #[test]
    fn regularizer_skips_the_intercept_consistently() {
        // The objective's penalty and grads' shift must agree on the
        // unpenalized bias: both skip it.
        let (data, _) = synthetic_logistic(100, 3, 2.0, 12);
        let spec = Spec::with_intercept(0.5);
        let theta = vec![1.0, -2.0, 0.5, 3.0];
        let (v_reg, g_reg) = view_objective(&spec, &theta, &data);
        let free = Spec::with_intercept(0.0);
        let (v0, g0) = view_objective(&free, &theta, &data);
        // Value penalty covers the weights only: ½β‖w‖², not the bias.
        let expect = 0.5 * 0.5 * (1.0 + 4.0 + 0.25);
        assert!((v_reg - v0 - expect).abs() < 1e-12);
        // Bias gradient unchanged by β; weight gradients shifted by βθ.
        assert!((g_reg[3] - g0[3]).abs() < 1e-15);
        for j in 0..3 {
            assert!((g_reg[j] - g0[j] - 0.5 * theta[j]).abs() < 1e-12);
        }
        // grads' shift agrees: mean row == objective gradient.
        check_grads_mean(&spec, &theta, &data, 1e-10);
    }

    #[test]
    fn intercept_hessian_matches_numeric_jacobian() {
        let (data, _) = synthetic_logistic(300, 3, 1.5, 13);
        let spec = Spec::with_intercept(0.01);
        let theta = vec![0.2, -0.4, 0.6, 0.3];
        let xm = DatasetMatrix::from_dataset(&data);
        let h = <Spec as ModelClassSpec<DenseVec>>::closed_form_hessian(&spec, &theta, &xm.view())
            .unwrap();
        let eps = 1e-6;
        for i in 0..4 {
            let mut plus = theta.clone();
            let mut minus = theta.clone();
            plus[i] += eps;
            minus[i] -= eps;
            let (_, gp) = view_objective(&spec, &plus, &data);
            let (_, gm) = view_objective(&spec, &minus, &data);
            for j in 0..4 {
                let fd = (gp[j] - gm[j]) / (2.0 * eps);
                assert!(
                    (h[(j, i)] - fd).abs() < 1e-5,
                    "H[{j}][{i}]: {} vs {fd}",
                    h[(j, i)]
                );
            }
        }
    }

    #[test]
    fn intercept_improves_fit_on_shifted_data() {
        // Shift every margin by a constant: without an intercept the
        // classifier must waste weight mass; with one it recovers.
        let (base, _) = synthetic_logistic(4_000, 3, 2.0, 14);
        let shifted = Dataset::new(
            "shifted",
            3,
            base.iter()
                .map(|e| blinkml_data::Example {
                    x: e.x.clone(),
                    y: if e.x.as_slice().iter().sum::<f64>() + 1.5 > 0.0 {
                        1.0
                    } else {
                        0.0
                    },
                })
                .collect(),
        );
        let opts = OptimOptions::default();
        let plain = Spec::new(1e-3).train(&shifted, None, &opts).unwrap();
        let with_b = Spec::with_intercept(1e-3)
            .train(&shifted, None, &opts)
            .unwrap();
        let e_plain = Spec::new(1e-3).generalization_error(plain.parameters(), &shifted);
        let e_b = Spec::with_intercept(1e-3).generalization_error(with_b.parameters(), &shifted);
        assert!(
            e_b < e_plain,
            "intercept should help on shifted labels: {e_b} vs {e_plain}"
        );
    }

    /// The fused multi-λ kernel must equal K independent
    /// `value_grad` calls on `with_regularization(β_k)` specs
    /// over the matching sample prefixes — bit for bit, with and
    /// without an intercept, at thread budgets {1, 4}.
    #[test]
    fn multi_lambda_batched_is_bitwise_looped_single_lambda() {
        use blinkml_data::parallel::{set_max_threads, CHUNK_SIZE};
        let n = CHUNK_SIZE + 257;
        let (data, _) = synthetic_logistic(n, 4, 2.0, 21);
        let betas = [0.0, 1e-3, 0.1];
        let rows = [n, CHUNK_SIZE / 2, n - 7];
        for intercept in [false, true] {
            let spec = if intercept {
                Spec::with_intercept(1e-3)
            } else {
                Spec::new(1e-3)
            };
            assert!(<Spec as ModelClassSpec<DenseVec>>::multi_lambda_batched(
                &spec
            ));
            let dim = <Spec as ModelClassSpec<DenseVec>>::param_dim(&spec, 4);
            let thetas: Vec<Vec<f64>> = (0..betas.len())
                .map(|k| {
                    (0..dim)
                        .map(|j| 0.1 * (j as f64 + 1.0) - 0.07 * k as f64)
                        .collect()
                })
                .collect();
            for budget in [Some(1), Some(4)] {
                set_max_threads(budget);
                let pool = DatasetMatrix::from_dataset(&data);
                let view = pool.view();
                let mut grads = vec![vec![f64::NAN; dim]; betas.len()];
                let mut evals: Vec<SweepEval> = thetas
                    .iter()
                    .zip(betas.iter())
                    .zip(rows.iter())
                    .zip(grads.iter_mut())
                    .map(|(((t, &b), &r), g)| SweepEval::new(t, b, r, g))
                    .collect();
                let mut scratch = TrainScratch::new();
                <Spec as ModelClassSpec<DenseVec>>::value_grad_batched_multi(
                    &spec,
                    &mut evals,
                    &view,
                    &mut scratch,
                );
                let values: Vec<f64> = evals.iter().map(|e| e.value).collect();
                drop(evals);
                for k in 0..betas.len() {
                    let solo =
                        <Spec as ModelClassSpec<DenseVec>>::with_regularization(&spec, betas[k])
                            .unwrap();
                    let sub = view.prefix(rows[k]);
                    let mut solo_grad = vec![f64::NAN; dim];
                    let mut solo_scratch = TrainScratch::new();
                    let solo_value =
                        solo.value_grad(&thetas[k], &sub, &mut solo_scratch, &mut solo_grad);
                    assert_eq!(
                        values[k].to_bits(),
                        solo_value.to_bits(),
                        "value k={k} intercept={intercept} budget {budget:?}"
                    );
                    for (j, (a, b)) in grads[k].iter().zip(&solo_grad).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "grad[{j}] k={k} intercept={intercept} budget {budget:?}"
                        );
                    }
                }
            }
            set_max_threads(None);
        }
    }

    #[test]
    fn margin_weights_disabled_with_intercept() {
        let spec = Spec::with_intercept(1e-3);
        assert!(
            <Spec as ModelClassSpec<DenseVec>>::margin_weights(&spec, &[0.1, 0.2, 0.3], 2)
                .is_none()
        );
        let plain = Spec::new(1e-3);
        assert!(
            <Spec as ModelClassSpec<DenseVec>>::margin_weights(&plain, &[0.1, 0.2], 2).is_some()
        );
    }
}

//! Linear regression as a full Gaussian MLE.
//!
//! The model: `y ~ N(wᵀx, σ²)` with **both** `w` and the noise variance
//! estimated — parameters are `θ = [w (d), u = ln σ²]`. Estimating `σ²`
//! matters for BlinkML: the information-matrix equality behind
//! ObservedFisher (`J ≈ H`, paper §3.4) holds only for a correctly
//! specified likelihood. Plain unit-variance least squares mis-scales
//! `J` by `σ⁴` on any dataset whose residual variance is not 1, which
//! inflates every accuracy estimate; with `σ²` profiled in, all three
//! statistics methods agree and are calibrated (paper Fig 9a).
//!
//! Minimizing over `u = ln σ²` keeps the parameter unconstrained. The
//! prediction `wᵀx` ignores `u`, so prediction differences are driven by
//! the `w` block only.

use crate::grads::Grads;
use crate::mcs::{regression_diff, ModelClassSpec, SweepEval};
use crate::models::dense_row;
use crate::testing::ScalarOracle;
use blinkml_data::parallel::par_sum_vecs;
use blinkml_data::{Dataset, FeatureVec, FoldRequest, MatrixView, TrainScratch};
use blinkml_linalg::blas::ger;
use blinkml_linalg::Matrix;

/// Bound on `|u| = |ln σ²|` to keep `exp` well-behaved during line
/// searches (σ² between e^-30 and e^30 covers any real dataset).
const LOG_VAR_CLAMP: f64 = 30.0;

/// L2-regularized Gaussian linear regression — the paper's `Lin` model.
///
/// The regularizer `(β/2)‖w‖²` applies to the weights only, not to the
/// noise parameter.
#[derive(Debug, Clone)]
pub struct LinearRegressionSpec {
    beta: f64,
}

impl LinearRegressionSpec {
    /// Spec with L2 coefficient `beta` (paper experiments use 0.001).
    pub fn new(beta: f64) -> Self {
        assert!(beta >= 0.0, "regularization must be nonnegative");
        LinearRegressionSpec { beta }
    }

    /// The weight block of a parameter vector.
    pub fn weights<'a>(&self, theta: &'a [f64]) -> &'a [f64] {
        &theta[..theta.len() - 1]
    }

    /// The estimated noise variance `σ² = e^u`.
    pub fn noise_variance(&self, theta: &[f64]) -> f64 {
        theta[theta.len() - 1]
            .clamp(-LOG_VAR_CLAMP, LOG_VAR_CLAMP)
            .exp()
    }
}

impl<F: FeatureVec> ModelClassSpec<F> for LinearRegressionSpec {
    fn name(&self) -> &'static str {
        "linear-regression"
    }

    fn param_dim(&self, data_dim: usize) -> usize {
        data_dim + 1
    }

    fn regularization(&self) -> f64 {
        self.beta
    }

    fn value_grad(
        &self,
        theta: &[f64],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
        grad: &mut [f64],
    ) -> f64 {
        let d = xm.dim();
        debug_assert_eq!(theta.len(), d + 1);
        debug_assert_eq!(grad.len(), d + 1);
        let n = xm.len().max(1) as f64;
        let u = theta[d].clamp(-LOG_VAR_CLAMP, LOG_VAR_CLAMP);
        let inv_s = (-u).exp();
        let w = &theta[..d];
        // One fused sweep: chunk margins → residuals in place
        // (rᵢ = mᵢ − yᵢ, the scalar `dot(w) − y` op order) → chunk
        // gradient partial, merged like par_sum_vecs — bit-identical to
        // the scalar oracle on the sample the view selects.
        let sum_r2 = xm.value_grad_fold(w, 0.0, &mut grad[..d], scratch, |start, margins| {
            let mut part = 0.0;
            for (local, m) in margins.iter_mut().enumerate() {
                let r = *m - xm.label(start + local);
                part += r * r;
                *m = r;
            }
            part
        });
        // f = (1/n)Σ[r²/(2σ²) + u/2] + (β/2)‖w‖².
        let mut value = 0.5 * inv_s * sum_r2 / n + 0.5 * u;
        for g in grad[..d].iter_mut() {
            *g = inv_s * *g / n;
        }
        // ∂f/∂u = ½ − (1/2σ²)·mean(r²).
        grad[d] = 0.5 - 0.5 * inv_s * sum_r2 / n;
        if self.beta > 0.0 {
            let norm_sq: f64 = w.iter().map(|t| t * t).sum();
            value += 0.5 * self.beta * norm_sq;
            for (g, t) in grad[..d].iter_mut().zip(w) {
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
        // One fused multi-request sweep shares each chunk's cache-hot
        // rows across every grid point; residuals are formed exactly as
        // the single-λ kernel forms them, so per-request sums and
        // gradient partials are bit-identical to `value_grad`.
        let mut reqs: Vec<FoldRequest> = evals
            .iter_mut()
            .map(|e| {
                debug_assert_eq!(e.theta.len(), d + 1);
                debug_assert_eq!(e.grad.len(), d + 1);
                FoldRequest::new(&e.theta[..d], 0.0, e.rows, &mut e.grad[..d])
            })
            .collect();
        xm.value_grad_fold_multi(&mut reqs, scratch, |_k, start, margins| {
            let mut part = 0.0;
            for (local, m) in margins.iter_mut().enumerate() {
                let r = *m - xm.label(start + local);
                part += r * r;
                *m = r;
            }
            (part, 0.0)
        });
        let sums: Vec<f64> = reqs.iter().map(|r| r.loss).collect();
        drop(reqs);
        for (e, sum_r2) in evals.iter_mut().zip(sums) {
            let n = e.rows.max(1) as f64;
            let u = e.theta[d].clamp(-LOG_VAR_CLAMP, LOG_VAR_CLAMP);
            let inv_s = (-u).exp();
            let w = &e.theta[..d];
            // f = (1/n)Σ[r²/(2σ²) + u/2] + (β/2)‖w‖².
            let mut value = 0.5 * inv_s * sum_r2 / n + 0.5 * u;
            for g in e.grad[..d].iter_mut() {
                *g = inv_s * *g / n;
            }
            // ∂f/∂u = ½ − (1/2σ²)·mean(r²).
            e.grad[d] = 0.5 - 0.5 * inv_s * sum_r2 / n;
            if e.beta > 0.0 {
                let norm_sq: f64 = w.iter().map(|t| t * t).sum();
                value += 0.5 * e.beta * norm_sq;
                for (g, t) in e.grad[..d].iter_mut().zip(w) {
                    *g += e.beta * t;
                }
            }
            e.value = value;
        }
    }

    fn with_regularization(&self, beta: f64) -> Option<Box<dyn ModelClassSpec<F>>> {
        Some(Box::new(LinearRegressionSpec::new(beta)))
    }

    fn grads(&self, theta: &[f64], xm: &MatrixView) -> Grads {
        let d = xm.dim();
        let u = theta[d].clamp(-LOG_VAR_CLAMP, LOG_VAR_CLAMP);
        let inv_s = (-u).exp();
        let w = &theta[..d];
        // ψ_i = [r·x/σ² + βw ; ½ − r²/(2σ²)].
        let mut shift = vec![0.0; d + 1];
        for (s, t) in shift[..d].iter_mut().zip(w) {
            *s = self.beta * t;
        }
        let mut m = Matrix::zeros(xm.len(), d + 1);
        // Batched margins, then a per-row fill from the view.
        let mut margins = vec![0.0; xm.len()];
        xm.margins_into(w, 0.0, &mut margins);
        for (i, &margin) in margins.iter().enumerate() {
            let r = margin - xm.label(i);
            let c = inv_s * r;
            let row = m.row_mut(i);
            row.copy_from_slice(&shift);
            match xm.dense_row(i) {
                Some(xrow) => {
                    for (rj, &xj) in row[..d].iter_mut().zip(xrow) {
                        *rj += c * xj;
                    }
                }
                None => {
                    let (idx, val) = xm.sparse_row(i).expect("sparse block");
                    for (&j, &v) in idx.iter().zip(val) {
                        row[j as usize] += c * v;
                    }
                }
            }
            row[d] = 0.5 - 0.5 * inv_s * r * r;
        }
        Grads::Dense(m)
    }

    fn closed_form_hessian(&self, theta: &[f64], xm: &MatrixView) -> Option<Matrix> {
        let d = xm.dim();
        let n = xm.len().max(1) as f64;
        let u = theta[d].clamp(-LOG_VAR_CLAMP, LOG_VAR_CLAMP);
        let inv_s = (-u).exp();
        let w = &theta[..d];
        let mut margins = vec![0.0; xm.len()];
        xm.margins_into(w, 0.0, &mut margins);
        // The scalar oracle's per-example accumulation, row by row over
        // the view: the same rank-one block, border and corner updates in
        // the same order, so the Hessian is bit-identical.
        let mut h = Matrix::zeros(d + 1, d + 1);
        let mut block = Matrix::zeros(d, d);
        let mut xbuf = vec![0.0; d];
        for (i, &margin) in margins.iter().enumerate() {
            let r = margin - xm.label(i);
            let xd = dense_row(xm, i, &mut xbuf);
            // H_ww += x xᵀ/(nσ²).
            block.as_mut_slice().iter_mut().for_each(|v| *v = 0.0);
            ger(inv_s / n, xd, xd, &mut block);
            for a in 0..d {
                for b in 0..d {
                    h[(a, b)] += block[(a, b)];
                }
            }
            // H_wu = H_uw += −r·x/(nσ²).
            for (a, &xa) in xd.iter().enumerate() {
                let v = -inv_s * r * xa / n;
                h[(a, d)] += v;
                h[(d, a)] += v;
            }
            // H_uu += r²/(2nσ²).
            h[(d, d)] += 0.5 * inv_s * r * r / n;
        }
        for a in 0..d {
            h[(a, a)] += self.beta;
        }
        Some(h)
    }

    fn predict(&self, theta: &[f64], x: &F) -> f64 {
        x.dot(self.weights(theta))
    }

    fn diff(&self, theta_a: &[f64], theta_b: &[f64], holdout: &Dataset<F>) -> f64 {
        regression_diff(
            |x: &F| self.predict(theta_a, x),
            |x: &F| self.predict(theta_b, x),
            holdout,
        )
    }

    fn generalization_error(&self, theta: &[f64], data: &Dataset<F>) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let w = self.weights(theta);
        let sum_sq: f64 = data
            .iter()
            .map(|e| {
                let r = e.x.dot(w) - e.y;
                r * r
            })
            .sum();
        (sum_sq / data.len() as f64).sqrt()
    }

    fn num_margin_outputs(&self, _data_dim: usize) -> Option<usize> {
        Some(1)
    }

    fn margins(&self, theta: &[f64], x: &F, out: &mut [f64]) {
        out[0] = x.dot(self.weights(theta));
    }

    fn margin_weights(&self, theta: &[f64], data_dim: usize) -> Option<Matrix> {
        // Predictions ignore the trailing ln σ² parameter.
        Some(Matrix::from_vec(data_dim, 1, theta[..data_dim].to_vec()))
    }

    fn predict_from_margins(&self, scores: &[f64]) -> f64 {
        scores[0]
    }

    fn diff_is_rms(&self) -> bool {
        true
    }
}

/// The per-example reference bodies (see [`ScalarOracle`]).
#[doc(hidden)]
impl<F: FeatureVec> ScalarOracle<F> for LinearRegressionSpec {
    fn scalar_objective(&self, theta: &[f64], data: &Dataset<F>) -> (f64, Vec<f64>) {
        let d = data.dim();
        let n = data.len().max(1) as f64;
        let u = theta[d].clamp(-LOG_VAR_CLAMP, LOG_VAR_CLAMP);
        let inv_s = (-u).exp();
        let w = &theta[..d];
        // Slot 0: Σ residual²; slots 1..=d: Σ residual·x.
        let acc = par_sum_vecs(data.len(), d + 1, |i, acc| {
            let e = data.get(i);
            let r = e.x.dot(w) - e.y;
            acc[0] += r * r;
            e.x.add_scaled_into(r, &mut acc[1..]);
        });
        let sum_r2 = acc[0];
        // f = (1/n)Σ[r²/(2σ²) + u/2] + (β/2)‖w‖².
        let mut value = 0.5 * inv_s * sum_r2 / n + 0.5 * u;
        let mut grad = vec![0.0; d + 1];
        for (g, a) in grad[..d].iter_mut().zip(&acc[1..]) {
            *g = inv_s * a / n;
        }
        // ∂f/∂u = ½ − (1/2σ²)·mean(r²).
        grad[d] = 0.5 - 0.5 * inv_s * sum_r2 / n;
        if self.beta > 0.0 {
            let norm_sq: f64 = w.iter().map(|t| t * t).sum();
            value += 0.5 * self.beta * norm_sq;
            for (g, t) in grad[..d].iter_mut().zip(w) {
                *g += self.beta * t;
            }
        }
        (value, grad)
    }

    fn scalar_grads(&self, theta: &[f64], data: &Dataset<F>) -> Grads {
        let d = data.dim();
        let u = theta[d].clamp(-LOG_VAR_CLAMP, LOG_VAR_CLAMP);
        let inv_s = (-u).exp();
        let w = &theta[..d];
        // ψ_i = [r·x/σ² + βw ; ½ − r²/(2σ²)].
        let mut shift = vec![0.0; d + 1];
        for (s, t) in shift[..d].iter_mut().zip(w) {
            *s = self.beta * t;
        }
        let mut m = Matrix::zeros(data.len(), d + 1);
        for (i, e) in data.iter().enumerate() {
            let r = e.x.dot(w) - e.y;
            let row = m.row_mut(i);
            row.copy_from_slice(&shift);
            e.x.add_scaled_into(inv_s * r, &mut row[..d]);
            row[d] = 0.5 - 0.5 * inv_s * r * r;
        }
        Grads::Dense(m)
    }

    fn scalar_closed_form_hessian(&self, theta: &[f64], data: &Dataset<F>) -> Option<Matrix> {
        let d = data.dim();
        let n = data.len().max(1) as f64;
        let u = theta[d].clamp(-LOG_VAR_CLAMP, LOG_VAR_CLAMP);
        let inv_s = (-u).exp();
        let w = &theta[..d];
        let mut h = Matrix::zeros(d + 1, d + 1);
        let mut xd = vec![0.0; d];
        for e in data.iter() {
            let r = e.x.dot(w) - e.y;
            xd.iter_mut().for_each(|v| *v = 0.0);
            e.x.add_scaled_into(1.0, &mut xd);
            // H_ww += x xᵀ/(nσ²).
            let mut block = Matrix::zeros(d, d);
            ger(inv_s / n, &xd, &xd, &mut block);
            for i in 0..d {
                for j in 0..d {
                    h[(i, j)] += block[(i, j)];
                }
            }
            // H_wu = H_uw += −r·x/(nσ²).
            for (i, &xi) in xd.iter().enumerate() {
                let v = -inv_s * r * xi / n;
                h[(i, d)] += v;
                h[(d, i)] += v;
            }
            // H_uu += r²/(2nσ²).
            h[(d, d)] += 0.5 * inv_s * r * r / n;
        }
        for i in 0..d {
            h[(i, i)] += self.beta;
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::glm::test_support::{check_gradient, check_grads_mean};
    use crate::testing::view_objective;
    use blinkml_data::generators::synthetic_linear;
    use blinkml_data::{DatasetMatrix, DenseVec};
    use blinkml_optim::OptimOptions;

    type M = dyn ModelClassSpec<DenseVec>;

    #[test]
    fn gradient_matches_finite_differences() {
        let (data, _) = synthetic_linear(200, 5, 0.5, 1);
        let spec = LinearRegressionSpec::new(1e-3);
        // Generic point including a non-trivial noise parameter.
        let mut theta: Vec<f64> = (0..6).map(|i| 0.1 * i as f64 - 0.2).collect();
        theta[5] = -0.4; // u = ln σ²
        check_gradient(&spec, &theta, &data, 1e-5);
        check_grads_mean(&spec, &theta, &data, 1e-10);
    }

    #[test]
    fn recovers_weights_and_noise_variance() {
        let noise = 0.3;
        let (data, w) = synthetic_linear(20_000, 6, noise, 2);
        let spec = LinearRegressionSpec::new(1e-6);
        let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
        assert!(model.converged);
        for (t, wi) in spec.weights(model.parameters()).iter().zip(&w) {
            assert!((t - wi).abs() < 0.02, "{t} vs {wi}");
        }
        let s2 = spec.noise_variance(model.parameters());
        assert!(
            (s2 - noise * noise).abs() < 0.01,
            "σ̂² = {s2} vs true {}",
            noise * noise
        );
    }

    #[test]
    fn regularization_shrinks_weights() {
        let (data, _) = synthetic_linear(1_000, 4, 0.3, 3);
        let weak = LinearRegressionSpec::new(1e-6)
            .train(&data, None, &OptimOptions::default())
            .unwrap();
        let strong = LinearRegressionSpec::new(10.0)
            .train(&data, None, &OptimOptions::default())
            .unwrap();
        let spec = LinearRegressionSpec::new(0.0);
        let norm = |t: &[f64]| spec.weights(t).iter().map(|v| v * v).sum::<f64>();
        assert!(norm(strong.parameters()) < 0.5 * norm(weak.parameters()));
    }

    #[test]
    fn closed_form_hessian_matches_numeric_jacobian() {
        let (data, _) = synthetic_linear(400, 3, 0.5, 4);
        let spec = LinearRegressionSpec::new(0.01);
        let mut theta = vec![0.2, -0.4, 0.6, 0.0];
        theta[3] = -0.3;
        let xm = DatasetMatrix::from_dataset(&data);
        let h = <M>::closed_form_hessian(&spec, &theta, &xm.view()).unwrap();
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
                    (h[(j, i)] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                    "H[{j}][{i}]: {} vs {fd}",
                    h[(j, i)]
                );
            }
        }
    }

    #[test]
    fn diff_is_rms_of_prediction_gap_and_ignores_noise_param() {
        let (data, _) = synthetic_linear(500, 3, 0.1, 5);
        let spec = LinearRegressionSpec::new(0.0);
        let a = vec![1.0, 0.0, 0.0, 0.0];
        let b = vec![1.0, 0.0, 0.5, 0.0];
        let v = spec.diff(&a, &b, &data);
        // Feature 2 is standard normal, so RMS gap ≈ 0.5.
        assert!((v - 0.5).abs() < 0.05, "diff {v}");
        // Different noise parameter, same weights: no prediction change.
        let c = vec![1.0, 0.0, 0.0, 2.0];
        assert_eq!(spec.diff(&a, &c, &data), 0.0);
    }

    #[test]
    fn margins_agree_with_predict() {
        let (data, _) = synthetic_linear(10, 3, 0.1, 6);
        let spec = LinearRegressionSpec::new(0.0);
        let theta = vec![0.5, -1.0, 2.0, 0.1];
        let mut out = [0.0];
        for e in data.iter() {
            <M>::margins(&spec, &theta, &e.x, &mut out);
            assert_eq!(
                <M>::predict_from_margins(&spec, &out),
                spec.predict(&theta, &e.x)
            );
        }
        assert!(<M>::diff_is_rms(&spec));
    }

    /// Every grid point of a fused multi-λ evaluation must be
    /// bit-identical to the single-λ kernel run on a
    /// `with_regularization(β_k)` spec over the matching row prefix, at
    /// any thread budget.
    #[test]
    fn multi_lambda_batched_is_bitwise_looped_single_lambda() {
        use blinkml_data::parallel::{set_max_threads, CHUNK_SIZE};
        let n = CHUNK_SIZE + 257;
        let d = 6;
        let dim = d + 1;
        let (data, _) = synthetic_linear(n, d, 0.4, 21);
        let xm = DatasetMatrix::from_dataset(&data);
        let view = xm.view();
        let betas = [0.0, 1e-3, 0.1];
        let rows = [n, CHUNK_SIZE / 2, n - 7];
        let thetas: Vec<Vec<f64>> = (0..3)
            .map(|k| {
                (0..dim)
                    .map(|j| ((k * dim + j) as f64 * 0.37).sin() * 0.5)
                    .collect()
            })
            .collect();
        // The host spec's own β must be ignored: each eval carries its own.
        let spec = LinearRegressionSpec::new(0.5);
        for budget in [1usize, 4] {
            set_max_threads(Some(budget));
            let mut grads: Vec<Vec<f64>> = vec![vec![0.0; dim]; 3];
            let values: Vec<f64> = {
                let mut evals: Vec<SweepEval> = thetas
                    .iter()
                    .zip(grads.iter_mut())
                    .enumerate()
                    .map(|(k, (t, g))| SweepEval::new(t, betas[k], rows[k], g))
                    .collect();
                let mut scratch = TrainScratch::new();
                <M>::value_grad_batched_multi(&spec, &mut evals, &view, &mut scratch);
                evals.iter().map(|e| e.value).collect()
            };
            for k in 0..3 {
                let solo = <M>::with_regularization(&spec, betas[k]).unwrap();
                let pv = view.prefix(rows[k]);
                let mut g = vec![0.0; dim];
                let mut scratch = TrainScratch::new();
                let v = solo.value_grad(&thetas[k], &pv, &mut scratch, &mut g);
                assert_eq!(v.to_bits(), values[k].to_bits(), "value k={k} t={budget}");
                for (a, b) in g.iter().zip(&grads[k]) {
                    assert_eq!(a.to_bits(), b.to_bits(), "grad k={k} t={budget}");
                }
            }
        }
        set_max_threads(None);
    }

    #[test]
    fn generalization_error_is_rmse() {
        let (data, w) = synthetic_linear(2_000, 4, 0.2, 7);
        let spec = LinearRegressionSpec::new(0.0);
        let mut theta = w.clone();
        theta.push(2.0f64.ln() * 0.0); // any u; RMSE ignores it
        let err = spec.generalization_error(&theta, &data);
        assert!((err - 0.2).abs() < 0.02, "rmse {err}");
    }

    #[test]
    fn objective_is_stable_at_extreme_noise_params() {
        let (data, _) = synthetic_linear(100, 2, 0.1, 8);
        let spec = LinearRegressionSpec::new(1e-3);
        for u in [-100.0, 100.0] {
            let theta = vec![0.1, 0.1, u];
            let (v, g) = view_objective(&spec, &theta, &data);
            assert!(v.is_finite(), "value at u={u}");
            assert!(g.iter().all(|x| x.is_finite()), "gradient at u={u}");
        }
    }
}

//! Probabilistic principal component analysis (Tipping & Bishop 1999).
//!
//! The model: `x ~ N(0, C)` with `C = WWᵀ + σ²I`, `W ∈ R^{d×q}`.
//! The parameter vector BlinkML sees is `θ = [vec(W) (column-major), σ²]`
//! — `σ²` is a bona-fide MLE parameter, so the generic machinery
//! (ObservedFisher, accuracy estimation, sample-size search) applies
//! unchanged.
//!
//! Training uses the exact closed form: the top-`q` eigenpairs of the
//! (uncentered, per the paper's Appendix A footnote) second-moment
//! matrix `S = (1/n) Σ x xᵀ`, with `σ²` the mean of the discarded
//! eigenvalues and `W = U_q (Λ_q − σ²I)^{1/2}`. Column signs are
//! normalized so independently trained models are comparable; see
//! [`align_ppca_parameters`] for the residual order/sign ambiguity.

use crate::error::CoreError;
use crate::grads::Grads;
use crate::mcs::{ModelClassSpec, TrainedModel};
use crate::models::dense_row;
use crate::testing::ScalarOracle;
use blinkml_data::{Dataset, DatasetMatrix, FeatureVec, MatrixView, TrainScratch};
use blinkml_linalg::{blas, vector, Cholesky, Matrix, SymmetricEigen};
use blinkml_optim::OptimOptions;

/// PPCA model-class specification with `q` factors.
#[derive(Debug, Clone)]
pub struct PpcaSpec {
    num_factors: usize,
}

impl PpcaSpec {
    /// Spec extracting `q` factors (the paper's experiments use q = 10).
    ///
    /// # Panics
    /// Panics for `q = 0`.
    pub fn new(num_factors: usize) -> Self {
        assert!(num_factors > 0, "PPCA needs at least one factor");
        PpcaSpec { num_factors }
    }

    /// Number of factors `q`.
    pub fn num_factors(&self) -> usize {
        self.num_factors
    }

    /// Split `θ` into the loading matrix `W` (d×q, column-major) and
    /// `σ²`.
    fn unpack(&self, theta: &[f64], d: usize) -> (Matrix, f64) {
        let q = self.num_factors;
        assert_eq!(theta.len(), d * q + 1, "PPCA parameter length mismatch");
        let mut w = Matrix::zeros(d, q);
        for j in 0..q {
            for i in 0..d {
                w[(i, j)] = theta[j * d + i];
            }
        }
        let sigma2 = theta[d * q];
        (w, sigma2)
    }

    /// `C = WWᵀ + σ²I` and its Cholesky factorization.
    fn covariance(&self, w: &Matrix, sigma2: f64) -> Result<(Matrix, Cholesky), CoreError> {
        let mut c = blas::gemm_nt(w, w)?;
        c.add_diag(sigma2.max(1e-12));
        let chol = Cholesky::new(&c)?;
        Ok((c, chol))
    }

    /// Uncentered second-moment matrix `S = (1/n) Σ x xᵀ`, accumulated
    /// through the chunk-reduced weighted-Gram kernel (half the flops of
    /// the dense rank-one updates this used to perform per example, and
    /// contiguous reads from the materialized block).
    fn second_moment(xm: &MatrixView) -> Matrix {
        let n = xm.len().max(1) as f64;
        let w = vec![1.0 / n; xm.len()];
        xm.weighted_gram(&w)
    }

    /// Shared factor state of the batched objective/grads passes.
    fn factors(&self, theta: &[f64], d: usize) -> (Matrix, Matrix, f64, f64) {
        let (w, sigma2) = self.unpack(theta, d);
        let (_, chol) = self
            .covariance(&w, sigma2)
            .expect("PPCA covariance must be SPD for positive σ²");
        let c_inv = chol.inverse().expect("inverse after successful Cholesky");
        let m = blas::gemm(&c_inv, &w).expect("dims");
        let log_det = chol.log_det();
        let tr_cinv = c_inv.trace();
        (c_inv, m, tr_cinv, log_det)
    }

    /// Visit every view row `i` with its dense copy `xᵢ` and
    /// `aᵢ = C⁻¹xᵢ` — the O(n·d²) bottleneck of the objective and
    /// `grads`. Dense blocks batch it into one margin pass per row of
    /// `C⁻¹` into the column-major `acols` (`acols[j·n + i]`, length
    /// `d·n`); each entry is the same per-row dot the oracle's `gemv`
    /// performs. Sparse blocks keep the per-row `gemv` (pass an empty
    /// `acols`) so the reduction order matches exactly.
    fn for_each_row(
        xm: &MatrixView,
        c_inv: &Matrix,
        acols: &mut [f64],
        mut visit: impl FnMut(usize, &[f64], &[f64]),
    ) {
        let (d, rows) = (xm.dim(), xm.len());
        if !xm.is_sparse() {
            for j in 0..d {
                xm.margins_into(c_inv.row(j), 0.0, &mut acols[j * rows..(j + 1) * rows]);
            }
        }
        let mut a = vec![0.0; d];
        let mut xbuf = vec![0.0; d];
        for idx in 0..rows {
            let xd = dense_row(xm, idx, &mut xbuf);
            if xm.is_sparse() {
                a.copy_from_slice(&blas::gemv(c_inv, xd).expect("dims"));
            } else {
                for (j, aj) in a.iter_mut().enumerate() {
                    *aj = acols[j * rows + idx];
                }
            }
            visit(idx, xd, &a);
        }
    }
}

impl<F: FeatureVec> ModelClassSpec<F> for PpcaSpec {
    fn name(&self) -> &'static str {
        "ppca"
    }

    fn param_dim(&self, data_dim: usize) -> usize {
        data_dim * self.num_factors + 1
    }

    fn regularization(&self) -> f64 {
        0.0
    }

    fn label_domain(&self) -> blinkml_data::LabelDomain {
        blinkml_data::LabelDomain::Unused
    }

    fn value_grad(
        &self,
        theta: &[f64],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
        grad: &mut [f64],
    ) -> f64 {
        let d = xm.dim();
        let q = self.num_factors;
        debug_assert_eq!(theta.len(), d * q + 1);
        debug_assert_eq!(grad.len(), d * q + 1);
        let n_rows = xm.len();
        let n = n_rows.max(1) as f64;
        let (c_inv, m, tr_cinv, log_det) = self.factors(theta, d);
        let const_term = d as f64 * (2.0 * std::f64::consts::PI).ln();
        let acols = if xm.is_sparse() {
            &mut [][..]
        } else {
            &mut scratch.slot(0, d * n_rows)[..]
        };
        let mut value = 0.0;
        grad.iter_mut().for_each(|g| *g = 0.0);
        Self::for_each_row(xm, &c_inv, acols, |_, xd, a| {
            let quad = vector::dot(xd, a);
            value += 0.5 * (const_term + log_det + quad);
            // ∂f_i/∂W = M − a bᵀ with b = Mᵀx.
            let b = blas::gemv_t(&m, xd).expect("dims");
            for j in 0..q {
                let bj = b[j];
                for i in 0..d {
                    grad[j * d + i] += m[(i, j)] - a[i] * bj;
                }
            }
            // ∂f_i/∂σ² = ½(tr C⁻¹ − ‖a‖²).
            let a_sq: f64 = a.iter().map(|v| v * v).sum();
            grad[d * q] += 0.5 * (tr_cinv - a_sq);
        });
        value /= n;
        for g in grad.iter_mut() {
            *g /= n;
        }
        value
    }

    fn grads(&self, theta: &[f64], xm: &MatrixView) -> Grads {
        let d = xm.dim();
        let q = self.num_factors;
        let dim = d * q + 1;
        let n_rows = xm.len();
        let (c_inv, m, tr_cinv, _) = self.factors(theta, d);
        let mut acols = vec![0.0; if xm.is_sparse() { 0 } else { d * n_rows }];
        let mut rows = Matrix::zeros(n_rows, dim);
        Self::for_each_row(xm, &c_inv, &mut acols, |idx, xd, a| {
            let b = blas::gemv_t(&m, xd).expect("dims");
            let row = rows.row_mut(idx);
            for j in 0..q {
                let bj = b[j];
                for i in 0..d {
                    row[j * d + i] = m[(i, j)] - a[i] * bj;
                }
            }
            let a_sq: f64 = a.iter().map(|v| v * v).sum();
            row[d * q] = 0.5 * (tr_cinv - a_sq);
        });
        Grads::Dense(rows)
    }

    fn predict(&self, theta: &[f64], x: &F) -> f64 {
        // The "prediction" of PPCA for difference purposes is parameter-
        // based (Appendix C); as a convenience, predict returns the
        // squared norm of the latent projection Wᵀx.
        let d = x.dim();
        let (w, _) = self.unpack(theta, d);
        let mut xd = vec![0.0; d];
        x.add_scaled_into(1.0, &mut xd);
        let z = blas::gemv_t(&w, &xd).expect("dims");
        z.iter().map(|v| v * v).sum()
    }

    fn diff(&self, theta_a: &[f64], theta_b: &[f64], _holdout: &Dataset<F>) -> f64 {
        // v = 1 − cosine(θ_a, θ_b) over the loading block (Appendix C).
        let wa = &theta_a[..theta_a.len() - 1];
        let wb = &theta_b[..theta_b.len() - 1];
        1.0 - blinkml_linalg::vector::cosine_similarity(wa, wb)
    }

    fn generalization_error(&self, theta: &[f64], data: &Dataset<F>) -> f64 {
        // Average negative log-likelihood serves as the generalization
        // metric for the unsupervised model.
        self.objective_value_view(theta, &DatasetMatrix::from_dataset(data).view())
    }

    fn train_view(
        &self,
        xm: &MatrixView,
        _warm_start: Option<&[f64]>,
        _options: &OptimOptions,
    ) -> Result<TrainedModel, CoreError> {
        let d = xm.dim();
        let q = self.num_factors;
        if q >= d {
            return Err(CoreError::InvalidConfig(format!(
                "PPCA needs q < d (got q = {q}, d = {d})"
            )));
        }
        if xm.len() < 2 {
            return Err(CoreError::InvalidData(
                "PPCA needs at least 2 examples".into(),
            ));
        }
        let s = Self::second_moment(xm);
        let eig = SymmetricEigen::new(&s)?;
        // σ² = mean of the discarded spectrum, floored for stability.
        let tail: f64 = eig.eigenvalues[q..].iter().sum();
        let sigma2 = (tail / (d - q) as f64).max(1e-9);
        let mut theta = vec![0.0; d * q + 1];
        for j in 0..q {
            let scale = (eig.eigenvalues[j] - sigma2).max(0.0).sqrt();
            // Deterministic sign: make the largest-|entry| coordinate
            // positive so closed-form solutions are comparable.
            let col = eig.eigenvectors.col(j);
            let lead = col
                .iter()
                .cloned()
                .fold(0.0f64, |m, v| if v.abs() > m.abs() { v } else { m });
            let sign = if lead < 0.0 { -1.0 } else { 1.0 };
            for i in 0..d {
                theta[j * d + i] = sign * scale * col[i];
            }
        }
        theta[d * q] = sigma2;
        let value = self.objective_value_view(&theta, xm);
        Ok(TrainedModel::new(theta, xm.len(), 0, true, value))
    }
}

impl PpcaSpec {
    /// The averaged negative log-likelihood over the view's rows —
    /// bit-identical to the scalar oracle's value on the (conceptually
    /// materialized) sample: the same per-row `a = C⁻¹x`, `xᵀa` ops in
    /// the same sequential accumulation order, without forming the
    /// gradient. Used to record the closed-form training's objective
    /// value without touching the example list.
    fn objective_value_view(&self, theta: &[f64], xm: &MatrixView) -> f64 {
        let d = xm.dim();
        let n = xm.len().max(1) as f64;
        let (w, sigma2) = self.unpack(theta, d);
        let (_, chol) = self
            .covariance(&w, sigma2)
            .expect("PPCA covariance must be SPD for positive σ²");
        let c_inv = chol.inverse().expect("inverse after successful Cholesky");
        let log_det = chol.log_det();
        let const_term = d as f64 * (2.0 * std::f64::consts::PI).ln();
        let mut value = 0.0;
        let mut xbuf = vec![0.0; d];
        for i in 0..xm.len() {
            let xd = dense_row(xm, i, &mut xbuf);
            let a = blas::gemv(&c_inv, xd).expect("dims");
            let quad = vector::dot(xd, &a);
            value += 0.5 * (const_term + log_det + quad);
        }
        value / n
    }
}

/// The per-example reference bodies (see [`ScalarOracle`]).
#[doc(hidden)]
impl<F: FeatureVec> ScalarOracle<F> for PpcaSpec {
    fn scalar_objective(&self, theta: &[f64], data: &Dataset<F>) -> (f64, Vec<f64>) {
        let d = data.dim();
        let q = self.num_factors;
        let n = data.len().max(1) as f64;
        let (w, sigma2) = self.unpack(theta, d);
        let (_, chol) = self
            .covariance(&w, sigma2)
            .expect("PPCA covariance must be SPD for positive σ²");
        let c_inv = chol.inverse().expect("inverse after successful Cholesky");
        // M = C⁻¹W (d×q), tr(C⁻¹) for the σ² gradient.
        let m = blas::gemm(&c_inv, &w).expect("dims");
        let tr_cinv = c_inv.trace();
        let log_det = chol.log_det();
        let const_term = d as f64 * (2.0 * std::f64::consts::PI).ln();

        let mut value = 0.0;
        let mut grad = vec![0.0; d * q + 1];
        let mut xd = vec![0.0; d];
        for e in data.iter() {
            xd.iter_mut().for_each(|v| *v = 0.0);
            e.x.add_scaled_into(1.0, &mut xd);
            let a = blas::gemv(&c_inv, &xd).expect("dims"); // a = C⁻¹x
            let quad = blinkml_linalg::vector::dot(&xd, &a);
            value += 0.5 * (const_term + log_det + quad);
            // ∂f_i/∂W = M − a bᵀ with b = Mᵀx.
            let b = blas::gemv_t(&m, &xd).expect("dims");
            for j in 0..q {
                let bj = b[j];
                for i in 0..d {
                    grad[j * d + i] += m[(i, j)] - a[i] * bj;
                }
            }
            // ∂f_i/∂σ² = ½(tr C⁻¹ − ‖a‖²).
            let a_sq: f64 = a.iter().map(|v| v * v).sum();
            grad[d * q] += 0.5 * (tr_cinv - a_sq);
        }
        value /= n;
        for g in &mut grad {
            *g /= n;
        }
        (value, grad)
    }

    fn scalar_grads(&self, theta: &[f64], data: &Dataset<F>) -> Grads {
        let d = data.dim();
        let q = self.num_factors;
        let dim = d * q + 1;
        let (w, sigma2) = self.unpack(theta, d);
        let (_, chol) = self
            .covariance(&w, sigma2)
            .expect("PPCA covariance must be SPD for positive σ²");
        let c_inv = chol.inverse().expect("inverse after successful Cholesky");
        let m = blas::gemm(&c_inv, &w).expect("dims");
        let tr_cinv = c_inv.trace();

        let mut rows = Matrix::zeros(data.len(), dim);
        let mut xd = vec![0.0; d];
        for (idx, e) in data.iter().enumerate() {
            xd.iter_mut().for_each(|v| *v = 0.0);
            e.x.add_scaled_into(1.0, &mut xd);
            let a = blas::gemv(&c_inv, &xd).expect("dims");
            let b = blas::gemv_t(&m, &xd).expect("dims");
            let row = rows.row_mut(idx);
            for j in 0..q {
                let bj = b[j];
                for i in 0..d {
                    row[j * d + i] = m[(i, j)] - a[i] * bj;
                }
            }
            let a_sq: f64 = a.iter().map(|v| v * v).sum();
            row[d * q] = 0.5 * (tr_cinv - a_sq);
        }
        Grads::Dense(rows)
    }
}

/// Resolve PPCA's residual column-order and sign ambiguity: permute and
/// sign-flip `other`'s factor columns to best match `reference` (greedy
/// by |cosine|). Both vectors must be `d·q + 1` parameter vectors laid
/// out like [`PpcaSpec`]'s.
///
/// Needed only when comparing two *independently trained* models (e.g.
/// an approximate model against a trained full model); the within-run
/// accuracy estimates never retrain, so they are unaffected.
pub fn align_ppca_parameters(reference: &[f64], other: &[f64], d: usize, q: usize) -> Vec<f64> {
    assert_eq!(reference.len(), d * q + 1, "reference layout mismatch");
    assert_eq!(other.len(), d * q + 1, "other layout mismatch");
    let col = |v: &[f64], j: usize| v[j * d..(j + 1) * d].to_vec();
    let mut used = vec![false; q];
    let mut aligned = vec![0.0; d * q + 1];
    for j in 0..q {
        let r = col(reference, j);
        let mut best = None;
        let mut best_cos = -1.0;
        for (c, _) in used.iter().enumerate().filter(|(_, &u)| !u) {
            let o = col(other, c);
            let cos = blinkml_linalg::vector::cosine_similarity(&r, &o).abs();
            if cos > best_cos {
                best_cos = cos;
                best = Some(c);
            }
        }
        let c = best.expect("q columns available");
        used[c] = true;
        let o = col(other, c);
        let sign = if blinkml_linalg::vector::dot(&r, &o) < 0.0 {
            -1.0
        } else {
            1.0
        };
        for i in 0..d {
            aligned[j * d + i] = sign * o[i];
        }
    }
    aligned[d * q] = other[d * q];
    aligned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{view_grads, view_objective};
    use blinkml_data::generators::low_rank_gaussian;
    use blinkml_data::DenseVec;

    fn spec() -> PpcaSpec {
        PpcaSpec::new(3)
    }

    #[test]
    fn train_recovers_low_rank_structure() {
        let data = low_rank_gaussian(5_000, 10, 3, 0.1, 1);
        let model = <PpcaSpec as ModelClassSpec<DenseVec>>::train(
            &spec(),
            &data,
            None,
            &OptimOptions::default(),
        )
        .unwrap();
        let theta = model.parameters();
        let sigma2 = theta[30];
        // The noise floor must be near 0.1² = 0.01.
        assert!((0.005..0.02).contains(&sigma2), "σ² = {sigma2}");
        // Loadings should carry much more energy than the noise floor.
        let w_norm: f64 = theta[..30].iter().map(|v| v * v).sum();
        assert!(w_norm > 1.0, "‖W‖² = {w_norm}");
    }

    #[test]
    fn gradient_vanishes_at_closed_form_solution() {
        let data = low_rank_gaussian(2_000, 8, 3, 0.2, 2);
        let model = <PpcaSpec as ModelClassSpec<DenseVec>>::train(
            &spec(),
            &data,
            None,
            &OptimOptions::default(),
        )
        .unwrap();
        let (_, grad) = view_objective(&spec(), model.parameters(), &data);
        let gnorm = blinkml_linalg::vector::norm_inf(&grad);
        assert!(gnorm < 1e-6, "gradient at the MLE: {gnorm}");
    }

    #[test]
    fn objective_gradient_matches_finite_differences() {
        let data = low_rank_gaussian(200, 5, 2, 0.3, 3);
        let sp = PpcaSpec::new(2);
        // A generic (non-optimal) parameter point.
        let mut theta: Vec<f64> = (0..11).map(|i| 0.2 + 0.05 * i as f64).collect();
        theta[10] = 0.5; // σ²
        let (_, grad) = view_objective(&sp, &theta, &data);
        let eps = 1e-6;
        for i in 0..theta.len() {
            let mut plus = theta.clone();
            let mut minus = theta.clone();
            plus[i] += eps;
            minus[i] -= eps;
            let (fp, _) = view_objective(&sp, &plus, &data);
            let (fm, _) = view_objective(&sp, &minus, &data);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (grad[i] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "coord {i}: {} vs {fd}",
                grad[i]
            );
        }
    }

    #[test]
    fn grads_mean_equals_objective_gradient() {
        let data = low_rank_gaussian(300, 5, 2, 0.3, 4);
        let sp = PpcaSpec::new(2);
        let mut theta: Vec<f64> = (0..11).map(|i| 0.1 * ((i * 3) % 7) as f64 + 0.1).collect();
        theta[10] = 0.4;
        let (_, grad) = view_objective(&sp, &theta, &data);
        let mean = view_grads(&sp, &theta, &data).mean_row();
        for (g, m) in grad.iter().zip(&mean) {
            assert!((g - m).abs() < 1e-10, "{g} vs {m}");
        }
    }

    #[test]
    fn diff_is_one_minus_cosine() {
        let sp = PpcaSpec::new(1);
        let holdout = low_rank_gaussian(10, 3, 1, 0.1, 5);
        let a = vec![1.0, 0.0, 0.0, 0.1];
        let b = vec![0.0, 1.0, 0.0, 0.1];
        let v = <PpcaSpec as ModelClassSpec<DenseVec>>::diff(&sp, &a, &b, &holdout);
        assert!((v - 1.0).abs() < 1e-12, "orthogonal loadings: v = {v}");
        let v_same = <PpcaSpec as ModelClassSpec<DenseVec>>::diff(&sp, &a, &a, &holdout);
        assert!(v_same.abs() < 1e-12);
    }

    #[test]
    fn two_trainings_on_same_data_agree() {
        let data = low_rank_gaussian(1_000, 8, 3, 0.2, 6);
        let sp = spec();
        let opts = OptimOptions::default();
        let m1 = <PpcaSpec as ModelClassSpec<DenseVec>>::train(&sp, &data, None, &opts).unwrap();
        let m2 = <PpcaSpec as ModelClassSpec<DenseVec>>::train(&sp, &data, None, &opts).unwrap();
        let v = <PpcaSpec as ModelClassSpec<DenseVec>>::diff(
            &sp,
            m1.parameters(),
            m2.parameters(),
            &data,
        );
        assert!(v.abs() < 1e-12, "deterministic training: v = {v}");
    }

    #[test]
    fn alignment_fixes_column_permutation_and_sign() {
        let d = 4;
        let q = 2;
        let reference: Vec<f64> = vec![1.0, 0.0, 0.0, 0.0, /* col2 */ 0.0, 1.0, 0.0, 0.0, 0.3];
        // other = reference with columns swapped and first column negated.
        let other: Vec<f64> = vec![0.0, 1.0, 0.0, 0.0, /* col2 */ -1.0, 0.0, 0.0, 0.0, 0.3];
        let aligned = align_ppca_parameters(&reference, &other, d, q);
        for (a, r) in aligned.iter().zip(&reference) {
            assert!((a - r).abs() < 1e-12, "{aligned:?}");
        }
    }

    #[test]
    fn rejects_q_not_less_than_d() {
        let data = low_rank_gaussian(100, 3, 2, 0.1, 7);
        let sp = PpcaSpec::new(3);
        assert!(<PpcaSpec as ModelClassSpec<DenseVec>>::train(
            &sp,
            &data,
            None,
            &OptimOptions::default()
        )
        .is_err());
    }
}

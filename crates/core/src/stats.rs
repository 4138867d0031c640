//! Statistics computation: the covariance factor behind Theorem 1.
//!
//! Everything downstream of training needs samples from
//! `N(0, H⁻¹ J H⁻¹)` (paper Corollary 1). This module computes a factor
//! `L` with `L Lᵀ = H⁻¹ J H⁻¹` by one of the paper's three methods
//! (§3.4) and wraps it as a [`ModelStatistics`] implementing
//! [`CovarianceFactor`], so the samplers never materialize a `D × D`
//! matrix:
//!
//! * **ObservedFisher** (default): `J` from the per-example gradients via
//!   the information matrix equality, `H = J + βI`. When `D ≤ n` the
//!   factor is explicit (`L = U diag(√λ/(λ+β))` from the
//!   eigendecomposition of `J`); when `D > n` only the `n × n` Gram
//!   matrix is decomposed and `L z = Q'ᵀ V diag(1/(λ+β)) z` is applied
//!   implicitly through the gradient rows (paper §4.3).
//! * **ClosedForm**: analytic `H`; `J = H − βI` by the equality.
//! * **InverseGradients**: finite-difference `H` from `D` probes of the
//!   averaged gradient; `J = H − βI`.
//!
//! Every method's eigendecomposition runs through the exact dense
//! `tred2`/`tql2` solver ([`SymmetricEigen`]), and every method drops
//! directions below the same relative eigenvalue cutoff.

use crate::config::StatisticsMethod;
use crate::error::CoreError;
use crate::grads::Grads;
use crate::mcs::ModelClassSpec;
use blinkml_data::{Dataset, DatasetMatrix, FeatureVec, MatrixView, TrainScratch};
use blinkml_linalg::{blas, Matrix, SymmetricEigen};
use blinkml_prob::CovarianceFactor;

/// Relative eigenvalue cutoff below which covariance directions are
/// dropped (guards `1/λ` blow-ups along symmetry/null directions, e.g.
/// PPCA's rotation orbits).
const EIGEN_TOLERANCE: f64 = 1e-10;

/// Finite-difference probe size for InverseGradients (paper default
/// `ϵ = 10⁻⁶`).
const PROBE_EPSILON: f64 = 1e-6;

/// A factor `L` with `L Lᵀ = H⁻¹ J H⁻¹`, in explicit or implicit form.
///
/// `pub(crate)` (not `pub`) so the warm-state sidecar can serialize the
/// factor **in its stored form** — an implicit factor must round-trip
/// as implicit, because the explicit and implicit branches take
/// different (bit-exact but distinct) floating-point paths when
/// sampling parameter draws.
#[derive(Debug, Clone)]
pub(crate) enum Factor {
    /// Dense `D × k` factor.
    Explicit(Matrix),
    /// Implicit factor through the gradient rows:
    /// `L z = Q'ᵀ (V diag(1/(λ+β)) z)`.
    Implicit {
        /// Gram eigenvectors (`n × k`).
        v: Matrix,
        /// Gram eigenvalues (`k`), descending.
        lambda: Vec<f64>,
        /// The gradient rows (kept alive for `Q'ᵀ` application).
        grads: Grads,
        /// L2 coefficient β.
        beta: f64,
    },
}

/// The computed statistics of a trained model: a sampling-ready factor
/// of the parameter covariance `H⁻¹ J H⁻¹`.
#[derive(Debug, Clone)]
pub struct ModelStatistics {
    dim: usize,
    factor: Factor,
}

impl ModelStatistics {
    /// Parameter dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The stored covariance factor (sidecar serialization only).
    pub(crate) fn factor(&self) -> &Factor {
        &self.factor
    }

    /// Rebuild statistics from a deserialized factor (sidecar only).
    pub(crate) fn from_parts(dim: usize, factor: Factor) -> Self {
        ModelStatistics { dim, factor }
    }

    /// Rank of the factor (number of standard-normal inputs consumed per
    /// draw).
    pub fn rank(&self) -> usize {
        match &self.factor {
            Factor::Explicit(l) => l.cols(),
            Factor::Implicit { lambda, .. } => lambda.len(),
        }
    }

    /// Per-coordinate variances `diag(H⁻¹JH⁻¹)` — the quantity compared
    /// against empirical parameter variances in the paper's Fig 9a.
    ///
    /// The implicit branch runs **one** blocked `Ψᵀ` pass over the
    /// gradient rows ([`Grads::t_apply_rows`]) instead of `k` separate
    /// `t_apply` sweeps; each batched row is bitwise the value the
    /// per-column sweep produced.
    pub fn marginal_variances(&self) -> Vec<f64> {
        match &self.factor {
            Factor::Explicit(l) => {
                let mut out = vec![0.0; l.rows()];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = l.row(i).iter().map(|v| v * v).sum();
                }
                out
            }
            Factor::Implicit {
                v,
                lambda,
                grads,
                beta,
            } => {
                let lt = implicit_factor_rows(v, grads);
                let mut out = vec![0.0; self.dim];
                for (j, &lam) in lambda.iter().enumerate() {
                    let scale = 1.0 / (lam + beta);
                    for (o, &lji) in out.iter_mut().zip(lt.row(j)) {
                        let val = lji * scale;
                        *o += val * val;
                    }
                }
                out
            }
        }
    }

    /// Materialize the dense covariance `L Lᵀ` (`O(D²k)`; tests and the
    /// Fig 9b Frobenius comparison only). The implicit factor is built
    /// with the same single blocked pass as
    /// [`ModelStatistics::marginal_variances`].
    pub fn covariance_dense(&self) -> Matrix {
        match &self.factor {
            Factor::Explicit(l) => blas::gemm_nt(l, l).expect("square product"),
            Factor::Implicit {
                v,
                lambda,
                grads,
                beta,
            } => {
                let lt = implicit_factor_rows(v, grads);
                let k = lambda.len();
                let mut l = Matrix::zeros(self.dim, k);
                for (j, &lam) in lambda.iter().enumerate() {
                    let scale = 1.0 / (lam + beta);
                    for i in 0..self.dim {
                        l[(i, j)] = lt[(j, i)] * scale;
                    }
                }
                blas::gemm_nt(&l, &l).expect("square product")
            }
        }
    }
}

/// The implicit factor, one row per Gram eigenvector: row `j` is
/// `Ψᵀ v_j / √n` — all columns of `L` (up to their `1/(λ+β)` scaling)
/// from a single batched pass over the gradient rows.
fn implicit_factor_rows(v: &Matrix, grads: &Grads) -> Matrix {
    grads.t_apply_rows(&v.transpose())
}

impl CovarianceFactor for ModelStatistics {
    fn input_dim(&self) -> usize {
        self.rank()
    }

    fn output_dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, z: &[f64]) -> Vec<f64> {
        match &self.factor {
            Factor::Explicit(l) => blas::gemv(l, z).expect("factor dims"),
            Factor::Implicit {
                v,
                lambda,
                grads,
                beta,
            } => {
                // w = V diag(1/(λ+β)) z, then L z = Q'ᵀ w.
                let scaled: Vec<f64> = z
                    .iter()
                    .zip(lambda)
                    .map(|(zi, lam)| zi / (lam + beta))
                    .collect();
                let w = blas::gemv(v, &scaled).expect("factor dims");
                grads.t_apply(&w)
            }
        }
    }

    fn apply_batch(&self, z: &Matrix) -> Matrix {
        assert_eq!(z.cols(), self.rank(), "apply_batch: input mismatch");
        match &self.factor {
            // Z Lᵀ: every entry is the same dot the per-draw gemv
            // computes, so the batch is bitwise identical per row.
            Factor::Explicit(l) => blas::par_gemm_nt(z, l).expect("factor dims"),
            Factor::Implicit {
                v,
                lambda,
                grads,
                beta,
            } => {
                // Row-wise: scaled = z/(λ+β), w = V·scaled, out = Q'ᵀw —
                // the per-draw pipeline fused into two blocked kernels
                // that preserve its accumulation order exactly.
                let mut scaled = z.clone();
                for i in 0..scaled.rows() {
                    for (s, lam) in scaled.row_mut(i).iter_mut().zip(lambda) {
                        *s /= lam + beta;
                    }
                }
                let w = blas::par_gemm_nt(&scaled, v).expect("factor dims");
                grads.t_apply_rows(&w)
            }
        }
    }
}

/// Compute model statistics with the requested method on a materialized
/// sample: captures `data` as
/// one [`DatasetMatrix`] and runs [`compute_statistics_view`] on its
/// full view.
pub fn compute_statistics<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    method: StatisticsMethod,
    spec: &S,
    theta: &[f64],
    data: &Dataset<F>,
) -> Result<ModelStatistics, CoreError> {
    let xm = DatasetMatrix::from_dataset(data);
    compute_statistics_view(method, spec, theta, &xm.view())
}

/// Compute model statistics with the requested method over the rows of a
/// design-matrix view. The coordinator passes the packed sample
/// capture it already trained on, so the statistics phase's `grads` /
/// Hessian / gradient probes run without capturing the sample again.
pub fn compute_statistics_view<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    method: StatisticsMethod,
    spec: &S,
    theta: &[f64],
    xm: &MatrixView,
) -> Result<ModelStatistics, CoreError> {
    match method {
        StatisticsMethod::ObservedFisher => observed_fisher(spec, theta, xm),
        StatisticsMethod::ClosedForm => closed_form(spec, theta, xm),
        StatisticsMethod::InverseGradients => inverse_gradients(spec, theta, xm),
    }
}

/// ObservedFisher (paper §3.4 Method 3): factor `J` from per-example
/// gradients without forming any `D × D` matrix when `D > n`: the
/// second-moment (`D ≤ n`) or Gram (`D > n`) matrix is materialized and
/// fully eigendecomposed (`O(min(D,n)³)`).
fn observed_fisher<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    spec: &S,
    theta: &[f64],
    xm: &MatrixView,
) -> Result<ModelStatistics, CoreError> {
    let grads = spec.grads(theta, xm);
    let beta = spec.regularization();
    let n = grads.num_rows();
    let dim = grads.dim();
    if dim <= n {
        // Small-parameter regime: eigenpairs of J, explicit factor.
        let mut j = grads.second_moment();
        j.symmetrize();
        let eig = SymmetricEigen::new(&j)?;
        let l = explicit_factor_from_j(&eig.eigenvalues, &eig.eigenvectors, beta);
        Ok(ModelStatistics {
            dim,
            factor: Factor::Explicit(l),
        })
    } else {
        // High-dimensional regime: the n × n Gram matrix shares J's
        // nonzero spectrum; keep the factor implicit. `Grads::gram`
        // mirrors its upper triangle, so the Gram is exactly symmetric
        // and needs no symmetrize pass.
        let SymmetricEigen {
            eigenvalues,
            eigenvectors,
        } = SymmetricEigen::new(&grads.gram())?;
        let lmax = eigenvalues.first().copied().unwrap_or(0.0).max(0.0);
        let cutoff = lmax * EIGEN_TOLERANCE;
        let k = eigenvalues
            .iter()
            .take_while(|&&l| l > cutoff && l > 0.0)
            .count();
        let mut v = Matrix::zeros(n, k);
        for r in 0..n {
            v.row_mut(r).copy_from_slice(&eigenvectors.row(r)[..k]);
        }
        Ok(ModelStatistics {
            dim,
            factor: Factor::Implicit {
                v,
                lambda: eigenvalues[..k].to_vec(),
                grads,
                beta,
            },
        })
    }
}

/// `L = U diag(√λ/(λ+β))` from eigenpairs of `J`, truncated at the
/// relative eigenvalue cutoff [`EIGEN_TOLERANCE`].
fn explicit_factor_from_j(eigenvalues: &[f64], eigenvectors: &Matrix, beta: f64) -> Matrix {
    let d = eigenvectors.rows();
    let lmax = eigenvalues.first().copied().unwrap_or(0.0).max(0.0);
    let cutoff = lmax * EIGEN_TOLERANCE;
    let k = eigenvalues
        .iter()
        .take_while(|&&l| l > cutoff && l > 0.0)
        .count();
    let scales: Vec<f64> = eigenvalues[..k]
        .iter()
        .map(|&lam| lam.sqrt() / (lam + beta))
        .collect();
    let mut l = Matrix::zeros(d, k);
    for i in 0..d {
        for ((lij, &uij), &scale) in l
            .row_mut(i)
            .iter_mut()
            .zip(eigenvectors.row(i))
            .zip(&scales)
        {
            *lij = scale * uij;
        }
    }
    l
}

/// ClosedForm (paper §3.4 Method 1): analytic `H`, then
/// `J = H − βI` by the information matrix equality.
fn closed_form<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    spec: &S,
    theta: &[f64],
    xm: &MatrixView,
) -> Result<ModelStatistics, CoreError> {
    let h = spec
        .closed_form_hessian(theta, xm)
        .ok_or(CoreError::UnsupportedStatistics {
            model: spec.name(),
            method: "ClosedForm",
        })?;
    statistics_from_hessian(h, spec.regularization())
}

/// InverseGradients (paper §3.4 Method 2): numeric `H ≈ R P⁻¹` from `D`
/// finite-difference probes of the averaged gradient `g_n` (through
/// [`ModelClassSpec::value_grad`], one shared scratch), then
/// `J = H − βI`.
fn inverse_gradients<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    spec: &S,
    theta: &[f64],
    xm: &MatrixView,
) -> Result<ModelStatistics, CoreError> {
    let d = theta.len();
    let mut h = Matrix::zeros(d, d);
    let mut probe = theta.to_vec();
    let mut scratch = TrainScratch::new();
    let mut g0 = vec![0.0; d];
    spec.value_grad(theta, xm, &mut scratch, &mut g0);
    let mut gi = vec![0.0; d];
    for i in 0..d {
        probe[i] += PROBE_EPSILON;
        spec.value_grad(&probe, xm, &mut scratch, &mut gi);
        probe[i] = theta[i];
        for j in 0..d {
            h[(j, i)] = (gi[j] - g0[j]) / PROBE_EPSILON;
        }
    }
    h.symmetrize();
    statistics_from_hessian(h, spec.regularization())
}

/// Shared tail of ClosedForm / InverseGradients: from a dense symmetric
/// `H`, build the factor of `H⁻¹ J H⁻¹` with `J = H − βI` via the
/// eigendecomposition `H = V Λ Vᵀ`:
/// `H⁻¹JH⁻¹ = V diag((λ−β)/λ²) Vᵀ`.
fn statistics_from_hessian(h: Matrix, beta: f64) -> Result<ModelStatistics, CoreError> {
    let dim = h.rows();
    let mut h = h;
    h.symmetrize();
    let eig = SymmetricEigen::new(&h)?;
    let (eigenvalues, eigenvectors) = (eig.eigenvalues, eig.eigenvectors);
    let lmax = eigenvalues.first().copied().unwrap_or(0.0).max(0.0);
    let cutoff = lmax * EIGEN_TOLERANCE;
    // Keep directions where H is invertible and J = H − βI positive.
    let cols: Vec<usize> = (0..eigenvalues.len())
        .filter(|&j| {
            let lam = eigenvalues[j];
            lam > cutoff && lam - beta > 0.0
        })
        .collect();
    let mut l = Matrix::zeros(dim, cols.len());
    for (c, &j) in cols.iter().enumerate() {
        let lam = eigenvalues[j];
        let scale = (lam - beta).sqrt() / lam;
        for i in 0..dim {
            l[(i, c)] = scale * eigenvectors[(i, j)];
        }
    }
    Ok(ModelStatistics {
        dim,
        factor: Factor::Explicit(l),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StatisticsMethod;
    use crate::config::StatisticsMethod::{ClosedForm, InverseGradients, ObservedFisher};
    use crate::models::linreg::LinearRegressionSpec;
    use crate::models::logreg::LogisticRegressionSpec;
    use crate::models::maxent::MaxEntSpec;
    use blinkml_data::generators::{synthetic_linear, synthetic_logistic, yelp_like};
    use blinkml_optim::OptimOptions;
    use blinkml_prob::rng_from_seed;
    use blinkml_prob::MvnSampler;

    #[test]
    fn closed_form_and_observed_fisher_agree_for_linreg() {
        // Large n: the information equality makes OF ≈ CF — but only for
        // a *correctly specified* model. For linear regression the loss
        // ½(m−y)² encodes unit noise variance, so the generator must use
        // noise_std = 1.0 here; at other noise levels ObservedFisher
        // (correctly) estimates the robust sandwich covariance, which
        // differs from ClosedForm's J = H − βI by the factor σ².
        let (data, _) = synthetic_linear(20_000, 5, 1.0, 1);
        let spec = LinearRegressionSpec::new(1e-3);
        let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
        let cf = compute_statistics(ClosedForm, &spec, model.parameters(), &data).unwrap();
        let of = compute_statistics(ObservedFisher, &spec, model.parameters(), &data).unwrap();
        let c_cf = cf.covariance_dense();
        let c_of = of.covariance_dense();
        let denom = c_cf.max_abs().max(1e-12);
        assert!(
            c_cf.max_abs_diff(&c_of) / denom < 0.1,
            "relative diff {}",
            c_cf.max_abs_diff(&c_of) / denom
        );
    }

    #[test]
    fn inverse_gradients_matches_closed_form() {
        let (data, _) = synthetic_logistic(2_000, 4, 2.0, 2);
        let spec = LogisticRegressionSpec::new(1e-2);
        let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
        let cf = compute_statistics(ClosedForm, &spec, model.parameters(), &data).unwrap();
        let ig = compute_statistics(InverseGradients, &spec, model.parameters(), &data).unwrap();
        let c_cf = cf.covariance_dense();
        let c_ig = ig.covariance_dense();
        let denom = c_cf.max_abs().max(1e-12);
        assert!(
            c_cf.max_abs_diff(&c_ig) / denom < 1e-3,
            "relative diff {}",
            c_cf.max_abs_diff(&c_ig) / denom
        );
    }

    #[test]
    fn implicit_factor_matches_explicit_covariance() {
        // Force the implicit (D > n) path by taking a tiny sample of a
        // high-dimensional sparse problem, then compare the materialized
        // covariance against the explicit dense computation.
        let data = yelp_like(40, 120, 3); // D = 5·120 = 600 > n = 40
        let spec = MaxEntSpec::new(1e-3, 5);
        let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
        let of = compute_statistics(ObservedFisher, &spec, model.parameters(), &data).unwrap();
        assert!(matches!(of.factor, Factor::Implicit { .. }));

        // Explicit reference: eigen of the dense J.
        let grads = crate::testing::view_grads(&spec, model.parameters(), &data);
        let mut j = grads.second_moment();
        j.symmetrize();
        let eig = SymmetricEigen::new(&j).unwrap();
        let l = explicit_factor_from_j(&eig.eigenvalues, &eig.eigenvectors, 1e-3);
        let reference = blas::gemm_nt(&l, &l).unwrap();
        let implicit = of.covariance_dense();
        let denom = reference.max_abs().max(1e-12);
        assert!(
            reference.max_abs_diff(&implicit) / denom < 1e-6,
            "relative diff {}",
            reference.max_abs_diff(&implicit) / denom
        );
    }

    /// Every row of `apply_batch(Z)` equals `apply` of that row of `Z`
    /// in every bit, for the explicit factor (dense logistic, `D ≤ n`)
    /// and the implicit one (sparse maxent, `D > n`), at thread budgets
    /// {1, 4}: the pool draws go through `par_gemm_nt` and the sparse
    /// `Grads::t_apply_rows`, the per-draw path through `gemv` and
    /// `Grads::t_apply`.
    #[test]
    fn apply_batch_rows_are_bitwise_apply() {
        use blinkml_data::parallel::set_max_threads;
        let (dense, _) = synthetic_logistic(600, 9, 2.0, 11);
        let logistic = LogisticRegressionSpec::new(1e-3);
        let theta = logistic
            .train(&dense, None, &OptimOptions::default())
            .unwrap();
        let explicit =
            compute_statistics(ObservedFisher, &logistic, theta.parameters(), &dense).unwrap();
        assert!(matches!(explicit.factor, Factor::Explicit(_)));
        let sparse = yelp_like(60, 80, 12); // D = 5·80 = 400 > n = 60
        let maxent = MaxEntSpec::new(1e-3, 5);
        let theta = maxent
            .train(&sparse, None, &OptimOptions::default())
            .unwrap();
        let implicit =
            compute_statistics(ObservedFisher, &maxent, theta.parameters(), &sparse).unwrap();
        assert!(matches!(implicit.factor, Factor::Implicit { .. }));
        let _budget = blinkml_linalg::testing::budget_lock();
        for budget in [1, 4] {
            set_max_threads(Some(budget));
            for (what, stats) in [("explicit", &explicit), ("implicit", &implicit)] {
                for draws in [1, 8, 13] {
                    let z =
                        blinkml_linalg::testing::xorshift_matrix(draws, stats.rank(), draws as u64);
                    let batch = stats.apply_batch(&z);
                    for i in 0..draws {
                        let one = stats.apply(z.row(i));
                        let (got, want): (Vec<u64>, Vec<u64>) = batch
                            .row(i)
                            .iter()
                            .zip(&one)
                            .map(|(a, b)| (a.to_bits(), b.to_bits()))
                            .unzip();
                        assert_eq!(
                            got, want,
                            "{what}, budget {budget}, {draws} draws, draw {i}"
                        );
                    }
                }
            }
        }
        set_max_threads(None);
    }

    #[test]
    fn sampler_empirical_covariance_matches_factor() {
        let (data, _) = synthetic_linear(5_000, 3, 0.5, 4);
        let spec = LinearRegressionSpec::new(1e-3);
        let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
        let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &data).unwrap();
        let expected = stats.covariance_dense();

        let mut sampler = MvnSampler::new(&stats);
        let mut rng = rng_from_seed(7);
        let draws = 40_000;
        let dim = stats.dim();
        let mut emp = Matrix::zeros(dim, dim);
        for _ in 0..draws {
            let x = sampler.sample_centered(&mut rng);
            blas::ger(1.0 / draws as f64, &x, &x, &mut emp);
        }
        let denom = expected.max_abs().max(1e-12);
        assert!(
            emp.max_abs_diff(&expected) / denom < 0.05,
            "relative diff {}",
            emp.max_abs_diff(&expected) / denom
        );
    }

    #[test]
    fn marginal_variances_match_covariance_diagonal() {
        let (data, _) = synthetic_logistic(3_000, 4, 2.0, 5);
        let spec = LogisticRegressionSpec::new(1e-3);
        let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
        for method in [
            StatisticsMethod::ObservedFisher,
            StatisticsMethod::ClosedForm,
            StatisticsMethod::InverseGradients,
        ] {
            let stats = compute_statistics(method, &spec, model.parameters(), &data).unwrap();
            let mv = stats.marginal_variances();
            let cov = stats.covariance_dense();
            for i in 0..4 {
                assert!(
                    (mv[i] - cov[(i, i)]).abs() < 1e-12 * (1.0 + cov[(i, i)].abs()),
                    "{method:?} diag {i}"
                );
            }
        }
    }

    #[test]
    fn maxent_rejects_closed_form() {
        let data = yelp_like(50, 120, 6);
        let spec = MaxEntSpec::new(1e-3, 5);
        let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
        let err = compute_statistics(ClosedForm, &spec, model.parameters(), &data).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedStatistics { .. }));
    }

    #[test]
    fn covariance_shrinks_with_sample_size() {
        // The unscaled H⁻¹JH⁻¹ is O(1); the sampling covariance gets its
        // 1/n − 1/N factor later. But J itself concentrates: variance of
        // the *estimate* shrinks. Here we check the scaling hook: with
        // twice the data, the factored covariance should be similar in
        // magnitude (both estimate the same asymptotic quantity).
        let (data_small, _) = synthetic_linear(2_000, 3, 0.5, 8);
        let (data_big, _) = synthetic_linear(8_000, 3, 0.5, 8);
        let spec = LinearRegressionSpec::new(1e-3);
        let opts = OptimOptions::default();
        let m_small = spec.train(&data_small, None, &opts).unwrap();
        let m_big = spec.train(&data_big, None, &opts).unwrap();
        let c_small = compute_statistics(ObservedFisher, &spec, m_small.parameters(), &data_small)
            .unwrap()
            .covariance_dense();
        let c_big = compute_statistics(ObservedFisher, &spec, m_big.parameters(), &data_big)
            .unwrap()
            .covariance_dense();
        let denom = c_big.max_abs().max(1e-12);
        assert!(
            c_small.max_abs_diff(&c_big) / denom < 0.2,
            "asymptotic covariances should agree across n"
        );
    }
}

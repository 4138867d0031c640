//! Incremental maintenance of the pilot's second-moment (Fisher)
//! statistics under streaming appends.
//!
//! The cold ObservedFisher path recomputes `J = (1/n) ΨᵀΨ` from scratch
//! on every pool change — `O(n·D²)` (or a fresh randomized probe) even
//! when only `k ≪ n` rows arrived. But the *averaged* second moment
//! updates exactly as a convex combination:
//!
//! ```text
//! J_{n+k} = n/(n+k) · J_n  +  k/(n+k) · J_k
//! ```
//!
//! [`IncrementalSecondMoment`] maintains the eigendecomposition
//! `J ≈ U diag(λ) Uᵀ` and folds new rows in as a rank-k update routed
//! through `blinkml_linalg::spectral`:
//!
//! * with [`SpectralMethod::Randomized`], the combined operator is the
//!   matrix-free [`LowRankUpdateOp`] (base eigenpairs + the new rows'
//!   [`Grads::second_moment_op`]) re-probed by `randomized_eigen` —
//!   no `D × D` matrix is ever formed;
//! * with [`SpectralMethod::Dense`], the convex combination is formed
//!   densely and re-decomposed (exact; the reference the randomized
//!   path is measured against).
//!
//! [`IncrementalSecondMoment::verified_update`] is the trust-building
//! mode: it computes the incremental result **and** a cold recompute
//! over the full gradient set, reports their relative Frobenius gap,
//! and adopts the cold result — so a verified stream is bit-equal to a
//! never-streamed one while still measuring the incremental engine on
//! every batch. This module covers the explicit (`D ≤ n`) statistics
//! regime; the `D > n` implicit Gram regime keeps the cold path.

use crate::config::SpectralMethod;
use crate::error::CoreError;
use crate::grads::Grads;
use crate::stats::{statistics_from_eigenpairs, ModelStatistics};
use blinkml_linalg::spectral::{randomized_eigen, LowRankUpdateOp};
use blinkml_linalg::{blas, Matrix, SymmetricEigen};

/// The maintained eigendecomposition `J ≈ U diag(λ) Uᵀ` of the averaged
/// second moment over `rows` gradient rows.
#[derive(Debug, Clone)]
pub struct IncrementalSecondMoment {
    dim: usize,
    rows: usize,
    eigenvalues: Vec<f64>,
    eigenvectors: Matrix,
}

impl IncrementalSecondMoment {
    /// Decompose the averaged second moment of `grads` from scratch
    /// (the cold start every stream begins from).
    pub fn new(grads: &Grads, spectral: SpectralMethod) -> Result<Self, CoreError> {
        let (eigenvalues, eigenvectors) = eigen_of(grads, spectral)?;
        Ok(IncrementalSecondMoment {
            dim: grads.dim(),
            rows: grads.num_rows(),
            eigenvalues,
            eigenvectors,
        })
    }

    /// Parameter dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Gradient rows folded in so far (the `n` of the running average).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Maintained eigenvalues, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Maintained orthonormal eigenvectors (`D × captured`).
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Fold `k` new gradient rows into the running average as a rank-k
    /// update. A zero-row update is a no-op.
    ///
    /// # Panics
    /// Panics when the new rows' parameter dimension differs from the
    /// maintained one (programming error).
    pub fn update(&mut self, new_grads: &Grads, spectral: SpectralMethod) -> Result<(), CoreError> {
        let k = new_grads.num_rows();
        if k == 0 {
            return Ok(());
        }
        assert_eq!(
            new_grads.dim(),
            self.dim,
            "incremental update: dimension mismatch"
        );
        let n = self.rows;
        let total = (n + k) as f64;
        let base_scale = n as f64 / total;
        let update_scale = k as f64 / total;
        let (eigenvalues, eigenvectors) = match spectral {
            SpectralMethod::Dense => {
                // Exact path: form the convex combination densely.
                let mut j = self.reconstruct();
                for (jv, &uv) in j
                    .as_mut_slice()
                    .iter_mut()
                    .zip(new_grads.second_moment().as_slice())
                {
                    *jv = base_scale * *jv + update_scale * uv;
                }
                j.symmetrize();
                let eig = SymmetricEigen::new(&j)?;
                (eig.eigenvalues, eig.eigenvectors)
            }
            SpectralMethod::Randomized {
                rank,
                oversample,
                power_iters,
                tol,
            } => {
                let update = new_grads.second_moment_op();
                let op = LowRankUpdateOp::new(
                    base_scale,
                    &self.eigenvectors,
                    &self.eigenvalues,
                    update_scale,
                    &update,
                );
                let eig = randomized_eigen(&op, rank, oversample, power_iters, tol)?;
                (eig.eigenvalues, eig.eigenvectors)
            }
        };
        self.eigenvalues = eigenvalues;
        self.eigenvectors = eigenvectors;
        self.rows = n + k;
        Ok(())
    }

    /// Verified-equivalence update: run the incremental rank-k fold,
    /// run a cold recompute over `full_grads` (the complete row set
    /// after the append), **adopt the cold result**, and return the
    /// relative Frobenius gap `‖J_inc − J_cold‖_F / ‖J_cold‖_F` between
    /// the two — the number the CI equivalence gate pins. Because the
    /// cold result is adopted, a verified stream is bit-equal to a
    /// never-streamed recompute.
    pub fn verified_update(
        &mut self,
        new_grads: &Grads,
        full_grads: &Grads,
        spectral: SpectralMethod,
    ) -> Result<f64, CoreError> {
        let mut incremental = self.clone();
        incremental.update(new_grads, spectral)?;
        let cold = IncrementalSecondMoment::new(full_grads, spectral)?;
        debug_assert_eq!(cold.rows, incremental.rows, "row accounting drifted");
        let gap = rel_frobenius_gap(&incremental.reconstruct(), &cold.reconstruct());
        *self = cold;
        Ok(gap)
    }

    /// Materialize the maintained moment `U diag(λ) Uᵀ` (`O(D²·r)`;
    /// equivalence gates and tests).
    pub fn second_moment(&self) -> Matrix {
        self.reconstruct()
    }

    /// Sampling-ready [`ModelStatistics`] from the maintained pairs:
    /// the ObservedFisher factor `L = U diag(√λ/(λ+β))` with the same
    /// truncation guard as the cold path.
    pub fn statistics(&self, beta: f64, spectral: SpectralMethod) -> ModelStatistics {
        statistics_from_eigenpairs(
            self.dim,
            &self.eigenvalues,
            &self.eigenvectors,
            beta,
            spectral,
        )
    }

    fn reconstruct(&self) -> Matrix {
        let mut scaled = self.eigenvectors.clone();
        for j in 0..scaled.cols() {
            let lam = self.eigenvalues[j];
            for i in 0..scaled.rows() {
                scaled[(i, j)] *= lam;
            }
        }
        blas::par_gemm_nt(&scaled, &self.eigenvectors).expect("eigenpair shapes")
    }
}

/// Eigendecomposition of the averaged second moment of `grads` by the
/// chosen engine.
fn eigen_of(grads: &Grads, spectral: SpectralMethod) -> Result<(Vec<f64>, Matrix), CoreError> {
    match spectral {
        SpectralMethod::Dense => {
            let mut j = grads.second_moment();
            j.symmetrize();
            let eig = SymmetricEigen::new(&j)?;
            Ok((eig.eigenvalues, eig.eigenvectors))
        }
        SpectralMethod::Randomized {
            rank,
            oversample,
            power_iters,
            tol,
        } => {
            let eig = randomized_eigen(
                &grads.second_moment_op(),
                rank,
                oversample,
                power_iters,
                tol,
            )?;
            Ok((eig.eigenvalues, eig.eigenvectors))
        }
    }
}

/// `‖a − b‖_F / ‖b‖_F` (zero when both are zero).
pub fn rel_frobenius_gap(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.rows(), b.rows(), "frobenius gap: shape mismatch");
    assert_eq!(a.cols(), b.cols(), "frobenius gap: shape mismatch");
    let mut num = 0.0;
    let mut den = 0.0;
    for (&av, &bv) in a.as_slice().iter().zip(b.as_slice()) {
        let d = av - bv;
        num += d * d;
        den += bv * bv;
    }
    if den == 0.0 {
        return if num == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (num / den).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StatisticsMethod::ObservedFisher;
    use crate::mcs::ModelClassSpec;
    use crate::models::logreg::LogisticRegressionSpec;
    use crate::stats::compute_statistics;
    use blinkml_data::generators::synthetic_logistic;
    use blinkml_data::Dataset;
    use blinkml_optim::OptimOptions;

    /// Pilot θ plus gradient rows over `[lo, hi)` of a fixed dataset.
    fn grads_over(
        data: &Dataset<blinkml_data::DenseVec>,
        spec: &LogisticRegressionSpec,
        theta: &[f64],
        lo: usize,
        hi: usize,
    ) -> Grads {
        let idx: Vec<usize> = (lo..hi).collect();
        crate::testing::view_grads(spec, theta, &data.subset(&idx))
    }

    fn setup() -> (
        Dataset<blinkml_data::DenseVec>,
        LogisticRegressionSpec,
        Vec<f64>,
    ) {
        let (data, _) = synthetic_logistic(1_200, 6, 2.0, 42);
        let spec = LogisticRegressionSpec::new(1e-3);
        let idx: Vec<usize> = (0..800).collect();
        let model = spec
            .train(&data.subset(&idx), None, &OptimOptions::default())
            .unwrap();
        let theta = model.parameters().to_vec();
        (data, spec, theta)
    }

    #[test]
    fn dense_incremental_matches_full_recompute() {
        let (data, spec, theta) = setup();
        let mut inc = IncrementalSecondMoment::new(
            &grads_over(&data, &spec, &theta, 0, 800),
            SpectralMethod::Dense,
        )
        .unwrap();
        inc.update(
            &grads_over(&data, &spec, &theta, 800, 1_000),
            SpectralMethod::Dense,
        )
        .unwrap();
        inc.update(
            &grads_over(&data, &spec, &theta, 1_000, 1_200),
            SpectralMethod::Dense,
        )
        .unwrap();
        assert_eq!(inc.rows(), 1_200);

        let cold = IncrementalSecondMoment::new(
            &grads_over(&data, &spec, &theta, 0, 1_200),
            SpectralMethod::Dense,
        )
        .unwrap();
        let gap = rel_frobenius_gap(&inc.second_moment(), &cold.second_moment());
        assert!(gap < 1e-10, "relative Frobenius gap {gap}");
    }

    #[test]
    fn verified_update_adopts_the_cold_result_bit_for_bit() {
        let (data, spec, theta) = setup();
        let mut inc = IncrementalSecondMoment::new(
            &grads_over(&data, &spec, &theta, 0, 800),
            SpectralMethod::Dense,
        )
        .unwrap();
        let gap = inc
            .verified_update(
                &grads_over(&data, &spec, &theta, 800, 1_200),
                &grads_over(&data, &spec, &theta, 0, 1_200),
                SpectralMethod::Dense,
            )
            .unwrap();
        assert!(gap < 1e-10, "relative Frobenius gap {gap}");

        let cold = IncrementalSecondMoment::new(
            &grads_over(&data, &spec, &theta, 0, 1_200),
            SpectralMethod::Dense,
        )
        .unwrap();
        // Verified mode is the cold recompute, bitwise.
        assert_eq!(inc.eigenvalues(), cold.eigenvalues());
        assert_eq!(
            inc.eigenvectors().as_slice(),
            cold.eigenvectors().as_slice()
        );
    }

    #[test]
    fn randomized_update_tracks_the_dense_combination() {
        let (data, spec, theta) = setup();
        let spectral = SpectralMethod::randomized();
        let mut inc =
            IncrementalSecondMoment::new(&grads_over(&data, &spec, &theta, 0, 800), spectral)
                .unwrap();
        inc.update(&grads_over(&data, &spec, &theta, 800, 1_200), spectral)
            .unwrap();

        let cold = IncrementalSecondMoment::new(
            &grads_over(&data, &spec, &theta, 0, 1_200),
            SpectralMethod::Dense,
        )
        .unwrap();
        // 7 parameters (6 features + intercept): the randomized default
        // rank covers the whole space, so the gap is round-off level.
        let gap = rel_frobenius_gap(&inc.second_moment(), &cold.second_moment());
        assert!(gap < 1e-8, "relative Frobenius gap {gap}");
    }

    #[test]
    fn statistics_from_maintained_pairs_match_observed_fisher() {
        let (data, spec, theta) = setup();
        let idx: Vec<usize> = (0..1_200).collect();
        let pool = data.subset(&idx);
        let inc = IncrementalSecondMoment::new(
            &grads_over(&data, &spec, &theta, 0, 1_200),
            SpectralMethod::Dense,
        )
        .unwrap();
        let beta =
            <LogisticRegressionSpec as ModelClassSpec<blinkml_data::DenseVec>>::regularization(
                &spec,
            );
        let from_pairs = inc.statistics(beta, SpectralMethod::Dense);
        let reference = compute_statistics(ObservedFisher, &spec, &theta, &pool).unwrap();
        let expect = reference.covariance_dense();
        let got = from_pairs.covariance_dense();
        let denom = expect.max_abs().max(1e-12);
        assert!(
            expect.max_abs_diff(&got) / denom < 1e-10,
            "relative diff {}",
            expect.max_abs_diff(&got) / denom
        );
    }

    #[test]
    fn zero_row_update_is_a_no_op() {
        let (data, spec, theta) = setup();
        let mut inc = IncrementalSecondMoment::new(
            &grads_over(&data, &spec, &theta, 0, 800),
            SpectralMethod::Dense,
        )
        .unwrap();
        let before = inc.clone();
        inc.update(
            &grads_over(&data, &spec, &theta, 800, 800),
            SpectralMethod::Dense,
        )
        .unwrap();
        assert_eq!(inc.rows(), before.rows());
        assert_eq!(inc.eigenvalues(), before.eigenvalues());
    }

    #[test]
    fn frobenius_gap_handles_zero_reference() {
        let z = Matrix::zeros(3, 3);
        assert_eq!(rel_frobenius_gap(&z, &z), 0.0);
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0;
        assert!(rel_frobenius_gap(&a, &z).is_infinite());
    }
}

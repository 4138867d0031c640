//! Truncated randomized eigendecomposition of symmetric operators.
//!
//! The full `tred2`/`tql2` pair in [`crate::eigen`] costs `O(d³)`
//! sequential work, but BlinkML's covariance factor
//! `L = U diag(√λ/(λ+β))` weights each direction by `λ/(λ+β)²` — the
//! spectral tail contributes almost nothing. This module implements
//! Halko–Martinsson–Tropp randomized subspace iteration: a range finder
//! over a matrix-free [`SymmetricOp`], QR orthonormalization, a small
//! projected eigenproblem, and Rayleigh–Ritz recovery, all expressed as
//! blocked GEMMs through the deterministic [`crate::exec`] layer. The
//! dominant `r` eigenpairs of a `d × d` operator cost `O(d² · r)` (or
//! less when the operator itself is factored), instead of `O(d³)`.
//!
//! # Determinism
//!
//! The random test block is generated by a fixed-seed xorshift
//! generator with an Irwin–Hall (sum-of-12-uniforms) normal
//! approximation — no `libm` calls — so the whole decomposition depends
//! only on the operator, the knobs, and [`crate::exec::CHUNK_SIZE`]:
//! never on the thread budget or the executing machine.

use crate::blas::{par_gemm, par_gemm_tn};
use crate::eigen::SymmetricEigen;
use crate::matrix::Matrix;
use crate::qr::Qr;
use crate::Result;

/// A symmetric linear operator `A` applied to blocks of column vectors.
///
/// Implementations must be `Sync` (the blocked kernels underneath
/// parallelize over chunks) and must apply the *same* operator on every
/// call: the solver probes it several times and combines the results.
pub trait SymmetricOp: Sync {
    /// Operator dimension `d` (the operator maps `ℝᵈ → ℝᵈ`).
    fn dim(&self) -> usize;

    /// Apply the operator to a `d × k` block of column vectors,
    /// returning the `d × k` block `A · B`.
    fn apply(&self, block: &Matrix) -> Matrix;
}

/// [`SymmetricOp`] view of an explicit dense symmetric matrix; the
/// apply is one blocked parallel GEMM.
#[derive(Debug, Clone, Copy)]
pub struct DenseSymmetricOp<'a> {
    a: &'a Matrix,
}

impl<'a> DenseSymmetricOp<'a> {
    /// Wrap a square (symmetric) matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square (programming error).
    pub fn new(a: &'a Matrix) -> Self {
        assert!(a.is_square(), "DenseSymmetricOp: matrix must be square");
        DenseSymmetricOp { a }
    }
}

impl SymmetricOp for DenseSymmetricOp<'_> {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    fn apply(&self, block: &Matrix) -> Matrix {
        par_gemm(self.a, block).expect("DenseSymmetricOp: block dimension mismatch")
    }
}

/// Result of a truncated randomized eigendecomposition: the dominant
/// eigenpairs of a `dim × dim` symmetric operator, plus convergence
/// diagnostics.
#[derive(Debug, Clone)]
pub struct TruncatedEigen {
    /// Operator dimension `d` (rows of [`TruncatedEigen::eigenvectors`]).
    pub dim: usize,
    /// Captured Ritz values, descending (length = captured subspace
    /// size, i.e. requested rank plus oversampling, capped at `dim`).
    pub eigenvalues: Vec<f64>,
    /// Orthonormal Ritz vectors as columns (`dim × eigenvalues.len()`).
    pub eigenvectors: Matrix,
    /// Ritz estimate of the largest eigenvalue *outside* the requested
    /// rank at convergence — the spectral-tail bound the truncation
    /// guards fold into their cutoffs. When the whole space was
    /// captured (`eigenvalues.len() == dim`) this is the *exact* value
    /// of that eigenvalue (or zero if the requested rank already
    /// covered the full space).
    pub tail_estimate: f64,
    /// Largest residual `‖A u − λ u‖₂` over the captured pairs above the
    /// relative tolerance cutoff (diagnostic; small residuals mean the
    /// subspace iteration converged, not just that the tail decayed).
    pub max_residual: f64,
    /// Number of operator block-applies consumed (cost diagnostic).
    pub applies: usize,
}

impl TruncatedEigen {
    /// Number of captured eigenpairs.
    pub fn captured(&self) -> usize {
        self.eigenvalues.len()
    }
}

/// Deterministic quasi-Gaussian test block: xorshift64 uniforms pushed
/// through the Irwin–Hall 12-sum, so entries are approximately `N(0,1)`
/// without any transcendental calls (bit-identical on every platform).
fn quasi_gaussian_block(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    if state == 0 {
        state = 0x9E37_79B9_7F4A_7C15;
    }
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    Matrix::from_fn(rows, cols, |_, _| {
        let mut s = 0.0;
        for _ in 0..12 {
            s += uniform();
        }
        s - 6.0
    })
}

/// Orthonormalize the columns of a tall block via thin Householder QR.
fn orthonormalize(y: &Matrix) -> Result<Matrix> {
    Ok(Qr::new(y)?.q())
}

/// Truncated randomized eigendecomposition of a symmetric PSD operator
/// (Halko et al. Algorithm 4.4 + Rayleigh–Ritz, with adaptive rank
/// growth).
///
/// * `rank` — number of dominant eigenpairs the caller wants resolved.
/// * `oversample` — extra probe vectors beyond `rank` (≥ 1; the probe
///   head is what the convergence test reads).
/// * `power_iters` — subspace-iteration passes sharpening the range
///   (1–2 suffice for the geometrically decaying spectra of regularized
///   Fisher/Gram matrices).
/// * `tol` — relative spectral-tail tolerance: the solver grows the
///   rank (doubling, re-probing) until the first Ritz value beyond
///   `rank` falls below `tol · λ_max`, or the whole space is captured —
///   at which point the decomposition is the exact Rayleigh–Ritz
///   solution.
///
/// The returned eigenpairs include the oversampled buffer; callers
/// truncate with their own cutoff (BlinkML's statistics folds `tol`
/// into its `EIGEN_TOLERANCE`-style guard so dropped directions are
/// exactly the ones the tail bound covers).
pub fn randomized_eigen<O: SymmetricOp + ?Sized>(
    op: &O,
    rank: usize,
    oversample: usize,
    power_iters: usize,
    tol: f64,
) -> Result<TruncatedEigen> {
    let d = op.dim();
    if d == 0 {
        return Ok(TruncatedEigen {
            dim: 0,
            eigenvalues: Vec::new(),
            eigenvectors: Matrix::zeros(0, 0),
            tail_estimate: 0.0,
            max_residual: 0.0,
            applies: 0,
        });
    }
    let tol = tol.max(f64::EPSILON);
    let mut r = rank.max(1).min(d);
    let mut applies = 0usize;
    for attempt in 0.. {
        let b = (r + oversample.max(1)).min(d);
        let seed = (d as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((b as u64).rotate_left(17))
            .wrapping_add((attempt as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let omega = quasi_gaussian_block(d, b, seed);
        let mut y = op.apply(&omega);
        applies += 1;
        for _ in 0..power_iters {
            y = op.apply(&orthonormalize(&y)?);
            applies += 1;
        }
        let q = orthonormalize(&y)?;
        let aq = op.apply(&q);
        applies += 1;
        let mut t = par_gemm_tn(&q, &aq)?;
        t.symmetrize();
        let small = SymmetricEigen::new(&t)?;
        let lmax = small.eigenvalues.first().copied().unwrap_or(0.0).max(0.0);
        // The probe head: the largest Ritz value outside the requested
        // rank. With power iterations it tracks λ_{r+1}(A) closely; when
        // it has decayed below tol·λ_max the discarded tail is below the
        // truncation cutoff the caller folds tol into.
        let tail = if b > r {
            small.eigenvalues[r].max(0.0)
        } else {
            0.0
        };
        let converged = b == d || lmax == 0.0 || tail <= tol * lmax;
        if !converged {
            r = (2 * r).min(d);
            continue;
        }
        // Rayleigh–Ritz recovery: U = Q V; residual columns come free
        // from the already-computed A Q as (A Q) V − U diag(λ).
        let u = par_gemm(&q, &small.eigenvectors)?;
        let aqv = par_gemm(&aq, &small.eigenvectors)?;
        let cutoff = lmax * tol;
        let mut max_residual = 0.0f64;
        for (j, &lam) in small.eigenvalues.iter().enumerate() {
            if lam <= cutoff {
                break;
            }
            let mut ss = 0.0;
            for i in 0..d {
                let rij = aqv[(i, j)] - lam * u[(i, j)];
                ss += rij * rij;
            }
            max_residual = max_residual.max(ss.sqrt());
        }
        return Ok(TruncatedEigen {
            dim: d,
            eigenvalues: small.eigenvalues,
            eigenvectors: u,
            tail_estimate: tail,
            max_residual,
            applies,
        });
    }
    unreachable!("the adaptive loop always converges once b == dim")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemm_nt, gemm_tn};
    use crate::testing::xorshift_matrix;

    /// PSD matrix with geometric spectral decay `base^j` planted through
    /// a random orthogonal-ish basis.
    fn decaying_psd(n: usize, base: f64, seed: u64) -> Matrix {
        let g = xorshift_matrix(n, n, seed);
        let q = Qr::new(&g).unwrap().q();
        let mut scaled = q.clone();
        for j in 0..n {
            let s = base.powi(j as i32);
            for i in 0..n {
                scaled[(i, j)] *= s;
            }
        }
        gemm_nt(&scaled, &scaled).unwrap()
    }

    #[test]
    fn recovers_dominant_pairs_of_decaying_matrix() {
        let a = decaying_psd(40, 0.6, 1);
        let exact = SymmetricEigen::new(&a).unwrap();
        let approx = randomized_eigen(&DenseSymmetricOp::new(&a), 8, 4, 2, 1e-8).unwrap();
        let lmax = exact.eigenvalues[0];
        for j in 0..8 {
            assert!(
                (approx.eigenvalues[j] - exact.eigenvalues[j]).abs() < 1e-6 * lmax,
                "eigenvalue {j}: {} vs {}",
                approx.eigenvalues[j],
                exact.eigenvalues[j]
            );
            // Subspace alignment up to sign.
            let dot: f64 = (0..40)
                .map(|i| approx.eigenvectors[(i, j)] * exact.eigenvectors[(i, j)])
                .sum();
            assert!(
                dot.abs() > 1.0 - 1e-5,
                "eigenvector {j}: |cos| = {}",
                dot.abs()
            );
        }
        assert!(approx.max_residual < 1e-5 * lmax);
    }

    #[test]
    fn full_capture_matches_exact_decomposition() {
        // rank + oversample ≥ dim: the Rayleigh–Ritz step runs on the
        // whole space, so the result matches tred2/tql2 to round-off.
        let a = decaying_psd(12, 0.8, 3);
        let exact = SymmetricEigen::new(&a).unwrap();
        let approx = randomized_eigen(&DenseSymmetricOp::new(&a), 12, 4, 0, 1e-10).unwrap();
        assert_eq!(approx.captured(), 12);
        for j in 0..12 {
            assert!(
                (approx.eigenvalues[j] - exact.eigenvalues[j]).abs() < 1e-9,
                "eigenvalue {j}"
            );
        }
        assert_eq!(approx.tail_estimate, 0.0);
    }

    #[test]
    fn adaptive_growth_expands_rank_until_tail_decays() {
        // Start far below the effective rank: the solver must grow until
        // the probe head sits under tol·λmax.
        let a = decaying_psd(48, 0.7, 5);
        let approx = randomized_eigen(&DenseSymmetricOp::new(&a), 2, 2, 1, 1e-6).unwrap();
        let lmax = approx.eigenvalues[0];
        assert!(
            approx.tail_estimate <= 1e-6 * lmax,
            "tail {} vs cutoff {}",
            approx.tail_estimate,
            1e-6 * lmax
        );
        assert!(approx.captured() > 4, "rank must have grown");
        assert!(approx.applies > 3, "growth implies extra probes");
    }

    #[test]
    fn deterministic_across_calls() {
        let a = decaying_psd(20, 0.5, 9);
        let e1 = randomized_eigen(&DenseSymmetricOp::new(&a), 5, 3, 1, 1e-8).unwrap();
        let e2 = randomized_eigen(&DenseSymmetricOp::new(&a), 5, 3, 1, 1e-8).unwrap();
        assert_eq!(e1.eigenvalues, e2.eigenvalues);
        assert_eq!(e1.eigenvectors.as_slice(), e2.eigenvectors.as_slice());
    }

    #[test]
    fn ritz_vectors_are_orthonormal() {
        let a = decaying_psd(30, 0.65, 11);
        let approx = randomized_eigen(&DenseSymmetricOp::new(&a), 6, 4, 1, 1e-8).unwrap();
        let vtv = gemm_tn(&approx.eigenvectors, &approx.eigenvectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(approx.captured())) < 1e-10);
    }

    #[test]
    fn zero_operator_and_empty_dim() {
        let z = Matrix::zeros(5, 5);
        let e = randomized_eigen(&DenseSymmetricOp::new(&z), 2, 2, 1, 1e-8).unwrap();
        for v in &e.eigenvalues {
            assert!(v.abs() < 1e-12);
        }
        let empty = Matrix::zeros(0, 0);
        let e0 = randomized_eigen(&DenseSymmetricOp::new(&empty), 2, 2, 1, 1e-8).unwrap();
        assert_eq!(e0.captured(), 0);
    }

    #[test]
    fn quasi_gaussian_block_is_seeded_and_standardized() {
        let b1 = quasi_gaussian_block(200, 4, 7);
        let b2 = quasi_gaussian_block(200, 4, 7);
        assert_eq!(b1.as_slice(), b2.as_slice());
        let n = 800.0;
        let mean: f64 = b1.as_slice().iter().sum::<f64>() / n;
        let var: f64 = b1
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "variance {var}");
    }
}

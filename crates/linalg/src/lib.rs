//! Dense linear algebra substrate for BlinkML.
//!
//! This crate implements, from scratch, every matrix primitive the BlinkML
//! reproduction needs:
//!
//! * a row-major [`Matrix`] type plus BLAS-level-1/2/3 kernels ([`blas`]),
//! * a Cholesky factorization ([`cholesky`]),
//! * a symmetric eigensolver ([`eigen`]) based on Householder
//!   tridiagonalization followed by the implicit-shift QL iteration —
//!   the one spectral engine behind BlinkML's statistics phase.
//!
//! Everything operates on `f64`. The implementations favour clarity and
//! numerical robustness over micro-optimization, but the hot kernels
//! (`gemm`, `syrk`, `gemv`) use cache-friendly loop orders, and the
//! level-3 kernels have cache-blocked, chunk-parallel variants
//! (`par_gemm`, `par_syrk_t`, `par_syrk_n`) built on the deterministic
//! execution layer ([`exec`]) so the estimator hot paths scale with
//! cores without ever changing results.

pub mod blas;
pub mod cholesky;
pub mod eigen;
pub mod error;
pub mod exec;
pub mod matrix;
pub mod simd;
#[doc(hidden)]
pub mod testing;
pub mod vector;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use matrix::Matrix;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, LinalgError>;

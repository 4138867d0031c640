//! Error type shared by all factorizations.

use std::fmt;

/// Errors produced by the factorizations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
    },
    /// The matrix must be square for this operation.
    NotSquare {
        /// Actual shape encountered.
        shape: (usize, usize),
    },
    /// Cholesky failed: the matrix is not (numerically) positive definite.
    NotPositiveDefinite {
        /// Index of the pivot that failed.
        pivot: usize,
    },
    /// An iterative algorithm (the eigensolver) failed to converge.
    NoConvergence {
        /// Description of the algorithm that failed.
        algorithm: &'static str,
        /// Iteration budget that was exhausted.
        max_iterations: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::NoConvergence {
                algorithm,
                max_iterations,
            } => write!(
                f,
                "{algorithm} did not converge within {max_iterations} iterations"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = LinalgError::ShapeMismatch {
            op: "gemm",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert!(e.to_string().contains("gemm"));
        assert!(e.to_string().contains("2x3"));
    }

    #[test]
    fn display_not_positive_definite() {
        let e = LinalgError::NotPositiveDefinite { pivot: 3 };
        assert!(e.to_string().contains("positive definite"));
    }

    #[test]
    fn display_no_convergence() {
        let e = LinalgError::NoConvergence {
            algorithm: "tql2",
            max_iterations: 30,
        };
        assert!(e.to_string().contains("tql2"));
        assert!(e.to_string().contains("30"));
    }
}

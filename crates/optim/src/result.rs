//! Solver options, results, and errors.

use std::fmt;
use std::sync::Arc;

/// Cooperative cancellation probe polled once per solver iteration.
///
/// Wraps a shared closure so callers (e.g. a serving layer enforcing
/// per-query deadlines) can interrupt a long optimization between
/// iterations. The solvers never call it inside a line search, so a
/// run that is not cancelled takes exactly the same numeric path as a
/// run with no probe installed.
#[derive(Clone)]
pub struct StopCheck(pub Arc<dyn Fn() -> bool + Send + Sync>);

impl StopCheck {
    /// Wrap a closure; `true` means "stop now".
    pub fn new(f: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        StopCheck(Arc::new(f))
    }

    /// Poll the probe.
    pub fn should_stop(&self) -> bool {
        (self.0)()
    }
}

impl fmt::Debug for StopCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StopCheck(..)")
    }
}

/// Options of the quasi-Newton driver (both inverse-Hessian states).
#[derive(Debug, Clone)]
pub struct OptimOptions {
    /// Stop when the gradient infinity norm falls below this value.
    pub gradient_tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Optional cooperative cancellation probe, polled at the top of
    /// every iteration; when it returns `true` the solver aborts with
    /// [`OptimError::Cancelled`]. `None` (the default) adds no work to
    /// the iteration loop.
    pub stop_check: Option<StopCheck>,
}

impl OptimOptions {
    /// Poll the installed stop probe, if any.
    #[inline]
    pub fn should_stop(&self) -> bool {
        match &self.stop_check {
            Some(check) => check.should_stop(),
            None => false,
        }
    }
}

impl Default for OptimOptions {
    fn default() -> Self {
        OptimOptions {
            gradient_tolerance: 1e-6,
            max_iterations: 500,
            stop_check: None,
        }
    }
}

/// Outcome of a minimization run.
#[derive(Debug, Clone)]
pub struct OptimResult {
    /// Final parameter vector.
    pub theta: Vec<f64>,
    /// Final objective value.
    pub value: f64,
    /// Final gradient infinity norm.
    pub gradient_norm: f64,
    /// Iterations performed (paper Fig 8c compares these between full and
    /// approximate training).
    pub iterations: usize,
    /// Total objective evaluations, including line-search probes.
    pub function_evals: usize,
    /// Whether a tolerance (rather than the iteration cap) stopped the
    /// run.
    pub converged: bool,
}

/// Solver failures.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimError {
    /// The line search could not find an acceptable step; usually a
    /// non-descent direction or a non-finite objective.
    LineSearchFailed {
        /// Iteration at which the failure occurred.
        iteration: usize,
    },
    /// The objective produced NaN/inf at the starting point.
    NonFiniteObjective,
    /// Starting point has the wrong dimension.
    DimensionMismatch {
        /// Objective dimension.
        expected: usize,
        /// Provided starting-point dimension.
        got: usize,
    },
    /// The installed [`StopCheck`] asked the solver to abort
    /// (deadline expiry, external cancellation).
    Cancelled,
}

impl fmt::Display for OptimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimError::LineSearchFailed { iteration } => {
                write!(f, "line search failed at iteration {iteration}")
            }
            OptimError::NonFiniteObjective => {
                write!(f, "objective is not finite at the starting point")
            }
            OptimError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "starting point has dimension {got}, objective expects {expected}"
                )
            }
            OptimError::Cancelled => write!(f, "optimization cancelled by stop check"),
        }
    }
}

impl std::error::Error for OptimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_sane() {
        let o = OptimOptions::default();
        assert!(o.gradient_tolerance > 0.0);
        assert!(o.max_iterations > 0);
    }

    #[test]
    fn stop_check_polls_closure() {
        let opts = OptimOptions::default();
        assert!(!opts.should_stop());
        let opts = OptimOptions {
            stop_check: Some(StopCheck::new(|| true)),
            ..OptimOptions::default()
        };
        assert!(opts.should_stop());
        assert!(format!("{opts:?}").contains("StopCheck"));
    }

    #[test]
    fn errors_display() {
        assert!(OptimError::LineSearchFailed { iteration: 3 }
            .to_string()
            .contains("3"));
        assert!(OptimError::NonFiniteObjective
            .to_string()
            .contains("finite"));
        assert!(OptimError::DimensionMismatch {
            expected: 4,
            got: 2
        }
        .to_string()
        .contains("4"));
    }
}

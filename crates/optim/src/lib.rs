//! Optimization substrate for BlinkML.
//!
//! The paper trains every model by minimizing the regularized negative
//! log-likelihood (Equation 1) with BFGS for low-dimensional problems
//! (`d < 100`) and L-BFGS for high-dimensional ones (§5.1). This crate
//! implements both from scratch:
//!
//! * [`problem`] — the [`Objective`] trait (joint value+gradient
//!   evaluation, the natural granularity for log-likelihoods),
//! * [`linesearch`] — the strong-Wolfe line search (Nocedal & Wright
//!   Algorithms 3.5/3.6), resumable in the same way,
//! * [`bfgs`] — the one quasi-Newton driver: BFGS's dense
//!   inverse-Hessian estimate and L-BFGS's ring of m = 10 curvature
//!   pairs (two-loop recursion) are two states of one resumable solve
//!   ([`Solve`]), which hands out each probe point and is told its
//!   value, so a caller can drive many solves in batched rounds;
//!   [`minimize`] and [`minimize_with`] drive one against a single
//!   objective,
//! * [`result`] — convergence bookkeeping ([`OptimResult`]), including
//!   the iteration counts surfaced in the paper's Figure 8c.

pub mod bfgs;
pub mod linesearch;
pub mod problem;
pub mod result;

pub use bfgs::{MinimizeWorkspace, Solve};
pub use linesearch::{
    strong_wolfe, LineSearchResult, LineSearchScratch, SearchOutcome, WolfeParams,
};
pub use problem::{Objective, QuadraticObjective};
pub use result::{OptimError, OptimOptions, OptimResult, StopCheck};

/// Dimension threshold at which BlinkML switches from BFGS to L-BFGS
/// (paper §5.1).
pub const BFGS_DIMENSION_LIMIT: usize = 100;

/// Minimize `objective` with the solver the paper would pick for its
/// dimension: BFGS below [`BFGS_DIMENSION_LIMIT`], L-BFGS at or above it.
pub fn minimize(
    objective: &dyn Objective,
    theta0: &[f64],
    options: &OptimOptions,
) -> Result<OptimResult, OptimError> {
    minimize_with(objective, theta0, options, &mut MinimizeWorkspace::new())
}

/// [`minimize`] with caller-owned reusable solver state — bit-identical
/// to [`minimize`]; only steady-state allocation behavior differs.
pub fn minimize_with(
    objective: &dyn Objective,
    theta0: &[f64],
    options: &OptimOptions,
    workspace: &mut MinimizeWorkspace,
) -> Result<OptimResult, OptimError> {
    Solve::new(objective.dim(), theta0, options, workspace).run(objective)
}

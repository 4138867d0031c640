//! Optimization substrate for BlinkML.
//!
//! The paper trains every model by minimizing the regularized negative
//! log-likelihood (Equation 1) with BFGS for low-dimensional problems
//! (`d < 100`) and L-BFGS for high-dimensional ones (§5.1). This crate
//! implements both from scratch:
//!
//! * [`problem`] — the [`Objective`] trait (joint value+gradient
//!   evaluation, the natural granularity for log-likelihoods),
//! * [`linesearch`] — a strong-Wolfe line search (Nocedal & Wright
//!   Algorithms 3.5/3.6) shared by all solvers,
//! * [`bfgs`] — full-memory BFGS with a dense inverse-Hessian estimate,
//! * [`lbfgs`] — limited-memory L-BFGS (two-loop recursion, m = 10),
//! * [`result`] — convergence bookkeeping ([`OptimResult`]), including
//!   the iteration counts surfaced in the paper's Figure 8c.

pub mod bfgs;
pub mod lbfgs;
pub mod linesearch;
pub mod problem;
pub mod result;

pub use bfgs::{Bfgs, BfgsWorkspace};
pub use lbfgs::{Lbfgs, LbfgsWorkspace};
pub use linesearch::{
    strong_wolfe, strong_wolfe_buffered, LineSearchResult, LineSearchScratch, SearchOutcome,
    WolfeParams,
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

/// Caller-owned reusable solver state for [`minimize_with`]: holds both
/// solvers' workspaces so one instance serves a stream of fits whatever
/// dimension each dispatches to. The sweep engine keeps one per grid
/// point, so each λ's pilot and final fits share one set of
/// inverse-Hessian, curvature-pair and line-search probe buffers. Reuse
/// moves only allocations: every solve starts from its own `theta0`
/// with no state carried over.
#[derive(Default)]
pub struct MinimizeWorkspace {
    bfgs: BfgsWorkspace,
    lbfgs: LbfgsWorkspace,
}

impl MinimizeWorkspace {
    /// Empty workspace; buffers grow on first solve.
    pub fn new() -> Self {
        MinimizeWorkspace::default()
    }
}

/// [`minimize`] with caller-owned reusable solver state — bit-identical
/// to [`minimize`]; only steady-state allocation behavior differs.
pub fn minimize_with(
    objective: &dyn Objective,
    theta0: &[f64],
    options: &OptimOptions,
    workspace: &mut MinimizeWorkspace,
) -> Result<OptimResult, OptimError> {
    if objective.dim() < BFGS_DIMENSION_LIMIT {
        Bfgs::new(options.clone()).minimize_with(objective, theta0, &mut workspace.bfgs)
    } else {
        Lbfgs::new(options.clone()).minimize_with(objective, theta0, &mut workspace.lbfgs)
    }
}

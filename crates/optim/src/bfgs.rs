//! The quasi-Newton driver: BFGS and L-BFGS as two inverse-Hessian
//! states of one solve loop.
//!
//! Every solve runs the same steps — first evaluation, stop probe,
//! gradient test, strong-Wolfe search, precision-loss rule, the step
//! `s = αp` and gradient change `y`, curvature test, iteration cap. The
//! state only turns a gradient into a search direction and absorbs an
//! accepted curvature pair `(s, y)`:
//!
//! * **dense** — a `d × d` inverse-Hessian estimate (BFGS), BlinkML's
//!   choice for `d < 100` (paper §5.1);
//! * **limited** — a ring of the last m = 10 curvature pairs applied
//!   by Nocedal's two-loop recursion (L-BFGS), `O(m d)` per iteration,
//!   for `d ≥ 100`.
//!
//! The loop is resumable ([`Solve`]): instead of calling an objective it
//! hands out each point it needs evaluated and waits to be told the
//! value, so one caller can drive many solves and answer their probes
//! together, as a λ sweep's lockstep fits do with one fused kernel pass
//! per round. [`minimize_with`](crate::minimize_with) is the same solve
//! driven against a single objective.

use crate::linesearch::{LineSearchScratch, WolfeParams, WolfeSearch};
use crate::problem::Objective;
use crate::result::{OptimError, OptimOptions, OptimResult};
use blinkml_linalg::blas::ger;
use blinkml_linalg::vector::{dot, norm_inf};
use blinkml_linalg::Matrix;
use std::collections::VecDeque;

/// Curvature pairs the limited state keeps.
pub(crate) const LBFGS_MEMORY: usize = 10;

/// Caller-owned reusable solver state for
/// [`minimize_with`](crate::minimize_with) and [`Solve`]: one set of gradient,
/// direction, step and line-search probe buffers plus the active
/// inverse-Hessian state, so one instance serves a stream of fits
/// whatever dimension each runs at. The training pipeline's scratch keeps
/// one per lockstep solve, so a λ sweep's pilot and final fits, and its
/// later sweeps, share one allocation set.
/// Every buffer is fully (re)initialized on entry: reuse moves only
/// allocations, never a bit.
#[derive(Default)]
pub struct MinimizeWorkspace {
    grad: Vec<f64>,
    direction: Vec<f64>,
    s: Vec<f64>,
    y: Vec<f64>,
    scratch: LineSearchScratch,
    state: Option<InverseHessian>,
}

impl MinimizeWorkspace {
    /// Empty workspace; buffers grow on first solve.
    pub fn new() -> Self {
        MinimizeWorkspace::default()
    }

    /// Ready the workspace for a dimension-`d` solve: zero the vector
    /// buffers and install a fresh state — the identity estimate when
    /// `memory` is `None`, an empty `memory`-pair ring otherwise —
    /// recycling the previous state's allocations where they fit.
    fn reset(&mut self, d: usize, memory: Option<usize>) {
        for buf in [
            &mut self.grad,
            &mut self.direction,
            &mut self.s,
            &mut self.y,
        ] {
            buf.clear();
            buf.resize(d, 0.0);
        }
        self.state = Some(match (self.state.take(), memory) {
            (Some(InverseHessian::Dense(mut dense)), None) if dense.h.rows() == d => {
                set_identity(&mut dense.h);
                dense.scaled = false;
                InverseHessian::Dense(dense)
            }
            (_, None) => InverseHessian::Dense(Dense {
                h: Matrix::identity(d),
                hy: vec![0.0; d],
                scaled: false,
            }),
            (Some(InverseHessian::Limited(mut ring)), Some(memory)) => {
                ring.spare.extend(ring.pairs.drain(..));
                ring.memory = memory;
                InverseHessian::Limited(ring)
            }
            (_, Some(memory)) => InverseHessian::Limited(Limited {
                memory,
                pairs: VecDeque::new(),
                spare: Vec::new(),
                alphas: Vec::new(),
            }),
        });
    }
}

/// The inverse-Hessian estimate a solve carries between iterations.
enum InverseHessian {
    Dense(Dense),
    Limited(Limited),
}

/// BFGS's dense `d × d` estimate.
struct Dense {
    h: Matrix,
    /// `H y` of the update being absorbed.
    hy: Vec<f64>,
    /// Whether the identity has been rescaled to the first pair's
    /// secant curvature.
    scaled: bool,
}

/// L-BFGS's ring of the newest `memory` curvature pairs.
struct Limited {
    memory: usize,
    pairs: VecDeque<Pair>,
    /// Retired pairs whose allocations the next pushes reuse.
    spare: Vec<Pair>,
    alphas: Vec<f64>,
}

/// One stored curvature pair.
struct Pair {
    s: Vec<f64>,
    y: Vec<f64>,
    rho: f64,
}

/// Reset a square matrix to the identity in place.
fn set_identity(h: &mut Matrix) {
    for a in 0..h.rows() {
        let row = h.row_mut(a);
        row.fill(0.0);
        row[a] = 1.0;
    }
}

impl InverseHessian {
    /// Write the search direction `−H ∇f` into `out` (length `d`).
    fn direction_into(&mut self, grad: &[f64], out: &mut Vec<f64>) {
        match self {
            // One dot per row: `gemv`'s order, which the pinned
            // trajectories depend on.
            InverseHessian::Dense(dense) => {
                for (i, p) in out.iter_mut().enumerate() {
                    *p = -dot(dense.h.row(i), grad);
                }
            }
            InverseHessian::Limited(ring) => {
                two_loop_direction_into(grad, &ring.pairs, out, &mut ring.alphas)
            }
        }
    }

    /// Absorb the accepted pair `(s, y)` with `sy = sᵀy > 0` and
    /// `yy = yᵀy`.
    fn absorb(&mut self, s: &[f64], y: &[f64], sy: f64, yy: f64) {
        match self {
            InverseHessian::Dense(dense) => {
                let h = &mut dense.h;
                if !dense.scaled {
                    // H is still the identity: scale it to the secant
                    // curvature γ = sᵀy / yᵀy (Nocedal & Wright eq. 6.20)
                    // before the first update.
                    h.scale(sy / yy);
                    dense.scaled = true;
                }
                let rho = 1.0 / sy;
                for (i, hyi) in dense.hy.iter_mut().enumerate() {
                    *hyi = dot(h.row(i), y);
                }
                let coeff = rho * (1.0 + rho * dot(y, &dense.hy));
                ger(-rho, s, &dense.hy, h);
                ger(-rho, &dense.hy, s, h);
                ger(coeff, s, s, h);
            }
            InverseHessian::Limited(ring) => {
                // A full ring hands its oldest pair's buffers to the new
                // one.
                let mut pair = if ring.pairs.len() == ring.memory {
                    ring.pairs.pop_front().expect("memory > 0")
                } else {
                    ring.spare.pop().unwrap_or(Pair {
                        s: Vec::new(),
                        y: Vec::new(),
                        rho: 0.0,
                    })
                };
                pair.s.clear();
                pair.s.extend_from_slice(s);
                pair.y.clear();
                pair.y.extend_from_slice(y);
                pair.rho = 1.0 / sy;
                ring.pairs.push_back(pair);
            }
        }
    }
}

/// A quasi-Newton solve in flight: [`minimize_with`](crate::minimize_with)
/// as a resumable state machine, so one caller can drive many solves
/// and answer their probes in any order, or batch them.
///
/// [`probe`](Self::probe) hands out the point the solve needs evaluated
/// and the buffer its gradient goes into; [`tell`](Self::tell) takes the
/// objective's value there and runs the solve on to its next probe or
/// its end; [`finish`](Self::finish) returns the result. Driven against
/// one objective, the solve is `minimize_with`: the same float
/// operations in the same order, the same `stop_check` polls at the
/// top of every iteration, the same recycled buffers.
pub struct Solve<'a> {
    options: &'a OptimOptions,
    ws: &'a mut MinimizeWorkspace,
    theta: Vec<f64>,
    value: f64,
    function_evals: usize,
    iteration: usize,
    stage: Stage,
}

enum Stage {
    /// Waiting for the objective at `θ₀`.
    Start,
    /// Waiting for a line-search probe; the gradient infinity norm at
    /// the search's start point rides along.
    Search(WolfeSearch, f64),
    Done(Result<OptimResult, OptimError>),
}

impl<'a> Solve<'a> {
    /// Start minimizing a dimension-`dim` objective from `theta0` on
    /// `workspace`, with the state the paper picks for `dim`: BFGS below
    /// [`BFGS_DIMENSION_LIMIT`](crate::BFGS_DIMENSION_LIMIT), L-BFGS at or
    /// above it.
    pub fn new(
        dim: usize,
        theta0: &[f64],
        options: &'a OptimOptions,
        workspace: &'a mut MinimizeWorkspace,
    ) -> Self {
        let memory = (dim >= crate::BFGS_DIMENSION_LIMIT).then_some(LBFGS_MEMORY);
        Solve::with_memory(dim, theta0, options, workspace, memory)
    }

    /// [`Solve::new`] with the dense estimate (`memory = None`) or an
    /// L-BFGS ring of `memory ≥ 1` pairs; tests reach either state at
    /// any dimension through here.
    pub(crate) fn with_memory(
        dim: usize,
        theta0: &[f64],
        options: &'a OptimOptions,
        ws: &'a mut MinimizeWorkspace,
        memory: Option<usize>,
    ) -> Self {
        debug_assert!(memory != Some(0), "an L-BFGS ring needs one pair");
        let stage = if theta0.len() == dim {
            ws.reset(dim, memory);
            Stage::Start
        } else {
            Stage::Done(Err(OptimError::DimensionMismatch {
                expected: dim,
                got: theta0.len(),
            }))
        };
        Solve {
            options,
            ws,
            theta: theta0.to_vec(),
            value: 0.0,
            function_evals: 0,
            iteration: 0,
            stage,
        }
    }

    /// The point to evaluate next and the buffer its gradient goes
    /// into, or `None` once the solve has finished.
    pub fn probe(&mut self) -> Option<(&[f64], &mut [f64])> {
        match &mut self.stage {
            Stage::Start => Some((&self.theta, &mut self.ws.grad)),
            Stage::Search(search, _) => search.probe(),
            Stage::Done(_) => None,
        }
    }

    /// Whether the solve has finished.
    pub fn is_done(&self) -> bool {
        matches!(self.stage, Stage::Done(_))
    }

    /// Take the objective's value at the pending probe, whose gradient
    /// the caller has written into the probe's buffer, and run the solve
    /// on to its next probe or its end: each iteration checks the
    /// iteration cap, polls the stop probe, tests the gradient and
    /// starts a line search along the state's direction.
    ///
    /// # Panics
    /// Panics when the solve has finished.
    pub fn tell(&mut self, value: f64) {
        let mut in_flight = match std::mem::replace(&mut self.stage, Stage::Start) {
            Stage::Start => {
                self.value = value;
                self.function_evals = 1;
                if !value.is_finite() {
                    self.stage = Stage::Done(Err(OptimError::NonFiniteObjective));
                    return;
                }
                None
            }
            Stage::Search(mut search, gnorm) => {
                search.tell(value, &self.theta, &self.ws.direction);
                Some((search, gnorm))
            }
            Stage::Done(_) => panic!("no probe is pending: the solve has finished"),
        };
        loop {
            if let Some((mut search, gnorm)) = in_flight.take() {
                if search.probe().is_some() {
                    self.stage = Stage::Search(search, gnorm);
                    return;
                }
                if !self.end_search(search, gnorm) {
                    return;
                }
            }
            if self.iteration == self.options.max_iterations {
                return self.end(norm_inf(&self.ws.grad), false);
            }
            if self.options.should_stop() {
                self.stage = Stage::Done(Err(OptimError::Cancelled));
                return;
            }
            let gnorm = norm_inf(&self.ws.grad);
            if gnorm <= self.options.gradient_tolerance {
                return self.end(gnorm, true);
            }
            let ws = &mut *self.ws;
            let state = ws.state.as_mut().expect("reset installs a state");
            state.direction_into(&ws.grad, &mut ws.direction);
            let wolfe = WolfeParams::default();
            let search = WolfeSearch::new(
                &self.theta,
                self.value,
                &ws.grad,
                &ws.direction,
                &wolfe,
                &mut ws.scratch,
            );
            in_flight = Some((search, gnorm));
        }
    }

    /// The solve's result.
    ///
    /// # Panics
    /// Panics while a probe is still pending.
    pub fn finish(self) -> Result<OptimResult, OptimError> {
        match self.stage {
            Stage::Done(result) => result,
            _ => panic!("the solve still has a pending probe"),
        }
    }

    /// Drive the solve to its end against one objective.
    pub(crate) fn run(mut self, objective: &dyn Objective) -> Result<OptimResult, OptimError> {
        while let Some((theta, grad)) = self.probe() {
            let value = objective.value_grad_into(theta, grad);
            self.tell(value);
        }
        self.finish()
    }

    /// Close the current iteration's finished line search: take the
    /// accepted step and absorb its curvature pair, returning `true`,
    /// or end the solve when no step was found.
    fn end_search(&mut self, search: WolfeSearch, gnorm: f64) -> bool {
        let ws = &mut *self.ws;
        let outcome = search.finish(&mut ws.scratch);
        // Probe evaluations are charged whether or not the search
        // succeeded.
        self.function_evals += outcome.evals;
        let Some(ls) = outcome.result else {
            // Near the minimum, objective decreases can underflow f64
            // resolution and no step passes the Wolfe tests. With a
            // gradient at round-off scale this is convergence, not
            // failure (scipy reports the same as "precision loss").
            if gnorm <= 4.0 * f64::EPSILON.sqrt() * (1.0 + self.value.abs()) {
                self.end(gnorm, true);
            } else {
                self.stage = Stage::Done(Err(OptimError::LineSearchFailed {
                    iteration: self.iteration,
                }));
            }
            return false;
        };

        for (si, p) in ws.s.iter_mut().zip(&ws.direction) {
            *si = ls.alpha * p;
        }
        for ((yi, gn), go) in ws.y.iter_mut().zip(&ls.gradient).zip(&ws.grad) {
            *yi = gn - go;
        }
        for (t, si) in self.theta.iter_mut().zip(&ws.s) {
            *t += si;
        }
        self.value = ls.value;
        ws.scratch
            .recycle(std::mem::replace(&mut ws.grad, ls.gradient));

        let (sy, yy) = (dot(&ws.s, &ws.y), dot(&ws.y, &ws.y));
        if sy > 1e-10 * yy.sqrt().max(1.0) {
            let state = ws.state.as_mut().expect("reset installs a state");
            state.absorb(&ws.s, &ws.y, sy, yy);
        }
        self.iteration += 1;
        true
    }

    /// End the solve at the current iterate, whose gradient infinity
    /// norm is `gnorm`.
    fn end(&mut self, gnorm: f64, converged: bool) {
        self.stage = Stage::Done(Ok(OptimResult {
            theta: std::mem::take(&mut self.theta),
            value: self.value,
            gradient_norm: gnorm,
            iterations: self.iteration,
            function_evals: self.function_evals,
            converged,
        }));
    }
}

/// Nocedal's two-loop recursion, writing `−H_k ∇f` (with `H_k` the
/// implicit L-BFGS inverse-Hessian estimate) into the reused `q` and
/// `alphas` buffers.
fn two_loop_direction_into(
    grad: &[f64],
    pairs: &VecDeque<Pair>,
    q: &mut Vec<f64>,
    alphas: &mut Vec<f64>,
) {
    q.clear();
    q.extend_from_slice(grad);
    alphas.clear();
    for pair in pairs.iter().rev() {
        let alpha = pair.rho * dot(&pair.s, q);
        for (qi, yi) in q.iter_mut().zip(&pair.y) {
            *qi -= alpha * yi;
        }
        alphas.push(alpha);
    }
    // Initial Hessian scaling γ = sᵀy / yᵀy from the newest pair.
    if let Some(newest) = pairs.back() {
        let gamma = dot(&newest.s, &newest.y) / dot(&newest.y, &newest.y);
        for qi in q.iter_mut() {
            *qi *= gamma;
        }
    }
    for (pair, alpha) in pairs.iter().zip(alphas.iter().rev()) {
        let beta = pair.rho * dot(&pair.y, q);
        let coeff = alpha - beta;
        for (qi, si) in q.iter_mut().zip(&pair.s) {
            *qi += coeff * si;
        }
    }
    for qi in q.iter_mut() {
        *qi = -*qi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{QuadraticObjective, Rosenbrock};

    /// The solve in either state (`memory` as in
    /// [`Solve::with_memory`]), driven against one objective.
    fn solve(
        objective: &dyn Objective,
        theta0: &[f64],
        options: &OptimOptions,
        ws: &mut MinimizeWorkspace,
        memory: Option<usize>,
    ) -> Result<OptimResult, OptimError> {
        Solve::with_memory(objective.dim(), theta0, options, ws, memory).run(objective)
    }

    /// The dense state (BFGS) at any dimension, on a fresh workspace.
    fn dense(
        objective: &dyn Objective,
        theta0: &[f64],
        options: OptimOptions,
    ) -> Result<OptimResult, OptimError> {
        solve(
            objective,
            theta0,
            &options,
            &mut MinimizeWorkspace::new(),
            None,
        )
    }

    /// The limited state (L-BFGS, m = 10) at any dimension, on a fresh
    /// workspace.
    fn limited(
        objective: &dyn Objective,
        theta0: &[f64],
        options: OptimOptions,
    ) -> Result<OptimResult, OptimError> {
        let memory = Some(LBFGS_MEMORY);
        solve(
            objective,
            theta0,
            &options,
            &mut MinimizeWorkspace::new(),
            memory,
        )
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Same iterations, evaluations, value and θ bits.
    fn assert_same_solve(a: &OptimResult, b: &OptimResult) {
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.function_evals, b.function_evals);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(bits(&a.theta), bits(&b.theta));
    }

    fn spd_quadratic(d: usize) -> (QuadraticObjective, Vec<f64>) {
        // A = tridiagonal SPD, b = ones; solution solves Aθ = b.
        let mut a = Matrix::zeros(d, d);
        for i in 0..d {
            a[(i, i)] = 2.0 + i as f64 * 0.1;
            if i + 1 < d {
                a[(i, i + 1)] = -0.5;
                a[(i + 1, i)] = -0.5;
            }
        }
        let b = vec![1.0; d];
        let solution = blinkml_linalg::Cholesky::new(&a)
            .unwrap()
            .solve(&b)
            .unwrap();
        (QuadraticObjective::new(a, b), solution)
    }

    /// `minimize` on both sides of the dimension limit, pinned to the
    /// bits the separate BFGS and L-BFGS solvers produced before they
    /// became two states of this driver: Rosenbrock (dense) and the
    /// d = 150 quadratic (limited). θ at d = 150 is pinned through an
    /// FNV-1a digest of every coordinate's bits.
    #[test]
    fn trajectory_bits_are_pinned() {
        let options = OptimOptions::default();
        let r = crate::minimize(&Rosenbrock, &[-1.2, 1.0], &options).unwrap();
        assert_eq!(
            (r.iterations, r.function_evals, r.converged),
            (36, 62, true)
        );
        assert_eq!(r.value.to_bits(), 0x3cfc_c508_2302_fba8);
        assert_eq!(
            bits(&r.theta),
            [0x3ff0_0000_1573_f1df, 0x3ff0_0000_2ae0_54ff]
        );

        let (q, _) = lbfgs::spd_quadratic(150);
        let r = crate::minimize(&q, &[0.0; 150], &options).unwrap();
        assert_eq!(
            (r.iterations, r.function_evals, r.converged),
            (13, 15, true)
        );
        assert_eq!(r.value.to_bits(), 0xc028_e2ae_67ec_8f73);
        let digest = r.theta.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, t| {
            (h ^ t.to_bits()).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(digest, 0x36be_2048_9dc4_9263);
    }

    /// One workspace reused across a stream that switches between the
    /// two states and dimensions is bit-identical to fresh solves.
    #[test]
    fn workspace_reuse_across_states_is_bitwise_fresh_solves() {
        let mut ws = MinimizeWorkspace::new();
        let (q8, _) = spd_quadratic(8);
        let (q20, _) = lbfgs::spd_quadratic(20);
        let options = OptimOptions::default();
        let runs: [(&QuadraticObjective, Option<usize>); 5] = [
            (&q8, None),
            (&q20, Some(LBFGS_MEMORY)),
            (&q8, Some(LBFGS_MEMORY)),
            (&q20, None),
            (&q8, None),
        ];
        for (obj, memory) in runs {
            let start = vec![0.1; obj.dim()];
            let fresh = solve(obj, &start, &options, &mut MinimizeWorkspace::new(), memory);
            let reused = solve(obj, &start, &options, &mut ws, memory);
            assert_same_solve(&fresh.unwrap(), &reused.unwrap());
        }
    }

    #[test]
    fn solves_quadratic_exactly() {
        let (q, solution) = spd_quadratic(8);
        let res = dense(&q, &[0.0; 8], OptimOptions::default()).unwrap();
        assert!(res.converged, "did not converge: {res:?}");
        for (t, s) in res.theta.iter().zip(&solution) {
            assert!((t - s).abs() < 1e-5, "{t} vs {s}");
        }
    }

    #[test]
    fn converges_on_rosenbrock() {
        let options = OptimOptions {
            max_iterations: 500,
            ..OptimOptions::default()
        };
        let res = dense(&Rosenbrock, &[-1.2, 1.0], options).unwrap();
        assert!(res.converged, "gradient norm {}", res.gradient_norm);
        assert!((res.theta[0] - 1.0).abs() < 1e-4);
        assert!((res.theta[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn already_at_minimum_returns_immediately() {
        let (q, solution) = spd_quadratic(4);
        let res = dense(&q, &solution, OptimOptions::default()).unwrap();
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn respects_iteration_cap() {
        let options = OptimOptions {
            max_iterations: 2,
            gradient_tolerance: 1e-16,
            ..OptimOptions::default()
        };
        let res = dense(&Rosenbrock, &[-1.2, 1.0], options).unwrap();
        assert!(!res.converged);
        assert_eq!(res.iterations, 2);
    }

    /// Reusing one workspace across solves of different dimensions must
    /// be bit-identical to fresh solves.
    #[test]
    fn workspace_reuse_is_bitwise_fresh_solves() {
        let mut ws = MinimizeWorkspace::new();
        let options = OptimOptions::default();
        let (q8, _) = spd_quadratic(8);
        let (q4, _) = spd_quadratic(4);
        let runs: Vec<(&QuadraticObjective, Vec<f64>)> = vec![
            (&q8, vec![0.0; 8]),
            (&q4, vec![0.2; 4]),
            (&q8, vec![-0.1; 8]),
        ];
        for (obj, start) in runs {
            let fresh = dense(obj, &start, options.clone()).unwrap();
            let reused = solve(obj, &start, &options, &mut ws, None).unwrap();
            assert_same_solve(&fresh, &reused);
        }
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let (q, _) = spd_quadratic(4);
        assert!(matches!(
            dense(&q, &[0.0; 3], OptimOptions::default()),
            Err(OptimError::DimensionMismatch { .. })
        ));
    }

    /// The limited state's cases (L-BFGS), run below the dimension
    /// limit where `minimize` would pick the dense state.
    mod lbfgs {
        use super::*;
        use blinkml_linalg::blas::gemm_nt;
        use proptest::prelude::*;

        pub(super) fn spd_quadratic(d: usize) -> (QuadraticObjective, Vec<f64>) {
            let mut a = Matrix::zeros(d, d);
            for i in 0..d {
                a[(i, i)] = 3.0 + (i % 5) as f64;
                if i + 1 < d {
                    a[(i, i + 1)] = -1.0;
                    a[(i + 1, i)] = -1.0;
                }
            }
            let b: Vec<f64> = (0..d).map(|i| (i as f64 * 0.7).sin()).collect();
            let solution = blinkml_linalg::Cholesky::new(&a)
                .unwrap()
                .solve(&b)
                .unwrap();
            (QuadraticObjective::new(a, b), solution)
        }

        #[test]
        fn solves_medium_quadratic() {
            let (q, solution) = spd_quadratic(60);
            let res = limited(&q, &[0.0; 60], OptimOptions::default()).unwrap();
            assert!(res.converged, "grad norm {}", res.gradient_norm);
            for (t, s) in res.theta.iter().zip(&solution) {
                assert!((t - s).abs() < 1e-4);
            }
        }

        #[test]
        fn converges_on_rosenbrock() {
            let options = OptimOptions {
                max_iterations: 1000,
                ..OptimOptions::default()
            };
            let res = limited(&Rosenbrock, &[-1.2, 1.0], options).unwrap();
            assert!(res.converged);
            assert!((res.theta[0] - 1.0).abs() < 1e-4);
        }

        #[test]
        fn agrees_with_bfgs_on_small_problem() {
            let (q, _) = spd_quadratic(10);
            let full = dense(&q, &[0.1; 10], OptimOptions::default()).unwrap();
            let ring = limited(&q, &[0.1; 10], OptimOptions::default()).unwrap();
            for (a, b) in full.theta.iter().zip(&ring.theta) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }

        #[test]
        fn memory_one_still_converges() {
            let (q, _) = spd_quadratic(20);
            let options = OptimOptions {
                max_iterations: 2000,
                ..OptimOptions::default()
            };
            let mut ws = MinimizeWorkspace::new();
            let res = solve(&q, &[0.0; 20], &options, &mut ws, Some(1)).unwrap();
            assert!(res.converged);
        }

        #[test]
        fn two_loop_with_no_pairs_is_steepest_descent() {
            let grad = vec![1.0, -2.0, 3.0];
            let mut dir = Vec::new();
            let mut alphas = Vec::new();
            two_loop_direction_into(&grad, &VecDeque::new(), &mut dir, &mut alphas);
            assert_eq!(dir, vec![-1.0, 2.0, -3.0]);
        }

        /// Reusing one workspace across a stream of solves — different
        /// problems, dimensions, and starts — must be bit-identical to
        /// fresh solves.
        #[test]
        fn workspace_reuse_is_bitwise_fresh_solves() {
            let mut ws = MinimizeWorkspace::new();
            let options = OptimOptions::default();
            let (q60, _) = spd_quadratic(60);
            let (q20, _) = spd_quadratic(20);
            let runs: Vec<(&QuadraticObjective, Vec<f64>)> = vec![
                (&q60, vec![0.0; 60]),
                (&q20, vec![0.1; 20]),
                (&q60, (0..60).map(|i| 0.01 * i as f64).collect()),
            ];
            for (obj, start) in runs {
                let fresh = limited(obj, &start, options.clone()).unwrap();
                let reused = solve(obj, &start, &options, &mut ws, Some(LBFGS_MEMORY)).unwrap();
                assert_same_solve(&fresh, &reused);
            }
        }

        #[test]
        fn rejects_dimension_mismatch() {
            let (q, _) = spd_quadratic(5);
            assert!(limited(&q, &[0.0; 4], OptimOptions::default()).is_err());
        }

        #[test]
        fn iteration_counts_are_reported() {
            let (q, _) = spd_quadratic(30);
            let res = limited(&q, &[0.0; 30], OptimOptions::default()).unwrap();
            assert!(res.iterations > 0);
            assert!(res.function_evals >= res.iterations);
        }

        /// Random strongly convex quadratic of dimension `d` with its
        /// exact minimizer.
        fn random_quadratic(d: usize) -> impl Strategy<Value = (QuadraticObjective, Vec<f64>)> {
            (
                proptest::collection::vec(-1.0f64..1.0, d * d),
                proptest::collection::vec(-2.0f64..2.0, d),
            )
                .prop_map(move |(bdata, lin)| {
                    let b = Matrix::from_vec(d, d, bdata);
                    let mut a = gemm_nt(&b, &b).unwrap();
                    a.add_diag(d as f64 * 0.5 + 0.5);
                    let solution = blinkml_linalg::Cholesky::new(&a)
                        .unwrap()
                        .solve(&lin)
                        .unwrap();
                    (QuadraticObjective::new(a, lin), solution)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn lbfgs_finds_quadratic_minimum((q, solution) in random_quadratic(8)) {
                let res = limited(&q, &[0.0; 8], OptimOptions::default()).unwrap();
                prop_assert!(res.converged);
                for (t, s) in res.theta.iter().zip(&solution) {
                    prop_assert!((t - s).abs() < 1e-4);
                }
            }

            #[test]
            fn solvers_agree_on_the_minimizer((q, _) in random_quadratic(5)) {
                let a = dense(&q, &[0.2; 5], OptimOptions::default()).unwrap();
                let b = limited(&q, &[0.2; 5], OptimOptions::default()).unwrap();
                for (x, y) in a.theta.iter().zip(&b.theta) {
                    prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
                }
            }
        }
    }
}

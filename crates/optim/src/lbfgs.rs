//! Limited-memory BFGS (two-loop recursion).
//!
//! Stores only the last `m` curvature pairs, making the per-iteration
//! cost `O(m d)` — BlinkML's solver for `d >= 100` (paper §5.1).

use crate::linesearch::{strong_wolfe_buffered, LineSearchScratch, WolfeParams};
use crate::problem::Objective;
use crate::result::{OptimError, OptimOptions, OptimResult};
use blinkml_linalg::vector::{dot, norm_inf};
use std::collections::VecDeque;

/// One stored curvature pair.
struct Pair {
    s: Vec<f64>,
    y: Vec<f64>,
    rho: f64,
}

/// Caller-owned reusable L-BFGS state for repeated fits
/// ([`Lbfgs::minimize_with`]): the curvature-pair ring, the two-loop
/// direction buffers, and the line-search probe pool all survive across
/// solves, so a grid of related fits (a λ sweep's per-point solves)
/// allocates nothing after the first. Every buffer is fully
/// (re)initialized on entry, so reuse never changes a bit.
#[derive(Default)]
pub struct LbfgsWorkspace {
    pairs: VecDeque<Pair>,
    spare: Vec<Pair>,
    scratch: LineSearchScratch,
    direction: Vec<f64>,
    alphas: Vec<f64>,
    s_work: Vec<f64>,
    y_work: Vec<f64>,
    grad: Vec<f64>,
}

impl LbfgsWorkspace {
    /// Empty workspace; buffers grow on first solve.
    pub fn new() -> Self {
        LbfgsWorkspace::default()
    }

    /// Ready the workspace for a dimension-`d` solve: zero the gradient
    /// and step buffers, retire the previous solve's curvature pairs to
    /// the spare list (their allocations are recycled pair by pair).
    fn reset(&mut self, d: usize) {
        self.grad.clear();
        self.grad.resize(d, 0.0);
        self.s_work.clear();
        self.s_work.resize(d, 0.0);
        self.y_work.clear();
        self.y_work.resize(d, 0.0);
        while let Some(p) = self.pairs.pop_front() {
            self.spare.push(p);
        }
    }

    /// A zeroed dimension-`d` pair, reusing a retired allocation when
    /// one is available.
    fn fresh_pair(&mut self, d: usize) -> Pair {
        match self.spare.pop() {
            Some(mut p) => {
                p.s.clear();
                p.s.resize(d, 0.0);
                p.y.clear();
                p.y.resize(d, 0.0);
                p.rho = 0.0;
                p
            }
            None => Pair {
                s: vec![0.0; d],
                y: vec![0.0; d],
                rho: 0.0,
            },
        }
    }
}

/// L-BFGS solver.
#[derive(Debug, Clone)]
pub struct Lbfgs {
    options: OptimOptions,
    wolfe: WolfeParams,
}

impl Lbfgs {
    /// Solver with the given options and default Wolfe parameters.
    pub fn new(options: OptimOptions) -> Self {
        Lbfgs {
            options,
            wolfe: WolfeParams::default(),
        }
    }

    /// Minimize `objective` from `theta0`.
    pub fn minimize(
        &self,
        objective: &dyn Objective,
        theta0: &[f64],
    ) -> Result<OptimResult, OptimError> {
        self.minimize_with(objective, theta0, &mut LbfgsWorkspace::new())
    }

    /// [`Self::minimize`] with caller-owned reusable state: repeated
    /// fits hand the same [`LbfgsWorkspace`] back in, so the curvature
    /// pairs, direction buffers, and line-search probe pool are
    /// recycled across solves instead of reallocated per fit.
    /// Bit-identical to [`Self::minimize`].
    pub fn minimize_with(
        &self,
        objective: &dyn Objective,
        theta0: &[f64],
        ws: &mut LbfgsWorkspace,
    ) -> Result<OptimResult, OptimError> {
        let d = objective.dim();
        if theta0.len() != d {
            return Err(OptimError::DimensionMismatch {
                expected: d,
                got: theta0.len(),
            });
        }
        let mut theta = theta0.to_vec();
        // Per-iteration work buffers: the search direction, the two-loop
        // alpha stack, the candidate curvature pair, and the line-search
        // probe pool all live in the workspace and are reused across
        // iterations (and across fits), so a converged solve allocates
        // nothing after its first few iterations.
        ws.reset(d);
        let mut value = objective.value_grad_into(&theta, &mut ws.grad);
        if !value.is_finite() {
            return Err(OptimError::NonFiniteObjective);
        }
        let mut function_evals = 1usize;
        let memory = self.options.lbfgs_memory.max(1);

        for iteration in 0..self.options.max_iterations {
            if self.options.should_stop() {
                return Err(OptimError::Cancelled);
            }
            let gnorm = norm_inf(&ws.grad);
            if gnorm <= self.options.gradient_tolerance {
                return Ok(OptimResult {
                    theta,
                    value,
                    gradient_norm: gnorm,
                    iterations: iteration,
                    function_evals,
                    converged: true,
                });
            }
            two_loop_direction_into(&ws.grad, &ws.pairs, &mut ws.direction, &mut ws.alphas);
            let outcome = strong_wolfe_buffered(
                objective,
                &theta,
                value,
                &ws.grad,
                &ws.direction,
                &self.wolfe,
                &mut ws.scratch,
            );
            // Probe evaluations are charged whether or not the search
            // succeeded — the same accounting as BFGS.
            function_evals += outcome.evals;
            let Some(ls) = outcome.result else {
                // Same precision-loss handling as BFGS: a failed line
                // search with a round-off-scale gradient is convergence.
                if gnorm <= 4.0 * f64::EPSILON.sqrt() * (1.0 + value.abs()) {
                    return Ok(OptimResult {
                        theta,
                        value,
                        gradient_norm: gnorm,
                        iterations: iteration,
                        function_evals,
                        converged: true,
                    });
                }
                return Err(OptimError::LineSearchFailed { iteration });
            };

            for (sw, p) in ws.s_work.iter_mut().zip(&ws.direction) {
                *sw = ls.alpha * p;
            }
            for ((yw, gn), go) in ws.y_work.iter_mut().zip(&ls.gradient).zip(&ws.grad) {
                *yw = gn - go;
            }
            let prev_value = value;
            for (t, si) in theta.iter_mut().zip(&ws.s_work) {
                *t += si;
            }
            value = ls.value;
            let old_grad = std::mem::replace(&mut ws.grad, ls.gradient);
            ws.scratch.recycle(old_grad);

            let sy = dot(&ws.s_work, &ws.y_work);
            if sy > 1e-10 * dot(&ws.y_work, &ws.y_work).sqrt().max(1.0) {
                // Recycle the evicted pair's buffers for the new pair.
                let mut pair = if ws.pairs.len() == memory {
                    ws.pairs.pop_front().expect("memory > 0")
                } else {
                    ws.fresh_pair(d)
                };
                pair.s.copy_from_slice(&ws.s_work);
                pair.y.copy_from_slice(&ws.y_work);
                pair.rho = 1.0 / sy;
                ws.pairs.push_back(pair);
            }

            if self.options.value_tolerance > 0.0 {
                let rel = (prev_value - value).abs() / prev_value.abs().max(1.0);
                if rel < self.options.value_tolerance {
                    return Ok(OptimResult {
                        gradient_norm: norm_inf(&ws.grad),
                        theta,
                        value,
                        iterations: iteration + 1,
                        function_evals,
                        converged: true,
                    });
                }
            }
        }
        Ok(OptimResult {
            gradient_norm: norm_inf(&ws.grad),
            theta,
            value,
            iterations: self.options.max_iterations,
            function_evals,
            converged: false,
        })
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
    use crate::bfgs::Bfgs;
    use crate::problem::{QuadraticObjective, Rosenbrock};
    use blinkml_linalg::Matrix;

    fn spd_quadratic(d: usize) -> (QuadraticObjective, Vec<f64>) {
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
        let res = Lbfgs::new(OptimOptions::default())
            .minimize(&q, &vec![0.0; 60])
            .unwrap();
        assert!(res.converged, "grad norm {}", res.gradient_norm);
        for (t, s) in res.theta.iter().zip(&solution) {
            assert!((t - s).abs() < 1e-4);
        }
    }

    #[test]
    fn converges_on_rosenbrock() {
        let res = Lbfgs::new(OptimOptions {
            max_iterations: 1000,
            ..OptimOptions::default()
        })
        .minimize(&Rosenbrock, &[-1.2, 1.0])
        .unwrap();
        assert!(res.converged);
        assert!((res.theta[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn agrees_with_bfgs_on_small_problem() {
        let (q, _) = spd_quadratic(10);
        let full = Bfgs::new(OptimOptions::default())
            .minimize(&q, &[0.1; 10])
            .unwrap();
        let limited = Lbfgs::new(OptimOptions::default())
            .minimize(&q, &[0.1; 10])
            .unwrap();
        for (a, b) in full.theta.iter().zip(&limited.theta) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn memory_one_still_converges() {
        let (q, _) = spd_quadratic(20);
        let res = Lbfgs::new(OptimOptions {
            lbfgs_memory: 1,
            max_iterations: 2000,
            ..OptimOptions::default()
        })
        .minimize(&q, &[0.0; 20])
        .unwrap();
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
    /// fresh `minimize` calls.
    #[test]
    fn workspace_reuse_is_bitwise_fresh_solves() {
        let mut ws = LbfgsWorkspace::new();
        let solver = Lbfgs::new(OptimOptions::default());
        let (q60, _) = spd_quadratic(60);
        let (q20, _) = spd_quadratic(20);
        let runs: Vec<(&QuadraticObjective, Vec<f64>)> = vec![
            (&q60, vec![0.0; 60]),
            (&q20, vec![0.1; 20]),
            (&q60, (0..60).map(|i| 0.01 * i as f64).collect()),
        ];
        for (obj, start) in runs {
            let fresh = solver.minimize(obj, &start).unwrap();
            let reused = solver.minimize_with(obj, &start, &mut ws).unwrap();
            assert_eq!(fresh.iterations, reused.iterations);
            assert_eq!(fresh.function_evals, reused.function_evals);
            assert_eq!(fresh.value.to_bits(), reused.value.to_bits());
            for (a, b) in fresh.theta.iter().zip(&reused.theta) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let (q, _) = spd_quadratic(5);
        assert!(Lbfgs::new(OptimOptions::default())
            .minimize(&q, &[0.0; 4])
            .is_err());
    }

    #[test]
    fn iteration_counts_are_reported() {
        let (q, _) = spd_quadratic(30);
        let res = Lbfgs::new(OptimOptions::default())
            .minimize(&q, &vec![0.0; 30])
            .unwrap();
        assert!(res.iterations > 0);
        assert!(res.function_evals >= res.iterations);
    }
}

//! Full-memory BFGS.
//!
//! Maintains a dense `d x d` inverse-Hessian estimate, so it is the right
//! choice only for low-dimensional problems; BlinkML uses it for
//! `d < 100` (paper §5.1) and switches to [`crate::lbfgs::Lbfgs`] above.

use crate::linesearch::{strong_wolfe_buffered, LineSearchScratch, WolfeParams};
use crate::problem::Objective;
use crate::result::{OptimError, OptimOptions, OptimResult};
use blinkml_linalg::blas::{gemv, ger};
use blinkml_linalg::vector::{dot, norm_inf};
use blinkml_linalg::Matrix;

/// Caller-owned reusable BFGS state for repeated fits
/// ([`Bfgs::minimize_with`]): the dense `d × d` inverse-Hessian
/// estimate, the gradient buffer, and the line-search probe pool
/// survive across solves, so a grid of related fits reuses one
/// allocation set. Every buffer is fully (re)initialized on entry, so
/// reuse never changes a bit.
#[derive(Default)]
pub struct BfgsWorkspace {
    h: Option<Matrix>,
    grad: Vec<f64>,
    scratch: LineSearchScratch,
}

impl BfgsWorkspace {
    /// Empty workspace; buffers grow on first solve.
    pub fn new() -> Self {
        BfgsWorkspace::default()
    }

    /// Ready the workspace for a dimension-`d` solve: zero the gradient
    /// buffer and reset the inverse-Hessian estimate to the identity,
    /// reusing its allocation when the dimension matches.
    fn reset(&mut self, d: usize) {
        self.grad.clear();
        self.grad.resize(d, 0.0);
        match &mut self.h {
            Some(h) if h.rows() == d && h.cols() == d => {
                for a in 0..d {
                    let row = h.row_mut(a);
                    row.fill(0.0);
                    row[a] = 1.0;
                }
            }
            h => *h = Some(Matrix::identity(d)),
        }
    }
}

/// BFGS solver.
#[derive(Debug, Clone)]
pub struct Bfgs {
    options: OptimOptions,
    wolfe: WolfeParams,
}

impl Bfgs {
    /// Solver with the given options and default Wolfe parameters.
    pub fn new(options: OptimOptions) -> Self {
        Bfgs {
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
        self.minimize_with(objective, theta0, &mut BfgsWorkspace::new())
    }

    /// [`Self::minimize`] with caller-owned reusable state: repeated
    /// fits hand the same [`BfgsWorkspace`] back in, so the dense
    /// inverse-Hessian estimate and the line-search probe pool are
    /// recycled across solves instead of reallocated per fit.
    /// Bit-identical to [`Self::minimize`].
    pub fn minimize_with(
        &self,
        objective: &dyn Objective,
        theta0: &[f64],
        ws: &mut BfgsWorkspace,
    ) -> Result<OptimResult, OptimError> {
        let d = objective.dim();
        if theta0.len() != d {
            return Err(OptimError::DimensionMismatch {
                expected: d,
                got: theta0.len(),
            });
        }
        let mut theta = theta0.to_vec();
        ws.reset(d);
        let grad = &mut ws.grad;
        let mut value = objective.value_grad_into(&theta, grad);
        if !value.is_finite() {
            return Err(OptimError::NonFiniteObjective);
        }
        let mut function_evals = 1usize;
        let h = ws.h.as_mut().expect("reset installs the estimate");
        let mut first_update_done = false;
        let scratch = &mut ws.scratch;

        for iteration in 0..self.options.max_iterations {
            if self.options.should_stop() {
                return Err(OptimError::Cancelled);
            }
            let gnorm = norm_inf(grad);
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
            // Search direction p = −H g.
            let mut direction = gemv(h, grad).expect("H/g dims");
            for p in &mut direction {
                *p = -*p;
            }
            let outcome = strong_wolfe_buffered(
                objective,
                &theta,
                value,
                grad,
                &direction,
                &self.wolfe,
                scratch,
            );
            // Probe evaluations are charged whether or not the search
            // succeeded — the same accounting as L-BFGS.
            function_evals += outcome.evals;
            let Some(ls) = outcome.result else {
                // Near the minimum, objective decreases can underflow f64
                // resolution and no step passes the Wolfe tests. With a
                // gradient at round-off scale this is convergence, not
                // failure (scipy reports the same as "precision loss").
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

            let s: Vec<f64> = direction.iter().map(|p| ls.alpha * p).collect();
            let y: Vec<f64> = ls
                .gradient
                .iter()
                .zip(&*grad)
                .map(|(gn, go)| gn - go)
                .collect();
            let prev_value = value;
            for (t, si) in theta.iter_mut().zip(&s) {
                *t += si;
            }
            value = ls.value;
            scratch.recycle(std::mem::replace(grad, ls.gradient));

            let sy = dot(&s, &y);
            let yy = dot(&y, &y);
            if sy > 1e-10 * yy.sqrt().max(1.0) {
                if !first_update_done {
                    // Scale the initial identity to the secant curvature
                    // (Nocedal & Wright eq. 6.20) before the first update.
                    let gamma = sy / yy;
                    *h = Matrix::identity(d);
                    h.scale(gamma);
                    first_update_done = true;
                }
                let rho = 1.0 / sy;
                let hy = gemv(h, &y).expect("H/y dims");
                let coeff = rho * (1.0 + rho * dot(&y, &hy));
                ger(-rho, &s, &hy, h);
                ger(-rho, &hy, &s, h);
                ger(coeff, &s, &s, h);
            }

            if self.options.value_tolerance > 0.0 {
                let rel = (prev_value - value).abs() / prev_value.abs().max(1.0);
                if rel < self.options.value_tolerance {
                    return Ok(OptimResult {
                        theta,
                        value,
                        gradient_norm: norm_inf(grad),
                        iterations: iteration + 1,
                        function_evals,
                        converged: true,
                    });
                }
            }
        }
        Ok(OptimResult {
            gradient_norm: norm_inf(grad),
            theta,
            value,
            iterations: self.options.max_iterations,
            function_evals,
            converged: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{QuadraticObjective, Rosenbrock};

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

    #[test]
    fn solves_quadratic_exactly() {
        let (q, solution) = spd_quadratic(8);
        let res = Bfgs::new(OptimOptions::default())
            .minimize(&q, &[0.0; 8])
            .unwrap();
        assert!(res.converged, "did not converge: {res:?}");
        for (t, s) in res.theta.iter().zip(&solution) {
            assert!((t - s).abs() < 1e-5, "{t} vs {s}");
        }
    }

    #[test]
    fn converges_on_rosenbrock() {
        let res = Bfgs::new(OptimOptions {
            max_iterations: 500,
            ..OptimOptions::default()
        })
        .minimize(&Rosenbrock, &[-1.2, 1.0])
        .unwrap();
        assert!(res.converged, "gradient norm {}", res.gradient_norm);
        assert!((res.theta[0] - 1.0).abs() < 1e-4);
        assert!((res.theta[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn already_at_minimum_returns_immediately() {
        let (q, solution) = spd_quadratic(4);
        let res = Bfgs::new(OptimOptions::default())
            .minimize(&q, &solution)
            .unwrap();
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn respects_iteration_cap() {
        let res = Bfgs::new(OptimOptions {
            max_iterations: 2,
            gradient_tolerance: 1e-16,
            ..OptimOptions::default()
        })
        .minimize(&Rosenbrock, &[-1.2, 1.0])
        .unwrap();
        assert!(!res.converged);
        assert_eq!(res.iterations, 2);
    }

    /// Reusing one workspace across solves of different dimensions must
    /// be bit-identical to fresh `minimize` calls.
    #[test]
    fn workspace_reuse_is_bitwise_fresh_solves() {
        let mut ws = BfgsWorkspace::new();
        let solver = Bfgs::new(OptimOptions::default());
        let (q8, _) = spd_quadratic(8);
        let (q4, _) = spd_quadratic(4);
        let runs: Vec<(&QuadraticObjective, Vec<f64>)> = vec![
            (&q8, vec![0.0; 8]),
            (&q4, vec![0.2; 4]),
            (&q8, vec![-0.1; 8]),
        ];
        for (obj, start) in runs {
            let fresh = solver.minimize(obj, &start).unwrap();
            let reused = solver.minimize_with(obj, &start, &mut ws).unwrap();
            assert_eq!(fresh.iterations, reused.iterations);
            assert_eq!(fresh.value.to_bits(), reused.value.to_bits());
            for (a, b) in fresh.theta.iter().zip(&reused.theta) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let (q, _) = spd_quadratic(4);
        assert!(matches!(
            Bfgs::new(OptimOptions::default()).minimize(&q, &[0.0; 3]),
            Err(OptimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn value_tolerance_stops_early() {
        let (q, _) = spd_quadratic(6);
        let res = Bfgs::new(OptimOptions {
            value_tolerance: 0.5, // very loose: stop as soon as progress slows
            ..OptimOptions::default()
        })
        .minimize(&q, &[0.0; 6])
        .unwrap();
        assert!(res.converged);
    }
}

//! Strong-Wolfe line search (Nocedal & Wright, Algorithms 3.5 / 3.6).
//!
//! Probe points and gradients live in a caller-owned
//! [`LineSearchScratch`] pool, so a converged solve performs **zero
//! steady-state allocation** per probe, and [`strong_wolfe`] reports
//! the number of objective evaluations even when no acceptable step
//! exists (the quasi-Newton driver charges failed searches to
//! `function_evals` too).

use crate::problem::Objective;
use blinkml_linalg::vector::dot;

/// Line-search parameters. Defaults follow Nocedal & Wright's
/// recommendation for quasi-Newton directions (`c2 = 0.9`).
#[derive(Debug, Clone)]
pub struct WolfeParams {
    /// Sufficient-decrease constant (Armijo).
    pub c1: f64,
    /// Curvature constant.
    pub c2: f64,
    /// Initial trial step.
    pub initial_step: f64,
    /// Upper bound on the step.
    pub max_step: f64,
    /// Maximum bracketing + zoom evaluations.
    pub max_evals: usize,
}

impl Default for WolfeParams {
    fn default() -> Self {
        WolfeParams {
            c1: 1e-4,
            c2: 0.9,
            initial_step: 1.0,
            max_step: 1e4,
            max_evals: 40,
        }
    }
}

/// Successful line-search outcome.
#[derive(Debug, Clone)]
pub struct LineSearchResult {
    /// Accepted step length.
    pub alpha: f64,
    /// Objective at the accepted point.
    pub value: f64,
    /// Gradient at the accepted point. Taken from the scratch pool;
    /// callers return their previous gradient buffer via
    /// [`LineSearchScratch::recycle`] to keep the pool closed.
    pub gradient: Vec<f64>,
    /// Number of objective evaluations consumed.
    pub evals: usize,
}

/// Outcome of a search: the accepted step (if any) plus the
/// evaluation count, which is reported **even on failure** so solvers
/// account probe work consistently.
#[derive(Debug)]
pub struct SearchOutcome {
    /// The accepted step, or `None` when no acceptable step was found.
    pub result: Option<LineSearchResult>,
    /// Objective evaluations consumed, success or not.
    pub evals: usize,
}

/// Reusable probe buffers for [`strong_wolfe`]. One scratch is
/// owned per solver run; after the first few iterations every probe
/// draws its point and gradient buffers from here instead of the
/// allocator.
#[derive(Debug, Default)]
pub struct LineSearchScratch {
    point: Vec<f64>,
    free: Vec<Vec<f64>>,
}

impl LineSearchScratch {
    /// Empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        LineSearchScratch::default()
    }

    /// Return a gradient buffer (e.g. a [`LineSearchResult::gradient`]
    /// that has been swapped out) to the pool.
    pub fn recycle(&mut self, buf: Vec<f64>) {
        self.free.push(buf);
    }

    fn take(&mut self, dim: usize) -> Vec<f64> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.resize(dim, 0.0);
        buf
    }
}

/// State of one trial point on the ray `θ + α p`.
struct Probe {
    alpha: f64,
    value: f64,
    /// Directional derivative `∇f(θ + αp) · p`.
    slope: f64,
    gradient: Vec<f64>,
}

/// Find a step along descent direction `direction` from `theta` that
/// satisfies the strong Wolfe conditions, with caller-owned probe
/// buffers. The outcome has no step when none is found within the
/// evaluation budget (e.g. for non-descent directions), and reports the
/// evaluation count either way.
#[allow(clippy::too_many_arguments)]
pub fn strong_wolfe(
    objective: &dyn Objective,
    theta: &[f64],
    value0: f64,
    grad0: &[f64],
    direction: &[f64],
    params: &WolfeParams,
    scratch: &mut LineSearchScratch,
) -> SearchOutcome {
    let slope0 = dot(grad0, direction);
    if slope0 >= 0.0 || !slope0.is_finite() {
        return SearchOutcome {
            result: None,
            evals: 0,
        }; // Not a descent direction.
    }
    let dim = theta.len();
    let evals = std::cell::Cell::new(0usize);
    let probe = |alpha: f64, scratch: &mut LineSearchScratch| -> Probe {
        let mut point = std::mem::take(&mut scratch.point);
        point.clear();
        point.extend(theta.iter().zip(direction).map(|(t, d)| t + alpha * d));
        let mut gradient = scratch.take(dim);
        let value = objective.value_grad_into(&point, &mut gradient);
        scratch.point = point;
        evals.set(evals.get() + 1);
        let slope = dot(&gradient, direction);
        Probe {
            alpha,
            value,
            slope,
            gradient,
        }
    };

    // Algorithm 3.5: bracketing phase.
    let mut prev = Probe {
        alpha: 0.0,
        value: value0,
        slope: slope0,
        gradient: {
            let mut g = scratch.take(dim);
            g.copy_from_slice(grad0);
            g
        },
    };
    let mut alpha = params.initial_step.min(params.max_step);
    let mut bracket: Option<(Probe, Probe)> = None;
    for i in 0.. {
        if evals.get() >= params.max_evals {
            scratch.recycle(prev.gradient);
            return SearchOutcome {
                result: None,
                evals: evals.get(),
            };
        }
        let cur = probe(alpha, scratch);
        if !cur.value.is_finite() {
            // Step overshot into a non-finite region: bisect downward.
            alpha = 0.5 * (prev.alpha + alpha);
            scratch.recycle(cur.gradient);
            if alpha <= f64::MIN_POSITIVE {
                scratch.recycle(prev.gradient);
                return SearchOutcome {
                    result: None,
                    evals: evals.get(),
                };
            }
            continue;
        }
        if cur.value > value0 + params.c1 * cur.alpha * slope0 || (i > 0 && cur.value >= prev.value)
        {
            bracket = Some((prev, cur));
            break;
        }
        if cur.slope.abs() <= -params.c2 * slope0 {
            scratch.recycle(prev.gradient);
            return SearchOutcome {
                result: Some(LineSearchResult {
                    alpha: cur.alpha,
                    value: cur.value,
                    gradient: cur.gradient,
                    evals: evals.get(),
                }),
                evals: evals.get(),
            };
        }
        if cur.slope >= 0.0 {
            bracket = Some((cur, prev));
            break;
        }
        if cur.alpha >= params.max_step {
            // Slope still negative at the cap: accept the capped step.
            scratch.recycle(prev.gradient);
            return SearchOutcome {
                result: Some(LineSearchResult {
                    alpha: cur.alpha,
                    value: cur.value,
                    gradient: cur.gradient,
                    evals: evals.get(),
                }),
                evals: evals.get(),
            };
        }
        alpha = (2.0 * cur.alpha).min(params.max_step);
        scratch.recycle(std::mem::replace(&mut prev, cur).gradient);
    }

    // Algorithm 3.6: zoom phase. `lo` always has the lower value.
    let (mut lo, mut hi) = bracket.expect("bracket set before break");
    while evals.get() < params.max_evals {
        // Quadratic interpolation with a bisection safeguard.
        let mut trial = quadratic_interpolate(&lo, &hi);
        let (lo_a, hi_a) = (lo.alpha.min(hi.alpha), lo.alpha.max(hi.alpha));
        let width = hi_a - lo_a;
        if !(trial.is_finite()) || trial <= lo_a + 0.1 * width || trial >= hi_a - 0.1 * width {
            trial = 0.5 * (lo_a + hi_a);
        }
        if width < 1e-14 * (1.0 + lo_a) {
            // Interval collapsed: accept the best point seen so far if it
            // at least decreases the objective.
            scratch.recycle(hi.gradient);
            return if lo.value < value0 && lo.alpha > 0.0 {
                SearchOutcome {
                    result: Some(LineSearchResult {
                        alpha: lo.alpha,
                        value: lo.value,
                        gradient: lo.gradient,
                        evals: evals.get(),
                    }),
                    evals: evals.get(),
                }
            } else {
                scratch.recycle(lo.gradient);
                SearchOutcome {
                    result: None,
                    evals: evals.get(),
                }
            };
        }
        let cur = probe(trial, scratch);
        if !cur.value.is_finite()
            || cur.value > value0 + params.c1 * cur.alpha * slope0
            || cur.value >= lo.value
        {
            scratch.recycle(std::mem::replace(&mut hi, cur).gradient);
        } else {
            if cur.slope.abs() <= -params.c2 * slope0 {
                scratch.recycle(lo.gradient);
                scratch.recycle(hi.gradient);
                return SearchOutcome {
                    result: Some(LineSearchResult {
                        alpha: cur.alpha,
                        value: cur.value,
                        gradient: cur.gradient,
                        evals: evals.get(),
                    }),
                    evals: evals.get(),
                };
            }
            if cur.slope * (hi.alpha - lo.alpha) >= 0.0 {
                // hi takes lo's state (gradient copied into hi's buffer).
                hi.alpha = lo.alpha;
                hi.value = lo.value;
                hi.slope = lo.slope;
                hi.gradient.copy_from_slice(&lo.gradient);
            }
            scratch.recycle(std::mem::replace(&mut lo, cur).gradient);
        }
    }
    // Budget exhausted: fall back to the best decreasing point.
    scratch.recycle(hi.gradient);
    if lo.value < value0 && lo.alpha > 0.0 {
        SearchOutcome {
            result: Some(LineSearchResult {
                alpha: lo.alpha,
                value: lo.value,
                gradient: lo.gradient,
                evals: evals.get(),
            }),
            evals: evals.get(),
        }
    } else {
        scratch.recycle(lo.gradient);
        SearchOutcome {
            result: None,
            evals: evals.get(),
        }
    }
}

/// Minimizer of the quadratic through `(lo.alpha, lo.value, lo.slope)`
/// and `(hi.alpha, hi.value)`.
fn quadratic_interpolate(lo: &Probe, hi: &Probe) -> f64 {
    let da = hi.alpha - lo.alpha;
    let denom = 2.0 * (hi.value - lo.value - lo.slope * da);
    if denom.abs() < f64::MIN_POSITIVE {
        return f64::NAN;
    }
    lo.alpha - lo.slope * da * da / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{QuadraticObjective, Rosenbrock};
    use blinkml_linalg::Matrix;

    /// One search on a fresh scratch pool.
    fn search(
        obj: &dyn Objective,
        theta: &[f64],
        v0: f64,
        g0: &[f64],
        dir: &[f64],
        params: &WolfeParams,
    ) -> Option<LineSearchResult> {
        let mut scratch = LineSearchScratch::new();
        strong_wolfe(obj, theta, v0, g0, dir, params, &mut scratch).result
    }

    fn quadratic_1d() -> QuadraticObjective {
        // f(x) = ½·2x² − 4x, minimum at x = 2.
        QuadraticObjective::new(Matrix::from_vec(1, 1, vec![2.0]), vec![4.0])
    }

    #[test]
    fn satisfies_wolfe_conditions_on_quadratic() {
        let q = quadratic_1d();
        let theta = [0.0];
        let (v0, g0) = q.value_grad(&theta);
        let dir = [-g0[0]]; // steepest descent
        let params = WolfeParams::default();
        let res = search(&q, &theta, v0, &g0, &dir, &params).expect("search succeeds");
        let slope0 = g0[0] * dir[0];
        // Sufficient decrease.
        assert!(res.value <= v0 + params.c1 * res.alpha * slope0 + 1e-12);
        // Curvature.
        let slope_new = res.gradient[0] * dir[0];
        assert!(slope_new.abs() <= -params.c2 * slope0 + 1e-12);
    }

    #[test]
    fn exact_step_on_quadratic_with_unit_direction() {
        // Along steepest descent from 0, the 1-D minimizer of
        // ½·2x² − 4x starting at x=0 with p = 4 is at α = 0.5 (x = 2).
        let q = quadratic_1d();
        let (v0, g0) = q.value_grad(&[0.0]);
        let dir = [-g0[0]];
        let res = search(&q, &[0.0], v0, &g0, &dir, &WolfeParams::default()).unwrap();
        let x_new = 0.0 + res.alpha * dir[0];
        // Strong Wolfe with c2=0.9 is loose, but the step must land in a
        // broad neighborhood of the minimizer and reduce the value.
        assert!(res.value < v0);
        assert!(x_new > 0.5 && x_new < 4.0, "x_new = {x_new}");
    }

    #[test]
    fn rejects_ascent_directions() {
        let q = quadratic_1d();
        let (v0, g0) = q.value_grad(&[0.0]);
        let dir = [g0[0]]; // ascent
        assert!(search(&q, &[0.0], v0, &g0, &dir, &WolfeParams::default()).is_none());
    }

    #[test]
    fn works_on_rosenbrock_steepest_descent() {
        let r = Rosenbrock;
        let theta = [-1.2, 1.0];
        let (v0, g0) = r.value_grad(&theta);
        let dir: Vec<f64> = g0.iter().map(|g| -g).collect();
        let res =
            search(&r, &theta, v0, &g0, &dir, &WolfeParams::default()).expect("must find a step");
        assert!(res.value < v0);
        assert!(res.alpha > 0.0);
    }

    #[test]
    fn handles_tiny_initial_step() {
        let q = quadratic_1d();
        let (v0, g0) = q.value_grad(&[0.0]);
        let dir = [-g0[0]];
        let params = WolfeParams {
            initial_step: 1e-8,
            ..WolfeParams::default()
        };
        // Bracketing should expand the step toward an acceptable one.
        let res = search(&q, &[0.0], v0, &g0, &dir, &params).unwrap();
        assert!(res.value < v0);
    }

    #[test]
    fn respects_eval_budget() {
        let q = quadratic_1d();
        let (v0, g0) = q.value_grad(&[0.0]);
        let dir = [-g0[0]];
        let params = WolfeParams {
            max_evals: 3,
            ..WolfeParams::default()
        };
        if let Some(res) = search(&q, &[0.0], v0, &g0, &dir, &params) {
            assert!(res.evals <= 3);
        }
    }

    #[test]
    fn failed_search_still_reports_evals() {
        // A descent direction on a quadratic with an absurdly small
        // budget: the search fails but the probes must be charged.
        let q = quadratic_1d();
        let (v0, g0) = q.value_grad(&[0.0]);
        let dir = [-g0[0]];
        let params = WolfeParams {
            max_evals: 1,
            c2: 1e-12, // make the curvature condition nearly unsatisfiable
            ..WolfeParams::default()
        };
        let mut scratch = LineSearchScratch::new();
        let out = strong_wolfe(&q, &[0.0], v0, &g0, &dir, &params, &mut scratch);
        if out.result.is_none() {
            assert!(out.evals >= 1, "failed search must report its probes");
        }
    }

    #[test]
    fn scratch_pool_stays_closed() {
        // Repeated searches through one scratch must not grow the pool
        // beyond the peak number of live probes.
        let r = Rosenbrock;
        let mut scratch = LineSearchScratch::new();
        let params = WolfeParams::default();
        for step in 0..5 {
            let theta = [-1.2 + 0.1 * step as f64, 1.0];
            let (v0, g0) = r.value_grad(&theta);
            let dir: Vec<f64> = g0.iter().map(|g| -g).collect();
            let out = strong_wolfe(&r, &theta, v0, &g0, &dir, &params, &mut scratch);
            if let Some(res) = out.result {
                scratch.recycle(res.gradient);
            }
        }
        assert!(
            scratch.free.len() <= 4,
            "pool grew to {} buffers",
            scratch.free.len()
        );
    }
}

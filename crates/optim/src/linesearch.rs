//! Strong-Wolfe line search (Nocedal & Wright, Algorithms 3.5 / 3.6).
//!
//! The search is one resumable state machine (`WolfeSearch`): it hands
//! out a trial point and a gradient buffer, takes the objective's value
//! there, and runs on to its next trial point or its end. The
//! quasi-Newton driver keeps one inside each resumable solve;
//! [`strong_wolfe`] drives one to its end against a single objective.
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

/// A strong-Wolfe search in flight: [`strong_wolfe`] as a resumable
/// state machine. [`probe`](Self::probe) hands out the pending trial
/// point and the buffer its gradient goes into; [`tell`](Self::tell)
/// takes its value and runs the search on to its next trial point or
/// its end. The search holds the caller's scratch pool until
/// [`finish`](Self::finish) hands it back.
pub(crate) struct WolfeSearch {
    params: WolfeParams,
    value0: f64,
    slope0: f64,
    evals: usize,
    pool: LineSearchScratch,
    /// The pending probe's step and the buffer its gradient goes into
    /// (its point `θ + αp` is `pool.point`).
    alpha: f64,
    gradient: Vec<f64>,
    phase: Phase,
}

enum Phase {
    /// Algorithm 3.5, bracketing from the previous probe (the start
    /// point at `α = 0` first).
    Bracket { prev: Probe },
    /// Algorithm 3.6; `lo` always has the lower value.
    Zoom { lo: Probe, hi: Probe },
    /// Finished, with the accepted step if one was found.
    Done(Option<LineSearchResult>),
}

impl WolfeSearch {
    /// Start a search along `direction` from `theta`, where the
    /// objective has value `value0` and gradient `grad0`. A direction
    /// that does not descend ends the search at once, with no probe.
    pub(crate) fn new(
        theta: &[f64],
        value0: f64,
        grad0: &[f64],
        direction: &[f64],
        params: &WolfeParams,
        scratch: &mut LineSearchScratch,
    ) -> Self {
        let slope0 = dot(grad0, direction);
        let mut search = WolfeSearch {
            params: params.clone(),
            value0,
            slope0,
            evals: 0,
            pool: std::mem::take(scratch),
            alpha: 0.0,
            gradient: Vec::new(),
            phase: Phase::Done(None),
        };
        if slope0 >= 0.0 || !slope0.is_finite() {
            return search; // Not a descent direction.
        }
        let mut gradient = search.pool.take(theta.len());
        gradient.copy_from_slice(grad0);
        let prev = Probe {
            alpha: 0.0,
            value: value0,
            slope: slope0,
            gradient,
        };
        let alpha = params.initial_step.min(params.max_step);
        search.bracket(prev, alpha, theta, direction);
        search
    }

    /// The pending probe's point and gradient buffer, or `None` once
    /// the search has finished.
    pub(crate) fn probe(&mut self) -> Option<(&[f64], &mut [f64])> {
        match self.phase {
            Phase::Done(_) => None,
            _ => Some((&self.pool.point, &mut self.gradient)),
        }
    }

    /// Take the objective's value at the pending probe (its gradient
    /// already in the probe's buffer) and run the search on to its next
    /// probe or its end, along the `theta` and `direction` it started
    /// from.
    pub(crate) fn tell(&mut self, value: f64, theta: &[f64], direction: &[f64]) {
        self.evals += 1;
        let cur = Probe {
            alpha: self.alpha,
            value,
            slope: dot(&self.gradient, direction),
            gradient: std::mem::take(&mut self.gradient),
        };
        let (value0, slope0, c1, c2) = (self.value0, self.slope0, self.params.c1, self.params.c2);
        match std::mem::replace(&mut self.phase, Phase::Done(None)) {
            Phase::Bracket { prev } => {
                if !cur.value.is_finite() {
                    // Step overshot into a non-finite region: bisect
                    // downward.
                    let alpha = 0.5 * (prev.alpha + cur.alpha);
                    self.pool.recycle(cur.gradient);
                    if alpha <= f64::MIN_POSITIVE {
                        self.pool.recycle(prev.gradient);
                    } else {
                        self.bracket(prev, alpha, theta, direction);
                    }
                } else if cur.value > value0 + c1 * cur.alpha * slope0
                    || (self.evals > 1 && cur.value >= prev.value)
                {
                    self.zoom(prev, cur, theta, direction);
                } else if cur.slope.abs() <= -c2 * slope0 {
                    self.pool.recycle(prev.gradient);
                    self.accept(cur);
                } else if cur.slope >= 0.0 {
                    self.zoom(cur, prev, theta, direction);
                } else if cur.alpha >= self.params.max_step {
                    // Slope still negative at the cap: accept the capped
                    // step.
                    self.pool.recycle(prev.gradient);
                    self.accept(cur);
                } else {
                    let alpha = (2.0 * cur.alpha).min(self.params.max_step);
                    self.pool.recycle(prev.gradient);
                    self.bracket(cur, alpha, theta, direction);
                }
            }
            Phase::Zoom { mut lo, mut hi } => {
                if !cur.value.is_finite()
                    || cur.value > value0 + c1 * cur.alpha * slope0
                    || cur.value >= lo.value
                {
                    self.pool.recycle(std::mem::replace(&mut hi, cur).gradient);
                } else if cur.slope.abs() <= -c2 * slope0 {
                    self.pool.recycle(lo.gradient);
                    self.pool.recycle(hi.gradient);
                    return self.accept(cur);
                } else {
                    if cur.slope * (hi.alpha - lo.alpha) >= 0.0 {
                        // hi takes lo's state (gradient copied into hi's
                        // buffer).
                        hi.alpha = lo.alpha;
                        hi.value = lo.value;
                        hi.slope = lo.slope;
                        hi.gradient.copy_from_slice(&lo.gradient);
                    }
                    self.pool.recycle(std::mem::replace(&mut lo, cur).gradient);
                }
                self.zoom(lo, hi, theta, direction);
            }
            Phase::Done(_) => panic!("no probe is pending: the line search has finished"),
        }
    }

    /// End the search, handing its scratch pool back.
    ///
    /// # Panics
    /// Panics while a probe is still pending.
    pub(crate) fn finish(self, scratch: &mut LineSearchScratch) -> SearchOutcome {
        *scratch = self.pool;
        let Phase::Done(result) = self.phase else {
            panic!("the line search still has a pending probe");
        };
        SearchOutcome {
            result,
            evals: self.evals,
        }
    }

    /// Algorithm 3.5's next trial step `alpha` past `prev`, unless the
    /// evaluation budget is spent.
    fn bracket(&mut self, prev: Probe, alpha: f64, theta: &[f64], direction: &[f64]) {
        if self.evals >= self.params.max_evals {
            return self.pool.recycle(prev.gradient);
        }
        self.phase = Phase::Bracket { prev };
        self.issue(alpha, theta, direction);
    }

    /// Algorithm 3.6's next trial step inside the bracket `(lo, hi)`:
    /// quadratic interpolation with a bisection safeguard. When the
    /// budget is spent or the interval has collapsed, the search ends on
    /// the best point seen so far if it at least decreases the
    /// objective.
    fn zoom(&mut self, lo: Probe, hi: Probe, theta: &[f64], direction: &[f64]) {
        if self.evals < self.params.max_evals {
            let mut trial = quadratic_interpolate(&lo, &hi);
            let (lo_a, hi_a) = (lo.alpha.min(hi.alpha), lo.alpha.max(hi.alpha));
            let width = hi_a - lo_a;
            if !(trial.is_finite()) || trial <= lo_a + 0.1 * width || trial >= hi_a - 0.1 * width {
                trial = 0.5 * (lo_a + hi_a);
            }
            let collapsed = width < 1e-14 * (1.0 + lo_a);
            if !collapsed {
                self.phase = Phase::Zoom { lo, hi };
                return self.issue(trial, theta, direction);
            }
        }
        self.pool.recycle(hi.gradient);
        if lo.value < self.value0 && lo.alpha > 0.0 {
            self.accept(lo);
        } else {
            self.pool.recycle(lo.gradient);
        }
    }

    /// Make `θ + αp` the pending probe, with a pooled gradient buffer.
    fn issue(&mut self, alpha: f64, theta: &[f64], direction: &[f64]) {
        self.alpha = alpha;
        let point = &mut self.pool.point;
        point.clear();
        point.extend(theta.iter().zip(direction).map(|(t, d)| t + alpha * d));
        self.gradient = self.pool.take(theta.len());
    }

    /// End the search on `probe`'s step.
    fn accept(&mut self, probe: Probe) {
        self.phase = Phase::Done(Some(LineSearchResult {
            alpha: probe.alpha,
            value: probe.value,
            gradient: probe.gradient,
        }));
    }
}

/// Find a step along descent direction `direction` from `theta` that
/// satisfies the strong Wolfe conditions, with caller-owned probe
/// buffers. The outcome has no step when none is found within the
/// evaluation budget (e.g. for non-descent directions), and reports the
/// evaluation count either way.
pub fn strong_wolfe(
    objective: &dyn Objective,
    theta: &[f64],
    value0: f64,
    grad0: &[f64],
    direction: &[f64],
    params: &WolfeParams,
    scratch: &mut LineSearchScratch,
) -> SearchOutcome {
    let mut search = WolfeSearch::new(theta, value0, grad0, direction, params, scratch);
    while let Some((point, gradient)) = search.probe() {
        let value = objective.value_grad_into(point, gradient);
        search.tell(value, theta, direction);
    }
    search.finish(scratch)
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
        let mut scratch = LineSearchScratch::new();
        let out = strong_wolfe(&q, &[0.0], v0, &g0, &dir, &params, &mut scratch);
        assert!(out.evals <= 3, "{} evaluations", out.evals);
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

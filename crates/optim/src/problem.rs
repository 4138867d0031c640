//! The objective-function abstraction.

use blinkml_linalg::vector::dot;
use blinkml_linalg::Matrix;

/// A smooth objective `f : R^d -> R` exposing joint value+gradient
/// evaluation.
///
/// BlinkML objectives are averaged negative log-likelihoods whose value
/// and gradient share almost all computation (margins, probabilities), so
/// the joint evaluation into a caller-owned buffer is the one primitive.
pub trait Objective {
    /// Dimension of the parameter vector.
    fn dim(&self) -> usize;

    /// Evaluate `f(θ)` and write `∇f(θ)` into `grad`, returning the
    /// value. This is the solvers' primitive: line-search probes reuse
    /// their gradient buffers, so a batched training objective
    /// allocates nothing per probe.
    ///
    /// # Panics
    /// Implementations may panic when `grad.len() != dim()`.
    fn value_grad_into(&self, theta: &[f64], grad: &mut [f64]) -> f64;

    /// Evaluate `f(θ)` and `∇f(θ)` together into a fresh gradient.
    fn value_grad(&self, theta: &[f64]) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; self.dim()];
        let value = self.value_grad_into(theta, &mut grad);
        (value, grad)
    }
}

/// A convex quadratic `f(θ) = ½ θᵀAθ − bᵀθ` (A symmetric positive
/// definite), used as the reference problem in solver tests: its unique
/// minimizer solves `Aθ = b`.
#[derive(Debug, Clone)]
pub struct QuadraticObjective {
    a: Matrix,
    b: Vec<f64>,
}

impl QuadraticObjective {
    /// Build from an SPD matrix and a linear term.
    ///
    /// # Panics
    /// Panics when shapes disagree.
    pub fn new(a: Matrix, b: Vec<f64>) -> Self {
        assert!(a.is_square(), "quadratic needs a square matrix");
        assert_eq!(a.rows(), b.len(), "quadratic shape mismatch");
        QuadraticObjective { a, b }
    }

    /// The quadratic-term matrix `A`.
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }
}

impl Objective for QuadraticObjective {
    fn dim(&self) -> usize {
        self.b.len()
    }

    fn value_grad_into(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        // `grad` holds `Aθ` (row by row, as `gemv` forms it) until the
        // value is taken, then becomes `Aθ − b`.
        for (i, g) in grad.iter_mut().enumerate() {
            *g = dot(self.a.row(i), theta);
        }
        let value = 0.5 * dot(theta, grad) - dot(&self.b, theta);
        for (g, bi) in grad.iter_mut().zip(&self.b) {
            *g -= bi;
        }
        value
    }
}

/// The Rosenbrock function in 2D — the standard nonconvex line-search
/// stress test (minimum at `(1, 1)`).
#[derive(Debug, Clone, Default)]
pub struct Rosenbrock;

impl Objective for Rosenbrock {
    fn dim(&self) -> usize {
        2
    }

    fn value_grad_into(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        let (x, y) = (theta[0], theta[1]);
        grad[0] = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x);
        grad[1] = 200.0 * (y - x * x);
        (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_gradient_is_a_theta_minus_b() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 4.0]);
        let q = QuadraticObjective::new(a, vec![2.0, 4.0]);
        // Minimizer is (1, 1) where the gradient vanishes.
        let (v, g) = q.value_grad(&[1.0, 1.0]);
        assert!((v + 3.0).abs() < 1e-12); // ½(2+4) − (2+4) = −3
        assert!(g.iter().all(|x| x.abs() < 1e-12));

        let (_, g2) = q.value_grad(&[0.0, 0.0]);
        assert_eq!(g2, vec![-2.0, -4.0]);
    }

    #[test]
    fn derived_accessors_match_joint() {
        let a = Matrix::from_vec(2, 2, vec![3.0, 1.0, 1.0, 2.0]);
        let q = QuadraticObjective::new(a, vec![1.0, -1.0]);
        let theta = [0.3, -0.7];
        let mut g = [f64::NAN; 2];
        let v = q.value_grad_into(&theta, &mut g);
        assert_eq!(q.value_grad(&theta), (v, g.to_vec()));
    }

    #[test]
    fn rosenbrock_minimum() {
        let r = Rosenbrock;
        let (v, g) = r.value_grad(&[1.0, 1.0]);
        assert!(v.abs() < 1e-15);
        assert!(g[0].abs() < 1e-12 && g[1].abs() < 1e-12);
        assert!(r.value_grad(&[0.0, 0.0]).0 > 0.0);
    }

    #[test]
    fn rosenbrock_gradient_matches_finite_difference() {
        let r = Rosenbrock;
        let theta = [-1.2, 1.0];
        let (_, g) = r.value_grad(&theta);
        let eps = 1e-6;
        for i in 0..2 {
            let mut plus = theta;
            let mut minus = theta;
            plus[i] += eps;
            minus[i] -= eps;
            let fd = (r.value_grad(&plus).0 - r.value_grad(&minus).0) / (2.0 * eps);
            assert!((g[i] - fd).abs() < 1e-3, "coord {i}: {} vs {}", g[i], fd);
        }
    }
}

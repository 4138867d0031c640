//! Proof of the MCS extensibility claim: a model class implemented
//! entirely *outside* the library — exponential regression,
//! `y ~ Exp(rate = exp(θᵀx))` — gets accuracy estimation, sample-size
//! search, and the coordinator for free by implementing
//! `ModelClassSpec`.

use blinkml::core::grads::Grads;
use blinkml::core::mcs::regression_diff;
use blinkml::linalg::{vector, Matrix};
use blinkml::prelude::*;
use blinkml_data::{CaptureScratch, DatasetMatrix, DenseVec, Example, MatrixView, TrainScratch};
use blinkml_prob::rng_from_seed;
use rand::Rng;
use std::sync::Mutex;

/// Exponential regression with the log link.
///
/// NLL per example: `ℓ(m, y) = y·e^m − m` for rate `λ = e^m`, `m = θᵀx`
/// (the density is `λ e^{−λy}`, so `−log p = λy − log λ`).
///
/// Written per row over the design-matrix view (`xm.dense_row`,
/// `xm.label`): the spec never sees how the sample is stored.
struct ExponentialRegressionSpec {
    beta: f64,
    /// `(view rows, matrix rows)` of every objective evaluation.
    eval_rows: Mutex<Vec<(usize, usize)>>,
}

const CLAMP: f64 = 30.0;

impl ExponentialRegressionSpec {
    fn new(beta: f64) -> Self {
        ExponentialRegressionSpec {
            beta,
            eval_rows: Mutex::new(Vec::new()),
        }
    }

    fn margin(&self, theta: &[f64], x: &[f64]) -> f64 {
        vector::dot(x, theta).clamp(-CLAMP, CLAMP)
    }
}

impl ModelClassSpec<DenseVec> for ExponentialRegressionSpec {
    fn name(&self) -> &'static str {
        "exponential-regression"
    }

    fn param_dim(&self, data_dim: usize) -> usize {
        data_dim
    }

    fn regularization(&self) -> f64 {
        self.beta
    }

    fn value_grad(
        &self,
        theta: &[f64],
        xm: &MatrixView,
        _scratch: &mut TrainScratch,
        grad: &mut [f64],
    ) -> f64 {
        self.eval_rows
            .lock()
            .unwrap()
            .push((xm.len(), xm.matrix().len()));
        let n = xm.len().max(1) as f64;
        let mut value = 0.0;
        grad.iter_mut().for_each(|g| *g = 0.0);
        for i in 0..xm.len() {
            let x = xm.dense_row(i).expect("dense features");
            let y = xm.label(i);
            let m = self.margin(theta, x);
            let rate = m.exp();
            value += y * rate - m;
            // dℓ/dm = y·e^m − 1.
            let c = y * rate - 1.0;
            for (g, &xj) in grad.iter_mut().zip(x) {
                *g += c * xj;
            }
        }
        value /= n;
        for g in grad.iter_mut() {
            *g /= n;
        }
        let norm_sq: f64 = theta.iter().map(|t| t * t).sum();
        value += 0.5 * self.beta * norm_sq;
        for (g, t) in grad.iter_mut().zip(theta) {
            *g += self.beta * t;
        }
        value
    }

    fn grads(&self, theta: &[f64], xm: &MatrixView) -> Grads {
        let shift: Vec<f64> = theta.iter().map(|t| self.beta * t).collect();
        let mut m = Matrix::zeros(xm.len(), xm.dim());
        for i in 0..xm.len() {
            let x = xm.dense_row(i).expect("dense features");
            let c = xm.label(i) * self.margin(theta, x).exp() - 1.0;
            let row = m.row_mut(i);
            row.copy_from_slice(&shift);
            for (r, &xj) in row.iter_mut().zip(x) {
                *r += c * xj;
            }
        }
        Grads::Dense(m)
    }

    fn predict(&self, theta: &[f64], x: &DenseVec) -> f64 {
        // Predicted mean of Exp(λ) is 1/λ.
        (-self.margin(theta, x.as_slice())).exp()
    }

    fn diff(&self, theta_a: &[f64], theta_b: &[f64], holdout: &Dataset<DenseVec>) -> f64 {
        regression_diff(
            |x: &DenseVec| self.predict(theta_a, x),
            |x: &DenseVec| self.predict(theta_b, x),
            holdout,
        )
    }

    fn generalization_error(&self, theta: &[f64], data: &Dataset<DenseVec>) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let sum_sq: f64 = data
            .iter()
            .map(|e| {
                let p = self.predict(theta, &e.x);
                (p - e.y) * (p - e.y)
            })
            .sum();
        (sum_sq / data.len() as f64).sqrt()
    }

    fn margin_weights(&self, theta: &[f64], data_dim: usize) -> Option<Matrix> {
        // The weights over a zero offset row: the score is θᵀx.
        let mut block = theta.to_vec();
        block.push(0.0);
        Some(Matrix::from_vec(data_dim + 1, 1, block))
    }

    fn predict_from_margins(&self, scores: &[f64]) -> f64 {
        (-scores[0].clamp(-CLAMP, CLAMP)).exp()
    }

    fn diff_is_rms(&self) -> bool {
        true
    }
}

/// `(f(θ), ∇f(θ))` of `spec` over a view.
fn value_and_grad(
    spec: &ExponentialRegressionSpec,
    theta: &[f64],
    xm: &MatrixView,
) -> (f64, Vec<f64>) {
    let mut grad = vec![0.0; theta.len()];
    let value = spec.value_grad(theta, xm, &mut TrainScratch::new(), &mut grad);
    (value, grad)
}

/// Well-specified exponential data with known weights.
fn exponential_data(n: usize, d: usize, seed: u64) -> (Dataset<DenseVec>, Vec<f64>) {
    let mut rng = rng_from_seed(seed);
    let mut sampler = blinkml_prob::NormalSampler::new();
    let w: Vec<f64> = (0..d).map(|_| 0.4 * sampler.sample(&mut rng)).collect();
    let examples = (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..d).map(|_| sampler.sample(&mut rng)).collect();
            let rate: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>().exp();
            // Inverse-CDF sampling of Exp(rate).
            let u: f64 = rng.gen::<f64>().max(1e-12);
            let y = -u.ln() / rate.clamp(1e-6, 1e6);
            Example {
                x: DenseVec::new(x),
                y,
            }
        })
        .collect();
    (Dataset::new("exponential", d, examples), w)
}

#[test]
fn custom_model_gradient_is_consistent() {
    let (data, _) = exponential_data(300, 4, 1);
    let xm = DatasetMatrix::from_dataset(&data);
    let xm = xm.view();
    let spec = ExponentialRegressionSpec::new(1e-3);
    let theta = vec![0.1, -0.2, 0.3, 0.05];
    let (_, grad) = value_and_grad(&spec, &theta, &xm);
    // Finite differences.
    let eps = 1e-6;
    for i in 0..4 {
        let mut plus = theta.clone();
        let mut minus = theta.clone();
        plus[i] += eps;
        minus[i] -= eps;
        let fd = (value_and_grad(&spec, &plus, &xm).0 - value_and_grad(&spec, &minus, &xm).0)
            / (2.0 * eps);
        assert!(
            (grad[i] - fd).abs() < 1e-5,
            "coord {i}: {} vs {fd}",
            grad[i]
        );
    }
    // grads mean equals the objective gradient.
    let mean = spec.grads(&theta, &xm).mean_row();
    for (g, m) in grad.iter().zip(&mean) {
        assert!((g - m).abs() < 1e-10);
    }
}

/// A per-row custom spec sees the same sample captures as the built-in
/// classes: its objective over a packed capture is bit-equal to the
/// materialized sample's, and the coordinator trains it on captures of
/// exactly the sampled rows, never on the pool.
#[test]
fn custom_spec_gets_packed_captures_bitwise() {
    let (data, _) = exponential_data(4_000, 5, 6);
    let spec = ExponentialRegressionSpec::new(1e-3);
    let theta = vec![0.2, -0.1, 0.05, 0.3, -0.25];
    let (n, seed) = (900, 11);
    let sample = data.sample(n, seed);
    let materialized = DatasetMatrix::from_dataset(&sample);
    let (v_ref, g_ref) = value_and_grad(&spec, &theta, &materialized.view());
    let drawn = data.sample_view(n, seed);
    let packed = DatasetMatrix::pack(&data, drawn.indices(), &mut CaptureScratch::new());
    let (v, g) = value_and_grad(&spec, &theta, &packed.view());
    assert_eq!(v.to_bits(), v_ref.to_bits(), "packed: value");
    for (a, b) in g.iter().zip(&g_ref) {
        assert_eq!(a.to_bits(), b.to_bits(), "packed: gradient");
    }

    let config = BlinkMlConfig {
        epsilon: 0.1,
        initial_sample_size: 400,
        holdout_size: 500,
        num_param_samples: 32,
        ..BlinkMlConfig::default()
    };
    let n0 = config.initial_sample_size;
    spec.eval_rows.lock().unwrap().clear();
    let outcome = Coordinator::new(config).train(&spec, &data, 3).unwrap();
    let evals = spec.eval_rows.lock().unwrap();
    assert!(!evals.is_empty(), "the coordinator trained the custom spec");
    for &(rows, matrix_rows) in evals.iter() {
        assert!(
            rows == n0 || rows == outcome.sample_size,
            "an evaluation over {rows} rows, not an n₀ or final sample"
        );
        assert_eq!(rows, matrix_rows, "the capture holds exactly the sample");
    }
}
#[test]
fn custom_model_trains_and_recovers_truth() {
    let (data, w) = exponential_data(20_000, 4, 2);
    let spec = ExponentialRegressionSpec::new(1e-5);
    let model = spec.train(&data, None, &Default::default()).unwrap();
    assert!(model.converged);
    for (t, wi) in model.parameters().iter().zip(&w) {
        assert!((t - wi).abs() < 0.05, "{t} vs {wi}");
    }
}

#[test]
fn custom_model_runs_through_the_coordinator() {
    let (data, _) = exponential_data(30_000, 5, 3);
    let spec = ExponentialRegressionSpec::new(1e-3);
    let config = BlinkMlConfig {
        epsilon: 0.05,
        delta: 0.05,
        initial_sample_size: 500,
        holdout_size: 1_000,
        num_param_samples: 64,
        ..BlinkMlConfig::default()
    };
    let outcome = Coordinator::new(config).train(&spec, &data, 4).unwrap();
    assert!(outcome.sample_size >= 500);
    assert!(outcome.sample_size <= data.len());

    // Validate against a trained full model.
    let split = data.split(1_000, 0, 5);
    let full = spec.train(&split.train, None, &Default::default()).unwrap();
    let v = spec.diff(
        outcome.model.parameters(),
        full.parameters(),
        &split.holdout,
    );
    assert!(v <= 0.05 * 2.0, "realized difference {v}");
}

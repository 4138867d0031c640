//! Binary logistic regression.

use crate::models::glm::{GlmFamily, GlmSpec};

/// Numerically stable `log(1 + e^m)`.
#[inline]
fn log1p_exp(m: f64) -> f64 {
    if m > 0.0 {
        m + (-m).exp().ln_1p()
    } else {
        m.exp().ln_1p()
    }
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(m: f64) -> f64 {
    if m >= 0.0 {
        1.0 / (1.0 + (-m).exp())
    } else {
        let e = m.exp();
        e / (1.0 + e)
    }
}

/// Bernoulli family with the logit link: `ℓ(m, y) = log(1 + eᵐ) − y·m`,
/// labels `y ∈ {0, 1}`.
#[derive(Debug, Clone, Copy)]
pub struct LogisticFamily;

impl GlmFamily for LogisticFamily {
    const NAME: &'static str = "logistic-regression";
    const RMS_DIFF: bool = false;

    #[inline]
    fn loss(m: f64, y: f64) -> f64 {
        log1p_exp(m) - y * m
    }

    #[inline]
    fn dloss(m: f64, y: f64) -> f64 {
        sigmoid(m) - y
    }

    #[inline]
    fn loss_dloss(m: f64, y: f64) -> (f64, f64) {
        // One shared exponential instead of the two that separate
        // loss/dloss calls spend. The branches replicate `log1p_exp` and
        // `sigmoid` exactly (at m = 0 both expressions evaluate the same
        // exp(0) = 1), so the results are bit-identical to the separate
        // calls — the batched objective relies on that.
        if m > 0.0 {
            let e = (-m).exp();
            (m + e.ln_1p() - y * m, 1.0 / (1.0 + e) - y)
        } else if m == 0.0 {
            (m.exp().ln_1p() - y * m, 0.5 - y)
        } else {
            let e = m.exp();
            (e.ln_1p() - y * m, e / (1.0 + e) - y)
        }
    }

    #[inline]
    fn d2loss(m: f64, _y: f64) -> Option<f64> {
        let s = sigmoid(m);
        Some(s * (1.0 - s))
    }

    #[inline]
    fn predict(m: f64) -> f64 {
        if m > 0.0 {
            1.0
        } else {
            0.0
        }
    }

    #[inline]
    fn example_error(m: f64, y: f64) -> f64 {
        if Self::predict(m) == y {
            0.0
        } else {
            1.0
        }
    }

    fn label_domain() -> blinkml_data::LabelDomain {
        blinkml_data::LabelDomain::Binary01
    }
}

/// L2-regularized binary logistic regression — the paper's `LR` model
/// (closed-form Hessian `H = (1/n)XᵀQX + βI` with
/// `Q_ii = σ(θᵀxᵢ)(1 − σ(θᵀxᵢ))`, §3.4).
pub type LogisticRegressionSpec = GlmSpec<LogisticFamily>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::ModelClassSpec;
    use crate::models::glm::test_support::{check_gradient, check_grads_mean};
    use crate::testing::view_objective;
    use blinkml_data::generators::synthetic_logistic;
    use blinkml_data::{DatasetMatrix, DenseVec};
    use blinkml_optim::OptimOptions;

    #[test]
    fn sigmoid_is_stable_and_correct() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!(sigmoid(40.0) > 0.999999);
        assert!(sigmoid(-40.0) < 1e-6);
        assert!(sigmoid(800.0).is_finite());
        assert!(sigmoid(-800.0).is_finite());
        // Symmetry: σ(−m) = 1 − σ(m).
        for m in [-3.0, -0.5, 0.7, 5.0] {
            assert!((sigmoid(-m) - (1.0 - sigmoid(m))).abs() < 1e-12);
        }
    }

    #[test]
    fn loss_is_stable_at_extremes() {
        assert!(LogisticFamily::loss(700.0, 1.0).is_finite());
        assert!(LogisticFamily::loss(-700.0, 0.0).is_finite());
        // log(1 + e^0) = ln 2.
        assert!((LogisticFamily::loss(0.0, 0.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (data, _) = synthetic_logistic(300, 4, 2.0, 1);
        let spec = LogisticRegressionSpec::new(1e-3);
        let theta = vec![0.3, -0.2, 0.5, 0.1];
        check_gradient(&spec, &theta, &data, 1e-5);
        check_grads_mean(&spec, &theta, &data, 1e-10);
    }

    #[test]
    fn training_approaches_ground_truth() {
        let (data, w) = synthetic_logistic(20_000, 5, 2.0, 2);
        let spec = LogisticRegressionSpec::new(1e-4);
        let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
        assert!(model.converged);
        // MLE is consistent: cosine similarity with truth should be high.
        let cos = blinkml_linalg::vector::cosine_similarity(model.parameters(), &w);
        assert!(cos > 0.97, "cosine {cos}");
    }

    #[test]
    fn predictions_and_diff() {
        let (data, _) = synthetic_logistic(500, 3, 2.0, 3);
        let spec = LogisticRegressionSpec::new(1e-3);
        let a = vec![1.0, 1.0, 1.0];
        let flipped: Vec<f64> = a.iter().map(|v| -v).collect();
        // A classifier and its sign-flip disagree everywhere (modulo
        // zero margins, measure-zero here).
        let v = spec.diff(&a, &flipped, &data);
        assert!(v > 0.99, "diff {v}");
        assert_eq!(spec.diff(&a, &a, &data), 0.0);
    }

    #[test]
    fn closed_form_hessian_matches_numeric_jacobian() {
        let (data, _) = synthetic_logistic(400, 3, 1.5, 4);
        let spec = LogisticRegressionSpec::new(0.01);
        let theta = vec![0.2, -0.4, 0.6];
        let xm = DatasetMatrix::from_dataset(&data);
        let h = <LogisticRegressionSpec as ModelClassSpec<DenseVec>>::closed_form_hessian(
            &spec,
            &theta,
            &xm.view(),
        )
        .unwrap();
        // Numeric Jacobian of the objective gradient.
        let eps = 1e-6;
        for i in 0..3 {
            let mut plus = theta.clone();
            let mut minus = theta.clone();
            plus[i] += eps;
            minus[i] -= eps;
            let (_, gp) = view_objective(&spec, &plus, &data);
            let (_, gm) = view_objective(&spec, &minus, &data);
            for j in 0..3 {
                let fd = (gp[j] - gm[j]) / (2.0 * eps);
                assert!(
                    (h[(j, i)] - fd).abs() < 1e-5,
                    "H[{j}][{i}]: {} vs {fd}",
                    h[(j, i)]
                );
            }
        }
    }

    #[test]
    fn warm_start_converges_faster() {
        let (data, _) = synthetic_logistic(5_000, 10, 2.0, 5);
        let spec = LogisticRegressionSpec::new(1e-3);
        let opts = OptimOptions::default();
        let cold = spec.train(&data, None, &opts).unwrap();
        let warm = spec.train(&data, Some(cold.parameters()), &opts).unwrap();
        assert!(warm.iterations <= cold.iterations);
        assert!(
            warm.iterations <= 2,
            "warm start from the optimum: {}",
            warm.iterations
        );
    }

    #[test]
    fn generalization_error_in_plausible_range() {
        let (data, w) = synthetic_logistic(10_000, 5, 2.0, 6);
        let spec = LogisticRegressionSpec::new(1e-3);
        let err = spec.generalization_error(&w, &data);
        // Margin scale 2.0 gives Bayes error ≈ 0.15–0.25.
        assert!((0.05..0.35).contains(&err), "bayes error {err}");
    }
}

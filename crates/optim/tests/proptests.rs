//! Property-based tests for the optimizer: convergence on random
//! strongly convex quadratics and line-search invariants. The cases
//! that force the L-BFGS state below the dimension limit live next to
//! the driver (`bfgs::tests::lbfgs`).

use blinkml_linalg::blas::gemm_nt;
use blinkml_linalg::Matrix;
use blinkml_optim::{
    minimize, strong_wolfe, LineSearchScratch, Objective, OptimOptions, QuadraticObjective,
    WolfeParams,
};
use proptest::prelude::*;

/// Random strongly convex quadratic of dimension `d` with its exact
/// minimizer.
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
    fn bfgs_finds_quadratic_minimum((q, solution) in random_quadratic(6)) {
        let res = minimize(&q, &[0.0; 6], &OptimOptions::default()).unwrap();
        prop_assert!(res.converged);
        for (t, s) in res.theta.iter().zip(&solution) {
            prop_assert!((t - s).abs() < 1e-4, "{t} vs {s}");
        }
    }

    #[test]
    fn line_search_satisfies_strong_wolfe(
        (q, _) in random_quadratic(4),
        start in proptest::collection::vec(-2.0f64..2.0, 4),
    ) {
        let (v0, g0) = q.value_grad(&start);
        let gnorm: f64 = g0.iter().map(|g| g * g).sum::<f64>();
        prop_assume!(gnorm > 1e-12);
        let dir: Vec<f64> = g0.iter().map(|g| -g).collect();
        let params = WolfeParams::default();
        let res = strong_wolfe(&q, &start, v0, &g0, &dir, &params, &mut LineSearchScratch::new())
            .result
            .expect("descent direction must yield a step");
        let slope0: f64 = g0.iter().zip(&dir).map(|(g, d)| g * d).sum();
        // Armijo.
        prop_assert!(res.value <= v0 + params.c1 * res.alpha * slope0 + 1e-10);
        // Curvature.
        let slope_new: f64 = res.gradient.iter().zip(&dir).map(|(g, d)| g * d).sum();
        prop_assert!(slope_new.abs() <= -params.c2 * slope0 + 1e-10);
    }

    #[test]
    fn iteration_counts_monotone_in_tolerance((q, _) in random_quadratic(6)) {
        let run = |tol: f64| {
            let options = OptimOptions {
                gradient_tolerance: tol,
                ..OptimOptions::default()
            };
            minimize(&q, &[0.0; 6], &options).unwrap().iterations
        };
        prop_assert!(run(1e-3) <= run(1e-9));
    }
}

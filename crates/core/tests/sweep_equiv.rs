//! Property tests of the sweep engine's exactness contract:
//! `Session::sweep` over a λ grid must be **bit-identical**, per grid
//! point, to looped independent `Session::train` runs on per-λ specs —
//! across model families (logistic with and without an intercept /
//! poisson / linear regression), feature layouts (dense and sparse),
//! widths (d = 5 and, with a packed final capture, d = 37), thread
//! budgets ({1, 4}), and any λ order
//! (descending, ascending, shuffled). No tolerances anywhere:
//! θ, ε₀, and ε̂ compare by `f64::to_bits`; the chosen `n`, probe
//! counts, and decision paths compare exactly.

use blinkml_core::models::{LinearRegressionSpec, LogisticRegressionSpec, PoissonRegressionSpec};
use blinkml_core::{BlinkMlConfig, ExecConfig, ModelClassSpec, Session, TrainingOutcome};
use blinkml_data::generators::{criteo_like, synthetic_linear, synthetic_logistic};
use blinkml_data::{Dataset, FeatureVec};
use blinkml_linalg::testing::budget_lock;
use proptest::prelude::*;

fn config(threads: Option<usize>) -> BlinkMlConfig {
    BlinkMlConfig {
        epsilon: 0.05,
        delta: 0.05,
        initial_sample_size: 300,
        holdout_size: 500,
        num_param_samples: 16,
        exec: ExecConfig {
            max_threads: threads,
        },
        ..BlinkMlConfig::default()
    }
}

fn assert_outcome_bitwise(context: &str, sweep: &TrainingOutcome, solo: &TrainingOutcome) {
    assert_eq!(sweep.sample_size, solo.sample_size, "{context}: chosen n");
    assert_eq!(
        sweep.used_initial_model, solo.used_initial_model,
        "{context}: decision path"
    );
    assert_eq!(
        sweep.search_probes, solo.search_probes,
        "{context}: search probes"
    );
    assert_eq!(
        sweep.initial_epsilon.to_bits(),
        solo.initial_epsilon.to_bits(),
        "{context}: ε₀"
    );
    assert_eq!(
        sweep.estimated_epsilon.to_bits(),
        solo.estimated_epsilon.to_bits(),
        "{context}: ε̂"
    );
    assert_eq!(
        sweep.model.parameters().len(),
        solo.model.parameters().len(),
        "{context}: θ dim"
    );
    for (i, (a, b)) in sweep
        .model
        .parameters()
        .iter()
        .zip(solo.model.parameters())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: θ[{i}]");
    }
    assert_eq!(
        sweep.model.iterations, solo.model.iterations,
        "{context}: iterations"
    );
    assert_eq!(
        sweep.model.converged, solo.model.converged,
        "{context}: convergence flag"
    );
    assert_eq!(
        sweep.model.objective_value.to_bits(),
        solo.model.objective_value.to_bits(),
        "{context}: objective value"
    );
}

/// The core check: one fused sweep vs per-λ independent sessions,
/// bitwise, for a given λ order and thread budget.
///
/// Every session installs `threads` as the process-wide budget, so the
/// check holds [`budget_lock`] throughout: no other pin in this binary
/// can switch the budget under it, and a budget-1 case really runs on
/// one thread.
#[allow(clippy::too_many_arguments)]
fn check_sweep_equals_loops<F, S, C>(
    context: &str,
    mk: C,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    lambdas: &[f64],
    epsilon: f64,
    seed: u64,
    threads: Option<usize>,
) where
    F: FeatureVec,
    S: ModelClassSpec<F>,
    C: Fn(f64) -> S,
{
    let _budget = budget_lock();
    let base = mk(1e-3);
    let session = Session::new(config(threads), &base, train, holdout).expect("sweep session");
    let sweep = session
        .sweep(lambdas, epsilon, 0.05, seed)
        .expect("fused sweep");
    assert!(sweep.fused, "{context}: zero-copy batched spec must fuse");
    assert_eq!(sweep.points.len(), lambdas.len());
    for (point, &lambda) in sweep.points.iter().zip(lambdas) {
        assert_eq!(point.lambda, lambda);
        let solo_spec = mk(lambda);
        let solo = Session::new(config(threads), &solo_spec, train, holdout)
            .expect("solo session")
            .train(epsilon, 0.05, seed)
            .expect("solo train");
        assert_outcome_bitwise(&format!("{context}, λ={lambda}"), &point.outcome, &solo);
    }
}

/// Deterministic Fisher–Yates over the λ grid from an explicit seed, so
/// proptest shrinks to a reproducible order.
fn shuffled(mut lambdas: Vec<f64>, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    for i in (1..lambdas.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        lambdas.swap(i, (s % (i as u64 + 1)) as usize);
    }
    lambdas
}

const GRID: [f64; 4] = [1.0, 1e-2, 1e-4, 0.0];

proptest! {
    // Each case trains a full grid plus per-λ oracles; keep the case
    // count small and push the breadth into the deterministic matrix
    // tests below.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Dense logistic: shuffled λ orders and both thread budgets, over
    /// random seeds. Order-independence comes free: every order is
    /// checked against the same order-free per-λ oracle.
    #[test]
    fn logistic_sweep_equals_loops(
        seed in 0u64..1_000,
        perm in 0u64..1_000,
        budget in 0usize..2,
    ) {
        let threads = [Some(1), Some(4)][budget];
        let (data, _) = synthetic_logistic(6_000, 5, 2.0, 71);
        let split = data.split(600, 0, 72);
        let grid = shuffled(GRID.to_vec(), perm);
        check_sweep_equals_loops(
            "dense logistic (shuffled)",
            LogisticRegressionSpec::new,
            &split.train,
            &split.holdout,
            &grid,
            0.02,
            seed,
            threads,
        );
    }

    /// Sparse logistic (criteo-like CTR data): the packed-capture and
    /// sparse-gradient paths under both budgets.
    #[test]
    fn sparse_logistic_sweep_equals_loops(
        seed in 0u64..1_000,
        budget in 0usize..2,
    ) {
        let threads = [Some(1), Some(4)][budget];
        let data = criteo_like(4_000, 64, 73);
        let split = data.split(500, 0, 74);
        check_sweep_equals_loops(
            "sparse logistic",
            LogisticRegressionSpec::new,
            &split.train,
            &split.holdout,
            &[1e-2, 1e-4],
            0.05,
            seed,
            threads,
        );
    }
}

/// The deterministic model-family × λ-order × thread-budget matrix.
/// Descending, ascending, and one fixed shuffle per family, at budgets
/// {1, 4}; linear regression also pins the non-GLM multi-λ kernel.
#[test]
fn family_order_budget_matrix() {
    let (log_data, _) = synthetic_logistic(6_000, 5, 2.0, 75);
    let log_split = log_data.split(600, 0, 76);
    let (lin_data, _) = synthetic_linear(6_000, 5, 0.5, 77);
    let lin_split = lin_data.split(600, 0, 78);
    let (poi_data, _) = blinkml_data::generators::synthetic_poisson(6_000, 5, 79);
    let poi_split = poi_data.split(600, 0, 80);

    let desc: Vec<f64> = GRID.to_vec();
    let mut asc = desc.clone();
    asc.reverse();
    let shuf = shuffled(desc.clone(), 17);

    for threads in [Some(1), Some(4)] {
        for (order_name, grid) in [("desc", &desc), ("asc", &asc), ("shuffled", &shuf)] {
            check_sweep_equals_loops(
                &format!("logistic {order_name} t={threads:?}"),
                LogisticRegressionSpec::new,
                &log_split.train,
                &log_split.holdout,
                grid,
                0.03,
                5,
                threads,
            );
            check_sweep_equals_loops(
                &format!("linreg {order_name} t={threads:?}"),
                LinearRegressionSpec::new,
                &lin_split.train,
                &lin_split.holdout,
                grid,
                0.03,
                5,
                threads,
            );
            check_sweep_equals_loops(
                &format!("poisson {order_name} t={threads:?}"),
                PoissonRegressionSpec::new,
                &poi_split.train,
                &poi_split.holdout,
                grid,
                0.03,
                5,
                threads,
            );
        }
    }
}

/// The fused-sweep pins at a width the AVX fold kernels run at
/// (d = 37: at least 8 and not a multiple of 4, so every column tail
/// runs), so the lockstep final rounds run the register-tiled
/// multi-request fold over a packed capture. Logistic and linear
/// regression, budgets {1, 4}.
#[test]
fn wide_packed_final_matrix() {
    const D: usize = 37;
    let (log_data, _) = synthetic_logistic(8_000, D, 2.0, 81);
    let log_split = log_data.split(600, 0, 82);
    let (lin_data, _) = synthetic_linear(8_000, D, 0.5, 83);
    let lin_split = lin_data.split(600, 0, 84);
    let grid = [1e-2, 1e-4, 0.0];
    for threads in [Some(1), Some(4)] {
        check_sweep_equals_loops(
            &format!("logistic d={D} t={threads:?}"),
            LogisticRegressionSpec::new,
            &log_split.train,
            &log_split.holdout,
            &grid,
            0.02,
            5,
            threads,
        );
        check_sweep_equals_loops(
            &format!("linreg d={D} t={threads:?}"),
            LinearRegressionSpec::new,
            &lin_split.train,
            &lin_split.holdout,
            &grid,
            0.02,
            5,
            threads,
        );
    }
}

/// Linear regression with labels of mean square ~100 (D = 100): every
/// pilot fit starts from the spec's cold start (`u = ln mean(y²)`), in
/// the sweep as in the solo runs; from `u = 0` these λ failed to train.
/// Budgets {1, 4}.
#[test]
fn large_label_linreg_matrix() {
    const D: usize = 100;
    let (data, _) = synthetic_linear(6_000, D, 0.5, 87);
    let split = data.split(600, 0, 88);
    let grid = [1e-4, 1e-6, 0.0];
    for threads in [Some(1), Some(4)] {
        check_sweep_equals_loops(
            &format!("linreg d={D} t={threads:?}"),
            LinearRegressionSpec::new,
            &split.train,
            &split.holdout,
            &grid,
            0.05,
            7,
            threads,
        );
    }
}

/// Logistic regression with an intercept: every grid point's base
/// scores ride in its own accuracy GEMM (the offset row carries `θ_b`),
/// and each point must stay bit-identical to its solo run, descending
/// and shuffled, at budgets {1, 4}.
#[test]
fn intercept_logistic_matrix() {
    let (data, _) = synthetic_logistic(6_000, 5, 2.0, 85);
    let split = data.split(600, 0, 86);
    let shuf = shuffled(GRID.to_vec(), 23);
    for threads in [Some(1), Some(4)] {
        for (order_name, grid) in [("desc", &GRID[..]), ("shuffled", &shuf[..])] {
            check_sweep_equals_loops(
                &format!("logistic+b {order_name} t={threads:?}"),
                LogisticRegressionSpec::with_intercept,
                &split.train,
                &split.holdout,
                grid,
                0.03,
                5,
                threads,
            );
        }
    }
}

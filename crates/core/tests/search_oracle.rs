//! The batched difference kernel's exactness pin.
//!
//! Every built-in margin spec overrides
//! [`ModelClassSpec::margin_diff_sum`] with a blocked kernel that may
//! stop early once a draw's verdict is settled, and the sample-size
//! search stops a probe once its verdict is settled.
//! `blinkml_core::testing::PerRowLoop` forwards every method **except**
//! the kernel, so it runs the trait's default per-row loop: two
//! `predict_from_margins` calls per holdout row and no early exit. Against it, `to_bits` equality of:
//!
//! * every per-draw one- and two-stage diff, and the search's per-draw
//!   verdict at, just below and just above each diff,
//! * ε₀, the chosen n, the probe count and ε̂ of a coordinator run,
//! * `curve_epsilon_at`,
//! * the RelaxedFinal ε of a served query,
//!
//! for logistic, Poisson, linear regression and max-entropy, on dense
//! and sparse features, at thread budgets {1, 4}.

use blinkml_core::config::ServeConfig;
use blinkml_core::diff_engine::{draw_pool, DiffEngine};
use blinkml_core::models::{
    LinearRegressionSpec, LogisticRegressionSpec, MaxEntSpec, PoissonRegressionSpec,
};
use blinkml_core::serve::{DatasetShard, Query, Server};
use blinkml_core::testing::{FaultAction, FaultPlan, FaultSite, HookedSpec, PerRowLoop};
use blinkml_core::{
    compute_statistics, BlinkMlConfig, Coordinator, DegradationRung, ExecConfig, ModelClassSpec,
    StatisticsMethod, TrainingOutcome,
};
use blinkml_data::generators::{
    synthetic_linear, synthetic_logistic, synthetic_multiclass, synthetic_poisson, yelp_like,
};
use blinkml_data::parallel::set_max_threads;
use blinkml_data::{Dataset, Example, FeatureVec, SparseVec};
use blinkml_linalg::testing::budget_lock;
use blinkml_optim::OptimOptions;

const THREADS: [Option<usize>; 2] = [Some(1), Some(4)];

fn config(epsilon: f64, n0: usize, threads: Option<usize>) -> BlinkMlConfig {
    BlinkMlConfig {
        epsilon,
        delta: 0.05,
        initial_sample_size: n0,
        holdout_size: 600,
        num_param_samples: 24,
        estimate_final_accuracy: true,
        exec: ExecConfig {
            max_threads: threads,
        },
        ..BlinkMlConfig::default()
    }
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn next_down(x: f64) -> f64 {
    if x == 0.0 {
        -f64::from_bits(1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Every per-draw diff of the kernel engine is bit-equal to the per-row
/// loop's, and the search's lazily evaluated per-draw verdict matches
/// the full value at the boundary itself and one ulp either side.
fn assert_draws_match<F: FeatureVec, S: ModelClassSpec<F> + Clone>(
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    n0: usize,
    seed: u64,
) {
    let opts = OptimOptions::default();
    let sample = train.sample(n0, seed);
    let model = spec.train(&sample, None, &opts).expect("pilot fit");
    let theta = model.parameters();
    let stats = compute_statistics(StatisticsMethod::ObservedFisher, spec, theta, &sample)
        .expect("pilot statistics");
    let pool_u = draw_pool(&stats, 12, seed + 1);
    let pool_w = draw_pool(&stats, 12, seed + 2);
    let oracle = PerRowLoop(spec.clone());
    let fast = DiffEngine::new(spec, holdout, theta, &pool_u, &pool_w);
    let slow = DiffEngine::new(&oracle, holdout, theta, &pool_u, &pool_w);
    for i in 0..pool_u.len() {
        for scale in [0.0, 0.05, 0.3, 1.0, 4.0] {
            let (a, b) = (fast.diff_one_stage(i, scale), slow.diff_one_stage(i, scale));
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "one-stage {i} @ {scale}: {a} vs {b}"
            );
            let (a, b) = (
                fast.diff_two_stage(i, scale, 0.5),
                slow.diff_two_stage(i, scale, 0.5),
            );
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "two-stage {i} @ {scale}: {a} vs {b}"
            );
            for epsilon in [b, next_down(b), next_up(b), 0.0, 0.02] {
                assert_eq!(
                    fast.two_stage_within(i, scale, 0.5, &fast.bound(epsilon)),
                    b <= epsilon,
                    "verdict {i} @ {scale}, ε = {epsilon} (diff {b})"
                );
            }
        }
    }
}

fn assert_outcomes_match(what: &str, a: &TrainingOutcome, b: &TrainingOutcome) {
    assert_eq!(a.sample_size, b.sample_size, "{what}: chosen n");
    assert_eq!(a.search_probes, b.search_probes, "{what}: probes");
    assert_eq!(a.used_initial_model, b.used_initial_model, "{what}: path");
    assert_eq!(
        a.initial_epsilon.to_bits(),
        b.initial_epsilon.to_bits(),
        "{what}: ε₀"
    );
    assert_eq!(
        a.estimated_epsilon.to_bits(),
        b.estimated_epsilon.to_bits(),
        "{what}: ε̂"
    );
    let (ta, tb) = (a.model.parameters(), b.model.parameters());
    assert_eq!(ta.len(), tb.len(), "{what}: θ dim");
    for (j, (x, y)) in ta.iter().zip(tb).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: θ[{j}]");
    }
}

/// Coordinator runs (ε₀, n, probes, ε̂, θ) and curve points through the
/// kernel are bit-equal to the per-row loop's, at threads {1, 4}.
fn assert_coordinator_matches<F: FeatureVec, S: ModelClassSpec<F> + Clone>(
    what: &str,
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    epsilons: &[f64],
    n0: usize,
    seed: u64,
) {
    let oracle = PerRowLoop(spec.clone());
    let _budget = budget_lock();
    for threads in THREADS {
        for &epsilon in epsilons {
            let coordinator = Coordinator::new(config(epsilon, n0, threads));
            let fast = coordinator
                .train_with_holdout(spec, train, holdout, seed)
                .expect("kernel run");
            let slow = coordinator
                .train_with_holdout(&oracle, train, holdout, seed)
                .expect("per-row run");
            let context = format!("{what}, ε = {epsilon}, threads {threads:?}");
            assert_outcomes_match(&context, &fast, &slow);
            if epsilon == epsilons[0] {
                assert!(
                    !fast.used_initial_model && fast.search_probes > 1,
                    "{context}: the pin must cover a search"
                );
            }
        }
        let coordinator = Coordinator::new(config(epsilons[0], n0, threads));
        for n in [n0, 2 * n0, train.len() / 2] {
            let a = coordinator
                .curve_epsilon_at(spec, train, holdout, seed, n)
                .expect("kernel curve");
            let b = coordinator
                .curve_epsilon_at(&oracle, train, holdout, seed, n)
                .expect("per-row curve");
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: curve ε at n = {n}");
        }
    }
    set_max_threads(None);
}

/// A relax trip at the pilot training entry: the served RelaxedFinal ε
/// (computed from the search's own scored pools) is bit-equal between
/// the kernel and the per-row loop.
fn assert_relaxed_matches<F: FeatureVec, S: ModelClassSpec<F> + Clone + 'static>(
    what: &str,
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    epsilon: f64,
    n0: usize,
) {
    let served = |oracle: bool| {
        let plan = FaultPlan::new(n0).at(FaultSite::PilotTrain, 0, FaultAction::RelaxDeadline);
        let hook = move |len| plan.on_train(len);
        let shard = DatasetShard::new(1, train.clone(), holdout.clone());
        let serve = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let base = config(epsilon, n0, Some(2));
        let server = if oracle {
            let spec = HookedSpec::new(PerRowLoop(spec.clone()), hook);
            Server::spawn(base, serve, spec, vec![shard])
        } else {
            let spec = HookedSpec::new(spec.clone(), hook);
            Server::spawn(base, serve, spec, vec![shard])
        }
        .expect("spawn server");
        let response = server
            .query(Query::new(1, epsilon, 0.05, 6))
            .expect("degraded response is Ok");
        server.shutdown();
        response
    };
    let _budget = budget_lock();
    let (fast, slow) = (served(false), served(true));
    assert_eq!(fast.rung, DegradationRung::RelaxedFinal, "{what}: rung");
    assert_eq!(
        slow.rung,
        DegradationRung::RelaxedFinal,
        "{what}: oracle rung"
    );
    assert_outcomes_match(&format!("{what}: relaxed"), &fast.outcome, &slow.outcome);
}

/// Binary labels (rating ≥ 2) over the sparse ratings data.
fn binarized(data: &Dataset<SparseVec>) -> Dataset<SparseVec> {
    Dataset::new(
        "sparse-binary",
        data.dim(),
        data.iter()
            .map(|e| Example {
                x: e.x.clone(),
                y: if e.y >= 2.0 { 1.0 } else { 0.0 },
            })
            .collect(),
    )
}

#[test]
fn logistic_kernel_matches_per_row_loop() {
    let (data, _) = synthetic_logistic(6_000, 5, 2.0, 11);
    let split = data.split(600, 0, 12);
    let spec = LogisticRegressionSpec::new(1e-3);
    assert_draws_match(&spec, &split.train, &split.holdout, 300, 13);
    assert_coordinator_matches(
        "logistic",
        &spec,
        &split.train,
        &split.holdout,
        &[0.02, 0.06],
        300,
        14,
    );
    assert_relaxed_matches("logistic", &spec, &split.train, &split.holdout, 0.02, 300);
    // An intercept moves the engine onto per-example scoring.
    let spec = LogisticRegressionSpec::with_intercept(1e-3);
    assert_draws_match(&spec, &split.train, &split.holdout, 300, 15);
}

#[test]
fn sparse_logistic_kernel_matches_per_row_loop() {
    let data = binarized(&yelp_like(3_000, 60, 21));
    let split = data.split(600, 0, 22);
    let spec = LogisticRegressionSpec::new(1e-3);
    assert_draws_match(&spec, &split.train, &split.holdout, 300, 23);
    assert_coordinator_matches(
        "sparse logistic",
        &spec,
        &split.train,
        &split.holdout,
        &[0.02],
        300,
        24,
    );
}

#[test]
fn poisson_kernel_matches_per_row_loop() {
    let (data, _) = synthetic_poisson(6_000, 4, 31);
    let split = data.split(600, 0, 32);
    let spec = PoissonRegressionSpec::new(1e-3);
    assert_draws_match(&spec, &split.train, &split.holdout, 300, 33);
    assert_coordinator_matches(
        "poisson",
        &spec,
        &split.train,
        &split.holdout,
        &[0.05, 0.2],
        300,
        34,
    );
    assert_relaxed_matches("poisson", &spec, &split.train, &split.holdout, 0.05, 300);
    let sparse = yelp_like(3_000, 60, 35);
    let split = sparse.split(600, 0, 36);
    assert_draws_match(&spec, &split.train, &split.holdout, 300, 37);
}

#[test]
fn linear_kernel_matches_per_row_loop() {
    let (data, _) = synthetic_linear(6_000, 5, 0.5, 41);
    let split = data.split(600, 0, 42);
    let spec = LinearRegressionSpec::new(1e-3);
    assert_draws_match(&spec, &split.train, &split.holdout, 300, 43);
    assert_coordinator_matches(
        "linear",
        &spec,
        &split.train,
        &split.holdout,
        &[0.02, 0.1],
        300,
        44,
    );
    assert_relaxed_matches("linear", &spec, &split.train, &split.holdout, 0.02, 300);
    let sparse = yelp_like(3_000, 60, 45);
    let split = sparse.split(600, 0, 46);
    assert_draws_match(&spec, &split.train, &split.holdout, 300, 47);
    assert_coordinator_matches(
        "sparse linear",
        &spec,
        &split.train,
        &split.holdout,
        &[0.05],
        300,
        48,
    );
}

#[test]
fn maxent_kernel_matches_per_row_loop() {
    let data = synthetic_multiclass(5_000, 5, 3, 51);
    let split = data.split(600, 0, 52);
    let spec = MaxEntSpec::new(1e-3, 3);
    assert_draws_match(&spec, &split.train, &split.holdout, 300, 53);
    assert_coordinator_matches(
        "maxent",
        &spec,
        &split.train,
        &split.holdout,
        &[0.02, 0.08],
        300,
        54,
    );
    assert_relaxed_matches("maxent", &spec, &split.train, &split.holdout, 0.02, 300);
}

#[test]
fn sparse_maxent_kernel_matches_per_row_loop() {
    let data = yelp_like(3_000, 50, 61);
    let split = data.split(600, 0, 62);
    let spec = MaxEntSpec::new(1e-3, 5);
    assert_draws_match(&spec, &split.train, &split.holdout, 300, 63);
    assert_coordinator_matches(
        "sparse maxent",
        &spec,
        &split.train,
        &split.holdout,
        &[0.01],
        300,
        64,
    );
}

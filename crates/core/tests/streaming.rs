//! Streaming-ingest harness: epoch-snapshot isolation, drift-honest
//! guarantee maintenance, and ingest fault injection.
//!
//! The streaming contract extends the serving layer's bitwise promise
//! to appendable pools: every response pins exactly one epoch snapshot
//! (reported in [`ServedResponse::epoch`]) and must be bit-equal to a
//! cold coordinator run on that snapshot's **materialized** datasets —
//! no matter how appends interleave with queries. Stale-but-servable
//! responses ([`DegradationRung::StalePilot`]) must report exactly the
//! `curve_epsilon_at` oracle value for the pilot's own snapshot.
//!
//! [`ServedResponse::epoch`]: blinkml_core::serve::ServedResponse

use blinkml_core::config::{BlinkMlConfig, ExecConfig, ServeConfig};
use blinkml_core::coordinator::Coordinator;
use blinkml_core::error::CoreError;
use blinkml_core::models::{
    LinearRegressionSpec, LogisticRegressionSpec, MaxEntSpec, PoissonRegressionSpec, PpcaSpec,
};
use blinkml_core::serve::{Query, Server, StreamShard};
use blinkml_core::testing::{FaultAction, FaultPlan, FaultSite, HookedSpec};
use blinkml_core::{DegradationRung, ModelClassSpec, TrainingOutcome, WarmStartPolicy};
use blinkml_data::generators::synthetic_logistic;
use blinkml_data::{DenseVec, Example, IngestError, IngestPolicy, LabelDomain, StreamingPool};
use blinkml_optim::OptimError;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------

/// Base configuration shared by the server and the oracle.
fn base_config(n0: usize, threads: Option<usize>) -> BlinkMlConfig {
    BlinkMlConfig {
        epsilon: 0.05,
        delta: 0.05,
        initial_sample_size: n0,
        holdout_size: 10_000, // clamped by the split below
        num_param_samples: 16,
        exec: ExecConfig {
            max_threads: threads,
        },
        ..BlinkMlConfig::default()
    }
}

/// A streaming pool seeded with a synthetic logistic epoch 0.
fn make_pool(n: usize, d: usize, seed: u64) -> StreamingPool<DenseVec> {
    let (data, _) = synthetic_logistic(n, d, 2.0, seed);
    let split = data.split(n / 8, 0, seed + 100);
    StreamingPool::from_datasets(
        &split.train,
        &split.holdout,
        LabelDomain::Binary01,
        IngestPolicy::Reject,
    )
    .expect("seed rows are valid")
}

/// A block of appendable rows, every feature shifted by `offset`
/// (offset 0 keeps the seed distribution → low drift; large offsets
/// move the pilot's predictions → drift escalation).
fn block(n: usize, d: usize, seed: u64, offset: f64) -> Vec<Example<DenseVec>> {
    let (data, _) = synthetic_logistic(n, d, 2.0, seed);
    data.examples()
        .iter()
        .map(|e| Example {
            x: DenseVec::new(e.x.0.iter().map(|v| v + offset).collect()),
            y: e.y,
        })
        .collect()
}

/// Cold-coordinator oracle on the **materialized** datasets of one
/// epoch snapshot — the reference every streaming response is compared
/// against bitwise.
fn oracle_at<S: ModelClassSpec<DenseVec>>(
    base: &BlinkMlConfig,
    spec: &S,
    pool: &StreamingPool<DenseVec>,
    epoch: u64,
    query: Query,
) -> TrainingOutcome {
    let snap = pool.snapshot_at(epoch).expect("epochs are retained");
    let train = snap.train_dataset();
    let holdout = snap.holdout_dataset();
    let mut config = base.clone();
    config.epsilon = query.epsilon;
    config.delta = query.delta;
    if let Some(n0) = query.initial_sample_size {
        config.initial_sample_size = n0;
    }
    Coordinator::new(config)
        .train_with_holdout(spec, &train, &holdout, query.seed)
        .expect("oracle run")
}

/// The `curve_epsilon_at` oracle at `n = n₀` for one epoch snapshot —
/// the reference for [`DegradationRung::StalePilot`] responses.
fn curve_oracle_at<S: ModelClassSpec<DenseVec>>(
    base: &BlinkMlConfig,
    spec: &S,
    pool: &StreamingPool<DenseVec>,
    epoch: u64,
    query: Query,
) -> f64 {
    let snap = pool.snapshot_at(epoch).expect("epochs are retained");
    let train = snap.train_dataset();
    let holdout = snap.holdout_dataset();
    let mut config = base.clone();
    config.epsilon = query.epsilon;
    config.delta = query.delta;
    if let Some(n0) = query.initial_sample_size {
        config.initial_sample_size = n0;
    }
    let n0 = config.initial_sample_size.min(train.len());
    Coordinator::new(config)
        .curve_epsilon_at(spec, &train, &holdout, query.seed, n0)
        .expect("curve oracle")
}

/// Bitwise response comparison: θ, ε₀, ε̂, chosen n, and the
/// initial-model decision must all match exactly.
fn assert_bitwise_eq(context: &str, served: &TrainingOutcome, expected: &TrainingOutcome) {
    assert_eq!(
        served.sample_size, expected.sample_size,
        "{context}: chosen n diverged"
    );
    assert_eq!(
        served.used_initial_model, expected.used_initial_model,
        "{context}: initial-model decision diverged"
    );
    assert_eq!(
        served.initial_epsilon.to_bits(),
        expected.initial_epsilon.to_bits(),
        "{context}: ε₀ diverged ({} vs {})",
        served.initial_epsilon,
        expected.initial_epsilon
    );
    assert_eq!(
        served.estimated_epsilon.to_bits(),
        expected.estimated_epsilon.to_bits(),
        "{context}: ε̂ diverged ({} vs {})",
        served.estimated_epsilon,
        expected.estimated_epsilon
    );
    let (sp, ep) = (served.model.parameters(), expected.model.parameters());
    assert_eq!(sp.len(), ep.len(), "{context}: θ dimension diverged");
    for (i, (a, b)) in sp.iter().zip(ep).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{context}: θ[{i}] diverged ({a} vs {b})"
        );
    }
}

/// Verify one streaming response against the oracle for **its own**
/// epoch: full-workflow rungs bitwise, stale-pilot rungs against the
/// curve-ε oracle.
fn check_response<S: ModelClassSpec<DenseVec>>(
    context: &str,
    base: &BlinkMlConfig,
    spec: &S,
    pool: &StreamingPool<DenseVec>,
    query: Query,
    served: &blinkml_core::serve::ServedResponse,
) {
    match served.rung {
        DegradationRung::StalePilot => {
            let expected = curve_oracle_at(base, spec, pool, served.epoch, query);
            assert!(
                served.outcome.used_initial_model,
                "{context}: stale rung must serve m₀"
            );
            assert_eq!(
                served.outcome.estimated_epsilon.to_bits(),
                expected.to_bits(),
                "{context}: stale ε̂ diverged from the curve oracle ({} vs {expected})",
                served.outcome.estimated_epsilon,
            );
            assert_eq!(
                served.outcome.initial_epsilon.to_bits(),
                expected.to_bits(),
                "{context}: stale ε₀ diverged from the curve oracle"
            );
        }
        _ => {
            let expected = oracle_at(base, spec, pool, served.epoch, query);
            assert_bitwise_eq(context, &served.outcome, &expected);
        }
    }
}

// ---------------------------------------------------------------------
// Tentpole: appends interleaved with queries, every response bit-equal
// to the cold oracle on its own epoch snapshot
// ---------------------------------------------------------------------

/// One step of a generated ingest/query schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Append a train block with the given seed and feature offset.
    AppendTrain(u64, f64),
    /// Append a holdout block (this is what moves the drift score).
    AppendHoldout(u64, f64),
    /// Submit a query with the given (ε index, seed) and await it.
    Query(usize, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..3, 0u64..50, 0usize..3, 0usize..2, 0u64..2).prop_map(|(kind, s, o, e, qs)| {
        let offset = [0.0, 0.5, 4.0][o];
        match kind {
            0 => Op::AppendTrain(1000 + s, offset),
            1 => Op::AppendHoldout(2000 + s, offset),
            _ => Op::Query(e, qs),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Arbitrary interleavings of appends and queries against a
    /// capacity-1 streaming server: whatever rung the drift ladder
    /// picks, every response must be bit-reproducible from the
    /// materialized pool of its own epoch snapshot, and the server's
    /// counters must reconcile.
    #[test]
    fn interleaved_appends_and_queries_stay_bit_identical(
        ops in proptest::collection::vec(arb_op(), 3..8),
    ) {
        let d = 4;
        let pool = Arc::new(make_pool(1_600, d, 71));
        let base = base_config(150, Some(2));
        let spec = LogisticRegressionSpec::new(1e-3);
        let epsilons = [0.30, 0.12];

        let server = Server::spawn_with_streams(
            base.clone(),
            ServeConfig {
                workers: 2,
                pilot_cache_capacity: 1,
                drift_warn: 0.2,
                drift_fail: 2.0,
                ..ServeConfig::default()
            },
            spec.clone(),
            Vec::new(),
            vec![StreamShard::from_arc(9, pool.clone())],
        )
        .expect("spawn server");

        let mut queries = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::AppendTrain(seed, offset) => {
                    pool.append(block(80, d, seed, offset)).expect("valid block");
                }
                Op::AppendHoldout(seed, offset) => {
                    pool.append_holdout(block(40, d, seed, offset)).expect("valid block");
                }
                Op::Query(e, seed) => {
                    queries += 1;
                    let query = Query::new(9, epsilons[e], 0.05, seed);
                    let served = server.query(query).expect("served");
                    check_response(
                        &format!("op#{i} eps={} seed={seed}", epsilons[e]),
                        &base, &spec, &pool, query, &served,
                    );
                }
            }
        }

        let stats = server.stats();
        prop_assert_eq!(stats.submitted, queries, "accepted = submitted on an unloaded queue");
        prop_assert_eq!(
            stats.completed + stats.failed, queries,
            "every accepted query resolved exactly once: {:?}", stats
        );
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(stats.inflight, 0, "coalescing map leaked an entry: {:?}", stats);
        prop_assert!(stats.cached_pilots <= 1, "capacity-1 LRU overfilled: {:?}", stats);
        server.shutdown();
    }
}

/// A free-running appender thread races a batch of concurrently
/// submitted queries. Whatever epoch each response lands on, it must be
/// bit-reproducible from that epoch's materialized snapshot.
#[test]
fn concurrent_appender_never_breaks_snapshot_isolation() {
    let d = 4;
    let pool = Arc::new(make_pool(3_000, d, 81));
    let base = base_config(200, Some(2));
    let spec = LogisticRegressionSpec::new(1e-3);

    let server = Server::spawn_with_streams(
        base.clone(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        spec.clone(),
        Vec::new(),
        vec![StreamShard::from_arc(3, pool.clone())],
    )
    .expect("spawn server");

    let appender = {
        let pool = pool.clone();
        std::thread::spawn(move || {
            for i in 0..6u64 {
                pool.append(block(100, d, 3_000 + i, 0.0))
                    .expect("valid block");
                pool.append_holdout(block(50, d, 4_000 + i, 0.0))
                    .expect("valid block");
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let queries: Vec<Query> = (0..8)
        .map(|i| Query::new(3, 0.30 - 0.02 * (i / 2) as f64, 0.05, (i % 2) as u64))
        .collect();
    let handles: Vec<_> = queries
        .iter()
        .map(|q| server.submit(*q).expect("submit"))
        .collect();
    appender.join().expect("appender thread");
    for (i, handle) in handles.into_iter().enumerate() {
        let served = handle.wait().expect("served");
        check_response(
            &format!("racing query#{i}"),
            &base,
            &spec,
            &pool,
            queries[i],
            &served,
        );
    }

    let stats = server.stats();
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.completed + stats.failed, 8);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.inflight, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Satellite: eager epoch invalidation, including mid-coalesce
// ---------------------------------------------------------------------

/// With `max_stale_epochs = 0`, [`Server::advance_epoch`] retires every
/// superseded pilot eagerly and no response ever reuses one — including
/// a pilot whose epoch is retired **while its leader is still
/// training** (the mid-coalesce window): the stalled waiters still get
/// their bit-exact answers, but the pilot is never cached.
#[test]
fn epoch_bump_never_serves_a_stale_pilot_even_mid_coalesce() {
    let d = 4;
    let n0 = 150;
    let pool = Arc::new(make_pool(1_600, d, 91));
    let base = base_config(n0, Some(2));
    let plain = LogisticRegressionSpec::new(1e-3);
    let query = Query::new(7, 0.25, 0.05, 3);
    let expected0 = oracle_at(&base, &plain, &pool, 0, query);

    // Stall the first pilot train long enough for a waiter to coalesce
    // and for the main thread to bump + retire the epoch mid-flight.
    let plan = FaultPlan::new(n0).at(FaultSite::PilotTrain, 0, FaultAction::SleepMs(300));
    let server = Server::spawn_with_streams(
        base.clone(),
        ServeConfig {
            workers: 2,
            max_stale_epochs: 0,
            ..ServeConfig::default()
        },
        HookedSpec::new(plain.clone(), move |len| plan.on_train(len)),
        Vec::new(),
        vec![StreamShard::from_arc(7, pool.clone())],
    )
    .expect("spawn server");

    let lead = server.submit(query).expect("submit leader");
    std::thread::sleep(Duration::from_millis(60));
    let wait = server.submit(query).expect("submit waiter");
    std::thread::sleep(Duration::from_millis(60));
    // Mid-train: advance the epoch and retire everything superseded.
    pool.append(block(100, d, 5_001, 0.0)).expect("valid block");
    server.advance_epoch(7).expect("known stream");

    let lead = lead.wait().expect("leader served");
    let wait = wait.wait().expect("waiter served");
    for (name, served) in [("leader", &lead), ("waiter", &wait)] {
        assert_eq!(served.epoch, 0, "{name} pinned the pre-append snapshot");
        assert_bitwise_eq(name, &served.outcome, &expected0);
    }
    let stats = server.stats();
    assert_eq!(stats.pilot_trains, 1, "one lead, one coalesced waiter");
    assert_eq!(stats.coalesced_waits, 1);
    assert_eq!(
        stats.cached_pilots, 0,
        "completing below the floor must publish to waiters without caching"
    );

    // The next query must retrain at the new epoch — never the old m₀.
    let expected1 = oracle_at(&base, &plain, &pool, 1, query);
    let served = server.query(query).expect("post-bump query");
    assert_eq!(served.epoch, 1, "post-bump response pins the new epoch");
    assert_bitwise_eq("post-bump", &served.outcome, &expected1);
    let stats = server.stats();
    assert_eq!(stats.pilot_trains, 2);
    assert_eq!(stats.drift_fresh + stats.drift_stale_served, 0);
    assert_eq!(stats.cached_pilots, 1, "the current-epoch pilot may cache");

    // A further bump retires the cached pilot eagerly and counts it.
    pool.append(block(100, d, 5_002, 0.0)).expect("valid block");
    let retired = server.advance_epoch(7).expect("known stream");
    assert_eq!(retired, 1, "exactly the superseded pilot retired");
    let stats = server.stats();
    assert_eq!(stats.pilots_retired, 1);
    assert_eq!(stats.cached_pilots, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Satellite: drift ladder — stale-servable ε honesty and warm-started
// retrains with the PathFollow fallback rule
// ---------------------------------------------------------------------

/// Force the drift ladder through all three rungs with feature-shifted
/// holdout appends: no shift reuses the pilot (`drift_fresh`), a medium
/// shift serves it stale with the curve-ε oracle value bit-for-bit, a
/// large shift retrains at the current epoch.
#[test]
fn drift_ladder_escalates_fresh_stale_retrain() {
    let d = 4;
    let pool = Arc::new(make_pool(1_600, d, 101));
    let base = base_config(150, Some(2));
    let spec = LogisticRegressionSpec::new(1e-3);
    let query = Query::new(5, 0.25, 0.05, 1);

    let server = Server::spawn_with_streams(
        base.clone(),
        ServeConfig {
            workers: 2,
            // A zero-width stale band: the fresh rung still applies to
            // train-only appends (score is exactly 0), while any new
            // holdout rows escalate straight to a retrain.
            drift_warn: 1e-12,
            drift_fail: 1e-12,
            ..ServeConfig::default()
        },
        spec.clone(),
        Vec::new(),
        vec![StreamShard::from_arc(5, pool.clone())],
    )
    .expect("spawn server");

    // Epoch 0: cold lead caches the pilot.
    let served = server.query(query).expect("cold query");
    assert_eq!(served.epoch, 0);
    check_response("cold", &base, &spec, &pool, query, &served);

    // Train-only append: drift score is 0 by definition → fresh reuse
    // on the pilot's own epoch-0 snapshot.
    pool.append(block(80, d, 6_001, 0.0)).expect("valid block");
    let served = server.query(query).expect("fresh query");
    assert_eq!(served.epoch, 0, "fresh reuse pins the pilot's snapshot");
    assert_eq!(served.rung, DegradationRung::Full);
    check_response("fresh", &base, &spec, &pool, query, &served);
    assert_eq!(server.stats().drift_fresh, 1);

    // Massively shifted holdout rows: score blows past drift_fail →
    // retrain at the current epoch, bit-equal to the cold oracle there.
    pool.append_holdout(block(60, d, 6_002, 25.0))
        .expect("valid block");
    let served = server.query(query).expect("retrain query");
    let current = pool.epoch();
    assert_eq!(served.epoch, current, "retrain pins the current epoch");
    assert_eq!(served.rung, DegradationRung::Full);
    check_response("retrain", &base, &spec, &pool, query, &served);
    let stats = server.stats();
    assert_eq!(stats.drift_retrains, 1);
    assert_eq!(stats.pilot_trains, 2);
    server.shutdown();
}

/// A moderately shifted holdout block lands the score between the
/// thresholds: the response must ride [`DegradationRung::StalePilot`]
/// and report **exactly** the `curve_epsilon_at` oracle ε for the
/// pilot's own snapshot.
#[test]
fn stale_servable_reports_the_curve_epsilon_oracle_bitwise() {
    let d = 4;
    let pool = Arc::new(make_pool(1_600, d, 111));
    let base = base_config(150, Some(2));
    let spec = LogisticRegressionSpec::new(1e-3);
    let query = Query::new(6, 0.25, 0.05, 2);

    // A wide-open stale band makes any nonzero drift land in it.
    let server = Server::spawn_with_streams(
        base.clone(),
        ServeConfig {
            workers: 2,
            drift_warn: 1e-9,
            drift_fail: f64::MAX,
            ..ServeConfig::default()
        },
        spec.clone(),
        Vec::new(),
        vec![StreamShard::from_arc(6, pool.clone())],
    )
    .expect("spawn server");

    let served = server.query(query).expect("cold query");
    assert_eq!(served.epoch, 0);

    pool.append_holdout(block(60, d, 7_001, 1.0))
        .expect("valid block");
    let served = server.query(query).expect("stale query");
    assert_eq!(served.rung, DegradationRung::StalePilot);
    assert_eq!(served.epoch, 0, "stale rung reports the pilot's snapshot");
    check_response("stale", &base, &spec, &pool, query, &served);
    let stats = server.stats();
    assert_eq!(stats.drift_stale_served, 1);
    assert_eq!(stats.pilot_trains, 1, "the stale rung never retrains");
    server.shutdown();
}

/// Delegating spec that rejects warm-started pilot-sized fits with
/// [`OptimError::LineSearchFailed`], leaving every cold fit untouched —
/// the deterministic trigger for the PathFollow fallback rule.
#[derive(Clone)]
struct RejectWarmPilot {
    inner: LogisticRegressionSpec,
    n0: usize,
}

/// Qualified-delegation alias: the inner GLM spec is generic over the
/// feature type, so `&self`-only methods need the target spelled out.
type Inner = dyn ModelClassSpec<DenseVec>;

impl ModelClassSpec<DenseVec> for RejectWarmPilot {
    fn name(&self) -> &'static str {
        Inner::name(&self.inner)
    }
    fn param_dim(&self, data_dim: usize) -> usize {
        Inner::param_dim(&self.inner, data_dim)
    }
    fn regularization(&self) -> f64 {
        Inner::regularization(&self.inner)
    }
    fn value_grad(
        &self,
        theta: &[f64],
        xm: &blinkml_data::MatrixView,
        scratch: &mut blinkml_data::TrainScratch,
        grad: &mut [f64],
    ) -> f64 {
        Inner::value_grad(&self.inner, theta, xm, scratch, grad)
    }
    fn grads(&self, theta: &[f64], xm: &blinkml_data::MatrixView) -> blinkml_core::grads::Grads {
        Inner::grads(&self.inner, theta, xm)
    }
    fn predict(&self, theta: &[f64], x: &DenseVec) -> f64 {
        self.inner.predict(theta, x)
    }
    fn diff(
        &self,
        theta_a: &[f64],
        theta_b: &[f64],
        holdout: &blinkml_data::Dataset<DenseVec>,
    ) -> f64 {
        self.inner.diff(theta_a, theta_b, holdout)
    }
    fn generalization_error(&self, theta: &[f64], data: &blinkml_data::Dataset<DenseVec>) -> f64 {
        self.inner.generalization_error(theta, data)
    }
    fn num_margin_outputs(&self, data_dim: usize) -> Option<usize> {
        Inner::num_margin_outputs(&self.inner, data_dim)
    }
    fn margins(&self, theta: &[f64], x: &DenseVec, out: &mut [f64]) {
        self.inner.margins(theta, x, out)
    }
    fn margin_weights(&self, theta: &[f64], data_dim: usize) -> Option<blinkml_linalg::Matrix> {
        Inner::margin_weights(&self.inner, theta, data_dim)
    }
    fn predict_from_margins(&self, scores: &[f64]) -> f64 {
        Inner::predict_from_margins(&self.inner, scores)
    }
    fn diff_is_rms(&self) -> bool {
        Inner::diff_is_rms(&self.inner)
    }
    fn train_view(
        &self,
        xm: &blinkml_data::MatrixView,
        warm_start: Option<&[f64]>,
        options: &blinkml_optim::OptimOptions,
    ) -> Result<blinkml_core::TrainedModel, CoreError> {
        if warm_start.is_some() && xm.len() == self.n0 {
            return Err(CoreError::Optimization(OptimError::LineSearchFailed {
                iteration: 0,
            }));
        }
        Inner::train_view(&self.inner, xm, warm_start, options)
    }
}

/// Under [`WarmStartPolicy::PathFollow`], a drift-triggered retrain
/// warm-starts from the stale θ; when the line search rejects the warm
/// start, the coordinator must fall back to a cold start — exactly the
/// sweep engine's rule — and the response is then bit-equal to the cold
/// oracle at the current epoch.
#[test]
fn pathfollow_retrain_falls_back_to_cold_on_line_search_failure() {
    let d = 4;
    let n0 = 150;
    let pool = Arc::new(make_pool(1_600, d, 121));
    let base = base_config(n0, Some(2));
    let plain = LogisticRegressionSpec::new(1e-3);
    let spec = RejectWarmPilot {
        inner: plain.clone(),
        n0,
    };
    let query = Query::new(8, 0.25, 0.05, 4);

    // Every nonzero drift score triggers a retrain.
    let server = Server::spawn_with_streams(
        base.clone(),
        ServeConfig {
            workers: 2,
            drift_warn: 1e-9,
            drift_fail: 1e-9,
            warm_start: WarmStartPolicy::PathFollow,
            ..ServeConfig::default()
        },
        spec,
        Vec::new(),
        vec![StreamShard::from_arc(8, pool.clone())],
    )
    .expect("spawn server");

    let served = server.query(query).expect("cold query");
    assert_eq!(served.epoch, 0);

    pool.append_holdout(block(60, d, 8_001, 1.0))
        .expect("valid block");
    let served = server.query(query).expect("retrain query");
    assert_eq!(served.epoch, 1, "retrain pins the current epoch");
    // The warm attempt failed its line search, so the fallback cold fit
    // must reproduce the plain cold oracle bit-for-bit.
    let expected = oracle_at(&base, &plain, &pool, 1, query);
    assert_bitwise_eq("pathfollow fallback", &served.outcome, &expected);
    let stats = server.stats();
    assert_eq!(stats.drift_retrains, 1);
    assert_eq!(stats.pilot_trains, 2);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Satellite: ingest validation per model-class label domain
// ---------------------------------------------------------------------

/// Every model class declares the label domain its ingest gate
/// enforces.
#[test]
fn model_classes_declare_their_label_domains() {
    assert_eq!(
        Inner::label_domain(&LogisticRegressionSpec::new(1e-3)),
        LabelDomain::Binary01
    );
    assert_eq!(
        Inner::label_domain(&PoissonRegressionSpec::new(1e-3)),
        LabelDomain::NonNegativeCount
    );
    assert_eq!(
        Inner::label_domain(&MaxEntSpec::new(1e-3, 3)),
        LabelDomain::ClassIndex(3)
    );
    assert_eq!(
        Inner::label_domain(&LinearRegressionSpec::new(1e-3)),
        LabelDomain::AnyFinite
    );
    assert_eq!(Inner::label_domain(&PpcaSpec::new(2)), LabelDomain::Unused);
}

/// One valid and one out-of-domain row per model class.
fn domain_cases() -> Vec<(LabelDomain, f64, f64)> {
    vec![
        (LabelDomain::Binary01, 1.0, 0.5),
        (LabelDomain::NonNegativeCount, 3.0, -1.0),
        (LabelDomain::ClassIndex(3), 2.0, 3.0),
        (LabelDomain::AnyFinite, -2.5, f64::INFINITY),
    ]
}

fn row(x: Vec<f64>, y: f64) -> Example<DenseVec> {
    Example {
        x: DenseVec::new(x),
        y,
    }
}

/// Under [`IngestPolicy::Reject`], NaN/Inf features and out-of-domain
/// labels reject the whole block with a typed error that maps to
/// [`CoreError::InvalidRow`]; under [`IngestPolicy::Quarantine`] the
/// bad rows are skipped and reported while the rest are admitted.
#[test]
fn ingest_gate_rejects_or_quarantines_invalid_rows_per_domain() {
    for (domain, good_y, bad_y) in domain_cases() {
        let seed = vec![row(vec![0.5, -0.5], good_y), row(vec![1.0, 0.0], good_y)];
        let pool = StreamingPool::new(
            "gate",
            2,
            seed.clone(),
            seed.clone(),
            domain,
            IngestPolicy::Reject,
        )
        .expect("valid seed rows");

        // Out-of-domain label: whole block rejected, nothing visible.
        let err = pool
            .append(vec![
                row(vec![0.1, 0.2], good_y),
                row(vec![0.3, 0.4], bad_y),
            ])
            .expect_err("bad label must reject");
        assert!(
            matches!(err, IngestError::InvalidRow { index: 1, .. }),
            "{domain:?}: expected InvalidRow at index 1, got {err:?}"
        );
        assert!(
            matches!(CoreError::from(err), CoreError::InvalidRow { index: 1, .. }),
            "{domain:?}: IngestError must map onto CoreError::InvalidRow"
        );
        assert_eq!(pool.epoch(), 0, "{domain:?}: rejected append must not bump");
        assert_eq!(pool.snapshot().train_len(), 2);

        // Non-finite feature: rejected in every domain.
        let err = pool
            .append(vec![row(vec![f64::NAN, 0.0], good_y)])
            .expect_err("NaN feature must reject");
        assert!(matches!(err, IngestError::InvalidRow { index: 0, .. }));

        // Dimension mismatch: typed separately, same CoreError surface.
        let err = pool
            .append(vec![row(vec![1.0, 2.0, 3.0], good_y)])
            .expect_err("dim mismatch must reject");
        assert!(matches!(
            err,
            IngestError::DimMismatch {
                expected: 2,
                found: 3,
                ..
            }
        ));
        assert!(matches!(CoreError::from(err), CoreError::InvalidRow { .. }));

        // Quarantine: bad rows skipped and reported, the rest admitted.
        let pool = StreamingPool::new(
            "gate",
            2,
            seed.clone(),
            seed,
            domain,
            IngestPolicy::Quarantine,
        )
        .expect("valid seed rows");
        let receipt = pool
            .append(vec![
                row(vec![0.1, 0.2], good_y),
                row(vec![0.3, 0.4], bad_y),
                row(vec![f64::NAN, 0.0], good_y),
                row(vec![0.5, 0.6], good_y),
            ])
            .expect("quarantine never fails");
        assert_eq!(receipt.accepted, 2, "{domain:?}");
        assert_eq!(receipt.quarantined, vec![1, 2], "{domain:?}");
        assert_eq!(pool.snapshot().train_len(), 4);
    }

    // PPCA ignores labels entirely: even NaN labels pass, but feature
    // validation still applies.
    let seed = vec![row(vec![0.5, -0.5], f64::NAN)];
    let pool = StreamingPool::new(
        "gate",
        2,
        seed.clone(),
        seed,
        LabelDomain::Unused,
        IngestPolicy::Reject,
    )
    .expect("labels unused");
    pool.append(vec![row(vec![1.0, 2.0], f64::NAN)])
        .expect("unused labels pass");
    pool.append(vec![row(vec![f64::INFINITY, 0.0], 0.0)])
        .expect_err("features still validated");
}

// ---------------------------------------------------------------------
// Satellite: ingest fault sites in the FaultPlan harness
// ---------------------------------------------------------------------

/// Scripted ingest faults — an append landing while the worker is
/// inside its pilot capture/train window, and an epoch bump during a
/// later pilot train — must never leak into a pinned snapshot: each
/// response stays bit-equal to the oracle for the epoch it pinned
/// before the fault fired.
#[test]
fn scripted_ingest_faults_cannot_leak_into_pinned_snapshots() {
    let d = 4;
    let n0 = 150;
    let pool = Arc::new(make_pool(1_600, d, 131));
    let base = base_config(n0, Some(2));
    let plain = LogisticRegressionSpec::new(1e-3);
    let query = Query::new(4, 0.25, 0.05, 5);

    let plan = {
        let append_pool = pool.clone();
        let bump_pool = pool.clone();
        FaultPlan::new(n0)
            .at_call(FaultSite::AppendDuringCapture, 0, move || {
                append_pool
                    .append(block(100, d, 9_001, 0.0))
                    .expect("valid block");
            })
            .at_call(FaultSite::EpochBumpDuringPilotTrain, 1, move || {
                bump_pool
                    .append(block(100, d, 9_002, 0.0))
                    .expect("valid block");
            })
    };
    let server = Server::spawn_with_streams(
        base.clone(),
        ServeConfig {
            workers: 2,
            max_stale_epochs: 0,
            ..ServeConfig::default()
        },
        HookedSpec::new(plain.clone(), move |len| plan.on_train(len)),
        Vec::new(),
        vec![StreamShard::from_arc(4, pool.clone())],
    )
    .expect("spawn server");

    // Query 1: the scripted append fires inside its pilot window; the
    // response must still describe epoch 0.
    let served = server.query(query).expect("query under append fault");
    assert_eq!(served.epoch, 0, "append mid-capture must not leak");
    assert_bitwise_eq(
        "append-during-capture",
        &served.outcome,
        &oracle_at(&base, &plain, &pool, 0, query),
    );
    assert_eq!(pool.epoch(), 1, "the scripted append really happened");

    // Retire the superseded pilot, then query again: the second pilot
    // train (at epoch 1) gets the scripted epoch bump mid-flight.
    server.advance_epoch(4).expect("known stream");
    let served = server.query(query).expect("query under bump fault");
    assert_eq!(served.epoch, 1, "epoch bump mid-train must not leak");
    assert_bitwise_eq(
        "epoch-bump-during-pilot-train",
        &served.outcome,
        &oracle_at(&base, &plain, &pool, 1, query),
    );
    assert_eq!(pool.epoch(), 2, "the scripted bump really happened");

    let stats = server.stats();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.pilot_trains, 2);
    assert_eq!(stats.drift_fresh + stats.drift_stale_served, 0);
    server.shutdown();
}

//! Deterministic concurrency harness for the serving layer.
//!
//! The serving layer's contract is that concurrency is *invisible* in
//! results: every response a [`Server`] produces must be bitwise equal
//! to a serial fresh-coordinator run of the same query, for any worker
//! count, thread budget, arrival order, cache state, or interleaving.
//! These tests drive multi-tenant schedules — seeded arrival-order
//! permutations, injected-slow-worker overlaps, capacity-1 eviction
//! thrash, mid-train panics — against a serial oracle and compare with
//! `f64::to_bits` equality (no tolerances anywhere).

use blinkml_core::config::{BlinkMlConfig, ExecConfig, ServeConfig};
use blinkml_core::coordinator::Coordinator;
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::serve::{DatasetShard, Query, Server, StreamShard, SweepQuery};
use blinkml_core::testing::HookedSpec;
use blinkml_core::WarmStartPolicy;
use blinkml_core::{ModelClassSpec, TrainingOutcome};
use blinkml_data::generators::synthetic_logistic;
use blinkml_data::{DenseVec, IngestPolicy, LabelDomain, StreamingPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// One dataset version: a seeded synthetic logistic pool + holdout.
fn make_shard(version: u64, n: usize, d: usize, seed: u64) -> DatasetShard<DenseVec> {
    let (data, _) = synthetic_logistic(n, d, 2.0, seed);
    let split = data.split(n / 8, 0, seed + 100);
    DatasetShard::new(version, split.train, split.holdout)
}

/// The serial fresh-coordinator oracle for one query: a cold
/// [`Coordinator`] run with the same base configuration and the query's
/// `(ε, δ, n₀, seed)`.
fn oracle<S: ModelClassSpec<DenseVec>>(
    base: &BlinkMlConfig,
    spec: &S,
    shard: &DatasetShard<DenseVec>,
    query: Query,
) -> TrainingOutcome {
    let mut config = base.clone();
    config.epsilon = query.epsilon;
    config.delta = query.delta;
    if let Some(n0) = query.initial_sample_size {
        config.initial_sample_size = n0;
    }
    Coordinator::new(config)
        .train_with_holdout(spec, &shard.train, &shard.holdout, query.seed)
        .expect("oracle run")
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

/// Seeded in-place Fisher–Yates over `items` (xorshift64*) — the
/// deterministic arrival-order permutation of the harness.
fn permute<T>(items: &mut [T], seed: u64) {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s.wrapping_mul(0x2545F4914F6CDD1D)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

// ---------------------------------------------------------------------
// Injection wrappers: delegating specs that perturb *scheduling* only
// (never math), so served results must still match the plain oracle.
// ---------------------------------------------------------------------

/// Spec that sleeps before every pilot-sized training call — widens the
/// in-flight window so coalescing and eviction races actually overlap.
/// (`HookedSpec` itself lives in `blinkml_core::testing`, shared with
/// the resilience harness in `tests/resilience.rs`.)
fn slow_spec(
    reg: f64,
    n0: usize,
    delay: Duration,
) -> HookedSpec<LogisticRegressionSpec, impl Fn(usize) + Send + Sync> {
    HookedSpec::new(LogisticRegressionSpec::new(reg), move |sample_len| {
        if sample_len == n0 {
            std::thread::sleep(delay);
        }
    })
}

// ---------------------------------------------------------------------
// Tentpole: N tenants × M interleaved queries vs the serial oracle
// ---------------------------------------------------------------------

/// 8 tenants × 4 queries over 2 dataset versions, served under thread
/// budgets {1, 4} and two seeded arrival permutations each; every
/// response is compared bitwise against the serial oracle, and the
/// pilot must have been trained exactly once per distinct
/// `(dataset_version, n₀, seed)` key.
#[test]
fn interleaved_tenants_match_serial_oracle_under_thread_budgets() {
    const TENANTS: usize = 8;
    const QUERIES_PER_TENANT: usize = 4;
    let epsilons = [0.30, 0.12, 0.06, 0.18];
    let shards = [make_shard(1, 4_000, 4, 11), make_shard(2, 4_000, 4, 12)];
    let spec = LogisticRegressionSpec::new(1e-3);

    // Tenants 0–3 hit version 1, tenants 4–7 hit version 2, each with
    // sampling seed (t mod 4): the four ε queries of one tenant share a
    // pilot key, which is what exercises both the cache-hit and the
    // coalescing paths, while every tenant's key stays distinct.
    let queries: Vec<Query> = (0..TENANTS)
        .flat_map(|t| {
            (0..QUERIES_PER_TENANT)
                .map(move |j| Query::new(1 + (t / 4) as u64, epsilons[j], 0.05, (t % 4) as u64))
        })
        .collect();
    assert!(queries.len() >= 32, "harness floor: N×M ≥ 32 queries");
    let distinct_pilot_keys = 2 * 4; // versions × seeds (n₀ fixed)

    for threads in [Some(1), Some(4)] {
        let base = base_config(250, threads);
        // Serial oracle pass (fresh coordinator per query).
        let expected: Vec<TrainingOutcome> = queries
            .iter()
            .map(|q| oracle(&base, &spec, &shards[(q.dataset - 1) as usize], *q))
            .collect();

        for order_seed in [1u64, 2u64] {
            let server = Server::spawn(
                base.clone(),
                ServeConfig::default(),
                spec.clone(),
                shards.to_vec(),
            )
            .expect("spawn server");

            let mut order: Vec<usize> = (0..queries.len()).collect();
            permute(&mut order, order_seed);
            let handles: Vec<(usize, blinkml_core::serve::ResponseHandle)> = order
                .iter()
                .map(|&i| (i, server.submit(queries[i]).expect("submit")))
                .collect();
            for (i, handle) in handles {
                let served = handle.wait().expect("served response");
                assert_bitwise_eq(
                    &format!("threads={threads:?} order={order_seed} query#{i}"),
                    &served.outcome,
                    &expected[i],
                );
            }

            let stats = server.stats();
            assert_eq!(stats.completed, queries.len() as u64);
            assert_eq!(stats.failed, 0);
            assert_eq!(
                stats.pilot_trains, distinct_pilot_keys as u64,
                "pilot trained exactly once per distinct (version, n₀, seed)"
            );
            assert_eq!(
                stats.pilot_trains + stats.cache_hits + stats.coalesced_waits,
                queries.len() as u64,
                "every query either led, hit, or coalesced"
            );
            assert_eq!(stats.inflight, 0, "no leaked in-flight entries");
            // Counter reconciliation: accepted = resolved, and none of
            // the resilience paths fire on an unloaded, fault-free run.
            assert_eq!(
                stats.submitted,
                stats.completed + stats.failed,
                "every accepted query resolved exactly once"
            );
            assert_eq!(stats.sheds, 0);
            assert_eq!(stats.deadline_degraded, 0);
            assert_eq!(stats.retries, 0);
            assert_eq!(stats.queue_full_rejects, 0);
            assert_eq!(stats.tenant_rejects, 0);
            server.shutdown();
        }
    }
}

/// Injected-slow-worker coalescing: 8 queries that share one pilot key
/// arrive while the leader is deliberately stalled inside pilot
/// training. All four workers pile onto the same key, yet the pilot is
/// trained exactly once and every response matches the plain oracle.
#[test]
fn slow_leader_coalesces_identical_pilots_to_one_train() {
    let n0 = 250;
    let shard = make_shard(1, 4_000, 4, 21);
    let base = base_config(n0, Some(4));
    let plain = LogisticRegressionSpec::new(1e-3);

    let queries: Vec<Query> = [0.30, 0.24, 0.20, 0.16, 0.28, 0.22, 0.26, 0.18]
        .iter()
        .map(|&eps| Query::new(1, eps, 0.05, 7))
        .collect();
    let expected: Vec<TrainingOutcome> = queries
        .iter()
        .map(|q| oracle(&base, &plain, &shard, *q))
        .collect();

    let server = Server::spawn(
        base,
        ServeConfig::default(),
        slow_spec(1e-3, n0, Duration::from_millis(80)),
        vec![shard],
    )
    .expect("spawn server");
    let handles: Vec<_> = queries
        .iter()
        .map(|q| server.submit(*q).expect("submit"))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let served = handle.wait().expect("served");
        assert_bitwise_eq(
            &format!("slow-leader query#{i}"),
            &served.outcome,
            &expected[i],
        );
    }

    let stats = server.stats();
    assert_eq!(stats.pilot_trains, 1, "coalescing: one pilot train total");
    assert!(
        stats.coalesced_waits >= 1,
        "the stalled window must have produced at least one waiter, got {stats:?}"
    );
    assert_eq!(stats.inflight, 0);
}

/// Eviction race at capacity 1: two pilot keys thrash one cache slot
/// while slow pilot training keeps the in-flight windows wide. Evicted
/// pilots retrain bit-identically — responses still match the oracle.
#[test]
fn capacity_one_eviction_thrash_stays_bit_identical() {
    let n0 = 200;
    let shards = [make_shard(1, 3_000, 4, 31), make_shard(2, 3_000, 4, 32)];
    let base = base_config(n0, Some(4));
    let plain = LogisticRegressionSpec::new(1e-3);

    // Alternate versions so every miss evicts the other key's pilot.
    let queries: Vec<Query> = (0..12)
        .map(|i| Query::new(1 + (i % 2) as u64, 0.25 - 0.01 * (i / 2) as f64, 0.05, 5))
        .collect();
    let expected: Vec<TrainingOutcome> = queries
        .iter()
        .map(|q| oracle(&base, &plain, &shards[(q.dataset - 1) as usize], *q))
        .collect();

    let server = Server::spawn(
        base,
        ServeConfig {
            workers: 4,
            pilot_cache_capacity: 1,
            ..ServeConfig::default()
        },
        slow_spec(1e-3, n0, Duration::from_millis(20)),
        shards.to_vec(),
    )
    .expect("spawn server");
    let handles: Vec<_> = queries
        .iter()
        .map(|q| server.submit(*q).expect("submit"))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let served = handle.wait().expect("served");
        assert_bitwise_eq(&format!("evict query#{i}"), &served.outcome, &expected[i]);
    }

    let stats = server.stats();
    assert!(
        stats.evictions >= 1,
        "capacity-1 cache with two keys must evict, got {stats:?}"
    );
    assert!(stats.cached_pilots <= 1);
    assert_eq!(stats.inflight, 0);
}

/// Sweep queries interleaved with plain training queries: every grid
/// point must equal the per-λ serial oracle bitwise, sweeps must
/// neither read nor populate the pilot cache, and the sweep counters
/// (`sweep_queries`, `warm_starts_taken`, `warm_starts_rejected`) must
/// reconcile with the per-response bookkeeping.
#[test]
fn interleaved_sweeps_match_per_lambda_oracles() {
    let n0 = 250;
    let shard = make_shard(1, 6_000, 4, 61);
    let base = base_config(n0, Some(4));
    let lambdas = vec![0.1, 1e-3, 1e-5];

    // Per-λ serial oracles: a cold coordinator run per grid point.
    let expected: Vec<TrainingOutcome> = lambdas
        .iter()
        .map(|&l| {
            oracle(
                &base,
                &LogisticRegressionSpec::new(l),
                &shard,
                Query::new(1, 0.03, 0.05, 7),
            )
        })
        .collect();

    let server = Server::spawn(
        base.clone(),
        ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        },
        LogisticRegressionSpec::new(1e-3),
        vec![shard.clone()],
    )
    .expect("spawn server");

    // Interleave: sweep, plain query, path-following sweep.
    let sweep_handle = server
        .submit_sweep(SweepQuery::new(1, lambdas.clone(), 0.03, 0.05, 7))
        .expect("submit sweep");
    let train_handle = server.submit(Query::new(1, 0.10, 0.05, 8)).expect("submit");
    let pf_handle = server
        .submit_sweep(
            SweepQuery::new(1, lambdas.clone(), 0.03, 0.05, 7)
                .with_warm_start(WarmStartPolicy::PathFollow),
        )
        .expect("submit pf sweep");

    let served = sweep_handle.wait().expect("sweep served");
    assert!(served.result.fused, "zero-copy logistic sweep must fuse");
    for ((point, expected), &lambda) in served.result.points.iter().zip(&expected).zip(&lambdas) {
        assert_bitwise_eq(&format!("sweep λ={lambda}"), &point.outcome, expected);
    }
    assert_eq!(served.result.warm_starts_taken, 0);
    assert_eq!(served.result.warm_starts_rejected, 0);

    let plain = train_handle.wait().expect("train served");
    let plain_oracle = oracle(
        &base,
        &LogisticRegressionSpec::new(1e-3),
        &shard,
        Query::new(1, 0.10, 0.05, 8),
    );
    assert_bitwise_eq("train amid sweeps", &plain.outcome, &plain_oracle);

    let pf = pf_handle.wait().expect("pf sweep served");
    let pf_trained = pf
        .result
        .points
        .iter()
        .filter(|p| !p.outcome.used_initial_model)
        .count();
    if pf_trained > 1 {
        assert_eq!(
            pf.result.warm_starts_taken + pf.result.warm_starts_rejected,
            pf_trained - 1,
            "every non-anchor final fit is either taken or rejected"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.sweep_queries, 2);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 0);
    assert_eq!(
        stats.warm_starts_taken as usize + stats.warm_starts_rejected as usize,
        pf.result.warm_starts_taken + pf.result.warm_starts_rejected,
        "server counters reconcile with per-response counts"
    );
    assert_eq!(
        stats.cached_pilots, 1,
        "only the plain query populates the pilot cache; sweeps bypass it"
    );
    assert_eq!(stats.inflight, 0);
    server.shutdown();
}

/// A panic in the middle of pilot training resolves that query to
/// `Err`, retires the in-flight entry (no poisoned cache, no leak), and
/// the very next query for the same key retrains and serves the exact
/// oracle answer.
#[test]
fn mid_train_panic_fails_one_query_and_queue_recovers() {
    let n0 = 200;
    let shard = make_shard(1, 3_000, 4, 41);
    let base = base_config(n0, Some(4));
    let plain = LogisticRegressionSpec::new(1e-3);
    let query = Query::new(1, 0.2, 0.05, 3);
    let expected = oracle(&base, &plain, &shard, query);

    let tripped = AtomicBool::new(false);
    let panicking = HookedSpec::new(
        LogisticRegressionSpec::new(1e-3),
        move |sample_len: usize| {
            if sample_len == n0 && !tripped.swap(true, Ordering::SeqCst) {
                panic!("injected mid-train panic");
            }
        },
    );
    // retry_budget 0: this test pins the *un-retried* failure surface;
    // the retry path is pinned by `tests/resilience.rs`.
    let server = Server::spawn(
        base,
        ServeConfig {
            retry_budget: 0,
            ..ServeConfig::default()
        },
        panicking,
        vec![shard],
    )
    .expect("spawn server");

    let err = server.query(query);
    assert!(
        matches!(err, Err(blinkml_core::serve::ServeError::WorkerPanicked(_))),
        "first query must surface the contained panic, got {err:?}"
    );
    let stats = server.stats();
    assert_eq!(stats.inflight, 0, "failed leader must retire its entry");
    assert_eq!(stats.cached_pilots, 0, "failure must not cache a pilot");

    // The queue is not wedged: the retry leads a fresh pilot and serves
    // the exact oracle answer.
    let served = server.query(query).expect("retry after panic");
    assert_bitwise_eq("post-panic retry", &served.outcome, &expected);
    let stats = server.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.pilot_trains, 1);
}

/// Scratch-aliasing regression: pilot captures large enough to take the
/// packed-buffer path (n₀·d·8 B > `PACK_THRESHOLD_BYTES`) run on two
/// workers whose pilot phases are forced to overlap. Each worker owns
/// its own `CaptureScratch`, so the packed samples cannot alias — which
/// the bitwise oracle comparison would expose immediately if they did.
#[test]
fn overlapping_packed_captures_do_not_alias_scratch_buffers() {
    let (n0, d) = (800, 48);
    assert!(
        n0 * d * std::mem::size_of::<f64>() > blinkml_data::PACK_THRESHOLD_BYTES,
        "pilot capture must exceed the packing threshold for this test to bite"
    );
    let shard = make_shard(1, 3_000, d, 51);
    let base = base_config(n0, Some(1));
    let plain = LogisticRegressionSpec::new(1e-3);

    // Distinct seeds → distinct pilots → both workers pack concurrently.
    let queries: Vec<Query> = (0..4).map(|s| Query::new(1, 0.35, 0.05, s)).collect();
    let expected: Vec<TrainingOutcome> = queries
        .iter()
        .map(|q| oracle(&base, &plain, &shard, *q))
        .collect();

    let server = Server::spawn(
        base,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        slow_spec(1e-3, n0, Duration::from_millis(40)),
        vec![shard],
    )
    .expect("spawn server");
    let handles: Vec<_> = queries
        .iter()
        .map(|q| server.submit(*q).expect("submit"))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let served = handle.wait().expect("served");
        assert_bitwise_eq(&format!("packed query#{i}"), &served.outcome, &expected[i]);
    }
    assert_eq!(server.stats().pilot_trains, 4);
}

// ---------------------------------------------------------------------
// One dataset kind: a static shard is a pool frozen at epoch 0
// ---------------------------------------------------------------------

/// A [`DatasetShard`] is served as a pool frozen at epoch 0, so it and a
/// [`StreamShard`] over the same rows must answer a mixed schedule —
/// cache hits, per-query `n₀` overrides, a sweep — with the same bits,
/// all at epoch 0, and end with equal counters.
#[test]
fn static_and_stream_shards_over_the_same_rows_serve_identically() {
    let shard = make_shard(1, 2_400, 4, 71);
    let base = base_config(150, Some(1));
    let spec = LogisticRegressionSpec::new(1e-3);
    let queries = [
        Query::new(1, 0.30, 0.05, 1),
        Query::new(1, 0.12, 0.05, 1),
        Query::new(1, 0.30, 0.05, 2).with_initial_sample_size(220),
        Query::new(1, 0.20, 0.10, 1).with_initial_sample_size(220),
        Query::new(1, 0.12, 0.05, 2).with_initial_sample_size(220),
    ];
    let sweep = SweepQuery::new(1, vec![0.1, 1e-3], 0.2, 0.05, 3);
    let run = |server: Server| {
        let responses: Vec<_> = queries
            .iter()
            .map(|q| server.query(*q).expect("served"))
            .collect();
        let swept = server.sweep(sweep.clone()).expect("sweep");
        let stats = server.stats();
        server.shutdown();
        (responses, swept, stats)
    };
    let (fixed, fixed_sweep, fixed_stats) = run(Server::spawn(
        base.clone(),
        ServeConfig::default(),
        spec.clone(),
        vec![shard.clone()],
    )
    .expect("spawn static server"));
    let pool = StreamingPool::from_datasets(
        &shard.train,
        &shard.holdout,
        LabelDomain::Binary01,
        IngestPolicy::Reject,
    )
    .expect("valid rows");
    let (streamed, streamed_sweep, streamed_stats) = run(Server::spawn_with_streams(
        base.clone(),
        ServeConfig::default(),
        spec.clone(),
        Vec::new(),
        vec![StreamShard::new(1, pool)],
    )
    .expect("spawn stream server"));

    for (i, (a, b)) in fixed.iter().zip(&streamed).enumerate() {
        let context = format!("query#{i}");
        assert_bitwise_eq(&context, &a.outcome, &b.outcome);
        assert_bitwise_eq(
            &context,
            &a.outcome,
            &oracle(&base, &spec, &shard, queries[i]),
        );
        assert_eq!((a.rung, a.epoch), (b.rung, b.epoch), "{context}");
        assert_eq!(a.epoch, 0, "{context}: a static shard never leaves epoch 0");
    }
    let points = fixed_sweep
        .result
        .points
        .iter()
        .zip(&streamed_sweep.result.points);
    for (i, (a, b)) in points.enumerate() {
        assert_bitwise_eq(&format!("sweep point#{i}"), &a.outcome, &b.outcome);
    }
    assert_eq!(fixed_stats, streamed_stats);
    assert_eq!(
        (fixed_stats.pilot_trains, fixed_stats.cache_hits),
        (3, 2),
        "seed 1 at the default n₀ and seed 2 at n₀ = 220 each hit once"
    );
}

// ---------------------------------------------------------------------
// Satellite: proptest cache semantics
// ---------------------------------------------------------------------

fn arb_query() -> impl Strategy<Value = Query> {
    (0u64..2, 0usize..2, 1u64..4, 0usize..2).prop_map(|(dataset, eps, seed, n0)| {
        Query::new(1 + dataset, [0.30, 0.12][eps], 0.05, seed)
            .with_initial_sample_size([150, 220][n0])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary request sequences over (dataset, n₀, seed, ε) against
    /// a capacity-1, two-worker server: the LRU never serves a stale
    /// pilot across dataset versions and eviction thrash never changes
    /// a bit (both follow from per-query oracle equality, since the
    /// oracle is computed per dataset version), and the coalescing map
    /// never leaks an in-flight entry.
    #[test]
    fn arbitrary_request_sequences_stay_bit_identical(
        queries in proptest::collection::vec(arb_query(), 3..8),
        order_seed in 0u64..1000,
    ) {
        let shards = [make_shard(1, 1_600, 4, 61), make_shard(2, 1_600, 4, 62)];
        let base = base_config(150, Some(2));
        let spec = LogisticRegressionSpec::new(1e-3);

        let mut order: Vec<usize> = (0..queries.len()).collect();
        permute(&mut order, order_seed);

        let server = Server::spawn(
            base.clone(),
            ServeConfig { workers: 2, pilot_cache_capacity: 1, ..ServeConfig::default() },
            spec.clone(),
            shards.to_vec(),
        )
        .expect("spawn server");
        let handles: Vec<(usize, _)> = order
            .iter()
            .map(|&i| (i, server.submit(queries[i]).expect("submit")))
            .collect();
        for (i, handle) in handles {
            let served = handle.wait().expect("served");
            let expected = oracle(&base, &spec, &shards[(queries[i].dataset - 1) as usize], queries[i]);
            assert_bitwise_eq(&format!("prop query#{i}"), &served.outcome, &expected);
        }
        let stats = server.stats();
        prop_assert_eq!(stats.inflight, 0, "coalescing map leaked an entry: {:?}", stats);
        prop_assert!(stats.cached_pilots <= 1, "capacity-1 LRU overfilled: {:?}", stats);
        prop_assert_eq!(stats.failed, 0);
    }
}

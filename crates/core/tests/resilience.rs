//! Deterministic fault-injection harness for the serving layer's
//! resilience machinery (deadlines, the degradation ladder, admission
//! control, retries, shutdown-abort).
//!
//! Faults are scripted through [`FaultPlan`] hooks that fire at exact
//! per-site training-entry occurrences — panics, slow-downs, and
//! deadline trips through the thread-local active-token surface — so
//! every schedule replays identically with no wall-clock dependence.
//! The contracts pinned here:
//!
//! * **Exactly-once resolution**: under any fault plan, every accepted
//!   query's handle resolves exactly once (no lost or double-completed
//!   tickets), and `submitted == completed + failed` at quiescence.
//! * **Honest degraded guarantees**: a degraded response's ε is
//!   bit-equal to what a cold coordinator computes for that rung — the
//!   pilot's ε₀ for the [`Pilot`] rung, [`Coordinator::curve_epsilon_at`]
//!   for the [`RelaxedFinal`] rung.
//! * **Unloaded invariance**: an untripped cancellation token changes
//!   no result bit.
//!
//! [`Pilot`]: DegradationRung::Pilot
//! [`RelaxedFinal`]: DegradationRung::RelaxedFinal

use blinkml_core::config::{BlinkMlConfig, ExecConfig, ServeConfig};
use blinkml_core::coordinator::Coordinator;
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::serve::{DatasetShard, Query, ServeError, Server};
use blinkml_core::testing::{FaultAction, FaultPlan, FaultSite, HookedSpec};
use blinkml_core::{DegradationRung, ShedPolicy, TrainingOutcome};
use blinkml_data::generators::synthetic_logistic;
use blinkml_data::DenseVec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------

fn base_config(n0: usize) -> BlinkMlConfig {
    BlinkMlConfig {
        epsilon: 0.05,
        delta: 0.05,
        initial_sample_size: n0,
        holdout_size: 10_000, // clamped by the split below
        num_param_samples: 16,
        exec: ExecConfig {
            max_threads: Some(2),
        },
        ..BlinkMlConfig::default()
    }
}

fn make_shard(version: u64, n: usize, seed: u64) -> DatasetShard<DenseVec> {
    let (data, _) = synthetic_logistic(n, 4, 2.0, seed);
    let split = data.split(n / 8, 0, seed + 100);
    DatasetShard::new(version, split.train, split.holdout)
}

/// Cold-coordinator oracle for one query (full workflow, no faults).
fn oracle(base: &BlinkMlConfig, shard: &DatasetShard<DenseVec>, query: Query) -> TrainingOutcome {
    let mut config = base.clone();
    config.epsilon = query.epsilon;
    config.delta = query.delta;
    Coordinator::new(config)
        .train_with_holdout(
            &LogisticRegressionSpec::new(1e-3),
            &shard.train,
            &shard.holdout,
            query.seed,
        )
        .expect("oracle run")
}

fn assert_theta_eq(context: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{context}: θ dimension diverged");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: θ[{i}] diverged ({x} vs {y})"
        );
    }
}

/// Spec whose first pilot-sized training call parks on a caller-held
/// gate: `entered` flips once the worker is inside training, and the
/// worker stays there until `release` flips. Turns "the worker is busy"
/// from a race into a checkpoint.
fn gated_spec(
    n0: usize,
    entered: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
) -> HookedSpec<LogisticRegressionSpec, impl Fn(usize) + Send + Sync> {
    let gated = AtomicBool::new(false);
    HookedSpec::new(LogisticRegressionSpec::new(1e-3), move |sample_len| {
        if sample_len == n0 && !gated.swap(true, Ordering::SeqCst) {
            entered.store(true, Ordering::SeqCst);
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    })
}

fn spin_until(flag: &AtomicBool, what: &str) {
    for _ in 0..5_000 {
        if flag.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

// ---------------------------------------------------------------------
// Tentpole: degraded rungs report the exact cold-coordinator ε
// ---------------------------------------------------------------------

/// A deadline trip at the final-train entry cancels the optimizer on
/// its first iteration; the ladder falls to the pilot rung. The
/// response must carry the pilot model and its honest ε₀, both
/// bit-equal to a cold coordinator's pilot for the same query.
#[test]
fn pilot_rung_reports_cold_pilot_epsilon_bitwise() {
    let n0 = 250;
    let shard = make_shard(1, 5_000, 71);
    let base = base_config(n0);
    // Tight ε so the full workflow would train a final model.
    let query = Query::new(1, 0.03, 0.05, 5);
    let cold_full = oracle(&base, &shard, query);
    assert!(
        !cold_full.used_initial_model,
        "contract must be tight enough to require final training"
    );

    let plan = FaultPlan::new(n0).at(FaultSite::FinalTrain, 0, FaultAction::TripDeadline);
    let spec = HookedSpec::new(LogisticRegressionSpec::new(1e-3), move |len| {
        plan.on_train(len)
    });
    let server = Server::spawn(
        base.clone(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        spec,
        vec![shard.clone()],
    )
    .expect("spawn server");
    let served = server.query(query).expect("degraded response is Ok");
    assert_eq!(served.rung, DegradationRung::Pilot);
    assert!(served.outcome.used_initial_model);
    assert_eq!(served.outcome.sample_size, n0);

    // ε₀ is computed before the fault fires, identically to a cold run.
    assert_eq!(
        served.outcome.estimated_epsilon.to_bits(),
        cold_full.initial_epsilon.to_bits(),
        "pilot rung must report the cold ε₀ ({} vs {})",
        served.outcome.estimated_epsilon,
        cold_full.initial_epsilon
    );

    // The pilot θ: a cold run with a loose contract that the pilot
    // already satisfies returns exactly m₀ (pilots are ε-independent).
    let pilot_oracle = oracle(&base, &shard, Query::new(1, 0.95, 0.05, query.seed));
    assert!(pilot_oracle.used_initial_model, "ε = 0.95 must admit m₀");
    assert_theta_eq(
        "pilot rung θ",
        served.outcome.model.parameters(),
        pilot_oracle.model.parameters(),
    );

    let stats = server.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.deadline_degraded, 1);
    assert_eq!(stats.failed, 0);
    server.shutdown();
}

/// A relax trip during the pilot phase downgrades the final training to
/// the relaxed sample size. The response's ε must be bit-equal to
/// [`Coordinator::curve_epsilon_at`] for the exact `n` it trained on —
/// the honest guarantee a cold coordinator assigns to that curve point.
#[test]
fn relaxed_final_rung_matches_curve_epsilon_oracle() {
    let n0 = 250;
    let shard = make_shard(1, 5_000, 72);
    let base = base_config(n0);
    let query = Query::new(1, 0.03, 0.05, 6);
    let cold_full = oracle(&base, &shard, query);
    assert!(
        cold_full.sample_size > n0 + 4,
        "search must choose an n with room to relax (got {})",
        cold_full.sample_size
    );

    let plan = FaultPlan::new(n0).at(FaultSite::PilotTrain, 0, FaultAction::RelaxDeadline);
    let spec = HookedSpec::new(LogisticRegressionSpec::new(1e-3), move |len| {
        plan.on_train(len)
    });
    let server = Server::spawn(
        base.clone(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        spec,
        vec![shard.clone()],
    )
    .expect("spawn server");
    let served = server.query(query).expect("degraded response is Ok");
    assert_eq!(served.rung, DegradationRung::RelaxedFinal);
    assert!(!served.outcome.used_initial_model);
    let n_relaxed = served.outcome.sample_size;
    assert!(
        n0 < n_relaxed && n_relaxed < cold_full.sample_size,
        "relaxed n = {n_relaxed} must sit strictly inside (n₀, n) = ({n0}, {})",
        cold_full.sample_size
    );

    // The bit-equal honest guarantee for that curve point, recomputed
    // by a cold coordinator.
    let mut cfg = base.clone();
    cfg.epsilon = query.epsilon;
    cfg.delta = query.delta;
    let curve_eps = Coordinator::new(cfg)
        .curve_epsilon_at(
            &LogisticRegressionSpec::new(1e-3),
            &shard.train,
            &shard.holdout,
            query.seed,
            n_relaxed,
        )
        .expect("curve oracle");
    assert_eq!(
        served.outcome.estimated_epsilon.to_bits(),
        curve_eps.to_bits(),
        "relaxed rung ε must equal the cold curve ε ({} vs {curve_eps})",
        served.outcome.estimated_epsilon
    );
    // Honesty: the achieved ε is worse than the requested contract but
    // better than doing nothing (the pilot's ε₀).
    assert!(served.outcome.estimated_epsilon > query.epsilon);
    assert!(served.outcome.estimated_epsilon < cold_full.initial_epsilon);

    let stats = server.stats();
    assert_eq!(stats.deadline_degraded, 1);
    server.shutdown();
}

/// A deadline trip at the *pilot* training entry fires before any model
/// with a guarantee exists: the ladder has no rung to stand on and the
/// query fail-fasts with `DeadlineExceeded` (never a fabricated model).
#[test]
fn deadline_before_pilot_fails_fast() {
    let n0 = 200;
    let shard = make_shard(1, 3_000, 73);
    let plan = FaultPlan::new(n0).at(FaultSite::PilotTrain, 0, FaultAction::TripDeadline);
    let spec = HookedSpec::new(LogisticRegressionSpec::new(1e-3), move |len| {
        plan.on_train(len)
    });
    let server = Server::spawn(
        base_config(n0),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        spec,
        vec![shard],
    )
    .expect("spawn server");
    let err = server.query(Query::new(1, 0.1, 0.05, 2));
    assert!(
        matches!(err, Err(ServeError::DeadlineExceeded)),
        "expected DeadlineExceeded, got {err:?}"
    );
    let stats = server.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.deadline_degraded, 0);
    // The tripped token is the job's own: terminal, not retried.
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.inflight, 0, "failed leader must retire its entry");
    server.shutdown();
}

/// An untripped token must change no result bit: queries carrying a
/// generous deadline resolve on the full rung, bit-identical to the
/// cold coordinator (and to the same query with no deadline at all).
#[test]
fn untripped_deadline_token_is_bitwise_invisible() {
    let n0 = 250;
    let shard = make_shard(1, 4_000, 74);
    let base = base_config(n0);
    let server = Server::spawn(
        base.clone(),
        ServeConfig::default(),
        LogisticRegressionSpec::new(1e-3),
        vec![shard.clone()],
    )
    .expect("spawn server");
    for (eps, seed) in [(0.03, 1u64), (0.20, 2)] {
        let plain = Query::new(1, eps, 0.05, seed);
        let cold = oracle(&base, &shard, plain);
        let with_deadline = server
            .query(plain.with_deadline(Duration::from_secs(3600)))
            .expect("served");
        assert_eq!(with_deadline.rung, DegradationRung::Full);
        assert_eq!(with_deadline.outcome.sample_size, cold.sample_size);
        assert_eq!(
            with_deadline.outcome.estimated_epsilon.to_bits(),
            cold.estimated_epsilon.to_bits()
        );
        assert_eq!(
            with_deadline.outcome.initial_epsilon.to_bits(),
            cold.initial_epsilon.to_bits()
        );
        assert_theta_eq(
            "untripped-token θ",
            with_deadline.outcome.model.parameters(),
            cold.model.parameters(),
        );
    }
    let stats = server.stats();
    assert_eq!(stats.deadline_degraded, 0);
    assert_eq!(stats.completed, 2);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Retry path: poisoned in-flight pilot entry with concurrent waiters
// ---------------------------------------------------------------------

/// The first pilot leader stalls, gathers waiters, then panics —
/// poisoning the in-flight entry for everyone coalesced onto it. The
/// retry budget re-runs all of them: a fresh leader trains the pilot
/// cleanly and every query converges to the exact oracle answer.
#[test]
fn poisoned_inflight_pilot_recovers_through_retries() {
    let n0 = 250;
    let shard = make_shard(1, 4_000, 75);
    let base = base_config(n0);
    let queries: Vec<Query> = [0.30, 0.24, 0.20]
        .iter()
        .map(|&eps| Query::new(1, eps, 0.05, 9))
        .collect();
    let expected: Vec<TrainingOutcome> =
        queries.iter().map(|q| oracle(&base, &shard, *q)).collect();

    // Stall the first pilot long enough for the other queries to
    // coalesce onto it, then panic.
    let plan = FaultPlan::new(n0)
        .at(FaultSite::PilotTrain, 0, FaultAction::SleepMs(120))
        .at(FaultSite::PilotTrain, 0, FaultAction::Panic);
    let spec = HookedSpec::new(LogisticRegressionSpec::new(1e-3), move |len| {
        plan.on_train(len)
    });
    let server = Server::spawn(
        base,
        ServeConfig {
            workers: 4,
            retry_budget: 2,
            ..ServeConfig::default()
        },
        spec,
        vec![shard],
    )
    .expect("spawn server");
    let handles: Vec<_> = queries
        .iter()
        .map(|q| server.submit(*q).expect("submit"))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let served = handle.wait().expect("retried query resolves Ok");
        assert_eq!(served.rung, DegradationRung::Full);
        assert_eq!(served.outcome.sample_size, expected[i].sample_size);
        assert_eq!(
            served.outcome.estimated_epsilon.to_bits(),
            expected[i].estimated_epsilon.to_bits()
        );
        assert_theta_eq(
            &format!("retried query#{i} θ"),
            served.outcome.model.parameters(),
            expected[i].model.parameters(),
        );
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 0);
    assert!(
        stats.retries >= 1,
        "the poisoned leader must have cost at least one retry, got {stats:?}"
    );
    assert_eq!(stats.inflight, 0, "no leaked in-flight entries");
    assert_eq!(stats.submitted, stats.completed + stats.failed);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Admission control: bounded queue, shed policies, tenant caps
// ---------------------------------------------------------------------

/// With the single worker parked inside training and the bounded queue
/// saturated, further submissions fail fast with `QueueFull` under the
/// default reject policy — and every accepted query still resolves.
#[test]
fn queue_full_rejects_when_saturated() {
    let n0 = 200;
    let shard = make_shard(1, 3_000, 76);
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let server = Server::spawn(
        base_config(n0),
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        },
        gated_spec(n0, entered.clone(), release.clone()),
        vec![shard],
    )
    .expect("spawn server");

    // Occupy the worker, then wait until it is provably inside
    // training — from here on the queue length is fully deterministic.
    let running = server.submit(Query::new(1, 0.3, 0.05, 0)).expect("submit");
    spin_until(&entered, "worker to enter pilot training");

    let queued: Vec<_> = (1..=2)
        .map(|s| server.submit(Query::new(1, 0.3, 0.05, s)).expect("submit"))
        .collect();
    for s in 3..5 {
        let err = server.submit(Query::new(1, 0.3, 0.05, s));
        assert!(
            matches!(err, Err(ServeError::QueueFull { capacity: 2 })),
            "expected QueueFull, got {err:?}"
        );
    }
    release.store(true, Ordering::SeqCst);
    assert!(running.wait().is_ok());
    for handle in queued {
        assert!(handle.wait().is_ok(), "accepted queries resolve");
    }
    let stats = server.stats();
    assert_eq!(stats.queue_full_rejects, 2);
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.sheds, 0);
    server.shutdown();
}

/// Under `ShedPolicy::Degrade`, overflow queries are accepted into the
/// pilot-only lane instead of rejected: they resolve `Ok` on the pilot
/// rung with the honest cold ε₀, and the `sheds` counter reconciles.
#[test]
fn degrade_shed_policy_resolves_overflow_on_the_pilot_rung() {
    let n0 = 250;
    let shard = make_shard(1, 4_000, 77);
    let base = base_config(n0);
    // Tight contract: the full workflow trains a final model, so a
    // pilot-rung response is distinguishable from a full one.
    let query = Query::new(1, 0.03, 0.05, 4);
    let cold_full = oracle(&base, &shard, query);
    assert!(!cold_full.used_initial_model);

    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let server = Server::spawn(
        base,
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            shed_policy: ShedPolicy::Degrade,
            ..ServeConfig::default()
        },
        gated_spec(n0, entered.clone(), release.clone()),
        vec![shard],
    )
    .expect("spawn server");

    let running = server
        .submit(Query::new(1, 0.3, 0.05, 0))
        .expect("occupies the worker");
    spin_until(&entered, "worker to enter pilot training");
    let queued = server.submit(query).expect("fills the queue");
    let shed = server
        .submit(query)
        .expect("overflow degrades, not rejects");
    release.store(true, Ordering::SeqCst);

    assert!(running.wait().is_ok());
    assert!(queued.wait().is_ok());
    let shed_response = shed.wait().expect("shed query resolves Ok");
    assert_eq!(shed_response.rung, DegradationRung::Pilot);
    assert_eq!(shed_response.outcome.sample_size, n0);
    assert_eq!(
        shed_response.outcome.estimated_epsilon.to_bits(),
        cold_full.initial_epsilon.to_bits(),
        "shed response must report the honest cold ε₀"
    );

    let stats = server.stats();
    assert_eq!(stats.sheds, 1);
    assert_eq!(stats.queue_full_rejects, 0);
    assert_eq!(
        stats.deadline_degraded, 0,
        "shed degradation is counted in `sheds`, not `deadline_degraded`"
    );
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);
    server.shutdown();
}

/// Per-tenant in-flight caps reject the over-budget tenant without
/// touching its neighbors.
#[test]
fn tenant_inflight_cap_rejects_only_the_greedy_tenant() {
    let n0 = 200;
    let shard = make_shard(1, 3_000, 78);
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let server = Server::spawn(
        base_config(n0),
        ServeConfig {
            workers: 1,
            tenant_inflight_cap: Some(1),
            ..ServeConfig::default()
        },
        gated_spec(n0, entered.clone(), release.clone()),
        vec![shard],
    )
    .expect("spawn server");

    let first = server
        .submit(Query::new(1, 0.3, 0.05, 0).with_tenant(5))
        .expect("tenant 5's first query");
    spin_until(&entered, "worker to enter pilot training");
    let err = server.submit(Query::new(1, 0.3, 0.05, 1).with_tenant(5));
    assert!(
        matches!(err, Err(ServeError::TenantOverloaded { tenant: 5, cap: 1 })),
        "expected TenantOverloaded, got {err:?}"
    );
    let other = server
        .submit(Query::new(1, 0.3, 0.05, 2).with_tenant(6))
        .expect("tenant 6 is unaffected");

    release.store(true, Ordering::SeqCst);
    assert!(first.wait().is_ok());
    assert!(other.wait().is_ok());
    // The budget is released after resolution: tenant 5 can submit again.
    let again = server
        .submit(Query::new(1, 0.3, 0.05, 3).with_tenant(5))
        .expect("tenant 5's budget is back");
    assert!(again.wait().is_ok());
    let stats = server.stats();
    assert_eq!(stats.tenant_rejects, 1);
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);
    server.shutdown();
}

/// A tenant's budget is released before its response is published: a
/// client that resubmits the moment `wait` returns, with nothing else
/// in flight, is never refused.
#[test]
fn tenant_cap_never_refuses_a_client_with_nothing_in_flight() {
    let shard = make_shard(1, 3_000, 80);
    let server = Server::spawn(
        base_config(200),
        ServeConfig {
            workers: 1,
            tenant_inflight_cap: Some(1),
            ..ServeConfig::default()
        },
        LogisticRegressionSpec::new(1e-3),
        vec![shard],
    )
    .expect("spawn server");
    let mut rejects = 0;
    for _ in 0..2_000 {
        match server.submit(Query::new(1, 0.3, 0.05, 0).with_tenant(5)) {
            Ok(handle) => assert!(handle.wait().is_ok()),
            Err(ServeError::TenantOverloaded { .. }) => {
                rejects += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("unexpected admission error {e:?}"),
        }
    }
    assert_eq!(rejects, 0, "refused a tenant whose last query had resolved");
    assert_eq!(server.stats().tenant_rejects, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Handle satellites: wait_timeout / try_wait
// ---------------------------------------------------------------------

#[test]
fn wait_timeout_and_try_wait_observe_the_gate() {
    let n0 = 200;
    let shard = make_shard(1, 3_000, 79);
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let server = Server::spawn(
        base_config(n0),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        gated_spec(n0, entered.clone(), release.clone()),
        vec![shard],
    )
    .expect("spawn server");

    let handle = server.submit(Query::new(1, 0.3, 0.05, 0)).expect("submit");
    spin_until(&entered, "worker to enter pilot training");
    assert!(!handle.is_ready());
    assert!(handle.try_wait().is_none(), "gated query is not ready");
    assert!(
        handle.wait_timeout(Duration::from_millis(20)).is_none(),
        "a timed-out wait leaves the response owed"
    );

    release.store(true, Ordering::SeqCst);
    let response = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("released query resolves within the timeout")
        .expect("resolves Ok");
    assert_eq!(response.rung, DegradationRung::Full);
    assert!(
        handle.try_wait().is_none(),
        "the response is delivered exactly once"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Shutdown-abort: deterministic drain-vs-abort contract
// ---------------------------------------------------------------------

/// With the worker parked inside query A, `shutdown` must resolve the
/// still-queued B and C to `Closed` without training them, then let A
/// finish normally — no ticket lost, none resolved twice.
#[test]
fn shutdown_aborts_queued_jobs_deterministically() {
    let n0 = 200;
    let shard = make_shard(1, 3_000, 80);
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let server = Server::spawn(
        base_config(n0),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        gated_spec(n0, entered.clone(), release.clone()),
        vec![shard],
    )
    .expect("spawn server");

    let a = server.submit(Query::new(1, 0.3, 0.05, 0)).expect("A");
    spin_until(&entered, "worker to enter pilot training");
    let b = server.submit(Query::new(1, 0.3, 0.05, 1)).expect("B");
    let c = server.submit(Query::new(1, 0.3, 0.05, 2)).expect("C");

    // `shutdown` joins the workers, so A's gate must open while it
    // blocks; the queued jobs are aborted before the join begins.
    let releaser = std::thread::spawn({
        let release = release.clone();
        move || {
            std::thread::sleep(Duration::from_millis(100));
            release.store(true, Ordering::SeqCst);
        }
    });
    server.shutdown();
    releaser.join().unwrap();

    assert!(a.wait().is_ok(), "the running job drains normally");
    for (name, handle) in [("B", b), ("C", c)] {
        let err = handle.wait();
        assert!(
            matches!(err, Err(ServeError::Closed)),
            "{name} must abort to Closed, got {err:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Proptest: random fault plans never deadlock a capacity-1 server
// ---------------------------------------------------------------------

fn arb_fault() -> impl Strategy<Value = (FaultSite, usize, FaultAction)> {
    (0u8..2, 0usize..4, 0u8..4, 1u64..8).prop_map(|(site, occ, kind, ms)| {
        let site = if site == 0 {
            FaultSite::PilotTrain
        } else {
            FaultSite::FinalTrain
        };
        let action = match kind {
            0 => FaultAction::SleepMs(ms),
            1 => FaultAction::Panic,
            2 => FaultAction::TripDeadline,
            _ => FaultAction::RelaxDeadline,
        };
        (site, occ, action)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary scripted fault plans against a 1-worker, capacity-1
    /// server: whatever mix of sleeps, panics, and deadline trips
    /// fires, every accepted query resolves exactly once within a
    /// generous watchdog (no deadlock, no lost ticket), and the
    /// counters reconcile with the observed responses.
    #[test]
    fn random_fault_plans_never_deadlock_capacity_one_server(
        faults in proptest::collection::vec(arb_fault(), 0..6),
        seeds in proptest::collection::vec(0u64..3, 2..5),
    ) {
        let n0 = 150;
        let shard = make_shard(1, 2_000, 81);
        let mut plan = FaultPlan::new(n0);
        for (site, occ, action) in faults {
            plan = plan.at(site, occ, action);
        }
        let spec = HookedSpec::new(LogisticRegressionSpec::new(1e-3), move |len| {
            plan.on_train(len)
        });
        let server = Server::spawn(
            base_config(n0),
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                retry_budget: 1,
                ..ServeConfig::default()
            },
            spec,
            vec![shard],
        )
        .expect("spawn server");

        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for (i, &seed) in seeds.iter().enumerate() {
            match server.submit(Query::new(1, 0.10, 0.05, seed)) {
                Ok(handle) => accepted.push((i, handle)),
                Err(ServeError::QueueFull { .. }) => rejected += 1,
                Err(e) => panic!("unexpected admission error: {e:?}"),
            }
        }
        let mut completed = 0u64;
        let mut failed = 0u64;
        for (i, handle) in accepted {
            match handle.wait_timeout(Duration::from_secs(60)) {
                Some(Ok(_)) => completed += 1,
                Some(Err(_)) => failed += 1,
                None => panic!("query #{i} deadlocked under the fault plan"),
            }
        }
        let stats = server.stats();
        prop_assert_eq!(stats.submitted, completed + failed);
        prop_assert_eq!(stats.completed, completed);
        prop_assert_eq!(stats.failed, failed);
        prop_assert_eq!(stats.queue_full_rejects, rejected);
        prop_assert_eq!(stats.inflight, 0);
        server.shutdown();
    }
}

// ---------------------------------------------------------------------
// Exactly-once under a mixed fault storm (deterministic composition)
// ---------------------------------------------------------------------

/// A composed plan — slow pilot, a panic, a relax trip, and a hard trip
/// at staged occurrences — across several queries on two workers. The
/// invariant under *any* such storm: every ticket resolves exactly
/// once, and the rung/counter bookkeeping reconciles with what the
/// handles observed.
#[test]
fn mixed_fault_storm_preserves_exactly_once_resolution() {
    let n0 = 200;
    let shard = make_shard(1, 3_000, 82);
    let plan = FaultPlan::new(n0)
        .at(FaultSite::PilotTrain, 0, FaultAction::SleepMs(30))
        .at(FaultSite::PilotTrain, 1, FaultAction::Panic)
        .at(FaultSite::FinalTrain, 0, FaultAction::TripDeadline)
        .at(FaultSite::FinalTrain, 2, FaultAction::RelaxDeadline);
    let spec = HookedSpec::new(LogisticRegressionSpec::new(1e-3), move |len| {
        plan.on_train(len)
    });
    let server = Server::spawn(
        base_config(n0),
        ServeConfig {
            workers: 2,
            retry_budget: 1,
            ..ServeConfig::default()
        },
        spec,
        vec![shard],
    )
    .expect("spawn server");

    let resolved = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..6)
        .map(|i| {
            server
                .submit(Query::new(1, 0.04, 0.05, i % 3))
                .expect("submit")
        })
        .collect();
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut degraded = 0u64;
    for handle in handles {
        match handle.wait_timeout(Duration::from_secs(60)) {
            Some(Ok(response)) => {
                completed += 1;
                if response.rung.is_degraded() {
                    degraded += 1;
                }
            }
            Some(Err(_)) => failed += 1,
            None => panic!("query deadlocked under the fault storm"),
        }
        resolved.fetch_add(1, Ordering::SeqCst);
    }
    assert_eq!(resolved.load(Ordering::SeqCst), 6, "every ticket resolved");
    let stats = server.stats();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.failed, failed);
    assert_eq!(stats.completed + stats.failed, 6);
    assert_eq!(stats.deadline_degraded, degraded);
    assert_eq!(stats.inflight, 0, "no leaked in-flight entries");
    server.shutdown();
}

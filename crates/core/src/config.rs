//! BlinkML configuration: the approximation contract and system knobs.

use crate::error::CoreError;
use blinkml_optim::OptimOptions;

/// Which method computes the statistics (`H`, `J`) behind the parameter
/// distribution of Theorem 1 (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatisticsMethod {
    /// Analytic Hessian; exact but model-specific and `Ω(d²)`.
    ClosedForm,
    /// Finite-difference Hessian from `d` gradient probes; model-agnostic
    /// but `O(d)` `grads` calls.
    InverseGradients,
    /// Factored covariance from per-example gradients via the information
    /// matrix equality — BlinkML's default.
    ObservedFisher,
}

impl StatisticsMethod {
    /// Human-readable name used in reports and errors.
    pub fn name(&self) -> &'static str {
        match self {
            StatisticsMethod::ClosedForm => "ClosedForm",
            StatisticsMethod::InverseGradients => "InverseGradients",
            StatisticsMethod::ObservedFisher => "ObservedFisher",
        }
    }
}

/// Execution-layer configuration: how the deterministic parallel kernels
/// (see `blinkml_data::parallel`) schedule their fixed-size chunks.
///
/// Chunk boundaries derive from a fixed constant, never from the thread
/// count, so this knob changes wall-clock time only — estimator outputs
/// are bit-identical for any setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecConfig {
    /// Cap on worker threads; `None` uses all available cores (capped at
    /// 16). `Some(1)` forces fully sequential execution, λ-sweeps
    /// included: a sweep's K solves run on its caller's thread.
    pub max_threads: Option<usize>,
}

impl ExecConfig {
    /// Sequential execution (one worker thread).
    pub fn sequential() -> Self {
        ExecConfig {
            max_threads: Some(1),
        }
    }

    /// Install this configuration into the **process-wide** execution
    /// layer. The budget persists after the installing run finishes —
    /// it is a global knob, not a per-coordinator scope — so the last
    /// `apply` (equivalently, the last started coordinator run) wins.
    /// By the determinism contract this can only change wall-clock
    /// time, never results.
    pub fn apply(&self) {
        blinkml_data::parallel::set_max_threads(self.max_threads);
    }
}

/// What the admission controller does with a `Train` query that
/// arrives while the bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Fail fast with [`QueueFull`](crate::serve::ServeError::QueueFull)
    /// — the client sees the overload immediately and can retry.
    #[default]
    Reject,
    /// Accept the query into a pilot-only lane: it resolves to the
    /// [`Pilot`](crate::serve::resilience::DegradationRung::Pilot) rung (the cached
    /// or freshly-trained `m₀` with its honest ε₀) instead of the full
    /// workflow. Sweep queries are never auto-degraded — they have no
    /// ladder — and are rejected at capacity under either policy.
    Degrade,
}

impl ShedPolicy {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ShedPolicy::Reject => "Reject",
            ShedPolicy::Degrade => "Degrade",
        }
    }
}

/// Serving-layer configuration (see [`crate::serve`]): worker-pool,
/// pilot-cache, and resilience knobs for the multi-tenant
/// [`Server`](crate::serve::Server).
///
/// Like [`ExecConfig`], none of these knobs can change the *bits* of a
/// fully-served response — the serving layer's bit-identity contract
/// holds for any worker count, queue depth, or cache capacity. The
/// resilience knobs decide *which rung* of the degradation ladder a
/// query resolves to under pressure, and every rung's response is
/// itself bit-reproducible by a cold coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads processing queries (each owns its capture
    /// scratch). Workers share the process-wide execution budget
    /// ([`ExecConfig`]) for their inner kernels.
    pub workers: usize,
    /// Maximum pilots (`m₀` + Fisher statistics) held in the keyed LRU.
    /// Eviction retrains bit-identically on the next miss — a time
    /// cost, never a correctness one.
    pub pilot_cache_capacity: usize,
    /// Bound on the number of queued (accepted, not yet started) jobs.
    /// Beyond it, admission follows [`ShedPolicy`].
    pub queue_capacity: usize,
    /// Overload behavior for `Train` queries at a full queue.
    pub shed_policy: ShedPolicy,
    /// Per-tenant cap on in-flight (queued + running) `Train` queries;
    /// `None` disables the cap. Excess submissions fail fast with
    /// [`TenantOverloaded`](crate::serve::ServeError::TenantOverloaded).
    pub tenant_inflight_cap: Option<usize>,
    /// Re-run attempts for transiently-failed jobs (worker panic, a
    /// coalesced waiter inheriting its leader's deadline error). `0`
    /// disables retries.
    pub retry_budget: u32,
    /// Base delay for the jittered exponential retry backoff
    /// (`base · 2^(attempt−1) · [0.5, 1.5)`).
    pub retry_backoff_base: std::time::Duration,
    /// How close to its deadline a query must be, at the final-train
    /// boundary, before the coordinator relaxes the final sample size.
    pub relax_margin: std::time::Duration,
    /// Fraction of the pilot→minimum-n span kept when relaxing
    /// (see [`relaxed_sample_size`](crate::serve::resilience::relaxed_sample_size)).
    /// Must lie in `(0, 1]`.
    pub relax_fraction: f64,
    /// Drift score below which a cached pilot from an older epoch is
    /// still **fresh**: the full workflow runs on the pilot's own
    /// snapshot. The score is the shift of the pilot's mean holdout
    /// prediction on newly-appended holdout rows, in units of the base
    /// scores' standard deviation. Must satisfy
    /// `0 < drift_warn ≤ drift_fail`.
    pub drift_warn: f64,
    /// Drift score above which a cached pilot must **retrain** on the
    /// current epoch. Between `drift_warn` and `drift_fail` the pilot
    /// is stale-but-servable: served immediately with an honestly
    /// recomputed ε (the `curve_epsilon_at` oracle at `n = n₀` on its
    /// own snapshot) under
    /// [`DegradationRung::StalePilot`](crate::serve::resilience::DegradationRung).
    pub drift_fail: f64,
    /// Epoch-age bound: a cached pilot more than this many epochs
    /// behind the current one is retired regardless of its drift score
    /// ([`Server::advance_epoch`](crate::serve::Server::advance_epoch)
    /// enforces it eagerly).
    pub max_stale_epochs: u64,
    /// Warm-state sidecar file for the pilot cache. When set, the
    /// server persists every cached pilot (plus the per-dataset epoch
    /// floors) to this path at shutdown — atomically, via temp + rename
    /// — and reloads it at spawn, revalidated against the registered
    /// datasets and their recovered epochs. A missing or damaged
    /// sidecar is ignored (the server starts cold); correctness never
    /// depends on it. `None` (the default) disables warm restore.
    pub pilot_sidecar: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            pilot_cache_capacity: 64,
            queue_capacity: 1024,
            shed_policy: ShedPolicy::Reject,
            tenant_inflight_cap: None,
            retry_budget: 1,
            retry_backoff_base: std::time::Duration::from_millis(5),
            relax_margin: std::time::Duration::from_millis(50),
            relax_fraction: 0.25,
            drift_warn: 0.25,
            drift_fail: 1.0,
            max_stale_epochs: u64::MAX,
            pilot_sidecar: None,
        }
    }
}

impl ServeConfig {
    /// Validate the serving knobs.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.workers == 0 {
            return Err(CoreError::InvalidConfig(
                "serve.workers must be at least 1".into(),
            ));
        }
        if self.pilot_cache_capacity == 0 {
            return Err(CoreError::InvalidConfig(
                "serve.pilot_cache_capacity must be at least 1".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(CoreError::InvalidConfig(
                "serve.queue_capacity must be at least 1".into(),
            ));
        }
        if self.tenant_inflight_cap == Some(0) {
            return Err(CoreError::InvalidConfig(
                "serve.tenant_inflight_cap must be at least 1 when set".into(),
            ));
        }
        if !(self.relax_fraction > 0.0 && self.relax_fraction <= 1.0) {
            return Err(CoreError::InvalidConfig(
                "serve.relax_fraction must lie in (0, 1]".into(),
            ));
        }
        if !(self.drift_warn > 0.0 && self.drift_warn.is_finite()) {
            return Err(CoreError::InvalidConfig(
                "serve.drift_warn must be positive and finite".into(),
            ));
        }
        if !(self.drift_fail >= self.drift_warn && self.drift_fail.is_finite()) {
            return Err(CoreError::InvalidConfig(
                "serve.drift_fail must be finite and at least drift_warn".into(),
            ));
        }
        Ok(())
    }

    /// A single-worker server (fully serial processing; useful for
    /// deterministic scheduling in tests).
    pub fn serial() -> Self {
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }
    }
}

/// Full BlinkML configuration.
///
/// The *approximation contract* is `(epsilon, delta)`: the returned model
/// must satisfy `Pr[v(m_n) ≤ ε] ≥ 1 − δ` where `v` is the prediction
/// difference against the full model.
#[derive(Debug, Clone)]
pub struct BlinkMlConfig {
    /// Error bound `ε` on the prediction difference (e.g. 0.05 for a "95%
    /// accurate" model).
    pub epsilon: f64,
    /// Violation probability `δ` (paper default 0.05).
    pub delta: f64,
    /// Initial sample size `n₀` (paper default 10 000).
    pub initial_sample_size: usize,
    /// Holdout size used for estimating prediction differences.
    pub holdout_size: usize,
    /// Number of Monte Carlo parameter draws `k` in the accuracy and
    /// sample-size estimators.
    pub num_param_samples: usize,
    /// Statistics computation method.
    pub statistics_method: StatisticsMethod,
    /// Optimizer options for model training.
    pub optim: OptimOptions,
    /// Also compute an accuracy estimate for the final model (extra
    /// statistics pass; off by default, matching the paper's workflow
    /// where the sample-size estimate itself carries the guarantee).
    pub estimate_final_accuracy: bool,
    /// Execution-layer knobs (thread budget); applied by the coordinator
    /// at the start of every training run. Note the budget is a
    /// process-wide setting (see [`ExecConfig::apply`]): it stays in
    /// effect after the run, and concurrent coordinators share it.
    pub exec: ExecConfig,
}

impl Default for BlinkMlConfig {
    fn default() -> Self {
        BlinkMlConfig {
            epsilon: 0.05,
            delta: 0.05,
            initial_sample_size: 10_000,
            holdout_size: 2_000,
            num_param_samples: 100,
            statistics_method: StatisticsMethod::ObservedFisher,
            optim: OptimOptions::default(),
            estimate_final_accuracy: false,
            exec: ExecConfig::default(),
        }
    }
}

impl BlinkMlConfig {
    /// Validate the contract and knobs.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "epsilon must be in (0,1), got {}",
                self.epsilon
            )));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "delta must be in (0,1), got {}",
                self.delta
            )));
        }
        if self.initial_sample_size == 0 {
            return Err(CoreError::InvalidConfig(
                "initial_sample_size must be positive".into(),
            ));
        }
        if self.holdout_size == 0 {
            return Err(CoreError::InvalidConfig(
                "holdout_size must be positive".into(),
            ));
        }
        if self.num_param_samples < 2 {
            return Err(CoreError::InvalidConfig(
                "num_param_samples must be at least 2".into(),
            ));
        }
        if self.exec.max_threads == Some(0) {
            return Err(CoreError::InvalidConfig(
                "exec.max_threads must be at least 1 (use None for auto)".into(),
            ));
        }
        Ok(())
    }

    /// Convenience constructor: "train a `(accuracy × 100)`% accurate
    /// model with confidence `1 − δ`" — the interface of the paper's
    /// Figure 1.
    pub fn with_accuracy(accuracy: f64, delta: f64) -> Self {
        BlinkMlConfig {
            epsilon: 1.0 - accuracy,
            delta,
            ..BlinkMlConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(BlinkMlConfig::default().validate().is_ok());
    }

    #[test]
    fn with_accuracy_sets_epsilon() {
        let c = BlinkMlConfig::with_accuracy(0.95, 0.05);
        assert!((c.epsilon - 0.05).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_bad_epsilon_and_delta() {
        let mut c = BlinkMlConfig {
            epsilon: 0.0,
            ..BlinkMlConfig::default()
        };
        assert!(c.validate().is_err());
        c.epsilon = 1.0;
        assert!(c.validate().is_err());
        c.epsilon = 0.1;
        c.delta = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_degenerate_sizes() {
        let mut c = BlinkMlConfig {
            initial_sample_size: 0,
            ..BlinkMlConfig::default()
        };
        assert!(c.validate().is_err());
        c = BlinkMlConfig {
            holdout_size: 0,
            ..BlinkMlConfig::default()
        };
        assert!(c.validate().is_err());
        c = BlinkMlConfig {
            num_param_samples: 1,
            ..BlinkMlConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_thread_budget() {
        let c = BlinkMlConfig {
            exec: ExecConfig {
                max_threads: Some(0),
            },
            ..BlinkMlConfig::default()
        };
        assert!(c.validate().is_err());
        let c = BlinkMlConfig {
            exec: ExecConfig::sequential(),
            ..BlinkMlConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn serve_config_validation() {
        assert!(ServeConfig::default().validate().is_ok());
        assert!(ServeConfig::serial().validate().is_ok());
        assert_eq!(ServeConfig::serial().workers, 1);
        let c = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            pilot_cache_capacity: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            tenant_inflight_cap: Some(0),
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let c = ServeConfig {
                relax_fraction: bad,
                ..ServeConfig::default()
            };
            assert!(c.validate().is_err(), "relax_fraction {bad} must fail");
        }
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = ServeConfig {
                drift_warn: bad,
                ..ServeConfig::default()
            };
            assert!(c.validate().is_err(), "drift_warn {bad} must fail");
        }
        let c = ServeConfig {
            drift_warn: 0.5,
            drift_fail: 0.25,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err(), "drift_fail below drift_warn");
        let c = ServeConfig {
            drift_fail: f64::INFINITY,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err(), "infinite drift_fail");
        assert_eq!(ShedPolicy::Reject.name(), "Reject");
        assert_eq!(ShedPolicy::Degrade.name(), "Degrade");
        assert_eq!(ShedPolicy::default(), ShedPolicy::Reject);
    }

    #[test]
    fn method_names() {
        assert_eq!(StatisticsMethod::ObservedFisher.name(), "ObservedFisher");
        assert_eq!(StatisticsMethod::ClosedForm.name(), "ClosedForm");
        assert_eq!(
            StatisticsMethod::InverseGradients.name(),
            "InverseGradients"
        );
    }
}

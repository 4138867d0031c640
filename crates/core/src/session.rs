//! Amortized multi-query training sessions.
//!
//! BlinkML's serving scenario (paper §6.5, the hyperparameter-search
//! workload) issues **many** `train()` calls against one training pool —
//! a sweep of `(ε, δ)` contracts, repeated interactive queries, or a
//! search loop. A fresh [`Coordinator`](crate::Coordinator) run pays for
//! the pilot training and the pilot statistics every time, even though
//! neither depends on the contract. A [`Session`] hoists both out of
//! the per-query path:
//!
//! * one **pipeline scratch** is kept across queries and sweeps: every
//!   sample (pilot and final, in every query) is packed straight from
//!   the training pool into its recycled buffers, so steady-state
//!   queries copy their sampled rows into warm pages and allocate
//!   nothing,
//! * the **pilot artifacts** — the initial model `m₀` and its
//!   statistics — are cached per `(n₀, seed)` and reused by every later
//!   query with the same seed, so a sweep of ε targets trains the pilot
//!   once,
//! * the per-query work reduces to the accuracy estimate, the
//!   sample-size search, and (when the contract is tight) the final
//!   training — exactly the parts that depend on `(ε, δ)`.
//!
//! Results are **bit-identical** to fresh coordinator runs with the same
//! configuration and seed: the cache stores exactly the values a fresh
//! run would recompute, and sample captures are bit-exact by
//! construction (see `docs/ARCHITECTURE.md`, "Sample captures").
//!
//! A `Session` is single-caller (`&mut self` queries, one pipeline
//! scratch). For many tenants querying concurrently, the
//! [`serve`](crate::serve) module promotes the same amortization —
//! cached pilots, a pipeline scratch per worker, bit-identity — to a
//! thread-safe server with a worker pool, a keyed LRU, and in-flight
//! coalescing.

use crate::config::BlinkMlConfig;
use crate::coordinator::{run_one, PilotState, PipelineScratch, RunControl, TrainingOutcome};
use crate::error::CoreError;
use crate::mcs::ModelClassSpec;
use crate::sweep::{sweep_grid, SweepResult};
use blinkml_data::{Dataset, FeatureVec};
use std::cell::RefCell;
use std::collections::HashMap;

/// A multi-query training session over one training pool and holdout
/// set: the amortized form of [`Coordinator`](crate::Coordinator) for
/// repeated `train()` calls with varying `(ε, δ)` contracts.
///
/// ```
/// # use blinkml_core::models::LogisticRegressionSpec;
/// # use blinkml_core::{BlinkMlConfig, Session};
/// # use blinkml_data::generators::synthetic_logistic;
/// let (data, _) = synthetic_logistic(8_000, 4, 2.0, 1);
/// let split = data.split(1_000, 0, 2);
/// let spec = LogisticRegressionSpec::new(1e-3);
/// let config = BlinkMlConfig {
///     initial_sample_size: 400,
///     ..BlinkMlConfig::default()
/// };
/// let session = Session::new(config, &spec, &split.train, &split.holdout).unwrap();
/// // One pilot serves the whole sweep: only the search and (for tight
/// // contracts) the final training run per query.
/// for epsilon in [0.20, 0.10, 0.05] {
///     let outcome = session.train(epsilon, 0.05, 7).unwrap();
///     assert!(outcome.sample_size <= split.train.len());
/// }
/// ```
pub struct Session<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> {
    config: BlinkMlConfig,
    spec: &'a S,
    train: &'a Dataset<F>,
    holdout: &'a Dataset<F>,
    pilots: RefCell<HashMap<(usize, u64), PilotState>>,
    /// The pipeline's capture and objective buffers, kept across
    /// queries and sweeps.
    scratch: RefCell<PipelineScratch>,
}

impl<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> Session<'a, F, S> {
    /// Open a session: validates the configuration and the datasets and
    /// installs the thread budget.
    ///
    /// [`Session::train`] and [`Session::sweep`] take the contract
    /// `(ε, δ)` per query, overriding the `epsilon`/`delta` in `config`.
    pub fn new(
        config: BlinkMlConfig,
        spec: &'a S,
        train: &'a Dataset<F>,
        holdout: &'a Dataset<F>,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        if train.is_empty() {
            return Err(CoreError::InvalidData("empty training pool".into()));
        }
        if holdout.is_empty() {
            return Err(CoreError::InvalidData("empty holdout set".into()));
        }
        config.exec.apply();
        Ok(Session {
            config,
            spec,
            train,
            holdout,
            pilots: RefCell::new(HashMap::new()),
            scratch: RefCell::new(PipelineScratch::default()),
        })
    }

    /// Borrow the session configuration.
    pub fn config(&self) -> &BlinkMlConfig {
        &self.config
    }

    /// Size `N` of the training pool.
    pub fn pool_size(&self) -> usize {
        self.train.len()
    }

    /// Number of cached pilot states (one per distinct `(n₀, seed)`).
    pub fn cached_pilots(&self) -> usize {
        self.pilots.borrow().len()
    }

    /// Drop every cached pilot (e.g. to bound memory in a long-lived
    /// serving session). Subsequent queries retrain pilots on demand;
    /// results are unaffected.
    pub fn clear_pilot_cache(&self) {
        self.pilots.borrow_mut().clear();
    }

    /// Train a model satisfying `Pr[v(m) ≤ ε] ≥ 1 − δ` for this query's
    /// contract, reusing the session's capture scratch and any cached
    /// pilot for `seed`. Bit-identical to
    /// `Coordinator::new(config with (ε, δ)).train_with_holdout(spec,
    /// train, holdout, seed)`.
    pub fn train(&self, epsilon: f64, delta: f64, seed: u64) -> Result<TrainingOutcome, CoreError> {
        let mut config = self.config.clone();
        config.epsilon = epsilon;
        config.delta = delta;
        self.train_with_config(&config, seed)
    }

    /// Evaluate an L2-regularization grid under one `(ε, δ)` contract:
    /// the training pipeline of [`Session::train`] over one spec per λ,
    /// so every λ trains over the same pilot capture and the same nested
    /// final capture, with per-probe objective evaluations batched
    /// across live grid points (one fused pass over the data per
    /// optimizer round instead of one per λ).
    ///
    /// Results come back in `lambdas` order, each **bit-identical** to
    /// an independent [`Session::train`] on a spec carrying that λ
    /// (`f64::to_bits` on θ, ε₀, ε̂; exact on the chosen `n`).
    ///
    /// The model class must expose a swappable L2 coefficient
    /// ([`ModelClassSpec::with_regularization`]); otherwise the sweep
    /// is rejected with [`CoreError::InvalidConfig`]. A class without its
    /// own multi-λ kernel runs the default
    /// [`ModelClassSpec::value_grad_batched_multi`], one `value_grad`
    /// per grid point per round.
    ///
    /// Sweep pilots are λ-dependent, so they bypass the session's
    /// `(n₀, seed)` pilot cache in both directions.
    pub fn sweep(
        &self,
        lambdas: &[f64],
        epsilon: f64,
        delta: f64,
        seed: u64,
    ) -> Result<SweepResult, CoreError> {
        let mut config = self.config.clone();
        config.epsilon = epsilon;
        config.delta = delta;
        config.validate()?;
        config.exec.apply();
        sweep_grid(
            &config,
            self.spec,
            self.train,
            self.holdout,
            &mut self.scratch.borrow_mut(),
            lambdas,
            seed,
        )
    }

    fn train_with_config(
        &self,
        config: &BlinkMlConfig,
        seed: u64,
    ) -> Result<TrainingOutcome, CoreError> {
        config.validate()?;
        // Reinstall the budget: another coordinator may have moved the
        // process-wide knob between queries.
        config.exec.apply();
        let n0 = config.initial_sample_size.min(self.train.len());
        let key = (n0, seed);
        let pilots = self.pilots.borrow();
        let cached = pilots.get(&key);
        let run = run_one(
            config,
            self.spec,
            self.train,
            self.holdout,
            &mut self.scratch.borrow_mut(),
            seed,
            cached,
            cached.is_none(),
            &RunControl::unbounded(),
        )?;
        drop(pilots);
        if let Some(p) = run.pilot {
            self.pilots.borrow_mut().insert(key, p);
        }
        Ok(run.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::Coordinator;
    use crate::models::logreg::LogisticRegressionSpec;
    use blinkml_data::generators::synthetic_logistic;

    fn config(n0: usize) -> BlinkMlConfig {
        BlinkMlConfig {
            epsilon: 0.05,
            delta: 0.05,
            initial_sample_size: n0,
            holdout_size: 500,
            num_param_samples: 32,
            ..BlinkMlConfig::default()
        }
    }

    #[test]
    fn session_matches_fresh_coordinators_bitwise() {
        let (data, _) = synthetic_logistic(10_000, 4, 2.0, 11);
        let split = data.split(800, 0, 12);
        let spec = LogisticRegressionSpec::new(1e-3);
        let session = Session::new(config(300), &spec, &split.train, &split.holdout).unwrap();
        for (epsilon, delta, seed) in [(0.20, 0.05, 5), (0.03, 0.05, 5), (0.03, 0.10, 6)] {
            let s = session.train(epsilon, delta, seed).unwrap();
            let mut cfg = config(300);
            cfg.epsilon = epsilon;
            cfg.delta = delta;
            let c = Coordinator::new(cfg)
                .train_with_holdout(&spec, &split.train, &split.holdout, seed)
                .unwrap();
            assert_eq!(s.sample_size, c.sample_size, "ε={epsilon} δ={delta}");
            assert_eq!(s.initial_epsilon, c.initial_epsilon);
            assert_eq!(s.estimated_epsilon, c.estimated_epsilon);
            assert_eq!(s.model.parameters(), c.model.parameters());
        }
        // Two ε targets at seed 5 share one pilot; seed 6 adds another.
        assert_eq!(session.cached_pilots(), 2);
        session.clear_pilot_cache();
        assert_eq!(session.cached_pilots(), 0);
    }

    #[test]
    fn cached_pilot_queries_reuse_the_initial_model() {
        let (data, _) = synthetic_logistic(9_000, 4, 2.0, 13);
        let split = data.split(700, 0, 14);
        let spec = LogisticRegressionSpec::new(1e-3);
        let session = Session::new(config(300), &spec, &split.train, &split.holdout).unwrap();
        let first = session.train(0.02, 0.05, 3).unwrap();
        let second = session.train(0.04, 0.05, 3).unwrap();
        assert_eq!(session.cached_pilots(), 1);
        // Same pilot → identical ε₀ across contracts.
        assert_eq!(first.initial_epsilon, second.initial_epsilon);
        // The cached query spends no time on pilot training.
        assert_eq!(second.phases.initial_training, std::time::Duration::ZERO);
    }

    #[test]
    fn rejects_empty_inputs() {
        let (data, _) = synthetic_logistic(1_000, 3, 2.0, 17);
        let empty = Dataset::<blinkml_data::DenseVec>::new("empty", 3, vec![]);
        let spec = LogisticRegressionSpec::new(1e-3);
        assert!(Session::new(config(100), &spec, &empty, &data).is_err());
        assert!(Session::new(config(100), &spec, &data, &empty).is_err());
    }
}

//! The BlinkML Coordinator (paper §2.3).
//!
//! Workflow: draw the initial sample `D₀`, train `m₀`, estimate its
//! accuracy; if the contract is already met, return `m₀`. Otherwise ask
//! the Sample Size Estimator for the minimum `n` and train the final
//! model on a fresh size-`n` sample (warm-started from `θ₀`). At most
//! two approximate models are ever trained.

use crate::accuracy::ModelAccuracyEstimator;
use crate::config::BlinkMlConfig;
use crate::diff_engine::HoldoutScorer;
use crate::error::CoreError;
use crate::mcs::{ModelClassSpec, TrainedModel};
use crate::sample_size::{PreparedSearch, SampleSizeEstimator};
use crate::serve::resilience::{relaxed_sample_size, CancelToken, DegradationRung, Pressure};
use crate::stats::{compute_statistics_view, ModelStatistics};
use blinkml_data::{CaptureScratch, Dataset, DatasetMatrix, FeatureVec};
use blinkml_optim::StopCheck;
use blinkml_prob::split_seed;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Wall-clock time spent in each coordinator phase — the decomposition
/// reported in the paper's Figure 8a / Table 8.
#[derive(Debug, Clone, Default)]
pub struct TrainingPhaseTimes {
    /// Training the initial model `m₀` on `D₀`.
    pub initial_training: Duration,
    /// Computing the statistics (`H`, `J` factor).
    pub statistics: Duration,
    /// Accuracy estimation plus sample-size search.
    pub sample_size_search: Duration,
    /// Training the final model (zero when `m₀` was returned).
    pub final_training: Duration,
}

impl TrainingPhaseTimes {
    /// Total coordinator time.
    pub fn total(&self) -> Duration {
        self.initial_training + self.statistics + self.sample_size_search + self.final_training
    }
}

/// The result of a BlinkML training run.
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// The returned (approximate) model.
    pub model: TrainedModel,
    /// Sample size the returned model was trained on.
    pub sample_size: usize,
    /// Size `N` of the sampling pool.
    pub full_data_size: usize,
    /// Accuracy estimate `ε₀` of the initial model (always computed).
    pub initial_epsilon: f64,
    /// Estimated `ε` for the returned model: `ε₀` when the initial model
    /// was returned, the contract `ε` otherwise (or a fresh estimate
    /// when `estimate_final_accuracy` is set).
    pub estimated_epsilon: f64,
    /// Whether the initial model already satisfied the contract.
    pub used_initial_model: bool,
    /// Phase timing breakdown.
    pub phases: TrainingPhaseTimes,
    /// Binary-search probes used by the sample-size estimator.
    pub search_probes: usize,
}

impl TrainingOutcome {
    /// Generalization-error bound for the *full* model from Lemma 1:
    /// given the approximate model's holdout error `ε_g`, the full
    /// model's error is at most `ε_g + ε − ε_g·ε` with probability
    /// `1 − δ`.
    pub fn full_model_error_bound(&self, approx_generalization_error: f64) -> f64 {
        let eg = approx_generalization_error;
        let e = self.estimated_epsilon;
        eg + e - eg * e
    }
}

/// The BlinkML coordinator.
///
/// It keeps the capture buffers of finished calls and hands one to each
/// new call, so a coordinator reused across calls packs its samples
/// into warm pages, as a [`Session`](crate::Session) or a server worker
/// does. Concurrent calls each take their own buffers. A clone shares
/// the configuration and starts with no buffers.
pub struct Coordinator {
    config: BlinkMlConfig,
    captures: Mutex<Vec<CaptureScratch>>,
}

impl Clone for Coordinator {
    fn clone(&self) -> Self {
        Coordinator::new(self.config.clone())
    }
}

impl fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Coordinator {
    /// Coordinator with the given configuration.
    pub fn new(config: BlinkMlConfig) -> Self {
        Coordinator {
            config,
            captures: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` on capture buffers taken from this coordinator's spares
    /// (fresh ones when there are none), and keep them afterwards.
    fn with_capture<T>(&self, f: impl FnOnce(&mut CaptureScratch) -> T) -> T {
        let spares = || self.captures.lock().unwrap_or_else(PoisonError::into_inner);
        let mut scratch = spares().pop().unwrap_or_default();
        let out = f(&mut scratch);
        spares().push(scratch);
        out
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &BlinkMlConfig {
        &self.config
    }

    /// Train with an internal holdout split: `holdout_size` examples are
    /// carved out of `data` and never used for training.
    pub fn train<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        spec: &S,
        data: &Dataset<F>,
        seed: u64,
    ) -> Result<TrainingOutcome, CoreError> {
        self.config.validate()?;
        let holdout_size = self.config.holdout_size.min(data.len() / 5);
        if holdout_size == 0 {
            return Err(CoreError::InvalidData(format!(
                "dataset of {} examples is too small to carve a holdout",
                data.len()
            )));
        }
        let split = data.split(holdout_size, 0, split_seed(seed, 100));
        self.train_with_holdout(spec, &split.train, &split.holdout, seed)
    }

    /// Train against an explicit training pool and holdout set.
    ///
    /// Each sample (initial and final) is drawn as an index list
    /// ([`blinkml_data::dataset::sample_indices`]: `O(n)` below a
    /// twentieth of the pool) and its rows are packed straight from
    /// `train` into capture buffers this coordinator keeps between
    /// calls ([`DatasetMatrix::pack`]): the call touches its sampled
    /// rows and nothing of the rest of the pool, and by the capture's
    /// exactness contract outcomes are bit-identical to training on the
    /// materialized samples.
    pub fn train_with_holdout<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        spec: &S,
        train: &Dataset<F>,
        holdout: &Dataset<F>,
        seed: u64,
    ) -> Result<TrainingOutcome, CoreError> {
        self.config.validate()?;
        // Install the thread budget for every parallel kernel downstream.
        // Deterministic chunking means this never changes results.
        self.config.exec.apply();
        self.with_capture(|scratch| {
            run_train(
                &self.config,
                spec,
                train,
                holdout,
                scratch,
                seed,
                None,
                false,
                &RunControl::unbounded(),
            )
        })
        .map(|(outcome, _, _)| outcome)
    }

    /// The honest ε this coordinator's workflow assigns to a model
    /// trained on exactly `n` examples — one point on the sample-size
    /// curve, computed cold: pilot on `n₀` (sub-seed 0), statistics,
    /// then the curve quantile with the sample-size search's own
    /// sub-seed (2) and draw pools.
    ///
    /// This is the oracle for the serving layer's
    /// [`RelaxedFinal`](crate::serve::resilience::DegradationRung::RelaxedFinal)
    /// degradation rung: a degraded response's achieved ε is bit-equal
    /// to `curve_epsilon_at` for the same `(spec, data, seed, n)`.
    pub fn curve_epsilon_at<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        spec: &S,
        train: &Dataset<F>,
        holdout: &Dataset<F>,
        seed: u64,
        n: usize,
    ) -> Result<f64, CoreError> {
        self.config.validate()?;
        self.config.exec.apply();
        let full_n = train.len();
        let n0 = self.config.initial_sample_size.min(full_n);
        if n < n0 || n > full_n {
            return Err(CoreError::InvalidConfig(format!(
                "curve point n = {n} outside [n₀ = {n0}, N = {full_n}]"
            )));
        }
        if n0 == full_n {
            return Ok(0.0);
        }
        let fit = self.with_capture(|scratch| {
            fit_sample(
                &self.config,
                spec,
                train,
                scratch,
                n0,
                split_seed(seed, 0),
                None,
                true,
                None,
            )
        })?;
        let pilot = PilotState {
            model: fit.model,
            stats: fit.stats,
            n0,
        };
        Ok(pilot_curve_epsilon(
            &self.config,
            spec,
            holdout,
            &pilot,
            n,
            full_n,
            seed,
        ))
    }
}

/// The curve ε at `n` of `pilot` over a training set of `full_n` rows:
/// the sample-size search's quantile with its own sub-seed (2) and draw
/// pools, scored against `holdout`. `0.0` when the pilot saw every row
/// (`n₀ = N`: it is exact). Both [`Coordinator::curve_epsilon_at`] and
/// the serving layer's
/// [`StalePilot`](crate::serve::resilience::DegradationRung::StalePilot)
/// rung compute their ε here, so the two agree bit for bit.
pub(crate) fn pilot_curve_epsilon<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    spec: &S,
    holdout: &Dataset<F>,
    pilot: &PilotState,
    n: usize,
    full_n: usize,
    seed: u64,
) -> f64 {
    match &pilot.stats {
        Some(stats) if pilot.n0 < full_n => {
            let scorer = HoldoutScorer::new(spec, holdout, pilot.model.parameters());
            SampleSizeEstimator::new(config.num_param_samples).epsilon_at_scored(
                &scorer,
                stats,
                pilot.n0,
                n,
                full_n,
                config.delta,
                split_seed(seed, 2),
            )
        }
        _ => 0.0,
    }
}

/// The ε-independent artifacts of the pilot phase — the initial model
/// and its statistics — cached by [`crate::session::Session`] across
/// repeated `train()` calls with different contracts, and by the
/// serving layer's keyed LRU ([`crate::serve`]) across tenants.
#[derive(Debug, Clone)]
pub(crate) struct PilotState {
    /// The initial model `m₀` trained on `n₀` examples.
    pub(crate) model: TrainedModel,
    /// Its statistics (`None` when `n₀ = N`: the run returns the exact
    /// model before any statistics are computed).
    pub(crate) stats: Option<ModelStatistics>,
    /// The pilot sample size the artifacts were computed at.
    pub(crate) n0: usize,
}

/// Degradation-aware run parameters for [`run_train`]: an optional
/// cancellation token (deadline pressure), the shed lane (pilot-only),
/// and the relaxed-final sizing knob. [`RunControl::unbounded`] runs
/// the full workflow — no token, no extra branches on the numeric
/// path.
#[derive(Debug, Clone)]
pub(crate) struct RunControl {
    /// Cooperative cancellation token; `None` never degrades.
    pub(crate) cancel: Option<Arc<CancelToken>>,
    /// Shed lane: skip the sample-size search and final training, and
    /// return the pilot with its honest ε₀ whenever it does not already
    /// satisfy the contract.
    pub(crate) pilot_only: bool,
    /// Fraction of the `n₀ → n` span the relaxed final model trains on
    /// under [`Pressure::Relax`] (see
    /// [`relaxed_sample_size`]).
    pub(crate) relax_fraction: f64,
}

impl RunControl {
    /// No deadline, no shedding: the full workflow.
    pub(crate) fn unbounded() -> Self {
        RunControl {
            cancel: None,
            pilot_only: false,
            relax_fraction: 0.25,
        }
    }
}

/// Outcome of the degradation-aware decision stage.
pub(crate) enum ControlledDecision<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> {
    /// `ε₀ ≤ ε`: return the initial model (a full-rung outcome).
    InitialSatisfies {
        /// Accuracy estimate of the initial model.
        eps0: f64,
    },
    /// Deadline pressure or the shed lane: return the pilot with its
    /// honest ε₀ instead of searching / training further.
    DegradeToPilot {
        /// Accuracy estimate of the initial model.
        eps0: f64,
        /// Binary-search probes spent before the search was abandoned.
        probes: usize,
    },
    /// The contract needs a final model on `n` examples.
    Train {
        /// Accuracy estimate of the initial model.
        eps0: f64,
        /// Minimum sample size from the estimator's binary search.
        n: usize,
        /// Binary-search probes used.
        probes: usize,
        /// The search's scored draw pools, kept so a relaxed final
        /// size's curve ε reuses them.
        search: PreparedSearch<'a, F, S>,
    },
}

/// The decision stage (the ε-dependent part of the workflow), shared by
/// [`run_train`] and the sweep engine: estimate the pilot's
/// accuracy `ε₀` (sub-seed 1) and, when the contract is not yet met,
/// binary-search the minimum sample size (sub-seed 2) — both against one
/// [`HoldoutScorer`], so the θ₀ score matrix is built once. The ε₀
/// estimate always completes (it is what makes the pilot rung
/// *honest*); then the shed lane or an expired token short-circuits to
/// the pilot, and the binary search itself polls the token before every
/// probe. Under [`RunControl::unbounded`] it never degrades.
pub(crate) fn decide_controlled<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    scorer: &HoldoutScorer<'a, F, S>,
    stats: &crate::stats::ModelStatistics,
    n0: usize,
    full_n: usize,
    seed: u64,
    control: &RunControl,
) -> ControlledDecision<'a, F, S> {
    let accuracy = ModelAccuracyEstimator::new(config.num_param_samples);
    let eps0 =
        accuracy.estimate_scored(scorer, stats, n0, full_n, config.delta, split_seed(seed, 1));
    if eps0 <= config.epsilon {
        return ControlledDecision::InitialSatisfies { eps0 };
    }
    let expired = || control.cancel.as_deref().is_some_and(CancelToken::expired);
    if control.pilot_only || expired() {
        return ControlledDecision::DegradeToPilot { eps0, probes: 0 };
    }
    let search = SampleSizeEstimator::new(config.num_param_samples).prepare(
        scorer,
        stats,
        n0,
        full_n,
        config.delta,
        split_seed(seed, 2),
    );
    let est = match &control.cancel {
        Some(token) => search.search(config.epsilon, Some(&|| token.expired())),
        None => search.search(config.epsilon, None),
    };
    match est {
        Some(est) => ControlledDecision::Train {
            eps0,
            n: est.n,
            probes: est.probes,
            search,
        },
        None => ControlledDecision::DegradeToPilot { eps0, probes: 0 },
    }
}

/// Closing accuracy estimate of a **final** model (the
/// `estimate_final_accuracy` option): a fresh holdout scorer for `θ_n`
/// and an accuracy estimate at sub-seed 4. Shared by [`run_train`] and
/// the sweep engine so both compute the exact same `ε̂`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn final_accuracy_scored<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    spec: &S,
    holdout: &Dataset<F>,
    stats_n: &crate::stats::ModelStatistics,
    theta_n: &[f64],
    n: usize,
    full_n: usize,
    seed: u64,
) -> f64 {
    let scorer_n = HoldoutScorer::new(spec, holdout, theta_n);
    let accuracy = ModelAccuracyEstimator::new(config.num_param_samples);
    accuracy.estimate_scored(
        &scorer_n,
        stats_n,
        n,
        full_n,
        config.delta,
        split_seed(seed, 4),
    )
}

/// One sample fit: draw the deterministic sample for `(n, sample_seed)`,
/// train on it (warm-started when given), and optionally compute its
/// statistics — reusing one packed capture of the sample for both.
struct SampleFit {
    model: TrainedModel,
    stats: Option<ModelStatistics>,
    train_time: Duration,
    stats_time: Duration,
}

#[allow(clippy::too_many_arguments)]
fn fit_sample<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    spec: &S,
    train: &Dataset<F>,
    cap_scratch: &mut CaptureScratch,
    n: usize,
    sample_seed: u64,
    warm_start: Option<&[f64]>,
    with_stats: bool,
    cancel: Option<&CancelToken>,
) -> Result<SampleFit, CoreError> {
    // Checkpoint between the train and statistics phases: an expired
    // token stops before the statistics pass starts.
    let stats_checkpoint = || -> Result<(), CoreError> {
        match cancel {
            Some(token) if with_stats && token.expired() => Err(CoreError::Cancelled),
            _ => Ok(()),
        }
    };
    let t = Instant::now();
    // The sample is an index list. Training and statistics share one
    // capture: the sampled rows packed straight from the dataset into
    // one contiguous block (one bulk copy of n rows, then contiguous
    // streaming on every optimizer probe; never per-example clones).
    let sample = train.sample_view(n, sample_seed);
    let capture = DatasetMatrix::pack(train, sample.indices(), cap_scratch);
    let view = capture.view();
    let model = spec.train_view(&view, warm_start, &config.optim)?;
    let train_time = t.elapsed();
    stats_checkpoint()?;
    let t = Instant::now();
    let stats = with_stats
        .then(|| compute_statistics_view(config.statistics_method, spec, model.parameters(), &view))
        .transpose()?;
    let stats_time = t.elapsed();
    // Give the capture's buffers back so the next capture (the final
    // sample, or the next session query) rewrites warm pages
    // instead of faulting in fresh ones.
    capture.recycle(cap_scratch);
    Ok(SampleFit {
        model,
        stats,
        train_time,
        stats_time,
    })
}

/// The pilot-rung outcome of the degradation ladder: return `m₀` with
/// its honest ε₀ as both the initial and the achieved guarantee.
fn pilot_rung_outcome(
    m0: TrainedModel,
    n0: usize,
    full_n: usize,
    eps0: f64,
    phases: TrainingPhaseTimes,
    probes: usize,
) -> TrainingOutcome {
    TrainingOutcome {
        sample_size: n0,
        full_data_size: full_n,
        initial_epsilon: eps0,
        estimated_epsilon: eps0,
        used_initial_model: true,
        phases,
        search_probes: probes,
        model: m0,
    }
}

/// The coordinator workflow (paper §2.3), shared by
/// [`Coordinator::train_with_holdout`],
/// [`crate::session::Session::train`] and the server: pilot (train
/// `m₀`, statistics), accuracy estimate, sample-size search, final
/// training — with the holdout `DiffEngine` base scores built **once**
/// and shared between the ε₀ estimate and the search, and each sample
/// packed from `train` into `cap_scratch`'s recycled buffers.
///
/// `pilot` short-circuits the pilot phase with cached artifacts (the
/// Session amortization); `want_pilot` asks for the artifacts back so
/// the caller can cache them.
///
/// `control` adds the server's deadline / degradation control;
/// [`RunControl::unbounded`] runs the full workflow. Returns which
/// [`DegradationRung`] produced the outcome. The ladder:
///
/// 1. **Full** — no pressure: the full workflow.
/// 2. **RelaxedFinal** — [`Pressure::Relax`] at the final-train
///    boundary: the final model trains on
///    [`relaxed_sample_size`] examples and the response reports the
///    honest curve ε for that size (same sub-seed and draw pools as
///    the search — bit-equal to a cold replay).
/// 3. **Pilot** — the deadline expired after ε₀ was computed (during
///    the search or final training), or the query was shed into the
///    pilot-only lane: `m₀` with its honest ε₀.
/// 4. **Fail-fast** — the deadline expired before any guarantee
///    existed (before/during the pilot or statistics phases):
///    [`CoreError::Cancelled`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_train<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    cap_scratch: &mut CaptureScratch,
    seed: u64,
    pilot: Option<&PilotState>,
    want_pilot: bool,
    control: &RunControl,
) -> Result<(TrainingOutcome, Option<PilotState>, DegradationRung), CoreError> {
    if train.is_empty() {
        return Err(CoreError::InvalidData("empty training pool".into()));
    }
    if holdout.is_empty() {
        return Err(CoreError::InvalidData("empty holdout set".into()));
    }
    let full_n = train.len();
    let n0 = config.initial_sample_size.min(full_n);
    let mut phases = TrainingPhaseTimes::default();

    // Install the optimizer's per-iteration stop probe when a token is
    // present. The unloaded path (`cancel: None`) borrows the caller's
    // config untouched — no clone, no probe, no new branches.
    let controlled_config;
    let config = match &control.cancel {
        Some(token) => {
            let probe = token.clone();
            let mut c = config.clone();
            c.optim.stop_check = Some(StopCheck::new(move || probe.expired()));
            controlled_config = c;
            &controlled_config
        }
        None => config,
    };
    let cancel = control.cancel.as_deref();
    let expired = || cancel.is_some_and(CancelToken::expired);

    // Checkpoint 0: deadline already gone before any work.
    if expired() {
        return Err(CoreError::Cancelled);
    }

    // Phases 1 + 2: the pilot — initial model on D₀ plus its statistics
    // (skipped when n₀ = N), one shared sample view for both. A cached
    // pilot (Session) skips the work entirely; the artifacts are
    // ε-independent, so reuse is exact. Cancellation in here (pilot
    // train, statistics) is a fail-fast: no guarantee exists yet.
    let (m0, stats0) = match pilot {
        Some(p) => {
            debug_assert_eq!(p.n0, n0, "cached pilot has a different n0");
            (p.model.clone(), p.stats.clone())
        }
        None => {
            let fit = fit_sample(
                config,
                spec,
                train,
                cap_scratch,
                n0,
                split_seed(seed, 0),
                None,
                n0 < full_n,
                cancel,
            )
            .map_err(|e| {
                if e.is_cancellation() {
                    CoreError::Cancelled
                } else {
                    e
                }
            })?;
            phases.initial_training = fit.train_time;
            phases.statistics = fit.stats_time;
            (fit.model, fit.stats)
        }
    };
    let pilot_state = |model: &TrainedModel, stats: &Option<ModelStatistics>| {
        want_pilot.then(|| PilotState {
            model: model.clone(),
            stats: stats.clone(),
            n0,
        })
    };

    if n0 == full_n {
        // The "initial sample" is the whole dataset: exact model.
        let cached = pilot_state(&m0, &stats0);
        return Ok((
            TrainingOutcome {
                sample_size: n0,
                full_data_size: full_n,
                initial_epsilon: 0.0,
                estimated_epsilon: 0.0,
                used_initial_model: true,
                phases,
                search_probes: 0,
                model: m0,
            },
            cached,
            DegradationRung::Full,
        ));
    }
    let stats = stats0.as_ref().expect("statistics computed when n0 < N");

    // Checkpoint: statistics → search boundary. Still no honest ε₀, so
    // expiry here is a fail-fast too.
    if expired() {
        return Err(CoreError::Cancelled);
    }

    // Phases 3a + 3b — the decision stage: accuracy of m₀, then (when
    // needed) the minimum sample size, both against one holdout scorer
    // so the θ₀ score matrix is built once. From here on the pilot rung
    // is reachable: ε₀ is an honest guarantee for m₀.
    let t = Instant::now();
    let scorer = HoldoutScorer::new(spec, holdout, m0.parameters());
    let decision = decide_controlled(config, &scorer, stats, n0, full_n, seed, control);
    phases.sample_size_search = t.elapsed();
    let (eps0, est_n, probes, search) = match decision {
        ControlledDecision::InitialSatisfies { eps0 } => {
            let cached = pilot_state(&m0, &stats0);
            return Ok((
                TrainingOutcome {
                    sample_size: n0,
                    full_data_size: full_n,
                    initial_epsilon: eps0,
                    estimated_epsilon: eps0,
                    used_initial_model: true,
                    phases,
                    search_probes: 0,
                    model: m0,
                },
                cached,
                DegradationRung::Full,
            ));
        }
        ControlledDecision::DegradeToPilot { eps0, probes } => {
            let cached = pilot_state(&m0, &stats0);
            return Ok((
                pilot_rung_outcome(m0, n0, full_n, eps0, phases, probes),
                cached,
                DegradationRung::Pilot,
            ));
        }
        ControlledDecision::Train {
            eps0,
            n,
            probes,
            search,
        } => (eps0, n, probes, search),
    };

    // Checkpoint: the final-train boundary — the last point where the
    // ladder can still buy latency. Relax pressure trains a cheaper
    // final model with an honest curve ε; expiry falls to the pilot.
    let mut final_n = est_n;
    let mut rung = DegradationRung::Full;
    let mut relaxed_eps = None;
    if let Some(token) = cancel {
        match token.pressure() {
            Pressure::Expired => {
                let cached = pilot_state(&m0, &stats0);
                return Ok((
                    pilot_rung_outcome(m0, n0, full_n, eps0, phases, probes),
                    cached,
                    DegradationRung::Pilot,
                ));
            }
            Pressure::Relax => {
                let n_relaxed = relaxed_sample_size(n0, est_n, control.relax_fraction);
                if n_relaxed < est_n {
                    // The achieved guarantee for the relaxed size, from
                    // the search's own scored draw pools — the exact
                    // value a cold coordinator computes for this curve
                    // point.
                    relaxed_eps = Some(search.epsilon_at(n_relaxed));
                    final_n = n_relaxed;
                    rung = DegradationRung::RelaxedFinal;
                }
            }
            Pressure::None => {}
        }
    }
    // The search's scored pools are not needed past the checkpoint.
    drop(search);

    // Phase 4: final model, warm-started from θ₀, on a capture packed
    // into the run's recycled buffers; the optional closing statistics
    // pass reuses the final sample's view (full rung only — under
    // pressure the extra pass is exactly what the ladder is shedding).
    let want_final_stats =
        config.estimate_final_accuracy && rung == DegradationRung::Full && final_n < full_n;
    let fit = match fit_sample(
        config,
        spec,
        train,
        cap_scratch,
        final_n,
        split_seed(seed, 3),
        Some(m0.parameters()),
        want_final_stats,
        cancel,
    ) {
        Ok(fit) => fit,
        Err(e) if e.is_cancellation() => {
            // Mid-final-train expiry: the pilot rung still holds its
            // honest ε₀.
            let cached = pilot_state(&m0, &stats0);
            return Ok((
                pilot_rung_outcome(m0, n0, full_n, eps0, phases, probes),
                cached,
                DegradationRung::Pilot,
            ));
        }
        Err(e) => return Err(e),
    };
    phases.final_training = fit.train_time;

    let estimated_epsilon = if let Some(eps) = relaxed_eps {
        eps
    } else if want_final_stats {
        let t = Instant::now();
        let stats_n = fit.stats.as_ref().expect("final statistics requested");
        let eps = final_accuracy_scored(
            config,
            spec,
            holdout,
            stats_n,
            fit.model.parameters(),
            est_n,
            full_n,
            seed,
        );
        phases.statistics += fit.stats_time + t.elapsed();
        eps
    } else if final_n >= full_n {
        0.0
    } else {
        config.epsilon
    };

    let cached = pilot_state(&m0, &stats0);
    Ok((
        TrainingOutcome {
            sample_size: final_n,
            full_data_size: full_n,
            initial_epsilon: eps0,
            estimated_epsilon,
            used_initial_model: false,
            phases,
            search_probes: probes,
            model: fit.model,
        },
        cached,
        rung,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StatisticsMethod;
    use crate::models::linreg::LinearRegressionSpec;
    use crate::models::logreg::LogisticRegressionSpec;
    use blinkml_data::generators::{synthetic_linear, synthetic_logistic};
    use blinkml_optim::OptimOptions;

    fn config(epsilon: f64, n0: usize) -> BlinkMlConfig {
        BlinkMlConfig {
            epsilon,
            delta: 0.05,
            initial_sample_size: n0,
            holdout_size: 800,
            num_param_samples: 64,
            statistics_method: StatisticsMethod::ObservedFisher,
            optim: OptimOptions::default(),
            estimate_final_accuracy: false,
            exec: Default::default(),
        }
    }

    #[test]
    fn loose_contract_returns_initial_model() {
        let (data, _) = synthetic_logistic(20_000, 5, 2.0, 1);
        let spec = LogisticRegressionSpec::new(1e-3);
        let out = Coordinator::new(config(0.5, 500))
            .train(&spec, &data, 42)
            .unwrap();
        assert!(out.used_initial_model);
        assert_eq!(out.sample_size, 500);
        assert!(out.estimated_epsilon <= 0.5);
        assert_eq!(out.phases.final_training, Duration::ZERO);
    }

    #[test]
    fn tight_contract_trains_second_model() {
        let (data, _) = synthetic_logistic(30_000, 5, 2.0, 2);
        let spec = LogisticRegressionSpec::new(1e-3);
        let out = Coordinator::new(config(0.01, 300))
            .train(&spec, &data, 43)
            .unwrap();
        assert!(!out.used_initial_model);
        assert!(out.sample_size > 300, "n = {}", out.sample_size);
        assert!(out.search_probes > 0);
        assert!(out.phases.final_training > Duration::ZERO);
        assert!(out.initial_epsilon > 0.01);
    }

    #[test]
    fn returned_model_matches_trained_full_model_within_epsilon() {
        let (data, _) = synthetic_linear(15_000, 4, 0.5, 3);
        let split = data.split(1_000, 0, 4);
        let spec = LinearRegressionSpec::new(1e-3);
        let epsilon = 0.05;
        let out = Coordinator::new(config(epsilon, 400))
            .train_with_holdout(&spec, &split.train, &split.holdout, 44)
            .unwrap();
        let full = spec
            .train(&split.train, None, &OptimOptions::default())
            .unwrap();
        let v = spec.diff(out.model.parameters(), full.parameters(), &split.holdout);
        assert!(v <= epsilon * 1.5, "realized difference {v}");
    }

    #[test]
    fn n0_larger_than_dataset_trains_exact_model() {
        let (data, _) = synthetic_linear(1_500, 3, 0.3, 5);
        let spec = LinearRegressionSpec::new(1e-3);
        let out = Coordinator::new(config(0.05, 10_000))
            .train(&spec, &data, 45)
            .unwrap();
        assert!(out.used_initial_model);
        assert_eq!(out.sample_size, out.full_data_size);
        assert_eq!(out.estimated_epsilon, 0.0);
    }

    #[test]
    fn rejects_empty_and_tiny_inputs() {
        let spec = LinearRegressionSpec::new(1e-3);
        let empty = Dataset::<blinkml_data::DenseVec>::new("empty", 2, vec![]);
        assert!(Coordinator::new(config(0.05, 100))
            .train(&spec, &empty, 1)
            .is_err());
    }

    #[test]
    fn lemma1_bound_formula() {
        let out = TrainingOutcome {
            model: TrainedModel::new(vec![0.0], 10, 0, true, 0.0),
            sample_size: 10,
            full_data_size: 100,
            initial_epsilon: 0.1,
            estimated_epsilon: 0.1,
            used_initial_model: true,
            phases: TrainingPhaseTimes::default(),
            search_probes: 0,
        };
        // ε_g + ε − ε_g·ε with ε_g = 0.2, ε = 0.1.
        let bound = out.full_model_error_bound(0.2);
        assert!((bound - 0.28).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = synthetic_logistic(10_000, 4, 2.0, 6);
        let spec = LogisticRegressionSpec::new(1e-3);
        let c = Coordinator::new(config(0.05, 300));
        let a = c.train(&spec, &data, 7).unwrap();
        let b = c.train(&spec, &data, 7).unwrap();
        assert_eq!(a.sample_size, b.sample_size);
        assert_eq!(a.model.parameters(), b.model.parameters());
    }

    #[test]
    fn outputs_identical_across_thread_budgets() {
        // The execution layer's determinism contract, end to end: a tight
        // contract (forcing the sample-size search and second training)
        // must produce bit-identical results sequentially and with a
        // multi-thread budget. The budget is process-wide, so hold the
        // lock the other budget-setting pins in this binary take.
        use crate::config::ExecConfig;
        let _budget = blinkml_linalg::testing::budget_lock();
        let (data, _) = synthetic_logistic(12_000, 4, 2.0, 8);
        let spec = LogisticRegressionSpec::new(1e-3);
        let mut cfg = config(0.02, 300);
        cfg.exec = ExecConfig::sequential();
        let a = Coordinator::new(cfg.clone())
            .train(&spec, &data, 9)
            .unwrap();
        cfg.exec = ExecConfig {
            max_threads: Some(4),
        };
        let b = Coordinator::new(cfg).train(&spec, &data, 9).unwrap();
        assert_eq!(a.sample_size, b.sample_size);
        assert_eq!(a.initial_epsilon, b.initial_epsilon);
        assert_eq!(a.model.parameters(), b.model.parameters());
    }
}

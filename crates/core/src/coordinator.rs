//! The BlinkML Coordinator (paper §2.3) and the one training pipeline
//! behind every entry point.
//!
//! Workflow: draw the initial sample `D₀`, train `m₀`, estimate its
//! accuracy; if the contract is already met, return `m₀`. Otherwise ask
//! the Sample Size Estimator for the minimum `n` and train the final
//! model on a fresh size-`n` sample (warm-started from `θ₀`). At most
//! two approximate models are ever trained.
//!
//! `run_pipeline` runs that workflow for K ≥ 1 specs at once, over
//! shared samples: a coordinator call, a [`Session::train`] and a served
//! query are K = 1; a λ-grid sweep (paper §6.5) is K grid points, one
//! spec per λ (see [`crate::sweep`]).
//!
//! [`Session::train`]: crate::Session::train

use crate::accuracy::ModelAccuracyEstimator;
use crate::config::BlinkMlConfig;
use crate::diff_engine::HoldoutScorer;
use crate::error::CoreError;
use crate::mcs::{ModelClassSpec, SweepEval, TrainedModel};
use crate::sample_size::SampleSizeEstimator;
use crate::serve::resilience::{relaxed_sample_size, CancelToken, DegradationRung, Pressure};
use crate::stats::{compute_statistics_view, ModelStatistics};
use blinkml_data::{CaptureScratch, Dataset, DatasetMatrix, FeatureVec, MatrixView, TrainScratch};
use blinkml_optim::{MinimizeWorkspace, Solve, StopCheck};
use blinkml_prob::split_seed;
use std::borrow::Cow;
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
/// It keeps the pipeline buffers of finished calls and hands one set to
/// each new call, so a coordinator reused across calls packs its samples
/// into warm pages, as a [`Session`](crate::Session) or a server worker
/// does. Concurrent calls each take their own buffers. A clone shares
/// the configuration and starts with no buffers.
pub struct Coordinator {
    config: BlinkMlConfig,
    scratches: Mutex<Vec<PipelineScratch>>,
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
            scratches: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` on pipeline buffers taken from this coordinator's spares
    /// (fresh ones when there are none), and keep them afterwards.
    fn with_scratch<T>(&self, f: impl FnOnce(&mut PipelineScratch) -> T) -> T {
        let spares = || {
            self.scratches
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
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
        self.with_scratch(|scratch| {
            run_one(
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
        .map(|run| run.outcome)
    }

    /// The honest ε this coordinator's workflow assigns to a model
    /// trained on exactly `n` examples — one point on the sample-size
    /// curve, computed cold: the pipeline's pilot stage on `n₀`
    /// (sub-seed 0), then the curve quantile with the sample-size
    /// search's own sub-seed (2) and draw pools.
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
        let mut pilots = self.with_scratch(|scratch| {
            pilot_stage(
                &self.config,
                &[spec],
                train,
                scratch,
                seed,
                None,
                &mut TrainingPhaseTimes::default(),
            )
        })?;
        let pilot = pilots.pop().expect("one spec, one pilot");
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

/// The ε-independent artifacts of the pilot stage — the initial model
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

/// Degradation-aware run parameters for [`run_pipeline`]: an optional
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

/// The buffers a pipeline call packs and fits into: the sample
/// captures' packing buffers, and the lockstep fits' objective scratch
/// and solver workspaces. A caller that keeps one across calls (a
/// [`Coordinator`]'s spares, a [`Session`](crate::Session), a server
/// worker) writes warm pages in steady state. Every buffer is fully
/// overwritten before it is read, so reuse never changes a bit.
#[derive(Default)]
pub(crate) struct PipelineScratch {
    capture: CaptureScratch,
    objective: TrainScratch,
    solves: Vec<MinimizeWorkspace>,
}

/// One spec's result from [`run_pipeline`].
pub(crate) struct PipelineRun {
    /// The training outcome.
    pub(crate) outcome: TrainingOutcome,
    /// Which rung of the degradation ladder produced it.
    pub(crate) rung: DegradationRung,
    /// The pilot artifacts, when the caller asked for them.
    pub(crate) pilot: Option<PilotState>,
}

/// [`run_pipeline`] for one spec: a coordinator call, a
/// [`Session::train`](crate::Session::train) or a served query. Its
/// signature holds the condition a cached `pilot` needs — one spec, one
/// run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_one<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    scratch: &mut PipelineScratch,
    seed: u64,
    pilot: Option<&PilotState>,
    want_pilot: bool,
    control: &RunControl,
) -> Result<PipelineRun, CoreError> {
    let mut runs = run_pipeline(
        config,
        &[spec],
        train,
        holdout,
        scratch,
        seed,
        pilot,
        want_pilot,
        control,
    )?;
    Ok(runs.pop().expect("one spec, one run"))
}

/// The training pipeline (paper §2.3) for K ≥ 1 specs that share the
/// training pool, the holdout, the `(ε, δ)` contract in `config` and the
/// `seed`, so they share their samples too. Results come back in `specs`
/// order. Each stage takes every spec:
///
/// 1. **Pilot** — one capture of the size-`n₀` sample, K fits, then K
///    sets of statistics on the same view ([`pilot_stage`]). `pilot`
///    replaces the stage with cached artifacts (K = 1; the Session and
///    server amortization), borrowed, never cloned; `want_pilot` hands
///    each spec's artifacts back so the caller can cache them.
/// 2. **Decision** — per spec, its accuracy `ε₀` and, when the contract
///    is not met, the minimum sample size ([`decide_controlled`]).
/// 3. **Final** — one nested capture of the largest chosen `n`; each
///    spec fits on its own prefix of it, warm-started from its `θ₀`,
///    and, with `estimate_final_accuracy`, estimates its `ε̂` on the
///    same prefix ([`final_stage`]). Deterministic subsampling is
///    nested, so a prefix is exactly the spec's own size-`n` sample.
///
/// Every stage fits through [`fit_stage`]: one fit through
/// [`ModelClassSpec::train_view`], several as lockstep solves over one
/// fused multi-λ objective call per round. A spec's outcome is
/// therefore bit-identical whatever K it runs at. With K > 1 the phase
/// times are stage aggregates that every outcome shares.
///
/// `control` adds the server's deadline / degradation control;
/// [`RunControl::unbounded`] runs the full workflow. Each run reports
/// which [`DegradationRung`] produced its outcome. The ladder:
///
/// 1. **Full** — no pressure: the full workflow.
/// 2. **RelaxedFinal** — [`Pressure::Relax`] at the final-train
///    boundary: the final model trains on [`relaxed_sample_size`]
///    examples and the response reports the honest curve ε for that
///    size (same sub-seed and draw pools as the search — bit-equal to a
///    cold replay).
/// 3. **Pilot** — the deadline expired after ε₀ was computed (during
///    the search, at the final-train boundary, during final training or
///    before the closing statistics pass), or the query was shed into
///    the pilot-only lane: `m₀` with its honest ε₀.
/// 4. **Fail-fast** — the deadline expired before any guarantee
///    existed (before/during the pilot or statistics phases):
///    [`CoreError::Cancelled`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pipeline<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    specs: &[&S],
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    scratch: &mut PipelineScratch,
    seed: u64,
    pilot: Option<&PilotState>,
    want_pilot: bool,
    control: &RunControl,
) -> Result<Vec<PipelineRun>, CoreError> {
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

    // Stage 1: the pilot, or the caller's cached artifacts for it. They
    // are ε-independent, so reuse is exact.
    let pilots: Vec<Cow<'_, PilotState>> = match pilot {
        Some(p) => {
            debug_assert_eq!(specs.len(), 1, "a cached pilot serves one spec");
            debug_assert_eq!(p.n0, n0, "cached pilot has a different n0");
            vec![Cow::Borrowed(p)]
        }
        None => pilot_stage(config, specs, train, scratch, seed, cancel, &mut phases)?
            .into_iter()
            .map(Cow::Owned)
            .collect(),
    };

    // Stage 2: the decisions. When n₀ = N every pilot is its exact
    // model. Otherwise, checkpoint at the statistics → search boundary
    // (still no honest ε₀, so expiry is a fail-fast), then decide each
    // spec against its own holdout scorer. The scorers live until the
    // final stage is done: freeing them before the final fit changed
    // the allocator's heap enough that a `train-wide` call faulted in
    // about 28 MB more pages and ran about 10% slower (glibc, 2-vCPU
    // Xeon guest).
    let (mut points, scorers): (Vec<Point>, Vec<HoldoutScorer<'_, F, S>>) = if n0 == full_n {
        let points = specs
            .iter()
            .map(|_| Point::initial(0.0, 0, DegradationRung::Full))
            .collect();
        (points, Vec::new())
    } else {
        if expired() {
            return Err(CoreError::Cancelled);
        }
        let t = Instant::now();
        let scorers: Vec<_> = specs
            .iter()
            .zip(&pilots)
            .map(|(spec, p)| HoldoutScorer::new(*spec, holdout, p.model.parameters()))
            .collect();
        let points = scorers
            .iter()
            .zip(&pilots)
            .map(|(scorer, p)| decide_controlled(config, scorer, p, full_n, seed, control))
            .collect();
        phases.sample_size_search = t.elapsed();
        (points, scorers)
    };

    // Stage 3: the final models.
    final_stage(
        config,
        specs,
        train,
        holdout,
        scratch,
        seed,
        &pilots,
        &mut points,
        cancel,
        &mut phases,
    )?;
    drop(scorers);

    Ok(pilots
        .into_iter()
        .zip(points)
        .map(|(pilot, point)| point.finish(pilot, full_n, &phases, want_pilot))
        .collect())
}

/// One spec's way through the decision and final stages.
struct Point {
    /// Accuracy estimate `ε₀` of the pilot (0 when `n₀ = N`).
    eps0: f64,
    /// Binary-search probes spent.
    probes: usize,
    rung: DegradationRung,
    /// The final model's sample size, when the spec trains one.
    final_n: Option<usize>,
    /// The ε the outcome reports: ε₀ for the pilot; for a final model
    /// the relaxed curve ε, its ε̂, 0 at `n = N`, or the contract ε.
    eps: f64,
    /// The final model, once trained.
    model: Option<TrainedModel>,
}

impl Point {
    /// A point that returns its pilot with `ε₀` as its guarantee.
    fn initial(eps0: f64, probes: usize, rung: DegradationRung) -> Self {
        Point {
            eps0,
            probes,
            rung,
            final_n: None,
            eps: eps0,
            model: None,
        }
    }

    /// Fall to the pilot rung: `m₀` with its honest ε₀.
    fn degrade(&mut self) {
        *self = Point::initial(self.eps0, self.probes, DegradationRung::Pilot);
    }

    /// The outcome: the final model, or the pilot's (cloned only when
    /// the pilot is borrowed or handed back too).
    fn finish(
        self,
        pilot: Cow<'_, PilotState>,
        full_n: usize,
        phases: &TrainingPhaseTimes,
        want_pilot: bool,
    ) -> PipelineRun {
        let used_initial_model = self.model.is_none();
        let sample_size = self.final_n.unwrap_or(pilot.n0);
        let (model, pilot) = match self.model {
            Some(model) => (model, want_pilot.then(|| pilot.into_owned())),
            None if want_pilot => {
                let pilot = pilot.into_owned();
                (pilot.model.clone(), Some(pilot))
            }
            None => match pilot {
                Cow::Owned(p) => (p.model, None),
                Cow::Borrowed(p) => (p.model.clone(), None),
            },
        };
        PipelineRun {
            outcome: TrainingOutcome {
                model,
                sample_size,
                full_data_size: full_n,
                initial_epsilon: self.eps0,
                estimated_epsilon: self.eps,
                used_initial_model,
                phases: phases.clone(),
                search_probes: self.probes,
            },
            rung: self.rung,
            pilot,
        }
    }
}

/// Run `f` on a capture of the size-`n` sample drawn with
/// `sample_seed`: the sampled rows packed straight from the dataset into
/// `scratch`'s recycled buffers (one bulk copy, then contiguous
/// streaming on every optimizer probe), handed back afterwards so the
/// next capture rewrites warm pages.
fn with_sample<F: FeatureVec, T>(
    train: &Dataset<F>,
    n: usize,
    sample_seed: u64,
    scratch: &mut PipelineScratch,
    f: impl FnOnce(&MatrixView, &mut PipelineScratch) -> T,
) -> T {
    let sample = train.sample_view(n, sample_seed);
    let capture = DatasetMatrix::pack(train, sample.indices(), &mut scratch.capture);
    let out = f(&capture.view(), scratch);
    capture.recycle(&mut scratch.capture);
    out
}

/// Stage 1, the pilot: one capture of the size-`n₀` sample (sub-seed 0),
/// one fit per spec from its cold start, then, when `n₀ < N`, each
/// fit's statistics on the same view. Cancellation in here (pilot train,
/// statistics) is a fail-fast: no guarantee exists yet.
fn pilot_stage<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    specs: &[&S],
    train: &Dataset<F>,
    scratch: &mut PipelineScratch,
    seed: u64,
    cancel: Option<&CancelToken>,
    phases: &mut TrainingPhaseTimes,
) -> Result<Vec<PilotState>, CoreError> {
    let full_n = train.len();
    let n0 = config.initial_sample_size.min(full_n);
    let t = Instant::now();
    with_sample(train, n0, split_seed(seed, 0), scratch, |view, scratch| {
        let starts = vec![None; specs.len()];
        let rows = vec![n0; specs.len()];
        let models: Vec<TrainedModel> = fit_stage(config, specs, view, &rows, &starts, scratch)
            .into_iter()
            .collect::<Result<_, _>>()?;
        phases.initial_training = t.elapsed();
        // Checkpoint between the train and statistics phases: an
        // expired token stops before the statistics pass starts.
        let with_stats = n0 < full_n;
        if with_stats && cancel.is_some_and(CancelToken::expired) {
            return Err(CoreError::Cancelled);
        }
        let t = Instant::now();
        let pilots = specs
            .iter()
            .zip(models)
            .map(|(spec, model)| {
                let stats = with_stats
                    .then(|| {
                        compute_statistics_view(
                            config.statistics_method,
                            *spec,
                            model.parameters(),
                            view,
                        )
                    })
                    .transpose()?;
                Ok(PilotState { model, stats, n0 })
            })
            .collect();
        phases.statistics = t.elapsed();
        pilots
    })
    .map_err(|e| {
        if e.is_cancellation() {
            CoreError::Cancelled
        } else {
            e
        }
    })
}

/// Stage 2 for one spec, the ε-dependent part of the workflow: estimate
/// the pilot's accuracy `ε₀` (sub-seed 1) and, when the contract is not
/// yet met, binary-search the minimum sample size (sub-seed 2) — both
/// against one [`HoldoutScorer`], so the θ₀ score matrix is built once.
/// The ε₀ estimate always completes (it is what makes the pilot rung
/// *honest*); then the shed lane or an expired token short-circuits to
/// the pilot, and the binary search itself polls the token before every
/// probe. Last comes the final-train boundary, the last point where the
/// ladder can still buy latency: relax pressure sizes a cheaper final
/// model with an honest curve ε from the search's own scored draw pools;
/// expiry falls to the pilot. Under [`RunControl::unbounded`] it never
/// degrades.
fn decide_controlled<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    scorer: &HoldoutScorer<'_, F, S>,
    pilot: &PilotState,
    full_n: usize,
    seed: u64,
    control: &RunControl,
) -> Point {
    let n0 = pilot.n0;
    let stats = pilot
        .stats
        .as_ref()
        .expect("statistics computed when n0 < N");
    let accuracy = ModelAccuracyEstimator::new(config.num_param_samples);
    let eps0 =
        accuracy.estimate_scored(scorer, stats, n0, full_n, config.delta, split_seed(seed, 1));
    if eps0 <= config.epsilon {
        return Point::initial(eps0, 0, DegradationRung::Full);
    }
    let cancel = control.cancel.as_deref();
    if control.pilot_only || cancel.is_some_and(CancelToken::expired) {
        return Point::initial(eps0, 0, DegradationRung::Pilot);
    }
    let search = SampleSizeEstimator::new(config.num_param_samples).prepare(
        scorer,
        stats,
        n0,
        full_n,
        config.delta,
        split_seed(seed, 2),
    );
    let est = match cancel {
        Some(token) => search.search(config.epsilon, Some(&|| token.expired())),
        None => search.search(config.epsilon, None),
    };
    let Some(est) = est else {
        return Point::initial(eps0, 0, DegradationRung::Pilot);
    };
    let mut point = Point {
        eps0,
        probes: est.probes,
        rung: DegradationRung::Full,
        final_n: Some(est.n),
        eps: if est.n >= full_n { 0.0 } else { config.epsilon },
        model: None,
    };
    match cancel.map(CancelToken::pressure) {
        Some(Pressure::Expired) => point.degrade(),
        Some(Pressure::Relax) => {
            let n_relaxed = relaxed_sample_size(n0, est.n, control.relax_fraction);
            if n_relaxed < est.n {
                point.rung = DegradationRung::RelaxedFinal;
                point.final_n = Some(n_relaxed);
                // The exact value a cold coordinator computes for this
                // curve point.
                point.eps = search.epsilon_at(n_relaxed);
            }
        }
        _ => {}
    }
    point
}

/// Stage 3: the final models of the points whose contract needs one —
/// one nested capture of the largest chosen sample (sub-seed 3); every
/// point fits over its own prefix of it, warm-started from its own
/// pilot `θ₀`, exactly as a run of that point alone. Then, on the full
/// rung with `estimate_final_accuracy`, each point's closing statistics
/// on the same prefix and its `ε̂` (sub-seed 4). Under pressure that
/// extra pass is exactly what the ladder sheds. A cancelled fit, or a
/// deadline gone before the closing pass, falls to the pilot rung.
#[allow(clippy::too_many_arguments)]
fn final_stage<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    specs: &[&S],
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    scratch: &mut PipelineScratch,
    seed: u64,
    pilots: &[Cow<'_, PilotState>],
    points: &mut [Point],
    cancel: Option<&CancelToken>,
    phases: &mut TrainingPhaseTimes,
) -> Result<(), CoreError> {
    let needs: Vec<(usize, usize)> = points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.final_n.map(|n| (i, n)))
        .collect();
    let Some(max_n) = needs.iter().map(|&(_, n)| n).max() else {
        return Ok(());
    };
    let full_n = train.len();
    let t = Instant::now();
    with_sample(
        train,
        max_n,
        split_seed(seed, 3),
        scratch,
        |view, scratch| {
            let fit_specs: Vec<&S> = needs.iter().map(|&(i, _)| specs[i]).collect();
            let rows: Vec<usize> = needs.iter().map(|&(_, n)| n).collect();
            let starts: Vec<Option<&[f64]>> = needs
                .iter()
                .map(|&(i, _)| Some(pilots[i].model.parameters()))
                .collect();
            let fits = fit_stage(config, &fit_specs, view, &rows, &starts, scratch);
            phases.final_training = t.elapsed();
            for (&(i, _), fit) in needs.iter().zip(fits) {
                match fit {
                    Ok(model) => points[i].model = Some(model),
                    Err(e) if e.is_cancellation() => points[i].degrade(),
                    Err(e) => return Err(e),
                }
            }

            let t = Instant::now();
            for &(i, n) in &needs {
                let point = &mut points[i];
                let Some(model) = &point.model else {
                    continue;
                };
                if !config.estimate_final_accuracy
                    || point.rung != DegradationRung::Full
                    || n >= full_n
                {
                    continue;
                }
                if cancel.is_some_and(CancelToken::expired) {
                    point.degrade();
                    continue;
                }
                let stats_n = compute_statistics_view(
                    config.statistics_method,
                    specs[i],
                    model.parameters(),
                    &view.prefix(n),
                )?;
                let scorer_n = HoldoutScorer::new(specs[i], holdout, model.parameters());
                point.eps = ModelAccuracyEstimator::new(config.num_param_samples).estimate_scored(
                    &scorer_n,
                    &stats_n,
                    n,
                    full_n,
                    config.delta,
                    split_seed(seed, 4),
                );
            }
            phases.statistics += t.elapsed();
            Ok(())
        },
    )
}

/// Fit one model per spec over a prefix of `view`: spec `k` on its first
/// `rows[k]` rows, from `starts[k]` (its cold start when `None`).
///
/// One fit runs through [`ModelClassSpec::train_view`], so a closed form
/// (PPCA) or a spec without a swappable L2 coefficient fits as it would
/// alone. Several run as K quasi-Newton solves ([`Solve`]) in lockstep
/// rounds on the caller's thread: each round answers every unfinished
/// solve's probe with one [`ModelClassSpec::value_grad_batched_multi`]
/// pass of the first spec, each eval at its own spec's
/// [`ModelClassSpec::regularization`]. A solve's path depends only on
/// the answers to its own probes, and the
/// [`ModelClassSpec::with_regularization`] contract makes each answer
/// bitwise a solo evaluation, so each fit is bitwise its spec's
/// `train_view`.
fn fit_stage<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    specs: &[&S],
    view: &MatrixView,
    rows: &[usize],
    starts: &[Option<&[f64]>],
    scratch: &mut PipelineScratch,
) -> Vec<Result<TrainedModel, CoreError>> {
    if let [spec] = specs {
        return vec![spec.train_view(&view.prefix(rows[0]), starts[0], &config.optim)];
    }
    let dim = specs[0].param_dim(view.dim());
    let theta0s: Vec<Vec<f64>> = specs
        .iter()
        .zip(rows.iter().zip(starts))
        .map(|(spec, (&n, start))| match start {
            Some(theta) => theta.to_vec(),
            None => spec.cold_start(&view.prefix(n)),
        })
        .collect();
    if scratch.solves.len() < specs.len() {
        scratch
            .solves
            .resize_with(specs.len(), MinimizeWorkspace::new);
    }
    let mut solves: Vec<Solve> = scratch
        .solves
        .iter_mut()
        .zip(&theta0s)
        .map(|(ws, theta0)| Solve::new(dim, theta0, &config.optim, ws))
        .collect();
    loop {
        let mut evals: Vec<SweepEval> = solves
            .iter_mut()
            .zip(specs.iter().zip(rows))
            .filter_map(|(solve, (spec, &n))| {
                let (theta, grad) = solve.probe()?;
                Some(SweepEval::new(theta, spec.regularization(), n, grad))
            })
            .collect();
        if evals.is_empty() {
            break;
        }
        specs[0].value_grad_batched_multi(&mut evals, view, &mut scratch.objective);
        let values: Vec<f64> = evals.iter().map(|e| e.value).collect();
        let live = solves.iter_mut().filter(|solve| !solve.is_done());
        for (solve, value) in live.zip(values) {
            solve.tell(value);
        }
    }
    solves
        .into_iter()
        .zip(rows)
        .map(|(solve, &n)| {
            let r = solve.finish()?;
            Ok(TrainedModel::new(
                r.theta,
                n,
                r.iterations,
                r.converged,
                r.value,
            ))
        })
        .collect()
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

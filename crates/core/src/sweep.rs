//! The fused hyperparameter-sweep engine (paper §6.5, the
//! hyperparameter-search workload).
//!
//! A λ-grid sweep — training one model per L2 coefficient λ over the
//! same data and the same `(ε, δ)` contract — is the paper's motivating
//! serving scenario, and a looped [`Session::train`](crate::Session)
//! baseline repays almost all of its cost to **memory traffic**: every
//! grid point streams the same pilot sample, the same holdout design
//! matrix, and (nearly) the same final sample through the cache, once
//! per optimizer probe, per λ. This module evaluates the whole grid over
//! one shared substrate instead:
//!
//! * **one pilot capture** — the pilot sample is drawn and captured
//!   once; every λ's initial model trains against the same block,
//! * **lockstep fused fits** — the K concurrent quasi-Newton solves are
//!   driven round by round through
//!   [`ModelClassSpec::value_grad_batched_multi`]: each round answers
//!   every live solver's probe with one fused pass over the capture, so
//!   a chunk of rows is loaded into cache once and serves up to K
//!   margin/gradient evaluations before it is evicted,
//! * **one scorer pass** — the K holdout base score matrices behind the
//!   ε₀ estimates and sample-size searches are built by one stacked GEMM
//!   ([`HoldoutScorer::new_many`]),
//! * **one final capture** — deterministic subsampling is *nested*
//!   (the size-`n` sample is a prefix of the size-`n'` sample for
//!   `n ≤ n'`, same seed), so one capture of the largest chosen sample
//!   serves every grid point as a prefix view.
//!
//! **Exactness contract.** Under the default
//! [`WarmStartPolicy::ExactReplay`], every grid point's outcome — θ (to
//! the bit, via `f64::to_bits`), ε₀, ε̂, and the chosen sample size `n` —
//! is identical to an independent [`Session::train`](crate::Session)
//! run on a spec with that λ. This holds because every fused kernel in
//! the chain is bit-identical to its per-λ form: the multi-λ objective
//! to [`ModelClassSpec::value_grad`] over a prefix view, the
//! stacked scorer GEMM to per-λ scorers, and prefix views to captures
//! of the per-λ samples. The lockstep driver only *batches* probe
//! evaluations; it never mixes state between grid points, so each λ's
//! optimizer trajectory is exactly the trajectory of a solo solve.
//!
//! [`WarmStartPolicy::PathFollow`] trades that reproducibility for
//! fewer iterations: final fits run sequentially in descending-λ order,
//! each warm-started from its neighbor's θ, falling back to the point's
//! own pilot θ₀ when the line search rejects the warm start.

use crate::config::{BlinkMlConfig, WarmStartPolicy};
use crate::coordinator::{decide, final_accuracy_scored, Decision, TrainingOutcome};
use crate::coordinator::{run_train, TrainingPhaseTimes};
use crate::diff_engine::HoldoutScorer;
use crate::error::CoreError;
use crate::mcs::{ModelClassSpec, SweepEval, TrainedModel};
use crate::stats::{compute_statistics_view, ModelStatistics};
use blinkml_data::{CaptureScratch, Dataset, DatasetMatrix, FeatureVec, MatrixView, TrainScratch};
use blinkml_optim::{
    minimize_with, MinimizeWorkspace, Objective, OptimError, OptimOptions, OptimResult,
};
use blinkml_prob::split_seed;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A hyperparameter-sweep request: the λ grid, the shared `(ε, δ)`
/// contract, the seed, and the warm-start policy.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// L2 regularization coefficients, one grid point each (any order;
    /// results come back in this order).
    pub lambdas: Vec<f64>,
    /// Error bound `ε` shared by every grid point.
    pub epsilon: f64,
    /// Violation probability `δ` shared by every grid point.
    pub delta: f64,
    /// Seed shared by every grid point (samples and estimator draws are
    /// seed-deterministic, so grid points share their pilot and final
    /// samples).
    pub seed: u64,
    /// How final fits are warm-started (see [`WarmStartPolicy`]).
    pub warm_start: WarmStartPolicy,
}

impl SweepPlan {
    /// A plan with the default ([`WarmStartPolicy::ExactReplay`])
    /// warm-start policy.
    pub fn new(lambdas: Vec<f64>, epsilon: f64, delta: f64, seed: u64) -> Self {
        SweepPlan {
            lambdas,
            epsilon,
            delta,
            seed,
            warm_start: WarmStartPolicy::default(),
        }
    }

    /// This plan with the given warm-start policy.
    pub fn with_warm_start(mut self, policy: WarmStartPolicy) -> Self {
        self.warm_start = policy;
        self
    }

    /// Validate the grid.
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.lambdas.is_empty() {
            return Err(CoreError::InvalidConfig(
                "sweep needs at least one λ grid point".into(),
            ));
        }
        for &l in &self.lambdas {
            if !(l.is_finite() && l >= 0.0) {
                return Err(CoreError::InvalidConfig(format!(
                    "sweep λ must be finite and nonnegative, got {l}"
                )));
            }
        }
        Ok(())
    }
}

/// One grid point's result.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The grid point's L2 coefficient.
    pub lambda: f64,
    /// Its training outcome — under [`WarmStartPolicy::ExactReplay`],
    /// bit-identical to an independent run with this λ. In the fused
    /// engine the phase times are **stage aggregates** shared by every
    /// point (the stages are fused; per-point attribution would be
    /// fiction).
    pub outcome: TrainingOutcome,
}

/// The result of a grid sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Per-λ results, in the plan's λ order.
    pub points: Vec<SweepPoint>,
    /// Whether the fused shared-substrate engine ran (`false`: the
    /// per-point fallback loop served the request — a model class
    /// without the multi-λ kernel).
    pub fused: bool,
    /// Final fits that accepted a neighbor warm start
    /// ([`WarmStartPolicy::PathFollow`] only; 0 under ExactReplay).
    pub warm_starts_taken: usize,
    /// Final fits whose neighbor warm start was rejected by the line
    /// search and fell back to the point's own pilot θ₀.
    pub warm_starts_rejected: usize,
}

impl SweepResult {
    /// The grid point minimizing estimated ε̂ (ties: smaller λ index).
    pub fn best_by_epsilon(&self) -> Option<&SweepPoint> {
        self.points.iter().min_by(|a, b| {
            a.outcome
                .estimated_epsilon
                .partial_cmp(&b.outcome.estimated_epsilon)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

// ---------------------------------------------------------------------
// The lockstep evaluation bridge.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotPhase {
    /// No outstanding probe.
    Idle,
    /// The solver posted a probe θ and is blocked on the answer.
    Requested,
    /// The coordinator answered; the solver has not consumed it yet.
    Answered,
    /// The solver finished its solve.
    Done,
}

/// One solver's mailbox: the posted probe, the answered gradient and
/// value, and the handshake phase.
struct EvalSlot {
    theta: Vec<f64>,
    grad: Vec<f64>,
    value: f64,
    phase: SlotPhase,
}

struct BridgeState {
    slots: Vec<EvalSlot>,
    /// Slots in `Requested` phase.
    pending: usize,
    /// Solvers still running.
    live: usize,
}

/// The rendezvous between K unchanged quasi-Newton solvers (one OS
/// thread each) and the fused multi-λ objective kernel: solvers post
/// probes and block; once **every** live solver has posted, the driver
/// answers the whole round with one `value_grad_batched_multi` pass.
///
/// Lockstep never changes a solver's results — each slot's answer
/// sequence depends only on its own probe sequence (the fused kernel is
/// bit-identical per request), so a solver cannot observe how many
/// neighbors share its rounds.
struct EvalBridge {
    state: Mutex<BridgeState>,
    /// Signaled when a probe is posted or a solver finishes.
    work_ready: Condvar,
    /// Signaled when a round of answers is published.
    result_ready: Condvar,
}

impl EvalBridge {
    fn new(k: usize, dim: usize) -> Self {
        EvalBridge {
            state: Mutex::new(BridgeState {
                slots: (0..k)
                    .map(|_| EvalSlot {
                        theta: Vec::with_capacity(dim),
                        grad: vec![0.0; dim],
                        value: 0.0,
                        phase: SlotPhase::Idle,
                    })
                    .collect(),
                pending: 0,
                live: k,
            }),
            work_ready: Condvar::new(),
            result_ready: Condvar::new(),
        }
    }

    /// Solver side: post a probe and block until the driver answers.
    fn eval(&self, slot: usize, theta: &[f64], grad: &mut [f64]) -> f64 {
        let mut st = self.state.lock().expect("bridge poisoned");
        let s = &mut st.slots[slot];
        s.theta.clear();
        s.theta.extend_from_slice(theta);
        s.phase = SlotPhase::Requested;
        st.pending += 1;
        self.work_ready.notify_all();
        while st.slots[slot].phase != SlotPhase::Answered {
            st = self.result_ready.wait(st).expect("bridge poisoned");
        }
        let s = &mut st.slots[slot];
        s.phase = SlotPhase::Idle;
        grad.copy_from_slice(&s.grad);
        s.value
    }

    /// Solver side: report this slot's solve as finished.
    fn finish(&self, slot: usize) {
        let mut st = self.state.lock().expect("bridge poisoned");
        st.slots[slot].phase = SlotPhase::Done;
        st.live -= 1;
        self.work_ready.notify_all();
    }

    /// Driver side: answer rounds until every solver finishes. Each
    /// round waits for all live solvers to post, then evaluates the
    /// whole batch with one fused multi-λ pass.
    fn drive<F: FeatureVec>(
        &self,
        spec: &dyn ModelClassSpec<F>,
        betas: &[f64],
        rows: &[usize],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
    ) {
        let mut st = self.state.lock().expect("bridge poisoned");
        loop {
            while st.live > 0 && st.pending < st.live {
                st = self.work_ready.wait(st).expect("bridge poisoned");
            }
            if st.live == 0 {
                return;
            }
            // All live solvers are blocked on this round, so holding the
            // lock through the evaluation contends with nobody.
            let mut batch: Vec<(usize, Vec<f64>, Vec<f64>)> = st
                .slots
                .iter_mut()
                .enumerate()
                .filter(|(_, s)| s.phase == SlotPhase::Requested)
                .map(|(k, s)| (k, std::mem::take(&mut s.theta), std::mem::take(&mut s.grad)))
                .collect();
            let values: Vec<f64> = {
                let mut evals: Vec<SweepEval> = batch
                    .iter_mut()
                    .map(|(k, theta, grad)| {
                        SweepEval::new(theta, betas[*k], rows[*k], grad.as_mut_slice())
                    })
                    .collect();
                spec.value_grad_batched_multi(&mut evals, xm, scratch);
                evals.iter().map(|e| e.value).collect()
            };
            for ((k, theta, grad), value) in batch.into_iter().zip(values) {
                let s = &mut st.slots[k];
                s.theta = theta;
                s.grad = grad;
                s.value = value;
                s.phase = SlotPhase::Answered;
            }
            st.pending = 0;
            self.result_ready.notify_all();
        }
    }
}

/// One solver's view of the bridge, shaped as a plain [`Objective`] so
/// the quasi-Newton solvers run **unchanged** — every probe they make is
/// transparently batched into the bridge's rounds.
struct BridgeObjective<'b> {
    bridge: &'b EvalBridge,
    slot: usize,
    dim: usize,
}

impl Objective for BridgeObjective<'_> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn value_grad(&self, theta: &[f64]) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; self.dim];
        let value = self.value_grad_into(theta, &mut grad);
        (value, grad)
    }

    fn value_grad_into(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        self.bridge.eval(self.slot, theta, grad)
    }
}

/// Run K quasi-Newton solves in lockstep against one shared design
/// matrix view: solver `k` minimizes the λ = `betas[k]` objective over
/// the view's first `rows[k]` rows, starting from `theta0s[k]`, with
/// its own reusable workspace. Per-solve results are bit-identical to
/// solo [`blinkml_optim::minimize`] runs on the equivalent single-λ
/// objective.
#[allow(clippy::too_many_arguments)]
fn lockstep_fits<F: FeatureVec>(
    spec: &dyn ModelClassSpec<F>,
    betas: &[f64],
    rows: &[usize],
    theta0s: &[Vec<f64>],
    dim: usize,
    xm: &MatrixView,
    options: &OptimOptions,
    workspaces: &mut [MinimizeWorkspace],
    scratch: &mut TrainScratch,
) -> Vec<Result<OptimResult, OptimError>> {
    let k = betas.len();
    debug_assert_eq!(rows.len(), k);
    debug_assert_eq!(theta0s.len(), k);
    debug_assert_eq!(workspaces.len(), k);
    let bridge = EvalBridge::new(k, dim);
    let mut results: Vec<Option<Result<OptimResult, OptimError>>> = (0..k).map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, ((ws, theta0), res)) in workspaces
            .iter_mut()
            .zip(theta0s.iter())
            .zip(results.iter_mut())
            .enumerate()
        {
            let bridge = &bridge;
            s.spawn(move || {
                let objective = BridgeObjective { bridge, slot, dim };
                *res = Some(minimize_with(&objective, theta0, options, ws));
                bridge.finish(slot);
            });
        }
        bridge.drive(spec, betas, rows, xm, scratch);
    });
    results
        .into_iter()
        .map(|r| r.expect("lockstep solver completed"))
        .collect()
}

// ---------------------------------------------------------------------
// The fused sweep workflow.
// ---------------------------------------------------------------------

/// The fused shared-substrate sweep: one pilot capture, lockstep pilot
/// fits, per-λ statistics, one stacked scorer GEMM, per-λ decisions,
/// one nested final capture, and lockstep (or path-following) final
/// fits. `specs[k]` must be the λ = `lambdas[k]` instantiation of one
/// model class with the multi-λ kernel.
#[allow(clippy::too_many_arguments)]
fn run_sweep_fused<F: FeatureVec>(
    config: &BlinkMlConfig,
    specs: &[Box<dyn ModelClassSpec<F>>],
    lambdas: &[f64],
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    pool: &DatasetMatrix<'_>,
    cap_scratch: &mut CaptureScratch,
    seed: u64,
    policy: WarmStartPolicy,
) -> Result<SweepResult, CoreError> {
    let k = specs.len();
    let full_n = train.len();
    let n0 = config.initial_sample_size.min(full_n);
    let dim = specs[0].param_dim(train.dim());
    let mut workspaces: Vec<MinimizeWorkspace> = (0..k).map(|_| MinimizeWorkspace::new()).collect();
    let mut scratch = TrainScratch::new();
    let mut phases = TrainingPhaseTimes::default();

    // Stage 1: the shared pilot — one capture, K lockstep fits from
    // zeros (exactly a solo run's cold start), then per-λ statistics
    // against the same view.
    let t = Instant::now();
    let sample = train.sample_view(n0, split_seed(seed, 0));
    let capture = pool.capture_sample_with(sample.indices(), cap_scratch);
    let view = capture.view();
    let zeros = vec![0.0; dim];
    let theta0s: Vec<Vec<f64>> = (0..k).map(|_| zeros.clone()).collect();
    let pilot_rows = vec![n0; k];
    let fits = lockstep_fits(
        specs[0].as_ref(),
        lambdas,
        &pilot_rows,
        &theta0s,
        dim,
        &view,
        &config.optim,
        &mut workspaces,
        &mut scratch,
    );
    let mut pilots = Vec::with_capacity(k);
    for fit in fits {
        let r = fit?;
        pilots.push(TrainedModel::new(
            r.theta,
            n0,
            r.iterations,
            r.converged,
            r.value,
        ));
    }
    phases.initial_training = t.elapsed();

    let t = Instant::now();
    let stats: Vec<Option<ModelStatistics>> = if n0 < full_n {
        specs
            .iter()
            .zip(&pilots)
            .map(|(spec, m)| {
                compute_statistics_view(
                    config.statistics_method,
                    config.spectral,
                    spec.as_ref(),
                    m.parameters(),
                    &view,
                )
                .map(Some)
            })
            .collect::<Result<_, _>>()?
    } else {
        (0..k).map(|_| None).collect()
    };
    phases.statistics = t.elapsed();
    capture.recycle(cap_scratch);

    let assemble = |pilots: Vec<TrainedModel>,
                    finals: Vec<Option<TrainedModel>>,
                    decisions: Vec<(f64, f64, bool, usize)>,
                    phases: &TrainingPhaseTimes,
                    taken: usize,
                    rejected: usize| {
        let points = lambdas
            .iter()
            .zip(pilots)
            .zip(finals)
            .zip(decisions)
            .map(
                |(((&lambda, pilot), fin), (eps0, eps_hat, used_initial, probes))| {
                    let model = fin.unwrap_or(pilot);
                    SweepPoint {
                        lambda,
                        outcome: TrainingOutcome {
                            sample_size: model.sample_size,
                            full_data_size: full_n,
                            initial_epsilon: eps0,
                            estimated_epsilon: eps_hat,
                            used_initial_model: used_initial,
                            phases: phases.clone(),
                            search_probes: probes,
                            model,
                        },
                    }
                },
            )
            .collect();
        SweepResult {
            points,
            fused: true,
            warm_starts_taken: taken,
            warm_starts_rejected: rejected,
        }
    };

    if n0 == full_n {
        // The "initial sample" is the whole pool: every grid point is
        // its exact model.
        let decisions = vec![(0.0, 0.0, true, 0usize); k];
        let finals = (0..k).map(|_| None).collect();
        return Ok(assemble(pilots, finals, decisions, &phases, 0, 0));
    }

    // Stage 2: one stacked GEMM for all K base score matrices, then the
    // per-λ decision stage (ε₀ estimate + sample-size search).
    let t = Instant::now();
    let entries: Vec<(&dyn ModelClassSpec<F>, &[f64])> = specs
        .iter()
        .zip(&pilots)
        .map(|(s, m)| (s.as_ref(), m.parameters()))
        .collect();
    let scorers = HoldoutScorer::new_many(holdout, &entries);
    let decisions: Vec<Decision> = scorers
        .iter()
        .zip(&stats)
        .map(|(scorer, st)| {
            decide(
                config,
                scorer,
                st.as_ref().expect("statistics computed when n0 < N"),
                n0,
                full_n,
                seed,
            )
        })
        .collect();
    drop(scorers);
    drop(entries);
    phases.sample_size_search = t.elapsed();

    // Stage 3: final models for the grid points whose contract needs
    // one — one nested capture of the largest chosen sample; every
    // point trains over its own prefix of it.
    let needs: Vec<(usize, usize)> = decisions
        .iter()
        .enumerate()
        .filter_map(|(i, d)| match *d {
            Decision::Train { n, .. } => Some((i, n)),
            Decision::InitialSatisfies { .. } => None,
        })
        .collect();
    let mut finals: Vec<Option<TrainedModel>> = (0..k).map(|_| None).collect();
    let mut eps_hat: Vec<f64> = vec![0.0; k];
    let mut taken = 0usize;
    let mut rejected = 0usize;
    if !needs.is_empty() {
        let max_n = needs.iter().map(|&(_, n)| n).max().expect("non-empty");
        let t = Instant::now();
        let fsample = train.sample_view(max_n, split_seed(seed, 3));
        let fcapture = pool.capture_sample_with(fsample.indices(), cap_scratch);
        let fview = fcapture.view();
        match policy {
            WarmStartPolicy::ExactReplay => {
                // Each point's final fit replays a solo run exactly:
                // warm-started from its own pilot θ₀ over its own
                // sample prefix, fused through the lockstep bridge.
                let betas: Vec<f64> = needs.iter().map(|&(i, _)| lambdas[i]).collect();
                let rows: Vec<usize> = needs.iter().map(|&(_, n)| n).collect();
                let starts: Vec<Vec<f64>> = needs
                    .iter()
                    .map(|&(i, _)| pilots[i].parameters().to_vec())
                    .collect();
                let mut sub_ws: Vec<MinimizeWorkspace> = needs
                    .iter()
                    .map(|&(i, _)| std::mem::take(&mut workspaces[i]))
                    .collect();
                let fits = lockstep_fits(
                    specs[0].as_ref(),
                    &betas,
                    &rows,
                    &starts,
                    dim,
                    &fview,
                    &config.optim,
                    &mut sub_ws,
                    &mut scratch,
                );
                for ((&(i, n), fit), ws) in needs.iter().zip(fits).zip(sub_ws) {
                    workspaces[i] = ws;
                    let r = fit?;
                    finals[i] = Some(TrainedModel::new(
                        r.theta,
                        n,
                        r.iterations,
                        r.converged,
                        r.value,
                    ));
                }
            }
            WarmStartPolicy::PathFollow => {
                // Sequential path-following in descending-λ order: the
                // heaviest-regularized (smoothest) point anchors the
                // path from its own pilot θ₀; each neighbor warm-starts
                // from the previous final θ, falling back to its own
                // pilot θ₀ when the line search rejects the warm start.
                let mut order = needs.clone();
                order.sort_by(|&(a, _), &(b, _)| {
                    lambdas[b]
                        .partial_cmp(&lambdas[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut prev: Option<Vec<f64>> = None;
                for &(i, n) in &order {
                    let pv = fview.prefix(n);
                    let neighbor = prev.as_deref();
                    let start = neighbor.unwrap_or(pilots[i].parameters());
                    let attempt = specs[i].train_view(&pv, Some(start), &config.optim);
                    let model = match attempt {
                        Ok(m) => {
                            if neighbor.is_some() {
                                taken += 1;
                            }
                            m
                        }
                        Err(CoreError::Optimization(
                            OptimError::LineSearchFailed { .. } | OptimError::NonFiniteObjective,
                        )) if neighbor.is_some() => {
                            rejected += 1;
                            specs[i].train_view(&pv, Some(pilots[i].parameters()), &config.optim)?
                        }
                        Err(e) => return Err(e),
                    };
                    prev = Some(model.parameters().to_vec());
                    finals[i] = Some(model);
                }
            }
        }
        phases.final_training = t.elapsed();

        // Closing per-λ accuracy estimates (when requested), against
        // each point's prefix view of the shared final capture.
        let t = Instant::now();
        for &(i, n) in &needs {
            eps_hat[i] = if config.estimate_final_accuracy && n < full_n {
                let pv = fview.prefix(n);
                let model = finals[i].as_ref().expect("final model trained");
                let stats_n = compute_statistics_view(
                    config.statistics_method,
                    config.spectral,
                    specs[i].as_ref(),
                    model.parameters(),
                    &pv,
                )?;
                final_accuracy_scored(
                    config,
                    specs[i].as_ref(),
                    holdout,
                    &stats_n,
                    model.parameters(),
                    n,
                    full_n,
                    seed,
                )
            } else if n >= full_n {
                0.0
            } else {
                config.epsilon
            };
        }
        phases.statistics += t.elapsed();
        fcapture.recycle(cap_scratch);
    }

    let summaries: Vec<(f64, f64, bool, usize)> = decisions
        .iter()
        .enumerate()
        .map(|(i, d)| match *d {
            Decision::InitialSatisfies { eps0 } => (eps0, eps0, true, 0),
            Decision::Train { eps0, probes, .. } => (eps0, eps_hat[i], false, probes),
        })
        .collect();
    Ok(assemble(
        pilots, finals, summaries, &phases, taken, rejected,
    ))
}

/// Full sweep dispatch shared by [`Session::sweep`](crate::Session) and
/// the serving layer: validate the plan, instantiate one spec per λ,
/// and route to the fused engine (model classes with the multi-λ
/// kernel) or the per-point fallback loop. `config` must already carry the plan's
/// `(ε, δ)` contract.
pub(crate) fn run_sweep<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    config: &BlinkMlConfig,
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    pool: &DatasetMatrix<'_>,
    cap_scratch: &mut CaptureScratch,
    plan: &SweepPlan,
) -> Result<SweepResult, CoreError> {
    plan.validate()?;
    let specs: Vec<Box<dyn ModelClassSpec<F>>> = plan
        .lambdas
        .iter()
        .map(|&l| {
            spec.with_regularization(l).ok_or_else(|| {
                CoreError::InvalidConfig(format!(
                    "model class '{}' has no swappable L2 coefficient to sweep",
                    spec.name()
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    if specs.iter().all(|s| s.multi_lambda_batched()) {
        run_sweep_fused(
            config,
            &specs,
            &plan.lambdas,
            train,
            holdout,
            pool,
            cap_scratch,
            plan.seed,
            plan.warm_start,
        )
    } else {
        run_sweep_looped(
            config,
            &specs,
            &plan.lambdas,
            train,
            holdout,
            pool,
            cap_scratch,
            plan.seed,
        )
    }
}

/// The per-point fallback loop behind [`Session::sweep`](crate::Session)
/// for model classes the fused engine cannot serve (no multi-λ
/// kernel): independent
/// coordinator runs per grid point — trivially identical to the looped
/// baseline, with no fusion and no warm-start bookkeeping.
#[allow(clippy::too_many_arguments)]
fn run_sweep_looped<F: FeatureVec>(
    config: &BlinkMlConfig,
    specs: &[Box<dyn ModelClassSpec<F>>],
    lambdas: &[f64],
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    pool: &DatasetMatrix<'_>,
    cap_scratch: &mut CaptureScratch,
    seed: u64,
) -> Result<SweepResult, CoreError> {
    let mut points = Vec::with_capacity(specs.len());
    for (spec, &lambda) in specs.iter().zip(lambdas) {
        let (outcome, _) = run_train(
            config,
            spec.as_ref(),
            train,
            holdout,
            pool,
            cap_scratch,
            seed,
            None,
            false,
        )?;
        points.push(SweepPoint { lambda, outcome });
    }
    Ok(SweepResult {
        points,
        fused: false,
        warm_starts_taken: 0,
        warm_starts_rejected: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::linreg::LinearRegressionSpec;
    use crate::models::logreg::LogisticRegressionSpec;
    use crate::models::ppca::PpcaSpec;
    use crate::session::Session;
    use blinkml_data::generators::{low_rank_gaussian, synthetic_linear, synthetic_logistic};

    fn config(n0: usize) -> BlinkMlConfig {
        BlinkMlConfig {
            epsilon: 0.05,
            delta: 0.05,
            initial_sample_size: n0,
            holdout_size: 600,
            num_param_samples: 32,
            ..BlinkMlConfig::default()
        }
    }

    fn assert_point_bitwise(p: &SweepPoint, solo: &TrainingOutcome, tag: &str) {
        assert_eq!(p.outcome.sample_size, solo.sample_size, "{tag}: n");
        assert_eq!(
            p.outcome.initial_epsilon.to_bits(),
            solo.initial_epsilon.to_bits(),
            "{tag}: ε₀"
        );
        assert_eq!(
            p.outcome.estimated_epsilon.to_bits(),
            solo.estimated_epsilon.to_bits(),
            "{tag}: ε̂"
        );
        assert_eq!(
            p.outcome.used_initial_model, solo.used_initial_model,
            "{tag}: path"
        );
        assert_eq!(p.outcome.search_probes, solo.search_probes, "{tag}: probes");
        assert_eq!(
            p.outcome.model.parameters().len(),
            solo.model.parameters().len()
        );
        for (a, b) in p
            .outcome
            .model
            .parameters()
            .iter()
            .zip(solo.model.parameters())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{tag}: θ");
        }
        assert_eq!(p.outcome.model.iterations, solo.model.iterations, "{tag}");
        assert_eq!(p.outcome.model.converged, solo.model.converged, "{tag}");
    }

    /// The fused sweep must be bit-identical, per grid point, to looped
    /// independent Session runs on per-λ specs — a tight contract so
    /// final models actually train.
    #[test]
    fn fused_sweep_matches_looped_sessions_bitwise() {
        let (data, _) = synthetic_logistic(12_000, 5, 2.0, 31);
        let split = data.split(800, 0, 32);
        let spec = LogisticRegressionSpec::new(1e-3);
        let session = Session::new(config(400), &spec, &split.train, &split.holdout).unwrap();
        let lambdas = [1.0, 1e-2, 0.0, 1e-4];
        let sweep = session.sweep(&lambdas, 0.02, 0.05, 9).unwrap();
        assert!(sweep.fused);
        assert_eq!(sweep.points.len(), lambdas.len());
        assert_eq!(sweep.warm_starts_taken, 0);
        assert_eq!(sweep.warm_starts_rejected, 0);
        for (point, &lambda) in sweep.points.iter().zip(&lambdas) {
            assert_eq!(point.lambda, lambda);
            let solo_spec = LogisticRegressionSpec::new(lambda);
            let solo_session =
                Session::new(config(400), &solo_spec, &split.train, &split.holdout).unwrap();
            let solo = solo_session.train(0.02, 0.05, 9).unwrap();
            assert_point_bitwise(point, &solo, &format!("λ={lambda}"));
        }
    }

    /// Grid order cannot matter: the same λ set in a different order
    /// returns the same per-λ results.
    #[test]
    fn sweep_results_are_order_independent() {
        let (data, _) = synthetic_linear(8_000, 4, 0.4, 33);
        let split = data.split(700, 0, 34);
        let spec = LinearRegressionSpec::new(1e-3);
        let session = Session::new(config(350), &spec, &split.train, &split.holdout).unwrap();
        let asc = session.sweep(&[1e-4, 1e-2, 1.0], 0.03, 0.05, 4).unwrap();
        let desc = session.sweep(&[1.0, 1e-2, 1e-4], 0.03, 0.05, 4).unwrap();
        assert!(asc.fused && desc.fused);
        for a in &asc.points {
            let d = desc
                .points
                .iter()
                .find(|p| p.lambda == a.lambda)
                .expect("same grid");
            for (x, y) in a
                .outcome
                .model
                .parameters()
                .iter()
                .zip(d.outcome.model.parameters())
            {
                assert_eq!(x.to_bits(), y.to_bits(), "λ={}", a.lambda);
            }
            assert_eq!(a.outcome.sample_size, d.outcome.sample_size);
        }
    }

    /// A model class without the multi-λ kernel takes the fallback loop
    /// and still matches independent runs (trivially — it is the looped
    /// baseline).
    #[test]
    fn spec_without_multi_lambda_kernel_falls_back_to_looped_sweep() {
        /// Logistic regression with the fused multi-λ kernel hidden.
        struct SoloLambda(LogisticRegressionSpec);
        type Inner = dyn ModelClassSpec<blinkml_data::DenseVec>;
        impl ModelClassSpec<blinkml_data::DenseVec> for SoloLambda {
            fn name(&self) -> &'static str {
                Inner::name(&self.0)
            }
            fn param_dim(&self, data_dim: usize) -> usize {
                Inner::param_dim(&self.0, data_dim)
            }
            fn regularization(&self) -> f64 {
                Inner::regularization(&self.0)
            }
            fn value_grad(
                &self,
                theta: &[f64],
                xm: &MatrixView,
                scratch: &mut TrainScratch,
                grad: &mut [f64],
            ) -> f64 {
                Inner::value_grad(&self.0, theta, xm, scratch, grad)
            }
            fn with_regularization(
                &self,
                beta: f64,
            ) -> Option<Box<dyn ModelClassSpec<blinkml_data::DenseVec>>> {
                Some(Box::new(SoloLambda(LogisticRegressionSpec::new(beta))))
            }
            fn grads(&self, theta: &[f64], xm: &MatrixView) -> crate::grads::Grads {
                Inner::grads(&self.0, theta, xm)
            }
            fn predict(&self, theta: &[f64], x: &blinkml_data::DenseVec) -> f64 {
                self.0.predict(theta, x)
            }
            fn diff(&self, a: &[f64], b: &[f64], holdout: &Dataset<blinkml_data::DenseVec>) -> f64 {
                self.0.diff(a, b, holdout)
            }
            fn generalization_error(
                &self,
                theta: &[f64],
                data: &Dataset<blinkml_data::DenseVec>,
            ) -> f64 {
                self.0.generalization_error(theta, data)
            }
            fn num_margin_outputs(&self, data_dim: usize) -> Option<usize> {
                Inner::num_margin_outputs(&self.0, data_dim)
            }
            fn margins(&self, theta: &[f64], x: &blinkml_data::DenseVec, out: &mut [f64]) {
                self.0.margins(theta, x, out)
            }
            fn margin_weights(
                &self,
                theta: &[f64],
                data_dim: usize,
            ) -> Option<blinkml_linalg::Matrix> {
                Inner::margin_weights(&self.0, theta, data_dim)
            }
            fn predict_from_margins(&self, scores: &[f64]) -> f64 {
                Inner::predict_from_margins(&self.0, scores)
            }
        }
        let (data, _) = synthetic_logistic(5_000, 3, 2.0, 35);
        let split = data.split(500, 0, 36);
        let spec = SoloLambda(LogisticRegressionSpec::new(1e-3));
        let session = Session::new(config(300), &spec, &split.train, &split.holdout).unwrap();
        let sweep = session.sweep(&[1e-2, 0.1], 0.04, 0.05, 5).unwrap();
        assert!(!sweep.fused);
        assert_eq!(sweep.points.len(), 2);
        let fused = Session::new(
            config(300),
            &LogisticRegressionSpec::new(1e-3),
            &split.train,
            &split.holdout,
        )
        .unwrap()
        .sweep(&[1e-2, 0.1], 0.04, 0.05, 5)
        .unwrap();
        assert!(fused.fused);
        for (a, b) in sweep.points.iter().zip(&fused.points) {
            assert_point_bitwise(a, &b.outcome, &format!("λ={}", a.lambda));
        }
    }

    /// Path-following warm starts: runs, counts its warm starts, and
    /// still satisfies per-point plumbing (sizes, ε fields).
    #[test]
    fn path_follow_counts_warm_starts() {
        let (data, _) = synthetic_logistic(12_000, 5, 2.0, 37);
        let split = data.split(800, 0, 38);
        let spec = LogisticRegressionSpec::new(1e-3);
        let session = Session::new(config(400), &spec, &split.train, &split.holdout).unwrap();
        let plan = SweepPlan::new(vec![1.0, 1e-2, 1e-4], 0.02, 0.05, 9)
            .with_warm_start(WarmStartPolicy::PathFollow);
        let sweep = session.sweep_plan(&plan).unwrap();
        assert!(sweep.fused);
        let trained: usize = sweep
            .points
            .iter()
            .filter(|p| !p.outcome.used_initial_model)
            .count();
        if trained > 1 {
            assert_eq!(
                sweep.warm_starts_taken + sweep.warm_starts_rejected,
                trained - 1
            );
        }
        for p in &sweep.points {
            assert!(p.outcome.sample_size <= split.train.len());
            assert!(p.outcome.estimated_epsilon.is_finite());
            assert!(p.outcome.estimated_epsilon >= 0.0);
        }
    }

    /// Model classes without a swappable L2 coefficient are rejected.
    #[test]
    fn non_sweepable_spec_is_rejected() {
        let data = low_rank_gaussian(600, 4, 2, 0.2, 39);
        let holdout = low_rank_gaussian(100, 4, 2, 0.2, 40);
        let spec = PpcaSpec::new(2);
        let session = Session::new(config(200), &spec, &data, &holdout).unwrap();
        assert!(matches!(
            session.sweep(&[0.1], 0.05, 0.05, 1),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    /// Degenerate grids are rejected before any work happens.
    #[test]
    fn degenerate_grids_are_rejected() {
        let (data, _) = synthetic_logistic(2_000, 3, 2.0, 41);
        let split = data.split(300, 0, 42);
        let spec = LogisticRegressionSpec::new(1e-3);
        let session = Session::new(config(200), &spec, &split.train, &split.holdout).unwrap();
        assert!(session.sweep(&[], 0.05, 0.05, 1).is_err());
        assert!(session.sweep(&[-1.0], 0.05, 0.05, 1).is_err());
        assert!(session.sweep(&[f64::NAN], 0.05, 0.05, 1).is_err());
        assert!(session.sweep(&[0.1], 0.0, 0.05, 1).is_err());
    }
}

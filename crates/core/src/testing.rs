//! Per-example reference oracles, sequential reference wrappers and the
//! deterministic fault-injection harness shared by the workspace's tests
//! and benchmarks. Not part of the public API (`#[doc(hidden)]` at the
//! re-export site); semver-exempt.

use crate::error::CoreError;
use crate::grads::Grads;
use crate::mcs::{DrawScores, ModelClassSpec, SweepEval, TrainedModel};
use crate::serve::resilience::{relax_active_deadline, trip_active_deadline};
use blinkml_data::{Dataset, DatasetMatrix, FeatureVec, LabelDomain, MatrixView, TrainScratch};
use blinkml_linalg::Matrix;
use blinkml_optim::{minimize, Objective, OptimOptions};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The per-example scalar reference bodies of the built-in model
/// classes: each walks a materialized [`Dataset`] example by example.
/// [`ModelClassSpec`]'s view methods must reproduce them **bit for
/// bit** — `value_grad` against [`Self::scalar_objective`], `grads`
/// against [`Self::scalar_grads`] — on the sample any view selects
/// (the exactness contract in `docs/ARCHITECTURE.md`). The names differ
/// from the trait's so both can be in scope at once.
pub trait ScalarOracle<F: FeatureVec> {
    /// Averaged objective `f_n(θ)` and its gradient on `data`.
    fn scalar_objective(&self, theta: &[f64], data: &Dataset<F>) -> (f64, Vec<f64>);

    /// The per-example gradient list on `data`.
    fn scalar_grads(&self, theta: &[f64], data: &Dataset<F>) -> Grads;

    /// Analytic Hessian on `data`, for classes with a closed form.
    fn scalar_closed_form_hessian(&self, _theta: &[f64], _data: &Dataset<F>) -> Option<Matrix> {
        None
    }
}

/// `(f_n(θ), ∇f_n(θ))` through [`ModelClassSpec::value_grad`] on the
/// full view of `data` — the production objective as a function of a
/// materialized dataset.
pub fn view_objective<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    spec: &S,
    theta: &[f64],
    data: &Dataset<F>,
) -> (f64, Vec<f64>) {
    let xm = DatasetMatrix::from_dataset(data);
    let mut grad = vec![0.0; theta.len()];
    let value = spec.value_grad(theta, &xm.view(), &mut TrainScratch::new(), &mut grad);
    (value, grad)
}

/// [`ModelClassSpec::grads`] on the full view of `data`.
pub fn view_grads<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    spec: &S,
    theta: &[f64],
    data: &Dataset<F>,
) -> Grads {
    spec.grads(theta, &DatasetMatrix::from_dataset(data).view())
}

/// The scalar training oracle: minimizes a spec's
/// [`ScalarOracle::scalar_objective`] on a materialized [`Dataset`]
/// with the same solver, start point and bookkeeping as
/// [`ModelClassSpec::train`] — the pre-batching training behaviour.
/// Used as the scalar reference by the training tests and by the
/// batched-vs-scalar gate of the bench crate's `gates` binary.
///
/// Only meaningful for **iteratively trained** model classes (the
/// GLMs, linear regression, max-entropy): PPCA trains in closed form,
/// and minimizing its objective from the zero start point panics.
pub struct ScalarTrain<S>(pub S);

impl<S> ScalarTrain<S> {
    /// Train on `data`, optionally warm-starting from `warm_start`.
    pub fn train<F: FeatureVec>(
        &self,
        data: &Dataset<F>,
        warm_start: Option<&[f64]>,
        options: &OptimOptions,
    ) -> Result<TrainedModel, CoreError>
    where
        S: ModelClassSpec<F> + ScalarOracle<F>,
    {
        if data.is_empty() {
            return Err(CoreError::InvalidData(
                "cannot train on an empty dataset".into(),
            ));
        }
        let dim = self.0.param_dim(data.dim());
        let theta0: Vec<f64> = match warm_start {
            Some(w) => {
                if w.len() != dim {
                    return Err(CoreError::InvalidConfig(format!(
                        "warm start has dim {}, model needs {dim}",
                        w.len()
                    )));
                }
                w.to_vec()
            }
            None => self.0.cold_start(&DatasetMatrix::from_dataset(data).view()),
        };
        let adapter = OracleObjective {
            spec: &self.0,
            data,
        };
        let result = minimize(&adapter, &theta0, options)?;
        Ok(TrainedModel::new(
            result.theta,
            data.len(),
            result.iterations,
            result.converged,
            result.value,
        ))
    }
}

/// Adapter exposing the scalar oracle objective to the optimizer.
struct OracleObjective<'a, F: FeatureVec, S> {
    spec: &'a S,
    data: &'a Dataset<F>,
}

impl<F: FeatureVec, S: ModelClassSpec<F> + ScalarOracle<F>> Objective
    for OracleObjective<'_, F, S>
{
    fn dim(&self) -> usize {
        self.spec.param_dim(self.data.dim())
    }

    fn value_grad_into(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        let (value, g) = self.spec.scalar_objective(theta, self.data);
        grad.copy_from_slice(&g);
        value
    }
}

/// Forwards every [`ModelClassSpec`] method except
/// [`ModelClassSpec::margin_diff_sum`], which stays at the trait's
/// default per-row loop: two [`ModelClassSpec::predict_from_margins`]
/// calls per holdout row and no early exit. That loop is the oracle the
/// built-in blocked kernels, with their early exits, are pinned against
/// (the `diff_engine` unit tests, `tests/search_oracle.rs`).
pub struct PerRowLoop<S>(pub S);

impl<F: FeatureVec, S: ModelClassSpec<F>> ModelClassSpec<F> for PerRowLoop<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn param_dim(&self, data_dim: usize) -> usize {
        self.0.param_dim(data_dim)
    }
    fn regularization(&self) -> f64 {
        self.0.regularization()
    }
    fn cold_start(&self, xm: &MatrixView) -> Vec<f64> {
        self.0.cold_start(xm)
    }
    fn label_domain(&self) -> LabelDomain {
        self.0.label_domain()
    }
    fn value_grad(
        &self,
        theta: &[f64],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
        grad: &mut [f64],
    ) -> f64 {
        self.0.value_grad(theta, xm, scratch, grad)
    }
    fn grads(&self, theta: &[f64], xm: &MatrixView) -> Grads {
        self.0.grads(theta, xm)
    }
    fn closed_form_hessian(&self, theta: &[f64], xm: &MatrixView) -> Option<Matrix> {
        self.0.closed_form_hessian(theta, xm)
    }
    fn predict(&self, theta: &[f64], x: &F) -> f64 {
        self.0.predict(theta, x)
    }
    fn diff(&self, theta_a: &[f64], theta_b: &[f64], holdout: &Dataset<F>) -> f64 {
        self.0.diff(theta_a, theta_b, holdout)
    }
    fn generalization_error(&self, theta: &[f64], data: &Dataset<F>) -> f64 {
        self.0.generalization_error(theta, data)
    }
    fn margin_weights(&self, theta: &[f64], data_dim: usize) -> Option<Matrix> {
        self.0.margin_weights(theta, data_dim)
    }
    fn predict_from_margins(&self, scores: &[f64]) -> f64 {
        self.0.predict_from_margins(scores)
    }
    fn diff_is_rms(&self) -> bool {
        self.0.diff_is_rms()
    }
    fn train_view(
        &self,
        xm: &MatrixView,
        warm_start: Option<&[f64]>,
        options: &OptimOptions,
    ) -> Result<TrainedModel, CoreError> {
        self.0.train_view(xm, warm_start, options)
    }
}

/// Forwards every [`ModelClassSpec`] method to the inner spec, calling
/// `hook` at the top of each [`ModelClassSpec::train_view`] with the
/// sample length about to be trained on ([`ModelClassSpec::train`]
/// reaches it too). The hook perturbs *scheduling* only (sleeps,
/// panics, deadline trips) — never math — so served results must still
/// match the plain oracle bitwise. Shared by the serving concurrency
/// harness (`tests/serving.rs`) and the resilience harness
/// (`tests/resilience.rs`).
pub struct HookedSpec<S, H> {
    /// The spec every method delegates to.
    pub inner: S,
    /// Called with the sample length at each training entry.
    pub hook: H,
}

impl<S, H: Fn(usize)> HookedSpec<S, H> {
    /// Wrap `inner`, calling `hook(sample_len)` at each training entry.
    pub fn new(inner: S, hook: H) -> Self {
        HookedSpec { inner, hook }
    }
}

impl<F, S, H> ModelClassSpec<F> for HookedSpec<S, H>
where
    F: FeatureVec,
    S: ModelClassSpec<F>,
    H: Fn(usize) + Send + Sync,
{
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn param_dim(&self, data_dim: usize) -> usize {
        self.inner.param_dim(data_dim)
    }
    fn regularization(&self) -> f64 {
        self.inner.regularization()
    }
    fn cold_start(&self, xm: &MatrixView) -> Vec<f64> {
        self.inner.cold_start(xm)
    }
    fn label_domain(&self) -> LabelDomain {
        self.inner.label_domain()
    }
    fn value_grad(
        &self,
        theta: &[f64],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
        grad: &mut [f64],
    ) -> f64 {
        self.inner.value_grad(theta, xm, scratch, grad)
    }
    fn grads(&self, theta: &[f64], xm: &MatrixView) -> Grads {
        self.inner.grads(theta, xm)
    }
    fn closed_form_hessian(&self, theta: &[f64], xm: &MatrixView) -> Option<Matrix> {
        self.inner.closed_form_hessian(theta, xm)
    }
    fn predict(&self, theta: &[f64], x: &F) -> f64 {
        self.inner.predict(theta, x)
    }
    fn diff(&self, theta_a: &[f64], theta_b: &[f64], holdout: &Dataset<F>) -> f64 {
        self.inner.diff(theta_a, theta_b, holdout)
    }
    fn generalization_error(&self, theta: &[f64], data: &Dataset<F>) -> f64 {
        self.inner.generalization_error(theta, data)
    }
    fn margin_weights(&self, theta: &[f64], data_dim: usize) -> Option<Matrix> {
        self.inner.margin_weights(theta, data_dim)
    }
    fn predict_from_margins(&self, scores: &[f64]) -> f64 {
        self.inner.predict_from_margins(scores)
    }
    fn diff_is_rms(&self) -> bool {
        self.inner.diff_is_rms()
    }
    fn margin_diff_sum(&self, scores: DrawScores<'_>, stop: f64) -> f64 {
        self.inner.margin_diff_sum(scores, stop)
    }
    fn train_view(
        &self,
        xm: &MatrixView,
        warm_start: Option<&[f64]>,
        options: &OptimOptions,
    ) -> Result<TrainedModel, CoreError> {
        (self.hook)(xm.len());
        self.inner.train_view(xm, warm_start, options)
    }
}

/// Forwards every [`ModelClassSpec`] method to the inner spec, except
/// that its multi-λ kernel ([`ModelClassSpec::value_grad_batched_multi`],
/// the objective call of every sweep round) panics — the fault behind
/// the sweep engine's no-hang contract. Its per-λ instantiations
/// ([`ModelClassSpec::with_regularization`]) panic the same way; every
/// other path (plain queries, training) is the inner spec's.
pub struct MultiLambdaPanicSpec<F: FeatureVec>(pub Box<dyn ModelClassSpec<F>>);

impl<F: FeatureVec> ModelClassSpec<F> for MultiLambdaPanicSpec<F> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn param_dim(&self, data_dim: usize) -> usize {
        self.0.param_dim(data_dim)
    }
    fn regularization(&self) -> f64 {
        self.0.regularization()
    }
    fn cold_start(&self, xm: &MatrixView) -> Vec<f64> {
        self.0.cold_start(xm)
    }
    fn label_domain(&self) -> LabelDomain {
        self.0.label_domain()
    }
    fn value_grad(
        &self,
        theta: &[f64],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
        grad: &mut [f64],
    ) -> f64 {
        self.0.value_grad(theta, xm, scratch, grad)
    }
    fn value_grad_batched_multi(
        &self,
        _evals: &mut [SweepEval],
        _xm: &MatrixView,
        _scratch: &mut TrainScratch,
    ) {
        panic!("injected fault: fused multi-λ kernel panic");
    }
    fn with_regularization(&self, beta: f64) -> Option<Box<dyn ModelClassSpec<F>>> {
        let inner = self.0.with_regularization(beta)?;
        Some(Box::new(MultiLambdaPanicSpec(inner)))
    }
    fn grads(&self, theta: &[f64], xm: &MatrixView) -> Grads {
        self.0.grads(theta, xm)
    }
    fn closed_form_hessian(&self, theta: &[f64], xm: &MatrixView) -> Option<Matrix> {
        self.0.closed_form_hessian(theta, xm)
    }
    fn predict(&self, theta: &[f64], x: &F) -> f64 {
        self.0.predict(theta, x)
    }
    fn diff(&self, theta_a: &[f64], theta_b: &[f64], holdout: &Dataset<F>) -> f64 {
        self.0.diff(theta_a, theta_b, holdout)
    }
    fn generalization_error(&self, theta: &[f64], data: &Dataset<F>) -> f64 {
        self.0.generalization_error(theta, data)
    }
    fn margin_weights(&self, theta: &[f64], data_dim: usize) -> Option<Matrix> {
        self.0.margin_weights(theta, data_dim)
    }
    fn predict_from_margins(&self, scores: &[f64]) -> f64 {
        self.0.predict_from_margins(scores)
    }
    fn diff_is_rms(&self) -> bool {
        self.0.diff_is_rms()
    }
    fn margin_diff_sum(&self, scores: DrawScores<'_>, stop: f64) -> f64 {
        self.0.margin_diff_sum(scores, stop)
    }
}

/// Which training entry a scripted fault fires at. Sites are classified
/// by the sample length the coordinator passes to training: the pilot
/// always trains on exactly `n₀` rows, every other fit (relaxed or
/// full final) on more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A pilot-sized training call (`sample_len == n₀`).
    PilotTrain,
    /// Any larger training call (the final model, relaxed or full).
    FinalTrain,
    /// Ingest fault site: fires at a pilot-sized training entry — the
    /// first point after a streaming worker has pinned its epoch
    /// snapshot and captured the pilot sample — so a scripted
    /// [`at_call`](FaultPlan::at_call) closure can append rows mid-query
    /// and prove the response still describes the pinned snapshot.
    AppendDuringCapture,
    /// Ingest fault site: fires at a pilot-sized training entry so a
    /// scripted closure can bump the stream's epoch (append + eager
    /// retirement) while the pilot leader is still training — the
    /// mid-coalesce window where a completed pilot must reach its
    /// waiters without being cached below the epoch floor.
    EpochBumpDuringPilotTrain,
}

impl FaultSite {
    /// Whether a scripted entry at `self` fires when a training entry
    /// classifies to `base` (the ingest sites alias the pilot entry).
    fn triggers_on(self, base: FaultSite) -> bool {
        self == base
            || (base == FaultSite::PilotTrain
                && matches!(
                    self,
                    FaultSite::AppendDuringCapture | FaultSite::EpochBumpDuringPilotTrain
                ))
    }
}

/// A scripted fault action, performed at a training entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep for the given number of milliseconds (widens race windows
    /// deterministically).
    SleepMs(u64),
    /// Panic (the serving layer must contain it to
    /// [`WorkerPanicked`](crate::serve::ServeError::WorkerPanicked)).
    Panic,
    /// Trip the processing worker's deadline token to **expired** via
    /// the thread-local active-token slot — a deterministic stand-in
    /// for a wall-clock deadline race.
    TripDeadline,
    /// Trip the token to **relax** pressure (the
    /// [`RelaxedFinal`](crate::serve::resilience::DegradationRung::RelaxedFinal)
    /// trigger) without expiring it.
    RelaxDeadline,
}

/// A scripted side-effect entry: `(site, occurrence, closure)`.
type ScriptedCall = (FaultSite, usize, Box<dyn Fn() + Send + Sync>);

/// A deterministic fault schedule for a [`HookedSpec`] hook: each entry
/// fires at the `occurrence`-th training entry of its [`FaultSite`]
/// (counted per site, across all queries the spec serves). Because the
/// trigger is a per-site occurrence counter — not wall-clock time — a
/// plan replays identically on every run.
pub struct FaultPlan {
    n0: usize,
    scripted: Vec<(FaultSite, usize, FaultAction)>,
    calls: Vec<ScriptedCall>,
    pilot_seen: AtomicUsize,
    final_seen: AtomicUsize,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("n0", &self.n0)
            .field("scripted", &self.scripted)
            .field("calls", &self.calls.len())
            .field("pilot_seen", &self.pilot_seen)
            .field("final_seen", &self.final_seen)
            .finish()
    }
}

impl FaultPlan {
    /// Empty plan for a workflow whose pilot trains on `n0` rows.
    pub fn new(n0: usize) -> Self {
        FaultPlan {
            n0,
            scripted: Vec::new(),
            calls: Vec::new(),
            pilot_seen: AtomicUsize::new(0),
            final_seen: AtomicUsize::new(0),
        }
    }

    /// Script `action` at the `occurrence`-th (0-based) entry of `site`.
    pub fn at(mut self, site: FaultSite, occurrence: usize, action: FaultAction) -> Self {
        self.scripted.push((site, occurrence, action));
        self
    }

    /// Script an arbitrary closure at the `occurrence`-th (0-based)
    /// entry of `site` — the ingest fault sites use this to append rows
    /// or bump epochs from inside a training entry. Closures fire after
    /// every [`FaultAction`] scripted at the same entry.
    pub fn at_call(
        mut self,
        site: FaultSite,
        occurrence: usize,
        call: impl Fn() + Send + Sync + 'static,
    ) -> Self {
        self.calls.push((site, occurrence, Box::new(call)));
        self
    }

    /// The hook body: classify the site, bump its occurrence counter,
    /// and perform every scripted action for that occurrence. Pass as
    /// `HookedSpec::new(spec, move |len| plan.on_train(len))`.
    pub fn on_train(&self, sample_len: usize) {
        let site = if sample_len == self.n0 {
            FaultSite::PilotTrain
        } else {
            FaultSite::FinalTrain
        };
        let counter = match site {
            FaultSite::PilotTrain => &self.pilot_seen,
            FaultSite::FinalTrain => &self.final_seen,
            // Ingest sites are aliases of PilotTrain, never a base.
            _ => unreachable!(),
        };
        let occurrence = counter.fetch_add(1, Ordering::SeqCst);
        for &(s, occ, action) in &self.scripted {
            if !s.triggers_on(site) || occ != occurrence {
                continue;
            }
            match action {
                FaultAction::SleepMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
                FaultAction::Panic => {
                    panic!("injected fault: scripted panic at {site:?} occurrence {occurrence}")
                }
                FaultAction::TripDeadline => {
                    trip_active_deadline();
                }
                FaultAction::RelaxDeadline => {
                    relax_active_deadline();
                }
            }
        }
        for (s, occ, call) in &self.calls {
            if s.triggers_on(site) && *occ == occurrence {
                call();
            }
        }
    }

    /// How many training entries each site has seen so far.
    pub fn seen(&self) -> (usize, usize) {
        (
            self.pilot_seen.load(Ordering::SeqCst),
            self.final_seen.load(Ordering::SeqCst),
        )
    }
}

/// A scripted durability fault, applied to a (copy of a) durable pool
/// directory to simulate what a crash can leave on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFault {
    /// Truncate `wal.log` to this many bytes — a torn final write or a
    /// lost unsynced suffix. Recovery must silently truncate back to
    /// the last committed group boundary at or before this point.
    TruncateLogAt(u64),
    /// XOR one byte of `wal.log` at this offset with `0x40` — mid-log
    /// damage inside a complete record. Recovery must refuse the log
    /// with a typed `CorruptLog` error, never resynchronize past it.
    FlipLogByte(u64),
    /// Truncate `snapshot.bin` to this many bytes — a torn snapshot
    /// (impossible under the atomic temp + rename protocol, kept in
    /// the vocabulary to pin that recovery *rejects* rather than
    /// misreads one).
    TruncateSnapshotAt(u64),
}

/// Apply one scripted [`WalFault`] to the durable pool directory `dir`.
pub fn apply_wal_fault(dir: &Path, fault: WalFault) -> std::io::Result<()> {
    use std::fs;
    match fault {
        WalFault::TruncateLogAt(len) => {
            let f = fs::OpenOptions::new()
                .write(true)
                .open(blinkml_data::wal::log_path(dir))?;
            f.set_len(len)
        }
        WalFault::FlipLogByte(offset) => {
            let path = blinkml_data::wal::log_path(dir);
            let mut bytes = fs::read(&path)?;
            let byte = bytes.get_mut(offset as usize).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("flip offset {offset} beyond log length"),
                )
            })?;
            *byte ^= 0x40;
            fs::write(&path, &bytes)
        }
        WalFault::TruncateSnapshotAt(len) => {
            let f = fs::OpenOptions::new()
                .write(true)
                .open(blinkml_data::wal::snapshot_path(dir))?;
            f.set_len(len)
        }
    }
}

/// Freeze a crash image: copy the durable pool files (`snapshot.bin`,
/// `wal.log`) from `src` into `dst` (created if absent) and apply each
/// scripted fault to the **copy**. The live pool at `src` is never
/// touched, so a test can keep appending to it while the frozen image
/// plays the role of the machine that died.
pub fn crash_image(src: &Path, dst: &Path, faults: &[WalFault]) -> std::io::Result<()> {
    use std::fs;
    fs::create_dir_all(dst)?;
    for path_of in [
        blinkml_data::wal::snapshot_path,
        blinkml_data::wal::log_path,
    ] {
        let from = path_of(src);
        if from.exists() {
            fs::copy(&from, path_of(dst))?;
        }
    }
    for &fault in faults {
        apply_wal_fault(dst, fault)?;
    }
    Ok(())
}

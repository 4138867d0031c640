//! Multi-tenant serving layer: a request queue + worker pool over the
//! coordinator workflow.
//!
//! [`Session`](crate::Session) amortizes repeated `train(ε, δ, seed)`
//! queries for **one** caller; this module promotes that amortization to
//! a concurrent service (the ROADMAP's "millions of users" path — cheap
//! approximate training is only a serving story if many tenants can
//! share it). A [`Server`] owns a set of datasets and a pool of worker
//! threads. Every dataset is a [`StreamingPool`]: a static
//! [`DatasetShard`] is registered as a pool frozen at epoch 0 that
//! adopts the shard's rows without copying them, so every query takes
//! the same path whichever kind registered its dataset.
//!
//! * **pilot artifacts** (`m₀` + Fisher statistics) are cached in a
//!   keyed LRU by `(dataset_version, n₀, seed)` with a configurable
//!   capacity ([`ServeConfig::pilot_cache_capacity`]),
//! * concurrent queries that miss on the same key **coalesce**: one
//!   worker (the leader) trains the pilot exactly once, the rest block
//!   on the in-flight entry and reuse the published artifacts,
//! * each worker owns its **own** pipeline scratch: every query and
//!   sweep packs its samples straight from its epoch snapshot's rows
//!   into the worker's recycled buffers, and a sweep's lockstep fits
//!   reuse the worker's objective buffers, so a query copies only the
//!   rows it samples and overlapping queries can never alias a buffer
//!   (the scratch is per-worker, not per-session).
//!
//! # Bit-identity contract
//!
//! Every served response is **bit-identical** to a cold
//! [`Coordinator`](crate::Coordinator) run with the same configuration:
//! for a query `(dataset, ε, δ, seed)` the response's θ, ε₀, ε̂, and
//! chosen `n` equal those of
//! `Coordinator::new(base config with (ε, δ)).train_with_holdout(spec,
//! train, holdout, seed)` — regardless of worker count, arrival order,
//! cache hits, coalescing, or evictions. The cache stores exactly the
//! values a fresh run would recompute (the `Session` argument), the
//! dataset version is part of the cache key (no stale pilots), and the
//! deterministic execution layer makes thread budgets invisible to
//! results. `crates/core/tests/serving.rs` drives interleaved
//! multi-tenant schedules against a serial fresh-coordinator oracle to
//! pin this contract, including under injected-slow-worker schedules.
//!
//! # Failure semantics
//!
//! A query that fails (invalid contract, optimizer error, or a panic
//! inside training) resolves its response to `Err` and — when the
//! failing worker led an in-flight pilot — retires the in-flight entry
//! so the next query for that key leads a fresh attempt. Failures never
//! poison the cache and never wedge the queue; coalesced waiters
//! receive a clone of the leader's error.
//!
//! On top of that baseline, the [`resilience`] module adds deadline-
//! aware degradation (see `ARCHITECTURE.md` § "Failure semantics"):
//!
//! * **Deadlines** — [`Query::deadline`] threads a cooperative
//!   [`CancelToken`] through the coordinator;
//!   it is polled at phase boundaries and once per optimizer iteration,
//!   never preemptively.
//! * **Degradation ladder** — under deadline pressure a query resolves
//!   to a *degraded* `Ok` instead of an `Err`, walking full model →
//!   relaxed final model (honest curve ε) → cached pilot (honest ε₀) →
//!   fail-fast. The reported ε is always the achieved guarantee,
//!   recomputed for the rung actually served — never the requested one.
//! * **Admission control** — a bounded queue
//!   ([`ServeConfig::queue_capacity`]) with a configurable
//!   [`ShedPolicy`] (reject vs. degrade into
//!   a pilot-only lane) and optional per-tenant in-flight caps.
//! * **Retries** — transiently-failed jobs (worker panic, a coalesced
//!   waiter inheriting its leader's deadline error) are re-run with
//!   jittered exponential backoff up to [`ServeConfig::retry_budget`].
//!
//! `crates/core/tests/resilience.rs` drives scripted fault plans
//! (deterministic slow-downs, panics, and deadline trips at chosen
//! phases) against this machinery and pins exactly-once resolution,
//! bit-equal degraded guarantees, and counter reconciliation.
//!
//! # Streaming ingest & drift
//!
//! A [`StreamShard`] registers a [`StreamingPool`] the caller keeps
//! appending to: writers add validated row blocks (each
//! admitted block bumps the pool's **epoch**) while queries pin an
//! immutable epoch snapshot and train against exactly that snapshot —
//! [`ServedResponse::epoch`] names it, and the bit-identity contract
//! holds *per snapshot*: the response equals a cold coordinator run on
//! that epoch's train/holdout datasets.
//!
//! Cached pilots from older epochs walk a **drift ladder** keyed by a
//! cheap holdout-shift score ([`ServeConfig::drift_warn`] /
//! [`ServeConfig::drift_fail`]): a fresh-enough pilot serves the full
//! workflow on its own snapshot; a stale-but-servable pilot is served
//! directly as [`DegradationRung::StalePilot`] with an honestly
//! *recomputed* (inflated) ε — the `curve_epsilon_at` oracle at
//! `n = n₀` on the pilot's snapshot — and a drifted-out pilot triggers
//! a cold retrain at the current epoch, bit-equal to a never-cached
//! run there. [`Server::advance_epoch`] retires superseded cache
//! entries eagerly; the cache's floor keeps a mid-coalesce completion
//! for a superseded epoch out of the LRU. A static shard's pool stays at
//! epoch 0, where the drift scan has nothing to look back at and every
//! query resolves through the hit / coalesce / lead protocol.
//!
//! # Warm restart
//!
//! [`ServeConfig::pilot_sidecar`] names a file the server writes its
//! pilot cache to at shutdown (atomically) and reloads at spawn, so a
//! restarted server answers its first queries from warm pilots — bit-
//! identical to the uninterrupted server's answers — instead of
//! retraining them. Restored entries are revalidated against the
//! registered datasets and their recovered epochs; see the `sidecar`
//! module docs for the contract. Pair it with durable
//! [`StreamingPool`]s (`StreamingPool::open`) to bring a crashed
//! serving process back bit-exactly: the WAL recovers the data, the
//! sidecar recovers the warm state.

pub(crate) mod cache;
pub mod resilience;
pub(crate) mod sidecar;

use crate::config::{BlinkMlConfig, ServeConfig, ShedPolicy};
use crate::coordinator::{
    pilot_curve_epsilon, run_one, PilotState, PipelineRun, PipelineScratch, RunControl,
    TrainingOutcome, TrainingPhaseTimes,
};
use crate::error::CoreError;
use crate::mcs::ModelClassSpec;
use crate::serve::cache::{PilotCache, PilotKey, PilotTicket};
use crate::serve::resilience::{retry_backoff, ActiveTokenGuard, CancelToken, DegradationRung};
use crate::sweep::{sweep_grid, SweepResult};
use blinkml_data::{Dataset, FeatureVec, IngestPolicy, StreamSnapshot, StreamingPool};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The query named a dataset version the server does not hold.
    UnknownDataset(u64),
    /// The underlying training run failed.
    Train(CoreError),
    /// A worker panicked while processing the query (the panic is
    /// contained: the worker keeps serving and any in-flight pilot
    /// entry is retired).
    WorkerPanicked(String),
    /// The server is shut down and no longer accepts queries; queries
    /// still queued (never started) at shutdown also resolve to this.
    Closed,
    /// The bounded queue was full and the shed policy rejected the
    /// query (always the outcome for sweeps at capacity).
    QueueFull {
        /// The configured [`ServeConfig::queue_capacity`].
        capacity: usize,
    },
    /// The tenant already had its configured cap of in-flight queries.
    TenantOverloaded {
        /// The rejected tenant.
        tenant: u64,
        /// The configured [`ServeConfig::tenant_inflight_cap`].
        cap: usize,
    },
    /// The query's deadline expired before any model with an honest
    /// guarantee existed (the fail-fast floor of the degradation
    /// ladder).
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownDataset(v) => write!(f, "unknown dataset version {v}"),
            ServeError::Train(e) => write!(f, "query failed: {e}"),
            ServeError::WorkerPanicked(msg) => write!(f, "worker panicked: {msg}"),
            ServeError::Closed => write!(f, "server is shut down"),
            ServeError::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            ServeError::TenantOverloaded { tenant, cap } => {
                write!(f, "tenant {tenant} already has {cap} queries in flight")
            }
            ServeError::DeadlineExceeded => {
                write!(
                    f,
                    "deadline expired before any guaranteed model was available"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Train(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Train(e)
    }
}

/// One tenant query: a dataset version plus the per-query contract.
///
/// Everything *else* about a training run — optimizer options,
/// statistics method, thread budget — comes from the
/// server's base [`BlinkMlConfig`], deliberately: the cached pilot
/// artifacts are exact for any `(ε, δ)` but depend on those base knobs,
/// so holding them fixed per server is what keeps cache reuse
/// bit-exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Dataset version to train against.
    pub dataset: u64,
    /// Error bound `ε` for this query.
    pub epsilon: f64,
    /// Violation probability `δ` for this query.
    pub delta: f64,
    /// Sampling seed (queries sharing `(dataset, n₀, seed)` share a
    /// pilot).
    pub seed: u64,
    /// Optional per-query initial sample size `n₀` (defaults to the
    /// server's base configuration). Part of the pilot cache key.
    pub initial_sample_size: Option<usize>,
    /// Optional completion deadline, measured from submission. Under
    /// deadline pressure the response degrades down the ladder (see the
    /// [module docs](self)) instead of failing; a deadline that expires
    /// before any guaranteed model exists resolves to
    /// [`ServeError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Tenant identifier for per-tenant admission caps
    /// ([`ServeConfig::tenant_inflight_cap`]). Defaults to `0` (all
    /// queries share one tenant).
    pub tenant: u64,
}

impl Query {
    /// Query with the server's default `n₀`, no deadline, tenant 0.
    pub fn new(dataset: u64, epsilon: f64, delta: f64, seed: u64) -> Self {
        Query {
            dataset,
            epsilon,
            delta,
            seed,
            initial_sample_size: None,
            deadline: None,
            tenant: 0,
        }
    }

    /// Override the initial sample size for this query.
    pub fn with_initial_sample_size(mut self, n0: usize) -> Self {
        self.initial_sample_size = Some(n0);
        self
    }

    /// Attach a completion deadline (measured from submission).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attribute this query to a tenant.
    pub fn with_tenant(mut self, tenant: u64) -> Self {
        self.tenant = tenant;
        self
    }
}

/// One tenant hyperparameter-sweep query: a dataset version, the λ
/// grid, and the shared per-query contract — the serving form of
/// [`Session::sweep`](crate::Session::sweep).
///
/// Sweep pilots depend on λ, so sweeps **bypass** the server's pilot
/// cache in both directions (they neither read nor populate it); the
/// pipeline's shared pilot capture plays the cache's role within the
/// query.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepQuery {
    /// Dataset version to train against.
    pub dataset: u64,
    /// L2 grid, one trained model per λ (results in this order).
    pub lambdas: Vec<f64>,
    /// Error bound `ε` shared by every grid point.
    pub epsilon: f64,
    /// Violation probability `δ` shared by every grid point.
    pub delta: f64,
    /// Sampling seed shared by every grid point.
    pub seed: u64,
    /// Optional per-query initial sample size `n₀` (defaults to the
    /// server's base configuration).
    pub initial_sample_size: Option<usize>,
}

impl SweepQuery {
    /// Sweep query with the server's default `n₀`.
    pub fn new(dataset: u64, lambdas: Vec<f64>, epsilon: f64, delta: f64, seed: u64) -> Self {
        SweepQuery {
            dataset,
            lambdas,
            epsilon,
            delta,
            seed,
            initial_sample_size: None,
        }
    }

    /// Override the initial sample size for this query.
    pub fn with_initial_sample_size(mut self, n0: usize) -> Self {
        self.initial_sample_size = Some(n0);
        self
    }
}

/// A served training result plus serving metadata.
#[derive(Debug, Clone)]
pub struct ServedResponse {
    /// The training outcome. On the [`DegradationRung::Full`] rung this
    /// is bit-identical to a cold coordinator run for this query; on a
    /// degraded rung its `estimated_epsilon` is the honest achieved
    /// guarantee for that rung, bit-equal to what a cold coordinator
    /// would compute for the same curve point.
    pub outcome: TrainingOutcome,
    /// Which rung of the degradation ladder produced the outcome.
    pub rung: DegradationRung,
    /// The epoch snapshot this response was computed against: always 0
    /// for a [`DatasetShard`] (registered as a pool frozen at epoch 0);
    /// for a [`StreamShard`], the epoch
    /// whose snapshot datasets reproduce this response bit-for-bit in
    /// a cold coordinator run (the current epoch on the fresh path, the
    /// pilot's own epoch on drift-reuse and
    /// [`DegradationRung::StalePilot`] paths).
    pub epoch: u64,
    /// Submit-to-completion latency as measured by the server (queue
    /// wait plus processing).
    pub latency: Duration,
}

/// A served sweep result plus serving metadata.
#[derive(Debug, Clone)]
pub struct ServedSweep {
    /// The grid results, each point bit-identical to an independent
    /// cold run with that λ.
    pub result: SweepResult,
    /// Submit-to-completion latency as measured by the server.
    pub latency: Duration,
}

/// One dataset version registered with a [`Server`]: the training pool
/// and holdout set, `Arc`-shared so the caller can keep using them
/// (e.g. to run oracle comparisons) without cloning the data.
///
/// At spawn the server registers the shard as a [`StreamingPool`]
/// frozen at epoch 0 (`StreamingPool::from_datasets` under
/// [`IngestPolicy::Reject`]). The pool adopts the shard's rows by
/// refcount, and the rows pass the same ingest gate as streamed ones:
/// every feature finite, every row of the train set's dimension, every
/// label in the spec's [`LabelDomain`](blinkml_data::LabelDomain) —
/// spawn fails with a typed [`CoreError`] otherwise.
#[derive(Debug, Clone)]
pub struct DatasetShard<F: FeatureVec> {
    /// Version identifier — part of every pilot cache key, which is
    /// what makes cross-version pilot reuse impossible.
    pub version: u64,
    /// Training pool (BlinkML samples from this).
    pub train: Arc<Dataset<F>>,
    /// Holdout set (prediction-difference evaluation only).
    pub holdout: Arc<Dataset<F>>,
}

impl<F: FeatureVec> DatasetShard<F> {
    /// Register a dataset version from owned datasets.
    pub fn new(version: u64, train: Dataset<F>, holdout: Dataset<F>) -> Self {
        DatasetShard {
            version,
            train: Arc::new(train),
            holdout: Arc::new(holdout),
        }
    }

    /// Register a dataset version from already-shared datasets.
    pub fn from_arcs(version: u64, train: Arc<Dataset<F>>, holdout: Arc<Dataset<F>>) -> Self {
        DatasetShard {
            version,
            train,
            holdout,
        }
    }
}

/// One streaming dataset registered with a [`Server`]: an appendable
/// [`StreamingPool`] shared between the caller (who keeps appending)
/// and the serving threads (who pin epoch snapshots). The `id` plays
/// the role of [`DatasetShard::version`] in queries and cache keys.
#[derive(Debug, Clone)]
pub struct StreamShard<F: FeatureVec> {
    /// Dataset identifier — shares the keyspace with static shard
    /// versions, so ids must be unique across both.
    pub id: u64,
    /// The appendable pool. Keep a clone of this `Arc` to append.
    pub pool: Arc<StreamingPool<F>>,
}

impl<F: FeatureVec> StreamShard<F> {
    /// Register a streaming dataset from an owned pool.
    pub fn new(id: u64, pool: StreamingPool<F>) -> Self {
        StreamShard {
            id,
            pool: Arc::new(pool),
        }
    }

    /// Register a streaming dataset from an already-shared pool.
    pub fn from_arc(id: u64, pool: Arc<StreamingPool<F>>) -> Self {
        StreamShard { id, pool }
    }
}

/// One registered dataset as the owner thread holds it: a static
/// shard's pool frozen at epoch 0, or a caller's stream.
struct Registration<F> {
    id: u64,
    pool: Arc<StreamingPool<F>>,
}

/// A registered dataset's current-epoch probe (the pools are generic
/// and live in the owner thread; the handle only needs their epoch).
type EpochProbe = Box<dyn Fn() -> u64 + Send + Sync>;

/// Epoch-scan bound for the drift ladder: pilots more than this many
/// epochs behind the current snapshot are treated as absent (cold
/// retrain) even when [`ServeConfig::max_stale_epochs`] is unbounded,
/// keeping the per-query cache scan O(1)-ish under fast append rates.
const MAX_DRIFT_LOOKBACK: u64 = 32;

/// Snapshot of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries accepted into the queue.
    pub submitted: u64,
    /// Queries resolved with `Ok`.
    pub completed: u64,
    /// Queries resolved with `Err`.
    pub failed: u64,
    /// Pilot cache hits.
    pub cache_hits: u64,
    /// Pilots actually trained (cache misses that led).
    pub pilot_trains: u64,
    /// Queries that coalesced onto another worker's in-flight pilot.
    pub coalesced_waits: u64,
    /// Pilot cache evictions.
    pub evictions: u64,
    /// Sweep queries resolved (success or failure).
    pub sweep_queries: u64,
    /// Queries accepted into the pilot-only lane by
    /// [`ShedPolicy::Degrade`] at a full queue.
    pub sheds: u64,
    /// Accepted queries that resolved on a degraded rung because of
    /// deadline pressure (shed queries are counted in [`sheds`], not
    /// here — the two causes are disjoint by construction).
    ///
    /// [`sheds`]: ServerStats::sheds
    pub deadline_degraded: u64,
    /// Transient-failure re-runs (each retry attempt counts once).
    pub retries: u64,
    /// Queries rejected with [`ServeError::QueueFull`].
    pub queue_full_rejects: u64,
    /// Queries rejected with [`ServeError::TenantOverloaded`].
    pub tenant_rejects: u64,
    /// Streaming queries that reused an older-epoch pilot whose drift
    /// score stayed at or below [`ServeConfig::drift_warn`] (full
    /// workflow on the pilot's own snapshot).
    pub drift_fresh: u64,
    /// Streaming queries answered on the
    /// [`DegradationRung::StalePilot`] rung (drift score between the
    /// warn and fail thresholds).
    pub drift_stale_served: u64,
    /// Streaming queries whose cached pilot drifted past
    /// [`ServeConfig::drift_fail`] and triggered a retrain at the
    /// current epoch.
    pub drift_retrains: u64,
    /// Cache entries dropped by epoch-floor advances
    /// ([`Server::advance_epoch`] / [`Server::retire_dataset`]) —
    /// counted separately from capacity [`evictions`].
    ///
    /// [`evictions`]: ServerStats::evictions
    pub pilots_retired: u64,
    /// Pilots currently cached.
    pub cached_pilots: usize,
    /// Live in-flight pilot computations (0 when idle).
    pub inflight: usize,
    /// Pilots restored from the warm-state sidecar at spawn (0 when
    /// [`ServeConfig::pilot_sidecar`] is unset or the file was absent).
    pub warm_pilots: u64,
}

#[derive(Debug, Default)]
struct StatCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cache_hits: AtomicU64,
    pilot_trains: AtomicU64,
    coalesced_waits: AtomicU64,
    sweep_queries: AtomicU64,
    sheds: AtomicU64,
    deadline_degraded: AtomicU64,
    retries: AtomicU64,
    queue_full_rejects: AtomicU64,
    tenant_rejects: AtomicU64,
    drift_fresh: AtomicU64,
    drift_stale_served: AtomicU64,
    drift_retrains: AtomicU64,
}

/// The handle-side slot a worker publishes one response into.
#[derive(Debug)]
struct Ticket<T> {
    slot: Mutex<Option<Result<T, ServeError>>>,
    cv: Condvar,
}

impl<T> Default for Ticket<T> {
    fn default() -> Self {
        Ticket {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }
}

impl<T> Ticket<T> {
    fn publish(&self, result: Result<T, ServeError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(slot.is_none(), "response published twice");
        *slot = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<T, ServeError> {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wait until the response is published or `timeout` elapses;
    /// `None` means the wait timed out and the response is still owed.
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, ServeError>> {
        let give_up = Instant::now() + timeout;
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.take() {
                return Some(result);
            }
            let now = Instant::now();
            if now >= give_up {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(slot, give_up - now)
                .unwrap_or_else(|e| e.into_inner());
            slot = guard;
        }
    }

    fn try_take(&self) -> Option<Result<T, ServeError>> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    fn is_ready(&self) -> bool {
        self.slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }
}

/// A pending response: the asynchronous half of [`Server::submit`]
/// (and, as [`SweepResponseHandle`], of [`Server::submit_sweep`]).
/// Block on [`ResponseHandle::wait`], or poll with
/// [`ResponseHandle::is_ready`].
#[derive(Debug)]
pub struct ResponseHandle<T = ServedResponse> {
    ticket: Arc<Ticket<T>>,
}

/// A pending sweep response: the asynchronous half of
/// [`Server::submit_sweep`].
pub type SweepResponseHandle = ResponseHandle<ServedSweep>;

impl<T> ResponseHandle<T> {
    /// Block until the query resolves and return its response.
    pub fn wait(self) -> Result<T, ServeError> {
        self.ticket.wait()
    }

    /// Wait up to `timeout` for the response. `None` means the wait
    /// timed out: the query is **still in flight** and the handle can
    /// keep waiting. `Some` consumes the response — the response is
    /// delivered exactly once, so a later `wait`/`try_wait` on this
    /// handle will not see it again.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, ServeError>> {
        self.ticket.wait_timeout(timeout)
    }

    /// Take the response if it is already published (non-blocking).
    /// Like [`wait_timeout`](ResponseHandle::wait_timeout), a `Some`
    /// consumes the response.
    pub fn try_wait(&self) -> Option<Result<T, ServeError>> {
        self.ticket.try_take()
    }

    /// Whether the response has been published (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.ticket.is_ready()
    }
}

/// One queued request and where to publish its response.
enum Request {
    Train(Query, Arc<Ticket<ServedResponse>>),
    Sweep(SweepQuery, Arc<Ticket<ServedSweep>>),
}

/// One queued job: the resolved registration index, the request, its
/// submission time, and its admission-time resilience decisions.
struct Job {
    dataset: usize,
    request: Request,
    submitted: Instant,
    /// Absolute deadline (submission time + [`Query::deadline`]).
    deadline: Option<Instant>,
    /// The job was accepted into the pilot-only lane by
    /// [`ShedPolicy::Degrade`] at a full queue.
    shed_degraded: bool,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
    /// In-flight (queued + running) `Train` queries per tenant,
    /// maintained by admission and [`QueueState::finish_tenant`].
    tenant_inflight: HashMap<u64, usize>,
}

impl QueueState {
    /// Release one unit of `tenant`'s in-flight budget, dropping the
    /// entry when it reaches zero: when one of its `Train` queries
    /// resolves (before the response is published) or is aborted at
    /// shutdown.
    fn finish_tenant(&mut self, tenant: u64) {
        if let Some(count) = self.tenant_inflight.get_mut(&tenant) {
            *count -= 1;
            if *count == 0 {
                self.tenant_inflight.remove(&tenant);
            }
        }
    }
}

/// State shared between the handle and the worker pool. Holds only
/// owned data (the generic datasets/pools live in the owner thread), so
/// the [`Server`] handle itself is not generic.
struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    cache: PilotCache,
    stats: StatCounters,
    serve: ServeConfig,
}

impl Shared {
    /// Pop the next job, blocking while the queue is open and empty.
    /// Returns `None` when the queue is closed **and** drained — the
    /// worker exit condition. (Whether "drained" means "served" or
    /// "aborted" is the shutdown caller's choice; see
    /// [`Server::shutdown`] vs [`Server::shutdown_drain`].)
    fn next_job(&self) -> Option<Job> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            if queue.closed {
                return None;
            }
            queue = self.cv.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A multi-tenant model-serving front end over the coordinator
/// workflow. See the [module docs](self) for the architecture and the
/// bit-identity contract.
///
/// ```
/// # use blinkml_core::models::LogisticRegressionSpec;
/// # use blinkml_core::serve::{DatasetShard, Query, Server};
/// # use blinkml_core::{BlinkMlConfig, ServeConfig};
/// # use blinkml_data::generators::synthetic_logistic;
/// let (data, _) = synthetic_logistic(6_000, 4, 2.0, 1);
/// let split = data.split(800, 0, 2);
/// let config = BlinkMlConfig {
///     initial_sample_size: 300,
///     num_param_samples: 16,
///     ..BlinkMlConfig::default()
/// };
/// let server = Server::spawn(
///     config,
///     ServeConfig::default(),
///     LogisticRegressionSpec::new(1e-3),
///     vec![DatasetShard::new(1, split.train, split.holdout)],
/// )
/// .unwrap();
/// let response = server.query(Query::new(1, 0.10, 0.05, 7)).unwrap();
/// assert!(response.outcome.sample_size > 0);
/// server.shutdown();
/// ```
pub struct Server {
    shared: Arc<Shared>,
    /// Dataset id → registration index and epoch probe.
    datasets: HashMap<u64, (usize, EpochProbe)>,
    /// Pilots admitted from the warm-state sidecar at spawn.
    warm_pilots: u64,
    owner: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawn a server: validates the configuration and datasets,
    /// registers each shard as a pool frozen at epoch 0, and starts
    /// [`ServeConfig::workers`] worker threads, each with its own
    /// pipeline scratch.
    ///
    /// The spec and datasets move into the serving threads; keep
    /// [`DatasetShard`] clones (they are `Arc`-shared) for oracle runs
    /// or later inspection.
    pub fn spawn<F, S>(
        config: BlinkMlConfig,
        serve: ServeConfig,
        spec: S,
        shards: Vec<DatasetShard<F>>,
    ) -> Result<Server, CoreError>
    where
        F: FeatureVec,
        S: ModelClassSpec<F> + 'static,
    {
        Server::spawn_with_streams(config, serve, spec, shards, Vec::new())
    }

    /// [`Server::spawn`] plus streaming datasets: each [`StreamShard`]
    /// registers an appendable [`StreamingPool`] whose queries resolve
    /// through the drift ladder (see the [module docs](self)). Static
    /// shards and streams share one id keyspace. Every dataset must
    /// hold at least one training and one holdout row at spawn.
    pub fn spawn_with_streams<F, S>(
        config: BlinkMlConfig,
        serve: ServeConfig,
        spec: S,
        shards: Vec<DatasetShard<F>>,
        streams: Vec<StreamShard<F>>,
    ) -> Result<Server, CoreError>
    where
        F: FeatureVec,
        S: ModelClassSpec<F> + 'static,
    {
        config.validate()?;
        serve.validate()?;
        if shards.is_empty() && streams.is_empty() {
            return Err(CoreError::InvalidConfig(
                "server needs at least one dataset version".into(),
            ));
        }
        let mut registered = Vec::with_capacity(shards.len() + streams.len());
        for shard in shards {
            // Only this server holds the pool, so it never leaves
            // epoch 0.
            let pool = StreamingPool::from_datasets(
                &shard.train,
                &shard.holdout,
                spec.label_domain(),
                IngestPolicy::Reject,
            )?;
            registered.push(Registration {
                id: shard.version,
                pool: Arc::new(pool),
            });
        }
        registered.extend(streams.into_iter().map(|stream| Registration {
            id: stream.id,
            pool: stream.pool,
        }));
        let mut datasets = HashMap::new();
        for (i, reg) in registered.iter().enumerate() {
            let snapshot = reg.pool.snapshot();
            if snapshot.train_len() == 0 {
                return Err(CoreError::InvalidData(format!(
                    "dataset {} has an empty training pool",
                    reg.id
                )));
            }
            if snapshot.holdout_len() == 0 {
                return Err(CoreError::InvalidData(format!(
                    "dataset {} has an empty holdout set",
                    reg.id
                )));
            }
            let pool = reg.pool.clone();
            let epoch_of: EpochProbe = Box::new(move || pool.epoch());
            if datasets.insert(reg.id, (i, epoch_of)).is_some() {
                return Err(CoreError::InvalidConfig(format!(
                    "duplicate dataset version {}",
                    reg.id
                )));
            }
        }
        // Warm restore: read the pilot sidecar (when configured) before
        // any worker starts. Best-effort — a missing or damaged sidecar
        // means a cold start, never a spawn error. Entries are
        // revalidated here: the dataset must be registered with *this*
        // server, and the pilot's epoch must exist on the (possibly
        // crash-recovered) pool — a durable pool that lost an unsynced
        // tail recovers to an earlier epoch, and pilots for the lost
        // epochs describe snapshots that no longer exist. Persisted
        // floors are re-applied by the seed, so retired epochs stay
        // retired across restarts.
        let mut warm_entries = Vec::new();
        let mut warm_floors = HashMap::new();
        if let Some(path) = &serve.pilot_sidecar {
            if let Ok((entries, floors)) = sidecar::load(path) {
                warm_entries = entries
                    .into_iter()
                    .filter(|(key, _)| {
                        datasets
                            .get(&key.0)
                            .is_some_and(|(_, epoch_of)| epoch_of() >= key.1)
                    })
                    .collect();
                warm_floors = floors;
            }
        }
        let worker_count = serve.workers;
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            cache: PilotCache::new(serve.pilot_cache_capacity),
            stats: StatCounters::default(),
            serve,
        });
        let warm_pilots = shared.cache.seed(warm_entries, warm_floors) as u64;
        let owner = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                // The owner thread owns the generic state (spec and
                // pools); workers are scoped threads borrowing it, so
                // the server's handle stays free of the spec and
                // feature types. Every query pins an epoch snapshot and
                // packs its samples from exactly that prefix view.
                config.exec.apply();
                std::thread::scope(|scope| {
                    for _ in 0..worker_count {
                        let (shared, config, spec, registered) =
                            (&shared, &config, &spec, &registered);
                        scope.spawn(move || {
                            // One pipeline scratch per worker — never
                            // shared, so two overlapping queries cannot
                            // alias a packing or objective buffer.
                            let mut scratch = PipelineScratch::default();
                            while let Some(job) = shared.next_job() {
                                let i = job.dataset;
                                process_job(
                                    config,
                                    spec,
                                    &registered[i],
                                    shared,
                                    &mut scratch,
                                    job,
                                );
                            }
                        });
                    }
                });
            })
        };
        Ok(Server {
            shared,
            datasets,
            warm_pilots,
            owner: Some(owner),
        })
    }

    /// Enqueue a query, returning a handle that resolves when a worker
    /// completes it. Fails fast (without queueing) on an unknown
    /// dataset version, a shut-down server, a tenant over its in-flight
    /// cap, or a full queue under [`ShedPolicy::Reject`]; under
    /// [`ShedPolicy::Degrade`] a full queue sheds the query into the
    /// pilot-only lane instead.
    pub fn submit(&self, query: Query) -> Result<ResponseHandle, ServeError> {
        let ticket = Arc::new(Ticket::default());
        self.enqueue(query.dataset, Request::Train(query, ticket.clone()))?;
        Ok(ResponseHandle { ticket })
    }

    /// Enqueue a hyperparameter-sweep query, returning a handle that
    /// resolves when a worker completes the whole grid. One sweep is
    /// one job: the lockstep fits inside it batch the per-λ work, so
    /// grid points never compete with other tenants for queue slots
    /// mid-sweep.
    pub fn submit_sweep(&self, query: SweepQuery) -> Result<SweepResponseHandle, ServeError> {
        let ticket = Arc::new(Ticket::default());
        self.enqueue(query.dataset, Request::Sweep(query, ticket.clone()))?;
        Ok(ResponseHandle { ticket })
    }

    fn enqueue(&self, dataset: u64, request: Request) -> Result<(), ServeError> {
        let (index, _) = self
            .datasets
            .get(&dataset)
            .ok_or(ServeError::UnknownDataset(dataset))?;
        let serve = &self.shared.serve;
        let stats = &self.shared.stats;
        // Tenant / deadline are `Train`-only concepts; sweeps have no
        // ladder and no per-tenant budget.
        let (tenant, deadline) = match &request {
            Request::Train(q, _) => (Some(q.tenant), q.deadline),
            Request::Sweep(..) => (None, None),
        };
        let submitted = Instant::now();
        let mut job = Job {
            dataset: *index,
            request,
            submitted,
            deadline: deadline.map(|d| submitted + d),
            shed_degraded: false,
        };
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if queue.closed {
                return Err(ServeError::Closed);
            }
            if let (Some(tenant), Some(cap)) = (tenant, serve.tenant_inflight_cap) {
                if queue.tenant_inflight.get(&tenant).copied().unwrap_or(0) >= cap {
                    stats.tenant_rejects.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::TenantOverloaded { tenant, cap });
                }
            }
            if queue.jobs.len() >= serve.queue_capacity {
                let shed = tenant.is_some() && serve.shed_policy == ShedPolicy::Degrade;
                // The degrade lane is itself bounded (at twice the
                // queue capacity) so overload cannot grow the queue
                // without limit.
                if !shed || queue.jobs.len() >= 2 * serve.queue_capacity {
                    stats.queue_full_rejects.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::QueueFull {
                        capacity: serve.queue_capacity,
                    });
                }
                job.shed_degraded = true;
                stats.sheds.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(tenant) = tenant {
                *queue.tenant_inflight.entry(tenant).or_insert(0) += 1;
            }
            queue.jobs.push_back(job);
        }
        stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Submit and block for the response — the synchronous convenience
    /// form of [`Server::submit`].
    pub fn query(&self, query: Query) -> Result<ServedResponse, ServeError> {
        self.submit(query)?.wait()
    }

    /// Submit a sweep and block for the response — the synchronous
    /// convenience form of [`Server::submit_sweep`].
    pub fn sweep(&self, query: SweepQuery) -> Result<ServedSweep, ServeError> {
        self.submit_sweep(query)?.wait()
    }

    /// Snapshot the server's counters.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        ServerStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            pilot_trains: s.pilot_trains.load(Ordering::Relaxed),
            coalesced_waits: s.coalesced_waits.load(Ordering::Relaxed),
            evictions: self.shared.cache.evictions(),
            sweep_queries: s.sweep_queries.load(Ordering::Relaxed),
            sheds: s.sheds.load(Ordering::Relaxed),
            deadline_degraded: s.deadline_degraded.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            queue_full_rejects: s.queue_full_rejects.load(Ordering::Relaxed),
            tenant_rejects: s.tenant_rejects.load(Ordering::Relaxed),
            drift_fresh: s.drift_fresh.load(Ordering::Relaxed),
            drift_stale_served: s.drift_stale_served.load(Ordering::Relaxed),
            drift_retrains: s.drift_retrains.load(Ordering::Relaxed),
            pilots_retired: self.shared.cache.retired(),
            cached_pilots: self.shared.cache.cached(),
            inflight: self.shared.cache.inflight(),
            warm_pilots: self.warm_pilots,
        }
    }

    /// Write the pilot cache to the configured
    /// [`ServeConfig::pilot_sidecar`] right now (shutdown does this
    /// automatically; call this for periodic checkpoints in a
    /// long-lived server). Returns how many pilots were persisted. The
    /// write is atomic (temp + rename): a crash mid-persist leaves the
    /// previous sidecar intact.
    pub fn persist_pilots(&self) -> Result<usize, CoreError> {
        let path = self.shared.serve.pilot_sidecar.as_ref().ok_or_else(|| {
            CoreError::InvalidConfig("no pilot_sidecar configured for this server".into())
        })?;
        let (entries, floors) = self.shared.cache.export();
        sidecar::save(path, &entries, &floors)
            .map_err(|e| CoreError::InvalidData(format!("pilot sidecar write failed: {e}")))
    }

    /// Drop every cached pilot (e.g. to bound memory in a long-lived
    /// server). Results are unaffected; subsequent queries retrain on
    /// demand.
    pub fn clear_pilot_cache(&self) {
        self.shared.cache.clear();
    }

    /// Explicit epoch-advance hook: read the dataset's current epoch
    /// and eagerly retire every cached pilot more
    /// than [`ServeConfig::max_stale_epochs`] epochs behind it,
    /// returning how many entries were dropped. With the default
    /// unbounded staleness budget this is a no-op; with
    /// `max_stale_epochs = 0` it retires every superseded epoch, and
    /// the cache's floor additionally guarantees that a pilot
    /// *completing* for a superseded epoch mid-coalesce is never
    /// admitted. Call it after appends when stale service is not
    /// acceptable; the drift ladder enforces the same budget lazily
    /// either way. A static [`DatasetShard`]'s pool stays at epoch 0,
    /// so for it this retires nothing and returns `Ok(0)`.
    pub fn advance_epoch(&self, dataset: u64) -> Result<usize, ServeError> {
        let (_, epoch_of) = self
            .datasets
            .get(&dataset)
            .ok_or(ServeError::UnknownDataset(dataset))?;
        let floor = epoch_of().saturating_sub(self.shared.serve.max_stale_epochs);
        Ok(self.shared.cache.retire(dataset, floor))
    }

    /// Retire **every** cached pilot of one dataset (static or
    /// streaming) and pin its cache floor so nothing for it is ever
    /// admitted again — the decommissioning hook. Returns how many
    /// entries were dropped. The dataset stays queryable (queries
    /// simply retrain cold); unknown ids retire nothing.
    pub fn retire_dataset(&self, dataset: u64) -> usize {
        self.shared.cache.retire(dataset, u64::MAX)
    }

    /// Shut down promptly: stop accepting queries, **abort** every job
    /// still queued (never started) by resolving its handle to
    /// [`ServeError::Closed`], let jobs already running on a worker
    /// finish normally, and join the workers.
    ///
    /// This is the abort half of the drain-vs-abort contract: accepted
    /// but unstarted work is *not* silently trained through a shutdown
    /// — its waiters learn immediately. Use [`Server::shutdown_drain`]
    /// to serve out the backlog instead. `Drop` behaves like
    /// `shutdown`.
    pub fn shutdown(mut self) {
        self.close_and_join(true);
    }

    /// Shut down gracefully: stop accepting queries, drain the queue
    /// (every already-accepted query still resolves through its full
    /// workflow), and join the workers.
    pub fn shutdown_drain(mut self) {
        self.close_and_join(false);
    }

    fn close_and_join(&mut self, abort_queued: bool) {
        let aborted = {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.closed = true;
            if abort_queued {
                let jobs = std::mem::take(&mut queue.jobs);
                for job in &jobs {
                    if let Request::Train(q, _) = &job.request {
                        queue.finish_tenant(q.tenant);
                    }
                }
                jobs
            } else {
                VecDeque::new()
            }
        };
        // Publish outside the queue lock: waiters may wake and call
        // back into the server (e.g. `stats`).
        let stats = &self.shared.stats;
        for job in aborted {
            stats.failed.fetch_add(1, Ordering::Relaxed);
            match job.request {
                Request::Train(_, ticket) => ticket.publish(Err(ServeError::Closed)),
                Request::Sweep(_, ticket) => {
                    stats.sweep_queries.fetch_add(1, Ordering::Relaxed);
                    ticket.publish(Err(ServeError::Closed));
                }
            }
        }
        self.shared.cv.notify_all();
        if let Some(owner) = self.owner.take() {
            let _ = owner.join();
            // Persist the warm-state sidecar after the workers joined,
            // so the export sees every drained completion. Best-effort:
            // shutdown never fails because a checkpoint could not be
            // written, or because no sidecar is configured (call
            // `persist_pilots` to observe errors).
            let _ = self.persist_pilots();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join(true);
    }
}

/// Process one job end to end — training query (pilot resolved through
/// the cache: hit / coalesce / lead) or grid sweep (cache bypassed) —
/// and publish the response. Panics are contained per job.
fn process_job<F, S>(
    base: &BlinkMlConfig,
    spec: &S,
    reg: &Registration<F>,
    shared: &Shared,
    scratch: &mut PipelineScratch,
    job: Job,
) where
    F: FeatureVec,
    S: ModelClassSpec<F> + ?Sized,
{
    let stats = &shared.stats;
    match job.request {
        Request::Train(query, ticket) => {
            let serve = &shared.serve;
            // One token per job (not per attempt): the deadline is a
            // property of the query, and retries race the same clock.
            let token = Arc::new(match job.deadline {
                Some(deadline) => CancelToken::with_deadline(deadline, serve.relax_margin),
                None => CancelToken::unbounded(),
            });
            // Publish the token to the fault-injection harness for the
            // whole job, retries included.
            let _guard = ActiveTokenGuard::install(&token);
            let result = if token.expired() {
                // Expired while queued: don't start work that can no
                // longer produce even a pilot in time.
                Err(ServeError::DeadlineExceeded)
            } else {
                let mut attempt: u32 = 0;
                loop {
                    let result = serve_stream_query(
                        base,
                        spec,
                        reg,
                        shared,
                        scratch,
                        &query,
                        &token,
                        job.shed_degraded,
                    );
                    // Transient failures: a contained panic, or a
                    // coalesced waiter inheriting its *leader's*
                    // deadline error while its own deadline is fine (a
                    // retry leads a fresh pilot attempt).
                    let transient = match &result {
                        Err(ServeError::WorkerPanicked(_)) => true,
                        Err(ServeError::DeadlineExceeded) => !token.expired(),
                        _ => false,
                    };
                    if transient && attempt < serve.retry_budget {
                        attempt += 1;
                        stats.retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(retry_backoff(
                            serve.retry_backoff_base,
                            attempt,
                            query.seed,
                        ));
                        continue;
                    }
                    break result;
                }
            };
            // Release the tenant's budget before publishing, so a
            // client resubmitting as soon as its wait returns is never
            // refused for the query it already holds.
            shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .finish_tenant(query.tenant);
            match result {
                Ok((outcome, rung, epoch)) => {
                    stats.completed.fetch_add(1, Ordering::Relaxed);
                    if rung.is_degraded() && !job.shed_degraded {
                        stats.deadline_degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    ticket.publish(Ok(ServedResponse {
                        outcome,
                        rung,
                        epoch,
                        latency: job.submitted.elapsed(),
                    }));
                }
                Err(e) => {
                    stats.failed.fetch_add(1, Ordering::Relaxed);
                    ticket.publish(Err(e));
                }
            }
        }
        Request::Sweep(query, ticket) => {
            stats.sweep_queries.fetch_add(1, Ordering::Relaxed);
            // Sweeps pin one snapshot too: the whole grid trains
            // against one epoch.
            let snapshot = reg.pool.snapshot();
            let train = snapshot.train_dataset();
            let holdout = snapshot.holdout_dataset();
            let result = serve_sweep(base, spec, &train, &holdout, scratch, &query);
            match result {
                Ok(result) => {
                    stats.completed.fetch_add(1, Ordering::Relaxed);
                    ticket.publish(Ok(ServedSweep {
                        result,
                        latency: job.submitted.elapsed(),
                    }));
                }
                Err(e) => {
                    stats.failed.fetch_add(1, Ordering::Relaxed);
                    ticket.publish(Err(e));
                }
            }
        }
    }
}

/// The training-query workflow: pin an epoch snapshot, then walk the
/// drift ladder. A current-epoch pilot serves the full workflow
/// directly; a cached pilot from a recent epoch is drift-tested and
/// either reused (full workflow on **its** snapshot), served as-is with
/// an honestly recomputed inflated ε
/// ([`DegradationRung::StalePilot`]), or abandoned into a retrain at
/// the current epoch, cold, exactly as a never-cached run there. At
/// epoch 0 (always, for a static shard) there is nothing to scan.
/// Returns the outcome, the rung, and the epoch the response is
/// bit-reproducible against.
#[allow(clippy::too_many_arguments)]
fn serve_stream_query<F, S>(
    base: &BlinkMlConfig,
    spec: &S,
    reg: &Registration<F>,
    shared: &Shared,
    scratch: &mut PipelineScratch,
    query: &Query,
    token: &Arc<CancelToken>,
    shed_degraded: bool,
) -> Result<(TrainingOutcome, DegradationRung, u64), ServeError>
where
    F: FeatureVec,
    S: ModelClassSpec<F> + ?Sized,
{
    let config = query_config(base, query.epsilon, query.delta, query.initial_sample_size)?;
    let serve = &shared.serve;
    let stats = &shared.stats;
    // Everything below trains and reports against exactly one epoch
    // snapshot — this one, or the found pilot's own.
    let snapshot = reg.pool.snapshot();
    let epoch = snapshot.epoch();
    let n0 = config.initial_sample_size.min(snapshot.train_len());
    let key: PilotKey = (reg.id, epoch, n0, query.seed);
    let control = RunControl {
        cancel: Some(token.clone()),
        pilot_only: shed_degraded,
        relax_fraction: serve.relax_fraction,
    };

    // 1. A pilot for the current epoch needs no drift scan: step 3
    // finds it. At epoch 0 there is nothing older to scan.
    let mut lookback = serve.max_stale_epochs.min(MAX_DRIFT_LOOKBACK).min(epoch);
    if lookback > 0 && shared.cache.lookup(&key).is_some() {
        lookback = 0;
    }

    // 2. Otherwise scan recent epochs (bounded by the staleness budget)
    // for a cached pilot of this query and drift-test the newest one
    // found.
    let mut found: Option<(u64, Arc<PilotState>)> = None;
    for back in 1..=lookback {
        let e = epoch - back;
        let Some(mark) = snapshot.mark_at(e) else {
            break;
        };
        let n0_e = config.initial_sample_size.min(mark.train_len);
        if let Some(pilot) = shared.cache.lookup(&(reg.id, e, n0_e, query.seed)) {
            found = Some((e, pilot));
            break;
        }
    }
    if let Some((e, pilot)) = found {
        let score = drift_score(spec, &snapshot, e, pilot.model.parameters());
        let snap = reg.pool.snapshot_at(e).expect("marks retain every epoch");
        if score <= serve.drift_warn {
            // Fresh enough: the full workflow on the pilot's own
            // snapshot — bit-equal to a cold run at epoch `e`.
            stats.drift_fresh.fetch_add(1, Ordering::Relaxed);
            let train = snap.train_dataset();
            let holdout = snap.holdout_dataset();
            return contained(|| {
                run_one(
                    &config,
                    spec,
                    &train,
                    &holdout,
                    scratch,
                    query.seed,
                    Some(&pilot),
                    false,
                    &control,
                )
            })
            .map(|run| (run.outcome, run.rung, e));
        }
        if score <= serve.drift_fail {
            // Stale but servable: m₀ as-is, with the honestly
            // recomputed (inflated) curve ε at n = n₀ for the data the
            // pilot actually saw.
            stats.drift_stale_served.fetch_add(1, Ordering::Relaxed);
            let holdout = snap.holdout_dataset();
            let outcome = stale_pilot_outcome(
                &config,
                spec,
                &holdout,
                &pilot,
                snap.train_len(),
                query.seed,
            );
            return Ok((outcome, DegradationRung::StalePilot, e));
        }
        // Drifted past the servable band: abandon the stale pilot and
        // lead a fresh one at the current epoch.
        stats.drift_retrains.fetch_add(1, Ordering::Relaxed);
    }

    // 3. The current epoch: hit / coalesce / lead through the cache.
    let train = snapshot.train_dataset();
    let holdout = snapshot.holdout_dataset();
    let pilot = match shared.cache.resolve(key) {
        PilotTicket::Cached(pilot) => {
            stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            pilot
        }
        PilotTicket::Wait(inflight) => {
            stats.coalesced_waits.fetch_add(1, Ordering::Relaxed);
            // The leader publishes exactly one terminal result; share
            // its failure rather than stampeding retrains.
            inflight.wait()?
        }
        PilotTicket::Lead => {
            // Lead: train the pilot, then complete or fail the
            // in-flight entry.
            let led = contained(|| {
                run_one(
                    &config, spec, &train, &holdout, scratch, query.seed, None, true, &control,
                )
            });
            return match led {
                Ok(PipelineRun {
                    outcome,
                    rung,
                    pilot: Some(pilot),
                }) => {
                    stats.pilot_trains.fetch_add(1, Ordering::Relaxed);
                    shared.cache.complete(key, Arc::new(pilot));
                    Ok((outcome, rung, epoch))
                }
                Ok(PipelineRun {
                    outcome,
                    rung,
                    pilot: None,
                }) => {
                    // `run_one` always returns pilot artifacts when
                    // asked; retire the entry defensively so a future
                    // regression degrades to cache misses, not a wedge.
                    debug_assert!(false, "leader run returned no pilot artifacts");
                    shared.cache.fail(
                        key,
                        ServeError::Train(CoreError::InvalidConfig(
                            "pilot artifacts missing from leader run".into(),
                        )),
                    );
                    Ok((outcome, rung, epoch))
                }
                Err(e) => {
                    shared.cache.fail(key, e.clone());
                    Err(e)
                }
            };
        }
    };
    contained(|| {
        run_one(
            &config,
            spec,
            &train,
            &holdout,
            scratch,
            query.seed,
            Some(&pilot),
            false,
            &control,
        )
    })
    .map(|run| (run.outcome, run.rung, epoch))
}

/// The server's base configuration under one query's contract `(ε, δ,
/// n₀)`, validated, with the thread budget reinstalled (another
/// coordinator in the process may have moved the global knob; results
/// are budget-independent either way).
fn query_config(
    base: &BlinkMlConfig,
    epsilon: f64,
    delta: f64,
    n0: Option<usize>,
) -> Result<BlinkMlConfig, CoreError> {
    let mut config = base.clone();
    config.epsilon = epsilon;
    config.delta = delta;
    config.initial_sample_size = n0.unwrap_or(config.initial_sample_size);
    config.validate()?;
    config.exec.apply();
    Ok(config)
}

/// Cheap drift test for a cached pilot from `pilot_epoch` against the
/// current snapshot: the shift of the pilot's mean prediction on
/// holdout rows appended *after* its epoch, in units of the spread of
/// its predictions on the rows it was validated against. 0 when no new
/// holdout rows arrived (train-only appends change the pilot's
/// coverage, not the evidence about its task — the guarantee math
/// already accounts for `N` through the snapshot it is computed on).
fn drift_score<F, S>(spec: &S, snapshot: &StreamSnapshot<F>, pilot_epoch: u64, theta: &[f64]) -> f64
where
    F: FeatureVec,
    S: ModelClassSpec<F> + ?Sized,
{
    let Some(mark) = snapshot.mark_at(pilot_epoch) else {
        return f64::INFINITY;
    };
    let base_len = mark.holdout_len;
    let now_len = snapshot.holdout_len();
    if now_len <= base_len {
        return 0.0;
    }
    if base_len == 0 {
        return f64::INFINITY;
    }
    let holdout = snapshot.holdout_dataset();
    let (base, fresh) = holdout.examples().split_at(base_len);
    let base_preds: Vec<f64> = base.iter().map(|r| spec.predict(theta, &r.x)).collect();
    let base_mean = base_preds.iter().sum::<f64>() / base_len as f64;
    let fresh_mean =
        fresh.iter().map(|r| spec.predict(theta, &r.x)).sum::<f64>() / fresh.len() as f64;
    let base_var = base_preds
        .iter()
        .map(|p| {
            let d = p - base_mean;
            d * d
        })
        .sum::<f64>()
        / base_len as f64;
    (fresh_mean - base_mean).abs() / base_var.sqrt().max(1e-9)
}

/// Build the [`DegradationRung::StalePilot`] response: the cached `m₀`
/// served as-is, reporting the honestly recomputed curve ε at `n = n₀`
/// on the pilot's **own** snapshot — exactly the value
/// [`Coordinator::curve_epsilon_at`](crate::Coordinator::curve_epsilon_at)
/// returns for `(train_e, holdout_e, seed, n₀)` on that snapshot's
/// datasets (both call [`pilot_curve_epsilon`]).
fn stale_pilot_outcome<F, S>(
    config: &BlinkMlConfig,
    spec: &S,
    holdout: &Dataset<F>,
    pilot: &PilotState,
    full_n: usize,
    seed: u64,
) -> TrainingOutcome
where
    F: FeatureVec,
    S: ModelClassSpec<F> + ?Sized,
{
    let eps0 = pilot_curve_epsilon(config, spec, holdout, pilot, pilot.n0, full_n, seed);
    TrainingOutcome {
        model: pilot.model.clone(),
        sample_size: pilot.n0,
        full_data_size: full_n,
        initial_epsilon: eps0,
        estimated_epsilon: eps0,
        used_initial_model: true,
        phases: TrainingPhaseTimes::default(),
        search_probes: 0,
    }
}

/// The sweep workflow behind [`process_job`]: configure the contract and
/// run the sweep front end against the shard's pool, in the worker's
/// pipeline scratch (pilot cache bypassed — sweep pilots are
/// λ-dependent), with panics contained the same way training queries
/// contain them.
fn serve_sweep<F, S>(
    base: &BlinkMlConfig,
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    scratch: &mut PipelineScratch,
    query: &SweepQuery,
) -> Result<SweepResult, ServeError>
where
    F: FeatureVec,
    S: ModelClassSpec<F> + ?Sized,
{
    let config = query_config(base, query.epsilon, query.delta, query.initial_sample_size)?;
    contained(|| {
        sweep_grid(
            &config,
            spec,
            train,
            holdout,
            scratch,
            &query.lambdas,
            query.seed,
        )
    })
}

/// Run one job's work with panics contained to the job: a panic inside
/// it (e.g. a library bug or a pathological dataset) becomes
/// [`ServeError::WorkerPanicked`] instead of killing the worker, so one
/// bad query cannot take the queue down. Cancellation errors (the
/// fail-fast floor of the ladder) surface as
/// [`ServeError::DeadlineExceeded`]; sweeps carry no token, so only
/// training queries reach that arm.
fn contained<T>(work: impl FnOnce() -> Result<T, CoreError>) -> Result<T, ServeError> {
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(e)) if e.is_cancellation() => Err(ServeError::DeadlineExceeded),
        Ok(Err(e)) => Err(ServeError::Train(e)),
        Err(payload) => Err(ServeError::WorkerPanicked(panic_message(payload))),
    }
}

/// Render a caught panic payload for [`ServeError::WorkerPanicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::Coordinator;
    use crate::models::logreg::LogisticRegressionSpec;
    use blinkml_data::generators::synthetic_logistic;
    use blinkml_data::DenseVec;

    fn base_config(n0: usize) -> BlinkMlConfig {
        BlinkMlConfig {
            epsilon: 0.05,
            delta: 0.05,
            initial_sample_size: n0,
            holdout_size: 500,
            num_param_samples: 16,
            ..BlinkMlConfig::default()
        }
    }

    fn shard(version: u64, n: usize, seed: u64) -> DatasetShard<DenseVec> {
        let (data, _) = synthetic_logistic(n, 4, 2.0, seed);
        let split = data.split(600, 0, seed + 100);
        DatasetShard::new(version, split.train, split.holdout)
    }

    #[test]
    fn served_response_matches_cold_coordinator() {
        let sh = shard(1, 6_000, 21);
        let spec = LogisticRegressionSpec::new(1e-3);
        let server = Server::spawn(
            base_config(300),
            ServeConfig::default(),
            spec.clone(),
            vec![sh.clone()],
        )
        .unwrap();
        for (eps, delta, seed) in [(0.20, 0.05, 3), (0.03, 0.05, 3), (0.10, 0.10, 4)] {
            let served = server.query(Query::new(1, eps, delta, seed)).unwrap();
            let mut cfg = base_config(300);
            cfg.epsilon = eps;
            cfg.delta = delta;
            let cold = Coordinator::new(cfg)
                .train_with_holdout(&spec, &sh.train, &sh.holdout, seed)
                .unwrap();
            assert_eq!(served.outcome.sample_size, cold.sample_size);
            assert_eq!(served.outcome.initial_epsilon, cold.initial_epsilon);
            assert_eq!(served.outcome.estimated_epsilon, cold.estimated_epsilon);
            assert_eq!(served.outcome.model.parameters(), cold.model.parameters());
        }
        let stats = server.stats();
        // Seeds {3, 4} → two pilots; the second ε at seed 3 hits.
        assert_eq!(stats.pilot_trains, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.inflight, 0);
        server.shutdown();
    }

    #[test]
    fn served_sweep_matches_session_and_counts() {
        let sh = shard(1, 6_000, 41);
        let spec = LogisticRegressionSpec::new(1e-3);
        let server = Server::spawn(
            base_config(300),
            ServeConfig::default(),
            spec.clone(),
            vec![sh.clone()],
        )
        .unwrap();
        let lambdas = vec![0.1, 1e-3];
        let served = server
            .sweep(SweepQuery::new(1, lambdas.clone(), 0.03, 0.05, 7))
            .unwrap();
        assert!(served.result.fused);
        let session = crate::session::Session::new(
            base_config(300),
            &spec,
            sh.train.as_ref(),
            sh.holdout.as_ref(),
        )
        .unwrap();
        let local = session.sweep(&lambdas, 0.03, 0.05, 7).unwrap();
        for (a, b) in served.result.points.iter().zip(&local.points) {
            assert_eq!(a.outcome.model.parameters(), b.outcome.model.parameters());
            assert_eq!(a.outcome.sample_size, b.outcome.sample_size);
            assert_eq!(a.outcome.initial_epsilon, b.outcome.initial_epsilon);
            assert_eq!(a.outcome.estimated_epsilon, b.outcome.estimated_epsilon);
        }
        let stats = server.stats();
        assert_eq!(stats.sweep_queries, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cached_pilots, 0, "sweeps bypass the pilot cache");
        server.shutdown();
    }

    #[test]
    fn unknown_dataset_fails_fast() {
        let server = Server::spawn(
            base_config(200),
            ServeConfig::default(),
            LogisticRegressionSpec::new(1e-3),
            vec![shard(7, 3_000, 5)],
        )
        .unwrap();
        assert!(matches!(
            server.submit(Query::new(8, 0.1, 0.05, 1)),
            Err(ServeError::UnknownDataset(8))
        ));
        assert_eq!(server.stats().submitted, 0);
    }

    #[test]
    fn invalid_contract_resolves_to_error_without_wedging() {
        let server = Server::spawn(
            base_config(200),
            ServeConfig::default(),
            LogisticRegressionSpec::new(1e-3),
            vec![shard(1, 3_000, 6)],
        )
        .unwrap();
        let err = server.query(Query::new(1, 0.0, 0.05, 1));
        assert!(matches!(err, Err(ServeError::Train(_))), "{err:?}");
        // The queue keeps serving after the failure.
        let ok = server.query(Query::new(1, 0.2, 0.05, 1)).unwrap();
        assert!(ok.outcome.sample_size > 0);
        let stats = server.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.inflight, 0);
    }

    #[test]
    fn rejects_bad_spawn_inputs() {
        let spec = LogisticRegressionSpec::new(1e-3);
        // No datasets.
        assert!(Server::spawn(
            base_config(200),
            ServeConfig::default(),
            spec.clone(),
            Vec::<DatasetShard<DenseVec>>::new(),
        )
        .is_err());
        // Duplicate versions.
        assert!(Server::spawn(
            base_config(200),
            ServeConfig::default(),
            spec.clone(),
            vec![shard(1, 2_000, 1), shard(1, 2_000, 2)],
        )
        .is_err());
        // Empty pool / holdout.
        let empty = Arc::new(Dataset::<DenseVec>::new("empty", 4, vec![]));
        let sh = shard(1, 2_000, 3);
        assert!(Server::spawn(
            base_config(200),
            ServeConfig::default(),
            spec.clone(),
            vec![DatasetShard::from_arcs(
                1,
                empty.clone(),
                sh.holdout.clone()
            )],
        )
        .is_err());
        assert!(Server::spawn(
            base_config(200),
            ServeConfig::default(),
            spec.clone(),
            vec![DatasetShard::from_arcs(1, sh.train.clone(), empty)],
        )
        .is_err());
        // Static rows pass the same ingest gate as streamed ones: an
        // out-of-domain label, a NaN feature, and a holdout of another
        // dimension each fail spawn with a typed error.
        let with_row = |data: &Dataset<DenseVec>, x: Vec<f64>, y: f64| {
            let mut rows = data.examples().to_vec();
            rows.push(blinkml_data::Example {
                x: DenseVec::new(x),
                y,
            });
            Arc::new(Dataset::new("bad", 4, rows))
        };
        let (narrow, _) = synthetic_logistic(50, 3, 2.0, 4);
        for (train, holdout) in [
            (with_row(&sh.train, vec![0.5; 4], 2.0), sh.holdout.clone()),
            (
                sh.train.clone(),
                with_row(&sh.holdout, vec![f64::NAN; 4], 1.0),
            ),
            (sh.train.clone(), Arc::new(narrow)),
        ] {
            let err = Server::spawn(
                base_config(200),
                ServeConfig::default(),
                spec.clone(),
                vec![DatasetShard::from_arcs(1, train, holdout)],
            )
            .err();
            assert!(matches!(err, Some(CoreError::InvalidRow { .. })), "{err:?}");
        }
    }

    /// The test wrappers forward the inner spec's label domain, so a
    /// wrapped logistic spec still gates shard labels to {0, 1}.
    #[test]
    fn wrapped_specs_keep_the_inner_label_domain() {
        use crate::testing::{HookedSpec, MultiLambdaPanicSpec, PerRowLoop};
        fn spawn_err<S: ModelClassSpec<DenseVec> + 'static>(spec: S) -> Option<CoreError> {
            let sh = shard(1, 2_000, 3);
            let mut rows = sh.train.examples().to_vec();
            rows.push(blinkml_data::Example {
                x: DenseVec::new(vec![0.5; 4]),
                y: 2.0,
            });
            let train = Arc::new(Dataset::new("bad", 4, rows));
            let bad = DatasetShard::from_arcs(1, train, sh.holdout.clone());
            Server::spawn(base_config(200), ServeConfig::default(), spec, vec![bad]).err()
        }
        let spec = LogisticRegressionSpec::new(1e-3);
        for (name, err) in [
            (
                "HookedSpec",
                spawn_err(HookedSpec::new(spec.clone(), |_| {})),
            ),
            ("PerRowLoop", spawn_err(PerRowLoop(spec.clone()))),
            (
                "MultiLambdaPanicSpec",
                spawn_err(MultiLambdaPanicSpec(Box::new(spec.clone()))),
            ),
        ] {
            assert!(
                matches!(err, Some(CoreError::InvalidRow { .. })),
                "{name}: {err:?}"
            );
        }
    }

    #[test]
    fn aborted_sweeps_count_as_sweep_queries() {
        let mut server = Server::spawn(
            base_config(200),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            LogisticRegressionSpec::new(1e-3),
            vec![shard(1, 3_000, 9)],
        )
        .unwrap();
        let pending: Vec<_> = (0..4)
            .map(|i| {
                server
                    .submit_sweep(SweepQuery::new(1, vec![0.1, 1e-3], 0.1, 0.05, i))
                    .unwrap()
            })
            .collect();
        server.close_and_join(true);
        let closed = pending
            .into_iter()
            .filter(|h| matches!(h.try_wait(), Some(Err(ServeError::Closed))))
            .count() as u64;
        assert!(closed >= 1, "an idle 1-worker server cannot drain 4 sweeps");
        let stats = server.stats();
        assert_eq!(stats.sweep_queries, 4, "every resolved sweep counts");
        assert_eq!(stats.completed + stats.failed, 4);
        assert_eq!(stats.failed, closed);
    }

    #[test]
    fn advance_epoch_on_a_static_shard_retires_nothing() {
        let path = std::env::temp_dir().join(format!(
            "blinkml-serve-static-advance-{}.bin",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let serve = ServeConfig {
            pilot_sidecar: Some(path.clone()),
            ..ServeConfig::default()
        };
        let sh = shard(1, 3_000, 12);
        let spawn = || {
            Server::spawn(
                base_config(200),
                serve.clone(),
                LogisticRegressionSpec::new(1e-3),
                vec![sh.clone()],
            )
            .unwrap()
        };
        let q = Query::new(1, 0.2, 0.05, 3);
        let server = spawn();
        let cold = server.query(q).unwrap();
        assert_eq!(server.advance_epoch(1).unwrap(), 0);
        assert!(matches!(
            server.advance_epoch(2),
            Err(ServeError::UnknownDataset(2))
        ));
        let stats = server.stats();
        assert_eq!((stats.cached_pilots, stats.pilots_retired), (1, 0));
        server.shutdown();

        // The pilot survives the advance and restores from the sidecar.
        let server = spawn();
        assert_eq!(server.stats().warm_pilots, 1);
        let warm = server.query(q).unwrap();
        assert_eq!(warm.epoch, 0);
        assert_eq!(
            warm.outcome.model.parameters(),
            cold.outcome.model.parameters()
        );
        let stats = server.stats();
        assert_eq!((stats.pilot_trains, stats.cache_hits), (0, 1));
        server.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    /// ε₀, ε̂ and θ of an outcome, as bits.
    fn outcome_bits(o: &TrainingOutcome) -> Vec<u64> {
        [o.initial_epsilon, o.estimated_epsilon]
            .iter()
            .chain(o.model.parameters())
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn persist_pilots_checkpoints_the_cache_for_a_restart() {
        let spec = LogisticRegressionSpec::new(1e-3);
        let sh = shard(1, 3_000, 14);
        let spawn = |serve: ServeConfig| {
            Server::spawn(base_config(200), serve, spec.clone(), vec![sh.clone()]).unwrap()
        };
        // No sidecar configured: a typed error.
        let server = spawn(ServeConfig::default());
        server.query(Query::new(1, 0.2, 0.05, 3)).unwrap();
        assert!(matches!(
            server.persist_pilots(),
            Err(CoreError::InvalidConfig(_))
        ));
        server.shutdown();

        let path =
            std::env::temp_dir().join(format!("blinkml-serve-persist-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let serve = ServeConfig {
            pilot_sidecar: Some(path.clone()),
            ..ServeConfig::default()
        };
        let server = spawn(serve.clone());
        let cold: Vec<_> = [3, 4]
            .map(|seed| server.query(Query::new(1, 0.2, 0.05, seed)).unwrap())
            .into();
        assert_eq!(server.persist_pilots().unwrap(), 2);
        // A second server spawned while the first still runs warms from
        // the checkpoint alone, not from a shutdown write.
        let restarted = spawn(serve);
        assert_eq!(restarted.stats().warm_pilots, 2);
        for (seed, cold) in [3, 4].into_iter().zip(&cold) {
            let warm = restarted.query(Query::new(1, 0.2, 0.05, seed)).unwrap();
            assert_eq!(
                outcome_bits(&warm.outcome),
                outcome_bits(&cold.outcome),
                "seed {seed}"
            );
        }
        let stats = restarted.stats();
        assert_eq!((stats.pilot_trains, stats.cache_hits), (0, 2));
        restarted.shutdown();
        server.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retire_dataset_drops_and_blocks_only_that_dataset() {
        let spec = LogisticRegressionSpec::new(1e-3);
        let (a, b) = (shard(1, 3_000, 15), shard(2, 3_000, 16));
        let server = Server::spawn(
            base_config(200),
            ServeConfig::default(),
            spec.clone(),
            vec![a.clone(), b],
        )
        .unwrap();
        let q1 = Query::new(1, 0.2, 0.05, 3);
        let q2 = Query::new(2, 0.2, 0.05, 3);
        server.query(q1).unwrap();
        server.query(q2).unwrap();
        assert_eq!(server.stats().cached_pilots, 2);

        assert_eq!(server.retire_dataset(1), 1);
        assert_eq!(server.retire_dataset(99), 0, "unknown ids retire nothing");
        let stats = server.stats();
        assert_eq!((stats.cached_pilots, stats.pilots_retired), (1, 1));
        // Dataset 2's pilot survives.
        server.query(q2).unwrap();
        assert_eq!(server.stats().cache_hits, 1);

        // Dataset 1 stays queryable and answers as a cold run, but its
        // pilots are never admitted again: each query retrains.
        let mut cfg = base_config(200);
        cfg.epsilon = 0.2;
        let cold = Coordinator::new(cfg)
            .train_with_holdout(&spec, &a.train, &a.holdout, 3)
            .unwrap();
        for round in 0..2 {
            let served = server.query(q1).unwrap();
            assert_eq!(served.outcome.sample_size, cold.sample_size);
            assert_eq!(
                outcome_bits(&served.outcome),
                outcome_bits(&cold),
                "round {round}"
            );
            let stats = server.stats();
            assert_eq!(stats.pilot_trains, 3 + round, "round {round}");
            assert_eq!(stats.cached_pilots, 1, "round {round}");
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_drain_rejects_new_queries_but_drains_accepted_ones() {
        let server = Server::spawn(
            base_config(200),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            LogisticRegressionSpec::new(1e-3),
            vec![shard(1, 3_000, 9)],
        )
        .unwrap();
        let pending: Vec<_> = (0..3)
            .map(|i| server.submit(Query::new(1, 0.25, 0.05, i)).unwrap())
            .collect();
        server.shutdown_drain();
        for handle in pending {
            assert!(handle.wait().is_ok(), "accepted queries resolve");
        }
    }

    #[test]
    fn abort_shutdown_resolves_every_queued_ticket_as_closed() {
        // A saturated single worker: whatever job it has started is
        // drained normally; everything still queued resolves `Closed`.
        let server = Server::spawn(
            base_config(200),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            LogisticRegressionSpec::new(1e-3),
            vec![shard(1, 3_000, 9)],
        )
        .unwrap();
        let pending: Vec<_> = (0..4)
            .map(|i| server.submit(Query::new(1, 0.25, 0.05, i)).unwrap())
            .collect();
        server.shutdown();
        let mut resolved = 0;
        let mut closed = 0;
        for handle in pending {
            match handle.wait() {
                Ok(_) => resolved += 1,
                Err(ServeError::Closed) => closed += 1,
                Err(e) => panic!("unexpected shutdown error: {e}"),
            }
        }
        // No ticket may be lost; at least the still-queued tail aborts.
        assert_eq!(resolved + closed, 4, "every ticket resolves exactly once");
        assert!(closed >= 1, "an idle 1-worker server cannot drain 4 jobs");
    }

    #[test]
    fn per_query_n0_override_is_part_of_the_key() {
        let sh = shard(1, 5_000, 31);
        let server = Server::spawn(
            base_config(300),
            ServeConfig::default(),
            LogisticRegressionSpec::new(1e-3),
            vec![sh],
        )
        .unwrap();
        let q = Query::new(1, 0.2, 0.05, 2);
        server.query(q).unwrap();
        server.query(q.with_initial_sample_size(400)).unwrap();
        let stats = server.stats();
        assert_eq!(stats.pilot_trains, 2, "distinct n₀ → distinct pilots");
        assert_eq!(stats.cached_pilots, 2);
    }
}

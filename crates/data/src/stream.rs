//! Streaming ingest: epoch-versioned append-only pools with immutable
//! snapshots.
//!
//! BlinkML's (ε, δ) contract is a statement about **one** pool: the
//! pilot statistics, the sample-size search, and the final model must
//! all see the same `N` rows, or the reported ε is a lie. Under write
//! traffic the coordinator therefore never reads a live pool directly.
//! Writers append whole row blocks to a [`StreamingPool`], each append
//! advancing a monotone **epoch**; readers take a [`StreamSnapshot`] —
//! an immutable prefix of the row logs pinned at one epoch — and run
//! the entire train/estimate/report workflow against that snapshot.
//!
//! Two properties make the snapshot contract cheap and exact:
//!
//! * **Append-only prefixes.** Rows are only ever appended, so "the
//!   pool at epoch `e`" is exactly the first `train_len(e)` rows in
//!   insertion order. Each side of the pool is one copy-on-write row
//!   log; a snapshot is three `Arc` clones and its [`Dataset`]s are
//!   `O(1)` prefix views of those logs — no row is ever copied to
//!   serve a query. An append that races a pinned snapshot copies the
//!   log it extends once (the snapshot keeps the old allocation).
//! * **Epoch-as-prefix bit-equality.** A snapshot's dataset is an
//!   ordinary [`Dataset`] of exactly the epoch's length, so every
//!   deterministic downstream stage (`sample_indices` over the pool
//!   length, chunked reductions, the ε oracles) produces bitwise the
//!   result a cold run on that dataset would — concurrency is
//!   invisible in the served numbers.
//!
//! Appends pass through a validation gate before any row becomes
//! visible: non-finite features and labels outside the model class's
//! [`LabelDomain`] are rejected atomically ([`IngestPolicy::Reject`])
//! or skipped with a per-row receipt ([`IngestPolicy::Quarantine`]),
//! so a poisoned producer can never corrupt pooled statistics.

use crate::dataset::{Dataset, Example};
use crate::features::FeatureVec;
use crate::wal::{self, DurableOptions, WalError, WalRecord, WalRow, WalWriter};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// The set of labels a model class accepts, enforced at append time.
///
/// Each `ModelClassSpec` advertises its domain; the ingest gate
/// validates labels against it so rows that would silently corrupt the
/// training objective (a label of 3.0 fed to logistic regression, a
/// negative count fed to Poisson) are caught at the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelDomain {
    /// Any finite real value (regression).
    AnyFinite,
    /// Exactly `0.0` or `1.0` (binary classification).
    Binary01,
    /// An integer class index in `0..num_classes` (multiclass).
    ClassIndex(usize),
    /// A non-negative integer count (Poisson regression).
    NonNegativeCount,
    /// The label is ignored by the model (unsupervised); any value —
    /// even NaN — passes.
    Unused,
}

impl LabelDomain {
    /// Check one label against the domain; `Err` carries a
    /// human-readable reason.
    pub fn validate(&self, y: f64) -> Result<(), String> {
        match *self {
            LabelDomain::Unused => Ok(()),
            LabelDomain::AnyFinite => {
                if y.is_finite() {
                    Ok(())
                } else {
                    Err(format!("label {y} is not finite"))
                }
            }
            LabelDomain::Binary01 => {
                if y == 0.0 || y == 1.0 {
                    Ok(())
                } else {
                    Err(format!("label {y} is not in {{0, 1}}"))
                }
            }
            LabelDomain::ClassIndex(k) => {
                if y.is_finite() && y.fract() == 0.0 && y >= 0.0 && (y as usize) < k {
                    Ok(())
                } else {
                    Err(format!("label {y} is not a class index in 0..{k}"))
                }
            }
            LabelDomain::NonNegativeCount => {
                if y.is_finite() && y.fract() == 0.0 && y >= 0.0 {
                    Ok(())
                } else {
                    Err(format!("label {y} is not a non-negative count"))
                }
            }
        }
    }
}

/// What the ingest gate does with an invalid row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPolicy {
    /// Reject the **whole block** on the first invalid row: either
    /// every row of an append becomes visible or none does.
    #[default]
    Reject,
    /// Skip invalid rows, admit the rest, and report the skipped
    /// indices in the [`AppendReceipt`].
    Quarantine,
}

/// A typed ingest failure (only produced under [`IngestPolicy::Reject`];
/// quarantine never fails, it reports).
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// Row `index` of the appended block failed validation.
    InvalidRow {
        /// Index of the offending row within the appended block.
        index: usize,
        /// Human-readable reason (non-finite feature, label domain).
        reason: String,
    },
    /// Row `index` has a feature dimension other than the pool's.
    DimMismatch {
        /// Index of the offending row within the appended block.
        index: usize,
        /// The pool's feature dimension.
        expected: usize,
        /// The row's feature dimension.
        found: usize,
    },
    /// A durable pool could not write the append's WAL group. The rows
    /// were **not** admitted: in-memory state never mutates before its
    /// log group is on disk, so a failed append is invisible.
    Durability(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::InvalidRow { index, reason } => {
                write!(f, "invalid row {index}: {reason}")
            }
            IngestError::DimMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "row {index} has dimension {found} but the pool has {expected}"
            ),
            IngestError::Durability(reason) => {
                write!(f, "append not durable, rows not admitted: {reason}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// The retained record of one append's quarantined rows.
///
/// Receipts returned inline by [`StreamingPool::append`] are also kept
/// in pool state (and persisted by durable pools), so an operator can
/// audit every skipped row even across a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineReceipt {
    /// The append attempt's monotone sequence number (0 = seed rows).
    pub seq: u64,
    /// The pool epoch after the append was applied.
    pub epoch: u64,
    /// Whether the append targeted the holdout side.
    pub holdout: bool,
    /// Block-relative indices of the skipped rows.
    pub quarantined: Vec<usize>,
}

/// The pool's row counts at one epoch: the watermark a snapshot pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochMark {
    /// The epoch this mark describes.
    pub epoch: u64,
    /// Training rows visible at this epoch.
    pub train_len: usize,
    /// Holdout rows visible at this epoch.
    pub holdout_len: usize,
}

/// One side's shared, copy-on-write row log.
type RowLog<F> = Arc<Vec<Example<F>>>;

/// Shared append-only state behind the pool's `RwLock`.
///
/// The two row logs and the mark history are copy-on-write `Arc`s:
/// snapshots pin them by refcount, and an append extends them in place
/// (`Arc::make_mut`) when no snapshot holds them, or copies them once
/// when one does — the pinned snapshot keeps the old allocation.
struct PoolState<F> {
    train: RowLog<F>,
    holdout: RowLog<F>,
    epoch: u64,
    /// One mark per epoch, in epoch order (`marks[e] == epoch e`).
    marks: Arc<Vec<EpochMark>>,
    /// Monotone append-attempt counter (0 = the seed rows); every
    /// append that admits or quarantines at least one row bumps it.
    seq: u64,
    /// Retained quarantine receipts, in sequence order.
    receipts: Vec<QuarantineReceipt>,
    /// WAL machinery, present only for durable pools.
    durable: Option<Durability<F>>,
}

/// The write-ahead half of a durable pool. Lives inside `PoolState` so
/// log order is state order: the append lock serializes both.
struct Durability<F> {
    dir: PathBuf,
    writer: WalWriter,
    /// Monomorphized row encoder, captured at construction where the
    /// `WalRow` bound is in scope (plain appends stay bound-free).
    encode_row: fn(&Example<F>, &mut Vec<u8>),
    /// Reused group-encode buffer: append groups run to hundreds of
    /// kilobytes, where a fresh `Vec` per append costs an mmap round
    /// trip plus first-touch page faults on the hot path.
    encode_buf: Vec<u8>,
    compact_every: Option<u64>,
    appends_since_compact: u64,
}

/// What an append did: the epoch it produced and which rows it skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendReceipt {
    /// The pool epoch after the append (unchanged when no row was
    /// admitted).
    pub epoch: u64,
    /// Rows admitted to the pool.
    pub accepted: usize,
    /// Block-relative indices of quarantined rows (always empty under
    /// [`IngestPolicy::Reject`]).
    pub quarantined: Vec<usize>,
}

/// An epoch-versioned append-only pool of train + holdout rows.
///
/// Writers call [`StreamingPool::append`] / `append_holdout`; each
/// admitted block bumps the epoch. Readers call
/// [`StreamingPool::snapshot`] (or `snapshot_at`) and work exclusively
/// against the returned [`StreamSnapshot`]. The lock is held only to
/// extend a row log or bump three refcounts — never across training.
pub struct StreamingPool<F> {
    name: Arc<str>,
    dim: usize,
    domain: LabelDomain,
    policy: IngestPolicy,
    state: RwLock<PoolState<F>>,
}

impl<F: FeatureVec> StreamingPool<F> {
    /// Build a pool from initial train/holdout rows. The initial rows
    /// pass through the same validation gate as appends and form
    /// epoch 0.
    pub fn new(
        name: impl Into<String>,
        dim: usize,
        train: Vec<Example<F>>,
        holdout: Vec<Example<F>>,
        domain: LabelDomain,
        policy: IngestPolicy,
    ) -> Result<Self, IngestError> {
        let (train, train_q) = validate_rows(train, dim, domain, policy)?;
        let (holdout, holdout_q) = validate_rows(holdout, dim, domain, policy)?;
        let receipts = seed_receipts(train_q, holdout_q);
        Ok(StreamingPool::seeded(
            name.into(),
            dim,
            Arc::new(train),
            Arc::new(holdout),
            receipts,
            domain,
            policy,
        ))
    }

    /// Build a pool seeded from existing datasets: their rows pass the
    /// same gate as appends (the train set's dimension is the pool's)
    /// and form epoch 0. When the gate admits every row of a dataset
    /// that views its whole row vector, the pool adopts that vector by
    /// refcount instead of copying it. While the caller still holds that
    /// dataset, the first append to the adopted side pays the one O(N)
    /// copy of its seed rows, under the write lock, and leaves the
    /// caller's dataset untouched; a pool that should append cheaply from
    /// the start is seeded with [`StreamingPool::new`] instead. A prefix
    /// view copies only its visible rows, so a hidden tail never enters
    /// the log.
    pub fn from_datasets(
        train: &Dataset<F>,
        holdout: &Dataset<F>,
        domain: LabelDomain,
        policy: IngestPolicy,
    ) -> Result<Self, IngestError> {
        let dim = train.dim();
        let (train_log, train_q) = adopt_rows(train, dim, domain, policy)?;
        let (holdout_log, holdout_q) = adopt_rows(holdout, dim, domain, policy)?;
        let receipts = seed_receipts(train_q, holdout_q);
        Ok(StreamingPool::seeded(
            train.name().to_string(),
            dim,
            train_log,
            holdout_log,
            receipts,
            domain,
            policy,
        ))
    }

    /// An in-memory pool at epoch 0 over already-validated row logs.
    fn seeded(
        name: String,
        dim: usize,
        train: RowLog<F>,
        holdout: RowLog<F>,
        receipts: Vec<QuarantineReceipt>,
        domain: LabelDomain,
        policy: IngestPolicy,
    ) -> Self {
        let marks = vec![EpochMark {
            epoch: 0,
            train_len: train.len(),
            holdout_len: holdout.len(),
        }];
        StreamingPool {
            name: Arc::from(name),
            dim,
            domain,
            policy,
            state: RwLock::new(PoolState {
                train,
                holdout,
                epoch: 0,
                marks: Arc::new(marks),
                seq: 0,
                receipts,
                durable: None,
            }),
        }
    }

    /// Pool name (shared with every snapshot's datasets).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature dimension every row must match.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The label domain the gate enforces.
    pub fn domain(&self) -> LabelDomain {
        self.domain
    }

    /// The configured invalid-row policy.
    pub fn policy(&self) -> IngestPolicy {
        self.policy
    }

    /// Current epoch (monotone; bumped by every admitted append).
    pub fn epoch(&self) -> u64 {
        self.state.read().expect("pool lock").epoch
    }

    /// Append a block of training rows. All-or-nothing under
    /// [`IngestPolicy::Reject`]; under `Quarantine` invalid rows are
    /// skipped and reported. An append that admits at least one row
    /// bumps the epoch; an empty (or fully quarantined) append leaves
    /// the pool untouched.
    pub fn append(&self, rows: Vec<Example<F>>) -> Result<AppendReceipt, IngestError> {
        self.append_inner(rows, false)
    }

    /// Append a block of holdout rows (same gate and epoch semantics as
    /// [`StreamingPool::append`]). Fresh holdout rows are what the
    /// serve layer's drift test scores, so streams that want drift
    /// detection should tee a fraction of ingest here.
    pub fn append_holdout(&self, rows: Vec<Example<F>>) -> Result<AppendReceipt, IngestError> {
        self.append_inner(rows, true)
    }

    fn append_inner(
        &self,
        rows: Vec<Example<F>>,
        holdout: bool,
    ) -> Result<AppendReceipt, IngestError> {
        let (rows, quarantined) = validate_rows(rows, self.dim, self.domain, self.policy)?;
        let mut st = self.state.write().expect("pool lock");
        if rows.is_empty() && quarantined.is_empty() {
            // A genuinely empty append: no record, no state change.
            return Ok(AppendReceipt {
                epoch: st.epoch,
                accepted: 0,
                quarantined,
            });
        }
        let seq = st.seq + 1;
        let accepted = rows.len();
        let next_epoch = if accepted > 0 { st.epoch + 1 } else { st.epoch };
        let prev = *st.marks.last().expect("mark 0");
        let mark = (accepted > 0).then_some(EpochMark {
            epoch: next_epoch,
            train_len: prev.train_len + if holdout { 0 } else { accepted },
            holdout_len: prev.holdout_len + if holdout { accepted } else { 0 },
        });

        // WAL-ahead: the whole group hits the log (one write) before
        // any in-memory mutation; a failed write admits nothing.
        if let Some(dur) = st.durable.as_mut() {
            let mut frames = std::mem::take(&mut dur.encode_buf);
            wal::encode_group_into(
                &mut frames,
                &wal::GroupMeta {
                    seq,
                    holdout,
                    receipt_epoch: next_epoch,
                    mark,
                },
                &rows,
                &quarantined,
                dur.encode_row,
            );
            let written = dur.writer.append_group(&frames);
            dur.encode_buf = frames;
            written.map_err(|e| IngestError::Durability(e.to_string()))?;
        }

        st.seq = seq;
        if !quarantined.is_empty() {
            st.receipts.push(QuarantineReceipt {
                seq,
                epoch: next_epoch,
                holdout,
                quarantined: quarantined.clone(),
            });
        }
        if accepted > 0 {
            let log = if holdout {
                &mut st.holdout
            } else {
                &mut st.train
            };
            Arc::make_mut(log).extend(rows);
            st.epoch = next_epoch;
            Arc::make_mut(&mut st.marks).push(mark.expect("mark when rows admitted"));
        }
        if let Some(dur) = st.durable.as_mut() {
            dur.appends_since_compact += 1;
            if dur
                .compact_every
                .is_some_and(|k| dur.appends_since_compact >= k.max(1))
            {
                // Compaction is an optimization over a log that is
                // already durable; a failed attempt leaves the log
                // intact and retries on the next threshold crossing.
                let _ = self.compact_locked(&mut st);
            }
        }
        Ok(AppendReceipt {
            epoch: st.epoch,
            accepted,
            quarantined,
        })
    }

    /// Pin the current epoch as an immutable snapshot.
    ///
    /// `O(1)`: three refcount bumps (train log, holdout log, marks)
    /// under the read lock, no row or mark copies. While the snapshot
    /// lives, the next append to each log it pins copies that log once
    /// (copy-on-write) instead of extending it in place.
    pub fn snapshot(&self) -> StreamSnapshot<F> {
        let st = self.state.read().expect("pool lock");
        self.pin(&st, st.epoch)
    }

    /// Pin a **past** epoch as a snapshot; `None` when the epoch does
    /// not exist (yet). Because the pool is append-only, every past
    /// epoch stays reconstructible as a prefix. Same `O(1)` cost as
    /// [`StreamingPool::snapshot`].
    pub fn snapshot_at(&self, epoch: u64) -> Option<StreamSnapshot<F>> {
        let st = self.state.read().expect("pool lock");
        (epoch <= st.epoch).then(|| self.pin(&st, epoch))
    }

    fn pin(&self, st: &PoolState<F>, epoch: u64) -> StreamSnapshot<F> {
        StreamSnapshot {
            name: self.name.clone(),
            dim: self.dim,
            train: st.train.clone(),
            holdout: st.holdout.clone(),
            marks: st.marks.clone(),
            epoch,
        }
    }

    /// The watermark for one epoch (`None` when it doesn't exist yet).
    pub fn mark_at(&self, epoch: u64) -> Option<EpochMark> {
        let st = self.state.read().expect("pool lock");
        st.marks.get(epoch as usize).copied()
    }

    /// The full watermark history, one mark per epoch in order.
    pub fn marks(&self) -> Vec<EpochMark> {
        self.state.read().expect("pool lock").marks.to_vec()
    }

    /// All retained quarantine receipts, in sequence order (durable
    /// pools persist these across restarts).
    pub fn receipts(&self) -> Vec<QuarantineReceipt> {
        self.state.read().expect("pool lock").receipts.clone()
    }

    /// The latest append-attempt sequence number (0 = only seed rows).
    pub fn seq(&self) -> u64 {
        self.state.read().expect("pool lock").seq
    }

    /// Whether this pool writes a WAL.
    pub fn is_durable(&self) -> bool {
        self.state.read().expect("pool lock").durable.is_some()
    }

    /// Current WAL length in bytes (0 for in-memory pools). Crash-
    /// injection harnesses use this to script truncation offsets.
    pub fn wal_len(&self) -> u64 {
        let st = self.state.read().expect("pool lock");
        st.durable.as_ref().map_or(0, |d| d.writer.len())
    }

    /// fsync the WAL now, regardless of the configured [`SyncPolicy`]
    /// (no-op for in-memory pools).
    ///
    /// [`SyncPolicy`]: crate::wal::SyncPolicy
    pub fn sync(&self) -> Result<(), WalError> {
        let mut st = self.state.write().expect("pool lock");
        match st.durable.as_mut() {
            Some(dur) => dur.writer.sync(),
            None => Ok(()),
        }
    }

    /// Compact now: atomically replace the snapshot with the full pool
    /// state and truncate the log (no-op for in-memory pools).
    pub fn compact(&self) -> Result<(), WalError> {
        let mut st = self.state.write().expect("pool lock");
        self.compact_locked(&mut st)
    }

    fn compact_locked(&self, st: &mut PoolState<F>) -> Result<(), WalError> {
        let Some(encode_row) = st.durable.as_ref().map(|d| d.encode_row) else {
            return Ok(());
        };
        let snapshot = self.snapshot_state(st);
        let dur = st.durable.as_mut().expect("durable checked above");
        wal::write_snapshot(&dur.dir, &snapshot, encode_row)?;
        // A crash here leaves the new snapshot plus a log whose
        // records all carry seq ≤ snapshot.seq: replay skips them.
        dur.writer.truncate_all()?;
        dur.appends_since_compact = 0;
        Ok(())
    }

    /// The on-disk snapshot image of `st`: one row block per side.
    fn snapshot_state(&self, st: &PoolState<F>) -> wal::SnapshotState<F> {
        wal::SnapshotState {
            name: self.name.to_string(),
            dim: self.dim,
            domain: self.domain,
            policy: self.policy,
            seq: st.seq,
            epoch: st.epoch,
            marks: st.marks.to_vec(),
            train_blocks: vec![st.train.clone()],
            holdout_blocks: vec![st.holdout.clone()],
            receipts: st.receipts.clone(),
        }
    }
}

impl<F: WalRow> StreamingPool<F> {
    /// Create a durable pool in (empty) directory `dir`: the seed rows
    /// pass the ingest gate, become the epoch-0 snapshot on disk, and
    /// every later append is WAL-logged before it is admitted.
    ///
    /// Fails with `AlreadyExists` if `dir` already holds a pool — use
    /// [`StreamingPool::open`] to recover one.
    #[allow(clippy::too_many_arguments)]
    pub fn create_durable(
        dir: impl AsRef<Path>,
        name: impl Into<String>,
        dim: usize,
        train: Vec<Example<F>>,
        holdout: Vec<Example<F>>,
        domain: LabelDomain,
        policy: IngestPolicy,
        options: DurableOptions,
    ) -> Result<Self, WalError> {
        let dir = dir.as_ref();
        let mut pool = StreamingPool::new(name, dim, train, holdout, domain, policy)?;
        std::fs::create_dir_all(dir)?;
        if wal::snapshot_path(dir).exists() {
            return Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already holds a pool; use open()", dir.display()),
            )));
        }
        let snapshot = pool.snapshot_state(&pool.state.read().expect("pool lock"));
        wal::write_snapshot(dir, &snapshot, wal::encode_example::<F>)?;
        let writer = WalWriter::create(&wal::log_path(dir), options.sync)?;
        pool.state.get_mut().expect("pool lock").durable = Some(Durability {
            dir: dir.to_path_buf(),
            writer,
            encode_row: wal::encode_example::<F>,
            encode_buf: Vec::new(),
            compact_every: options.compact_every,
            appends_since_compact: 0,
        });
        Ok(pool)
    }

    /// Recover a durable pool: read the snapshot, replay the log, and
    /// reconstruct **exactly** the committed epoch-prefix state.
    ///
    /// An interrupted trailing append (a torn final record, or a group
    /// the crash cut before its `Mark`) is truncated silently — it was
    /// never acknowledged. Damage anywhere else (a CRC mismatch with
    /// complete records after it, a malformed record, an inconsistent
    /// mark) fails with [`WalError::Corrupt`].
    pub fn open(dir: impl AsRef<Path>, options: DurableOptions) -> Result<Self, WalError> {
        let dir = dir.as_ref();
        let snap = wal::read_snapshot::<F>(dir)?;
        let (records, file_len) = wal::scan_log::<F>(&wal::log_path(dir))?;

        let mut epoch = snap.epoch;
        let mut marks = snap.marks;
        let mut train_log = join_blocks(snap.train_blocks);
        let mut holdout_log = join_blocks(snap.holdout_blocks);
        let mut receipts = snap.receipts;
        let mut seq = snap.seq;
        // Log offset of the last committed group boundary; everything
        // past it is an unacknowledged tail and gets truncated.
        let mut committed: u64 = 0;
        let mut pending: Option<(u64, bool, Vec<Example<F>>)> = None;
        let mut pending_receipt: Option<QuarantineReceipt> = None;
        for scanned in records {
            let end = scanned.end;
            let rec_seq = match &scanned.record {
                WalRecord::Append { seq, .. }
                | WalRecord::Receipt { seq, .. }
                | WalRecord::Mark { seq, .. } => *seq,
            };
            if rec_seq <= snap.seq {
                // Already materialized in the snapshot (a crash landed
                // between snapshot rename and log truncation).
                if pending.is_some() {
                    return Err(wal::corrupt(end, "stale record inside an open group"));
                }
                committed = end;
                continue;
            }
            match scanned.record {
                WalRecord::Append {
                    seq: s,
                    holdout,
                    rows,
                } => {
                    if pending.is_some() {
                        return Err(wal::corrupt(end, "append while a group is open"));
                    }
                    if rows.is_empty() {
                        return Err(wal::corrupt(end, "empty append record"));
                    }
                    pending = Some((s, holdout, rows));
                }
                WalRecord::Receipt {
                    seq: s,
                    holdout,
                    quarantined,
                } => match &pending {
                    Some((ps, ph, _)) => {
                        if *ps != s || *ph != holdout {
                            return Err(wal::corrupt(end, "receipt does not match its group"));
                        }
                        pending_receipt = Some(QuarantineReceipt {
                            seq: s,
                            epoch: epoch + 1,
                            holdout,
                            quarantined,
                        });
                    }
                    None => {
                        // A fully-quarantined append: receipt-only
                        // group, no epoch bump, commits by itself.
                        if s != seq + 1 {
                            return Err(wal::corrupt(end, "sequence gap at receipt"));
                        }
                        seq = s;
                        receipts.push(QuarantineReceipt {
                            seq: s,
                            epoch,
                            holdout,
                            quarantined,
                        });
                        committed = end;
                    }
                },
                WalRecord::Mark { seq: s, mark } => {
                    let Some((ps, holdout, rows)) = pending.take() else {
                        return Err(wal::corrupt(end, "mark without an open append"));
                    };
                    if ps != s {
                        return Err(wal::corrupt(end, "mark does not match its group"));
                    }
                    if s != seq + 1 {
                        return Err(wal::corrupt(end, "sequence gap at mark"));
                    }
                    let accepted = rows.len();
                    let prev = *marks.last().expect("mark 0");
                    let expect = EpochMark {
                        epoch: epoch + 1,
                        train_len: prev.train_len + if holdout { 0 } else { accepted },
                        holdout_len: prev.holdout_len + if holdout { accepted } else { 0 },
                    };
                    if mark != expect {
                        return Err(wal::corrupt(end, "inconsistent epoch mark"));
                    }
                    if holdout {
                        holdout_log.extend(rows);
                    } else {
                        train_log.extend(rows);
                    }
                    epoch += 1;
                    marks.push(mark);
                    seq = s;
                    if let Some(r) = pending_receipt.take() {
                        receipts.push(r);
                    }
                    committed = end;
                }
            }
        }
        // `pending` still open ⇒ the crash cut the group before its
        // Mark; a torn final frame leaves `committed < file_len` too.
        // Either way the unacknowledged tail is dropped silently:
        // the log is truncated back to the last committed boundary.
        debug_assert!(committed <= file_len);
        let writer = WalWriter::open_at(&wal::log_path(dir), committed, options.sync)?;

        Ok(StreamingPool {
            name: Arc::from(snap.name),
            dim: snap.dim,
            domain: snap.domain,
            policy: snap.policy,
            state: RwLock::new(PoolState {
                train: Arc::new(train_log),
                holdout: Arc::new(holdout_log),
                epoch,
                marks: Arc::new(marks),
                seq,
                receipts,
                durable: Some(Durability {
                    dir: dir.to_path_buf(),
                    writer,
                    encode_row: wal::encode_example::<F>,
                    encode_buf: Vec::new(),
                    compact_every: options.compact_every,
                    appends_since_compact: 0,
                }),
            }),
        })
    }
}

/// Concatenate a snapshot file's row blocks into one log. Compaction
/// writes one block per side, but the format allows any count (older
/// pool directories hold one block per append), so both layouts open.
fn join_blocks<F: Clone>(blocks: Vec<Arc<Vec<Example<F>>>>) -> Vec<Example<F>> {
    let mut blocks = blocks.into_iter().map(Arc::unwrap_or_clone);
    let mut log = blocks.next().unwrap_or_default();
    for block in blocks {
        log.extend(block);
    }
    log
}

/// Receipts for quarantined seed rows (sequence 0, epoch 0).
fn seed_receipts(train_q: Vec<usize>, holdout_q: Vec<usize>) -> Vec<QuarantineReceipt> {
    let mut receipts = Vec::new();
    if !train_q.is_empty() {
        receipts.push(QuarantineReceipt {
            seq: 0,
            epoch: 0,
            holdout: false,
            quarantined: train_q,
        });
    }
    if !holdout_q.is_empty() {
        receipts.push(QuarantineReceipt {
            seq: 0,
            epoch: 0,
            holdout: true,
            quarantined: holdout_q,
        });
    }
    receipts
}

impl<F> fmt::Debug for StreamingPool<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.read().expect("pool lock");
        f.debug_struct("StreamingPool")
            .field("name", &self.name)
            .field("dim", &self.dim)
            .field("epoch", &st.epoch)
            .field("train_len", &st.marks.last().expect("mark 0").train_len)
            .field("holdout_len", &st.marks.last().expect("mark 0").holdout_len)
            .finish()
    }
}

/// An immutable view of a [`StreamingPool`] pinned at one epoch.
///
/// Holds `Arc`s to the pool's train log, holdout log and mark history
/// as they were when it was taken, so it stays valid (and bitwise
/// stable) no matter how many appends happen afterwards: an append
/// copies a pinned log rather than touch it. Its train/holdout
/// [`Dataset`]s are `O(1)` prefix views of those logs — exactly the
/// rows visible at the snapshot's epoch, in insertion order, with no
/// row cloned.
#[derive(Clone)]
pub struct StreamSnapshot<F> {
    name: Arc<str>,
    dim: usize,
    train: Arc<Vec<Example<F>>>,
    holdout: Arc<Vec<Example<F>>>,
    marks: Arc<Vec<EpochMark>>,
    epoch: u64,
}

impl<F: FeatureVec> StreamSnapshot<F> {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Pool name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The watermark of this snapshot's epoch.
    pub fn mark(&self) -> EpochMark {
        self.marks[self.epoch as usize]
    }

    /// The watermark of any epoch at or before this snapshot's.
    pub fn mark_at(&self, epoch: u64) -> Option<EpochMark> {
        if epoch > self.epoch {
            return None;
        }
        self.marks.get(epoch as usize).copied()
    }

    /// Training rows visible at this epoch (the coordinator's `N`).
    pub fn train_len(&self) -> usize {
        self.mark().train_len
    }

    /// Holdout rows visible at this epoch.
    pub fn holdout_len(&self) -> usize {
        self.mark().holdout_len
    }

    /// The training prefix as an ordinary [`Dataset`]: an `O(1)` view
    /// of the pinned train log, no row copied.
    pub fn train_dataset(&self) -> Dataset<F> {
        Dataset::from_shared(
            self.name.clone(),
            self.dim,
            self.train.clone(),
            self.train_len(),
        )
    }

    /// The holdout prefix as an ordinary [`Dataset`]: an `O(1)` view
    /// of the pinned holdout log, no row copied. Slice its
    /// `examples()` for a window such as the drift test's "rows since
    /// epoch e".
    pub fn holdout_dataset(&self) -> Dataset<F> {
        Dataset::from_shared(
            self.name.clone(),
            self.dim,
            self.holdout.clone(),
            self.holdout_len(),
        )
    }
}

impl<F> fmt::Debug for StreamSnapshot<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamSnapshot")
            .field("name", &self.name)
            .field("epoch", &self.epoch)
            .field("mark", &self.marks.get(self.epoch as usize))
            .finish()
    }
}

/// Run the ingest gate over one block: returns the admitted rows plus
/// the quarantined indices, or the first failure under `Reject`.
fn validate_rows<F: FeatureVec>(
    rows: Vec<Example<F>>,
    dim: usize,
    domain: LabelDomain,
    policy: IngestPolicy,
) -> Result<(Vec<Example<F>>, Vec<usize>), IngestError> {
    let mut admitted = Vec::with_capacity(rows.len());
    let mut quarantined = Vec::new();
    for (index, row) in rows.into_iter().enumerate() {
        match (row_verdict(index, &row, dim, domain), policy) {
            (None, _) => admitted.push(row),
            (Some(err), IngestPolicy::Reject) => return Err(err),
            (Some(_), IngestPolicy::Quarantine) => quarantined.push(index),
        }
    }
    Ok((admitted, quarantined))
}

/// [`validate_rows`] for a seed dataset: the same verdicts, but when
/// the gate admits every row of a dataset that views its whole row
/// vector, that vector is adopted by refcount rather than copied.
fn adopt_rows<F: FeatureVec>(
    data: &Dataset<F>,
    dim: usize,
    domain: LabelDomain,
    policy: IngestPolicy,
) -> Result<(RowLog<F>, Vec<usize>), IngestError> {
    if let Some(rows) = data.whole_rows() {
        let clean = data
            .iter()
            .enumerate()
            .all(|(index, row)| row_verdict(index, row, dim, domain).is_none());
        if clean {
            return Ok((rows.clone(), Vec::new()));
        }
    }
    let (rows, quarantined) = validate_rows(data.examples().to_vec(), dim, domain, policy)?;
    Ok((Arc::new(rows), quarantined))
}

/// Why row `index` of a block fails the ingest gate (`None` = admit).
fn row_verdict<F: FeatureVec>(
    index: usize,
    row: &Example<F>,
    dim: usize,
    domain: LabelDomain,
) -> Option<IngestError> {
    if row.x.dim() != dim {
        Some(IngestError::DimMismatch {
            index,
            expected: dim,
            found: row.x.dim(),
        })
    } else if !row.x.all_finite() {
        Some(IngestError::InvalidRow {
            index,
            reason: "non-finite feature value".to_string(),
        })
    } else {
        domain
            .validate(row.y)
            .err()
            .map(|reason| IngestError::InvalidRow { index, reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::DenseVec;

    fn row(v: f64, y: f64) -> Example<DenseVec> {
        Example {
            x: DenseVec::new(vec![v, -v]),
            y,
        }
    }

    fn pool(policy: IngestPolicy) -> StreamingPool<DenseVec> {
        StreamingPool::new(
            "t",
            2,
            vec![row(1.0, 0.0), row(2.0, 1.0)],
            vec![row(3.0, 1.0)],
            LabelDomain::Binary01,
            policy,
        )
        .unwrap()
    }

    #[test]
    fn appends_bump_epochs_and_snapshots_pin_prefixes() {
        let p = pool(IngestPolicy::Reject);
        assert_eq!(p.epoch(), 0);
        let snap0 = p.snapshot();

        let r1 = p.append(vec![row(4.0, 0.0), row(5.0, 1.0)]).unwrap();
        assert_eq!(r1.epoch, 1);
        assert_eq!(r1.accepted, 2);
        let r2 = p.append_holdout(vec![row(6.0, 0.0)]).unwrap();
        assert_eq!(r2.epoch, 2);

        // The pre-append snapshot is untouched by later writes.
        assert_eq!(snap0.epoch(), 0);
        assert_eq!(snap0.train_len(), 2);
        assert_eq!(snap0.holdout_len(), 1);
        let d0 = snap0.train_dataset();
        assert_eq!(d0.len(), 2);
        assert_eq!(d0.get(1).x.as_slice(), &[2.0, -2.0]);

        // The current snapshot sees everything, in insertion order.
        let snap2 = p.snapshot();
        assert_eq!(snap2.epoch(), 2);
        assert_eq!(snap2.train_len(), 4);
        assert_eq!(snap2.holdout_len(), 2);
        assert_eq!(snap2.train_dataset().get(3).x.as_slice(), &[5.0, -5.0]);

        // Past epochs stay reconstructible as prefixes.
        let snap1 = p.snapshot_at(1).unwrap();
        assert_eq!(snap1.train_len(), 4);
        assert_eq!(snap1.holdout_len(), 1);
        assert!(p.snapshot_at(3).is_none());
        assert_eq!(
            p.mark_at(2),
            Some(EpochMark {
                epoch: 2,
                train_len: 4,
                holdout_len: 2
            })
        );
    }

    #[test]
    fn snapshot_matches_incremental_dataset() {
        // A snapshot's dataset equals building the same
        // dataset by hand from the admitted rows in order.
        let p = pool(IngestPolicy::Reject);
        p.append(vec![row(7.0, 1.0)]).unwrap();
        p.append(vec![row(8.0, 0.0), row(9.0, 1.0)]).unwrap();
        let snap = p.snapshot();
        let d = snap.train_dataset();
        let expect = [1.0, 2.0, 7.0, 8.0, 9.0];
        assert_eq!(d.len(), expect.len());
        for (i, v) in expect.iter().enumerate() {
            assert_eq!(d.get(i).x.as_slice(), &[*v, -*v]);
        }
    }

    #[test]
    fn reject_policy_is_atomic() {
        let p = pool(IngestPolicy::Reject);
        let err = p.append(vec![row(1.0, 0.0), row(2.0, 0.5)]).unwrap_err();
        assert!(matches!(err, IngestError::InvalidRow { index: 1, .. }));
        // Nothing from the failed block is visible.
        assert_eq!(p.epoch(), 0);
        assert_eq!(p.snapshot().train_len(), 2);
    }

    #[test]
    fn quarantine_policy_skips_and_reports() {
        let p = pool(IngestPolicy::Quarantine);
        let bad_feature = Example {
            x: DenseVec::new(vec![f64::NAN, 0.0]),
            y: 1.0,
        };
        let r = p
            .append(vec![
                row(1.0, 0.0),
                bad_feature,
                row(2.0, 2.0),
                row(3.0, 1.0),
            ])
            .unwrap();
        assert_eq!(r.accepted, 2);
        assert_eq!(r.quarantined, vec![1, 2]);
        assert_eq!(r.epoch, 1);
        assert_eq!(p.snapshot().train_len(), 4);

        // A fully-quarantined block is a no-op: no epoch bump.
        let r = p.append(vec![row(1.0, 7.0)]).unwrap();
        assert_eq!(r.accepted, 0);
        assert_eq!(r.epoch, 1);
        assert_eq!(p.epoch(), 1);
    }

    #[test]
    fn dim_mismatch_is_typed() {
        let p = pool(IngestPolicy::Reject);
        let wide = Example {
            x: DenseVec::new(vec![1.0, 2.0, 3.0]),
            y: 0.0,
        };
        let err = p.append(vec![wide]).unwrap_err();
        assert_eq!(
            err,
            IngestError::DimMismatch {
                index: 0,
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn label_domains_validate() {
        assert!(LabelDomain::AnyFinite.validate(-3.5).is_ok());
        assert!(LabelDomain::AnyFinite.validate(f64::INFINITY).is_err());
        assert!(LabelDomain::Binary01.validate(1.0).is_ok());
        assert!(LabelDomain::Binary01.validate(0.5).is_err());
        assert!(LabelDomain::ClassIndex(5).validate(4.0).is_ok());
        assert!(LabelDomain::ClassIndex(5).validate(5.0).is_err());
        assert!(LabelDomain::ClassIndex(5).validate(1.5).is_err());
        assert!(LabelDomain::NonNegativeCount.validate(12.0).is_ok());
        assert!(LabelDomain::NonNegativeCount.validate(-1.0).is_err());
        assert!(LabelDomain::NonNegativeCount.validate(0.25).is_err());
        assert!(LabelDomain::Unused.validate(f64::NAN).is_ok());
    }

    use crate::wal::{DurableOptions, SyncPolicy, WalError};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("blinkml_stream_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable(dir: &std::path::Path, policy: IngestPolicy) -> StreamingPool<DenseVec> {
        StreamingPool::create_durable(
            dir,
            "t",
            2,
            vec![row(1.0, 0.0), row(2.0, 1.0)],
            vec![row(3.0, 1.0)],
            LabelDomain::Binary01,
            policy,
            DurableOptions::default(),
        )
        .unwrap()
    }

    fn assert_pools_bit_equal(a: &StreamingPool<DenseVec>, b: &StreamingPool<DenseVec>) {
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.seq(), b.seq());
        assert_eq!(a.marks(), b.marks());
        assert_eq!(a.receipts(), b.receipts());
        for (da, db) in [
            (a.snapshot().train_dataset(), b.snapshot().train_dataset()),
            (
                a.snapshot().holdout_dataset(),
                b.snapshot().holdout_dataset(),
            ),
        ] {
            assert_eq!(da.len(), db.len());
            for (ea, eb) in da.iter().zip(db.iter()) {
                assert_eq!(ea.y.to_bits(), eb.y.to_bits());
                let bits = |e: &Example<DenseVec>| -> Vec<u64> {
                    e.x.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(ea), bits(eb));
            }
        }
    }

    #[test]
    fn durable_pool_replays_bit_exactly() {
        let dir = tmpdir("replay");
        let p = durable(&dir, IngestPolicy::Quarantine);
        p.append(vec![row(4.0, 0.0), row(5.0, 1.0)]).unwrap();
        p.append_holdout(vec![row(6.0, 0.0)]).unwrap();
        // A partly-quarantined block and a fully-quarantined one.
        let r = p.append(vec![row(7.0, 1.0), row(8.0, 0.5)]).unwrap();
        assert_eq!(r.quarantined, vec![1]);
        let r = p.append(vec![row(9.0, 3.0)]).unwrap();
        assert_eq!(r.accepted, 0);
        drop(p);

        let q = StreamingPool::<DenseVec>::open(&dir, DurableOptions::default()).unwrap();
        let p = durable(&tmpdir("replay_oracle"), IngestPolicy::Quarantine);
        p.append(vec![row(4.0, 0.0), row(5.0, 1.0)]).unwrap();
        p.append_holdout(vec![row(6.0, 0.0)]).unwrap();
        p.append(vec![row(7.0, 1.0), row(8.0, 0.5)]).unwrap();
        p.append(vec![row(9.0, 3.0)]).unwrap();
        assert_pools_bit_equal(&q, &p);
        assert_eq!(q.epoch(), 3);
        assert_eq!(q.seq(), 4);
        assert_eq!(q.receipts().len(), 2);

        // The recovered pool keeps accepting appends.
        let r = q.append(vec![row(10.0, 1.0)]).unwrap();
        assert_eq!(r.epoch, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_to_a_committed_prefix() {
        let dir = tmpdir("torn");
        let p = durable(&dir, IngestPolicy::Reject);
        p.append(vec![row(4.0, 0.0)]).unwrap();
        let committed_len = p.wal_len();
        p.append(vec![row(5.0, 1.0), row(6.0, 0.0)]).unwrap();
        let full_len = p.wal_len();
        drop(p);

        // Cut the log anywhere inside the second group: recovery lands
        // exactly on the first committed append.
        let log = crate::wal::log_path(&dir);
        for cut in [
            committed_len + 1,
            full_len - 1,
            (committed_len + full_len) / 2,
        ] {
            let bytes = std::fs::read(&log).unwrap();
            std::fs::write(&log, &bytes[..cut as usize]).unwrap();
            let q = StreamingPool::<DenseVec>::open(&dir, DurableOptions::default()).unwrap();
            assert_eq!(q.epoch(), 1);
            assert_eq!(q.snapshot().train_len(), 3);
            assert_eq!(q.wal_len(), committed_len, "log truncated to the boundary");
            // Restore the full log for the next cut.
            drop(q);
            std::fs::write(&log, &bytes).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn midlog_damage_is_typed_corruption() {
        let dir = tmpdir("flip");
        let p = durable(&dir, IngestPolicy::Reject);
        p.append(vec![row(4.0, 0.0)]).unwrap();
        p.append(vec![row(5.0, 1.0)]).unwrap();
        drop(p);
        let log = crate::wal::log_path(&dir);
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[12] ^= 0x40; // payload byte of the first record
        std::fs::write(&log, &bytes).unwrap();
        let err = StreamingPool::<DenseVec>::open(&dir, DurableOptions::default()).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_snapshots_and_skips_stale_records() {
        let dir = tmpdir("compact");
        let p = durable(&dir, IngestPolicy::Quarantine);
        p.append(vec![row(4.0, 0.0), row(5.0, 0.5)]).unwrap();
        p.append_holdout(vec![row(6.0, 1.0)]).unwrap();
        let log = crate::wal::log_path(&dir);
        let pre_compact_log = std::fs::read(&log).unwrap();
        p.compact().unwrap();
        assert_eq!(p.wal_len(), 0);
        // A reopen of the bare compacted image (empty log).
        let q = StreamingPool::<DenseVec>::open(&dir, DurableOptions::default()).unwrap();
        assert_pools_bit_equal(&q, &p);
        drop(q);
        p.append(vec![row(7.0, 1.0)]).unwrap();

        // Plain recovery after compaction.
        let q = StreamingPool::<DenseVec>::open(&dir, DurableOptions::default()).unwrap();
        assert_pools_bit_equal(&q, &p);
        drop(q);

        // Simulate the compaction crash window (snapshot renamed, log
        // not yet truncated): prepend the stale records back. Replay
        // must skip every record with seq ≤ snapshot.seq.
        let post = std::fs::read(&log).unwrap();
        let mut stale = pre_compact_log;
        stale.extend_from_slice(&post);
        std::fs::write(&log, &stale).unwrap();
        let q = StreamingPool::<DenseVec>::open(&dir, DurableOptions::default()).unwrap();
        assert_pools_bit_equal(&q, &p);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_triggers_on_threshold() {
        let dir = tmpdir("autocompact");
        let p = StreamingPool::create_durable(
            &dir,
            "t",
            2,
            vec![row(1.0, 0.0)],
            vec![],
            LabelDomain::Binary01,
            IngestPolicy::Reject,
            DurableOptions {
                sync: SyncPolicy::OsManaged,
                compact_every: Some(2),
            },
        )
        .unwrap();
        p.append(vec![row(2.0, 1.0)]).unwrap();
        assert!(p.wal_len() > 0, "one append: below the threshold");
        p.append(vec![row(3.0, 0.0)]).unwrap();
        assert_eq!(p.wal_len(), 0, "second append: compacted");
        let q = StreamingPool::<DenseVec>::open(&dir, DurableOptions::default()).unwrap();
        assert_pools_bit_equal(&q, &p);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_durable_refuses_existing_directory() {
        let dir = tmpdir("exists");
        let p = durable(&dir, IngestPolicy::Reject);
        drop(p);
        let err = StreamingPool::<DenseVec>::create_durable(
            &dir,
            "t",
            2,
            vec![],
            vec![],
            LabelDomain::Binary01,
            IngestPolicy::Reject,
            DurableOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, WalError::Io(ref e) if e.kind() == std::io::ErrorKind::AlreadyExists)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_quarantines_are_receipted() {
        let p = StreamingPool::new(
            "t",
            2,
            vec![row(1.0, 0.0), row(2.0, 0.5)],
            vec![row(3.0, 9.0)],
            LabelDomain::Binary01,
            IngestPolicy::Quarantine,
        )
        .unwrap();
        let receipts = p.receipts();
        assert_eq!(receipts.len(), 2);
        assert_eq!(receipts[0].quarantined, vec![1]);
        assert!(!receipts[0].holdout);
        assert!(receipts[1].holdout);
        assert_eq!(p.seq(), 0);
        assert!(!p.is_durable());
    }

    #[test]
    fn holdout_window_is_a_borrowed_slice() {
        let p = pool(IngestPolicy::Reject);
        p.append_holdout(vec![row(10.0, 0.0), row(11.0, 1.0)])
            .unwrap();
        let snap = p.snapshot();
        let holdout = snap.holdout_dataset();
        let (base, fresh) = holdout.examples().split_at(1);
        assert_eq!(base.len(), 1);
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh[0].x.as_slice(), &[10.0, -10.0]);
        assert!(holdout.examples()[3..].is_empty());
        // The window borrows the pool's rows; nothing is cloned.
        assert!(std::ptr::eq(&fresh[0], holdout.get(1)));
        // The old snapshot's holdout never sees the appended rows.
        let snap0 = p.snapshot_at(0).unwrap();
        assert_eq!(snap0.holdout_dataset().examples().len(), 1);
    }

    /// The prefix-materialization oracle: clone the first `len` rows of
    /// `blocks` (insertion order) into a fresh dataset.
    fn materialize<F: FeatureVec>(
        name: &Arc<str>,
        dim: usize,
        blocks: &[Arc<Vec<Example<F>>>],
        len: usize,
    ) -> Dataset<F> {
        let mut examples = Vec::with_capacity(len);
        for block in blocks {
            let take = (len - examples.len()).min(block.len());
            examples.extend_from_slice(&block[..take]);
            if examples.len() == len {
                break;
            }
        }
        debug_assert_eq!(examples.len(), len, "snapshot shorter than its mark");
        Dataset::new(name.to_string(), dim, examples)
    }

    fn row_bits(rows: &[Example<DenseVec>]) -> Vec<(u64, Vec<u64>)> {
        rows.iter()
            .map(|e| {
                let x = e.x.as_slice().iter().map(|v| v.to_bits()).collect();
                (e.y.to_bits(), x)
            })
            .collect()
    }

    #[test]
    fn snapshot_views_equal_the_prefix_oracle_at_every_epoch() {
        for policy in [IngestPolicy::Reject, IngestPolicy::Quarantine] {
            let p = pool(policy);
            let name: Arc<str> = Arc::from("t");
            let mut train_blocks = vec![Arc::new(vec![row(1.0, 0.0), row(2.0, 1.0)])];
            let mut holdout_blocks = vec![Arc::new(vec![row(3.0, 1.0)])];
            for k in 0..12u32 {
                let v = |j: u32| f64::from(k * 7 + j) * 0.37 + 1e-3;
                let mut block: Vec<_> = (0..1 + k % 3)
                    .map(|j| row(v(j), f64::from((k + j) % 2)))
                    .collect();
                if policy == IngestPolicy::Quarantine && k % 4 == 1 {
                    // An invalid label the gate must skip.
                    block.insert(1, row(v(9), 0.5));
                }
                let holdout = k % 3 == 2;
                let r = if holdout {
                    p.append_holdout(block.clone())
                } else {
                    p.append(block.clone())
                }
                .unwrap();
                let admitted: Vec<_> = block
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| !r.quarantined.contains(i))
                    .map(|(_, e)| e)
                    .collect();
                assert_eq!(admitted.len(), r.accepted);
                if holdout {
                    holdout_blocks.push(Arc::new(admitted));
                } else {
                    train_blocks.push(Arc::new(admitted));
                }
            }
            assert_eq!(p.epoch(), 12);
            for e in 0..=p.epoch() {
                let snap = p.snapshot_at(e).unwrap();
                let mark = p.mark_at(e).unwrap();
                let train = materialize(&name, 2, &train_blocks, mark.train_len);
                let holdout = materialize(&name, 2, &holdout_blocks, mark.holdout_len);
                assert_eq!(
                    row_bits(snap.train_dataset().examples()),
                    row_bits(train.examples()),
                    "{policy:?} train at epoch {e}"
                );
                assert_eq!(
                    row_bits(snap.holdout_dataset().examples()),
                    row_bits(holdout.examples()),
                    "{policy:?} holdout at epoch {e}"
                );
                assert_eq!(snap.train_dataset().name(), "t");
                assert_eq!(snap.holdout_dataset().dim(), 2);
            }
        }
    }

    #[test]
    fn append_copies_a_pinned_log_and_leaves_the_snapshot_untouched() {
        let p = pool(IngestPolicy::Reject);
        let snap = p.snapshot();
        let pinned = snap.train_dataset();
        let ptr = pinned.examples().as_ptr();
        let bits = row_bits(pinned.examples());

        p.append(vec![row(4.0, 0.0), row(5.0, 1.0)]).unwrap();
        assert_eq!(
            pinned.examples().as_ptr(),
            ptr,
            "the pinned rows never move"
        );
        assert_eq!(row_bits(pinned.examples()), bits);
        assert_eq!(row_bits(snap.train_dataset().examples()), bits);

        // The append copied the log on write; the next snapshot sees
        // the new rows in the copy.
        let next = p.snapshot().train_dataset();
        assert_ne!(next.examples().as_ptr(), ptr);
        assert_eq!(next.len(), 4);
        assert_eq!(row_bits(&next.examples()[..2]), bits);
        assert_eq!(next.get(3).x.as_slice(), &[5.0, -5.0]);
        // The train append left the holdout log shared.
        assert_eq!(
            snap.holdout_dataset().examples().as_ptr(),
            p.snapshot().holdout_dataset().examples().as_ptr()
        );
    }

    #[test]
    fn snapshots_share_rows_without_copies() {
        let p = pool(IngestPolicy::Reject);
        p.append(vec![row(4.0, 0.0)]).unwrap();
        let snap = p.snapshot();
        let (a, b) = (snap.train_dataset(), snap.train_dataset());
        assert_eq!(a.examples().as_ptr(), b.examples().as_ptr());
        let (ha, hb) = (snap.holdout_dataset(), snap.holdout_dataset());
        assert_eq!(ha.examples().as_ptr(), hb.examples().as_ptr());

        // Consecutive snapshots with no append between them, and past
        // epochs, view the same log.
        let again = p.snapshot();
        assert_eq!(
            again.train_dataset().examples().as_ptr(),
            a.examples().as_ptr()
        );
        let past = p.snapshot_at(0).unwrap().train_dataset();
        assert_eq!(past.examples().as_ptr(), a.examples().as_ptr());
        assert_eq!(past.len(), 2);
    }

    #[test]
    fn dataset_prefix_view_clones_shallowly_and_unwraps_its_prefix() {
        let p = pool(IngestPolicy::Reject);
        p.append(vec![row(4.0, 0.0), row(5.0, 1.0)]).unwrap();
        let snap = p.snapshot_at(0).unwrap();
        let prefix = snap.train_dataset();
        assert_eq!(prefix.len(), 2);

        let copy = prefix.clone();
        assert_eq!(copy.examples().as_ptr(), prefix.examples().as_ptr());
        assert_eq!(copy.len(), 2);

        // Shared log: `into_examples` clones exactly the prefix.
        let rows = copy.into_examples();
        assert_eq!(row_bits(&rows), row_bits(&[row(1.0, 0.0), row(2.0, 1.0)]));

        // Sole owner of a longer log: the prefix is unwrapped in place.
        drop((p, snap));
        let rows = prefix.into_examples();
        assert_eq!(row_bits(&rows), row_bits(&[row(1.0, 0.0), row(2.0, 1.0)]));
    }

    #[test]
    fn multi_block_snapshot_files_open_bit_exactly() {
        // A snapshot.bin laid out as one block per append (the format
        // allows any count) must recover the same pool as appending
        // those blocks, and keep doing so through a compaction.
        let reference = pool(IngestPolicy::Quarantine);
        let (t1, h1, t2) = (
            vec![row(4.0, 0.0), row(4.5, 0.5), row(5.0, 1.0)],
            vec![row(6.0, 0.0)],
            vec![row(7.0, 1.0)],
        );
        reference.append(t1).unwrap();
        reference.append_holdout(h1.clone()).unwrap();
        reference.append(t2.clone()).unwrap();
        assert_eq!(reference.receipts().len(), 1);

        let dir = tmpdir("multiblock");
        std::fs::create_dir_all(&dir).unwrap();
        let state = crate::wal::SnapshotState {
            name: "t".to_string(),
            dim: 2,
            domain: LabelDomain::Binary01,
            policy: IngestPolicy::Quarantine,
            seq: reference.seq(),
            epoch: reference.epoch(),
            marks: reference.marks(),
            train_blocks: vec![
                Arc::new(vec![row(1.0, 0.0), row(2.0, 1.0)]),
                Arc::new(vec![row(4.0, 0.0), row(5.0, 1.0)]),
                Arc::new(t2),
            ],
            holdout_blocks: vec![Arc::new(vec![row(3.0, 1.0)]), Arc::new(h1)],
            receipts: reference.receipts(),
        };
        crate::wal::write_snapshot(&dir, &state, crate::wal::encode_example::<DenseVec>).unwrap();
        std::fs::write(crate::wal::log_path(&dir), []).unwrap();

        let q = StreamingPool::<DenseVec>::open(&dir, DurableOptions::default()).unwrap();
        assert_pools_bit_equal(&q, &reference);
        for e in 0..=reference.epoch() {
            let (a, b) = (q.snapshot_at(e).unwrap(), reference.snapshot_at(e).unwrap());
            assert_eq!(
                row_bits(a.train_dataset().examples()),
                row_bits(b.train_dataset().examples())
            );
            assert_eq!(
                row_bits(a.holdout_dataset().examples()),
                row_bits(b.holdout_dataset().examples())
            );
        }

        // Append, compact to the single-log layout, and reopen.
        q.append(vec![row(8.0, 0.0)]).unwrap();
        reference.append(vec![row(8.0, 0.0)]).unwrap();
        q.compact().unwrap();
        drop(q);
        let q = StreamingPool::<DenseVec>::open(&dir, DurableOptions::default()).unwrap();
        assert_pools_bit_equal(&q, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn dataset(rows: Vec<Example<DenseVec>>) -> Dataset<DenseVec> {
        Dataset::new("src", 2, rows)
    }

    #[test]
    fn from_datasets_adopts_clean_rows_without_copies() {
        let train = dataset(vec![row(1.0, 0.0), row(2.0, 1.0)]);
        let holdout = dataset(vec![row(3.0, 1.0)]);
        let p = StreamingPool::from_datasets(
            &train,
            &holdout,
            LabelDomain::Binary01,
            IngestPolicy::Reject,
        )
        .unwrap();
        let snap = p.snapshot();
        assert_eq!(
            snap.train_dataset().examples().as_ptr(),
            train.examples().as_ptr()
        );
        assert_eq!(
            snap.holdout_dataset().examples().as_ptr(),
            holdout.examples().as_ptr()
        );
        assert_eq!(
            (snap.epoch(), snap.train_len(), snap.holdout_len()),
            (0, 2, 1)
        );
        assert!(p.receipts().is_empty());
    }

    #[test]
    fn from_datasets_never_adopts_a_prefix_views_hidden_tail() {
        let src = pool(IngestPolicy::Reject);
        src.append(vec![row(4.0, 0.0)]).unwrap();
        src.append_holdout(vec![row(5.0, 0.0)]).unwrap();
        let view = src.snapshot_at(0).unwrap();
        let (train, holdout) = (view.train_dataset(), view.holdout_dataset());
        assert_eq!((train.len(), holdout.len()), (2, 1));

        let p = StreamingPool::from_datasets(
            &train,
            &holdout,
            LabelDomain::Binary01,
            IngestPolicy::Reject,
        )
        .unwrap();
        let block = vec![row(6.0, 1.0), row(7.0, 0.0)];
        p.append(block.clone()).unwrap();
        p.append_holdout(vec![row(8.0, 1.0)]).unwrap();
        let snap = p.snapshot();
        let mut want = train.examples().to_vec();
        want.extend(block);
        assert_eq!(row_bits(snap.train_dataset().examples()), row_bits(&want));
        let mut want = holdout.examples().to_vec();
        want.push(row(8.0, 1.0));
        assert_eq!(row_bits(snap.holdout_dataset().examples()), row_bits(&want));
        assert_eq!(p.mark_at(0).unwrap().train_len, 2);
    }

    #[test]
    fn append_after_adoption_copies_on_write() {
        let rows = vec![row(1.0, 0.0), row(2.0, 1.0)];
        let train = dataset(rows.clone());
        let holdout = dataset(vec![row(3.0, 1.0)]);
        let p = StreamingPool::from_datasets(
            &train,
            &holdout,
            LabelDomain::Binary01,
            IngestPolicy::Reject,
        )
        .unwrap();
        let before = train.examples().as_ptr();
        p.append(vec![row(4.0, 0.0)]).unwrap();
        let snap = p.snapshot();
        assert_ne!(snap.train_dataset().examples().as_ptr(), before);
        assert_eq!(snap.train_len(), 3);
        // The caller's dataset keeps its allocation, length and bits.
        assert_eq!(train.examples().as_ptr(), before);
        assert_eq!(row_bits(train.examples()), row_bits(&rows));
    }

    #[test]
    fn from_datasets_quarantines_bad_seed_rows() {
        let train = dataset(vec![row(1.0, 0.0), row(2.0, 0.5), row(3.0, 1.0)]);
        let holdout = dataset(vec![row(4.0, 1.0)]);
        let p = StreamingPool::from_datasets(
            &train,
            &holdout,
            LabelDomain::Binary01,
            IngestPolicy::Quarantine,
        )
        .unwrap();
        let snap = p.snapshot();
        assert_eq!(
            row_bits(snap.train_dataset().examples()),
            row_bits(&[row(1.0, 0.0), row(3.0, 1.0)])
        );
        assert_eq!(
            p.receipts(),
            vec![QuarantineReceipt {
                seq: 0,
                epoch: 0,
                holdout: false,
                quarantined: vec![1],
            }]
        );
        // The clean holdout is still adopted; Reject fails typed.
        assert_eq!(
            snap.holdout_dataset().examples().as_ptr(),
            holdout.examples().as_ptr()
        );
        let err = StreamingPool::from_datasets(
            &train,
            &holdout,
            LabelDomain::Binary01,
            IngestPolicy::Reject,
        )
        .unwrap_err();
        assert!(
            matches!(err, IngestError::InvalidRow { index: 1, .. }),
            "{err}"
        );
    }
}

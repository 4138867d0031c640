//! Dataset substrate for BlinkML.
//!
//! The paper evaluates on six real datasets (Gas, Power, Criteo, HIGGS,
//! MNIST, Yelp) hosted on a Spark cluster. This crate provides the
//! equivalent substrate for the reproduction:
//!
//! * [`features`] — the [`FeatureVec`] abstraction with dense
//!   ([`DenseVec`]) and sparse ([`SparseVec`]) implementations, so one
//!   model implementation serves both the 28-feature HIGGS regime and the
//!   100K-feature Criteo regime,
//! * [`dataset`] — in-memory labelled datasets with deterministic
//!   uniform sampling and train/holdout/test splits (the paper's sampling
//!   abstraction),
//! * [`generators`] — deterministic synthetic generators mirroring each
//!   of the paper's datasets (see DESIGN.md §3 for the substitution
//!   rationale),
//! * [`io`] — LIBSVM and CSV loaders for users with the real datasets,
//! * [`matrix`] — design matrices ([`DatasetMatrix`]), sample captures
//!   packed straight from a dataset into recycled buffers
//!   ([`CaptureScratch`]), and reusable training scratch buffers
//!   ([`TrainScratch`]): the substrate of the batched training engine
//!   (contiguous dense blocks, CSR for sparse features, bit-exact
//!   batched margin/gradient passes),
//! * [`stream`] — epoch-versioned append-only pools
//!   ([`StreamingPool`]) with immutable prefix snapshots
//!   ([`StreamSnapshot`]) and an ingest validation gate
//!   ([`LabelDomain`], [`IngestPolicy`]): the substrate of the serve
//!   layer's streaming path, where every query trains and reports
//!   against one consistent epoch,
//! * [`wal`] — write-ahead durability for streaming pools: a
//!   CRC-checksummed record log plus snapshot compaction, so
//!   `StreamingPool::open` reconstructs a crashed pool's committed
//!   epoch-prefix state bit-exactly,
//! * [`parallel`] — the workspace's deterministic execution facade
//!   (fixed-chunk parallel maps and reductions, re-exported from
//!   `blinkml_linalg::exec`) used by every embarrassingly parallel hot
//!   loop (per-example gradients, holdout scoring, probe loops); the
//!   single-machine substitute for the paper's Spark executors.

pub mod dataset;
pub mod features;
pub mod generators;
pub mod io;
pub mod matrix;
pub mod parallel;
pub mod stream;
pub mod wal;

pub use dataset::{Dataset, Example, IndexView, Split};
pub use features::{DenseVec, FeatureVec, SparseVec};
pub use matrix::{CaptureScratch, DatasetMatrix, FoldRequest, MatrixView, TrainScratch};
pub use parallel::par_ranges;
pub use stream::{
    AppendReceipt, EpochMark, IngestError, IngestPolicy, LabelDomain, QuarantineReceipt,
    StreamSnapshot, StreamingPool,
};
pub use wal::{DurableOptions, SyncPolicy, WalError, WalRow};

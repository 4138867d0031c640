//! Durability: crash-recovery bit-identity, typed corruption
//! rejection, and warm pilot-state restore.
//!
//! The durability contract extends the serving layer's bitwise promise
//! across process death: a pool recovered by [`StreamingPool::open`]
//! must be **bit-exactly** the committed epoch-prefix of the live pool
//! at the crash point, so a cold coordinator run on the recovered
//! snapshot reproduces θ, ε₀, ε̂, and the chosen n of the
//! uninterrupted run down to the last bit. Interrupted trailing
//! appends were never acknowledged and vanish silently; damage to
//! acknowledged records is rejected with [`CoreError::CorruptLog`],
//! never silently repaired.

use blinkml_core::config::{BlinkMlConfig, ExecConfig, ServeConfig};
use blinkml_core::coordinator::Coordinator;
use blinkml_core::error::CoreError;
use blinkml_core::models::{
    LinearRegressionSpec, LogisticRegressionSpec, MaxEntSpec, PoissonRegressionSpec, PpcaSpec,
};
use blinkml_core::serve::{DatasetShard, Query, Server, StreamShard};
use blinkml_core::testing::{crash_image, WalFault};
use blinkml_core::{ModelClassSpec, TrainingOutcome};
use blinkml_data::generators::{
    synthetic_linear, synthetic_logistic, synthetic_multiclass, synthetic_poisson, yelp_like,
};
use blinkml_data::{
    Dataset, DenseVec, DurableOptions, Example, IngestPolicy, LabelDomain, StreamingPool,
    SyncPolicy, WalError,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------

/// Base configuration shared by recovered-state and live oracles.
fn base_config(n0: usize, threads: Option<usize>) -> BlinkMlConfig {
    BlinkMlConfig {
        epsilon: 0.3,
        delta: 0.05,
        initial_sample_size: n0,
        holdout_size: 10_000, // clamped by the splits below
        num_param_samples: 16,
        exec: ExecConfig {
            max_threads: threads,
        },
        ..BlinkMlConfig::default()
    }
}

/// A fresh scratch directory (removed first so reruns start clean).
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blinkml_durability_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One row block, as the ingest path receives it.
type Rows = Vec<Example<DenseVec>>;

/// Split a generated dataset into (seed train, seed holdout, blocks).
fn carve(
    data: &Dataset<DenseVec>,
    holdout: usize,
    seed_train: usize,
    block: usize,
) -> (Rows, Rows, Vec<Rows>) {
    let rows = data.examples();
    assert!(rows.len() >= holdout + seed_train + block);
    let hold = rows[..holdout].to_vec();
    let train = rows[holdout..holdout + seed_train].to_vec();
    let blocks = rows[holdout + seed_train..]
        .chunks(block)
        .filter(|c| c.len() == block)
        .map(|c| c.to_vec())
        .collect();
    (train, hold, blocks)
}

/// Bitwise response comparison: θ, ε₀, ε̂, chosen n, and the
/// initial-model decision must all match exactly.
fn assert_bitwise_eq(context: &str, served: &TrainingOutcome, expected: &TrainingOutcome) {
    assert_eq!(
        served.sample_size, expected.sample_size,
        "{context}: chosen n diverged"
    );
    assert_eq!(
        served.used_initial_model, expected.used_initial_model,
        "{context}: initial-model decision diverged"
    );
    assert_eq!(
        served.initial_epsilon.to_bits(),
        expected.initial_epsilon.to_bits(),
        "{context}: ε₀ diverged ({} vs {})",
        served.initial_epsilon,
        expected.initial_epsilon
    );
    assert_eq!(
        served.estimated_epsilon.to_bits(),
        expected.estimated_epsilon.to_bits(),
        "{context}: ε̂ diverged ({} vs {})",
        served.estimated_epsilon,
        expected.estimated_epsilon
    );
    let (sp, ep) = (served.model.parameters(), expected.model.parameters());
    assert_eq!(sp.len(), ep.len(), "{context}: θ dimension diverged");
    for (i, (a, b)) in sp.iter().zip(ep).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{context}: θ[{i}] diverged ({a} vs {b})"
        );
    }
}

/// Every row of both datasets equal down to the f64 bit pattern.
fn assert_rows_bit_equal(context: &str, a: &Dataset<DenseVec>, b: &Dataset<DenseVec>) {
    assert_eq!(a.len(), b.len(), "{context}: row count diverged");
    assert_eq!(a.dim(), b.dim(), "{context}: dimension diverged");
    for (i, (ra, rb)) in a.examples().iter().zip(b.examples()).enumerate() {
        assert_eq!(
            ra.y.to_bits(),
            rb.y.to_bits(),
            "{context}: label bits diverged at row {i}"
        );
        for (j, (xa, xb)) in ra.x.0.iter().zip(&rb.x.0).enumerate() {
            assert_eq!(
                xa.to_bits(),
                xb.to_bits(),
                "{context}: feature bits diverged at row {i} col {j}"
            );
        }
    }
}

/// Recovered pool vs live pool: same committed state at `epoch`, and a
/// cold coordinator run on each reproduces the same bits.
fn assert_recovered_matches_live<S: ModelClassSpec<DenseVec>>(
    context: &str,
    base: &BlinkMlConfig,
    spec: &S,
    recovered: &StreamingPool<DenseVec>,
    live: &StreamingPool<DenseVec>,
    train_oracle: bool,
) {
    let epoch = recovered.epoch();
    assert!(
        epoch <= live.epoch(),
        "{context}: recovered epoch {epoch} exceeds live epoch {}",
        live.epoch()
    );
    let live_marks = live.marks();
    let marks = recovered.marks();
    assert_eq!(
        marks,
        live_marks[..marks.len()],
        "{context}: recovered marks are not a prefix of the live marks"
    );
    let rec = recovered.snapshot();
    let ref_snap = live.snapshot_at(epoch).expect("live pool retains epochs");
    assert_rows_bit_equal(
        &format!("{context}: train pool"),
        &rec.train_dataset(),
        &ref_snap.train_dataset(),
    );
    assert_rows_bit_equal(
        &format!("{context}: holdout pool"),
        &rec.holdout_dataset(),
        &ref_snap.holdout_dataset(),
    );
    if train_oracle {
        let coordinator = Coordinator::new(base.clone());
        let served = coordinator
            .train_with_holdout(spec, &rec.train_dataset(), &rec.holdout_dataset(), 7)
            .expect("recovered-state run");
        let expected = coordinator
            .train_with_holdout(
                spec,
                &ref_snap.train_dataset(),
                &ref_snap.holdout_dataset(),
                7,
            )
            .expect("uninterrupted oracle run");
        assert_bitwise_eq(context, &served, &expected);
    }
}

// ---------------------------------------------------------------------
// Recovery is bit-exact across all five model classes
// ---------------------------------------------------------------------

fn run_class_recovery<S: ModelClassSpec<DenseVec>>(
    tag: &str,
    spec: &S,
    data: Dataset<DenseVec>,
    domain: LabelDomain,
) {
    let dir = tmpdir(&format!("class_{tag}"));
    let copy = tmpdir(&format!("class_{tag}_copy"));
    let (train, holdout, blocks) = carve(&data, 120, 500, 90);
    let pool = StreamingPool::create_durable(
        &dir,
        format!("durable-{tag}"),
        data.dim(),
        train,
        holdout,
        domain,
        IngestPolicy::Reject,
        DurableOptions {
            sync: SyncPolicy::Always,
            compact_every: None,
        },
    )
    .expect("create durable pool");
    for block in blocks.into_iter().take(2) {
        pool.append(block).expect("valid block");
    }
    crash_image(&dir, &copy, &[]).expect("freeze crash image");
    let recovered = StreamingPool::<DenseVec>::open(&copy, DurableOptions::default())
        .expect("clean image recovers");
    assert_eq!(recovered.epoch(), pool.epoch(), "{tag}: lost an epoch");
    let base = base_config(100, Some(2));
    assert_recovered_matches_live(tag, &base, spec, &recovered, &pool, true);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
}

/// Each supported model class trains bit-identically on a recovered
/// pool: same θ, ε₀, ε̂, and chosen n as the uninterrupted pool.
#[test]
fn recovery_is_bit_exact_for_every_model_class() {
    let d = 4;
    run_class_recovery(
        "logistic",
        &LogisticRegressionSpec::new(1e-3),
        synthetic_logistic(900, d, 2.0, 11).0,
        LabelDomain::Binary01,
    );
    run_class_recovery(
        "poisson",
        &PoissonRegressionSpec::new(1e-3),
        synthetic_poisson(900, d, 12).0,
        LabelDomain::NonNegativeCount,
    );
    run_class_recovery(
        "linreg",
        &LinearRegressionSpec::new(1e-3),
        synthetic_linear(900, d, 0.3, 13).0,
        LabelDomain::AnyFinite,
    );
    run_class_recovery(
        "maxent",
        &MaxEntSpec::new(1e-3, 3),
        synthetic_multiclass(900, d, 3, 14),
        LabelDomain::ClassIndex(3),
    );
    run_class_recovery(
        "ppca",
        &PpcaSpec::new(2),
        synthetic_linear(900, d, 0.3, 15).0,
        LabelDomain::Unused,
    );
}

// ---------------------------------------------------------------------
// Scripted crash offsets: every committed prefix is recoverable
// ---------------------------------------------------------------------

/// Build the canonical logistic durable pool used by the crash-offset
/// tests: seed epoch plus `appends` fully synced appended blocks.
/// Returns the pool and the WAL length after every append (index 0 is
/// the freshly created, empty log).
fn crash_fixture(dir: &Path, appends: usize) -> (StreamingPool<DenseVec>, Vec<u64>) {
    let (data, _) = synthetic_logistic(1_400, 4, 2.0, 42);
    let (train, holdout, blocks) = carve(&data, 120, 600, 80);
    let pool = StreamingPool::create_durable(
        dir,
        "crash-fixture",
        4,
        train,
        holdout,
        LabelDomain::Binary01,
        IngestPolicy::Reject,
        DurableOptions {
            sync: SyncPolicy::Always,
            compact_every: None,
        },
    )
    .expect("create durable pool");
    let mut boundaries = vec![pool.wal_len()];
    for block in blocks.into_iter().take(appends) {
        pool.append(block).expect("valid block");
        boundaries.push(pool.wal_len());
    }
    (pool, boundaries)
}

/// Truncating the log at a group boundary recovers exactly that many
/// epochs; truncating mid-group silently drops the unacknowledged tail
/// and recovers the previous boundary. Either way the recovered state
/// trains bit-identically to the uninterrupted oracle at its epoch.
#[test]
fn scripted_truncations_recover_exactly_the_committed_prefix() {
    let dir = tmpdir("scripted");
    let (pool, boundaries) = crash_fixture(&dir, 3);
    let base = base_config(100, Some(2));
    let spec = LogisticRegressionSpec::new(1e-3);

    for (i, &offset) in boundaries.iter().enumerate() {
        let copy = tmpdir(&format!("scripted_b{i}"));
        crash_image(&dir, &copy, &[WalFault::TruncateLogAt(offset)]).expect("freeze image");
        let recovered = StreamingPool::<DenseVec>::open(&copy, DurableOptions::default())
            .expect("boundary truncation recovers");
        assert_eq!(
            recovered.epoch(),
            i as u64,
            "boundary {i}: wrong epoch recovered"
        );
        assert_recovered_matches_live(
            &format!("boundary {i}"),
            &base,
            &spec,
            &recovered,
            &pool,
            true,
        );
        let _ = std::fs::remove_dir_all(&copy);
    }

    // Mid-group offsets: the torn tail was never acknowledged, so the
    // recovered pool is the previous boundary — silently.
    for i in 0..boundaries.len() - 1 {
        let offset = (boundaries[i] + boundaries[i + 1]) / 2;
        let copy = tmpdir(&format!("scripted_m{i}"));
        crash_image(&dir, &copy, &[WalFault::TruncateLogAt(offset)]).expect("freeze image");
        let recovered = StreamingPool::<DenseVec>::open(&copy, DurableOptions::default())
            .expect("torn tail truncates silently");
        assert_eq!(
            recovered.epoch(),
            i as u64,
            "mid-group {i}: torn tail must roll back to the previous boundary"
        );
        assert_recovered_matches_live(
            &format!("mid-group {i}"),
            &base,
            &spec,
            &recovered,
            &pool,
            true,
        );
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damage to an *acknowledged* record — a byte flip with complete
/// records after it — is rejected with a typed error, not repaired.
/// The same goes for a truncated snapshot.
#[test]
fn mid_log_corruption_is_rejected_with_a_typed_error() {
    let dir = tmpdir("corrupt");
    let (_pool, boundaries) = crash_fixture(&dir, 3);

    // Flip a payload byte inside the FIRST appended group; two complete
    // groups follow it, so this cannot be mistaken for a torn tail.
    let copy = tmpdir("corrupt_flip");
    crash_image(&dir, &copy, &[WalFault::FlipLogByte(boundaries[0] + 12)]).expect("freeze image");
    let err = StreamingPool::<DenseVec>::open(&copy, DurableOptions::default())
        .expect_err("mid-log corruption must be rejected");
    assert!(
        matches!(err, WalError::Corrupt { .. }),
        "expected WalError::Corrupt, got {err:?}"
    );
    let core: CoreError = err.into();
    match core {
        CoreError::CorruptLog { offset, ref reason } => {
            assert!(
                offset >= boundaries[0],
                "corruption offset {offset} should be inside the log body"
            );
            assert!(!reason.is_empty(), "reason must describe the damage");
        }
        other => panic!("expected CoreError::CorruptLog, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&copy);

    // A truncated snapshot is never silently accepted either.
    let snap_len = std::fs::metadata(blinkml_data::wal::snapshot_path(&dir))
        .expect("snapshot exists")
        .len();
    let copy = tmpdir("corrupt_snap");
    crash_image(&dir, &copy, &[WalFault::TruncateSnapshotAt(snap_len / 2)]).expect("freeze image");
    let err = StreamingPool::<DenseVec>::open(&copy, DurableOptions::default())
        .expect_err("truncated snapshot must be rejected");
    assert!(
        matches!(err, WalError::Corrupt { .. } | WalError::Io(_)),
        "expected a typed rejection, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&copy);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Quarantined-row receipts are part of the committed state: a
/// recovered pool reports exactly the receipts the live pool issued.
#[test]
fn quarantine_receipts_survive_recovery() {
    let dir = tmpdir("receipts");
    let copy = tmpdir("receipts_copy");
    let (data, _) = synthetic_logistic(600, 3, 2.0, 77);
    let (train, holdout, blocks) = carve(&data, 60, 300, 50);
    let pool = StreamingPool::create_durable(
        &dir,
        "receipts",
        3,
        train,
        holdout,
        LabelDomain::Binary01,
        IngestPolicy::Quarantine,
        DurableOptions {
            sync: SyncPolicy::Always,
            compact_every: None,
        },
    )
    .expect("create durable pool");

    let mut blocks = blocks.into_iter();
    let mut dirty = blocks.next().expect("enough rows");
    dirty[3].y = 2.0; // outside Binary01
    dirty[17].y = f64::NAN;
    let receipt = pool.append(dirty).expect("quarantine admits the rest");
    assert_eq!(receipt.quarantined, vec![3, 17], "bad rows quarantined");
    pool.append(blocks.next().expect("enough rows"))
        .expect("clean block");

    crash_image(&dir, &copy, &[]).expect("freeze image");
    let recovered = StreamingPool::<DenseVec>::open(&copy, DurableOptions::default())
        .expect("clean image recovers");
    assert_eq!(
        recovered.receipts(),
        pool.receipts(),
        "recovered receipts diverged from the live ledger"
    );
    assert!(
        recovered
            .receipts()
            .iter()
            .any(|r| r.quarantined == vec![3, 17]),
        "the quarantine receipt itself must survive"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
}

// ---------------------------------------------------------------------
// Proptest: ANY crash offset recovers a committed prefix
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Truncating the log at an arbitrary byte offset always recovers:
    /// the result is some committed prefix of the live pool, bit-equal
    /// at its own epoch. Flipping an arbitrary byte either rejects
    /// with a typed corruption error or — when the flip lands in the
    /// final group's framing and mimics a torn tail — recovers a
    /// committed prefix. It never produces a state outside the live
    /// pool's committed history.
    #[test]
    fn any_crash_offset_recovers_a_committed_prefix(
        frac in 0.0f64..1.0,
        flip_sel in 0u8..2,
    ) {
        let flip = flip_sel == 1;
        let tag = format!("prop_{}_{}", frac.to_bits(), flip);
        let dir = tmpdir(&tag);
        let copy = tmpdir(&format!("{tag}_copy"));
        let (pool, boundaries) = crash_fixture(&dir, 3);
        let len = *boundaries.last().expect("at least the empty log");
        prop_assert!(len > 0);
        let offset = ((frac * len as f64) as u64).min(len - 1);
        let fault = if flip {
            WalFault::FlipLogByte(offset)
        } else {
            WalFault::TruncateLogAt(offset)
        };
        crash_image(&dir, &copy, &[fault]).expect("freeze image");
        let base = base_config(100, Some(2));
        let spec = LogisticRegressionSpec::new(1e-3);
        match StreamingPool::<DenseVec>::open(&copy, DurableOptions::default()) {
            Ok(recovered) => {
                assert_recovered_matches_live(
                    &format!("{fault:?} at {offset}"),
                    &base,
                    &spec,
                    &recovered,
                    &pool,
                    false,
                );
            }
            Err(err) => {
                prop_assert!(
                    flip,
                    "truncation at {offset} must recover, got {err:?}"
                );
                prop_assert!(
                    matches!(err, WalError::Corrupt { .. }),
                    "byte flip at {offset} must reject typed, got {err:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&copy);
    }
}

// ---------------------------------------------------------------------
// Real crash: SIGKILL mid-append
// ---------------------------------------------------------------------

const SIGKILL_DIR_ENV: &str = "BLINKML_DURABILITY_SIGKILL_DIR";

/// Child half of the SIGKILL test: append fully synced blocks forever,
/// acknowledging each admitted epoch through an atomically renamed
/// side file, until the parent kills the process.
fn sigkill_child(dir: &Path) {
    let (data, _) = synthetic_logistic(400, 3, 2.0, 99);
    let (train, holdout, _) = carve(&data, 40, 200, 40);
    let pool = StreamingPool::create_durable(
        dir,
        "sigkill",
        3,
        train,
        holdout,
        LabelDomain::Binary01,
        IngestPolicy::Reject,
        DurableOptions {
            sync: SyncPolicy::Always,
            compact_every: None,
        },
    )
    .expect("child creates the pool");
    let (more, _) = synthetic_logistic(4_000, 3, 2.0, 100);
    let rows = more.examples();
    let tmp = dir.join("acked.tmp");
    let acked = dir.join("acked");
    for chunk in rows.chunks(20).cycle().take(100_000) {
        pool.append(chunk.to_vec()).expect("valid block");
        // Rename is atomic: the parent never reads a half-written ack.
        std::fs::write(&tmp, pool.epoch().to_string()).expect("write ack");
        std::fs::rename(&tmp, &acked).expect("publish ack");
    }
}

/// Kill -9 a child process mid-append and recover its pool: every
/// epoch the child acknowledged before dying must be present. (The
/// append is only acknowledged after the synced WAL write, so a fully
/// synced pool can never lose an acked epoch to SIGKILL.)
#[test]
fn sigkill_mid_append_recovers_every_acked_epoch() {
    if let Ok(dir) = std::env::var(SIGKILL_DIR_ENV) {
        sigkill_child(Path::new(&dir));
        return;
    }

    let dir = tmpdir("sigkill");
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .arg("--exact")
        .arg("sigkill_mid_append_recovers_every_acked_epoch")
        .arg("--nocapture")
        .env(SIGKILL_DIR_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child appender");

    // Wait until the child has acknowledged a few epochs, then kill it
    // without warning (SIGKILL on Unix — no destructors, no flush).
    let acked_path = dir.join("acked");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let acked: u64 = loop {
        if let Ok(text) = std::fs::read_to_string(&acked_path) {
            if let Ok(epoch) = text.trim().parse::<u64>() {
                if epoch >= 4 {
                    break epoch;
                }
            }
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("child never acknowledged 4 epochs");
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    child.kill().expect("kill child");
    let _ = child.wait();

    let recovered = StreamingPool::<DenseVec>::open(&dir, DurableOptions::default())
        .expect("pool of a SIGKILLed process recovers");
    assert!(
        recovered.epoch() >= acked,
        "recovered epoch {} lost acknowledged epoch {acked}",
        recovered.epoch()
    );
    // The recovered ledger is internally consistent up to its epoch.
    let marks = recovered.marks();
    assert_eq!(marks.len() as u64, recovered.epoch() + 1);
    let snap = recovered.snapshot();
    assert_eq!(snap.train_len(), marks.last().expect("seed mark").train_len);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Warm restart: the pilot sidecar
// ---------------------------------------------------------------------

/// A server restarted with a pilot sidecar serves the same queries
/// bit-identically **without retraining a single pilot**.
#[test]
fn warm_restored_pilots_serve_bit_identically_without_retraining() {
    let d = 4;
    let (data, _) = synthetic_logistic(1_600, d, 2.0, 31);
    let split = data.split(200, 0, 131);
    let train = Arc::new(split.train);
    let holdout = Arc::new(split.holdout);
    let base = base_config(150, Some(2));
    let spec = LogisticRegressionSpec::new(1e-3);
    let sidecar = tmpdir("warm_sidecar").join("pilots.bin");
    std::fs::create_dir_all(sidecar.parent().expect("parent")).expect("scratch dir");
    let serve = ServeConfig {
        workers: 2,
        pilot_cache_capacity: 4,
        pilot_sidecar: Some(sidecar.clone()),
        ..ServeConfig::default()
    };
    let queries: Vec<Query> = (0..2).map(|s| Query::new(7, 0.3, 0.05, s)).collect();

    let server = Server::spawn(
        base.clone(),
        serve.clone(),
        spec.clone(),
        vec![DatasetShard::from_arcs(7, train.clone(), holdout.clone())],
    )
    .expect("spawn cold server");
    let cold: Vec<_> = queries
        .iter()
        .map(|&q| server.query(q).expect("cold response"))
        .collect();
    assert_eq!(server.stats().pilot_trains, 2, "two seeds → two pilots");
    assert_eq!(server.stats().warm_pilots, 0, "no sidecar existed yet");
    server.shutdown_drain(); // persists the sidecar on the way out

    let server = Server::spawn(
        base.clone(),
        serve,
        spec,
        vec![DatasetShard::from_arcs(7, train, holdout)],
    )
    .expect("spawn warm server");
    assert_eq!(
        server.stats().warm_pilots,
        2,
        "both pilots restore from the sidecar"
    );
    for (q, cold_resp) in queries.iter().zip(&cold) {
        let warm_resp = server.query(*q).expect("warm response");
        assert_bitwise_eq(
            &format!("warm seed {}", q.seed),
            &warm_resp.outcome,
            &cold_resp.outcome,
        );
    }
    let stats = server.stats();
    assert_eq!(stats.pilot_trains, 0, "warm pilots must not retrain");
    assert_eq!(stats.cache_hits, 2, "both queries hit the restored cache");
    server.shutdown_drain();
    let _ = std::fs::remove_dir_all(sidecar.parent().expect("parent"));
}

/// `advance_epoch` retirement floors survive a restart: a pilot
/// retired before shutdown is not resurrected by the warm restore.
#[test]
fn advance_epoch_floors_survive_restart() {
    let d = 4;
    let (data, _) = synthetic_logistic(1_600, d, 2.0, 51);
    let split = data.split(200, 0, 151);
    let pool = Arc::new(
        StreamingPool::from_datasets(
            &split.train,
            &split.holdout,
            LabelDomain::Binary01,
            IngestPolicy::Reject,
        )
        .expect("seed rows are valid"),
    );
    let base = base_config(150, Some(2));
    let spec = LogisticRegressionSpec::new(1e-3);
    let sidecar = tmpdir("floor_sidecar").join("pilots.bin");
    std::fs::create_dir_all(sidecar.parent().expect("parent")).expect("scratch dir");
    let serve = ServeConfig {
        workers: 2,
        pilot_cache_capacity: 4,
        max_stale_epochs: 0,
        pilot_sidecar: Some(sidecar.clone()),
        ..ServeConfig::default()
    };

    let server = Server::spawn_with_streams(
        base.clone(),
        serve.clone(),
        spec.clone(),
        Vec::new(),
        vec![StreamShard::from_arc(5, pool.clone())],
    )
    .expect("spawn server");
    server
        .query(Query::new(5, 0.3, 0.05, 0))
        .expect("epoch-0 query");

    // Advance the pool and retire everything below the new epoch.
    let block: Vec<Example<DenseVec>> = split.train.examples().iter().take(80).cloned().collect();
    pool.append(block).expect("valid block");
    let retired = server.advance_epoch(5).expect("advance");
    assert_eq!(retired, 1, "the epoch-0 pilot is below the new floor");
    server
        .query(Query::new(5, 0.3, 0.05, 0))
        .expect("epoch-1 query");
    assert_eq!(
        server.stats().pilot_trains,
        2,
        "retirement forced a retrain"
    );
    server.shutdown_drain(); // persists entries AND floors

    let server = Server::spawn_with_streams(
        base,
        serve,
        spec,
        Vec::new(),
        vec![StreamShard::from_arc(5, pool.clone())],
    )
    .expect("respawn server");
    assert_eq!(
        server.stats().warm_pilots,
        1,
        "only the epoch-1 pilot survives the floor"
    );
    let served = server
        .query(Query::new(5, 0.3, 0.05, 0))
        .expect("warm query");
    assert_eq!(served.epoch, pool.epoch(), "served at the current epoch");
    let stats = server.stats();
    assert_eq!(
        stats.pilot_trains, 0,
        "the surviving pilot needs no retrain"
    );
    server.shutdown_drain();
    let _ = std::fs::remove_dir_all(sidecar.parent().expect("parent"));
}

/// A sidecar written in the version-1 format (magic `BMLPILO1`, whose
/// implicit factor held Gram eigenpairs) is ignored at spawn: the
/// server starts cold and answers bit-identically to a cold server. The
/// shard is sparse maxent with `D > n₀`, so the pilot carries the
/// implicit factor whose encoding changed.
#[test]
fn version_one_sidecar_cold_starts_bit_identically() {
    let data = yelp_like(1_200, 120, 71); // D = 5·120 = 600 > n₀ = 100
    let split = data.split(200, 0, 171);
    let train = Arc::new(split.train);
    let holdout = Arc::new(split.holdout);
    let base = base_config(100, Some(2));
    let spec = MaxEntSpec::new(1e-3, 5);
    let scratch = tmpdir("v1_sidecar");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let sidecar = scratch.join("pilots.bin");
    let serve = ServeConfig {
        workers: 1,
        pilot_sidecar: Some(sidecar.clone()),
        ..ServeConfig::default()
    };
    let query = Query::new(7, 0.3, 0.05, 0);
    let spawn = || {
        Server::spawn(
            base.clone(),
            serve.clone(),
            spec.clone(),
            vec![DatasetShard::from_arcs(7, train.clone(), holdout.clone())],
        )
        .expect("spawn")
    };

    let server = spawn();
    let cold = server.query(query).expect("cold response");
    server.shutdown_drain(); // writes a current-format sidecar

    // The same file under the version-1 magic.
    let mut bytes = std::fs::read(&sidecar).expect("sidecar written");
    assert_eq!(&bytes[..8], b"BMLPILO2");
    bytes[..8].copy_from_slice(b"BMLPILO1");
    std::fs::write(&sidecar, bytes).expect("rewrite sidecar");

    let server = spawn();
    assert_eq!(server.stats().warm_pilots, 0, "a v1 sidecar is not loaded");
    let served = server.query(query).expect("served");
    assert_eq!(server.stats().pilot_trains, 1, "the pilot retrains");
    assert_bitwise_eq("v1 sidecar", &served.outcome, &cold.outcome);
    server.shutdown_drain();
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A missing or damaged sidecar is a cold start, never a spawn error.
#[test]
fn missing_or_damaged_sidecar_cold_starts() {
    let d = 3;
    let (data, _) = synthetic_logistic(800, d, 2.0, 61);
    let split = data.split(100, 0, 161);
    let train = Arc::new(split.train);
    let holdout = Arc::new(split.holdout);
    let base = base_config(100, Some(2));
    let spec = LogisticRegressionSpec::new(1e-3);
    let scratch = tmpdir("damaged_sidecar");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let sidecar = scratch.join("pilots.bin");

    // Missing file: spawn succeeds, zero warm pilots.
    let serve = ServeConfig {
        workers: 1,
        pilot_sidecar: Some(sidecar.clone()),
        ..ServeConfig::default()
    };
    let server = Server::spawn(
        base.clone(),
        serve.clone(),
        spec.clone(),
        vec![DatasetShard::from_arcs(7, train.clone(), holdout.clone())],
    )
    .expect("missing sidecar is a cold start");
    assert_eq!(server.stats().warm_pilots, 0);
    server.query(Query::new(7, 0.3, 0.05, 0)).expect("served");
    server.shutdown_drain(); // writes a valid sidecar

    // Damage it: still a cold start, still not an error.
    let mut bytes = std::fs::read(&sidecar).expect("sidecar written");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&sidecar, bytes).expect("damage sidecar");
    let server = Server::spawn(
        base,
        serve,
        spec,
        vec![DatasetShard::from_arcs(7, train, holdout)],
    )
    .expect("damaged sidecar is a cold start");
    assert_eq!(server.stats().warm_pilots, 0, "damage discards the cache");
    server.query(Query::new(7, 0.3, 0.05, 0)).expect("served");
    server.shutdown_drain();
    let _ = std::fs::remove_dir_all(&scratch);
}

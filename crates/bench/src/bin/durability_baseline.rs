//! Record the durability baseline to `results/BENCH_durability.json`.
//!
//! Three experiments over the ingest WAL:
//!
//! * **Ingest overhead per sync policy** — the end-to-end ingest
//!   pipeline (parse one CSV block from memory, validate it, admit
//!   it) against an in-memory [`StreamingPool`] versus durable pools
//!   under each [`SyncPolicy`] (`OsManaged`, `EveryN(8)`, `Always`),
//!   reported as rows/s, min over reps. Rows arrive as text because
//!   that is what the repo's loaders ingest; both arms run the
//!   identical pipeline and only the pool differs, so the ratio
//!   isolates what durability costs a real ingest path. Gate (both
//!   modes): `OsManaged` stays within **1.2×** of the in-memory wall
//!   clock — with fsync left to the OS, the WAL's encode + checksum +
//!   write must stay a minor tax on ingest, not a second pipeline.
//! * **Replay throughput** — [`StreamingPool::open`] on the snapshot
//!   plus the full append log, reported as replayed rows/s, min over
//!   reps. Gate (both modes): the recovered pool is **bit-exactly**
//!   the live pool — every row of every epoch, label and feature bits
//!   compared with [`f64::to_bits`].
//! * **Compaction** — one `compact()` (snapshot + log truncate) and a
//!   reopen of the compacted image, which must again be bit-exact.
//!
//! Usage:
//! `cargo run --release -p blinkml-bench --bin durability_baseline -- \
//!  [mode=full|smoke] [n=20000] [dim=16] [holdout=2000] [blocks=8] \
//!  [block_rows=1000] [reps=5] [seed=1]`

use blinkml_bench::{fmt_duration, time_it, BenchArgs, Table};
use blinkml_data::generators::synthetic_logistic;
use blinkml_data::{
    Dataset, DenseVec, DurableOptions, IngestPolicy, LabelDomain, StreamingPool, SyncPolicy,
};
use blinkml_prob::split_seed;
use serde_json::json;
use std::path::PathBuf;
use std::time::Duration;

/// `OsManaged` appends may cost at most this factor over in-memory.
const OS_MANAGED_GATE: f64 = 1.2;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "blinkml_durability_bench_{}_{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every row of both datasets equal down to the f64 bit pattern.
fn rows_bit_equal(a: &Dataset<DenseVec>, b: &Dataset<DenseVec>) -> bool {
    a.len() == b.len()
        && a.dim() == b.dim()
        && a.examples().iter().zip(b.examples()).all(|(ra, rb)| {
            ra.y.to_bits() == rb.y.to_bits()
                && ra
                    .x
                    .0
                    .iter()
                    .zip(&rb.x.0)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Assert the recovered pool is bit-exactly the live pool at every
/// retained epoch — the replay bitwise gate.
fn assert_bit_exact(recovered: &StreamingPool<DenseVec>, live: &StreamingPool<DenseVec>) {
    assert_eq!(recovered.epoch(), live.epoch(), "replay lost an epoch");
    assert_eq!(recovered.marks(), live.marks(), "replay bent the ledger");
    let (r, l) = (recovered.snapshot(), live.snapshot());
    assert!(
        rows_bit_equal(&r.train_dataset(), &l.train_dataset()),
        "replayed train rows diverged bitwise"
    );
    assert!(
        rows_bit_equal(&r.holdout_dataset(), &l.holdout_dataset()),
        "replayed holdout rows diverged bitwise"
    );
}

fn main() {
    let args = BenchArgs::parse(&[
        "mode",
        "n",
        "dim",
        "holdout",
        "blocks",
        "block_rows",
        "reps",
        "seed",
    ]);
    let mode = args.get_str("mode", "full");
    let smoke = mode == "smoke";
    assert!(
        smoke || mode == "full",
        "mode must be 'full' or 'smoke', got '{mode}'"
    );
    let n = args.get_usize("n", if smoke { 4_000 } else { 20_000 });
    let dim = args.get_usize("dim", if smoke { 8 } else { 16 });
    let holdout = args.get_usize("holdout", if smoke { 400 } else { 2_000 });
    // Smoke keeps the pool small but not the appends: blocks much
    // under ~1k rows shrink the timed region to where per-append
    // fixed costs and timer noise swamp the ratio the gate checks.
    let blocks = args.get_usize("blocks", if smoke { 4 } else { 8 });
    let block_rows = args.get_usize("block_rows", 1_000);
    let reps = args.get_usize("reps", 5);
    let seed = args.get_u64("seed", 1);

    let (data, _) = synthetic_logistic(n, dim, 2.0, split_seed(seed, 1));
    let split = data.split(holdout, 0, split_seed(seed, 11));
    let appended_rows = blocks * block_rows;

    // Arrival buffers: one CSV block each, label first. `{}` prints
    // the shortest roundtrip representation, so the parse is bit-exact
    // and the replay gate below stays meaningful.
    let csv_blocks: Vec<Vec<u8>> = (0..blocks)
        .map(|b| {
            let (block, _) =
                synthetic_logistic(block_rows, dim, 2.0, split_seed(seed, 100 + b as u64));
            let mut buf = Vec::new();
            blinkml_data::io::write_csv(&block, &mut buf).expect("serialize block");
            buf
        })
        .collect();

    // The timed ingest pipeline: parse one arrived CSV block, then
    // admit it. Identical in both arms — only the pool's durability
    // differs.
    let ingest_blocks = |pool: &StreamingPool<DenseVec>| {
        for csv in &csv_blocks {
            let block = blinkml_data::io::read_csv(csv.as_slice(), 0).expect("parse block");
            pool.append(block.into_examples()).expect("valid block");
        }
    };

    // --- Ingest overhead: in-memory vs each sync policy. ---
    // Both arms seed the pool with its own copy of the rows, outside
    // the timed region, so neither pays a seed copy inside it.
    let mut t_memory = Duration::MAX;
    for _ in 0..reps {
        let pool = StreamingPool::new(
            "durability-bench",
            dim,
            split.train.examples().to_vec(),
            split.holdout.examples().to_vec(),
            LabelDomain::Binary01,
            IngestPolicy::Reject,
        )
        .expect("seed rows are valid");
        let (_, t) = time_it(|| ingest_blocks(&pool));
        t_memory = t_memory.min(t);
    }

    let policies: [(&str, SyncPolicy); 3] = [
        ("os_managed", SyncPolicy::OsManaged),
        ("every_8", SyncPolicy::EveryN(8)),
        ("always", SyncPolicy::Always),
    ];
    let mut policy_times: Vec<(&str, Duration)> = Vec::new();
    for (label, sync) in policies {
        let mut best = Duration::MAX;
        for rep in 0..reps {
            let dir = scratch(&format!("append_{label}_{rep}"));
            let pool = StreamingPool::create_durable(
                &dir,
                "durability-bench",
                dim,
                split.train.examples().to_vec(),
                split.holdout.examples().to_vec(),
                LabelDomain::Binary01,
                IngestPolicy::Reject,
                DurableOptions {
                    sync,
                    compact_every: None,
                },
            )
            .expect("create durable pool");
            let (_, t) = time_it(|| ingest_blocks(&pool));
            assert_eq!(pool.epoch(), blocks as u64, "one epoch per block");
            best = best.min(t);
            drop(pool);
            let _ = std::fs::remove_dir_all(&dir);
        }
        policy_times.push((label, best));
    }
    let rows_per_sec = |t: Duration| appended_rows as f64 / t.as_secs_f64().max(1e-12);
    let os_managed_overhead = policy_times[0].1.as_secs_f64() / t_memory.as_secs_f64().max(1e-12);
    assert!(
        os_managed_overhead <= OS_MANAGED_GATE,
        "OsManaged append overhead {os_managed_overhead:.3}x exceeds the \
         {OS_MANAGED_GATE}x gate ({} vs {} in-memory)",
        fmt_duration(policy_times[0].1),
        fmt_duration(t_memory),
    );

    // --- Replay throughput + bitwise gate. ---
    let replay_dir = scratch("replay");
    let live = StreamingPool::create_durable(
        &replay_dir,
        "durability-bench",
        dim,
        split.train.examples().to_vec(),
        split.holdout.examples().to_vec(),
        LabelDomain::Binary01,
        IngestPolicy::Reject,
        DurableOptions {
            sync: SyncPolicy::OsManaged,
            compact_every: None,
        },
    )
    .expect("create durable pool");
    ingest_blocks(&live);
    live.sync().expect("settle the log");
    let mut t_replay = Duration::MAX;
    for _ in 0..reps {
        let (recovered, t) = time_it(|| {
            StreamingPool::<DenseVec>::open(&replay_dir, DurableOptions::default())
                .expect("replay the log")
        });
        assert_bit_exact(&recovered, &live);
        t_replay = t_replay.min(t);
    }
    let replay_rows_per_sec = appended_rows as f64 / t_replay.as_secs_f64().max(1e-12);

    // --- Compaction: snapshot + truncate, then a bit-exact reopen. ---
    let log_before = live.wal_len();
    let (_, t_compact) = time_it(|| live.compact().expect("compact"));
    assert_eq!(live.wal_len(), 0, "compaction must truncate the log");
    let reopened = StreamingPool::<DenseVec>::open(&replay_dir, DurableOptions::default())
        .expect("reopen the compacted image");
    assert_bit_exact(&reopened, &live);
    let _ = std::fs::remove_dir_all(&replay_dir);

    // --- Report. ---
    let mut table = Table::new(
        format!(
            "Durability baseline: {blocks} blocks × {block_rows} rows onto a \
             {n}-row pool (dim {dim})"
        ),
        &["metric", "value"],
    );
    table.row(&[
        "in-memory append".into(),
        format!("{:.0} rows/s", rows_per_sec(t_memory)),
    ]);
    for (label, t) in &policy_times {
        table.row(&[
            format!("durable append ({label})"),
            format!("{:.0} rows/s", rows_per_sec(*t)),
        ]);
    }
    table.row(&[
        "os_managed overhead".into(),
        format!("{os_managed_overhead:.3}x (gate {OS_MANAGED_GATE}x)"),
    ]);
    table.row(&[
        "replay".into(),
        format!(
            "{replay_rows_per_sec:.0} rows/s ({})",
            fmt_duration(t_replay)
        ),
    ]);
    table.row(&[
        "compaction".into(),
        format!(
            "{} ({log_before} log bytes folded)",
            fmt_duration(t_compact)
        ),
    ]);
    table.print();
    println!("\nreplayed and compacted states bit-exact; append gate held");

    if smoke {
        println!("\nsmoke mode: skipping results/BENCH_durability.json");
        return;
    }

    let shape = json!({
        "n": n,
        "dim": dim,
        "holdout": holdout,
        "blocks": blocks,
        "block_rows": block_rows,
        "reps": reps,
    });
    let append = json!({
        "rows_appended": appended_rows,
        "in_memory_rows_per_sec": rows_per_sec(t_memory),
        "os_managed_rows_per_sec": rows_per_sec(policy_times[0].1),
        "every_8_rows_per_sec": rows_per_sec(policy_times[1].1),
        "always_rows_per_sec": rows_per_sec(policy_times[2].1),
        "os_managed_overhead": os_managed_overhead,
        "gate": OS_MANAGED_GATE,
    });
    let replay = json!({
        "rows_replayed": appended_rows,
        "best_ms": t_replay.as_secs_f64() * 1e3,
        "rows_per_sec": replay_rows_per_sec,
        "bit_exact": true,
    });
    let compaction = json!({
        "compact_ms": t_compact.as_secs_f64() * 1e3,
        "log_bytes_folded": log_before,
        "reopen_bit_exact": true,
    });
    let doc = json!({
        "bench": "durability",
        "seed": seed,
        "threads": blinkml_data::parallel::max_threads(),
        "shape": shape,
        "append": append,
        "replay": replay,
        "compaction": compaction,
    });
    let path = blinkml_bench::report::write_baseline("BENCH_durability.json", &doc);
    println!("\nwrote {}", path.display());
}

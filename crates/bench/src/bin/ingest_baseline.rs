//! Record the streaming-ingest baseline to `results/BENCH_ingest.json`.
//!
//! Three experiments:
//!
//! * **Append throughput** — validated row blocks appended to a
//!   [`StreamingPool`] (epoch bump + mark per block), reported as
//!   rows/s, min over reps.
//! * **Incremental vs full statistics** — the pilot's Fisher
//!   second-moment maintained per appended block as a rank-k
//!   [`IncrementalSecondMoment::update`] versus a cold recompute over
//!   all rows seen so far. Reports the speedup and the worst relative
//!   Frobenius gap between the two reconstructions. Gate (both modes):
//!   the gap stays within **1e-10** under the dense spectral method,
//!   and a `verified_update` pass pins the same bound.
//! * **Drift-triggered serving** — a streaming [`Server`] with a
//!   zero-width stale band: the cold query, a fresh-reuse query after a
//!   train-only append (drift score 0), and a drift-triggered retrain
//!   after a holdout append. Latencies per rung plus the drift
//!   counters, which are asserted in both modes.
//!
//! Usage:
//! `cargo run --release -p blinkml-bench --bin ingest_baseline -- \
//!  [mode=full|smoke] [n=40000] [dim=24] [n0=1000] [holdout=2000] \
//!  [blocks=8] [block_rows=2000] [reps=5] [seed=1]`

use blinkml_bench::{fmt_duration, time_it, BenchArgs, Table};
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::moments::rel_frobenius_gap;
use blinkml_core::serve::{Query, Server, StreamShard};
use blinkml_core::{
    BlinkMlConfig, DegradationRung, IncrementalSecondMoment, ModelClassSpec, ServeConfig,
    SpectralMethod,
};
use blinkml_data::generators::synthetic_logistic;
use blinkml_data::{
    Dataset, DatasetMatrix, DenseVec, Example, IngestPolicy, LabelDomain, StreamingPool,
};
use blinkml_optim::OptimOptions;
use blinkml_prob::split_seed;
use serde_json::json;
use std::sync::Arc;
use std::time::Duration;

/// The dense-path equivalence gate for incremental Fisher maintenance.
const FROBENIUS_GATE: f64 = 1e-10;

fn block(n: usize, d: usize, seed: u64, offset: f64) -> Vec<Example<DenseVec>> {
    let (data, _) = synthetic_logistic(n, d, 2.0, seed);
    data.examples()
        .iter()
        .map(|e| Example {
            x: DenseVec::new(e.x.0.iter().map(|v| v + offset).collect()),
            y: e.y,
        })
        .collect()
}

fn main() {
    let args = BenchArgs::parse(&[
        "mode",
        "n",
        "dim",
        "n0",
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
    let n = args.get_usize("n", if smoke { 6_000 } else { 40_000 });
    let dim = args.get_usize("dim", if smoke { 8 } else { 24 });
    let n0 = args.get_usize("n0", if smoke { 300 } else { 1_000 });
    let holdout = args.get_usize("holdout", if smoke { 600 } else { 2_000 });
    let blocks = args.get_usize("blocks", if smoke { 4 } else { 8 });
    let block_rows = args.get_usize("block_rows", if smoke { 400 } else { 2_000 });
    let reps = args.get_usize("reps", if smoke { 3 } else { 5 });
    let seed = args.get_u64("seed", 1);

    let base = BlinkMlConfig {
        epsilon: 0.10,
        delta: 0.05,
        initial_sample_size: n0,
        holdout_size: holdout,
        num_param_samples: 32,
        ..BlinkMlConfig::default()
    };
    let spec = LogisticRegressionSpec::new(1e-3);
    let (data, _) = synthetic_logistic(n, dim, 2.0, split_seed(seed, 1));
    let split = data.split(holdout, 0, split_seed(seed, 11));

    // --- Append throughput: validated blocks into a fresh pool. ---
    let append_blocks: Vec<Vec<Example<DenseVec>>> = (0..blocks)
        .map(|b| block(block_rows, dim, split_seed(seed, 100 + b as u64), 0.0))
        .collect();
    // The pool owns its seed rows (copied outside the timed region), so
    // the first append extends the log instead of copying the seed.
    let mut t_append = Duration::MAX;
    for _ in 0..reps {
        let pool = StreamingPool::new(
            "ingest-bench",
            dim,
            split.train.examples().to_vec(),
            split.holdout.examples().to_vec(),
            LabelDomain::Binary01,
            IngestPolicy::Reject,
        )
        .expect("seed rows are valid");
        let (_, t) = time_it(|| {
            for rows in &append_blocks {
                let receipt = pool.append(rows.clone()).expect("valid block");
                assert_eq!(receipt.accepted, block_rows);
            }
        });
        assert_eq!(pool.epoch(), blocks as u64, "one epoch per block");
        t_append = t_append.min(t);
    }
    let appended_rows = blocks * block_rows;
    let rows_per_sec = appended_rows as f64 / t_append.as_secs_f64().max(1e-12);

    // --- Incremental vs full Fisher statistics. The pilot θ is fixed
    // once (trained on the first n₀ seed rows); each appended block's
    // per-row gradients fold into the maintained eigenpairs as a rank-k
    // update, compared against a cold recompute over all rows so far. ---
    let pilot_rows: Vec<Example<DenseVec>> =
        split.train.examples()[..n0.min(split.train.len())].to_vec();
    let pilot_data = Dataset::new("pilot", dim, pilot_rows);
    let pilot = spec
        .train(&pilot_data, None, &OptimOptions::default())
        .expect("pilot fit");
    let theta = pilot.parameters().to_vec();
    // Per-row gradients of a block through the view path.
    let grads = |data: &Dataset<DenseVec>| {
        let xm = DatasetMatrix::from_dataset(data);
        ModelClassSpec::<DenseVec>::grads(&spec, &theta, &xm.view())
    };

    let base_grads = grads(&pilot_data);
    let mut seen: Vec<Example<DenseVec>> = pilot_data.examples().to_vec();
    let mut incremental =
        IncrementalSecondMoment::new(&base_grads, SpectralMethod::Dense).expect("base moment");
    let mut t_incremental = Duration::ZERO;
    let mut t_full = Duration::ZERO;
    let mut worst_gap = 0.0f64;
    for rows in &append_blocks {
        // Incremental side: gradients for the new rows only + rank-k
        // eigenpair update.
        let block_data = Dataset::new("block", dim, rows.clone());
        let (_, t) = time_it(|| {
            let g = grads(&block_data);
            incremental
                .update(&g, SpectralMethod::Dense)
                .expect("rank-k update");
        });
        t_incremental += t;

        // Full side: gradients for every row seen so far + cold
        // eigendecomposition.
        seen.extend(rows.iter().cloned());
        let all_data = Dataset::new("all", dim, seen.clone());
        let (cold, t) = time_it(|| {
            let g = grads(&all_data);
            IncrementalSecondMoment::new(&g, SpectralMethod::Dense).expect("cold moment")
        });
        t_full += t;

        let gap = rel_frobenius_gap(&incremental.second_moment(), &cold.second_moment());
        worst_gap = worst_gap.max(gap);
    }
    assert!(
        worst_gap <= FROBENIUS_GATE,
        "incremental Fisher maintenance drifted from the cold recompute: \
         worst relative Frobenius gap {worst_gap:.3e} > {FROBENIUS_GATE:.0e}"
    );
    let stats_speedup = t_full.as_secs_f64() / t_incremental.as_secs_f64().max(1e-12);

    // Verified-equivalence mode: every update is pinned against the
    // cold recompute and leaves the cold eigenpairs installed.
    let mut verified =
        IncrementalSecondMoment::new(&base_grads, SpectralMethod::Dense).expect("base moment");
    let mut vseen = pilot_data.examples().to_vec();
    let mut worst_verified_gap = 0.0f64;
    for rows in &append_blocks {
        let block_data = Dataset::new("block", dim, rows.clone());
        vseen.extend(rows.iter().cloned());
        let all_data = Dataset::new("all", dim, vseen.clone());
        let g = grads(&block_data);
        let full_g = grads(&all_data);
        let gap = verified
            .verified_update(&g, &full_g, SpectralMethod::Dense)
            .expect("verified update");
        worst_verified_gap = worst_verified_gap.max(gap);
    }
    assert!(
        worst_verified_gap <= FROBENIUS_GATE,
        "verified_update gap {worst_verified_gap:.3e} > {FROBENIUS_GATE:.0e}"
    );

    // --- Drift-triggered serving: cold lead, fresh reuse after a
    // train-only append, retrain after a holdout append. ---
    let pool = Arc::new(
        StreamingPool::from_datasets(
            &split.train,
            &split.holdout,
            LabelDomain::Binary01,
            IngestPolicy::Reject,
        )
        .expect("seed rows are valid"),
    );
    let server = Server::spawn_with_streams(
        base.clone(),
        ServeConfig {
            workers: 1,
            // Zero-width stale band: train-only appends reuse the pilot
            // (score is exactly 0), any new holdout rows retrain.
            drift_warn: 1e-12,
            drift_fail: 1e-12,
            ..ServeConfig::default()
        },
        spec.clone(),
        Vec::new(),
        vec![StreamShard::from_arc(1, pool.clone())],
    )
    .expect("spawn server");
    let query = Query::new(1, 0.10, 0.05, 7);

    let (cold, t_cold) = time_it(|| server.query(query).expect("cold query"));
    assert_eq!(cold.rung, DegradationRung::Full);
    assert_eq!(cold.epoch, 0);

    pool.append(block(block_rows, dim, split_seed(seed, 300), 0.0))
        .expect("valid block");
    let (fresh, t_fresh) = time_it(|| server.query(query).expect("fresh query"));
    assert_eq!(fresh.epoch, 0, "fresh reuse pins the pilot's snapshot");

    pool.append_holdout(block(holdout / 2, dim, split_seed(seed, 301), 1.0))
        .expect("valid block");
    let (retrained, t_retrain) = time_it(|| server.query(query).expect("retrain query"));
    assert_eq!(
        retrained.epoch,
        pool.epoch(),
        "drift retrain pins the current epoch"
    );

    let stats = server.stats();
    server.shutdown();
    assert_eq!(stats.drift_fresh, 1, "the train-only append must reuse");
    assert_eq!(stats.drift_retrains, 1, "the holdout append must retrain");
    assert_eq!(stats.drift_stale_served, 0, "zero-width stale band");
    assert_eq!(stats.pilot_trains, 2);
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed,
        "exactly-once reconciliation must hold at quiescence"
    );

    // --- Report. ---
    let mut table = Table::new(
        format!(
            "Ingest baseline: {blocks} blocks × {block_rows} rows onto a \
             {n}-row pool (dim {dim}, n₀ {n0})"
        ),
        &["metric", "value"],
    );
    table.row(&[
        "append throughput".into(),
        format!("{rows_per_sec:.0} rows/s"),
    ]);
    table.row(&[
        "incremental stats (total)".into(),
        fmt_duration(t_incremental),
    ]);
    table.row(&["full recompute (total)".into(), fmt_duration(t_full)]);
    table.row(&["incremental speedup".into(), format!("{stats_speedup:.2}x")]);
    table.row(&["worst Frobenius gap".into(), format!("{worst_gap:.3e}")]);
    table.row(&[
        "worst verified gap".into(),
        format!("{worst_verified_gap:.3e}"),
    ]);
    table.row(&["cold query".into(), fmt_duration(t_cold)]);
    table.row(&["fresh reuse query".into(), fmt_duration(t_fresh)]);
    table.row(&["drift retrain query".into(), fmt_duration(t_retrain)]);
    table.print();
    println!(
        "\nincremental ≡ full within {FROBENIUS_GATE:.0e} over {blocks} \
         rank-k updates; drift ladder counters reconciled"
    );

    if smoke {
        println!("\nsmoke mode: skipping results/BENCH_ingest.json");
        return;
    }

    let shape = json!({
        "n": n,
        "dim": dim,
        "n0": n0,
        "holdout": holdout,
        "blocks": blocks,
        "block_rows": block_rows,
        "reps": reps,
    });
    let append = json!({
        "rows_appended": appended_rows,
        "best_ms": t_append.as_secs_f64() * 1e3,
        "rows_per_sec": rows_per_sec,
    });
    let incremental_stats = json!({
        "incremental_ms": t_incremental.as_secs_f64() * 1e3,
        "full_ms": t_full.as_secs_f64() * 1e3,
        "speedup": stats_speedup,
        "worst_rel_frobenius_gap": worst_gap,
        "worst_verified_gap": worst_verified_gap,
        "gate": FROBENIUS_GATE,
    });
    let drift_serving = json!({
        "cold_ms": t_cold.as_secs_f64() * 1e3,
        "fresh_reuse_ms": t_fresh.as_secs_f64() * 1e3,
        "retrain_ms": t_retrain.as_secs_f64() * 1e3,
        "drift_fresh": stats.drift_fresh,
        "drift_retrains": stats.drift_retrains,
        "drift_stale_served": stats.drift_stale_served,
    });
    let doc = json!({
        "bench": "ingest",
        "seed": seed,
        "threads": blinkml_data::parallel::max_threads(),
        "shape": shape,
        "append": append,
        "incremental_stats": incremental_stats,
        "drift_serving": drift_serving,
    });
    let path = blinkml_bench::report::write_baseline("BENCH_ingest.json", &doc);
    println!("\nwrote {}", path.display());
}

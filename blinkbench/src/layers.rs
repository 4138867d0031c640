//! Per-layer measurements for traced runs: the layer replay of one
//! coordinator call, and the ingest/WAL probe on the workload's rows.
//!
//! The replay re-runs the coordinator's steps one public entry point at
//! a time, so each layer gets its own time on the workload's own data:
//!
//! 1. `DatasetMatrix::from_dataset` on the pool; `Dataset::sample_view`
//!    D₀ and `capture_sample`, then `spec.train(D₀)` (pilot fit)
//! 2. `compute_statistics` (ObservedFisher)
//! 3. `ModelAccuracyEstimator::estimate` + `SampleSizeEstimator::estimate`
//! 4. the same draw and capture for Dₙ, then `spec.train(Dₙ, warm θ₀)`
//! 5. `spec.train(full pool)` (the paper's full-model baseline)
//! 6. the `linalg::simd` row kernels over a flat copy of the pool
//! 7. `SymmetricEigen` on a harness-built SPD matrix at the statistics order
//!
//! A replay phase time is what the coordinator's phase timer covers:
//! the index draw, the capture and the fit for the two training phases.

use crate::report::{Layers, Tally};
use crate::stats::{median, ms, XorShift};
use crate::trace::timed;
use blinkml_core::{
    compute_statistics, BlinkMlConfig, ModelAccuracyEstimator, ModelClassSpec, SampleSizeEstimator,
};
use blinkml_data::{
    Dataset, DatasetMatrix, DurableOptions, Example, FeatureVec, IngestPolicy, StreamingPool,
    WalRow,
};
use blinkml_linalg::{blas, simd, Matrix, SymmetricEigen};
use blinkml_prob::split_seed;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Span id shared by every replay step.
pub const REPLAY_ID: u64 = u64::MAX;

/// Repetitions of the replayed call (steps 1–4).
const REPLAY_REPS: usize = 3;

/// What steps 1–4 report, in the order the replay loop produces them.
/// The `replay.*` entries are the replay's own times for the two
/// training phases; they stay in the report, outside `BENCHMARK.json`'s
/// per-layer list.
const STEP_METRICS: [&str; 11] = [
    "optim.pilot_fit_ms",
    "core.stats.ms",
    "core.sample_size.ms",
    "core.sample_size.probes",
    "optim.final_fit_ms",
    "optim.iterations",
    "optim.ms_per_iter",
    "data.matrix.capture_ms",
    "data.matrix.capture_bytes",
    "replay.initial_training_ms",
    "replay.final_training_ms",
];

/// Cap on the flat copy the SIMD kernels stream, in bytes.
const SIMD_CAP_BYTES: usize = 256 << 20;

/// What the replay's final fit produced, for comparison with the call
/// it replays.
pub struct Replayed {
    pub n: usize,
    pub theta: Vec<f64>,
}

/// Replay one coordinator call at `seed` step by step (see module docs)
/// and record each layer's numbers.
pub fn replay<F, S>(
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    config: &BlinkMlConfig,
    seed: u64,
    layers: &mut Layers,
) -> Result<Replayed, String>
where
    F: FeatureVec,
    S: ModelClassSpec<F> + ?Sized,
{
    let id = REPLAY_ID;
    let full_n = train.len();
    let n0 = config.initial_sample_size.min(full_n);
    let k = config.num_param_samples;
    let err = |e: blinkml_core::CoreError| e.to_string();

    let (pool, t) = timed("data.matrix.from_dataset", id, || {
        DatasetMatrix::from_dataset(train)
    });
    layers.set("data.matrix.build_ms", ms(t));
    // The coordinator's sample draw: indices, then a capture from the
    // pool matrix (timed), then the rows `spec.train` takes (untimed:
    // the coordinator trains on the capture itself).
    let draw = |n: usize, sample_seed: u64| {
        let (view, t_draw) = timed("data.dataset.sample_view", id, || {
            train.sample_view(n, sample_seed)
        });
        let (bytes, t_capture) = timed("data.matrix.capture_sample", id, || {
            black_box(pool.capture_sample(view.indices()).view().data_bytes())
        });
        let (rows, _) = timed("data.dataset.materialize", id, || view.materialize());
        (rows, t_draw + t_capture, t_capture, bytes)
    };

    // Steps 1–4 are the coordinator's call; they run REPLAY_REPS times
    // and each number is the median over the repetitions.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); STEP_METRICS.len()];
    let mut last = None;
    for _ in 0..REPLAY_REPS {
        // 1. Pilot sample and fit.
        let (d0, t_draw0, _, _) = draw(n0, split_seed(seed, 0));
        let (m0, t_pilot) = timed("optim.train.pilot", id, || {
            spec.train(&d0, None, &config.optim)
        });
        let m0 = m0.map_err(err)?;

        // 2. Statistics.
        let (stats, t_stats) = timed("core.stats.compute_statistics", id, || {
            compute_statistics(config.statistics_method, spec, m0.parameters(), &d0)
        });
        let stats = stats.map_err(err)?;
        drop(d0);

        // 3. Accuracy of m₀ and the sample-size search (the coordinator's
        // search phase runs both).
        let (eps0, t_accuracy) = timed("core.accuracy.estimate", id, || {
            ModelAccuracyEstimator::new(k).estimate(
                spec,
                m0.parameters(),
                &stats,
                n0,
                full_n,
                holdout,
                config.delta,
                split_seed(seed, 1),
            )
        });
        black_box(eps0);
        let (est, t_search) = timed("core.sample_size.estimate", id, || {
            SampleSizeEstimator::new(k).estimate(
                spec,
                m0.parameters(),
                &stats,
                n0,
                full_n,
                holdout,
                config.epsilon,
                config.delta,
                split_seed(seed, 2),
            )
        });

        // 4. Final fit, warm-started from θ₀.
        let (dn, t_draw_n, t_capture, bytes) = draw(est.n, split_seed(seed, 3));
        let (mn, t_final) = timed("optim.train.final", id, || {
            spec.train(&dn, Some(m0.parameters()), &config.optim)
        });
        let mn = mn.map_err(err)?;
        drop(dn);

        let values = [
            ms(t_pilot),
            ms(t_stats),
            ms(t_accuracy + t_search),
            est.probes as f64,
            ms(t_final),
            mn.iterations as f64,
            ms(t_final) / mn.iterations.max(1) as f64,
            ms(t_capture),
            bytes as f64,
            ms(t_draw0 + t_pilot),
            ms(t_draw_n + t_final),
        ];
        for (s, v) in samples.iter_mut().zip(values) {
            s.push(v);
        }
        last = Some((est.n, mn));
    }
    drop(pool);
    for (name, s) in STEP_METRICS.iter().zip(&samples) {
        layers.set(name, median(s));
    }
    let (n, mn) = last.expect("at least one replay repetition");

    // 5. The full model.
    let (full, t) = timed("optim.train.full", id, || {
        spec.train(train, None, &config.optim)
    });
    full.map_err(err)?;
    layers.set("optim.full_fit_s", t.as_secs_f64());

    // 6. Row kernels.
    simd_kernels(train, seed, layers);

    // 7. Eigendecomposition at the statistics order.
    let order = spec.param_dim(train.dim()).min(n0);
    let a = spd_matrix(order, seed);
    let (eig, t) = timed("linalg.eigen.symmetric", id, || SymmetricEigen::new(&a));
    eig.map_err(|e| e.to_string())?;
    layers.set("linalg.eigen.ms", ms(t));

    Ok(Replayed {
        n,
        theta: mn.into_parameters(),
    })
}

/// `GᵀG/r + I` for a seeded `r × r` matrix `G`: symmetric positive
/// definite, with a spread spectrum like a Fisher matrix's.
fn spd_matrix(order: usize, seed: u64) -> Matrix {
    let mut rng = XorShift::new(split_seed(seed, 77));
    let g = Matrix::from_fn(order, order, |_, _| rng.next_f64() - 0.5);
    let mut a = blas::gemm_tn(&g, &g).expect("square operands");
    a.scale(1.0 / order as f64);
    a.add_diag(1.0);
    a
}

/// Median pass time of `pass`, repeated until at least three passes and
/// 50 ms have run.
fn median_pass(mut pass: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 3 || start.elapsed() < Duration::from_millis(50) {
        let t = Instant::now();
        pass();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// `rows_dot` over a flat row-major copy of (a prefix of) the pool, and
/// `rows_dot_gather_idx` over the same rows in a shuffled order.
/// Bandwidth is computed bytes (rows·d·8) over time.
fn simd_kernels<F: FeatureVec>(train: &Dataset<F>, seed: u64, layers: &mut Layers) {
    let d = train.dim();
    let rows = train.len().min(SIMD_CAP_BYTES / (8 * d)).max(1);
    let mut flat = vec![0.0; rows * d];
    for (row, ex) in flat.chunks_exact_mut(d).zip(train.iter()) {
        ex.x.write_dense_into(row);
    }
    let w: Vec<f64> = (0..d).map(|j| 1.0 / (j + 1) as f64).collect();
    let mut out = vec![0.0; rows];
    let bytes = (rows * d * 8) as f64;

    let (t, _) = timed("linalg.simd.rows_dot", REPLAY_ID, || {
        median_pass(|| {
            simd::rows_dot(black_box(&flat), d, &w, 0.0, &mut out);
            black_box(&out);
        })
    });
    layers.set("linalg.simd.rows_dot_gbps", bytes / t / 1e9);

    let table: Vec<&[f64]> = flat.chunks_exact(d).collect();
    let mut order: Vec<usize> = (0..rows).collect();
    let mut rng = XorShift::new(split_seed(seed, 78));
    for i in (1..rows).rev() {
        let j = ((rng.next_f64() * (i + 1) as f64) as usize).min(i);
        order.swap(i, j);
    }
    let (t, _) = timed("linalg.simd.rows_dot_gather_idx", REPLAY_ID, || {
        median_pass(|| {
            simd::rows_dot_gather_idx(black_box(&table), &order, d, &w, 0.0, &mut out);
            black_box(&out);
        })
    });
    layers.set("linalg.simd.gather_idx_gbps", bytes / t / 1e9);
}

/// Blocks appended by the ingest probe, and their size in rows.
const PROBE_BLOCKS: usize = 16;
const PROBE_BLOCK_ROWS: usize = 1_000;
const PROBE_SEED_TRAIN: usize = 4_000;
const PROBE_SEED_HOLDOUT: usize = 500;
const PROBE_REOPENS: usize = 3;

/// The ingest layers on the workload's own rows: appends into an
/// in-memory pool and into a durable pool (default options) in `dir`,
/// a snapshot at the final epoch, and three recoveries of the durable
/// pool, which must land on the live epoch and row counts.
pub fn stream_probe<F, S>(
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    dir: &Path,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String>
where
    F: FeatureVec + WalRow,
    S: ModelClassSpec<F> + ?Sized,
{
    let id = REPLAY_ID;
    let rows = |data: &Dataset<F>, start: usize, count: usize| -> Vec<Example<F>> {
        (0..count)
            .map(|i| data.get((start + i) % data.len()).clone())
            .collect()
    };
    let seed_train = rows(train, 0, PROBE_SEED_TRAIN.min(train.len()));
    let seed_holdout = rows(holdout, 0, PROBE_SEED_HOLDOUT.min(holdout.len()));
    let blocks: Vec<Vec<Example<F>>> = (0..PROBE_BLOCKS)
        .map(|b| {
            rows(
                train,
                seed_train.len() + b * PROBE_BLOCK_ROWS,
                PROBE_BLOCK_ROWS,
            )
        })
        .collect();
    let domain = spec.label_domain();
    let dim = train.dim();

    let pool = StreamingPool::new(
        "probe",
        dim,
        seed_train.clone(),
        seed_holdout.clone(),
        domain,
        IngestPolicy::Reject,
    )
    .map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for block in &blocks {
        let block = block.clone();
        let (r, t) = timed("data.stream.append", id, || pool.append(block));
        r.map_err(|e| e.to_string())?;
        times.push(ms(t));
    }
    layers.set("data.stream.append_ms", median(&times));
    let (_, t) = timed("data.stream.snapshot", id, || {
        let snap = pool.snapshot();
        black_box((snap.train_dataset(), snap.holdout_dataset()));
    });
    layers.set("data.stream.snapshot_ms", ms(t));
    drop(pool);

    let _ = std::fs::remove_dir_all(dir);
    let durable = StreamingPool::create_durable(
        dir,
        "probe",
        dim,
        seed_train,
        seed_holdout,
        domain,
        IngestPolicy::Reject,
        DurableOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for block in blocks {
        let (r, t) = timed("data.wal.append", id, || durable.append(block));
        r.map_err(|e| e.to_string())?;
        times.push(ms(t));
    }
    layers.set("data.wal.append_ms", median(&times));
    layers.set("data.wal.log_bytes", durable.wal_len() as f64);
    let live = (durable.epoch(), durable.marks());
    let mark = *live.1.last().expect("a pool has mark 0");
    let total_rows = (mark.train_len + mark.holdout_len) as f64;
    drop(durable);

    let mut times = Vec::new();
    for _ in 0..PROBE_REOPENS {
        let (reopened, t) = timed("data.wal.open", id, || {
            StreamingPool::<F>::open(dir, DurableOptions::default())
        });
        let reopened = reopened.map_err(|e| e.to_string())?;
        tally.check(
            reopened.epoch() == live.0 && reopened.marks() == live.1,
            || "ingest probe: recovered epoch/marks differ from the live pool".into(),
        );
        times.push(t.as_secs_f64());
    }
    let recover_s = median(&times);
    layers.set("data.wal.recover_s", recover_s);
    layers.set("data.wal.replay_rows_per_s", total_rows / recover_s);
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    Ok(())
}

//! Timing gates: each one times a baseline arm against a candidate arm
//! on the shared [`paired_min_times`] loop (wall clock) or its
//! [`paired_min_cpu_times`] form (process CPU time) and checks one
//! bound.
//!
//! | gate | baseline → candidate | bound | enforced in |
//! |---|---|---|---|
//! | training | `testing::ScalarTrain` → batched `train`, one thread | speedup ≥ 0.9× | smoke |
//! | sweep | looped `Session::train` → fused `Session::sweep` | speedup ≥ 1.0× | smoke |
//! | pilot cache | cold query → cached-pilot hit | strictly faster | both |
//! | durable ingest | in-memory pool → `SyncPolicy::OsManaged` pool | overhead ≤ 1.2× | both |
//! | armed token | 8 served queries → the same 8 with a deadline, in process CPU time | overhead ≤ 1.02× | full |
//!
//! Every gate runs in both modes at that mode's shape; a gate outside
//! its mode is printed but not enforced. Exactness is not checked here:
//! the test suites pin every arm bit for bit (see `docs/REPRODUCING.md`).
//! The binary prints one table and panics if an enforced gate fails.
//!
//! Usage:
//! `cargo run --release -p blinkml-bench --bin gates -- [mode=full|smoke] [seed=1]`

use blinkml_bench::{fmt_duration, paired_min_cpu_times, paired_min_times, BenchArgs, Table};
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::serve::{DatasetShard, Query, Server};
use blinkml_core::testing::ScalarTrain;
use blinkml_core::{BlinkMlConfig, ModelClassSpec, ServeConfig, Session};
use blinkml_data::generators::synthetic_logistic;
use blinkml_data::parallel::set_max_threads;
use blinkml_data::{
    DenseVec, DurableOptions, IngestPolicy, LabelDomain, Split, StreamingPool, SyncPolicy,
};
use blinkml_optim::OptimOptions;
use blinkml_prob::split_seed;
use std::path::PathBuf;
use std::time::Duration;

/// What a gate requires of its candidate arm.
enum Bound {
    /// `baseline / candidate ≥ x`.
    MinSpeedup(f64),
    /// `candidate < baseline`.
    StrictlyFaster,
    /// `candidate / baseline ≤ x`.
    MaxOverhead(f64),
}

/// One measured baseline/candidate pair and its bound.
struct Gate {
    name: &'static str,
    baseline: Duration,
    candidate: Duration,
    bound: Bound,
    enforced: bool,
}

impl Gate {
    fn ratio(&self) -> f64 {
        self.candidate.as_secs_f64() / self.baseline.as_secs_f64().max(1e-12)
    }

    fn passes(&self) -> bool {
        match self.bound {
            Bound::MinSpeedup(x) => 1.0 / self.ratio() >= x,
            Bound::StrictlyFaster => self.candidate < self.baseline,
            Bound::MaxOverhead(x) => self.ratio() <= x,
        }
    }

    fn bound_label(&self) -> String {
        match self.bound {
            Bound::MinSpeedup(x) => format!("speedup ≥ {x}x"),
            Bound::StrictlyFaster => "strictly faster".into(),
            Bound::MaxOverhead(x) => format!("overhead ≤ {x}x"),
        }
    }
}

/// The workloads' shared contract: δ = 0.05 and 32 parameter draws.
fn config(epsilon: f64, n0: usize, holdout: usize) -> BlinkMlConfig {
    BlinkMlConfig {
        epsilon,
        delta: 0.05,
        initial_sample_size: n0,
        holdout_size: holdout,
        num_param_samples: 32,
        ..BlinkMlConfig::default()
    }
}

/// Batched `train` against the per-example scalar oracle on dense
/// logistic regression, single-threaded. The shared-runner allowance:
/// the target is parity, the gate 0.9×.
fn training(smoke: bool, seed: u64) -> Gate {
    let (n, dim, reps) = if smoke {
        (20_000, 64, 5)
    } else {
        (50_000, 100, 9)
    };
    let (data, _) = synthetic_logistic(n, dim, 2.0, seed);
    let spec = LogisticRegressionSpec::new(1e-3);
    let scalar = ScalarTrain(LogisticRegressionSpec::new(1e-3));
    let opts = OptimOptions::default();
    set_max_threads(Some(1));
    let (baseline, candidate) = paired_min_times(
        reps,
        || scalar.train(&data, None, &opts).unwrap(),
        || spec.train(&data, None, &opts).unwrap(),
    );
    set_max_threads(None);
    Gate {
        name: "training: batched vs scalar (1 thread)",
        baseline,
        candidate,
        bound: Bound::MinSpeedup(0.9),
        enforced: smoke,
    }
}

/// One fused `Session::sweep` over a log-spaced λ grid against looped
/// per-λ `Session::train` calls (sessions built outside the timed
/// region; the looped arm clears its pilot caches, since sweeps bypass
/// them).
fn sweep(smoke: bool, seed: u64) -> Gate {
    let (n, grid, n0, holdout, reps) = if smoke {
        (20_000, 12, 800, 1_500, 2)
    } else {
        (50_000, 20, 1_000, 2_000, 5)
    };
    let epsilon = 0.02;
    let (data, _) = synthetic_logistic(n, 100, 2.0, seed);
    let split = data.split(holdout, 0, split_seed(seed, 100));
    let lambdas: Vec<f64> = (0..grid)
        .map(|i| 10f64.powf(-6.0 * i as f64 / (grid - 1) as f64))
        .collect();
    let cfg = config(epsilon, n0, holdout);
    let solo_specs: Vec<_> = lambdas
        .iter()
        .map(|&l| LogisticRegressionSpec::new(l))
        .collect();
    let solo: Vec<_> = solo_specs
        .iter()
        .map(|spec| Session::new(cfg.clone(), spec, &split.train, &split.holdout).unwrap())
        .collect();
    let base_spec = LogisticRegressionSpec::new(1e-3);
    let fused = Session::new(cfg, &base_spec, &split.train, &split.holdout).unwrap();
    let run_looped = || {
        for s in &solo {
            s.clear_pilot_cache();
            s.train(epsilon, 0.05, seed).unwrap();
        }
    };
    let run_fused = || fused.sweep(&lambdas, epsilon, 0.05, seed).unwrap();
    // One untimed pass per arm sizes each session's capture scratch.
    run_looped();
    run_fused();
    let (baseline, candidate) = paired_min_times(reps, run_looped, run_fused);
    Gate {
        name: "sweep: fused vs looped",
        baseline,
        candidate,
        bound: Bound::MinSpeedup(1.0),
        enforced: smoke,
    }
}

/// The train/holdout split of the generated pool behind the serving
/// gates, and their configuration.
fn serving_data(smoke: bool, seed: u64) -> (Split<DenseVec>, BlinkMlConfig) {
    let (n, dim, n0, holdout) = if smoke {
        (8_000, 8, 400, 800)
    } else {
        (30_000, 20, 1_000, 2_000)
    };
    let (data, _) = synthetic_logistic(n, dim, 2.0, split_seed(seed, 1));
    let split = data.split(holdout, 0, split_seed(seed, 11));
    (split, config(0.10, n0, holdout))
}

/// A cold query (fresh seed: pilot train + statistics) against a
/// cached-pilot hit, which skips both.
fn pilot_cache(smoke: bool, seed: u64) -> Gate {
    let (split, cfg) = serving_data(smoke, seed);
    let server = Server::spawn(
        cfg,
        ServeConfig::default(),
        LogisticRegressionSpec::new(1e-3),
        vec![DatasetShard::new(1, split.train, split.holdout)],
    )
    .unwrap();
    // Steady state first: a few pilots trained and hit, so every worker
    // has run both paths before the pair is timed.
    for s in 0..16 {
        server.query(Query::new(1, 0.30, 0.05, s % 4)).unwrap();
    }
    let warm = Query::new(1, 0.30, 0.05, 999);
    server.query(warm).unwrap();
    let mut cold_seeds = 1_000..;
    // Nine interleaved reps: each arm is a fraction of a millisecond, so
    // a minimum over three let one scheduler hiccup decide the verdict.
    let (baseline, candidate) = paired_min_times(
        9,
        || {
            let q = Query::new(1, 0.30, 0.05, cold_seeds.next().unwrap());
            server.query(q).unwrap()
        },
        || server.query(warm).unwrap(),
    );
    server.shutdown();
    Gate {
        name: "serving: cached-pilot hit vs cold",
        baseline,
        candidate,
        bound: Bound::StrictlyFaster,
        enforced: true,
    }
}

/// Queries each rep of the armed-token gate serves back to back. One
/// query is under a millisecond, too short for the gate's minimum to
/// resolve 2% on a shared host; a batch makes each rep several.
const ARMED_BATCH: usize = 8;

/// A generous-deadline query on a 1-worker server (cancellation token
/// armed, polled every optimizer iteration) against the same query on
/// the same server with no deadline, so the ratio reads the armed token
/// alone. Every rep of both arms serves that one query [`ARMED_BATCH`]
/// times, each from an empty pilot cache, so each does the same work:
/// pilot, statistics, search and final fit.
fn armed_token(smoke: bool, seed: u64) -> Gate {
    let (split, cfg) = serving_data(smoke, seed);
    let server = Server::spawn(
        cfg,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        LogisticRegressionSpec::new(1e-3),
        vec![DatasetShard::new(1, split.train, split.holdout)],
    )
    .unwrap();
    let deadline = Duration::from_secs(3600);
    let serve = |q: Query| {
        for _ in 0..ARMED_BATCH {
            server.clear_pilot_cache();
            server.query(q).unwrap();
        }
    };
    let query = Query::new(1, 0.10, 0.05, 1_000);
    // The arms differ by a few clock reads, far under the bound's 2%,
    // so they are timed in the CPU time the process spends on them,
    // which leaves out the scheduling waits of a shared host.
    let (baseline, candidate) = paired_min_cpu_times(
        if smoke { 3 } else { 41 },
        || serve(query),
        || serve(query.with_deadline(deadline)),
    );
    server.shutdown();
    Gate {
        name: "serving: armed token vs unarmed query",
        baseline,
        candidate,
        bound: Bound::MaxOverhead(1.02),
        enforced: !smoke,
    }
}

/// The end-to-end ingest pipeline (parse a CSV block, validate, admit)
/// into an in-memory pool against a durable `OsManaged` pool. Each rep
/// gets a fresh pool built outside the timed region.
fn durable_ingest(smoke: bool, seed: u64) -> Gate {
    let (n, dim, holdout, blocks) = if smoke {
        (4_000, 8, 400, 4)
    } else {
        (20_000, 16, 2_000, 8)
    };
    // Fifteen interleaved reps: the arms take a few milliseconds each
    // and the durable arm's writeback timing varies run to run, so the
    // minimum needs many draws to settle.
    let reps = 15;
    let (data, _) = synthetic_logistic(n, dim, 2.0, split_seed(seed, 1));
    let split = data.split(holdout, 0, split_seed(seed, 11));
    let csv_blocks: Vec<Vec<u8>> = (0..blocks)
        .map(|b| {
            let (block, _) = synthetic_logistic(1_000, dim, 2.0, split_seed(seed, 100 + b));
            let mut buf = Vec::new();
            blinkml_data::io::write_csv(&block, &mut buf).unwrap();
            buf
        })
        .collect();
    let ingest = |pool: &StreamingPool<DenseVec>| {
        for csv in &csv_blocks {
            let block = blinkml_data::io::read_csv(csv.as_slice(), 0).unwrap();
            pool.append(block.into_examples()).unwrap();
        }
    };
    let dirs: Vec<PathBuf> = (0..reps)
        .map(|rep| std::env::temp_dir().join(format!("blinkml_gates_{}_{rep}", std::process::id())))
        .collect();
    let memory: Vec<_> = (0..reps)
        .map(|_| {
            StreamingPool::new(
                "gates",
                dim,
                split.train.examples().to_vec(),
                split.holdout.examples().to_vec(),
                LabelDomain::Binary01,
                IngestPolicy::Reject,
            )
            .unwrap()
        })
        .collect();
    let durable: Vec<_> = dirs
        .iter()
        .map(|dir| {
            let _ = std::fs::remove_dir_all(dir);
            StreamingPool::create_durable(
                dir,
                "gates",
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
            .unwrap()
        })
        .collect();
    let (mut memory_pools, mut durable_pools) = (memory.iter(), durable.iter());
    let (baseline, candidate) = paired_min_times(
        reps,
        || ingest(memory_pools.next().unwrap()),
        || ingest(durable_pools.next().unwrap()),
    );
    drop(durable);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    Gate {
        name: "ingest: OsManaged vs in-memory",
        baseline,
        candidate,
        bound: Bound::MaxOverhead(1.2),
        enforced: true,
    }
}

fn main() {
    let args = BenchArgs::parse(&["mode", "seed"]);
    let mode = args.get_str("mode", "full");
    let smoke = mode == "smoke";
    assert!(
        smoke || mode == "full",
        "mode must be 'full' or 'smoke', got '{mode}'"
    );
    let seed = args.get_u64("seed", 1);

    // Run order matters on a small host: durable ingest goes last, so
    // the log's background writeback cannot land in another gate's
    // timed region.
    let gates = [
        armed_token(smoke, seed),
        pilot_cache(smoke, seed),
        training(smoke, seed),
        sweep(smoke, seed),
        durable_ingest(smoke, seed),
    ];
    let mut table = Table::new(
        format!("Wall-clock gates ({mode} mode, seed {seed})"),
        &["gate", "baseline", "candidate", "ratio", "bound", "verdict"],
    );
    for g in &gates {
        let verdict = match (g.enforced, g.passes()) {
            (false, _) => "not gated",
            (true, true) => "pass",
            (true, false) => "FAIL",
        };
        table.row(&[
            g.name.into(),
            fmt_duration(g.baseline),
            fmt_duration(g.candidate),
            format!("{:.3}", g.ratio()),
            g.bound_label(),
            verdict.into(),
        ]);
    }
    table.print();
    let failed: Vec<&str> = gates
        .iter()
        .filter(|g| g.enforced && !g.passes())
        .map(|g| g.name)
        .collect();
    assert!(failed.is_empty(), "failed gates: {failed:?}");
}

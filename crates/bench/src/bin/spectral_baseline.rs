//! Record the spectral-engine perf baseline to
//! `results/BENCH_spectral.json`.
//!
//! Times the ObservedFisher statistics phase with the dense
//! (`tred2`/`tql2` over the materialized second moment) and truncated
//! randomized (matrix-free subspace iteration) engines, then runs the
//! accuracy and sample-size estimators with both factors and records the
//! estimated ε and chosen n side by side, so the speedup is reported *at
//! matched estimate quality*.
//!
//! Usage:
//! `cargo run --release -p blinkml-bench --bin spectral_baseline -- \
//!  [mode=full|smoke] [n=5000] [dim=1000] [decay=0.85] [rank=64] \
//!  [oversample=16] [power=1] [tol=1e-6] [reps=3] [holdout=2000] \
//!  [pool=64] [beta=0.01] [epsilon=0.05] [seed=1]`
//!
//! `mode=smoke` shrinks the shapes and prints the table without writing
//! the JSON (the CI smoke job uses it).

use blinkml_bench::{fmt_duration, paired_min_times, BenchArgs, Table};
use blinkml_core::models::LinearRegressionSpec;
use blinkml_core::{
    compute_statistics_view, ModelAccuracyEstimator, ModelClassSpec, ModelStatistics,
    SampleSizeEstimator, SpectralMethod, StatisticsMethod,
};
use blinkml_data::generators::synthetic_linear_decay;
use blinkml_data::{DatasetMatrix, DenseVec};
use blinkml_optim::OptimOptions;
use blinkml_prob::split_seed;
use serde_json::json;

fn main() {
    let args = BenchArgs::parse(&[
        "mode",
        "n",
        "dim",
        "decay",
        "rank",
        "oversample",
        "power",
        "tol",
        "reps",
        "holdout",
        "pool",
        "beta",
        "epsilon",
        "seed",
    ]);
    let mode = args.get_str("mode", "full");
    let smoke = mode == "smoke";
    assert!(
        smoke || mode == "full",
        "mode must be 'full' or 'smoke', got '{mode}'"
    );
    let (def_n, def_d, def_rank, def_hold, def_pool) = if smoke {
        (600, 64, 16, 400, 16)
    } else {
        (5_000, 1_000, 64, 2_000, 256)
    };
    let n = args.get_usize("n", def_n);
    let dim = args.get_usize("dim", def_d);
    let decay = args.get_f64("decay", 0.85);
    let rank = args.get_usize("rank", def_rank);
    let oversample = args.get_usize("oversample", 16);
    let power_iters = args.get_usize("power", 1);
    let tol = args.get_f64("tol", 1e-6);
    let reps = args.get_usize("reps", if smoke { 1 } else { 3 });
    let holdout_size = args.get_usize("holdout", def_hold);
    let pool_k = args.get_usize("pool", def_pool);
    let beta = args.get_f64("beta", 1e-2);
    // Tighter than the initial model's ε̂, so the sample-size search
    // genuinely runs and the two engines' chosen n can disagree.
    let epsilon = args.get_f64("epsilon", 0.02);
    let seed = args.get_u64("seed", 1);
    // Notional sampling-pool size N for the α = 1/n − 1/N scaling and
    // the sample-size search interval.
    let full_n = 20 * n;
    let randomized = SpectralMethod::Randomized {
        rank,
        oversample,
        power_iters,
        tol,
    };

    let (data, _) = synthetic_linear_decay(n + holdout_size, dim, decay, 0.5, seed);
    let split = data.split(holdout_size, 0, split_seed(seed, 0));
    let spec = LinearRegressionSpec::new(beta);
    let model = spec
        .train(&split.train, None, &OptimOptions::default())
        .expect("train initial model");
    let theta = model.parameters();

    // The statistics phase, both engines over one captured design
    // matrix, measured as an interleaved order-alternating pair (same
    // methodology as pipeline_baseline).
    let xm = DatasetMatrix::from_dataset(&split.train);
    let view = xm.view();
    let statistics = |spectral: SpectralMethod| {
        compute_statistics_view::<DenseVec, _>(
            StatisticsMethod::ObservedFisher,
            spectral,
            &spec,
            theta,
            &view,
        )
        .unwrap()
    };
    let (dense_time, rand_time) = paired_min_times(
        reps,
        || statistics(SpectralMethod::Dense),
        || statistics(randomized),
    );
    let stats_dense = statistics(SpectralMethod::Dense);
    let stats_rand = statistics(randomized);
    let speedup = dense_time.as_secs_f64() / rand_time.as_secs_f64().max(1e-12);

    // Matched estimate quality: ε, chosen n, and the marginal-variance
    // profile must agree between the two factors.
    let quality = |stats: &ModelStatistics| -> (f64, usize) {
        let acc = ModelAccuracyEstimator::new(pool_k);
        let eps = acc.estimate(
            &spec,
            theta,
            stats,
            n,
            full_n,
            &split.holdout,
            0.05,
            split_seed(seed, 1),
        );
        let sse = SampleSizeEstimator::new(pool_k);
        let est = sse.estimate(
            &spec,
            theta,
            stats,
            n,
            full_n,
            &split.holdout,
            epsilon,
            0.05,
            split_seed(seed, 2),
        );
        (eps, est.n)
    };
    let (eps_dense, n_dense) = quality(&stats_dense);
    let (eps_rand, n_rand) = quality(&stats_rand);
    let eps_rel = (eps_dense - eps_rand).abs() / eps_dense.max(1e-12);
    let n_rel = (n_dense as f64 - n_rand as f64).abs() / (n_dense as f64).max(1.0);
    let mv_dense = stats_dense.marginal_variances();
    let mv_rand = stats_rand.marginal_variances();
    let mv_scale = mv_dense.iter().cloned().fold(0.0f64, f64::max).max(1e-300);
    let mv_rel = mv_dense
        .iter()
        .zip(&mv_rand)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
        / mv_scale;

    let mut table = Table::new(
        format!(
            "ObservedFisher statistics phase: dense vs randomized \
             (n={n} D={} decay={decay} reps={reps})",
            stats_dense.dim()
        ),
        &["engine", "time", "rank", "ε̂", "chosen n"],
    );
    table.row(&[
        "dense".into(),
        fmt_duration(dense_time),
        format!("{}", stats_dense.rank()),
        format!("{eps_dense:.4}"),
        format!("{n_dense}"),
    ]);
    table.row(&[
        "randomized".into(),
        fmt_duration(rand_time),
        format!("{}", stats_rand.rank()),
        format!("{eps_rand:.4}"),
        format!("{n_rand}"),
    ]);
    table.print();
    println!(
        "\nspeedup {speedup:.2}x · ε rel diff {eps_rel:.4} · n rel diff {n_rel:.4} · \
         marginal-variance rel err {mv_rel:.2e}"
    );

    if smoke {
        println!("\nsmoke mode: skipping results/BENCH_spectral.json");
        return;
    }

    let shape = json!({
        "n": n,
        "dim": stats_dense.dim(),
        "decay": decay,
        "holdout": holdout_size,
        "pool": pool_k,
        "beta": beta,
        "epsilon": epsilon,
        "full_n": full_n,
    });
    let knobs = json!({
        "rank": rank,
        "oversample": oversample,
        "power_iters": power_iters,
        "tol": tol,
    });
    let statistics_phase = json!({
        "dense_ms": dense_time.as_secs_f64() * 1e3,
        "randomized_ms": rand_time.as_secs_f64() * 1e3,
        "speedup": speedup,
        "dense_rank": stats_dense.rank(),
        "randomized_rank": stats_rand.rank(),
    });
    let estimate_quality = json!({
        "eps_dense": eps_dense,
        "eps_randomized": eps_rand,
        "eps_rel_diff": eps_rel,
        "n_dense": n_dense,
        "n_randomized": n_rand,
        "n_rel_diff": n_rel,
        "marginal_variance_rel_err": mv_rel,
    });
    let doc = json!({
        "bench": "spectral",
        "reps": reps,
        "seed": seed,
        "threads": blinkml_data::parallel::max_threads(),
        "shape": shape,
        "knobs": knobs,
        "statistics_phase": statistics_phase,
        "estimate_quality": estimate_quality,
    });
    let path = blinkml_bench::report::write_baseline("BENCH_spectral.json", &doc);
    println!("\nwrote {}", path.display());
}

//! Ablation study of this implementation's two core engineering choices
//! (DESIGN.md §2.3): the margin cache in the diff engine and
//! sampling-by-scaling in the Sample Size Estimator.
//!
//! * **Margin cache** — prediction differences over `k` parameter draws
//!   can either recompute holdout dot-products per probe (generic path)
//!   or precompute per-draw score matrices once (margin path). Both must
//!   agree numerically; the ablation measures the speedup.
//! * **Sampling by scaling** — the binary search can either reuse one
//!   unscaled draw pool across all probes (paper §4.3) or redraw pools
//!   at every probe. The ablation measures the redundant-sampling cost
//!   and confirms the estimates agree.
//!
//! Usage:
//! `cargo run --release -p blinkml-bench --bin ablation -- [n=60000] [d=2000] [k=100] [probes=16] [seed=1]`

use blinkml_bench::{BenchArgs, Table};
use blinkml_core::compute_statistics;
use blinkml_core::diff_engine::{draw_pool, DiffEngine};
use blinkml_core::models::{LogisticRegressionSpec, MaxEntSpec};
use blinkml_core::StatisticsMethod::ObservedFisher;
use blinkml_core::{ModelClassSpec, SampleSizeEstimator};
use blinkml_data::generators::{criteo_like, mnist_like};
use blinkml_data::{Dataset, FeatureVec};
use blinkml_optim::OptimOptions;
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse(&["n", "d", "k", "probes", "seed"]);
    let n = args.get_usize("n", 60_000);
    let d = args.get_usize("d", 2_000);
    let k = args.get_usize("k", 100);
    let probes = args.get_usize("probes", 16);
    let seed = args.get_u64("seed", 1);

    margin_cache_ablation(n, d, k, probes, seed);
    sampling_by_scaling_ablation(n, d, k, seed);
}

/// Evaluate `probes × k` two-stage differences through the margin cache
/// and through raw parameter materialization.
fn margin_cache_ablation(n: usize, d: usize, k: usize, probes: usize, seed: u64) {
    println!("# Ablation 1 — margin cache vs generic diff path");
    let mut table = Table::new(
        "Two-stage diff evaluation over k draws",
        &[
            "Workload",
            "Margin Path",
            "Generic Path",
            "Speedup",
            "Max |Δv|",
        ],
    );

    // Logistic on sparse CTR data.
    let data = criteo_like(n.min(30_000), d, seed);
    let split = data.split(1_500, 0, 0xAB1);
    let spec = LogisticRegressionSpec::new(1e-3);
    run_margin_case(
        "LR, Criteo-like",
        &spec,
        &split.train,
        &split.holdout,
        k,
        probes,
        seed,
        &mut table,
    );

    // Max-entropy on dense images (10 margin outputs per example).
    let data = mnist_like(n.min(20_000), seed + 1);
    let split = data.split(1_500, 0, 0xAB2);
    let spec = MaxEntSpec::new(1e-3, 10);
    run_margin_case(
        "ME, MNIST-like",
        &spec,
        &split.train,
        &split.holdout,
        k,
        probes,
        seed,
        &mut table,
    );
    table.print();
}

#[allow(clippy::too_many_arguments)]
fn run_margin_case<F: FeatureVec, S: ModelClassSpec<F>>(
    label: &str,
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    k: usize,
    probes: usize,
    seed: u64,
    table: &mut Table,
) {
    let sample = train.sample(600, seed);
    let model = spec
        .train(&sample, None, &OptimOptions::default())
        .expect("train");
    let stats =
        compute_statistics(ObservedFisher, spec, model.parameters(), &sample).expect("stats");
    let pool_u = draw_pool(&stats, k, seed + 2);
    let pool_w = draw_pool(&stats, k, seed + 3);
    let scales: Vec<(f64, f64)> = (0..probes)
        .map(|p| (0.03 / (p + 1) as f64, 0.01 / (p + 1) as f64))
        .collect();

    // Margin path: precompute once, then probe.
    let t = Instant::now();
    let engine = DiffEngine::new(spec, holdout, model.parameters(), &pool_u, &pool_w);
    let mut fast = Vec::with_capacity(probes * k);
    for &(s1, s2) in &scales {
        for i in 0..k {
            fast.push(engine.diff_two_stage(i, s1, s2));
        }
    }
    let fast_time = t.elapsed();

    // Generic path: materialize parameter vectors and call spec.diff.
    let t = Instant::now();
    let mut slow = Vec::with_capacity(probes * k);
    for &(s1, s2) in &scales {
        for i in 0..k {
            let theta_n: Vec<f64> = model
                .parameters()
                .iter()
                .zip(&pool_u[i])
                .map(|(b, u)| b + s1 * u)
                .collect();
            let theta_big: Vec<f64> = theta_n
                .iter()
                .zip(&pool_w[i])
                .map(|(t, w)| t + s2 * w)
                .collect();
            slow.push(spec.diff(&theta_n, &theta_big, holdout));
        }
    }
    let slow_time = t.elapsed();

    let max_dev = fast
        .iter()
        .zip(&slow)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    table.row(&[
        label.to_string(),
        format!("{:.3} s", fast_time.as_secs_f64()),
        format!("{:.3} s", slow_time.as_secs_f64()),
        format!(
            "{:.1}x",
            slow_time.as_secs_f64() / fast_time.as_secs_f64().max(1e-9)
        ),
        format!("{max_dev:.2e}"),
    ]);
    blinkml_bench::report::append_result(
        "ablation_margin_cache",
        &serde_json::json!({
            "workload": label,
            "margin_path_s": fast_time.as_secs_f64(),
            "generic_path_s": slow_time.as_secs_f64(),
            "max_abs_deviation": max_dev,
        }),
    );
}

/// Compare one shared pool (sampling by scaling) against redrawing the
/// pool at every binary-search probe.
fn sampling_by_scaling_ablation(n: usize, d: usize, k: usize, seed: u64) {
    println!("\n# Ablation 2 — sampling by scaling vs per-probe redraw");
    let data = criteo_like(n.min(40_000), d, seed + 10);
    let split = data.split(1_500, 0, 0xAB3);
    let spec = LogisticRegressionSpec::new(1e-3);
    let n0 = 600;
    let sample = split.train.sample(n0, seed + 11);
    let model = spec
        .train(&sample, None, &OptimOptions::default())
        .expect("train");
    let stats =
        compute_statistics(ObservedFisher, &spec, model.parameters(), &sample).expect("stats");
    let full_n = split.train.len();
    let epsilon = 0.05;

    // Shared-pool estimator (the shipped implementation).
    let t = Instant::now();
    let shared = SampleSizeEstimator::new(k).estimate(
        &spec,
        model.parameters(),
        &stats,
        n0,
        full_n,
        &split.holdout,
        epsilon,
        0.05,
        seed + 12,
    );
    let shared_time = t.elapsed();

    // Redraw variant: fresh pools and a fresh engine per probe.
    let t = Instant::now();
    let level = blinkml_prob::conservative_level(0.05, k);
    let alpha = |a: usize, b: usize| (1.0 / a as f64 - 1.0 / b as f64).max(0.0);
    let mut probes = 0usize;
    let mut satisfied = |nn: usize, probe_seed: u64| -> bool {
        probes += 1;
        let pool_u = draw_pool(&stats, k, probe_seed);
        let pool_w = draw_pool(&stats, k, probe_seed + 1);
        let engine = DiffEngine::new(&spec, &split.holdout, model.parameters(), &pool_u, &pool_w);
        let a1 = alpha(n0, nn).sqrt();
        let a2 = alpha(nn, full_n).sqrt();
        let hits = (0..k)
            .filter(|&i| engine.diff_two_stage(i, a1, a2) <= epsilon)
            .count();
        hits as f64 / k as f64 >= level
    };
    let redraw_n = {
        let mut lo = n0;
        let mut hi = full_n;
        if satisfied(n0, seed + 100) {
            lo = full_n; // degenerate: contract met at n0
            hi = n0;
            std::mem::swap(&mut lo, &mut hi);
            hi
        } else {
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if satisfied(mid, seed + 100 + mid as u64) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        }
    };
    let redraw_time = t.elapsed();

    let mut table = Table::new(
        "Sample-size search",
        &["Variant", "Estimated n", "Runtime", "Probes"],
    );
    table.row(&[
        "shared pool (paper §4.3)".into(),
        format!("{}", shared.n),
        format!("{:.3} s", shared_time.as_secs_f64()),
        format!("{}", shared.probes),
    ]);
    table.row(&[
        "redraw per probe".into(),
        format!("{redraw_n}"),
        format!("{:.3} s", redraw_time.as_secs_f64()),
        format!("{probes}"),
    ]);
    table.print();
    let agreement = (shared.n as f64 / redraw_n as f64).max(redraw_n as f64 / shared.n as f64);
    println!("estimate agreement factor: {agreement:.2} (1.0 = identical)");
    blinkml_bench::report::append_result(
        "ablation_sampling_by_scaling",
        &serde_json::json!({
            "shared_n": shared.n,
            "shared_time_s": shared_time.as_secs_f64(),
            "redraw_n": redraw_n,
            "redraw_time_s": redraw_time.as_secs_f64(),
            "agreement_factor": agreement,
        }),
    );
}

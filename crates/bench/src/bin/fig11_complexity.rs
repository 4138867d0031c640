//! Figure 11: model complexity vs estimated sample size.
//!
//! * **11a** — sweep the L2 coefficient β at fixed dimension: stronger
//!   regularization makes the model stiffer, so the estimated minimum
//!   sample size should *decrease* with β.
//! * **11b** — sweep the number of parameters at fixed β: more
//!   parameters need larger samples.
//!
//! Both report the Sample Size Estimator's output directly (no model is
//! trained beyond the initial one, mirroring §5.8).
//!
//! Usage:
//! `cargo run --release -p blinkml-bench --bin fig11_complexity -- [n=200000] [n0=1000] [k=100] [accuracy=0.95] [seed=1] [betas=0,1e-4,1e-3,1e-2,1e-1,10] [dims=100,500,1000,5000,10000,50000]`

use blinkml_bench::{BenchArgs, Table};
use blinkml_core::compute_statistics;
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::StatisticsMethod::ObservedFisher;
use blinkml_core::{ModelClassSpec, SampleSizeEstimator};
use blinkml_data::generators::criteo_like;
use blinkml_optim::OptimOptions;

fn main() {
    let args = BenchArgs::parse(&["n", "n0", "k", "accuracy", "seed", "betas", "dims"]);
    let n = args.get_usize("n", 200_000);
    let n0 = args.get_usize("n0", 1_000);
    let k = args.get_usize("k", 100);
    let accuracy = args.get_f64("accuracy", 0.95);
    let seed = args.get_u64("seed", 1);
    let betas: Vec<f64> = args
        .get_str("betas", "0,1e-4,1e-3,1e-2,1e-1,10")
        .split(',')
        .map(|s| s.trim().parse().expect("betas must be numbers"))
        .collect();
    let dims: Vec<usize> = args
        .get_str("dims", "100,500,1000,5000,10000,50000")
        .split(',')
        .map(|s| s.trim().parse().expect("dims must be integers"))
        .collect();
    let epsilon = 1.0 - accuracy;

    println!(
        "# Figure 11 — model complexity vs estimated sample size (N={n}, accuracy={accuracy})"
    );

    // 11a: regularization sweep at a fixed moderate dimension.
    let fixed_d = 2_000;
    let data = criteo_like(n, fixed_d, seed);
    let split = data.split(2_000, 0, 0xF11);
    let mut reg_table = Table::new(
        format!("Estimated sample size vs regularization (d = {fixed_d})"),
        &["Beta", "Estimated n", "Probes"],
    );
    for &beta in &betas {
        let spec = LogisticRegressionSpec::new(beta);
        let d0 = split.train.sample(n0, seed + 1);
        // Unregularized logistic regression has no finite MLE on
        // separable data — which a p > n sparse sample typically is.
        // Report the divergence instead of crashing the sweep.
        let m0 = match spec.train(&d0, None, &OptimOptions::default()) {
            Ok(m) => m,
            Err(e) => {
                reg_table.row(&[
                    format!("{beta:.0e}"),
                    "diverged (separable, no finite MLE)".into(),
                    "-".into(),
                ]);
                eprintln!("beta = {beta:.0e}: {e}");
                continue;
            }
        };
        // A degenerate fit (e.g. β = 0 on separable data stopped at the
        // precision floor) can defeat the statistics computation too.
        let stats = match compute_statistics(ObservedFisher, &spec, m0.parameters(), &d0) {
            Ok(s) => s,
            Err(e) => {
                reg_table.row(&[
                    format!("{beta:.0e}"),
                    "degenerate fit (statistics failed)".into(),
                    "-".into(),
                ]);
                eprintln!("beta = {beta:.0e}: {e}");
                continue;
            }
        };
        let est = SampleSizeEstimator::new(k).estimate(
            &spec,
            m0.parameters(),
            &stats,
            n0,
            split.train.len(),
            &split.holdout,
            epsilon,
            0.05,
            seed + 2,
        );
        reg_table.row(&[
            format!("{beta:.0e}"),
            format!("{}", est.n),
            format!("{}", est.probes),
        ]);
        blinkml_bench::report::append_result(
            "fig11a_regularization",
            &serde_json::json!({
                "beta": beta, "estimated_n": est.n, "N": split.train.len(),
                "accuracy": accuracy, "d": fixed_d,
            }),
        );
    }
    reg_table.print();

    // 11b: parameter-count sweep at the paper's fixed β.
    let mut dim_table = Table::new(
        "Estimated sample size vs number of parameters (beta = 1e-3)",
        &["Features", "Estimated n", "Probes"],
    );
    for &d in &dims {
        let data = criteo_like(n, d, seed + 3);
        let split = data.split(2_000, 0, 0xF12);
        let spec = LogisticRegressionSpec::new(1e-3);
        let d0 = split.train.sample(n0, seed + 4);
        let m0 = spec
            .train(&d0, None, &OptimOptions::default())
            .expect("initial training failed");
        let stats = compute_statistics(ObservedFisher, &spec, m0.parameters(), &d0).expect("stats");
        let est = SampleSizeEstimator::new(k).estimate(
            &spec,
            m0.parameters(),
            &stats,
            n0,
            split.train.len(),
            &split.holdout,
            epsilon,
            0.05,
            seed + 5,
        );
        dim_table.row(&[
            format!("{d}"),
            format!("{}", est.n),
            format!("{}", est.probes),
        ]);
        blinkml_bench::report::append_result(
            "fig11b_parameters",
            &serde_json::json!({
                "d": d, "estimated_n": est.n, "N": split.train.len(),
                "accuracy": accuracy,
            }),
        );
    }
    dim_table.print();
}

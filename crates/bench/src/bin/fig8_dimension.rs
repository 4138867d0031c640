//! Figure 8 / Tables 8–9: impact of the number of features.
//!
//! Sweeps the feature dimension of the sparse CTR workload and reports,
//! per dimension: (a) BlinkML's phase-time breakdown vs full training
//! (Table 8), (b) generalization errors of the full model, the BlinkML
//! model, and the Lemma-1 predicted bound (Table 9 left), and (c) the
//! optimizer iteration counts (Table 9 right).
//!
//! Usage:
//! `cargo run --release -p blinkml-bench --bin fig8_dimension -- [n=60000] [n0=1000] [k=100] [accuracy=0.95] [seed=1] [dims=100,500,1000,5000,10000,50000]`

use blinkml_bench::{fmt_duration, BenchArgs, Table};
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::{BlinkMlConfig, Coordinator, ModelClassSpec, StatisticsMethod};
use blinkml_data::generators::criteo_like;
use blinkml_optim::OptimOptions;
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse(&["n", "n0", "k", "accuracy", "seed", "dims"]);
    let n = args.get_usize("n", 60_000);
    let n0 = args.get_usize("n0", 1_000);
    let k = args.get_usize("k", 100);
    let accuracy = args.get_f64("accuracy", 0.95);
    let seed = args.get_u64("seed", 1);
    let dims: Vec<usize> = args
        .get_str("dims", "100,500,1000,5000,10000,50000")
        .split(',')
        .map(|s| s.trim().parse().expect("dims must be integers"))
        .collect();
    let epsilon = 1.0 - accuracy;

    println!(
        "# Figure 8 / Tables 8-9 — feature-dimension sweep (N={n}, n0={n0}, accuracy={accuracy})"
    );
    let mut overhead = Table::new(
        "Runtime breakdown (Table 8)",
        &[
            "Features",
            "Initial Train",
            "Statistics",
            "Size Search",
            "Final Train",
            "Full Train",
            "Ratio",
        ],
    );
    let mut gen_err = Table::new(
        "Generalization error (Table 9, left)",
        &["Features", "Full Training", "BlinkML", "Predicted Bound"],
    );
    let mut iters = Table::new(
        "Optimizer iterations (Table 9, right)",
        &["Features", "Full Training", "BlinkML"],
    );

    for &d in &dims {
        let data = criteo_like(n, d, seed);
        let split = data.split(2_000, 3_000, 0xF18);
        let spec = LogisticRegressionSpec::new(1e-3);

        let t = Instant::now();
        let full = spec
            .train(&split.train, None, &OptimOptions::default())
            .expect("full training failed");
        let full_time = t.elapsed();

        let config = BlinkMlConfig {
            epsilon,
            delta: 0.05,
            initial_sample_size: n0,
            holdout_size: 2_000,
            num_param_samples: k,
            statistics_method: StatisticsMethod::ObservedFisher,
            optim: OptimOptions::default(),
            estimate_final_accuracy: false,
            exec: Default::default(),
        };
        let t = Instant::now();
        let outcome = Coordinator::new(config)
            .train_with_holdout(&spec, &split.train, &split.holdout, seed + 7)
            .expect("blinkml failed");
        let blinkml_time = t.elapsed();

        let ratio = blinkml_time.as_secs_f64() / full_time.as_secs_f64();
        overhead.row(&[
            format!("{d}"),
            fmt_duration(outcome.phases.initial_training),
            fmt_duration(outcome.phases.statistics),
            fmt_duration(outcome.phases.sample_size_search),
            fmt_duration(outcome.phases.final_training),
            fmt_duration(full_time),
            format!("{:.2}%", ratio * 100.0),
        ]);

        let full_err = spec.generalization_error(full.parameters(), &split.test);
        let approx_err = spec.generalization_error(outcome.model.parameters(), &split.test);
        // Lemma 1: the full model's error is bounded by ε_g + ε − ε_g·ε
        // where ε_g is the approximate model's error.
        let bound = outcome.full_model_error_bound(approx_err);
        gen_err.row(&[
            format!("{d}"),
            format!("{:.2}%", full_err * 100.0),
            format!("{:.2}%", approx_err * 100.0),
            format!("{:.2}%", bound * 100.0),
        ]);
        iters.row(&[
            format!("{d}"),
            format!("{}", full.iterations),
            format!("{}", outcome.model.iterations),
        ]);
        blinkml_bench::report::append_result(
            "fig8_dimension",
            &serde_json::json!({
                "features": d,
                "initial_train_s": outcome.phases.initial_training.as_secs_f64(),
                "statistics_s": outcome.phases.statistics.as_secs_f64(),
                "search_s": outcome.phases.sample_size_search.as_secs_f64(),
                "final_train_s": outcome.phases.final_training.as_secs_f64(),
                "full_train_s": full_time.as_secs_f64(),
                "ratio": ratio,
                "sample_size": outcome.sample_size,
                "full_gen_error": full_err,
                "blinkml_gen_error": approx_err,
                "predicted_bound": bound,
                "bound_holds": full_err <= bound,
                "full_iterations": full.iterations,
                "blinkml_iterations": outcome.model.iterations,
            }),
        );
    }
    overhead.print();
    gen_err.print();
    iters.print();
}

//! Figure 9: comparison of the statistics computation methods.
//!
//! * **9a** — estimated/actual parameter-variance ratio vs sample size
//!   for ClosedForm, InverseGradients, and ObservedFisher on
//!   (Lin, Power-like). The "actual" variance comes from training many
//!   models on independent samples of each size; a ratio near (or just
//!   above) 1 means the method is accurate (and conservative).
//! * **9b** — runtime and covariance accuracy (average Frobenius
//!   distance to the reference, `(1/D²)·‖C_t − C_e‖_F`) of
//!   InverseGradients vs ObservedFisher on a low-dimensional (LR,
//!   HIGGS-like) and a higher-dimensional (ME, MNIST-like) workload.
//!
//! Usage:
//! `cargo run --release -p blinkml-bench --bin fig9_stats -- [n=60000] [trainings=30] [seed=1] [sizes=100,500,1000,5000,10000]`

use blinkml_bench::{BenchArgs, Table};
use blinkml_core::compute_statistics;
use blinkml_core::models::{LinearRegressionSpec, LogisticRegressionSpec, MaxEntSpec};
use blinkml_core::StatisticsMethod::{ClosedForm, InverseGradients, ObservedFisher};
use blinkml_core::{ModelClassSpec, ModelStatistics};
use blinkml_data::generators::{higgs_like, mnist_like, power_like};
use blinkml_data::{Dataset, FeatureVec};
use blinkml_optim::OptimOptions;
use blinkml_prob::OnlineStats;
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse(&["n", "trainings", "seed", "sizes"]);
    let n = args.get_usize("n", 60_000);
    let trainings = args.get_usize("trainings", 30);
    let seed = args.get_u64("seed", 1);
    let sizes: Vec<usize> = args
        .get_str("sizes", "100,500,1000,5000,10000")
        .split(',')
        .map(|s| s.trim().parse().expect("sizes must be integers"))
        .collect();

    variance_ratio_study(n, &sizes, trainings, seed);
    method_comparison_study(seed);
}

/// Fig 9a: estimated vs actual parameter variance, per method and n.
fn variance_ratio_study(n: usize, sizes: &[usize], trainings: usize, seed: u64) {
    println!("# Figure 9a — estimated/actual variance ratio (Lin, Power-like), {trainings} trainings per size");
    let data = power_like(n, seed);
    let spec = LinearRegressionSpec::new(1e-3);
    let opts = OptimOptions::default();
    let d = data.dim();
    let full_n = data.len();

    let mut table = Table::new(
        "Est. var / actual var (ratio near 1 is best)",
        &[
            "Sample Size",
            "ClosedForm",
            "InverseGradients",
            "ObservedFisher",
        ],
    );
    for &size in sizes {
        // Actual: empirical variance of each coordinate over repeated
        // trainings on independent samples of this size.
        let mut coord_stats: Vec<OnlineStats> = vec![OnlineStats::new(); d];
        let mut last_sample = None;
        for t in 0..trainings {
            let sample = data.sample(size, seed + 1_000 * t as u64);
            let model = spec.train(&sample, None, &opts).expect("training failed");
            for (s, &v) in coord_stats.iter_mut().zip(model.parameters()) {
                s.push(v);
            }
            last_sample = Some(sample);
        }
        let actual: Vec<f64> = coord_stats.iter().map(|s| s.variance()).collect();
        // Estimated: α·diag(H⁻¹JH⁻¹) from one trained model per method.
        let sample = last_sample.expect("at least one training");
        let model = spec.train(&sample, None, &opts).expect("training failed");
        let alpha = 1.0 / size as f64 - 1.0 / full_n as f64;
        let ratio = |stats: &ModelStatistics| -> f64 {
            let est = stats.marginal_variances();
            // Median coordinate-wise ratio is robust to near-zero actuals.
            let mut ratios: Vec<f64> = est
                .iter()
                .zip(&actual)
                .filter(|(_, &a)| a > 1e-18)
                .map(|(e, a)| alpha * e / a)
                .collect();
            ratios.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
            ratios[ratios.len() / 2]
        };
        let cf = compute_statistics(ClosedForm, &spec, model.parameters(), &sample).expect("cf");
        let ig =
            compute_statistics(InverseGradients, &spec, model.parameters(), &sample).expect("ig");
        let of =
            compute_statistics(ObservedFisher, &spec, model.parameters(), &sample).expect("of");
        let (rcf, rig, rof) = (ratio(&cf), ratio(&ig), ratio(&of));
        table.row(&[
            format!("{size}"),
            format!("{rcf:.3}"),
            format!("{rig:.3}"),
            format!("{rof:.3}"),
        ]);
        blinkml_bench::report::append_result(
            "fig9a_variance_ratio",
            &serde_json::json!({
                "sample_size": size,
                "ratio_closed_form": rcf,
                "ratio_inverse_gradients": rig,
                "ratio_observed_fisher": rof,
                "trainings": trainings,
            }),
        );
    }
    table.print();
}

/// Shared 9b measurement: time IG and OF on a trained model and report
/// `(runtime, frobenius distance to reference)` pairs.
fn compare_methods<F: FeatureVec, S: ModelClassSpec<F>>(
    label: &str,
    spec: &S,
    data: &Dataset<F>,
    sample_size: usize,
    reference_from_closed_form: bool,
    table: &mut Table,
    seed: u64,
) {
    let sample = data.sample(sample_size, seed);
    let model = spec
        .train(&sample, None, &OptimOptions::default())
        .expect("training failed");
    let dim = model.parameters().len() as f64;

    let t = Instant::now();
    let ig = compute_statistics(InverseGradients, spec, model.parameters(), &sample).expect("ig");
    let ig_time = t.elapsed();
    let t = Instant::now();
    let of = compute_statistics(ObservedFisher, spec, model.parameters(), &sample).expect("of");
    let of_time = t.elapsed();

    // Reference covariance: ClosedForm when available (LR), otherwise
    // ObservedFisher on a 10x larger sample (documented substitution —
    // the paper's "true" covariance is equally an estimate).
    let reference = if reference_from_closed_form {
        compute_statistics(ClosedForm, spec, model.parameters(), &sample)
            .expect("cf")
            .covariance_dense()
    } else {
        let big = data.sample((sample_size * 10).min(data.len()), seed + 1);
        let big_model = spec
            .train(&big, None, &OptimOptions::default())
            .expect("training failed");
        compute_statistics(ObservedFisher, spec, big_model.parameters(), &big)
            .expect("of-ref")
            .covariance_dense()
    };
    let frob = |stats: &ModelStatistics| -> f64 {
        let c = stats.covariance_dense();
        let mut diff = c;
        diff.add_scaled(-1.0, &reference);
        diff.frobenius_norm() / (dim * dim)
    };
    let (ig_err, of_err) = (frob(&ig), frob(&of));
    table.row(&[
        label.to_string(),
        format!("{:.3} s", ig_time.as_secs_f64()),
        format!("{ig_err:.3e}"),
        format!("{:.3} s", of_time.as_secs_f64()),
        format!("{of_err:.3e}"),
    ]);
    blinkml_bench::report::append_result(
        "fig9b_method_comparison",
        &serde_json::json!({
            "workload": label,
            "ig_runtime_s": ig_time.as_secs_f64(),
            "ig_frobenius": ig_err,
            "of_runtime_s": of_time.as_secs_f64(),
            "of_frobenius": of_err,
            "param_dim": dim,
        }),
    );
}

/// Fig 9b: IG vs OF on low- and high-dimensional workloads.
fn method_comparison_study(seed: u64) {
    println!("\n# Figure 9b — InverseGradients vs ObservedFisher");
    let mut table = Table::new(
        "Method comparison (runtime / avg Frobenius error)",
        &[
            "Workload",
            "IG Runtime",
            "IG Accuracy",
            "OF Runtime",
            "OF Accuracy",
        ],
    );
    let higgs = higgs_like(40_000, 28, seed);
    let lr = LogisticRegressionSpec::new(1e-3);
    compare_methods(
        "LR, HIGGS-like",
        &lr,
        &higgs,
        5_000,
        true,
        &mut table,
        seed + 10,
    );

    let mnist = mnist_like(20_000, seed);
    let me = MaxEntSpec::new(1e-3, 10);
    compare_methods(
        "ME, MNIST-like",
        &me,
        &mnist,
        1_000,
        false,
        &mut table,
        seed + 20,
    );
    table.print();
}

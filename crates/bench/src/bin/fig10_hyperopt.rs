//! Figure 10: hyperparameter optimization with BlinkML vs full training.
//!
//! Random search over (feature subset, L2 coefficient) pairs, exactly as
//! in §5.7: both approaches walk the *same* candidate sequence; the
//! traditional approach trains an exact model per candidate while
//! BlinkML trains a 95%-accurate approximation. Candidates are drawn as
//! groups that share a feature subset with several β draws each — the
//! shape real random search produces when the subset dimension is
//! coarser than the regularization dimension. The BlinkML arm exploits
//! that structure: each group projects its design matrix once and runs
//! the whole β grid through one `Session::sweep` call (shared pilot
//! capture, multi-β probe rounds answered on the calling thread by one
//! fused kernel pass each, one nested final capture), instead of one
//! `Coordinator` run per candidate. Reports how many
//! models each approach evaluates within the time budget and the best
//! test accuracy found over time.
//!
//! Usage:
//! `cargo run --release -p blinkml-bench --bin fig10_hyperopt -- [n=120000] [d=28] [budget_s=60] [n0=1000] [k=100] [group=5] [seed=1]`

use blinkml_bench::{BenchArgs, Table};
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::{BlinkMlConfig, ModelClassSpec, Session, StatisticsMethod};
use blinkml_data::generators::higgs_like;
use blinkml_data::{Dataset, DenseVec, Example};
use blinkml_optim::OptimOptions;
use blinkml_prob::rng_from_seed;
use rand::Rng;
use std::time::Instant;

/// One random-search candidate group: a feature subset shared by
/// several L2 coefficient draws.
#[derive(Debug, Clone)]
struct CandidateGroup {
    features: Vec<usize>,
    betas: Vec<f64>,
}

/// Generate the shared candidate sequence: `count` feature subsets with
/// `group` β draws each. Both arms walk groups (and the βs inside each
/// group) in this exact order.
fn candidate_groups(d: usize, count: usize, group: usize, seed: u64) -> Vec<CandidateGroup> {
    let mut rng = rng_from_seed(seed);
    (0..count)
        .map(|_| {
            let size = rng.gen_range(d / 3..=d);
            let mut features: Vec<usize> = (0..d).collect();
            // Partial shuffle, keep the first `size`.
            for i in 0..size {
                let j = rng.gen_range(i..d);
                features.swap(i, j);
            }
            features.truncate(size);
            features.sort_unstable();
            let betas = (0..group)
                .map(|_| 10f64.powf(rng.gen_range(-5.0..0.0)))
                .collect();
            CandidateGroup { features, betas }
        })
        .collect()
}

/// Project a dataset onto a feature subset.
fn project(data: &Dataset<DenseVec>, features: &[usize]) -> Dataset<DenseVec> {
    let examples = data
        .iter()
        .map(|e| Example {
            x: DenseVec::new(features.iter().map(|&f| e.x.as_slice()[f]).collect()),
            y: e.y,
        })
        .collect();
    Dataset::new(data.name(), features.len(), examples)
}

fn main() {
    let args = BenchArgs::parse(&["n", "d", "budget_s", "n0", "k", "group", "seed"]);
    let n = args.get_usize("n", 120_000);
    let d = args.get_usize("d", 28);
    let budget_s = args.get_f64("budget_s", 60.0);
    let n0 = args.get_usize("n0", 1_000);
    let k = args.get_usize("k", 100);
    let group = args.get_usize("group", 5);
    let seed = args.get_u64("seed", 1);

    println!(
        "# Figure 10 — hyperparameter optimization (N={n}, d={d}, budget={budget_s}s per approach)"
    );
    let data = higgs_like(n, d, seed);
    let split = data.split(2_000, 3_000, 0xF10);
    let groups = candidate_groups(d, 4_000usize.div_ceil(group), group, seed + 5);

    let mut table = Table::new(
        "Random search within equal time budgets",
        &[
            "Approach",
            "Models",
            "Best Test Acc",
            "Time to Best",
            "First Model At",
        ],
    );
    for (approach, is_blinkml) in [("Full training", false), ("BlinkML 95% (sweep)", true)] {
        let start = Instant::now();
        let mut evaluated = 0usize;
        let mut sweeps = 0usize;
        let mut best_acc = 0.0f64;
        let mut best_at = 0.0f64;
        let mut first_at = 0.0f64;
        'outer: for (gi, cand) in groups.iter().enumerate() {
            if start.elapsed().as_secs_f64() > budget_s {
                break;
            }
            let train = project(&split.train, &cand.features);
            let holdout = project(&split.holdout, &cand.features);
            let test = project(&split.test, &cand.features);
            if is_blinkml {
                let config = BlinkMlConfig {
                    epsilon: 0.05,
                    delta: 0.05,
                    initial_sample_size: n0,
                    holdout_size: holdout.len(),
                    num_param_samples: k,
                    statistics_method: StatisticsMethod::ObservedFisher,
                    optim: OptimOptions::default(),
                    estimate_final_accuracy: false,
                    exec: Default::default(),
                };
                // One projected design matrix, one sweep over the
                // group's whole β grid: pilots, probe rounds, and the
                // final sample capture are shared across the grid.
                let base = LogisticRegressionSpec::new(cand.betas[0]);
                let session = Session::new(config, &base, &train, &holdout).expect("sweep session");
                let sweep = session
                    .sweep(&cand.betas, 0.05, 0.05, seed + gi as u64)
                    .expect("blinkml sweep failed");
                sweeps += 1;
                for point in &sweep.points {
                    evaluated += 1;
                    if evaluated == 1 {
                        first_at = start.elapsed().as_secs_f64();
                    }
                    let spec = LogisticRegressionSpec::new(point.lambda);
                    let acc =
                        1.0 - spec.generalization_error(point.outcome.model.parameters(), &test);
                    if acc > best_acc {
                        best_acc = acc;
                        best_at = start.elapsed().as_secs_f64();
                    }
                }
            } else {
                for &beta in &cand.betas {
                    if start.elapsed().as_secs_f64() > budget_s {
                        break 'outer;
                    }
                    let spec = LogisticRegressionSpec::new(beta);
                    let theta = spec
                        .train(&train, None, &OptimOptions::default())
                        .expect("training failed")
                        .into_parameters();
                    evaluated += 1;
                    if evaluated == 1 {
                        first_at = start.elapsed().as_secs_f64();
                    }
                    let acc = 1.0 - spec.generalization_error(&theta, &test);
                    if acc > best_acc {
                        best_acc = acc;
                        best_at = start.elapsed().as_secs_f64();
                    }
                }
            }
        }
        table.row(&[
            approach.to_string(),
            format!("{evaluated}"),
            format!("{:.2}%", best_acc * 100.0),
            format!("{best_at:.1} s"),
            format!("{first_at:.2} s"),
        ]);
        blinkml_bench::report::append_result(
            "fig10_hyperopt",
            &serde_json::json!({
                "approach": approach,
                "models_evaluated": evaluated,
                "sweep_calls": sweeps,
                "group_size": group,
                "best_test_accuracy": best_acc,
                "time_to_best_s": best_at,
                "first_model_s": first_at,
                "budget_s": budget_s,
            }),
        );
    }
    table.print();
}

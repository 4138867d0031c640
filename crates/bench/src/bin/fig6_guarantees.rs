//! Figure 6 / Table 5: requested vs actual model accuracy.
//!
//! For each combination and requested accuracy, repeats BlinkML training
//! and measures the *actual* accuracy of each approximate model against
//! a trained full model on the test set. The paper's guarantee requires
//! the 5th percentile of actual accuracies to clear the requested level.
//! Each cell also reports the 95% one-sided Clopper–Pearson upper bound
//! on the true violation rate given its violation count, which the
//! guarantee puts at δ = 0.05 or below.
//!
//! Usage:
//! `cargo run --release -p blinkml-bench --bin fig6_guarantees -- [scale=1.0] [reps=20] [n0=1000] [k=100] [seed=1] [combo=<label substr>]`

use blinkml_bench::{combos::ComboId, BenchArgs, Table};
use blinkml_prob::{clopper_pearson_upper, quantile::summary};

fn main() {
    let args = BenchArgs::parse(&["scale", "reps", "n0", "k", "seed", "combo"]);
    let scale = args.get_f64("scale", 1.0);
    let reps = args.get_usize("reps", 20);
    let n0 = args.get_usize("n0", 1_000);
    let k = args.get_usize("k", 100);
    let seed = args.get_u64("seed", 1);
    let filter = args.get_str("combo", "");

    println!(
        "# Figure 6 / Table 5 — accuracy guarantees (scale={scale}, reps={reps}, n0={n0}, k={k}, delta=0.05)"
    );
    for id in ComboId::paper_combos() {
        if !filter.is_empty() && !id.label().contains(&filter) {
            continue;
        }
        let mut combo = id.make(scale, seed);
        combo.train_full();
        let mut table = Table::new(
            format!("{} — requested vs actual accuracy", id.label()),
            &[
                "Requested",
                "Actual Mean",
                "5th Pct",
                "95th Pct",
                "Violations",
                "Rate UB (95%)",
            ],
        );
        for &accuracy in id.accuracy_sweep() {
            let epsilon = 1.0 - accuracy;
            let actuals: Vec<f64> = (0..reps)
                .map(|rep| {
                    let run = combo.run_blinkml(
                        epsilon,
                        0.05,
                        id.effective_n0(n0),
                        k,
                        seed + 31 * rep as u64,
                    );
                    combo.actual_accuracy(&run.theta)
                })
                .collect();
            let (mean, p5, p95) = summary(&actuals, 0.05, 0.95);
            // The guarantee allows each run to violate with probability
            // δ = 0.05; report the realized violation count rather than
            // a pass/fail on the min (which flags ~1/3 of cells even
            // under perfect calibration at small rep counts).
            let violations = actuals.iter().filter(|&&a| a < accuracy - 1e-9).count();
            let rate_upper = clopper_pearson_upper(violations, reps, 0.95);
            table.row(&[
                format!("{:.2}%", accuracy * 100.0),
                format!("{:.2}%", mean * 100.0),
                format!("{:.2}%", p5 * 100.0),
                format!("{:.2}%", p95 * 100.0),
                format!("{violations}/{reps}"),
                format!("{rate_upper:.4}"),
            ]);
            blinkml_bench::report::append_result(
                "fig6_guarantees",
                &serde_json::json!({
                    "combo": id.label(),
                    "requested_accuracy": accuracy,
                    "actual_mean": mean,
                    "actual_p5": p5,
                    "actual_p95": p95,
                    "violations": violations,
                    "violation_rate_upper_95": rate_upper,
                    "reps": reps,
                }),
            );
        }
        table.print();
    }
}

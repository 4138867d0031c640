//! Error–computation trade-off planning (paper §4): estimate, *without
//! training anything beyond one initial model*, how large a sample each
//! accuracy level would need — then decide what to pay for.
//!
//! Run with: `cargo run --release --example sample_size_planning`

use blinkml::core::compute_statistics;
use blinkml::prelude::StatisticsMethod::ObservedFisher;
use blinkml::prelude::*;

fn main() {
    let data = gas_like(200_000, 11);
    let split = data.split(2_000, 0, 4);
    let spec = LinearRegressionSpec::new(1e-3);

    // One initial model on n₀ = 1 000 rows powers every estimate below.
    let n0 = 1_000;
    let d0 = split.train.sample(n0, 5);
    let m0 = spec
        .train(&d0, None, &Default::default())
        .expect("initial training failed");
    let stats =
        compute_statistics(ObservedFisher, &spec, m0.parameters(), &d0).expect("statistics failed");

    println!(
        "planning from one model trained on {n0} of {} rows:\n",
        split.train.len()
    );
    println!(
        "{:>12} {:>14} {:>10}",
        "accuracy", "est. sample n", "% of N"
    );
    let sse = SampleSizeEstimator::new(100);
    for accuracy in [0.80, 0.90, 0.95, 0.98, 0.99, 0.995] {
        let est = sse.estimate(
            &spec,
            m0.parameters(),
            &stats,
            n0,
            split.train.len(),
            &split.holdout,
            1.0 - accuracy,
            0.05,
            6,
        );
        println!(
            "{:>11.1}% {:>14} {:>9.2}%",
            accuracy * 100.0,
            est.n,
            100.0 * est.n as f64 / split.train.len() as f64
        );
    }
    println!("\nno additional model was trained to produce this table.");
}

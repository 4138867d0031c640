//! Repeated training queries through one amortized Session.
//!
//! The multi-query serving scenario: one training pool, many `(ε, δ)`
//! contracts. A `Session` trains the pilot model once per seed and
//! keeps one capture scratch for every sample; each query then only pays
//! for the accuracy estimate, the sample-size search, and (for tight
//! contracts) the final training. Results are bit-identical to fresh
//! coordinator runs — the sweep below prints the per-query time next to
//! what a cold coordinator spends on the same contract.
//!
//! Run with: `cargo run --release --example repeated_queries`

use blinkml::prelude::*;
use std::time::Instant;

fn main() {
    let data = higgs_like(120_000, 28, 7);
    let split = data.split(3_000, 0, 11);
    let spec = LogisticRegressionSpec::new(1e-3);
    let config = BlinkMlConfig {
        initial_sample_size: 2_000,
        holdout_size: 3_000,
        ..BlinkMlConfig::default()
    };

    let t = Instant::now();
    let session = Session::new(config.clone(), &spec, &split.train, &split.holdout)
        .expect("session construction");
    println!(
        "session opened over N = {} in {:.0} ms\n",
        session.pool_size(),
        t.elapsed().as_secs_f64() * 1e3
    );

    println!(
        "{:>8}  {:>9}  {:>10}  {:>12}  {:>12}",
        "ε", "chosen n", "ε̂", "session", "cold run"
    );
    for epsilon in [0.20, 0.10, 0.05, 0.02, 0.01] {
        let t = Instant::now();
        let outcome = session.train(epsilon, 0.05, 42).expect("session query");
        let session_ms = t.elapsed().as_secs_f64() * 1e3;

        // The same contract through a fresh coordinator, for comparison:
        // same bits, but the pilot and fresh capture buffers are paid
        // again.
        let mut cold_cfg = config.clone();
        cold_cfg.epsilon = epsilon;
        let t = Instant::now();
        let cold = Coordinator::new(cold_cfg)
            .train_with_holdout(&spec, &split.train, &split.holdout, 42)
            .expect("cold run");
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(outcome.model.parameters(), cold.model.parameters());
        assert_eq!(outcome.sample_size, cold.sample_size);

        println!(
            "{epsilon:>8.2}  {:>9}  {:>10.4}  {:>9.0} ms  {:>9.0} ms",
            outcome.sample_size, outcome.estimated_epsilon, session_ms, cold_ms
        );
    }
    println!(
        "\n{} pilot trained for the whole sweep (cached per seed); every row is\n\
         bit-identical to its cold coordinator run.",
        session.cached_pilots()
    );
}

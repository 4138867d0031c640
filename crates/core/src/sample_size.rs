//! Sample Size Estimator (paper §4).
//!
//! Finds the minimum sample size `n` such that a model trained on `n`
//! examples would satisfy the `(ε, δ)` contract against the full model —
//! **without training any additional model**. The probability
//! `Pr[v(m_n, m_N) ≤ ε]` is estimated by two-stage sampling from the
//! joint parameter distribution (`θ_n | θ_0`, then `θ_N | θ_n`,
//! Corollary 1 applied twice) over a fixed pool of unscaled draws
//! (sampling by scaling, §4.3), and the minimum `n` is located by binary
//! search, justified by the monotonicity of Theorem 2.

use crate::accuracy::DRAW_CHUNK;
use crate::diff_engine::{draw_pool, HoldoutScorer};
use crate::mcs::ModelClassSpec;
use crate::stats::ModelStatistics;
use blinkml_data::parallel::par_ranges_with;
use blinkml_data::{Dataset, FeatureVec};
use blinkml_prob::{conservative_level, empirical_quantile, split_seed};

/// The sample-size estimator; `num_samples` is the Monte Carlo draw
/// count `k` per stage.
#[derive(Debug, Clone)]
pub struct SampleSizeEstimator {
    /// Number of parameter draws `k`.
    pub num_samples: usize,
}

impl Default for SampleSizeEstimator {
    fn default() -> Self {
        SampleSizeEstimator { num_samples: 100 }
    }
}

/// Outcome of a sample-size search.
#[derive(Debug, Clone)]
pub struct SampleSizeEstimate {
    /// Estimated minimum sample size.
    pub n: usize,
    /// Number of binary-search probes evaluated.
    pub probes: usize,
}

impl SampleSizeEstimator {
    /// Estimator with `k` Monte Carlo draws per stage.
    pub fn new(num_samples: usize) -> Self {
        assert!(num_samples >= 2, "need at least two draws");
        SampleSizeEstimator { num_samples }
    }

    /// Estimate the minimum `n ∈ [n0, full_n]` whose trained model would
    /// satisfy `Pr[v(m_n, m_N) ≤ ε] ≥ 1 − δ`, using only the initial
    /// model `theta0` (trained on `n0` examples) and its statistics.
    #[allow(clippy::too_many_arguments)]
    pub fn estimate<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        spec: &S,
        theta0: &[f64],
        stats: &ModelStatistics,
        n0: usize,
        full_n: usize,
        holdout: &Dataset<F>,
        epsilon: f64,
        delta: f64,
        seed: u64,
    ) -> SampleSizeEstimate {
        let scorer = HoldoutScorer::new(spec, holdout, theta0);
        self.estimate_scored(&scorer, stats, n0, full_n, epsilon, delta, seed)
    }

    /// [`SampleSizeEstimator::estimate`] against a pre-built
    /// [`HoldoutScorer`], so the base θ₀ score matrix is shared with the
    /// ε₀ accuracy estimate instead of being rebuilt (bit-identical
    /// result).
    #[allow(clippy::too_many_arguments)]
    pub fn estimate_scored<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        scorer: &HoldoutScorer<'_, F, S>,
        stats: &ModelStatistics,
        n0: usize,
        full_n: usize,
        epsilon: f64,
        delta: f64,
        seed: u64,
    ) -> SampleSizeEstimate {
        self.estimate_scored_stoppable(scorer, stats, n0, full_n, epsilon, delta, seed, None)
            .expect("search without a stop probe always completes")
    }

    /// [`SampleSizeEstimator::estimate_scored`] with a cooperative stop
    /// probe polled before every binary-search probe: when `stop`
    /// returns `true` the search bails out with `None` (the caller
    /// degrades instead). A `None`/never-firing probe takes exactly the
    /// same numeric path as [`SampleSizeEstimator::estimate_scored`].
    #[allow(clippy::too_many_arguments)]
    pub fn estimate_scored_stoppable<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        scorer: &HoldoutScorer<'_, F, S>,
        stats: &ModelStatistics,
        n0: usize,
        full_n: usize,
        epsilon: f64,
        delta: f64,
        seed: u64,
        stop: Option<&dyn Fn() -> bool>,
    ) -> Option<SampleSizeEstimate> {
        assert!(n0 > 0 && n0 <= full_n, "need 0 < n0 <= N");
        let k = self.num_samples;
        // Two independent unscaled pools: u drives θ_n | θ_0, w drives
        // θ_N | θ_n. Fixed across all probes (sampling by scaling).
        let pool_u = draw_pool(stats, k, split_seed(seed, 0));
        let pool_w = draw_pool(stats, k, split_seed(seed, 1));
        let engine = scorer.engine(&pool_u, &pool_w);
        let level = conservative_level(delta, k);
        let mut probes = 0usize;
        let stopped = || stop.is_some_and(|s| s());

        let mut satisfied = |n: usize| -> bool {
            probes += 1;
            let a1 = alpha(n0, n).sqrt();
            let a2 = alpha(n, full_n).sqrt();
            // Parallel over draws; per-chunk hit counts are integers, so
            // the sum is exact and thread-count independent.
            let hits: usize = par_ranges_with(k, DRAW_CHUNK, |range| {
                range
                    .filter(|&i| engine.diff_two_stage(i, a1, a2) <= epsilon)
                    .count()
            })
            .into_iter()
            .sum();
            hits as f64 / k as f64 >= level
        };

        if stopped() {
            return None;
        }
        if satisfied(n0) {
            return Some(SampleSizeEstimate { n: n0, probes });
        }
        // At n = N the second-stage scale is zero, so v ≡ 0 ≤ ε: the
        // search interval (lo unsatisfied, hi satisfied] is well-formed.
        let mut lo = n0;
        let mut hi = full_n;
        while hi - lo > 1 {
            if stopped() {
                return None;
            }
            let mid = lo + (hi - lo) / 2;
            if satisfied(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(SampleSizeEstimate { n: hi, probes })
    }

    /// The honest ε at a **fixed** sample size `n` — one point on the
    /// sample-size curve the binary search walks: the conservative
    /// Lemma-2 quantile of the two-stage prediction differences for a
    /// model trained on `n` of `full_n` examples, estimated from the
    /// pilot at `n0`. Called with the search's own sub-seed, it uses
    /// exactly the search's draw pools, so the value is bit-identical
    /// to what any coordinator (warm or cold) computes for that rung —
    /// this is what lets a degraded response report an exact achieved
    /// guarantee instead of the requested one.
    #[allow(clippy::too_many_arguments)]
    pub fn epsilon_at_scored<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        scorer: &HoldoutScorer<'_, F, S>,
        stats: &ModelStatistics,
        n0: usize,
        n: usize,
        full_n: usize,
        delta: f64,
        seed: u64,
    ) -> f64 {
        assert!(n0 > 0 && n0 <= n && n <= full_n, "need 0 < n0 <= n <= N");
        let k = self.num_samples;
        let pool_u = draw_pool(stats, k, split_seed(seed, 0));
        let pool_w = draw_pool(stats, k, split_seed(seed, 1));
        let engine = scorer.engine(&pool_u, &pool_w);
        let a1 = alpha(n0, n).sqrt();
        let a2 = alpha(n, full_n).sqrt();
        let diffs: Vec<f64> = par_ranges_with(k, DRAW_CHUNK, |range| {
            range
                .map(|i| engine.diff_two_stage(i, a1, a2))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        empirical_quantile(&diffs, conservative_level(delta, k))
    }
}

/// `α = 1/a − 1/b`, clamped at zero.
fn alpha(a: usize, b: usize) -> f64 {
    (1.0 / a as f64 - 1.0 / b as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StatisticsMethod::ObservedFisher;
    use crate::diff_engine::DiffEngine;
    use crate::models::linreg::LinearRegressionSpec;
    use crate::models::logreg::LogisticRegressionSpec;
    use crate::stats::compute_statistics;
    use blinkml_data::generators::{synthetic_linear, synthetic_logistic};
    use blinkml_optim::OptimOptions;

    fn setup_logistic() -> (
        blinkml_data::Dataset<blinkml_data::DenseVec>,
        blinkml_data::Dataset<blinkml_data::DenseVec>,
        LogisticRegressionSpec,
        Vec<f64>,
        ModelStatistics,
        usize,
    ) {
        let (full, _) = synthetic_logistic(30_000, 5, 1.5, 1);
        let split = full.split(1_000, 0, 2);
        let spec = LogisticRegressionSpec::new(1e-3);
        let n0 = 500;
        let sample = split.train.sample(n0, 3);
        let model = spec.train(&sample, None, &OptimOptions::default()).unwrap();
        let stats = compute_statistics(ObservedFisher, &spec, model.parameters(), &sample).unwrap();
        (
            split.train,
            split.holdout,
            spec,
            model.into_parameters(),
            stats,
            n0,
        )
    }

    #[test]
    fn tighter_epsilon_needs_bigger_sample() {
        let (train, holdout, spec, theta0, stats, n0) = setup_logistic();
        let sse = SampleSizeEstimator::new(64);
        let loose = sse.estimate(
            &spec,
            &theta0,
            &stats,
            n0,
            train.len(),
            &holdout,
            0.20,
            0.05,
            7,
        );
        let tight = sse.estimate(
            &spec,
            &theta0,
            &stats,
            n0,
            train.len(),
            &holdout,
            0.02,
            0.05,
            7,
        );
        assert!(
            tight.n > loose.n,
            "ε=0.02 needs {} vs ε=0.20 needs {}",
            tight.n,
            loose.n
        );
        assert!(loose.n >= n0);
        assert!(tight.n <= train.len());
    }

    #[test]
    fn trivial_epsilon_is_satisfied_at_n0() {
        let (train, holdout, spec, theta0, stats, n0) = setup_logistic();
        let sse = SampleSizeEstimator::new(32);
        // ε close to 1 is satisfied by any classifier pair.
        let est = sse.estimate(
            &spec,
            &theta0,
            &stats,
            n0,
            train.len(),
            &holdout,
            0.95,
            0.05,
            9,
        );
        assert_eq!(est.n, n0);
        assert_eq!(est.probes, 1);
    }

    #[test]
    fn probes_are_logarithmic() {
        let (train, holdout, spec, theta0, stats, n0) = setup_logistic();
        let sse = SampleSizeEstimator::new(32);
        let est = sse.estimate(
            &spec,
            &theta0,
            &stats,
            n0,
            train.len(),
            &holdout,
            0.05,
            0.05,
            11,
        );
        // Binary search over ~29.5K values: about 15–16 probes plus the
        // initial check.
        assert!(est.probes <= 18, "probes {}", est.probes);
    }

    #[test]
    fn probe_satisfaction_is_monotone_in_n() {
        // Direct check of the Theorem-2 monotonicity on realized draws.
        let (train, holdout, spec, theta0, stats, n0) = setup_logistic();
        let k = 64;
        let pool_u = draw_pool(&stats, k, 1);
        let pool_w = draw_pool(&stats, k, 2);
        let engine = DiffEngine::new(&spec, &holdout, &theta0, &pool_u, &pool_w);
        let full_n = train.len();
        let frac = |n: usize| -> f64 {
            let a1 = alpha(n0, n).sqrt();
            let a2 = alpha(n, full_n).sqrt();
            (0..k)
                .filter(|&i| engine.diff_two_stage(i, a1, a2) <= 0.05)
                .count() as f64
                / k as f64
        };
        let f1 = frac(n0);
        let f2 = frac(4 * n0);
        let f3 = frac(full_n);
        assert!(f1 <= f2 + 0.1, "{f1} vs {f2}");
        assert!(f2 <= f3 + 1e-12, "{f2} vs {f3}");
        assert_eq!(f3, 1.0);
    }

    #[test]
    fn stop_probe_bails_out_deterministically() {
        use std::cell::Cell;
        let (train, holdout, spec, theta0, stats, n0) = setup_logistic();
        let scorer = HoldoutScorer::new(&spec, &holdout, &theta0);
        let sse = SampleSizeEstimator::new(32);
        // A probe that fires after two checks: the search must bail with
        // None instead of completing.
        let checks = Cell::new(0usize);
        let stop = move || {
            checks.set(checks.get() + 1);
            checks.get() > 2
        };
        let est = sse.estimate_scored_stoppable(
            &scorer,
            &stats,
            n0,
            train.len(),
            0.02,
            0.05,
            7,
            Some(&stop),
        );
        assert!(est.is_none(), "stop probe must abort the search");
        // A probe that never fires is bit-identical to the plain search.
        let never = || false;
        let a = sse
            .estimate_scored_stoppable(
                &scorer,
                &stats,
                n0,
                train.len(),
                0.02,
                0.05,
                7,
                Some(&never),
            )
            .unwrap();
        let b = sse.estimate_scored(&scorer, &stats, n0, train.len(), 0.02, 0.05, 7);
        assert_eq!(a.n, b.n);
        assert_eq!(a.probes, b.probes);
        // Immediately-firing probe: no probes at all.
        let always = || true;
        assert!(sse
            .estimate_scored_stoppable(
                &scorer,
                &stats,
                n0,
                train.len(),
                0.02,
                0.05,
                7,
                Some(&always),
            )
            .is_none());
    }

    #[test]
    fn curve_epsilon_is_monotone_and_consistent_with_search() {
        let (train, holdout, spec, theta0, stats, n0) = setup_logistic();
        let scorer = HoldoutScorer::new(&spec, &holdout, &theta0);
        let sse = SampleSizeEstimator::new(64);
        let full_n = train.len();
        let eps_small = sse.epsilon_at_scored(&scorer, &stats, n0, 2 * n0, full_n, 0.05, 7);
        let eps_big = sse.epsilon_at_scored(&scorer, &stats, n0, 8 * n0, full_n, 0.05, 7);
        assert!(
            eps_big <= eps_small,
            "curve must shrink with n: {eps_big} vs {eps_small}"
        );
        let eps_full = sse.epsilon_at_scored(&scorer, &stats, n0, full_n, full_n, 0.05, 7);
        assert_eq!(eps_full, 0.0, "at n = N the second stage is exact");
        // At the n the search chose for a target ε, the curve ε meets
        // the target: same draws, quantile vs hit-fraction duality.
        let target = 0.05;
        let est = sse.estimate_scored(&scorer, &stats, n0, full_n, target, 0.05, 7);
        let eps_at_n = sse.epsilon_at_scored(&scorer, &stats, n0, est.n, full_n, 0.05, 7);
        assert!(
            eps_at_n <= target,
            "curve ε at the chosen n ({eps_at_n}) must meet the target ({target})"
        );
    }

    #[test]
    fn estimated_size_actually_delivers_accuracy() {
        // Train at the estimated n and compare against a trained full
        // model: the realized difference should meet ε (statistically).
        let (full, _) = synthetic_linear(20_000, 4, 0.5, 5);
        let split = full.split(1_000, 0, 6);
        let spec = LinearRegressionSpec::new(1e-3);
        let opts = OptimOptions::default();
        let n0 = 400;
        let d0 = split.train.sample(n0, 7);
        let m0 = spec.train(&d0, None, &opts).unwrap();
        let stats = compute_statistics(ObservedFisher, &spec, m0.parameters(), &d0).unwrap();

        let epsilon = 0.05;
        let sse = SampleSizeEstimator::new(100);
        let est = sse.estimate(
            &spec,
            m0.parameters(),
            &stats,
            n0,
            split.train.len(),
            &split.holdout,
            epsilon,
            0.05,
            8,
        );
        assert!(
            est.n > n0,
            "ε=0.05 should need more than n0={n0}, got {}",
            est.n
        );

        let full_model = spec.train(&split.train, None, &opts).unwrap();
        let dn = split.train.sample(est.n, 9);
        let mn = spec.train(&dn, None, &opts).unwrap();
        let v = spec.diff(mn.parameters(), full_model.parameters(), &split.holdout);
        // One realization; allow modest slack over ε for test stability.
        assert!(v <= epsilon * 1.5, "realized v = {v} at n = {}", est.n);
    }
}

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

use crate::accuracy::{sampling_alpha, DRAW_CHUNK};
use crate::diff_engine::{draw_pool, DiffEngine, HoldoutScorer};
use crate::mcs::ModelClassSpec;
use crate::stats::ModelStatistics;
use blinkml_data::parallel::par_ranges_with;
use blinkml_data::{Dataset, FeatureVec};
use blinkml_prob::{conservative_level, empirical_quantile, split_seed};
use std::sync::atomic::{AtomicUsize, Ordering};

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
        self.prepare(scorer, stats, n0, full_n, delta, seed)
            .search(epsilon, None)
            .expect("search without a stop probe always completes")
    }

    /// Draw the search's two pools from sub-seeds 0 and 1 of `seed` and
    /// score them once: the returned [`PreparedSearch`] runs the binary
    /// search and evaluates points of the same sample-size curve
    /// without redrawing or rescoring.
    pub fn prepare<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        scorer: &HoldoutScorer<'a, F, S>,
        stats: &ModelStatistics,
        n0: usize,
        full_n: usize,
        delta: f64,
        seed: u64,
    ) -> PreparedSearch<'a, F, S> {
        assert!(n0 > 0 && n0 <= full_n, "need 0 < n0 <= N");
        let k = self.num_samples;
        // Two independent unscaled pools: u drives θ_n | θ_0, w drives
        // θ_N | θ_n. Fixed across all probes (sampling by scaling).
        let pool_u = draw_pool(stats, k, split_seed(seed, 0));
        let pool_w = draw_pool(stats, k, split_seed(seed, 1));
        PreparedSearch {
            engine: scorer.engine(&pool_u, &pool_w),
            k,
            n0,
            full_n,
            level: conservative_level(delta, k),
        }
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
        self.prepare(scorer, stats, n0, full_n, delta, seed)
            .epsilon_at(n)
    }
}

/// A sample-size search with its draw pools scored
/// ([`SampleSizeEstimator::prepare`]): the binary search and any number
/// of curve points share one engine.
pub struct PreparedSearch<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> {
    engine: DiffEngine<'a, F, S>,
    k: usize,
    n0: usize,
    full_n: usize,
    level: f64,
}

impl<F: FeatureVec, S: ModelClassSpec<F> + ?Sized> PreparedSearch<'_, F, S> {
    /// Binary-search the minimum `n ∈ [n0, full_n]` with
    /// `Pr[v(m_n, m_N) ≤ epsilon] ≥ 1 − δ`, polling the cooperative
    /// `stop` before every probe: when it returns `true` the search
    /// bails out with `None` (the caller degrades instead). A `None` or
    /// never-firing `stop` takes exactly the same numeric path.
    ///
    /// A probe only needs its verdict `hits/k ≥ level`, so it evaluates
    /// it lazily and exactly: each draw's kernel stops once its sum
    /// already fails `v ≤ ε` ([`DiffEngine::bound`]), and the probe
    /// stops once enough draws passed or too few can. Every chosen `n`
    /// and probe count equals the full evaluation's, at any thread
    /// count.
    pub fn search(
        &self,
        epsilon: f64,
        stop: Option<&dyn Fn() -> bool>,
    ) -> Option<SampleSizeEstimate> {
        let (k, n0, full_n) = (self.k, self.n0, self.full_n);
        let bound = self.engine.bound(epsilon);
        let mut probes = 0usize;
        let stopped = || stop.is_some_and(|s| s());

        let mut satisfied = |n: usize| -> bool {
            probes += 1;
            let a1 = sampling_alpha(n0, n).sqrt();
            let a2 = sampling_alpha(n, full_n).sqrt();
            lazy_verdict(k, self.level, |i| {
                self.engine.two_stage_within(i, a1, a2, &bound)
            })
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

    /// The curve ε at sample size `n`
    /// ([`SampleSizeEstimator::epsilon_at_scored`]): a full pass over
    /// every draw, since the quantile needs every value.
    pub fn epsilon_at(&self, n: usize) -> f64 {
        assert!(self.n0 <= n && n <= self.full_n, "need 0 < n0 <= n <= N");
        let a1 = sampling_alpha(self.n0, n).sqrt();
        let a2 = sampling_alpha(n, self.full_n).sqrt();
        let diffs: Vec<f64> = par_ranges_with(self.k, DRAW_CHUNK, |range| {
            range
                .map(|i| self.engine.diff_two_stage(i, a1, a2))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        empirical_quantile(&diffs, self.level)
    }
}

/// The probe verdict `hits/k ≥ level` over draws `0..k`, where a hit is
/// a draw with `passes(i)`, evaluated lazily: draws stop being
/// evaluated once enough have passed, or once too few can. Whichever
/// draws ran before that, the verdict equals the full count's, at any
/// thread count.
fn lazy_verdict(k: usize, level: f64, passes: impl Fn(usize) -> bool + Sync) -> bool {
    // The fewest hits the level accepts (k + 1: none).
    let need = (0..=k)
        .find(|&m| m as f64 / k as f64 >= level)
        .unwrap_or(k + 1);
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(0);
    let settled =
        || hits.load(Ordering::Relaxed) >= need || k - misses.load(Ordering::Relaxed) < need;
    // The counters publish no other data and are read back after the
    // workers join, so `Relaxed` suffices.
    par_ranges_with(k, DRAW_CHUNK, |range| {
        for i in range {
            if settled() {
                return;
            }
            let counter = if passes(i) { &hits } else { &misses };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    });
    hits.into_inner() as f64 / k as f64 >= level
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StatisticsMethod::ObservedFisher;
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
            let a1 = sampling_alpha(n0, n).sqrt();
            let a2 = sampling_alpha(n, full_n).sqrt();
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
        let search = sse.prepare(&scorer, &stats, n0, train.len(), 0.05, 7);
        assert!(
            search.search(0.02, Some(&stop)).is_none(),
            "stop probe must abort the search"
        );
        // A probe that never fires is bit-identical to the plain search.
        let never = || false;
        let a = search.search(0.02, Some(&never)).unwrap();
        let b = sse.estimate_scored(&scorer, &stats, n0, train.len(), 0.02, 0.05, 7);
        assert_eq!(a.n, b.n);
        assert_eq!(a.probes, b.probes);
        // Immediately-firing probe: no probes at all.
        let always = || true;
        assert!(search.search(0.02, Some(&always)).is_none());
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

    /// The search as it ran before the lazy probe: every draw's full
    /// diff and every probe's full hit count.
    fn full_pass_search<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        search: &PreparedSearch<'_, F, S>,
        epsilon: f64,
    ) -> SampleSizeEstimate {
        let (k, n0, full_n) = (search.k, search.n0, search.full_n);
        let mut probes = 0;
        let mut satisfied = |n: usize| {
            probes += 1;
            let a1 = sampling_alpha(n0, n).sqrt();
            let a2 = sampling_alpha(n, full_n).sqrt();
            let hits = (0..k)
                .filter(|&i| search.engine.diff_two_stage(i, a1, a2) <= epsilon)
                .count();
            hits as f64 / k as f64 >= search.level
        };
        if satisfied(n0) {
            return SampleSizeEstimate { n: n0, probes };
        }
        let (mut lo, mut hi) = (n0, full_n);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if satisfied(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        SampleSizeEstimate { n: hi, probes }
    }

    /// The lazy probe gives the full pass's n and probe count across
    /// k = 2 and larger pools, levels capped at 1.0 (δ = 0.05) and
    /// below it, ε from 0 (nothing passes short of N) to 1, and
    /// threads {1, 4}.
    #[test]
    fn lazy_search_matches_the_full_pass() {
        use blinkml_data::parallel::set_max_threads;
        let _budget = blinkml_linalg::testing::budget_lock();
        let (train, holdout, spec, theta0, stats, n0) = setup_logistic();
        let scorer = HoldoutScorer::new(&spec, &holdout, &theta0);
        for k in [2, 5, 32] {
            for delta in [0.05, 0.5, 0.9] {
                let search =
                    SampleSizeEstimator::new(k).prepare(&scorer, &stats, n0, train.len(), delta, 3);
                if delta == 0.05 {
                    assert_eq!(search.level, 1.0);
                }
                for epsilon in [0.0, 0.01, 0.03, 0.08, 0.3, 1.0] {
                    let full = full_pass_search(&search, epsilon);
                    for threads in [Some(1), Some(4)] {
                        set_max_threads(threads);
                        let lazy = search.search(epsilon, None).unwrap();
                        assert_eq!(
                            (lazy.n, lazy.probes),
                            (full.n, full.probes),
                            "k = {k}, δ = {delta}, ε = {epsilon}, threads {threads:?}"
                        );
                    }
                }
            }
        }
        set_max_threads(None);
    }

    /// A probe settled by its first draws gives the full count's
    /// verdict after evaluating fewer than k draws: the first failure
    /// at level 1.0 (δ ≤ 0.05), enough hits at a lower level, too many
    /// misses, and a level no count reaches. Each worker thread may
    /// start one draw before it sees the verdict settle, so the cases
    /// settle well before k; a pass at level 1.0 needs every draw.
    #[test]
    fn probe_settled_by_its_first_draws_keeps_its_verdict() {
        type Passes = fn(usize) -> bool;
        let k = 64;
        let cases: [(f64, Passes); 7] = [
            (1.0, |_| true),
            (1.0, |_| false),
            (1.0, |i| i != 0),
            (0.5, |_| true),
            (0.5, |_| false),
            (0.25, |i| i % 2 == 0),
            (1.5, |_| true),
        ];
        for (level, passes) in cases {
            let full = (0..k).filter(|&i| passes(i)).count() as f64 / k as f64 >= level;
            let calls = AtomicUsize::new(0);
            let lazy = lazy_verdict(k, level, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                passes(i)
            });
            assert_eq!(lazy, full, "level {level}");
            let calls = calls.into_inner();
            if level == 1.0 && full {
                assert_eq!(calls, k, "a passing probe at level 1.0 needs every draw");
            } else {
                assert!(calls < k, "level {level}: {calls} of {k} draws evaluated");
            }
        }
        // k = 2 at the level δ = 0.9 gives (about 0.97): both draws must pass.
        let level = conservative_level(0.9, 2);
        assert!(lazy_verdict(2, level, |_| true));
        assert!(!lazy_verdict(2, level, |i| i == 0));
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

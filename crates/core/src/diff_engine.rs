//! Fast evaluation of prediction differences across many parameter draws.
//!
//! Both estimators evaluate `v(m(θ_a), m(θ_b))` for `k` parameter draws
//! at every probe. For margin-based models (all GLMs and max-entropy)
//! the holdout scores are **linear** in `θ`, so the engine precomputes
//! the score matrices of the base parameter and of each pooled draw
//! once; a probe at any sample size then costs `O(holdout · outputs)`
//! scalar work instead of `O(holdout · D)` dot products. This is the
//! practical companion of the paper's sampling-by-scaling optimization
//! (§4.3): the same unscaled pool serves every `n`.
//!
//! Construction itself is batched: when the spec exposes
//! [`ModelClassSpec::margin_weights`], score matrices are built with
//! fused GEMMs — the holdout design matrix times stacked weight blocks —
//! streamed in parallel chunks of holdout rows instead of separate
//! per-example scoring passes. Each chunk is one call of the
//! register-tiled, runtime-dispatched AVX kernels in
//! `blinkml_linalg::simd`, which add every score's terms in the order of
//! the per-row axpy loop, so the scores carry the same bits on every
//! host. Every weight block must be `data_dim × outputs`; the scorer
//! panics on any other shape. Specs with margins but no weight matrix
//! keep the per-example path; models without margins (PPCA) fall back to
//! materializing parameter vectors and calling the spec's own `diff`.
//!
//! Evaluation is batched per draw: the engine hands each draw's score
//! slices to the spec's kernel, [`ModelClassSpec::margin_diff_sum`],
//! once, and [`DiffEngine::two_stage_within`] lets that kernel stop as
//! soon as the draw's `v ≤ ε` verdict is settled.
//!
//! The **base** score matrix (of `θ_base`) depends on neither the draw
//! pools nor the contract, so a [`HoldoutScorer`] computes it **once
//! per coordinator run** and shares it (reference-counted) between the
//! accuracy estimator's engine and the sample-size estimator's engine —
//! previously the same spec/θ₀/holdout scores were constructed twice.

use crate::mcs::{DrawScores, ModelClassSpec};
use crate::stats::ModelStatistics;
use blinkml_data::parallel::par_ranges;
use blinkml_data::{Dataset, FeatureVec};
use blinkml_linalg::Matrix;
use blinkml_prob::{rng_from_seed, MvnSampler};
use std::sync::Arc;

/// Precomputed state for repeated difference evaluations over pooled
/// parameter draws.
pub struct DiffEngine<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> {
    spec: &'a S,
    holdout: &'a Dataset<F>,
    mode: Mode<'a>,
}

enum Mode<'a> {
    /// Margin fast path: flattened `holdout_len × outputs` score
    /// matrices. The base scores are shared with (and by) the
    /// [`HoldoutScorer`] that built them.
    Margins {
        outputs: usize,
        rms: bool,
        base: Arc<Vec<f64>>,
        pool_u: Vec<Vec<f64>>,
        pool_w: Vec<Vec<f64>>,
    },
    /// Generic fallback over raw parameter vectors.
    Generic {
        base: &'a [f64],
        pool_u: Vec<Vec<f64>>,
        pool_w: Vec<Vec<f64>>,
    },
}

/// The holdout scores of one base parameter vector, computed once and
/// shared by every [`DiffEngine`] derived from the scorer.
struct BaseScores {
    outputs: usize,
    rms: bool,
    /// Whether the spec exposes `margin_weights` (GEMM scoring); pools
    /// must be scored the same way as the base so diffs compare
    /// identically-derived score matrices.
    use_weights: bool,
    scores: Arc<Vec<f64>>,
}

/// Per-run holdout scoring state: spec + holdout + base parameters with
/// the base score matrix built **once**. Both estimators derive their
/// [`DiffEngine`]s from one scorer ([`HoldoutScorer::engine`]), so the
/// ε₀ estimate and the sample-size search share the θ₀ scores instead
/// of each rebuilding them.
pub struct HoldoutScorer<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> {
    spec: &'a S,
    holdout: &'a Dataset<F>,
    theta_base: &'a [f64],
    base: Option<BaseScores>,
}

impl<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> HoldoutScorer<'a, F, S> {
    /// Score `theta_base` over the holdout set (one fused GEMM for
    /// margin-weight specs, one per-example pass for margin-only specs,
    /// nothing for generic specs).
    pub fn new(spec: &'a S, holdout: &'a Dataset<F>, theta_base: &'a [f64]) -> Self {
        let base = spec.num_margin_outputs(holdout.dim()).map(|outputs| {
            let rms = spec.diff_is_rms();
            match checked_margin_weights(spec, theta_base, holdout.dim(), outputs) {
                Some(wb) => BaseScores {
                    outputs,
                    rms,
                    use_weights: true,
                    scores: Arc::new(
                        batched_scores(holdout, &wb, outputs)
                            .pop()
                            .expect("one stacked block"),
                    ),
                },
                None => BaseScores {
                    outputs,
                    rms,
                    use_weights: false,
                    scores: Arc::new(score_per_example(spec, holdout, theta_base, outputs)),
                },
            }
        });
        HoldoutScorer {
            spec,
            holdout,
            theta_base,
            base,
        }
    }

    /// Score a whole grid of `(spec, θ_base)` pairs over one holdout set
    /// with **one** fused GEMM: the weight blocks of every pair are
    /// stacked horizontally and streamed through `batched_scores`
    /// together, so a λ-sweep's K base score matrices cost one pass over
    /// the holdout design matrix instead of K.
    ///
    /// Bit-exactness: `batched_scores` computes each output column
    /// independently of how many blocks are stacked beside it, so every
    /// returned scorer is **bit-identical** to `HoldoutScorer::new(spec,
    /// holdout, theta)` for its pair. Pairs whose specs expose no weight
    /// matrix (or disagree on the output count) fall back to per-pair
    /// construction — identical results, just without the fusion.
    pub fn new_many(holdout: &'a Dataset<F>, entries: &[(&'a S, &'a [f64])]) -> Vec<Self> {
        let dim = holdout.dim();
        let mut blocks: Vec<Matrix> = Vec::with_capacity(entries.len());
        let mut outputs0 = None;
        let mut fused = !entries.is_empty();
        for (spec, theta) in entries {
            let Some((outputs, wb)) = spec
                .num_margin_outputs(dim)
                .and_then(|o| Some((o, checked_margin_weights(*spec, theta, dim, o)?)))
            else {
                fused = false;
                break;
            };
            match outputs0 {
                None => outputs0 = Some(outputs),
                Some(o) if o == outputs => {}
                Some(_) => {
                    fused = false;
                    break;
                }
            }
            blocks.push(wb);
        }
        if !fused {
            return entries
                .iter()
                .map(|(spec, theta)| HoldoutScorer::new(*spec, holdout, theta))
                .collect();
        }
        let outputs = outputs0.expect("non-empty fused stack");
        let scores = batched_scores(holdout, &Matrix::hstack(&blocks), outputs);
        entries
            .iter()
            .zip(scores)
            .map(|((spec, theta), s)| HoldoutScorer {
                spec: *spec,
                holdout,
                theta_base: theta,
                base: Some(BaseScores {
                    outputs,
                    rms: spec.diff_is_rms(),
                    use_weights: true,
                    scores: Arc::new(s),
                }),
            })
            .collect()
    }

    /// Number of linear-score outputs (None for generic specs).
    pub fn outputs(&self) -> Option<usize> {
        self.base.as_ref().map(|b| b.outputs)
    }

    /// Derive an engine for the given perturbation pools, reusing the
    /// base scores. Pools are scored exactly as [`DiffEngine::new`]
    /// scores them (same GEMM kernels, same chunking), so engines built
    /// here are bit-identical to standalone engines. The engine keeps
    /// no borrow of the pools: margin engines keep their scores, generic
    /// engines a copy of the pools.
    pub fn engine(&self, pool_u: &[Vec<f64>], pool_w: &[Vec<f64>]) -> DiffEngine<'a, F, S> {
        let mode = match &self.base {
            Some(b) => {
                let dim = self.holdout.dim();
                let stacked: Vec<&[f64]> = pool_u
                    .iter()
                    .chain(pool_w.iter())
                    .map(Vec::as_slice)
                    .collect();
                let weights: Option<Vec<Matrix>> = if b.use_weights {
                    stacked
                        .iter()
                        .map(|t| checked_margin_weights(self.spec, t, dim, b.outputs))
                        .collect()
                } else {
                    None
                };
                // `margin_weights` is θ-independent for every built-in
                // spec, so the base's Some/None decision carries over to
                // the pools. Should a custom spec ever return mixed
                // answers, degrade uniformly: score the pools AND the
                // base per-example (exactly what the pre-scorer engine
                // did for a mixed stack), never compare GEMM-scored
                // bases against per-example-scored pools.
                let per_example_all = b.use_weights && !stacked.is_empty() && weights.is_none();
                debug_assert!(
                    !per_example_all,
                    "margin_weights must be uniform across parameter vectors"
                );
                let mut scores = match weights {
                    Some(blocks) if !blocks.is_empty() => {
                        batched_scores(self.holdout, &Matrix::hstack(&blocks), b.outputs)
                            .into_iter()
                    }
                    _ => stacked
                        .iter()
                        .map(|t| score_per_example(self.spec, self.holdout, t, b.outputs))
                        .collect::<Vec<_>>()
                        .into_iter(),
                };
                let pool_u_scores: Vec<Vec<f64>> = scores.by_ref().take(pool_u.len()).collect();
                let pool_w_scores: Vec<Vec<f64>> = scores.collect();
                let base = if per_example_all {
                    Arc::new(score_per_example(
                        self.spec,
                        self.holdout,
                        self.theta_base,
                        b.outputs,
                    ))
                } else {
                    Arc::clone(&b.scores)
                };
                Mode::Margins {
                    outputs: b.outputs,
                    rms: b.rms,
                    base,
                    pool_u: pool_u_scores,
                    pool_w: pool_w_scores,
                }
            }
            None => Mode::Generic {
                base: self.theta_base,
                pool_u: pool_u.to_vec(),
                pool_w: pool_w.to_vec(),
            },
        };
        DiffEngine {
            spec: self.spec,
            holdout: self.holdout,
            mode,
        }
    }
}

/// `spec.margin_weights(theta, dim)`, checked to be the `dim × outputs`
/// block [`batched_scores`] assumes: a block of another shape would
/// misalign every score column stacked after it, and the SIMD scoring
/// kernel's unchecked loads rely on the table's height.
fn checked_margin_weights<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    spec: &S,
    theta: &[f64],
    dim: usize,
    outputs: usize,
) -> Option<Matrix> {
    let wb = spec.margin_weights(theta, dim)?;
    assert!(
        wb.rows() == dim && wb.cols() == outputs,
        "{}: margin_weights returned a {}×{} block, expected data_dim × outputs = {dim}×{outputs}",
        spec.name(),
        wb.rows(),
        wb.cols()
    );
    Some(wb)
}

/// Per-example margin scoring of one parameter vector (the fallback for
/// margin specs without a weight matrix).
fn score_per_example<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    spec: &S,
    holdout: &Dataset<F>,
    theta: &[f64],
    outputs: usize,
) -> Vec<f64> {
    let mut m = vec![0.0; holdout.len() * outputs];
    for (i, e) in holdout.iter().enumerate() {
        spec.margins(theta, &e.x, &mut m[i * outputs..(i + 1) * outputs]);
    }
    m
}

/// One fused GEMM over the holdout set: compute `S = X · W_all` (`X` the
/// `h × d` holdout design matrix, `W_all` the horizontally stacked
/// `d × (P·outputs)` weight blocks of `P` parameter vectors) in parallel
/// chunks of holdout rows, and return the `P` flattened
/// `h × outputs` score matrices.
///
/// The design matrix is never materialized: each chunk hands its rows to
/// one [`FeatureVec::add_rows_times_table`] call, which runs dense rows
/// through the 4-row × 8-column register tile of
/// `blinkml_linalg::simd::rows_times_table` and sparse rows one at a
/// time through `sparse_row_times_table`. Every score is the sum of its
/// row's nonzero terms in ascending feature order, whatever the tiling
/// or the AVX dispatch. Chunk boundaries are fixed (see
/// `blinkml_data::parallel`) and each output row is written by exactly
/// one chunk, so results are bit-identical for any thread count and any
/// host.
fn batched_scores<F: FeatureVec>(
    holdout: &Dataset<F>,
    w_all: &Matrix,
    outputs: usize,
) -> Vec<Vec<f64>> {
    let h = holdout.len();
    let cols = w_all.cols();
    let num_params = cols / outputs;
    let table = w_all.as_slice();
    // Each chunk computes its interleaved score rows (cache-friendly for
    // the GEMM row kernel), then un-interleaves *locally* into
    // per-parameter segments, so the full-size interleaved intermediate
    // never exists — peak memory stays ~one copy of the scores plus one
    // chunk, instead of two full copies.
    let chunked: Vec<Vec<Vec<f64>>> = par_ranges(h, |range| {
        let len = range.len();
        let mut block = vec![0.0; len * cols];
        let rows: Vec<&F> = range.map(|j| &holdout.get(j).x).collect();
        F::add_rows_times_table(&rows, table, cols, &mut block);
        let mut segments: Vec<Vec<f64>> = (0..num_params)
            .map(|_| Vec::with_capacity(len * outputs))
            .collect();
        for srow in block.chunks_exact(cols) {
            for (p, segment) in segments.iter_mut().enumerate() {
                segment.extend_from_slice(&srow[p * outputs..(p + 1) * outputs]);
            }
        }
        segments
    });
    // Concatenate the per-chunk segments in chunk order, freeing each
    // chunk as it is consumed.
    let mut scores: Vec<Vec<f64>> = (0..num_params)
        .map(|_| Vec::with_capacity(h * outputs))
        .collect();
    for segments in chunked {
        for (score, segment) in scores.iter_mut().zip(segments) {
            score.extend_from_slice(&segment);
        }
    }
    scores
}

/// Draw a pool of `count` centered parameter-perturbation vectors from
/// the model statistics (unscaled: covariance `H⁻¹JH⁻¹`).
pub fn draw_pool(stats: &ModelStatistics, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut sampler = MvnSampler::new(stats);
    let mut rng = rng_from_seed(seed);
    sampler.sample_pool(&mut rng, count)
}

impl<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> DiffEngine<'a, F, S> {
    /// Build an engine for `theta_base` and the given perturbation
    /// pools. `pool_w` may be empty when only one-stage differences are
    /// needed (accuracy estimation).
    ///
    /// Equivalent to `HoldoutScorer::new(..).engine(pool_u, pool_w)`;
    /// use a [`HoldoutScorer`] directly when several engines share one
    /// base parameter vector, so its scores are computed once.
    pub fn new(
        spec: &'a S,
        holdout: &'a Dataset<F>,
        theta_base: &'a [f64],
        pool_u: &[Vec<f64>],
        pool_w: &[Vec<f64>],
    ) -> Self {
        HoldoutScorer::new(spec, holdout, theta_base).engine(pool_u, pool_w)
    }

    /// Number of pooled draws available.
    pub fn pool_size(&self) -> usize {
        match &self.mode {
            Mode::Margins { pool_u, .. } => pool_u.len(),
            Mode::Generic { pool_u, .. } => pool_u.len(),
        }
    }

    /// `v(m(θ_base), m(θ_base + scale·u_i))` — the accuracy-estimator
    /// form (Corollary 1: `θ̂_N | θ_n`).
    pub fn diff_one_stage(&self, i: usize, scale: f64) -> f64 {
        match &self.mode {
            Mode::Margins { .. } => self.finish(self.kernel(i, scale, None, f64::INFINITY)),
            Mode::Generic { base, pool_u, .. } => {
                let u = &pool_u[i];
                let other: Vec<f64> = base.iter().zip(u).map(|(b, ui)| b + scale * ui).collect();
                self.spec.diff(base, &other, self.holdout)
            }
        }
    }

    /// `v(m(θ_n,i), m(θ_N,i))` with `θ_n,i = θ_base + scale1·u_i` and
    /// `θ_N,i = θ_n,i + scale2·w_i` — the sample-size-estimator form
    /// (two-stage sampling, paper §4.1).
    pub fn diff_two_stage(&self, i: usize, scale1: f64, scale2: f64) -> f64 {
        self.two_stage(i, scale1, scale2, f64::INFINITY)
    }

    /// The test `diff_two_stage(i, scale1, scale2) ≤ ε` for the `ε` of
    /// `bound`, deciding it from as few holdout rows as the kernel needs
    /// (same verdict as the full value).
    pub fn two_stage_within(&self, i: usize, scale1: f64, scale2: f64, bound: &DiffBound) -> bool {
        self.two_stage(i, scale1, scale2, bound.stop) <= bound.epsilon
    }

    /// The two-stage diff; a margin kernel may stop once its sum
    /// exceeds `stop`, returning a value past the bound it failed.
    fn two_stage(&self, i: usize, scale1: f64, scale2: f64, stop: f64) -> f64 {
        match &self.mode {
            Mode::Margins { .. } => self.finish(self.kernel(i, scale1, Some(scale2), stop)),
            Mode::Generic {
                base,
                pool_u,
                pool_w,
            } => {
                let u = &pool_u[i];
                let w = &pool_w[i];
                let theta_n: Vec<f64> = base.iter().zip(u).map(|(b, ui)| b + scale1 * ui).collect();
                let theta_big: Vec<f64> = theta_n
                    .iter()
                    .zip(w)
                    .map(|(t, wi)| t + scale2 * wi)
                    .collect();
                self.spec.diff(&theta_n, &theta_big, self.holdout)
            }
        }
    }

    /// The acceptance test `v ≤ epsilon` with the kernel's stop
    /// threshold: the largest kernel sum whose `v` still passes. The
    /// sum only grows along the holdout and `v` is monotone in it
    /// (`sum / h`, `√(sum / h)`, each correctly rounded), so once a
    /// partial sum exceeds the threshold the full `v` fails too.
    pub fn bound(&self, epsilon: f64) -> DiffBound {
        let passes = |sum: f64| self.finish(sum) <= epsilon;
        let stop = if !passes(0.0) {
            f64::NEG_INFINITY
        } else if passes(f64::INFINITY) {
            f64::INFINITY
        } else {
            // Nonnegative floats order like their bit patterns: bisect
            // for the last passing one.
            let (mut lo, mut hi) = (0u64, f64::INFINITY.to_bits());
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if passes(f64::from_bits(mid)) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            f64::from_bits(lo)
        };
        DiffBound { epsilon, stop }
    }

    /// One call of the spec's batched kernel on draw `i` (margin mode).
    fn kernel(&self, i: usize, scale_u: f64, scale_w: Option<f64>, stop: f64) -> f64 {
        let Mode::Margins {
            outputs,
            base,
            pool_u,
            pool_w,
            ..
        } = &self.mode
        else {
            unreachable!("kernel() on a generic engine");
        };
        self.spec.margin_diff_sum(
            DrawScores {
                base,
                u: &pool_u[i],
                scale_u,
                w: scale_w.map(|s| (pool_w[i].as_slice(), s)),
                outputs: *outputs,
            },
            stop,
        )
    }

    /// `v` from a kernel sum: the disagreement rate, or the RMS gap.
    fn finish(&self, sum: f64) -> f64 {
        let h = self.holdout.len();
        if h == 0 {
            return 0.0;
        }
        let rate = sum / h as f64;
        if matches!(self.mode, Mode::Margins { rms: true, .. }) {
            rate.sqrt()
        } else {
            rate
        }
    }
}

/// A per-draw acceptance test `v ≤ ε` prepared by [`DiffEngine::bound`].
#[derive(Debug, Clone, Copy)]
pub struct DiffBound {
    epsilon: f64,
    /// Kernel stop threshold: the largest sum whose `v` passes.
    stop: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::linreg::LinearRegressionSpec;
    use crate::models::logreg::LogisticRegressionSpec;
    use crate::models::ppca::PpcaSpec;
    use blinkml_data::generators::{low_rank_gaussian, synthetic_linear, synthetic_logistic};
    use blinkml_data::{DenseVec, MatrixView, TrainScratch};

    #[test]
    fn margin_path_matches_spec_diff_linear() {
        let (holdout, _) = synthetic_linear(300, 4, 0.1, 1);
        let spec = LinearRegressionSpec::new(1e-3);
        // d = 4 features + the trailing ln σ² parameter.
        let base = vec![0.5, -0.2, 0.3, 0.1, 0.0];
        let pool: Vec<Vec<f64>> = vec![
            vec![0.1, 0.0, -0.1, 0.2, 0.05],
            vec![-0.3, 0.2, 0.0, 0.05, -0.1],
        ];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        for (i, pool_i) in pool.iter().enumerate() {
            for scale in [0.0, 0.1, 1.0] {
                let fast = engine.diff_one_stage(i, scale);
                let other: Vec<f64> = base
                    .iter()
                    .zip(pool_i)
                    .map(|(b, u)| b + scale * u)
                    .collect();
                let slow = spec.diff(&base, &other, &holdout);
                assert!(
                    (fast - slow).abs() < 1e-12,
                    "one-stage i={i} scale={scale}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn margin_path_matches_spec_diff_two_stage_logistic() {
        let (holdout, _) = synthetic_logistic(400, 3, 2.0, 2);
        let spec = LogisticRegressionSpec::new(1e-3);
        let base = vec![0.8, -0.5, 0.2];
        let pool_u = vec![vec![0.2, 0.1, -0.3], vec![0.0, -0.2, 0.1]];
        let pool_w = vec![vec![-0.1, 0.3, 0.2], vec![0.15, 0.0, -0.25]];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool_u, &pool_w);
        for i in 0..2 {
            let (s1, s2) = (0.7, 0.3);
            let fast = engine.diff_two_stage(i, s1, s2);
            let theta_n: Vec<f64> = base
                .iter()
                .zip(&pool_u[i])
                .map(|(b, u)| b + s1 * u)
                .collect();
            let theta_big: Vec<f64> = theta_n
                .iter()
                .zip(&pool_w[i])
                .map(|(t, w)| t + s2 * w)
                .collect();
            let slow = spec.diff(&theta_n, &theta_big, &holdout);
            assert!((fast - slow).abs() < 1e-12, "i={i}: {fast} vs {slow}");
        }
    }

    #[test]
    fn generic_path_serves_ppca() {
        let holdout = low_rank_gaussian(50, 4, 2, 0.2, 3);
        let spec = PpcaSpec::new(2);
        let base: Vec<f64> = (0..9).map(|i| 0.3 + 0.1 * i as f64).collect();
        let pool = vec![vec![0.05; 9], vec![-0.02; 9]];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        let v = engine.diff_one_stage(0, 1.0);
        let other: Vec<f64> = base.iter().zip(&pool[0]).map(|(b, u)| b + u).collect();
        let expect = spec.diff(&base, &other, &holdout);
        assert!((v - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_scale_means_zero_difference() {
        let (holdout, _) = synthetic_logistic(200, 3, 2.0, 4);
        let spec = LogisticRegressionSpec::new(1e-3);
        let base = vec![0.4, 0.4, -0.2];
        let pool = vec![vec![1.0, 1.0, 1.0]];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        assert_eq!(engine.diff_one_stage(0, 0.0), 0.0);
        assert_eq!(engine.diff_two_stage(0, 0.5, 0.0), 0.0);
    }

    #[test]
    fn difference_grows_with_scale() {
        let (holdout, _) = synthetic_linear(300, 3, 0.1, 5);
        let spec = LinearRegressionSpec::new(0.0);
        let base = vec![1.0, 1.0, 1.0, 0.0];
        let pool = vec![vec![0.5, -0.5, 0.2, 0.1]];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        let v1 = engine.diff_one_stage(0, 0.1);
        let v2 = engine.diff_one_stage(0, 1.0);
        assert!(v2 > v1, "{v2} vs {v1}");
    }

    #[test]
    fn scorer_engines_match_standalone_engines_bitwise() {
        // One scorer serving two engines (the accuracy pool and the
        // sample-size pools) must produce exactly the diffs of two
        // independently built engines — the shared-base refactor cannot
        // move a bit.
        let (holdout, _) = synthetic_logistic(300, 4, 2.0, 9);
        let spec = LogisticRegressionSpec::new(1e-3);
        let base = vec![0.6, -0.3, 0.2, 0.1];
        let pool_a: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64 * 0.23).sin()).collect())
            .collect();
        let pool_b: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64 * 0.41).cos()).collect())
            .collect();
        let scorer = HoldoutScorer::new(&spec, &holdout, &base);
        let shared_one = scorer.engine(&pool_a, &[]);
        let shared_two = scorer.engine(&pool_a, &pool_b);
        let standalone_one = DiffEngine::new(&spec, &holdout, &base, &pool_a, &[]);
        let standalone_two = DiffEngine::new(&spec, &holdout, &base, &pool_a, &pool_b);
        for i in 0..3 {
            for scale in [0.0, 0.3, 1.0] {
                assert_eq!(
                    shared_one.diff_one_stage(i, scale),
                    standalone_one.diff_one_stage(i, scale),
                    "one-stage i={i} scale={scale}"
                );
                assert_eq!(
                    shared_two.diff_two_stage(i, scale, 0.5),
                    standalone_two.diff_two_stage(i, scale, 0.5),
                    "two-stage i={i} scale={scale}"
                );
            }
        }

        // Generic mode (PPCA): the scorer precomputes nothing but the
        // sharing must still be transparent.
        let g_holdout = low_rank_gaussian(40, 4, 2, 0.2, 5);
        let g_spec = PpcaSpec::new(2);
        let g_base: Vec<f64> = (0..9).map(|i| 0.2 + 0.1 * i as f64).collect();
        let g_pool = vec![vec![0.05; 9], vec![-0.02; 9]];
        let g_scorer = HoldoutScorer::new(&g_spec, &g_holdout, &g_base);
        assert!(g_scorer.outputs().is_none());
        let g_shared = g_scorer.engine(&g_pool, &g_pool);
        let g_standalone = DiffEngine::new(&g_spec, &g_holdout, &g_base, &g_pool, &g_pool);
        for i in 0..2 {
            assert_eq!(
                g_shared.diff_one_stage(i, 0.7),
                g_standalone.diff_one_stage(i, 0.7)
            );
        }
    }

    /// One stacked GEMM serving a grid of `(spec, θ₀)` pairs must yield
    /// scorers bit-identical to independently built ones — the sweep
    /// engine's shared-scorer construction cannot move a bit.
    #[test]
    fn new_many_matches_individual_scorers_bitwise() {
        let (holdout, _) = synthetic_logistic(350, 4, 2.0, 21);
        let specs: Vec<LogisticRegressionSpec> = [0.0, 1e-3, 0.5]
            .iter()
            .map(|&b| LogisticRegressionSpec::new(b))
            .collect();
        let thetas: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..4).map(|j| ((k * 4 + j) as f64 * 0.31).sin()).collect())
            .collect();
        let pool_u: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64 * 0.17).cos()).collect())
            .collect();
        let pool_w: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64 * 0.53).sin()).collect())
            .collect();
        let entries: Vec<(&LogisticRegressionSpec, &[f64])> = specs
            .iter()
            .zip(&thetas)
            .map(|(s, t)| (s, t.as_slice()))
            .collect();
        let many = HoldoutScorer::new_many(&holdout, &entries);
        assert_eq!(many.len(), 3);
        for ((scorer, spec), theta) in many.iter().zip(&specs).zip(&thetas) {
            let solo = HoldoutScorer::new(spec, &holdout, theta);
            let fast = scorer.engine(&pool_u, &pool_w);
            let slow = solo.engine(&pool_u, &pool_w);
            for i in 0..3 {
                for scale in [0.0, 0.4, 1.0] {
                    assert_eq!(
                        fast.diff_one_stage(i, scale).to_bits(),
                        slow.diff_one_stage(i, scale).to_bits()
                    );
                    assert_eq!(
                        fast.diff_two_stage(i, scale, 0.6).to_bits(),
                        slow.diff_two_stage(i, scale, 0.6).to_bits()
                    );
                }
            }
        }

        // Generic specs (no margin weights) fall back per pair.
        let g_holdout = low_rank_gaussian(40, 4, 2, 0.2, 7);
        let g_spec = PpcaSpec::new(2);
        let g_theta: Vec<f64> = (0..9).map(|i| 0.2 + 0.1 * i as f64).collect();
        let g_entries: Vec<(&PpcaSpec, &[f64])> = vec![(&g_spec, &g_theta), (&g_spec, &g_theta)];
        let g_many = HoldoutScorer::new_many(&g_holdout, &g_entries);
        assert_eq!(g_many.len(), 2);
        assert!(g_many[0].outputs().is_none());
    }

    /// A one-output margin spec whose `margin_weights` is `data_dim × 2`.
    /// The scorer must reject it before calling anything else.
    struct TwoColumnWeights;

    impl ModelClassSpec<DenseVec> for TwoColumnWeights {
        fn name(&self) -> &'static str {
            "two-column-weights"
        }
        fn param_dim(&self, data_dim: usize) -> usize {
            data_dim
        }
        fn regularization(&self) -> f64 {
            0.0
        }
        fn value_grad(
            &self,
            _: &[f64],
            _: &MatrixView,
            _: &mut TrainScratch,
            _: &mut [f64],
        ) -> f64 {
            unreachable!()
        }
        fn grads(&self, _: &[f64], _: &MatrixView) -> crate::grads::Grads {
            unreachable!()
        }
        fn predict(&self, _: &[f64], _: &DenseVec) -> f64 {
            unreachable!()
        }
        fn diff(&self, _: &[f64], _: &[f64], _: &Dataset<DenseVec>) -> f64 {
            unreachable!()
        }
        fn generalization_error(&self, _: &[f64], _: &Dataset<DenseVec>) -> f64 {
            unreachable!()
        }
        fn num_margin_outputs(&self, _: usize) -> Option<usize> {
            Some(1)
        }
        fn margin_weights(&self, _: &[f64], data_dim: usize) -> Option<Matrix> {
            Some(Matrix::zeros(data_dim, 2))
        }
    }

    #[test]
    #[should_panic(
        expected = "two-column-weights: margin_weights returned a 3×2 block, expected data_dim × outputs = 3×1"
    )]
    fn misshapen_margin_weights_are_rejected() {
        let (holdout, _) = synthetic_logistic(50, 3, 2.0, 8);
        HoldoutScorer::new(&TwoColumnWeights, &holdout, &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn pool_size_reports() {
        let (holdout, _) = synthetic_linear(10, 2, 0.1, 6);
        let spec = LinearRegressionSpec::new(0.0);
        let base = vec![0.0, 0.0, 0.0];
        let pool = vec![vec![1.0, 0.0, 0.0]; 7];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &[]);
        assert_eq!(engine.pool_size(), 7);
    }

    /// A two-feature holdout `x_j = (1, q_j)`: with `θ_base = (1, 0)`
    /// and a pool draw `(0, 1)` the base scores are exactly 1 and the
    /// draw's scores exactly `q_j`.
    fn probe_holdout(q: &[f64]) -> Dataset<blinkml_data::DenseVec> {
        let rows = q
            .iter()
            .map(|&q| blinkml_data::Example {
                x: blinkml_data::DenseVec::new(vec![1.0, q]),
                y: 0.0,
            })
            .collect();
        Dataset::new("probe", 2, rows)
    }

    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    /// `c/h == ε` exactly (h = 2000, ε = 0.02, c = 40) passes and
    /// c = 41 fails, with and without the early exit.
    #[test]
    fn count_exactly_on_the_boundary_keeps_its_verdict() {
        let spec = LogisticRegressionSpec::new(0.0);
        let base = [1.0, 0.0];
        let pool = vec![vec![0.0, 1.0]];
        for (c, pass) in [(40, true), (41, false), (39, true)] {
            let q: Vec<f64> = (0..2000).map(|j| if j < c { -2.0 } else { 0.0 }).collect();
            let holdout = probe_holdout(&q);
            let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
            let full = engine.diff_two_stage(0, 0.0, 1.0);
            assert_eq!(full, c as f64 / 2000.0);
            assert_eq!(full <= 0.02, pass, "c = {c}");
            assert_eq!(
                engine.two_stage_within(0, 0.0, 1.0, &engine.bound(0.02)),
                pass,
                "c = {c}"
            );
            assert_eq!(engine.bound(0.02).stop, 40.0);
        }
    }

    /// The RMS form at its own boundary: ε equal to the full value
    /// passes, one ulp below fails, also when the early exit stops in
    /// the first block.
    #[test]
    fn sum_of_squares_on_the_boundary_keeps_its_verdict() {
        let spec = LinearRegressionSpec::new(0.0);
        let base = [1.0, 0.0, 0.0];
        let pool = vec![vec![0.0, 1.0, 0.0]];
        // Large gaps first, so a tight ε stops in the first block.
        let q: Vec<f64> = (0..2000)
            .map(|j| if j < 10 { 3.0 } else { 0.01 * (j % 7) as f64 })
            .collect();
        let holdout = probe_holdout(&q);
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        let full = engine.diff_two_stage(0, 0.0, 1.0);
        for (epsilon, pass) in [(full, true), (next_down(full), false), (0.05, false)] {
            let bound = engine.bound(epsilon);
            assert_eq!(
                engine.two_stage_within(0, 0.0, 1.0, &bound),
                pass,
                "ε = {epsilon} vs {full}"
            );
            let sum = engine.kernel(0, 0.0, Some(1.0), bound.stop);
            if pass {
                assert_eq!(engine.finish(sum).to_bits(), full.to_bits());
            } else {
                assert!(sum > bound.stop);
            }
        }
        // ε = 0.05 is settled by the first block's ten gaps of 3.
        let stopped = engine.kernel(0, 0.0, Some(1.0), engine.bound(0.05).stop);
        assert_eq!(stopped, engine.kernel(0, 0.0, Some(1.0), 0.0));
        assert!(stopped < engine.kernel(0, 0.0, Some(1.0), f64::INFINITY));
    }

    /// The kernel of `spec` returns the default per-row loop's sum (the
    /// loop `NoBatch` keeps) for one- and two-stage draws at several
    /// scales.
    fn assert_kernel_matches_loop<S>(spec: S, base: &[f64], u: &[f64], outputs: usize)
    where
        S: ModelClassSpec<blinkml_data::DenseVec> + Clone,
    {
        use crate::testing::NoBatch;
        type M = blinkml_data::DenseVec;
        let oracle = NoBatch(spec.clone());
        for w in [None, Some((u, 0.5)), Some((u, 1.0))] {
            for scale in [0.0, 1.0, -1.0] {
                let scores = DrawScores {
                    base,
                    u,
                    scale_u: scale,
                    w,
                    outputs,
                };
                let fast = ModelClassSpec::<M>::margin_diff_sum(&spec, scores, f64::INFINITY);
                let slow = ModelClassSpec::<M>::margin_diff_sum(&oracle, scores, f64::INFINITY);
                assert_eq!(fast.to_bits(), slow.to_bits(), "scale {scale}, w {w:?}");
            }
        }
    }

    /// `+0.0` and `−0.0` margins predict the same class (`m > 0` is
    /// false for both).
    #[test]
    fn signed_zero_margins_agree_with_the_per_row_loop() {
        let base = [0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300];
        let u = [-0.0, 0.0, 0.0, -0.0, -1e-300, 1e-300];
        assert_kernel_matches_loop(LogisticRegressionSpec::new(0.0), &base, &u, 1);
    }

    /// Max-entropy ties resolve to the lowest class index.
    #[test]
    fn maxent_ties_agree_with_the_per_row_loop() {
        // Row 0 ties all three classes, row 1 ties classes 1 and 2; the
        // perturbation ties row 2 at classes 0 and 2 and breaks row 0.
        let base = [1.0, 1.0, 1.0, 0.0, 2.0, 2.0, 3.0, -1.0, 2.0];
        let u = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0];
        let spec = crate::models::maxent::MaxEntSpec::new(1e-3, 3);
        assert_kernel_matches_loop(spec, &base, &u, 3);
    }
}

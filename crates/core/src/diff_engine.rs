//! Fast evaluation of prediction differences across many parameter draws.
//!
//! Both estimators evaluate `v(m(θ_a), m(θ_b))` for `k` parameter draws
//! at every probe. For margin-based models (all GLMs and max-entropy)
//! the holdout scores are **affine** in `θ` (`b(θ) + xᵀW(θ)`, with the
//! offset `b` an intercept or zero), so the engine precomputes the score
//! matrices of the base parameter and of each pooled draw once; a probe
//! at any sample size then costs `O(holdout · outputs)` scalar work
//! instead of `O(holdout · D)` dot products. This is the practical
//! companion of the paper's sampling-by-scaling optimization (§4.3): the
//! same unscaled pool serves every `n`.
//!
//! Construction itself is batched: every margin spec exposes its
//! `(data_dim + 1) × outputs` block [`ModelClassSpec::margin_weights`]
//! (the weights over one offset row), and the score matrices are built
//! with fused GEMMs — the holdout design matrix times stacked weight
//! blocks — streamed in parallel chunks of holdout rows. The blocks are
//! stacked in panels of whole blocks under a fixed byte budget (512 KB),
//! so the table every holdout row walks stays in L2; a table within the
//! budget (every dense workload's) is one panel. Each chunk walks its
//! rows in L1-sized sub-blocks: it seeds every sub-block row with the
//! stacked offset row, then adds the weight rows through the
//! register-tiled, runtime-dispatched AVX kernels in
//! `blinkml_linalg::simd`, which add every score's terms in the order of
//! the per-row axpy loop, so the scores carry the same bits on every
//! host. A zero offset is `+0.0`, so specs without an intercept score
//! exactly the sum of their terms. Each sub-block's scores go straight
//! into the score matrices, which lie back to back in one output-major
//! buffer (each output of each parameter one contiguous column; see
//! [`DrawScores`]), the panels concatenated in parameter order. Every
//! block must have `data_dim + 1` rows; the scorer panics on any other
//! height. Models without margins (PPCA) fall back to materializing
//! parameter vectors and calling the spec's own `diff`.
//!
//! Evaluation is batched per draw: the engine hands each draw's score
//! slices to the spec's kernel, [`ModelClassSpec::margin_diff_sum`],
//! once, and [`DiffEngine::two_stage_within`] lets that kernel stop as
//! soon as the draw's `v ≤ ε` verdict is settled. Max-entropy's kernel
//! compares the argmaxes of 8 rows at a time over the class columns
//! (`blinkml_linalg::simd::argmax_mismatches`).
//!
//! The **base** score matrix (of `θ_base`) depends on neither the draw
//! pools nor the contract. A [`HoldoutScorer`] keeps `θ_base`'s margin
//! block, and its first engine appends that block to the stacked pool
//! table, so one GEMM yields the pool's scores and the base's together;
//! the scorer keeps the base and shares it (reference-counted) with
//! every later engine, so the accuracy estimator's engine and the
//! sample-size search's engine score `θ_base` once between them and
//! never in a pass of its own.

use crate::mcs::{DrawScores, ModelClassSpec};
use crate::stats::ModelStatistics;
use blinkml_data::parallel::par_ranges;
use blinkml_data::{Dataset, FeatureVec};
use blinkml_linalg::Matrix;
use blinkml_prob::{rng_from_seed, MvnSampler};
use std::sync::{Arc, OnceLock};

/// Precomputed state for repeated difference evaluations over pooled
/// parameter draws.
pub struct DiffEngine<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> {
    spec: &'a S,
    holdout: &'a Dataset<F>,
    mode: Mode<'a>,
}

enum Mode<'a> {
    /// Margin fast path: flattened `holdout_len × outputs` score
    /// matrices, output-major. The base scores are shared with (and by) the
    /// [`HoldoutScorer`] that built them; `pool` holds the scores of
    /// the `draws` draws of `pool_u`, then those of `pool_w`, one
    /// matrix after another (the layout [`batched_scores`] returns).
    Margins {
        outputs: usize,
        rms: bool,
        base: Arc<Vec<f64>>,
        pool: Vec<f64>,
        draws: usize,
    },
    /// Generic fallback over raw parameter vectors.
    Generic {
        base: &'a [f64],
        pool_u: Vec<Vec<f64>>,
        pool_w: Vec<Vec<f64>>,
    },
}

/// The base parameter's margin block and its holdout scores, which the
/// scorer's first engine computes in its pool GEMM and every later
/// engine shares.
struct BaseBlock {
    weights: Matrix,
    rms: bool,
    scores: OnceLock<Arc<Vec<f64>>>,
}

/// Per-run holdout scoring state: spec + holdout + base parameters, with
/// the base score matrix built **once**. Both estimators derive their
/// [`DiffEngine`]s from one scorer ([`HoldoutScorer::engine`]), so the
/// ε₀ estimate and the sample-size search share the θ₀ scores instead
/// of each rebuilding them.
pub struct HoldoutScorer<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> {
    spec: &'a S,
    holdout: &'a Dataset<F>,
    theta_base: &'a [f64],
    base: Option<BaseBlock>,
}

impl<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> HoldoutScorer<'a, F, S> {
    /// Take `theta_base`'s margin block (nothing for generic specs); its
    /// scores are computed by the first [`HoldoutScorer::engine`].
    pub fn new(spec: &'a S, holdout: &'a Dataset<F>, theta_base: &'a [f64]) -> Self {
        let base =
            checked_margin_weights(spec, theta_base, holdout.dim()).map(|weights| BaseBlock {
                weights,
                rms: spec.diff_is_rms(),
                scores: OnceLock::new(),
            });
        HoldoutScorer {
            spec,
            holdout,
            theta_base,
            base,
        }
    }

    /// Number of score outputs (None for generic specs).
    pub fn outputs(&self) -> Option<usize> {
        self.base.as_ref().map(|b| b.weights.cols())
    }

    /// Derive an engine for the given perturbation pools. The first
    /// engine appends the base's margin block to the stacked pool blocks,
    /// so one scoring pass ([`panel_scores`]: [`batched_scores`] over
    /// L2-sized panels of whole blocks) scores the pools and the base; it
    /// splits the base's matrix off the end of the result and the scorer
    /// keeps it for every later engine. `batched_scores` computes each
    /// column independently of the blocks beside it, so every score
    /// carries the bits of a GEMM of its block alone, whatever the
    /// panels, and engines built here are bit-identical to standalone
    /// engines. The engine keeps no
    /// borrow of the pools: margin engines keep their scores, generic
    /// engines a copy of the pools.
    ///
    /// # Panics
    /// Panics if the spec's margin block of a pool vector is missing or
    /// of another shape than the base's.
    pub fn engine(&self, pool_u: &[Vec<f64>], pool_w: &[Vec<f64>]) -> DiffEngine<'a, F, S> {
        let mode = match &self.base {
            Some(b) => {
                let dim = self.holdout.dim();
                let outputs = b.weights.cols();
                let mut blocks: Vec<Matrix> = pool_u
                    .iter()
                    .chain(pool_w)
                    .map(|t| {
                        let wb = checked_margin_weights(self.spec, t, dim)
                            .expect("margin_weights must be Some for every parameter vector");
                        assert_eq!(wb.cols(), outputs, "margin block width changed with θ");
                        wb
                    })
                    .collect();
                let cached = b.scores.get().cloned();
                if cached.is_none() {
                    blocks.push(b.weights.clone());
                }
                let mut pool = panel_scores(self.holdout, &blocks, outputs);
                let base = cached.unwrap_or_else(|| {
                    let scores = pool.split_off(pool.len() - self.holdout.len() * outputs);
                    Arc::clone(b.scores.get_or_init(|| Arc::new(scores)))
                });
                Mode::Margins {
                    outputs,
                    rms: b.rms,
                    base,
                    pool,
                    draws: pool_u.len(),
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

/// `spec.margin_weights(theta, dim)`, checked to be the
/// `(dim + 1) × outputs` block [`batched_scores`] assumes: the SIMD
/// scoring kernel's unchecked loads rely on the table's height.
fn checked_margin_weights<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    spec: &S,
    theta: &[f64],
    dim: usize,
) -> Option<Matrix> {
    let wb = spec.margin_weights(theta, dim)?;
    assert!(
        wb.rows() == dim + 1,
        "{}: margin_weights returned a {}×{} block, expected data_dim + 1 = {} rows",
        spec.name(),
        wb.rows(),
        wb.cols(),
        dim + 1
    );
    Some(wb)
}

/// Byte budget of one scoring sub-block: the `rows × cols` scores the
/// kernel writes stay in L1 until they are copied into the parameter
/// columns.
const SUB_BLOCK_BYTES: usize = 16 * 1024;

/// Rows per scoring sub-block for a `cols`-wide table: whole 4-row tiles
/// of the dense kernel within [`SUB_BLOCK_BYTES`], at least one tile.
/// The size moves no bit: every score is computed on its own.
fn sub_block_rows(cols: usize) -> usize {
    (SUB_BLOCK_BYTES / (cols.max(1) * std::mem::size_of::<f64>()) / 4 * 4).max(4)
}

/// One fused GEMM over the holdout set: compute `S = 1·bᵀ + X · W_all`
/// (`X` the `h × d` holdout design matrix, `W_all` the first `d` rows and
/// `b` the last row of the `(d + 1) × (P·outputs)` table of `P`
/// horizontally stacked margin blocks) in parallel chunks of holdout
/// rows, and return the `P` flattened `h × outputs` score matrices back
/// to back in one output-major buffer: parameter `p`'s score of row `j`,
/// output `c`, sits at `(p·outputs + c)·h + j`. Each table column's
/// scores are one contiguous run, so one output (every GLM) is one run
/// per parameter, and a multi-output verdict kernel reads each class as
/// a column.
///
/// The design matrix is never materialized. Each chunk walks its rows in
/// L1-sized sub-blocks ([`sub_block_rows`]): every row of one reused
/// buffer is seeded with the offset row `b` ([`seed_rows`]), one
/// [`FeatureVec::add_rows_times_table`] call per sub-block adds the
/// weight rows (dense rows run the 4-row register tiles of
/// `blinkml_linalg::simd::rows_times_table`, 16 columns wide under
/// AVX-512 and 8 under AVX, sparse rows run `sparse_row_times_table`
/// one at a time), then each column of the sub-block is copied into its
/// run of the chunk's block. Every score is its offset plus its row's
/// nonzero terms in ascending feature order, whatever the tiling or the
/// AVX dispatch; a `+0.0` offset leaves the sum of the terms as it is.
/// Chunk boundaries are fixed (see `blinkml_data::parallel`) and each
/// output row is written by exactly one chunk, so results are
/// bit-identical for any thread count and any host. With one chunk
/// (`h ≤ CHUNK_SIZE`) its block is the result; otherwise the blocks are
/// joined one contiguous run per (chunk, column).
///
/// # Panics
/// Panics unless the table has `holdout.dim() + 1` rows and a whole
/// number of `outputs`-wide blocks.
fn batched_scores<F: FeatureVec>(holdout: &Dataset<F>, table: &Matrix, outputs: usize) -> Vec<f64> {
    let dim = holdout.dim();
    assert!(
        table.rows() == dim + 1,
        "batched_scores: margin table has {} rows, expected holdout dimension + 1 = {}",
        table.rows(),
        dim + 1
    );
    let cols = table.cols();
    assert!(
        cols.is_multiple_of(outputs),
        "batched_scores: {cols} margin columns are not whole blocks of {outputs} outputs"
    );
    let h = holdout.len();
    let (weights, offset) = table.as_slice().split_at(dim * cols);
    let sub_rows = sub_block_rows(cols);
    let mut blocks: Vec<Vec<f64>> = par_ranges(h, |range| {
        let run = range.len();
        let rows: Vec<&F> = range.map(|j| &holdout.get(j).x).collect();
        let mut block = vec![0.0; cols * run];
        let mut sub = vec![0.0; sub_rows.min(rows.len()) * cols];
        for (b, sub_block) in rows.chunks(sub_rows).enumerate() {
            let sub = &mut sub[..sub_block.len() * cols];
            seed_rows(sub, offset);
            F::add_rows_times_table(sub_block, weights, cols, sub);
            let first = b * sub_rows;
            for (c, column) in block.chunks_exact_mut(run).enumerate() {
                let dst = &mut column[first..first + sub_block.len()];
                for (d, row) in dst.iter_mut().zip(sub.chunks_exact(cols)) {
                    *d = row[c];
                }
            }
        }
        block
    });
    if blocks.len() == 1 {
        return blocks.pop().expect("one chunk");
    }
    let mut scores = Vec::with_capacity(cols * h);
    for c in 0..cols {
        for block in &blocks {
            let run = block.len() / cols;
            scores.extend_from_slice(&block[c * run..(c + 1) * run]);
        }
    }
    scores
}

/// Byte budget of one scoring panel: [`panel_scores`] stacks at most
/// this much of the margin table per [`batched_scores`] pass, so the
/// table every holdout row walks stays in L2. It moves no bit: every
/// score is computed on its own.
const PANEL_BYTES: usize = 512 * 1024;

/// [`batched_scores`] of the horizontally stacked `blocks`, in panels
/// of whole blocks under [`PANEL_BYTES`] (at least one block each),
/// concatenated in block order: the output-major layout of one unsplit
/// GEMM, bit for bit. A table within the budget is one panel and its
/// scores are returned as they come.
fn panel_scores<F: FeatureVec>(
    holdout: &Dataset<F>,
    blocks: &[Matrix],
    outputs: usize,
) -> Vec<f64> {
    let block_bytes = (holdout.dim() + 1) * outputs * std::mem::size_of::<f64>();
    let per_panel = (PANEL_BYTES / block_bytes).max(1);
    let mut panels = blocks
        .chunks(per_panel)
        .map(|panel| batched_scores(holdout, &Matrix::hstack(panel), outputs));
    let Some(mut scores) = panels.next() else {
        return Vec::new();
    };
    scores.reserve(blocks.len() * outputs * holdout.len() - scores.len());
    for panel in panels {
        scores.extend_from_slice(&panel);
    }
    scores
}

/// Fill the row-major `buf` with copies of `row`, doubling the seeded
/// prefix with each copy: a few bulk copies inside `buf`, which stays in
/// L1. One copy per row, or a second pre-seeded buffer that crowds the
/// weight table out of L1, made a 64-draw pool's scoring about 5% slower
/// than zero-filling (2,000 rows, d = 20, one x86-64 core with AVX2).
fn seed_rows(buf: &mut [f64], row: &[f64]) {
    buf[..row.len()].copy_from_slice(row);
    let mut filled = row.len();
    while filled < buf.len() {
        let n = filled.min(buf.len() - filled);
        buf.copy_within(..n, filled);
        filled += n;
    }
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
            Mode::Margins { draws, .. } => *draws,
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
            pool,
            draws,
            ..
        } = &self.mode
        else {
            unreachable!("kernel() on a generic engine");
        };
        assert!(i < *draws, "draw {i} of a pool of {draws}");
        let stride = base.len();
        let scores = |j: usize| &pool[j * stride..(j + 1) * stride];
        self.spec.margin_diff_sum(
            DrawScores {
                base,
                u: scores(i),
                scale_u,
                w: scale_w.map(|s| (scores(draws + i), s)),
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

    /// Deterministic pool of `count` parameter vectors of length `dim`.
    fn wave_pool(count: usize, dim: usize, freq: f64) -> Vec<Vec<f64>> {
        (0..count)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) as f64 * freq).sin())
                    .collect()
            })
            .collect()
    }

    /// One scorer serving an accuracy engine (`pool_a` only) and a
    /// sample-size engine (`pool_a`, `pool_b`) gives exactly the diffs
    /// of two independently built engines.
    fn assert_scorer_engines_match<F, S>(spec: &S, holdout: &Dataset<F>, base: &[f64])
    where
        F: FeatureVec,
        S: ModelClassSpec<F>,
    {
        let dim = base.len();
        let pool_a = wave_pool(3, dim, 0.23);
        let pool_b = wave_pool(3, dim, 0.41);
        let scorer = HoldoutScorer::new(spec, holdout, base);
        let shared_one = scorer.engine(&pool_a, &[]);
        let shared_two = scorer.engine(&pool_a, &pool_b);
        let standalone_one = DiffEngine::new(spec, holdout, base, &pool_a, &[]);
        let standalone_two = DiffEngine::new(spec, holdout, base, &pool_a, &pool_b);
        for i in 0..3 {
            for scale in [0.0, 0.3, 1.0] {
                assert_eq!(
                    shared_one.diff_one_stage(i, scale).to_bits(),
                    standalone_one.diff_one_stage(i, scale).to_bits(),
                    "{}: one-stage i={i} scale={scale}",
                    spec.name()
                );
                assert_eq!(
                    shared_two.diff_two_stage(i, scale, 0.5).to_bits(),
                    standalone_two.diff_two_stage(i, scale, 0.5).to_bits(),
                    "{}: two-stage i={i} scale={scale}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn scorer_engines_match_standalone_engines_bitwise() {
        // The shared-base refactor cannot move a bit: one chunk, several
        // chunks at budgets {1, 4}, and sparse multi-output scores.
        use blinkml_data::parallel::{set_max_threads, CHUNK_SIZE};
        let _budget = blinkml_linalg::testing::budget_lock();
        let (holdout, _) = synthetic_logistic(300, 4, 2.0, 9);
        let spec = LogisticRegressionSpec::new(1e-3);
        assert_scorer_engines_match(&spec, &holdout, &[0.6, -0.3, 0.2, 0.1]);

        let (tall, _) = synthetic_logistic(CHUNK_SIZE + 37, 12, 2.0, 10);
        let maxent = crate::models::maxent::MaxEntSpec::new(1e-3, 5);
        let sparse = blinkml_data::generators::yelp_like(CHUNK_SIZE + 300, 60, 11);
        let maxent_dim = ModelClassSpec::<blinkml_data::SparseVec>::param_dim(&maxent, 60);
        for budget in [1, 4] {
            set_max_threads(Some(budget));
            assert_scorer_engines_match(&spec, &tall, &wave_pool(1, 12, 0.37)[0]);
            assert_scorer_engines_match(&maxent, &sparse, &wave_pool(1, maxent_dim, 0.19)[0]);
        }
        set_max_threads(None);

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
                g_shared.diff_one_stage(i, 0.7).to_bits(),
                g_standalone.diff_one_stage(i, 0.7).to_bits()
            );
        }
    }

    /// The base scores a margin engine serves and its pool scores.
    fn margin_scores<'e, F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        engine: &'e DiffEngine<'_, F, S>,
    ) -> (&'e Arc<Vec<f64>>, &'e [f64]) {
        match &engine.mode {
            Mode::Margins { base, pool, .. } => (base, pool),
            Mode::Generic { .. } => panic!("margin spec built a generic engine"),
        }
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|v| v.to_bits()).collect()
    }

    /// For each first engine — `draws` draws in `pool_u` only, in both
    /// pools, no draws — the base it serves is bitwise `batched_scores` of
    /// θ₀'s block alone, its pool scores are bitwise one unsplit
    /// `batched_scores` GEMM of the pool blocks, and a second engine
    /// reuses that base and scores its pools as one unsplit GEMM too.
    fn assert_stacked_base_is_solo_gemm<F, S>(
        spec: &S,
        holdout: &Dataset<F>,
        theta: &[f64],
        draws: usize,
    ) where
        F: FeatureVec,
        S: ModelClassSpec<F>,
    {
        let dim = theta.len();
        let data_dim = holdout.dim();
        let base_block = checked_margin_weights(spec, theta, data_dim).expect("margin spec");
        let outputs = base_block.cols();
        let want_base = bits(&batched_scores(holdout, &base_block, outputs));
        let solo_pool = |u: &[Vec<f64>], w: &[Vec<f64>]| -> Vec<u64> {
            let blocks: Vec<Matrix> = u
                .iter()
                .chain(w)
                .map(|t| checked_margin_weights(spec, t, data_dim).expect("margin spec"))
                .collect();
            if blocks.is_empty() {
                return Vec::new();
            }
            bits(&batched_scores(holdout, &Matrix::hstack(&blocks), outputs))
        };
        let pool_u = wave_pool(draws, dim, 0.17);
        let pool_w = wave_pool(draws, dim, 0.53);
        for (u, w) in [(draws, 0), (draws, draws), (0, 0)] {
            let (u, w) = (&pool_u[..u], &pool_w[..w]);
            let tag = format!(
                "{}: h = {}, first engine {}+{} draws",
                spec.name(),
                holdout.len(),
                u.len(),
                w.len()
            );
            let scorer = HoldoutScorer::new(spec, holdout, theta);
            let first = scorer.engine(u, w);
            let (base, pool) = margin_scores(&first);
            assert_eq!(bits(base), want_base, "{tag}: base");
            assert_eq!(bits(pool), solo_pool(u, w), "{tag}: pool");
            let second = scorer.engine(&pool_u, &pool_w);
            let (reused, pool) = margin_scores(&second);
            assert!(
                Arc::ptr_eq(base, reused),
                "{tag}: second engine rescored the base"
            );
            assert_eq!(
                bits(pool),
                solo_pool(&pool_u, &pool_w),
                "{tag}: second pool"
            );
        }
    }

    /// The base rides in the first engine's GEMM and lands bit-equal to
    /// a GEMM of its block alone: one chunk and several at budgets
    /// {1, 4}, logistic with and without an intercept, Poisson with an
    /// intercept (dense and sparse), and sparse max-entropy.
    #[test]
    fn stacked_base_matches_solo_base_gemm_bitwise() {
        use crate::models::maxent::MaxEntSpec;
        use crate::models::poisson::PoissonRegressionSpec;
        use blinkml_data::parallel::{set_max_threads, CHUNK_SIZE};
        let _budget = blinkml_linalg::testing::budget_lock();
        let logistic = LogisticRegressionSpec::new(1e-3);
        let logistic_b = LogisticRegressionSpec::with_intercept(1e-3);
        let poisson_b = PoissonRegressionSpec::with_intercept(1e-3);
        let maxent = MaxEntSpec::new(1e-3, 5);
        let theta = |dim: usize| wave_pool(1, dim, 0.31).remove(0);
        let (holdout, _) = synthetic_logistic(350, 4, 2.0, 21);
        assert_stacked_base_is_solo_gemm(&logistic, &holdout, &theta(4), 3);
        assert_stacked_base_is_solo_gemm(&logistic_b, &holdout, &theta(5), 3);
        assert_stacked_base_is_solo_gemm(&poisson_b, &holdout, &theta(5), 3);

        let (tall, _) = synthetic_logistic(CHUNK_SIZE + 37, 12, 2.0, 22);
        let sparse = blinkml_data::generators::yelp_like(CHUNK_SIZE + 300, 60, 23);
        let maxent_dim = ModelClassSpec::<blinkml_data::SparseVec>::param_dim(&maxent, 60);
        for budget in [1, 4] {
            set_max_threads(Some(budget));
            assert_stacked_base_is_solo_gemm(&logistic, &tall, &theta(12), 3);
            assert_stacked_base_is_solo_gemm(&logistic_b, &tall, &theta(13), 3);
            assert_stacked_base_is_solo_gemm(&poisson_b, &sparse, &theta(61), 3);
            assert_stacked_base_is_solo_gemm(&maxent, &sparse, &theta(maxent_dim), 3);
        }
        set_max_threads(None);
    }

    /// A max-entropy table past the panel budget (K = 5, D = 1,000: 40 KB
    /// per block, 13 blocks per panel) scores in several panels, and its
    /// engines' scores and base are bitwise one unsplit GEMM: 13 draws
    /// (the base alone in the second panel), 16 draws in both pools (33
    /// blocks, three panels), a first and a second engine, `h >
    /// CHUNK_SIZE`, thread budgets {1, 4}.
    #[test]
    fn scoring_panels_match_one_unsplit_gemm_bitwise() {
        use crate::models::maxent::MaxEntSpec;
        use blinkml_data::parallel::{set_max_threads, CHUNK_SIZE};
        let _budget = blinkml_linalg::testing::budget_lock();
        let maxent = MaxEntSpec::new(1e-3, 5);
        let sparse = blinkml_data::generators::yelp_like(CHUNK_SIZE + 300, 1_000, 24);
        let dim = ModelClassSpec::<blinkml_data::SparseVec>::param_dim(&maxent, 1_000);
        let block_bytes = 1_001 * 5 * std::mem::size_of::<f64>();
        assert_eq!(PANEL_BYTES / block_bytes, 13, "panel size moved");
        let theta = wave_pool(1, dim, 0.29).remove(0);
        for budget in [1, 4] {
            set_max_threads(Some(budget));
            for draws in [13, 16] {
                assert_stacked_base_is_solo_gemm(&maxent, &sparse, &theta, draws);
            }
        }
        set_max_threads(None);
    }

    /// The layout `batched_scores` had before it wrote parameter-major
    /// blocks: each chunk scores its rows into one interleaved block
    /// (every row seeded with the offset row) and splits it into
    /// per-parameter segments, which are then joined in chunk order.
    fn batched_scores_oracle<F: FeatureVec>(
        holdout: &Dataset<F>,
        table: &Matrix,
        outputs: usize,
    ) -> Vec<Vec<f64>> {
        let h = holdout.len();
        let cols = table.cols();
        let num_params = cols / outputs;
        let (weights, offset) = table.as_slice().split_at(holdout.dim() * cols);
        let chunked: Vec<Vec<Vec<f64>>> = par_ranges(h, |range| {
            let len = range.len();
            let mut block = offset.repeat(len);
            let rows: Vec<&F> = range.map(|j| &holdout.get(j).x).collect();
            F::add_rows_times_table(&rows, weights, cols, &mut block);
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

    /// A deterministic feature value, with exact `0.0` and `-0.0` among
    /// ordinary ones.
    fn feature(j: usize, i: usize) -> f64 {
        match (j * 7 + i * 3) % 11 {
            0 => 0.0,
            1 => -0.0,
            k => ((j * 31 + i) as f64 * 0.113).sin() * k as f64,
        }
    }

    fn dense_rows(h: usize, d: usize) -> Dataset<DenseVec> {
        let rows = (0..h)
            .map(|j| blinkml_data::Example {
                x: DenseVec::new((0..d).map(|i| feature(j, i)).collect()),
                y: 0.0,
            })
            .collect();
        Dataset::new("dense-layout", d, rows)
    }

    /// Sparse rows storing about a third of the features, stored `0.0`
    /// and `-0.0` included; every fifth row stores nothing.
    fn sparse_rows(h: usize, d: usize) -> Dataset<blinkml_data::SparseVec> {
        let rows = (0..h)
            .map(|j| {
                let (indices, values): (Vec<u32>, Vec<f64>) = (0..d)
                    .filter(|i| j % 5 != 4 && (i + j) % 3 == 0)
                    .map(|i| (i as u32, feature(j, i)))
                    .unzip();
                blinkml_data::Example {
                    x: blinkml_data::SparseVec::new(d, indices, values),
                    y: 0.0,
                }
            })
            .collect();
        Dataset::new("sparse-layout", d, rows)
    }

    /// `batched_scores` returns the oracle's per-parameter matrices, bit
    /// for bit, back to back, each output-major.
    fn assert_layout_matches_oracle<F: FeatureVec>(
        holdout: &Dataset<F>,
        params: usize,
        outputs: usize,
    ) {
        let d = holdout.dim();
        let cols = params * outputs;
        let w_all = Matrix::from_fn(d + 1, cols, |i, c| match (i + 2 * c) % 9 {
            0 => 0.0,
            1 => -0.0,
            k => ((i * cols + c) as f64 * 0.37).cos() * k as f64,
        });
        let got = batched_scores(holdout, &w_all, outputs);
        let want = batched_scores_oracle(holdout, &w_all, outputs);
        let h = holdout.len();
        assert_eq!(got.len(), params * h * outputs);
        for (p, want) in want.iter().enumerate() {
            // Output-major: output `c` of row `j` at `(p·outputs + c)·h + j`.
            let got = (0..h * outputs).map(|e| got[(p * outputs + e % outputs) * h + e / outputs]);
            assert!(
                got.zip(want).all(|(a, b)| a.to_bits() == b.to_bits()),
                "h = {}, d = {d}, params = {params}, outputs = {outputs}: parameter {p}",
                holdout.len()
            );
        }
    }

    /// The output-major layout against the interleaved oracle: row
    /// counts around the 4-row tile, the sub-block and one and two chunk
    /// boundaries; 1–7 and 64 parameters of 1 and 5 outputs; dense rows
    /// at d ∈ {3, 8, 37, 100} and sparse rows; thread budgets {1, 4}.
    #[test]
    fn parameter_major_scores_match_the_interleaved_oracle_bitwise() {
        use blinkml_data::parallel::{set_max_threads, CHUNK_SIZE};
        let _budget = blinkml_linalg::testing::budget_lock();
        let heights = |cols: usize| {
            let sub = sub_block_rows(cols);
            [0, 1, 3, 4, 5, sub - 1, sub, sub + 1]
        };
        let tall: Vec<_> = [CHUNK_SIZE + 37, 2 * CHUNK_SIZE + 300]
            .into_iter()
            .map(|h| (dense_rows(h, 3), sparse_rows(h, 16)))
            .collect();
        let tall_wide: Vec<_> = [8, 37, 100]
            .into_iter()
            .map(|d| dense_rows(CHUNK_SIZE + 37, d))
            .collect();
        let grid = || {
            [1, 5].into_iter().flat_map(|outputs| {
                [1, 2, 3, 4, 5, 6, 7, 64]
                    .into_iter()
                    .map(move |params| (params, outputs))
            })
        };
        // One chunk runs on the calling thread at any budget.
        for (params, outputs) in grid() {
            for h in heights(params * outputs) {
                for d in [3, 8, 37, 100] {
                    assert_layout_matches_oracle(&dense_rows(h, d), params, outputs);
                }
                assert_layout_matches_oracle(&sparse_rows(h, 37), params, outputs);
            }
        }
        for budget in [1, 4] {
            set_max_threads(Some(budget));
            // 64 parameters of 5 outputs is the costliest shape in a
            // debug build; the single-chunk loop above covers it.
            for (params, outputs) in grid().filter(|&shape| shape != (64, 5)) {
                for (dense, sparse) in &tall {
                    assert_layout_matches_oracle(dense, params, outputs);
                    assert_layout_matches_oracle(sparse, params, outputs);
                }
            }
            for dense in &tall_wide {
                for outputs in [1, 5] {
                    assert_layout_matches_oracle(dense, 3, outputs);
                }
            }
        }
        set_max_threads(None);
    }

    #[test]
    #[should_panic(
        expected = "batched_scores: margin table has 5 rows, expected holdout dimension + 1 = 4"
    )]
    fn weight_table_of_another_height_is_rejected() {
        batched_scores(&dense_rows(5, 3), &Matrix::zeros(5, 2), 1);
    }

    #[test]
    #[should_panic(expected = "batched_scores: 7 margin columns are not whole blocks of 5 outputs")]
    fn partial_output_blocks_are_rejected() {
        batched_scores(&dense_rows(5, 3), &Matrix::zeros(4, 7), 5);
    }

    /// A margin spec whose `margin_weights` is `data_dim × 1`: the
    /// weights without the offset row. The scorer must reject it before
    /// calling anything else.
    struct NoOffsetRow;

    impl ModelClassSpec<DenseVec> for NoOffsetRow {
        fn name(&self) -> &'static str {
            "no-offset-row"
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
        fn margin_weights(&self, _: &[f64], data_dim: usize) -> Option<Matrix> {
            Some(Matrix::zeros(data_dim, 1))
        }
    }

    #[test]
    #[should_panic(
        expected = "no-offset-row: margin_weights returned a 3×1 block, expected data_dim + 1 = 4 rows"
    )]
    fn misshapen_margin_weights_are_rejected() {
        let (holdout, _) = synthetic_logistic(50, 3, 2.0, 8);
        HoldoutScorer::new(&NoOffsetRow, &holdout, &[0.1, 0.2, 0.3]);
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
    /// loop `PerRowLoop` keeps) for one- and two-stage draws at several
    /// scales.
    fn assert_kernel_matches_loop<S>(spec: S, base: &[f64], u: &[f64], outputs: usize)
    where
        S: ModelClassSpec<blinkml_data::DenseVec> + Clone,
    {
        use crate::testing::PerRowLoop;
        type M = blinkml_data::DenseVec;
        let oracle = PerRowLoop(spec.clone());
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
        // Output-major (one class column after another): row 0 ties all
        // three classes, row 1 ties classes 1 and 2; the perturbation
        // ties row 2 at classes 0 and 2 and breaks row 0.
        let base = [1.0, 0.0, 3.0, 1.0, 2.0, -1.0, 1.0, 2.0, 2.0];
        let u = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0];
        let spec = crate::models::maxent::MaxEntSpec::new(1e-3, 3);
        assert_kernel_matches_loop(spec, &base, &u, 3);
    }
}

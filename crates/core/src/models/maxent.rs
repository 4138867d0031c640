//! Max-entropy (multinomial softmax) classifier.

use crate::grads::Grads;
use crate::mcs::{classification_diff, DrawScores, ModelClassSpec};
use crate::testing::ScalarOracle;
use blinkml_data::parallel::{par_ranges, par_sum_vecs, CHUNK_SIZE};
use blinkml_data::{Dataset, FeatureVec, MatrixView, SparseVec, TrainScratch};
use blinkml_linalg::simd::{self, ArgmaxMismatchKernel};
use blinkml_linalg::Matrix;

/// L2-regularized max-entropy classifier over `K` classes — the paper's
/// `ME` model.
///
/// Parameters are class-major: block `k` is `θ[k·d .. (k+1)·d]` and the
/// class scores are `m_k = θ_kᵀ x`, normalized by softmax.
#[derive(Debug, Clone)]
pub struct MaxEntSpec {
    beta: f64,
    num_classes: usize,
}

impl MaxEntSpec {
    /// Spec with `num_classes` classes and L2 coefficient `beta`.
    ///
    /// # Panics
    /// Panics for fewer than two classes or negative `beta`.
    pub fn new(beta: f64, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "max-entropy needs at least two classes");
        assert!(beta >= 0.0, "regularization must be nonnegative");
        MaxEntSpec { beta, num_classes }
    }

    /// Number of classes `K`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Class scores `m_k = θ_kᵀx` for one example.
    fn scores<F: FeatureVec>(&self, theta: &[f64], x: &F, out: &mut [f64]) {
        let d = x.dim();
        for (k, o) in out.iter_mut().enumerate() {
            *o = x.dot(&theta[k * d..(k + 1) * d]);
        }
    }
}

/// Softmax probabilities in place (numerically stable).
fn softmax_inplace(scores: &mut [f64]) {
    let max = scores.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    let mut total = 0.0;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        total += *s;
    }
    for s in scores.iter_mut() {
        *s /= total;
    }
}

/// `log Σ e^{sᵢ}` (numerically stable).
fn log_sum_exp(scores: &[f64]) -> f64 {
    let max = scores.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    let sum: f64 = scores.iter().map(|&s| (s - max).exp()).sum();
    max + sum.ln()
}

/// Index of the maximum score (lowest index wins ties).
///
/// A later score wins only when it is strictly greater than the best so
/// far, so ties (`0.0` against `-0.0` too) keep the lower index, a `NaN`
/// never wins, and a `NaN` first score is never beaten: the rule
/// `blinkml_linalg::simd::argmax_mismatches` applies eight rows at a
/// time in `margin_diff_sum`. The update is a branchless select.
#[inline]
fn argmax(scores: &[f64]) -> usize {
    let Some(&first) = scores.first() else {
        return 0;
    };
    let (mut best, mut top) = (0, first);
    for (i, &s) in scores.iter().enumerate().skip(1) {
        let wins = s > top;
        best = if wins { i } else { best };
        top = if wins { s } else { top };
    }
    best
}

impl<F: FeatureVec> ModelClassSpec<F> for MaxEntSpec {
    fn name(&self) -> &'static str {
        "max-entropy"
    }

    fn param_dim(&self, data_dim: usize) -> usize {
        self.num_classes * data_dim
    }

    fn regularization(&self) -> f64 {
        self.beta
    }

    fn label_domain(&self) -> blinkml_data::LabelDomain {
        blinkml_data::LabelDomain::ClassIndex(self.num_classes)
    }

    fn value_grad(
        &self,
        theta: &[f64],
        xm: &MatrixView,
        scratch: &mut TrainScratch,
        grad: &mut [f64],
    ) -> f64 {
        let d = xm.dim();
        let kc = self.num_classes;
        let dim = kc * d;
        debug_assert_eq!(theta.len(), dim);
        debug_assert_eq!(grad.len(), dim);
        let rows = xm.len();
        let n = rows.max(1) as f64;
        let mut loss = 0.0;
        // Fused one-pass sweep for both layouts: each row is visited
        // once per probe — K score dots, softmax, K coefficient
        // accumulations — in the scalar oracle's exact per-row order, with
        // the chunk partial merged like par_sum_vecs. (Separate
        // per-class margin + gradient passes would stream the design
        // view 2K times per probe, a memory-traffic regression on
        // out-of-cache shapes.)
        let (gpart, p) = scratch.slot_pair(0, 1, dim, kc);
        grad.iter_mut().for_each(|g| *g = 0.0);
        let mut start = 0;
        while start < rows {
            let end = (start + CHUNK_SIZE).min(rows);
            let mut part = 0.0;
            gpart.iter_mut().for_each(|g| *g = 0.0);
            for i in start..end {
                let label = xm.label(i) as usize;
                debug_assert!(label < kc, "label {label} out of range");
                match xm.sparse_row(i) {
                    Some((idx, val)) => {
                        for (k, pk) in p.iter_mut().enumerate() {
                            let tk = &theta[k * d..(k + 1) * d];
                            let mut acc = 0.0;
                            for (&j, &v) in idx.iter().zip(val) {
                                acc += v * tk[j as usize];
                            }
                            *pk = acc;
                        }
                        part += log_sum_exp(p) - p[label];
                        softmax_inplace(p);
                        for (k, &pk) in p.iter().enumerate() {
                            let coef = pk - if k == label { 1.0 } else { 0.0 };
                            let gk = &mut gpart[k * d..(k + 1) * d];
                            for (&j, &v) in idx.iter().zip(val) {
                                gk[j as usize] += coef * v;
                            }
                        }
                    }
                    None => {
                        let xrow = xm.dense_row(i).expect("dense block");
                        // Per-class dots keep the oracle's `scores` shape
                        // (FeatureVec::dot is vector::dot), so the
                        // margins are bit-identical.
                        for (k, pk) in p.iter_mut().enumerate() {
                            *pk = blinkml_linalg::vector::dot(xrow, &theta[k * d..(k + 1) * d]);
                        }
                        part += log_sum_exp(p) - p[label];
                        softmax_inplace(p);
                        for (k, &pk) in p.iter().enumerate() {
                            let coef = pk - if k == label { 1.0 } else { 0.0 };
                            let gk = &mut gpart[k * d..(k + 1) * d];
                            for (gj, &xj) in gk.iter_mut().zip(xrow) {
                                *gj += coef * xj;
                            }
                        }
                    }
                }
            }
            loss += part;
            for (g, gp) in grad.iter_mut().zip(gpart.iter()) {
                *g += gp;
            }
            start = end;
        }
        let mut value = loss / n;
        for g in grad.iter_mut() {
            *g /= n;
        }
        if self.beta > 0.0 {
            let norm_sq: f64 = theta.iter().map(|t| t * t).sum();
            value += 0.5 * self.beta * norm_sq;
            for (g, t) in grad.iter_mut().zip(theta) {
                *g += self.beta * t;
            }
        }
        value
    }

    fn grads(&self, theta: &[f64], xm: &MatrixView) -> Grads {
        let d = xm.dim();
        let kc = self.num_classes;
        let dim = kc * d;
        let rows_n = xm.len();
        // Batched class margins once, then the per-row softmax fill.
        let mut mbuf = vec![0.0; kc * rows_n];
        for k in 0..kc {
            xm.margins_into(
                &theta[k * d..(k + 1) * d],
                0.0,
                &mut mbuf[k * rows_n..(k + 1) * rows_n],
            );
        }
        let shift: Vec<f64> = theta.iter().map(|t| self.beta * t).collect();
        if xm.is_sparse() {
            let rows: Vec<SparseVec> = par_ranges(rows_n, |range| {
                let mut p = vec![0.0; kc];
                range
                    .map(|i| {
                        let label = xm.label(i) as usize;
                        for (k, pk) in p.iter_mut().enumerate() {
                            *pk = mbuf[k * rows_n + i];
                        }
                        softmax_inplace(&mut p);
                        let (idx, val) = xm.sparse_row(i).expect("sparse block");
                        // Per-class blocks are consecutive and internally
                        // sorted, so concatenation stays strictly sorted.
                        let mut indices = Vec::new();
                        let mut values = Vec::new();
                        for (k, &pk) in p.iter().enumerate() {
                            let coef = pk - if k == label { 1.0 } else { 0.0 };
                            let offset = (k * d) as u32;
                            indices.extend(idx.iter().map(|&i| i + offset));
                            values.extend(val.iter().map(|v| coef * v));
                        }
                        SparseVec::new(dim, indices, values)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            Grads::Sparse { rows, shift }
        } else {
            let mut m = Matrix::zeros(rows_n, dim);
            let mut p = vec![0.0; kc];
            for i in 0..rows_n {
                let label = xm.label(i) as usize;
                for (k, pk) in p.iter_mut().enumerate() {
                    *pk = mbuf[k * rows_n + i];
                }
                softmax_inplace(&mut p);
                let row = m.row_mut(i);
                row.copy_from_slice(&shift);
                let xrow = xm.dense_row(i).expect("dense block");
                for (k, &pk) in p.iter().enumerate() {
                    let coef = pk - if k == label { 1.0 } else { 0.0 };
                    for (rj, &xj) in row[k * d..(k + 1) * d].iter_mut().zip(xrow) {
                        *rj += coef * xj;
                    }
                }
            }
            Grads::Dense(m)
        }
    }

    fn predict(&self, theta: &[f64], x: &F) -> f64 {
        let mut scores = vec![0.0; self.num_classes];
        self.scores(theta, x, &mut scores);
        argmax(&scores) as f64
    }

    fn diff(&self, theta_a: &[f64], theta_b: &[f64], holdout: &Dataset<F>) -> f64 {
        classification_diff(
            |x: &F| self.predict(theta_a, x),
            |x: &F| self.predict(theta_b, x),
            holdout,
        )
    }

    fn generalization_error(&self, theta: &[f64], data: &Dataset<F>) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let wrong = data
            .iter()
            .filter(|e| self.predict(theta, &e.x) != e.y)
            .count();
        wrong as f64 / data.len() as f64
    }

    fn margin_weights(&self, theta: &[f64], data_dim: usize) -> Option<Matrix> {
        // Class-major θ reshaped to data_dim × K, W[i][k] = θ[k·d + i],
        // over an offset row of +0.0.
        debug_assert_eq!(theta.len(), self.num_classes * data_dim);
        Some(Matrix::from_fn(data_dim + 1, self.num_classes, |i, k| {
            if i < data_dim {
                theta[k * data_dim + i]
            } else {
                0.0
            }
        }))
    }

    fn predict_from_margins(&self, scores: &[f64]) -> f64 {
        argmax(scores) as f64
    }

    fn margin_diff_sum(&self, scores: DrawScores<'_>, stop: f64) -> f64 {
        count_mismatches(&scores, stop, simd::argmax_mismatches)
    }
}

/// The number of rows whose argmaxes of `a_j` and `b_j` differ, counted
/// by `kernel` over the output-major class columns one
/// [`STOP_BLOCK`](crate::mcs::STOP_BLOCK) of rows at a time, with the
/// same early exit as the other counting kernels.
fn count_mismatches(scores: &DrawScores<'_>, stop: f64, kernel: ArgmaxMismatchKernel) -> f64 {
    let DrawScores {
        base,
        u,
        scale_u,
        w,
        outputs,
    } = *scores;
    scores.count_blocks(stop, |rows| kernel(base, u, scale_u, w, outputs, rows))
}

/// The per-example reference bodies (see [`ScalarOracle`]).
#[doc(hidden)]
impl<F: FeatureVec> ScalarOracle<F> for MaxEntSpec {
    fn scalar_objective(&self, theta: &[f64], data: &Dataset<F>) -> (f64, Vec<f64>) {
        let d = data.dim();
        let k_classes = self.num_classes;
        let dim = k_classes * d;
        let n = data.len().max(1) as f64;
        // Slot 0: Σ loss; slots 1..: Σ gradient.
        let acc = par_sum_vecs(data.len(), dim + 1, |i, acc| {
            let e = data.get(i);
            let label = e.y as usize;
            debug_assert!(label < k_classes, "label {label} out of range");
            let mut p = vec![0.0; k_classes];
            self.scores(theta, &e.x, &mut p);
            acc[0] += log_sum_exp(&p) - p[label];
            softmax_inplace(&mut p);
            for (k, &pk) in p.iter().enumerate() {
                let coef = pk - if k == label { 1.0 } else { 0.0 };
                e.x.add_scaled_into(coef, &mut acc[1 + k * d..1 + (k + 1) * d]);
            }
        });
        let mut value = acc[0] / n;
        let mut grad: Vec<f64> = acc[1..].iter().map(|v| v / n).collect();
        if self.beta > 0.0 {
            let norm_sq: f64 = theta.iter().map(|t| t * t).sum();
            value += 0.5 * self.beta * norm_sq;
            for (g, t) in grad.iter_mut().zip(theta) {
                *g += self.beta * t;
            }
        }
        (value, grad)
    }

    fn scalar_grads(&self, theta: &[f64], data: &Dataset<F>) -> Grads {
        let d = data.dim();
        let k_classes = self.num_classes;
        let dim = k_classes * d;
        let shift: Vec<f64> = theta.iter().map(|t| self.beta * t).collect();
        if F::IS_SPARSE {
            let rows: Vec<SparseVec> = par_ranges(data.len(), |range| {
                let mut p = vec![0.0; k_classes];
                range
                    .map(|i| {
                        let e = data.get(i);
                        let label = e.y as usize;
                        self.scores(theta, &e.x, &mut p);
                        softmax_inplace(&mut p);
                        // Per-class blocks are consecutive and internally
                        // sorted, so concatenation stays strictly sorted.
                        let mut indices = Vec::new();
                        let mut values = Vec::new();
                        for (k, &pk) in p.iter().enumerate() {
                            let coef = pk - if k == label { 1.0 } else { 0.0 };
                            let block = e.x.scaled_sparse(coef, d, 0);
                            let offset = (k * d) as u32;
                            indices.extend(block.indices().iter().map(|&i| i + offset));
                            values.extend_from_slice(block.values());
                        }
                        SparseVec::new(dim, indices, values)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            Grads::Sparse { rows, shift }
        } else {
            let mut m = Matrix::zeros(data.len(), dim);
            let mut p = vec![0.0; k_classes];
            for (i, e) in data.iter().enumerate() {
                let label = e.y as usize;
                self.scores(theta, &e.x, &mut p);
                softmax_inplace(&mut p);
                let row = m.row_mut(i);
                row.copy_from_slice(&shift);
                for (k, &pk) in p.iter().enumerate() {
                    let coef = pk - if k == label { 1.0 } else { 0.0 };
                    e.x.add_scaled_into(coef, &mut row[k * d..(k + 1) * d]);
                }
            }
            Grads::Dense(m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::glm::test_support::{check_gradient, check_grads_mean};
    use crate::testing::view_grads;
    use blinkml_data::generators::{synthetic_multiclass, yelp_like};
    use blinkml_optim::OptimOptions;

    #[test]
    fn softmax_and_logsumexp_are_stable() {
        let mut s = vec![1000.0, 1000.0, 1000.0];
        let lse = log_sum_exp(&s);
        assert!((lse - (1000.0 + 3.0f64.ln())).abs() < 1e-9);
        softmax_inplace(&mut s);
        for p in &s {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1);
    }

    /// The compare-and-branch argmax `argmax` replaced: the oracle its
    /// index is pinned to.
    fn argmax_branchy(scores: &[f64]) -> usize {
        let mut best = 0;
        for (i, &s) in scores.iter().enumerate().skip(1) {
            if s > scores[best] {
                best = i;
            }
        }
        best
    }

    #[test]
    fn argmax_matches_branchy_on_every_tuple() {
        let palette = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
        ];
        let p = palette.len();
        for k in 1..=4 {
            for code in 0..p.pow(k as u32) {
                let scores: Vec<f64> = (0..k)
                    .map(|i| palette[code / p.pow(i as u32) % p])
                    .collect();
                assert_eq!(argmax(&scores), argmax_branchy(&scores), "{scores:?}");
            }
        }
        assert_eq!(argmax(&[]), 0);
    }

    /// `margin_diff_sum` as a per-row loop over [`argmax_branchy`]: each
    /// compared pair built as `DrawScores::fill` builds it, and the count
    /// checked against `stop` after every `STOP_BLOCK` rows.
    fn margin_diff_oracle(s: &DrawScores<'_>, stop: f64) -> f64 {
        let k = s.outputs;
        let rows = s.rows();
        let (mut a, mut b) = (vec![0.0; k], vec![0.0; k]);
        let mut count = 0.0;
        for j in 0..rows {
            for c in 0..k {
                let e = c * rows + j;
                let sn = s.base[e];
                match s.w {
                    None => (a[c], b[c]) = (sn, sn + s.scale_u * s.u[e]),
                    Some((w, sw)) => {
                        let sn = sn + s.scale_u * s.u[e];
                        (a[c], b[c]) = (sn, sn + sw * w[e]);
                    }
                }
            }
            if argmax_branchy(&a) != argmax_branchy(&b) {
                count += 1.0;
            }
            if (j + 1) % crate::mcs::STOP_BLOCK == 0 && count > stop {
                break;
            }
        }
        count
    }

    /// `len` scores drawn from a palette of ties, `±0.0`, `±inf`, NaN and
    /// small exact values, with a random value in one slot of eleven.
    fn tie_scores(len: usize, seed: u64) -> Vec<f64> {
        let palette = [
            -1.0,
            -0.0,
            0.0,
            0.5,
            0.5,
            1.0,
            f64::NAN,
            2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let random = blinkml_linalg::testing::xorshift_matrix(1, len, seed);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match (state >> 11) % 11 {
                    10 => random[(0, i)],
                    c => palette[c as usize],
                }
            })
            .collect()
    }

    /// The verdict kernel against the per-row branchy oracle, result
    /// bits equal, through `margin_diff_sum` (the dispatcher) and through
    /// each body this host can run (scalar, AVX, AVX-512) called
    /// directly: ties, NaN and ±0 scores, K ∈ {2, 3, 5, 7}, holdouts
    /// around the 8-row step and the 256-row stop block, finite stops
    /// (the early-exit partial sums must match) and one- and two-stage
    /// draws. The per-row `predict_from_margins` matches the oracle's
    /// argmax too.
    #[test]
    fn margin_diff_sum_is_bitwise_branchy_oracle() {
        type M = dyn ModelClassSpec<blinkml_data::DenseVec>;
        let bodies = blinkml_linalg::testing::argmax_mismatch_bodies();
        for k in [2, 3, 5, 7] {
            let spec = MaxEntSpec::new(1e-3, k);
            for rows in [1, 7, 8, 9, 255, 256, 257, 600] {
                let len = rows * k;
                let seed = (k * 1000 + rows) as u64;
                let (base, u, w) = (
                    tie_scores(len, seed),
                    tie_scores(len, seed + 1),
                    tie_scores(len, seed + 2),
                );
                for j in 0..rows {
                    let row: Vec<f64> = (0..k).map(|c| base[c * rows + j]).collect();
                    assert_eq!(
                        <M>::predict_from_margins(&spec, &row),
                        argmax_branchy(&row) as f64
                    );
                }
                for two_stage in [false, true] {
                    let scores = DrawScores {
                        base: &base,
                        u: &u,
                        scale_u: 0.5,
                        w: two_stage.then_some((w.as_slice(), 0.25)),
                        outputs: k,
                    };
                    for stop in [0.0, 2.0, 40.0, f64::INFINITY] {
                        let want = margin_diff_oracle(&scores, stop);
                        let tag =
                            format!("K = {k}, {rows} rows, two-stage {two_stage}, stop {stop}");
                        let got = <M>::margin_diff_sum(&spec, scores, stop);
                        assert_eq!(got.to_bits(), want.to_bits(), "{tag}: {got} vs {want}");
                        for (body, kernel) in &bodies {
                            let got = count_mismatches(&scores, stop, *kernel);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{tag}, {body} body: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let data = synthetic_multiclass(100, 3, 3, 1);
        let spec = MaxEntSpec::new(1e-3, 3);
        let theta: Vec<f64> = (0..9).map(|i| 0.05 * (i as f64) - 0.2).collect();
        check_gradient(&spec, &theta, &data, 1e-5);
        check_grads_mean(&spec, &theta, &data, 1e-10);
    }

    #[test]
    fn sparse_and_dense_grads_agree() {
        // The same logical data through both representations must give
        // identical gradient rows.
        let sparse_data = yelp_like(50, 200, 2);
        let dense_data = {
            let examples = sparse_data
                .iter()
                .map(|e| blinkml_data::Example {
                    x: blinkml_data::DenseVec::new(e.x.to_dense()),
                    y: e.y,
                })
                .collect();
            Dataset::new("dense-copy", 200, examples)
        };
        let spec = MaxEntSpec::new(1e-3, 5);
        let theta: Vec<f64> = (0..1000).map(|i| ((i * 7) % 13) as f64 * 0.01).collect();
        let gs = view_grads(&spec, &theta, &sparse_data);
        let gd = view_grads(&spec, &theta, &dense_data);
        for i in 0..50 {
            let rs = gs.row_dense(i);
            let rd = gd.row_dense(i);
            for (a, b) in rs.iter().zip(&rd) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn training_separates_gaussian_clusters() {
        let data = synthetic_multiclass(3_000, 6, 4, 3);
        let spec = MaxEntSpec::new(1e-3, 4);
        let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
        let err = spec.generalization_error(model.parameters(), &data);
        assert!(err < 0.1, "training error {err}");
    }

    #[test]
    fn margins_agree_with_predict() {
        type Spec = MaxEntSpec;
        type M = dyn ModelClassSpec<blinkml_data::DenseVec>;
        let data = synthetic_multiclass(50, 4, 3, 5);
        let spec = Spec::new(1e-3, 3);
        let theta: Vec<f64> = (0..12).map(|i| (i as f64 * 0.37).sin()).collect();
        let block = <M>::margin_weights(&spec, &theta, 4).expect("margin spec");
        assert_eq!((block.rows(), block.cols()), (5, 3));
        for e in data.iter() {
            let x = e.x.as_slice();
            let out: Vec<f64> = (0..3)
                .map(|k| (0..4).fold(block[(4, k)], |s, i| s + x[i] * block[(i, k)]))
                .collect();
            let from_margins = <M>::predict_from_margins(&spec, &out);
            assert_eq!(from_margins, spec.predict(&theta, &e.x));
        }
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn rejects_single_class() {
        MaxEntSpec::new(0.1, 1);
    }
}

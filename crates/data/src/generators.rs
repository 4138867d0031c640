//! Synthetic dataset generators mirroring the BlinkML paper's datasets.
//!
//! The paper's six datasets are unavailable offline, so per the
//! substitution policy (DESIGN.md §3) each one is replaced by a
//! deterministic generator with the same *task shape*: supervision type,
//! dense/sparse feature regime, comparable dimensionality, controlled
//! noise and feature correlation. BlinkML's statistical machinery depends
//! only on the sampling distribution of MLE parameters — governed by the
//! sample size, the conditioning of the Hessian `H`, and the gradient
//! covariance `J` — all of which these generators control directly.
//!
//! | Paper dataset | Generator | Task | Features |
//! |---|---|---|---|
//! | Gas (4.2M x 57) | [`gas_like`] | regression | dense, d = 57 |
//! | Power (2.1M x 114) | [`power_like`] | regression | dense, d = 114 |
//! | Criteo (45.8M x 1M) | [`criteo_like`] | binary | sparse, configurable d |
//! | HIGGS (11M x 28) | [`higgs_like`] | binary | dense, configurable d |
//! | MNIST (8M x 784) | [`mnist_like`] | 10-class | dense, d = 196 |
//! | Yelp (5.3M x 100K) | [`yelp_like`] | 5-class | sparse, configurable d |
//!
//! Regression targets are standardized **by construction** (the signal
//! weights are scaled so the target variance is 1), which makes the
//! paper's regression accuracy `1 − RMS(m_n − m_N)` scale-free.
//!
//! The `synthetic_*` helpers generate well-specified models with known
//! ground-truth parameters for unit and property tests.

use crate::dataset::{Dataset, Example};
use crate::features::{DenseVec, SparseVec};
use blinkml_prob::discrete::{sample_bernoulli, sample_categorical, sample_poisson, ZipfSampler};
use blinkml_prob::normal::NormalSampler;
use blinkml_prob::rng::{rng_from_seed, split_seed};
use rand::Rng;

/// Logistic sigmoid.
#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Draw a standard normal vector.
fn normal_vec<R: Rng>(rng: &mut R, sampler: &mut NormalSampler, d: usize) -> Vec<f64> {
    (0..d).map(|_| sampler.sample(rng)).collect()
}

/// Latent-factor feature model: `x = Λ z + noise_std · η` with
/// `z ∈ R^k`, `Λ ∈ R^{d×k}` fixed per seed. Produces correlated features
/// like real sensor arrays.
struct FactorModel {
    /// Row-major `d x k` loading matrix.
    loadings: Vec<f64>,
    d: usize,
    k: usize,
    noise_std: f64,
}

impl FactorModel {
    fn new(d: usize, k: usize, noise_std: f64, seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let mut sampler = NormalSampler::new();
        let scale = 1.0 / (k as f64).sqrt();
        let loadings = (0..d * k)
            .map(|_| sampler.sample(&mut rng) * scale)
            .collect();
        FactorModel {
            loadings,
            d,
            k,
            noise_std,
        }
    }

    fn sample_row<R: Rng>(&self, rng: &mut R, sampler: &mut NormalSampler) -> Vec<f64> {
        let z = normal_vec(rng, sampler, self.k);
        let mut x = vec![0.0; self.d];
        for (i, xi) in x.iter_mut().enumerate() {
            let row = &self.loadings[i * self.k..(i + 1) * self.k];
            let mut s = 0.0;
            for (l, zj) in row.iter().zip(&z) {
                s += l * zj;
            }
            *xi = s + self.noise_std * sampler.sample(rng);
        }
        x
    }

    /// `Var(wᵀx) = ||Λᵀw||² + noise_std²·||w||²` for `x` from this model.
    fn signal_variance(&self, w: &[f64]) -> f64 {
        let mut lam_t_w = vec![0.0; self.k];
        for (i, &wi) in w.iter().enumerate() {
            let row = &self.loadings[i * self.k..(i + 1) * self.k];
            for (acc, &l) in lam_t_w.iter_mut().zip(row) {
                *acc += wi * l;
            }
        }
        let a: f64 = lam_t_w.iter().map(|v| v * v).sum();
        let b: f64 = w.iter().map(|v| v * v).sum();
        a + self.noise_std * self.noise_std * b
    }
}

/// Shared implementation of the regression generators: correlated
/// features from a latent-factor model, a dense ground-truth weight
/// vector rescaled so the standardized target has unit variance, and a
/// configurable noise floor (`1 − r2` of the target variance).
fn regression_like(
    name: &str,
    n: usize,
    d: usize,
    latent: usize,
    r2: f64,
    seed: u64,
) -> Dataset<DenseVec> {
    let model = FactorModel::new(d, latent, 0.3, split_seed(seed, 0));
    let mut truth_rng = rng_from_seed(split_seed(seed, 1));
    let mut sampler = NormalSampler::new();
    let mut w: Vec<f64> = normal_vec(&mut truth_rng, &mut sampler, d);
    // Rescale so the clean signal has variance r2; the remaining 1 − r2
    // is i.i.d. label noise, making Var(y) = 1 by construction.
    let sv = model.signal_variance(&w);
    let signal_scale = (r2 / sv).sqrt();
    for wi in &mut w {
        *wi *= signal_scale;
    }
    let noise_std = (1.0 - r2).sqrt();

    let mut rng = rng_from_seed(split_seed(seed, 2));
    let mut data_sampler = NormalSampler::new();
    let examples = (0..n)
        .map(|_| {
            let x = model.sample_row(&mut rng, &mut data_sampler);
            let signal: f64 = x.iter().zip(&w).map(|(xi, wi)| xi * wi).sum();
            let y = signal + noise_std * data_sampler.sample(&mut rng);
            Example {
                x: DenseVec::new(x),
                y,
            }
        })
        .collect();
    Dataset::new(name, d, examples)
}

/// Gas-sensor-array regression stand-in (paper: Gas, 4.2M x 57).
///
/// 57 correlated "sensor" channels driven by 8 latent concentration
/// factors; the standardized target is a linear readout with R² = 0.85.
pub fn gas_like(n: usize, seed: u64) -> Dataset<DenseVec> {
    regression_like("gas-like", n, 57, 8, 0.85, seed)
}

/// Household-power regression stand-in (paper: Power, 2.1M x 114).
///
/// 114 correlated channels from only 6 latent factors (strong
/// collinearity, like sub-metered power traces) and a noisier target
/// (R² = 0.6).
pub fn power_like(n: usize, seed: u64) -> Dataset<DenseVec> {
    regression_like("power-like", n, 114, 6, 0.6, seed)
}

/// HIGGS-like binary classification (paper: HIGGS, 11M x 28 dense).
///
/// Labels are generated from a well-specified logistic model over
/// correlated physics-like features, with the margin scaled so the Bayes
/// accuracy sits near the ~0.75 a linear model reaches on real HIGGS.
pub fn higgs_like(n: usize, d: usize, seed: u64) -> Dataset<DenseVec> {
    let model = FactorModel::new(d, (d / 2).max(2), 0.5, split_seed(seed, 0));
    let mut truth_rng = rng_from_seed(split_seed(seed, 1));
    let mut sampler = NormalSampler::new();
    let mut w = normal_vec(&mut truth_rng, &mut sampler, d);
    // Scale the margin so its standard deviation is ~1.5: Bayes accuracy
    // E[max(p, 1-p)] ≈ 0.76 for a logistic margin of that spread.
    let sv = model.signal_variance(&w).sqrt();
    for wi in &mut w {
        *wi *= 1.5 / sv;
    }

    let mut rng = rng_from_seed(split_seed(seed, 2));
    let mut data_sampler = NormalSampler::new();
    let examples = (0..n)
        .map(|_| {
            let x = model.sample_row(&mut rng, &mut data_sampler);
            let margin: f64 = x.iter().zip(&w).map(|(xi, wi)| xi * wi).sum();
            let y = if sample_bernoulli(&mut rng, sigmoid(margin)) {
                1.0
            } else {
                0.0
            };
            Example {
                x: DenseVec::new(x),
                y,
            }
        })
        .collect();
    Dataset::new("higgs-like", d, examples)
}

/// Criteo-like sparse click-through-rate data (paper: Criteo, 45.8M rows,
/// ~1M one-hot features).
///
/// Each row has 13 dense "counter" features (indices `0..13`, log-normal
/// values) plus ~25 one-hot categorical features drawn from a Zipf
/// distribution over the remaining index space — the hashing-trick shape
/// of real CTR data. Labels follow a sparse logistic ground truth with a
/// negative bias giving a ~25% positive rate.
pub fn criteo_like(n: usize, d: usize, seed: u64) -> Dataset<SparseVec> {
    assert!(d > 32, "criteo_like needs d > 32 (13 dense + categorical)");
    let num_dense = 13usize;
    let cat_space = d - num_dense;
    let zipf = ZipfSampler::new(cat_space, 1.08, 3.0);

    // Sparse ground truth: weights decay with index so frequent (head)
    // features carry signal, exactly like learned CTR models.
    let mut truth_rng = rng_from_seed(split_seed(seed, 1));
    let mut sampler = NormalSampler::new();
    let dense_w: Vec<f64> = (0..num_dense)
        .map(|_| 0.15 * sampler.sample(&mut truth_rng))
        .collect();
    let mut cat_w: Vec<f64> = (0..cat_space)
        .map(|i| {
            let scale = 1.0 / (1.0 + (i as f64) / 50.0).sqrt();
            scale * sampler.sample(&mut truth_rng)
        })
        .collect();
    // Calibrate the margin analytically so the positive rate lands near
    // real CTR levels regardless of which head weights the seed drew:
    // rescale the categorical weights to a unit-ish margin spread and
    // absorb the expected contribution into the bias.
    let expected_ncat = 25.0;
    let mut mu_cat = 0.0;
    let mut second_cat = 0.0;
    for (i, &w) in cat_w.iter().enumerate() {
        let p = zipf.prob(i);
        mu_cat += p * w;
        second_cat += p * w * w;
    }
    let var_cat = (second_cat - mu_cat * mu_cat).max(1e-12);
    let cat_scale = 1.3 / (expected_ncat * var_cat).sqrt();
    for w in &mut cat_w {
        *w *= cat_scale;
    }
    // Dense counters are exp(0.75 z) − 1: mean e^{0.28125} − 1.
    let dense_value_mean = (0.75f64 * 0.75 / 2.0).exp() - 1.0;
    let dense_mean_contrib: f64 = dense_w.iter().sum::<f64>() * dense_value_mean;
    let bias = -1.1 - expected_ncat * mu_cat * cat_scale - dense_mean_contrib;

    let mut rng = rng_from_seed(split_seed(seed, 2));
    let mut data_sampler = NormalSampler::new();
    let examples = (0..n)
        .map(|_| {
            let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(40);
            let mut margin = bias;
            for (j, &wj) in dense_w.iter().enumerate() {
                // Log-normal-ish counter, standardized roughly to O(1).
                let v = (0.75 * data_sampler.sample(&mut rng)).exp() - 1.0;
                pairs.push((j as u32, v));
                margin += wj * v;
            }
            let ncat = (sample_poisson(&mut rng, 25.0) as usize).clamp(5, 60);
            for _ in 0..ncat {
                let idx = zipf.sample(&mut rng);
                pairs.push(((num_dense + idx) as u32, 1.0));
                margin += cat_w[idx];
            }
            let y = if sample_bernoulli(&mut rng, sigmoid(margin)) {
                1.0
            } else {
                0.0
            };
            Example {
                x: SparseVec::from_pairs(d, pairs),
                y,
            }
        })
        .collect();
    Dataset::new("criteo-like", d, examples)
}

/// Image-like 10-class data (paper: infinite MNIST, 8M x 784).
///
/// 14x14 = 196-pixel "digits": each class is a smooth random prototype in
/// `[0, 1]`; rows are the class prototype plus per-pixel noise and a
/// global intensity jitter, clamped to `[0, 1]`. A linear softmax reaches
/// ~90% accuracy, matching linear models on real MNIST.
pub fn mnist_like(n: usize, seed: u64) -> Dataset<DenseVec> {
    const SIDE: usize = 14;
    const D: usize = SIDE * SIDE;
    const K: usize = 10;

    // Smooth prototypes: sum of a few random Gaussian bumps per class.
    let mut proto_rng = rng_from_seed(split_seed(seed, 0));
    let mut prototypes = vec![[0.0f64; D]; K];
    for proto in prototypes.iter_mut() {
        let bumps = 3 + proto_rng.gen_range(0..3);
        for _ in 0..bumps {
            let cx = proto_rng.gen_range(0.0..SIDE as f64);
            let cy = proto_rng.gen_range(0.0..SIDE as f64);
            let amp = proto_rng.gen_range(0.5..1.0);
            let width = proto_rng.gen_range(1.5..3.5);
            for (p, v) in proto.iter_mut().enumerate() {
                let px = (p % SIDE) as f64;
                let py = (p / SIDE) as f64;
                let dist2 = (px - cx).powi(2) + (py - cy).powi(2);
                *v += amp * (-dist2 / (2.0 * width * width)).exp();
            }
        }
        for v in proto.iter_mut() {
            *v = v.min(1.0);
        }
    }

    let mut rng = rng_from_seed(split_seed(seed, 1));
    let mut sampler = NormalSampler::new();
    let examples = (0..n)
        .map(|_| {
            let class = rng.gen_range(0..K);
            let jitter = 1.0 + 0.1 * sampler.sample(&mut rng);
            let x: Vec<f64> = prototypes[class]
                .iter()
                .map(|&p| (p * jitter + 0.18 * sampler.sample(&mut rng)).clamp(0.0, 1.0))
                .collect();
            Example {
                x: DenseVec::new(x),
                y: class as f64,
            }
        })
        .collect();
    Dataset::new("mnist-like", D, examples)
}

/// Yelp-like sparse 5-class review ratings (paper: Yelp, 5.3M x 100K
/// bag-of-words).
///
/// Each row is a normalized bag-of-words of ~40 tokens: 70% drawn from a
/// shared Zipf vocabulary (stop words, carrying no signal) and 30% from a
/// class-specific vocabulary block, giving a linearly separable but noisy
/// 5-class problem.
pub fn yelp_like(n: usize, d: usize, seed: u64) -> Dataset<SparseVec> {
    const K: usize = 5;
    assert!(d >= 10 * K, "yelp_like needs d >= {}", 10 * K);
    // Vocabulary layout: the first 60% of indices are shared; the last
    // 40% are split into K class blocks.
    let shared_size = d * 6 / 10;
    let class_block = (d - shared_size) / K;
    let shared_zipf = ZipfSampler::new(shared_size, 1.05, 2.0);
    let class_zipf = ZipfSampler::new(class_block, 1.05, 2.0);

    let mut rng = rng_from_seed(split_seed(seed, 1));
    let examples = (0..n)
        .map(|_| {
            // Real ratings are imbalanced toward the extremes.
            let class = sample_categorical(&mut rng, &[0.12, 0.09, 0.13, 0.26, 0.40]);
            let len = (sample_poisson(&mut rng, 40.0) as usize).clamp(8, 120);
            let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(len);
            let inv_len = 1.0 / len as f64;
            for _ in 0..len {
                let idx = if sample_bernoulli(&mut rng, 0.7) {
                    shared_zipf.sample(&mut rng)
                } else {
                    shared_size + class * class_block + class_zipf.sample(&mut rng)
                };
                pairs.push((idx as u32, inv_len));
            }
            Example {
                x: SparseVec::from_pairs(d, pairs),
                y: class as f64,
            }
        })
        .collect();
    Dataset::new("yelp-like", d, examples)
}

/// Plain well-specified linear regression with i.i.d. standard-normal
/// features; returns the dataset and the ground-truth weights.
pub fn synthetic_linear(
    n: usize,
    d: usize,
    noise_std: f64,
    seed: u64,
) -> (Dataset<DenseVec>, Vec<f64>) {
    let mut truth_rng = rng_from_seed(split_seed(seed, 0));
    let mut sampler = NormalSampler::new();
    let w = normal_vec(&mut truth_rng, &mut sampler, d);

    let mut rng = rng_from_seed(split_seed(seed, 1));
    let mut data_sampler = NormalSampler::new();
    let examples = (0..n)
        .map(|_| {
            let x = normal_vec(&mut rng, &mut data_sampler, d);
            let signal: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
            Example {
                x: DenseVec::new(x),
                y: signal + noise_std * data_sampler.sample(&mut rng),
            }
        })
        .collect();
    (Dataset::new("synthetic-linear", d, examples), w)
}

/// Linear regression whose feature covariance has **geometric spectral
/// decay**: coordinate `j` is scaled by `decay^j`, so the gradient
/// second moment `J` has eigenvalues falling like `decay^{2j}`, as for
/// real, strongly anisotropic design matrices; the effective rank at
/// relative tolerance `tol` is about `ln(tol) / (2 ln(decay))`.
/// The per-coordinate scale is floored at `1e-4` (a relative eigenvalue
/// floor of `1e-8`), mirroring the noise floor of real measurements and
/// keeping the spectrum inside `f64` dynamic range at any `d`.
/// Returns the dataset and ground-truth weights.
pub fn synthetic_linear_decay(
    n: usize,
    d: usize,
    decay: f64,
    noise_std: f64,
    seed: u64,
) -> (Dataset<DenseVec>, Vec<f64>) {
    assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
    let scales: Vec<f64> = (0..d).map(|j| decay.powi(j as i32).max(1e-4)).collect();
    let mut truth_rng = rng_from_seed(split_seed(seed, 0));
    let mut sampler = NormalSampler::new();
    let w = normal_vec(&mut truth_rng, &mut sampler, d);

    let mut rng = rng_from_seed(split_seed(seed, 1));
    let mut data_sampler = NormalSampler::new();
    let examples = (0..n)
        .map(|_| {
            let mut x = normal_vec(&mut rng, &mut data_sampler, d);
            for (xi, s) in x.iter_mut().zip(&scales) {
                *xi *= s;
            }
            let signal: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
            Example {
                x: DenseVec::new(x),
                y: signal + noise_std * data_sampler.sample(&mut rng),
            }
        })
        .collect();
    (Dataset::new("synthetic-linear-decay", d, examples), w)
}

/// Well-specified logistic model with i.i.d. features; `margin_scale`
/// controls class overlap. Returns the dataset and ground-truth weights.
pub fn synthetic_logistic(
    n: usize,
    d: usize,
    margin_scale: f64,
    seed: u64,
) -> (Dataset<DenseVec>, Vec<f64>) {
    let mut truth_rng = rng_from_seed(split_seed(seed, 0));
    let mut sampler = NormalSampler::new();
    let mut w = normal_vec(&mut truth_rng, &mut sampler, d);
    let norm: f64 = w.iter().map(|v| v * v).sum::<f64>().sqrt();
    for wi in &mut w {
        *wi *= margin_scale / norm;
    }

    let mut rng = rng_from_seed(split_seed(seed, 1));
    let mut data_sampler = NormalSampler::new();
    let examples = (0..n)
        .map(|_| {
            let x = normal_vec(&mut rng, &mut data_sampler, d);
            let margin: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
            let y = if sample_bernoulli(&mut rng, sigmoid(margin)) {
                1.0
            } else {
                0.0
            };
            Example {
                x: DenseVec::new(x),
                y,
            }
        })
        .collect();
    (Dataset::new("synthetic-logistic", d, examples), w)
}

/// Well-specified Poisson regression: `y ~ Poisson(exp(wᵀx))` with small
/// weights so rates stay moderate. Returns the dataset and ground truth.
pub fn synthetic_poisson(n: usize, d: usize, seed: u64) -> (Dataset<DenseVec>, Vec<f64>) {
    let mut truth_rng = rng_from_seed(split_seed(seed, 0));
    let mut sampler = NormalSampler::new();
    let mut w = normal_vec(&mut truth_rng, &mut sampler, d);
    let norm: f64 = w.iter().map(|v| v * v).sum::<f64>().sqrt();
    for wi in &mut w {
        // Keep log-rates within ±~1.5 so counts stay small.
        *wi *= 0.5 / norm.max(1e-12);
    }

    let mut rng = rng_from_seed(split_seed(seed, 1));
    let mut data_sampler = NormalSampler::new();
    let examples = (0..n)
        .map(|_| {
            let x = normal_vec(&mut rng, &mut data_sampler, d);
            let log_rate: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
            let y = sample_poisson(&mut rng, log_rate.exp().min(50.0)) as f64;
            Example {
                x: DenseVec::new(x),
                y,
            }
        })
        .collect();
    (Dataset::new("synthetic-poisson", d, examples), w)
}

/// Gaussian-mixture multiclass data for max-entropy tests: `classes`
/// well-separated spherical clusters.
pub fn synthetic_multiclass(n: usize, d: usize, classes: usize, seed: u64) -> Dataset<DenseVec> {
    assert!(classes >= 2, "need at least two classes");
    let mut center_rng = rng_from_seed(split_seed(seed, 0));
    let mut sampler = NormalSampler::new();
    let centers: Vec<Vec<f64>> = (0..classes)
        .map(|_| {
            normal_vec(&mut center_rng, &mut sampler, d)
                .into_iter()
                .map(|v| v * 2.0)
                .collect()
        })
        .collect();

    let mut rng = rng_from_seed(split_seed(seed, 1));
    let mut data_sampler = NormalSampler::new();
    let examples = (0..n)
        .map(|_| {
            let class = rng.gen_range(0..classes);
            let x: Vec<f64> = centers[class]
                .iter()
                .map(|&c| c + data_sampler.sample(&mut rng))
                .collect();
            Example {
                x: DenseVec::new(x),
                y: class as f64,
            }
        })
        .collect();
    Dataset::new("synthetic-multiclass", d, examples)
}

/// Low-rank Gaussian data for PPCA: `x = W z + noise`, exactly the PPCA
/// generative model with `rank` true factors.
pub fn low_rank_gaussian(
    n: usize,
    d: usize,
    rank: usize,
    noise_std: f64,
    seed: u64,
) -> Dataset<DenseVec> {
    assert!(rank <= d, "rank must not exceed dimension");
    let model = FactorModel::new(d, rank, noise_std, split_seed(seed, 0));
    let mut rng = rng_from_seed(split_seed(seed, 1));
    let mut sampler = NormalSampler::new();
    let examples = (0..n)
        .map(|_| Example {
            x: DenseVec::new(model.sample_row(&mut rng, &mut sampler)),
            y: 0.0,
        })
        .collect();
    Dataset::new("low-rank-gaussian", d, examples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureVec;

    #[test]
    fn generators_are_deterministic() {
        let a = gas_like(50, 7);
        let b = gas_like(50, 7);
        for (ea, eb) in a.iter().zip(b.iter()) {
            assert_eq!(ea.x, eb.x);
            assert_eq!(ea.y, eb.y);
        }
        let c = gas_like(50, 8);
        assert_ne!(a.get(0).x, c.get(0).x, "different seeds must differ");
    }

    #[test]
    fn gas_like_shape_and_standardization() {
        let d = gas_like(20_000, 1);
        assert_eq!(d.dim(), 57);
        assert_eq!(d.len(), 20_000);
        let (mean, std) = d.label_moments();
        assert!(mean.abs() < 0.05, "target mean {mean}");
        assert!((std - 1.0).abs() < 0.05, "target std {std}");
    }

    #[test]
    fn power_like_is_noisier_than_gas_like() {
        // R² gas = 0.85, power = 0.6: the best linear fit residual must
        // differ accordingly. Proxy check: both targets standardized.
        let d = power_like(10_000, 2);
        assert_eq!(d.dim(), 114);
        let (mean, std) = d.label_moments();
        assert!(mean.abs() < 0.06);
        assert!((std - 1.0).abs() < 0.06);
    }

    #[test]
    fn higgs_like_is_roughly_balanced() {
        let d = higgs_like(20_000, 28, 3);
        assert_eq!(d.dim(), 28);
        let positives = d.iter().filter(|e| e.y == 1.0).count() as f64;
        let rate = positives / d.len() as f64;
        assert!((rate - 0.5).abs() < 0.05, "positive rate {rate}");
        assert_eq!(d.num_classes(), 2);
    }

    #[test]
    fn criteo_like_is_sparse_and_imbalanced() {
        let d = criteo_like(5_000, 5_000, 4);
        assert_eq!(d.dim(), 5_000);
        let avg_nnz: f64 = d.iter().map(|e| e.x.nnz() as f64).sum::<f64>() / d.len() as f64;
        assert!(
            (20.0..60.0).contains(&avg_nnz),
            "avg nnz {avg_nnz} out of CTR range"
        );
        let rate = d.iter().filter(|e| e.y == 1.0).count() as f64 / d.len() as f64;
        assert!((0.1..0.4).contains(&rate), "positive rate {rate}");
    }

    #[test]
    fn mnist_like_pixels_in_unit_range() {
        let d = mnist_like(2_000, 5);
        assert_eq!(d.dim(), 196);
        assert_eq!(d.num_classes(), 10);
        for e in d.iter() {
            for &p in e.x.as_slice() {
                assert!((0.0..=1.0).contains(&p), "pixel {p} out of range");
            }
        }
        // All ten classes present.
        let mut seen = [false; 10];
        for e in d.iter() {
            seen[e.y as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mnist_like_classes_are_separable() {
        // Nearest-prototype classification (computed from class means)
        // should beat 80% easily if the clusters are real.
        let d = mnist_like(3_000, 6);
        let mut means = vec![vec![0.0f64; d.dim()]; 10];
        let mut counts = [0usize; 10];
        for e in d.iter() {
            let c = e.y as usize;
            counts[c] += 1;
            for (m, &v) in means[c].iter_mut().zip(e.x.as_slice()) {
                *m += v;
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c.max(1) as f64;
            }
        }
        let mut correct = 0usize;
        for e in d.iter() {
            let best = (0..10)
                .min_by(|&a, &b| {
                    let da: f64 = means[a]
                        .iter()
                        .zip(e.x.as_slice())
                        .map(|(m, v)| (m - v) * (m - v))
                        .sum();
                    let db: f64 = means[b]
                        .iter()
                        .zip(e.x.as_slice())
                        .map(|(m, v)| (m - v) * (m - v))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == e.y as usize {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.len() as f64;
        assert!(acc > 0.8, "nearest-prototype accuracy {acc}");
    }

    #[test]
    fn yelp_like_shape_and_imbalance() {
        let d = yelp_like(5_000, 2_000, 7);
        assert_eq!(d.num_classes(), 5);
        // 5-star reviews must dominate (weight 0.40).
        let five = d.iter().filter(|e| e.y == 4.0).count() as f64 / d.len() as f64;
        assert!((five - 0.40).abs() < 0.05, "5-star rate {five}");
        // Rows are L1-normalized bags of words.
        for e in d.iter().take(50) {
            let total: f64 = e.x.values().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "row sum {total}");
        }
    }

    #[test]
    fn synthetic_linear_truth_recoverable() {
        // With tiny noise, ordinary least squares on the data should land
        // near the ground truth; we check correlation of y with w·x.
        let (d, w) = synthetic_linear(5_000, 5, 0.01, 11);
        let mut resid = 0.0;
        for e in d.iter() {
            let pred: f64 = e.x.as_slice().iter().zip(&w).map(|(a, b)| a * b).sum();
            resid += (pred - e.y) * (pred - e.y);
        }
        resid = (resid / d.len() as f64).sqrt();
        assert!(resid < 0.02, "residual {resid}");
    }

    #[test]
    fn synthetic_logistic_labels_follow_margin() {
        let (d, w) = synthetic_logistic(20_000, 6, 3.0, 13);
        // Accuracy of the ground-truth classifier should match the
        // expected Bayes accuracy for this margin scale (> 0.8).
        let correct = d
            .iter()
            .filter(|e| {
                let margin: f64 = e.x.as_slice().iter().zip(&w).map(|(a, b)| a * b).sum();
                (margin > 0.0) == (e.y == 1.0)
            })
            .count() as f64;
        let acc = correct / d.len() as f64;
        assert!(acc > 0.8, "bayes accuracy {acc}");
    }

    #[test]
    fn synthetic_poisson_counts_are_nonnegative() {
        let (d, _) = synthetic_poisson(2_000, 4, 17);
        for e in d.iter() {
            assert!(e.y >= 0.0 && e.y == e.y.trunc());
        }
        let mean = d.iter().map(|e| e.y).sum::<f64>() / d.len() as f64;
        assert!((0.5..3.0).contains(&mean), "mean count {mean}");
    }

    #[test]
    fn synthetic_multiclass_is_separable() {
        let d = synthetic_multiclass(2_000, 8, 4, 19);
        assert_eq!(d.num_classes(), 4);
        assert_eq!(d.dim(), 8);
    }

    #[test]
    fn low_rank_gaussian_has_low_rank_structure() {
        let d = low_rank_gaussian(4_000, 12, 3, 0.05, 23);
        // Sample covariance spectrum: the top 3 eigenvalues should carry
        // almost all the variance. We check via total variance vs the
        // trace reconstruction from 3 principal directions... proxy:
        // average coordinate variance must exceed the noise floor.
        let mut var_sum = 0.0;
        for j in 0..12 {
            let mean: f64 = d.iter().map(|e| e.x.get(j)).sum::<f64>() / d.len() as f64;
            let var: f64 =
                d.iter().map(|e| (e.x.get(j) - mean).powi(2)).sum::<f64>() / d.len() as f64;
            var_sum += var;
        }
        assert!(var_sum > 12.0 * 0.05 * 0.05, "variance {var_sum} too small");
    }

    #[test]
    #[should_panic(expected = "needs d > 32")]
    fn criteo_like_rejects_tiny_dim() {
        let _ = criteo_like(10, 20, 0);
    }
}

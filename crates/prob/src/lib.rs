//! Probability and sampling substrate for BlinkML.
//!
//! The BlinkML paper leans on `numpy.random` plus a custom factored
//! multivariate-normal sampler (paper §4.3); this crate provides both from
//! scratch:
//!
//! * [`rng`] — deterministic, splittable RNG utilities built on
//!   `rand::StdRng`,
//! * [`normal`] — standard/scaled normal draws (Box–Muller) and the
//!   normal CDF/quantile pair used in tests and diagnostics,
//! * [`mvn`] — multivariate normal sampling through an abstract
//!   covariance *factor* `L` with `Σ = L Lᵀ`, so the caller can supply the
//!   implicit factored form BlinkML's ObservedFisher statistics produce,
//! * [`quantile`] — empirical quantiles and order statistics,
//! * [`bounds`] — Hoeffding machinery behind the paper's Lemma 2
//!   (conservative empirical-quantile levels) and the exact one-sided
//!   Clopper–Pearson bound on a violation rate,
//! * [`stats`] — Welford online mean/variance accumulators.

pub mod bounds;
pub mod discrete;
pub mod mvn;
pub mod normal;
pub mod quantile;
pub mod rng;
pub mod stats;

pub use bounds::{clopper_pearson_upper, conservative_level, hoeffding_deviation};
pub use discrete::{sample_bernoulli, sample_categorical, sample_poisson, ZipfSampler};
pub use mvn::{CovarianceFactor, DenseFactor, DiagonalFactor, MvnSampler};
pub use normal::{standard_normal_cdf, standard_normal_quantile, NormalSampler};
pub use quantile::{empirical_quantile, fraction_at_most};
pub use rng::{rng_from_seed, split_seed};
pub use stats::OnlineStats;

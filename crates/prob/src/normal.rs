//! Normal-distribution sampling and special functions.

use rand::Rng;

/// Box–Muller standard normal sampler with a cached spare value.
///
/// Implemented from scratch so the workspace carries no statistics
/// dependency; the polar (Marsaglia) variant is used to avoid
/// trigonometric calls.
#[derive(Debug, Clone, Default)]
pub struct NormalSampler {
    spare: Option<f64>,
}

impl NormalSampler {
    /// Fresh sampler with no cached spare.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draw one standard normal variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        loop {
            // u, v uniform on (-1, 1); accept when inside the unit disk.
            let u: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let v: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// Draw `n` standard normal variates into a fresh vector.
    pub fn sample_vec<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Standard normal CDF `Φ(x)`, accurate to ~1e-7 (Abramowitz–Stegun 7.1.26
/// rational approximation of `erf`).
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (max absolute error ≈ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal quantile `Φ⁻¹(p)` (Acklam's rational approximation,
/// relative error < 1.15e-9 on (0, 1)).
///
/// # Panics
/// Panics for `p` outside `(0, 1)`.
pub fn standard_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn sample_moments_are_standard() {
        let mut rng = rng_from_seed(1);
        let mut s = NormalSampler::new();
        let n = 200_000;
        let draws = s.sample_vec(&mut rng, n);
        let mean: f64 = draws.iter().sum::<f64>() / n as f64;
        let var: f64 = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn sample_tail_fractions_match_cdf() {
        let mut rng = rng_from_seed(2);
        let mut s = NormalSampler::new();
        let n = 100_000;
        let draws = s.sample_vec(&mut rng, n);
        for z in [-1.0, 0.0, 1.0, 2.0] {
            let frac = draws.iter().filter(|&&x| x <= z).count() as f64 / n as f64;
            let expect = standard_normal_cdf(z);
            assert!(
                (frac - expect).abs() < 0.01,
                "z={z}: frac {frac} vs cdf {expect}"
            );
        }
    }

    #[test]
    fn cdf_known_values() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_cdf(1.96) - 0.9750021).abs() < 1e-4);
        assert!((standard_normal_cdf(-1.96) - 0.0249979).abs() < 1e-4);
        assert!(standard_normal_cdf(8.0) > 0.9999999);
    }

    #[test]
    fn erf_known_values() {
        // The rational approximation's stated accuracy is ~1.5e-7.
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = standard_normal_quantile(p);
            let back = standard_normal_cdf(x);
            assert!((back - p).abs() < 1e-5, "p={p}: x={x}, back={back}");
        }
    }

    #[test]
    fn quantile_known_values() {
        assert!(standard_normal_quantile(0.5).abs() < 1e-9);
        assert!((standard_normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!((standard_normal_quantile(0.025) + 1.959964).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "quantile requires p in (0,1)")]
    fn quantile_rejects_invalid_p() {
        standard_normal_quantile(1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut s1 = NormalSampler::new();
        let mut s2 = NormalSampler::new();
        let a = s1.sample_vec(&mut rng_from_seed(9), 16);
        let b = s2.sample_vec(&mut rng_from_seed(9), 16);
        assert_eq!(a, b);
    }
}

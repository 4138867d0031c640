//! Level-1 kernels on plain `&[f64]` slices.
//!
//! BlinkML parameter vectors and per-example gradients are plain slices;
//! keeping the level-1 layer slice-based avoids committing every caller to
//! a wrapper type and lets the data crate operate on borrowed rows.

/// Dot product of two equally long slices.
///
/// # Panics
/// Panics if the slices have different lengths (programming error).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // Four-way unrolled accumulation: measurably faster than a naive fold
    // and with more stable rounding than a single running sum.
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm, computed with scaling to avoid overflow/underflow.
pub fn norm2(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &xi in x {
        if xi != 0.0 {
            let a = xi.abs();
            if scale < a {
                ssq = 1.0 + ssq * (scale / a).powi(2);
                scale = a;
            } else {
                ssq += (a / scale).powi(2);
            }
        }
    }
    scale * ssq.sqrt()
}

/// Infinity norm (max absolute entry); 0 for an empty slice.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

/// Elementwise `a - b` into a fresh vector.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Elementwise `a + b` into a fresh vector.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Cosine similarity between two vectors; 0 when either is (near-)zero.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let na = norm2(a);
    let nb = norm2(b);
    if na <= f64::EPSILON || nb <= f64::EPSILON {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Unbiased sample variance; 0 for fewer than two entries.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f64> = (0..23).map(|i| i as f64 * 0.5 - 3.0).collect();
        let b: Vec<f64> = (0..23).map(|i| (i as f64).sin()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn norm2_is_scale_safe() {
        // Entries near the overflow boundary must not overflow via squaring.
        let big = 1e200;
        let x = [big, big];
        assert!((norm2(&x) - big * 2.0f64.sqrt()).abs() / norm2(&x) < 1e-14);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn norm_inf_basics() {
        assert_eq!(norm_inf(&[1.0, -5.0, 3.0]), 5.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.5, -0.5, 10.0];
        let s = add(&a, &b);
        let back = sub(&s, &b);
        for (x, y) in back.iter().zip(&a) {
            assert!((x - y).abs() < 1e-15);
        }
    }

    #[test]
    fn cosine_similarity_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-15);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-15);
        assert!((cosine_similarity(&[1.0, 0.0], &[-2.0, 0.0]) + 1.0).abs() < 1e-15);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn mean_and_variance() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < 1e-15);
        // Unbiased sample variance of this classic example is 32/7.
        assert!((variance(&x) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}

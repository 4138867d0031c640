//! Online summary statistics (Welford's algorithm).

/// Numerically stable online mean/variance accumulator.
///
/// Used by the experiment harness to aggregate repeated runs and by the
/// variance-ratio study (paper Fig 9a) to estimate empirical parameter
/// variances without storing every draw.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Incorporate one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Incorporate a slice of observations.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Minimum observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        s.extend(&xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_and_singleton() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s1 = OnlineStats::new();
        s1.push(3.0);
        assert_eq!(s1.mean(), 3.0);
        assert_eq!(s1.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        whole.extend(&xs);

        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        a.extend(&xs[..37]);
        b.extend(&xs[37..]);
        a.merge(&b);

        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.extend(&[1.0, 2.0, 3.0]);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert!((a.mean() - before.mean()).abs() < 1e-15);
        assert_eq!(a.count(), before.count());

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert!((empty.mean() - before.mean()).abs() < 1e-15);
    }

    #[test]
    fn stable_for_large_offsets() {
        // Classic catastrophic-cancellation stress test.
        let mut s = OnlineStats::new();
        for i in 0..1000 {
            s.push(1e9 + (i % 2) as f64);
        }
        assert!((s.mean() - (1e9 + 0.5)).abs() < 1e-3);
        assert!((s.variance() - 0.25025).abs() < 1e-3);
    }
}

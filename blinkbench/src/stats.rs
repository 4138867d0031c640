//! Order statistics used by every report: medians, the tail percentile
//! a sample supports, completion-window rates, and the exclusive-method
//! quartiles `compare` uses (the same values Python's
//! `statistics.quantiles(values, n=4)` gives); plus the harness's
//! seeded sampler.

/// Candidate tail percentiles, lowest first.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// A timing sample reduced to what a report prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// Label of the highest percentile with at least [`MIN_BEYOND`]
    /// samples beyond it (`"p50"` when the sample is too small for any).
    pub tail_label: String,
    pub tail: f64,
    pub samples: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// xorshift64* — the harness's deterministic sampler (query mixes,
/// shuffles, matrix entries).
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Uniform on [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(p/100 · n)`.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The highest candidate percentile that still has at least
/// [`MIN_BEYOND`] samples strictly beyond its rank.
pub fn tail(values: &[f64]) -> (String, f64) {
    let v = sorted(values);
    if v.is_empty() {
        return ("p50".into(), 0.0);
    }
    let mut best = ("p50".to_string(), nearest_rank(&v, 50.0).0);
    for p in TAIL_PERCENTILES {
        let (value, beyond) = nearest_rank(&v, p);
        if beyond >= MIN_BEYOND {
            best = (format!("p{p}"), value);
        }
    }
    best
}

pub fn summarize(values: &[f64]) -> Summary {
    let (tail_label, tail) = tail(values);
    Summary {
        median: median(values),
        tail_label,
        tail,
        samples: values.len(),
    }
}

/// Completions per second over `span` seconds: the median of the
/// per-window rates over `windows` equal windows when the run completed
/// at least `min_per_window` operations per window on average, else the
/// plain count over the time to the last completion (a slow sequential
/// workload finishes too few operations to fill windows).
pub fn completion_rate(
    completions: &[f64],
    span: f64,
    windows: usize,
    min_per_window: usize,
) -> f64 {
    if completions.is_empty() || span <= 0.0 {
        return 0.0;
    }
    if completions.len() >= windows * min_per_window {
        let width = span / windows as f64;
        let mut counts = vec![0.0; windows];
        for &t in completions {
            let w = ((t / width) as usize).min(windows - 1);
            counts[w] += 1.0;
        }
        return median(&counts) / width;
    }
    let last = completions.iter().copied().fold(0.0, f64::max);
    completions.len() as f64 / last.max(f64::MIN_POSITIVE)
}

/// `(q1, q2, q3)` by the exclusive method of Python's
/// `statistics.quantiles(data, n=4)`; needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1..=100: p90 leaves exactly 10 beyond, p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), ("p90".to_string(), 90.0));
        // 1000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), ("p99".to_string(), 990.0));
        // 15 samples: not even p50 leaves ten beyond; report the median rank.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&v), ("p50".to_string(), 8.0));
        // 40 samples: p75 leaves 10 beyond.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), ("p75".to_string(), 30.0));
        let s = summarize(&v);
        assert_eq!((s.samples, s.median), (40, 20.5));
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        // 10 windows of 1 s; window 3 stalls (10 completions instead of 100).
        let mut t = Vec::new();
        for w in 0..10 {
            let count = if w == 3 { 10 } else { 100 };
            for k in 0..count {
                t.push(w as f64 + (k as f64 + 0.5) / count as f64);
            }
        }
        assert_eq!(completion_rate(&t, 10.0, 10, 10), 100.0);
        // Too few completions for windows: count over time to the last one.
        let t = [0.5, 1.0, 1.5, 2.0];
        assert_eq!(completion_rate(&t, 2.5, 10, 10), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}

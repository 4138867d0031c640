//! Concentration-bound machinery behind BlinkML's Lemma 2.
//!
//! BlinkML estimates `Pr[v(m_n) ≤ ε]` by Monte Carlo over `k` parameter
//! draws and must compensate for the Monte Carlo error itself. Lemma 2 of
//! the paper splits the confidence budget: the Monte Carlo estimate is
//! required to clear `(1−δ)/0.95` *plus* a Hoeffding deviation term that
//! holds with probability 0.95, so the two failure modes jointly stay
//! below `δ`.
//!
//! [`clopper_pearson_upper`] bounds the other side of the promise: the
//! true violation rate of a guarantee, from the violations counted over
//! seeded runs.
//!
//! **Deviation from the paper text.** Lemma 2 as printed uses
//! `sqrt(log 0.95 / (−2k))`; the Hoeffding step in its own proof requires
//! `exp(−2kt²) = 0.05`, i.e. `t = sqrt(ln 20 / (2k))`. We implement the
//! proof-consistent constant (documented in DESIGN.md §2.4). At the
//! paper's operating point (`δ = 0.05`) both variants clamp to level 1 —
//! the max of the `k` draws — so behaviour is identical there.

/// Confidence split between the Monte Carlo estimate and the Hoeffding
/// correction (the `0.95` appearing in Lemma 2).
const MC_CONFIDENCE: f64 = 0.95;

/// Hoeffding deviation `t` such that an empirical mean of `k` draws of a
/// `[0,1]` variable is within `t` of its expectation with probability at
/// least `confidence`.
///
/// # Panics
/// Panics for `k = 0` or `confidence` outside `(0, 1)`.
pub fn hoeffding_deviation(k: usize, confidence: f64) -> f64 {
    assert!(k > 0, "hoeffding_deviation requires k > 0");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1), got {confidence}"
    );
    // P(|mean - E| >= t) <= exp(-2kt²)  =>  t = sqrt(ln(1/(1-conf)) / 2k).
    ((1.0 / (1.0 - confidence)).ln() / (2.0 * k as f64)).sqrt()
}

/// The conservative empirical-quantile level of Lemma 2: the Monte Carlo
/// fraction `1/k Σ 1[v_i ≤ ε]` must reach this level for
/// `Pr[v(m_n) ≤ ε] ≥ 1 − δ` to hold.
///
/// The value is clamped to 1 (take the max of the `k` draws) whenever the
/// raw level exceeds 1, which is always the case at `δ ≤ 0.05`.
pub fn conservative_level(delta: f64, k: usize) -> f64 {
    assert!(
        delta > 0.0 && delta < 1.0,
        "delta must be in (0,1), got {delta}"
    );
    let raw = (1.0 - delta) / MC_CONFIDENCE + hoeffding_deviation(k, MC_CONFIDENCE);
    raw.min(1.0)
}

/// One-sided Clopper–Pearson upper confidence bound on a binomial
/// rate: the largest `p` for which observing at most `successes` in
/// `trials` independent Bernoulli(`p`) draws still has probability at
/// least `1 − confidence`. With `confidence = 0.95` it bounds, say, a
/// guarantee's true violation rate from `successes` violations in
/// `trials` seeded runs: 0.0487 for 0 of 60, and 0.1391 for 0 of 20.
///
/// The binomial tail is summed exactly (term by term in log space) and
/// the bound found by bisection on `p`; `successes = trials` gives 1.
///
/// # Panics
/// Panics for `trials = 0`, `successes > trials`, or `confidence`
/// outside `(0, 1)`.
pub fn clopper_pearson_upper(successes: usize, trials: usize, confidence: f64) -> f64 {
    assert!(trials > 0, "clopper_pearson_upper requires trials > 0");
    assert!(
        successes <= trials,
        "{successes} successes exceed {trials} trials"
    );
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1), got {confidence}"
    );
    if successes == trials {
        return 1.0;
    }
    // Pr[Bin(trials, p) ≤ successes], decreasing in p.
    let cdf = |p: f64| {
        let (ln_p, ln_q) = (p.ln(), (-p).ln_1p());
        let mut ln_term = trials as f64 * ln_q;
        let mut sum = ln_term.exp();
        for i in 1..=successes {
            ln_term += ((trials - i + 1) as f64 / i as f64).ln() + ln_p - ln_q;
            sum += ln_term.exp();
        }
        sum
    };
    let alpha = 1.0 - confidence;
    // 64 halvings of [0, 1] leave an interval below one ulp of any
    // bound that matters (2⁻⁶⁴ ≈ 5e-20).
    let (mut lo, mut hi) = (0.0, 1.0);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) > alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clopper_pearson_matches_the_exact_binomial_figures() {
        // 95% one-sided upper bounds at R = 60 for 0, 1 and 2
        // violations, and at R = 20 for 0 (the closed form for zero
        // successes is 1 − α^{1/R}).
        let cases = [
            (0, 60, 0.0487),
            (1, 60, 0.0766),
            (2, 60, 0.1012),
            (0, 20, 0.1391),
        ];
        for (k, r, want) in cases {
            let got = clopper_pearson_upper(k, r, 0.95);
            assert!((got - want).abs() < 5e-5, "{k}/{r}: {got} vs {want}");
        }
        let closed = 1.0 - 0.05f64.powf(1.0 / 60.0);
        assert!((clopper_pearson_upper(0, 60, 0.95) - closed).abs() < 1e-12);
    }

    #[test]
    fn clopper_pearson_is_one_at_all_successes_and_monotone() {
        assert_eq!(clopper_pearson_upper(60, 60, 0.95), 1.0);
        assert_eq!(clopper_pearson_upper(1, 1, 0.95), 1.0);
        for r in [1, 20, 60] {
            let bounds: Vec<f64> = (0..=r).map(|k| clopper_pearson_upper(k, r, 0.95)).collect();
            for w in bounds.windows(2) {
                assert!(w[0] < w[1], "R = {r}: {bounds:?} not increasing");
            }
        }
        // More confidence, wider bound.
        assert!(clopper_pearson_upper(1, 60, 0.99) > clopper_pearson_upper(1, 60, 0.95));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn clopper_pearson_rejects_more_successes_than_trials() {
        clopper_pearson_upper(3, 2, 0.95);
    }

    #[test]
    fn deviation_shrinks_with_k() {
        let t10 = hoeffding_deviation(10, 0.95);
        let t100 = hoeffding_deviation(100, 0.95);
        let t1000 = hoeffding_deviation(1000, 0.95);
        assert!(t10 > t100 && t100 > t1000);
        // sqrt(ln 20 / 200) ≈ 0.12238 for k=100.
        assert!((t100 - 0.12238).abs() < 1e-4);
    }

    #[test]
    fn deviation_grows_with_confidence() {
        assert!(hoeffding_deviation(100, 0.99) > hoeffding_deviation(100, 0.9));
    }

    #[test]
    fn level_clamps_at_small_delta() {
        // δ = 0.05: raw level is 1 + t > 1, so clamped to the max draw.
        assert_eq!(conservative_level(0.05, 100), 1.0);
        assert_eq!(conservative_level(0.01, 100), 1.0);
    }

    #[test]
    fn level_tightens_with_k_for_larger_delta() {
        // δ = 0.2: the level is below 1 and decreases with k,
        // reproducing the paper's "larger k gives tighter ε".
        let l100 = conservative_level(0.2, 100);
        let l10000 = conservative_level(0.2, 10_000);
        assert!(l100 < 1.0);
        assert!(l10000 < l100);
        assert!(l10000 > (1.0 - 0.2) / 0.95 - 1e-12);
    }

    #[test]
    fn level_is_always_at_least_target() {
        // The conservative level can never be below (1-δ): the adjustment
        // only adds slack.
        for delta in [0.05, 0.1, 0.2, 0.5] {
            for k in [10, 100, 1000] {
                assert!(conservative_level(delta, k) >= 1.0 - delta);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k > 0")]
    fn deviation_rejects_zero_k() {
        hoeffding_deviation(0, 0.95);
    }

    #[test]
    #[should_panic(expected = "delta must be in (0,1)")]
    fn level_rejects_bad_delta() {
        conservative_level(0.0, 100);
    }
}

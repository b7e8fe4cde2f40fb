//! Order statistics over small samples of timings.

/// Sorted copy of `xs`. Panics on NaN: a timing is never NaN.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Linear-interpolated percentile `p` in `[0, 100]` of an unsorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let v = sorted(xs);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// First and third quartile by the "exclusive" method, the one Python's
/// `statistics.quantiles(xs, n=4)` uses — the driver measures spread with
/// it, so the A/A gate must too.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let v = sorted(xs);
    let n = v.len();
    let at = |k: usize| {
        // Python: j = k(n+1) div 4 clamped to [1, n-1]; the remainder is
        // taken after the clamp, so short samples extrapolate.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// The highest percentile, capped at 99, that still has at least ten
/// samples beyond it; the median when the sample is too small for any
/// tail to be resolved.
pub fn tail_percentile(n: usize) -> f64 {
    if n < 20 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).clamp(50.0, 99.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
        assert_eq!(percentile(&xs, 25.0), 20.0);
        assert_eq!(percentile(&xs, 90.0), 46.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((iqr_over_median(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(3), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(8000), 99.0);
        for n in [20usize, 33, 250, 999] {
            let beyond = n as f64 * (1.0 - tail_percentile(n) / 100.0);
            assert!(beyond >= 10.0 - 1e-9, "n={n}: {beyond} beyond");
        }
    }
}

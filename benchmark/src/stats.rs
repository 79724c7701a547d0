//! Order statistics over small `f64` samples.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count). Panics on an empty
/// sample: every caller measured at least one rep.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in `[0, 100]`: the smallest sample with at
/// least `p` % of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = (p.clamp(0.0, 100.0) / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(xs, n=4)` (the
/// "exclusive" method), so the harness and an outside checker agree.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    if v.len() < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0, 9.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0, 9.0], 51.0), 9.0);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_frac(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr_frac(&[1.0]), 0.0);
    }
}

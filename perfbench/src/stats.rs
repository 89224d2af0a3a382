//! Order statistics over latency samples.

/// Fewest samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of ascending `sorted` (`q` in (0, 1]).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `q`-quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Fewest samples for which the `q`-quantile has [`MIN_BEYOND`] samples
/// beyond it.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= MIN_BEYOND)
        .expect("some sample count leaves enough samples beyond")
}

/// The `q`-quantile of `sorted`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (the tail is then not resolved).
pub fn tail_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    (!sorted.is_empty() && beyond(sorted.len(), q) >= MIN_BEYOND).then(|| quantile(sorted, q))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `values` (0 for none).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        let v: Vec<u64> = (0..999).collect();
        assert_eq!(tail_quantile(&v, 0.99), None);
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(beyond(v.len(), 0.99), 10);
        assert_eq!(tail_quantile(&v, 0.99), Some(989));
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn a_failed_request_moves_the_tail() {
        // Failures are recorded at the deadline, which lies above any
        // limit, so eleven of them in 1000 push p99 to the deadline.
        let deadline = 1_000_000;
        let mut v: Vec<u64> = vec![100; 989];
        v.extend(std::iter::repeat_n(deadline, 11));
        assert_eq!(tail_quantile(&v, 0.99), Some(deadline));
        v.pop();
        v.push(100);
        v.sort_unstable();
        assert_eq!(tail_quantile(&v, 0.99), Some(100));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1, 2, 3]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}

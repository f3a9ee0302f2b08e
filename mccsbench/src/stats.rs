//! The only two statistics the benchmark reports: the median (of samples,
//! and of equal-work repetitions), and a nearest-rank high percentile that
//! is refused unless at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are benchmark bugs.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Number of samples strictly beyond the nearest-rank `p`-quantile of `n`
/// samples (`0 < p < 1`).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Nearest-rank `p`-quantile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it: a percentile resting on a
/// handful of samples is the noise of its largest ones.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} out of (0, 1)");
    if xs.is_empty() || samples_beyond(xs.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = (p * v.len() as f64).ceil() as usize;
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn median_ignores_one_slow_repetition() {
        // Equal-work repetitions where the host stalled once: the median
        // stays with the typical repetition, where a mean or max would not.
        let reps = [1.00, 1.02, 0.99, 1.01, 9.0];
        assert_eq!(median(&reps), 1.01);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut xs: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 2000) as f64).collect();
        let a = percentile(&xs, 0.99);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(a, percentile(&xs, 0.99));
    }
}

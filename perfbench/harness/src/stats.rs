//! Order statistics shared by every workload.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0.0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples a percentile needs beyond it before it may be named.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in percent) of `xs`, or `None` when the
/// sample has fewer than [`MIN_BEYOND`] values strictly beyond the rank,
/// so a thin tail is never reported as a percentile. The rank itself is
/// the repository's shared nearest-rank rule.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    if v.len() < rank.max(1) + MIN_BEYOND {
        return None;
    }
    Some(vsnoop::obs::metrics::percentile(&v, p))
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        // Unsorted input gives the same answer.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 99.0), Some(990.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond rank 990: named.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(percentile(&xs, 99.0).is_some());
        // 999 samples: rank 990 leaves 9 beyond: refused.
        assert_eq!(percentile(&xs[..999], 99.0), None);
        // p50 needs 20 samples.
        assert!(percentile(&xs[..20], 50.0).is_some());
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}

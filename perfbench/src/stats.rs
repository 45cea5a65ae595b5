//! Order statistics over raw samples: nearest-rank percentiles, the median,
//! and the highest percentile a sample supports. No histogram buckets — every
//! percentile is one of the measured values.

/// The nearest-rank `p`-th percentile (0 < p <= 100) of `sorted`, which must
/// be sorted ascending: the smallest value with at least `p`% of the samples
/// at or below it. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(sorted.len(), p);
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// product is nudged down by a relative 1e-9 so that, say, 99.9% of 10,000
/// is rank 9,990 and not the 9,991 that binary rounding would give.
fn nearest_rank(n: usize, p: f64) -> usize {
    let x = p.clamp(0.0, 100.0) / 100.0 * n as f64;
    ((x - 1e-9 * x).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly above the nearest-rank `p`-th percentile
/// of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// The percentiles this benchmark may report, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile on [`LADDER`] with at least ten samples beyond it,
/// or `None` when even the median has fewer than ten.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median of `values` (the mean of the middle pair for an even count),
/// or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The arithmetic mean, or `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_measured_value() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        // Rank rounds up: p50 of 5 samples is the 3rd.
        assert_eq!(percentile(&ramp(5), 50.0), Some(3.0));
        // Never interpolates between samples.
        assert_eq!(percentile(&[1.0, 10.0], 75.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn samples_beyond_counts_strictly_larger_ranks() {
        assert_eq!(samples_beyond(100, 50.0), 50);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}

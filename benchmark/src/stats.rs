//! Order statistics for host-time samples.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every metric is backed by at least one
/// repeat, so an empty sample set is harness breakage.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean, the average for ratios and per-program rows.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / values.len() as f64)
        .exp()
}

/// Nearest-rank percentile `p` (0..100) of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The percentiles a tail metric may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail percentile is only meaningful with samples beyond it.
const MIN_BEYOND: usize = 10;

/// The tail of a sample set: the value at percentile `wanted`, or — when
/// fewer than ten samples lie beyond it — at the highest percentile of
/// the ladder that does have ten beyond. Returns `(percentile, value)`
/// so the caller can report which one it got.
pub fn tail(samples: &[f64], wanted: f64) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let beyond = |p: f64| n - ((p / 100.0 * n as f64).ceil() as usize).min(n);
    let p = TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| beyond(p) >= MIN_BEYOND)
        .unwrap_or(50.0);
    (p, percentile_sorted(&sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 4000 samples: 40 beyond p99.
        assert_eq!(tail(&samples(4000), 99.0), (99.0, 3960.0));
        // 1000 samples: exactly 10 beyond p99.
        assert_eq!(tail(&samples(1000), 99.0).0, 99.0);
        // 999 samples: 9 beyond p99, 49 beyond p95.
        assert_eq!(tail(&samples(999), 99.0).0, 95.0);
        // 150 samples: p95 leaves 7, p90 leaves 15.
        assert_eq!(tail(&samples(150), 99.0), (90.0, 135.0));
        // 30 samples: only the median has ten beyond.
        assert_eq!(tail(&samples(30), 99.0).0, 50.0);
        // Too few for anything: still the median, never a panic.
        assert_eq!(tail(&samples(5), 99.0), (50.0, 3.0));
    }
}

//! Order statistics over timing samples.

/// Percentiles a latency tail may be quoted at, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a quoted percentile for it to mean
/// anything: a tail read off fewer samples is one or two outliers.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The median of the samples (any order).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// above its rank, as `(percentile, value)`; the median when even that
/// has too few samples beyond it.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let p = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| v.len() - rank(v.len(), p) >= MIN_BEYOND)
        .unwrap_or(LADDER[0]);
    (p, percentile(&v, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 200 samples: p95 is rank 190, leaving exactly 10 above it;
        // p99 would leave 2.
        assert_eq!(tail(&ramp(200)), (95.0, 190.0));
        // 199 samples: p95 rank is 190 (9 above), so p90 (rank 180).
        assert_eq!(tail(&ramp(199)), (90.0, 180.0));
        // 1000 samples reach p99 (rank 990, 10 above) but not p99.9.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        // 78 samples: p75 rank 59 leaves 19, p90 rank 71 leaves 7.
        assert_eq!(tail(&ramp(78)), (75.0, 59.0));
    }

    #[test]
    fn tail_falls_back_to_the_median_on_tiny_samples() {
        assert_eq!(tail(&ramp(5)), (50.0, 3.0));
    }

    #[test]
    fn tail_and_median_ignore_sample_order() {
        let mut v = ramp(220);
        v.reverse();
        assert_eq!(tail(&v), tail(&ramp(220)));
        assert_eq!(median(&v), 110.0);
    }

    #[test]
    fn every_reported_tail_leaves_ten_samples_beyond() {
        for n in 1..1500 {
            let v = ramp(n);
            let (p, x) = tail(&v);
            let beyond = v.iter().filter(|&&s| s > x).count();
            assert!(p == 50.0 || beyond >= MIN_BEYOND, "n={n} p={p}");
        }
    }
}

//! Order statistics over host-time samples.

/// Median of `samples` (mean of the middle pair for an even count);
/// `0.0` when there are none.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`; `0.0` when
/// there are none.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=108).map(f64::from).collect();
        assert_eq!(median(&xs), 54.5);
        assert_eq!(percentile(&xs, 90.0), 98.0);
        // Nearest rank 98 of 108 leaves ten samples beyond p90.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}

//! Order statistics for the benchmark's reports.

/// Minimum number of samples that must lie above a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-th percentile of `samples` (0 < p < 100).
///
/// Refuses (returns an error) when fewer than [`MIN_TAIL_SAMPLES`] samples
/// lie above the percentile's rank: such a tail is one or two unlucky
/// samples, not a measurement.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_TAIL_SAMPLES} are needed"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `total / count`, or 0 when nothing was counted.
pub fn mean(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(
            percentile(&samples, 90.0).is_err(),
            "99 samples leave 9 above p90"
        );
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Ok(90.0));
        assert!(percentile(&samples, 99.0).is_err());
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Ok(990.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_sorts_its_input() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Ok(20.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

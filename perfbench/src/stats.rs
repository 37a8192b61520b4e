//! Order statistics of timing samples.

/// Median of `values` (mean of the two middle values for an even count).
///
/// Returns `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Number of samples that must lie above a reported tail percentile.
pub const TAIL_EXCEEDANCES: usize = 10;

/// The highest percentile of a sample with at least [`TAIL_EXCEEDANCES`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Zero-based rank of the value in ascending order.
    pub rank: usize,
    /// Number of samples.
    pub samples: usize,
    /// The percentile the rank represents, `100 · (rank + 1) / samples`.
    pub percentile: f64,
}

/// The tail of `values`: the value with [`TAIL_EXCEEDANCES`] samples above
/// it, or the maximum when there are too few samples for that.
///
/// Returns `None` for an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let samples = sorted.len();
    let rank = samples
        .checked_sub(TAIL_EXCEEDANCES + 1)
        .unwrap_or(samples.checked_sub(1)?);
    Some(Tail {
        value: sorted[rank],
        rank,
        samples,
        percentile: 100.0 * (rank + 1) as f64 / samples as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let values: Vec<f64> = (0..40).map(f64::from).collect();
        let tail = tail(&values).unwrap();
        assert_eq!((tail.rank, tail.samples, tail.value), (29, 40, 29.0));
        assert_eq!(values.iter().filter(|&&v| v > tail.value).count(), 10);
        assert_eq!(tail.percentile, 75.0);
    }

    #[test]
    fn short_samples_report_the_maximum() {
        let tail = tail(&[1.0, 5.0, 2.0]).unwrap();
        assert_eq!((tail.rank, tail.value), (2, 5.0));
        assert!(super::tail(&[]).is_none());
    }
}

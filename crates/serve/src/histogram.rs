//! Log2-bucketed latency histogram with exact-rank percentile extraction.
//!
//! Values up to 15 µs land in exact unit buckets; above that, each power of
//! two is split into 16 linear sub-buckets, so any recorded value is
//! resolved to within 1/16 (6.25 %) of its magnitude while the whole
//! 64-bit range fits in a fixed 976-slot table.  Percentile extraction is
//! **rank-exact**: the cumulative walk selects precisely the ⌈p·N⌉-th
//! smallest sample's bucket and reports that bucket's upper bound (clamped
//! to the exact observed maximum), so p50/p99 never under-report.
//!
//! Histograms are plain value types: each shard's latencies land in a
//! histogram of its own, which `Plan::virtual_latency` then
//! [`LatencyHistogram::merge`]s — no shared state between shards.

/// Sub-buckets per power of two (and the width of the exact unit range).
const SUB_BUCKETS: usize = 16;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;
/// Bucket count covering the full `u64` range: 16 exact unit buckets plus
/// 16 sub-buckets for each of the 60 remaining leading-bit positions.
const BUCKETS: usize = SUB_BUCKETS * 61;

/// Fixed-size latency histogram over microsecond values.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `value_us`.
    fn index(value_us: u64) -> usize {
        if value_us < SUB_BUCKETS as u64 {
            return value_us as usize;
        }
        let msb = 63 - value_us.leading_zeros();
        let group = (msb - SUB_BITS + 1) as usize;
        let sub = ((value_us >> (msb - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        group * SUB_BUCKETS + sub
    }

    /// Upper bound (inclusive) of the bucket at `index`.
    fn bucket_high(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let group = (index / SUB_BUCKETS) as u32;
        let sub = (index % SUB_BUCKETS) as u64;
        let low = (SUB_BUCKETS as u64 + sub) << (group - 1);
        // Parenthesised so the top bucket's bound, u64::MAX, never passes
        // through 2^64.
        low + ((1u64 << (group - 1)) - 1)
    }

    // optima-lint: hot
    /// Records one latency sample.
    pub fn record(&mut self, value_us: u64) {
        self.counts[Self::index(value_us)] += 1;
        self.total += 1;
        self.min = self.min.min(value_us);
        self.max = self.max.max(value_us);
    }
    // optima-lint: end-hot

    /// Resets to empty, keeping the storage.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Folds another histogram into this one (shard merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact minimum recorded value, or 0 when empty.
    pub fn min_us(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value.
    pub fn max_us(&self) -> u64 {
        self.max
    }

    /// The `quantile`-th percentile (e.g. `0.99`), resolved to the selected
    /// sample's bucket upper bound and clamped to the exact maximum.
    ///
    /// Returns 0 for an empty histogram.  `quantile` is clamped to `[0, 1]`;
    /// NaN is treated as 1.0 (the conservative end).
    pub fn percentile(&self, quantile: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let quantile = if quantile.is_nan() {
            1.0
        } else {
            quantile.clamp(0.0, 1.0)
        };
        let rank = ((quantile * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_high(index).min(self.max);
            }
        }
        self.max
    }

    /// Median latency.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference percentile: the ⌈p·N⌉-th smallest sample, exactly.
    fn exact_percentile(sorted: &[u64], quantile: f64) -> u64 {
        let rank = ((quantile * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn small_values_are_recorded_exactly() {
        let mut hist = LatencyHistogram::new();
        for v in [0u64, 1, 5, 15, 15, 3] {
            hist.record(v);
        }
        assert_eq!(hist.count(), 6);
        assert_eq!(hist.min_us(), 0);
        assert_eq!(hist.max_us(), 15);
        assert_eq!(hist.percentile(1.0), 15);
        assert_eq!(hist.p50(), 3);
    }

    #[test]
    fn bucket_bounds_bracket_every_value() {
        // Every value must land in a bucket whose range contains it, with
        // width at most 1/16 of the value.
        let mut value = 1u64;
        while value < u64::MAX / 3 {
            for v in [value, value + value / 3] {
                let index = LatencyHistogram::index(v);
                let high = LatencyHistogram::bucket_high(index);
                assert!(high >= v, "value {v}: high {high}");
                assert!(
                    high - v <= v / SUB_BUCKETS as u64 + 1,
                    "value {v}: bucket too wide (high {high})"
                );
            }
            value = value.saturating_mul(3) / 2 + 1;
        }
    }

    #[test]
    fn percentiles_match_the_exact_rank_within_bucket_resolution() {
        // A deterministic heavy-tailed sample set.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut samples: Vec<u64> = (0..5000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1_000) * (state % 97) + state % 50_000
            })
            .collect();
        let mut hist = LatencyHistogram::new();
        for &sample in &samples {
            hist.record(sample);
        }
        samples.sort_unstable();
        for quantile in [0.5, 0.9, 0.99, 1.0] {
            let exact = exact_percentile(&samples, quantile);
            let bucketed = hist.percentile(quantile);
            assert!(bucketed >= exact, "q{quantile}: {bucketed} < {exact}");
            assert!(
                bucketed - exact <= exact / 16 + 1,
                "q{quantile}: {bucketed} overshoots {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_into_one_histogram() {
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for v in 0..500u64 {
            let value = v * v % 7919;
            if v % 2 == 0 {
                left.record(value);
            } else {
                right.record(value);
            }
            combined.record(value);
        }
        left.merge(&right);
        assert_eq!(left.count(), combined.count());
        assert_eq!(left.max_us(), combined.max_us());
        assert_eq!(left.min_us(), combined.min_us());
        for quantile in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(left.percentile(quantile), combined.percentile(quantile));
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let hist = LatencyHistogram::new();
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.percentile(0.5), 0);
        assert_eq!(hist.min_us(), 0);
    }

    #[test]
    fn top_bucket_percentiles_reach_u64_max() {
        let mut hist = LatencyHistogram::new();
        hist.record(u64::MAX);
        assert_eq!(hist.p99(), u64::MAX);
        assert_eq!(hist.p50(), u64::MAX);
    }

    #[test]
    fn clear_resets_without_reallocating() {
        let mut hist = LatencyHistogram::new();
        hist.record(12345);
        hist.clear();
        assert_eq!(hist.count(), 0);
        hist.record(7);
        assert_eq!(hist.p50(), 7);
    }
}

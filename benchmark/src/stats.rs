//! Order statistics and a fixed-size latency histogram.

/// Linearly interpolated percentile (`q` in `0..=1`) of `values`, which
/// need not be sorted. `NaN` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the exclusive method), which is what the driver
/// judges run-to-run spread by.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| -> f64 {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median: the spread
/// the benchmark's bounds are compared with.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Sub-buckets per power of two: a recorded value is off by at most
/// 1/(2·256) of itself.
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
const OCTAVES: usize = 40;

/// Log-linear histogram of nanosecond values; anything above 2^47 ns
/// (a day and a half) lands in the last bucket.
///
/// Fixed in size, so the memory the benchmark itself needs does not grow
/// with the number of ops the program under test completes — that would
/// couple `peak_rss_mb` to `ops_per_s`.
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    pub fn new() -> Self {
        LogHist {
            counts: vec![0; OCTAVES * SUB],
            total: 0,
            sum: 0,
        }
    }

    fn bucket(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros();
        let shift = octave - SUB_BITS;
        let sub = ((value >> shift) as usize) & (SUB - 1);
        let index = (shift as usize + 1) * SUB + sub;
        index.min(OCTAVES * SUB - 1)
    }

    /// Lowest value of bucket `index` and the number of values it spans.
    fn span_of(index: usize) -> (f64, f64) {
        if index < SUB {
            return (index as f64, 1.0);
        }
        let shift = (index / SUB - 1) as u32;
        let sub = (index % SUB) as u64;
        (((SUB as u64 + sub) << shift) as f64, (1u64 << shift) as f64)
    }

    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::bucket(nanos)] += 1;
        self.total += 1;
        self.sum += nanos as u128;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        self.sum as f64 / self.total as f64
    }

    /// The value below which a share `q` of the samples lie, interpolated
    /// inside the bucket it falls in (samples taken as evenly spread over
    /// their bucket), so that it varies smoothly with the data.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).clamp(1.0, self.total as f64);
        let mut seen = 0.0;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 && seen + count as f64 >= target {
                let (lo, width) = Self::span_of(index);
                return lo + (width - 1.0) * (target - seen) / count as f64;
            }
            seen += count as f64;
        }
        Self::span_of(self.counts.len() - 1).0
    }

    /// Samples strictly above the bucket [`Self::quantile`] returns for
    /// `q` — the "how many lie beyond it" a percentile is quoted with.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        let at = Self::bucket(self.quantile(q) as u64);
        self.counts[at + 1..].iter().sum()
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 0.25), 20.0);
        assert_eq!(percentile(&[1.0, 2.0], 1.0), 2.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn mad_is_the_median_distance_from_the_median() {
        // Median 3; distances 2,1,0,1,6 -> median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((iqr_share(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_are_within_bucket_precision() {
        let mut h = LogHist::new();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        assert_eq!(h.count(), 100_000);
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.999, 999_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 1.0 / 256.0,
                "q{q}: {got} vs {exact}"
            );
        }
        assert!((h.mean() - 500_005.0).abs() < 1e-6);
        let beyond = h.samples_beyond(0.99);
        assert!((600..=1_000).contains(&beyond), "{beyond}");
    }

    #[test]
    fn histogram_small_and_huge_values_land_in_range() {
        let mut h = LogHist::new();
        h.record(0);
        h.record(255);
        h.record(256);
        h.record(u64::MAX);
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.25), 0.0);
        assert_eq!(h.quantile(0.5), 255.0);
        assert_eq!(h.quantile(0.75), 256.0);
        assert!(h.quantile(1.0) > 1e12);
        let mut other = LogHist::new();
        other.record(7);
        h.merge(&other);
        assert_eq!(h.count(), 5);
    }
}

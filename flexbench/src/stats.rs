//! Order statistics for the measuring code: medians and quartiles over
//! repetitions, which percentile a sample count supports, and a
//! fixed-memory log-bucketed histogram for per-callback durations
//! (`flexcast_telemetry::Histogram` buckets the same way but cannot be
//! merged, and per-actor histograms have to be).

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the acceptance rule for this benchmark is stated in those terms, so
/// `compare` must reproduce it digit for digit. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median — the "spread" the
/// acceptance rule bounds. `None` below two values or at a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest of p99.9 / p99 / p90 / p50 that still has at least ten
/// samples beyond it among `n` samples: a tail estimate resting on fewer
/// is the value of a handful of outliers, not a percentile.
pub fn tail_percentile(n: usize) -> f64 {
    for (p, beyond) in [(99.9, 0.001), (99.0, 0.01), (90.0, 0.1)] {
        if (n as f64 * beyond).floor() >= 10.0 {
            return p;
        }
    }
    50.0
}

const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

/// Log-bucketed histogram of nanosecond durations: eight sub-buckets per
/// power of two (≤ 12.5 % quantisation), constant memory however many
/// samples arrive — the "histograms unbounded" half of the span store.
#[derive(Clone, Debug, Default)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
        (((exp - SUB_BITS + 1) as u64) * SUB + sub) as usize
    }

    /// Upper edge of bucket `i` (the value reported for a percentile).
    fn upper(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let exp = i / SUB + SUB_BITS as u64 - 1;
        let sub = i % SUB;
        ((SUB + sub + 1) << (exp - SUB_BITS as u64)) - 1
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        let i = Self::index(ns);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum += ns;
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations, in nanoseconds (exact).
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Mean duration in nanoseconds; 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile, reported at the holding bucket's upper
    /// edge; 0 when empty.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * self.count as f64 - 1e-9).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper(i);
            }
        }
        Self::upper(self.buckets.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_reps() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn hist_buckets_are_contiguous_and_tight() {
        // Every value lands in a bucket whose upper edge is ≥ the value
        // and within 12.5 % of it; edges increase strictly.
        let mut prev = None;
        for i in 0..200 {
            let up = Hist::upper(i);
            assert_eq!(Hist::index(up), i, "upper edge of {i} maps back");
            if let Some(p) = prev {
                assert!(up > p);
                assert_eq!(Hist::index(p + 1), i, "no gap below bucket {i}");
            }
            prev = Some(up);
        }
        for v in [0u64, 1, 7, 8, 9, 100, 1_000, 123_456, 9_999_999_999] {
            let up = Hist::upper(Hist::index(v));
            assert!(
                up >= v && (up - v) as f64 <= v as f64 * 0.125 + 1.0,
                "{v} → {up}"
            );
        }
    }

    #[test]
    fn hist_percentiles_and_merge() {
        let mut h = Hist::default();
        assert_eq!(h.percentile_ns(99.0), 0);
        assert_eq!(h.mean_ns(), 0.0);
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum_ns(), 100 * 500_500);
        let p50 = h.percentile_ns(50.0) as f64;
        assert!((p50 - 50_000.0).abs() <= 50_000.0 * 0.125, "p50 {p50}");
        let p99 = h.percentile_ns(99.0) as f64;
        assert!((p99 - 99_000.0).abs() <= 99_000.0 * 0.125, "p99 {p99}");
        let mut g = Hist::default();
        g.record(10_000_000);
        g.merge(&h);
        assert_eq!(g.count(), 1001);
        assert!(g.percentile_ns(100.0) >= 10_000_000);
    }
}

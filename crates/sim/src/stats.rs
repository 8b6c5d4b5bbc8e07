//! Sample statistics: percentiles, CDFs, and summaries.
//!
//! The paper reports 90th/95th/99th-percentile latencies (Tables 2 and 3)
//! and CDF plots (Figures 5 and 7); [`Summary`] produces both from raw
//! latency samples. [`SimStats`] is the simulator's own throughput
//! counter block, reported by the sweep binaries.

use std::borrow::Cow;

use flexcast_telemetry::Telemetry;

use crate::SimTime;

/// Throughput counters of one simulation run, snapshotted from
/// [`World::stats`](crate::World::stats).
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Events processed (queue pops).
    pub events: u64,
    /// Messages sent, including ones later dropped.
    pub sent_messages: u64,
    /// Messages lost to partitions, faults, or crashed destinations.
    pub dropped_messages: u64,
    /// The deepest the event queue has been.
    pub peak_queue_depth: usize,
    /// Simulated time reached.
    pub sim_time: SimTime,
    /// Events processed per shard, indexed by shard id. Sums to `events`;
    /// a single entry on a sequential world.
    pub events_by_shard: Vec<u64>,
}

impl SimStats {
    /// Events processed per wall-clock second, given the measured wall
    /// time of the run.
    pub fn events_per_sec(&self, wall_secs: f64) -> f64 {
        if wall_secs > 0.0 {
            self.events as f64 / wall_secs
        } else {
            0.0
        }
    }

    /// Publishes the counter block into a telemetry registry under the
    /// `sim.` prefix. Uses absolute sets, so re-exporting after further
    /// progress overwrites rather than double-counts.
    ///
    /// Per-shard counts are deliberately *not* exported: the metrics JSON
    /// must stay byte-identical across shard counts, and `events_by_shard`
    /// is the one field that legitimately varies with the cut.
    pub fn export_metrics(&self, tel: &Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        tel.counter_set("sim.events", self.events);
        tel.counter_set("sim.sent_messages", self.sent_messages);
        tel.counter_set("sim.dropped_messages", self.dropped_messages);
        tel.counter_set("sim.peak_queue_depth", self.peak_queue_depth as u64);
        tel.gauge_set("sim.time_ms", self.sim_time.as_ms());
    }
}

/// The full percentile set reported by the sweeps, from one sort pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

/// A collection of `f64` samples with percentile and CDF queries.
///
/// Samples are kept raw, so insertion is O(1) and exact percentiles (not
/// sketch approximations) are reported — feasible because a simulated
/// experiment produces at most a few hundred thousand samples. Queries
/// take `&self`: a summary that has been [`Summary::sort`]ed (the harness
/// does this once at collect time) answers from the sorted samples
/// directly, while an unsorted one falls back to sorting a clone — always
/// correct, just not worth repeating in a hot loop.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Adds a sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite());
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sorts the samples in place so subsequent reads are allocation-free.
    /// Reads on an unsorted summary still work (they sort a clone), so
    /// this is an optimization hook, not a correctness requirement.
    pub fn sort(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// The samples in ascending order: borrowed when already sorted,
    /// otherwise a sorted clone.
    fn sorted_samples(&self) -> Cow<'_, [f64]> {
        if self.sorted {
            Cow::Borrowed(&self.samples[..])
        } else {
            let mut v = self.samples.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            Cow::Owned(v)
        }
    }

    fn percentile_of(sorted: &[f64], p: f64) -> f64 {
        debug_assert!(!sorted.is_empty());
        let n = sorted.len();
        // The epsilon absorbs float noise in p/100*n (e.g. 99.9% of 1000
        // evaluating to 999.0000000000001 and ceiling one rank too high);
        // it is far below the 1/n rank granularity of any real sample set.
        let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
        sorted[rank.saturating_sub(1).min(n - 1)]
    }

    /// Exact percentile by the nearest-rank method. `p` in `[0, 100]`.
    ///
    /// Returns `None` on an empty summary.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        Some(Self::percentile_of(&self.sorted_samples(), p))
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self.samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
            / self.samples.len() as f64;
        Some(var.sqrt())
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .min_by(|a, b| a.partial_cmp(b).expect("finite samples"))
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .max_by(|a, b| a.partial_cmp(b).expect("finite samples"))
    }

    /// Empirical CDF evaluated at `points`: for each `x`, the fraction of
    /// samples `<= x`. Used to regenerate the paper's CDF figures.
    pub fn cdf_at(&self, points: &[f64]) -> Vec<(f64, f64)> {
        let sorted = self.sorted_samples();
        let n = sorted.len();
        points
            .iter()
            .map(|&x| {
                let count = sorted.partition_point(|&s| s <= x);
                (x, if n == 0 { 0.0 } else { count as f64 / n as f64 })
            })
            .collect()
    }

    /// The standard percentile triple reported in the paper's tables.
    pub fn p90_p95_p99(&self) -> Option<(f64, f64, f64)> {
        let p = self.percentiles()?;
        Some((p.p90, p.p95, p.p99))
    }

    /// The full p50/p90/p95/p99/p999 set from one pass over the sorted
    /// samples. This is what the sweep binaries report.
    pub fn percentiles(&self) -> Option<Percentiles> {
        if self.samples.is_empty() {
            return None;
        }
        let sorted = self.sorted_samples();
        Some(Percentiles {
            p50: Self::percentile_of(&sorted, 50.0),
            p90: Self::percentile_of(&sorted, 90.0),
            p95: Self::percentile_of(&sorted, 95.0),
            p99: Self::percentile_of(&sorted, 99.0),
            p999: Self::percentile_of(&sorted, 99.9),
        })
    }

    /// Records the samples into a telemetry histogram, converting
    /// milliseconds to nanoseconds (histograms are integer-valued).
    pub fn export_histogram_ms(&self, tel: &Telemetry, name: &str) {
        if !tel.is_enabled() {
            return;
        }
        for &ms in &self.samples {
            tel.record(name, (ms * 1e6).round().max(0.0) as u64);
        }
    }

    /// Immutable view of the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simstats_rates() {
        let s = SimStats {
            events: 1_000,
            sent_messages: 500,
            dropped_messages: 7,
            peak_queue_depth: 42,
            sim_time: SimTime::from_secs(2),
            events_by_shard: vec![1_000],
        };
        assert_eq!(s.events_per_sec(0.5), 2_000.0);
        assert_eq!(s.events_per_sec(0.0), 0.0, "zero wall time is guarded");
    }

    fn summary(vals: &[f64]) -> Summary {
        let mut s = Summary::new();
        for &v in vals {
            s.record(v);
        }
        s
    }

    #[test]
    fn empty_summary_returns_none() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.stddev(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.percentiles(), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = summary(&(1..=100).map(|v| v as f64).collect::<Vec<_>>());
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(50.0), Some(50.0));
    }

    #[test]
    fn percentile_single_sample() {
        let s = summary(&[7.0]);
        assert_eq!(s.percentile(1.0), Some(7.0));
        assert_eq!(s.percentile(99.0), Some(7.0));
    }

    #[test]
    fn mean_and_stddev() {
        let s = summary(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.stddev(), Some(2.0));
    }

    #[test]
    fn min_max_after_unsorted_inserts() {
        let s = summary(&[5.0, 1.0, 9.0, 3.0]);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn cdf_fractions() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0]);
        let cdf = s.cdf_at(&[0.5, 1.0, 2.5, 4.0, 10.0]);
        assert_eq!(
            cdf,
            vec![(0.5, 0.0), (1.0, 0.25), (2.5, 0.5), (4.0, 1.0), (10.0, 1.0)]
        );
    }

    #[test]
    fn triple_helper() {
        let s = summary(&(1..=100).map(|v| v as f64).collect::<Vec<_>>());
        assert_eq!(s.p90_p95_p99(), Some((90.0, 95.0, 99.0)));
    }

    #[test]
    fn record_after_query_resorts() {
        let mut s = summary(&[3.0, 1.0]);
        assert_eq!(s.max(), Some(3.0));
        s.record(10.0);
        assert_eq!(s.max(), Some(10.0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn full_percentile_set() {
        let s = summary(&(1..=1000).map(|v| v as f64).collect::<Vec<_>>());
        let p = s.percentiles().unwrap();
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p90, 900.0);
        assert_eq!(p.p95, 950.0);
        assert_eq!(p.p99, 990.0);
        assert_eq!(p.p999, 999.0);
    }

    #[test]
    fn reads_are_immutable_and_sort_is_an_optimization() {
        let mut s = summary(&[9.0, 2.0, 5.0]);
        // Reads on the unsorted summary don't mutate it...
        let shared = &s;
        assert_eq!(shared.percentile(50.0), Some(5.0));
        assert_eq!(shared.samples(), &[9.0, 2.0, 5.0], "insert order kept");
        // ...and after an explicit sort they answer from the sorted vec.
        s.sort();
        assert_eq!(s.samples(), &[2.0, 5.0, 9.0]);
        assert_eq!(s.percentile(50.0), Some(5.0));
    }

    #[test]
    fn export_histogram_converts_ms_to_ns() {
        let tel = flexcast_telemetry::Telemetry::enabled();
        let s = summary(&[1.5, 2.0]);
        s.export_histogram_ms(&tel, "lat_ns");
        let snap = tel.snapshot();
        let h = &snap.histograms["lat_ns"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 1_500_000);
        assert_eq!(h.max, 2_000_000);
    }

    #[test]
    fn simstats_export() {
        let tel = flexcast_telemetry::Telemetry::enabled();
        let s = SimStats {
            events: 10,
            sent_messages: 5,
            dropped_messages: 1,
            peak_queue_depth: 3,
            sim_time: SimTime::from_secs(1),
            events_by_shard: vec![6, 4],
        };
        s.export_metrics(&tel);
        s.export_metrics(&tel);
        let snap = tel.snapshot();
        assert_eq!(snap.counters["sim.events"], 10, "set, not double-added");
        assert_eq!(snap.gauges["sim.time_ms"], 1_000.0);
    }
}

//! Latency histograms with logarithmic buckets.
//!
//! The benchmark harnesses accumulate tens of thousands of invocation
//! latencies; a log-bucketed histogram keeps memory bounded while still
//! supporting accurate-enough percentile queries for reporting.

use crate::time::SimDuration;

/// Number of sub-buckets per power-of-two bucket (resolution ~3%).
const SUB_BUCKETS: usize = 32;
/// Number of power-of-two buckets (covers 1 ns .. ~18 s).
const MAGNITUDES: usize = 35;

/// A log-bucketed latency histogram over nanosecond values.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; MAGNITUDES * SUB_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Record one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let idx = Self::bucket_index(ns);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value; zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest recorded value; zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Arithmetic mean of recorded values; zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Approximate percentile (`q` in [0, 100]); zero if empty.
    pub(crate) fn percentile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 100.0);
        let target = ((q / 100.0) * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c > target {
                return SimDuration::from_nanos(Self::bucket_upper_bound(idx).min(self.max_ns));
            }
            seen += c;
        }
        self.max()
    }

    /// Median sample.
    pub fn median(&self) -> SimDuration {
        self.percentile(50.0)
    }

    fn bucket_index(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let magnitude = 63 - ns.leading_zeros() as usize;
        let base_mag = SUB_BUCKETS.trailing_zeros() as usize; // log2(SUB_BUCKETS)
        let mag = (magnitude - base_mag).min(MAGNITUDES - 1);
        let shifted = (ns >> (magnitude - base_mag + 1)) as usize & (SUB_BUCKETS / 2 - 1);
        let idx = if mag == 0 {
            ns as usize
        } else {
            mag * SUB_BUCKETS / 2 + SUB_BUCKETS / 2 + shifted
        };
        idx.min(MAGNITUDES * SUB_BUCKETS - 1)
    }

    fn bucket_upper_bound(idx: usize) -> u64 {
        // Invert bucket_index approximately: find the largest ns that maps here
        // by scanning powers; cheap because called only during reporting.
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let base_mag = SUB_BUCKETS.trailing_zeros() as usize;
        let half = SUB_BUCKETS / 2;
        let mag = (idx - half) / half;
        let sub = (idx - half) % half;
        let magnitude = mag + base_mag;
        let low = 1u64 << magnitude;
        let step = 1u64 << (magnitude - base_mag + 1);
        low + (sub as u64 + 1) * step - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.median(), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn single_sample_everywhere() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(5));
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean().as_nanos(), 5_000);
        assert_eq!(h.min().as_nanos(), 5_000);
        assert_eq!(h.max().as_nanos(), 5_000);
        // Percentile resolution is ~3%, so allow slack.
        let med = h.median().as_nanos();
        assert!((5_000..=5_400).contains(&med), "median {med}");
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(SimDuration::from_nanos(i * 10));
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max());
        assert!(h.min().as_nanos() == 10);
    }

    #[test]
    fn percentile_accuracy_within_resolution() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100_000u64 {
            h.record(SimDuration::from_nanos(i));
        }
        let p50 = h.percentile(50.0).as_nanos() as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.07, "p50 {p50}");
        let p99 = h.percentile(99.0).as_nanos() as f64;
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.07, "p99 {p99}");
    }

    #[test]
    fn tiny_values_use_exact_buckets() {
        let mut h = LatencyHistogram::new();
        for ns in 0..32u64 {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min().as_nanos(), 0);
        assert_eq!(h.max().as_nanos(), 31);
    }

    #[test]
    fn huge_values_do_not_overflow_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_secs(10_000));
        assert_eq!(h.count(), 1);
        assert!(h.max().as_secs_f64() >= 9_999.0);
    }
}

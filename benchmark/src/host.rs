//! Host-side measurements: process counters from `/proc`, CPU time, and the
//! segment-rate estimator behind `host_ops_per_s`.

use std::time::Duration;

/// Value of a `Key:   123 kB`-style line of `/proc/self/status`.
fn proc_status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_field(&status, key)
}

fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Threads alive in this process right now (`Threads:`).
pub fn threads_now() -> u64 {
    proc_status_field("Threads").unwrap_or(1)
}

/// `struct rusage` of 64-bit Linux: two `timeval`s followed by 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds consumed by the whole process so far.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines (144 bytes); RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 / 1e6;
    tv(usage.utime) + tv(usage.stime)
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix glibc malloc's two adaptive thresholds at the values they settle on
/// in a long-running simulation, before anything large is allocated.
///
/// Left alone, glibc serves every request of 128 KiB or more from a fresh
/// mapping (page faults on every use) until the process first frees such a
/// mapping, then raises both thresholds to that size and recycles heap
/// memory instead. The workloads allocate megabytes per operation, so the
/// same code ran 2.2 times faster in its second round than in its first,
/// and peak RSS depended on which side of the switch a 16 MiB region fell.
pub fn pin_malloc_thresholds() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores the two integers in glibc's malloc
    // parameters; both constants and values are valid per malloc.h (the mmap
    // threshold's maximum is 32 MiB), and no other thread exists yet.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
    }
}

/// Linear-interpolated percentile (`q` in 0..=100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    v
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// Wall-clock rates of equal-count segments of one timed section.
#[derive(Debug, Default, Clone)]
pub struct SegmentRates {
    rates: Vec<f64>,
}

impl SegmentRates {
    /// Record one segment of `ops` operations that took `elapsed`.
    pub fn record(&mut self, ops: u64, elapsed: Duration) {
        self.rates
            .push(ops as f64 / elapsed.as_secs_f64().max(1e-9));
    }

    #[cfg(test)]
    fn from_rates(rates: Vec<f64>) -> SegmentRates {
        SegmentRates { rates }
    }

    /// The reported throughput: the 90th percentile of the segment rates.
    /// Interference from the host only ever slows a segment, so a high
    /// percentile estimates the undisturbed rate; the 90th (not the maximum)
    /// leaves room for four lucky segments out of forty-two.
    pub fn ops_per_s(&self) -> f64 {
        percentile_sorted(&sorted(&self.rates), 90.0)
    }

    /// Spread of the segment rates: (q3 − q1) / median.
    pub fn noise(&self) -> f64 {
        let s = sorted(&self.rates);
        let median = percentile_sorted(&s, 50.0);
        (percentile_sorted(&s, 75.0) - percentile_sorted(&s, 25.0)) / median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tsimbench\nVmHWM:\t  20480 kB\nThreads:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(status, "Threads"), Some(3));
        assert_eq!(parse_status_field(status, "VmPeak"), None);
        assert!(peak_rss_mib() > 0.0);
        assert!(threads_now() >= 1);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 50.0), 3.0);
        assert_eq!(percentile_sorted(&v, 100.0), 5.0);
        assert_eq!(percentile_sorted(&v, 90.0), 4.6);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn segment_estimator_ignores_slow_segments() {
        // 36 undisturbed segments at 1000 ops/s, 4 hit by host steal.
        let mut rates = vec![1000.0; 36];
        rates.extend([100.0, 250.0, 400.0, 500.0]);
        let segments = SegmentRates::from_rates(rates);
        assert_eq!(segments.ops_per_s(), 1000.0);
        assert_eq!(segments.noise(), 0.0);

        // A uniformly spread run reports its 90th percentile and its spread.
        let spread = SegmentRates::from_rates((1..=41).map(|i| i as f64).collect());
        assert_eq!(spread.ops_per_s(), 37.0);
        assert!((spread.noise() - 20.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn a_recorded_segment_is_a_rate() {
        let mut segments = SegmentRates::default();
        segments.record(1000, Duration::from_millis(500));
        assert_eq!(segments.ops_per_s(), 2000.0);
    }
}

//! Statistics used by the evaluation harnesses.
//!
//! The paper reports medians, 99th-percentile latencies and non-parametric
//! confidence intervals of the median (Sec. V-A, Fig. 12/13). This module
//! implements those estimators over `f64` samples and over [`SimDuration`]
//! samples.

use crate::time::SimDuration;

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound of the interval.
    pub lower: f64,
    /// Upper bound of the interval.
    pub upper: f64,
    /// Confidence level in (0, 1), e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Whether `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }
}

/// Summary statistics for one experiment series.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Sample standard deviation (0 when fewer than two samples).
    pub stddev: f64,
    /// Non-parametric 95% CI of the median.
    pub median_ci95: ConfidenceInterval,
}

impl Summary {
    /// Compute a summary of `samples`. Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(
            !samples.is_empty(),
            "Summary::of requires at least one sample"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let variance = if count > 1 {
            sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        Summary {
            count,
            mean,
            median: percentile_sorted(&sorted, 50.0),
            p99: percentile_sorted(&sorted, 99.0),
            min: sorted[0],
            max: sorted[count - 1],
            stddev: variance.sqrt(),
            median_ci95: median_ci_sorted(&sorted, 0.95),
        }
    }

    /// Summarise a slice of virtual durations, in microseconds.
    pub fn of_durations_us(samples: &[SimDuration]) -> Summary {
        let us: Vec<f64> = samples.iter().map(|d| d.as_micros_f64()).collect();
        Summary::of(&us)
    }

    /// Summarise a slice of virtual durations, in milliseconds.
    pub fn of_durations_ms(samples: &[SimDuration]) -> Summary {
        let ms: Vec<f64> = samples.iter().map(|d| d.as_millis_f64()).collect();
        Summary::of(&ms)
    }
}

/// Median of a sample set. Panics on empty input.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Linear-interpolation percentile (`q` in [0, 100]). Panics on empty input.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(
        !samples.is_empty(),
        "percentile requires at least one sample"
    );
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    percentile_sorted(&sorted, q)
}

fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let q = q.clamp(0.0, 100.0);
    let rank = q / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Non-parametric confidence interval of the median using the binomial
/// order-statistic method (the estimator the paper cites for its tight <1%
/// interval bounds). For small n the interval degenerates to the full range.
pub fn median_confidence_interval(samples: &[f64], level: f64) -> ConfidenceInterval {
    assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    median_ci_sorted(&sorted, level)
}

fn median_ci_sorted(sorted: &[f64], level: f64) -> ConfidenceInterval {
    let n = sorted.len();
    if n < 5 {
        return ConfidenceInterval {
            lower: sorted[0],
            upper: sorted[n - 1],
            level,
        };
    }
    // Normal approximation to the binomial(n, 1/2) order statistic ranks.
    let z = z_for_two_sided(level);
    let half_width = z * (n as f64 / 4.0).sqrt();
    let lower_rank = ((n as f64 / 2.0 - half_width).floor().max(0.0)) as usize;
    let upper_rank = ((n as f64 / 2.0 + half_width).ceil() as usize).min(n - 1);
    ConfidenceInterval {
        lower: sorted[lower_rank],
        upper: sorted[upper_rank],
        level,
    }
}

/// Two-sided z value for common confidence levels; falls back to 1.96.
fn z_for_two_sided(level: f64) -> f64 {
    if (level - 0.99).abs() < 1e-9 {
        2.576
    } else if (level - 0.95).abs() < 1e-9 {
        1.96
    } else if (level - 0.90).abs() < 1e-9 {
        1.645
    } else {
        1.96
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let xs: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-9);
        assert!((percentile(&xs, 100.0) - 100.0).abs() < 1e-9);
        assert!((percentile(&xs, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile(&xs, 99.0) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn summary_basic_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-9);
        assert!((s.median - 3.0).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!(s.stddev > 1.58 && s.stddev < 1.59);
    }

    #[test]
    fn summary_of_durations() {
        let ds = vec![
            SimDuration::from_micros(1),
            SimDuration::from_micros(2),
            SimDuration::from_micros(3),
        ];
        let s = Summary::of_durations_us(&ds);
        assert!((s.median - 2.0).abs() < 1e-9);
        let s = Summary::of_durations_ms(&ds);
        assert!((s.median - 0.002).abs() < 1e-9);
    }

    #[test]
    fn ci_contains_median_for_tight_distribution() {
        let xs: Vec<f64> = (0..1_000).map(|i| 100.0 + (i % 10) as f64 * 0.01).collect();
        let ci = median_confidence_interval(&xs, 0.95);
        let m = median(&xs);
        assert!(ci.contains(m));
        // The paper reports interval bounds within 1% of the median.
        assert!(ci.width() / m < 0.01);
    }

    #[test]
    fn ci_small_sample_degenerates_to_range() {
        let ci = median_confidence_interval(&[1.0, 2.0, 3.0], 0.95);
        assert_eq!(ci.lower, 1.0);
        assert_eq!(ci.upper, 3.0);
    }

    #[test]
    fn ci_level_is_recorded() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        for level in [0.90, 0.95, 0.99] {
            let ci = median_confidence_interval(&xs, level);
            assert_eq!(ci.level, level);
            assert!(ci.lower <= ci.upper);
        }
    }

    #[test]
    #[should_panic]
    fn empty_samples_panic() {
        let _ = Summary::of(&[]);
    }
}

//! Utilisation traces (Fig. 2 reproduction).
//!
//! The paper samples SLURM on Piz Daint every minute for one week and plots
//! the idle-CPU and free-memory percentages. [`UtilizationTrace::synthesize`]
//! drives the synthetic batch scheduler over the same horizon and produces
//! the equivalent time series.

use sim_core::{SimDuration, SimTime};

use crate::jobs::{BatchScheduler, JobGenerator};
use crate::node::NodeResources;

/// One sample of the cluster utilisation time series.
#[derive(Debug, Clone, Copy)]
pub struct TracePoint {
    /// Sample time.
    pub time: SimTime,
    /// Percentage of CPU cores idle (0–100).
    pub idle_cpu_pct: f64,
    /// Percentage of memory free (0–100).
    pub free_memory_pct: f64,
}

/// A utilisation trace sampled at fixed intervals.
#[derive(Debug, Clone)]
pub struct UtilizationTrace {
    /// Samples in time order.
    pub points: Vec<TracePoint>,
    /// Sampling interval.
    pub interval: SimDuration,
}

impl UtilizationTrace {
    /// Synthesize a trace for a cluster of `nodes` nodes over `horizon`,
    /// sampling every `interval` (the paper uses one week at one-minute
    /// resolution). The first two hours are treated as warm-up and skipped.
    pub fn synthesize(
        seed: u64,
        nodes: usize,
        horizon: SimDuration,
        interval: SimDuration,
    ) -> UtilizationTrace {
        let shape = NodeResources::xeon_gold_6154_dual();
        let mut scheduler = BatchScheduler::new(nodes, shape);
        let mut generator = JobGenerator::new(seed, nodes, shape);
        for job in generator.generate(horizon) {
            scheduler.submit(job);
        }
        let warmup = SimDuration::from_secs(2 * 3600);
        let mut points = Vec::new();
        let mut t = SimTime::ZERO;
        while t.saturating_since(SimTime::ZERO) <= horizon {
            scheduler.advance_to(t);
            if t.saturating_since(SimTime::ZERO) >= warmup {
                points.push(TracePoint {
                    time: t,
                    idle_cpu_pct: 100.0 * (1.0 - scheduler.core_utilization()),
                    free_memory_pct: 100.0 * scheduler.free_memory_fraction(),
                });
            }
            t += interval;
        }
        UtilizationTrace { points, interval }
    }

    /// Mean idle-CPU percentage over the trace.
    pub fn mean_idle_cpu(&self) -> f64 {
        mean(self.points.iter().map(|p| p.idle_cpu_pct))
    }

    /// Mean free-memory percentage over the trace.
    pub fn mean_free_memory(&self) -> f64 {
        mean(self.points.iter().map(|p| p.free_memory_pct))
    }

    /// Minimum and maximum idle-CPU percentages (burstiness indicator).
    pub fn idle_cpu_range(&self) -> (f64, f64) {
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for p in &self.points {
            lo = lo.min(p.idle_cpu_pct);
            hi = hi.max(p.idle_cpu_pct);
        }
        (lo, hi)
    }

    /// Fraction of samples with at least `threshold_pct` of cores idle — the
    /// opportunity window for spot executors.
    pub fn harvest_opportunity(&self, threshold_pct: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .filter(|p| p.idle_cpu_pct >= threshold_pct)
            .count() as f64
            / self.points.len() as f64
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day_trace() -> UtilizationTrace {
        UtilizationTrace::synthesize(
            2021,
            32,
            SimDuration::from_secs(24 * 3600),
            SimDuration::from_secs(60),
        )
    }

    #[test]
    fn trace_has_one_sample_per_interval() {
        let trace = day_trace();
        // 24 h minus 2 h warm-up at one-minute sampling.
        assert!(trace.points.len() >= 22 * 60 && trace.points.len() <= 22 * 60 + 2);
    }

    #[test]
    fn idle_cpu_matches_paper_band() {
        let trace = day_trace();
        let mean_idle = trace.mean_idle_cpu();
        // Paper: node utilisation 80-94%, i.e. 6-20% idle on average; allow a
        // wider band for the synthetic workload.
        assert!(
            (2.0..30.0).contains(&mean_idle),
            "mean idle CPU {mean_idle}%"
        );
    }

    #[test]
    fn memory_is_mostly_free() {
        let trace = day_trace();
        let mem = trace.mean_free_memory();
        // Paper: roughly three-quarters of node memory unused.
        assert!(mem > 55.0, "mean free memory {mem}%");
    }

    #[test]
    fn idle_windows_are_bursty() {
        let trace = day_trace();
        let (lo, hi) = trace.idle_cpu_range();
        assert!(
            hi - lo > 5.0,
            "idle CPU should fluctuate, range was {lo}..{hi}"
        );
    }

    #[test]
    fn harvest_opportunity_is_monotonic_in_threshold() {
        let trace = day_trace();
        let at5 = trace.harvest_opportunity(5.0);
        let at20 = trace.harvest_opportunity(20.0);
        let at80 = trace.harvest_opportunity(80.0);
        assert!(at5 >= at20);
        assert!(at20 >= at80);
        assert!(at5 > 0.0);
    }

    #[test]
    fn traces_are_reproducible() {
        let a = UtilizationTrace::synthesize(
            9,
            8,
            SimDuration::from_secs(6 * 3600),
            SimDuration::from_secs(300),
        );
        let b = UtilizationTrace::synthesize(
            9,
            8,
            SimDuration::from_secs(6 * 3600),
            SimDuration::from_secs(300),
        );
        assert_eq!(a.points.len(), b.points.len());
        for (x, y) in a.points.iter().zip(b.points.iter()) {
            assert_eq!(x.idle_cpu_pct, y.idle_cpu_pct);
            assert_eq!(x.free_memory_pct, y.free_memory_pct);
        }
    }
}

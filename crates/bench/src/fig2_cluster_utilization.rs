//! Figure 2: idle-CPU and free-memory percentages of a batch-managed cluster
//! sampled at one-minute granularity (Piz Daint in the paper; a synthetic
//! batch workload with matching statistics here).

use crate::{Claim, Row, Size, Table};
use sim_core::SimDuration;

pub(crate) const CLAIMS: &[Claim] = &[];

pub(crate) fn run(size: Size) -> Vec<Table> {
    let (days, nodes) = if size.quick() { (1, 16) } else { (7, 64) };
    let trace = cluster_sim::UtilizationTrace::synthesize(
        2021,
        nodes,
        SimDuration::from_secs(days * 24 * 3600),
        SimDuration::from_secs(60),
    );

    // Down-sample to hourly rows; the summary below covers every sample.
    let mut hourly = Vec::new();
    for (i, point) in trace.points.iter().enumerate() {
        if i % 60 != 0 {
            continue;
        }
        let hours = point.time.as_secs_f64() / 3600.0;
        hourly.push(Row::value("idle CPU", hours, point.idle_cpu_pct, "%"));
        hourly.push(Row::value("free memory", hours, point.free_memory_pct, "%"));
    }

    // Summary over every one-minute sample; x is the trace length in hours.
    let hours = (days * 24) as f64;
    let (lo, hi) = trace.idle_cpu_range();
    let summary = vec![
        Row::value("mean idle CPU", hours, trace.mean_idle_cpu(), "%"),
        Row::value("mean free memory", hours, trace.mean_free_memory(), "%"),
        Row::value("min idle CPU", hours, lo, "%"),
        Row::value("max idle CPU", hours, hi, "%"),
        Row::value(
            "samples with >=10% idle cores",
            hours,
            100.0 * trace.harvest_opportunity(10.0),
            "%",
        ),
    ];
    vec![
        Table {
            title: "Figure 2: cluster utilization trace (1-minute sampling, hourly rows shown)",
            rows: hourly,
        },
        Table {
            title: "Figure 2: trace summary over every sample (paper: 80-94% node utilization, ~75% of memory unused)",
            rows: summary,
        },
    ]
}

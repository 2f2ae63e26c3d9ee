//! Figure 2: idle-CPU and free-memory percentages of a batch-managed cluster
//! sampled at one-minute granularity (Piz Daint in the paper; a synthetic
//! batch workload with matching statistics here).

use crate::{print_table, Mode, ResultRow};
use sim_core::SimDuration;

pub(crate) fn run(mode: Mode) -> Vec<ResultRow> {
    let (days, nodes) = if mode.quick() { (1, 16) } else { (7, 64) };
    let trace = cluster_sim::UtilizationTrace::synthesize(
        2021,
        nodes,
        SimDuration::from_secs(days * 24 * 3600),
        SimDuration::from_secs(60),
    );

    // Down-sample to hourly rows for the table; the JSON lines carry the same.
    let mut rows = Vec::new();
    for (i, point) in trace.points.iter().enumerate() {
        if i % 60 != 0 {
            continue;
        }
        let hours = point.time.as_secs_f64() / 3600.0;
        rows.push(ResultRow {
            series: "idle CPU".into(),
            x: hours,
            median: point.idle_cpu_pct,
            p99: point.idle_cpu_pct,
            unit: "%".into(),
        });
        rows.push(ResultRow {
            series: "free memory".into(),
            x: hours,
            median: point.free_memory_pct,
            p99: point.free_memory_pct,
            unit: "%".into(),
        });
    }
    print_table(
        "Figure 2: cluster utilization trace (1-minute sampling, hourly rows shown)",
        &rows,
    );

    println!("\n# summary (paper: 80-94% node utilization, ~75% of memory unused)");
    println!("mean idle CPU:        {:.1}%", trace.mean_idle_cpu());
    println!("mean free memory:     {:.1}%", trace.mean_free_memory());
    let (lo, hi) = trace.idle_cpu_range();
    println!("idle CPU range:       {:.1}% .. {:.1}%", lo, hi);
    println!(
        "samples with >=10% idle cores (harvest opportunity): {:.1}%",
        100.0 * trace.harvest_opportunity(10.0)
    );
    rows
}

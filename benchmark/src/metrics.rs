//! The benchmark's metric registry (name, unit, direction, bound) and the
//! report each run prints: a table the suite reads back, and the driver's
//! result line.
//!
//! `BENCHMARK.json` at the repository root is generated from this registry
//! (`simbench manifest`); a unit test keeps the two identical.

use std::fmt::Write as _;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Static description of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric and the share of the parent's median by which it may
/// worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    pub def: MetricDef,
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Metrics the untraced run reports to the driver. Each bound is at least
/// three times the widest spread (interquartile range over median) seen over
/// ten seeds per workload on the 2-core sandbox: 7.3 % for `setup_s`, 5.4 %
/// for `host_ops_per_s`, and 0.43 % for `sim_ops_per_s` — all of it on
/// `lease_churn`, whose tenant fleet changes with the seed; the other five
/// workloads repeat it exactly.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        def: lower("setup_s", "s"),
        bound: 0.25,
    },
    EndToEndDef {
        def: higher("sim_ops_per_s", "1/s"),
        bound: 0.02,
    },
    EndToEndDef {
        def: higher("host_ops_per_s", "1/s"),
        bound: 0.2,
    },
];

/// Metrics the traced run reports to the driver. A value of 0 means the
/// workload never makes that call or never exercises that layer.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end in kind, but not fit for the driver's end-to-end list (see
    // README, "Driver contract"): the latencies are constant run to run,
    // the failed share is always 0, peak RSS has two modes on `lease_churn`.
    lower("sim_lat_p50_us", "us"),
    lower("sim_lat_p99_us", "us"),
    lower("failed_share", "ratio"),
    lower("host_peak_rss_mib", "MiB"),
    // host: the whole process during the traced pass.
    lower("host.allocs_per_op", "count"),
    lower("host.alloc_bytes_per_op", "B"),
    lower("host.cpu_s_per_mop", "s"),
    lower("host.threads", "count"),
    lower("host.noise", "ratio"),
    lower("host.trace_overhead_pct", "%"),
    // rfaas: spans around Session calls.
    lower("rfaas.submit_ns", "ns"),
    lower("rfaas.wait_ns", "ns"),
    lower("rfaas.map_workers_ns", "ns"),
    lower("rfaas.wait_any_ns", "ns"),
    lower("rfaas.connect_ns", "ns"),
    lower("rfaas.close_ns", "ns"),
    lower("rfaas.state_put_ns", "ns"),
    // rfaas: isolated.
    lower("rfaas.codec_encode_1mib_ns", "ns"),
    lower("rfaas.codec_decode_view_ns", "ns"),
    lower("rfaas.header_codec_ns", "ns"),
    lower("rfaas.control_frame_codec_ns", "ns"),
    lower("rfaas.request_release_lease_ns", "ns"),
    lower("rfaas.reactor_turn_idle_ns", "ns"),
    // rfaas: counts from public stats.
    lower("rfaas.reactor_pumped_per_op", "count"),
    lower("rfaas.reactor_dispatched_per_op", "count"),
    lower("rfaas.doorbells_per_wave", "count"),
    higher("rfaas.chained_wqes_per_wave", "count"),
    lower("rfaas.recoveries", "count"),
    // rfaas: virtual time.
    lower("rfaas.sim_hot_overhead_ns", "ns"),
    lower("rfaas.sim_warm_overhead_ns", "ns"),
    lower("rfaas.sim_alloc_connect_to_manager_us", "us"),
    lower("rfaas.sim_alloc_submit_allocation_us", "us"),
    lower("rfaas.sim_alloc_spawn_workers_us", "us"),
    lower("rfaas.sim_alloc_submit_code_us", "us"),
    lower("rfaas.sim_alloc_connect_to_workers_us", "us"),
    lower("rfaas.sim_billed_cost_per_mop", "USD"),
    // rdma-fabric: isolated on one connected QP pair.
    lower("rdma-fabric.write_inline_cycle_ns", "ns"),
    lower("rdma-fabric.write_1mib_cycle_ns", "ns"),
    lower("rdma-fabric.read_1mib_cycle_ns", "ns"),
    lower("rdma-fabric.send_batch_32_ns", "ns"),
    lower("rdma-fabric.ring_cycle_ns", "ns"),
    lower("rdma-fabric.cqset_poll_256_ns", "ns"),
    lower("rdma-fabric.mr_register_8mib_ns", "ns"),
    lower("rdma-fabric.mr_write_1mib_ns", "ns"),
    lower("rdma-fabric.mr_read_1mib_ns", "ns"),
    lower("rdma-fabric.connect_ns", "ns"),
    lower("rdma-fabric.connect_pooled_ns", "ns"),
    lower("rdma-fabric.datagram_rtt_ns", "ns"),
    lower("rdma-fabric.srq_post_pop_ns", "ns"),
    lower("rdma-fabric.pool_lease_release_ns", "ns"),
    // rdma-fabric: counts.
    lower("rdma-fabric.wire_bytes_per_op", "B"),
    lower("rdma-fabric.messages_per_op", "count"),
    higher("rdma-fabric.pool_hit_ratio", "ratio"),
    lower("rdma-fabric.srq_depth_high_watermark", "count"),
    // rdma-fabric: virtual time.
    lower("rdma-fabric.sim_write_pingpong_64b_us", "us"),
    lower("rdma-fabric.sim_write_pingpong_1mib_us", "us"),
    // state-plane: isolated through StatePlane::attach.
    lower("state-plane.get_hit_1mib_ns", "ns"),
    lower("state-plane.get_miss_1mib_ns", "ns"),
    lower("state-plane.put_1mib_ns", "ns"),
    lower("state-plane.put_64b_ns", "ns"),
    lower("state-plane.pump_idle_ns", "ns"),
    lower("state-plane.frame_codec_ns", "ns"),
    lower("state-plane.region_alloc_release_ns", "ns"),
    // state-plane: counts from SessionStats::state_executor.
    higher("state-plane.cache_hit_ratio", "ratio"),
    lower("state-plane.remote_reads_per_op", "count"),
    lower("state-plane.invalidations_per_put", "count"),
    // sandbox.
    lower("sandbox.spawn_ns", "ns"),
    lower("sandbox.fork_from_ns", "ns"),
    lower("sandbox.snapshot_capture_ns", "ns"),
    lower("sandbox.warm_pool_park_lease_ns", "ns"),
    lower("sandbox.fault_window_ns", "ns"),
    lower("sandbox.echo_64b_ns", "ns"),
    lower("sandbox.echo_1mib_ns", "ns"),
    lower("sandbox.registry_lookup_ns", "ns"),
    higher("sandbox.warm_pool_hit_ratio", "ratio"),
    // sim-core.
    lower("sim-core.clock_advance_ns", "ns"),
    lower("sim-core.ordered_mutex_lock_ns", "ns"),
    lower("sim-core.histogram_record_ns", "ns"),
    lower("sim-core.summary_of_100k_ns", "ns"),
    lower("sim-core.rng_next_ns", "ns"),
    // cluster-sim.
    lower("cluster-sim.fleet_generate_10k_ms", "ms"),
    lower("cluster-sim.requests_ms", "ms"),
];

/// Look a metric up in either list.
pub fn definition(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .map(|e| e.def)
        .chain(PER_LAYER.iter().copied())
        .find(|d| d.name == name)
}

/// Whether a metric must repeat exactly between two runs of the same code
/// with the same seed: simulated times, and counts read from the product's
/// own statistics. Everything measured on the host clock, and every `host.*`
/// value, is noisy instead.
pub fn repeats_exactly(def: &MetricDef) -> bool {
    !def.name.starts_with("host")
        && (def.name.contains("sim_") || matches!(def.unit, "count" | "ratio" | "B" | "USD"))
}

/// Measured values by metric name, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    values: Vec<(String, f64)>,
}

impl MetricSet {
    /// Set `name` (replacing an earlier value). Non-finite values become 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(n, v)| (n.as_str(), *v))
    }

    pub fn extend(&mut self, other: &MetricSet) {
        for (name, value) in other.iter() {
            self.set(name, value);
        }
    }
}

/// Everything one run measured, as printed (one `name value unit` line per
/// metric, values with all their digits) and as read back by the suite.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub metrics: MetricSet,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.metrics.iter() {
            if let Some(def) = definition(name) {
                writeln!(out, "{name:<44} {value:<24} {}", def.unit).expect("String write");
            }
        }
        writeln!(out, "attempted {} failed {}", self.attempted, self.failed).expect("String write");
        out
    }

    /// The one-line JSON object the driver reads: exactly the metrics it
    /// expects for this trace mode, in registry order; a per-layer metric the
    /// run did not produce reads 0. `{}` on an `f64` prints the shortest text
    /// that reads back to the same value, so no measured digit is lost.
    pub fn driver_line(&self, traced: bool) -> String {
        let defs: Vec<MetricDef> = if traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|e| e.def).collect()
        };
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            write!(
                line,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                self.metrics.get(def.name).unwrap_or(0.0),
                def.unit
            )
            .expect("String write");
        }
        line.push_str("}}");
        line
    }

    /// Parse text containing a [`Report::to_table`]; other lines are skipped.
    /// `None` unless the closing `attempted … failed …` line is there.
    pub fn parse(text: &str) -> Option<Report> {
        let mut report = Report::default();
        let mut complete = false;
        for line in text.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens[..] {
                ["attempted", attempted, "failed", failed] => {
                    report.attempted = attempted.parse().ok()?;
                    report.failed = failed.parse().ok()?;
                    complete = true;
                }
                [name, value, _unit] if definition(name).is_some() => {
                    report.metrics.set(name, value.parse().ok()?);
                }
                _ => {}
            }
        }
        complete.then_some(report)
    }
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The six workloads, in the order the suite runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "hot_small",
        why: "64 B echoes at depth 1 on one hot worker: per-invocation platform overhead does all the work, payload and set-up none (paper Fig. 8)",
    },
    WorkloadDef {
        name: "saturate",
        why: "waves of 256 in-flight 64 B echoes over 8 sessions sharing one reactor and clock: multiplexing and doorbell batching dominate, hand-off amortises",
    },
    WorkloadDef {
        name: "bulk_payload",
        why: "1 MiB echoes on one hot worker: copies, codecs, buffer pool and MR writes do the work, per-invocation overhead is under 1 %",
    },
    WorkloadDef {
        name: "lease_churn",
        why: "allocate, 4 warm echoes, release, per tenant episode on a sharded manager: leases, placement, connections and sandbox spawn/fork do the work",
    },
    WorkloadDef {
        name: "state_read",
        why: "stateful touches of a cache-resident 1 MiB key: the state-plane hit path and executor-side materialisation do the work, wire traffic is two 8-byte frames",
    },
    WorkloadDef {
        name: "state_write_mix",
        why: "the same touches with a 1 MiB put before every 8th: each put invalidates the executor cache, so commit, invalidate and one-sided READ sit beside hits",
    },
];

/// How long the driver asks one run to measure, in seconds. Operation counts
/// are fixed (so simulated time repeats exactly) and sized for this length at
/// the commit that added the benchmark; `--seconds` scales them.
pub const RUN_SECONDS: u32 = 8;

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("String write");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        )
        .expect("String write");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            e.def.name,
            e.def.unit,
            e.def.better.word(),
            e.bound
        )
        .expect("String write");
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name,
            d.unit,
            d.better.word()
        )
        .expect("String write");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.def.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");

        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        let setup = END_TO_END.iter().find(|e| e.def.name == "setup_s").unwrap();
        assert_eq!((setup.def.unit, setup.def.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|e| unit_ok(e.def.unit)));
        assert!(PER_LAYER.iter().all(|d| unit_ok(d.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `simbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn driver_line_lists_the_expected_metrics_with_all_digits() {
        let mut report = Report {
            attempted: 2_000_000,
            ..Report::default()
        };
        report.metrics.set("setup_s", 0.812_734_561_234_5);
        report.metrics.set("sim_ops_per_s", 251_256.281_407_035_17);
        report.metrics.set("host_ops_per_s", f64::NAN);
        let line = report.driver_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2000000, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127345612345, \"unit\": \"s\"}"));
        assert!(line.contains("\"host_ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n') && line.ends_with("}}"));

        report.failed = 3;
        let traced = report.driver_line(true);
        assert!(traced.starts_with("{\"correct\": false,") && traced.contains("\"failed\": 3,"));
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    fn report_table_reads_back_bit_identical() {
        let mut report = Report {
            attempted: 2_300_009,
            failed: 2,
            ..Report::default()
        };
        report.metrics.set("sim_ops_per_s", 251_256.281_407_035_17);
        report.metrics.set("host_ops_per_s", 1.0 / 3.0);
        report.metrics.set("rfaas.submit_ns", 412.0);
        report.metrics.set("not.registered", 1.0);
        let text = format!("simbench: noise\n{}trailing line\n", report.to_table());
        let parsed = Report::parse(&text).expect("complete table");
        assert_eq!(parsed.metrics.get("host_ops_per_s"), Some(1.0 / 3.0));
        assert_eq!(
            parsed.metrics.get("sim_ops_per_s"),
            Some(251_256.281_407_035_17)
        );
        assert_eq!(parsed.metrics.get("not.registered"), None);
        assert_eq!((parsed.attempted, parsed.failed), (2_300_009, 2));
        assert_eq!(Report::parse("sim_ops_per_s 1 1/s\n"), None, "cut short");
    }

    #[test]
    fn exactness_follows_the_clock_a_metric_uses() {
        let exact = |name| repeats_exactly(&definition(name).unwrap());
        assert!(exact("sim_ops_per_s") && exact("sim_lat_p99_us") && exact("failed_share"));
        assert!(exact("rfaas.sim_hot_overhead_ns") && exact("rfaas.doorbells_per_wave"));
        assert!(exact("state-plane.cache_hit_ratio") && exact("rdma-fabric.wire_bytes_per_op"));
        assert!(!exact("host_ops_per_s") && !exact("setup_s") && !exact("host_peak_rss_mib"));
        assert!(!exact("host.allocs_per_op") && !exact("host.noise"));
        assert!(!exact("rfaas.submit_ns") && !exact("cluster-sim.requests_ms"));
    }
}

//! Figure 8 (and Sec. V-A): round-trip time of a no-op rFaaS function for
//! 1 B – 4 kB payloads against the raw RDMA write ping-pong and kernel TCP/IP
//! baselines, for bare-metal and Docker executors in hot and warm mode.
//! Also prints the hot/warm overhead over raw RDMA (paper: ~326 ns / ~4.67 µs)
//! and the inlining anomaly at 128 B.

use crate::{print_table, summarize_us, Mode, ResultRow, Testbed};
use faas_baselines::TcpProfile;
use rfaas::PollingMode;
use sandbox::SandboxType;

fn payload_sizes() -> Vec<usize> {
    (0..=12).map(|p| 1usize << p).collect() // 1 B .. 4096 B
}

struct SeriesSpec {
    label: &'static str,
    sandbox: SandboxType,
    mode: PollingMode,
}

pub(crate) fn run(mode: Mode) -> Vec<ResultRow> {
    let repetitions = if mode.quick() { 20 } else { 200 };
    let mut rows = Vec::new();

    // Raw transport baselines.
    let rdma = rdma_fabric::NicProfile::mellanox_cx5_100g();
    let tcp = TcpProfile::kernel_100g();
    for &size in &payload_sizes() {
        rows.push(ResultRow {
            series: "RDMA (ib_write_lat)".into(),
            x: size as f64,
            median: rdma.write_pingpong_rtt(size).as_micros_f64(),
            p99: rdma.write_pingpong_rtt(size).as_micros_f64(),
            unit: "us".into(),
        });
        rows.push(ResultRow {
            series: "TCP/IP (netperf)".into(),
            x: size as f64,
            median: tcp.request_response(size, size).as_micros_f64(),
            p99: tcp.request_response(size, size).as_micros_f64(),
            unit: "us".into(),
        });
    }

    let series = [
        SeriesSpec {
            label: "rFaaS hot (bare-metal)",
            sandbox: SandboxType::BareMetal,
            mode: PollingMode::Hot,
        },
        SeriesSpec {
            label: "rFaaS warm (bare-metal)",
            sandbox: SandboxType::BareMetal,
            mode: PollingMode::Warm,
        },
        SeriesSpec {
            label: "rFaaS hot (Docker)",
            sandbox: SandboxType::Docker,
            mode: PollingMode::Hot,
        },
        SeriesSpec {
            label: "rFaaS warm (Docker)",
            sandbox: SandboxType::Docker,
            mode: PollingMode::Warm,
        },
    ];
    for spec in &series {
        let testbed = Testbed::new(1);
        let session = testbed.allocated_session("fig8-client", 1, spec.sandbox, spec.mode);
        let echo = session.function::<[u8], [u8]>("echo").expect("echo");
        for &size in &payload_sizes() {
            let payload = workloads::generate_payload(size, 7);
            echo.invoke(&payload[..]).expect("warm-up");
            let samples: Vec<_> = (0..repetitions)
                .map(|_| echo.invoke_timed(&payload[..]).expect("invoke").1)
                .collect();
            let summary = summarize_us(&samples);
            rows.push(ResultRow {
                series: spec.label.to_string(),
                x: size as f64,
                median: summary.median,
                p99: summary.p99,
                unit: "us".into(),
            });
        }
    }
    print_table("Figure 8: no-op function RTT vs message size", &rows);

    // Overhead over raw RDMA, averaged over the sweep (Sec. V-A).
    println!("\n# overhead over raw RDMA transmission (paper: hot 326 ns, warm 4.67 us; Docker +50 ns / +650 ns)");
    for spec in &series {
        let mut deltas = Vec::new();
        for &size in &payload_sizes() {
            let rfaas = rows
                .iter()
                .find(|r| r.series == spec.label && r.x == size as f64)
                .map(|r| r.median)
                .unwrap_or(f64::NAN);
            let baseline = rdma.write_pingpong_rtt(size).as_micros_f64();
            deltas.push((rfaas - baseline) * 1_000.0); // ns
        }
        let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
        println!("{:<28} mean overhead {:>8.0} ns", spec.label, mean);
    }

    // The 128-byte inlining anomaly: rFaaS adds the header so it loses the
    // inline optimisation one step earlier than raw RDMA.
    let hot_at = |x: f64| {
        rows.iter()
            .find(|r| r.series == "rFaaS hot (bare-metal)" && r.x == x)
            .map(|r| r.median)
            .unwrap_or(f64::NAN)
    };
    println!("\n# inlining effect around 128 B (paper: overhead grows to ~630 ns at 128 B)");
    for size in [64.0, 128.0, 256.0] {
        let baseline = rdma.write_pingpong_rtt(size as usize).as_micros_f64();
        println!(
            "payload {size:>5} B: rFaaS hot {:.3} us, raw RDMA {:.3} us, overhead {:.0} ns",
            hot_at(size),
            baseline,
            (hot_at(size) - baseline) * 1_000.0
        );
    }
    rows
}

//! Figure 8 (and Sec. V-A): round-trip time of a no-op rFaaS function for
//! 1 B – 4 kB payloads against the raw RDMA write ping-pong and kernel TCP/IP
//! baselines, for bare-metal and Docker executors in hot and warm mode. The
//! hot/warm overhead over raw RDMA (paper: ~326 ns / ~4.67 µs) and the
//! inlining anomaly at 128 B are differences of these rows.

use crate::{Mode, Row, Table, Testbed};
use faas_baselines::TcpProfile;
use rfaas::PollingMode;
use sandbox::SandboxType;

fn payload_sizes() -> Vec<usize> {
    (0..=12).map(|p| 1usize << p).collect() // 1 B .. 4096 B
}

pub(crate) fn run(_mode: Mode) -> Vec<Table> {
    let mut rows = Vec::new();

    // Raw transport baselines.
    let rdma = rdma_fabric::NicProfile::mellanox_cx5_100g();
    let tcp = TcpProfile::kernel_100g();
    for &size in &payload_sizes() {
        let x = size as f64;
        let rdma_rtt = rdma.write_pingpong_rtt(size).as_micros_f64();
        let tcp_rtt = tcp.request_response(size, size).as_micros_f64();
        rows.push(Row::value("RDMA (ib_write_lat)", x, rdma_rtt, "us"));
        rows.push(Row::value("TCP/IP (netperf)", x, tcp_rtt, "us"));
    }

    let series = [
        ("rFaaS hot (bare-metal)", SandboxType::BareMetal, PollingMode::Hot),
        ("rFaaS warm (bare-metal)", SandboxType::BareMetal, PollingMode::Warm),
        ("rFaaS hot (Docker)", SandboxType::Docker, PollingMode::Hot),
        ("rFaaS warm (Docker)", SandboxType::Docker, PollingMode::Warm),
    ];
    for (label, sandbox, mode) in series {
        let testbed = Testbed::new(1);
        let session = testbed.allocated_session("fig8-client", 1, sandbox, mode);
        let echo = session.function::<[u8], [u8]>("echo").expect("echo");
        for &size in &payload_sizes() {
            let payload = workloads::generate_payload(size, 7);
            echo.invoke(&payload[..]).expect("warm-up");
            let (_, rtt) = echo.invoke_timed(&payload[..]).expect("invoke");
            rows.push(Row::value(label, size as f64, rtt.as_micros_f64(), "us"));
        }
    }
    vec![Table {
        title: "Figure 8: no-op function RTT vs message size (paper overhead over raw RDMA: hot 326 ns, warm 4.67 us; Docker +50 ns / +650 ns; ~630 ns at 128 B)",
        rows,
    }]
}

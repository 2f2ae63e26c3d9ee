//! Figure 8 (and Sec. V-A): round-trip time of a no-op rFaaS function for
//! 1 B – 4 kB payloads against the raw RDMA write ping-pong and kernel TCP/IP
//! baselines, for bare-metal and Docker executors in hot and warm mode. The
//! hot/warm overhead over raw RDMA (paper: ~326 ns / ~4.67 µs) and the
//! inlining anomaly at 128 B are differences of these rows, and [`CLAIMS`]
//! holds the 8 B rows to the paper's bands.

use crate::{rows, Claim, Row, Size, Table, Testbed};
use faas_baselines::KERNEL_100G;
use rdma_fabric::CX5_100G;
use rfaas::PollingMode;
use sandbox::SandboxType;

fn payload_sizes() -> Vec<usize> {
    (0..=12).map(|p| 1usize << p).collect() // 1 B .. 4096 B
}

const RDMA: &str = "RDMA (ib_write_lat)";
const HOT: &str = "rFaaS hot (bare-metal)";
const WARM: &str = "rFaaS warm (bare-metal)";
const DOCKER_HOT: &str = "rFaaS hot (Docker)";
const DOCKER_WARM: &str = "rFaaS warm (Docker)";

/// The paper's latencies at 8 B: hot 3.96 µs, ~326 ns over the RDMA
/// ping-pong; warm 8.2 µs; Docker ~50 ns more hot, ~650 ns more warm.
#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    Claim { name: "hot @ 8 B in [3.5, 4.6) us", source: "paper §V-A",
        check: |t| rows(t, [(HOT, 8.0)], |[hot]| (3.5..4.6).contains(&hot)) },
    Claim { name: "hot - RDMA @ 8 B in [150, 650) ns", source: "paper §V-A",
        check: |t| rows(t, [(HOT, 8.0), (RDMA, 8.0)], |[hot, rdma]| {
            (150.0..650.0).contains(&((hot - rdma) * 1e3))
        }) },
    Claim { name: "warm @ 8 B in [6.5, 10.5) us", source: "paper §V-A",
        check: |t| rows(t, [(WARM, 8.0)], |[warm]| (6.5..10.5).contains(&warm)) },
    Claim { name: "warm > hot + 2 us @ 8 B", source: "paper §V-A",
        check: |t| rows(t, [(WARM, 8.0), (HOT, 8.0)], |[warm, hot]| warm > hot + 2.0) },
    Claim { name: "Docker hot - hot @ 8 B in [10, 300) ns", source: "paper §V-A",
        check: |t| rows(t, [(DOCKER_HOT, 8.0), (HOT, 8.0)], |[docker, bare]| {
            (10.0..300.0).contains(&((docker - bare) * 1e3))
        }) },
    Claim { name: "Docker warm - warm @ 8 B in [300, 1300) ns", source: "paper §V-A",
        check: |t| rows(t, [(DOCKER_WARM, 8.0), (WARM, 8.0)], |[docker, bare]| {
            (300.0..1_300.0).contains(&((docker - bare) * 1e3))
        }) },
];

pub(crate) fn run(_size: Size) -> Vec<Table> {
    let mut rows = Vec::new();

    // Raw transport baselines.
    for &size in &payload_sizes() {
        let x = size as f64;
        let rdma_rtt = CX5_100G.write_pingpong_rtt(size).as_micros_f64();
        let tcp_rtt = KERNEL_100G.request_response(size, size).as_micros_f64();
        rows.push(Row::value(RDMA, x, rdma_rtt, "us"));
        rows.push(Row::value("TCP/IP (netperf)", x, tcp_rtt, "us"));
    }

    let series = [
        (HOT, SandboxType::BareMetal, PollingMode::Hot),
        (WARM, SandboxType::BareMetal, PollingMode::Warm),
        (DOCKER_HOT, SandboxType::Docker, PollingMode::Hot),
        (DOCKER_WARM, SandboxType::Docker, PollingMode::Warm),
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

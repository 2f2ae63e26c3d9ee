//! Figure 10: parallel invocations on 1–32 remote executor workers with 1 kB
//! and 1 MB payloads, hot vs warm, against the aggregate link-bandwidth bound.
//!
//! The reported metric is the round-trip time of dispatching one invocation
//! to every worker simultaneously and collecting all results (the client-side
//! batch latency, as in Sec. V-D). Expected shape (paper): 1 kB hot stays
//! flat at a few µs, 1 kB warm grows with notification contention, and 1 MB
//! grows with the worker count because the 100 Gb/s link saturates (~2.7 ms
//! at 32 workers). [`CLAIMS`] holds the 8-worker hot batches to that shape.

use crate::{rows, Claim, Row, Size, Table, Testbed};
use rdma_fabric::CX5_100G;
use rfaas::{FunctionHandle, PollingMode};
use sandbox::SandboxType;
use sim_core::SimDuration;

fn worker_counts() -> Vec<u32> {
    vec![1, 2, 4, 8, 16, 32]
}

fn payload_label(payload: usize) -> &'static str {
    if payload >= 1024 * 1024 {
        "1 MB"
    } else {
        "1 kB"
    }
}

fn measure(mode: PollingMode, label_prefix: &str, payload: usize, rows: &mut Vec<Row>) {
    for &workers in &worker_counts() {
        let testbed = Testbed::new(1);
        let session =
            testbed.allocated_session("fig10-client", workers, SandboxType::BareMetal, mode);
        let echo = session.function::<[u8], [u8]>("echo").expect("echo");
        let data = workloads::generate_payload(payload, 11);
        let chunks: Vec<&[u8]> = (0..workers).map(|_| data.as_slice()).collect();
        // Warm-up round, then one measured round on an idle link.
        run_round(&session, &echo, &chunks);
        if let Some(n) = testbed.fabric.node("spot-00") {
            n.reset_contention()
        }
        let rtt = run_round(&session, &echo, &chunks);
        rows.push(Row::value(
            format!("{label_prefix} {}", payload_label(payload)),
            workers as f64,
            rtt.as_micros_f64(),
            "us",
        ));
    }
}

/// One batch round: scatter one invocation per worker behind a shared
/// doorbell and gather every result.
fn run_round(
    session: &rfaas::Session,
    echo: &FunctionHandle<'_, [u8], [u8]>,
    chunks: &[&[u8]],
) -> SimDuration {
    let start = session.clock().now();
    let set = echo.map_workers(chunks.iter().copied()).expect("scatter");
    set.wait_all().expect("results");
    session.clock().now().saturating_since(start)
}

#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    Claim { name: "8-worker 1 kB hot batch < 30 us", source: "paper §V-D",
        check: |t| rows(t, [("rFaaS hot 1 kB", 8.0)], |[rtt]| rtt < 30.0) },
    Claim { name: "8-worker 1 MB hot batch > 7 x serialization(1 MiB)", source: "paper §V-D",
        check: |t| rows(t, [("rFaaS hot 1 MB", 8.0)], |[rtt]| {
            rtt > 7.0 * CX5_100G.serialization(1 << 20).as_micros_f64()
        }) },
];

pub(crate) fn run(_size: Size) -> Vec<Table> {
    let mut rows = Vec::new();
    for payload in [1024usize, 1024 * 1024] {
        measure(PollingMode::Hot, "rFaaS hot", payload, &mut rows);
        measure(PollingMode::Warm, "rFaaS warm", payload, &mut rows);
        // Aggregate-bandwidth bound of the 100 Gb/s link: all payloads must
        // stream out of the client NIC and the results must stream back in.
        for &workers in &worker_counts() {
            let bound = CX5_100G.serialization(payload * workers as usize)
                + CX5_100G.one_way_latency
                + CX5_100G.serialization(payload)
                + CX5_100G.one_way_latency;
            rows.push(Row::value(
                format!("RDMA bandwidth bound {}", payload_label(payload)),
                workers as f64,
                bound.as_micros_f64(),
                "us",
            ));
        }
    }
    vec![Table {
        title: "Figure 10: parallel invocations on remote executors (batch RTT vs worker count)",
        rows,
    }]
}

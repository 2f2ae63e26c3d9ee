//! Figure 1: round-trip latency of invoking a no-op function across payload
//! sizes from 1 kB to 5 MB, comparing rFaaS hot/warm invocations with AWS
//! Lambda, OpenWhisk and Nightcore.
//!
//! The rFaaS series are value rows: each size is one deterministic invocation
//! after a warm-up. The baseline series are distributions of 200 RTTs drawn
//! from each platform's latency model by a `DeterministicRng` seeded with
//! 2021, their one source of variation.
//!
//! [`CLAIMS`] reads the rFaaS hot rows: the 1 MiB echo reaches the link
//! bandwidth, and the 1 kB one beats each baseline's deterministic
//! `invoke_rtt` by the paper's orders of magnitude.

use crate::{rows, Claim, Row, Size, Table, Testbed};
use faas_baselines::{aws_lambda, nightcore, openwhisk, BaselinePlatform};
use rfaas::PollingMode;
use sandbox::SandboxType;
use sim_core::{DeterministicRng, SimDuration};

const KB: usize = 1024;

fn payload_sizes() -> Vec<usize> {
    // 1, 2, 4, ..., 2048, 5120 kB as on the x-axis of Fig. 1.
    let mut sizes: Vec<usize> = (0..=11).map(|p| (1usize << p) * KB).collect();
    sizes.push(5120 * KB);
    sizes
}

fn measure_rfaas(mode: PollingMode, label: &str, rows: &mut Vec<Row>) {
    let testbed = Testbed::new(1);
    let session = testbed.allocated_session("fig1-client", 1, SandboxType::BareMetal, mode);
    let echo = session.function::<[u8], [u8]>("echo").expect("echo");
    for &size in &payload_sizes() {
        let payload = workloads::generate_payload(size, 1);
        // Warm-up invocation, then measure.
        echo.invoke(&payload[..]).expect("invocation");
        let (_, rtt) = echo.invoke_timed(&payload[..]).expect("invocation");
        rows.push(Row::value(
            label,
            (size / KB) as f64,
            rtt.as_micros_f64(),
            "us",
        ));
    }
}

fn measure_baseline(platform: &BaselinePlatform, rows: &mut Vec<Row>) {
    let mut rng = DeterministicRng::new(2021);
    for &size in &payload_sizes() {
        if !platform.accepts_payload(size) {
            continue;
        }
        let samples: Vec<f64> = (0..200)
            .map(|_| {
                platform
                    .sample_rtt(size, size, SimDuration::ZERO, &mut rng)
                    .as_micros_f64()
            })
            .collect();
        rows.push(Row::distribution(
            platform.name.clone(),
            (size / KB) as f64,
            &samples,
            "us",
        ));
    }
}

/// Goodput of the 1 MiB hot echo (2 MiB on the wire), GiB/s.
fn goodput_gib_s(rtt_us: f64) -> f64 {
    2.0 * (KB * KB) as f64 / (rtt_us * 1e-6) / (1024.0 * 1024.0 * 1024.0)
}

/// Whether the 1 kB hot echo is `low..high` times faster than the
/// deterministic RTT of `platform`.
fn speedup_in(t: &[Table], platform: BaselinePlatform, low: f64, high: f64) -> Result<(), String> {
    let baseline_us = platform
        .invoke_rtt(KB, KB, SimDuration::ZERO)
        .as_micros_f64();
    rows(t, [("rFaaS hot", 1.0)], |[hot]| {
        (low..high).contains(&(baseline_us / hot))
    })
}

/// Paper: rFaaS reaches the link bandwidth, and is 695x-3692x faster than
/// AWS Lambda, 5904x-22406x than OpenWhisk and 23x-39x than Nightcore.
#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    Claim { name: "1 MiB hot echo goodput > 8 GiB/s", source: "paper §V-A",
        check: |t| rows(t, [("rFaaS hot", 1024.0)], |[rtt]| goodput_gib_s(rtt) > 8.0) },
    Claim { name: "1 MiB hot echo goodput < 12 GiB/s, the link", source: "paper §V-A",
        check: |t| rows(t, [("rFaaS hot", 1024.0)], |[rtt]| goodput_gib_s(rtt) < 12.0) },
    Claim { name: "AWS Lambda / rFaaS hot @ 1 kB in [500, 6000)", source: "paper Fig. 1",
        check: |t| speedup_in(t, aws_lambda(), 500.0, 6_000.0) },
    Claim { name: "OpenWhisk / rFaaS hot @ 1 kB in [4000, 40000)", source: "paper Fig. 1",
        check: |t| speedup_in(t, openwhisk(), 4_000.0, 40_000.0) },
    Claim { name: "Nightcore / rFaaS hot @ 1 kB in [15, 80)", source: "paper Fig. 1",
        check: |t| speedup_in(t, nightcore(), 15.0, 80.0) },
];

pub(crate) fn run(_size: Size) -> Vec<Table> {
    let mut rows = Vec::new();
    measure_rfaas(PollingMode::Hot, "rFaaS hot", &mut rows);
    measure_rfaas(PollingMode::Warm, "rFaaS warm", &mut rows);
    for platform in [aws_lambda(), openwhisk(), nightcore()] {
        measure_baseline(&platform, &mut rows);
    }
    vec![Table {
        title: "Figure 1: no-op invocation RTT vs payload size (rFaaS vs AWS Lambda, OpenWhisk, Nightcore; paper: 695x-3692x faster than AWS, 23x-39x than Nightcore at 1 kB)",
        rows,
    }]
}

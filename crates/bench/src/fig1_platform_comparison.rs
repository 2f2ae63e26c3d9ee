//! Figure 1: round-trip latency of invoking a no-op function across payload
//! sizes from 1 kB to 5 MB, comparing rFaaS hot/warm invocations with AWS
//! Lambda, OpenWhisk and Nightcore.

use crate::{print_table, summarize_us, Mode, ResultRow, Testbed};
use faas_baselines::{aws_lambda, nightcore, openwhisk, BaselinePlatform};
use rfaas::PollingMode;
use sandbox::SandboxType;
use sim_core::{DeterministicRng, SimDuration, Summary};

const KB: usize = 1024;

fn payload_sizes() -> Vec<usize> {
    // 1, 2, 4, ..., 2048, 5120 kB as on the x-axis of Fig. 1.
    let mut sizes: Vec<usize> = (0..=11).map(|p| (1usize << p) * KB).collect();
    sizes.push(5120 * KB);
    sizes
}

fn measure_rfaas(mode: PollingMode, label: &str, repetitions: usize, rows: &mut Vec<ResultRow>) {
    let testbed = Testbed::new(1);
    let session = testbed.allocated_session("fig1-client", 1, SandboxType::BareMetal, mode);
    let echo = session.function::<[u8], [u8]>("echo").expect("echo");
    for &size in &payload_sizes() {
        let payload = workloads::generate_payload(size, 1);
        // Warm-up invocation, then measure.
        echo.invoke(&payload[..]).expect("invocation");
        let mut samples = Vec::with_capacity(repetitions);
        for _ in 0..repetitions {
            let (_, rtt) = echo.invoke_timed(&payload[..]).expect("invocation");
            samples.push(rtt);
        }
        let summary = summarize_us(&samples);
        rows.push(ResultRow {
            series: label.to_string(),
            x: (size / KB) as f64,
            median: summary.median,
            p99: summary.p99,
            unit: "us".into(),
        });
    }
}

fn measure_baseline(
    platform: &BaselinePlatform,
    rows: &mut Vec<ResultRow>,
    samples_per_size: usize,
) {
    let mut rng = DeterministicRng::new(2021);
    for &size in &payload_sizes() {
        if !platform.accepts_payload(size) {
            continue;
        }
        let samples: Vec<SimDuration> = (0..samples_per_size)
            .map(|_| platform.sample_rtt(size, size, SimDuration::ZERO, &mut rng))
            .collect();
        let summary = Summary::of_durations_us(&samples);
        rows.push(ResultRow {
            series: platform.name.clone(),
            x: (size / KB) as f64,
            median: summary.median,
            p99: summary.p99,
            unit: "us".into(),
        });
    }
}

pub(crate) fn run(mode: Mode) -> Vec<ResultRow> {
    let repetitions = if mode.quick() { 10 } else { 50 };
    let mut rows = Vec::new();
    measure_rfaas(PollingMode::Hot, "rFaaS hot", repetitions, &mut rows);
    measure_rfaas(PollingMode::Warm, "rFaaS warm", repetitions, &mut rows);
    for platform in [aws_lambda(), openwhisk(), nightcore()] {
        measure_baseline(&platform, &mut rows, 200);
    }
    print_table(
        "Figure 1: no-op invocation RTT vs payload size (rFaaS vs AWS Lambda, OpenWhisk, Nightcore)",
        &rows,
    );

    // Headline ratios reported in Sec. V-C.
    let median_of = |series: &str, kb: f64| {
        rows.iter()
            .find(|r| r.series == series && r.x == kb)
            .map(|r| r.median)
            .unwrap_or(f64::NAN)
    };
    let rfaas_1k = median_of("rFaaS hot", 1.0);
    println!("\n# speedups at 1 kB (paper: 695x-3692x vs AWS, 23x-39x vs Nightcore)");
    println!(
        "vs AWS Lambda: {:.0}x",
        median_of("AWS Lambda", 1.0) / rfaas_1k
    );
    println!(
        "vs OpenWhisk:  {:.0}x",
        median_of("OpenWhisk", 1.0) / rfaas_1k
    );
    println!(
        "vs nightcore:  {:.0}x",
        median_of("nightcore", 1.0) / rfaas_1k
    );
    rows
}

//! Figure 7 (Fig. 5/6, Sec. V-A/V-B): the hot/warm/cold invocation spectrum.
//!
//! The paper's headline result is a latency *hierarchy*: a hot executor
//! busy-polls its receive ring and serves an invocation in single-digit
//! microseconds, a warm executor sleeps on completion events and pays the
//! wake-up path, and a cold invocation pays the full allocation pipeline
//! (manager round-trip, lease, sandbox spawn, code submission, worker
//! connections). This figure measures all three across payload sizes and
//! enforces the ordering the paper reports: for small payloads the hot
//! median must be at least 10× below the cold median, with warm strictly
//! in between. A violated ordering aborts the run, so the golden report
//! test (`--quick`) doubles as a regression gate.
//!
//! A second section demonstrates the hot→warm demotion: after an idle gap
//! longer than `HOT_POLL_TIMEOUT` the worker parks itself, the polling bill
//! is capped, and the next invocation pays warm latency.

use crate::{print_table, summarize_us, Mode, ResultRow, Testbed};
use rfaas::{PollingMode, HOT_POLL_TIMEOUT};
use sandbox::SandboxType;

fn payload_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 1024, 16 * 1024]
    } else {
        vec![1, 16, 128, 1024, 4096, 16 * 1024, 64 * 1024, 256 * 1024]
    }
}

/// Median + p99 RTT of repeated invocations on an already-leased worker.
///
/// The spectrum is *the* zero-copy latency gate: the typed path posts small
/// wires inline with no staging copy, reuses pooled registered buffers, and
/// charges the virtual clock exactly what a hand-posted invocation does.
fn leased_series(mode: PollingMode, sizes: &[usize], repetitions: usize) -> Vec<(usize, f64, f64)> {
    let testbed = Testbed::new(1);
    let session = testbed.allocated_session("fig7-client", 1, SandboxType::BareMetal, mode);
    let echo = session.function::<[u8], [u8]>("echo").expect("echo");
    sizes
        .iter()
        .map(|&size| {
            let payload = workloads::generate_payload(size, 7);
            echo.invoke_timed(&payload).expect("warm-up");
            let samples: Vec<_> = (0..repetitions)
                .map(|_| echo.invoke_timed(&payload).expect("invoke").1)
                .collect();
            let s = summarize_us(&samples);
            (size, s.median, s.p99)
        })
        .collect()
}

/// Median + p99 of full cold invocations: a fresh lease, executor process
/// and worker connections per sample, plus the first invocation.
fn cold_series(sizes: &[usize], repetitions: usize) -> Vec<(usize, f64, f64)> {
    sizes
        .iter()
        .map(|&size| {
            let samples: Vec<_> = (0..repetitions)
                .map(|rep| {
                    // A fresh testbed per sample (as in fig9): a cold client
                    // meets a platform with no residual port occupancy or
                    // allocator state from earlier samples.
                    let testbed = Testbed::new(1);
                    let session = testbed.allocated_session(
                        &format!("fig7-cold-{size}-{rep}"),
                        1,
                        SandboxType::BareMetal,
                        PollingMode::Hot,
                    );
                    let cold_start = session.cold_start().expect("fresh allocation").total();
                    let (_, rtt) = session
                        .function::<[u8], [u8]>("echo")
                        .expect("echo")
                        .invoke_timed(&workloads::generate_payload(size, 7))
                        .expect("invoke");
                    session.close().expect("deallocate");
                    cold_start + rtt
                })
                .collect();
            let s = summarize_us(&samples);
            (size, s.median, s.p99)
        })
        .collect()
}

pub(crate) fn run(mode: Mode) -> Vec<ResultRow> {
    let quick = mode.quick();
    let sizes = payload_sizes(quick);
    let leased_reps = if quick { 20 } else { 200 };
    let cold_reps = if quick { 5 } else { 30 };

    let hot = leased_series(PollingMode::Hot, &sizes, leased_reps);
    let warm = leased_series(PollingMode::Warm, &sizes, leased_reps);
    let cold = cold_series(&sizes, cold_reps);

    let mut rows = Vec::new();
    for (series, data) in [("hot", &hot), ("warm", &warm), ("cold", &cold)] {
        for &(size, median, p99) in data.iter() {
            rows.push(ResultRow {
                series: format!("rFaaS {series}"),
                x: size as f64,
                median,
                p99,
                unit: "us".into(),
            });
        }
    }
    print_table("Figure 7: hot/warm/cold invocation spectrum", &rows);

    // The spectrum gate: the hierarchy must hold at every payload size, and
    // for small payloads hot must beat cold by at least an order of
    // magnitude (the paper reports nearly four orders).
    println!("\n# spectrum ordering (hot < warm < cold at every size; cold/hot >= 10x for small payloads)");
    for (i, &size) in sizes.iter().enumerate() {
        let (h, w, c) = (hot[i].1, warm[i].1, cold[i].1);
        let ratio = c / h;
        println!(
            "payload {size:>8} B: hot {h:>10.3} us, warm {w:>10.3} us, cold {c:>12.3} us, cold/hot {ratio:>8.1}x"
        );
        assert!(
            h < w && w < c,
            "spectrum ordering violated at {size} B: hot {h}, warm {w}, cold {c}"
        );
        if size <= 4096 {
            assert!(
                c >= 10.0 * h,
                "cold p50 must be >= 10x hot p50 at {size} B: hot {h} us, cold {c} us"
            );
        }
    }

    // Hot→warm demotion: one idle gap past the hot-poll budget parks the
    // worker; the next invocation pays warm latency and the polling bill is
    // capped at the budget.
    let testbed = Testbed::new(1);
    let session =
        testbed.allocated_session("fig7-demotion", 1, SandboxType::BareMetal, PollingMode::Hot);
    let echo = session.function::<[u8], [u8]>("echo").expect("echo");
    let payload = workloads::generate_payload(8, 7);
    echo.invoke_timed(&payload).expect("warm-up");
    let (_, hot_rtt) = echo.invoke_timed(&payload).expect("hot invoke");
    session.clock().advance(HOT_POLL_TIMEOUT * 2);
    let (_, demoted_rtt) = echo.invoke_timed(&payload).expect("demoted invoke");
    let stats = testbed.executors[0]
        .allocator()
        .processes()
        .pop()
        .expect("live process")
        .stats();
    println!("\n# hot→warm demotion (hot_poll_timeout = {HOT_POLL_TIMEOUT})");
    println!(
        "hot rtt {:.3} us, post-demotion rtt {:.3} us, demotions {}, billed polling {}",
        hot_rtt.as_micros_f64(),
        demoted_rtt.as_micros_f64(),
        stats.demotions,
        stats.hot_poll_time
    );
    assert_eq!(stats.demotions, 1, "exactly one demotion expected");
    assert!(
        demoted_rtt > hot_rtt,
        "the demoted invocation must pay the warm wake-up"
    );
    assert!(
        stats.hot_poll_time < HOT_POLL_TIMEOUT + sim_core::SimDuration::from_millis(1),
        "polling bill must be capped at the demotion budget"
    );
    rows
}

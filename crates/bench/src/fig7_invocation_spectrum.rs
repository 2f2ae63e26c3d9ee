//! Figure 7 (Fig. 5/6, Sec. V-A/V-B): the hot/warm/cold invocation spectrum.
//!
//! The paper's headline result is a latency *hierarchy*: a hot executor
//! busy-polls its receive ring and serves an invocation in single-digit
//! microseconds, a warm executor sleeps on completion events and pays the
//! wake-up path, and a cold invocation pays the full allocation pipeline
//! (manager round-trip, lease, sandbox spawn, code submission, worker
//! connections). This figure measures all three across payload sizes and
//! enforces the ordering the paper reports: for small payloads the hot
//! RTT must be at least 10× below the cold one, with warm strictly in
//! between. A violated ordering aborts the run, so the golden report
//! test (`--quick`) doubles as a regression gate.
//!
//! A second section demonstrates the hot→warm demotion: after an idle gap
//! longer than `HOT_POLL_TIMEOUT` the worker parks itself, the polling bill
//! is capped, and the next invocation pays warm latency.

use crate::{Mode, Row, Table, Testbed};
use rfaas::{PollingMode, HOT_POLL_TIMEOUT};
use sandbox::SandboxType;

fn payload_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 1024, 16 * 1024]
    } else {
        vec![1, 16, 128, 1024, 4096, 16 * 1024, 64 * 1024, 256 * 1024]
    }
}

/// RTT in µs of one invocation per size on an already-leased worker, after a
/// warm-up invocation.
///
/// The spectrum is *the* zero-copy latency gate: the typed path posts small
/// wires inline with no staging copy, reuses pooled registered buffers, and
/// charges the virtual clock exactly what a hand-posted invocation does.
fn leased_series(mode: PollingMode, sizes: &[usize]) -> Vec<f64> {
    let testbed = Testbed::new(1);
    let session = testbed.allocated_session("fig7-client", 1, SandboxType::BareMetal, mode);
    let echo = session.function::<[u8], [u8]>("echo").expect("echo");
    sizes
        .iter()
        .map(|&size| {
            let payload = workloads::generate_payload(size, 7);
            echo.invoke_timed(&payload).expect("warm-up");
            echo.invoke_timed(&payload).expect("invoke").1.as_micros_f64()
        })
        .collect()
}

/// Cost in µs of one full cold invocation per size: a fresh lease, executor
/// process and worker connections, plus the first invocation.
fn cold_series(sizes: &[usize]) -> Vec<f64> {
    sizes
        .iter()
        .map(|&size| {
            // A fresh testbed per size (as in fig9): a cold client meets a
            // platform with no residual port occupancy or allocator state.
            let testbed = Testbed::new(1);
            let session = testbed.allocated_session(
                &format!("fig7-cold-{size}"),
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
            (cold_start + rtt).as_micros_f64()
        })
        .collect()
}

pub(crate) fn run(mode: Mode) -> Vec<Table> {
    let sizes = payload_sizes(mode.quick());
    let hot = leased_series(PollingMode::Hot, &sizes);
    let warm = leased_series(PollingMode::Warm, &sizes);
    let cold = cold_series(&sizes);

    let mut spectrum = Vec::new();
    for (series, data) in [("hot", &hot), ("warm", &warm), ("cold", &cold)] {
        for (&size, &rtt) in sizes.iter().zip(data) {
            spectrum.push(Row::value(format!("rFaaS {series}"), size as f64, rtt, "us"));
        }
    }

    // The spectrum gate: the hierarchy must hold at every payload size, and
    // for small payloads hot must beat cold by at least an order of
    // magnitude (the paper reports nearly four orders).
    for (i, &size) in sizes.iter().enumerate() {
        let (h, w, c) = (hot[i], warm[i], cold[i]);
        assert!(
            h < w && w < c,
            "spectrum ordering violated at {size} B: hot {h}, warm {w}, cold {c}"
        );
        if size <= 4096 {
            assert!(
                c >= 10.0 * h,
                "cold must be >= 10x hot at {size} B: hot {h} us, cold {c} us"
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
    let gap = HOT_POLL_TIMEOUT * 2;
    session.clock().advance(gap);
    let (_, demoted_rtt) = echo.invoke_timed(&payload).expect("demoted invoke");
    let stats = testbed.executors[0]
        .allocator()
        .processes()
        .pop()
        .expect("live process")
        .stats();
    assert_eq!(stats.demotions, 1, "exactly one demotion expected");
    assert!(
        demoted_rtt > hot_rtt,
        "the demoted invocation must pay the warm wake-up"
    );
    assert!(
        stats.hot_poll_time < HOT_POLL_TIMEOUT + sim_core::SimDuration::from_millis(1),
        "polling bill must be capped at the demotion budget"
    );
    let gap_ms = gap.as_millis_f64();
    let demotion = vec![
        Row::value("8 B echo after idle gap", 0.0, hot_rtt.as_micros_f64(), "us"),
        Row::value(
            "8 B echo after idle gap",
            gap_ms,
            demoted_rtt.as_micros_f64(),
            "us",
        ),
        Row::value("demotions", gap_ms, stats.demotions as f64, "count"),
        Row::value(
            "billed hot polling",
            gap_ms,
            stats.hot_poll_time.as_millis_f64(),
            "ms",
        ),
    ];

    vec![
        Table {
            title: "Figure 7: hot/warm/cold invocation spectrum",
            rows: spectrum,
        },
        Table {
            title: "Figure 7: hot->warm demotion after an idle gap of twice hot_poll_timeout (x = gap in ms)",
            rows: demotion,
        },
    ]
}

//! Figure 7 (Fig. 5/6, Sec. V-A/V-B): the hot/warm/cold invocation spectrum.
//!
//! The paper's headline result is a latency *hierarchy*: a hot executor
//! busy-polls its receive ring and serves an invocation in single-digit
//! microseconds, a warm executor sleeps on completion events and pays the
//! wake-up path, and a cold invocation pays the full allocation pipeline
//! (manager round-trip, lease, sandbox spawn, code submission, worker
//! connections). This figure measures all three across payload sizes, and
//! its [`CLAIMS`] hold it to the ordering the paper reports: hot < warm <
//! cold at every size, and for small payloads the hot RTT at least 10×
//! below the cold one. The golden report test (`--quick`) and the `figures`
//! binary check them after the rows (`Figure::claims`).
//!
//! A second section demonstrates the hot→warm demotion: after an idle gap
//! longer than `HOT_POLL_TIMEOUT` the worker parks itself, the polling bill
//! is capped, and the next invocation pays warm latency.

use crate::{at, every, Claim, Row, Size, Table, Testbed};
use rfaas::{PollingMode, HOT_POLL_TIMEOUT};
use sandbox::SandboxType;
use sim_core::SimDuration;

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
            echo.invoke_timed(&payload)
                .expect("invoke")
                .1
                .as_micros_f64()
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

const HOT: &str = "rFaaS hot";
const WARM: &str = "rFaaS warm";
const COLD: &str = "rFaaS cold";
const IDLE_GAP: &str = "8 B echo after idle gap";

#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    Claim { name: "hot < warm < cold at every size", source: "paper §V-A",
        check: |t| every(t, [HOT, WARM, COLD], |_, [hot, warm, cold]| hot < warm && warm < cold) },
    Claim { name: "cold >= 10x hot at <= 4096 B", source: "paper §V-A",
        check: |t| every(t, [HOT, COLD], |x, [hot, cold]| x > 4096.0 || cold >= 10.0 * hot) },
    Claim { name: "cold > 10 ms at every size", source: "paper §V-A",
        check: |t| every(t, [COLD], |_, [cold]| cold > 10_000.0) },
    Claim { name: "exactly one demotion", source: "model",
        check: |t| every(t, ["demotions"], |_, [n]| n == 1.0) },
    Claim { name: "the demoted invocation pays the warm wake-up", source: "model",
        check: |t| at(t, IDLE_GAP, 0.0)
            .and_then(|hot| every(t, ["demotions", IDLE_GAP], |_, [_, demoted]| demoted > hot)) },
    Claim { name: "the polling bill is capped at the demotion budget", source: "model",
        check: |t| every(t, ["billed hot polling"], |_, [billed]| {
            billed < (HOT_POLL_TIMEOUT + SimDuration::from_millis(1)).as_millis_f64()
        }) },
];

pub(crate) fn run(size: Size) -> Vec<Table> {
    let sizes = payload_sizes(size.quick());
    let hot = leased_series(PollingMode::Hot, &sizes);
    let warm = leased_series(PollingMode::Warm, &sizes);
    let cold = cold_series(&sizes);

    let mut spectrum = Vec::new();
    for (series, data) in [(HOT, &hot), (WARM, &warm), (COLD, &cold)] {
        for (&size, &rtt) in sizes.iter().zip(data) {
            spectrum.push(Row::value(series, size as f64, rtt, "us"));
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
    let gap_ms = gap.as_millis_f64();
    let demotion = vec![
        Row::value(IDLE_GAP, 0.0, hot_rtt.as_micros_f64(), "us"),
        Row::value(IDLE_GAP, gap_ms, demoted_rtt.as_micros_f64(), "us"),
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

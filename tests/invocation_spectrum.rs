//! Integration tests for the hot/warm/cold invocation spectrum (Fig. 5/6,
//! Sec. V-A): the paper's latency hierarchy holds (claims over fig7's and
//! fig8's rows, checked by name), and beyond what the report's rows show,
//! the fork tier sits between warm and cold, and hot workers demote to warm
//! after spinning past the hot-poll timeout (Sec. III-C).

mod claims;

use claims::{assert_claims, claims_hold, quick_tables};
use rfaas::{AllocationPolicy, PollingMode, RFaasConfig, HOT_POLL_TIMEOUT};
use rfaas_bench::{at, Testbed};
use sandbox::SandboxType;
use sim_core::{median, SimDuration};

/// Round-trip of one 8 B echo on a freshly leased worker, after a warm-up
/// invocation: a deterministic state, measured once.
fn leased_rtt_us(mode: PollingMode) -> f64 {
    let testbed = Testbed::new(1);
    let session = testbed.allocated_session("spectrum-client", 1, SandboxType::BareMetal, mode);
    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    let data = workloads::generate_payload(8, 11);
    echo.invoke_timed(&data).unwrap();
    echo.invoke_timed(&data).unwrap().1.as_micros_f64()
}

#[test]
fn spectrum_ordering_hot_warm_cold() {
    // The hierarchy of Fig. 5: hot < warm < cold, with at least an order of
    // magnitude between hot and cold (the paper reports nearly four), and
    // cold in the tens of milliseconds.
    claims_hold(
        "fig7_invocation_spectrum",
        &[
            "hot < warm < cold at every size",
            "cold >= 10x hot at <= 4096 B",
            "cold > 10 ms at every size",
        ],
    );
    // The absolute hot and warm scales, pinned to the paper's bands.
    claims_hold(
        "fig8_invocation_latency",
        &["hot @ 8 B in [3.5, 4.6) us", "warm @ 8 B in [6.5, 10.5) us"],
    );
}

#[test]
fn fork_tier_sits_between_warm_and_cold() {
    // The fork tier extends the spectrum: a forked allocation plus its
    // fault-paying first invocation must beat the full cold path by orders
    // of magnitude while staying above a plain leased warm invocation, and
    // once the page map is resident the forked child *is* a warm executor.
    let mut config = RFaasConfig::paper_calibration();
    config.warm_pool_capacity = 1;
    let testbed = Testbed::with_config(1, config);

    // Park a warm parent: one cold allocation, released.
    let parent = testbed
        .session("fork-parent")
        .polling(PollingMode::Warm)
        .connect()
        .unwrap();
    let cold_setup = {
        let cold = parent.cold_start().unwrap();
        (cold.spawn_workers + cold.submit_code).as_micros_f64()
    };
    parent.close().unwrap();

    let session = testbed
        .session("fork-child")
        .polling(PollingMode::Warm)
        .allocation_policy(AllocationPolicy::Fork)
        .connect()
        .unwrap();
    let fork = || session.stats().fork.expect("forked provisioning");
    let forked_setup = {
        let cold = session.cold_start().unwrap();
        (cold.spawn_workers + cold.submit_code).as_micros_f64()
    };
    assert!(
        forked_setup < 100.0 && cold_setup / forked_setup >= 100.0,
        "forked setup {forked_setup} us vs cold {cold_setup} us"
    );

    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    let data = workloads::generate_payload(8, 11);
    let rtt_us = || echo.invoke_timed(&data).unwrap().1.as_micros_f64();
    // Early invocations each pay one prefetch batch of page faults on top
    // of the warm path.
    let first = rtt_us();
    let mut rtts = vec![first];
    while !fork().is_complete() {
        rtts.push(rtt_us());
    }
    // Steady state: the faulted-in child matches the plain warm band.
    let warm = leased_rtt_us(PollingMode::Warm);
    let steady = rtt_us();
    assert!(
        first > warm,
        "a fault-paying invocation ({first} us) must exceed warm ({warm} us)"
    );
    assert!(
        (steady - warm).abs() < 2.0,
        "steady forked invocation {steady} us must match the warm band {warm} us"
    );
    // The whole fault-in residue stays microseconds — nowhere near a second
    // cold start.
    let residue: f64 = rtts.iter().sum();
    assert!(
        residue < 1_000.0,
        "total fault-in residue {residue} us must stay µs-scale"
    );
    let fork = fork();
    assert_eq!(fork.pages_faulted(), fork.total_pages());
}

#[test]
fn spectrum_ordering_holds_across_payload_sizes() {
    let (figure, tables) = quick_tables("fig7_invocation_spectrum");
    for payload in [1.0, 1024.0, 16.0 * 1024.0] {
        for series in ["rFaaS hot", "rFaaS warm"] {
            assert!(
                at(&tables, series, payload).is_ok(),
                "fig7 has no {series} row at {payload} B"
            );
        }
    }
    assert_claims(figure, &tables, &["hot < warm < cold at every size"]);
}

#[test]
fn hot_worker_demotes_to_warm_after_the_poll_timeout() {
    let testbed = Testbed::new(1);
    let session = testbed.allocated_session(
        "demotion-client",
        1,
        SandboxType::BareMetal,
        PollingMode::Hot,
    );
    let echo = session.function::<[u8], [u8]>("echo").unwrap();

    // Back-to-back invocations stay hot.
    echo.invoke(&[7u8; 8]).unwrap();
    let (_, hot_rtt) = echo.invoke_timed(&[7u8; 8]).unwrap();

    let process = testbed.executors[0]
        .allocator()
        .processes()
        .pop()
        .expect("live executor process");
    assert_eq!(process.worker_mode(0), PollingMode::Hot);
    assert_eq!(process.stats().demotions, 0);

    // One idle gap past the budget: the worker demotes, the polling bill is
    // capped at the budget, and the invocation pays the warm wake-up.
    session.clock().advance(HOT_POLL_TIMEOUT * 3);
    let (_, demoted_rtt) = echo.invoke_timed(&[7u8; 8]).unwrap();
    assert_eq!(process.worker_mode(0), PollingMode::Warm);
    let stats = process.stats();
    assert_eq!(stats.demotions, 1);
    assert!(stats.hot_poll_time >= HOT_POLL_TIMEOUT);
    assert!(
        stats.hot_poll_time < HOT_POLL_TIMEOUT + SimDuration::from_millis(1),
        "billed polling {} must be capped at the {} budget",
        stats.hot_poll_time,
        HOT_POLL_TIMEOUT
    );
    assert!(
        demoted_rtt > hot_rtt,
        "demoted rtt {demoted_rtt} must exceed hot rtt {hot_rtt}"
    );

    // Once warm, latencies settle at the warm level: several microseconds
    // above hot, far below cold.
    let warm_samples: Vec<f64> = (0..30)
        .map(|_| echo.invoke_timed(&[7u8; 8]).unwrap().1.as_micros_f64())
        .collect();
    let warm_median = median(&warm_samples);
    assert!(
        warm_median > hot_rtt.as_micros_f64() + 2.0,
        "post-demotion median {warm_median} us vs hot {hot_rtt}"
    );
    assert!(warm_median < 20.0, "post-demotion median {warm_median} us");
    assert_eq!(process.stats().demotions, 1, "demotion is one-shot");
}

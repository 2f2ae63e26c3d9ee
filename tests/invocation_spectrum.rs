//! Integration tests for the hot/warm/cold invocation spectrum (Fig. 5/6,
//! Sec. V-A): the paper's latency hierarchy must hold in the simulated
//! latency model, and hot workers must demote to warm after spinning past
//! the hot-poll timeout (Sec. III-C).

use rfaas::{AllocationPolicy, PollingMode, RFaasConfig, HOT_POLL_TIMEOUT};
use rfaas_bench::Testbed;
use sandbox::SandboxType;
use sim_core::{median, SimDuration};

/// Median round-trip of `repetitions` echo invocations on a leased worker.
/// The typed path charges the virtual clock exactly what a hand-posted
/// invocation does — inline for small wires, no staging copy — and reuses
/// its pooled registered buffers, so this pins the zero-copy path.
fn leased_median_us(mode: PollingMode, payload: usize, repetitions: usize) -> f64 {
    let testbed = Testbed::new(1);
    let session = testbed.allocated_session("spectrum-client", 1, SandboxType::BareMetal, mode);
    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    let data = workloads::generate_payload(payload, 11);
    echo.invoke_timed(&data).unwrap();
    let samples: Vec<f64> = (0..repetitions)
        .map(|_| echo.invoke_timed(&data).unwrap().1.as_micros_f64())
        .collect();
    median(&samples)
}

/// Median latency of full cold invocations: lease + spawn + connect + first
/// invocation, one fresh platform per sample.
fn cold_median_us(payload: usize, repetitions: usize) -> f64 {
    let samples: Vec<f64> = (0..repetitions)
        .map(|rep| {
            let testbed = Testbed::new(1);
            let session = testbed.allocated_session(
                &format!("spectrum-cold-{rep}"),
                1,
                SandboxType::BareMetal,
                PollingMode::Hot,
            );
            let cold_start = session.cold_start().unwrap().total();
            let (_, rtt) = session
                .function::<[u8], [u8]>("echo")
                .unwrap()
                .invoke_timed(&workloads::generate_payload(payload, 11))
                .unwrap();
            session.close().unwrap();
            (cold_start + rtt).as_micros_f64()
        })
        .collect();
    median(&samples)
}

#[test]
fn spectrum_ordering_hot_warm_cold() {
    let hot = leased_median_us(PollingMode::Hot, 8, 60);
    let warm = leased_median_us(PollingMode::Warm, 8, 60);
    let cold = cold_median_us(8, 5);
    // The hierarchy of Fig. 5: hot < warm < cold, with at least an order of
    // magnitude between hot and cold (the paper reports nearly four).
    assert!(hot < warm, "hot {hot} us must beat warm {warm} us");
    assert!(warm < cold, "warm {warm} us must beat cold {cold} us");
    assert!(
        cold >= 10.0 * hot,
        "cold ({cold} us) must be >= 10x hot ({hot} us)"
    );
    // Sanity-pin the absolute scales to the paper's ballpark.
    assert!((3.0..6.0).contains(&hot), "hot median {hot} us");
    assert!((6.0..12.0).contains(&warm), "warm median {warm} us");
    assert!(cold > 10_000.0, "cold median {cold} us should be >= 10 ms");
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
    let warm = leased_median_us(PollingMode::Warm, 8, 30);
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
    for payload in [1usize, 1024, 16 * 1024] {
        let hot = leased_median_us(PollingMode::Hot, payload, 30);
        let warm = leased_median_us(PollingMode::Warm, payload, 30);
        assert!(
            hot < warm,
            "hot {hot} us must beat warm {warm} us at {payload} B"
        );
    }
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

//! End-to-end integration tests spanning the resource manager, spot
//! executors, the typed session API and the billing database.

use rfaas::{
    LifecycleDriver, PollingMode, RFaasConfig, RFaasError, SpotExecutor, UsageRecord,
    HEARTBEAT_TIMEOUT,
};
use rfaas_bench::{Testbed, PACKAGE};
use sandbox::SandboxType;
use sim_core::{DeterministicRng, SimDuration};
use workloads::{generate_options, OptionBatch};

#[test]
fn multiple_clients_share_the_executor_pool() {
    let testbed = Testbed::new(2);
    let sessions: Vec<_> = (0..4)
        .map(|i| {
            testbed.allocated_session(
                &format!("client-{i}"),
                2,
                SandboxType::BareMetal,
                PollingMode::Hot,
            )
        })
        .collect();
    assert_eq!(testbed.manager.lease_count(), 4);

    // Every client can invoke independently and receives its own data back.
    for (i, session) in sessions.iter().enumerate() {
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let payload = vec![i as u8 + 1; 512];
        assert_eq!(echo.invoke(&payload[..]).unwrap(), payload);
    }

    // Closing the sessions returns every core to the pool.
    let total_before = testbed.manager.available_resources().cores;
    for session in sessions {
        session.close().unwrap();
    }
    let total_after = testbed.manager.available_resources().cores;
    assert_eq!(total_after, total_before + 4 * 2);
    assert_eq!(testbed.manager.lease_count(), 0);
}

#[test]
fn leases_are_spread_round_robin_and_exhaustion_is_reported() {
    let testbed = Testbed::new(2);
    // 2 nodes x 36 cores; leases of 20 cores each -> only 2 fit.
    let first = testbed
        .session("c1")
        .workers(20)
        .memory_mib(1024)
        .connect()
        .unwrap();
    let second = testbed
        .session("c2")
        .workers(20)
        .memory_mib(1024)
        .connect()
        .unwrap();
    let first_node = first.lease().unwrap().executor_node.clone();
    let second_node = second.lease().unwrap().executor_node.clone();
    assert_ne!(first_node, second_node, "round-robin placement");

    let err = testbed
        .session("c3")
        .workers(20)
        .memory_mib(1024)
        .connect()
        .unwrap_err();
    assert!(matches!(err, RFaasError::InsufficientResources { .. }));
}

#[test]
fn billing_accumulates_through_rdma_atomics() {
    let testbed = Testbed::new(1);
    let session = testbed.allocated_session(
        "billing-client",
        1,
        SandboxType::BareMetal,
        PollingMode::Hot,
    );
    let lease = session.lease().unwrap().clone();
    let echo = session
        .function::<[u8], [u8]>("echo")
        .unwrap()
        .with_output_capacity(1024 * 1024);
    let payload = workloads::generate_payload(1024 * 1024, 5);
    for _ in 0..5 {
        echo.invoke(&payload[..]).unwrap();
    }
    session.close().unwrap();
    let usage = testbed.manager.lease_usage(&lease);
    // Allocation time must have been recorded; echo itself has no cost model,
    // so compute time may be zero, but the platform cost must be positive.
    assert!(usage.allocation_gib_us > 0, "allocation usage {usage:?}");
    assert!(testbed.manager.total_cost() > 0.0);
}

/// How a lease ends.
#[derive(Debug, Clone, Copy)]
enum Teardown {
    /// The client closes its session.
    Close,
    /// The lease expires and the lifecycle driver reaps its process.
    Expiry,
    /// The executor's node fails under the lease.
    Fail,
}

/// Serve the same seeded sequence of hot Black-Scholes batches, separated by
/// idle gaps, on one lease, end the lease by `teardown` and return what the
/// manager billed for it. Nothing may be billed while the lease runs.
fn billed_usage(teardown: Teardown) -> UsageRecord {
    const MAX_OPTIONS: usize = 2_000;
    let testbed = Testbed::new(1);
    let session = testbed
        .session("teardown-client")
        .memory_mib(1024)
        .polling(PollingMode::Hot)
        .lease_timeout(SimDuration::from_secs(10))
        .connect()
        .unwrap();
    let lease = session.lease().unwrap();
    let pricer = session
        .function::<OptionBatch, [f64]>("blackscholes")
        .unwrap()
        .with_output_capacity(MAX_OPTIONS * 8);
    let mut rng = DeterministicRng::new(0xB111);
    for round in 0..16 {
        let count = rng.range_u64(1, MAX_OPTIONS as u64 + 1) as usize;
        let options = OptionBatch(generate_options(count, round));
        assert_eq!(pricer.invoke(&options).unwrap().len(), count);
        session
            .clock()
            .advance(SimDuration::from_micros(rng.range_u64(1, 500)));
        assert!(
            testbed.manager.lease_usage(&lease).is_empty(),
            "{teardown:?}: usage billed while the lease runs (round {round})"
        );
    }
    match teardown {
        Teardown::Close => {
            drop(pricer);
            session.close().unwrap();
        }
        Teardown::Expiry => {
            let driver = LifecycleDriver::new([&testbed.manager]);
            driver.step(lease.expires_at);
            assert_eq!(driver.total().processes_reaped, 1);
        }
        Teardown::Fail => assert_eq!(testbed.executors[0].fail(), 1),
    }
    testbed.manager.lease_usage(&lease)
}

#[test]
fn every_teardown_path_bills_what_the_lease_served() {
    let closed = billed_usage(Teardown::Close);
    let expired = billed_usage(Teardown::Expiry);
    let failed = billed_usage(Teardown::Fail);
    assert!(
        closed.compute_us > 0 && closed.hot_poll_us > 0,
        "the sequence must bill compute and hot polling: {closed:?}"
    );
    for (path, usage) in [("expiry", expired), ("failure", failed)] {
        assert_eq!(
            (usage.compute_us, usage.hot_poll_us),
            (closed.compute_us, closed.hot_poll_us),
            "{path} must bill the compute and hot polling a close bills"
        );
    }
    // Allocation time is billed when the lease is released, not when its
    // node dies under it.
    assert!(closed.allocation_gib_us > 0, "close: {closed:?}");
    assert!(expired.allocation_gib_us > 0, "expiry: {expired:?}");
    assert_eq!(failed.allocation_gib_us, 0, "failure: {failed:?}");
}

#[test]
fn invocations_leave_the_allocator_clock_alone() {
    // A warm pool parks the closed sandbox, so the close charges no
    // teardown to the allocator clock: the flush is all that moves it.
    let config = RFaasConfig {
        warm_pool_capacity: 1,
        ..RFaasConfig::paper_calibration()
    };
    let testbed = Testbed::with_config(1, config);
    let session = testbed.allocated_session(
        "allocator-clock-client",
        1,
        SandboxType::BareMetal,
        PollingMode::Hot,
    );
    let lease = session.lease().unwrap();
    let allocator = testbed.executors[0].allocator();
    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    let before = allocator.clock().now();
    for _ in 0..100 {
        echo.invoke(&[5u8; 64][..]).unwrap();
    }
    assert_eq!(allocator.clock().now(), before, "100 hot echoes");

    drop(echo);
    session.close().unwrap();
    assert_eq!(
        allocator
            .warm_pool()
            .idle_for(SandboxType::BareMetal, PACKAGE),
        1
    );
    // The echo has no compute cost, so the one flush chains two
    // fetch-and-adds, allocation and hot polling, behind one doorbell. The
    // allocator waits out the first one's round trip and picks it up; the
    // chained second completed while that pickup ran, so it adds only its
    // own pickup.
    let usage = testbed.manager.lease_usage(&lease);
    assert!(
        usage.allocation_gib_us > 0 && usage.hot_poll_us > 0,
        "{usage:?}"
    );
    assert_eq!(usage.compute_us, 0, "{usage:?}");
    let nic = &rdma_fabric::CX5_100G;
    assert!(nic.chained_wqe_overhead <= nic.completion_pickup);
    let flush = nic.post_send_overhead
        + nic.one_way_latency
        + nic.atomic_execution
        + nic.one_way_latency
        + nic.completion_pickup
        + nic.completion_pickup;
    assert_eq!(
        allocator.clock().now().saturating_since(before).as_nanos(),
        flush.as_nanos(),
        "close: one flush"
    );
}

/// The testbed's executor on fabric node `node`.
fn executor_on<'a>(testbed: &'a Testbed, node: &str) -> &'a SpotExecutor {
    testbed
        .executors
        .iter()
        .find(|executor| executor.name() == node)
        .expect("the testbed runs an executor on that node")
}

#[test]
fn heartbeats_and_lease_expiry_reclaim_resources() {
    let testbed = Testbed::new(2);
    let driver = LifecycleDriver::new([&testbed.manager]);
    let now = testbed.manager.clock().now();
    assert_eq!(driver.step(now).heartbeats, 2);
    // spot-01's node dies and goes silent; spot-00 keeps heartbeating.
    executor_on(&testbed, "spot-01").fail();
    let delta = driver.step(now + HEARTBEAT_TIMEOUT * 2);
    assert_eq!((delta.heartbeats, delta.executors_failed), (1, 1));
    assert!(
        !testbed.manager.deregister_executor("spot-01"),
        "already gone"
    );
    assert_eq!(
        testbed.manager.available_resources().cores,
        36,
        "spot-00 alone stays registered"
    );

    let session = testbed
        .session("expiry-client")
        .memory_mib(512)
        .lease_timeout(SimDuration::from_secs(5))
        .connect()
        .unwrap();
    let lease = session.lease().unwrap();
    let delta = driver.step(lease.expires_at + SimDuration::from_secs(5));
    assert_eq!((delta.leases_expired, delta.processes_reaped), (1, 1));
    assert!(testbed.manager.lease(lease.id).is_none());
    assert_eq!(testbed.manager.lease_count(), 0);
    drop(session);
}

#[test]
fn invocation_after_expiry_gets_lease_expired_and_recovers_transparently() {
    let testbed = Testbed::new(2);
    let session = testbed
        .session("expiry-recovery-client")
        .memory_mib(1024)
        .lease_timeout(SimDuration::from_secs(10))
        .connect()
        .unwrap();
    let first_lease = session.lease().unwrap();

    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    assert_eq!(echo.invoke(&[42u8; 32][..]).unwrap(), vec![42u8; 32]);
    assert_eq!(session.recoveries(), 0);

    // Jump the client far past the lease expiry. The next invocation arrives
    // at the worker with that late timestamp, the worker's clock synchronises
    // to it, and the executor-side enforcement refuses the invocation with
    // LeaseExpired — upon which the session transparently re-allocates and
    // replays it.
    session.clock().advance(SimDuration::from_secs(60));
    assert_eq!(echo.invoke(&[42u8; 32][..]).unwrap(), vec![42u8; 32]);
    assert_eq!(session.recoveries(), 1);
    let second_lease = session.lease().unwrap();
    assert_ne!(second_lease.id, first_lease.id);
    assert!(second_lease.expires_at > first_lease.expires_at);
    // The expired lease is gone from the manager; the fresh one is live.
    assert!(testbed.manager.lease(first_lease.id).is_none());
    assert!(testbed.manager.lease(second_lease.id).is_some());
}

#[test]
fn lease_renewal_keeps_the_worker_past_the_original_expiry() {
    let testbed = Testbed::new(1);
    let session = testbed
        .session("renewal-client")
        .memory_mib(1024)
        .lease_timeout(SimDuration::from_secs(10))
        .connect()
        .unwrap();
    let original_expiry = session.lease().unwrap().expires_at;

    // Renew shortly before the lease would lapse.
    session.clock().advance(SimDuration::from_secs(8));
    let new_expiry = session.extend_lease(SimDuration::from_secs(120)).unwrap();
    assert!(new_expiry > original_expiry);
    let lease = session.lease().unwrap();
    assert_eq!(lease.expires_at, new_expiry);
    assert_eq!(
        testbed.manager.lease(lease.id).unwrap().expires_at,
        new_expiry
    );

    // Well past the original expiry the same worker still serves us — no
    // LeaseExpired, no recovery, same lease.
    session.clock().advance(SimDuration::from_secs(60));
    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    assert_eq!(echo.invoke(&[7u8; 16][..]).unwrap(), vec![7u8; 16]);
    assert_eq!(session.recoveries(), 0);
    assert_eq!(session.lease().unwrap().id, lease.id);
}

#[test]
fn executor_failure_is_detected_and_the_client_recovers_elsewhere() {
    let testbed = Testbed::new(2);
    let driver = LifecycleDriver::new([&testbed.manager]);
    let session = testbed
        .session("failover-client")
        .memory_mib(1024)
        .connect()
        .unwrap();
    let lease = session.lease().unwrap();

    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    echo.invoke(&[9u8; 24][..]).unwrap();

    // Both executors heartbeat, then the lease's host dies.
    let t0 = testbed.manager.clock().now();
    driver.step(t0 + SimDuration::from_secs(1));
    let victim = executor_on(&testbed, &lease.executor_node);
    assert_eq!(victim.fail(), 1, "the client's process dies with its node");

    // The failure detector notices the silence, deregisters the executor and
    // marks its leases terminated.
    let later = t0 + SimDuration::from_secs(1) + HEARTBEAT_TIMEOUT * 2;
    let delta = driver.step(later);
    assert_eq!(delta.executors_failed, 1);
    assert_eq!(delta.leases_terminated, 1);
    assert!(testbed.manager.lease(lease.id).is_none());
    assert!(!testbed.manager.deregister_executor(&lease.executor_node));

    // The client's next invocation finds its connections dead, transparently
    // re-allocates from the manager and lands on the surviving executor,
    // which echoes the inline payload the replay carried.
    session.clock().advance_to(later);
    let payload: Vec<u8> = (1..=100).collect();
    assert_eq!(echo.invoke(&payload[..]).unwrap(), payload);
    assert_eq!(session.recoveries(), 1);
    let recovered = session.lease().unwrap();
    assert_ne!(recovered.executor_node, lease.executor_node);
}

/// Four echo inputs, two per worker of a `.workers(2)` session, no two
/// bytes alike at one position.
fn scatter_inputs() -> Vec<Vec<u8>> {
    (1..=4u8)
        .map(|i| {
            (0..48)
                .map(|j| i.wrapping_mul(53).wrapping_add(j))
                .collect()
        })
        .collect()
}

#[test]
fn batch_scatter_recovers_from_a_failed_executor() {
    let testbed = Testbed::new(2);
    let driver = LifecycleDriver::new([&testbed.manager]);
    let session = testbed
        .session("batch-failover-client")
        .workers(2)
        .memory_mib(1024)
        .connect()
        .unwrap();
    let lease = session.lease().unwrap();
    let echo = session.function::<[u8], [u8]>("echo").unwrap();

    let t0 = testbed.manager.clock().now();
    driver.step(t0 + SimDuration::from_secs(1));
    executor_on(&testbed, &lease.executor_node).fail();
    let later = t0 + SimDuration::from_secs(1) + HEARTBEAT_TIMEOUT * 2;
    assert_eq!(driver.step(later).executors_failed, 1);

    // The first wave finds its connections dead while posting: the whole
    // wave is replayed on one fresh allocation, on the surviving executor.
    session.clock().advance_to(later);
    let inputs = scatter_inputs();
    let results = echo
        .map_workers(inputs.iter().map(|v| v.as_slice()))
        .unwrap()
        .wait_all()
        .unwrap();
    assert_eq!(results, inputs);
    assert_eq!(session.recoveries(), 1);
    assert_ne!(session.lease().unwrap().executor_node, lease.executor_node);
}

#[test]
fn batch_scatter_recovers_from_a_lease_expiry_once() {
    let testbed = Testbed::new(2);
    let session = testbed
        .session("batch-expiry-client")
        .workers(2)
        .memory_mib(1024)
        .lease_timeout(SimDuration::from_secs(10))
        .connect()
        .unwrap();
    let echo = session.function::<[u8], [u8]>("echo").unwrap();

    // Both invocations of the first wave are refused with LeaseExpired; the
    // first gather re-allocates, the second finds the epoch moved on and
    // resubmits on the fresh lease.
    session.clock().advance(SimDuration::from_secs(60));
    let inputs = scatter_inputs();
    let results = echo
        .map_workers(inputs.iter().map(|v| v.as_slice()))
        .unwrap()
        .wait_all()
        .unwrap();
    assert_eq!(results, inputs);
    assert_eq!(session.recoveries(), 1);
}

#[test]
fn stale_futures_share_one_recovery_instead_of_cascading() {
    let testbed = Testbed::new(2);
    let session = testbed
        .session("stale-future-client")
        .memory_mib(1024)
        .lease_timeout(SimDuration::from_secs(10))
        .connect()
        .unwrap();
    let echo = session.function::<[u8], [u8]>("echo").unwrap();

    // Both futures are submitted after the lease expired, so both hit the
    // executor-side LeaseExpired enforcement. The first wait() re-allocates;
    // the second must detect that its allocation epoch is stale and reuse the
    // recovered allocation instead of tearing it down and re-allocating again.
    session.clock().advance(SimDuration::from_secs(60));
    let f1 = echo.submit(&[5u8; 16][..]).unwrap();
    let f2 = echo.submit(&[5u8; 16][..]).unwrap();
    assert_eq!(f1.wait().unwrap(), vec![5u8; 16]);
    assert_eq!(f2.wait().unwrap(), vec![5u8; 16]);
    assert_eq!(
        session.recoveries(),
        1,
        "one expiry must cost one re-allocation, however many futures saw it"
    );
}

#[test]
fn docker_and_bare_metal_executors_coexist() {
    let testbed = Testbed::new(2);
    let bare =
        testbed.allocated_session("bare-client", 1, SandboxType::BareMetal, PollingMode::Hot);
    let docker =
        testbed.allocated_session("docker-client", 1, SandboxType::Docker, PollingMode::Hot);
    assert!(
        docker.cold_start().unwrap().total() > bare.cold_start().unwrap().total() * 10,
        "Docker cold start must be much slower than bare metal"
    );
    for session in [&bare, &docker] {
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        assert_eq!(echo.invoke(&[1u8, 2, 3][..]).unwrap(), vec![1, 2, 3]);
    }
}

#[test]
fn lease_reuse_avoids_repeated_cold_starts() {
    let testbed = Testbed::new(1);
    let session =
        testbed.allocated_session("reuse-client", 1, SandboxType::BareMetal, PollingMode::Hot);
    let cold_total = session.cold_start().unwrap().total();
    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    // 100 consecutive warm/hot invocations on the cached lease must cost far
    // less in total than the single cold start.
    let mut total = SimDuration::ZERO;
    for _ in 0..100 {
        let (_, rtt) = echo.invoke_timed(&[7u8; 16][..]).unwrap();
        total += rtt;
    }
    assert!(
        total < cold_total,
        "100 hot invocations ({total}) should cost less than one cold start ({cold_total})"
    );
}

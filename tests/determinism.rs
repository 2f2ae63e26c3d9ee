//! Determinism regression: the whole point of the virtual-time fabric is
//! that experiments are machine-independent and reproducible. Two runs of
//! the same end-to-end scenario with the same seed must produce
//! byte-identical placement decisions, latency histograms and billing
//! totals — any drift means wall-clock scheduling or hash-map iteration
//! order leaked into the model.

use cluster_sim::{NodeResources, TenantFleet};
use rdma_fabric::Fabric;
use rfaas::{
    GroupLifecycleDriver, ManagerGroup, PollingMode, RFaasConfig, Reactor, Session, SpotExecutor,
};
use rfaas_bench::{evaluation_package, Testbed, PACKAGE};
use sandbox::FunctionRegistry;
use sandbox::SandboxType;
use sim_core::{DeterministicRng, LatencyHistogram, SimDuration, VirtualClock};

/// One end-to-end scenario: three executors, two sequential clients, a
/// seeded mix of lease shapes, payload sizes, renewals and re-allocations.
/// Returns a byte-exact transcript of everything the platform decided.
fn run_scenario(seed: u64) -> String {
    let testbed = Testbed::new(3);
    let mut rng = DeterministicRng::new(seed);
    let mut transcript = String::new();
    let mut histogram = LatencyHistogram::new();

    for client_idx in 0..2 {
        for round in 0..3 {
            let cores = rng.range_u64(1, 4) as u32;
            let session = testbed
                .session(&format!("det-client-{client_idx}"))
                .workers(cores)
                .memory_mib(2048)
                .connect()
                .unwrap();
            let lease = session.lease().unwrap();
            transcript.push_str(&format!(
                "client {client_idx} round {round}: lease cores={} node={}\n",
                lease.cores, lease.executor_node
            ));

            let echo = session.function::<[u8], [u8]>("echo").unwrap();
            let invocations = rng.range_u64(2, 6);
            for _ in 0..invocations {
                let payload = rng.range_u64(1, 4096) as usize;
                let data = workloads::generate_payload(payload, seed);
                let (reply, rtt) = echo.invoke_timed(&data[..]).unwrap();
                assert_eq!(reply.len(), payload);
                histogram.record(rtt);
                transcript.push_str(&format!("invoke {payload} B -> {} ns\n", rtt.as_nanos()));
            }
            session.close().unwrap();
        }
    }

    // Latency histogram, bit-exact.
    transcript.push_str(&format!(
        "histogram: n={} min={} p50={} p99={} max={}\n",
        histogram.count(),
        histogram.min().as_nanos(),
        histogram.median().as_nanos(),
        histogram.percentile(0.99).as_nanos(),
        histogram.max().as_nanos()
    ));

    // Billing totals, bit-exact: usage words are integers, the monetary
    // total is compared through its IEEE-754 bit pattern.
    let total_cost = testbed.manager.total_cost();
    transcript.push_str(&format!(
        "billing: total_cost_bits={:#018x}\n",
        total_cost.to_bits()
    ));
    assert!(total_cost > 0.0, "the scenario must accrue billable usage");
    transcript
}

#[test]
fn same_seed_produces_byte_identical_runs() {
    let first = run_scenario(0xD5EED);
    let second = run_scenario(0xD5EED);
    assert_eq!(
        first, second,
        "placement, latencies or billing diverged between identical runs"
    );
}

#[test]
fn different_seeds_actually_change_the_scenario() {
    // Guards the test above against vacuity: if the seed were ignored, the
    // byte-identical assertion would hold trivially.
    let a = run_scenario(1);
    let b = run_scenario(2);
    assert_ne!(a, b, "the seed must drive payloads and lease shapes");
}

/// The sharded multi-tenant scenario: a 4-shard manager plane, a seeded
/// tenant fleet, consistent-hash placement of executors and tenants, and the
/// full allocate→invoke→bill→release pipeline per episode. The transcript
/// pins shard assignments, lease placements (id + executor node) and the
/// per-shard billing totals bit-for-bit.
fn run_sharded_scenario(seed: u64) -> String {
    const SHARDS: usize = 4;
    let config = RFaasConfig::default();
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(evaluation_package());
    let group = ManagerGroup::new(&fabric, config.clone(), SHARDS);
    let mut transcript = String::new();

    // Executor partitioning is part of the pinned behaviour.
    for i in 0..12 {
        let name = format!("det-exec-{i:02}");
        let executor = SpotExecutor::new(
            &fabric,
            &name,
            NodeResources::xeon_gold_6154_dual(),
            registry.clone(),
            config.clone(),
        );
        let shard = group.register_executor(&executor);
        transcript.push_str(&format!("executor {name} -> shard {shard}\n"));
    }

    let driver = GroupLifecycleDriver::new(&group);
    let fleet = TenantFleet::generate(seed, 24, SimDuration::from_secs(10));
    let requests = fleet.requests(SimDuration::from_secs(20));
    assert!(!requests.is_empty());
    for (episode, request) in requests.iter().enumerate() {
        driver.step(request.arrival);
        let shard = group.shard_for_tenant(&request.tenant);
        let session = Session::builder(
            &fabric,
            &format!("{}-det{episode}", request.tenant),
            &group.manager_for_tenant(&request.tenant),
            PACKAGE,
        )
        .config(config.clone())
        .workers(request.cores)
        .memory_mib(request.memory_mib)
        .lease_timeout(request.lease_timeout.max(SimDuration::from_secs(30)))
        .starting_at(request.arrival)
        .connect()
        .unwrap();
        let lease = session.lease().unwrap();
        assert_eq!(group.shard_of_lease(lease.id), Some(shard));
        transcript.push_str(&format!(
            "episode {episode}: tenant {} -> shard {shard}, lease {} on {}\n",
            request.tenant, lease.id, lease.executor_node
        ));

        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let payload = workloads::generate_payload(request.payload_bytes.clamp(8, 4096), seed);
        for _ in 0..request.invocations.min(3) {
            let (reply, rtt) = echo.invoke_timed(&payload[..]).unwrap();
            assert_eq!(reply.len(), payload.len());
            transcript.push_str(&format!("  invoke -> {} ns\n", rtt.as_nanos()));
        }
        session.close().unwrap();
    }

    // Per-shard billing totals, bit-exact.
    for (shard, cost) in group.per_shard_costs().iter().enumerate() {
        transcript.push_str(&format!(
            "shard {shard} billing bits {:#018x}\n",
            cost.to_bits()
        ));
    }
    assert!(
        group.total_cost() > 0.0,
        "the sharded scenario must accrue billable usage"
    );
    transcript
}

#[test]
fn sharded_multi_tenant_runs_are_byte_identical() {
    let first = run_sharded_scenario(0x5AA5);
    let second = run_sharded_scenario(0x5AA5);
    assert_eq!(
        first, second,
        "shard assignment, placement or per-shard billing diverged between identical runs"
    );
}

#[test]
fn sharded_scenario_seeds_change_the_fleet() {
    let a = run_sharded_scenario(3);
    let b = run_sharded_scenario(4);
    assert_ne!(a, b, "the seed must drive the tenant fleet");
}

/// The reactor-driven scenario: three leases held concurrently, all of their
/// worker connections registered with one shared [`Reactor`] and all
/// submissions and pickups serialised on one shared client clock. A seeded
/// schedule hops between the sessions, so every completion travels through
/// the shared event loop's source sweep rather than a per-connection wait.
/// The transcript pins placements, per-invocation latencies, the histogram
/// bits, the reactor's pump count and the billing total bit-for-bit.
fn run_reactor_scenario(seed: u64) -> String {
    let testbed = Testbed::new(3);
    let mut rng = DeterministicRng::new(seed);
    let mut transcript = String::new();
    let mut histogram = LatencyHistogram::new();

    let reactor = Reactor::new();
    let clock = VirtualClock::shared();
    let sessions: Vec<Session> = (0..3)
        .map(|i| {
            let workers = rng.range_u64(1, 4) as u32;
            let session = testbed
                .session(&format!("reactor-det-{i}"))
                .workers(workers)
                .memory_mib(2048)
                .reactor(&reactor)
                .clock(&clock)
                .connect()
                .unwrap();
            let lease = session.lease().unwrap();
            transcript.push_str(&format!(
                "session {i}: lease cores={} node={}\n",
                lease.cores, lease.executor_node
            ));
            session
        })
        .collect();
    let functions: Vec<_> = sessions
        .iter()
        .map(|s| s.function::<[u8], [u8]>("echo").unwrap())
        .collect();

    let mut invocations = 0u64;
    for round in 0..4 {
        for _ in 0..sessions.len() {
            let pick = rng.range_u64(0, sessions.len() as u64) as usize;
            let payload = rng.range_u64(1, 2048) as usize;
            let data = workloads::generate_payload(payload, seed);
            let (reply, rtt) = functions[pick].invoke_timed(&data[..]).unwrap();
            assert_eq!(reply.len(), payload);
            histogram.record(rtt);
            invocations += 1;
            transcript.push_str(&format!(
                "round {round}: session {pick} invoke {payload} B -> {} ns\n",
                rtt.as_nanos()
            ));
        }
    }

    // Every completion of the scenario was pumped by the shared reactor,
    // exactly once — a second pickup path would double this count.
    let stats = reactor.stats();
    assert_eq!(stats.pumped, invocations);
    transcript.push_str(&format!("reactor: pumped={}\n", stats.pumped));

    transcript.push_str(&format!(
        "histogram: n={} min={} p50={} p99={} max={}\n",
        histogram.count(),
        histogram.min().as_nanos(),
        histogram.median().as_nanos(),
        histogram.percentile(0.99).as_nanos(),
        histogram.max().as_nanos()
    ));

    drop(functions);
    for session in sessions {
        session.close().unwrap();
    }
    let total_cost = testbed.manager.total_cost();
    transcript.push_str(&format!(
        "billing: total_cost_bits={:#018x}\n",
        total_cost.to_bits()
    ));
    assert!(total_cost > 0.0, "the scenario must accrue billable usage");
    transcript
}

/// The pooled-connection churn scenario: one shared [`ConnectionPool`]
/// survives a seeded sequence of allocate→invoke→release episodes, so later
/// episodes re-warm QPs left behind by earlier ones. The transcript pins
/// each episode's placement, its first-contact/warm classification, the
/// connection-plane slice of the cold start in integer nanoseconds, and the
/// cumulative pool counters — any wall-clock leak in the pooled handshake or
/// the SRQ-backed dispatcher shows up as a byte diff.
fn run_pooled_churn_scenario(seed: u64) -> String {
    let testbed = Testbed::new(2);
    let pool = rdma_fabric::ConnectionPool::new();
    let mut rng = DeterministicRng::new(seed);
    let mut transcript = String::new();

    for episode in 0..8 {
        let workers = rng.range_u64(1, 3) as u32;
        let hits_before = pool.stats().hits;
        let session = testbed
            .session(&format!("pool-det-{episode}"))
            .workers(workers)
            .memory_mib(1024)
            .connection_pool(&pool)
            .connect()
            .unwrap();
        let lease = session.lease().unwrap();
        let cold = session.cold_start().unwrap();
        let setup_ns = cold.connect_to_manager.as_nanos() + cold.connect_to_workers.as_nanos();
        let class = if pool.stats().hits > hits_before {
            "warm"
        } else {
            "first-contact"
        };
        transcript.push_str(&format!(
            "episode {episode}: workers={workers} node={} {class} setup={setup_ns} ns\n",
            lease.executor_node
        ));

        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let payload = rng.range_u64(1, 2048) as usize;
        let data = workloads::generate_payload(payload, seed);
        let (reply, rtt) = echo.invoke_timed(&data[..]).unwrap();
        assert_eq!(reply.len(), payload);
        let conn = session.stats().connections;
        transcript.push_str(&format!(
            "  invoke {payload} B -> {} ns, opened={} srq_watermark={}\n",
            rtt.as_nanos(),
            conn.connections_opened,
            conn.srq_depth_high_watermark
        ));
        session.close().unwrap();
    }

    let stats = pool.stats();
    transcript.push_str(&format!(
        "pool: hits={} misses={} returned={} evictions={}\n",
        stats.hits, stats.misses, stats.returned, stats.evictions
    ));
    assert!(stats.hits > 0, "churn over a shared pool must re-warm QPs");
    assert!(stats.misses > 0, "the first contact per executor must miss");
    transcript
}

/// The fork-tier churn scenario: one executor with a warm pool, a parked
/// parent, and a seeded sequence of fork / warm-pool / cold allocations. The
/// transcript pins each episode's provisioning class, its executor-side
/// setup cost in integer nanoseconds, the forked children's *fault
/// schedules* (which pages each RDMA READ batch fetched and what it cost),
/// the cumulative warm-pool counters and the billing total bit-for-bit — a
/// wall-clock or iteration-order leak anywhere in the fork tier shows up as
/// a byte diff.
fn run_fork_scenario(seed: u64) -> String {
    let config = RFaasConfig {
        warm_pool_capacity: 2,
        ..RFaasConfig::default()
    };
    let testbed = Testbed::with_config(1, config);
    let mut rng = DeterministicRng::new(seed);
    let mut transcript = String::new();

    for episode in 0..6 {
        let policy = if episode == 0 {
            // The first episode always cold-spawns the parent every later
            // episode forks from or resumes.
            rfaas::AllocationPolicy::Cold
        } else if rng.range_u64(0, 2) == 0 {
            rfaas::AllocationPolicy::Fork
        } else {
            rfaas::AllocationPolicy::WarmPool
        };
        let session = testbed
            .session(&format!("fork-det-{episode}"))
            .workers(1)
            .memory_mib(1024)
            .polling(rfaas::PollingMode::Warm)
            .allocation_policy(policy)
            .connect()
            .unwrap();
        let cold = session.cold_start().unwrap();
        let setup_ns = (cold.spawn_workers + cold.submit_code).as_nanos();
        transcript.push_str(&format!(
            "episode {episode}: policy={policy:?} setup={setup_ns} ns\n"
        ));

        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        for _ in 0..rng.range_u64(1, 4) {
            let payload = rng.range_u64(1, 2048) as usize;
            let data = workloads::generate_payload(payload, seed);
            let (reply, rtt) = echo.invoke_timed(&data[..]).unwrap();
            assert_eq!(reply.len(), payload);
            transcript.push_str(&format!("  invoke {payload} B -> {} ns\n", rtt.as_nanos()));
        }
        if let Some(fork) = session.stats().fork {
            for batch in fork.fault_schedule() {
                transcript.push_str(&format!(
                    "  fault batch start={} pages={} cost={} ns\n",
                    batch.start_page,
                    batch.pages,
                    batch.cost.as_nanos()
                ));
            }
            transcript.push_str(&format!(
                "  faulted {}/{} pages in {} ns\n",
                fork.pages_faulted(),
                fork.total_pages(),
                fork.fault_time().as_nanos()
            ));
        }
        session.close().unwrap();
    }

    let pool = testbed.executors[0].allocator().warm_pool().stats();
    transcript.push_str(&format!(
        "warm pool: hits={} misses={} returned={} evictions={} rejected={}\n",
        pool.hits, pool.misses, pool.returned, pool.evictions, pool.rejected
    ));
    assert!(
        pool.returned > 0,
        "churn over an enabled pool must park parents"
    );
    let total_cost = testbed.manager.total_cost();
    transcript.push_str(&format!(
        "billing: total_cost_bits={:#018x}\n",
        total_cost.to_bits()
    ));
    assert!(total_cost > 0.0, "the scenario must accrue billable usage");
    transcript
}

/// The state-plane scenario: one plane shared by a seeded sequence of
/// stateful sessions. Each episode publishes seeded values, drives the
/// stateful streaming-aggregation function (running aggregate resident in
/// the plane), mixes in direct session-side gets/deletes, and occasionally
/// overwrites a hot key to force invalidation fan-out. The transcript pins
/// every key's placement (arena offset, length, version), each invocation's
/// latency, the session- and executor-side client counters (cache hits vs
/// one-sided READs), the owner-side plane counters and the billing total
/// bit-for-bit — a wall-clock or iteration-order leak anywhere in the
/// metadata service, the region allocator, the invalidation fan-out or the
/// materialise/write-back path shows up as a byte diff.
fn run_state_scenario(seed: u64) -> String {
    use rfaas::{StateKey, StatePlane};
    use workloads::AGGREGATE_KEY;

    let testbed = Testbed::new(2);
    let plane = StatePlane::new(&testbed.fabric, "det-state-owner", 16 * 1024 * 1024);
    let mut rng = DeterministicRng::new(seed);
    let mut transcript = String::new();

    for episode in 0..4 {
        let session = testbed
            .session(&format!("state-det-{episode}"))
            .workers(1)
            .memory_mib(2048)
            .state_plane(&plane)
            .connect()
            .unwrap();
        let lease = session.lease().unwrap();
        transcript.push_str(&format!(
            "episode {episode}: lease node={}\n",
            lease.executor_node
        ));

        // Seed the aggregate and a per-episode dataset key.
        session.state().put(AGGREGATE_KEY, &[]).unwrap();
        let dataset = workloads::generate_payload(rng.range_u64(64, 4096) as usize, seed);
        let key = format!("dataset-{}", rng.range_u64(0, 3));
        session.state().put(&key, &dataset).unwrap();

        let aggregate = session
            .function::<[f64], [u8]>("stream-aggregate")
            .unwrap()
            .with_state([StateKey::read_write(AGGREGATE_KEY)])
            .unwrap();
        for _ in 0..rng.range_u64(1, 4) {
            let batch: Vec<f64> = (0..rng.range_u64(1, 32))
                .map(|_| rng.range_f64(-50.0, 50.0))
                .collect();
            let (reply, rtt) = aggregate.invoke_timed(&batch[..]).unwrap();
            let agg = workloads::StreamAggregate::decode(&reply).unwrap();
            transcript.push_str(&format!(
                "  aggregate {} readings -> count={} sum_bits={:#018x} in {} ns\n",
                batch.len(),
                agg.count,
                agg.sum.to_bits(),
                rtt.as_nanos()
            ));
        }

        // Session-side reads and the occasional delete exercise the
        // invalidation fan-out alongside the executor's cache.
        let len = session.state().get(&key).unwrap().len();
        transcript.push_str(&format!("  get {key} -> {len} B\n"));
        if rng.range_u64(0, 2) == 0 {
            let existed = session.state().delete(&key).unwrap();
            transcript.push_str(&format!("  delete {key} existed={existed}\n"));
        }

        let stats = session.stats();
        let s = stats.state_session.unwrap();
        let e = stats.state_executor.unwrap();
        transcript.push_str(&format!(
            "  session client: gets={} puts={} hits={} reads={} invalidations={}\n",
            s.gets, s.puts, s.cache_hits, s.remote_reads, s.invalidations_applied
        ));
        transcript.push_str(&format!(
            "  executor client: gets={} puts={} hits={} reads={} invalidations={}\n",
            e.gets, e.puts, e.cache_hits, e.remote_reads, e.invalidations_applied
        ));
        session.close().unwrap();
    }

    // Every committed key's placement, in key order, bit-exact.
    for (key, p) in plane.placements() {
        transcript.push_str(&format!(
            "placement {key}: offset={} len={} version={}\n",
            p.offset, p.len, p.version
        ));
    }
    let plane_stats = plane.stats();
    transcript.push_str(&format!(
        "plane: keys={} used={} control_frames={} lookups={}\n",
        plane_stats.keys, plane_stats.used_bytes, plane_stats.control_frames, plane_stats.lookups
    ));
    assert!(
        plane_stats.control_frames > 0,
        "the scenario must exercise the control path"
    );

    let total_cost = testbed.manager.total_cost();
    transcript.push_str(&format!(
        "billing: total_cost_bits={:#018x}\n",
        total_cost.to_bits()
    ));
    assert!(total_cost > 0.0, "the scenario must accrue billable usage");
    transcript
}

#[test]
fn state_plane_runs_are_byte_identical() {
    let first = run_state_scenario(0x57A7E);
    let second = run_state_scenario(0x57A7E);
    assert_eq!(
        first, second,
        "placements, read schedules, client counters or billing diverged between identical runs"
    );
}

#[test]
fn state_scenario_seeds_change_the_accesses() {
    let a = run_state_scenario(11);
    let b = run_state_scenario(12);
    assert_ne!(a, b, "the seed must drive keys, batches and deletes");
}

#[test]
fn fork_tier_runs_are_byte_identical() {
    let first = run_fork_scenario(0xF0CC);
    let second = run_fork_scenario(0xF0CC);
    assert_eq!(
        first, second,
        "fault schedules, pool counters or billing diverged between identical runs"
    );
}

#[test]
fn fork_scenario_seeds_change_the_episodes() {
    let a = run_fork_scenario(9);
    let b = run_fork_scenario(10);
    assert_ne!(a, b, "the seed must drive policies and payloads");
}

#[test]
fn pooled_churn_runs_are_byte_identical() {
    let first = run_pooled_churn_scenario(0xC0FFEE);
    let second = run_pooled_churn_scenario(0xC0FFEE);
    assert_eq!(
        first, second,
        "pool warmth, setup costs or SRQ watermarks diverged between identical runs"
    );
}

#[test]
fn pooled_churn_seeds_change_the_episodes() {
    let a = run_pooled_churn_scenario(7);
    let b = run_pooled_churn_scenario(8);
    assert_ne!(a, b, "the seed must drive worker counts and payloads");
}

#[test]
fn reactor_driven_runs_are_byte_identical() {
    let first = run_reactor_scenario(0xFACADE);
    let second = run_reactor_scenario(0xFACADE);
    assert_eq!(
        first, second,
        "reactor dispatch order, latencies or billing diverged between identical runs"
    );
}

#[test]
fn reactor_scenario_seeds_change_the_schedule() {
    let a = run_reactor_scenario(5);
    let b = run_reactor_scenario(6);
    assert_ne!(
        a, b,
        "the seed must drive the session schedule and payloads"
    );
}

/// The adaptive-polling scenario: one adaptive worker, a seeded train of
/// invocations separated by seeded idle gaps that straddle the
/// `hot_poll_fallback` spin window. Short gaps find the worker still
/// spinning (picked up inside the `unparked_until` window), long gaps find
/// it parked — so the transcript pins both branches of the adaptive
/// park/refresh decision, which previously had no determinism coverage.
fn run_adaptive_scenario(seed: u64) -> String {
    let config = RFaasConfig::paper_calibration();
    let testbed = Testbed::with_config(1, config.clone());
    let mut rng = DeterministicRng::new(seed);
    let mut transcript = String::new();

    let session = testbed.allocated_session(
        "adaptive-det",
        1,
        SandboxType::BareMetal,
        PollingMode::Adaptive,
    );
    let echo = session.function::<[u8], [u8]>("echo").unwrap();

    const ROUNDS: u64 = 24;
    for round in 0..ROUNDS {
        let payload = rng.range_u64(1, 2048) as usize;
        let data = workloads::generate_payload(payload, seed);
        let (_, rtt) = echo.invoke_timed(&data).unwrap();
        transcript.push_str(&format!(
            "round {round}: invoke {payload} B -> {} ns\n",
            rtt.as_nanos()
        ));
        // Seeded idle gap: roughly half stay inside the adaptive spin
        // window (worker picked up unparked), the rest sleep far past it
        // (worker picked up parked, spin billed at most the fallback).
        let gap = if rng.range_u64(0, 1) == 0 {
            SimDuration::from_millis(rng.range_u64(1, 40))
        } else {
            SimDuration::from_millis(rng.range_u64(100, 400))
        };
        session.clock().advance(gap);
        transcript.push_str(&format!("gap {} ns\n", gap.as_nanos()));
    }

    let process = testbed.executors[0].allocator().processes().pop().unwrap();
    let process = process.lock();
    let stats = process.stats();
    assert_eq!(
        process.workers()[0].mode(),
        PollingMode::Adaptive,
        "adaptive workers self-regulate instead of demoting"
    );
    assert_eq!(stats.demotions, 0);
    // The long gaps above sum to seconds of idle time; if the parked branch
    // were not taken the spin bill would cover those gaps wholesale instead
    // of being clipped to one fallback window per pickup.
    assert!(
        stats.hot_poll_time <= config.hot_poll_fallback * ROUNDS,
        "adaptive spin bill {} must be clipped to one {} window per pickup",
        stats.hot_poll_time,
        config.hot_poll_fallback
    );
    transcript.push_str(&format!(
        "adaptive: mode={:?} demotions={} hot_poll_ns={}\n",
        process.workers()[0].mode(),
        stats.demotions,
        stats.hot_poll_time.as_nanos()
    ));
    let total_cost = testbed.manager.total_cost();
    transcript.push_str(&format!(
        "billing: total_cost_bits={:#018x}\n",
        total_cost.to_bits()
    ));
    assert!(total_cost > 0.0, "the scenario must accrue billable usage");
    transcript
}

#[test]
fn adaptive_polling_runs_are_byte_identical() {
    let first = run_adaptive_scenario(0xADA9);
    let second = run_adaptive_scenario(0xADA9);
    assert_eq!(
        first, second,
        "adaptive park/refresh decisions, latencies or billing diverged between identical runs"
    );
}

#[test]
fn adaptive_scenario_seeds_change_the_timeline() {
    let a = run_adaptive_scenario(13);
    let b = run_adaptive_scenario(14);
    assert_ne!(a, b, "the seed must drive payloads and idle gaps");
}

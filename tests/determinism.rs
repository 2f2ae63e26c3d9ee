//! Determinism golden: the whole point of the virtual-time fabric is that
//! experiments are machine-independent and reproducible. Each end-to-end
//! scenario transcribes what the platform decided (placements, latencies,
//! counters, billing totals) at each of its seeds, and the transcripts must
//! equal the committed `tests/golden/determinism/<scenario>.txt` byte for
//! byte, one `## seed` section per seed, in each of two runs in one process.
//! A run that differs from the other means wall-clock scheduling or
//! iteration order leaked into the model; a golden that moves means the
//! model or the code behind it changed, and the diff of `tests/golden/mod.rs`
//! names each moved line by its key (`scenario / seed / key`). After an
//! intended move, rewrite the files with
//! `UPDATE_GOLDEN=1 cargo test --test determinism` and commit them.

mod golden;

use cluster_sim::{NodeResources, TenantFleet};
use rdma_fabric::Fabric;
use rfaas::{
    LifecycleDriver, ManagerGroup, PollingMode, RFaasConfig, Reactor, Session, SpotExecutor,
    HOT_POLL_TIMEOUT,
};
use rfaas_bench::{evaluation_package, Testbed, PACKAGE};
use sandbox::FunctionRegistry;
use sandbox::SandboxType;
use sim_core::{DeterministicRng, LatencyHistogram, SimDuration, VirtualClock};
use workloads::MpiWorld;

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
        "histogram: n={} min={} p50={} max={}\n",
        histogram.count(),
        histogram.min().as_nanos(),
        histogram.median().as_nanos(),
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

    let driver = LifecycleDriver::new(group.managers());
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
        .workers(request.cores)
        .memory_mib(request.memory_mib)
        .lease_timeout(request.lease_timeout.max(SimDuration::from_secs(30)))
        .starting_at(request.arrival)
        .connect()
        .unwrap();
        let lease = session.lease().unwrap();
        assert!(group.managers()[shard].lease(lease.id).is_some());
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
        transcript.push_str(&format!(
            "  billing: total_cost_bits={:#018x}\n",
            group.total_cost().to_bits()
        ));
    }

    // Per-shard billing totals, bit-exact.
    for (shard, cost) in group.per_shard_costs().iter().enumerate() {
        transcript.push_str(&format!(
            "shard {shard} billing: total_cost_bits={:#018x}\n",
            cost.to_bits()
        ));
    }
    assert!(
        group.total_cost() > 0.0,
        "the sharded scenario must accrue billable usage"
    );
    transcript
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
        "histogram: n={} min={} p50={} max={}\n",
        histogram.count(),
        histogram.min().as_nanos(),
        histogram.median().as_nanos(),
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
            let schedule = fork.fault_schedule();
            for batch in &schedule {
                transcript.push_str(&format!(
                    "  fault batch start={} pages={} -> {} ns\n",
                    batch.start_page,
                    batch.pages,
                    batch.cost.as_nanos()
                ));
            }
            transcript.push_str(&format!(
                "  faulted {}/{} pages -> {} ns\n",
                fork.pages_faulted(),
                fork.total_pages(),
                schedule
                    .iter()
                    .map(|b| b.cost)
                    .sum::<SimDuration>()
                    .as_nanos()
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
            .function::<[f64], [f64]>("stream-aggregate")
            .unwrap()
            .with_state([StateKey::read_write(AGGREGATE_KEY)])
            .unwrap();
        for _ in 0..rng.range_u64(1, 4) {
            let batch: Vec<f64> = (0..rng.range_u64(1, 32))
                .map(|_| rng.range_f64(-50.0, 50.0))
                .collect();
            let (reply, rtt) = aggregate.invoke_timed(&batch[..]).unwrap();
            // The reply echoes the aggregate: count, sum, min, max.
            let (count, sum) = (reply[0] as u64, reply[1]);
            transcript.push_str(&format!(
                "  aggregate {} readings -> count={count} sum_bits={:#018x} in {} ns\n",
                batch.len(),
                sum.to_bits(),
                rtt.as_nanos()
            ));
        }

        // Session-side reads and the occasional delete exercise the
        // invalidation fan-out alongside the executor's cache.
        let len = session.state().get(&key).unwrap().len();
        transcript.push_str(&format!("  get {key} -> {len} B\n"));
        if rng.range_u64(0, 2) == 0 {
            let existed = session.state().delete(&key).unwrap();
            transcript.push_str(&format!("  delete {key} -> existed={existed}\n"));
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

/// The stateful write mix (simbench's `state_write_mix` in miniature): one
/// hot stateful session touches a 64 KiB key, with a put of a fresh value
/// before one touch of every eight, at a seeded position, and a seeded half
/// of the groups ends with the session reading its own last put back. The
/// transcript pins every operation's virtual latency, the touches'
/// fingerprints, both state clients' counters, the owner's counters and
/// placements, and the billing total bit-for-bit.
fn run_state_write_mix_scenario(seed: u64) -> String {
    use rfaas::{StateKey, StatePlane};
    use rfaas_bench::DATASET_KEY;

    const VALUE_BYTES: usize = 64 * 1024;
    const GROUPS: u64 = 24;
    const TOUCHES_PER_PUT: u64 = 8;

    let testbed = Testbed::new(1);
    let plane = StatePlane::new(&testbed.fabric, "det-write-mix", 4 * 1024 * 1024);
    let mut rng = DeterministicRng::new(seed);
    let mut transcript = String::new();
    let session = testbed
        .session("write-mix")
        .workers(1)
        .memory_mib(2048)
        .polling(PollingMode::Hot)
        .state_plane(&plane)
        .connect()
        .unwrap();
    let clock = std::sync::Arc::clone(session.clock());
    let fingerprint =
        |value: &[u8]| value.len() as u64 + u64::from(value[0]) + u64::from(value[value.len() - 1]);

    let mut value = workloads::generate_payload(VALUE_BYTES, seed);
    session.state().put(DATASET_KEY, &value).unwrap();
    let touch = session
        .function::<[u8], [u8]>("state-touch")
        .unwrap()
        .with_state([StateKey::read(DATASET_KEY)])
        .unwrap();
    for group in 0..GROUPS {
        let put_before = rng.range_u64(0, TOUCHES_PER_PUT);
        for t in 0..TOUCHES_PER_PUT {
            if t == put_before {
                value = workloads::generate_payload(VALUE_BYTES, seed ^ (group + 1));
                let start = clock.now();
                session.state().put(DATASET_KEY, &value).unwrap();
                let took = clock.now().saturating_since(start);
                transcript.push_str(&format!("group {group}: put in {} ns\n", took.as_nanos()));
            }
            let (reply, rtt) = touch.invoke_timed(&[0u8; 8][..]).unwrap();
            assert_eq!(reply, fingerprint(&value).to_le_bytes());
            transcript.push_str(&format!("  touch {t} -> {} ns\n", rtt.as_nanos()));
        }
        if rng.range_u64(0, 2) == 0 {
            let start = clock.now();
            let read = session.state().get(DATASET_KEY).unwrap();
            assert_eq!(read, value, "the writer reads its own last put");
            let took = clock.now().saturating_since(start);
            transcript.push_str(&format!("  read-back -> {} ns\n", took.as_nanos()));
        }
    }

    let stats = session.stats();
    transcript.push_str(&format!(
        "session client: {:?}\nexecutor client: {:?}\n",
        stats.state_session.unwrap(),
        stats.state_executor.unwrap()
    ));
    drop(touch);
    session.close().unwrap();
    for (key, p) in plane.placements() {
        transcript.push_str(&format!(
            "placement {key}: offset={} len={} version={}\n",
            p.offset, p.len, p.version
        ));
    }
    transcript.push_str(&format!("plane: {:?}\n", plane.stats()));
    let total_cost = testbed.manager.total_cost();
    transcript.push_str(&format!(
        "billing: total_cost_bits={:#018x}\n",
        total_cost.to_bits()
    ));
    assert!(total_cost > 0.0, "the scenario must accrue billable usage");
    transcript
}

/// The saturation scenario, simbench `saturate`'s shape (Fig. 16 at depth
/// 256): 8 sessions × 32 hot workers on one executor node each, one shared
/// [`Reactor`] and one shared client clock, 16 waves of 256 in-flight 64 B
/// echoes. The transcript pins every completion's client instant, wave by
/// wave, and the billing total bit-for-bit. Which executor serves first and
/// in what order the client picks results up used to follow the host
/// scheduler; with the executors turned by the waiting client it is fixed.
fn run_saturation_scenario(seed: u64) -> String {
    const SESSIONS: usize = 8;
    const WORKERS: usize = 32;
    const WAVES: usize = 16;
    let mut config = RFaasConfig::paper_calibration();
    config.max_payload_bytes = 4096;
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(evaluation_package());
    let manager = rfaas::ResourceManager::new(&fabric, config.clone());
    for i in 0..SESSIONS {
        let executor = SpotExecutor::new(
            &fabric,
            &format!("sat-det-exec-{i}"),
            NodeResources {
                cores: WORKERS as u32,
                memory_mib: 16 * 1024,
            },
            registry.clone(),
            config.clone(),
        );
        manager.register_executor(&executor);
    }
    let reactor = Reactor::new();
    let clock = VirtualClock::shared();
    let sessions: Vec<Session> = (0..SESSIONS)
        .map(|i| {
            Session::builder(&fabric, &format!("sat-det-client-{i}"), &manager, PACKAGE)
                .workers(WORKERS as u32)
                .memory_mib(1024)
                .polling(PollingMode::Hot)
                .reactor(&reactor)
                .clock(&clock)
                .connect()
                .unwrap()
        })
        .collect();
    let functions: Vec<_> = sessions
        .iter()
        .map(|s| {
            s.function::<[u8], [u8]>("echo")
                .unwrap()
                .with_output_capacity(64)
        })
        .collect();

    let payload = workloads::generate_payload(64, seed);
    let mut transcript = String::new();
    for wave in 0..WAVES {
        let mut sets: Vec<_> = functions
            .iter()
            .map(|f| f.map_workers((0..WORKERS).map(|_| &payload[..])).unwrap())
            .collect();
        transcript.push_str(&format!("wave {wave}:"));
        for set in &mut sets {
            while let Some((_, reply)) = set.wait_any().unwrap() {
                assert_eq!(reply, payload);
                transcript.push_str(&format!(" {}", clock.now().as_nanos()));
            }
        }
        transcript.push('\n');
    }
    assert_eq!(reactor.stats().pumped, (SESSIONS * WORKERS * WAVES) as u64);

    drop(functions);
    for session in sessions {
        session.close().unwrap();
    }
    let total_cost = manager.total_cost();
    transcript.push_str(&format!(
        "billing: total_cost_bits={:#018x}\n",
        total_cost.to_bits()
    ));
    assert!(total_cost > 0.0, "the scenario must accrue billable usage");
    transcript
}

/// The idle-gap scenario: one hot worker, a seeded train of invocations
/// separated by seeded idle gaps on either side of [`HOT_POLL_TIMEOUT`].
/// Gaps of 1–40 ms are billed as hot polling in full; the first gap of
/// 150–400 ms demotes the worker at the next pickup, capping that spin's bill
/// at the timeout, and every pickup after it pays the warm wake-up. The
/// transcript pins each round's latency, the worker's mode and demotion
/// count, the hot-poll bill and the billing total bit-for-bit.
fn run_idle_gap_scenario(seed: u64) -> String {
    let testbed = Testbed::new(1);
    let mut rng = DeterministicRng::new(seed);
    let mut transcript = String::new();

    let session =
        testbed.allocated_session("idle-gap-det", 1, SandboxType::BareMetal, PollingMode::Hot);
    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    let process = testbed.executors[0].allocator().processes().pop().unwrap();

    const ROUNDS: u64 = 24;
    let mut first_long_gap = None;
    let mut short_gaps_before = SimDuration::ZERO;
    for round in 0..ROUNDS {
        let payload = rng.range_u64(1, 2048) as usize;
        let data = workloads::generate_payload(payload, seed);
        let (_, rtt) = echo.invoke_timed(&data).unwrap();
        let (mode, demotions) = (process.worker_mode(0), process.stats().demotions);
        transcript.push_str(&format!(
            "round {round}: invoke {payload} B -> {} ns, mode={mode:?} demotions={demotions}\n",
            rtt.as_nanos()
        ));
        // The pickup after the first long gap demotes, and no other does.
        let demoted = first_long_gap.is_some();
        assert_eq!(demotions, u64::from(demoted), "round {round}");
        let expected_mode = if demoted {
            PollingMode::Warm
        } else {
            PollingMode::Hot
        };
        assert_eq!(mode, expected_mode, "round {round}");

        let gap = if rng.range_u64(0, 2) == 0 {
            SimDuration::from_millis(rng.range_u64(1, 41))
        } else {
            SimDuration::from_millis(rng.range_u64(150, 401))
        };
        if gap > HOT_POLL_TIMEOUT {
            first_long_gap.get_or_insert(round);
        } else if first_long_gap.is_none() {
            short_gaps_before += gap;
        }
        session.clock().advance(gap);
        transcript.push_str(&format!("gap -> {} ns\n", gap.as_nanos()));
    }
    assert!(
        first_long_gap.is_some_and(|round| round + 1 < ROUNDS),
        "the seed must cross the timeout before the last round"
    );

    // Each hot spin bills its gap plus the µs-scale round-trip residue; the
    // demoting spin bills exactly the timeout; a warm worker bills nothing.
    let stats = process.stats();
    let floor = short_gaps_before + HOT_POLL_TIMEOUT;
    assert!(
        stats.hot_poll_time >= floor && stats.hot_poll_time < floor + SimDuration::from_millis(1),
        "hot-poll bill {} must be the short gaps before the demotion plus {}",
        stats.hot_poll_time,
        HOT_POLL_TIMEOUT
    );
    transcript.push_str(&format!(
        "idle gaps: demotions={} hot_poll_ns={}\n",
        stats.demotions,
        stats.hot_poll_time.as_nanos()
    ));
    // The process's usage reaches the manager when its lease ends.
    drop(echo);
    session.close().unwrap();
    let total_cost = testbed.manager.total_cost();
    transcript.push_str(&format!(
        "billing: total_cost_bits={:#018x}\n",
        total_cost.to_bits()
    ));
    assert!(total_cost > 0.0, "the scenario must accrue billable usage");
    transcript
}

/// MPI ranks offloading in lockstep, the Fig. 13 schedule: four ranks on a
/// two-executor testbed each lease a worker on the rank's clock, then, for a
/// seeded number of steps, every rank submits a seeded-size echo, then every
/// rank charges the same local work, then every rank waits for its reply,
/// and a barrier ends the step. The transcript pins every rank's lease
/// placement, its client clock after each reply and every rank clock after
/// each barrier.
fn run_mpi_offload_scenario(seed: u64) -> String {
    let testbed = Testbed::new(2);
    let mut rng = DeterministicRng::new(seed);
    let mut transcript = String::new();
    let world = MpiWorld::new(4);
    let sessions = world.each(|rank| {
        testbed
            .session(&format!("mpi-rank-{}", rank.rank()))
            .clock(rank.clock())
            .memory_mib(2048)
            .connect()
            .unwrap()
    });
    let echoes = world.each(|rank| {
        let session = &sessions[rank.rank()];
        let lease = session.lease().unwrap();
        transcript.push_str(&format!(
            "rank {}: lease node={}\n",
            rank.rank(),
            lease.executor_node
        ));
        session.function::<[u8], [u8]>("echo").unwrap()
    });
    world.barrier();
    for step in 0..rng.range_u64(2, 6) {
        let sizes = world.each(|_| rng.range_u64(1, 64 * 1024) as usize);
        let futures = world.each(|rank| {
            let payload = workloads::generate_payload(sizes[rank.rank()], seed + step);
            echoes[rank.rank()].submit(&payload[..]).unwrap()
        });
        let work = SimDuration::from_micros(rng.range_u64(1, 50));
        world.each(|rank| rank.compute(work));
        for (rank, (future, size)) in futures.into_iter().zip(&sizes).enumerate() {
            assert_eq!(future.wait().unwrap().len(), *size);
            transcript.push_str(&format!(
                "step {step} rank {rank}: {size} B -> client clock {} ns\n",
                sessions[rank].clock().now().as_nanos()
            ));
        }
        world.barrier();
        let clocks = world.each(|rank| rank.clock().now().as_nanos());
        transcript.push_str(&format!("step {step} barrier: rank clocks {clocks:?}\n"));
    }
    transcript
}

/// Run `scenario` at each of `seeds`, twice: the first run must equal the
/// golden file `tests/golden/determinism/<name>.txt` (or rewrite it under
/// `UPDATE_GOLDEN`), one `## seed` section per seed, and the second run the
/// first.
fn check(name: &str, scenario: fn(u64) -> String, seeds: &[u64]) {
    let run = || -> String {
        seeds
            .iter()
            .map(|&seed| format!("## seed {seed:#x}\n{}", scenario(seed)))
            .collect()
    };
    let (first, second) = (run(), run());
    let path = golden::dir("determinism").join(format!("{name}.txt"));
    let expected = golden::expected(&path, &first);
    let mut failures = golden::row_diff(name, &expected, &first);
    failures.extend(golden::row_diff(
        &format!("{name}, second run"),
        &first,
        &second,
    ));
    golden::assert_none(&path, &failures);
}

/// No two of `seeds` may transcribe `scenario` alike: a scenario that
/// ignored its seed would make its golden test pin nothing the seed drives.
fn seeds_differ(name: &str, scenario: fn(u64) -> String, seeds: &[u64]) {
    let transcripts: Vec<String> = seeds.iter().map(|&seed| scenario(seed)).collect();
    for (i, a) in transcripts.iter().enumerate() {
        for (b, seed) in transcripts[i + 1..].iter().zip(&seeds[i + 1..]) {
            assert_ne!(
                a, b,
                "{name}: seeds {:#x} and {seed:#x} transcribe alike",
                seeds[i]
            );
        }
    }
}

/// Each line generates the scenario's golden test and, where it pins more
/// than one seed, the test that its seeds transcribe differently.
macro_rules! golden {
    ($($test:ident $(/ $seeds_test:ident)?: $name:literal, $scenario:ident, $seeds:expr;)*) => {
        $(
            #[test]
            fn $test() {
                check($name, $scenario, &$seeds);
            }

            $(
                #[test]
                fn $seeds_test() {
                    seeds_differ($name, $scenario, &$seeds);
                }
            )?
        )*

        /// Every scenario above has its golden file, and every golden file
        /// its scenario.
        #[test]
        fn every_scenario_has_a_golden_file() {
            golden::assert_files(&golden::dir("determinism"), &[$($name),*], "txt");
        }
    };
}

// The saturation scenario's seed drives only the payload bytes, which the
// transcript does not show, so it pins one seed.
golden! {
    same_seed_produces_byte_identical_runs / different_seeds_actually_change_the_scenario:
        "base", run_scenario, [0xD5EED, 1, 2];
    sharded_multi_tenant_runs_are_byte_identical / sharded_scenario_seeds_change_the_fleet:
        "sharded", run_sharded_scenario, [0x5AA5, 3, 4];
    reactor_driven_runs_are_byte_identical / reactor_scenario_seeds_change_the_schedule:
        "reactor", run_reactor_scenario, [0xFACADE, 5, 6];
    pooled_churn_runs_are_byte_identical / pooled_churn_seeds_change_the_episodes:
        "pooled_churn", run_pooled_churn_scenario, [0xC0FFEE, 7, 8];
    fork_tier_runs_are_byte_identical / fork_scenario_seeds_change_the_episodes:
        "fork", run_fork_scenario, [0xF0CC, 9, 10];
    state_plane_runs_are_byte_identical / state_scenario_seeds_change_the_accesses:
        "state", run_state_scenario, [0x57A7E, 11, 12];
    state_write_mix_runs_are_byte_identical / state_write_mix_seeds_change_the_put_positions:
        "state_write_mix", run_state_write_mix_scenario, [0x3217E, 21, 22];
    idle_gap_demotion_runs_are_byte_identical / idle_gap_seeds_change_the_timeline:
        "idle_gap", run_idle_gap_scenario, [0x1D1E, 13, 14];
    mpi_offload_runs_are_byte_identical / mpi_offload_seeds_change_the_steps:
        "mpi_offload", run_mpi_offload_scenario, [0x3B1, 5, 6];
    saturation_waves_are_byte_identical: "saturation", run_saturation_scenario, [0x5A7];
}

#[test]
fn a_moved_transcript_line_is_named() {
    let before = concat!(
        "## seed 0x1\n",
        "episode 0: lease node=a\n",
        "  invoke 64 B -> 3992 ns\n",
        "  invoke 64 B -> 3992 ns\n",
        "## seed 0x2\n",
        "episode 0: lease node=b\n",
        "billing: total_cost_bits=0x1\n",
    );
    let after = concat!(
        "## seed 0x1\n",
        "episode 0: lease node=a\n",
        "  invoke 64 B -> 3992 ns\n",
        "  invoke 64 B -> 3993 ns\n",
        "## seed 0x2\n",
        "episode 0: lease node=b\n",
        "episode 1: lease node=c\n",
    );
    assert_eq!(
        golden::row_diff("base", before, after),
        [
            "base / seed 0x1 / invoke 64 B #2: 3992 ns → 3993 ns",
            "base / seed 0x2 / billing: missing (total_cost_bits=0x1)",
            "base / seed 0x2 / episode 1: added (lease node=c)",
        ]
    );
}

//! Figure 14: invocation availability and recovery latency under executor
//! churn, and the lease renewal that avoids the churn of expiry.
//!
//! Spot executors live on batch-managed nodes, so they die whenever the batch
//! system takes a node back (Sec. III-A). This experiment drives exactly that
//! loop: a cluster of harvested nodes serves a client issuing one invocation
//! per second on short leases, while SLURM-style batch jobs periodically land
//! on a node and force its reclamation — the batch scheduler takes the
//! harvested bundle back, the spot executor dies, the operator deregisters
//! it, and the lifecycle driver terminates its leases. The churn client never
//! renews its leases, so their expiry adds a second churn source. The
//! client's transparent recovery re-allocates through the manager and
//! replays the invocation; we report how often that happened, the
//! availability it preserved, and what a recovery costs compared with a hot
//! invocation.
//!
//! A third table runs a renewing client on a fresh testbed over the same
//! horizon: the same 20 s leases and one invocation per second, but the
//! client renews its lease by 20 s every 10 s, as the paper's clients do to
//! keep their hot workers. It reports the renewal round trip and counts the
//! renewals, the leases that expired and the client's recoveries.
//! [`CLAIMS`] holds the run to exercising recovery, keeping availability
//! above 95 %, and the renewing client to keeping its one lease.
//!
//! The one invocation per second is the experiment, not a repetition. Its
//! latency rows are distributions because the samples differ with the fixed
//! churn schedule (no seed): the client moves between leases and executor
//! generations. The churn counters are value rows, and so is the renewal
//! round trip, whose samples are identical.

use std::sync::Arc;

use crate::{evaluation_package, every, Claim, Row, Size, Table, Testbed, PACKAGE};
use cluster_sim::{BatchScheduler, NodeResources};
use rdma_fabric::Fabric;
use rfaas::{LifecycleDriver, RFaasConfig, ResourceManager, Session, SpotExecutor};
use sandbox::FunctionRegistry;
use sim_core::{SimDuration, SimTime};

/// Lease length of both clients: the churn client lets its leases expire.
const LEASE_SECS: u64 = 20;
/// The renewing client extends its lease by [`LEASE_SECS`] this often.
const RENEWAL_PERIOD_SECS: u64 = 10;

const RENEWALS: &str = "renewing client: renewals";
const RENEWED_EXPIRED: &str = "renewing client: leases expired";
const RENEWED_RECOVERIES: &str = "renewing client: recoveries";

/// Cores and memory each spot executor harvests from its node.
const BUNDLE: NodeResources = NodeResources {
    cores: 16,
    memory_mib: 64 * 1024,
};

struct ChurnNode {
    /// Live spot executor on this node, if the node is currently harvested.
    executor: Option<Arc<SpotExecutor>>,
    /// Incremented per revival so re-registered executors get fresh names.
    generation: usize,
    /// While set, a batch job owns the node; cleared (and re-harvested) after.
    batch_until: Option<SimTime>,
}

fn spawn_executor(
    fabric: &Arc<Fabric>,
    registry: &FunctionRegistry,
    config: &RFaasConfig,
    manager: &ResourceManager,
    index: usize,
    generation: usize,
) -> Arc<SpotExecutor> {
    let executor = SpotExecutor::new(
        fabric,
        &format!("spot-{index:02}-g{generation}"),
        BUNDLE,
        registry.clone(),
        config.clone(),
    );
    manager.register_executor(&executor);
    executor
}

#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    Claim { name: "churn forces a transparent recovery", source: "model",
        check: |t| every(t, ["client recoveries"], |_, [n]| n > 0.0) },
    Claim { name: "reclamation kills a live lease", source: "model",
        check: |t| every(t, ["leases killed by reclamation"], |_, [n]| n > 0.0) },
    Claim { name: "availability > 95 %", source: "model",
        check: |t| every(t, ["availability"], |_, [percent]| percent > 95.0) },
    Claim { name: "a renewing client keeps its lease", source: "model",
        check: |t| every(t, [RENEWALS, RENEWED_EXPIRED, RENEWED_RECOVERIES],
            |_, [renewals, expired, recoveries]| renewals > 0.0 && expired == 0.0 && recoveries == 0.0) },
];

pub(crate) fn run(size: Size) -> Vec<Table> {
    let quick = size.quick();
    let node_count = if quick { 4 } else { 8 };
    let horizon_secs = if quick { 120u64 } else { 600 };
    let churn_period = 25u64; // one reclamation every 25 s, round-robin
    let batch_job_secs = 10u64; // how long the batch job keeps the node

    let config = RFaasConfig::paper_calibration();
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(evaluation_package());
    let manager = ResourceManager::new(&fabric, config.clone());
    let driver = LifecycleDriver::new([&manager]);

    // The batch cluster under the executors: harvest a bundle on every node.
    let mut scheduler = BatchScheduler::new(node_count, NodeResources::xeon_gold_6154_dual());
    let mut nodes: Vec<ChurnNode> = (0..node_count)
        .map(|i| {
            let node_name = format!("nid{i:05}");
            assert!(scheduler.claim(&node_name, BUNDLE));
            ChurnNode {
                executor: Some(spawn_executor(&fabric, &registry, &config, &manager, i, 0)),
                generation: 0,
                batch_until: None,
            }
        })
        .collect();

    let session = Session::builder(&fabric, "churn-client", &manager, PACKAGE)
        .memory_mib(4096)
        .lease_timeout(SimDuration::from_secs(LEASE_SECS))
        .connect()
        .expect("initial allocation succeeds");
    let echo = session.function::<[u8], [u8]>("echo").expect("echo");
    let payload = workloads::generate_payload(64, 7);

    let mut normal_us: Vec<f64> = Vec::new();
    let mut recovery_ms: Vec<f64> = Vec::new();
    let mut attempts = 0u64;
    let mut failures = 0u64;
    let mut reclamations = 0u64;
    let mut leases_reclaimed = 0u64;
    let mut victim_round_robin = 0usize;

    for tick in 1..=horizon_secs {
        let now = SimTime::from_secs(tick);
        session.clock().advance_to(now);

        // Batch churn: every churn_period, a SLURM job (which bypasses the
        // harvest) lands on the next node that still hosts an executor. The
        // scheduler flags the collision, the bundle is reclaimed and the spot
        // executor dies; the operator deregisters it (C2 in Fig. 4) and the
        // lifecycle driver marks its leases terminated.
        if tick % churn_period == 0 {
            let victims: Vec<usize> = (0..node_count)
                .filter(|&i| nodes[i].executor.is_some())
                .collect();
            if !victims.is_empty() {
                // Prefer the node hosting the client's active lease: the
                // point of the experiment is recovery from reclamation, and
                // a blind rotation over many nodes almost never hits the one
                // lease under test. Fall back to round-robin when the client
                // is (transiently) somewhere we cannot see.
                let leased_node = session.lease().map(|l| l.executor_node);
                let victim = victims
                    .iter()
                    .copied()
                    .find(|&i| {
                        nodes[i]
                            .executor
                            .as_ref()
                            .is_some_and(|e| leased_node.as_deref() == Some(e.name()))
                    })
                    .unwrap_or(victims[victim_round_robin % victims.len()]);
                victim_round_robin += 1;
                let node_name = format!("nid{victim:05}");
                scheduler.nodes_mut()[victim].batch_allocated = NodeResources {
                    cores: 36,
                    memory_mib: 8 * 1024,
                };
                assert_eq!(scheduler.reclamation_candidates(), vec![node_name.clone()]);
                scheduler.reclaim_node(&node_name);
                let executor = nodes[victim].executor.take().expect("victim has executor");
                executor.fail();
                manager.deregister_executor(executor.name());
                leases_reclaimed += manager.terminate_leases_on(executor.name()).len() as u64;
                nodes[victim].batch_until = Some(now + SimDuration::from_secs(batch_job_secs));
                reclamations += 1;
            }
        }

        // Batch jobs end: the node frees up, the scheduler re-claims the
        // bundle and a fresh spot executor generation registers.
        for (i, node) in nodes.iter_mut().enumerate() {
            if node.batch_until.is_some_and(|until| now >= until) {
                node.batch_until = None;
                let node_name = format!("nid{i:05}");
                scheduler.nodes_mut()[i].batch_allocated = NodeResources::ZERO;
                if scheduler.claim(&node_name, BUNDLE) {
                    node.generation += 1;
                    node.executor = Some(spawn_executor(
                        &fabric,
                        &registry,
                        &config,
                        &manager,
                        i,
                        node.generation,
                    ));
                }
            }
        }

        // The manager's lifecycle step: heartbeats, failure detection, lease
        // expiry, process reaping.
        driver.step(now);

        // One invocation per virtual second. A recovery inside the call shows
        // up as a bumped recovery counter; its latency is dominated by the
        // re-allocation (fresh lease + cold start), not the invocation.
        attempts += 1;
        let recoveries_before = session.recoveries();
        match echo.invoke_timed(&payload[..]) {
            Ok((_, rtt)) => {
                if session.recoveries() > recoveries_before {
                    recovery_ms.push(rtt.as_millis_f64());
                } else {
                    normal_us.push(rtt.as_micros_f64());
                }
            }
            Err(_) => failures += 1,
        }
    }

    let lifecycle = driver.total();
    let availability = 100.0 * (attempts - failures) as f64 / attempts.max(1) as f64;

    let latency = vec![
        Row::value("availability", reclamations as f64, availability, "%"),
        Row::sampled("hot invocation", normal_us.len() as f64, &normal_us, "us"),
        Row::sampled(
            "recovery (re-allocate)",
            recovery_ms.len() as f64,
            &recovery_ms,
            "ms",
        ),
    ];
    let horizon = horizon_secs as f64;
    let churn = [
        ("leases killed by reclamation", leases_reclaimed),
        ("executors failed by heartbeat", lifecycle.executors_failed),
        (
            "leases terminated by the driver",
            lifecycle.leases_terminated,
        ),
        ("leases expired", lifecycle.leases_expired),
        ("processes reaped", lifecycle.processes_reaped),
        ("client recoveries", u64::from(session.recoveries())),
        ("failed invocations", failures),
    ]
    .into_iter()
    .map(|(series, count)| Row::value(series, horizon, count as f64, "count"))
    .collect();
    vec![
        Table {
            title: "Figure 14: invocation availability (x = reclamations) and latency (x = invocations) under executor churn",
            rows: latency,
        },
        Table {
            title: "Figure 14: churn over the run (x = horizon in s, one invocation per s, 20 s leases never renewed, a batch reclamation every 25 s)",
            rows: churn,
        },
        renewing_client(horizon_secs),
    ]
}

/// A client on a fresh testbed that invokes once per second for
/// `horizon_secs` and renews its lease every [`RENEWAL_PERIOD_SECS`], with
/// the lifecycle driver expiring leases and reaping processes as it goes.
fn renewing_client(horizon_secs: u64) -> Table {
    let testbed = Testbed::new(1);
    let driver = LifecycleDriver::new([&testbed.manager]);
    let session = testbed
        .session("renewing-client")
        .memory_mib(4096)
        .lease_timeout(SimDuration::from_secs(LEASE_SECS))
        .connect()
        .expect("allocation succeeds");
    let echo = session.function::<[u8], [u8]>("echo").expect("echo");
    let payload = workloads::generate_payload(64, 7);

    let mut renewal_us = Vec::new();
    for tick in 1..=horizon_secs {
        let now = SimTime::from_secs(tick);
        session.clock().advance_to(now);
        if tick % RENEWAL_PERIOD_SECS == 0 {
            let before = session.clock().now();
            session
                .extend_lease(SimDuration::from_secs(LEASE_SECS))
                .expect("the lease is live, so it renews");
            renewal_us.push(
                session
                    .clock()
                    .now()
                    .saturating_since(before)
                    .as_micros_f64(),
            );
        }
        driver.step(now);
        echo.invoke(&payload[..])
            .expect("the renewed worker serves");
    }

    let horizon = horizon_secs as f64;
    let mut rows = vec![Row::sampled(
        "renewing client: renewal round trip",
        horizon,
        &renewal_us,
        "us",
    )];
    rows.extend(
        [
            (RENEWALS, renewal_us.len() as u64),
            (RENEWED_EXPIRED, driver.total().leases_expired),
            (RENEWED_RECOVERIES, u64::from(session.recoveries())),
        ]
        .map(|(series, count)| Row::value(series, horizon, count as f64, "count")),
    );
    session.close().expect("deallocate");
    Table {
        title: "Figure 14: a renewing client (x = horizon in s, one invocation per s, 20 s leases renewed by 20 s every 10 s)",
        rows,
    }
}

//! Figure 17: connection-plane cost under tenant churn — pooled QPs, shared
//! receive queues, and the datagram first-contact path.
//!
//! A multi-tenant fleet (10k+ tenants, Poisson episode arrivals, heavy-hitter
//! skew) churns allocation episodes through a sharded manager plane. Every
//! episode allocates through the datagram control path, connects its worker
//! through a *shared connection pool* keyed by executor node, invokes once
//! and releases. The first episode against each executor pays the full RC
//! handshake (first contact); later episodes ride the warm tier bought by
//! pooled connection warmth. We report the connection-setup cost of both
//! classes (connect-to-manager + connect-to-workers, the connection-plane
//! slice of the cold start), and [`CLAIMS`] holds warm re-allocation to at
//! least 5× cheaper.
//!
//! A second probe allocates 1-worker and 16-worker processes on one executor
//! and compares their shared-receive-queue depths: executor receive memory
//! must grow sublinearly in the connection count (the point of the SRQ): 16
//! workers hold at most 4× the slots of one.
//!
//! The warm re-allocation row is a distribution whose one source of
//! variation is the seeded tenant stream (`TenantFleet` seed 17): which
//! tenant revisits when, and so how its episode meets the pool and the
//! manager shard. Every first contact pays the same handshake, so that row
//! is a value; the counters are values too.

use std::sync::Arc;

use crate::{evaluation_package, every, rows, Claim, Row, Size, Table, PACKAGE};
use cluster_sim::{episode_ordinals, NodeResources, TenantFleet};
use rdma_fabric::{ConnectionPool, Fabric};
use rfaas::{ManagerGroup, RFaasConfig, Session, SpotExecutor};
use sandbox::FunctionRegistry;
use sim_core::SimDuration;

/// Register spot executors with the plane until the requested count is
/// reached AND every shard owns at least one.
fn register_executors(
    fabric: &Arc<Fabric>,
    registry: &FunctionRegistry,
    config: &RFaasConfig,
    group: &ManagerGroup,
    at_least: usize,
) -> Vec<Arc<SpotExecutor>> {
    let mut executors = Vec::new();
    let mut covered = vec![false; group.shard_count()];
    let mut index = 0;
    while executors.len() < at_least || covered.iter().any(|c| !c) {
        let executor = SpotExecutor::new(
            fabric,
            &format!("churn-exec-{index:03}"),
            NodeResources::xeon_gold_6154_dual(),
            registry.clone(),
            config.clone(),
        );
        covered[group.register_executor(&executor)] = true;
        executors.push(executor);
        index += 1;
    }
    executors
}

const SETUP: &str = "connection setup";
const SRQ: &str = "srq slots";

#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    Claim { name: "churn makes first contacts and a warm majority", source: "model",
        check: |t| every(t, ["pool misses", "pool hits"], |_, [misses, hits]| {
            0.0 < misses && misses < hits
        }) },
    Claim { name: "warm re-allocation >= 5x cheaper than first contact", source: "model",
        check: |t| rows(t, [(SETUP, 1.0), (SETUP, 0.0)], |[warm, first]| warm * 5.0 <= first) },
    Claim { name: "16 workers hold <= 4x the SRQ slots of 1", source: "model",
        check: |t| rows(t, [(SRQ, 16.0), (SRQ, 1.0)], |[sixteen, one]| sixteen <= 4.0 * one) },
];

pub(crate) fn run(size: Size) -> Vec<Table> {
    let quick = size.quick();
    let tenants = if quick { 10_000 } else { 12_000 };
    let episode_cap = if quick { 400 } else { 2_000 };
    let shards = 8usize;
    let executor_count = 12usize;

    let config = RFaasConfig::paper_calibration();
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(evaluation_package());
    let group = ManagerGroup::new(&fabric, config.clone(), shards);
    let executors = register_executors(&fabric, &registry, &config, &group, executor_count);

    // The whole fleet flows through the consistent-hash ring: placement of
    // every tenant's episodes, even the ones beyond the session-driven
    // sample below, exercises shard routing at fleet scale.
    let fleet = TenantFleet::generate(17, tenants, SimDuration::from_secs(20));
    let requests = fleet.requests(SimDuration::from_secs(40));
    let ordinals = episode_ordinals(&requests);
    let mut per_shard = vec![0usize; shards];
    for request in &requests {
        per_shard[group.shard_for_tenant(&request.tenant)] += 1;
    }
    let revisits = ordinals.iter().filter(|&&o| o > 0).count();
    let mut fleet_rows = vec![
        Row::value(
            "fleet episodes",
            tenants as f64,
            requests.len() as f64,
            "count",
        ),
        Row::value("fleet revisits", tenants as f64, revisits as f64, "count"),
        Row::value(
            "executors registered",
            shards as f64,
            executors.len() as f64,
            "count",
        ),
    ];
    for (shard, &load) in per_shard.iter().enumerate() {
        fleet_rows.push(Row::value(
            "shard episode load",
            shard as f64,
            load as f64,
            "count",
        ));
    }

    // Connection warmth shared across every episode: the pool is the tenant
    // churn survivor — leases come and go, executor-node warmth stays.
    let pool = ConnectionPool::new();
    let mut first_contact_us: Vec<f64> = Vec::new();
    let mut warm_us: Vec<f64> = Vec::new();
    let mut connections_opened = 0u64;
    let mut srq_watermark = 0usize;

    for (episode, request) in requests.iter().take(episode_cap).enumerate() {
        let manager = group.manager_for_tenant(&request.tenant);
        let hits_before = pool.stats().hits;
        let session = Session::builder(&fabric, &request.tenant, &manager, PACKAGE)
            .workers(1)
            .memory_mib(1024)
            .connection_pool(&pool)
            .starting_at(request.arrival)
            .connect()
            .unwrap_or_else(|e| panic!("episode {episode} allocation failed: {e}"));
        let cold = session.cold_start().expect("cold start recorded");
        let setup_us =
            cold.connect_to_manager.as_micros_f64() + cold.connect_to_workers.as_micros_f64();
        if pool.stats().hits > hits_before {
            warm_us.push(setup_us);
        } else {
            first_contact_us.push(setup_us);
        }
        let echo = session.function::<[u8], [u8]>("echo").expect("echo");
        let payload = workloads::generate_payload(64, episode as u64);
        echo.invoke(&payload[..]).expect("invocation succeeds");
        let stats = session.stats().connections;
        connections_opened += stats.connections_opened;
        srq_watermark = srq_watermark.max(stats.srq_depth_high_watermark);
        session.close().expect("release");
    }

    let pool_stats = pool.stats();
    let driven = requests.len().min(episode_cap) as f64;
    let plane = [
        ("connections opened", connections_opened),
        ("pool hits", pool_stats.hits),
        ("pool misses", pool_stats.misses),
        ("pool returned", pool_stats.returned),
        ("pool evictions", pool_stats.evictions),
        ("SRQ depth high watermark", srq_watermark as u64),
    ]
    .into_iter()
    .map(|(series, count)| Row::value(series, driven, count as f64, "count"))
    .collect();

    // SRQ memory probe: one executor, 1-worker vs 16-worker processes. The
    // shared receive queue must keep executor receive memory sublinear in
    // the connection count.
    let probe = &executors[0];
    let probe_manager = group.managers()[group.shard_for_executor(probe.name())].clone();
    let mut srq_slots = Vec::new();
    for workers in [1u32, 16] {
        let session = Session::builder(&fabric, "fig17-srq-probe", &probe_manager, PACKAGE)
            .workers(workers)
            .memory_mib(4096)
            .connect()
            .expect("probe allocation succeeds");
        let lease = session.lease().expect("probe lease");
        let depth = executors
            .iter()
            .find(|e| e.name() == lease.executor_node)
            .expect("probe lease lands on a registered executor")
            .allocator()
            .processes()
            .iter()
            .find_map(|p| (p.lease_id() == lease.id).then(|| p.srq_stats().max_depth))
            .expect("probe process visible");
        srq_slots.push((workers, depth));
        session.close().expect("probe release");
    }

    let mut setup = vec![
        Row::sampled(SETUP, 0.0, &first_contact_us, "us"),
        Row::distribution(SETUP, 1.0, &warm_us, "us"),
    ];
    for (workers, slots) in srq_slots {
        setup.push(Row::value(SRQ, workers as f64, slots as f64, "slots"));
    }
    vec![
        Table {
            title: "Figure 17: connection setup under churn (x=0 first contact, x=1 warm re-allocation) and SRQ depth vs workers",
            rows: setup,
        },
        Table {
            title: "Figure 17: seeded tenant fleet on the sharded plane (x = tenants, shards or shard index)",
            rows: fleet_rows,
        },
        Table {
            title: "Figure 17: connection plane over the driven episodes (x = episodes)",
            rows: plane,
        },
    ]
}

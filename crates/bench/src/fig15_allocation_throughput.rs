//! Figure 15: control-plane scale-out — allocation throughput and latency of
//! the sharded manager plane under a trace-driven multi-tenant fleet.
//!
//! The paper argues (Sec. III-D) that decentralised allocation scales by
//! replicating the resource manager; Swift (arXiv:2501.19051) shows the RDMA
//! control plane — allocation, registration, lease churn — is where elastic
//! systems bottleneck. This experiment measures exactly that: a seeded
//! tenant fleet (hundreds of tenants, Poisson episode arrivals, mixed
//! workload shapes, heavy-hitter skew) fires an allocation storm at a
//! [`ManagerGroup`] of 1 → 8 consistent-hash shards while leases churn
//! underneath — 80% of episodes release explicitly (cross-shard), the rest
//! abandon their leases for the lifecycle driver to expire.
//!
//! Per-shard allocation processing is serialised on the shard's virtual
//! clock (one manager replica is one service queue), so end-to-end grant
//! latency includes queueing delay and the plane's sustained throughput is
//! `grants / makespan`. [`CLAIMS`] holds 4-shard throughput to ≥ 2× the
//! 1-shard baseline, so the `--quick` golden report is a scale-out
//! regression gate that also pins the absolute numbers exactly.
//!
//! A second phase drives the full allocate→invoke→bill→release pipeline
//! end-to-end: real invokers, real workload payloads (echo, thumbnailer,
//! inference, Black-Scholes, matmul, Jacobi), per-shard billing aggregation.
//!
//! The latency rows are distributions whose one source of variation is the
//! seeded request stream: `TenantFleet` seed 1503 for the storm (arrival
//! times, shapes, heavy-hitter skew) and seed 2718 for the pipeline (the
//! workload mix). Counts, throughputs and bills are value rows.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::{evaluation_package, every, p99_at, rows, xs, Claim, Row, Size, Table, PACKAGE};
use cluster_sim::{NodeResources, TenantFleet, TenantRequest, WorkloadKind};
use rdma_fabric::Fabric;
use rfaas::{
    LeaseRequest, LifecycleDriver, ManagerGroup, RFaasConfig, Session, ALLOCATION_SUBMIT_COST,
};
use sandbox::FunctionRegistry;
use sim_core::{SimDuration, SimTime, VirtualClock};
use workloads::{
    blackscholes::{generate_options, options_to_bytes},
    generate_payload,
    jacobi::encode_install,
    matmul::{encode_matmul_request, random_matrix},
    Image, JacobiSystem,
};

/// Register spot executors with the plane until the requested count is
/// reached AND every shard owns at least one (the ring decides placement;
/// a shard without inventory would refuse its tenants outright).
fn register_executors(
    fabric: &Arc<Fabric>,
    registry: &FunctionRegistry,
    config: &RFaasConfig,
    group: &ManagerGroup,
    at_least: usize,
) -> usize {
    let mut registered = 0;
    let mut covered = vec![false; group.shard_count()];
    let mut index = 0;
    while registered < at_least || covered.iter().any(|c| !c) {
        let executor = rfaas::SpotExecutor::new(
            fabric,
            &format!("fleet-exec-{index:04}"),
            NodeResources::xeon_gold_6154_dual(),
            registry.clone(),
            config.clone(),
        );
        covered[group.register_executor(&executor)] = true;
        registered += 1;
        index += 1;
    }
    registered
}

struct StormOutcome {
    granted: u64,
    rejected: u64,
    latencies_us: Vec<f64>,
    /// Sustained plane throughput: grants per second of makespan (first
    /// arrival to the last shard going idle).
    throughput: f64,
    expired: u64,
}

/// Drive one allocation storm against a plane of `shards` shards and drain
/// the churn afterwards. Each shard is a serial service queue: a request
/// arriving at `t` starts service at `max(t, shard busy-until)`.
fn run_storm(requests: &[TenantRequest], shards: usize, executors: usize) -> StormOutcome {
    let config = RFaasConfig::paper_calibration();
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(evaluation_package());
    let group = ManagerGroup::new(&fabric, config.clone(), shards);
    register_executors(&fabric, &registry, &config, &group, executors);
    let driver = LifecycleDriver::new(group.managers());

    // Episodes that release do so this long after the grant (virtual time);
    // jitter decorrelates the release train from the arrival train.
    let hold_base = SimDuration::from_millis(30);

    let mut busy_until = vec![SimTime::ZERO; group.shard_count()];
    let mut pending_releases: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
    let mut granted = 0u64;
    let mut rejected = 0u64;
    let mut latencies_us = Vec::with_capacity(requests.len());
    let mut lifecycle_cursor = SimTime::ZERO;
    let lifecycle_cadence = SimDuration::from_millis(100);
    let mut first_arrival: Option<SimTime> = None;

    for (i, request) in requests.iter().enumerate() {
        first_arrival.get_or_insert(request.arrival);
        let shard = group.shard_for_tenant(&request.tenant);
        // Service start: the shard's queue may already be backlogged far
        // past this arrival — releases and lifecycle work due before then
        // have happened from the plane's point of view, so process them
        // first (otherwise a saturated storm never returns resources).
        let service_start = request.arrival.max(busy_until[shard]);
        while let Some(Reverse((at, lease_id))) = pending_releases.peek().copied() {
            if at > service_start {
                break;
            }
            pending_releases.pop();
            // The lifecycle driver may have expired it first; both paths
            // return the resources, so an unknown lease is fine.
            let _ = group.release_lease(lease_id);
        }
        // Background lifecycle work (heartbeats, expiry) at a fixed cadence.
        while lifecycle_cursor + lifecycle_cadence <= service_start {
            lifecycle_cursor += lifecycle_cadence;
            driver.step(lifecycle_cursor);
        }

        let clock = VirtualClock::new();
        clock.advance_to(request.arrival);
        // The client serialises and submits, then waits for the shard's
        // queue: the manager replica serves one allocation at a time.
        clock.advance(ALLOCATION_SUBMIT_COST);
        clock.advance_to(busy_until[shard].max(clock.now()));
        let mut lease_request = LeaseRequest::single_worker(PACKAGE)
            .with_cores(request.cores)
            .with_memory_mib(request.memory_mib);
        lease_request.timeout = request.lease_timeout;
        match group.managers()[shard].request_lease(&lease_request, &clock) {
            Ok((lease, _executor)) => {
                granted += 1;
                latencies_us.push(
                    clock
                        .now()
                        .saturating_since(request.arrival)
                        .as_micros_f64(),
                );
                if request.releases_lease {
                    let jitter = SimDuration::from_millis((i % 50) as u64);
                    pending_releases.push(Reverse((clock.now() + hold_base + jitter, lease.id)));
                }
                // Abandoned leases stay until the lifecycle driver expires
                // them — the second churn source.
            }
            Err(_) => rejected += 1,
        }
        // Rejections consumed manager time too (the processing cost is
        // charged before the placement decision).
        busy_until[shard] = group.managers()[shard].clock().now();
    }

    let makespan_end = busy_until.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let makespan = makespan_end.saturating_since(first_arrival.unwrap_or(SimTime::ZERO));

    // Drain: release the stragglers, then let expiry reclaim the abandoned
    // leases. Every lease must be gone — churn enforcement is part of what
    // this figure certifies.
    let mut now = makespan_end;
    while let Some(Reverse((at, lease_id))) = pending_releases.pop() {
        now = now.max(at);
        let _ = group.release_lease(lease_id);
    }
    let drain_deadline = now + SimDuration::from_secs(60);
    while group.lease_count() > 0 {
        now += SimDuration::from_secs(1);
        driver.step(now);
        assert!(
            now < drain_deadline,
            "leases survived the drain: {} left",
            group.lease_count()
        );
    }

    StormOutcome {
        granted,
        rejected,
        latencies_us,
        throughput: granted as f64 / makespan.as_secs_f64().max(1e-9),
        expired: driver.total().leases_expired,
    }
}

/// Build a valid invocation payload for a workload kind (the structured
/// layouts the real functions expect), plus a sufficient output capacity.
fn payload_for(kind: WorkloadKind, approx_bytes: usize, seed: u64) -> (Vec<u8>, usize) {
    match kind {
        WorkloadKind::Echo => (
            generate_payload(approx_bytes.max(8), seed),
            approx_bytes.max(8),
        ),
        WorkloadKind::Thumbnailer => (
            Image::synthetic(approx_bytes.max(4096), seed).encode(),
            300 * 1024,
        ),
        WorkloadKind::Inference => (
            Image::synthetic(approx_bytes.max(4096), seed).encode(),
            16 * 1024,
        ),
        WorkloadKind::BlackScholes => {
            let contracts = (approx_bytes / 48).max(1);
            (
                options_to_bytes(&generate_options(contracts, seed)),
                contracts * 8 + 64,
            )
        }
        WorkloadKind::Matmul => {
            let n = 16;
            let a = random_matrix(n, seed);
            let b = random_matrix(n, seed + 1);
            (encode_matmul_request(&a, &b, n, 0, n), n * n * 8)
        }
        WorkloadKind::Jacobi => {
            let n = 16;
            let system = JacobiSystem::generate(n, seed);
            let x = vec![0.0f64; n];
            (encode_install(&system, &x, 0, n), n * 8 + 64)
        }
    }
}

struct FleetOutcome {
    episodes: u64,
    latencies_us: Vec<f64>,
    shard_costs: Vec<f64>,
    tenant_shards: Vec<usize>,
}

/// Phase 2: the full allocate → invoke → bill → release pipeline, tenant by
/// tenant, on a fixed-size plane. Real invokers, real workload payloads,
/// RDMA-atomic billing flushed into each shard's database.
fn run_fleet(requests: &[TenantRequest], shards: usize, executors: usize) -> FleetOutcome {
    let config = RFaasConfig::paper_calibration();
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(evaluation_package());
    let group = ManagerGroup::new(&fabric, config.clone(), shards);
    register_executors(&fabric, &registry, &config, &group, executors);
    let driver = LifecycleDriver::new(group.managers());

    let mut latencies_us = Vec::new();
    let mut episodes = 0u64;
    let mut tenant_shards = Vec::new();
    for (episode, request) in requests.iter().enumerate() {
        driver.step(request.arrival);
        let shard = group.shard_for_tenant(&request.tenant);
        tenant_shards.push(shard);
        let manager = group.manager_for_tenant(&request.tenant);
        let session = Session::builder(
            &fabric,
            &format!("{}-ep{episode:03}", request.tenant),
            &manager,
            PACKAGE,
        )
        .workers(request.cores)
        .memory_mib(request.memory_mib)
        .lease_timeout(request.lease_timeout.max(SimDuration::from_secs(30)))
        .starting_at(request.arrival)
        .connect()
        .expect("fleet allocation succeeds");
        let (payload, output_capacity) =
            payload_for(request.workload, request.payload_bytes, episode as u64);
        let function = session
            .function::<[u8], [u8]>(request.workload.function_name())
            .expect("workload function deployed")
            .with_output_capacity(output_capacity);
        for _ in 0..request.invocations {
            let (_, rtt) = function
                .invoke_timed(&payload[..])
                .expect("fleet invocation succeeds");
            latencies_us.push(rtt.as_micros_f64());
        }
        session.close().expect("release succeeds");
        episodes += 1;
    }
    assert_eq!(group.lease_count(), 0, "every fleet lease must be released");

    FleetOutcome {
        episodes,
        latencies_us,
        shard_costs: group.per_shard_costs(),
        tenant_shards,
    }
}

const THROUGHPUT: &str = "allocation throughput";
const LATENCY: &str = "allocation latency";

#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    Claim { name: "rejected x 4 < granted at every shard count", source: "model",
        check: |t| every(t, ["rejected", "granted"], |_, [rejected, granted]| {
            rejected * 4.0 < granted
        }) },
    Claim { name: "abandoned leases expire at every shard count", source: "model",
        check: |t| every(t, ["expired by the lifecycle driver"], |_, [n]| n > 0.0) },
    Claim { name: "4-shard throughput >= 2x 1-shard", source: "model",
        check: |t| rows(t, [(THROUGHPUT, 4.0), (THROUGHPUT, 1.0)], |[four, one]| four >= 2.0 * one) },
    Claim { name: "8-shard throughput > 1-shard", source: "model",
        check: |t| rows(t, [(THROUGHPUT, 8.0), (THROUGHPUT, 1.0)], |[eight, one]| eight > one) },
    Claim { name: "4-shard p99 grant latency < 1-shard", source: "model",
        check: |t| {
            let (four, one) = (p99_at(t, LATENCY, 4.0)?, p99_at(t, LATENCY, 1.0)?);
            let detail = || format!("{LATENCY} p99 @ 4: {four}, @ 1: {one}");
            (four < one).then_some(()).ok_or_else(detail)
        } },
    Claim { name: "the fleet pipeline invokes and bills", source: "model",
        check: |t| xs(t, "fleet invocation latency")
            .and(every(t, ["fleet billing total"], |_, [usd]| usd > 0.0)) },
];

pub(crate) fn run(size: Size) -> Vec<Table> {
    let quick = size.quick();
    // Storm shape: `tenants` tenants whose combined episode rate saturates a
    // multi-shard plane (single-shard service rate is 1/allocation cost ≈
    // 1.4 k/s), so queueing — and its relief by sharding — is visible.
    let (tenants, mean_gap_ms, horizon_ms, executors) = if quick {
        (600, 70u64, 500u64, 160)
    } else {
        (2000, 200u64, 1000u64, 256)
    };
    let shard_counts = [1usize, 2, 4, 8];

    let fleet = TenantFleet::generate(1503, tenants, SimDuration::from_millis(mean_gap_ms));
    let requests = fleet.requests(SimDuration::from_millis(horizon_ms));

    let mut storm = Vec::new();
    for &shards in &shard_counts {
        let outcome = run_storm(&requests, shards, executors);
        let x = shards as f64;
        storm.push(Row::value(THROUGHPUT, x, outcome.throughput, "alloc/s"));
        storm.push(Row::distribution(LATENCY, x, &outcome.latencies_us, "us"));
        storm.push(Row::value("granted", x, outcome.granted as f64, "count"));
        storm.push(Row::value("rejected", x, outcome.rejected as f64, "count"));
        storm.push(Row::value(
            "expired by the lifecycle driver",
            x,
            outcome.expired as f64,
            "count",
        ));
    }

    // Phase 2: the full pipeline on a 4-shard plane with a smaller fleet.
    let (fleet_tenants, fleet_horizon_s) = if quick { (12, 30u64) } else { (32, 60) };
    let fleet2 = TenantFleet::generate(2718, fleet_tenants, SimDuration::from_secs(15));
    let fleet_requests = fleet2.requests(SimDuration::from_secs(fleet_horizon_s));
    let fleet_outcome = run_fleet(&fleet_requests, 4, 16);
    let total_cost: f64 = fleet_outcome.shard_costs.iter().sum();
    let mut pipeline = vec![
        Row::distribution(
            "fleet invocation latency",
            fleet_tenants as f64,
            &fleet_outcome.latencies_us,
            "us",
        ),
        Row::value(
            "fleet episodes",
            fleet_tenants as f64,
            fleet_outcome.episodes as f64,
            "count",
        ),
        Row::value("fleet billing total", 4.0, total_cost, "USD"),
    ];
    for (shard, &cost) in fleet_outcome.shard_costs.iter().enumerate() {
        pipeline.push(Row::value(
            "fleet billing of shard",
            shard as f64,
            cost,
            "USD",
        ));
    }

    // Billing must land on the shard that owns each tenant: every shard
    // that served at least one episode must have accrued usage.
    let served: std::collections::BTreeSet<usize> =
        fleet_outcome.tenant_shards.iter().copied().collect();
    for shard in served {
        assert!(
            fleet_outcome.shard_costs[shard] > 0.0,
            "shard {shard} served tenants but billed nothing"
        );
    }
    vec![
        Table {
            title: "Figure 15: allocation storm of a seeded multi-tenant fleet on 1-8 manager shards (x = shards)",
            rows: storm,
        },
        Table {
            title: "Figure 15: allocate-invoke-bill-release pipeline on 4 shards (x = tenants, shards or shard index)",
            rows: pipeline,
        },
    ]
}

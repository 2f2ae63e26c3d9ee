//! The six workloads. Each drives only the `Session` surface of the `rfaas`
//! crate (builder, function handles, completion sets, state, close) from one
//! closed-loop client thread: the rFaaS client is an HPC caller that blocks
//! on its offloaded invocations, and the lease bounds its concurrency.
//!
//! Operation counts are fixed so simulated time repeats exactly; they were
//! sized for about `RUN_SECONDS` of timed work each on the 2-core sandbox at
//! the commit that added the benchmark. Every workload function runs once per
//! round of the harness, on a testbed it builds afresh.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use cluster_sim::{NodeResources, TenantFleet};
use rdma_fabric::{ConnectionPool, Fabric};
use rfaas::{
    FunctionHandle, ManagerGroup, PollingMode, RFaasConfig, Reactor, ReactorStats, ResourceManager,
    Session, SpotExecutor, StateKey, StatePlane,
};
use sandbox::{echo_function, CodePackage, FunctionRegistry, SharedFunction};
use sim_core::{SimDuration, VirtualClock};

use crate::harness::{Harness, Plan, Recorder};
use crate::host;
use crate::inputs::{self, TOUCHES_PER_PUT};
use crate::trace::SpanName;

/// Code package every workload deploys.
const PACKAGE: &str = "simbench";
/// State-plane key the stateful workloads read.
const DATASET_KEY: &str = "dataset";
const SMALL: usize = 64;
const MIB: usize = 1024 * 1024;
/// Echo replies are compared byte for byte on every this-many-th operation
/// (their length on every one).
const BYTE_CHECK_EVERY: u64 = 1024;

type Echo<'s> = FunctionHandle<'s, [u8], [u8]>;

/// A workload's size and entry point.
struct Entry {
    /// Units at scale 1.
    base_units: u64,
    /// Operations one unit holds.
    ops_per_unit: u64,
    run: fn(&mut Harness),
}

fn lookup(name: &str) -> Option<Entry> {
    let entry = |base_units, ops_per_unit, run| Entry {
        base_units,
        ops_per_unit,
        run,
    };
    Some(match name {
        "hot_small" => entry(2_000_000, 1, hot_small),
        "saturate" => entry(9_000, WAVE as u64, saturate),
        "bulk_payload" => entry(12_000, 1, bulk_payload),
        "lease_churn" => entry(8_000, 1, lease_churn),
        "state_read" => entry(160_000, 1, state_read),
        "state_write_mix" => entry(12_000, TOUCHES_PER_PUT as u64 + 1, state_write_mix),
        _ => return None,
    })
}

/// Run the planned workload to completion; `None` for an unknown name.
pub fn run(plan: Plan) -> Option<Harness> {
    let entry = lookup(&plan.workload)?;
    let mut harness = Harness::new(plan, entry.base_units, entry.ops_per_unit);
    harness.drive(entry.run);
    Some(harness)
}

/// Benchmark-local copy of the Fig. 19 read-path function: touches both ends
/// of the declared dataset and returns `inputs::fingerprint` of it, so the
/// invocation moves 8 bytes each way however large the dataset is.
fn state_touch_function() -> SharedFunction {
    SharedFunction::from_stateful_fn("state-touch", |_input, state, output| {
        let fingerprint = inputs::fingerprint(state.read(DATASET_KEY)?);
        output[..8].copy_from_slice(&fingerprint.to_le_bytes());
        Ok(8)
    })
}

fn registry() -> FunctionRegistry {
    let registry = FunctionRegistry::new();
    registry.deploy(
        CodePackage::minimal(PACKAGE)
            .with_function(echo_function())
            .with_function(state_touch_function()),
    );
    registry
}

/// One manager and one paper-shaped executor node.
struct Bed {
    fabric: Arc<Fabric>,
    manager: Arc<ResourceManager>,
    config: RFaasConfig,
    reactor: Reactor,
}

impl Bed {
    fn new() -> Bed {
        let config = RFaasConfig::paper_calibration();
        let fabric = Fabric::with_defaults();
        let manager = ResourceManager::new(&fabric, config.clone());
        let executor = SpotExecutor::new(
            &fabric,
            "exec-00",
            NodeResources::xeon_gold_6154_dual(),
            registry(),
            config.clone(),
        );
        manager.register_executor(&executor);
        Bed {
            fabric,
            manager,
            config,
            reactor: Reactor::new(),
        }
    }

    /// One hot bare-metal worker for `client`.
    fn hot_session(&self, client: &str, plane: Option<&StatePlane>) -> Session {
        let mut builder = Session::builder(&self.fabric, client, &self.manager, PACKAGE)
            .config(self.config.clone())
            .memory_mib(16 * 1024)
            .polling(PollingMode::Hot)
            .reactor(&self.reactor);
        if let Some(plane) = plane {
            builder = builder.state_plane(plane);
        }
        builder
            .connect()
            .expect("a fresh testbed grants one hot worker")
    }
}

/// Bytes and messages the named client nodes moved so far.
fn client_traffic<'a>(fabric: &Fabric, clients: impl IntoIterator<Item = &'a str>) -> (u64, u64) {
    clients
        .into_iter()
        .filter_map(|name| fabric.node(name))
        .fold((0, 0), |(bytes, messages), node| {
            (
                bytes + node.bytes_sent() + node.bytes_received(),
                messages + node.messages_sent(),
            )
        })
}

/// Counters snapshotted around the timed passes.
#[derive(Clone, Copy)]
struct Snapshot {
    reactor: ReactorStats,
    traffic: (u64, u64),
}

impl Snapshot {
    fn take<'a>(
        reactor: ReactorStats,
        fabric: &Fabric,
        clients: impl IntoIterator<Item = &'a str>,
    ) -> Snapshot {
        Snapshot {
            reactor,
            traffic: client_traffic(fabric, clients),
        }
    }

    /// Per-operation deltas since `before` into the harness's layer metrics.
    fn report_since(self, before: Snapshot, h: &mut Harness) {
        let ops = h.round_ops();
        if ops == 0 {
            return;
        }
        let per_op = |after: u64, before: u64| (after - before) as f64 / ops as f64;
        h.layer.set(
            "rfaas.reactor_pumped_per_op",
            per_op(self.reactor.pumped, before.reactor.pumped),
        );
        h.layer.set(
            "rfaas.reactor_dispatched_per_op",
            per_op(self.reactor.dispatched, before.reactor.dispatched),
        );
        h.layer.set(
            "rdma-fabric.wire_bytes_per_op",
            per_op(self.traffic.0, before.traffic.0),
        );
        h.layer.set(
            "rdma-fabric.messages_per_op",
            per_op(self.traffic.1, before.traffic.1),
        );
    }
}

/// Submit and wait for one invocation inside `rfaas.submit` / `rfaas.wait`
/// spans; returns the reply and the client-observed virtual round trip.
fn invoke_spanned(
    rec: &mut Recorder,
    clock: &VirtualClock,
    function: &Echo<'_>,
    input: &[u8],
) -> (rfaas::Result<Vec<u8>>, SimDuration) {
    let start = clock.now();
    let reply = rec
        .tracer
        .span(SpanName::Submit, || function.submit(input))
        .and_then(|future| rec.tracer.span(SpanName::Wait, || future.wait()));
    (reply, clock.now().saturating_since(start))
}

/// Whether an echo reply is right: its length always, its bytes on every
/// `BYTE_CHECK_EVERY`-th operation.
fn echo_ok(reply: &rfaas::Result<Vec<u8>>, sent: &[u8], op: u64) -> bool {
    match reply {
        Ok(bytes) => {
            bytes.len() == sent.len() && (!op.is_multiple_of(BYTE_CHECK_EVERY) || bytes == sent)
        }
        Err(_) => false,
    }
}

fn p50_us(samples: &[SimDuration]) -> f64 {
    let us: Vec<f64> = samples.iter().map(|d| d.as_micros_f64()).collect();
    host::median(&us)
}

/// Lease cost billed per million operations run since set-up.
fn report_billed_cost(h: &mut Harness, total_cost: f64, ops: u64) {
    h.layer.set(
        "rfaas.sim_billed_cost_per_mop",
        total_cost / ops.max(1) as f64 * 1e6,
    );
}

/// Depth-1 echoes of `size` bytes on one hot worker.
fn echo_loop(h: &mut Harness, size: usize) {
    let bed = Bed::new();
    let payloads = inputs::payloads(h.seed(), size);
    let session = bed.hot_session("client", None);
    let echo: Echo = session.function("echo").expect("echo is deployed");
    let clock = Arc::clone(session.clock());
    let mut op = 0u64;
    let mut run = |units: u64, rec: &mut Recorder| {
        for _ in 0..units {
            let sent = &payloads[op as usize % payloads.len()];
            let span = rec.tracer.enter(SpanName::Op);
            let (reply, rtt) = invoke_spanned(rec, &clock, &echo, sent);
            rec.tracer.exit(span);
            rec.record(rtt, echo_ok(&reply, sent, op));
            rec.busy(rtt);
            op += 1;
        }
    };
    h.warm_up(&mut run);
    let before = Snapshot::take(bed.reactor.stats(), &bed.fabric, ["client"]);
    h.measure(&mut run);
    Snapshot::take(bed.reactor.stats(), &bed.fabric, ["client"]).report_since(before, h);

    let stats = session.stats();
    h.check(stats.recoveries == 0, &"no transparent re-allocation");
    h.layer.set("rfaas.recoveries", stats.recoveries as f64);
    h.layer.set(
        "rdma-fabric.srq_depth_high_watermark",
        stats.connections.srq_depth_high_watermark as f64,
    );
    let closed = session.close();
    h.check(closed.is_ok(), &"session closes");
    h.check(bed.manager.lease_count() == 0, &"lease released");
    report_billed_cost(h, bed.manager.total_cost(), op);
}

/// 2,000,000 × 64 B echo, one hot bare-metal worker, depth 1.
fn hot_small(h: &mut Harness) {
    echo_loop(h, SMALL);
    if let Some(rtt) = h.sim_lat_p50() {
        let raw = Fabric::with_defaults().profile().write_pingpong_rtt(SMALL);
        h.layer.set(
            "rfaas.sim_hot_overhead_ns",
            rtt.saturating_sub(raw).as_nanos() as f64,
        );
    }
}

/// 12,000 × 1 MiB echo, one hot worker.
fn bulk_payload(h: &mut Harness) {
    echo_loop(h, MIB);
}

/// In-flight invocations per wave of `saturate`.
const WAVE: usize = 256;
const SATURATE_SESSIONS: usize = 8;

/// 9,000 waves of 256 in-flight 64 B echoes: Fig. 16's shape at depth 256.
fn saturate(h: &mut Harness) {
    let per_session = WAVE / SATURATE_SESSIONS;
    // Per-worker input buffers are sized by `max_payload_bytes`; the default
    // 8 MiB would register 2 GiB for 256 workers.
    let mut config = RFaasConfig::paper_calibration();
    config.max_payload_bytes = 4096;
    let fabric = Fabric::with_defaults();
    let manager = ResourceManager::new(&fabric, config.clone());
    let registry = registry();
    // One executor node per session, sized exactly to its lease, so
    // placement is deterministic and every hot worker owns a core.
    for i in 0..SATURATE_SESSIONS {
        let executor = SpotExecutor::new(
            &fabric,
            &format!("sat-exec-{i:02}"),
            NodeResources {
                cores: per_session as u32,
                memory_mib: 16 * 1024,
            },
            registry.clone(),
            config.clone(),
        );
        manager.register_executor(&executor);
    }
    let reactor = Reactor::new();
    let clock = VirtualClock::shared();
    let clients: Vec<String> = (0..SATURATE_SESSIONS)
        .map(|i| format!("sat-client-{i:02}"))
        .collect();
    let sessions: Vec<Session> = clients
        .iter()
        .map(|client| {
            Session::builder(&fabric, client, &manager, PACKAGE)
                .config(config.clone())
                .workers(per_session as u32)
                .memory_mib(1024)
                .polling(PollingMode::Hot)
                .reactor(&reactor)
                .clock(&clock)
                .connect()
                .expect("saturation allocation succeeds")
        })
        .collect();
    let functions: Vec<Echo> = sessions
        .iter()
        .map(|s| {
            s.function("echo")
                .expect("echo is deployed")
                .with_output_capacity(SMALL)
        })
        .collect();
    let payloads = inputs::payloads(h.seed(), SMALL);

    let mut wave = 0u64;
    let mut gathered = 0u64;
    let (mut doorbells, mut chained) = (0u64, 0u64);
    let mut run = |units: u64, rec: &mut Recorder| {
        for _ in 0..units {
            let sent = &payloads[wave as usize % payloads.len()];
            let span = rec.tracer.enter(SpanName::Op);
            let start = clock.now();
            // Scatter: one wave per session, all 256 in flight before the
            // first gather.
            let sets: Vec<_> = functions
                .iter()
                .map(|f| {
                    rec.tracer.span(SpanName::MapWorkers, || {
                        f.map_workers((0..per_session).map(|_| &sent[..]))
                    })
                })
                .collect();
            // Gather: the shared reactor dispatches completions of every
            // session while any set is drained.
            for set in sets {
                let mut set = match set {
                    Ok(set) => set,
                    Err(e) => {
                        rec.fail(per_session as u64, &e);
                        continue;
                    }
                };
                let mut pending = per_session as u64;
                loop {
                    match rec.tracer.span(SpanName::WaitAny, || set.wait_any()) {
                        Ok(Some((_, reply))) => {
                            pending -= 1;
                            gathered += 1;
                            let ok = echo_ok(&Ok(reply), sent, wave);
                            rec.record(clock.now().saturating_since(start), ok);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            rec.fail(pending, &e);
                            pending = 0;
                            break;
                        }
                    }
                }
                if pending > 0 {
                    rec.fail(pending, &"wave ended with invocations ungathered");
                }
                let stats = set.stats();
                doorbells += stats.doorbells as u64;
                chained += stats.chained_wqes as u64;
            }
            rec.busy(clock.now().saturating_since(start));
            rec.tracer.exit(span);
            wave += 1;
        }
    };
    h.warm_up(&mut run);
    let names = || clients.iter().map(String::as_str);
    let before = Snapshot::take(reactor.stats(), &fabric, names());
    h.measure(&mut run);
    Snapshot::take(reactor.stats(), &fabric, names()).report_since(before, h);

    h.check(
        gathered == wave * WAVE as u64,
        &format_args!("gathered {gathered} of {} invocations", wave * WAVE as u64),
    );
    h.layer
        .set("rfaas.doorbells_per_wave", doorbells as f64 / wave as f64);
    h.layer
        .set("rfaas.chained_wqes_per_wave", chained as f64 / wave as f64);
    let recoveries: u32 = sessions.iter().map(|s| s.stats().recoveries).sum();
    h.check(recoveries == 0, &"no transparent re-allocation");
    h.layer.set("rfaas.recoveries", recoveries as f64);
    let watermark = sessions
        .iter()
        .map(|s| s.stats().connections.srq_depth_high_watermark)
        .max()
        .unwrap_or(0);
    h.layer
        .set("rdma-fabric.srq_depth_high_watermark", watermark as f64);
    for session in sessions {
        let closed = session.close();
        h.check(closed.is_ok(), &"session closes");
    }
    h.check(manager.lease_count() == 0, &"leases released");
    report_billed_cost(h, manager.total_cost(), gathered);
}

const CHURN_SHARDS: usize = 4;
const CHURN_EXECUTORS: usize = 8;
const CHURN_TENANTS: usize = 10_000;
const ECHOES_PER_EPISODE: usize = 4;
/// Mean gap between one tenant's episodes. The fleet then offers about 5
/// episodes per virtual second to a plane whose shards each serve one
/// allocation at a time, far from the point (reached at a 20 s gap) where
/// virtual queueing delay swamps every allocation cost, and low enough that
/// simulated throughput differs between seeds by under 0.5 %.
const CHURN_MEAN_GAP: SimDuration = SimDuration::from_secs(2000);

/// 8,000 allocate → 4 warm echoes → release episodes of a seeded tenant
/// fleet against a sharded manager plane with warm pools and pooled
/// connections. The operation is the episode; its latency sample is the
/// session's cold-start total.
fn lease_churn(h: &mut Harness) {
    let mut config = RFaasConfig::paper_calibration();
    // Two slots per (sandbox, package) key: a parked parent to fork from
    // plus a returned child.
    config.warm_pool_capacity = 2;
    let fabric = Fabric::with_defaults();
    let group = ManagerGroup::new(&fabric, config.clone(), CHURN_SHARDS);
    let registry = registry();
    let mut executors: Vec<Arc<SpotExecutor>> = Vec::new();
    let mut covered = [false; CHURN_SHARDS];
    // The ring places executors; keep adding until every shard owns one.
    while executors.len() < CHURN_EXECUTORS || covered.contains(&false) {
        let executor = SpotExecutor::new(
            &fabric,
            &format!("churn-exec-{:03}", executors.len()),
            NodeResources::xeon_gold_6154_dual(),
            registry.clone(),
            config.clone(),
        );
        covered[group.register_executor(&executor)] = true;
        executors.push(executor);
    }
    let fleet = TenantFleet::generate(h.seed(), CHURN_TENANTS, CHURN_MEAN_GAP);
    let requests = fleet.requests(CHURN_MEAN_GAP * 2);
    let episodes = h.total_units() as usize;
    assert!(
        requests.len() >= episodes,
        "the fleet yields {} episodes, the run needs {episodes}",
        requests.len()
    );
    let policies = inputs::policies(h.seed(), episodes);
    let payloads = inputs::payloads(h.seed(), SMALL);
    let pool = ConnectionPool::new();
    // One reactor per episode, as a session gets by default; a shared one
    // would keep a closed session's connections until a later sweep.
    let swept = Cell::new(ReactorStats::default());
    let tenants: BTreeSet<&str> = requests[..episodes]
        .iter()
        .map(|r| r.tenant.as_str())
        .collect();

    let first_episode = h.units_before_round() as usize;
    let mut episode = first_episode;
    let mut echo_op = 0u64;
    let mut recoveries = 0u32;
    let mut watermark = 0usize;
    let mut warm_rtts: Vec<SimDuration> = Vec::new();
    let mut slices: [Vec<SimDuration>; 5] = Default::default();
    let mut run = |units: u64, rec: &mut Recorder| {
        for _ in 0..units {
            let request = &requests[episode];
            let policy = policies[episode];
            episode += 1;
            let span = rec.tracer.enter(SpanName::Op);
            let manager = group.manager_for_tenant(&request.tenant);
            let reactor = Reactor::new();
            let connected = rec.tracer.span(SpanName::Connect, || {
                Session::builder(&fabric, &request.tenant, &manager, PACKAGE)
                    .config(config.clone())
                    .workers(1)
                    .memory_mib(1024)
                    .polling(PollingMode::Warm)
                    .allocation_policy(policy)
                    .connection_pool(&pool)
                    .reactor(&reactor)
                    .starting_at(request.arrival)
                    .connect()
            });
            let session = match connected {
                Ok(session) => session,
                Err(e) => {
                    rec.tracer.exit(span);
                    rec.fail(1, &e);
                    continue;
                }
            };
            let clock = Arc::clone(session.clock());
            let cold = session.cold_start();
            let mut ok = cold.is_some();
            let mut rtts = [SimDuration::ZERO; ECHOES_PER_EPISODE];
            match session.function::<[u8], [u8]>("echo") {
                Ok(echo) => {
                    for slot in &mut rtts {
                        let sent = &payloads[echo_op as usize % payloads.len()];
                        let (reply, rtt) = invoke_spanned(rec, &clock, &echo, sent);
                        ok &= echo_ok(&reply, sent, echo_op);
                        *slot = rtt;
                        echo_op += 1;
                    }
                }
                Err(_) => ok = false,
            }
            let stats = session.stats();
            // A forked child's first invocations each pay a batch of page
            // faults; only the others are plain warm invocations.
            if stats.fork.is_none() {
                warm_rtts.extend(rtts);
            }
            recoveries += stats.recoveries;
            watermark = watermark.max(stats.connections.srq_depth_high_watermark);
            ok &= rec.tracer.span(SpanName::Close, || session.close()).is_ok();
            rec.tracer.exit(span);
            let (episode_sweeps, mut total) = (reactor.stats(), swept.get());
            total.pumped += episode_sweeps.pumped;
            total.dispatched += episode_sweeps.dispatched;
            swept.set(total);
            let cold = cold.unwrap_or_default();
            for (series, slice) in slices.iter_mut().zip([
                cold.connect_to_manager,
                cold.submit_allocation,
                cold.spawn_workers,
                cold.submit_code,
                cold.connect_to_workers,
            ]) {
                series.push(slice);
            }
            rec.record(cold.total(), ok);
            rec.busy(clock.now().saturating_since(request.arrival));
        }
    };
    h.warm_up(&mut run);
    let names = || tenants.iter().copied();
    let before = Snapshot::take(swept.get(), &fabric, names());
    h.measure(&mut run);
    Snapshot::take(swept.get(), &fabric, names()).report_since(before, h);

    for (shard, manager) in group.managers().iter().enumerate() {
        let live = manager.lease_count();
        h.check(
            live == 0,
            &format_args!("shard {shard} ends with {live} live leases"),
        );
    }
    h.check(recoveries == 0, &"no transparent re-allocation");
    h.layer.set("rfaas.recoveries", recoveries as f64);
    h.layer
        .set("rdma-fabric.srq_depth_high_watermark", watermark as f64);
    let raw = fabric.profile().write_pingpong_rtt(SMALL);
    warm_rtts.sort_unstable();
    h.layer.set(
        "rfaas.sim_warm_overhead_ns",
        warm_rtts[warm_rtts.len() / 2]
            .saturating_sub(raw)
            .as_nanos() as f64,
    );
    for (name, series) in [
        "connect_to_manager",
        "submit_allocation",
        "spawn_workers",
        "submit_code",
        "connect_to_workers",
    ]
    .iter()
    .zip(&slices)
    {
        h.layer
            .set(&format!("rfaas.sim_alloc_{name}_us"), p50_us(series));
    }
    let pooled = pool.stats();
    h.layer.set(
        "rdma-fabric.pool_hit_ratio",
        pooled.hits as f64 / (pooled.hits + pooled.misses).max(1) as f64,
    );
    let (hits, misses) = executors
        .iter()
        .map(|e| e.allocator().warm_pool().stats())
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    h.layer.set(
        "sandbox.warm_pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report_billed_cost(h, group.total_cost(), (episode - first_episode) as u64);
}

/// Stateful touches of a 1 MiB key on one hot worker; with `puts`, a 1 MiB
/// `Session::state().put` comes before one touch of every eight, at a seeded
/// position, and invalidates the executor's cached copy.
fn state_loop(h: &mut Harness, puts: bool) {
    let bed = Bed::new();
    let plane = StatePlane::new(&bed.fabric, "state-0", 64 * MIB);
    let datasets = inputs::payloads(h.seed(), MIB);
    let positions = if puts {
        inputs::put_positions(h.seed(), h.total_units() as usize)
    } else {
        Vec::new()
    };
    let session = bed.hot_session("client", Some(&plane));
    let seeded = session.state().put(DATASET_KEY, &datasets[0]);
    h.check(seeded.is_ok(), &"dataset seeds");
    let touch: Echo = session
        .function("state-touch")
        .expect("state-touch is deployed")
        .with_state([StateKey::read(DATASET_KEY)])
        .expect("the dataset key was just put");
    let clock = Arc::clone(session.clock());

    let mut expected = inputs::fingerprint(&datasets[0]);
    let mut touches = 0u64;
    let mut put_count = 0u64;
    let mut last_was_put = true; // the seeding put
    let mut touches_after_put = 0u64;
    let request = [0u8; 8];
    let mut touch_once = |rec: &mut Recorder, expected: u64, last_was_put: &mut bool| {
        let span = rec.tracer.enter(SpanName::Op);
        let (reply, rtt) = invoke_spanned(rec, &clock, &touch, &request);
        rec.tracer.exit(span);
        let ok = reply.is_ok_and(|bytes| bytes == expected.to_le_bytes());
        rec.record(rtt, ok);
        rec.busy(rtt);
        touches += 1;
        touches_after_put += u64::from(std::mem::take(last_was_put));
    };
    let mut group = h.units_before_round() as usize;
    let mut run = |units: u64, rec: &mut Recorder| {
        for _ in 0..units {
            if !puts {
                touch_once(rec, expected, &mut last_was_put);
                continue;
            }
            let put_before = positions[group] as usize;
            group += 1;
            for t in 0..TOUCHES_PER_PUT {
                if t == put_before {
                    put_count += 1;
                    let dataset = &datasets[put_count as usize % datasets.len()];
                    let span = rec.tracer.enter(SpanName::Op);
                    let start = clock.now();
                    let stored = rec.tracer.span(SpanName::StatePut, || {
                        session.state().put(DATASET_KEY, dataset)
                    });
                    let took = clock.now().saturating_since(start);
                    rec.tracer.exit(span);
                    rec.record(took, stored.is_ok());
                    rec.busy(took);
                    expected = inputs::fingerprint(dataset);
                    last_was_put = true;
                }
                touch_once(rec, expected, &mut last_was_put);
            }
        }
    };
    h.warm_up(&mut run);
    let before = Snapshot::take(bed.reactor.stats(), &bed.fabric, ["client"]);
    h.measure(&mut run);
    Snapshot::take(bed.reactor.stats(), &bed.fabric, ["client"]).report_since(before, h);

    let stats = session.stats();
    h.check(stats.recoveries == 0, &"no transparent re-allocation");
    h.layer.set("rfaas.recoveries", stats.recoveries as f64);
    h.layer.set(
        "rdma-fabric.srq_depth_high_watermark",
        stats.connections.srq_depth_high_watermark as f64,
    );
    match stats.state_executor {
        Some(exec) => {
            // Every touch that directly follows a put (the seeding one
            // included) pays the one-sided READ; every other touch hits.
            h.check(
                exec.remote_reads == touches_after_put,
                &format_args!(
                    "{} remote reads for {touches_after_put} touches after a put",
                    exec.remote_reads
                ),
            );
            h.check(
                exec.cache_hits >= touches - touches_after_put,
                &format_args!("{} cache hits in {touches} touches", exec.cache_hits),
            );
            h.layer.set(
                "state-plane.cache_hit_ratio",
                exec.cache_hits as f64 / exec.gets.max(1) as f64,
            );
            h.layer.set(
                "state-plane.remote_reads_per_op",
                exec.remote_reads as f64 / (touches + put_count) as f64,
            );
            if put_count > 0 {
                h.layer.set(
                    "state-plane.invalidations_per_put",
                    exec.invalidations_applied as f64 / put_count as f64,
                );
            }
        }
        None => h.check(false, &"the executor side reports state-cache counters"),
    }
    drop(touch);
    let closed = session.close();
    h.check(closed.is_ok(), &"session closes");
    h.check(bed.manager.lease_count() == 0, &"lease released");
    report_billed_cost(h, bed.manager.total_cost(), touches + put_count);
}

/// 160,000 touches of a key that stays cache-resident after the first.
fn state_read(h: &mut Harness) {
    state_loop(h, false);
}

/// 96,000 touches with 12,000 puts among them.
fn state_write_mix(h: &mut Harness) {
    state_loop(h, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn every_registered_workload_runs_at_smoke_scale_without_failures() {
        for w in WORKLOADS {
            let harness = run(Plan {
                workload: w.name.to_string(),
                seed: 3,
                scale: 0.001,
                traced: false,
            })
            .expect("registered workloads resolve");
            let (attempted, failed) = harness.totals();
            assert!(attempted > 0, "{}", w.name);
            assert_eq!(failed, 0, "{}", w.name);
            let metrics = harness.finish();
            assert!(metrics.get("sim_ops_per_s").unwrap() > 0.0, "{}", w.name);
        }
        assert!(lookup("no-such-workload").is_none());
    }
}

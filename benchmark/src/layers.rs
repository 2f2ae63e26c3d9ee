//! Isolated per-layer timings: host nanoseconds per call into one public
//! function (or one short cycle of them) of each crate on the rFaaS path,
//! measured from outside on a single thread unless noted.
//!
//! A value is the median over many timed batches after a warm-up of a tenth
//! as many. Sub-microsecond calls are timed in batches of 100 or 1,000 so the
//! timer's own cost (tens of ns) disappears; microsecond calls are timed one
//! by one, 10,000 times. The three millisecond-scale calls get 15 samples.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cluster_sim::{NodeResources, TenantFleet};
use rdma_fabric::{
    connect, connect_pooled, AccessFlags, ConnectionPool, CqSet, DatagramSocket, Endpoint, Fabric,
    Listener, QueuePair, ReceiveRing, RecvRequest, SendRequest, Sge, SharedReceiveQueue,
};
use rfaas::{
    Codec, ControlFrame, ImmValue, InvocationHeader, LeaseRequest, PollingMode, RFaasConfig,
    Reactor, ResourceManager, ResultStatus, Session, SpotExecutor,
};
use sandbox::{
    echo_function, CodePackage, FaultTracker, FunctionRegistry, ImageRegistry, Sandbox,
    SandboxSnapshot, SandboxType, WarmPool,
};
use sim_core::sync::ranks;
use sim_core::{
    DeterministicRng, LatencyHistogram, OrderedMutex, SimDuration, SimTime, Summary, VirtualClock,
};
use state_plane::{RegionAllocator, StateFrame, StatePlane};

use crate::host;
use crate::metrics::MetricSet;

const MIB: usize = 1024 * 1024;
const PACKAGE: &str = "layers";

/// Collects `name → median ns per call`.
struct Timings {
    out: MetricSet,
    /// Share of the stated sample counts to run (1.0, or 0.01 for a smoke run).
    scale: f64,
}

impl Timings {
    /// Time `samples` batches of `batch` calls of `f` (after `samples / 10`
    /// warm-up batches) and store the median nanoseconds per call.
    fn per_call(&mut self, name: &str, batch: usize, samples: usize, mut f: impl FnMut()) {
        self.prepared(name, batch, samples, &mut (), |()| (), |()| f());
    }

    /// As [`Timings::per_call`], with an untimed `prepare` before every
    /// batch; both closures work on `state`.
    fn prepared<S>(
        &mut self,
        name: &str,
        batch: usize,
        samples: usize,
        state: &mut S,
        mut prepare: impl FnMut(&mut S),
        mut f: impl FnMut(&mut S),
    ) {
        let samples = ((samples as f64 * self.scale) as usize).max(5);
        let mut ns = Vec::with_capacity(samples);
        for round in 0..samples / 10 + samples {
            prepare(state);
            let start = Instant::now();
            for _ in 0..batch {
                f(state);
            }
            let elapsed = start.elapsed();
            if round >= samples / 10 {
                ns.push(elapsed.as_nanos() as f64 / batch as f64);
            }
        }
        self.out.set(name, host::median(&ns));
    }
}

/// Calls timed one by one.
const SLOW: (usize, usize) = (1, 10_000);
/// Sub-microsecond calls: 200 batches of 100.
const FAST: (usize, usize) = (100, 200);
/// Few-nanosecond calls: 100 batches of 1,000.
const TINY: (usize, usize) = (1_000, 100);
/// Millisecond-scale calls.
const MILLIS: (usize, usize) = (1, 15);

fn sim_core_layer(t: &mut Timings) {
    let clock = VirtualClock::new();
    t.per_call("sim-core.clock_advance_ns", TINY.0, TINY.1, || {
        black_box(clock.advance(SimDuration::from_nanos(1)));
    });
    let mutex = OrderedMutex::new(ranks::LIFECYCLE_STATS, 0u64);
    t.per_call("sim-core.ordered_mutex_lock_ns", TINY.0, TINY.1, || {
        *mutex.lock() += 1;
    });
    let mut histogram = LatencyHistogram::new();
    let mut d = 0u64;
    t.per_call("sim-core.histogram_record_ns", TINY.0, TINY.1, || {
        d = (d + 977) % 1_000_000;
        histogram.record(SimDuration::from_nanos(d));
    });
    black_box(histogram.count());
    let mut rng = DeterministicRng::new(7);
    let samples: Vec<f64> = (0..100_000).map(|_| rng.next_f64()).collect();
    t.per_call("sim-core.summary_of_100k_ns", MILLIS.0, MILLIS.1, || {
        black_box(Summary::of(black_box(&samples)));
    });
    t.per_call("sim-core.rng_next_ns", TINY.0, TINY.1, || {
        black_box(rng.next_u64());
    });
}

fn cluster_sim_layer(t: &mut Timings) {
    let gap = SimDuration::from_secs(2000);
    t.per_call(
        "cluster-sim.fleet_generate_10k_ms",
        MILLIS.0,
        MILLIS.1,
        || {
            black_box(TenantFleet::generate(black_box(11), 10_000, gap));
        },
    );
    let fleet = TenantFleet::generate(11, 10_000, gap);
    t.per_call("cluster-sim.requests_ms", MILLIS.0, MILLIS.1, || {
        black_box(fleet.requests(gap * 2));
    });
    for name in [
        "cluster-sim.fleet_generate_10k_ms",
        "cluster-sim.requests_ms",
    ] {
        let ns = t.out.get(name).expect("just measured");
        t.out.set(name, ns / 1e6);
    }
}

fn package() -> CodePackage {
    CodePackage::minimal(PACKAGE).with_function(echo_function())
}

fn sandbox_layer(t: &mut Timings) {
    let images = ImageRegistry::new();
    let pkg = package();
    let gib = 1u64 << 30;
    t.per_call("sandbox.spawn_ns", FAST.0, FAST.1, || {
        let (mut sandbox, breakdown) =
            Sandbox::spawn(SandboxType::BareMetal, 1, gib, &images, pkg.image());
        black_box(sandbox.load_package(pkg.clone()));
        black_box((sandbox, breakdown));
    });
    let (mut parent, _) = Sandbox::spawn(SandboxType::BareMetal, 1, gib, &images, pkg.image());
    parent.load_package(pkg.clone());
    let snapshot = SandboxSnapshot::capture(&parent, SimTime::ZERO).expect("running parent");
    t.per_call("sandbox.snapshot_capture_ns", FAST.0, FAST.1, || {
        black_box(SandboxSnapshot::capture(&parent, SimTime::ZERO));
    });
    t.per_call("sandbox.fork_from_ns", FAST.0, FAST.1, || {
        black_box(Sandbox::fork_from(&snapshot, 1));
    });
    let pool = WarmPool::with_capacity(2);
    let mut parked = Some(parent);
    t.per_call("sandbox.warm_pool_park_lease_ns", FAST.0, FAST.1, || {
        pool.park(parked.take().expect("leased back"), SimTime::ZERO);
        let parent = pool
            .lease(SandboxType::BareMetal, PACKAGE)
            .expect("just parked");
        parked = Some(parent.into_sandbox());
    });
    // One call = one 32-page prefetch window; a fresh tracker per batch, and
    // the batch drains it.
    let windows = FaultTracker::for_snapshot(&snapshot)
        .total_pages()
        .div_ceil(32);
    t.prepared(
        "sandbox.fault_window_ns",
        windows,
        FAST.1,
        &mut FaultTracker::for_snapshot(&snapshot),
        |tracker| *tracker = FaultTracker::for_snapshot(&snapshot),
        |tracker| {
            black_box(tracker.fault_next_window(32));
        },
    );
    let echo = echo_function();
    let small = vec![7u8; 64];
    let mut out = vec![0u8; MIB];
    t.per_call("sandbox.echo_64b_ns", FAST.0, FAST.1, || {
        black_box(echo.invoke(black_box(&small), &mut out)).ok();
    });
    let big = vec![7u8; MIB];
    t.per_call("sandbox.echo_1mib_ns", SLOW.0, SLOW.1, || {
        black_box(echo.invoke(black_box(&big), &mut out)).ok();
    });
    let registry = FunctionRegistry::new();
    registry.deploy(package());
    t.per_call("sandbox.registry_lookup_ns", FAST.0, FAST.1, || {
        let package = registry.fetch(PACKAGE).expect("deployed");
        black_box(package.function_by_name("echo").map(|(index, _)| index));
    });
}

fn state_plane_layer(t: &mut Timings) {
    let fabric = Fabric::with_defaults();
    let plane = StatePlane::new(&fabric, "state-l", 64 * MIB);
    let writer_node = fabric.add_node("state-writer");
    let reader_node = fabric.add_node("state-reader");
    let mut writer = plane.attach("w", &writer_node, &VirtualClock::shared(), 16 * MIB);
    let mut reader = plane.attach("r", &reader_node, &VirtualClock::shared(), 16 * MIB);
    let value = vec![5u8; MIB];
    writer.put("k", &value).expect("first put");

    t.per_call("state-plane.put_1mib_ns", SLOW.0, SLOW.1, || {
        writer.put("k", black_box(&value)).expect("put");
    });
    // Every put by the writer invalidates the reader's copy, so the read
    // after it pays the lookup and the one-sided READ.
    t.prepared(
        "state-plane.get_miss_1mib_ns",
        SLOW.0,
        SLOW.1,
        &mut (),
        |()| writer.put("k", &value).expect("put"),
        |()| {
            black_box(reader.get_with("k", |bytes| bytes.len())).ok();
        },
    );
    t.per_call("state-plane.get_hit_1mib_ns", FAST.0, FAST.1, || {
        black_box(reader.get_with("k", |bytes| bytes.len())).ok();
    });
    let reads = reader.stats();
    assert!(
        reads.remote_reads > 0 && reads.cache_hits >= reads.remote_reads,
        "the miss and hit timings took the paths they name: {reads:?}"
    );
    let small = [5u8; 64];
    t.per_call("state-plane.put_64b_ns", SLOW.0, SLOW.1, || {
        writer.put("small", black_box(&small)).expect("put");
    });
    t.per_call("state-plane.pump_idle_ns", FAST.0, FAST.1, || plane.pump());
    let frame = StateFrame::Owner {
        key: "dataset".into(),
        offset: 4096,
        len: MIB as u64,
        version: 9,
    };
    t.per_call("state-plane.frame_codec_ns", FAST.0, FAST.1, || {
        black_box(StateFrame::decode(&black_box(&frame).encode())).ok();
    });
    let mut region = RegionAllocator::new(64 * MIB);
    t.per_call(
        "state-plane.region_alloc_release_ns",
        TINY.0,
        TINY.1,
        || {
            let offset = region.allocate(MIB).expect("room");
            region.release(black_box(offset), MIB);
        },
    );
}

fn recv_into(scratch: &rdma_fabric::MemoryRegion) -> RecvRequest {
    RecvRequest {
        wr_id: u64::MAX,
        local: Sge::whole(scratch),
    }
}

fn rdma_fabric_layer(t: &mut Timings) {
    let fabric = Fabric::with_defaults();
    let node_a = fabric.add_node("layer-a");
    let node_b = fabric.add_node("layer-b");
    let end_a = Endpoint::new(&fabric, &node_a);
    let end_b = Endpoint::new(&fabric, &node_b);
    let qa = QueuePair::new(&end_a);
    let qb = QueuePair::new(&end_b);
    QueuePair::connect_pair(&qa, &qb).expect("fresh pair connects");

    let small = [3u8; 64];
    let target = qb.pd().register(MIB, AccessFlags::REMOTE_ALL);
    let scratch = qb.pd().register(8, AccessFlags::LOCAL_ONLY);
    let source = qa
        .pd()
        .register_from(vec![3u8; MIB], AccessFlags::LOCAL_ONLY);
    let remote = target.remote_handle();
    let remote_small = remote.slice(0, 64);

    t.per_call("rdma-fabric.write_inline_cycle_ns", SLOW.0, SLOW.1, || {
        qb.post_recv(recv_into(&scratch)).expect("post_recv");
        qa.post_write_inline(1, &small, &remote_small, Some(7), true)
            .expect("inline write");
        black_box(qa.send_cq().poll_one());
        black_box(qb.recv_cq().poll_one());
    });
    t.per_call("rdma-fabric.write_1mib_cycle_ns", SLOW.0, SLOW.1, || {
        qb.post_recv(recv_into(&scratch)).expect("post_recv");
        let write = SendRequest::WriteWithImm {
            local: Sge::whole(&source),
            remote,
            imm: 7,
        };
        qa.post_send(2, write, true).expect("write");
        black_box(qa.send_cq().poll_one());
        black_box(qb.recv_cq().poll_one());
    });
    t.per_call("rdma-fabric.read_1mib_cycle_ns", SLOW.0, SLOW.1, || {
        let read = SendRequest::Read {
            local: Sge::whole(&source),
            remote,
        };
        qa.post_send(3, read, true).expect("read");
        black_box(qa.send_cq().poll_one());
    });
    // One call = one doorbell with 32 chained 64 B writes, the last signaled.
    let source_small = qa
        .pd()
        .register_from(small.to_vec(), AccessFlags::LOCAL_ONLY);
    t.per_call("rdma-fabric.send_batch_32_ns", SLOW.0, SLOW.1, || {
        let chain = (0..32u64)
            .map(|i| {
                let write = SendRequest::Write {
                    local: Sge::whole(&source_small),
                    remote: remote_small,
                };
                (i, write, i == 31)
            })
            .collect();
        black_box(qa.post_send_batch(chain)).expect("batch");
        black_box(qa.send_cq().poll_one());
    });

    // Ring: 16 messages are written (untimed), then 16 polls drain them;
    // every poll re-posts its slot.
    let qc = QueuePair::new(&end_a);
    let qd = QueuePair::new(&end_b);
    QueuePair::connect_pair(&qc, &qd).expect("ring pair connects");
    let ring = ReceiveRing::new(&qd, 16, 64).expect("ring");
    t.prepared(
        "rdma-fabric.ring_cycle_ns",
        16,
        1_000,
        &mut (),
        |()| {
            for _ in 0..16 {
                qc.post_write_inline(4, &small, &remote_small, Some(9), false)
                    .expect("ring write");
            }
        },
        |()| {
            black_box(ring.poll_one());
        },
    );

    // 256 registered CQs, one of them with one completion pending.
    let mut set = CqSet::new();
    let mut pairs = Vec::new();
    for _ in 0..256 {
        let client = QueuePair::new(&end_a);
        let server = QueuePair::new(&end_b);
        QueuePair::connect_pair(&client, &server).expect("set pair connects");
        set.register(server.recv_cq());
        pairs.push((client, server));
    }
    let mut drained = Vec::with_capacity(16);
    let mut turn = 0usize;
    t.prepared(
        "rdma-fabric.cqset_poll_256_ns",
        SLOW.0,
        SLOW.1,
        &mut (),
        |()| {
            let (client, server) = &pairs[turn % pairs.len()];
            turn += 97;
            server.post_recv(recv_into(&scratch)).expect("post_recv");
            client
                .post_write_inline(5, &small, &remote_small, Some(1), false)
                .expect("set write");
        },
        |()| {
            drained.clear();
            black_box(set.poll_uncharged_into(16, &mut drained));
        },
    );
    drop(pairs);

    let pd = qa.pd().clone();
    t.prepared(
        "rdma-fabric.mr_register_8mib_ns",
        SLOW.0,
        SLOW.1,
        &mut pd.register(8 * MIB, AccessFlags::REMOTE_WRITE),
        |registered| {
            pd.deregister(registered);
        },
        |registered| *registered = pd.register(8 * MIB, AccessFlags::REMOTE_WRITE),
    );
    let bytes = vec![1u8; MIB];
    t.per_call("rdma-fabric.mr_write_1mib_ns", SLOW.0, SLOW.1, || {
        target.write(0, black_box(&bytes)).expect("in range");
    });
    t.per_call("rdma-fabric.mr_read_1mib_ns", SLOW.0, SLOW.1, || {
        black_box(target.read(0, MIB)).ok();
    });

    // Connection set-up: a helper thread accepts (two threads involved).
    let listener = Listener::bind(&fabric, "layer-listener");
    let pool = ConnectionPool::new();
    let samples = 2_000;
    let scaled = ((samples as f64 * t.scale) as usize).max(5);
    let connects = 2 * (scaled + scaled / 10);
    std::thread::scope(|scope| {
        let accepting_end = &end_b;
        let acceptor = scope.spawn(move || {
            (0..connects)
                .filter(|_| {
                    let accepted = listener.accept_timeout(accepting_end, Duration::from_secs(5));
                    matches!(accepted, Ok(Some(_)))
                })
                .count()
        });
        t.per_call("rdma-fabric.connect_ns", 1, samples, || {
            black_box(connect(&end_a, "layer-listener")).expect("connect");
        });
        t.prepared(
            "rdma-fabric.connect_pooled_ns",
            1,
            samples,
            &mut (),
            |()| pool.release("layer-b", SimTime::ZERO),
            |()| {
                let (qp, warm) = connect_pooled(
                    &end_a,
                    "layer-listener",
                    &pool,
                    "layer-b",
                    Duration::from_secs(5),
                )
                .expect("pooled connect");
                assert!(warm, "the token parked before the call is redeemed");
                black_box(qp);
            },
        );
        let accepted = acceptor.join().expect("acceptor thread");
        assert_eq!(accepted, connects, "every connect was accepted");
    });

    let socket_a = DatagramSocket::bind(&end_a, "layer-dgram-a");
    let socket_b = DatagramSocket::bind(&end_b, "layer-dgram-b");
    t.per_call("rdma-fabric.datagram_rtt_ns", SLOW.0, SLOW.1, || {
        socket_a.send_to("layer-dgram-b", &small).expect("send");
        black_box(socket_b.try_recv());
        socket_b.send_to("layer-dgram-a", &small).expect("reply");
        black_box(socket_a.try_recv());
    });

    // SRQ: post a buffer, let one message consume it, return the credit.
    let qe = QueuePair::new(&end_a);
    let qf = QueuePair::new(&end_b);
    QueuePair::connect_pair(&qe, &qf).expect("srq pair connects");
    let srq = SharedReceiveQueue::new(&end_b, 64);
    qf.attach_srq(&srq, 16);
    t.per_call("rdma-fabric.srq_post_pop_ns", SLOW.0, SLOW.1, || {
        srq.post(recv_into(&scratch)).expect("srq post");
        qe.post_write_inline(6, &small, &remote_small, Some(2), false)
            .expect("srq write");
        black_box(qf.recv_cq().poll_one());
        srq.release(qf.qp_num());
    });
    t.per_call("rdma-fabric.pool_lease_release_ns", FAST.0, FAST.1, || {
        pool.release("layer-b", SimTime::ZERO);
        black_box(pool.lease("layer-b"));
    });

    let profile = fabric.profile();
    t.out.set(
        "rdma-fabric.sim_write_pingpong_64b_us",
        profile.write_pingpong_rtt(64).as_micros_f64(),
    );
    t.out.set(
        "rdma-fabric.sim_write_pingpong_1mib_us",
        profile.write_pingpong_rtt(MIB).as_micros_f64(),
    );
}

fn rfaas_layer(t: &mut Timings) {
    let payload = vec![9u8; MIB];
    let mut buffer = vec![0u8; MIB];
    t.per_call("rfaas.codec_encode_1mib_ns", SLOW.0, SLOW.1, || {
        black_box(black_box(&payload[..]).encode_into(&mut buffer)).ok();
    });
    t.per_call("rfaas.codec_decode_view_ns", TINY.0, TINY.1, || {
        black_box(<[f64] as Codec>::decode_view(black_box(&payload))).ok();
    });
    let header = InvocationHeader {
        result_rkey: 0xfeed,
        result_offset: 4096,
        result_capacity: MIB as u64,
    };
    t.per_call("rfaas.header_codec_ns", TINY.0, TINY.1, || {
        black_box(InvocationHeader::decode(&black_box(&header).encode())).ok();
        black_box(ImmValue::parse_request(ImmValue::request(black_box(77), 3)));
        black_box(ImmValue::parse_response(ImmValue::response(
            black_box(77),
            ResultStatus::Success,
        )));
    });
    let frame = ControlFrame::Allocate {
        reply_to: "alloc://client/7".into(),
        request: LeaseRequest::single_worker(PACKAGE),
    };
    t.per_call("rfaas.control_frame_codec_ns", FAST.0, FAST.1, || {
        black_box(ControlFrame::decode(&black_box(&frame).encode())).ok();
    });

    let config = RFaasConfig::paper_calibration();
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(package());
    let manager = ResourceManager::new(&fabric, config.clone());
    let executor = SpotExecutor::new(
        &fabric,
        "layer-exec",
        NodeResources::xeon_gold_6154_dual(),
        registry,
        config.clone(),
    );
    manager.register_executor(&executor);
    let request = LeaseRequest::single_worker(PACKAGE);
    let clock = VirtualClock::new();
    t.per_call("rfaas.request_release_lease_ns", SLOW.0, SLOW.1, || {
        let (lease, _) = manager.request_lease(&request, &clock).expect("room");
        manager.release_lease(lease.id).expect("just granted");
    });

    // An idle turn over one connected worker with nothing in flight.
    let reactor = Reactor::new();
    let session = Session::builder(&fabric, "layer-client", &manager, PACKAGE)
        .config(config)
        .polling(PollingMode::Warm)
        .reactor(&reactor)
        .connect()
        .expect("one warm worker");
    t.per_call("rfaas.reactor_turn_idle_ns", FAST.0, FAST.1, || {
        black_box(reactor.turn());
    });
    session.close().expect("close");
}

/// Run every isolated timing, at `scale` of the stated sample counts.
pub fn run(scale: f64) -> MetricSet {
    let started = Instant::now();
    let mut t = Timings {
        out: MetricSet::default(),
        scale,
    };
    sim_core_layer(&mut t);
    cluster_sim_layer(&mut t);
    sandbox_layer(&mut t);
    state_plane_layer(&mut t);
    rdma_fabric_layer(&mut t);
    rfaas_layer(&mut t);
    eprintln!(
        "simbench: isolated layer timings took {:.1} s",
        started.elapsed().as_secs_f64()
    );
    t.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_reports_the_median_batch_time_per_call() {
        let mut t = Timings {
            out: MetricSet::default(),
            scale: 1.0,
        };
        let mut calls = 0u64;
        t.per_call("x_ns", 10, 20, || calls += 1);
        assert_eq!(calls, 10 * (20 + 2), "two warm-up batches, twenty timed");
        assert!(t.out.get("x_ns").unwrap() >= 0.0);

        let mut state = (0u64, 0u64);
        t.prepared("y_ns", 4, 10, &mut state, |s| s.0 += 1, |s| s.1 += 1);
        assert_eq!(state, (11, 44));
    }
}

//! The wire level of the rFaaS client: registered buffers, worker
//! connections and the invocations posted on them.
//!
//! [`crate::Session`] — Listing 2's invoker and allocator in one type — is
//! built from these pieces. It connects one worker connection per leased
//! worker, writes each invocation's header and payload straight into the
//! worker's registered memory from a client-side buffer (Sec. IV-B, Fig. 7),
//! and finds the result in the output buffer the executor wrote remotely.
//! The counters it reports ([`ColdStartBreakdown`], [`ConnectionPlaneStats`],
//! [`BatchStats`]) are defined here too.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rdma_fabric::{
    connect_pooled_with, AccessFlags, ConnectionPool, Endpoint, MemoryRegion, OwnedRegion,
    ProtectionDomain, QueuePair, ReceiveRing, RecvRequest, RemoteMemoryHandle, Sge,
};
use sim_core::sync::{ranks, OrderedMutex};
use sim_core::SimDuration;

use crate::codec::Codec;
use crate::config::RFaasConfig;
use crate::error::{RFaasError, Result};
use crate::executor::WorkerEndpointInfo;
use crate::protocol::{ImmValue, InvocationHeader, ResultStatus, INVOCATION_HEADER_BYTES};
use crate::reactor::CompletionSource;

/// A registered, page-aligned client buffer.
///
/// Input buffers reserve space for the invocation header in front of the
/// payload, exactly like the paper's allocator ("automatically expanded with
/// the function's header"); output buffers are registered with remote-write
/// access so the executor can deposit results without client involvement.
/// Clones share one registration, which is released with the last of them.
#[derive(Debug, Clone)]
pub(crate) struct Buffer {
    registration: Arc<OwnedRegion>,
    header_space: usize,
}

impl Buffer {
    /// An input buffer in `pd` for payloads of up to `capacity` bytes; the
    /// header slot is added in front automatically.
    pub(crate) fn input(pd: &ProtectionDomain, capacity: usize) -> Buffer {
        Buffer {
            registration: Arc::new(
                pd.register_owned(INVOCATION_HEADER_BYTES + capacity, AccessFlags::LOCAL_ONLY),
            ),
            header_space: INVOCATION_HEADER_BYTES,
        }
    }

    /// An output buffer in `pd` of `capacity` bytes the executor may write
    /// into remotely.
    pub(crate) fn output(pd: &ProtectionDomain, capacity: usize) -> Buffer {
        Buffer {
            registration: Arc::new(pd.register_owned(capacity, AccessFlags::REMOTE_WRITE)),
            header_space: 0,
        }
    }

    /// Bytes of payload the buffer can hold.
    pub(crate) fn capacity(&self) -> usize {
        self.region().len() - self.header_space
    }

    /// The underlying registered region (header space included).
    pub(crate) fn region(&self) -> &MemoryRegion {
        &self.registration
    }

    /// Offset of the payload within the region.
    pub(crate) fn payload_offset(&self) -> usize {
        self.header_space
    }

    /// Encode `value` into the payload area through its [`Codec`], returning
    /// the payload length.
    pub(crate) fn write_encoded<C: Codec + ?Sized>(&self, value: &C) -> Result<usize> {
        let len = value.encoded_len();
        // Guards the slice below, not just the encode: encode_into checks
        // against the slice it receives, which must exist first.
        crate::codec::check_capacity(len, self.capacity())?;
        self.region()
            .with_bytes_mut(self.header_space, len, |bytes| value.encode_into(bytes))?
    }

    /// Decode `len` payload bytes through codec `C`, straight from the
    /// registered region: the decoded value is the only copy made. A `len`
    /// beyond the payload capacity is rejected, never clamped into a short
    /// read the caller would take for the whole result.
    pub(crate) fn read_decoded<C: Codec + ?Sized>(&self, len: usize) -> Result<C::Owned> {
        crate::codec::check_capacity(len, self.capacity())?;
        self.region()
            .with_bytes(self.header_space, len, C::decode)?
    }

    /// Remote handle covering the payload area (what the executor writes to).
    pub(crate) fn remote_handle(&self) -> RemoteMemoryHandle {
        self.region()
            .remote_handle_range(self.header_space, self.capacity())
            .expect("payload range within region")
    }
}

/// Breakdown of a cold start as observed by the client (Fig. 9's stacked
/// bars: connect to manager, submit allocation, spawn worker, submit code,
/// plus the direct worker connections).
#[derive(Debug, Clone, Default)]
pub struct ColdStartBreakdown {
    /// Establishing the connection to the resource manager.
    pub connect_to_manager: SimDuration,
    /// Submitting the allocation request and the manager's placement work.
    pub submit_allocation: SimDuration,
    /// Sandbox creation and worker-thread spawn on the executor node.
    pub spawn_workers: SimDuration,
    /// Transferring and loading the code package.
    pub submit_code: SimDuration,
    /// Establishing the direct RDMA connections to every worker.
    pub connect_to_workers: SimDuration,
}

impl ColdStartBreakdown {
    /// Total cold-start latency.
    pub fn total(&self) -> SimDuration {
        self.connect_to_manager
            + self.submit_allocation
            + self.spawn_workers
            + self.submit_code
            + self.connect_to_workers
    }
}

/// Connection-plane counters of one session: how many worker connections
/// were physically established, how the warmth pool performed, and how deep
/// the executor side reached into its shared receive queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionPlaneStats {
    /// Worker RC connections established over the session's lifetime.
    pub connections_opened: u64,
    /// Connects that redeemed a pool warmth token (warm re-establishment).
    pub pool_hits: u64,
    /// Connects that paid the full first-contact handshake.
    pub pool_misses: u64,
    /// Highest concurrent buffer use of the active executor process's shared
    /// receive queue (0 when nothing is allocated).
    pub srq_depth_high_watermark: usize,
}

/// Doorbell accounting of one batched submission
/// ([`crate::FunctionHandle::map_workers`]): all WQEs of the batch are built
/// back-to-back and ride one doorbell, so only the first pays the full issue
/// cost and the rest are billed at the chained-WQE rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Invocations submitted in the batch.
    pub submissions: usize,
    /// Doorbells rung (one per batch on the happy path).
    pub doorbells: usize,
    /// WQEs that joined an already-open chain instead of ringing their own
    /// doorbell.
    pub chained_wqes: usize,
    /// Client-side virtual time spent posting the whole batch.
    pub post_time: SimDuration,
}

/// The client end of one leased worker: its queue pair, where its input
/// buffer lives, and the results picked up for it.
pub(crate) struct WorkerConnection {
    pub(crate) qp: QueuePair,
    pub(crate) remote_input: RemoteMemoryHandle,
    /// Pre-posted result-notification slots, re-posted automatically as
    /// results are picked up: submissions within the ring depth never pay a
    /// `post_recv` on the critical path.
    pub(crate) ring: ReceiveRing,
    /// Scratch for overflow receives posted when more invocations are in
    /// flight than the ring holds slots.
    pub(crate) overflow_scratch: OwnedRegion,
    pub(crate) outstanding: AtomicUsize,
    completed: OrderedMutex<HashMap<u32, (usize, ResultStatus)>>,
    /// Token under which this connection is registered with the session's
    /// reactor (set right after registration, before any submission).
    pub(crate) reactor_token: AtomicU64,
    pub(crate) index: usize,
}

impl WorkerConnection {
    /// Connect to `worker` through `pool` (keyed by the executor node), and
    /// learn where the worker's input buffer lives from its hello. The
    /// connection is not yet registered with any reactor.
    pub(crate) fn connect(
        endpoint: &Endpoint,
        worker: &WorkerEndpointInfo,
        pool: &ConnectionPool,
        pool_key: &str,
        config: &RFaasConfig,
        index: usize,
    ) -> Result<WorkerConnection> {
        // Worker addresses are fresh per lease, but the executor *node*
        // stays warm across lease churn: a pooled token keyed by the node
        // buys the cheap re-establishment tier. The receive for the
        // worker's "hello" (it advertises the input buffer) is posted
        // while the queue pair is still unconnected, so the worker can
        // send it the moment it accepts.
        let hello = endpoint
            .pd
            .register_owned(INVOCATION_HEADER_BYTES, AccessFlags::LOCAL_ONLY);
        let (qp, _warm) = connect_pooled_with(
            endpoint,
            &worker.address,
            pool,
            pool_key,
            config.connect_timeout,
            |qp| {
                qp.post_recv(RecvRequest {
                    wr_id: u64::MAX,
                    local: Sge::whole(&hello),
                })
            },
        )?;
        let wc = qp
            .recv_cq()
            .blocking_wait_timeout(config.connect_timeout)
            .ok_or_else(|| RFaasError::ExecutorLost(worker.address.clone()))?;
        if !wc.is_success() {
            return Err(RFaasError::ExecutorLost(worker.address.clone()));
        }
        let mut advertised = [0u8; INVOCATION_HEADER_BYTES];
        hello.read_into(0, &mut advertised)?;
        drop(hello);
        let advertised = InvocationHeader::decode(&advertised)?;
        let remote_input = RemoteMemoryHandle {
            rkey: advertised.result_rkey,
            offset: advertised.result_offset as usize,
            len: advertised.result_capacity as usize,
        };
        // Clamp to the device limit: a shallower result ring only means
        // overflow receives kick in earlier, not a failed connection.
        let ring_depth = config
            .recv_queue_depth
            .clamp(1, endpoint.fabric.profile().max_recv_queue_depth);
        let ring = ReceiveRing::new(&qp, ring_depth, 8)?;
        let overflow_scratch = endpoint.pd.register_owned(8, AccessFlags::LOCAL_ONLY);
        Ok(WorkerConnection {
            qp,
            remote_input,
            ring,
            overflow_scratch,
            outstanding: AtomicUsize::new(0),
            completed: OrderedMutex::new(ranks::CLIENT_COMPLETED, HashMap::new()),
            reactor_token: AtomicU64::new(0),
            index,
        })
    }

    /// Whether a result for `invocation_id` is already stashed.
    pub(crate) fn has_result(&self, invocation_id: u32) -> bool {
        self.completed.lock().contains_key(&invocation_id)
    }

    /// Remove a stashed result, returning the in-flight reservation with it.
    pub(crate) fn take_result(&self, invocation_id: u32) -> Option<(usize, ResultStatus)> {
        let result = self.completed.lock().remove(&invocation_id)?;
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        Some(result)
    }

    pub(crate) fn token(&self) -> u64 {
        self.reactor_token.load(Ordering::Relaxed)
    }
}

impl CompletionSource for WorkerConnection {
    /// Drain the receive ring into the result stash, reporting each newly
    /// stashed invocation id. `ring.poll_one` charges the busy-poll pickup on
    /// the client clock per completion — the reactor sweep costs exactly what
    /// the old per-connection rescan did.
    fn pump(&self, sink: &mut dyn FnMut(u32)) {
        while let Some(completion) = self.ring.poll_one() {
            let wc = completion.wc;
            let (id, status) = ImmValue::parse_response(wc.imm.unwrap_or(0));
            self.completed.lock().insert(id, (wc.byte_len, status));
            sink(id);
        }
    }

    fn is_connected(&self) -> bool {
        self.qp.is_connected()
    }
}

/// Everything one invocation needs to be posted (and transparently
/// replayed): target worker, function name, payload location and length, and
/// the result buffer.
pub(crate) struct InvocationSpec {
    pub(crate) worker: Option<usize>,
    pub(crate) function: String,
    pub(crate) input: Buffer,
    pub(crate) payload_len: usize,
    pub(crate) output: Buffer,
}

/// Where one posted invocation's result will land: the connection it went
/// out on, its id, and the allocation epoch that connection belongs to
/// (recovery uses it to detect that another future already replaced a dead
/// allocation).
pub(crate) struct Posted {
    pub(crate) connection: Arc<WorkerConnection>,
    pub(crate) invocation_id: u32,
    pub(crate) epoch: u64,
}

/// Whether an error means the executor connection is gone (as opposed to a
/// protocol or application failure), making transparent re-allocation the
/// right response.
pub(crate) fn connection_is_lost(error: &RFaasError) -> bool {
    match error {
        RFaasError::ExecutorLost(_) => true,
        RFaasError::Fabric(e) => matches!(
            e,
            rdma_fabric::FabricError::ConnectionLost
                | rdma_fabric::FabricError::NotConnected
                | rdma_fabric::FabricError::InvalidQpState { .. }
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SpotExecutor;
    use crate::manager::ResourceManager;
    use crate::session::Session;
    use crate::PollingMode;
    use cluster_sim::NodeResources;
    use rdma_fabric::{DeviceFunction, Fabric};
    use sandbox::{echo_function, failing_function, CodePackage, FunctionRegistry};
    use sim_core::SimTime;

    /// One 36-core executor serving `pkg` (echo + an always-failing
    /// function).
    fn deploy() -> (Arc<Fabric>, Arc<ResourceManager>) {
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(
            CodePackage::minimal("pkg")
                .with_function(echo_function())
                .with_function(failing_function("intentional")),
        );
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let executor = SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 36,
                memory_mib: 128 * 1024,
            },
            registry,
            RFaasConfig::default(),
        );
        manager.register_executor(&executor);
        (fabric, manager)
    }

    fn platform(workers: u32) -> (Arc<Fabric>, Arc<ResourceManager>, Session) {
        let (fabric, manager) = deploy();
        let session = Session::builder(&fabric, "client-0", &manager, "pkg")
            .workers(workers)
            .connect()
            .unwrap();
        (fabric, manager, session)
    }

    /// A session whose only executor died: every re-allocation is granted
    /// on it (the manager has not noticed yet) and fails to spawn, so the
    /// failed recovery leaves the session without an allocation.
    fn stranded() -> (Arc<ResourceManager>, Session) {
        let (_fabric, manager, session) = platform(1);
        manager.executor("exec-0").unwrap().fail();
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let err = echo.invoke(&[1u8][..]).unwrap_err();
        assert!(connection_is_lost(&err), "{err:?}");
        assert!(session.lease().is_none());
        assert_eq!(manager.lease_count(), 0, "every granted lease released");
        (manager, session)
    }

    /// Submit `len` bytes of `input` to `function` at the wire level
    /// (caller-owned buffers, explicit length) and wait for the result.
    fn invoke_spec<O: Codec + ?Sized>(
        session: &Session,
        function: &str,
        input: &Buffer,
        len: usize,
        output: &Buffer,
    ) -> Result<O::Owned> {
        session
            .submit_spec::<O>(InvocationSpec {
                worker: None,
                function: function.to_string(),
                input: input.clone(),
                payload_len: len,
                output: output.clone(),
            })?
            .wait()
    }

    #[test]
    fn buffers_round_trip_payloads() {
        let pd = ProtectionDomain::new();
        let input = Buffer::input(&pd, 64);
        assert_eq!(input.capacity(), 64);
        assert_eq!(input.payload_offset(), INVOCATION_HEADER_BYTES);
        assert_eq!(input.write_encoded(&[1u8, 2, 3][..]).unwrap(), 3);
        assert_eq!(input.read_decoded::<[u8]>(3).unwrap(), vec![1, 2, 3]);
        assert!(input.write_encoded(&[0u8; 65][..]).is_err());

        let output = Buffer::output(&pd, 32);
        assert_eq!(output.payload_offset(), 0);
        let values = [1.5f64, -2.25, 3.0];
        assert_eq!(output.write_encoded(&values[..]).unwrap(), 24);
        assert_eq!(output.read_decoded::<[f64]>(24).unwrap(), values);
    }

    #[test]
    fn read_payload_rejects_len_past_the_buffer_extent() {
        // Regression (PR 3): reads used to clamp an oversized `len` silently,
        // handing back a short read the caller would misinterpret as the
        // complete result.
        let pd = ProtectionDomain::new();
        let buf = Buffer::output(&pd, 32);
        buf.write_encoded(&[1u8; 32][..]).unwrap();
        assert_eq!(buf.read_decoded::<[u8]>(32).unwrap().len(), 32);
        assert!(matches!(
            buf.read_decoded::<[u8]>(33),
            Err(RFaasError::PayloadTooLarge {
                payload: 33,
                capacity: 32
            })
        ));
        assert!(matches!(
            buf.read_decoded::<[f64]>(40),
            Err(RFaasError::PayloadTooLarge { .. })
        ));
        // Input buffers bound against the payload capacity, not the region
        // (which is header_space bytes larger).
        let input = Buffer::input(&pd, 16);
        assert!(input.read_decoded::<[u8]>(16).is_ok());
        assert!(input.read_decoded::<[u8]>(17).is_err());
    }

    #[test]
    fn small_invocations_ride_the_inline_path_without_staging_the_header() {
        let (_fabric, _manager, session) = platform(1);
        let (input, output) = session.buffer_pair(4096, 4096);
        input.write_encoded(&[3u8; 8][..]).unwrap();
        let reply = invoke_spec::<[u8]>(&session, "echo", &input, 8, &output).unwrap();
        assert_eq!(reply, [3u8; 8]);
        // Zero-copy check: the inline path never wrote the 24-byte header
        // into the client's input region — it travelled inside the WQE.
        assert_eq!(
            input.region().read(0, INVOCATION_HEADER_BYTES).unwrap(),
            vec![0u8; INVOCATION_HEADER_BYTES]
        );
        // A payload past the inline capacity takes the buffered path and
        // stages the header.
        input.write_encoded(&[5u8; 2048][..]).unwrap();
        let reply = invoke_spec::<[u8]>(&session, "echo", &input, 2048, &output).unwrap();
        assert_eq!(reply.len(), 2048);
        assert_ne!(
            input.region().read(0, INVOCATION_HEADER_BYTES).unwrap(),
            vec![0u8; INVOCATION_HEADER_BYTES]
        );
    }

    // The demotion behaviour itself (mode switch, capped billing, warm
    // latency, one-shot) is pinned end-to-end in tests/invocation_spectrum.rs;
    // here only the negative case stays, close to the billing arithmetic.
    #[test]
    fn sub_timeout_gaps_do_not_demote() {
        let (_fabric, manager, session) = platform(1);
        let timeout = RFaasConfig::default().hot_poll_timeout;
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        echo.invoke(&[1u8; 8][..]).unwrap();
        for _ in 0..3 {
            session.clock().advance(timeout / 2);
            echo.invoke(&[1u8; 8][..]).unwrap();
        }
        let executor = manager.executor("exec-0").unwrap();
        let process = executor.allocator().processes().pop().unwrap();
        let process = process.lock();
        assert_eq!(process.workers()[0].mode(), PollingMode::Hot);
        let stats = process.stats();
        assert_eq!(stats.demotions, 0);
        // Every sub-budget spin is billed in full.
        assert!(stats.hot_poll_time >= (timeout / 2).saturating_mul(3));
    }

    #[test]
    fn allocate_invoke_deallocate_round_trip() {
        let (_fabric, manager, session) = platform(1);
        assert_eq!(session.stats().workers, 1);
        assert!(session.lease().is_some());
        let cold = session.cold_start().unwrap();
        assert!(cold.total().as_millis_f64() > 10.0);

        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let payload: Vec<u8> = (0..100u8).collect();
        let (reply, rtt) = echo.invoke_timed(&payload).unwrap();
        assert_eq!(reply, payload);
        assert!(
            rtt.as_micros_f64() > 1.0 && rtt.as_micros_f64() < 100.0,
            "rtt {rtt}"
        );

        let executor = manager.executor("exec-0").unwrap();
        session.close().unwrap();
        assert_eq!(executor.allocator().process_count(), 0);
        assert_eq!(manager.lease_count(), 0);
    }

    #[test]
    fn registrations_return_to_baseline_after_every_lease() {
        // Each lease registers a hello slot, a result-ring slab and an
        // overflow scratch word per worker in the session-wide domain; all
        // of it must be gone once a re-allocation tears the lease down.
        let (fabric, manager) = deploy();
        let session = Session::builder(&fabric, "client-0", &manager, "pkg")
            .workers(2)
            .polling(PollingMode::Warm)
            .lease_timeout(SimDuration::from_secs(10))
            .connect()
            .unwrap();
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        echo.invoke(&[0u8; 100][..]).unwrap();
        let baseline = session.registered_regions();
        for cycle in 1..=32u8 {
            // Outlive the lease: the invocation is refused and replayed on a
            // fresh lease, executor process and pair of connections.
            session.clock().advance(SimDuration::from_secs(60));
            assert_eq!(echo.invoke(&[cycle; 100][..]).unwrap(), vec![cycle; 100]);
            assert_eq!(session.registered_regions(), baseline, "cycle {cycle}");
        }
        assert_eq!(session.recoveries(), 32);
        assert_eq!(manager.lease_count(), 1);
        session.close().unwrap();
        assert_eq!(manager.lease_count(), 0);
    }

    #[test]
    fn reaping_still_connected_warm_processes_does_not_wait_out_a_park() {
        // A warm worker with its client still connected leaves the
        // dispatcher parked; stopping it must wake it, not wait for the
        // park bound (20 × 50 ms when nothing signals).
        let (fabric, manager) = deploy();
        let sessions: Vec<Session> = (0..20)
            .map(|i| {
                Session::builder(&fabric, &format!("client-{i}"), &manager, "pkg")
                    .polling(PollingMode::Warm)
                    .connect()
                    .unwrap()
            })
            .collect();
        let executor = manager.executor("exec-0").unwrap();
        assert_eq!(executor.allocator().process_count(), 20);
        // Let every dispatcher finish its hello turn and park.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let started = std::time::Instant::now();
        let reaped = executor
            .allocator()
            .reap_expired(SimTime::from_secs(1_000_000));
        let elapsed = started.elapsed();
        assert_eq!(reaped, 20);
        assert!(
            elapsed < std::time::Duration::from_millis(200),
            "20 sequential reaps took {elapsed:?}"
        );
        drop(sessions);
    }

    #[test]
    fn hot_invocation_latency_matches_paper_range() {
        let (_fabric, _manager, session) = platform(1);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        // Warm up the executor, then measure.
        echo.invoke(&[7u8; 8][..]).unwrap();
        let mut samples: Vec<f64> = (0..50)
            .map(|_| echo.invoke_timed(&[7u8; 8][..]).unwrap().1.as_micros_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        // Paper: ~3.96 us hot latency for small payloads.
        assert!((3.0..6.0).contains(&median), "hot median {median} us");
    }

    #[test]
    fn failed_allocation_releases_the_manager_lease() {
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(CodePackage::minimal("pkg").with_function(echo_function()));
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let executor = SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 8,
                memory_mib: 32 * 1024,
            },
            registry,
            RFaasConfig::default(),
        );
        manager.register_executor(&executor);
        let connect = |package: &str| {
            Session::builder(&fabric, "client", &manager, package)
                .workers(2)
                .connect()
        };

        // The manager grants the lease (it does not validate packages), then
        // the allocator rejects the unknown package. Regression: the granted
        // lease and its reserved resources must be released, not leaked.
        let err = connect("missing-pkg").unwrap_err();
        assert!(matches!(err, RFaasError::UnknownPackage(_)));
        assert_eq!(manager.lease_count(), 0);
        assert_eq!(manager.available_resources().cores, 8);

        // Same contract when the executor-side worker spawn fails.
        executor.allocator().inject_spawn_failure(0);
        let err = connect("pkg").unwrap_err();
        assert!(matches!(err, RFaasError::Internal(_)));
        assert_eq!(manager.lease_count(), 0);
        assert_eq!(manager.available_resources().cores, 8);
        assert_eq!(executor.allocator().available().cores, 8);
    }

    #[test]
    fn extend_lease_requires_an_allocation() {
        let (_manager, session) = stranded();
        assert!(matches!(
            session.extend_lease(SimDuration::from_secs(60)),
            Err(RFaasError::NotAllocated)
        ));
    }

    #[test]
    fn extend_lease_pushes_expiry_and_updates_executor_deadline() {
        let (_fabric, manager, session) = platform(1);
        let before = session.lease().unwrap();
        let new_expiry = session.extend_lease(SimDuration::from_secs(3600)).unwrap();
        assert!(new_expiry > before.expires_at);
        let after = session.lease().unwrap();
        assert_eq!(after.expires_at, new_expiry);
        assert_eq!(manager.lease(after.id).unwrap().expires_at, new_expiry);
        // The executor-side process deadline moved with the lease.
        let executor = manager.executor(&after.executor_node).unwrap();
        assert_eq!(executor.allocator().reap_expired(before.expires_at), 0);
    }

    #[test]
    fn failing_function_propagates_error() {
        let (_fabric, _manager, session) = platform(1);
        let fails = session.function::<[u8], [u8]>("always-fails").unwrap();
        let err = fails.invoke(&[1u8][..]).unwrap_err();
        assert!(matches!(err, RFaasError::Function(_)));
    }

    #[test]
    fn unknown_function_is_rejected_client_side() {
        // Handles check names at creation; a spec naming a function the
        // package lacks is still caught before anything is posted.
        let (_fabric, _manager, session) = platform(1);
        let (input, output) = session.buffer_pair(16, 16);
        let err = invoke_spec::<[u8]>(&session, "nope", &input, 0, &output).unwrap_err();
        assert!(matches!(err, RFaasError::UnknownFunction(_)));
    }

    #[test]
    fn submit_without_allocation_fails() {
        let (_manager, session) = stranded();
        let (input, output) = session.buffer_pair(16, 16);
        assert!(matches!(
            invoke_spec::<[u8]>(&session, "echo", &input, 0, &output),
            Err(RFaasError::NotAllocated)
        ));
    }

    #[test]
    fn oversized_payload_is_rejected_before_transmission() {
        let (_fabric, _manager, session) = platform(1);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let huge = vec![0u8; RFaasConfig::default().max_payload_bytes + 1024];
        let err = echo.submit(&huge[..]).unwrap_err();
        assert!(matches!(err, RFaasError::PayloadTooLarge { .. }));
    }

    #[test]
    fn parallel_invocations_on_multiple_workers() {
        let (_fabric, _manager, session) = platform(4);
        assert_eq!(session.stats().workers, 4);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 256]).collect();
        let futures: Vec<_> = payloads
            .iter()
            .map(|payload| echo.submit(payload).unwrap())
            .collect();
        for (payload, future) in payloads.iter().zip(futures) {
            assert_eq!(&future.wait().unwrap(), payload);
        }
    }

    #[test]
    fn results_land_directly_in_output_buffer() {
        let (_fabric, _manager, session) = platform(1);
        let (input, output) = session.buffer_pair(4096, 4096);
        let data: Vec<f64> = (0..256).map(|i| i as f64 * 0.5).collect();
        let len = input.write_encoded(&data[..]).unwrap();
        let reply = invoke_spec::<[f64]>(&session, "echo", &input, len, &output).unwrap();
        assert_eq!(reply, data);
        // The executor wrote the result remotely into the caller's buffer.
        assert_eq!(output.read_decoded::<[f64]>(len).unwrap(), data);
    }

    #[test]
    fn worker_connect_surfaces_a_typed_timeout() {
        // Regression: the connect deadline was a hardcoded ten seconds; a
        // worker that never accepts must now fail within the configured
        // timeout with a typed error, not hang or panic.
        let fabric = Fabric::with_defaults();
        let config = RFaasConfig {
            connect_timeout: std::time::Duration::from_millis(50),
            ..Default::default()
        };
        let endpoint = Endpoint {
            fabric: Arc::clone(&fabric),
            node: fabric.add_node("client-0"),
            clock: sim_core::VirtualClock::shared(),
            pd: ProtectionDomain::new(),
            function: DeviceFunction::Physical,
        };
        // A listener nobody ever accepts on: the client's connect request
        // sits in the accept queue until the client gives up.
        let _silent = rdma_fabric::Listener::bind(&fabric, "rfaas://dead-node/1/1");
        let worker = WorkerEndpointInfo {
            address: "rfaas://dead-node/1/1".to_string(),
            max_payload: 4096,
        };
        let started = std::time::Instant::now();
        let pool = ConnectionPool::new();
        let err =
            match WorkerConnection::connect(&endpoint, &worker, &pool, "dead-node", &config, 0) {
                Ok(_) => panic!("connect to a silent worker unexpectedly succeeded"),
                Err(err) => err,
            };
        assert!(
            matches!(
                err,
                RFaasError::Fabric(rdma_fabric::FabricError::Timeout {
                    operation: "connect"
                })
            ),
            "expected typed connect timeout, got {err:?}"
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }
}

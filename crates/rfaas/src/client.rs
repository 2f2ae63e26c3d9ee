//! The rFaaS client library: invoker, RDMA buffers and invocation futures.
//!
//! This is the Rust equivalent of the paper's C++ programming model
//! (Sec. IV-B, Fig. 7, Listing 2): an [`Invoker`] acquires leases, connects
//! directly to the executor workers, and submits function invocations by
//! writing the header and payload straight into the workers' registered
//! memory. Results are represented by [`InvocationFuture`]s and land directly
//! in client-side [`Buffer`]s written remotely by the executor.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rdma_fabric::{
    connect_pooled_with, AccessFlags, ConnectionPool, DatagramSocket, Endpoint, Fabric,
    MemoryRegion, OwnedRegion, ProtectionDomain, QueuePair, ReceiveRing, RecvRequest,
    RemoteMemoryHandle, SendRequest, Sge,
};
use sandbox::CodePackage;
use sim_core::sync::{ranks, OrderedMutex};
use sim_core::{SimDuration, SimTime, VirtualClock};
use state_plane::{StateClient, StateClientStats, StateError, StatePlane, StateSpec};

use crate::codec::Codec;
use crate::config::{PollingMode, RFaasConfig};
use crate::error::{RFaasError, Result};
use crate::executor::{AllocationPolicy, ForkFaultState, SpotExecutor};
use crate::manager::ResourceManager;
use crate::protocol::{
    ControlFrame, ImmValue, InvocationHeader, Lease, LeaseRequest, ResultStatus,
    INVOCATION_HEADER_BYTES,
};
use crate::reactor::{CompletionSource, Reactor};

/// A registered, page-aligned client buffer.
///
/// Input buffers reserve space for the invocation header in front of the
/// payload, exactly like the paper's allocator ("automatically expanded with
/// the function's header"); output buffers are registered with remote-write
/// access so the executor can deposit results without client involvement.
/// Clones share one registration, which is released with the last of them.
#[derive(Debug, Clone)]
pub struct Buffer {
    registration: Arc<OwnedRegion>,
    header_space: usize,
}

impl Buffer {
    /// Bytes of payload the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.region().len() - self.header_space
    }

    /// The underlying registered region (header space included).
    pub fn region(&self) -> &MemoryRegion {
        &self.registration
    }

    /// Offset of the payload within the region.
    pub fn payload_offset(&self) -> usize {
        self.header_space
    }

    /// Copy `data` into the payload area. Returns the payload length.
    pub fn write_payload(&self, data: &[u8]) -> Result<usize> {
        if data.len() > self.capacity() {
            return Err(RFaasError::PayloadTooLarge {
                payload: data.len(),
                capacity: self.capacity(),
            });
        }
        self.region()
            .write(self.header_space, data)
            .map_err(RFaasError::from)?;
        Ok(data.len())
    }

    /// Copy `len` payload bytes out of the buffer. A `len` beyond the
    /// buffer's payload capacity is rejected — silently clamping used to hand
    /// callers a short read they would misinterpret as the full result.
    pub fn read_payload(&self, len: usize) -> Result<Vec<u8>> {
        if len > self.capacity() {
            return Err(RFaasError::PayloadTooLarge {
                payload: len,
                capacity: self.capacity(),
            });
        }
        self.region()
            .read(self.header_space, len)
            .map_err(RFaasError::from)
    }

    /// Fill the payload with an `f64` slice (the element type of every HPC
    /// workload in the paper's evaluation).
    pub fn write_f64(&self, values: &[f64]) -> Result<usize> {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_payload(&bytes)
    }

    /// Interpret `len_bytes` of payload as an `f64` slice.
    pub fn read_f64(&self, len_bytes: usize) -> Result<Vec<f64>> {
        let bytes = self.read_payload(len_bytes)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Encode `value` into the payload area through its [`Codec`], returning
    /// the payload length (the typed equivalent of [`Buffer::write_payload`]).
    pub fn write_encoded<C: Codec + ?Sized>(&self, value: &C) -> Result<usize> {
        let len = value.encoded_len();
        // Guards the slice below, not just the encode: encode_into checks
        // against the slice it receives, which must exist first.
        crate::codec::check_capacity(len, self.capacity())?;
        self.region()
            .with_bytes_mut(self.header_space, len, |bytes| value.encode_into(bytes))?
    }

    /// Decode `len` payload bytes through codec `C` (the typed equivalent of
    /// [`Buffer::read_payload`]), straight from the registered region: the
    /// decoded value is the only copy made.
    pub fn read_decoded<C: Codec + ?Sized>(&self, len: usize) -> Result<C::Owned> {
        crate::codec::check_capacity(len, self.capacity())?;
        self.region()
            .with_bytes(self.header_space, len, C::decode)?
    }

    /// Remote handle covering the payload area (what the executor writes to).
    pub fn remote_handle(&self) -> RemoteMemoryHandle {
        self.region()
            .remote_handle_range(self.header_space, self.capacity())
            .expect("payload range within region")
    }
}

/// Allocates RDMA-registered buffers from the invoker's protection domain
/// (the `rfaas::allocator` of Listing 2).
#[derive(Debug, Clone)]
pub struct BufferAllocator {
    pd: ProtectionDomain,
}

impl BufferAllocator {
    /// Allocate an input buffer for payloads of up to `capacity` bytes; the
    /// header slot is added in front automatically.
    pub fn input(&self, capacity: usize) -> Buffer {
        Buffer {
            registration: Arc::new(
                self.pd
                    .register_owned(INVOCATION_HEADER_BYTES + capacity, AccessFlags::LOCAL_ONLY),
            ),
            header_space: INVOCATION_HEADER_BYTES,
        }
    }

    /// Allocate an output buffer of `capacity` bytes the executor may write
    /// into remotely.
    pub fn output(&self, capacity: usize) -> Buffer {
        Buffer {
            registration: Arc::new(self.pd.register_owned(capacity, AccessFlags::REMOTE_WRITE)),
            header_space: 0,
        }
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

/// Connection-plane counters of one invoker/session: how many worker
/// connections were physically established, how the warmth pool performed,
/// and how deep the executor side reached into its shared receive queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionPlaneStats {
    /// Worker RC connections established over the invoker's lifetime.
    pub connections_opened: u64,
    /// Connects that redeemed a pool warmth token (warm re-establishment).
    pub pool_hits: u64,
    /// Connects that paid the full first-contact handshake.
    pub pool_misses: u64,
    /// Highest concurrent buffer use of the active executor process's shared
    /// receive queue (0 when nothing is allocated).
    pub srq_depth_high_watermark: usize,
}

struct WorkerConnection {
    qp: QueuePair,
    remote_input: RemoteMemoryHandle,
    /// Pre-posted result-notification slots, re-posted automatically as
    /// results are picked up: submissions within the ring depth never pay a
    /// `post_recv` on the critical path.
    ring: ReceiveRing,
    /// Scratch for overflow receives posted when more invocations are in
    /// flight than the ring holds slots.
    overflow_scratch: OwnedRegion,
    outstanding: AtomicUsize,
    completed: OrderedMutex<HashMap<u32, (usize, ResultStatus)>>,
    /// Token under which this connection is registered with the invoker's
    /// [`Reactor`] (set right after registration, before any submission).
    reactor_token: AtomicU64,
    index: usize,
}

impl WorkerConnection {
    /// Whether a result for `invocation_id` is already stashed.
    fn has_result(&self, invocation_id: u32) -> bool {
        self.completed.lock().contains_key(&invocation_id)
    }

    /// Remove a stashed result, returning the in-flight reservation with it.
    fn take_result(&self, invocation_id: u32) -> Option<(usize, ResultStatus)> {
        let result = self.completed.lock().remove(&invocation_id)?;
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        Some(result)
    }

    fn token(&self) -> u64 {
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

/// Everything the invoker holds while a lease is active. Kept behind one lock
/// so the recovery path can atomically swap the whole allocation (lease,
/// executor, connections) from `&self` while invocation futures are waiting.
struct ActiveAllocation {
    /// Monotonic counter distinguishing successive allocations: a future
    /// observing its allocation die only triggers a re-allocation if the
    /// active epoch still matches what it used — otherwise another future
    /// already recovered and it just resubmits on the fresh connections.
    epoch: u64,
    lease: Lease,
    executor: Arc<SpotExecutor>,
    process_id: u64,
    package: CodePackage,
    connections: Vec<Arc<WorkerConnection>>,
}

/// The client-side invoker: manages leases, executor connections and
/// invocation submission (the `rfaas::invoker` of Listing 2).
pub struct Invoker {
    fabric: Arc<Fabric>,
    clock: Arc<VirtualClock>,
    reactor: Reactor,
    pd: ProtectionDomain,
    node_name: String,
    config: RFaasConfig,
    manager: Arc<ResourceManager>,
    /// Warmth pool worker connects draw from; shared across sessions via
    /// [`Invoker::set_connection_pool`] so lease churn back to the same
    /// executor reuses the warm re-establishment tier.
    pool: ConnectionPool,
    /// Datagram socket for first contact with the resource manager, bound
    /// lazily on the first allocation and reused for every re-allocation.
    control: OrderedMutex<Option<DatagramSocket>>,
    connections_opened: AtomicU64,
    active: OrderedMutex<Option<ActiveAllocation>>,
    // The request that produced the current lease, replayed by the
    // transparent recovery path (Sec. III-B: clients re-allocate when an
    // executor disappears or a lease expires).
    last_request: OrderedMutex<Option<(LeaseRequest, PollingMode)>>,
    // Serialises recovery: two futures discovering the same dead allocation
    // must produce one re-allocation, not two (the loser would overwrite —
    // and leak — the winner's allocation).
    recovery_lock: OrderedMutex<()>,
    allocation_epoch: AtomicU64,
    next_invocation: AtomicU32,
    round_robin: AtomicUsize,
    cold_start: OrderedMutex<Option<ColdStartBreakdown>>,
    recoveries: AtomicU32,
    recovery_budget: u32,
    /// How the allocator provisions the executor sandbox: full cold spawn,
    /// remote fork from a parked parent, or warm-pool resume.
    policy: AllocationPolicy,
    /// The state plane this invoker's allocations attach to, if any. Set
    /// before `allocate`; every fresh allocation re-attaches the executor
    /// process to it (recovery included).
    state_plane: Option<StatePlane>,
    /// The session-side caching state client, attached lazily on the first
    /// allocation and kept across re-allocations (the cache region and its
    /// datagram endpoint belong to the client node, not to any lease).
    session_state: OrderedMutex<Option<StateClient>>,
}

/// Everything one invocation needs to be posted (and transparently
/// replayed): target worker, function name, payload location and length, and
/// the result buffer. Bundling these kills the long argument tuples the raw
/// API used to thread through every submission and recovery path.
#[derive(Clone)]
pub(crate) struct InvocationSpec {
    pub(crate) worker: Option<usize>,
    pub(crate) function: String,
    pub(crate) input: Buffer,
    pub(crate) payload_len: usize,
    pub(crate) output: Buffer,
}

/// State of one transparent-recovery attempt: the allocation epoch observed
/// failing, the remaining re-allocation budget, and the original failure to
/// surface once the budget is spent.
struct RecoveryPlan {
    observed_epoch: u64,
    budget: u32,
    cause: RFaasError,
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

impl std::fmt::Debug for Invoker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Invoker")
            .field("node", &self.node_name)
            .field("workers", &self.worker_count())
            .finish()
    }
}

impl Invoker {
    /// Create an invoker for a client application running on `client_node`.
    pub fn new(
        fabric: &Arc<Fabric>,
        client_node: &str,
        manager: &Arc<ResourceManager>,
        config: RFaasConfig,
    ) -> Invoker {
        Invoker {
            fabric: Arc::clone(fabric),
            clock: VirtualClock::shared(),
            reactor: Reactor::new(),
            pd: ProtectionDomain::new(),
            node_name: client_node.to_string(),
            config,
            manager: Arc::clone(manager),
            pool: ConnectionPool::new(),
            control: OrderedMutex::new(ranks::CLIENT_CONTROL, None),
            connections_opened: AtomicU64::new(0),
            active: OrderedMutex::new(ranks::CLIENT_ACTIVE, None),
            last_request: OrderedMutex::new(ranks::CLIENT_LAST_REQUEST, None),
            recovery_lock: OrderedMutex::new(ranks::CLIENT_RECOVERY, ()),
            allocation_epoch: AtomicU64::new(0),
            next_invocation: AtomicU32::new(1),
            round_robin: AtomicUsize::new(0),
            cold_start: OrderedMutex::new(ranks::CLIENT_COLD_START, None),
            recoveries: AtomicU32::new(0),
            recovery_budget: Invoker::DEFAULT_RECOVERY_BUDGET,
            policy: AllocationPolicy::default(),
            state_plane: None,
            session_state: OrderedMutex::new(ranks::CLIENT_SESSION_STATE, None),
        }
    }

    /// Default maximum lease re-allocations one invocation will attempt
    /// before surfacing the failure (guards against a platform that keeps
    /// handing out instantly-dying leases).
    pub const DEFAULT_RECOVERY_BUDGET: u32 = 3;

    /// Override the per-invocation transparent-recovery budget (see
    /// [`Invoker::DEFAULT_RECOVERY_BUDGET`]).
    pub fn set_recovery_budget(&mut self, budget: u32) {
        self.recovery_budget = budget;
    }

    /// The per-invocation transparent-recovery budget.
    pub fn recovery_budget(&self) -> u32 {
        self.recovery_budget
    }

    /// Choose how allocations provision their executor sandbox (cold spawn,
    /// remote fork, or warm-pool resume). Applies to the next `allocate` and
    /// to transparent re-allocations; fork and warm-pool degrade to a cold
    /// spawn when the chosen executor holds no suitable warm parent.
    pub fn set_allocation_policy(&mut self, policy: AllocationPolicy) {
        self.policy = policy;
    }

    /// The provisioning policy the next allocation will use.
    pub fn allocation_policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// Fault state of the active allocation's forked sandbox: `None` when
    /// nothing is allocated or the sandbox was not provisioned by fork.
    pub fn fork_state(&self) -> Option<Arc<ForkFaultState>> {
        self.active
            .lock()
            .as_ref()
            .and_then(|a| a.executor.allocator().fork_state(a.process_id))
    }

    /// Attach a [`StatePlane`] to this invoker: the session gains a caching
    /// state client on its first allocation, and every executor process the
    /// invoker allocates (transparent re-allocations included) is bound to
    /// the same plane so stateful functions can materialise declared keys.
    /// Must be called before `allocate`.
    pub fn set_state_plane(&mut self, plane: &StatePlane) {
        self.state_plane = Some(plane.clone());
    }

    /// Whether a state plane is attached.
    pub fn has_state_plane(&self) -> bool {
        self.state_plane.is_some()
    }

    /// Whether `key` currently exists in the attached state plane (false
    /// when no plane is attached).
    pub fn state_contains(&self, key: &str) -> bool {
        self.state_plane.as_ref().is_some_and(|p| p.contains(key))
    }

    /// Run `f` over the session's state client, surfacing the missing-plane
    /// case as a typed error.
    fn with_session_state<R>(&self, f: impl FnOnce(&mut StateClient) -> Result<R>) -> Result<R> {
        let mut guard = self.session_state.lock();
        match guard.as_mut() {
            Some(client) => f(client),
            None => Err(RFaasError::StatePlane(StateError::Protocol(
                "no state plane is attached to this session".into(),
            ))),
        }
    }

    /// Store `value` under `key` in the attached state plane (push-model
    /// RDMA write through the session's cache).
    pub fn state_put(&self, key: &str, value: &[u8]) -> Result<()> {
        self.with_session_state(|c| c.put(key, value).map_err(RFaasError::StatePlane))
    }

    /// Read `key` through the session's state cache into an owned vector.
    pub fn state_get(&self, key: &str) -> Result<Vec<u8>> {
        self.with_session_state(|c| c.get(key).map_err(RFaasError::StatePlane))
    }

    /// Read `key` and hand the cached bytes to `f` *in place* — the
    /// zero-copy path over the pre-registered cache region (pair with
    /// [`crate::Codec::decode_view`] for a typed window).
    pub fn state_get_with<R>(&self, key: &str, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.with_session_state(|c| c.get_with(key, f).map_err(RFaasError::StatePlane))
    }

    /// Delete `key` from the attached state plane; returns whether it
    /// existed.
    pub fn state_delete(&self, key: &str) -> Result<bool> {
        self.with_session_state(|c| c.delete(key).map_err(RFaasError::StatePlane))
    }

    /// Counters of the session-side state client (`None` before the first
    /// allocation or without a plane).
    pub fn state_stats(&self) -> Option<StateClientStats> {
        self.session_state.lock().as_ref().map(|c| c.stats())
    }

    /// Counters of the active executor process's state client.
    pub fn executor_state_stats(&self) -> Option<StateClientStats> {
        self.active
            .lock()
            .as_ref()
            .and_then(|a| a.executor.allocator().state_client_stats(a.process_id))
    }

    /// Register the declared key set of `function` with the active executor
    /// process (the executor side of [`crate::FunctionHandle::with_state`]).
    pub fn bind_state_spec(&self, function: &str, spec: StateSpec) -> Result<()> {
        let active = self.active.lock();
        let active = active.as_ref().ok_or(RFaasError::NotAllocated)?;
        active
            .executor
            .allocator()
            .bind_state_spec(active.process_id, function, spec)
    }

    /// Share a completion reactor with other invokers (one event loop driving
    /// many sessions from one thread). Must be called before `allocate` —
    /// connections register with whatever reactor is installed at connect
    /// time.
    pub fn set_reactor(&mut self, reactor: Reactor) {
        self.reactor = reactor;
    }

    /// The invoker's completion reactor: every worker connection is
    /// registered with it and one [`Reactor::turn`] pumps them all.
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
    }

    /// Share a virtual clock with other invokers (sessions driven by one
    /// client thread advance one clock). Must be called before `allocate` —
    /// worker endpoints capture the clock at connect time.
    pub fn set_clock(&mut self, clock: Arc<VirtualClock>) {
        self.clock = clock;
    }

    /// Share a connection-warmth pool with other invokers. Must be called
    /// before `allocate` — re-allocations consult whatever pool is installed.
    pub fn set_connection_pool(&mut self, pool: ConnectionPool) {
        self.pool = pool;
    }

    /// The invoker's connection-warmth pool.
    pub fn connection_pool(&self) -> &ConnectionPool {
        &self.pool
    }

    /// Connection-plane counters: physical connects, pool hit/miss, and the
    /// active executor process's shared-receive-queue high watermark.
    pub fn connection_stats(&self) -> ConnectionPlaneStats {
        let pool = self.pool.stats();
        let srq_depth_high_watermark = self.active.lock().as_ref().map_or(0, |a| {
            a.executor.allocator().srq_high_watermark(a.process_id)
        });
        ConnectionPlaneStats {
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            srq_depth_high_watermark,
        }
    }

    /// Drive the reactor until `invocation_id`'s result lands on
    /// `connection`, then take it. Every wait path funnels through here: the
    /// turn pumps *all* registered connections, so one waiting thread keeps
    /// every other in-flight invocation moving too.
    fn await_result(
        &self,
        connection: &Arc<WorkerConnection>,
        invocation_id: u32,
    ) -> Result<(usize, ResultStatus)> {
        loop {
            if let Some(result) = connection.take_result(invocation_id) {
                return Ok(result);
            }
            let progressed = self.reactor.turn();
            if progressed == 0 {
                // Re-check after the empty sweep: a concurrent turner may
                // have stashed our result between the take above and now.
                if let Some(result) = connection.take_result(invocation_id) {
                    return Ok(result);
                }
                // The final (empty) drain has run, so a dead connection can
                // never produce this result any more.
                if !connection.qp.is_connected() {
                    return Err(RFaasError::ExecutorLost(format!(
                        "worker {}",
                        connection.index
                    )));
                }
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
    }

    /// Whether `function` exists in the currently allocated code package.
    pub fn has_function(&self, function: &str) -> bool {
        self.active
            .lock()
            .as_ref()
            .is_some_and(|a| a.package.function_by_name(function).is_some())
    }

    /// Names of every function in the currently allocated code package (the
    /// session-level function registry; empty when nothing is allocated).
    pub fn function_names(&self) -> Vec<String> {
        self.active.lock().as_ref().map_or_else(Vec::new, |a| {
            a.package
                .functions()
                .iter()
                .map(|f| f.name().to_string())
                .collect()
        })
    }

    /// The client's virtual clock (latency measurements are deltas of this).
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Live registrations in the invoker's protection domain.
    #[cfg(test)]
    pub(crate) fn registered_regions(&self) -> usize {
        self.pd.region_count()
    }

    /// Buffer allocator bound to the invoker's protection domain.
    pub fn allocator(&self) -> BufferAllocator {
        BufferAllocator {
            pd: self.pd.clone(),
        }
    }

    /// Number of connected executor workers.
    pub fn worker_count(&self) -> usize {
        self.active
            .lock()
            .as_ref()
            .map_or(0, |a| a.connections.len())
    }

    /// Cold-start breakdown of the last allocation, if any.
    pub fn cold_start(&self) -> Option<ColdStartBreakdown> {
        self.cold_start.lock().clone()
    }

    /// The active lease, if any.
    pub fn lease(&self) -> Option<Lease> {
        self.active.lock().as_ref().map(|a| a.lease.clone())
    }

    /// How many times the invoker transparently re-allocated after a lease
    /// expired or an executor was lost (the recovery analogue of
    /// [`InvocationFuture::redirections`]).
    pub fn recoveries(&self) -> u32 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Acquire a lease and spin up executor workers (the cold invocation path
    /// of Fig. 5/6). `mode` selects hot busy-polling or warm blocking waits
    /// on the executor side.
    pub fn allocate(
        &mut self,
        request: LeaseRequest,
        mode: PollingMode,
    ) -> Result<ColdStartBreakdown> {
        *self.last_request.lock() = Some((request.clone(), mode));
        self.allocate_internal(&request, mode)
    }

    fn allocate_internal(
        &self,
        request: &LeaseRequest,
        mode: PollingMode,
    ) -> Result<ColdStartBreakdown> {
        if self.active.lock().is_some() {
            self.deallocate_internal();
        }
        let mut breakdown = ColdStartBreakdown::default();

        // Step 1: first contact with the resource manager rides the datagram
        // transport — a UD-style endpoint an order of magnitude cheaper to
        // set up than an RC connection. Bound once, reused by re-allocations.
        let t0 = self.clock.now();
        self.ensure_control_socket();
        breakdown.connect_to_manager = self.clock.now().saturating_since(t0);

        // Step 2: submit the allocation request as a control frame, wait for
        // the verdict datagram.
        let t1 = self.clock.now();
        self.clock.advance(self.config.allocation_submit_cost);
        let (lease, executor) = self.allocate_via_control(request)?;
        breakdown.submit_allocation = self.clock.now().saturating_since(t1);

        // Step 3 + 4: the allocator spawns the sandboxed executor process and
        // loads the code package; the client waits for the whole thing. From
        // here on every error path must release the lease just granted, or
        // the manager's reservation leaks until the lease expires.
        let t2 = self.clock.now();
        let allocation = match executor.allocator().allocate_with_policy(
            &lease,
            request.cores as usize,
            mode,
            self.policy,
        ) {
            Ok(allocation) => allocation,
            Err(e) => {
                let _ = self.manager.release_lease(lease.id);
                return Err(e);
            }
        };
        self.clock.advance(allocation.breakdown.spawn.total());
        breakdown.spawn_workers = self.clock.now().saturating_since(t2);
        let t3 = self.clock.now();
        self.clock.advance(allocation.breakdown.code_submission);
        breakdown.submit_code = self.clock.now().saturating_since(t3);

        // Step 5: establish a direct RDMA connection to every worker thread
        // and learn where its input buffer lives.
        let t4 = self.clock.now();
        let connections = match self.connect_workers(&allocation.workers, &lease.executor_node) {
            Ok(connections) => connections,
            Err(e) => {
                let _ = executor.allocator().deallocate(allocation.process_id);
                let _ = self.manager.release_lease(lease.id);
                return Err(e);
            }
        };
        breakdown.connect_to_workers = self.clock.now().saturating_since(t4);

        // Step 6 (stateful sessions only): bind the fresh executor process
        // to the state plane, and attach the session-side cache on the first
        // allocation. Re-allocations repeat the executor attach — the new
        // process starts with a cold state cache, the session cache survives.
        if let Some(plane) = &self.state_plane {
            let mut session_state = self.session_state.lock();
            if session_state.is_none() {
                *session_state = Some(plane.attach(
                    &self.node_name,
                    &self.fabric.add_node(&self.node_name),
                    &self.clock,
                    self.config.state_cache_bytes,
                ));
            }
            let exec_client = plane.attach(
                &format!("{}-exec", lease.executor_node),
                executor.node(),
                executor.allocator().clock(),
                self.config.state_cache_bytes,
            );
            executor
                .allocator()
                .attach_state_client(allocation.process_id, exec_client)?;
        }

        let fresh = ActiveAllocation {
            epoch: self.allocation_epoch.fetch_add(1, Ordering::Relaxed) + 1,
            lease,
            executor,
            process_id: allocation.process_id,
            package: allocation.package.clone(),
            connections,
        };
        // Defensive: if another allocation raced in since the teardown above,
        // swap it out and release it instead of silently leaking its lease.
        if let Some(displaced) = self.active.lock().replace(fresh) {
            self.teardown(displaced);
        }
        *self.cold_start.lock() = Some(breakdown.clone());
        Ok(breakdown)
    }

    /// Epoch of the current allocation (0 when none is active).
    fn current_epoch(&self) -> u64 {
        self.active.lock().as_ref().map_or(0, |a| a.epoch)
    }

    /// Bind the control datagram socket on first use. The bind charges the
    /// cheap `datagram_setup` tier once; later allocations reuse the socket
    /// for free — exactly the first-contact amortisation the paper's leases
    /// give the data plane.
    fn ensure_control_socket(&self) {
        let mut control = self.control.lock();
        if control.is_none() {
            static NEXT_CONTROL_ID: AtomicU64 = AtomicU64::new(1);
            let endpoint = Endpoint {
                fabric: Arc::clone(&self.fabric),
                node: self.fabric.add_node(&self.node_name),
                clock: Arc::clone(&self.clock),
                pd: self.pd.clone(),
                function: rdma_fabric::DeviceFunction::Physical,
            };
            let address = format!(
                "rfaas-clt://{}/{}",
                self.node_name,
                NEXT_CONTROL_ID.fetch_add(1, Ordering::Relaxed)
            );
            *control = Some(DatagramSocket::bind(&endpoint, &address));
        }
    }

    /// One allocation round trip over the datagram control plane: send the
    /// `Allocate` frame, drive the manager's poller (the manager is not a
    /// thread in this simulation), and decode the verdict.
    fn allocate_via_control(&self, request: &LeaseRequest) -> Result<(Lease, Arc<SpotExecutor>)> {
        let control = self.control.lock();
        let socket = control.as_ref().expect("control socket bound");
        let frame = ControlFrame::Allocate {
            reply_to: socket.address().to_string(),
            request: request.clone(),
        };
        socket.send_to(self.manager.control_address(), &frame.encode())?;
        self.manager.poll_control();
        let reply = socket.recv_timeout(self.config.connect_timeout)?;
        match ControlFrame::decode(&reply.payload)? {
            ControlFrame::Granted { lease } => {
                let executor = self
                    .manager
                    .executor(&lease.executor_node)
                    .ok_or_else(|| RFaasError::ExecutorLost(lease.executor_node.clone()))?;
                Ok((lease, executor))
            }
            ControlFrame::Denied { .. } => Err(RFaasError::InsufficientResources {
                requested_cores: request.cores,
                requested_memory_mib: request.memory_mib,
            }),
            ControlFrame::Allocate { .. } => Err(RFaasError::Internal(
                "unexpected allocate frame on the client control socket".into(),
            )),
        }
    }

    fn connect_workers(
        &self,
        workers: &[crate::executor::WorkerEndpointInfo],
        pool_key: &str,
    ) -> Result<Vec<Arc<WorkerConnection>>> {
        let client_node = self.fabric.add_node(&self.node_name);
        let mut connections = Vec::with_capacity(workers.len());
        for (index, worker) in workers.iter().enumerate() {
            let endpoint = Endpoint {
                fabric: Arc::clone(&self.fabric),
                node: Arc::clone(&client_node),
                clock: Arc::clone(&self.clock),
                pd: self.pd.clone(),
                function: rdma_fabric::DeviceFunction::Physical,
            };
            // Worker addresses are fresh per lease, but the executor *node*
            // stays warm across lease churn: a pooled token keyed by the node
            // buys the cheap re-establishment tier. The receive for the
            // worker's "hello" (it advertises the input buffer) is posted
            // while the queue pair is still unconnected, so the worker can
            // send it the moment it accepts.
            let hello = self
                .pd
                .register_owned(INVOCATION_HEADER_BYTES, AccessFlags::LOCAL_ONLY);
            let (qp, _warm) = connect_pooled_with(
                &endpoint,
                &worker.address,
                &self.pool,
                pool_key,
                self.config.connect_timeout,
                |qp| {
                    qp.post_recv(RecvRequest {
                        wr_id: u64::MAX,
                        local: Sge::whole(&hello),
                    })
                },
            )?;
            self.connections_opened.fetch_add(1, Ordering::Relaxed);
            let wc = qp
                .recv_cq()
                .blocking_wait_timeout(self.config.connect_timeout)
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
            let ring_depth = self
                .config
                .recv_queue_depth
                .clamp(1, self.fabric.profile().max_recv_queue_depth);
            let ring = ReceiveRing::new(&qp, ring_depth, 8)?;
            let overflow_scratch = self.pd.register_owned(8, AccessFlags::LOCAL_ONLY);
            let connection = Arc::new(WorkerConnection {
                qp,
                remote_input,
                ring,
                overflow_scratch,
                outstanding: AtomicUsize::new(0),
                completed: OrderedMutex::new(ranks::CLIENT_COMPLETED, HashMap::new()),
                reactor_token: AtomicU64::new(0),
                index,
            });
            // Register with the reactor before the connection can carry an
            // invocation: every result on this ring is picked up by the
            // shared event loop.
            let token = self
                .reactor
                .register_source(Arc::clone(&connection) as Arc<dyn CompletionSource>);
            connection.reactor_token.store(token, Ordering::Relaxed);
            connections.push(connection);
        }
        Ok(connections)
    }

    /// Renew the active lease: a manager round trip pushing the expiry to
    /// `now + extension` (charged at the lease-renewal processing cost), then
    /// the executor-side deadline update, so long-running clients keep their
    /// hot workers. Returns the new expiry instant.
    pub fn extend_lease(&self, extension: SimDuration) -> Result<SimTime> {
        let (lease_id, executor) = {
            let active = self.active.lock();
            let active = active.as_ref().ok_or(RFaasError::NotAllocated)?;
            (active.lease.id, Arc::clone(&active.executor))
        };
        // Submitting the renewal request costs the same as submitting an
        // allocation; the manager then charges its processing cost.
        self.clock.advance(self.config.allocation_submit_cost);
        let renewed = self.manager.renew_lease(lease_id, extension, &self.clock)?;
        if executor
            .allocator()
            .extend_lease(lease_id, renewed.expires_at)
            == 0
        {
            // The executor process is already gone (idle-reaped or expired
            // under us): the manager-side renewal succeeded but there is no
            // worker left to keep hot. Surface it so the caller re-allocates
            // instead of invoking into a dead connection.
            return Err(RFaasError::ExecutorLost(renewed.executor_node));
        }
        if let Some(active) = self.active.lock().as_mut() {
            if active.lease.id == lease_id {
                active.lease = renewed.clone();
            }
        }
        Ok(renewed.expires_at)
    }

    /// Tear down the current allocation and replay the last lease request:
    /// fresh lease, fresh executor process, fresh connections. Called by the
    /// transparent recovery path after `LeaseExpired` / `ExecutorLost`.
    ///
    /// `observed_epoch` is the epoch of the allocation the caller saw fail.
    /// If the active allocation has already moved past it (another future
    /// recovered first), this is a no-op — the caller just resubmits on the
    /// fresh connections instead of destroying them.
    fn recover(&self, observed_epoch: u64) -> Result<()> {
        let _serialised = self.recovery_lock.lock();
        if self
            .active
            .lock()
            .as_ref()
            .is_some_and(|a| a.epoch != observed_epoch)
        {
            return Ok(());
        }
        let (request, mode) = self
            .last_request
            .lock()
            .clone()
            .ok_or(RFaasError::NotAllocated)?;
        self.deallocate_internal();
        self.allocate_internal(&request, mode)?;
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Submit an invocation of `function` with `payload_len` bytes from
    /// `input`; the result will be written into `output`.
    pub fn submit(
        &self,
        function: &str,
        input: &Buffer,
        payload_len: usize,
        output: &Buffer,
    ) -> Result<InvocationFuture<'_>> {
        self.submit_spec(InvocationSpec {
            worker: None,
            function: function.to_string(),
            input: input.clone(),
            payload_len,
            output: output.clone(),
        })
    }

    /// Submit to a specific worker (used for explicit work partitioning and
    /// by the redirection path).
    pub fn submit_to_worker(
        &self,
        worker: usize,
        function: &str,
        input: &Buffer,
        payload_len: usize,
        output: &Buffer,
    ) -> Result<InvocationFuture<'_>> {
        self.submit_spec(InvocationSpec {
            worker: Some(worker),
            function: function.to_string(),
            input: input.clone(),
            payload_len,
            output: output.clone(),
        })
    }

    pub(crate) fn submit_spec(&self, spec: InvocationSpec) -> Result<InvocationFuture<'_>> {
        let observed_epoch = self.current_epoch();
        match self.try_submit_spec(&spec) {
            // A dead connection at submission time (the executor node was
            // reclaimed under us) is recovered exactly like a mid-wait loss:
            // re-allocate and submit on the fresh connections, with the same
            // retry budget.
            Err(e) if connection_is_lost(&e) && self.last_request.lock().is_some() => {
                let plan = RecoveryPlan {
                    observed_epoch,
                    budget: self.recovery_budget,
                    cause: e,
                };
                let (mut future, used) = self.recover_and_resubmit(&spec, plan)?;
                future.recoveries = used;
                Ok(future)
            }
            result => result,
        }
    }

    /// Submit a whole batch of invocations behind one doorbell: every WQE of
    /// the batch is built back-to-back and posted on the chained path
    /// ([`rdma_fabric::QueuePair::post_send_batch`] semantics, spanning the
    /// per-worker queue pairs of one NIC), so only the first submission pays
    /// the full issue cost. A connection lost mid-batch triggers one
    /// transparent recovery of the whole batch, bounded by the invoker's
    /// recovery budget.
    pub(crate) fn submit_specs(
        &self,
        specs: &[InvocationSpec],
    ) -> Result<(Vec<InvocationFuture<'_>>, BatchStats)> {
        if specs.is_empty() {
            return Ok((Vec::new(), BatchStats::default()));
        }
        // Captured BEFORE the attempt: if the attempt fails because the
        // allocation died, recover() must only tear down that allocation —
        // a fresh one another future raced in is detected as a newer epoch
        // and reused, never destroyed.
        let mut observed_epoch = self.current_epoch();
        match self.try_submit_specs(specs) {
            Err(cause) if connection_is_lost(&cause) && self.last_request.lock().is_some() => {
                // Mirror of recover_and_resubmit, replaying the whole batch:
                // a failed recovery consumes budget and is retried against
                // whatever epoch is live now; once the budget is spent the
                // original cause surfaces. Posts from a failed attempt died
                // with the torn-down connections.
                let mut used = 0u32;
                loop {
                    used += 1;
                    if used > self.recovery_budget {
                        return Err(cause);
                    }
                    if self.recover(observed_epoch).is_err() {
                        continue;
                    }
                    observed_epoch = self.current_epoch();
                    match self.try_submit_specs(specs) {
                        Ok((mut futures, stats)) => {
                            // The budget spent here is charged to every
                            // future of the batch, exactly as the
                            // single-submission path records it — a later
                            // mid-wait recovery draws on what remains.
                            for future in &mut futures {
                                future.recoveries = used;
                            }
                            return Ok((futures, stats));
                        }
                        Err(e) if connection_is_lost(&e) => continue,
                        Err(e) => return Err(e),
                    }
                }
            }
            result => result,
        }
    }

    /// Recover from an allocation observed dead at `plan.observed_epoch`,
    /// then resubmit the invocation; fresh connection losses are retried (the
    /// manager's round robin moves to a different executor each attempt)
    /// until the plan's budget is spent, after which the plan's cause
    /// surfaces. Returns the replacement future and the attempts consumed.
    fn recover_and_resubmit(
        &self,
        spec: &InvocationSpec,
        mut plan: RecoveryPlan,
    ) -> Result<(InvocationFuture<'_>, u32)> {
        let mut used = 0;
        loop {
            used += 1;
            if used > plan.budget {
                return Err(plan.cause);
            }
            if self.recover(plan.observed_epoch).is_err() {
                continue;
            }
            // Whatever allocation is live now (ours or another future's) is
            // the one the next attempt must observe failing.
            plan.observed_epoch = self.current_epoch();
            match self.try_submit_spec(spec) {
                Ok(future) => return Ok((future, used)),
                Err(e) if connection_is_lost(&e) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Resolve a spec against the active allocation: function index, target
    /// connection and allocation epoch, plus the wire-capacity checks that
    /// must precede any posting.
    fn resolve_spec(&self, spec: &InvocationSpec) -> Result<(u8, Arc<WorkerConnection>, u64)> {
        let (function_index, connection, epoch) = {
            let active = self.active.lock();
            let active = active.as_ref().ok_or(RFaasError::NotAllocated)?;
            if active.connections.is_empty() {
                return Err(RFaasError::NotAllocated);
            }
            // Resolve the function while the lock is held — cloning the code
            // package per submission would put two heap allocations on the
            // microsecond-scale hot path.
            let (function_index, _) = active
                .package
                .function_by_name(&spec.function)
                .ok_or_else(|| RFaasError::UnknownFunction(spec.function.clone()))?;
            let connection = match spec.worker {
                Some(idx) => active
                    .connections
                    .get(idx)
                    .cloned()
                    .ok_or(RFaasError::NotAllocated)?,
                None => self.pick_connection(&active.connections),
            };
            (function_index, connection, active.epoch)
        };
        if function_index > u8::MAX as usize {
            return Err(RFaasError::Internal("function index exceeds 255".into()));
        }
        if spec.payload_len > spec.input.capacity() {
            return Err(RFaasError::PayloadTooLarge {
                payload: spec.payload_len,
                capacity: spec.input.capacity(),
            });
        }
        let wire_len = INVOCATION_HEADER_BYTES + spec.payload_len;
        if wire_len > connection.remote_input.len {
            return Err(RFaasError::PayloadTooLarge {
                payload: wire_len,
                capacity: connection.remote_input.len,
            });
        }
        Ok((function_index as u8, connection, epoch))
    }

    fn try_submit_spec(&self, spec: &InvocationSpec) -> Result<InvocationFuture<'_>> {
        let (function_index, connection, epoch) = self.resolve_spec(spec)?;
        let invocation_id = self.next_invocation.fetch_add(1, Ordering::Relaxed) & 0x00FF_FFFF;

        // Reserve the in-flight slot *before* deciding whether an extra
        // receive is needed: the previous value tells this submission alone
        // whether it fits the ring, so concurrent submits cannot both read a
        // stale count and under-post receives (a lost result would hang the
        // waiter forever). Every error below must return the reservation.
        let reserved = connection.outstanding.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.post_invocation(
            &connection,
            reserved,
            invocation_id,
            function_index,
            spec,
            false,
        ) {
            connection.outstanding.fetch_sub(1, Ordering::Relaxed);
            return Err(e);
        }

        Ok(InvocationFuture {
            invoker: self,
            connection,
            invocation_id,
            spec: spec.clone(),
            redirections: 0,
            recoveries: 0,
            epoch,
        })
    }

    /// One attempt at posting a whole batch behind a shared doorbell. Every
    /// spec is resolved and capacity-checked *before* the first WQE is built;
    /// a post that still fails mid-batch (a lost connection, or a device
    /// limit such as an exhausted receive queue) reaps the already-posted
    /// invocations before the error surfaces, so no in-flight reservation or
    /// undrained completion outlives the failed attempt.
    fn try_submit_specs(
        &self,
        specs: &[InvocationSpec],
    ) -> Result<(Vec<InvocationFuture<'_>>, BatchStats)> {
        let mut resolved = Vec::with_capacity(specs.len());
        for spec in specs {
            resolved.push(self.resolve_spec(spec)?);
        }
        let started = self.clock.now();
        let mut futures: Vec<InvocationFuture<'_>> = Vec::with_capacity(specs.len());
        for (i, (spec, (function_index, connection, epoch))) in
            specs.iter().zip(resolved).enumerate()
        {
            let invocation_id = self.next_invocation.fetch_add(1, Ordering::Relaxed) & 0x00FF_FFFF;
            let reserved = connection.outstanding.fetch_add(1, Ordering::Relaxed);
            if let Err(e) = self.post_invocation(
                &connection,
                reserved,
                invocation_id,
                function_index,
                spec,
                i > 0,
            ) {
                connection.outstanding.fetch_sub(1, Ordering::Relaxed);
                // The earlier posts of this attempt already executed. Wait
                // their completions out (discarding the results) so their
                // reservations and ring slots are returned — otherwise the
                // connection's in-flight count stays inflated forever and
                // stale completions clog the stash. A connection that died
                // has nothing left to drain; await_result's error says
                // exactly that and is safe to ignore.
                for posted in &futures {
                    let _ = self.await_result(&posted.connection, posted.invocation_id);
                }
                return Err(e);
            }
            futures.push(InvocationFuture {
                invoker: self,
                connection,
                invocation_id,
                spec: spec.clone(),
                redirections: 0,
                recoveries: 0,
                epoch,
            });
        }
        let stats = BatchStats {
            submissions: specs.len(),
            doorbells: 1,
            chained_wqes: specs.len().saturating_sub(1),
            post_time: self.clock.now().saturating_since(started),
        };
        Ok((futures, stats))
    }

    /// Post one invocation onto `connection`: the overflow receive when this
    /// submission's reserved slot (`reserved`, the pre-increment in-flight
    /// count) exceeds the ring, then header + payload — inline when the wire
    /// fits the device's WQE inline capacity, buffered otherwise. A `chained`
    /// post joins the WQE chain opened by the previous post of the batch
    /// (descriptor build only, no doorbell) and always takes the buffered
    /// path, since inline WQEs cannot join a chain that spans queue pairs.
    fn post_invocation(
        &self,
        connection: &Arc<WorkerConnection>,
        reserved: usize,
        invocation_id: u32,
        function_index: u8,
        spec: &InvocationSpec,
        chained: bool,
    ) -> Result<()> {
        // Payload-vs-capacity bounds were already enforced by resolve_spec
        // (every caller resolves before posting), so the spec is trusted
        // here.
        let (input, payload_len, output) = (&spec.input, spec.payload_len, &spec.output);

        // The connection's receive ring holds one pre-posted slot per
        // in-flight result; only past the ring depth does a submission pay an
        // extra receive on the critical path.
        if reserved >= connection.ring.depth() {
            connection.qp.post_recv(RecvRequest {
                wr_id: u64::MAX,
                local: Sge::whole(&connection.overflow_scratch),
            })?;
        }

        let wire_len = INVOCATION_HEADER_BYTES + payload_len;
        // Fill the header in front of the payload: where the executor should
        // write the result.
        self.clock.advance(self.config.header_write_cost);
        let header = InvocationHeader::for_result_buffer(&output.remote_handle());
        let imm = ImmValue::request(invocation_id, function_index);
        // Stack staging area for inline wires — the hot path must not touch
        // the heap (the default inline capacity is 128 B; a profile offering
        // more simply falls back to the buffered path beyond this bound).
        const INLINE_STACK: usize = 512;
        if !chained && wire_len <= self.fabric.profile().max_inline_data && wire_len <= INLINE_STACK
        {
            // Zero-copy hot path (Sec. IV-A): header and payload ride inside
            // the WQE — no staging write into the input region, no DMA
            // fetch, no heap allocation.
            let mut wire = [0u8; INLINE_STACK];
            wire[..INVOCATION_HEADER_BYTES].copy_from_slice(&header.encode());
            input.region().read_into(
                input.payload_offset(),
                &mut wire[INVOCATION_HEADER_BYTES..wire_len],
            )?;
            connection.qp.post_write_inline(
                invocation_id as u64,
                &wire[..wire_len],
                &connection.remote_input.slice(0, wire_len),
                Some(imm),
                false,
            )?;
        } else {
            // Buffered path: stage the header in front of the payload and
            // gather both from the registered input region.
            input
                .region()
                .write(0, &header.encode())
                .map_err(RFaasError::from)?;
            connection.qp.post_send_chained(
                invocation_id as u64,
                SendRequest::WriteWithImm {
                    local: Sge::range(input.region(), 0, wire_len),
                    remote: connection.remote_input.slice(0, wire_len),
                    imm,
                },
                false,
                chained,
            )?;
        }
        Ok(())
    }

    fn pick_connection(&self, connections: &[Arc<WorkerConnection>]) -> Arc<WorkerConnection> {
        // Prefer an idle worker; otherwise round-robin over all of them.
        let start = self.round_robin.fetch_add(1, Ordering::Relaxed);
        let n = connections.len();
        for i in 0..n {
            let conn = &connections[(start + i) % n];
            if conn.outstanding.load(Ordering::Relaxed) == 0 {
                return Arc::clone(conn);
            }
        }
        Arc::clone(&connections[start % n])
    }

    /// Convenience wrapper: submit one invocation and wait for its result,
    /// returning the output length and the client-observed round-trip time.
    pub fn invoke_sync(
        &self,
        function: &str,
        input: &Buffer,
        payload_len: usize,
        output: &Buffer,
    ) -> Result<(usize, SimDuration)> {
        let start = self.clock.now();
        let future = self.submit(function, input, payload_len, output)?;
        let len = future.wait()?;
        Ok((len, self.clock.now().saturating_since(start)))
    }

    /// Release all executor resources and the lease (Listing 2's
    /// `invoker.deallocate()`).
    pub fn deallocate(&mut self) -> Result<()> {
        *self.last_request.lock() = None;
        self.deallocate_internal();
        Ok(())
    }

    fn deallocate_internal(&self) {
        if let Some(active) = self.active.lock().take() {
            self.teardown(active);
        }
    }

    fn teardown(&self, active: ActiveAllocation) {
        for conn in &active.connections {
            conn.qp.disconnect();
            self.reactor.unregister_source(conn.token());
            // The remote node's state (path records, exchanged attributes)
            // survives the teardown: park a warmth token so a re-allocation
            // landing on the same executor reconnects at the warm tier.
            self.pool
                .release(&active.lease.executor_node, self.clock.now());
        }
        // Both calls tolerate the other side being gone already: a failed
        // executor has no process left to deallocate, and the lifecycle
        // driver may have released or terminated the lease before us.
        let _ = active.executor.allocator().deallocate(active.process_id);
        let _ = self.manager.release_lease(active.lease.id);
    }
}

/// Whether an error means the executor connection is gone (as opposed to a
/// protocol or application failure), making transparent re-allocation the
/// right response.
fn connection_is_lost(error: &RFaasError) -> bool {
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

impl Drop for Invoker {
    fn drop(&mut self) {
        let _ = self.deallocate();
    }
}

/// The in-flight result of a submitted invocation (`std::future`-style,
/// Sec. IV-B). Waiting busy-polls the client-side completion queue, which is
/// what the paper's invoker does to minimise latency.
pub struct InvocationFuture<'a> {
    invoker: &'a Invoker,
    connection: Arc<WorkerConnection>,
    invocation_id: u32,
    spec: InvocationSpec,
    redirections: u32,
    recoveries: u32,
    // Allocation epoch the current connection belongs to; recovery uses it to
    // detect that another future already replaced a dead allocation.
    epoch: u64,
}

impl std::fmt::Debug for InvocationFuture<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvocationFuture")
            .field("id", &self.invocation_id)
            .field("function", &self.spec.function)
            .finish()
    }
}

impl InvocationFuture<'_> {
    /// The invocation identifier carried in the immediate value.
    pub fn id(&self) -> u32 {
        self.invocation_id
    }

    /// Number of times the invocation was redirected after a rejection.
    pub fn redirections(&self) -> u32 {
        self.redirections
    }

    /// Number of times the invocation was replayed onto a fresh lease after
    /// an expiry or executor loss.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// The invocation's input and output buffers (used by the typed session
    /// layer to return pooled buffers after the wait).
    pub(crate) fn buffers(&self) -> (Buffer, Buffer) {
        (self.spec.input.clone(), self.spec.output.clone())
    }

    /// Non-blocking completion probe: one reactor turn pumps every
    /// registered connection, then this invocation's stash is checked. A
    /// `true` result makes the next [`InvocationFuture::wait`] return without
    /// further polling (modulo transparent redirections).
    pub fn is_complete(&self) -> bool {
        self.invoker.reactor.turn();
        self.connection.has_result(self.invocation_id)
    }

    /// Whether the result is already stashed, without pumping anything.
    /// The completion-set fast path: ready-queue hits resolve through this.
    pub(crate) fn has_stashed_result(&self) -> bool {
        self.connection.has_result(self.invocation_id)
    }

    /// The `(source token, invocation id)` key under which a continuation
    /// for this future registers with the invoker's reactor.
    pub(crate) fn reactor_key(&self) -> (u64, u32) {
        (self.connection.token(), self.invocation_id)
    }

    /// Whether the future's connection is gone (its continuation can never
    /// fire; only a blocking wait — which runs recovery — resolves it).
    pub(crate) fn connection_lost(&self) -> bool {
        !self.connection.qp.is_connected()
    }

    /// Re-allocate through the manager and replay this invocation on the
    /// fresh connections, drawing on the future's remaining recovery budget
    /// (shared with the submission-time recovery path).
    fn recover_and_resubmit(&mut self, cause: RFaasError) -> Result<()> {
        let budget = self.invoker.recovery_budget.saturating_sub(self.recoveries);
        // The replay is not pinned to the dead worker index: the round robin
        // moves it to whatever the fresh allocation offers.
        let mut spec = self.spec.clone();
        spec.worker = None;
        let plan = RecoveryPlan {
            observed_epoch: self.epoch,
            budget,
            cause,
        };
        let (retry, used) = self.invoker.recover_and_resubmit(&spec, plan)?;
        self.recoveries += used;
        self.connection = Arc::clone(&retry.connection);
        self.invocation_id = retry.invocation_id;
        self.epoch = retry.epoch;
        Ok(())
    }

    /// Block (busy-polling) until the result is available; returns the number
    /// of output bytes written into the output buffer.
    ///
    /// Rejected invocations (oversubscribed warm executors) are transparently
    /// redirected to another worker, as in Fig. 6. Invocations refused
    /// because the lease expired — or stranded because the executor node
    /// disappeared — are transparently replayed onto a fresh lease obtained
    /// from the resource manager (Sec. III-B failure handling).
    pub fn wait(mut self) -> Result<usize> {
        loop {
            let (byte_len, status) = match self
                .invoker
                .await_result(&self.connection, self.invocation_id)
            {
                Ok(result) => result,
                Err(e) if connection_is_lost(&e) => {
                    self.recover_and_resubmit(e)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match status {
                ResultStatus::Success => return Ok(byte_len),
                ResultStatus::FunctionFailed => {
                    return Err(RFaasError::Function(
                        sandbox::FunctionError::ExecutionFailed(format!(
                            "function '{}' failed on the executor",
                            self.spec.function
                        )),
                    ))
                }
                ResultStatus::LeaseExpired => {
                    let lease_id = self.invoker.lease().map(|l| l.id).unwrap_or_default();
                    self.recover_and_resubmit(RFaasError::LeaseExpired(lease_id))?;
                }
                ResultStatus::Rejected => {
                    // Redirect to a different worker; give up once every
                    // worker rejected the request.
                    self.redirections += 1;
                    if self.redirections as usize > self.invoker.worker_count() {
                        return Err(RFaasError::AllWorkersBusy);
                    }
                    let next_worker = (self.connection.index + 1) % self.invoker.worker_count();
                    let mut spec = self.spec.clone();
                    spec.worker = Some(next_worker);
                    let retry = self.invoker.submit_spec(spec)?;
                    self.connection = Arc::clone(&retry.connection);
                    self.invocation_id = retry.invocation_id;
                    self.epoch = retry.epoch;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::NodeResources;
    use sandbox::{echo_function, failing_function, CodePackage, FunctionRegistry};

    fn platform(workers: u32) -> (Arc<Fabric>, Arc<ResourceManager>, Invoker) {
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
        let mut invoker = Invoker::new(&fabric, "client-0", &manager, RFaasConfig::default());
        invoker
            .allocate(
                LeaseRequest::single_worker("pkg").with_cores(workers),
                PollingMode::Hot,
            )
            .unwrap();
        (fabric, manager, invoker)
    }

    #[test]
    fn buffers_round_trip_payloads() {
        let fabric = Fabric::with_defaults();
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let invoker = Invoker::new(&fabric, "c", &manager, RFaasConfig::default());
        let alloc = invoker.allocator();
        let input = alloc.input(64);
        assert_eq!(input.capacity(), 64);
        assert_eq!(input.payload_offset(), INVOCATION_HEADER_BYTES);
        assert_eq!(input.write_payload(&[1, 2, 3]).unwrap(), 3);
        assert_eq!(input.read_payload(3).unwrap(), vec![1, 2, 3]);
        assert!(input.write_payload(&[0u8; 65]).is_err());

        let output = alloc.output(32);
        assert_eq!(output.payload_offset(), 0);
        let values = [1.5f64, -2.25, 3.0];
        output.write_f64(&values).unwrap();
        assert_eq!(output.read_f64(24).unwrap(), values);
    }

    #[test]
    fn read_payload_rejects_len_past_the_buffer_extent() {
        // Regression: read_payload/read_f64 used to clamp an oversized `len`
        // silently, handing back a short read the caller would misinterpret
        // as the complete result.
        let fabric = Fabric::with_defaults();
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let invoker = Invoker::new(&fabric, "c", &manager, RFaasConfig::default());
        let alloc = invoker.allocator();
        let buf = alloc.output(32);
        buf.write_payload(&[1u8; 32]).unwrap();
        assert_eq!(buf.read_payload(32).unwrap().len(), 32);
        assert!(matches!(
            buf.read_payload(33),
            Err(RFaasError::PayloadTooLarge {
                payload: 33,
                capacity: 32
            })
        ));
        assert!(matches!(
            buf.read_f64(40),
            Err(RFaasError::PayloadTooLarge { .. })
        ));
        // Input buffers bound against the payload capacity, not the region
        // (which is header_space bytes larger).
        let input = alloc.input(16);
        assert!(input.read_payload(16).is_ok());
        assert!(input.read_payload(17).is_err());
    }

    #[test]
    fn small_invocations_ride_the_inline_path_without_staging_the_header() {
        let (_fabric, _manager, invoker) = platform(1);
        let alloc = invoker.allocator();
        let input = alloc.input(4096);
        let output = alloc.output(4096);
        input.write_payload(&[3u8; 8]).unwrap();
        let (len, _) = invoker.invoke_sync("echo", &input, 8, &output).unwrap();
        assert_eq!(len, 8);
        // Zero-copy check: the inline path never wrote the 24-byte header
        // into the client's input region — it travelled inside the WQE.
        assert_eq!(
            input.region().read(0, INVOCATION_HEADER_BYTES).unwrap(),
            vec![0u8; INVOCATION_HEADER_BYTES]
        );
        // A payload past the inline capacity takes the buffered path and
        // stages the header.
        input.write_payload(&[5u8; 2048]).unwrap();
        let (len, _) = invoker.invoke_sync("echo", &input, 2048, &output).unwrap();
        assert_eq!(len, 2048);
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
        let (_fabric, manager, invoker) = platform(1);
        let timeout = RFaasConfig::default().hot_poll_timeout;
        let alloc = invoker.allocator();
        let input = alloc.input(64);
        let output = alloc.output(64);
        input.write_payload(&[1u8; 8]).unwrap();
        invoker.invoke_sync("echo", &input, 8, &output).unwrap();
        for _ in 0..3 {
            invoker.clock().advance(timeout / 2);
            invoker.invoke_sync("echo", &input, 8, &output).unwrap();
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
        let (_fabric, manager, mut invoker) = platform(1);
        assert_eq!(invoker.worker_count(), 1);
        assert!(invoker.lease().is_some());
        let cold = invoker.cold_start().unwrap();
        assert!(cold.total().as_millis_f64() > 10.0);

        let alloc = invoker.allocator();
        let input = alloc.input(1024);
        let output = alloc.output(1024);
        let payload: Vec<u8> = (0..100u8).collect();
        input.write_payload(&payload).unwrap();
        let (len, rtt) = invoker
            .invoke_sync("echo", &input, payload.len(), &output)
            .unwrap();
        assert_eq!(len, 100);
        assert_eq!(output.read_payload(100).unwrap(), payload);
        assert!(
            rtt.as_micros_f64() > 1.0 && rtt.as_micros_f64() < 100.0,
            "rtt {rtt}"
        );

        invoker.deallocate().unwrap();
        assert_eq!(invoker.worker_count(), 0);
        assert_eq!(manager.lease_count(), 0);
    }

    #[test]
    fn registrations_return_to_baseline_after_every_lease() {
        // Each lease registers a hello slot, a result-ring slab and an
        // overflow scratch word in the invoker-wide domain; all of it, and
        // every buffer the caller dropped, must be gone after the teardown.
        let (_fabric, manager, mut invoker) = platform(2);
        invoker.deallocate().unwrap();
        let baseline = invoker.registered_regions();
        for cycle in 0..32u8 {
            invoker
                .allocate(
                    LeaseRequest::single_worker("pkg").with_cores(2),
                    PollingMode::Warm,
                )
                .unwrap();
            assert!(invoker.registered_regions() > baseline);
            {
                let alloc = invoker.allocator();
                let (input, output) = (alloc.input(256), alloc.output(256));
                input.write_payload(&[cycle; 100]).unwrap();
                let (len, _) = invoker.invoke_sync("echo", &input, 100, &output).unwrap();
                assert_eq!(output.read_payload(len).unwrap(), vec![cycle; 100]);
            }
            invoker.deallocate().unwrap();
            assert_eq!(invoker.registered_regions(), baseline, "cycle {cycle}");
        }
        assert_eq!(manager.lease_count(), 0);
    }

    #[test]
    fn reaping_still_connected_warm_processes_does_not_wait_out_a_park() {
        // A warm worker with its client still connected leaves the
        // dispatcher parked; stopping it must wake it, not wait for the
        // park bound (20 × 50 ms when nothing signals).
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(CodePackage::minimal("pkg").with_function(echo_function()));
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
        let invokers: Vec<Invoker> = (0..20)
            .map(|i| {
                let mut invoker = Invoker::new(
                    &fabric,
                    &format!("client-{i}"),
                    &manager,
                    RFaasConfig::default(),
                );
                invoker
                    .allocate(LeaseRequest::single_worker("pkg"), PollingMode::Warm)
                    .unwrap();
                invoker
            })
            .collect();
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
        drop(invokers);
    }

    #[test]
    fn hot_invocation_latency_matches_paper_range() {
        let (_fabric, _manager, invoker) = platform(1);
        let alloc = invoker.allocator();
        let input = alloc.input(64);
        let output = alloc.output(64);
        input.write_payload(&[7u8; 8]).unwrap();
        // Warm up the executor, then measure.
        invoker.invoke_sync("echo", &input, 8, &output).unwrap();
        let mut samples = Vec::new();
        for _ in 0..50 {
            let (_, rtt) = invoker.invoke_sync("echo", &input, 8, &output).unwrap();
            samples.push(rtt.as_micros_f64());
        }
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
        let mut invoker = Invoker::new(&fabric, "client", &manager, RFaasConfig::default());

        // The manager grants the lease (it does not validate packages), then
        // the allocator rejects the unknown package. Regression: the granted
        // lease and its reserved resources must be released, not leaked.
        let err = invoker
            .allocate(
                LeaseRequest::single_worker("missing-pkg").with_cores(2),
                PollingMode::Hot,
            )
            .unwrap_err();
        assert!(matches!(err, RFaasError::UnknownPackage(_)));
        assert_eq!(manager.lease_count(), 0);
        assert_eq!(manager.available_resources().cores, 8);

        // Same contract when the executor-side worker spawn fails.
        executor.allocator().inject_spawn_failure(0);
        let err = invoker
            .allocate(
                LeaseRequest::single_worker("pkg").with_cores(2),
                PollingMode::Hot,
            )
            .unwrap_err();
        assert!(matches!(err, RFaasError::Internal(_)));
        assert_eq!(manager.lease_count(), 0);
        assert_eq!(manager.available_resources().cores, 8);
        assert_eq!(executor.allocator().available().cores, 8);
    }

    #[test]
    fn extend_lease_requires_an_allocation() {
        let fabric = Fabric::with_defaults();
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let invoker = Invoker::new(&fabric, "c", &manager, RFaasConfig::default());
        assert!(matches!(
            invoker.extend_lease(SimDuration::from_secs(60)),
            Err(RFaasError::NotAllocated)
        ));
    }

    #[test]
    fn extend_lease_pushes_expiry_and_updates_executor_deadline() {
        let (_fabric, manager, invoker) = platform(1);
        let before = invoker.lease().unwrap();
        let new_expiry = invoker.extend_lease(SimDuration::from_secs(3600)).unwrap();
        assert!(new_expiry > before.expires_at);
        let after = invoker.lease().unwrap();
        assert_eq!(after.expires_at, new_expiry);
        assert_eq!(manager.lease(after.id).unwrap().expires_at, new_expiry);
        // The executor-side process deadline moved with the lease.
        let executor = manager.executor(&after.executor_node).unwrap();
        assert_eq!(executor.allocator().reap_expired(before.expires_at), 0);
    }

    #[test]
    fn failing_function_propagates_error() {
        let (_fabric, _manager, invoker) = platform(1);
        let alloc = invoker.allocator();
        let input = alloc.input(16);
        let output = alloc.output(16);
        input.write_payload(&[1]).unwrap();
        let err = invoker
            .invoke_sync("always-fails", &input, 1, &output)
            .unwrap_err();
        assert!(matches!(err, RFaasError::Function(_)));
    }

    #[test]
    fn unknown_function_is_rejected_client_side() {
        let (_fabric, _manager, invoker) = platform(1);
        let alloc = invoker.allocator();
        let input = alloc.input(16);
        let output = alloc.output(16);
        let err = invoker.submit("nope", &input, 0, &output).unwrap_err();
        assert!(matches!(err, RFaasError::UnknownFunction(_)));
    }

    #[test]
    fn submit_without_allocation_fails() {
        let fabric = Fabric::with_defaults();
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let invoker = Invoker::new(&fabric, "c", &manager, RFaasConfig::default());
        let alloc = invoker.allocator();
        let input = alloc.input(16);
        let output = alloc.output(16);
        assert!(matches!(
            invoker.submit("echo", &input, 0, &output),
            Err(RFaasError::NotAllocated)
        ));
    }

    #[test]
    fn oversized_payload_is_rejected_before_transmission() {
        let (_fabric, _manager, invoker) = platform(1);
        let alloc = invoker.allocator();
        let huge = RFaasConfig::default().max_payload_bytes + 1024;
        let input = alloc.input(huge);
        let output = alloc.output(64);
        let err = invoker.submit("echo", &input, huge, &output).unwrap_err();
        assert!(matches!(err, RFaasError::PayloadTooLarge { .. }));
    }

    #[test]
    fn parallel_invocations_on_multiple_workers() {
        let (_fabric, _manager, invoker) = platform(4);
        assert_eq!(invoker.worker_count(), 4);
        let alloc = invoker.allocator();
        let inputs: Vec<Buffer> = (0..4).map(|_| alloc.input(1024)).collect();
        let outputs: Vec<Buffer> = (0..4).map(|_| alloc.output(1024)).collect();
        let mut futures = Vec::new();
        for (i, (input, output)) in inputs.iter().zip(outputs.iter()).enumerate() {
            let payload = vec![i as u8; 256];
            input.write_payload(&payload).unwrap();
            futures.push(invoker.submit("echo", input, 256, output).unwrap());
        }
        for (i, future) in futures.into_iter().enumerate() {
            let len = future.wait().unwrap();
            assert_eq!(len, 256);
            assert_eq!(outputs[i].read_payload(4).unwrap(), vec![i as u8; 4]);
        }
    }

    #[test]
    fn results_land_directly_in_output_buffer() {
        let (_fabric, _manager, invoker) = platform(1);
        let alloc = invoker.allocator();
        let input = alloc.input(4096);
        let output = alloc.output(4096);
        let data: Vec<f64> = (0..256).map(|i| i as f64 * 0.5).collect();
        let len = input.write_f64(&data).unwrap();
        let (out_len, _) = invoker.invoke_sync("echo", &input, len, &output).unwrap();
        assert_eq!(out_len, len);
        assert_eq!(output.read_f64(out_len).unwrap(), data);
    }

    #[test]
    fn worker_connect_surfaces_a_typed_timeout() {
        // Regression: the connect deadline was a hardcoded ten seconds; a
        // worker that never accepts must now fail within the configured
        // timeout with a typed error, not hang or panic.
        let fabric = Fabric::with_defaults();
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let config = RFaasConfig {
            connect_timeout: std::time::Duration::from_millis(50),
            ..Default::default()
        };
        let invoker = Invoker::new(&fabric, "client-0", &manager, config);
        // A listener nobody ever accepts on: the client's connect request
        // sits in the accept queue until the client gives up.
        let _silent = rdma_fabric::Listener::bind(&fabric, "rfaas://dead-node/1/1");
        let worker = crate::executor::WorkerEndpointInfo {
            address: "rfaas://dead-node/1/1".to_string(),
            max_payload: 4096,
        };
        let started = std::time::Instant::now();
        let err = match invoker.connect_workers(std::slice::from_ref(&worker), "dead-node") {
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

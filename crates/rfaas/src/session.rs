//! The rFaaS client: one [`Session`] per leased allocation, built through an
//! [`AllocationBuilder`], with typed function handles and batched completion
//! sets on top.
//!
//! This is the surface client applications program against — Listing 2 of
//! the paper, whose invoker and allocator are one type here. Building a
//! session acquires the lease, spins up the executor workers and connects
//! directly to them; the session then hands out typed [`FunctionHandle`]s
//! whose [`Codec`]s infer payload lengths and buffer sizes, so callers never
//! thread `(function, buffer, payload_len, buffer)` tuples by hand.
//! Scatter/gather work goes through [`FunctionHandle::map_workers`], which
//! posts each wave of one-invocation-per-worker behind one shared doorbell
//! (the chained-WQE path of [`rdma_fabric::QueuePair::post_send_batch`]) and
//! returns a [`CompletionSet`] with `wait_any`/`wait_all`.
//!
//! Lease recovery is built in (Sec. III-B): every submission records the
//! allocation epoch it posted against, and a submission, [`TypedFuture`] or
//! [`CompletionSet`] that finds the lease expired or the executor gone
//! re-allocates through the manager and replays, within the budget set by
//! [`AllocationBuilder::recovery_budget`]. The wire-level pieces a session is
//! made of live in [`crate::client`].

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rdma_fabric::{
    ConnectionPool, DatagramSocket, DeviceFunction, Endpoint, Fabric, ProtectionDomain,
    RecvRequest, SendRequest, Sge,
};
use sandbox::{CodePackage, SandboxType};
use sim_core::sync::{ranks, OrderedMutex};
use sim_core::{SimDuration, SimTime, VirtualClock};
use state_plane::{StateClient, StateClientStats, StateError, StateKey, StatePlane, StateSpec};

use crate::client::{
    connection_is_lost, BatchStats, Buffer, ColdStartBreakdown, ConnectionPlaneStats,
    InvocationSpec, Posted, WorkerConnection,
};
use crate::codec::Codec;
use crate::config::{PollingMode, RFaasConfig};
use crate::error::{RFaasError, Result};
use crate::executor::{
    AllocationPolicy, AllocationResult, ForkFaultState, SpotExecutor, WorkerEndpointInfo,
};
use crate::manager::ResourceManager;
use crate::protocol::{
    ControlFrame, ImmValue, InvocationHeader, Lease, LeaseRequest, ResultStatus,
    INVOCATION_HEADER_BYTES,
};
use crate::reactor::{CompletionSource, Reactor};

/// Smallest output buffer the typed layer registers when the caller gives no
/// explicit capacity: results at least as large as a small page are common
/// (echo-style functions return the input; most others return less), and a
/// floor keeps tiny inputs from allocating unusably small result buffers.
const MIN_OUTPUT_CAPACITY: usize = 4096;

/// Upper bound on buffer pairs the session's pool retains; beyond it, a
/// released pair is dropped — and, being the last holder of each buffer,
/// deregisters it — instead of cached.
const MAX_POOLED_PAIRS: usize = 64;

/// Default maximum lease re-allocations one invocation will attempt before
/// surfacing the failure (guards against a platform that keeps handing out
/// instantly-dying leases).
const DEFAULT_RECOVERY_BUDGET: u32 = 3;

/// Fluent builder for a [`Session`]: lease shape, sandbox, polling mode and
/// recovery policy in one place.
#[derive(Debug, Clone)]
pub struct AllocationBuilder {
    fabric: Arc<Fabric>,
    client_node: String,
    manager: Arc<ResourceManager>,
    config: RFaasConfig,
    package: String,
    cores: u32,
    memory_mib: u64,
    sandbox: SandboxType,
    lease_timeout: Option<SimDuration>,
    mode: PollingMode,
    policy: AllocationPolicy,
    recovery_budget: u32,
    start_at: Option<SimTime>,
    reactor: Option<Reactor>,
    shared_clock: Option<Arc<VirtualClock>>,
    connection_pool: Option<ConnectionPool>,
    connect_timeout: Option<std::time::Duration>,
    state_plane: Option<StatePlane>,
}

impl AllocationBuilder {
    /// Start building a session for `client_node` against `manager`,
    /// requesting the deployed code package `package`. Defaults: one worker,
    /// 512 MiB, bare-metal sandbox, hot polling, the manager's configuration
    /// defaults for lease timeout, and the standard recovery budget.
    pub fn new(
        fabric: &Arc<Fabric>,
        client_node: &str,
        manager: &Arc<ResourceManager>,
        package: &str,
    ) -> AllocationBuilder {
        AllocationBuilder {
            fabric: Arc::clone(fabric),
            client_node: client_node.to_string(),
            manager: Arc::clone(manager),
            config: RFaasConfig::default(),
            package: package.to_string(),
            cores: 1,
            memory_mib: 512,
            sandbox: SandboxType::BareMetal,
            lease_timeout: None,
            mode: PollingMode::Hot,
            policy: AllocationPolicy::Cold,
            recovery_budget: DEFAULT_RECOVERY_BUDGET,
            start_at: None,
            reactor: None,
            shared_clock: None,
            connection_pool: None,
            connect_timeout: None,
            state_plane: None,
        }
    }

    /// Use an explicit platform configuration (cost calibration, payload
    /// limits) instead of the default paper calibration.
    pub fn config(mut self, config: RFaasConfig) -> AllocationBuilder {
        self.config = config;
        self
    }

    /// Number of executor workers (= parallel function instances) to lease.
    pub fn workers(mut self, cores: u32) -> AllocationBuilder {
        self.cores = cores;
        self
    }

    /// Memory to lease for the executor process, in MiB.
    pub fn memory_mib(mut self, memory_mib: u64) -> AllocationBuilder {
        self.memory_mib = memory_mib;
        self
    }

    /// Sandbox technology isolating the executor.
    pub fn sandbox(mut self, sandbox: SandboxType) -> AllocationBuilder {
        self.sandbox = sandbox;
        self
    }

    /// Lease lifetime (defaults to the request default of ten minutes).
    pub fn lease_timeout(mut self, timeout: SimDuration) -> AllocationBuilder {
        self.lease_timeout = Some(timeout);
        self
    }

    /// How the leased workers wait for invocations (hot busy-polling, warm
    /// blocking, or adaptive).
    pub fn polling(mut self, mode: PollingMode) -> AllocationBuilder {
        self.mode = mode;
        self
    }

    /// How the allocator provisions the executor sandbox: a full cold spawn
    /// (the default), a remote fork from a parked warm parent's snapshot
    /// ([`AllocationPolicy::Fork`]), or a warm-pool resume
    /// ([`AllocationPolicy::WarmPool`]). Applies to transparent
    /// re-allocations too. Fork and warm-pool silently degrade to a cold
    /// spawn when no suitable parent is parked on the chosen executor.
    pub fn allocation_policy(mut self, policy: AllocationPolicy) -> AllocationBuilder {
        self.policy = policy;
        self
    }

    /// Maximum transparent lease re-allocations per invocation before the
    /// failure surfaces (default 3).
    pub fn recovery_budget(mut self, budget: u32) -> AllocationBuilder {
        self.recovery_budget = budget;
        self
    }

    /// Advance the session's virtual clock to `at` before allocating (for
    /// trace-driven clients whose requests arrive at a known instant).
    pub fn starting_at(mut self, at: SimTime) -> AllocationBuilder {
        self.start_at = Some(at);
        self
    }

    /// Drive this session's completions from a shared [`Reactor`]: sessions
    /// built against the same reactor are pumped by one event loop, so a
    /// single client thread sustains in-flight invocations across all of
    /// them at once.
    pub fn reactor(mut self, reactor: &Reactor) -> AllocationBuilder {
        self.reactor = Some(reactor.clone());
        self
    }

    /// Share a virtual clock with other sessions (they model one client
    /// thread, whose virtual time advances across all of them).
    pub fn clock(mut self, clock: &Arc<VirtualClock>) -> AllocationBuilder {
        self.shared_clock = Some(Arc::clone(clock));
        self
    }

    /// Lease worker connections through a shared [`ConnectionPool`]:
    /// sessions built against the same pool reuse connection warmth left by
    /// earlier leases to the same executor node, so re-allocation after
    /// churn pays the warm setup tier instead of the full handshake.
    pub fn connection_pool(mut self, pool: &ConnectionPool) -> AllocationBuilder {
        self.connection_pool = Some(pool.clone());
        self
    }

    /// Wall-clock deadline for each worker connection (and the hello that
    /// follows). Overrides [`RFaasConfig::connect_timeout`].
    pub fn connect_timeout(mut self, timeout: std::time::Duration) -> AllocationBuilder {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Attach a [`StatePlane`] to the session: [`Session::state`] gains the
    /// zero-copy get/put surface, and function handles may declare key
    /// dependencies via [`FunctionHandle::with_state`]. The executor process
    /// is bound to the same plane at allocation time (and re-bound across
    /// transparent re-allocations).
    pub fn state_plane(mut self, plane: &StatePlane) -> AllocationBuilder {
        self.state_plane = Some(plane.clone());
        self
    }

    /// Acquire the lease, spin up the workers and connect to them (the cold
    /// path of Fig. 5/6), returning the live [`Session`].
    pub fn connect(self) -> Result<Session> {
        let mut config = self.config;
        if let Some(timeout) = self.connect_timeout {
            config.connect_timeout = timeout;
        }
        let clock = self.shared_clock.unwrap_or_else(VirtualClock::shared);
        if let Some(at) = self.start_at {
            clock.advance_to(at);
        }
        let endpoint = Endpoint {
            node: self.fabric.add_node(&self.client_node),
            fabric: self.fabric,
            clock,
            pd: ProtectionDomain::new(),
            function: DeviceFunction::Physical,
        };
        // Step 1: first contact with the resource manager rides the datagram
        // transport — a UD-style endpoint an order of magnitude cheaper to
        // set up than an RC connection. Bound once; re-allocations reuse it.
        static NEXT_CONTROL_ID: AtomicU64 = AtomicU64::new(1);
        let started = endpoint.clock.now();
        let control = DatagramSocket::bind(
            &endpoint,
            &format!(
                "rfaas-clt://{}/{}",
                self.client_node,
                NEXT_CONTROL_ID.fetch_add(1, Ordering::Relaxed)
            ),
        );
        let connect_to_manager = endpoint.clock.now().saturating_since(started);
        let mut request = LeaseRequest::single_worker(&self.package)
            .with_cores(self.cores)
            .with_memory_mib(self.memory_mib)
            .with_sandbox(self.sandbox);
        if let Some(timeout) = self.lease_timeout {
            request.timeout = timeout;
        }
        let session = Session {
            endpoint,
            config,
            manager: self.manager,
            request,
            mode: self.mode,
            policy: self.policy,
            recovery_budget: self.recovery_budget,
            control,
            reactor: self.reactor.unwrap_or_default(),
            connection_pool: self.connection_pool.unwrap_or_default(),
            state_plane: self.state_plane,
            state_client: OrderedMutex::new(ranks::CLIENT_SESSION_STATE, None),
            active: OrderedMutex::new(ranks::CLIENT_ACTIVE, None),
            recovery_lock: OrderedMutex::new(ranks::CLIENT_RECOVERY, ()),
            allocation_epoch: AtomicU64::new(0),
            next_invocation: AtomicU32::new(1),
            round_robin: AtomicUsize::new(0),
            connections_opened: AtomicU64::new(0),
            recoveries: AtomicU32::new(0),
            buffers: BufferPool::default(),
        };
        session.allocate(connect_to_manager)?;
        Ok(session)
    }
}

/// Pool of registered (input, output) buffer pairs reused across typed
/// invocations, so steady-state invocations never re-register memory.
struct BufferPool {
    free: OrderedMutex<Vec<(Buffer, Buffer)>>,
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool {
            free: OrderedMutex::new(ranks::SESSION_BUFFER_POOL, Vec::new()),
        }
    }
}

impl BufferPool {
    fn acquire(
        &self,
        pd: &ProtectionDomain,
        input_capacity: usize,
        output_capacity: usize,
    ) -> (Buffer, Buffer) {
        let mut free = self.free.lock();
        if let Some(position) = free
            .iter()
            .position(|(i, o)| i.capacity() >= input_capacity && o.capacity() >= output_capacity)
        {
            return free.swap_remove(position);
        }
        drop(free);
        (
            Buffer::input(pd, input_capacity),
            Buffer::output(pd, output_capacity),
        )
    }

    fn release(&self, pair: (Buffer, Buffer)) {
        let mut free = self.free.lock();
        if free.len() < MAX_POOLED_PAIRS {
            free.push(pair);
        }
    }
}

/// Everything a session holds while a lease is active. Kept behind one lock
/// so the recovery path can swap the whole allocation (lease, executor,
/// connections) from `&self` while invocation futures are waiting.
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
    /// What bringing this allocation up cost the client.
    cold_start: ColdStartBreakdown,
}

/// One leased allocation and the typed invocation surface on top of it (the
/// `rfaas::invoker` of Listing 2).
///
/// A session owns its lease, the direct connections to every leased worker
/// and the recovery machinery that replaces them, plus a pool of registered
/// buffers shared by every [`FunctionHandle`] it hands out. Dropping the
/// session releases the lease.
pub struct Session {
    /// The client's attachment to the fabric: node, virtual clock, and the
    /// protection domain every registration of the session lives in.
    endpoint: Endpoint,
    config: RFaasConfig,
    manager: Arc<ResourceManager>,
    /// What every allocation of the session asks for: the lease request,
    /// the workers' polling mode, and how the sandbox is provisioned.
    request: LeaseRequest,
    mode: PollingMode,
    policy: AllocationPolicy,
    recovery_budget: u32,
    /// Datagram socket for first contact with the resource manager, bound
    /// when the session is built and reused by every re-allocation.
    control: DatagramSocket,
    /// Completion reactor every worker connection is registered with; one
    /// [`Reactor::turn`] pumps them all.
    reactor: Reactor,
    /// Warmth pool worker connects draw from; shared across sessions so
    /// lease churn back to the same executor reuses the warm
    /// re-establishment tier.
    connection_pool: ConnectionPool,
    /// The state plane every allocation's executor process is bound to.
    state_plane: Option<StatePlane>,
    /// The session-side caching state client, attached on the first
    /// allocation and kept across re-allocations (the cache region and its
    /// datagram endpoint belong to the client node, not to any lease).
    state_client: OrderedMutex<Option<StateClient>>,
    /// `None` only once a transparent re-allocation has failed.
    active: OrderedMutex<Option<ActiveAllocation>>,
    // Serialises recovery: two futures discovering the same dead allocation
    // must produce one re-allocation, not two (the loser would overwrite —
    // and leak — the winner's allocation).
    recovery_lock: OrderedMutex<()>,
    allocation_epoch: AtomicU64,
    next_invocation: AtomicU32,
    round_robin: AtomicUsize,
    connections_opened: AtomicU64,
    recoveries: AtomicU32,
    buffers: BufferPool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("node", &self.endpoint.node.name())
            .field("workers", &self.worker_count())
            .finish()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.deallocate();
    }
}

impl Session {
    /// Start building a session (see [`AllocationBuilder`]).
    pub fn builder(
        fabric: &Arc<Fabric>,
        client_node: &str,
        manager: &Arc<ResourceManager>,
        package: &str,
    ) -> AllocationBuilder {
        AllocationBuilder::new(fabric, client_node, manager, package)
    }

    /// Resolve `name` in the session's function registry and return a typed
    /// handle for it. Unknown functions fail here, at handle creation, not at
    /// the first invocation.
    pub fn function<I, O>(&self, name: &str) -> Result<FunctionHandle<'_, I, O>>
    where
        I: Codec + ?Sized,
        O: Codec + ?Sized,
    {
        let known = self
            .active
            .lock()
            .as_ref()
            .is_some_and(|a| a.package.function_by_name(name).is_some());
        if !known {
            return Err(RFaasError::UnknownFunction(name.to_string()));
        }
        Ok(FunctionHandle {
            session: self,
            name: name.to_string(),
            output_capacity: None,
            _typed: PhantomData,
        })
    }

    /// The session's virtual clock (latency measurements are deltas of
    /// this).
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.endpoint.clock
    }

    /// The active lease (`None` once a transparent re-allocation failed).
    pub fn lease(&self) -> Option<Lease> {
        self.active.lock().as_ref().map(|a| a.lease.clone())
    }

    /// Cold-start breakdown of the active allocation.
    pub fn cold_start(&self) -> Option<ColdStartBreakdown> {
        self.active.lock().as_ref().map(|a| a.cold_start.clone())
    }

    /// One unified snapshot of the session's runtime counters: the
    /// connection plane, the fork fault state (when provisioned by
    /// [`AllocationPolicy::Fork`]), both sides of the state plane (when one
    /// is attached), worker count and transparent recoveries.
    pub fn stats(&self) -> SessionStats {
        let pool = self.connection_pool.stats();
        let active = self.active.lock();
        let process = active
            .as_ref()
            .map(|a| (a.executor.allocator(), a.process_id));
        SessionStats {
            connections: ConnectionPlaneStats {
                connections_opened: self.connections_opened.load(Ordering::Relaxed),
                pool_hits: pool.hits,
                pool_misses: pool.misses,
                srq_depth_high_watermark: process
                    .map_or(0, |(allocator, id)| allocator.srq_high_watermark(id)),
            },
            fork: process.and_then(|(allocator, id)| allocator.fork_state(id)),
            state_session: self.state_client.lock().as_ref().map(StateClient::stats),
            state_executor: process.and_then(|(allocator, id)| allocator.state_client_stats(id)),
            workers: active.as_ref().map_or(0, |a| a.connections.len()),
            recoveries: self.recoveries(),
        }
    }

    /// Typed surface over the session's state-plane attachment (see
    /// [`AllocationBuilder::state_plane`]). Operations fail with
    /// [`RFaasError::StatePlane`] when no plane is attached.
    pub fn state(&self) -> SessionState<'_> {
        SessionState { session: self }
    }

    /// How many times the session transparently re-allocated after a lease
    /// expiry or executor loss.
    pub fn recoveries(&self) -> u32 {
        self.recoveries.load(Ordering::Relaxed)
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
        self.clock().advance(self.config.allocation_submit_cost);
        let renewed = self
            .manager
            .renew_lease(lease_id, extension, self.clock())?;
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

    /// Release the lease and all executor resources (Listing 2's
    /// `invoker.deallocate()`; dropping the session does the same).
    pub fn close(self) -> Result<()> {
        self.deallocate();
        Ok(())
    }

    fn worker_count(&self) -> usize {
        self.active
            .lock()
            .as_ref()
            .map_or(0, |a| a.connections.len())
    }

    /// Epoch of the current allocation (0 when none is active).
    fn current_epoch(&self) -> u64 {
        self.active.lock().as_ref().map_or(0, |a| a.epoch)
    }
}

// Allocation, recovery and teardown.
impl Session {
    /// Acquire a lease for the session's request, bring up its executor
    /// process and worker connections (the cold path of Fig. 5/6), and make
    /// it the active allocation. `connect_to_manager` is what first contact
    /// cost (zero on re-allocations, which reuse the control socket).
    fn allocate(&self, connect_to_manager: SimDuration) -> Result<()> {
        let mut breakdown = ColdStartBreakdown {
            connect_to_manager,
            ..ColdStartBreakdown::default()
        };
        // Step 2: submit the allocation request as a control frame, wait for
        // the verdict datagram.
        let t1 = self.clock().now();
        self.clock().advance(self.config.allocation_submit_cost);
        let lease = self.request_lease()?;
        breakdown.submit_allocation = self.clock().now().saturating_since(t1);

        // The lease is granted: from here on every failure releases what was
        // acquired so far, or the manager's reservation — and any process,
        // connection or warmth token — leaks until the lease expires.
        let (executor, allocation) = match self.spawn(&lease, &mut breakdown) {
            Ok(spawned) => spawned,
            Err(e) => {
                self.release(&lease, None, &[]);
                return Err(e);
            }
        };
        let mut connections = Vec::with_capacity(allocation.workers.len());
        if let Err(e) = self.connect_and_bind(
            &lease,
            &executor,
            &allocation,
            &mut breakdown,
            &mut connections,
        ) {
            self.release(
                &lease,
                Some((&executor, allocation.process_id)),
                &connections,
            );
            return Err(e);
        }

        let fresh = ActiveAllocation {
            epoch: self.allocation_epoch.fetch_add(1, Ordering::Relaxed) + 1,
            lease,
            executor,
            process_id: allocation.process_id,
            package: allocation.package,
            connections,
            cold_start: breakdown,
        };
        *self.active.lock() = Some(fresh);
        Ok(())
    }

    /// One allocation round trip over the datagram control plane: send the
    /// `Allocate` frame, drive the manager's poller (the manager is not a
    /// thread in this simulation), and decode the verdict.
    fn request_lease(&self) -> Result<Lease> {
        let frame = ControlFrame::Allocate {
            reply_to: self.control.address().to_string(),
            request: self.request.clone(),
        };
        self.control
            .send_to(self.manager.control_address(), &frame.encode())?;
        self.manager.poll_control();
        let reply = self.control.recv_timeout(self.config.connect_timeout)?;
        match ControlFrame::decode(&reply.payload)? {
            ControlFrame::Granted { lease } => Ok(lease),
            ControlFrame::Denied { .. } => Err(RFaasError::InsufficientResources {
                requested_cores: self.request.cores,
                requested_memory_mib: self.request.memory_mib,
            }),
            ControlFrame::Allocate { .. } => Err(RFaasError::Internal(
                "unexpected allocate frame on the client control socket".into(),
            )),
        }
    }

    /// Steps 3 + 4: the granted executor's allocator spawns the sandboxed
    /// executor process and loads the code package; the client waits for
    /// the whole thing.
    fn spawn(
        &self,
        lease: &Lease,
        breakdown: &mut ColdStartBreakdown,
    ) -> Result<(Arc<SpotExecutor>, AllocationResult)> {
        let executor = self
            .manager
            .executor(&lease.executor_node)
            .ok_or_else(|| RFaasError::ExecutorLost(lease.executor_node.clone()))?;
        let t2 = self.clock().now();
        let allocation = executor.allocator().allocate_with_policy(
            lease,
            self.request.cores as usize,
            self.mode,
            self.policy,
        )?;
        self.clock().advance(allocation.breakdown.spawn.total());
        breakdown.spawn_workers = self.clock().now().saturating_since(t2);
        let t3 = self.clock().now();
        self.clock().advance(allocation.breakdown.code_submission);
        breakdown.submit_code = self.clock().now().saturating_since(t3);
        Ok((executor, allocation))
    }

    /// Step 5: a direct RDMA connection to every worker, pushed onto
    /// `connections` as each comes up (so a failure part-way leaves them for
    /// [`Session::release`]). Step 6, stateful sessions only: bind the fresh
    /// executor process to the state plane, attaching the session-side cache
    /// on the first allocation — a re-allocated process starts with a cold
    /// state cache, the session cache survives.
    fn connect_and_bind(
        &self,
        lease: &Lease,
        executor: &SpotExecutor,
        allocation: &AllocationResult,
        breakdown: &mut ColdStartBreakdown,
        connections: &mut Vec<Arc<WorkerConnection>>,
    ) -> Result<()> {
        let t4 = self.clock().now();
        self.connect_workers(&allocation.workers, &lease.executor_node, connections)?;
        breakdown.connect_to_workers = self.clock().now().saturating_since(t4);

        if let Some(plane) = &self.state_plane {
            let mut state_client = self.state_client.lock();
            if state_client.is_none() {
                *state_client = Some(plane.attach(
                    self.endpoint.node.name(),
                    &self.endpoint.node,
                    self.clock(),
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
        Ok(())
    }

    fn connect_workers(
        &self,
        workers: &[WorkerEndpointInfo],
        pool_key: &str,
        connections: &mut Vec<Arc<WorkerConnection>>,
    ) -> Result<()> {
        for (index, worker) in workers.iter().enumerate() {
            let connection = Arc::new(WorkerConnection::connect(
                &self.endpoint,
                worker,
                &self.connection_pool,
                pool_key,
                &self.config,
                index,
            )?);
            self.connections_opened.fetch_add(1, Ordering::Relaxed);
            // Register with the reactor before the connection can carry an
            // invocation: every result on this ring is picked up by the
            // shared event loop.
            let token = self
                .reactor
                .register_source(Arc::clone(&connection) as Arc<dyn CompletionSource>);
            connection.reactor_token.store(token, Ordering::Relaxed);
            connections.push(connection);
        }
        Ok(())
    }

    /// Tear down the current allocation and replay the session's lease
    /// request: fresh lease, fresh executor process, fresh connections.
    /// Called by the transparent recovery path after `LeaseExpired` /
    /// `ExecutorLost`.
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
        self.deallocate();
        self.allocate(SimDuration::ZERO)?;
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn deallocate(&self) {
        if let Some(active) = self.active.lock().take() {
            self.release(
                &active.lease,
                Some((&active.executor, active.process_id)),
                &active.connections,
            );
        }
    }

    /// Give back everything an allocation holds, however far it got: each
    /// worker connection is disconnected, unregistered from the reactor and
    /// its warmth parked in the pool (the remote node's state survives, so
    /// a re-allocation landing on the same executor reconnects at the warm
    /// tier); then the executor process is deallocated and the lease
    /// released. The one teardown path for live and half-built allocations.
    fn release(
        &self,
        lease: &Lease,
        process: Option<(&SpotExecutor, u64)>,
        connections: &[Arc<WorkerConnection>],
    ) {
        for conn in connections {
            conn.qp.disconnect();
            self.reactor.unregister_source(conn.token());
            self.connection_pool
                .release(&lease.executor_node, self.clock().now());
        }
        // Both calls tolerate the other side being gone already: a failed
        // executor has no process left to deallocate, and the lifecycle
        // driver may have released or terminated the lease before us.
        if let Some((executor, process_id)) = process {
            let _ = executor.allocator().deallocate(process_id);
        }
        let _ = self.manager.release_lease(lease.id);
    }
}

/// Function index, target connection and allocation epoch of one spec,
/// resolved against the active allocation.
type Resolved = (u8, Arc<WorkerConnection>, u64);

// Submission and completion.
impl Session {
    /// Post `spec` and return the future of its result.
    pub(crate) fn submit_spec<O: ?Sized>(
        &self,
        spec: InvocationSpec,
    ) -> Result<TypedFuture<'_, O>> {
        let (posted, recoveries) = self.submit_with_recovery(|| self.post_spec(&spec))?;
        Ok(TypedFuture {
            session: self,
            spec,
            posted,
            redirections: 0,
            recoveries,
            _typed: PhantomData,
        })
    }

    /// Run one submission `attempt`. A dead connection at submission time
    /// (the executor node was reclaimed under us) is recovered exactly like
    /// a loss found while waiting: re-allocate and run the attempt again on
    /// the fresh connections, with the full recovery budget. Returns the
    /// attempt's value and the re-allocations it consumed.
    fn submit_with_recovery<T>(&self, mut attempt: impl FnMut() -> Result<T>) -> Result<(T, u32)> {
        // Captured BEFORE the attempt: if it fails because the allocation
        // died, recovery must only tear down that allocation — a fresh one
        // another future raced in is detected as a newer epoch and reused,
        // never destroyed.
        let observed_epoch = self.current_epoch();
        match attempt() {
            Err(cause) if connection_is_lost(&cause) => {
                self.recover_then(observed_epoch, self.recovery_budget, cause, attempt)
            }
            result => result.map(|value| (value, 0)),
        }
    }

    /// The one recovery loop: re-allocate after the allocation at
    /// `observed_epoch` failed with `cause`, then run `attempt` on the fresh
    /// one. A failed re-allocation or a fresh connection loss consumes
    /// budget and is retried (the manager's round robin moves to a different
    /// executor each time) against whatever epoch is live now; once `budget`
    /// is spent `cause` surfaces. Returns the attempt's value and the
    /// re-allocations consumed.
    fn recover_then<T>(
        &self,
        mut observed_epoch: u64,
        budget: u32,
        cause: RFaasError,
        mut attempt: impl FnMut() -> Result<T>,
    ) -> Result<(T, u32)> {
        let mut used = 0;
        loop {
            used += 1;
            if used > budget {
                return Err(cause);
            }
            if self.recover(observed_epoch).is_err() {
                continue;
            }
            // Whatever allocation is live now (ours or another future's) is
            // the one the next attempt must observe failing.
            observed_epoch = self.current_epoch();
            match attempt() {
                Ok(value) => return Ok((value, used)),
                Err(e) if connection_is_lost(&e) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Post one invocation on its resolved connection.
    fn post_spec(&self, spec: &InvocationSpec) -> Result<Posted> {
        self.post(spec, self.resolve_spec(spec)?, false)
    }

    /// Post a whole batch of invocations behind one doorbell: every spec is
    /// resolved and capacity-checked *before* the first WQE is built, then
    /// every WQE is built back-to-back on the chained path
    /// ([`rdma_fabric::QueuePair::post_send_batch`] semantics, spanning the
    /// per-worker queue pairs of one NIC), so only the first submission pays
    /// the full issue cost. A post that still fails mid-batch (a lost
    /// connection, or a device limit such as an exhausted receive queue)
    /// reaps the already-posted invocations before the error surfaces, so
    /// no in-flight reservation or undrained completion outlives the failed
    /// attempt.
    fn post_batch(&self, specs: &[InvocationSpec]) -> Result<(Vec<Posted>, BatchStats)> {
        let mut resolved = Vec::with_capacity(specs.len());
        for spec in specs {
            resolved.push(self.resolve_spec(spec)?);
        }
        let started = self.clock().now();
        let mut posted: Vec<Posted> = Vec::with_capacity(specs.len());
        for (i, (spec, resolved)) in specs.iter().zip(resolved).enumerate() {
            match self.post(spec, resolved, i > 0) {
                Ok(p) => posted.push(p),
                Err(e) => {
                    // The earlier posts of this attempt already executed.
                    // Wait their completions out (discarding the results) so
                    // their reservations and ring slots are returned. A
                    // connection that died has nothing left to drain;
                    // await_result's error says exactly that and is safe to
                    // ignore.
                    for p in &posted {
                        let _ = self.await_result(p);
                    }
                    return Err(e);
                }
            }
        }
        let stats = BatchStats {
            submissions: specs.len(),
            doorbells: 1,
            chained_wqes: specs.len().saturating_sub(1),
            post_time: self.clock().now().saturating_since(started),
        };
        Ok((posted, stats))
    }

    /// Resolve a spec against the active allocation, plus the wire-capacity
    /// checks that must precede any posting.
    fn resolve_spec(&self, spec: &InvocationSpec) -> Result<Resolved> {
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

    /// Post `spec` on its resolved connection under a fresh invocation id.
    /// The in-flight slot is reserved *before* deciding whether an extra
    /// receive is needed: the previous count tells this submission alone
    /// whether it fits the ring, so concurrent submits cannot both read a
    /// stale count and under-post receives (a lost result would hang the
    /// waiter forever). A failed post returns the reservation.
    fn post(&self, spec: &InvocationSpec, resolved: Resolved, chained: bool) -> Result<Posted> {
        let (function_index, connection, epoch) = resolved;
        let posted = Posted {
            connection,
            invocation_id: self.next_invocation.fetch_add(1, Ordering::Relaxed) & 0x00FF_FFFF,
            epoch,
        };
        let reserved = posted
            .connection
            .outstanding
            .fetch_add(1, Ordering::Relaxed);
        match self.post_invocation(&posted, reserved, function_index, spec, chained) {
            Ok(()) => Ok(posted),
            Err(e) => {
                posted
                    .connection
                    .outstanding
                    .fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Put one invocation on the wire: the overflow receive when this
    /// submission's reserved slot (`reserved`, the pre-increment in-flight
    /// count) exceeds the ring, then header + payload — inline when the wire
    /// fits the device's WQE inline capacity, buffered otherwise. A `chained`
    /// post joins the WQE chain opened by the previous post of the batch
    /// (descriptor build only, no doorbell) and always takes the buffered
    /// path, since inline WQEs cannot join a chain that spans queue pairs.
    fn post_invocation(
        &self,
        posted: &Posted,
        reserved: usize,
        function_index: u8,
        spec: &InvocationSpec,
        chained: bool,
    ) -> Result<()> {
        // Payload-vs-capacity bounds were already enforced by resolve_spec
        // (every caller resolves before posting), so the spec is trusted
        // here.
        let (connection, invocation_id) = (&posted.connection, posted.invocation_id);
        let (input, payload_len) = (&spec.input, spec.payload_len);

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
        self.clock().advance(self.config.header_write_cost);
        let header = InvocationHeader::for_result_buffer(&spec.output.remote_handle());
        let imm = ImmValue::request(invocation_id, function_index);
        // Stack staging area for inline wires — the hot path must not touch
        // the heap (the default inline capacity is 128 B; a profile offering
        // more simply falls back to the buffered path beyond this bound).
        const INLINE_STACK: usize = 512;
        if !chained
            && wire_len <= self.endpoint.fabric.profile().max_inline_data
            && wire_len <= INLINE_STACK
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

    /// Drive the reactor until `posted`'s result lands on its connection,
    /// then take it. Every wait path funnels through here: the turn pumps
    /// *all* registered connections, so one waiting thread keeps every other
    /// in-flight invocation moving too.
    fn await_result(&self, posted: &Posted) -> Result<(usize, ResultStatus)> {
        let (connection, invocation_id) = (&posted.connection, posted.invocation_id);
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
}

#[cfg(test)]
impl Session {
    /// Live registrations in the session's protection domain.
    pub(crate) fn registered_regions(&self) -> usize {
        self.endpoint.pd.region_count()
    }

    /// A fresh (input, output) buffer pair in the session's protection
    /// domain, for tests that post specs at the wire level.
    pub(crate) fn buffer_pair(&self, input: usize, output: usize) -> (Buffer, Buffer) {
        (
            Buffer::input(&self.endpoint.pd, input),
            Buffer::output(&self.endpoint.pd, output),
        )
    }
}

/// Unified runtime counters of one [`Session`] (see [`Session::stats`]).
///
/// Marked `#[non_exhaustive]`: new planes will add fields here instead of
/// adding accessors on the session, so construct it only through
/// [`Session::stats`] and keep a `..` pattern when destructuring.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SessionStats {
    /// Connection-plane counters: physical connects, pool hits/misses and
    /// the executor's shared-receive-queue depth high watermark.
    pub connections: ConnectionPlaneStats,
    /// Fault state of a fork-provisioned sandbox (`None` otherwise).
    pub fork: Option<Arc<ForkFaultState>>,
    /// Session-side state-cache counters (`None` without a state plane).
    pub state_session: Option<StateClientStats>,
    /// Executor-side state-cache counters (`None` without a state plane or
    /// an active allocation).
    pub state_executor: Option<StateClientStats>,
    /// Connected executor workers.
    pub workers: usize,
    /// Transparent re-allocations after lease expiry or executor loss.
    pub recoveries: u32,
}

fn no_state_plane() -> RFaasError {
    RFaasError::StatePlane(StateError::Protocol(
        "no state plane is attached to this session".into(),
    ))
}

/// The session's window onto its attached state plane: zero-copy reads out
/// of the pre-registered cache, push-model writes, and typed in-place views
/// through a [`Codec`].
#[derive(Clone, Copy)]
pub struct SessionState<'s> {
    session: &'s Session,
}

impl std::fmt::Debug for SessionState<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionState")
            .field("attached", &self.session.state_plane.is_some())
            .finish()
    }
}

impl SessionState<'_> {
    /// Run `f` over the session's state client.
    fn with_client<R>(
        &self,
        f: impl FnOnce(&mut StateClient) -> state_plane::Result<R>,
    ) -> Result<R> {
        match self.session.state_client.lock().as_mut() {
            Some(client) => f(client).map_err(RFaasError::StatePlane),
            None => Err(no_state_plane()),
        }
    }

    /// Whether `key` currently exists in the plane (false when no plane is
    /// attached).
    pub fn contains(&self, key: &str) -> bool {
        self.session
            .state_plane
            .as_ref()
            .is_some_and(|p| p.contains(key))
    }

    /// Store `value` under `key` (push-model RDMA write; the session's own
    /// cache is write-through, so a following `get` is a local hit).
    pub fn put(&self, key: &str, value: &[u8]) -> Result<()> {
        self.with_client(|c| c.put(key, value))
    }

    /// Read `key` into an owned vector (hot keys come straight out of the
    /// local cache; cold keys pay one one-sided RDMA read).
    pub fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.with_client(|c| c.get(key))
    }

    /// Read `key` and decode it *in place* through `C`'s
    /// [`Codec::decode_view`]: `f` runs over a typed view borrowing the
    /// cached bytes where they lie — no staging copy leaves the
    /// pre-registered cache region.
    pub fn view<C, R>(&self, key: &str, f: impl FnOnce(C::View<'_>) -> R) -> Result<R>
    where
        C: Codec + ?Sized,
    {
        self.with_client(|c| c.get_with(key, |bytes| C::decode_view(bytes).map(f)))?
    }

    /// Delete `key`; returns whether it existed.
    pub fn delete(&self, key: &str) -> Result<bool> {
        self.with_client(|c| c.delete(key))
    }

    /// Session-side cache counters (`None` without a state plane).
    pub fn stats(&self) -> Option<StateClientStats> {
        self.session
            .state_client
            .lock()
            .as_ref()
            .map(StateClient::stats)
    }
}

/// Zero-sized marker tying a handle to its input/output codec types without
/// imposing `Send`/`Sync` or ownership semantics on either.
type HandleTypes<I, O> = PhantomData<(fn(&I), fn() -> O)>;

/// A typed handle on one deployed function: payload sizing, buffer pooling
/// and submission all derive from the input/output [`Codec`]s.
pub struct FunctionHandle<'s, I: ?Sized, O: ?Sized> {
    session: &'s Session,
    name: String,
    output_capacity: Option<usize>,
    _typed: HandleTypes<I, O>,
}

impl<I: ?Sized, O: ?Sized> std::fmt::Debug for FunctionHandle<'_, I, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionHandle")
            .field("function", &self.name)
            .finish()
    }
}

impl<I: ?Sized, O: ?Sized> Clone for FunctionHandle<'_, I, O> {
    fn clone(&self) -> Self {
        FunctionHandle {
            session: self.session,
            name: self.name.clone(),
            output_capacity: self.output_capacity,
            _typed: PhantomData,
        }
    }
}

impl<'s, I, O> FunctionHandle<'s, I, O>
where
    I: Codec + ?Sized,
    O: Codec + ?Sized,
{
    /// The function's deployed name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reserve result buffers of at least `bytes` for this handle's
    /// invocations. Without this, the result capacity defaults to the encoded
    /// input length (floored at a small page) — right for echo-shaped
    /// functions, too small for functions whose output outgrows their input.
    pub fn with_output_capacity(mut self, bytes: usize) -> Self {
        self.output_capacity = Some(bytes);
        self
    }

    /// Declare the state-plane keys this handle's invocations touch and how
    /// ([`StateKey::read`] / [`StateKey::read_write`]). Validated here, at
    /// bind time: the session must have a plane attached and every declared
    /// key must exist, so a typo'd key fails the bind instead of the Nth
    /// invocation. The executor materialises exactly the declared set before
    /// dispatch and writes dirty read-write keys back after completion; any
    /// access outside the declaration fails the invocation.
    pub fn with_state(self, keys: impl IntoIterator<Item = StateKey>) -> Result<Self> {
        let session = self.session;
        if session.state_plane.is_none() {
            return Err(no_state_plane());
        }
        let spec = StateSpec::new(keys);
        for key in spec.keys() {
            if !session.state().contains(&key.name) {
                return Err(RFaasError::StatePlane(StateError::UnknownKey(
                    key.name.clone(),
                )));
            }
        }
        let active = session.active.lock();
        let active = active.as_ref().ok_or(RFaasError::NotAllocated)?;
        active
            .executor
            .allocator()
            .bind_state_spec(active.process_id, &self.name, spec)?;
        Ok(self)
    }

    /// Build the invocation spec for `input`: size the buffers from the
    /// codec, draw them from the session pool, and encode the payload.
    fn spec_for(&self, worker: Option<usize>, input: &I) -> Result<InvocationSpec> {
        let payload_len = input.encoded_len();
        let output_capacity = self
            .output_capacity
            .unwrap_or_else(|| payload_len.max(MIN_OUTPUT_CAPACITY));
        let (input_buffer, output_buffer) =
            self.session
                .buffers
                .acquire(&self.session.endpoint.pd, payload_len, output_capacity);
        input_buffer.write_encoded(input)?;
        Ok(InvocationSpec {
            worker,
            function: self.name.clone(),
            input: input_buffer,
            payload_len,
            output: output_buffer,
        })
    }

    /// Submit asynchronously; the returned future resolves to the decoded
    /// result.
    pub fn submit(&self, input: &I) -> Result<TypedFuture<'s, O>> {
        self.session.submit_spec(self.spec_for(None, input)?)
    }

    /// Invoke synchronously and decode the result.
    pub fn invoke(&self, input: &I) -> Result<O::Owned> {
        self.submit(input)?.wait()
    }

    /// Invoke synchronously, returning the decoded result and the
    /// client-observed round-trip time.
    pub fn invoke_timed(&self, input: &I) -> Result<(O::Owned, SimDuration)> {
        let start = self.session.clock().now();
        let value = self.invoke(input)?;
        Ok((value, self.session.clock().now().saturating_since(start)))
    }

    /// Scatter one invocation per input across the session's workers (input
    /// `i` goes to worker `i mod worker_count`), posting each wave of up to
    /// `worker_count` submissions behind one shared doorbell: the wave's
    /// first WQE pays the full issue cost, the rest ride the chained-WQE
    /// path of [`rdma_fabric::QueuePair::post_send_batch`]. Returns a
    /// [`CompletionSet`] for gathering the results.
    ///
    /// Waves exist because each worker exposes a single registered input
    /// slot (one in-flight invocation per worker, as in the paper's
    /// protocol): a second write to the same worker before the first is
    /// consumed would clobber its header and payload. With more inputs than
    /// workers, the completion set posts the next wave as the previous one
    /// is gathered — callers still see one scatter and one result vector.
    /// Payloads are encoded into registered buffers for the whole scatter up
    /// front (peak registration scales with the input count, bounded by the
    /// session pool's recycling); keep individual scatters to what the
    /// client can afford to register at once.
    pub fn map_workers<'i, It>(&self, inputs: It) -> Result<CompletionSet<'s, O>>
    where
        It: IntoIterator<Item = &'i I>,
        I: 'i,
    {
        let workers = self.session.worker_count();
        if workers == 0 {
            return Err(RFaasError::NotAllocated);
        }
        let mut queued = VecDeque::new();
        for (index, input) in inputs.into_iter().enumerate() {
            queued.push_back((index, self.spec_for(Some(index % workers), input)?));
        }
        let mut set = CompletionSet {
            entries: (0..queued.len()).map(|_| None).collect(),
            queued,
            wave: workers,
            session: self.session,
            stats: BatchStats::default(),
            ready: Arc::new(OrderedMutex::new(ranks::REACTOR_READY, VecDeque::new())),
        };
        set.submit_next_wave()?;
        Ok(set)
    }
}

/// The in-flight result of one submission (`std::future`-style, Sec. IV-B).
/// Waiting drives the session's completion reactor, which busy-polls the
/// client-side receive rings — what the paper's invoker does to minimise
/// latency — then decodes the output through `O`'s [`Codec`] and recycles
/// the invocation's buffers into the session pool.
///
/// Rejected invocations (oversubscribed warm executors) are transparently
/// redirected to another worker, as in Fig. 6. Invocations refused because
/// the lease expired — or stranded because the executor node disappeared —
/// are transparently replayed onto a fresh lease obtained from the resource
/// manager (Sec. III-B failure handling).
pub struct TypedFuture<'s, O: ?Sized> {
    session: &'s Session,
    spec: InvocationSpec,
    posted: Posted,
    redirections: u32,
    recoveries: u32,
    _typed: PhantomData<fn() -> O>,
}

impl<O: ?Sized> std::fmt::Debug for TypedFuture<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypedFuture")
            .field("id", &self.posted.invocation_id)
            .field("function", &self.spec.function)
            .finish()
    }
}

impl<O: ?Sized> TypedFuture<'_, O> {
    /// Whether the result is already stashed, without pumping anything.
    /// The completion-set fast path: ready-queue hits resolve through this.
    fn has_stashed_result(&self) -> bool {
        self.posted.connection.has_result(self.posted.invocation_id)
    }

    /// The `(source token, invocation id)` key under which a continuation
    /// for this future registers with the session's reactor.
    fn reactor_key(&self) -> (u64, u32) {
        (self.posted.connection.token(), self.posted.invocation_id)
    }

    /// Whether the future's connection is gone (its continuation can never
    /// fire; only a blocking wait — which runs recovery — resolves it).
    fn connection_lost(&self) -> bool {
        !self.posted.connection.qp.is_connected()
    }
}

impl<O> TypedFuture<'_, O>
where
    O: Codec + ?Sized,
{
    /// Number of transparent lease re-allocations this invocation consumed
    /// so far.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// Block until the result is available, decode it, and return the
    /// invocation's buffers to the session pool.
    pub fn wait(mut self) -> Result<O::Owned> {
        let len = self.result_len()?;
        let value = self.spec.output.read_decoded::<O>(len)?;
        self.session
            .buffers
            .release((self.spec.input, self.spec.output));
        Ok(value)
    }

    /// Wait out redirections and recoveries until the invocation succeeds;
    /// returns the number of output bytes written into the output buffer.
    fn result_len(&mut self) -> Result<usize> {
        loop {
            let (byte_len, status) = match self.session.await_result(&self.posted) {
                Ok(result) => result,
                Err(e) if connection_is_lost(&e) => {
                    self.recover(e)?;
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
                    let lease_id = self.session.lease().map(|l| l.id).unwrap_or_default();
                    self.recover(RFaasError::LeaseExpired(lease_id))?;
                }
                ResultStatus::Rejected => self.redirect()?,
            }
        }
    }

    /// Resubmit a rejected invocation to the next worker; give up once every
    /// worker rejected it.
    fn redirect(&mut self) -> Result<()> {
        self.redirections += 1;
        let workers = self.session.worker_count();
        if self.redirections as usize > workers {
            return Err(RFaasError::AllWorkersBusy);
        }
        self.spec.worker = Some((self.posted.connection.index + 1) % workers);
        match self.session.post_spec(&self.spec) {
            Ok(posted) => {
                self.posted = posted;
                Ok(())
            }
            Err(e) if connection_is_lost(&e) => self.recover(e),
            Err(e) => Err(e),
        }
    }

    /// Re-allocate through the manager and replay this invocation on the
    /// fresh connections, drawing on the future's remaining recovery budget
    /// (shared with the submission-time recovery).
    fn recover(&mut self, cause: RFaasError) -> Result<()> {
        // The replay is not pinned to the dead worker index: the round robin
        // moves it to whatever the fresh allocation offers.
        self.spec.worker = None;
        let budget = self.session.recovery_budget.saturating_sub(self.recoveries);
        let (session, spec) = (self.session, &self.spec);
        let (posted, used) =
            session.recover_then(self.posted.epoch, budget, cause, || session.post_spec(spec))?;
        self.posted = posted;
        self.recoveries += used;
        Ok(())
    }
}

/// A set of in-flight typed invocations submitted as doorbell-batched waves
/// ([`FunctionHandle::map_workers`]).
///
/// Results are gathered with [`CompletionSet::wait_all`] (submission order)
/// or drained one at a time with [`CompletionSet::wait_any`]. When the
/// scatter holds more inputs than workers, only one wave (one invocation
/// per worker) is in flight at a time — each worker has a single input
/// slot — and the next wave posts automatically once the current one has
/// been fully gathered.
pub struct CompletionSet<'s, O: ?Sized> {
    /// One slot per input; `Some` while that invocation is in flight,
    /// `None` before its wave posts and after its result is gathered.
    entries: Vec<Option<TypedFuture<'s, O>>>,
    /// Not-yet-posted (index, spec) pairs, in submission order.
    queued: VecDeque<(usize, InvocationSpec)>,
    /// Submissions per wave (= the session's worker count at scatter time).
    wave: usize,
    session: &'s Session,
    stats: BatchStats,
    /// Entry indices whose results the reactor has dispatched, in completion
    /// order. `wait_any` pops this queue instead of rescanning every entry —
    /// the old rescan made gathering an n-entry scatter quadratic. Indices
    /// are hints: a duplicate (from the post-registration stash re-check) is
    /// skipped because its entry slot is already `None`.
    ready: Arc<OrderedMutex<VecDeque<usize>>>,
}

impl<O: ?Sized> std::fmt::Debug for CompletionSet<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSet")
            .field("pending", &self.pending())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<O: ?Sized> CompletionSet<'_, O> {
    /// Number of invocations not yet gathered (in flight or queued for a
    /// later wave).
    fn pending(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count() + self.queued.len()
    }

    /// Doorbell accounting across every wave posted so far: how many WQEs
    /// shared how many doorbells, and what the posting bursts cost on the
    /// client clock. A scatter of one invocation per worker is a single
    /// wave and therefore a single doorbell.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Post the next wave of queued specs (one per worker at most) behind a
    /// shared doorbell; a lost connection replays the whole wave on a fresh
    /// allocation, and every future of the wave is charged the
    /// re-allocations that took. No-op while the current wave still has
    /// in-flight entries — a worker's single input slot must be free before
    /// the next write to it.
    fn submit_next_wave(&mut self) -> Result<()> {
        if self.queued.is_empty() || self.entries.iter().any(|e| e.is_some()) {
            return Ok(());
        }
        let take = self.wave.min(self.queued.len());
        let (indices, specs): (Vec<usize>, Vec<InvocationSpec>) = self.queued.drain(..take).unzip();
        let session = self.session;
        let ((posted, stats), recoveries) =
            session.submit_with_recovery(|| session.post_batch(&specs))?;
        for ((index, spec), posted) in indices.into_iter().zip(specs).zip(posted) {
            let future = TypedFuture {
                session,
                spec,
                posted,
                redirections: 0,
                recoveries,
                _typed: PhantomData,
            };
            // Arm the continuation, then re-check the stash: a concurrent
            // reactor turn may have pumped this result before the
            // continuation existed, in which case the ready push happens
            // here (a duplicate hint is harmless, a missing one would hang).
            let (token, id) = future.reactor_key();
            session
                .reactor
                .register_continuation(token, id, &self.ready, index);
            if future.has_stashed_result() {
                self.ready.lock().push_back(index);
            }
            self.entries[index] = Some(future);
        }
        self.stats.submissions += stats.submissions;
        self.stats.doorbells += stats.doorbells;
        self.stats.chained_wqes += stats.chained_wqes;
        self.stats.post_time += stats.post_time;
        Ok(())
    }
}

impl<O: ?Sized> Drop for CompletionSet<'_, O> {
    fn drop(&mut self) {
        // Continuations of never-gathered entries must not outlive the set:
        // their ready queue dies with it, and the 24-bit invocation ids
        // eventually wrap around onto fresh submissions.
        for entry in self.entries.iter().flatten() {
            let (token, id) = entry.reactor_key();
            self.session.reactor.cancel_continuation(token, id);
        }
    }
}

impl<'s, O> CompletionSet<'s, O>
where
    O: Codec + ?Sized,
{
    /// Disarm the entry's continuation (its hint either fired already or is
    /// now moot) and gather its result.
    fn gather(&self, future: TypedFuture<'s, O>) -> Result<O::Owned> {
        let (token, id) = future.reactor_key();
        self.session.reactor.cancel_continuation(token, id);
        future.wait()
    }

    /// Wait for the next available result, in completion order: the reactor
    /// dispatches each finished invocation's index onto the set's ready
    /// queue, so a gather is O(1) instead of a rescan of every entry (the
    /// old rescan made draining an n-entry scatter quadratic). If nothing is
    /// ready the reactor is driven until something completes. Once a wave is
    /// fully gathered the next queued wave posts. Returns the submission
    /// index with the decoded result, or `None` once everything has been
    /// gathered.
    pub fn wait_any(&mut self) -> Result<Option<(usize, O::Owned)>> {
        self.submit_next_wave()?;
        loop {
            // Completions the reactor already dispatched, oldest first.
            let hint = self.ready.lock().pop_front();
            if let Some(index) = hint {
                if let Some(future) = self.entries[index].take() {
                    return Ok(Some((index, self.gather(future)?)));
                }
                // Stale duplicate hint for an already-gathered entry.
                continue;
            }
            if self.entries.iter().all(|e| e.is_none()) {
                return Ok(None);
            }
            // Nothing dispatched yet: drive the shared event loop. An empty
            // sweep can also mean a connection died (its continuation will
            // never fire) — fall back to a blocking gather on the first such
            // entry, whose wait() runs the transparent recovery path.
            if self.session.reactor.turn() == 0 {
                let lost = (0..self.entries.len()).find(|&i| {
                    self.entries[i]
                        .as_ref()
                        .is_some_and(TypedFuture::connection_lost)
                });
                if let Some(index) = lost {
                    let future = self.entries[index].take().expect("checked is_some");
                    return Ok(Some((index, self.gather(future)?)));
                }
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
    }

    /// Wait for every still-pending result, returned in submission order
    /// (results already gathered through [`CompletionSet::wait_any`] are not
    /// repeated).
    pub fn wait_all(mut self) -> Result<Vec<O::Owned>> {
        let mut slots: Vec<Option<O::Owned>> = (0..self.entries.len()).map(|_| None).collect();
        while let Some((index, value)) = self.wait_any()? {
            slots[index] = Some(value);
        }
        Ok(slots.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SpotExecutor;
    use cluster_sim::NodeResources;
    use sandbox::{echo_function, failing_function, CodePackage, FunctionRegistry};

    fn platform(cores: u32) -> (Arc<Fabric>, Arc<ResourceManager>, Session) {
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
        let session = Session::builder(&fabric, "client-0", &manager, "pkg")
            .workers(cores)
            .connect()
            .unwrap();
        (fabric, manager, session)
    }

    #[test]
    fn typed_invoke_round_trips_bytes_and_f64() {
        let (_f, _m, session) = platform(1);
        let echo_bytes = session.function::<[u8], [u8]>("echo").unwrap();
        assert_eq!(echo_bytes.invoke(&[1u8, 2, 3][..]).unwrap(), vec![1, 2, 3]);

        let echo_f64 = session.function::<[f64], [f64]>("echo").unwrap();
        let values = [1.5f64, -2.25, 4.0];
        let (reply, rtt) = echo_f64.invoke_timed(&values[..]).unwrap();
        assert_eq!(reply, values.to_vec());
        assert!(rtt.as_micros_f64() > 0.0);
    }

    #[test]
    fn buffers_released_past_the_pool_bound_are_deregistered() {
        let (_f, _m, session) = platform(1);
        let baseline = session.registered_regions();
        let pairs: Vec<(Buffer, Buffer)> = (0..MAX_POOLED_PAIRS + 6)
            .map(|_| session.buffers.acquire(&session.endpoint.pd, 64, 64))
            .collect();
        assert_eq!(
            session.registered_regions(),
            baseline + 2 * (MAX_POOLED_PAIRS + 6)
        );
        for pair in pairs {
            session.buffers.release(pair);
        }
        // The pool kept its bound; the six pairs past it are gone from the
        // protection domain, not merely from the pool.
        assert_eq!(
            session.registered_regions(),
            baseline + 2 * MAX_POOLED_PAIRS
        );
    }

    #[test]
    fn unknown_functions_fail_at_handle_creation() {
        let (_f, _m, session) = platform(1);
        assert!(matches!(
            session.function::<[u8], [u8]>("nope"),
            Err(RFaasError::UnknownFunction(_))
        ));
        assert!(session.function::<[u8], [u8]>("echo").is_ok());
    }

    #[test]
    fn map_workers_batches_behind_one_doorbell_and_preserves_order() {
        let (_f, _m, session) = platform(4);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let inputs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 256]).collect();
        let set = echo
            .map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap();
        let stats = set.stats();
        assert_eq!(stats.submissions, 4);
        assert_eq!(stats.doorbells, 1);
        assert_eq!(stats.chained_wqes, 3);
        assert_eq!(set.pending(), 4);
        let results = set.wait_all().unwrap();
        assert_eq!(results, inputs);
    }

    #[test]
    fn batched_submission_posts_cheaper_than_sequential() {
        // The whole point of the shared doorbell: N scatter submissions cost
        // the client clock less than N individually posted submissions.
        let (_f, _m, session) = platform(8);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let inputs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 2048]).collect();
        // Warm the buffer pool so both measurements reuse registered memory.
        echo.map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap()
            .wait_all()
            .unwrap();

        let set = echo
            .map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap();
        let batched = set.stats().post_time;
        set.wait_all().unwrap();

        let start = session.clock().now();
        let futures: Vec<_> = inputs
            .iter()
            .map(|v| echo.submit(v.as_slice()).unwrap())
            .collect();
        let sequential = session.clock().now().saturating_since(start);
        for f in futures {
            f.wait().unwrap();
        }
        assert!(
            batched < sequential,
            "batched posting {batched} must beat sequential posting {sequential}"
        );
    }

    #[test]
    fn map_workers_accepts_more_inputs_than_workers() {
        // 64 inputs on 4 workers: each worker has ONE input slot, so the
        // scatter proceeds in 16 waves of 4, each wave behind one doorbell,
        // and every input must come back intact and in submission order
        // (regression: a single 64-wide burst used to clobber the workers'
        // input slots, returning the last payload — or nothing — for all
        // but the final wave).
        let (_f, _m, session) = platform(4);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let inputs: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 32]).collect();
        let set = echo
            .map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap();
        // Only the first wave has posted so far.
        assert_eq!(set.stats().submissions, 4);
        assert_eq!(set.stats().doorbells, 1);
        assert_eq!(set.pending(), 64);
        let results = set.wait_all().unwrap();
        assert_eq!(results, inputs);
    }

    #[test]
    fn wait_any_crosses_wave_boundaries() {
        let (_f, _m, session) = platform(2);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let inputs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; 16]).collect();
        let mut set = echo
            .map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap();
        let mut seen = [false; 6];
        while let Some((index, value)) = set.wait_any().unwrap() {
            assert!(!seen[index]);
            seen[index] = true;
            assert_eq!(value, inputs[index]);
        }
        assert!(seen.iter().all(|&s| s));
        // 3 waves of 2 → 3 doorbells, 6 submissions total.
        assert_eq!(set.stats().submissions, 6);
        assert_eq!(set.stats().doorbells, 3);
        assert_eq!(set.stats().chained_wqes, 3);
    }

    #[test]
    fn wait_any_drains_the_set_exactly_once_per_entry() {
        let (_f, _m, session) = platform(3);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let inputs: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i + 1; 64]).collect();
        let mut set = echo
            .map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap();
        let mut seen = [false; 3];
        while let Some((index, value)) = set.wait_any().unwrap() {
            assert!(!seen[index], "index {index} returned twice");
            seen[index] = true;
            assert_eq!(value, inputs[index]);
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(set.pending(), 0);
    }

    #[test]
    fn output_capacity_override_allows_results_larger_than_the_input() {
        let (_f, _m, session) = platform(1);
        // Default capacity = max(input len, one page); echo fits trivially,
        // so exercise the override path and the handle clone.
        let echo = session
            .function::<[u8], [u8]>("echo")
            .unwrap()
            .with_output_capacity(1 << 20);
        let big = vec![7u8; 512 * 1024];
        assert_eq!(echo.invoke(&big[..]).unwrap(), big);
        let cloned = echo.clone();
        assert_eq!(cloned.name(), "echo");
    }

    #[test]
    fn typed_futures_recover_from_lease_expiry() {
        let (_f, _m, session) = platform(1);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        echo.invoke(&[9u8; 16][..]).unwrap();
        assert_eq!(session.recoveries(), 0);
        // Jump past the lease expiry: the executor refuses with LeaseExpired
        // and the typed future transparently replays on a fresh lease.
        session.clock().advance(SimDuration::from_secs(3600));
        assert_eq!(echo.invoke(&[9u8; 16][..]).unwrap(), vec![9u8; 16]);
        assert_eq!(session.recoveries(), 1);
    }

    #[test]
    fn builder_knobs_shape_the_lease() {
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
        let start = SimTime::from_secs(42);
        let session = Session::builder(&fabric, "c", &manager, "pkg")
            .workers(2)
            .memory_mib(2048)
            .lease_timeout(SimDuration::from_secs(120))
            .recovery_budget(5)
            .starting_at(start)
            .connect()
            .unwrap();
        assert_eq!(session.stats().workers, 2);
        let lease = session.lease().unwrap();
        assert_eq!(lease.cores, 2);
        assert_eq!(lease.memory_mib, 2048);
        assert!(session.clock().now() >= start);
        assert_eq!(session.recovery_budget, 5);
        assert!(session.cold_start().is_some());
        session.close().unwrap();
        assert_eq!(manager.lease_count(), 0);
    }

    #[test]
    fn shared_connection_pool_warms_reallocation_to_the_same_executor() {
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

        let pool = ConnectionPool::new();
        let first = Session::builder(&fabric, "c", &manager, "pkg")
            .workers(2)
            .connection_pool(&pool)
            .connect()
            .unwrap();
        let stats = first.stats().connections;
        assert_eq!(stats.connections_opened, 2);
        assert_eq!(stats.pool_hits, 0);
        assert_eq!(stats.pool_misses, 2);
        assert!(stats.srq_depth_high_watermark <= 1, "no invocations yet");
        first.close().unwrap();
        // Teardown returned both connections' warmth to the pool.
        assert_eq!(pool.idle_for("exec-0"), 2);

        // A new session on the same pool re-connects warm.
        let second = Session::builder(&fabric, "c", &manager, "pkg")
            .workers(2)
            .connection_pool(&pool)
            .connect_timeout(std::time::Duration::from_secs(2))
            .connect()
            .unwrap();
        let stats = second.stats().connections;
        assert_eq!(stats.connections_opened, 2);
        // Pool counters are cumulative across the sessions sharing it: the
        // first session's two misses plus the second session's two hits.
        assert_eq!(stats.pool_hits, 2);
        assert_eq!(stats.pool_misses, 2);
        let echo = second.function::<[u8], [u8]>("echo").unwrap();
        assert_eq!(echo.invoke(&[5u8; 8][..]).unwrap(), vec![5u8; 8]);
        assert!(second.stats().connections.srq_depth_high_watermark >= 1);
        second.close().unwrap();
    }

    #[test]
    fn pooled_buffers_are_reused_across_invocations() {
        let (_f, _m, session) = platform(1);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        echo.invoke(&[1u8; 100][..]).unwrap();
        assert_eq!(session.buffers.free.lock().len(), 1);
        // Same-size invocation reuses the pooled pair instead of growing it.
        echo.invoke(&[2u8; 100][..]).unwrap();
        assert_eq!(session.buffers.free.lock().len(), 1);
        // A larger invocation allocates a second pair.
        echo.invoke(&vec![3u8; 100_000][..]).unwrap();
        assert_eq!(session.buffers.free.lock().len(), 2);
    }

    /// Platform with a state plane attached: the package carries a stateful
    /// counter plus two misbehaving functions used by the rejection tests.
    fn stateful_platform() -> (Arc<Fabric>, Arc<ResourceManager>, StatePlane, Session) {
        use sandbox::SharedFunction;
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        let counter = SharedFunction::from_stateful_fn("counter", |input, state, output| {
            let mut value = {
                let bytes = state.read("counter")?;
                if bytes.is_empty() {
                    0u64
                } else {
                    u64::from_le_bytes(bytes.try_into().map_err(|_| {
                        sandbox::FunctionError::StateAccess("counter is not 8 bytes".into())
                    })?)
                }
            };
            value += input.len() as u64;
            let slot = state.write("counter")?;
            slot.clear();
            slot.extend_from_slice(&value.to_le_bytes());
            output[..8].copy_from_slice(&value.to_le_bytes());
            Ok(8)
        });
        let rogue_writer = SharedFunction::from_stateful_fn("rogue-writer", |_in, state, _out| {
            state.write("model")?;
            Ok(0)
        });
        let ghost_reader = SharedFunction::from_stateful_fn("ghost-reader", |_in, state, _out| {
            state.read("ghost")?;
            Ok(0)
        });
        registry.deploy(
            CodePackage::minimal("pkg")
                .with_function(echo_function())
                .with_function(counter)
                .with_function(rogue_writer)
                .with_function(ghost_reader),
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
        let plane = StatePlane::new(&fabric, "state-0", 64 * 1024 * 1024);
        let session = Session::builder(&fabric, "client-0", &manager, "pkg")
            .state_plane(&plane)
            .connect()
            .unwrap();
        (fabric, manager, plane, session)
    }

    #[test]
    fn stateful_invocations_round_trip_through_the_plane() {
        let (_f, _m, _plane, session) = stateful_platform();
        session.state().put("counter", &0u64.to_le_bytes()).unwrap();
        let counter = session
            .function::<[u8], [u8]>("counter")
            .unwrap()
            .with_state([StateKey::read_write("counter")])
            .unwrap();

        // Each invocation reads the running total from the plane, adds the
        // payload length, and writes the new total back.
        let reply = counter.invoke(&[0u8; 5][..]).unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 5);
        let reply = counter.invoke(&[0u8; 3][..]).unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 8);

        // The committed total is visible from the session side, and both the
        // session-side and executor-side clients show up in unified stats.
        let total = session.state().get("counter").unwrap();
        assert_eq!(u64::from_le_bytes(total.try_into().unwrap()), 8);
        let stats = session.stats();
        assert_eq!(stats.state_session.unwrap().puts, 1);
        let exec = stats.state_executor.unwrap();
        assert_eq!(exec.puts, 2, "one write-back per invocation");
        assert_eq!(exec.gets, 2, "one materialisation per invocation");
        session.close().unwrap();
    }

    #[test]
    fn with_state_requires_a_plane_and_known_keys() {
        // No plane attached to the session: declaring state is rejected.
        let (_f, _m, session) = platform(1);
        let err = session
            .function::<[u8], [u8]>("echo")
            .unwrap()
            .with_state([StateKey::read("counter")])
            .unwrap_err();
        assert!(matches!(
            err,
            RFaasError::StatePlane(StateError::Protocol(_))
        ));

        // Plane attached but the key was never put: rejected at bind time.
        let (_f2, _m2, _plane, stateful) = stateful_platform();
        let err = stateful
            .function::<[u8], [u8]>("counter")
            .unwrap()
            .with_state([StateKey::read_write("missing")])
            .unwrap_err();
        assert!(matches!(
            err,
            RFaasError::StatePlane(StateError::UnknownKey(ref k)) if k == "missing"
        ));
    }

    #[test]
    fn session_state_views_decode_in_place_and_reject_malformed_values() {
        let (_f, _m, _plane, session) = stateful_platform();
        let weights = [0.5f64, -1.25, 3.0];
        let bytes: Vec<u8> = weights.iter().flat_map(|w| w.to_le_bytes()).collect();
        session.state().put("weights", &bytes).unwrap();

        // The typed view decodes straight over the client's cached bytes.
        let sum = session
            .state()
            .view::<[f64], _>("weights", |v| {
                (0..v.len()).map(|i| v.get(i).unwrap()).sum::<f64>()
            })
            .unwrap();
        assert_eq!(sum, 2.25);

        // A value whose shape violates the codec is rejected by the view...
        session.state().put("weights", &[1u8, 2, 3]).unwrap();
        assert!(matches!(
            session.state().view::<[f64], _>("weights", |v| v.len()),
            Err(RFaasError::Codec(_))
        ));
        // ...and a missing key surfaces the state plane's error untouched.
        assert!(matches!(
            session.state().view::<[f64], _>("absent", |v| v.len()),
            Err(RFaasError::StatePlane(StateError::UnknownKey(_)))
        ));
    }

    #[test]
    fn state_misuse_fails_the_invocation() {
        let (_f, _m, _plane, session) = stateful_platform();
        session.state().put("model", &[1u8; 16]).unwrap();

        // Writing through a read-only declaration fails the invocation.
        let rogue = session
            .function::<[u8], [u8]>("rogue-writer")
            .unwrap()
            .with_state([StateKey::read("model")])
            .unwrap();
        assert!(matches!(
            rogue.invoke(&[0u8; 1][..]).unwrap_err(),
            RFaasError::Function(_)
        ));

        // Touching a key that was never declared fails the invocation.
        let ghost = session
            .function::<[u8], [u8]>("ghost-reader")
            .unwrap()
            .with_state([StateKey::read("model")])
            .unwrap();
        assert!(matches!(
            ghost.invoke(&[0u8; 1][..]).unwrap_err(),
            RFaasError::Function(_)
        ));

        // A stateful function dispatched without any declaration also fails
        // (its keys were never bound, so every access is undeclared).
        let undeclared = session.function::<[u8], [u8]>("counter").unwrap();
        assert!(matches!(
            undeclared.invoke(&[0u8; 1][..]).unwrap_err(),
            RFaasError::Function(_)
        ));
    }
}

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
//! re-allocates through the manager and replays, at most three times per
//! invocation. The wire-level pieces a session is made of live in
//! [`crate::client`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use rdma_fabric::{
    ConnectionPool, DatagramSocket, Endpoint, Fabric, ProtectionDomain, RecvRequest, SendRequest,
    Sge,
};
use sandbox::{CodePackage, SandboxType};
use sim_core::{SimDuration, SimTime, VirtualClock};
use state_plane::{StateClient, StateClientStats, StateError, StateKey, StatePlane, StateSpec};

use crate::client::{
    connection_is_lost, BatchStats, Buffer, ColdStartBreakdown, ConnectionPlaneStats, InlineWire,
    InvocationSpec, Posted, ReadyQueue, WorkerConnection,
};
use crate::codec::Codec;
use crate::config::{
    PollingMode, RFaasConfig, ALLOCATION_SUBMIT_COST, HEADER_WRITE_COST, STATE_CACHE_BYTES,
};
use crate::error::{RFaasError, Result};
use crate::executor::{AllocationPolicy, AllocationResult, ForkFaultState, SpotExecutor};
use crate::manager::ResourceManager;
use crate::protocol::{
    ControlFrame, ImmValue, InvocationHeader, Lease, LeaseRequest, ResultStatus,
    INVOCATION_HEADER_BYTES,
};
use crate::reactor::Reactor;

/// Smallest output buffer the typed layer registers when the caller gives no
/// explicit capacity: results at least as large as a small page are common
/// (echo-style functions return the input; most others return less), and a
/// floor keeps tiny inputs from allocating unusably small result buffers.
const MIN_OUTPUT_CAPACITY: usize = 4096;

/// Upper bound on buffer pairs the session's pool retains; beyond it, a
/// released pair is dropped — and, being the last holder of each buffer,
/// deregisters it — instead of cached.
const MAX_POOLED_PAIRS: usize = 64;

/// Maximum lease re-allocations one invocation will attempt before surfacing
/// the failure (guards against a platform that keeps handing out
/// instantly-dying leases).
const RECOVERY_BUDGET: u32 = 3;

/// Wall-clock deadline for establishing a worker connection and for the
/// executor's hello that follows. A peer that never answers surfaces a typed
/// timeout error instead of hanging the client forever.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Fluent builder for a [`Session`]: lease shape, sandbox, polling mode and
/// provisioning policy in one place.
#[derive(Debug, Clone)]
pub struct AllocationBuilder {
    fabric: Arc<Fabric>,
    client_node: String,
    manager: Arc<ResourceManager>,
    package: String,
    cores: u32,
    memory_mib: u64,
    sandbox: SandboxType,
    lease_timeout: Option<SimDuration>,
    mode: PollingMode,
    policy: AllocationPolicy,
    start_at: Option<SimTime>,
    reactor: Option<Reactor>,
    shared_clock: Option<Arc<VirtualClock>>,
    connection_pool: Option<ConnectionPool>,
    state_plane: Option<StatePlane>,
}

impl AllocationBuilder {
    /// Start building a session for `client_node` against `manager`,
    /// requesting the deployed code package `package`. Defaults: one worker,
    /// 512 MiB, bare-metal sandbox, hot polling, cold provisioning and the
    /// request default for lease timeout.
    pub(crate) fn new(
        fabric: &Arc<Fabric>,
        client_node: &str,
        manager: &Arc<ResourceManager>,
        package: &str,
    ) -> AllocationBuilder {
        AllocationBuilder {
            fabric: Arc::clone(fabric),
            client_node: client_node.to_string(),
            manager: Arc::clone(manager),
            package: package.to_string(),
            cores: 1,
            memory_mib: 512,
            sandbox: SandboxType::BareMetal,
            lease_timeout: None,
            mode: PollingMode::Hot,
            policy: AllocationPolicy::Cold,
            start_at: None,
            reactor: None,
            shared_clock: None,
            connection_pool: None,
            state_plane: None,
        }
    }

    /// The session reads nothing from `_config`: its payload limit comes
    /// from each worker's hello, its costs are the calibrated constants.
    pub fn config(self, _config: RFaasConfig) -> AllocationBuilder {
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

    /// How the leased workers wait for invocations: hot busy-polling (which
    /// demotes itself to warm after an idle gap) or warm blocking.
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
        let mut endpoint = Endpoint::new(&self.fabric, &self.fabric.add_node(&self.client_node));
        if let Some(clock) = self.shared_clock {
            endpoint = endpoint.with_clock(clock);
        }
        if let Some(at) = self.start_at {
            endpoint.clock.advance_to(at);
        }
        // Step 1: first contact with the resource manager rides the datagram
        // transport — a UD-style endpoint an order of magnitude cheaper to
        // set up than an RC connection. Bound once; re-allocations reuse it.
        let started = endpoint.clock.now();
        let control = DatagramSocket::bind(
            &endpoint,
            &format!(
                "rfaas-clt://{}/{}",
                self.client_node,
                endpoint.fabric.next_control_id()
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
            manager: self.manager,
            request,
            mode: self.mode,
            policy: self.policy,
            control,
            reactor: self.reactor.unwrap_or_default(),
            connection_pool: self.connection_pool.unwrap_or_default(),
            state_plane: self.state_plane,
            state_client: RefCell::new(None),
            active: RefCell::new(None),
            allocation_epoch: Cell::new(0),
            next_invocation: Cell::new(1),
            round_robin: Cell::new(0),
            connections_opened: Cell::new(0),
            recoveries: Cell::new(0),
            buffers: BufferPool::default(),
        };
        session.allocate(connect_to_manager)?;
        Ok(session)
    }
}

/// Pool of registered (input, output) buffer pairs reused across typed
/// invocations, so steady-state invocations never re-register memory.
#[derive(Default)]
struct BufferPool {
    free: RefCell<Vec<(Buffer, Buffer)>>,
}

impl BufferPool {
    fn acquire(
        &self,
        pd: &ProtectionDomain,
        input_capacity: usize,
        output_capacity: usize,
    ) -> (Buffer, Buffer) {
        let mut free = self.free.borrow_mut();
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
        let mut free = self.free.borrow_mut();
        if free.len() < MAX_POOLED_PAIRS {
            free.push(pair);
        }
    }
}

/// Everything a session holds while a lease is active. Kept in one cell so
/// the recovery path can swap the whole allocation (lease, executor,
/// connections) from `&self` while invocation futures are outstanding.
struct ActiveAllocation {
    /// Monotonic counter distinguishing successive allocations: a future
    /// observing its allocation die only triggers a re-allocation if the
    /// active epoch still matches what it used — otherwise an earlier
    /// recovery already replaced it and it just resubmits on the fresh
    /// connections.
    epoch: u64,
    lease: Lease,
    executor: Arc<SpotExecutor>,
    process_id: u64,
    package: CodePackage,
    connections: Vec<Rc<WorkerConnection>>,
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
///
/// Like the paper's invoker, a session is driven by one client thread: its
/// state sits in cells, not behind locks, and it is not `Send`.
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// fn hand_off(session: rfaas::Session) {
///     send(session);
/// }
/// ```
pub struct Session {
    /// The client's attachment to the fabric: node, virtual clock, and the
    /// protection domain every registration of the session lives in.
    endpoint: Endpoint,
    manager: Arc<ResourceManager>,
    /// What every allocation of the session asks for: the lease request,
    /// the workers' polling mode, and how the sandbox is provisioned.
    request: LeaseRequest,
    mode: PollingMode,
    policy: AllocationPolicy,
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
    state_client: RefCell<Option<StateClient>>,
    /// `None` only once a transparent re-allocation has failed.
    active: RefCell<Option<ActiveAllocation>>,
    allocation_epoch: Cell<u64>,
    next_invocation: Cell<u32>,
    round_robin: Cell<usize>,
    connections_opened: Cell<u64>,
    recoveries: Cell<u32>,
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
            .borrow()
            .as_ref()
            .is_some_and(|a| a.package.function_by_name(name).is_some());
        if !known {
            return Err(RFaasError::UnknownFunction(name.to_string()));
        }
        Ok(FunctionHandle {
            session: self,
            name: Rc::from(name),
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
        self.active.borrow().as_ref().map(|a| a.lease.clone())
    }

    /// Cold-start breakdown of the active allocation.
    pub fn cold_start(&self) -> Option<ColdStartBreakdown> {
        self.active.borrow().as_ref().map(|a| a.cold_start.clone())
    }

    /// One unified snapshot of the session's runtime counters: the
    /// connection plane, the fork fault state (when provisioned by
    /// [`AllocationPolicy::Fork`]), both sides of the state plane (when one
    /// is attached), worker count and transparent recoveries.
    pub fn stats(&self) -> SessionStats {
        let pool = self.connection_pool.stats();
        let active = self.active.borrow();
        let process = active
            .as_ref()
            .and_then(|a| a.executor.allocator().process(a.process_id));
        SessionStats {
            connections: ConnectionPlaneStats {
                connections_opened: self.connections_opened.get(),
                pool_hits: pool.hits,
                pool_misses: pool.misses,
                srq_depth_high_watermark: process
                    .as_ref()
                    .map_or(0, |p| p.srq_stats().depth_high_watermark),
            },
            fork: process.as_ref().and_then(|p| p.fork_state()),
            state_session: self.state_client.borrow().as_ref().map(StateClient::stats),
            state_executor: process.as_ref().and_then(|p| p.state_stats()),
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
        self.recoveries.get()
    }

    /// Renew the active lease: a manager round trip pushing the expiry to
    /// `now + extension` (charged at the lease-renewal processing cost), then
    /// the executor-side deadline update, so long-running clients keep their
    /// hot workers. Returns the new expiry instant.
    pub fn extend_lease(&self, extension: SimDuration) -> Result<SimTime> {
        let (lease_id, executor) = {
            let active = self.active.borrow();
            let active = active.as_ref().ok_or(RFaasError::NotAllocated)?;
            (active.lease.id, Arc::clone(&active.executor))
        };
        // Submitting the renewal request costs the same as submitting an
        // allocation; the manager then charges its processing cost.
        self.clock().advance(ALLOCATION_SUBMIT_COST);
        let renewed = self
            .manager
            .renew_lease(lease_id, extension, self.clock())?;
        if executor
            .allocator()
            .extend_lease(lease_id, renewed.expires_at)
            == 0
        {
            // The executor process is already gone (reaped after its lease
            // expired, or its node failed): the manager-side renewal
            // succeeded but there is no worker left to keep hot. Surface it
            // so the caller re-allocates instead of invoking into a dead
            // connection.
            return Err(RFaasError::ExecutorLost(renewed.executor_node));
        }
        if let Some(active) = self.active.borrow_mut().as_mut() {
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
            .borrow()
            .as_ref()
            .map_or(0, |a| a.connections.len())
    }

    /// Epoch of the current allocation (0 when none is active).
    fn current_epoch(&self) -> u64 {
        self.active.borrow().as_ref().map_or(0, |a| a.epoch)
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
        self.clock().advance(ALLOCATION_SUBMIT_COST);
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

        let epoch = self.allocation_epoch.get() + 1;
        self.allocation_epoch.set(epoch);
        let fresh = ActiveAllocation {
            epoch,
            lease,
            executor,
            process_id: allocation.process_id,
            package: allocation.package,
            connections,
            cold_start: breakdown,
        };
        *self.active.borrow_mut() = Some(fresh);
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
        let reply = self.control.recv()?;
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
        self.clock().advance(allocation.spawn.total());
        breakdown.spawn_workers = self.clock().now().saturating_since(t2);
        let t3 = self.clock().now();
        self.clock().advance(allocation.code_submission);
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
        connections: &mut Vec<Rc<WorkerConnection>>,
    ) -> Result<()> {
        let t4 = self.clock().now();
        self.connect_workers(&allocation.workers, &lease.executor_node, connections)?;
        breakdown.connect_to_workers = self.clock().now().saturating_since(t4);

        if let Some(plane) = &self.state_plane {
            let mut state_client = self.state_client.borrow_mut();
            if state_client.is_none() {
                *state_client = Some(plane.attach(
                    self.endpoint.node.name(),
                    &self.endpoint.node,
                    self.clock(),
                    STATE_CACHE_BYTES,
                ));
            }
            drop(state_client);
            let exec_client = plane.attach(
                &format!("{}-exec", lease.executor_node),
                executor.node(),
                executor.allocator().clock(),
                STATE_CACHE_BYTES,
            );
            executor
                .allocator()
                .process(allocation.process_id)
                .ok_or(RFaasError::UnknownLease(allocation.process_id))?
                .attach_state_client(exec_client);
        }
        Ok(())
    }

    fn connect_workers(
        &self,
        addresses: &[String],
        pool_key: &str,
        connections: &mut Vec<Rc<WorkerConnection>>,
    ) -> Result<()> {
        for (index, address) in addresses.iter().enumerate() {
            let connection = Rc::new(WorkerConnection::connect(
                &self.endpoint,
                address,
                &self.connection_pool,
                pool_key,
                CONNECT_TIMEOUT,
                index,
            )?);
            self.connections_opened
                .set(self.connections_opened.get() + 1);
            // Register with the reactor before the connection can carry an
            // invocation: every result on this ring is picked up by the
            // shared event loop.
            self.reactor.register_source(connection.clone());
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
    /// If the active allocation has already moved past it (a future of that
    /// older allocation asks after another one recovered), this is a no-op —
    /// the caller just resubmits on the fresh connections instead of
    /// destroying them.
    fn recover(&self, observed_epoch: u64) -> Result<()> {
        if self
            .active
            .borrow()
            .as_ref()
            .is_some_and(|a| a.epoch != observed_epoch)
        {
            return Ok(());
        }
        self.deallocate();
        self.allocate(SimDuration::ZERO)?;
        self.recoveries.set(self.recoveries.get() + 1);
        Ok(())
    }

    fn deallocate(&self) {
        let active = self.active.borrow_mut().take();
        if let Some(active) = active {
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
        connections: &[Rc<WorkerConnection>],
    ) {
        for conn in connections {
            conn.qp.disconnect();
            self.reactor.unregister_source(&**conn);
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
type Resolved = (u8, Rc<WorkerConnection>, u64);

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
        // an earlier recovery brought up is detected as a newer epoch and
        // reused, never destroyed.
        let observed_epoch = self.current_epoch();
        match attempt() {
            Err(cause) if connection_is_lost(&cause) => {
                self.recover_then(observed_epoch, RECOVERY_BUDGET, cause, attempt)
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
            // Whatever allocation is live now (ours or an earlier recovery's)
            // is the one the next attempt must observe failing.
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

    /// Post a completion set's wave of queued entries behind one doorbell,
    /// each into its own entry: every spec is resolved and capacity-checked
    /// *before* the first WQE is built, then every WQE is built
    /// back-to-back on the chained path
    /// ([`rdma_fabric::QueuePair::post_send_batch`] semantics, spanning the
    /// per-worker queue pairs of one NIC), so only the first submission pays
    /// the full issue cost. A post that still fails mid-batch (a lost
    /// connection, or a device limit such as an exhausted receive queue)
    /// reaps the already-posted invocations and queues their entries again
    /// before the error surfaces, so no in-flight slot or undrained
    /// completion outlives the failed attempt.
    fn post_batch<O: Codec + ?Sized>(&self, wave: &mut [Entry<'_, O>]) -> Result<BatchStats> {
        for entry in wave.iter() {
            let Entry::Queued(spec, _) = entry else {
                unreachable!("a wave posts queued entries");
            };
            self.resolve_spec(spec)?;
        }
        let started = self.clock().now();
        for i in 0..wave.len() {
            let Entry::Queued(spec, posted) = &mut wave[i] else {
                unreachable!("a wave posts queued entries");
            };
            match self
                .resolve_spec(spec)
                .and_then(|r| self.post(spec, r, i > 0))
            {
                Ok(p) => *posted = Some(p),
                Err(e) => {
                    // The earlier posts of this attempt already executed.
                    // Wait their completions out (discarding the results) so
                    // their slots and ring slots are returned. A connection
                    // that died has nothing left to drain; await_result's
                    // error says exactly that and is safe to ignore.
                    for entry in &mut wave[..i] {
                        if let Entry::Queued(_, posted) = entry {
                            let posted = posted.take().expect("the wave posted it");
                            let _ = self.await_result(&posted);
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(BatchStats {
            submissions: wave.len(),
            doorbells: 1,
            chained_wqes: wave.len().saturating_sub(1),
            post_time: self.clock().now().saturating_since(started),
        })
    }

    /// Resolve a spec against the active allocation, plus the wire-capacity
    /// checks that must precede any posting.
    fn resolve_spec(&self, spec: &InvocationSpec) -> Result<Resolved> {
        let (function_index, connection, epoch) = {
            let active = self.active.borrow();
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
                .ok_or_else(|| RFaasError::UnknownFunction(spec.function.to_string()))?;
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

    fn pick_connection(&self, connections: &[Rc<WorkerConnection>]) -> Rc<WorkerConnection> {
        // Prefer an idle worker; otherwise round-robin over all of them.
        let start = self.round_robin.get();
        self.round_robin.set(start.wrapping_add(1));
        let n = connections.len();
        for i in 0..n {
            let conn = &connections[(start + i) % n];
            if conn.slots().len() == 0 {
                return Rc::clone(conn);
            }
        }
        Rc::clone(&connections[start % n])
    }

    /// Post `spec` on its resolved connection under a fresh invocation id,
    /// and reserve its slot there once the post succeeded. The count of
    /// slots before it tells whether this submission still fits the ring.
    fn post(&self, spec: &InvocationSpec, resolved: Resolved, chained: bool) -> Result<Posted> {
        let (function_index, connection, epoch) = resolved;
        let next = self.next_invocation.get();
        self.next_invocation.set(next.wrapping_add(1));
        let invocation_id = next & 0x00FF_FFFF;
        let in_flight = connection.slots().len();
        self.post_invocation(
            &connection,
            invocation_id,
            in_flight,
            function_index,
            spec,
            chained,
        )?;
        connection.slots().reserve(invocation_id);
        Ok(Posted {
            connection,
            invocation_id,
            epoch,
        })
    }

    /// Put one invocation on the wire: the overflow receive when the
    /// invocations already in flight on the connection (`in_flight`) fill
    /// the ring, then header + payload — inline when the spec holds an
    /// inline wire, buffered otherwise. A `chained` post joins the
    /// WQE chain opened by the previous post of the batch (descriptor build
    /// only, no doorbell) and always takes the buffered path, since inline
    /// WQEs cannot join a chain that spans queue pairs: an inline wire is
    /// then staged whole into the input region.
    fn post_invocation(
        &self,
        connection: &WorkerConnection,
        invocation_id: u32,
        in_flight: usize,
        function_index: u8,
        spec: &InvocationSpec,
        chained: bool,
    ) -> Result<()> {
        // Payload-vs-capacity bounds were already enforced by resolve_spec
        // (every caller resolves before posting), so the spec is trusted
        // here.
        let input = &spec.input;

        // The connection's receive ring holds one pre-posted slot per
        // in-flight result; only past the ring depth does a submission pay an
        // extra receive on the critical path.
        if in_flight >= connection.ring.depth() {
            connection.qp.post_recv(RecvRequest {
                wr_id: u64::MAX,
                local: Sge::whole(&connection.overflow_scratch),
            })?;
        }

        let wire_len = INVOCATION_HEADER_BYTES + spec.payload_len;
        // Fill the header in front of the payload: where the executor should
        // write the result.
        self.clock().advance(HEADER_WRITE_COST);
        let header = InvocationHeader::for_result_buffer(&spec.output.remote_handle()).encode();
        let imm = ImmValue::request(invocation_id, function_index);
        match spec.inline.map(|wire| wire.with_header(&header)) {
            // Zero-copy hot path (Sec. IV-A): header and payload ride inside
            // the WQE — no staging write into the input region, no DMA
            // fetch, no heap allocation (the wire is built on the stack).
            Some(wire) if !chained => connection.qp.post_write_inline(
                invocation_id as u64,
                wire.as_bytes(),
                &connection.remote_input.slice(0, wire_len),
                Some(imm),
                false,
            )?,
            staged => {
                // Buffered path: stage the header in front of the payload
                // (or the whole inline wire) and gather both from the
                // registered input region.
                let staged = staged.as_ref().map_or(&header[..], InlineWire::as_bytes);
                input.stage_wire(staged, wire_len)?;
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
        }
        Ok(())
    }

    /// Drive the reactor until `posted`'s result lands on its connection,
    /// then take it, which settles `posted`. Every wait path funnels through
    /// here: the turn pumps *all* registered connections, so one wait keeps
    /// every other in-flight invocation moving too, and while the reactor is
    /// idle the wait turns the fabric's actors — the executor dispatchers
    /// serve the invocation on this thread.
    fn await_result(&self, posted: &Posted) -> Result<(usize, ResultStatus)> {
        let mut outcome = None;
        self.endpoint.fabric.run_until(
            || {
                outcome = self.poll_result(posted);
                outcome.is_some()
            },
            Duration::MAX,
        );
        outcome.expect("an unbounded wait returns only once its outcome is known")
    }

    /// One look for `posted`'s result without waiting: take it if landed,
    /// otherwise turn the reactor until it stops making progress. `None`
    /// while the invocation is still in flight.
    fn poll_result(&self, posted: &Posted) -> Option<Result<(usize, ResultStatus)>> {
        let (connection, invocation_id) = (&posted.connection, posted.invocation_id);
        loop {
            if let Some(result) = connection.slots().take(invocation_id) {
                return Some(Ok(result));
            }
            if self.reactor.turn() == 0 {
                break;
            }
        }
        // The final (empty) drain has run, so a dead connection can never
        // produce this result any more.
        (!connection.qp.is_connected()).then(|| {
            Err(RFaasError::ExecutorLost(format!(
                "worker {}",
                connection.index
            )))
        })
    }
}

#[cfg(test)]
impl Session {
    /// Live registrations in the session's protection domain.
    pub(crate) fn registered_regions(&self) -> usize {
        self.endpoint.pd.region_count()
    }

    /// The active allocation's connection to worker `index`.
    pub(crate) fn connection(&self, index: usize) -> Rc<WorkerConnection> {
        let active = self.active.borrow();
        Rc::clone(&active.as_ref().expect("allocated").connections[index])
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
    pub fork: Option<ForkFaultState>,
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
        match self.session.state_client.borrow_mut().as_mut() {
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
    /// cache keeps a span for the value, so a following `get` is a local
    /// hit, filled from the owner's arena on that first read).
    pub fn put(&self, key: &str, value: &[u8]) -> Result<()> {
        self.with_client(|c| c.put(key, value))
    }

    /// Read `key` into an owned vector (hot keys come straight out of the
    /// local cache; cold keys pay one one-sided RDMA read).
    pub fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.with_client(|c| c.get(key))
    }

    /// Delete `key`; returns whether it existed.
    pub fn delete(&self, key: &str) -> Result<bool> {
        self.with_client(|c| c.delete(key))
    }

    /// Session-side cache counters (`None` without a state plane).
    pub fn stats(&self) -> Option<StateClientStats> {
        self.session
            .state_client
            .borrow()
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
    /// Shared with every spec the handle builds: a submit copies no name.
    name: Rc<str>,
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
            name: Rc::clone(&self.name),
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
        let active = session.active.borrow();
        let active = active.as_ref().ok_or(RFaasError::NotAllocated)?;
        active
            .executor
            .allocator()
            .process(active.process_id)
            .ok_or(RFaasError::UnknownLease(active.process_id))?
            .bind_state_spec(&self.name, spec)?;
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
        let inline = InlineWire::encode(input)?;
        if inline.is_none() {
            input_buffer.write_encoded(input)?;
        }
        Ok(InvocationSpec {
            worker,
            function: Rc::clone(&self.name),
            input: input_buffer,
            payload_len,
            inline,
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
        let inputs = inputs.into_iter();
        let mut entries = Vec::with_capacity(inputs.size_hint().0);
        for (index, input) in inputs.enumerate() {
            let spec = self.spec_for(Some(index % workers), input)?;
            entries.push(Entry::Queued(spec, None));
        }
        let ready = VecDeque::with_capacity(workers.min(entries.len()));
        let mut set = CompletionSet {
            entries,
            next_wave: 0,
            wave: workers,
            session: self.session,
            stats: BatchStats::default(),
            ready: Rc::new(RefCell::new(ready)),
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
///
/// Dropping a future without waiting gives its in-flight slot back: a result
/// already picked up is discarded at once, one still on the wire when a
/// later reactor turn picks it up.
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

impl<O: ?Sized> Drop for TypedFuture<'_, O> {
    fn drop(&mut self) {
        let posted = &self.posted;
        posted
            .connection
            .slots()
            .abandon(posted.invocation_id, &self.spec.output);
    }
}

impl<O: ?Sized> TypedFuture<'_, O> {
    /// Whether the future's connection is gone (its result can never land;
    /// only a blocking wait — which runs recovery — resolves it).
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
    /// invocation's buffers to the session pool — whatever the outcome, once
    /// nothing is left in flight: a failed function or an undecodable result
    /// frees its buffers as a success does. An unsettled invocation's result
    /// buffer is the connection's to park until its result lands.
    pub fn wait(mut self) -> Result<O::Owned> {
        let value = self
            .result_len()
            .and_then(|len| self.spec.output.read_decoded::<O>(len));
        let posted = &self.posted;
        if posted.connection.slots().is_settled(posted.invocation_id) {
            let pair = (self.spec.input.clone(), self.spec.output.clone());
            self.session.buffers.release(pair);
        }
        value
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
        let budget = RECOVERY_BUDGET.saturating_sub(self.recoveries);
        let (session, spec) = (self.session, &self.spec);
        let (posted, used) =
            session.recover_then(self.posted.epoch, budget, cause, || session.post_spec(spec))?;
        self.posted = posted;
        self.recoveries += used;
        Ok(())
    }
}

/// One input of a [`CompletionSet`], through its life: queued for a later
/// wave, in flight, then gathered — into the entry
/// itself while [`CompletionSet::wait_all`] collects the set.
enum Entry<'s, O: Codec + ?Sized> {
    /// Queued, and posted (`Some`) once its wave has posted it: the entry
    /// goes in flight when the whole wave is on the wire, and a wave that
    /// fails waits its posts out and clears them.
    Queued(InvocationSpec, Option<Posted>),
    InFlight(TypedFuture<'s, O>),
    Done(O::Owned),
    Gathered,
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
pub struct CompletionSet<'s, O: Codec + ?Sized> {
    /// One entry per input, in submission order.
    entries: Vec<Entry<'s, O>>,
    /// First entry of the next wave: the entries before it are in flight or
    /// gathered, the ones from it on are queued.
    next_wave: usize,
    /// Submissions per wave (= the session's worker count at scatter time).
    wave: usize,
    session: &'s Session,
    stats: BatchStats,
    /// Entry indices whose results have landed, in completion order: each
    /// in-flight entry's slot on its connection pushes its index here when
    /// the result lands, so `wait_any` pops this queue instead of
    /// rescanning every entry.
    ready: ReadyQueue,
}

impl<O: Codec + ?Sized> std::fmt::Debug for CompletionSet<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSet")
            .field("pending", &self.pending())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<O: Codec + ?Sized> CompletionSet<'_, O> {
    /// Number of invocations not yet gathered (in flight or queued for a
    /// later wave).
    fn pending(&self) -> usize {
        self.in_flight() + self.entries.len() - self.next_wave
    }

    /// Number of invocations in flight: all of them are in the wave posted
    /// last.
    fn in_flight(&self) -> usize {
        let wave = self.next_wave.saturating_sub(self.wave)..self.next_wave;
        let in_flight = |e: &&Entry<'_, O>| matches!(e, Entry::InFlight(_));
        self.entries[wave].iter().filter(in_flight).count()
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
    /// re-allocations that took. A wave that fails to post is dropped with
    /// the error. No-op while the current wave still has in-flight entries —
    /// a worker's single input slot must be free before the next write to
    /// it.
    fn submit_next_wave(&mut self) -> Result<()> {
        if self.next_wave == self.entries.len() || self.in_flight() > 0 {
            return Ok(());
        }
        let wave = self.next_wave..(self.next_wave + self.wave).min(self.entries.len());
        self.next_wave = wave.end;
        let session = self.session;
        let entries = &mut self.entries[wave.clone()];
        let (stats, recoveries) = session.submit_with_recovery(|| session.post_batch(entries))?;
        for (index, entry) in wave.zip(entries) {
            let Entry::Queued(spec, Some(posted)) = std::mem::replace(entry, Entry::Gathered)
            else {
                unreachable!("a wave posts every entry");
            };
            // Before the reactor turns again, so the result cannot land
            // without notifying the set.
            posted
                .connection
                .slots()
                .notify(posted.invocation_id, &self.ready, index);
            *entry = Entry::InFlight(TypedFuture {
                session,
                spec,
                posted,
                redirections: 0,
                recoveries,
                _typed: PhantomData,
            });
        }
        self.stats.submissions += stats.submissions;
        self.stats.doorbells += stats.doorbells;
        self.stats.chained_wqes += stats.chained_wqes;
        self.stats.post_time += stats.post_time;
        Ok(())
    }
}

impl<'s, O> CompletionSet<'s, O>
where
    O: Codec + ?Sized,
{
    /// Gather the in-flight entry `index`: wait its future out.
    fn gather(&mut self, index: usize) -> Result<Option<(usize, O::Owned)>> {
        match std::mem::replace(&mut self.entries[index], Entry::Gathered) {
            Entry::InFlight(future) => Ok(Some((index, future.wait()?))),
            _ => unreachable!("a landed result notifies its set once"),
        }
    }

    /// Wait for the next available result, in completion order: each
    /// finished invocation's slot pushes its index onto the set's ready
    /// queue as the reactor lands it, so a gather is O(1) instead of a
    /// rescan of every entry. If nothing is ready the reactor is driven
    /// until something completes. Once a wave is fully gathered the next
    /// queued wave posts. Returns the submission index with the decoded
    /// result, or `None` once everything has been gathered.
    pub fn wait_any(&mut self) -> Result<Option<(usize, O::Owned)>> {
        self.submit_next_wave()?;
        loop {
            // Results that already landed, oldest first.
            let hint = self.ready.borrow_mut().pop_front();
            if let Some(index) = hint {
                return self.gather(index);
            }
            if self.in_flight() == 0 {
                return Ok(None);
            }
            // Nothing landed yet: drive the shared event loop. An empty
            // sweep can also mean a connection died (its result will never
            // land) — fall back to a blocking gather on the first such
            // entry, whose wait() runs the transparent recovery path.
            if self.session.reactor.turn() > 0 {
                continue;
            }
            if let Some(index) = self.lost_entry() {
                return self.gather(index);
            }
            // Idle: the executor side has not served yet. Turn the fabric's
            // actors on this thread until the reactor has something.
            let reactor = &self.session.reactor;
            self.session.endpoint.fabric.run_until(
                || reactor.turn() > 0 || self.lost_entry().is_some(),
                Duration::MAX,
            );
        }
    }

    /// The first in-flight entry whose connection died.
    fn lost_entry(&self) -> Option<usize> {
        let lost = |e: &Entry<'_, O>| matches!(e, Entry::InFlight(f) if f.connection_lost());
        self.entries.iter().position(lost)
    }

    /// Wait for every still-pending result, returned in submission order
    /// (results already gathered through [`CompletionSet::wait_any`] are not
    /// repeated).
    pub fn wait_all(mut self) -> Result<Vec<O::Owned>> {
        let mut values = Vec::with_capacity(self.pending());
        while let Some((index, value)) = self.wait_any()? {
            self.entries[index] = Entry::Done(value);
        }
        values.extend(self.entries.drain(..).filter_map(|entry| match entry {
            Entry::Done(value) => Some(value),
            _ => None,
        }));
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SpotExecutor;
    use cluster_sim::NodeResources;
    use sandbox::{echo_function, CodePackage, FunctionError, FunctionRegistry, SharedFunction};

    fn platform(cores: u32) -> (Arc<Fabric>, Arc<ResourceManager>, Session) {
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(
            CodePackage::minimal("pkg")
                .with_function(echo_function())
                .with_function(SharedFunction::from_fn("always-fails", |_, _| {
                    Err(FunctionError::ExecutionFailed("intentional".into()))
                })),
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
    fn control_ids_count_per_fabric() {
        let (fabric_a, manager_a, first) = platform(2);
        let second = Session::builder(&fabric_a, "client-1", &manager_a, "pkg")
            .connect()
            .unwrap();
        assert_eq!(first.control.address(), "rfaas-clt://client-0/1");
        assert_eq!(second.control.address(), "rfaas-clt://client-1/2");
        // A fresh fabric numbers its control sockets from 1 again, however
        // many sessions the process opened before.
        let (_f, _m, fresh) = platform(1);
        assert_eq!(fresh.control.address(), "rfaas-clt://client-0/1");
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
    fn a_wave_failing_mid_post_waits_out_its_earlier_posts_and_replays() {
        let (_f, _m, session) = platform(2);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let (first, second) = {
            let active = session.active.borrow();
            let connections = &active.as_ref().unwrap().connections;
            (Rc::clone(&connections[0]), Rc::clone(&connections[1]))
        };
        // Worker 0's post goes out, worker 1's finds its connection gone.
        second.qp.disconnect();
        let inputs: Vec<Vec<u8>> = (0..2u8).map(|i| vec![i + 1; 16]).collect();
        let results = echo
            .map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap()
            .wait_all()
            .unwrap();
        // The wave replays whole on a fresh allocation, after waiting out
        // the post that went out on the old one.
        assert_eq!(results, inputs);
        assert_eq!(session.recoveries(), 1);
        assert_eq!(first.slots().len(), 0);
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
            .starting_at(start)
            .connect()
            .unwrap();
        assert_eq!(session.stats().workers, 2);
        let lease = session.lease().unwrap();
        assert_eq!(lease.cores, 2);
        assert_eq!(lease.memory_mib, 2048);
        assert!(session.clock().now() >= start);
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
        assert_eq!(session.buffers.free.borrow().len(), 1);
        // Same-size invocation reuses the pooled pair instead of growing it.
        echo.invoke(&[2u8; 100][..]).unwrap();
        assert_eq!(session.buffers.free.borrow().len(), 1);
        // A larger invocation allocates a second pair.
        echo.invoke(&vec![3u8; 100_000][..]).unwrap();
        assert_eq!(session.buffers.free.borrow().len(), 2);
    }

    #[test]
    fn failed_invocations_return_their_buffers_to_the_pool() {
        let (_f, _m, session) = platform(1);
        let failing = session.function::<[u8], [u8]>("always-fails").unwrap();
        assert!(matches!(
            failing.invoke(&[1u8; 100][..]),
            Err(RFaasError::Function(_))
        ));
        assert_eq!(session.buffers.free.borrow().len(), 1);
        // The next submission takes the pooled pair: nothing is registered.
        let registered = session.registered_regions();
        assert!(failing.invoke(&[2u8; 100][..]).is_err());
        assert_eq!(session.registered_regions(), registered);
        assert_eq!(session.buffers.free.borrow().len(), 1);
        // A result that does not decode frees its pair too.
        let ragged = session.function::<[u8], [f64]>("echo").unwrap();
        assert!(matches!(
            ragged.invoke(&[3u8; 7][..]),
            Err(RFaasError::Codec(_))
        ));
        assert_eq!(session.buffers.free.borrow().len(), 1);
        assert_eq!(session.registered_regions(), registered);
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

    proptest::proptest! {
        // Results that the client takes out of its buffer — a page or more,
        // handed over by the executor or copied — and small ones it decodes
        // in place, through both codecs in random order on one session: each
        // is its own payload (no stale bytes from a longer result before it,
        // no tail past its length), and every buffer registered for them is
        // gone once the session closes.
        #[test]
        fn prop_large_results_round_trip(script in 0u64..u64::MAX) {
            const MIB: usize = 1 << 20;
            let mut rng = proptest::TestRng::new(script);
            let (_f, _m, session) = platform(1);
            let pd = session.endpoint.pd.clone();
            let bytes = session.function::<[u8], [u8]>("echo").unwrap();
            let floats = session.function::<[f64], [f64]>("echo").unwrap();
            for step in 0..1 + rng.below(4) {
                let around = |rng: &mut proptest::TestRng, centre: usize, spread: u64| {
                    centre - spread as usize + rng.below(2 * spread + 1) as usize
                };
                let len = match rng.below(3) {
                    0 => around(&mut rng, rdma_fabric::PAGE_SIZE, 64),
                    1 => around(&mut rng, MIB, 4096),
                    _ => 64,
                };
                let salt = rng.next_u64();
                if rng.below(2) == 0 {
                    let payload: Vec<u8> = (0..len).map(|i| (i as u64 ^ salt) as u8 | 1).collect();
                    proptest::prop_assert_eq!(bytes.invoke(&payload[..]).unwrap(), payload, "step {}", step);
                } else {
                    let payload: Vec<f64> = (0..len / 8).map(|i| (i as u64 ^ salt) as f64 + 0.5).collect();
                    proptest::prop_assert_eq!(floats.invoke(&payload[..]).unwrap(), payload, "step {}", step);
                }
            }
            // The domain was empty before the session registered anything
            // in it, and is again once the session is gone.
            session.close().unwrap();
            proptest::prop_assert_eq!(pd.region_count(), 0);
        }
    }
}

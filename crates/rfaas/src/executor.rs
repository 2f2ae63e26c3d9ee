//! Spot executors: lightweight allocator, executor processes and workers.
//!
//! A *spot executor* offers the idle cores and memory of one node to rFaaS
//! (Sec. III-A). Its *lightweight allocator* accepts allocation requests tied
//! to a lease, spawns an isolated *executor process* (sandbox) with one
//! worker per requested core, and accounts resource consumption. Each
//! *worker* owns its RDMA queue pair and completion queue, serves one client
//! connection, and switches between hot (busy-polling) and warm (blocking)
//! invocation handling.
//!
//! Workers are not threads, and neither is the process: one *dispatcher* per
//! executor process registers every worker's receive CQ in a
//! [`rdma_fabric::CqSet`] and serves all of them from one completion-driven
//! turn — accepting client connections, draining the multiplexed CQs in
//! deterministic registration order, and billing each pickup on the owning
//! worker's virtual clock according to that worker's polling mode (busy-poll
//! pickup for hot workers, notification serialisation + wake-up for warm
//! ones). The dispatcher is an [`rdma_fabric::Actor`] on the fabric: whichever
//! host thread waits on one of its workers — a client connecting, expecting
//! the hello, or expecting a result — turns it through
//! [`rdma_fabric::Fabric::run_until`]. The hot/warm cost split and the
//! retrospective hot→warm demotion accounting stay exactly as a
//! thread-per-worker executor would charge them.
//!
//! The dispatcher is also the one owner of whatever changes after spawn,
//! each fact in one record behind its single lock: each worker's lifecycle
//! (listening → greeting → serving → retired, the connection living in the
//! middle two), mode, counters and clock; the worker holding each leased
//! core; the lease deadline; a forked child's fault state; and the sandbox.
//! The [`ExecutorProcess`] the allocator keeps is an immutable descriptor
//! pointing at it, and its methods are how the session reads and binds one
//! process once [`LightweightAllocator`] has looked it up.

use std::collections::BTreeMap;
use std::sync::Arc;

use cluster_sim::NodeResources;
use rdma_fabric::{
    AccessFlags, Actor, CqSet, DeviceFunction, Endpoint, Fabric, FabricNode, Listener, OwnedRegion,
    QueuePair, ReceiveRing, SendRequest, Sge, SharedReceiveQueue, SrqStats, WorkCompletion,
    CX5_100G, PAGE_SIZE,
};
#[cfg(test)]
use sandbox::SandboxType;
use sandbox::{
    CodePackage, FaultTracker, FunctionError, FunctionOutcome, FunctionRegistry, ImageRegistry,
    Sandbox, SandboxSnapshot, SharedFunction, SpawnBreakdown, StateAccess, WarmPool,
    SNAPSHOT_PAGE_BYTES,
};
use sim_core::sync::{ranks, OrderedMutex, OrderedMutexGuard};
use sim_core::{SimDuration, SimTime, VirtualClock};
use state_plane::{
    StateClient, StateClientStats, StateError, StateKey, StateMode, StateSpec, StateValues,
};

use crate::billing::{BillingClient, UsageRecord};
use crate::config::{
    PollingMode, RFaasConfig, DISPATCH_COST, FORK_PREFETCH_WINDOW, HOT_POLL_TIMEOUT,
    RECV_QUEUE_DEPTH,
};
use crate::error::{RFaasError, Result};
use crate::protocol::{ImmValue, InvocationHeader, Lease, ResultStatus, INVOCATION_HEADER_BYTES};

/// How the allocator provisions the sandbox of a new executor process — the
/// client-visible knob spanning the cold-start spectrum's new fork tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationPolicy {
    /// Always pay the full sandbox spawn (the paper's baseline).
    #[default]
    Cold,
    /// Fork from a parked warm parent's snapshot when one exists: µs-scale
    /// setup, pages fault in over one-sided RDMA reads during the first
    /// invocations. Falls back to a cold spawn on a pool miss.
    Fork,
    /// Resume a parked warm parent outright (the parent leaves the pool):
    /// no faults, but one parent serves one allocation. Falls back to a
    /// cold spawn on a pool miss.
    WarmPool,
}

/// One batch of a forked child's fault schedule: `pages` consecutive pages
/// starting at `start_page`, served by a single chained one-sided READ from
/// the parent node costing `cost` on the evaluation NIC
/// ([`rdma_fabric::NicProfile::fork_read_cost`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBatch {
    /// First page of the window.
    pub start_page: usize,
    /// Pages fetched by this batch.
    pub pages: usize,
    /// Link cost of the batch on the evaluation NIC.
    pub cost: SimDuration,
}

/// Fault state of one forked executor process, owned by its dispatcher: the
/// parent snapshot's page map, faulted in over one-sided RDMA reads one
/// prefetch window (`FORK_PREFETCH_WINDOW` pages, ascending) per served
/// invocation until the child is fully resident. A session's
/// [`crate::SessionStats`] carries a snapshot of it.
#[derive(Debug, Clone)]
pub struct ForkFaultState {
    tracker: FaultTracker,
    /// The batches served so far, in service order.
    served: Vec<FaultBatch>,
}

impl ForkFaultState {
    fn new(snapshot: &SandboxSnapshot) -> ForkFaultState {
        ForkFaultState {
            tracker: FaultTracker::for_snapshot(snapshot),
            served: Vec::new(),
        }
    }

    /// Serve the next prefetch window, if any pages are still cold: returns
    /// the batch (pages + link cost) the invocation must absorb.
    fn serve_next(&mut self) -> Option<FaultBatch> {
        let (start_page, pages) = self.tracker.fault_next_window(FORK_PREFETCH_WINDOW)?;
        let batch = FaultBatch {
            start_page,
            pages,
            cost: CX5_100G.fork_read_cost(pages, SNAPSHOT_PAGE_BYTES),
        };
        self.served.push(batch);
        Some(batch)
    }

    /// Pages in the parent snapshot's page map.
    pub fn total_pages(&self) -> usize {
        self.tracker.total_pages()
    }

    /// Pages faulted in so far.
    pub fn pages_faulted(&self) -> usize {
        self.tracker.faulted_count()
    }

    /// Whether the child is fully resident (steady state: no more fault
    /// latency on invocations).
    pub fn is_complete(&self) -> bool {
        self.tracker.is_complete()
    }

    /// The fault batches served so far, in service order — the child's
    /// fault schedule.
    pub fn fault_schedule(&self) -> Vec<FaultBatch> {
        self.served.clone()
    }
}

/// Executor-side attachment to a state plane: one caching [`StateClient`]
/// per executor process, plus the per-function key declarations registered
/// at bind time. The dispatcher resolves a function's declared keys into the
/// client's pre-registered cache before dispatch, runs the function over a
/// window that *borrows* them from that cache, and writes dirty read-write
/// keys back after completion, so the function body itself never takes a
/// control-plane round trip and a cache-hit read moves no value bytes.
pub(crate) struct ExecutorStateBinding {
    client: StateClient,
    specs: BTreeMap<String, StateSpec>,
}

impl std::fmt::Debug for ExecutorStateBinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorStateBinding")
            .field("client", &self.client)
            .field("functions", &self.specs.len())
            .finish()
    }
}

impl ExecutorStateBinding {
    fn new(client: StateClient) -> ExecutorStateBinding {
        ExecutorStateBinding {
            client,
            specs: BTreeMap::new(),
        }
    }

    /// Register (or replace) the declared key set of `function`.
    fn bind(&mut self, function: &str, spec: StateSpec) {
        self.specs.insert(function.to_string(), spec);
    }

    /// Run the stateful `function` over the keys it declared. The window
    /// borrows every value from the cache region (the caller holds the
    /// dispatcher lock, which serialises the cache for the whole invocation); a
    /// key deleted since bind time reads empty, exactly as a first writer
    /// would see it. Dirty read-write keys are pushed back to the plane in
    /// declaration order once the function succeeded and the borrowed view
    /// is gone; a failing function leaves cache and plane untouched.
    fn invoke(
        &mut self,
        function: &SharedFunction,
        input: &[u8],
        output: &mut [u8],
    ) -> FunctionOutcome {
        let state_error =
            |e: StateError| FunctionError::StateAccess(RFaasError::StatePlane(e).to_string());
        let keys = self
            .specs
            .get(function.name())
            .map_or(&[][..], StateSpec::keys);
        let names = keys.iter().map(|key| key.name.as_str());
        let (outcome, written) = self
            .client
            .get_many_with(names, |values| {
                let mut window = StateWindow {
                    keys,
                    values,
                    written: Vec::new(),
                };
                let outcome = function.invoke_stateful(input, &mut window, output);
                (outcome, window.written)
            })
            .map_err(state_error)?;
        let produced = outcome?;
        for (key, bytes) in keys.iter().zip(written) {
            if let Some(bytes) = bytes {
                self.client.put(&key.name, &bytes).map_err(state_error)?;
            }
        }
        Ok(produced)
    }
}

/// The `StateAccess` window handed to one stateful invocation: reads borrow
/// the declared keys' values where the state client cached them, the first
/// `write()` of a read-write key copies its value into an overlay that is
/// written back after completion, and any access outside the declared set
/// (or a write to a read-only key) fails the invocation.
struct StateWindow<'a> {
    keys: &'a [StateKey],
    values: StateValues<'a>,
    /// Copy-on-write overlay, one slot per declared key — sized on the first
    /// write, so a read-only invocation allocates nothing.
    written: Vec<Option<Vec<u8>>>,
}

impl<'a> StateWindow<'a> {
    fn index_of(&self, key: &str) -> std::result::Result<usize, FunctionError> {
        self.keys.iter().position(|k| k.name == key).ok_or_else(|| {
            FunctionError::StateAccess(format!("key '{key}' was not declared via with_state"))
        })
    }

    fn committed(&self, index: usize) -> &'a [u8] {
        self.values.get(index).unwrap_or(&[])
    }
}

impl StateAccess for StateWindow<'_> {
    fn read(&self, key: &str) -> std::result::Result<&[u8], FunctionError> {
        let index = self.index_of(key)?;
        Ok(match self.written.get(index) {
            Some(Some(bytes)) => bytes,
            _ => self.committed(index),
        })
    }

    fn write(&mut self, key: &str) -> std::result::Result<&mut Vec<u8>, FunctionError> {
        let index = self.index_of(key)?;
        if self.keys[index].mode == StateMode::Read {
            return Err(FunctionError::StateAccess(format!(
                "key '{key}' is declared read-only"
            )));
        }
        if self.written.is_empty() {
            self.written.resize_with(self.keys.len(), || None);
        }
        let committed = self.committed(index);
        Ok(self.written[index].get_or_insert_with(|| committed.to_vec()))
    }
}

/// Integer square root (floor), used to size the shared receive queue
/// sublinearly in the worker count.
fn integer_sqrt(n: usize) -> usize {
    let mut root = 0usize;
    while (root + 1).saturating_mul(root + 1) <= n {
        root += 1;
    }
    root
}

/// Statistics of one worker, kept by its process's dispatcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Successfully executed invocations.
    pub invocations: u64,
    /// Invocations rejected because the core was busy.
    pub rejected: u64,
    /// Invocations whose function body failed.
    pub failed: u64,
    /// Invocations refused because the lease had expired on arrival.
    pub expired: u64,
    /// Hot→warm demotions after spinning past the hot-poll timeout.
    pub demotions: u64,
    /// Virtual time spent executing function bodies.
    pub busy_time: SimDuration,
    /// Virtual time spent hot-polling between invocations.
    pub hot_poll_time: SimDuration,
    /// Remote-fork fault batches this worker served (forked processes only).
    pub fork_faults: u64,
    /// Virtual time spent faulting parent pages in over RDMA reads.
    pub fork_fault_time: SimDuration,
    /// Invocations that ran against a state-plane window.
    pub state_invocations: u64,
    /// Virtual time spent materialising declared keys and writing dirty
    /// ones back (part of `busy_time`, broken out here).
    pub state_time: SimDuration,
}

impl WorkerStats {
    /// Add every counter of `other` to this one.
    fn accumulate(&mut self, other: &WorkerStats) {
        self.invocations += other.invocations;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.expired += other.expired;
        self.demotions += other.demotions;
        self.busy_time += other.busy_time;
        self.hot_poll_time += other.hot_poll_time;
        self.fork_faults += other.fork_faults;
        self.fork_fault_time += other.fork_fault_time;
        self.state_invocations += other.state_invocations;
        self.state_time += other.state_time;
    }
}

/// One worker, built at allocation time and owned by its process's
/// dispatcher, which drives its lifecycle and keeps its mode and counters.
struct WorkerSlot {
    listener: Listener,
    /// The worker's endpoint; its clock is the worker's virtual clock.
    endpoint: Endpoint,
    mode: PollingMode,
    stats: WorkerStats,
    lifecycle: Lifecycle,
}

/// Where a worker is in its life. The dispatcher moves it forward, never
/// back.
enum Lifecycle {
    /// Waiting for the lease-holding client to connect.
    Listening,
    /// Connected; the hello advertising the input buffer is not sent yet.
    Greeting(WorkerConn),
    /// Serving the client's invocations.
    Serving(WorkerConn),
    /// Finished: the client left, a setup step failed or the process
    /// stopped serving. Its CQ left the set; a stray completion is ignored.
    Retired,
}

impl Lifecycle {
    /// The connection of a greeting or serving worker.
    fn conn(&mut self) -> Option<&mut WorkerConn> {
        match self {
            Lifecycle::Greeting(conn) | Lifecycle::Serving(conn) => Some(conn),
            Lifecycle::Listening | Lifecycle::Retired => None,
        }
    }

    /// The hello went out: a greeting worker starts serving.
    fn greeted(&mut self) {
        if let Lifecycle::Greeting(conn) = std::mem::replace(self, Lifecycle::Retired) {
            *self = Lifecycle::Serving(conn);
        }
    }
}

/// Live connection state of one worker, from accept until retirement.
struct WorkerConn {
    qp: QueuePair,
    input: OwnedRegion,
    output: OwnedRegion,
    hello_region: OwnedRegion,
    last_ready: Option<SimTime>,
}

/// One executor process's event loop and the sole owner of everything about
/// the process that changes after spawn: every worker (served over a single
/// multiplexed CQ set), the leased cores, the lease deadline and the
/// sandbox. It has no thread; the fabric turns it (see [`DispatcherActor`])
/// on behalf of whichever host thread waits on it.
struct Dispatcher {
    /// The multiplexed set every connected worker's receive CQ joins. Its
    /// event counter is attached to every worker listener, so it moves
    /// whenever the lifecycle sweep has something new to act on.
    cqset: CqSet,
    workers: Vec<WorkerSlot>,
    /// The worker holding each leased core, if any; worker `i` runs on core
    /// `i % cores.len()`. A hot worker holds its core for as long as it
    /// stays hot, and an invocation runs only on a core no sibling holds
    /// (Fig. 6).
    cores: Vec<Option<usize>>,
    /// The lease's expiry instant. Workers check it on each invocation
    /// (Sec. III-B: the executor enforces the lease, not the client); a
    /// renewal through the manager pushes it forward, never back.
    deadline: SimTime,
    sandbox: Sandbox,
    /// Member token -> worker index, in registration (= drain) order: a
    /// connected worker's token is its position here.
    owner: Vec<usize>,
    /// Scratch reused across turns: the steady-state drain never allocates.
    scratch: Vec<(usize, WorkCompletion)>,
    /// The event counter as it stood when the last sweep began.
    swept_at: u64,
    /// The last sweep moved a worker, or left one retrying a step no event
    /// announces (a hello the peer has no receive for yet, a core a sibling
    /// holds, a disconnect with completions still queued): the next turn
    /// sweeps again even if the counter has not moved.
    unsettled: bool,
    package: CodePackage,
    /// Bytes of the largest payload, and of the largest result, a worker's
    /// buffers hold.
    max_payload_bytes: usize,
    /// Compute and hot-polling time served so far, each record rounded to
    /// whole µs as it is added. The allocator flushes it to the manager's
    /// billing database once, when the process ends.
    usage: UsageRecord,
    /// The process-wide shared receive queue every worker QP consumes from.
    srq: SharedReceiveQueue,
    /// The one receive ring replenishing the SRQ: its doorbell slots back
    /// every invocation of the process, so receive memory scales with the
    /// SRQ depth instead of `workers × recv_queue_depth`.
    ring: ReceiveRing,
    /// Fault state of a forked process: early invocations drain one prefetch
    /// window each until the child is resident. `None` for cold/warm spawns.
    fork: Option<ForkFaultState>,
    /// State-plane attachment of the process. Populated after spawn: the
    /// client attaches its plane once the allocation is installed.
    state_binding: Option<ExecutorStateBinding>,
}

/// Finish a worker's setup once its client connected: register the input and
/// output buffers, attach the QP to the process SRQ and prepare the hello
/// message advertising the input buffer.
fn connect_worker(
    endpoint: &Endpoint,
    qp: QueuePair,
    max_payload_bytes: usize,
    srq: &SharedReceiveQueue,
) -> Option<WorkerConn> {
    // Registered buffers: clients write [header | payload] into `input`; the
    // function produces its result in `output` before it is written back.
    let input = endpoint.pd.register_owned(
        INVOCATION_HEADER_BYTES + max_payload_bytes,
        AccessFlags::REMOTE_WRITE,
    );
    let output = endpoint
        .pd
        .register_owned(max_payload_bytes, AccessFlags::LOCAL_ONLY);

    // No private receive ring: the QP consumes pre-posted receives from the
    // process-wide SRQ, capped by a per-worker flow-control credit so one
    // chatty connection cannot starve its siblings. The credit equals the
    // old private ring depth, so a single client observes the same
    // ReceiverNotReady threshold as before the SRQ rework.
    qp.attach_srq(srq, RECV_QUEUE_DEPTH);

    let hello = InvocationHeader {
        result_rkey: input.rkey(),
        result_offset: 0,
        result_capacity: input.len() as u64,
    };
    let hello_region = endpoint
        .pd
        .register_owned(INVOCATION_HEADER_BYTES, AccessFlags::LOCAL_ONLY);
    hello_region.write(0, &hello.encode()).ok()?;
    Some(WorkerConn {
        qp,
        input,
        output,
        hello_region,
        last_ready: None,
    })
}

/// Stateful dispatch: run `function` against its declared state window. The
/// time the state client spends on its own clock (cache misses, remote
/// reads, push writes) is re-billed onto the worker's clock so the
/// invocation round trip carries it.
fn invoke_stateful(
    function: &SharedFunction,
    input: &[u8],
    output: &mut [u8],
    state_binding: &mut Option<ExecutorStateBinding>,
    clock: &VirtualClock,
    stats: &mut WorkerStats,
) -> FunctionOutcome {
    let Some(binding) = state_binding.as_mut() else {
        return Err(FunctionError::StateAccess(
            "no state plane is attached to this executor process".into(),
        ));
    };
    // The binding's clock may lag the worker's (it only moves on state
    // traffic); sync before measuring so the access is billed its real cost,
    // not the catch-up to the worker's present.
    binding.client.sync_to(clock.now());
    let state_started = binding.client.now();
    let outcome = binding.invoke(function, input, output);
    let spent = binding.client.now().saturating_since(state_started);
    clock.advance(spent);
    stats.state_invocations += 1;
    stats.state_time += spent;
    outcome
}

impl Dispatcher {
    /// One turn of the event loop: sweep the worker lifecycles if anything
    /// they depend on changed, then drain every receive CQ in deterministic
    /// registration order and serve the completions on their owning workers.
    /// Returns whether anything progressed.
    ///
    /// The sweep runs only when the set's event counter moved — a connection
    /// request at a worker listener or a member disconnect — or the last
    /// sweep left a worker unsettled; a turn that only serves invocations
    /// never re-walks the worker slots.
    fn turn(&mut self) -> bool {
        let seen = self.cqset.notifier().sequence();
        let swept = if seen != self.swept_at || self.unsettled {
            self.swept_at = seen;
            self.sweep()
        } else {
            false
        };
        let served = self.drain();
        swept || served
    }

    /// Advance every worker's lifecycle: accept a pending client, push a
    /// pending hello, keep hot workers on their cores, retire finished
    /// workers. Returns whether a client was accepted or a hello sent.
    fn sweep(&mut self) -> bool {
        let mut progressed = false;
        let mut retrying = false;
        let core_count = self.cores.len();
        for index in 0..self.workers.len() {
            let slot = &mut self.workers[index];
            let core = &mut self.cores[index % core_count];
            let retire = match &mut slot.lifecycle {
                Lifecycle::Retired => false,
                // Wait for the lease-holding client to connect.
                Lifecycle::Listening => match slot.listener.try_accept(&slot.endpoint) {
                    Ok(Some(qp)) => {
                        let conn =
                            connect_worker(&slot.endpoint, qp, self.max_payload_bytes, &self.srq);
                        match conn {
                            Some(conn) => {
                                let token = self.cqset.register(conn.qp.recv_cq());
                                debug_assert_eq!(token, self.owner.len());
                                self.owner.push(index);
                                slot.lifecycle = Lifecycle::Greeting(conn);
                                progressed = true;
                                false
                            }
                            None => true,
                        }
                    }
                    Ok(None) => false,
                    Err(_) => true,
                },
                // Advertise the input buffer to the client ("hello"). The
                // rFaaS client posts the receive for it before its
                // connection request leaves, so this succeeds on the first
                // sweep after the accept; any other peer is retried.
                Lifecycle::Greeting(conn) => {
                    let hello = SendRequest::Send {
                        local: Sge::whole(&conn.hello_region),
                    };
                    match conn.qp.post_send(0, hello, false) {
                        Ok(()) => {
                            slot.lifecycle.greeted();
                            progressed = true;
                            false
                        }
                        Err(rdma_fabric::FabricError::ReceiverNotReady)
                            if conn.qp.is_connected() =>
                        {
                            retrying = true;
                            false
                        }
                        Err(_) => true,
                    }
                }
                Lifecycle::Serving(conn) => {
                    // Hot workers hold their core for as long as they stay
                    // hot; a sibling holding it makes the worker retry.
                    match (slot.mode, *core) {
                        (PollingMode::Hot, None) => *core = Some(index),
                        (PollingMode::Hot, Some(holder)) => retrying |= holder != index,
                        (PollingMode::Warm, _) => {
                            core.take_if(|holder| *holder == index);
                        }
                    }
                    // A gone client retires the worker once its CQ drained:
                    // the drain still serves completions queued before the
                    // disconnect, exactly like a dedicated thread polling dry.
                    let gone = !conn.qp.is_connected();
                    let drained = conn.qp.recv_cq().pending() == 0;
                    retrying |= gone && !drained;
                    gone && drained
                }
            };
            if retire {
                self.retire(index);
            }
        }
        self.unsettled = progressed || retrying;
        progressed
    }

    /// Retire worker `index`. A connected worker gives back the core it
    /// holds and leaves the CQ set, and its queue pair is disconnected: as
    /// the connection drops, its buffers leave the worker's protection
    /// domain — the keys the client was given stop resolving.
    fn retire(&mut self, index: usize) {
        let retired = std::mem::replace(&mut self.workers[index].lifecycle, Lifecycle::Retired);
        if let Lifecycle::Greeting(conn) | Lifecycle::Serving(conn) = retired {
            let core_count = self.cores.len();
            self.cores[index % core_count].take_if(|holder| *holder == index);
            let token = self.owner.iter().position(|&owner| owner == index);
            self.cqset
                .deregister(token.expect("a connected worker is in the set"));
            conn.qp.disconnect();
        }
    }

    /// Drain every member CQ in registration order and serve the completions
    /// on their owning workers. Returns whether anything was served.
    fn drain(&mut self) -> bool {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.cqset.poll_uncharged_into(usize::MAX, &mut scratch);
        let mut served = false;
        for (token, wc) in scratch.drain(..) {
            let index = self.owner[token];
            if self.workers[index].lifecycle.conn().is_some() {
                self.serve(index, wc);
                served = true;
            }
        }
        self.scratch = scratch;
        served
    }

    /// Serve one invocation completion on worker `index`: charge the pickup
    /// on the worker's clock per its polling mode, apply the retrospective
    /// hot-poll accounting, enforce the lease, acquire the core, run the
    /// function and write the result back. The billing is exactly what a
    /// dedicated worker thread charged; only the completion delivery is
    /// multiplexed.
    fn serve(&mut self, index: usize, raw: WorkCompletion) {
        let Dispatcher {
            workers,
            cores,
            deadline,
            ring,
            package,
            max_payload_bytes,
            usage,
            fork,
            state_binding,
            ..
        } = self;
        let WorkerSlot {
            endpoint,
            mode: worker_mode,
            stats,
            lifecycle,
            ..
        } = &mut workers[index];
        let clock = &*endpoint.clock;
        let core_count = cores.len();
        let core = &mut cores[index % core_count];
        let Some(conn) = lifecycle.conn() else {
            return;
        };
        // Hand the raw completion back to the shared ring for slot accounting:
        // adoption releases the consuming QP's SRQ credit and re-posts the
        // consumed receive into the SRQ.
        let wc = ring.adopt(raw).wc;

        // The multiplexed drain was uncharged: bill the pickup the way this
        // worker's own wait would have. Hot workers pay the busy-poll pickup;
        // warm workers pay notification serialisation plus the blocking wake-up.
        let mode = *worker_mode;
        let wc = match mode {
            PollingMode::Hot => {
                conn.qp.recv_cq().charge_poll_pickup(&wc);
                wc
            }
            PollingMode::Warm => conn.qp.recv_cq().charge_blocking_pickup(wc),
        };
        if !wc.is_success() {
            return;
        }

        // Hot-polling time: the gap between becoming idle and the arrival of
        // this request is CPU time burnt spinning (billed like compute).
        //
        // Demotion is evaluated *retrospectively* at the next arrival: an
        // idle worker cannot observe virtual time passing (empty polls do
        // not advance it), so the spin gap is only known once a completion
        // carries its timestamp. The one fidelity cost: a hot worker past
        // its budget keeps the core until that next arrival, so co-located
        // warm invocations can still be rejected during the window.
        if let (PollingMode::Hot, Some(idle_since)) = (mode, conn.last_ready) {
            let spin = wc.timestamp.saturating_since(idle_since);
            if spin > HOT_POLL_TIMEOUT {
                // The worker stopped spinning `HOT_POLL_TIMEOUT` after going
                // idle and parked on the completion channel (Sec. III-C): the
                // polling bill is capped at the budget, the worker is warm from
                // here on, and this request pays the blocking wake-up it
                // actually took.
                stats.hot_poll_time += HOT_POLL_TIMEOUT;
                stats.demotions += 1;
                usage.add_hot_poll(HOT_POLL_TIMEOUT);
                *worker_mode = PollingMode::Warm;
                clock.advance(conn.qp.recv_cq().blocking_penalty());
                core.take_if(|holder| *holder == index);
            } else if !spin.is_zero() {
                stats.hot_poll_time += spin;
                usage.add_hot_poll(spin);
            }
        }

        let imm = wc.imm.unwrap_or(0);
        let (invocation_id, function_index) = ImmValue::parse_request(imm);
        let payload_len = wc.byte_len.saturating_sub(INVOCATION_HEADER_BYTES);
        // A payload of a page or more usually arrived by a DMA that shared
        // the client's bytes, and the input buffer kept the request bytes it
        // replaced: an empty output buffer adopts them as its window, which
        // the function overwrites as far as its result reaches, so no fresh
        // window is zero-filled. Whatever lies past the result is given back
        // before the reply leaves, so stale bytes never leave this
        // connection and the reply may share the result. Adopting takes the
        // input buffer's guard, so it happens before the view below.
        let bulk = payload_len >= PAGE_SIZE;
        if bulk {
            conn.output.adopt_spare(&conn.input);
        }
        // One view over the header and the payload behind it, held while the
        // function runs: it reads its payload where the client's write put
        // it. A payload reaching past the input buffer fails the function,
        // not the view. The view yields the reply: where it goes, how many
        // output bytes it carries, and its status.
        let wire_len = (INVOCATION_HEADER_BYTES + payload_len).min(conn.input.len());
        let reply = conn.input.with_bytes(0, wire_len, |wire| {
            let header = wire
                .get(..INVOCATION_HEADER_BYTES)
                .map(InvocationHeader::decode)?
                .ok()?;
            let result_handle = header.result_handle();
            let payload = wire.get(INVOCATION_HEADER_BYTES..INVOCATION_HEADER_BYTES + payload_len);

            // Lease enforcement (Sec. III-B): charging the pickup synchronised
            // this worker's clock to the invocation's arrival time, so comparing
            // against the deadline catches leases that expired while the
            // client kept the connection open. Refuse the invocation so the
            // client re-allocates through the resource manager.
            if clock.now() >= *deadline {
                stats.expired += 1;
                return Some((result_handle, 0, ResultStatus::LeaseExpired));
            }

            // Oversubscribed warm executions need the core; if a sibling's
            // compute-intensive task holds it, reject immediately so the
            // client redirects to another executor (Sec. III-D, Fig. 6). The
            // invocation runs to its end within this call, so it occupies
            // the core without holding it.
            if core.is_some_and(|holder| holder != index) {
                stats.rejected += 1;
                return Some((result_handle, 0, ResultStatus::Rejected));
            }

            // A forked child still faulting in parent pages pays the next
            // prefetch window here: the page touches happen under this
            // invocation's function entry, served by one-sided READs from the
            // parent node and billed to the tenant like compute. Once the map is
            // resident (`serve_next` returns None) invocations are
            // indistinguishable from a warm spawn.
            if let Some(fork) = fork {
                if let Some(batch) = fork.serve_next() {
                    clock.advance(batch.cost);
                    stats.fork_faults += 1;
                    stats.fork_fault_time += batch.cost;
                    usage.add_compute(batch.cost);
                }
            }

            // Dispatch: header parse, function lookup, argument setup.
            clock.advance(DISPATCH_COST);

            let (out_len, status) = match package.function_by_index(function_index as usize) {
                None => (0usize, ResultStatus::FunctionFailed),
                Some(function) => {
                    let started = clock.now();
                    // The function produces its result where the reply is
                    // gathered from. Its output window is what the client can
                    // receive, not the whole buffer: a larger result fails the
                    // invocation either way, and the window is all of the buffer
                    // this lease ever commits.
                    let window = (*max_payload_bytes).min(result_handle.len);
                    let outcome = match payload {
                        Some(payload) => conn
                            .output
                            .with_bytes_mut(0, window, |output| {
                                if function.is_stateful() {
                                    invoke_stateful(
                                        function,
                                        payload,
                                        output,
                                        state_binding,
                                        clock,
                                        stats,
                                    )
                                } else {
                                    function.invoke(payload, output)
                                }
                            })
                            .unwrap_or_else(|e| Err(FunctionError::InvalidInput(e.to_string()))),
                        None => Err(FunctionError::InvalidInput(
                            "payload reaches past the input buffer".into(),
                        )),
                    };
                    clock.advance(function.compute_cost(payload_len));
                    let busy = clock.now().saturating_since(started);
                    stats.busy_time += busy;
                    usage.add_compute(busy);
                    match outcome {
                        // Within the window is within both the output buffer the
                        // reply is gathered from and the client's result buffer.
                        Ok(n) if n <= window => (n, ResultStatus::Success),
                        Ok(_) | Err(_) => (0, ResultStatus::FunctionFailed),
                    }
                }
            };
            Some((result_handle, out_len, status))
        });
        let reply = reply.ok().flatten();
        if bulk {
            conn.output
                .decommit_past(reply.map_or(0, |(_, out_len, _)| out_len));
        }
        let Some((result_handle, out_len, status)) = reply else {
            return;
        };

        // Write the result directly into the client's memory and notify it
        // through the immediate value.
        let _ = conn.qp.post_send(
            invocation_id as u64,
            SendRequest::WriteWithImm {
                local: Sge::range(&conn.output, 0, out_len),
                remote: result_handle.slice(0, out_len),
                imm: ImmValue::response(invocation_id, status),
            },
            false,
        );
        // A response of a page or more usually handed the client the output
        // bytes instead of copying them: let go of them, so the client takes
        // them without a copy and the next result is built in the next
        // request's replaced buffer.
        if out_len >= PAGE_SIZE {
            conn.output.release_shared();
        }
        match status {
            ResultStatus::Success => stats.invocations += 1,
            ResultStatus::FunctionFailed => stats.failed += 1,
            ResultStatus::Rejected | ResultStatus::LeaseExpired => {}
        }
        // The ring already replenished the consumed receive; mark the idle
        // point for the hot-poll accounting of the next request. A refused
        // invocation marks it too: the spin up to its arrival was already
        // accounted above, and the next request must not re-bill it.
        conn.last_ready = Some(clock.now());
    }

    /// Retire every worker: the process stops serving.
    fn retire_all(&mut self) {
        for index in 0..self.workers.len() {
            self.retire(index);
        }
    }

    /// Counters summed over every worker.
    fn stats(&self) -> WorkerStats {
        let mut total = WorkerStats::default();
        for worker in &self.workers {
            total.accumulate(&worker.stats);
        }
        total
    }

    /// Latest virtual time observed by any worker.
    fn latest_worker_time(&self) -> SimTime {
        self.workers
            .iter()
            .map(|w| w.endpoint.clock.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// The dispatcher as the fabric turns it. The turn takes the dispatcher with
/// `try_lock`, so a pump that finds it mid-turn on another thread (or held by
/// `stop_serving`) skips it instead of blocking.
struct DispatcherActor(OrderedMutex<Dispatcher>);

impl std::fmt::Debug for DispatcherActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher").finish_non_exhaustive()
    }
}

impl Actor for DispatcherActor {
    fn turn(&self) -> bool {
        self.0
            .try_lock()
            .is_some_and(|mut dispatcher| dispatcher.turn())
    }
}

/// What a successful allocation hands the session: where to connect, what
/// the allocator's side of the cold start cost (the stacked bars of Fig. 9),
/// and the code package it loaded.
#[derive(Debug)]
pub(crate) struct AllocationResult {
    /// Executor-process identifier.
    pub(crate) process_id: u64,
    /// The fabric address of each spawned worker's listener.
    pub(crate) workers: Vec<String>,
    /// Sandbox, executor-process and worker spawn costs.
    pub(crate) spawn: SpawnBreakdown,
    /// Cost of transferring and loading the code package.
    pub(crate) code_submission: SimDuration,
    /// The code package loaded into the executor; the client uses it to map
    /// function names to the indices carried in invocation immediates.
    pub(crate) package: CodePackage,
}

/// An executor process: one sandbox hosting a set of workers that all serve
/// the same code package on behalf of one lease. The process itself is an
/// immutable descriptor; everything that changes after spawn — the workers,
/// the cores, the sandbox — belongs to its dispatcher, and the readers below
/// take the dispatcher's lock.
#[derive(Debug)]
pub struct ExecutorProcess {
    id: u64,
    lease_id: u64,
    /// The event loop owning every worker, registered on `fabric` as actor
    /// `actor` until the process stops serving.
    dispatcher: Arc<DispatcherActor>,
    fabric: Arc<Fabric>,
    actor: u64,
    /// The process-wide shared receive queue the dispatcher's workers
    /// consume from (kept for statistics; the dispatcher owns a clone).
    srq: SharedReceiveQueue,
    /// Cores reserved from the node pool at allocation time (`lease.cores`,
    /// not the worker count — oversubscribed allocations spawn more workers
    /// than they reserve cores).
    leased_cores: u32,
    memory_mib: u64,
    created_at: SimTime,
}

impl ExecutorProcess {
    /// The lease this process belongs to.
    pub fn lease_id(&self) -> u64 {
        self.lease_id
    }

    /// Current polling mode of worker `index`.
    pub fn worker_mode(&self, index: usize) -> PollingMode {
        self.dispatcher.0.lock().workers[index].mode
    }

    /// Aggregate statistics over all workers.
    pub fn stats(&self) -> WorkerStats {
        self.dispatcher.0.lock().stats()
    }

    /// A snapshot of a forked process's fault state (`None` for cold/warm
    /// provisioning).
    pub(crate) fn fork_state(&self) -> Option<ForkFaultState> {
        self.dispatcher.0.lock().fork.clone()
    }

    /// Client-side counters of the process's state-plane attachment
    /// (`None` when no plane is attached).
    pub(crate) fn state_stats(&self) -> Option<StateClientStats> {
        let dispatcher = self.dispatcher.0.lock();
        dispatcher.state_binding.as_ref().map(|b| b.client.stats())
    }

    /// Attach a state-plane client: stateful invocations dispatched to the
    /// process materialise their declared keys through it. Replaces any
    /// previous attachment.
    pub(crate) fn attach_state_client(&self, client: StateClient) {
        self.dispatcher.0.lock().state_binding = Some(ExecutorStateBinding::new(client));
    }

    /// Register the declared key set of `function` on the process's state
    /// binding (bind-time validation already happened client-side).
    pub(crate) fn bind_state_spec(&self, function: &str, spec: StateSpec) -> Result<()> {
        let mut dispatcher = self.dispatcher.0.lock();
        let binding = dispatcher.state_binding.as_mut().ok_or_else(|| {
            RFaasError::StatePlane(StateError::Protocol(
                "no state plane is attached to this executor process".into(),
            ))
        })?;
        binding.bind(function, spec);
        Ok(())
    }

    /// Statistics of the process-wide shared receive queue: depth, posted
    /// slots, in-flight receives and the depth high watermark.
    pub fn srq_stats(&self) -> SrqStats {
        self.srq.stats()
    }

    /// Stop serving: take the dispatcher off the fabric and retire its
    /// workers in-line. Returns the dispatcher, still locked: the sandbox
    /// stays alive so the caller can park it as a warm parent.
    fn stop_serving(&self) -> OrderedMutexGuard<'_, Dispatcher> {
        self.fabric.unregister_actor(self.actor);
        let mut dispatcher = self.dispatcher.0.lock();
        dispatcher.retire_all();
        dispatcher
    }
}

impl Drop for ExecutorProcess {
    fn drop(&mut self) {
        // A process dropped without a deallocation (its allocator went away)
        // must not stay on the fabric: the registered dispatcher holds the
        // fabric alive through its workers' endpoints.
        self.stop_serving();
    }
}

/// Everything the allocator mutates, under its one lock.
struct AllocatorState {
    available: NodeResources,
    processes: BTreeMap<u64, Arc<ExecutorProcess>>,
    /// The next process id. Worker addresses carry the node name, so ids
    /// unique per allocator are unique on the fabric.
    next_process_id: u64,
    /// The allocator's side of its billing connection to the manager: it
    /// flushes each process's usage when the process ends.
    billing: Option<BillingClient>,
    /// When the allocator last pinged the manager.
    last_heartbeat_sent: Option<SimTime>,
    // Cleared when the node dies or is reclaimed: a dead allocator refuses
    // new allocations instead of spawning processes on a gone machine.
    alive: bool,
    // Testing hook: index of the first worker whose setup is forced to fail.
    // Lets tests exercise the mid-allocation rollback path, which no real
    // setup step fails on demand.
    spawn_fail_at: Option<usize>,
}

/// The lightweight allocator of one spot executor (A2 in Fig. 4): connects
/// new clients, manages executor processes, reaps those whose lease expired
/// and accounts resource consumption.
pub struct LightweightAllocator {
    fabric: Arc<Fabric>,
    /// The node the executor runs on, and with it the executor's name.
    node: Arc<FabricNode>,
    max_payload_bytes: usize,
    registry: FunctionRegistry,
    images: ImageRegistry,
    state: OrderedMutex<AllocatorState>,
    clock: Arc<VirtualClock>,
    /// Parked warm parents per `(SandboxType, package)` — deallocation parks
    /// a sandbox here (when capacity admits it) instead of tearing it down,
    /// and fork/warm-pool allocations consult it before a full spawn.
    warm_pool: WarmPool,
}

impl std::fmt::Debug for LightweightAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LightweightAllocator")
            .field("node", &self.node.name())
            .finish()
    }
}

impl LightweightAllocator {
    fn new(
        fabric: Arc<Fabric>,
        node: Arc<FabricNode>,
        resources: NodeResources,
        registry: FunctionRegistry,
        images: ImageRegistry,
        config: RFaasConfig,
    ) -> LightweightAllocator {
        LightweightAllocator {
            fabric,
            node,
            max_payload_bytes: config.max_payload_bytes,
            registry,
            images,
            state: OrderedMutex::new(
                ranks::EXECUTOR_ALLOCATOR,
                AllocatorState {
                    available: resources,
                    processes: BTreeMap::new(),
                    next_process_id: 1,
                    billing: None,
                    last_heartbeat_sent: None,
                    alive: true,
                    spawn_fail_at: None,
                },
            ),
            clock: VirtualClock::shared(),
            warm_pool: WarmPool::with_capacity(config.warm_pool_capacity),
        }
    }

    /// Force the setup of the `index`-th worker of the next allocation to
    /// fail (testing hook for the rollback path).
    #[cfg(test)]
    pub(crate) fn inject_spawn_failure(&self, index: usize) {
        self.state.lock().spawn_fail_at = Some(index);
    }

    /// Attach the billing client created by the resource manager.
    pub(crate) fn attach_billing(&self, billing: BillingClient) {
        self.state.lock().billing = Some(billing);
    }

    /// Resources currently available for new allocations.
    #[cfg(test)]
    pub(crate) fn available(&self) -> NodeResources {
        self.state.lock().available
    }

    /// Number of live executor processes.
    #[cfg(test)]
    pub(crate) fn process_count(&self) -> usize {
        self.state.lock().processes.len()
    }

    /// The allocator's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Allocate an executor process for `lease` with `workers` workers in
    /// polling `mode`, its sandbox provisioned under `policy`: the fork and
    /// warm-pool tiers consult the executor's [`WarmPool`] before paying for
    /// a full `Sandbox::spawn`, and fall back to the cold path on a miss.
    /// Requesting more workers than leased cores oversubscribes the cores,
    /// which makes warm invocations subject to rejection (Sec. III-D).
    pub(crate) fn allocate_with_policy(
        &self,
        lease: &Lease,
        workers: usize,
        mode: PollingMode,
        policy: AllocationPolicy,
    ) -> Result<AllocationResult> {
        if workers == 0 {
            return Err(RFaasError::Internal("cannot allocate zero workers".into()));
        }
        let package = self.registry.fetch(&lease.package);
        let request = NodeResources {
            cores: lease.cores,
            memory_mib: lease.memory_mib,
        };
        // Reserve the resources and take everything else the spawn needs
        // from the allocator state in one critical section.
        let (package, process_id, spawn_fail_at) = {
            let mut state = self.state.lock();
            if !state.alive {
                return Err(RFaasError::ExecutorLost(self.node.name().to_string()));
            }
            let package =
                package.ok_or_else(|| RFaasError::UnknownPackage(lease.package.clone()))?;
            if !state.available.can_fit(&request) {
                return Err(RFaasError::InsufficientResources {
                    requested_cores: request.cores,
                    requested_memory_mib: request.memory_mib,
                });
            }
            state.available = state.available.saturating_sub(&request);
            let process_id = state.next_process_id;
            state.next_process_id += 1;
            let spawn_fail_at = state.spawn_fail_at.take_if(|index| *index < workers);
            (package, process_id, spawn_fail_at)
        };

        // Provision the sandbox per the policy and charge its cost on the
        // allocator clock. The fork and warm-pool tiers consult the warm
        // pool first; a miss degrades to the cold path. A micro-cost hit
        // (resume or fork setup) is reported through the spawn breakdown's
        // `sandbox_create` slot so clients see it in their cold-start bars.
        let cold_spawn = |images: &ImageRegistry| {
            let (mut sandbox, spawn) = Sandbox::spawn(
                lease.sandbox,
                workers,
                lease.memory_mib * 1024 * 1024,
                images,
                package.image(),
            );
            let code_submission = self
                .registry
                .code_submission_cost(&lease.package)
                .unwrap_or(SimDuration::ZERO)
                + sandbox.load_package(package.clone());
            (sandbox, spawn, code_submission)
        };
        let micro_spawn = |setup: SimDuration| SpawnBreakdown {
            image_pull: SimDuration::ZERO,
            sandbox_create: setup,
            executor_start: SimDuration::ZERO,
            workers: SimDuration::ZERO,
        };
        let mut fork_state = None;
        let (mut sandbox, spawn, code_submission) = match policy {
            AllocationPolicy::Cold => cold_spawn(&self.images),
            AllocationPolicy::WarmPool => {
                match self.warm_pool.lease(lease.sandbox, &lease.package) {
                    Some(parent) => {
                        // The parent leaves the pool and becomes this
                        // lease's sandbox: resume it, no code submission —
                        // the package is already loaded and warm.
                        let mut sandbox = parent.into_sandbox();
                        let resume = sandbox.resume().unwrap_or(SimDuration::ZERO);
                        sandbox.set_workers(workers);
                        (sandbox, micro_spawn(resume), SimDuration::ZERO)
                    }
                    None => cold_spawn(&self.images),
                }
            }
            AllocationPolicy::Fork => {
                match self.warm_pool.fork_source(lease.sandbox, &lease.package) {
                    Some(snapshot) => {
                        // Clone the executor skeleton from the parent's
                        // snapshot; the parent stays parked and serves the
                        // child's page faults via one-sided READs.
                        let (sandbox, setup) = Sandbox::fork_from(&snapshot, workers);
                        fork_state = Some(ForkFaultState::new(&snapshot));
                        (sandbox, micro_spawn(setup), SimDuration::ZERO)
                    }
                    None => cold_spawn(&self.images),
                }
            }
        };
        self.clock.advance(spawn.total() + code_submission);
        let start_time = self.clock.now();

        let device_function = if lease.sandbox.uses_virtual_function() {
            DeviceFunction::Virtual
        } else {
            DeviceFunction::Physical
        };

        // The process-wide shared receive queue: every worker QP consumes
        // pre-posted receives from it, so receive memory scales with the SRQ
        // depth — sublinear in the worker count — instead of one full ring
        // per connection. The depth grows with √workers on top of a
        // two-ring floor, clamped to what the device supports.
        let endpoint = || {
            let endpoint = Endpoint::new(&self.fabric, &self.node).with_function(device_function);
            endpoint.clock.advance_to(start_time);
            endpoint
        };
        let dispatch_endpoint = endpoint();
        let srq_depth =
            (RECV_QUEUE_DEPTH * (2 + integer_sqrt(workers))).min(CX5_100G.max_recv_queue_depth);
        let srq = SharedReceiveQueue::new(&dispatch_endpoint, srq_depth);
        let shared_ring = ReceiveRing::on_srq(&dispatch_endpoint, &srq, srq_depth, 8)
            .map_err(|e| RFaasError::Internal(format!("failed to build shared receive ring: {e}")));

        // The dispatcher's event counter exists before anything that moves
        // it: every worker listener attaches it at creation.
        let cqset = CqSet::new();
        let wake = cqset.notifier().clone();

        let mut addresses = Vec::with_capacity(workers);
        let mut slots = Vec::with_capacity(workers);
        let mut spawn_error = None;
        for worker_idx in 0..workers {
            if spawn_fail_at == Some(worker_idx) {
                spawn_error = Some(RFaasError::Internal(format!(
                    "failed to spawn worker: injected failure at index {worker_idx}"
                )));
                break;
            }
            let address = format!("rfaas://{}/{}/{}", self.node.name(), process_id, worker_idx);
            let listener = Listener::bind(&self.fabric, &address);
            listener.attach_notifier(&wake);
            addresses.push(address);
            slots.push(WorkerSlot {
                listener,
                endpoint: endpoint(),
                mode,
                stats: WorkerStats::default(),
                lifecycle: Lifecycle::Listening,
            });
        }

        let ring = match (shared_ring, spawn_error) {
            (Ok(ring), None) => ring,
            (Err(error), _) | (Ok(_), Some(error)) => {
                // Roll back the partial allocation: drop the worker slots
                // built so far (nothing serves them — no dispatcher exists
                // yet), terminate the sandbox and return the reservation to
                // the node pool.
                drop(slots);
                if let Some(teardown) = sandbox.terminate() {
                    self.clock.advance(teardown);
                }
                let mut state = self.state.lock();
                state.available = state.available.add(&request);
                return Err(error);
            }
        };

        // One dispatcher per process serves every worker slot. It is an
        // actor on the fabric, not a thread: from here on, whoever waits on
        // one of its workers turns it.
        let dispatcher = Arc::new(DispatcherActor(OrderedMutex::new(
            ranks::EXECUTOR_DISPATCHER,
            Dispatcher {
                swept_at: wake.sequence(),
                cqset,
                workers: slots,
                cores: vec![None; lease.cores.max(1) as usize],
                deadline: lease.expires_at,
                sandbox,
                owner: Vec::new(),
                scratch: Vec::new(),
                unsettled: true,
                package: package.clone(),
                max_payload_bytes: self.max_payload_bytes,
                usage: UsageRecord::default(),
                srq: srq.clone(),
                ring,
                fork: fork_state,
                state_binding: None,
            },
        )));
        let actor = self.fabric.register_actor(dispatcher.clone());

        let process = ExecutorProcess {
            id: process_id,
            lease_id: lease.id,
            dispatcher,
            fabric: Arc::clone(&self.fabric),
            actor,
            srq,
            leased_cores: lease.cores,
            memory_mib: lease.memory_mib,
            created_at: start_time,
        };
        self.state
            .lock()
            .processes
            .insert(process_id, Arc::new(process));

        Ok(AllocationResult {
            process_id,
            workers: addresses,
            spawn,
            code_submission,
            package,
        })
    }

    /// Look up a live executor process (`None` for an unknown or already
    /// deallocated one).
    pub(crate) fn process(&self, process_id: u64) -> Option<Arc<ExecutorProcess>> {
        self.state.lock().processes.get(&process_id).cloned()
    }

    /// The executor's warm pool of parked fork parents.
    pub fn warm_pool(&self) -> &WarmPool {
        &self.warm_pool
    }

    /// All live executor processes, in ascending process-id order (used by
    /// experiments and tests to read a process without knowing its id).
    pub fn processes(&self) -> Vec<Arc<ExecutorProcess>> {
        self.state.lock().processes.values().cloned().collect()
    }

    /// Deallocate an executor process, returning its resources to the pool
    /// and flushing its usage — what it served plus its allocation time — to
    /// the manager's billing database.
    pub fn deallocate(&self, process_id: u64) -> Result<WorkerStats> {
        let process = self
            .state
            .lock()
            .processes
            .remove(&process_id)
            .ok_or(RFaasError::UnknownLease(process_id))?;
        let (stats, usage, mut sandbox) = {
            let dispatcher = process.stop_serving();
            let allocation_time = dispatcher
                .latest_worker_time()
                .saturating_since(process.created_at);
            let mut usage = dispatcher.usage;
            usage.add_allocation(allocation_time, process.memory_mib);
            (dispatcher.stats(), usage, dispatcher.sandbox.clone())
        };
        // Offer the sandbox to the warm pool before destroying it: a parked
        // parent turns a later allocation of the same (sandbox, package)
        // into a µs-scale resume or fork source. Admission decides (pool
        // disabled or key at capacity → normal teardown, billed once).
        let parked = self
            .warm_pool
            .park(sandbox.clone(), self.clock.now())
            .is_some();
        if !parked {
            if let Some(teardown) = sandbox.terminate() {
                self.clock.advance(teardown);
            }
        }
        let mut state = self.state.lock();
        if let Some(billing) = &state.billing {
            let _ = billing.flush(usage);
        }
        // Restore the reservation actually taken at allocation time — the
        // leased cores, not the worker count, which oversubscribed
        // allocations inflate past the reservation.
        state.available = state.available.add(&NodeResources {
            cores: process.leased_cores,
            memory_mib: process.memory_mib,
        });
        Ok(stats)
    }

    /// Push the lease deadline of every process serving `lease_id` forward to
    /// `expires_at` (lease renewal reaching the executor; an earlier instant
    /// leaves a deadline where it is). Returns the number of processes
    /// serving the lease.
    pub(crate) fn extend_lease(&self, lease_id: u64, expires_at: SimTime) -> usize {
        let serving: Vec<Arc<ExecutorProcess>> = self
            .processes()
            .into_iter()
            .filter(|process| process.lease_id == lease_id)
            .collect();
        for process in &serving {
            let mut dispatcher = process.dispatcher.0.lock();
            dispatcher.deadline = dispatcher.deadline.max(expires_at);
        }
        serving.len()
    }

    /// Deallocate processes whose lease deadline has passed at `now`,
    /// returning their reservations to the node pool. Returns the number of
    /// processes reaped.
    pub(crate) fn reap_expired(&self, now: SimTime) -> usize {
        let expired_ids: Vec<u64> = self
            .processes()
            .iter()
            .filter(|process| now >= process.dispatcher.0.lock().deadline)
            .map(|process| process.id)
            .collect();
        let mut count = 0;
        for id in expired_ids {
            if self.deallocate(id).is_ok() {
                count += 1;
            }
        }
        count
    }

    /// Tear down every executor process without returning resources to the
    /// pool (the node itself was reclaimed or failed) and refuse future
    /// allocations. Each process's served usage is flushed to the billing
    /// database. Returns the number of processes terminated.
    pub(crate) fn terminate_all(&self) -> usize {
        let processes = {
            let mut state = self.state.lock();
            state.alive = false;
            std::mem::take(&mut state.processes)
        };
        let count = processes.len();
        for process in processes.into_values() {
            // The node is gone: no clock of it is charged the teardown, and
            // no allocation time is billed. What the process served is.
            let usage = {
                let mut dispatcher = process.stop_serving();
                dispatcher.sandbox.terminate();
                dispatcher.usage
            };
            if let Some(billing) = &self.state.lock().billing {
                let _ = billing.flush(usage);
            }
        }
        count
    }
}

/// A spot executor: one node's worth of harvested resources offered to rFaaS.
pub struct SpotExecutor {
    resources: NodeResources,
    allocator: LightweightAllocator,
}

impl std::fmt::Debug for SpotExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpotExecutor")
            .field("name", &self.name())
            .field("resources", &self.resources)
            .finish()
    }
}

impl SpotExecutor {
    /// Offer `resources` of node `name` to the platform.
    pub fn new(
        fabric: &Arc<Fabric>,
        name: &str,
        resources: NodeResources,
        registry: FunctionRegistry,
        config: RFaasConfig,
    ) -> Arc<SpotExecutor> {
        Arc::new(SpotExecutor {
            resources,
            allocator: LightweightAllocator::new(
                Arc::clone(fabric),
                fabric.add_node(name),
                resources,
                registry,
                ImageRegistry::new(),
                config,
            ),
        })
    }

    /// Node name.
    pub fn name(&self) -> &str {
        self.node().name()
    }

    /// The fabric node the executor runs on.
    pub fn node(&self) -> &Arc<FabricNode> {
        &self.allocator.node
    }

    /// Total resources offered.
    pub(crate) fn resources(&self) -> NodeResources {
        self.resources
    }

    /// The node's lightweight allocator.
    pub fn allocator(&self) -> &LightweightAllocator {
        &self.allocator
    }

    /// Whether the node is still up and heartbeating.
    #[cfg(test)]
    fn is_alive(&self) -> bool {
        self.allocator.state.lock().alive
    }

    /// Simulate the node being reclaimed by the batch system (or crashing):
    /// heartbeats stop and every executor process is torn down, which
    /// disconnects the clients holding leases here. Returns the number of
    /// processes terminated.
    pub fn fail(&self) -> usize {
        self.allocator.terminate_all()
    }

    /// Emit a heartbeat if one is due at `now` (the allocator pings the
    /// manager every `interval`, Sec. III-B). Dead executors emit nothing —
    /// that silence is what the manager's failure detector keys on. Returns
    /// the heartbeat timestamp when one was emitted.
    pub(crate) fn emit_heartbeat_if_due(
        &self,
        now: SimTime,
        interval: SimDuration,
    ) -> Option<SimTime> {
        let mut state = self.allocator.state.lock();
        if !state.alive {
            return None;
        }
        let due = match state.last_heartbeat_sent {
            None => true,
            Some(previous) => now.saturating_since(previous) >= interval,
        };
        if due {
            state.last_heartbeat_sent = Some(now);
            Some(now)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Buffer, WorkerConnection};
    use sandbox::echo_function;

    fn test_lease(cores: u32, package: &str) -> Lease {
        Lease {
            id: 1,
            executor_node: "exec-0".into(),
            cores,
            memory_mib: 1024,
            expires_at: SimTime::from_secs(3600),
            sandbox: SandboxType::BareMetal,
            package: package.into(),
            billing_slot: 0,
        }
    }

    /// Allocate `workers` workers in `mode` on a cold-spawned sandbox.
    fn allocate_cold(
        exec: &SpotExecutor,
        lease: &Lease,
        workers: usize,
        mode: PollingMode,
    ) -> Result<AllocationResult> {
        let policy = AllocationPolicy::Cold;
        exec.allocator()
            .allocate_with_policy(lease, workers, mode, policy)
    }

    /// The allocator's side of an allocation's cold start.
    fn cold_start(result: &AllocationResult) -> SimDuration {
        result.spawn.total() + result.code_submission
    }

    fn registry_with_echo() -> FunctionRegistry {
        let registry = FunctionRegistry::new();
        registry.deploy(CodePackage::minimal("echo-pkg").with_function(echo_function()));
        registry
    }

    fn executor() -> Arc<SpotExecutor> {
        let fabric = Fabric::with_defaults();
        SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 8,
                memory_mib: 32 * 1024,
            },
            registry_with_echo(),
            RFaasConfig::default(),
        )
    }

    fn executor_with_pool(capacity: usize) -> Arc<SpotExecutor> {
        let fabric = Fabric::with_defaults();
        let config = RFaasConfig {
            warm_pool_capacity: capacity,
            ..RFaasConfig::default()
        };
        SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 8,
                memory_mib: 32 * 1024,
            },
            registry_with_echo(),
            config,
        )
    }

    /// Allocate and deallocate once so a warm parent is parked for
    /// `echo-pkg`, returning the pool-enabled executor.
    fn executor_with_parked_parent() -> Arc<SpotExecutor> {
        let exec = executor_with_pool(2);
        let first = allocate_cold(&exec, &test_lease(1, "echo-pkg"), 1, PollingMode::Hot).unwrap();
        exec.allocator().deallocate(first.process_id).unwrap();
        assert_eq!(
            exec.allocator()
                .warm_pool()
                .idle_for(SandboxType::BareMetal, "echo-pkg"),
            1
        );
        exec
    }

    /// A state plane with a session-side writer and an executor-side binding
    /// whose cache holds `cache_bytes`; `keys` are bound to every function
    /// the tests invoke.
    fn state_binding(
        cache_bytes: usize,
        keys: impl IntoIterator<Item = StateKey>,
    ) -> (StateClient, ExecutorStateBinding) {
        let fabric = Fabric::with_defaults();
        let plane = state_plane::StatePlane::new(&fabric, "state-0", 1 << 20);
        let attach = |name: &str, cache_bytes| {
            let node = fabric.add_node(name);
            plane.attach(name, &node, &VirtualClock::shared(), cache_bytes)
        };
        let writer = attach("session", 64 * 1024);
        let mut binding = ExecutorStateBinding::new(attach("executor", cache_bytes));
        let spec = StateSpec::new(keys);
        for function in ["first-byte", "append", "append-then-fail", "rogue"] {
            binding.bind(function, spec.clone());
        }
        (writer, binding)
    }

    /// Replies with the first byte and the length of every declared key.
    fn first_byte_function(keys: &'static [&'static str]) -> SharedFunction {
        SharedFunction::from_stateful_fn("first-byte", move |_input, state, output| {
            for (slot, key) in output.chunks_exact_mut(2).zip(keys) {
                let value = state.read(key)?;
                slot[0] = value.first().copied().unwrap_or(0);
                slot[1] = value.len() as u8;
            }
            Ok(2 * keys.len())
        })
    }

    #[test]
    fn read_only_view_sees_the_value_an_invalidating_put_committed() {
        let (mut writer, mut binding) = state_binding(4096, [StateKey::read("model")]);
        let peek = first_byte_function(&["model"]);
        let mut out = [0u8; 2];
        writer.put("model", &[1u8; 16]).unwrap();
        assert_eq!(binding.invoke(&peek, &[], &mut out), Ok(2));
        assert_eq!(out, [1, 16]);
        // A put from another client invalidates the executor's cached copy;
        // the next borrowed view is over the freshly fetched bytes.
        writer.put("model", &[2u8; 32]).unwrap();
        assert_eq!(binding.invoke(&peek, &[], &mut out), Ok(2));
        assert_eq!(out, [2, 32]);
        assert_eq!(binding.invoke(&peek, &[], &mut out), Ok(2));
        let stats = binding.client.stats();
        assert_eq!(stats.invalidations_applied, 1);
        assert_eq!(
            (stats.gets, stats.remote_reads, stats.cache_hits),
            (3, 2, 1)
        );
        assert_eq!(stats.puts, 0, "a read-only key is never written back");
    }

    #[test]
    fn a_write_is_visible_to_later_reads_of_the_same_invocation() {
        let (mut writer, mut binding) = state_binding(4096, [StateKey::read_write("log")]);
        let append = SharedFunction::from_stateful_fn("append", |input, state, output| {
            let before = state.read("log")?.len();
            state.write("log")?.extend_from_slice(input);
            let after = state.read("log")?;
            output[0] = before as u8;
            output[1..=after.len()].copy_from_slice(after);
            Ok(1 + after.len())
        });
        let mut out = [0u8; 16];
        writer.put("log", &[7, 8]).unwrap();
        assert_eq!(binding.invoke(&append, &[9], &mut out), Ok(4));
        assert_eq!(out[..4], [2, 7, 8, 9]);
        // The overlay was written back once the invocation succeeded.
        assert_eq!(writer.get("log").unwrap(), vec![7, 8, 9]);
        assert_eq!(binding.invoke(&append, &[10], &mut out), Ok(5));
        assert_eq!(out[..5], [3, 7, 8, 9, 10]);
        assert_eq!(binding.client.stats().puts, 2);
    }

    #[test]
    fn failing_stateful_function_leaves_cache_and_plane_untouched() {
        let (mut writer, mut binding) = state_binding(4096, [StateKey::read_write("log")]);
        let fail = SharedFunction::from_stateful_fn("append-then-fail", |_in, state, _out| {
            let log = state.write("log")?;
            log.clear();
            log.push(0xFF);
            Err(FunctionError::ExecutionFailed("after mutating".into()))
        });
        writer.put("log", &[7, 8]).unwrap();
        let mut out = [0u8; 2];
        assert_eq!(
            binding.invoke(&fail, &[], &mut out),
            Err(FunctionError::ExecutionFailed("after mutating".into()))
        );
        assert_eq!(binding.client.stats().puts, 0, "nothing is written back");
        assert_eq!(writer.get("log").unwrap(), vec![7, 8]);
        // The executor's cached copy is the committed value, served as a hit.
        let hits = binding.client.stats().cache_hits;
        let peek = first_byte_function(&["log"]);
        assert_eq!(binding.invoke(&peek, &[], &mut out), Ok(2));
        assert_eq!(out, [7, 2]);
        assert_eq!(binding.client.stats().cache_hits, hits + 1);
    }

    #[test]
    fn declared_set_larger_than_the_cache_is_served_from_owned_copies() {
        // Three 400-byte values against a 1000-byte cache: fetching the
        // third evicts the first, which the window already points at.
        let keys = [
            StateKey::read("a"),
            StateKey::read("b"),
            StateKey::read_write("c"),
        ];
        let (mut writer, mut binding) = state_binding(1000, keys.clone());
        for (key, fill) in [("a", 1u8), ("b", 2), ("c", 3)] {
            writer.put(key, &[fill; 400]).unwrap();
        }
        let bump = SharedFunction::from_stateful_fn("first-byte", |_in, state, output| {
            let c = state.write("c")?;
            c[0] += 10;
            for (slot, key) in output.iter_mut().zip(["a", "b", "c"]) {
                *slot = state.read(key)?[0];
            }
            Ok(3)
        });
        let mut out = [0u8; 3];
        assert_eq!(binding.invoke(&bump, &[], &mut out), Ok(3));
        assert_eq!(out, [1, 2, 13]);
        assert_eq!(binding.invoke(&bump, &[], &mut out), Ok(3));
        assert_eq!(out, [1, 2, 23]);
        assert_eq!(writer.get("c").unwrap()[0], 23);

        // The same invocations through a cache too small for any two values
        // cost exactly what per-key copies cost: every read is a miss.
        let (mut writer, mut binding) = state_binding(500, keys);
        for (key, fill) in [("a", 1u8), ("b", 2), ("c", 3)] {
            writer.put(key, &[fill; 400]).unwrap();
        }
        assert_eq!(binding.invoke(&bump, &[], &mut out), Ok(3));
        assert_eq!(out, [1, 2, 13]);
        let stats = binding.client.stats();
        assert_eq!(
            (stats.gets, stats.remote_reads, stats.cache_hits),
            (3, 3, 0)
        );
    }

    #[test]
    fn writing_a_read_only_key_is_a_state_access_violation() {
        let (mut writer, mut binding) = state_binding(4096, [StateKey::read("model")]);
        writer.put("model", &[1u8; 16]).unwrap();
        let rogue = SharedFunction::from_stateful_fn("rogue", |_in, state, _out| {
            state.write("model")?.push(0);
            Ok(0)
        });
        let err = binding.invoke(&rogue, &[], &mut []).unwrap_err();
        assert!(
            matches!(&err, FunctionError::StateAccess(why) if why.contains("read-only")),
            "{err:?}"
        );
        assert_eq!(writer.get("model").unwrap(), vec![1u8; 16]);
    }

    /// Post one invocation of the package's first function over the wire,
    /// the way a client without a session does. The result lands in the
    /// returned buffer.
    fn post_raw(client: &Endpoint, conn: &WorkerConnection, id: u32) -> Buffer {
        let output = Buffer::output(&client.pd, 64);
        let mut wire = InvocationHeader::for_result_buffer(&output.remote_handle())
            .encode()
            .to_vec();
        wire.extend_from_slice(&[7u8; 8]);
        conn.qp
            .post_write_inline(
                u64::from(id),
                &wire,
                &conn.remote_input.slice(0, wire.len()),
                Some(ImmValue::request(id, 0)),
                false,
            )
            .unwrap();
        output
    }

    /// Wait for the worker's answer to invocation `id` and return its status.
    fn answer(client: &Endpoint, conn: &WorkerConnection, id: u32) -> ResultStatus {
        let mut reply = None;
        client.fabric.run_until(
            || {
                if reply.is_none() {
                    reply = conn.ring.poll_one();
                }
                reply.is_some()
            },
            std::time::Duration::from_secs(5),
        );
        let imm = reply.expect("the worker answers").wc.imm.unwrap_or(0);
        let (answered, status) = ImmValue::parse_response(imm);
        assert_eq!(answered, id);
        status
    }

    /// Invoke once and return the status the worker answered with.
    fn invoke_raw(client: &Endpoint, conn: &WorkerConnection, id: u32) -> ResultStatus {
        let _output = post_raw(client, conn, id);
        answer(client, conn, id)
    }

    /// Two hot workers sharing a one-core lease (Sec. III-D, Fig. 6), both
    /// connected from the returned client endpoint. Worker 0 has served one
    /// invocation, so it holds the core.
    fn hot_pair_on_one_core() -> (Arc<SpotExecutor>, u64, Endpoint, [WorkerConnection; 2]) {
        let fabric = Fabric::with_defaults();
        let exec = SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 8,
                memory_mib: 32 * 1024,
            },
            registry_with_echo(),
            RFaasConfig::default(),
        );
        let allocation =
            allocate_cold(&exec, &test_lease(1, "echo-pkg"), 2, PollingMode::Hot).unwrap();
        let client = Endpoint::new(&fabric, &fabric.add_node("client"));
        let pool = rdma_fabric::ConnectionPool::new();
        let connect = |index: usize| {
            let timeout = std::time::Duration::from_secs(5);
            let worker = &allocation.workers[index];
            WorkerConnection::connect(&client, worker, &pool, "exec-0", timeout, index).unwrap()
        };
        let first = connect(0);
        assert_eq!(invoke_raw(&client, &first, 1), ResultStatus::Success);
        let second = connect(1);
        (exec, allocation.process_id, client, [first, second])
    }

    #[test]
    fn oversubscribed_worker_is_rejected_while_its_sibling_holds_the_core() {
        let (exec, process_id, client, [first, second]) = hot_pair_on_one_core();
        // Worker 0 polls hot and keeps the core; worker 1 cannot take it.
        assert_eq!(invoke_raw(&client, &second, 2), ResultStatus::Rejected);
        assert_eq!(invoke_raw(&client, &first, 3), ResultStatus::Success);
        // Past the hot-poll budget, worker 0's next request demotes it and
        // frees the core: worker 1's request, served right after it in the
        // same drain, runs instead of being rejected.
        client.clock.advance(HOT_POLL_TIMEOUT * 2);
        let _outputs = [post_raw(&client, &first, 4), post_raw(&client, &second, 5)];
        assert_eq!(answer(&client, &first, 4), ResultStatus::Success);
        assert_eq!(answer(&client, &second, 5), ResultStatus::Success);
        let process = exec.allocator().process(process_id).unwrap();
        assert_eq!(process.worker_mode(0), PollingMode::Warm);
        drop(process);
        let stats = exec.allocator().deallocate(process_id).unwrap();
        assert_eq!((stats.invocations, stats.rejected), (4, 1));
        assert_eq!(stats.demotions, 2, "worker 1 spun past the budget too");
    }

    #[test]
    fn a_retired_hot_worker_gives_its_core_back() {
        let (exec, process_id, client, [first, second]) = hot_pair_on_one_core();
        assert_eq!(invoke_raw(&client, &second, 2), ResultStatus::Rejected);
        // Worker 0's client leaves while the worker polls hot on the core:
        // its retirement frees the core, and worker 1 takes it.
        first.qp.disconnect();
        assert_eq!(invoke_raw(&client, &second, 3), ResultStatus::Success);
        let stats = exec.allocator().deallocate(process_id).unwrap();
        assert_eq!((stats.invocations, stats.rejected), (2, 1));
        assert_eq!(stats.demotions, 0);
    }

    #[test]
    fn allocation_reserves_and_deallocation_restores_resources() {
        let exec = executor();
        let lease = test_lease(4, "echo-pkg");
        let result = allocate_cold(&exec, &lease, lease.cores as usize, PollingMode::Hot).unwrap();
        assert_eq!(result.workers.len(), 4);
        assert_eq!(exec.allocator().available().cores, 4);
        assert_eq!(exec.allocator().process_count(), 1);
        let stats = exec.allocator().deallocate(result.process_id).unwrap();
        assert_eq!(stats.invocations, 0);
        assert_eq!(exec.allocator().available().cores, 8);
        assert_eq!(exec.allocator().process_count(), 0);
    }

    #[test]
    fn allocation_fails_for_unknown_package() {
        let exec = executor();
        let lease = test_lease(1, "missing-pkg");
        let err = allocate_cold(&exec, &lease, lease.cores as usize, PollingMode::Hot).unwrap_err();
        assert!(matches!(err, RFaasError::UnknownPackage(_)));
        // Resources must not leak on the failure path.
        assert_eq!(exec.allocator().available().cores, 8);
    }

    #[test]
    fn allocation_fails_when_resources_exhausted() {
        let exec = executor();
        let lease = test_lease(6, "echo-pkg");
        let first = allocate_cold(&exec, &lease, lease.cores as usize, PollingMode::Hot).unwrap();
        let err =
            allocate_cold(&exec, &test_lease(6, "echo-pkg"), 6, PollingMode::Hot).unwrap_err();
        assert!(matches!(err, RFaasError::InsufficientResources { .. }));
        exec.allocator().deallocate(first.process_id).unwrap();
    }

    #[test]
    fn cold_start_breakdown_matches_sandbox_scale() {
        let exec = executor();
        let result = allocate_cold(&exec, &test_lease(1, "echo-pkg"), 1, PollingMode::Hot).unwrap();
        let total = cold_start(&result).as_millis_f64();
        assert!(
            (10.0..80.0).contains(&total),
            "bare-metal cold start {total} ms"
        );
        assert!(result.code_submission.as_millis_f64() < 10.0);
        exec.allocator().deallocate(result.process_id).unwrap();
    }

    #[test]
    fn docker_allocation_is_slower_and_uses_virtual_function() {
        let exec = executor();
        let mut lease = test_lease(1, "echo-pkg");
        lease.sandbox = SandboxType::Docker;
        let result = allocate_cold(&exec, &lease, lease.cores as usize, PollingMode::Hot).unwrap();
        assert!(cold_start(&result).as_secs_f64() > 2.0);
        exec.allocator().deallocate(result.process_id).unwrap();
    }

    #[test]
    fn deallocate_unknown_process_errors() {
        let exec = executor();
        assert!(matches!(
            exec.allocator().deallocate(999),
            Err(RFaasError::UnknownLease(999))
        ));
    }

    #[test]
    fn zero_worker_allocation_is_rejected() {
        let exec = executor();
        let err =
            allocate_cold(&exec, &test_lease(1, "echo-pkg"), 0, PollingMode::Hot).unwrap_err();
        assert!(matches!(err, RFaasError::Internal(_)));
    }

    #[test]
    fn oversubscribed_deallocate_restores_exactly_the_leased_cores() {
        let exec = executor();
        let lease = test_lease(2, "echo-pkg");
        // 4 workers over 2 leased cores: only 2 cores are reserved.
        let result =
            allocate_cold(&exec, &lease, 2 * lease.cores as usize, PollingMode::Warm).unwrap();
        assert_eq!(result.workers.len(), 4);
        assert_eq!(exec.allocator().available().cores, 6);
        exec.allocator().deallocate(result.process_id).unwrap();
        // Regression: restoring workers.len() cores would inflate the pool
        // to 10 here (and leak cores for undersubscribed allocations).
        assert_eq!(exec.allocator().available().cores, 8);
        assert_eq!(
            exec.allocator().available().memory_mib,
            exec.resources().memory_mib
        );
    }

    #[test]
    fn spawn_failure_rolls_back_reservation_and_partial_state() {
        let exec = executor();
        exec.allocator().inject_spawn_failure(2);
        let err =
            allocate_cold(&exec, &test_lease(4, "echo-pkg"), 4, PollingMode::Hot).unwrap_err();
        assert!(matches!(err, RFaasError::Internal(_)));
        // Regression: the reservation debited before spawning must be
        // restored, no half-built process may linger, and the two workers
        // spawned before the failure must be shut down (drop joins them).
        assert_eq!(exec.allocator().available().cores, 8);
        assert_eq!(
            exec.allocator().available().memory_mib,
            exec.resources().memory_mib
        );
        assert_eq!(exec.allocator().process_count(), 0);
        // The hook disarms itself: the next allocation succeeds.
        let result = allocate_cold(&exec, &test_lease(4, "echo-pkg"), 4, PollingMode::Hot).unwrap();
        exec.allocator().deallocate(result.process_id).unwrap();
    }

    #[test]
    fn reap_expired_reclaims_processes_after_the_deadline() {
        let exec = executor();
        let mut lease = test_lease(2, "echo-pkg");
        lease.expires_at = SimTime::from_secs(10);
        let result = allocate_cold(&exec, &lease, lease.cores as usize, PollingMode::Hot).unwrap();
        assert_eq!(exec.allocator().reap_expired(SimTime::from_secs(9)), 0);
        assert_eq!(exec.allocator().process_count(), 1);
        assert_eq!(exec.allocator().reap_expired(SimTime::from_secs(10)), 1);
        assert_eq!(exec.allocator().process_count(), 0);
        assert_eq!(exec.allocator().available().cores, 8);
        assert!(exec.allocator().process(result.process_id).is_none());
    }

    #[test]
    fn extend_lease_pushes_the_process_deadline_forward() {
        let exec = executor();
        let mut lease = test_lease(1, "echo-pkg");
        lease.expires_at = SimTime::from_secs(10);
        let result = allocate_cold(&exec, &lease, lease.cores as usize, PollingMode::Hot).unwrap();
        assert_eq!(
            exec.allocator()
                .extend_lease(lease.id, SimTime::from_secs(50)),
            1
        );
        // Extending an unknown lease touches nothing.
        assert_eq!(
            exec.allocator().extend_lease(999, SimTime::from_secs(99)),
            0
        );
        assert_eq!(exec.allocator().reap_expired(SimTime::from_secs(20)), 0);
        // The deadline is monotonic: an earlier extension still counts the
        // process but leaves its deadline at 50 s.
        assert_eq!(
            exec.allocator()
                .extend_lease(lease.id, SimTime::from_secs(30)),
            1
        );
        assert_eq!(exec.allocator().reap_expired(SimTime::from_secs(49)), 0);
        assert!(exec.allocator().process(result.process_id).is_some());
        assert_eq!(exec.allocator().reap_expired(SimTime::from_secs(50)), 1);
    }

    #[test]
    fn failed_executor_terminates_processes_and_stops_heartbeating() {
        let exec = executor();
        allocate_cold(&exec, &test_lease(2, "echo-pkg"), 2, PollingMode::Hot).unwrap();
        assert!(exec.is_alive());
        let interval = SimDuration::from_secs(5);
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(1), interval)
            .is_some());
        // Not due again until a full interval elapsed.
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(3), interval)
            .is_none());
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(6), interval)
            .is_some());
        assert_eq!(exec.fail(), 1);
        assert!(!exec.is_alive());
        assert_eq!(exec.allocator().process_count(), 0);
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(11), interval)
            .is_none());
    }

    #[test]
    fn heartbeat_at_time_zero_still_rate_limits() {
        let exec = executor();
        let interval = SimDuration::from_secs(5);
        // Regression: a ZERO sentinel made an emission at t=0 invisible, so
        // every later call emitted regardless of the interval.
        assert!(exec
            .emit_heartbeat_if_due(SimTime::ZERO, interval)
            .is_some());
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(1), interval)
            .is_none());
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(5), interval)
            .is_some());
    }

    #[test]
    fn integer_sqrt_floors() {
        assert_eq!(integer_sqrt(0), 0);
        assert_eq!(integer_sqrt(1), 1);
        assert_eq!(integer_sqrt(3), 1);
        assert_eq!(integer_sqrt(4), 2);
        assert_eq!(integer_sqrt(15), 3);
        assert_eq!(integer_sqrt(16), 4);
        assert_eq!(integer_sqrt(17), 4);
    }

    #[test]
    fn srq_depth_is_sublinear_in_worker_count() {
        let exec = executor();
        let one = allocate_cold(&exec, &test_lease(2, "echo-pkg"), 1, PollingMode::Warm).unwrap();
        let sixteen =
            allocate_cold(&exec, &test_lease(2, "echo-pkg"), 16, PollingMode::Warm).unwrap();
        let depth1 = exec
            .allocator()
            .process(one.process_id)
            .unwrap()
            .srq_stats()
            .max_depth;
        let depth16 = exec
            .allocator()
            .process(sixteen.process_id)
            .unwrap()
            .srq_stats()
            .max_depth;
        // A single worker still gets at least its old private ring depth.
        assert!(depth1 >= RECV_QUEUE_DEPTH);
        // 16 workers share far fewer receive slots than 16 private rings
        // would pin — receive memory is sublinear in the connection count.
        assert!(
            depth16 < 16 * RECV_QUEUE_DEPTH,
            "16-worker SRQ depth {depth16} should undercut 16 private rings"
        );
        assert!(depth16 * 4 <= 16 * depth1, "depth must grow sublinearly");
        exec.allocator().deallocate(one.process_id).unwrap();
        exec.allocator().deallocate(sixteen.process_id).unwrap();
    }

    #[test]
    fn srq_stats_of_unknown_process_are_empty() {
        let exec = executor();
        assert!(exec.allocator().process(999).is_none());
    }

    #[test]
    fn deallocate_parks_into_warm_pool_when_enabled() {
        let exec = executor_with_pool(2);
        let result = allocate_cold(&exec, &test_lease(4, "echo-pkg"), 4, PollingMode::Hot).unwrap();
        exec.allocator().deallocate(result.process_id).unwrap();
        // The sandbox was parked, not torn down, and the reservation was
        // still restored in full.
        let pool = exec.allocator().warm_pool();
        assert_eq!(pool.idle_for(SandboxType::BareMetal, "echo-pkg"), 1);
        assert_eq!(pool.stats().returned, 1);
        assert_eq!(exec.allocator().available().cores, 8);
    }

    #[test]
    fn disabled_pool_never_parks() {
        let exec = executor();
        let result = allocate_cold(&exec, &test_lease(1, "echo-pkg"), 1, PollingMode::Hot).unwrap();
        exec.allocator().deallocate(result.process_id).unwrap();
        let pool = exec.allocator().warm_pool();
        assert_eq!(pool.idle_for(SandboxType::BareMetal, "echo-pkg"), 0);
        assert_eq!(pool.stats().rejected, 1);
    }

    #[test]
    fn fork_allocation_is_microseconds_and_faults_lazily() {
        let exec = executor_with_parked_parent();
        let result = exec
            .allocator()
            .allocate_with_policy(
                &test_lease(1, "echo-pkg"),
                1,
                PollingMode::Warm,
                AllocationPolicy::Fork,
            )
            .unwrap();
        // Fork setup is µs-scale — orders of magnitude below the ~17 ms
        // bare-metal cold spawn — and submits no code (the snapshot already
        // holds the package).
        let total = cold_start(&result).as_micros_f64();
        assert!(total < 100.0, "forked allocation took {total} µs");
        assert!(result.code_submission.is_zero());
        // The child starts with an empty address space: every page is still
        // to be faulted in over one-sided READs, none served yet.
        let fork = exec
            .allocator()
            .process(result.process_id)
            .unwrap()
            .fork_state()
            .unwrap();
        assert!(fork.total_pages() > 0);
        assert_eq!(fork.pages_faulted(), 0);
        assert!(!fork.is_complete());
        // The parent stays parked and can seed further forks.
        assert_eq!(
            exec.allocator()
                .warm_pool()
                .idle_for(SandboxType::BareMetal, "echo-pkg"),
            1
        );
    }

    #[test]
    fn warm_pool_hit_resumes_the_parked_parent() {
        let exec = executor_with_parked_parent();
        let result = exec
            .allocator()
            .allocate_with_policy(
                &test_lease(1, "echo-pkg"),
                1,
                PollingMode::Warm,
                AllocationPolicy::WarmPool,
            )
            .unwrap();
        // A pool hit pays only the paused→running resume (150 µs scale) and
        // consumes the parked parent.
        let total = cold_start(&result).as_micros_f64();
        assert!(
            (100.0..1000.0).contains(&total),
            "warm-pool hit took {total} µs"
        );
        assert!(result.code_submission.is_zero());
        assert!(exec
            .allocator()
            .process(result.process_id)
            .unwrap()
            .fork_state()
            .is_none());
        assert_eq!(
            exec.allocator()
                .warm_pool()
                .idle_for(SandboxType::BareMetal, "echo-pkg"),
            0
        );
        assert_eq!(exec.allocator().warm_pool().stats().hits, 1);
    }

    #[test]
    fn fork_and_warm_pool_degrade_to_cold_on_a_miss() {
        for policy in [AllocationPolicy::Fork, AllocationPolicy::WarmPool] {
            let exec = executor_with_pool(2); // enabled but empty
            let result = exec
                .allocator()
                .allocate_with_policy(&test_lease(1, "echo-pkg"), 1, PollingMode::Hot, policy)
                .unwrap();
            assert!(
                cold_start(&result).as_millis_f64() > 10.0,
                "a pool miss must pay the full cold spawn"
            );
            assert!(exec
                .allocator()
                .process(result.process_id)
                .unwrap()
                .fork_state()
                .is_none());
            assert_eq!(exec.allocator().warm_pool().stats().misses, 1);
        }
    }
}

//! Queue pairs: the send/receive endpoints of an RDMA connection.
//!
//! A [`QueuePair`] is owned by exactly one actor (its virtual clock) and is
//! connected to exactly one peer queue pair, mirroring the reliable-connected
//! (RC) transport rFaaS uses. Posting to the send queue is non-blocking — the
//! actor only pays the WQE/doorbell cost — while the simulated NIC streams
//! the data and delivers completions with fabric-model timestamps.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, MutexGuard, OnceLock};

use sim_core::sync::Mutex;
use sim_core::{SimTime, VirtualClock};

use crate::cq::CompletionQueue;
use crate::device::{DeviceFunction, CX5_100G};
use crate::error::{FabricError, Result};
use crate::fabric::{Fabric, FabricNode};
use crate::memory::{in_bounds, MemoryRegion, RemoteMemoryHandle};
use crate::pd::ProtectionDomain;
use crate::ring::{Posted, RecvQueue};
use crate::srq::SharedReceiveQueue;
use crate::verbs::{CompletionStatus, OpCode, RecvRequest, SendRequest, Sge, WorkCompletion};

/// Everything needed to create queue pairs for one actor on one node, built
/// by [`Endpoint::new`]: its fabric numbers its keys and queue pairs.
///
/// Outside this crate no other constructor exists: the struct is
/// `#[non_exhaustive]`, so a literal or a struct update fails to compile.
///
/// ```compile_fail,E0639
/// use rdma_fabric::{DeviceFunction, Endpoint, Fabric};
/// let fabric = Fabric::with_defaults();
/// let endpoint = Endpoint::new(&fabric, &fabric.add_node("node"));
/// let forged = Endpoint { function: DeviceFunction::Virtual, ..endpoint };
/// ```
#[derive(Clone)]
#[non_exhaustive]
pub struct Endpoint {
    /// The fabric the endpoint attaches to.
    pub fabric: Arc<Fabric>,
    /// The node (machine) the actor runs on.
    pub node: Arc<FabricNode>,
    /// The actor's virtual clock.
    pub clock: Arc<VirtualClock>,
    /// The protection domain holding the actor's registrations.
    pub pd: ProtectionDomain,
    /// Physical function (bare metal) or SR-IOV virtual function (container).
    pub function: DeviceFunction,
}

impl Endpoint {
    /// Create an endpoint on `node` with a fresh clock and a fresh
    /// protection domain of `fabric`, attached to the physical function.
    pub fn new(fabric: &Arc<Fabric>, node: &Arc<FabricNode>) -> Endpoint {
        Endpoint {
            fabric: Arc::clone(fabric),
            node: Arc::clone(node),
            clock: VirtualClock::shared(),
            pd: ProtectionDomain::new(fabric),
            function: DeviceFunction::Physical,
        }
    }

    /// Replace the clock (actors that share a clock across several QPs).
    pub fn with_clock(mut self, clock: Arc<VirtualClock>) -> Endpoint {
        self.clock = clock;
        self
    }

    /// Replace the device function (a container's SR-IOV virtual function).
    pub fn with_function(mut self, function: DeviceFunction) -> Endpoint {
        self.function = function;
        self
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("node", &self.node.name())
            .field("function", &self.function)
            .finish()
    }
}

/// Connection state of a queue pair (a simplified RESET→INIT→RTS ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Created but not yet connected; receives may be pre-posted.
    Init,
    /// Connected to a peer; all verbs allowed.
    Connected,
    /// Torn down; all verbs fail.
    Disconnected,
}

impl QpState {
    fn name(self) -> &'static str {
        match self {
            QpState::Init => "INIT",
            QpState::Connected => "CONNECTED",
            QpState::Disconnected => "DISCONNECTED",
        }
    }
}

/// A [`QpState`] in one atomic byte: every post reads its own and its
/// peer's state, so the read takes no lock.
struct AtomicQpState(AtomicU8);

impl AtomicQpState {
    fn new(state: QpState) -> AtomicQpState {
        AtomicQpState(AtomicU8::new(state as u8))
    }

    fn load(&self) -> QpState {
        Self::decode(self.0.load(Ordering::Acquire))
    }

    fn store(&self, state: QpState) {
        self.0.store(state as u8, Ordering::Release);
    }

    /// Store `state`, returning the state it replaced.
    fn swap(&self, state: QpState) -> QpState {
        Self::decode(self.0.swap(state as u8, Ordering::AcqRel))
    }

    fn decode(byte: u8) -> QpState {
        match byte {
            s if s == QpState::Init as u8 => QpState::Init,
            s if s == QpState::Connected as u8 => QpState::Connected,
            _ => QpState::Disconnected,
        }
    }
}

/// One side of a connection: everything a post on either side touches.
/// It holds no link to its peer, so a connected pair forms no cycle and
/// each side is freed with the last handle that reaches it.
pub(crate) struct QpInner {
    qp_num: u32,
    fabric: Arc<Fabric>,
    node: Arc<FabricNode>,
    clock: Arc<VirtualClock>,
    pd: ProtectionDomain,
    function: DeviceFunction,
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
    /// The private receive queue, and the slot ledger of the ring posting
    /// into it ([`ReceiveRing`](crate::ReceiveRing)): one lock covers a
    /// slot's pickup and its repost.
    recv_queue: Mutex<RecvQueue>,
    /// When set, incoming messages consume buffers from this shared queue
    /// instead of the private `recv_queue` (ibv SRQ association). Set at
    /// most once, by [`QueuePair::attach_srq`], and never replaced.
    srq: OnceLock<SharedReceiveQueue>,
    /// The first region a peer's one-sided operation resolved here, the
    /// way a NIC caches a translation entry: an rkey that names it and is
    /// still registered resolves without the domain's table. Set once, so
    /// it is read without a lock; another rkey falls back to the table. Like
    /// a posted receive, it keeps the region's bytes until the queue pair
    /// drops.
    translation: OnceLock<MemoryRegion>,
    state: AtomicQpState,
}

impl QpInner {
    /// The buffer of ring slot `slot`, which an incoming SEND just consumed:
    /// built from the slab of the ledger kept by the queue the slot was
    /// posted to, the one [`QueuePair::consume_peer_recv`] pops from.
    fn slot_buffer(&self, slot: usize) -> Sge {
        match self.srq.get() {
            Some(srq) => srq.lock().0.ring_slot(slot),
            None => self.recv_queue.lock().ring_slot(slot),
        }
    }

    /// Mark this side `Disconnected`, wake its completion waits and give
    /// back its SRQ credit entry, once: a side already disconnected is left
    /// as it is. Without an SRQ, flush the private receive queue, as a move
    /// to the error state does in verbs, but push no completion; an SRQ's
    /// receives stay for its other queue pairs.
    fn disconnect(&self) {
        if self.state.swap(QpState::Disconnected) == QpState::Disconnected {
            return;
        }
        self.send_cq.disconnect();
        self.recv_cq.disconnect();
        match self.srq.get() {
            Some(srq) => srq.detach(self.qp_num),
            None => self.recv_queue.lock().flush(FabricError::InvalidQpState {
                operation: "post_recv",
                state: QpState::Disconnected.name(),
            }),
        }
    }

    /// Resolve `rkey`, which a peer's one-sided operation names, against
    /// this side's protection domain: from the cached translation while it
    /// names a live registration, from the domain's table otherwise.
    fn resolve(&self, rkey: u64) -> Result<Cow<'_, MemoryRegion>> {
        if let Some(region) = self.translation.get() {
            if region.rkey() == rkey && region.is_registered() {
                return Ok(Cow::Borrowed(region));
            }
        }
        let region = self.pd.lookup(rkey)?;
        let _ = self.translation.set(region.clone());
        Ok(Cow::Owned(region))
    }
}

impl std::fmt::Debug for QpInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QpInner")
            .field("qp_num", &self.qp_num)
            .field("node", &self.node.name())
            .field("state", &self.state.load())
            .finish()
    }
}

/// One endpoint of a reliable RDMA connection.
#[derive(Debug, Clone)]
pub struct QueuePair {
    inner: Arc<QpInner>,
    /// The peer's side, set once by [`QueuePair::connect_pair`] before this
    /// side is marked `Connected`, and never cleared: a post reads it
    /// without a lock or a reference count. Shared by this side's handles
    /// only, so the pair holds no cycle.
    peer: Arc<OnceLock<Arc<QpInner>>>,
}

impl QueuePair {
    /// Create an unconnected queue pair for `endpoint`.
    pub fn new(endpoint: &Endpoint) -> QueuePair {
        let send_cq = CompletionQueue::new(
            Arc::clone(&endpoint.clock),
            Arc::clone(&endpoint.node),
            endpoint.function,
        );
        let recv_cq = CompletionQueue::new(
            Arc::clone(&endpoint.clock),
            Arc::clone(&endpoint.node),
            endpoint.function,
        );
        QueuePair {
            inner: Arc::new(QpInner {
                qp_num: endpoint.fabric.next_qp_num(),
                fabric: Arc::clone(&endpoint.fabric),
                node: Arc::clone(&endpoint.node),
                clock: Arc::clone(&endpoint.clock),
                pd: endpoint.pd.clone(),
                function: endpoint.function,
                send_cq,
                recv_cq,
                recv_queue: Mutex::new(RecvQueue::new(
                    CX5_100G.max_recv_queue_depth,
                    "receive queue depth",
                )),
                srq: OnceLock::new(),
                translation: OnceLock::new(),
                state: AtomicQpState::new(QpState::Init),
            }),
            peer: Arc::new(OnceLock::new()),
        }
    }

    /// Queue pair number.
    pub fn qp_num(&self) -> u32 {
        self.inner.qp_num
    }

    /// Current connection state.
    pub fn state(&self) -> QpState {
        self.inner.state.load()
    }

    /// The completion queue receiving send-side completions.
    pub fn send_cq(&self) -> &CompletionQueue {
        &self.inner.send_cq
    }

    /// The completion queue receiving receive-side completions.
    pub fn recv_cq(&self) -> &CompletionQueue {
        &self.inner.recv_cq
    }

    /// The protection domain the QP validates remote keys against.
    pub fn pd(&self) -> &ProtectionDomain {
        &self.inner.pd
    }

    /// The owning actor's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.inner.clock
    }

    /// The node this endpoint runs on.
    pub fn node(&self) -> &Arc<FabricNode> {
        &self.inner.node
    }

    /// Device function (physical or SR-IOV virtual) of this endpoint.
    pub fn function(&self) -> DeviceFunction {
        self.inner.function
    }

    /// Connect two queue pairs directly (used by the connection manager and
    /// by tests). Both must be in the `Init` state, and a queue pair
    /// connects once.
    pub fn connect_pair(a: &QueuePair, b: &QueuePair) -> Result<()> {
        for qp in [a, b] {
            let state = qp.state();
            if state != QpState::Init {
                return Err(FabricError::InvalidQpState {
                    operation: "connect",
                    state: state.name(),
                });
            }
        }
        // Each peer is linked before its side is marked connected.
        if a.peer.set(Arc::clone(&b.inner)).is_err() || b.peer.set(Arc::clone(&a.inner)).is_err() {
            return Err(FabricError::InvalidQpState {
                operation: "connect",
                state: QpState::Connected.name(),
            });
        }
        a.inner.state.store(QpState::Connected);
        b.inner.state.store(QpState::Connected);
        Ok(())
    }

    /// Associate this queue pair with a shared receive queue: incoming
    /// messages will consume buffers from `srq` (with a flow-control budget
    /// of `credit` concurrently held buffers) instead of the private receive
    /// queue. Mirrors passing `srq` to `ibv_create_qp`, so the association is
    /// fixed: a QP attaches to at most one SRQ, once, and a second call is
    /// ignored. Completions still land on this QP's own receive CQ.
    pub fn attach_srq(&self, srq: &SharedReceiveQueue, credit: usize) {
        if self.inner.srq.set(srq.clone()).is_ok() {
            srq.attach(self.inner.qp_num, credit);
        }
    }

    /// Tear down the connection. Peers observe `ConnectionLost` on their next
    /// operation and blocked completion waits wake with `None`. Both sides
    /// are marked `Disconnected`, this one first, and each SRQ credit entry
    /// goes with the first disconnect only.
    pub fn disconnect(&self) {
        self.inner.disconnect();
        if let Some(peer) = self.peer.get() {
            peer.disconnect();
        }
    }

    /// Whether the connection is up. One load: a side is marked
    /// `Connected` only after its peer is linked, and the link is never
    /// cleared.
    pub fn is_connected(&self) -> bool {
        self.state() == QpState::Connected
    }

    /// Post a receive work request: a buffer waiting for a SEND or
    /// WRITE_WITH_IMM from the peer.
    pub fn post_recv(&self, recv: RecvRequest) -> Result<()> {
        let mut queue = self.private_recv_queue()?;
        validate_sge(&recv.local)?;
        queue.push(Posted::Request(recv))?;
        drop(queue);
        self.inner.clock.advance(CX5_100G.post_recv_overhead);
        Ok(())
    }

    /// The private receive queue, locked for a post: refused on a queue pair
    /// that draws on an SRQ. A disconnected queue pair's queue is flushed,
    /// and refuses the post itself.
    #[cfg_attr(debug_assertions, track_caller)]
    pub(crate) fn private_recv_queue(&self) -> Result<MutexGuard<'_, RecvQueue>> {
        if self.inner.srq.get().is_some() {
            return Err(FabricError::UnsupportedOperation(
                "post_recv on an SRQ-attached queue pair (post to the SRQ instead)",
            ));
        }
        Ok(self.recv_queue())
    }

    /// The private receive queue, locked. (A lock pin names the caller.)
    #[cfg_attr(debug_assertions, track_caller)]
    pub(crate) fn recv_queue(&self) -> MutexGuard<'_, RecvQueue> {
        self.inner.recv_queue.lock()
    }

    /// Number of receive work requests currently posted.
    pub fn posted_receives(&self) -> usize {
        self.recv_queue().len()
    }

    /// Post a send-queue work request (write, write-with-immediate, send,
    /// read or atomic). `signaled` controls whether a send-side completion is
    /// generated.
    ///
    /// The call is non-blocking: the caller's virtual clock only advances by
    /// the posting overhead, while transfer timing is reflected in the
    /// completion timestamps.
    pub fn post_send(&self, wr_id: u64, request: SendRequest, signaled: bool) -> Result<()> {
        self.post_send_inner(wr_id, request, signaled, false)
    }

    /// Post a chain of send-queue work requests behind a single doorbell.
    ///
    /// Real verbs accept a linked list of WQEs per `ibv_post_send`; only the
    /// first pays the doorbell MMIO, the rest pay the (cheaper) descriptor
    /// build. Requests execute in order; on the first failure the error is
    /// returned and the remaining requests are not posted (the earlier ones
    /// already executed, as on real hardware). Returns the number posted.
    pub fn post_send_batch(&self, requests: Vec<(u64, SendRequest, bool)>) -> Result<usize> {
        let mut posted = 0;
        for (wr_id, request, signaled) in requests {
            self.post_send_chained(wr_id, request, signaled, posted > 0)?;
            posted += 1;
        }
        Ok(posted)
    }

    /// Post one send-queue work request as an explicit link of a
    /// caller-managed WQE chain: `chained = false` opens a chain (full
    /// doorbell issue cost), `chained = true` appends to one (descriptor
    /// build only). This is the primitive [`QueuePair::post_send_batch`] is
    /// built on, exposed so a caller coordinating a burst across several
    /// queue pairs on the same NIC (one WQE per peer, all descriptors built
    /// before the doorbells are rung, as the mlx5 driver does for post
    /// bursts) can bill the chain across connections.
    pub fn post_send_chained(
        &self,
        wr_id: u64,
        request: SendRequest,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        self.post_send_inner(wr_id, request, signaled, chained)
    }

    /// Post a write(-with-immediate) whose payload is *inlined* into the
    /// WQE: the NIC copies the bytes at post time, so no registered local
    /// buffer (and no DMA fetch) is involved — the zero-copy fast path rFaaS
    /// uses for small invocations. Fails with [`FabricError::InlineTooLarge`]
    /// beyond the device's `max_inline_data`.
    pub fn post_write_inline(
        &self,
        wr_id: u64,
        data: &[u8],
        remote: &RemoteMemoryHandle,
        imm: Option<u32>,
        signaled: bool,
    ) -> Result<()> {
        let max = CX5_100G.max_inline_data;
        if data.len() > max {
            return Err(FabricError::InlineTooLarge {
                len: data.len(),
                max,
            });
        }
        let peer = self.connected_peer("post_send")?;
        let source = WriteSource::Inline(data);
        self.write_remote_bytes(wr_id, source, remote, imm, peer, signaled, false)
    }

    fn post_send_inner(
        &self,
        wr_id: u64,
        request: SendRequest,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let peer = self.connected_peer("post_send")?;
        validate_sge(request.local())?;

        match &request {
            SendRequest::Send { local } => self.execute_send(wr_id, local, peer, signaled, chained),
            SendRequest::Write { local, remote } => {
                self.execute_write(wr_id, local, remote, None, peer, signaled, chained)
            }
            SendRequest::WriteWithImm { local, remote, imm } => {
                self.execute_write(wr_id, local, remote, Some(*imm), peer, signaled, chained)
            }
            SendRequest::Read { local, remote } => {
                self.execute_read(wr_id, local, remote, peer, signaled, chained)
            }
            SendRequest::AtomicFetchAdd { local, remote, add } => self.execute_atomic(
                wr_id,
                local,
                remote,
                AtomicOp::FetchAdd(*add),
                peer,
                signaled,
                chained,
            ),
            SendRequest::AtomicCompareSwap {
                local,
                remote,
                compare,
                swap,
            } => self.execute_atomic(
                wr_id,
                local,
                remote,
                AtomicOp::CompareSwap {
                    compare: *compare,
                    swap: *swap,
                },
                peer,
                signaled,
                chained,
            ),
        }
    }

    /// Consume the receive buffer an incoming message lands in: from the
    /// peer's SRQ when one is attached (honouring its credit), otherwise
    /// from its private receive queue — FIFO either way.
    ///
    /// An SRQ that is momentarily *empty* — every posted buffer in flight
    /// to the dispatcher — is not a receiver failure: the NIC answers with
    /// an RNR NAK and the sender retransmits, so this path pumps the fabric's
    /// actors in-line until the consumer reposts (bounded by a generous
    /// wall-clock window). Only a genuine per-QP credit overrun, the
    /// flow-control contract that stops one tenant starving the shared
    /// queue, fails the post immediately. Retries never touch the virtual
    /// clock, so timestamps stay deterministic.
    fn consume_peer_recv(peer: &QpInner) -> Result<Posted> {
        const RNR_RETRY_WINDOW: std::time::Duration = std::time::Duration::from_secs(5);
        let Some(srq) = peer.srq.get() else {
            return peer
                .recv_queue
                .lock()
                .pop()
                .ok_or(FabricError::ReceiverNotReady);
        };
        let retry = |popped: &Result<Posted>| {
            matches!(popped, Err(FabricError::ReceiverNotReady)) && !srq.over_credit(peer.qp_num)
        };
        let mut popped = srq.pop_for(peer.qp_num);
        if retry(&popped) {
            peer.fabric.run_until(
                || {
                    popped = srq.pop_for(peer.qp_num);
                    !retry(&popped)
                },
                RNR_RETRY_WINDOW,
            );
        }
        popped
    }

    fn connected_peer(&self, operation: &'static str) -> Result<&QpInner> {
        let state = self.state();
        if state != QpState::Connected {
            return Err(FabricError::InvalidQpState {
                operation,
                state: state.name(),
            });
        }
        let peer = self.peer.get().ok_or(FabricError::NotConnected)?;
        if peer.state.load() != QpState::Connected {
            return Err(FabricError::ConnectionLost);
        }
        Ok(peer)
    }

    fn issue(&self, payload: usize, chained: bool) -> SimTime {
        let issue = if chained {
            CX5_100G.issue_cost_chained(payload)
        } else {
            CX5_100G.issue_cost(payload)
        };
        let cost = issue + self.inner.function.message_overhead();
        self.inner.clock.advance(cost)
    }

    fn execute_send(
        &self,
        wr_id: u64,
        local: &Sge,
        peer: &QpInner,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let (recv_wr_id, buffer) = match Self::consume_peer_recv(peer)? {
            Posted::Request(recv) => (recv.wr_id, recv.local),
            Posted::Slot(slot) => (slot as u64, peer.slot_buffer(slot)),
        };
        if buffer.len < local.len {
            // The message is lost, as with a real RC transport length error:
            // the receive it consumed completes in error, so its buffer comes
            // back at the pickup, and the initiator is told. Nothing moved,
            // so no clock is charged.
            let error = FabricError::ReceiveBufferTooSmall {
                message_len: local.len,
                buffer_len: buffer.len,
            };
            peer.recv_cq.push(WorkCompletion {
                wr_id: recv_wr_id,
                opcode: OpCode::Recv,
                status: CompletionStatus::Error(error.clone()),
                byte_len: 0,
                imm: None,
                timestamp: self.inner.clock.now(),
                qp_num: peer.qp_num,
            });
            return Err(error);
        }
        local
            .region
            .copy_to(local.offset, &buffer.region, buffer.offset, local.len)?;

        let ready = self.issue(local.len, chained);
        let timing = self
            .inner
            .fabric
            .transfer(&self.inner.node, &peer.node, local.len, ready);
        peer.recv_cq.push(WorkCompletion {
            wr_id: recv_wr_id,
            opcode: OpCode::Recv,
            status: CompletionStatus::Success,
            byte_len: local.len,
            imm: None,
            timestamp: timing.arrive,
            qp_num: peer.qp_num,
        });
        if signaled {
            self.inner.send_cq.push(WorkCompletion {
                wr_id,
                opcode: OpCode::Send,
                status: CompletionStatus::Success,
                byte_len: local.len,
                imm: None,
                timestamp: timing.depart + CX5_100G.local_completion,
                qp_num: self.inner.qp_num,
            });
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_write(
        &self,
        wr_id: u64,
        local: &Sge,
        remote: &RemoteMemoryHandle,
        imm: Option<u32>,
        peer: &QpInner,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let source = WriteSource::Gathered(local);
        self.write_remote_bytes(wr_id, source, remote, imm, peer, signaled, chained)
    }

    /// Shared body of buffered and inline writes: the NIC moves `source`
    /// (the SGE it gathers from, or the bytes already copied into the WQE)
    /// into the target region in one copy.
    #[allow(clippy::too_many_arguments)]
    fn write_remote_bytes(
        &self,
        wr_id: u64,
        source: WriteSource<'_>,
        remote: &RemoteMemoryHandle,
        imm: Option<u32>,
        peer: &QpInner,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let len = source.len();
        let target = peer.resolve(remote.rkey)?;
        if !target.access().remote_write {
            return Err(FabricError::RemoteAccessDenied {
                required: "REMOTE_WRITE",
            });
        }
        check_remote_bounds(remote, len, target.len())?;
        // Write-with-immediate additionally consumes a posted receive so the
        // remote CPU learns about the delivery.
        let consumed_recv = if imm.is_some() {
            Some(Self::consume_peer_recv(peer)?)
        } else {
            None
        };

        match source {
            WriteSource::Gathered(local) => {
                local
                    .region
                    .copy_to(local.offset, &target, remote.offset, len)?
            }
            WriteSource::Inline(data) => target.write(remote.offset, data)?,
        }

        let ready = self.issue(len, chained);
        let timing = self
            .inner
            .fabric
            .transfer(&self.inner.node, &peer.node, len, ready);
        if let Some(recv) = consumed_recv {
            peer.recv_cq.push(WorkCompletion {
                wr_id: recv.wr_id(),
                opcode: OpCode::WriteWithImm,
                status: CompletionStatus::Success,
                byte_len: len,
                imm,
                timestamp: timing.arrive,
                qp_num: peer.qp_num,
            });
        }
        if signaled {
            self.inner.send_cq.push(WorkCompletion {
                wr_id,
                opcode: if imm.is_some() {
                    OpCode::WriteWithImm
                } else {
                    OpCode::Write
                },
                status: CompletionStatus::Success,
                byte_len: len,
                imm: None,
                timestamp: timing.depart + CX5_100G.local_completion,
                qp_num: self.inner.qp_num,
            });
        }
        Ok(())
    }

    fn execute_read(
        &self,
        wr_id: u64,
        local: &Sge,
        remote: &RemoteMemoryHandle,
        peer: &QpInner,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let source = peer.resolve(remote.rkey)?;
        if !source.access().remote_read {
            return Err(FabricError::RemoteAccessDenied {
                required: "REMOTE_READ",
            });
        }
        check_remote_bounds(remote, local.len, source.len())?;
        source.copy_to(remote.offset, &local.region, local.offset, local.len)?;

        // Request travels to the target, the response streams the data back.
        let ready = self.issue(0, chained);
        let request_arrival = ready + CX5_100G.one_way_latency;
        let timing =
            self.inner
                .fabric
                .transfer(&peer.node, &self.inner.node, local.len, request_arrival);
        if signaled {
            self.inner.send_cq.push(WorkCompletion {
                wr_id,
                opcode: OpCode::Read,
                status: CompletionStatus::Success,
                byte_len: local.len,
                imm: None,
                timestamp: timing.arrive,
                qp_num: self.inner.qp_num,
            });
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_atomic(
        &self,
        wr_id: u64,
        local: &Sge,
        remote: &RemoteMemoryHandle,
        op: AtomicOp,
        peer: &QpInner,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let target = peer.resolve(remote.rkey)?;
        if !target.access().remote_atomic {
            return Err(FabricError::RemoteAccessDenied {
                required: "REMOTE_ATOMIC",
            });
        }
        if !remote.offset.is_multiple_of(8) || !in_bounds(remote.offset, 8, target.len()) {
            return Err(FabricError::InvalidAtomicTarget {
                offset: remote.offset,
            });
        }
        if local.len < 8 {
            return Err(FabricError::LocalAccessOutOfBounds {
                offset: local.offset,
                len: 8,
                region_len: local.len,
            });
        }
        // The read-modify-write is atomic because the region lock is held for
        // the whole update.
        let original = target.with_bytes_mut(remote.offset, 8, |slot| {
            let old = u64::from_le_bytes((&*slot).try_into().expect("8-byte slot"));
            let new = match op {
                AtomicOp::FetchAdd(add) => old.wrapping_add(add),
                AtomicOp::CompareSwap { compare, swap } => {
                    if old == compare {
                        swap
                    } else {
                        old
                    }
                }
            };
            slot.copy_from_slice(&new.to_le_bytes());
            old
        })?;
        local.region.write(local.offset, &original.to_le_bytes())?;

        let ready = self.issue(8, chained);
        let completion_time =
            ready + CX5_100G.one_way_latency + CX5_100G.atomic_execution + CX5_100G.one_way_latency;
        if signaled {
            self.inner.send_cq.push(WorkCompletion {
                wr_id,
                opcode: match op {
                    AtomicOp::FetchAdd(_) => OpCode::AtomicFetchAdd,
                    AtomicOp::CompareSwap { .. } => OpCode::AtomicCompareSwap,
                },
                status: CompletionStatus::Success,
                byte_len: 8,
                imm: None,
                timestamp: completion_time,
                qp_num: self.inner.qp_num,
            });
        }
        Ok(())
    }
}

/// Where the bytes of a write come from.
#[derive(Clone, Copy)]
enum WriteSource<'a> {
    /// A registered local buffer the NIC gathers from by DMA.
    Gathered(&'a Sge),
    /// Bytes the CPU already copied into the WQE at post time.
    Inline(&'a [u8]),
}

impl WriteSource<'_> {
    fn len(&self) -> usize {
        match self {
            WriteSource::Gathered(local) => local.len,
            WriteSource::Inline(data) => data.len(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum AtomicOp {
    FetchAdd(u64),
    CompareSwap { compare: u64, swap: u64 },
}

/// `[remote.offset, remote.offset + len)` must lie inside the target
/// registration of a one-sided write or read.
fn check_remote_bounds(remote: &RemoteMemoryHandle, len: usize, region_len: usize) -> Result<()> {
    if in_bounds(remote.offset, len, region_len) {
        Ok(())
    } else {
        Err(FabricError::RemoteAccessOutOfBounds {
            offset: remote.offset,
            len,
            region_len,
        })
    }
}

fn validate_sge(sge: &Sge) -> Result<()> {
    let region_len = sge.region.len();
    if in_bounds(sge.offset, sge.len, region_len) {
        Ok(())
    } else {
        Err(FabricError::LocalAccessOutOfBounds {
            offset: sge.offset,
            len: sge.len,
            region_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{AccessFlags, MemoryRegion};
    use crate::srq::SrqStats;
    use std::sync::atomic::AtomicU64;

    /// Two directly connected endpoints on different nodes.
    fn connected_pair() -> (QueuePair, QueuePair, Arc<Fabric>) {
        let fabric = Fabric::with_defaults();
        let n1 = fabric.add_node("client");
        let n2 = fabric.add_node("server");
        let e1 = Endpoint::new(&fabric, &n1);
        let e2 = Endpoint::new(&fabric, &n2);
        let a = QueuePair::new(&e1);
        let b = QueuePair::new(&e2);
        QueuePair::connect_pair(&a, &b).unwrap();
        (a, b, fabric)
    }

    #[test]
    fn write_moves_bytes_into_remote_region() {
        let (client, server, _f) = connected_pair();
        let src = client
            .pd()
            .register_from(vec![5u8; 64], AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(64, AccessFlags::REMOTE_WRITE);
        client
            .post_send(
                1,
                SendRequest::Write {
                    local: Sge::whole(&src),
                    remote: dst.remote_handle(),
                },
                true,
            )
            .unwrap();
        assert_eq!(dst.read_all(), vec![5u8; 64]);
        let wc = client.send_cq().poll_one().unwrap();
        assert!(wc.is_success());
        assert_eq!(wc.opcode, OpCode::Write);
        assert_eq!(wc.byte_len, 64);
    }

    #[test]
    fn write_with_imm_delivers_immediate_and_consumes_recv() {
        let (client, server, _f) = connected_pair();
        let src = client
            .pd()
            .register_from(vec![9u8; 32], AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(32, AccessFlags::REMOTE_WRITE);
        let scratch = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        server
            .post_recv(RecvRequest {
                wr_id: 77,
                local: Sge::whole(&scratch),
            })
            .unwrap();
        client
            .post_send(
                2,
                SendRequest::WriteWithImm {
                    local: Sge::whole(&src),
                    remote: dst.remote_handle(),
                    imm: 0xABCD,
                },
                false,
            )
            .unwrap();
        let wc = server.recv_cq().poll_one().unwrap();
        assert_eq!(wc.wr_id, 77);
        assert_eq!(wc.imm, Some(0xABCD));
        assert_eq!(wc.opcode, OpCode::WriteWithImm);
        assert_eq!(dst.read_all(), vec![9u8; 32]);
        assert_eq!(server.posted_receives(), 0);
        // Unsignaled send generates no local completion.
        assert_eq!(client.send_cq().pending(), 0);
    }

    #[test]
    fn write_with_imm_without_posted_recv_is_rejected() {
        let (client, server, _f) = connected_pair();
        let src = client.pd().register(16, AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(16, AccessFlags::REMOTE_WRITE);
        let err = client
            .post_send(
                3,
                SendRequest::WriteWithImm {
                    local: Sge::whole(&src),
                    remote: dst.remote_handle(),
                    imm: 1,
                },
                true,
            )
            .unwrap_err();
        assert_eq!(err, FabricError::ReceiverNotReady);
    }

    #[test]
    fn send_recv_round_trip() {
        let (client, server, _f) = connected_pair();
        let src = client
            .pd()
            .register_from(b"hello".to_vec(), AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(16, AccessFlags::LOCAL_ONLY);
        server
            .post_recv(RecvRequest {
                wr_id: 10,
                local: Sge::whole(&dst),
            })
            .unwrap();
        client
            .post_send(
                4,
                SendRequest::Send {
                    local: Sge::whole(&src),
                },
                true,
            )
            .unwrap();
        let wc = server.recv_cq().poll_one().unwrap();
        assert_eq!(wc.opcode, OpCode::Recv);
        assert_eq!(wc.byte_len, 5);
        assert_eq!(&dst.read(0, 5).unwrap(), b"hello");
    }

    #[test]
    fn send_to_small_buffer_fails() {
        let (client, server, _f) = connected_pair();
        let src = client.pd().register(64, AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        server
            .post_recv(RecvRequest {
                wr_id: 1,
                local: Sge::whole(&dst),
            })
            .unwrap();
        let err = client
            .post_send(
                5,
                SendRequest::Send {
                    local: Sge::whole(&src),
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::ReceiveBufferTooSmall { .. }));
    }

    #[test]
    fn read_fetches_remote_bytes() {
        let (client, server, _f) = connected_pair();
        let remote = server
            .pd()
            .register_from(vec![1, 2, 3, 4, 5, 6, 7, 8], AccessFlags::REMOTE_ALL);
        let local = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        client
            .post_send(
                6,
                SendRequest::Read {
                    local: Sge::whole(&local),
                    remote: remote.remote_handle(),
                },
                true,
            )
            .unwrap();
        let wc = client.send_cq().poll_one().unwrap();
        assert_eq!(wc.opcode, OpCode::Read);
        assert_eq!(local.read_all(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn access_permissions_are_enforced() {
        let (client, server, _f) = connected_pair();
        let local = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        let no_write = server.pd().register(
            8,
            AccessFlags {
                remote_write: false,
                ..AccessFlags::REMOTE_ALL
            },
        );
        let err = client
            .post_send(
                7,
                SendRequest::Write {
                    local: Sge::whole(&local),
                    remote: no_write.remote_handle(),
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::RemoteAccessDenied { .. }));

        let no_read = server.pd().register(8, AccessFlags::REMOTE_WRITE);
        let err = client
            .post_send(
                8,
                SendRequest::Read {
                    local: Sge::whole(&local),
                    remote: no_read.remote_handle(),
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::RemoteAccessDenied { .. }));

        let no_atomic = server.pd().register(8, AccessFlags::REMOTE_WRITE);
        let err = client
            .post_send(
                9,
                SendRequest::AtomicFetchAdd {
                    local: Sge::whole(&local),
                    remote: no_atomic.remote_handle(),
                    add: 1,
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::RemoteAccessDenied { .. }));
    }

    #[test]
    fn remote_out_of_bounds_is_rejected() {
        let (client, server, _f) = connected_pair();
        let local = client.pd().register(64, AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(16, AccessFlags::REMOTE_ALL);
        let err = client
            .post_send(
                10,
                SendRequest::Write {
                    local: Sge::whole(&local),
                    remote: dst.remote_handle(),
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::RemoteAccessOutOfBounds { .. }));
    }

    #[test]
    fn remote_offset_overflow_is_out_of_bounds_not_a_panic() {
        // Regression: write / read / atomic tested `offset + len > region`
        // with an unchecked add, which panics in debug builds and wraps past
        // the check in release builds.
        let (client, server, _f) = connected_pair();
        let local = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        let target = server.pd().register(64, AccessFlags::REMOTE_ALL);
        let at = |offset| RemoteMemoryHandle {
            rkey: target.rkey(),
            offset,
            len: 8,
        };
        let out_of_bounds = FabricError::RemoteAccessOutOfBounds {
            offset: usize::MAX,
            len: 8,
            region_len: 64,
        };
        let write = SendRequest::Write {
            local: Sge::whole(&local),
            remote: at(usize::MAX),
        };
        assert_eq!(client.post_send(1, write, true), Err(out_of_bounds.clone()));
        assert_eq!(
            client.post_write_inline(2, &[0u8; 8], &at(usize::MAX), None, true),
            Err(out_of_bounds.clone())
        );
        let read = SendRequest::Read {
            local: Sge::whole(&local),
            remote: at(usize::MAX),
        };
        assert_eq!(client.post_send(3, read, true), Err(out_of_bounds));
        // The last 8-aligned offset: passes the alignment test, overflows
        // the range test.
        let atomic = SendRequest::AtomicFetchAdd {
            local: Sge::whole(&local),
            remote: at(usize::MAX - 7),
            add: 1,
        };
        assert_eq!(
            client.post_send(4, atomic, true),
            Err(FabricError::InvalidAtomicTarget {
                offset: usize::MAX - 7
            })
        );
        assert_eq!(target.read_all(), vec![0u8; 64]);
        assert_eq!(client.send_cq().pending(), 0);
    }

    #[test]
    fn opposite_direction_writes_between_two_regions_do_not_deadlock() {
        // Each side's write holds its own region for reading and the peer's
        // for writing. Taken in post order, the two threads would each hold
        // one region and wait for the other; address order rules that out.
        const ITERATIONS: u64 = 10_000;
        let (left, right, _f) = connected_pair();
        let left_region = left.pd().register(4096, AccessFlags::REMOTE_WRITE);
        let right_region = right.pd().register(4096, AccessFlags::REMOTE_WRITE);
        let start = Arc::new(std::sync::Barrier::new(2));
        let (finished, done) = std::sync::mpsc::channel();
        let spawn = |qp: QueuePair, local: MemoryRegion, remote: MemoryRegion| {
            let (start, finished) = (Arc::clone(&start), finished.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut posted = 0;
                for wr_id in 0..ITERATIONS {
                    let write = SendRequest::Write {
                        local: Sge::whole(&local),
                        remote: remote.remote_handle(),
                    };
                    qp.post_send(wr_id, write, false).unwrap();
                    posted += 1;
                }
                finished.send(()).unwrap();
                posted
            })
        };
        let threads = [
            spawn(left.clone(), left_region.clone(), right_region.clone()),
            spawn(right.clone(), right_region, left_region),
        ];
        for _ in &threads {
            done.recv_timeout(std::time::Duration::from_secs(120))
                .expect("both writers finish: no lock inversion between the two regions");
        }
        for thread in threads {
            assert_eq!(thread.join().unwrap(), ITERATIONS);
        }
    }

    #[test]
    fn unknown_rkey_is_rejected() {
        let (client, _server, _f) = connected_pair();
        let local = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        let err = client
            .post_send(
                11,
                SendRequest::Write {
                    local: Sge::whole(&local),
                    remote: RemoteMemoryHandle {
                        rkey: 0xffff_ffff,
                        offset: 0,
                        len: 8,
                    },
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::InvalidRemoteKey(_)));
    }

    #[test]
    fn atomic_fetch_add_accumulates() {
        let (client, server, _f) = connected_pair();
        let counter = server.pd().register(8, AccessFlags::REMOTE_ALL);
        let old_buf = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        for i in 0..5u64 {
            client
                .post_send(
                    100 + i,
                    SendRequest::AtomicFetchAdd {
                        local: Sge::whole(&old_buf),
                        remote: counter.remote_handle(),
                        add: 10,
                    },
                    true,
                )
                .unwrap();
            let wc = client.send_cq().poll_one().unwrap();
            assert_eq!(wc.opcode, OpCode::AtomicFetchAdd);
            assert_eq!(old_buf.read_u64(0).unwrap(), i * 10);
        }
        assert_eq!(counter.read_u64(0).unwrap(), 50);
    }

    #[test]
    fn atomic_compare_swap_behaviour() {
        let (client, server, _f) = connected_pair();
        let word = server.pd().register(8, AccessFlags::REMOTE_ALL);
        word.write(0, &42u64.to_le_bytes()).unwrap();
        let old_buf = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        // Successful CAS.
        client
            .post_send(
                1,
                SendRequest::AtomicCompareSwap {
                    local: Sge::whole(&old_buf),
                    remote: word.remote_handle(),
                    compare: 42,
                    swap: 99,
                },
                true,
            )
            .unwrap();
        assert_eq!(old_buf.read_u64(0).unwrap(), 42);
        assert_eq!(word.read_u64(0).unwrap(), 99);
        // Failed CAS leaves the value untouched and returns the current one.
        client
            .post_send(
                2,
                SendRequest::AtomicCompareSwap {
                    local: Sge::whole(&old_buf),
                    remote: word.remote_handle(),
                    compare: 42,
                    swap: 7,
                },
                true,
            )
            .unwrap();
        assert_eq!(old_buf.read_u64(0).unwrap(), 99);
        assert_eq!(word.read_u64(0).unwrap(), 99);
    }

    #[test]
    fn atomic_on_misaligned_offset_is_rejected() {
        let (client, server, _f) = connected_pair();
        let word = server.pd().register(16, AccessFlags::REMOTE_ALL);
        let old_buf = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        let err = client
            .post_send(
                1,
                SendRequest::AtomicFetchAdd {
                    local: Sge::whole(&old_buf),
                    remote: word.remote_handle_range(4, 8).unwrap(),
                    add: 1,
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::InvalidAtomicTarget { .. }));
    }

    #[test]
    fn post_send_requires_connection() {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("solo");
        let qp = QueuePair::new(&Endpoint::new(&fabric, &node));
        let mr = qp.pd().register(8, AccessFlags::LOCAL_ONLY);
        let err = qp
            .post_send(
                1,
                SendRequest::Send {
                    local: Sge::whole(&mr),
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::InvalidQpState { .. }));
    }

    #[test]
    fn disconnect_propagates_to_peer() {
        let (client, server, _f) = connected_pair();
        client.disconnect();
        assert_eq!(client.state(), QpState::Disconnected);
        assert_eq!(server.state(), QpState::Disconnected);
        assert!(!server.is_connected());
        let mr = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        assert!(server
            .post_send(
                1,
                SendRequest::Send {
                    local: Sge::whole(&mr)
                },
                true
            )
            .is_err());
    }

    #[test]
    fn a_disconnected_pair_fails_posts_and_frees_both_sides() {
        let (client, server, _f) = connected_pair();
        let sides = [&client, &server].map(|qp| Arc::downgrade(&qp.inner));
        let dst = server.pd().register(8, AccessFlags::REMOTE_WRITE);
        server.disconnect();
        assert_eq!(
            client.post_write_inline(1, &[1; 8], &dst.remote_handle(), None, false),
            Err(FabricError::InvalidQpState {
                operation: "post_send",
                state: "DISCONNECTED",
            })
        );
        assert_eq!(
            QueuePair::connect_pair(&client, &server),
            Err(FabricError::InvalidQpState {
                operation: "connect",
                state: "DISCONNECTED",
            })
        );
        drop((client, server));
        assert!(sides.iter().all(|side| side.upgrade().is_none()));
    }

    #[test]
    fn a_cached_translation_dies_with_its_registration() {
        let (client, server, _f) = connected_pair();
        let local = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        let target = server.pd().register(8, AccessFlags::REMOTE_ALL);
        let other = server.pd().register(8, AccessFlags::REMOTE_ALL);
        let write = |remote: &MemoryRegion| SendRequest::Write {
            local: Sge::whole(&local),
            remote: remote.remote_handle(),
        };
        let read = |remote: &MemoryRegion| SendRequest::Read {
            local: Sge::whole(&local),
            remote: remote.remote_handle(),
        };
        // The first write caches `target`; `other` resolves from the table.
        local.write(0, &[3; 8]).unwrap();
        client.post_send(1, write(&target), false).unwrap();
        client.post_send(2, write(&other), false).unwrap();
        assert_eq!(
            (target.read_all(), other.read_all()),
            (vec![3; 8], vec![3; 8])
        );
        client.post_send(3, read(&target), false).unwrap();

        // Deregistered after it was cached, the key fails every one-sided
        // operation as an unknown key does, and the region is left alone.
        assert!(server.pd().deregister(&target));
        let unknown = Err(FabricError::InvalidRemoteKey(target.rkey()));
        local.write(0, &[4; 8]).unwrap();
        assert_eq!(client.post_send(4, write(&target), false), unknown);
        assert_eq!(
            client.post_write_inline(5, &[4; 8], &target.remote_handle(), None, false),
            unknown
        );
        assert_eq!(client.post_send(6, read(&target), false), unknown);
        let atomic = SendRequest::AtomicFetchAdd {
            local: Sge::whole(&local),
            remote: target.remote_handle(),
            add: 1,
        };
        assert_eq!(client.post_send(7, atomic, false), unknown);
        assert_eq!(target.read_all(), vec![3; 8]);
        client.post_send(8, write(&other), false).unwrap();
        assert_eq!(other.read_all(), vec![4; 8]);
    }

    #[test]
    fn a_disconnect_racing_posts_ends_every_post_typed_and_detaches_the_srq_once() {
        let fabric = Fabric::with_defaults();
        let server_ep = Endpoint::new(&fabric, &fabric.add_node("server"));
        let srq = SharedReceiveQueue::new(&server_ep, 4);
        let slot = server_ep.pd.register(8, AccessFlags::LOCAL_ONLY);
        let dst = server_ep.pd.register(64, AccessFlags::REMOTE_WRITE);
        // Two server QPs share the SRQ; each holds one buffer in flight.
        let pair = || {
            let client = QueuePair::new(&Endpoint::new(&fabric, &fabric.add_node("client")));
            let server = QueuePair::new(&server_ep);
            QueuePair::connect_pair(&client, &server).unwrap();
            server.attach_srq(&srq, 4);
            srq.post(RecvRequest {
                wr_id: 0,
                local: Sge::whole(&slot),
            })
            .unwrap();
            client
                .post_write_inline(0, &[1u8; 8], &dst.remote_handle(), Some(1), false)
                .unwrap();
            (client, server)
        };
        let (client, server) = pair();
        let (_other_client, _other_server) = pair();
        let attached = |stats: SrqStats| (stats.attached_qps, stats.in_flight);
        assert_eq!(attached(srq.stats()), (2, 2));

        const TAIL: u64 = 100;
        // Posts that went through so far, counted by the poster.
        let posted = Arc::new(AtomicU64::new(0));
        let poster = {
            let (client, remote) = (client.clone(), dst.remote_handle());
            let posted = Arc::clone(&posted);
            std::thread::spawn(move || {
                let typed = |outcome: Result<()>| match outcome {
                    Ok(()) => false,
                    Err(
                        FabricError::InvalidQpState { .. }
                        | FabricError::ConnectionLost
                        | FabricError::NotConnected,
                    ) => true,
                    Err(other) => panic!("a post ended in an untyped error: {other:?}"),
                };
                let post = |wr_id| client.post_write_inline(wr_id, &[7u8; 8], &remote, None, false);
                let mut wr_id = 1;
                while !typed(post(wr_id)) {
                    posted.fetch_add(1, Ordering::Relaxed);
                    wr_id += 1;
                }
                // Once one post failed, every later one fails the same way.
                for tail in 1..=TAIL {
                    assert!(
                        typed(post(wr_id + tail)),
                        "post after the disconnect succeeded"
                    );
                }
                wr_id - 1
            })
        };
        while posted.load(Ordering::Relaxed) < 999 {
            std::thread::yield_now();
        }
        server.disconnect();
        let succeeded = poster.join().unwrap();
        assert!(succeeded >= 999, "{succeeded} posts went through");

        for qp in [&client, &server] {
            assert_eq!(qp.state(), QpState::Disconnected);
            assert!(!qp.is_connected());
        }
        // The server QP's credit entry and its in-flight buffer are gone; the
        // other QP's are untouched.
        assert_eq!(attached(srq.stats()), (1, 1));
        // A second disconnect, from either side, changes nothing.
        server.disconnect();
        client.disconnect();
        assert_eq!(attached(srq.stats()), (1, 1));
        assert_eq!(server.state(), QpState::Disconnected);
    }

    #[test]
    fn posting_clock_cost_is_small_and_independent_of_payload() {
        // RDMA posts are asynchronous: a 1 MiB write must not block the
        // caller's virtual clock for the serialization time.
        let (client, server, _f) = connected_pair();
        let src = client.pd().register(1024 * 1024, AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(1024 * 1024, AccessFlags::REMOTE_WRITE);
        let before = client.clock().now();
        client
            .post_send(
                1,
                SendRequest::Write {
                    local: Sge::whole(&src),
                    remote: dst.remote_handle(),
                },
                false,
            )
            .unwrap();
        let elapsed = client.clock().now().saturating_since(before);
        assert!(elapsed.as_micros_f64() < 1.0, "posting took {elapsed}");
    }

    #[test]
    fn receive_queue_depth_is_bounded() {
        let (_client, server, _f) = connected_pair();
        let mr = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        let depth = CX5_100G.max_recv_queue_depth;
        for i in 0..depth {
            server
                .post_recv(RecvRequest {
                    wr_id: i as u64,
                    local: Sge::whole(&mr),
                })
                .unwrap();
        }
        let err = server
            .post_recv(RecvRequest {
                wr_id: 0,
                local: Sge::whole(&mr),
            })
            .unwrap_err();
        assert!(matches!(err, FabricError::DeviceLimitExceeded { .. }));
    }

    #[test]
    fn inline_write_moves_bytes_without_a_local_region() {
        let (client, server, _f) = connected_pair();
        let dst = server.pd().register(64, AccessFlags::REMOTE_WRITE);
        let scratch = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        server
            .post_recv(RecvRequest {
                wr_id: 5,
                local: Sge::whole(&scratch),
            })
            .unwrap();
        client
            .post_write_inline(1, b"inline!", &dst.remote_handle(), Some(0x42), false)
            .unwrap();
        let wc = server.recv_cq().poll_one().unwrap();
        assert_eq!(wc.imm, Some(0x42));
        assert_eq!(wc.byte_len, 7);
        assert_eq!(&dst.read(0, 7).unwrap(), b"inline!");
    }

    #[test]
    fn inline_write_respects_the_device_capacity() {
        let (client, server, _f) = connected_pair();
        let max = CX5_100G.max_inline_data;
        let dst = server.pd().register(max + 64, AccessFlags::REMOTE_WRITE);
        let err = client
            .post_write_inline(1, &vec![0u8; max + 1], &dst.remote_handle(), None, false)
            .unwrap_err();
        assert!(matches!(err, FabricError::InlineTooLarge { .. }));
        // Exactly at the limit is fine (plain write, no immediate → no recv).
        client
            .post_write_inline(2, &vec![7u8; max], &dst.remote_handle(), None, false)
            .unwrap();
        assert_eq!(dst.read(0, max).unwrap(), vec![7u8; max]);
    }

    #[test]
    fn batched_posts_share_one_doorbell() {
        let (client, server, _f) = connected_pair();
        let src = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        src.write(0, &[9u8; 8]).unwrap();
        let dst = server.pd().register(64, AccessFlags::REMOTE_ALL);
        let n = 4;
        let batch: Vec<(u64, SendRequest, bool)> = (0..n)
            .map(|i| {
                (
                    i,
                    SendRequest::Write {
                        local: Sge::whole(&src),
                        remote: dst.remote_handle_range(8 * i as usize, 8).unwrap(),
                    },
                    false,
                )
            })
            .collect();
        let before = client.clock().now();
        assert_eq!(client.post_send_batch(batch).unwrap(), n as usize);
        let elapsed = client.clock().now().saturating_since(before);
        let expected =
            CX5_100G.issue_cost(8) + CX5_100G.issue_cost_chained(8).saturating_mul(n - 1);
        assert_eq!(elapsed, expected);
        // Every chained write landed at the peer.
        assert_eq!(
            dst.read(0, 8 * n as usize).unwrap(),
            vec![9u8; 8 * n as usize]
        );

        // The same posts issued individually cost strictly more clock time.
        let before = client.clock().now();
        for i in 0..n {
            client
                .post_send(
                    i,
                    SendRequest::Write {
                        local: Sge::whole(&src),
                        remote: dst.remote_handle_range(8 * i as usize, 8).unwrap(),
                    },
                    false,
                )
                .unwrap();
        }
        let unbatched = client.clock().now().saturating_since(before);
        assert!(unbatched > elapsed, "{unbatched} <= {elapsed}");
    }

    #[test]
    fn batch_stops_at_the_first_failure() {
        let (client, server, _f) = connected_pair();
        let first = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        first.write(0, &[1u8; 8]).unwrap();
        let third = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        third.write(0, &[3u8; 8]).unwrap();
        let good = server.pd().register(8, AccessFlags::REMOTE_WRITE);
        let sealed = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        let write = |local: &MemoryRegion, remote: &MemoryRegion| SendRequest::Write {
            local: Sge::whole(local),
            remote: remote.remote_handle(),
        };
        let err = client
            .post_send_batch(vec![
                (1, write(&first, &good), false),
                (2, write(&first, &sealed), false),
                (3, write(&third, &good), false),
            ])
            .unwrap_err();
        assert!(matches!(err, FabricError::RemoteAccessDenied { .. }));
        // The first write executed, the third never ran.
        assert_eq!(good.read(0, 8).unwrap(), [1u8; 8]);
    }

    #[test]
    fn qp_numbers_are_unique() {
        let (a, b, _f) = connected_pair();
        assert_ne!(a.qp_num(), b.qp_num());
    }
}

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

use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::Rc;

use rdma_fabric::{
    connect_pooled_with, AccessFlags, ConnectionPool, Endpoint, MemoryRegion, OwnedRegion,
    ProtectionDomain, QueuePair, ReceiveRing, RecvRequest, RemoteMemoryHandle, Sge, CX5_100G,
    PAGE_SIZE,
};
use sim_core::SimDuration;

use crate::codec::Codec;
use crate::config::RECV_QUEUE_DEPTH;
use crate::error::{RFaasError, Result};
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
    registration: Rc<OwnedRegion>,
    header_space: usize,
}

impl Buffer {
    /// An input buffer in `pd` for payloads of up to `capacity` bytes; the
    /// header slot is added in front automatically.
    pub(crate) fn input(pd: &ProtectionDomain, capacity: usize) -> Buffer {
        Buffer {
            registration: Rc::new(
                pd.register_owned(INVOCATION_HEADER_BYTES + capacity, AccessFlags::LOCAL_ONLY),
            ),
            header_space: INVOCATION_HEADER_BYTES,
        }
    }

    /// An output buffer in `pd` of `capacity` bytes the executor may write
    /// into remotely.
    pub(crate) fn output(pd: &ProtectionDomain, capacity: usize) -> Buffer {
        Buffer {
            registration: Rc::new(pd.register_owned(capacity, AccessFlags::REMOTE_WRITE)),
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
    #[cfg(test)]
    pub(crate) fn payload_offset(&self) -> usize {
        self.header_space
    }

    /// Encode `value` into the payload area through its [`Codec`], returning
    /// the payload length. The encoder overwrites the whole range, so bytes
    /// a DMA still shares are never copied into it first.
    pub(crate) fn write_encoded<C: Codec + ?Sized>(&self, value: &C) -> Result<usize> {
        let len = value.encoded_len();
        // Guards the slice below, not just the encode: encode_into checks
        // against the slice it receives, which must exist first.
        crate::codec::check_capacity(len, self.capacity())?;
        if let Some(bytes) = value.encoded_bytes() {
            self.region().write(self.header_space, bytes)?;
            return Ok(len);
        }
        self.region()
            .overwrite_with(self.header_space, len, |bytes| value.encode_into(bytes))?
    }

    /// Write `head` — the header, or a whole inline wire — at the front of
    /// the region, ahead of a DMA of its first `wire_len` bytes, and give
    /// back what lies past them: what a larger earlier request left there
    /// would keep a request DMA of a page or more from sharing the staged
    /// bytes. The write has just made the bytes the region's own, so giving
    /// back copies nothing.
    pub(crate) fn stage_wire(&self, head: &[u8], wire_len: usize) -> Result<()> {
        self.region().write(0, head)?;
        self.region().decommit_past(wire_len);
        Ok(())
    }

    /// Decode `len` payload bytes through codec `C`, straight from the
    /// registered region: the decoded value is the only copy made. A `len`
    /// beyond the payload capacity is rejected, never clamped into a short
    /// read the caller would take for the whole result.
    ///
    /// A result of a page or more is taken out of the region, which then
    /// reads as zeros. Its bytes are usually the executor's output buffer,
    /// handed over by the response DMA and released by the executor, so the
    /// region holds them alone and `[u8]` receives that buffer itself.
    pub(crate) fn read_decoded<C: Codec + ?Sized>(&self, len: usize) -> Result<C::Owned> {
        crate::codec::check_capacity(len, self.capacity())?;
        if len >= PAGE_SIZE {
            return C::decode_owned(self.region().take(self.header_space, len)?);
        }
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

/// A completion set's ready queue: entry indices in dispatch order.
pub(crate) type ReadyQueue = Rc<RefCell<VecDeque<usize>>>;

/// Where one in-flight invocation stands on its connection.
enum Slot {
    /// On the wire; a wait will take the result.
    Posted,
    /// On the wire, and a completion set waits on it: the landing pushes
    /// `index` onto `ready`.
    Notify { ready: ReadyQueue, index: usize },
    /// In the output buffer: the result's length and status.
    Landed(usize, ResultStatus),
    /// On the wire, and its future was dropped: the result buffer stays
    /// registered until the result lands in it, and the landing frees the
    /// slot.
    Abandoned { _output: Buffer },
}

/// The invocations of one connection whose result has not been taken or
/// discarded, by id: the only place an invocation's client-side state
/// lives. Posting reserves a slot and taking or discarding the result frees
/// it, so an invocation without a slot is settled and a connection without
/// slots is idle.
#[derive(Default)]
pub(crate) struct Slots(Vec<(u32, Slot)>);

impl Slots {
    fn position(&self, invocation_id: u32) -> Option<usize> {
        self.0.iter().position(|(id, _)| *id == invocation_id)
    }

    /// Reserve a slot for a posted invocation.
    pub(crate) fn reserve(&mut self, invocation_id: u32) {
        self.0.push((invocation_id, Slot::Posted));
    }

    /// Have the landing of a posted invocation push `index` onto `ready`.
    pub(crate) fn notify(&mut self, invocation_id: u32, ready: &ReadyQueue, index: usize) {
        if let Some(at) = self.position(invocation_id) {
            self.0[at].1 = Slot::Notify {
                ready: Rc::clone(ready),
                index,
            };
        }
    }

    /// Land a pumped result: keep it for its waiter, hand it to the set
    /// waiting on it, or discard it for a dropped future. Returns whether a
    /// set's ready queue received it. A result without a slot is ignored.
    fn land(&mut self, invocation_id: u32, len: usize, status: ResultStatus) -> bool {
        let Some(at) = self.position(invocation_id) else {
            return false;
        };
        match std::mem::replace(&mut self.0[at].1, Slot::Landed(len, status)) {
            Slot::Notify { ready, index } => {
                ready.borrow_mut().push_back(index);
                true
            }
            Slot::Abandoned { .. } => {
                self.0.swap_remove(at);
                false
            }
            Slot::Posted | Slot::Landed(..) => false,
        }
    }

    /// Take a landed result, freeing its slot.
    pub(crate) fn take(&mut self, invocation_id: u32) -> Option<(usize, ResultStatus)> {
        let at = self.position(invocation_id)?;
        let Slot::Landed(len, status) = self.0[at].1 else {
            return None;
        };
        self.0.swap_remove(at);
        Some((len, status))
    }

    /// Give up on an invocation whose future was dropped unwaited: a landed
    /// result is discarded now, one still in flight when it lands. `output`
    /// is the result buffer the executor writes into; it stays registered
    /// until then. A settled invocation has nothing to give up.
    pub(crate) fn abandon(&mut self, invocation_id: u32, output: &Buffer) {
        let Some(at) = self.position(invocation_id) else {
            return;
        };
        if matches!(self.0[at].1, Slot::Landed(..)) {
            self.0.swap_remove(at);
        } else {
            let _output = output.clone();
            self.0[at].1 = Slot::Abandoned { _output };
        }
    }

    /// Whether the invocation's result has been taken or discarded.
    pub(crate) fn is_settled(&self, invocation_id: u32) -> bool {
        self.position(invocation_id).is_none()
    }

    /// Invocations in flight.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// The client end of one leased worker: its queue pair, where its input
/// buffer lives, and its in-flight invocations.
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
    slots: RefCell<Slots>,
    pub(crate) index: usize,
}

impl WorkerConnection {
    /// Connect to the worker listening at `address` through `pool` (keyed
    /// by the executor node), and learn where the worker's input buffer
    /// lives from its hello. Each of the two steps gives up after `timeout`
    /// of wall-clock time. The connection is not yet registered with any
    /// reactor.
    pub(crate) fn connect(
        endpoint: &Endpoint,
        address: &str,
        pool: &ConnectionPool,
        pool_key: &str,
        timeout: std::time::Duration,
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
        let (qp, _warm) = connect_pooled_with(endpoint, address, pool, pool_key, timeout, |qp| {
            qp.post_recv(RecvRequest {
                wr_id: u64::MAX,
                local: Sge::whole(&hello),
            })
        })?;
        // The worker's dispatcher sends the hello on its next turn, which this
        // wait drives; the pickup is billed as the blocking wait it models.
        let cq = qp.recv_cq();
        endpoint
            .fabric
            .run_until(|| cq.pending() > 0 || !qp.is_connected(), timeout);
        let mut picked = Vec::with_capacity(1);
        cq.poll_uncharged_into(1, &mut picked);
        let wc = picked
            .pop()
            .map(|wc| cq.charge_blocking_pickup(wc))
            .ok_or_else(|| RFaasError::ExecutorLost(address.to_string()))?;
        if !wc.is_success() {
            return Err(RFaasError::ExecutorLost(address.to_string()));
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
        let ring = ReceiveRing::new(&qp, RECV_QUEUE_DEPTH, 8)?;
        let overflow_scratch = endpoint.pd.register_owned(8, AccessFlags::LOCAL_ONLY);
        Ok(WorkerConnection {
            qp,
            remote_input,
            ring,
            overflow_scratch,
            slots: RefCell::default(),
            index,
        })
    }

    /// The connection's in-flight invocations.
    pub(crate) fn slots(&self) -> RefMut<'_, Slots> {
        self.slots.borrow_mut()
    }
}

impl CompletionSource for WorkerConnection {
    /// Drain the receive ring into the slot table. `ring.poll_one` charges
    /// the busy-poll pickup on the client clock per completion, discarded
    /// or not. A completion in error carries no immediate, so it names no
    /// invocation: it is picked up (its slot goes back) and lands nothing.
    fn pump(&self) -> (usize, usize) {
        let (mut pumped, mut dispatched) = (0, 0);
        while let Some(completion) = self.ring.poll_one() {
            let wc = completion.wc;
            pumped += 1;
            if !wc.is_success() {
                continue;
            }
            let (id, status) = ImmValue::parse_response(wc.imm.unwrap_or(0));
            dispatched += usize::from(self.slots().land(id, wc.byte_len, status));
        }
        (pumped, dispatched)
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
    pub(crate) function: Rc<str>,
    pub(crate) input: Buffer,
    pub(crate) payload_len: usize,
    /// The payload, when it fits one inline WQE behind its header: then it
    /// is encoded here and `input` never holds it.
    pub(crate) inline: Option<InlineWire>,
    pub(crate) output: Buffer,
}

/// The wire of an invocation whose header and payload fit the device's
/// inline capacity: the payload encoded behind an empty header slot, on
/// the stack. A post fills the header into a copy and hands it to the WQE,
/// so the payload is encoded once and never staged or read back.
#[derive(Clone, Copy)]
pub(crate) struct InlineWire {
    bytes: [u8; CX5_100G.max_inline_data],
    len: usize,
}

impl InlineWire {
    /// Encode `value` through its [`Codec`] behind the header slot, if the
    /// whole wire fits one inline WQE.
    pub(crate) fn encode<C: Codec + ?Sized>(value: &C) -> Result<Option<InlineWire>> {
        let len = INVOCATION_HEADER_BYTES + value.encoded_len();
        if len > CX5_100G.max_inline_data {
            return Ok(None);
        }
        let mut bytes = [0u8; CX5_100G.max_inline_data];
        let payload = &mut bytes[INVOCATION_HEADER_BYTES..len];
        match value.encoded_bytes() {
            Some(encoded) => payload.copy_from_slice(encoded),
            None => {
                value.encode_into(payload)?;
            }
        }
        Ok(Some(InlineWire { bytes, len }))
    }

    /// This wire with `header` in its slot.
    pub(crate) fn with_header(mut self, header: &[u8; INVOCATION_HEADER_BYTES]) -> InlineWire {
        self.bytes[..INVOCATION_HEADER_BYTES].copy_from_slice(header);
        self
    }

    /// Header slot and payload.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Where one posted invocation's result will land: the connection it went
/// out on, its id, and the allocation epoch that connection belongs to
/// (recovery uses it to detect that an earlier recovery already replaced a
/// dead allocation). Whether the result has been taken is the connection's
/// to say.
pub(crate) struct Posted {
    pub(crate) connection: Rc<WorkerConnection>,
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
    use crate::config::RFaasConfig;
    use crate::executor::SpotExecutor;
    use crate::manager::ResourceManager;
    use crate::reactor::Reactor;
    use crate::session::Session;
    use crate::PollingMode;
    use cluster_sim::NodeResources;
    use rdma_fabric::{Fabric, SendRequest};
    use sandbox::{echo_function, CodePackage, FunctionError, FunctionRegistry, SharedFunction};
    use sim_core::SimTime;
    use std::cell::Cell;
    use std::sync::Arc;

    /// A protection domain of a fresh fabric.
    fn domain() -> ProtectionDomain {
        let fabric = Fabric::with_defaults();
        Endpoint::new(&fabric, &fabric.add_node("client-0")).pd
    }

    /// One 36-core executor serving `pkg` (echo + an always-failing
    /// function).
    fn deploy() -> (Arc<Fabric>, Arc<ResourceManager>) {
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
    /// (caller-owned buffers, explicit length) and wait for the result. A
    /// payload that fits inline rides in the spec, as a typed submit's does.
    fn invoke_spec<O: Codec + ?Sized>(
        session: &Session,
        function: &str,
        input: &Buffer,
        len: usize,
        output: &Buffer,
    ) -> Result<O::Owned> {
        let payload = input.region().read(input.payload_offset(), len)?;
        session
            .submit_spec::<O>(InvocationSpec {
                worker: None,
                function: function.into(),
                input: input.clone(),
                payload_len: len,
                inline: InlineWire::encode(&payload[..])?,
                output: output.clone(),
            })?
            .wait()
    }

    #[test]
    fn buffers_round_trip_payloads() {
        let pd = domain();
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
    fn a_released_result_is_handed_over_without_a_copy() {
        const LEN: usize = 1 << 20;
        let pd = domain();
        let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8 + 1).collect();
        // The executor's side of a response DMA: a source region whose whole
        // content the client's output buffer adopts.
        let source = || {
            let source = pd.register(LEN, AccessFlags::LOCAL_ONLY);
            source.write(0, &payload).unwrap();
            let held = source.with_bytes(0, LEN, <[u8]>::as_ptr).unwrap();
            (source, held)
        };

        // Released by the source, the bytes are the client's alone: the
        // decoded result is the source's buffer itself, and the source reads
        // as zeros.
        let output = Buffer::output(&pd, LEN);
        let (released, held) = source();
        released.copy_to(0, output.region(), 0, LEN).unwrap();
        released.release_shared();
        let result = output.read_decoded::<[u8]>(LEN).unwrap();
        assert_eq!(result.as_ptr(), held);
        assert_eq!(result, payload);
        assert!(released.read_all().iter().all(|&b| b == 0));
        assert!(output.region().read_all().iter().all(|&b| b == 0));

        // Still held by the source, the bytes are copied out and stay with it.
        let (kept, held) = source();
        kept.copy_to(0, output.region(), 0, LEN).unwrap();
        let result = output.read_decoded::<[u8]>(LEN).unwrap();
        assert_ne!(result.as_ptr(), held);
        assert_eq!(result, payload);
        assert_eq!(kept.read_all(), payload);
        assert!(output.region().read_all().iter().all(|&b| b == 0));
    }

    /// A payload of `len` bytes of `fill` whose encoder records whether the
    /// range it was handed still held a previous payload.
    struct Probe {
        len: usize,
        fill: u8,
        saw_stale: Cell<bool>,
    }

    impl Codec for Probe {
        type Owned = Vec<u8>;
        type View<'a> = &'a [u8];

        fn encoded_len(&self) -> usize {
            self.len
        }

        fn encode_into(&self, buf: &mut [u8]) -> Result<usize> {
            let range = &mut buf[..self.len];
            self.saw_stale.set(range.iter().any(|&b| b != 0));
            range.fill(self.fill);
            Ok(self.len)
        }

        fn decode(bytes: &[u8]) -> Result<Vec<u8>> {
            Ok(bytes.to_vec())
        }

        fn decode_view(bytes: &[u8]) -> Result<&[u8]> {
            Ok(bytes)
        }
    }

    #[test]
    fn staging_over_shared_bytes_never_copies_the_range_it_encodes() {
        // A codec without `encoded_bytes` (`[f64]`, option batches, images)
        // stages its payload while the last request DMA still shares the
        // buffer's bytes: the range it overwrites must not be copied first.
        const LEN: usize = 1 << 20;
        const WIRE: usize = INVOCATION_HEADER_BYTES + LEN;
        let pd = domain();
        let input = Buffer::input(&pd, LEN);
        let worker_input = pd.register(WIRE, AccessFlags::REMOTE_WRITE);
        let stage = |fill| {
            let probe = Probe {
                len: LEN,
                fill,
                saw_stale: Cell::new(false),
            };
            assert_eq!(input.write_encoded(&probe).unwrap(), LEN);
            probe.saw_stale.get()
        };
        stage(1);
        input
            .region()
            .write(0, &[9; INVOCATION_HEADER_BYTES])
            .unwrap();
        input.region().copy_to(0, &worker_input, 0, WIRE).unwrap();

        assert!(!stage(2), "the previous payload was copied before encoding");
        // The worker still reads the request it was sent; the client reads
        // its header and the new payload.
        let mut sent = vec![1u8; WIRE];
        sent[..INVOCATION_HEADER_BYTES].fill(9);
        assert_eq!(worker_input.read_all(), sent);
        let mut staged = vec![2u8; WIRE];
        staged[..INVOCATION_HEADER_BYTES].fill(9);
        assert_eq!(input.region().read_all(), staged);
    }

    #[test]
    fn a_smaller_request_after_a_larger_one_shares_its_staged_bytes() {
        // Each request goes to a fresh worker input, which holds nothing
        // past it: only the staging buffer could stop the share. It gives
        // back what the larger request left past the smaller one's wire.
        const LARGE: usize = 4 * PAGE_SIZE;
        let pd = domain();
        let input = Buffer::input(&pd, LARGE);
        let buffer = |region: &MemoryRegion| region.with_bytes(0, 1, <[u8]>::as_ptr).unwrap();
        let send = |len: usize, fill: u8| {
            let wire = INVOCATION_HEADER_BYTES + len;
            let worker_input =
                pd.register(INVOCATION_HEADER_BYTES + LARGE, AccessFlags::REMOTE_WRITE);
            input.write_encoded(&vec![fill; len][..]).unwrap();
            input
                .stage_wire(&[9; INVOCATION_HEADER_BYTES], wire)
                .unwrap();
            input.region().copy_to(0, &worker_input, 0, wire).unwrap();
            let mut sent = vec![0u8; INVOCATION_HEADER_BYTES + LARGE];
            sent[..INVOCATION_HEADER_BYTES].fill(9);
            sent[INVOCATION_HEADER_BYTES..wire].fill(fill);
            assert_eq!(worker_input.read_all(), sent);
            worker_input
        };
        // The first worker input still holds the larger request: the
        // staging buffer builds the smaller one around it.
        let first = send(LARGE, 1);
        assert_eq!(buffer(&first), buffer(input.region()));
        let second = send(2 * PAGE_SIZE, 2);
        assert_eq!(
            buffer(&second),
            buffer(input.region()),
            "copied, not shared"
        );
        assert_ne!(buffer(&first), buffer(&second));
    }

    #[test]
    fn consecutive_large_echoes_return_their_own_bytes() {
        // A shorter result after a longer one, on one session: a handed-over
        // result carries no stale tail, and is cut to its own length.
        let (_fabric, _manager, session) = platform(1);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        for (len, salt) in [(1 << 20, 3u8), ((1 << 20) - 100, 5), (1 << 20, 7)] {
            let payload: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(salt) | 1).collect();
            assert_eq!(echo.invoke(&payload[..]).unwrap(), payload, "{len} B");
        }
        session.close().unwrap();
    }

    #[test]
    fn read_payload_rejects_len_past_the_buffer_extent() {
        // Regression (PR 3): reads used to clamp an oversized `len` silently,
        // handing back a short read the caller would misinterpret as the
        // complete result.
        let pd = domain();
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
        let timeout = crate::HOT_POLL_TIMEOUT;
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        echo.invoke(&[1u8; 8][..]).unwrap();
        for _ in 0..3 {
            session.clock().advance(timeout / 2);
            echo.invoke(&[1u8; 8][..]).unwrap();
        }
        let executor = manager.executor("exec-0").unwrap();
        let process = executor.allocator().processes().pop().unwrap();
        assert_eq!(process.worker_mode(0), PollingMode::Hot);
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
        // Stopping a process whose warm client is still connected retires
        // its workers in-line: twenty sequential reaps wait for nothing.
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
    fn dropped_futures_return_their_reservations() {
        // A future dropped unwaited must give its slot back once its result
        // lands, or the connection's in-flight count stays raised for good:
        // past the ring depth every later submission would pay an overflow
        // receive.
        let (fabric, _manager, session) = platform(1);
        let connection = session.connection(0);
        let cq = connection.qp.recv_cq().clone();
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let dropped = connection.ring.depth() + 1;
        for served in 1..=dropped {
            drop(echo.submit(&[1u8; 8][..]).unwrap());
            // The executor serves it; no reactor turn picks the result up.
            let timeout = std::time::Duration::from_secs(5);
            assert!(fabric.run_until(|| cq.pending() == served, timeout));
        }
        assert_eq!(connection.slots().0.len(), dropped);

        // One fresh invocation drains them: each abandoned result is
        // discarded as its turn picks it up.
        assert_eq!(echo.invoke(&[2u8; 8][..]).unwrap(), [2u8; 8]);
        assert_eq!(connection.slots().len(), 0);

        // Back inside the ring: the next submission posts no extra receive.
        let receives = connection.qp.posted_receives();
        let future = echo.submit(&[3u8; 8][..]).unwrap();
        assert_eq!(connection.qp.posted_receives(), receives);
        assert_eq!(future.wait().unwrap(), [3u8; 8]);
    }

    #[test]
    fn dropping_a_future_discards_its_stashed_result() {
        let (_fabric, _manager, session) = platform(1);
        let connection = session.connection(0);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let first = echo.submit(&[1u8; 8][..]).unwrap();
        let second = echo.submit(&[2u8; 8][..]).unwrap();
        // Waiting the second picks up (and lands) the first's result too.
        assert_eq!(second.wait().unwrap(), [2u8; 8]);
        assert!(matches!(connection.slots().0[..], [(_, Slot::Landed(..))]));
        drop(first);
        assert_eq!(connection.slots().len(), 0);
    }

    #[test]
    fn a_result_landing_after_its_set_was_dropped_frees_its_slot() {
        // Dropping a set drops its in-flight futures while their results
        // are on the wire: each result that lands afterwards frees its slot
        // and pushes nothing onto the dead set's ready queue.
        let (fabric, manager) = deploy();
        let reactor = Reactor::new();
        let session = Session::builder(&fabric, "client-0", &manager, "pkg")
            .workers(2)
            .reactor(&reactor)
            .connect()
            .unwrap();
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        drop(echo.map_workers([&[1u8; 8][..], &[2u8; 8][..]]).unwrap());
        let connections = [session.connection(0), session.connection(1)];
        for connection in &connections {
            assert!(matches!(
                connection.slots().0[..],
                [(_, Slot::Abandoned { .. })]
            ));
        }
        let idle = || connections.iter().all(|c| c.slots().len() == 0);
        let timeout = std::time::Duration::from_secs(5);
        assert!(fabric.run_until(
            || {
                reactor.turn();
                idle()
            },
            timeout
        ));
        let stats = reactor.stats();
        assert_eq!((stats.pumped, stats.dispatched), (2, 0));
        // Both workers are idle again and serve the next scatter.
        let set = echo.map_workers([&[3u8; 8][..], &[4u8; 8][..]]).unwrap();
        assert_eq!(set.wait_all().unwrap(), [[3u8; 8], [4u8; 8]]);
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

    /// The payload ceiling is the executor's: each worker's hello advertises
    /// its input buffer, and the builder's configuration has no say.
    #[test]
    fn payload_ceiling_comes_from_the_worker_not_the_builder() {
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(CodePackage::minimal("pkg").with_function(echo_function()));
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let worker_config = RFaasConfig {
            max_payload_bytes: 4096,
            ..RFaasConfig::default()
        };
        let executor = SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 4,
                memory_mib: 8 * 1024,
            },
            registry,
            worker_config,
        );
        manager.register_executor(&executor);
        let session = Session::builder(&fabric, "client-0", &manager, "pkg")
            .config(RFaasConfig::default())
            .connect()
            .unwrap();
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let at_ceiling = vec![7u8; 4096];
        assert_eq!(echo.invoke(&at_ceiling[..]).unwrap(), at_ceiling);
        // The rejection names the worker's buffer, header included.
        let err = echo.submit(&[0u8; 4097][..]).unwrap_err();
        assert!(
            matches!(
                err,
                RFaasError::PayloadTooLarge { payload, capacity }
                    if payload == INVOCATION_HEADER_BYTES + 4097
                        && capacity == INVOCATION_HEADER_BYTES + 4096
            ),
            "{err:?}"
        );
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
    fn lease_request_to_a_silenced_manager_fails_at_once() {
        // Another socket takes over the manager's control address: the
        // manager's poll finds nothing, so the verdict is never coming and
        // the request says so without waiting.
        let (fabric, manager) = deploy();
        let imposter = Endpoint::new(&fabric, &fabric.add_node("imposter"));
        let _silent = rdma_fabric::DatagramSocket::bind(&imposter, manager.control_address());
        let started = std::time::Instant::now();
        let err = match Session::builder(&fabric, "client-0", &manager, "pkg").connect() {
            Ok(_) => panic!("a silenced manager granted a lease"),
            Err(err) => err,
        };
        assert!(
            matches!(
                err,
                RFaasError::Fabric(rdma_fabric::FabricError::Timeout {
                    operation: "datagram receive"
                })
            ),
            "expected a typed receive timeout, got {err:?}"
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(manager.lease_count(), 0);
    }

    #[test]
    fn worker_connect_surfaces_a_typed_timeout() {
        // A worker that never accepts must fail within the given timeout
        // with a typed error, not hang or panic.
        let fabric = Fabric::with_defaults();
        let endpoint = Endpoint::new(&fabric, &fabric.add_node("client-0"));
        // A listener nobody ever accepts on: the client's connect request
        // sits in the accept queue until the client gives up.
        let _silent = rdma_fabric::Listener::bind(&fabric, "rfaas://dead-node/1/1");
        let started = std::time::Instant::now();
        let pool = ConnectionPool::new();
        let err = match WorkerConnection::connect(
            &endpoint,
            "rfaas://dead-node/1/1",
            &pool,
            "dead-node",
            std::time::Duration::from_millis(50),
            0,
        ) {
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

    #[test]
    fn a_completion_in_error_lands_no_invocation() {
        // A SEND longer than a result slot completes the slot's receive in
        // error, with no immediate: the pump picks it up and leaves the
        // invocation it cannot name (the id an absent immediate parses to)
        // in flight.
        let fabric = Fabric::with_defaults();
        let endpoint = Endpoint::new(&fabric, &fabric.add_node("client-0"));
        let worker_ep = Endpoint::new(&fabric, &fabric.add_node("worker-0"));
        let qp = QueuePair::new(&endpoint);
        let worker = QueuePair::new(&worker_ep);
        QueuePair::connect_pair(&qp, &worker).unwrap();
        let connection = WorkerConnection {
            ring: ReceiveRing::new(&qp, RECV_QUEUE_DEPTH, 8).unwrap(),
            qp,
            remote_input: RemoteMemoryHandle {
                rkey: 0,
                offset: 0,
                len: 0,
            },
            overflow_scratch: endpoint.pd.register_owned(8, AccessFlags::LOCAL_ONLY),
            slots: RefCell::default(),
            index: 0,
        };
        let (id, _) = ImmValue::parse_response(0);
        connection.slots().reserve(id);
        let long = worker_ep.pd.register(16, AccessFlags::LOCAL_ONLY);
        let send = SendRequest::Send {
            local: Sge::whole(&long),
        };
        assert!(worker.post_send(0, send, false).is_err());
        assert_eq!(connection.pump(), (1, 0));
        assert_eq!(connection.slots().take(id), None, "still in flight");
        assert_eq!(connection.slots().len(), 1);
        assert_eq!(connection.qp.posted_receives(), RECV_QUEUE_DEPTH);
    }

    /// A worker connection without the wire: the test queues the ids of
    /// landed results, and `pump` lands them in its slot table as
    /// [`WorkerConnection`]'s pump lands what its ring picks up.
    #[derive(Default)]
    struct Wire {
        slots: RefCell<Slots>,
        queued: RefCell<VecDeque<u32>>,
    }

    impl CompletionSource for Wire {
        fn pump(&self) -> (usize, usize) {
            let (mut pumped, mut dispatched) = (0, 0);
            while let Some(id) = self.queued.borrow_mut().pop_front() {
                pumped += 1;
                let landed = self.slots.borrow_mut().land(id, 8, ResultStatus::Success);
                dispatched += usize::from(landed);
            }
            (pumped, dispatched)
        }

        fn is_connected(&self) -> bool {
            true
        }
    }

    #[test]
    fn turn_dispatches_a_waiting_slot_once() {
        let reactor = Reactor::new();
        let wire = Rc::new(Wire::default());
        reactor.register_source(wire.clone());
        let ready = ReadyQueue::default();
        wire.slots.borrow_mut().reserve(7);
        wire.slots.borrow_mut().notify(7, &ready, 3);
        wire.queued.borrow_mut().push_back(7);
        assert_eq!(reactor.turn(), 1);
        assert_eq!(*ready.borrow(), [3]);
        // The landing consumed the notification: a replayed id dispatches
        // nothing, and the result is there to take, once.
        wire.queued.borrow_mut().push_back(7);
        assert_eq!(reactor.turn(), 1);
        assert_eq!(ready.borrow().len(), 1);
        let stats = reactor.stats();
        assert_eq!((stats.pumped, stats.dispatched), (2, 1));
        let mut slots = wire.slots.borrow_mut();
        assert_eq!(slots.take(7), Some((8, ResultStatus::Success)));
        assert!(slots.is_settled(7) && slots.take(7).is_none());
    }

    proptest::proptest! {
        // No lost and no duplicate dispatches under arbitrary assignments of
        // invocations to connections and arbitrary delivery/turn
        // interleavings. Each byte picks the connection (low two bits) and
        // what waits on the invocation: a set (notified), a plain wait, or
        // a set whose future is dropped before the result lands.
        #[test]
        fn dispatch_is_exactly_once_under_arbitrary_interleavings(
            assignment: Vec<u8>,
            turn_after: Vec<bool>,
        ) {
            let reactor = Reactor::new();
            let wires: Vec<Rc<Wire>> = (0..4).map(|_| Rc::default()).collect();
            for wire in &wires {
                reactor.register_source(wire.clone());
            }
            let wire = |pick: u8| &wires[(pick % 4) as usize];
            let ready = ReadyQueue::default();
            let pd = domain();
            let output = Buffer::output(&pd, 8);
            for (index, &pick) in assignment.iter().enumerate() {
                let mut slots = wire(pick).slots.borrow_mut();
                let id = index as u32;
                slots.reserve(id);
                match pick / 4 % 4 {
                    0 | 1 => slots.notify(id, &ready, index),
                    2 => {}
                    _ => {
                        slots.notify(id, &ready, index);
                        slots.abandon(id, &output);
                    }
                }
            }
            // Interleave deliveries with turns as the bool tape dictates.
            for (index, &pick) in assignment.iter().enumerate() {
                wire(pick).queued.borrow_mut().push_back(index as u32);
                if turn_after.get(index % turn_after.len().max(1)).copied().unwrap_or(false) {
                    reactor.turn();
                }
            }
            // Final drain: everything still queued lands now.
            while reactor.turn() > 0 {}
            let mut seen: Vec<usize> = ready.borrow().iter().copied().collect();
            seen.sort_unstable();
            let notified: Vec<usize> = (0..assignment.len())
                .filter(|&index| assignment[index] / 4 % 4 < 2)
                .collect();
            proptest::prop_assert_eq!(&seen, &notified);
            proptest::prop_assert_eq!(reactor.stats().dispatched, notified.len() as u64);
            proptest::prop_assert_eq!(reactor.stats().pumped, assignment.len() as u64);
            // Every result waited on is there to take, once; an abandoned
            // one left nothing behind.
            for (index, &pick) in assignment.iter().enumerate() {
                let mut slots = wire(pick).slots.borrow_mut();
                let waited = pick / 4 % 4 < 3;
                proptest::prop_assert_eq!(slots.take(index as u32).is_some(), waited);
                proptest::prop_assert!(slots.is_settled(index as u32));
            }
            proptest::prop_assert!(wires.iter().all(|w| w.slots.borrow().len() == 0));
        }
    }
}

//! Receive-buffer rings with automatic repost.
//!
//! rFaaS workers keep a fixed-depth ring of posted receives so that a client
//! can fire invocations back to back without ever observing
//! `ReceiverNotReady`; after every consumed completion the slot is pushed to
//! the back of the ring and re-posted (Sec. IV-A: "the executor re-posts the
//! receive buffer immediately after consuming it"). The same structure backs
//! the client side, where each result notification consumes one slot.
//!
//! The ring is split in two layers:
//!
//! * `RingState` — the pure slot state machine (posted FIFO + consumed
//!   set). It owns the invariants the property tests pin down: no
//!   interleaving of post/consume/repost may lose a slot, delivery is FIFO
//!   in post order, and delivery into an empty ring is rejected.
//! * [`ReceiveRing`] — the live wrapper that registers one slab of memory,
//!   posts every slot on a [`QueuePair`] or a [`SharedReceiveQueue`], and
//!   re-posts a slot automatically as soon as its completion is picked up —
//!   correct whenever the slot is a pure doorbell, which is what rFaaS uses
//!   it for (payloads travel one-sided into registered buffers, not into the
//!   ring slots).
//!
//! The ledger lives with the receive queue the slots are posted to — the
//! queue pair's private one or the shared one — under that queue's lock,
//! and keeps the slab. A slot is posted as its index (`Posted::Slot`),
//! not as a work request holding a region handle: a ring build posts all
//! its slots in the one acquisition that attaches the ledger, picking a
//! slot up and reposting it take one acquisition, and only a SEND that
//! lands in a slot builds the slot's scatter/gather entry from the slab. A
//! queue holds at most one ring.

use std::collections::VecDeque;

use crate::error::{FabricError, Result};
use crate::memory::{AccessFlags, MemoryRegion};
use crate::pd::{OwnedRegion, ProtectionDomain};
use crate::qp::{Endpoint, QueuePair};
use crate::srq::SharedReceiveQueue;
use crate::verbs::{RecvRequest, Sge, WorkCompletion};

/// One receive posted to a receive queue: a work request of its own, or a
/// slot of the ring whose ledger the queue keeps.
#[derive(Debug)]
pub(crate) enum Posted {
    /// A receive posted through [`QueuePair::post_recv`] or
    /// [`SharedReceiveQueue::post`].
    Request(RecvRequest),
    /// Slot `i` of the queue's ring; its `wr_id` is `i`.
    Slot(usize),
}

impl Posted {
    /// The `wr_id` a completion of this receive reports.
    pub(crate) fn wr_id(&self) -> u64 {
        match self {
            Posted::Request(recv) => recv.wr_id,
            Posted::Slot(slot) => *slot as u64,
        }
    }
}

/// Pure state machine of a receive ring: every slot is either *posted*
/// (waiting for a message, FIFO position known) or *consumed* (delivered to
/// the application, awaiting repost). There is no third state — a slot can
/// never leak.
#[derive(Debug, Clone)]
pub(crate) struct RingState {
    depth: usize,
    /// Slots currently posted, front = next to be consumed by a delivery.
    posted: VecDeque<usize>,
    /// `consumed[slot]` — delivered to the application, not yet re-posted.
    consumed: Vec<bool>,
    /// The slot slab: slot `i` is `slot_len` bytes at `i * slot_len`. The
    /// ledger keeps it as long as the queue does, so slots still posted
    /// when the ring drops keep the bytes, not the registration.
    slab: MemoryRegion,
    slot_len: usize,
}

impl RingState {
    /// A ring of `depth` slots of `slot_len` bytes in `slab`, all posted in
    /// index order (slot 0 first).
    fn new(depth: usize, slab: &MemoryRegion, slot_len: usize) -> RingState {
        RingState {
            depth,
            posted: (0..depth).collect(),
            consumed: vec![false; depth],
            slab: slab.clone(),
            slot_len,
        }
    }

    /// Number of slots in the ring.
    #[cfg(test)]
    fn depth(&self) -> usize {
        self.depth
    }

    /// Number of slots currently posted.
    #[cfg(test)]
    fn posted(&self) -> usize {
        self.posted.len()
    }

    /// Number of slots delivered but not yet re-posted.
    #[cfg(test)]
    fn consumed(&self) -> usize {
        self.consumed.iter().filter(|c| **c).count()
    }

    /// Start the ledger of a ring of `depth` slots of `slot_len` bytes in
    /// `slab`, all posted, in `ledger`: where a receive queue keeps the
    /// ledger of the ring posting into it. A queue holds one ring.
    pub(crate) fn attach(
        ledger: &mut Option<RingState>,
        slab: &MemoryRegion,
        depth: usize,
        slot_len: usize,
    ) -> Result<()> {
        if ledger.is_some() {
            return Err(FabricError::DeviceLimitExceeded {
                limit: "one receive ring per queue",
            });
        }
        *ledger = Some(RingState::new(depth, slab, slot_len));
        Ok(())
    }

    /// The buffer of slot `slot`.
    pub(crate) fn slot(&self, slot: usize) -> Sge {
        Sge::range(&self.slab, slot * self.slot_len, self.slot_len)
    }

    /// The slot an incoming message will land in next, if any.
    pub(crate) fn front(&self) -> Option<usize> {
        self.posted.front().copied()
    }

    /// Deliver one message: consumes the oldest posted slot (FIFO, matching
    /// the order a reliable-connected QP consumes its receive queue) and
    /// returns its index. An empty ring rejects the delivery the same way the
    /// transport rejects a write-with-immediate without a posted receive.
    pub(crate) fn deliver(&mut self) -> Result<usize> {
        let slot = self
            .posted
            .pop_front()
            .ok_or(FabricError::ReceiverNotReady)?;
        self.consumed[slot] = true;
        Ok(slot)
    }

    /// Deliver a message into a *specific* posted slot, regardless of FIFO
    /// position. An SRQ-backed ring needs this: several QPs consume from the
    /// shared queue and their completion queues are drained in sweep order,
    /// so deliveries are observed out of post order. Rejects slots that are
    /// out of range or not currently posted.
    pub(crate) fn deliver_slot(&mut self, slot: usize) -> Result<()> {
        if slot >= self.depth || self.consumed[slot] {
            return Err(FabricError::ReceiverNotReady);
        }
        let position = self
            .posted
            .iter()
            .position(|s| *s == slot)
            .ok_or(FabricError::ReceiverNotReady)?;
        self.posted.remove(position);
        self.consumed[slot] = true;
        Ok(())
    }

    /// Return a consumed slot to the back of the posted FIFO. Reposting a
    /// slot that is still posted (or out of range) is a caller bug and is
    /// rejected rather than silently duplicating the slot.
    pub(crate) fn repost(&mut self, slot: usize) -> Result<()> {
        if slot >= self.depth || !self.consumed[slot] {
            return Err(FabricError::DeviceLimitExceeded {
                limit: "repost of a slot that is not consumed",
            });
        }
        self.consumed[slot] = false;
        self.posted.push_back(slot);
        Ok(())
    }
}

/// Post a freshly attached ring's `depth` slots onto `queue`, which holds at
/// most `max_depth` receives: slot 0 first, as many as fit, in one pass.
/// Returns how many went on — the caller charges one `post_recv` each, in
/// one clock advance — and, when one did not fit, the device limit `limit`,
/// as posting the slots one at a time would have failed at that slot.
pub(crate) fn post_slots(
    queue: &mut VecDeque<Posted>,
    depth: usize,
    max_depth: usize,
    limit: &'static str,
) -> (usize, Result<()>) {
    let fits = depth.min(max_depth.saturating_sub(queue.len()));
    queue.extend((0..fits).map(Posted::Slot));
    if fits < depth {
        (fits, Err(FabricError::DeviceLimitExceeded { limit }))
    } else {
        (fits, Ok(()))
    }
}

/// A completion picked up through a [`ReceiveRing`].
#[derive(Debug, Clone)]
pub struct RingCompletion {
    /// Ring slot the receive was posted from; `None` when the completion
    /// belongs to a receive posted outside the ring (overflow extras).
    pub slot: Option<usize>,
    /// The underlying work completion.
    pub wc: WorkCompletion,
}

/// A live receive ring bound to one queue pair.
///
/// One slab of registered memory holds `depth` slots of `slot_len` bytes;
/// every slot is posted with `wr_id == slot` when the ring is built. Pickup
/// ([`ReceiveRing::poll_one`], [`ReceiveRing::adopt`]) reposts the consumed
/// slot before handing the completion to the caller, so the ring never
/// drains as long as at most `depth` messages are in flight.
#[derive(Debug)]
pub struct ReceiveRing {
    backing: RingBacking,
    /// The slot slab's registration, held for as long as the ring lives;
    /// the ledger keeps the bytes.
    _slab: OwnedRegion,
    /// Fixed at construction, so hot-path callers (per-submission overflow
    /// checks, adopt) read it without the queue's lock.
    depth: usize,
}

/// Where the ring posts its slots: a private queue pair (classic per-
/// connection ring) or a shared receive queue serving many QPs.
#[derive(Debug)]
enum RingBacking {
    Qp(QueuePair),
    Srq(SharedReceiveQueue),
}

impl ReceiveRing {
    /// Build a ring of `depth` slots of `slot_len` bytes each and post every
    /// slot. Slots are re-posted automatically at pickup time.
    pub fn new(qp: &QueuePair, depth: usize, slot_len: usize) -> Result<ReceiveRing> {
        Self::build(
            RingBacking::Qp(qp.clone()),
            qp.pd().clone(),
            depth,
            slot_len,
        )
    }

    /// Build a ring whose slots are posted into a *shared* receive queue
    /// instead of a private QP: one ring serves every QP attached to the
    /// SRQ, so receive memory no longer scales with connection count. The
    /// slot slab is registered in `endpoint`'s protection domain. Pickup
    /// happens externally (the caller drains the attached QPs' completion
    /// queues, e.g. through a [`crate::CqSet`]) and hands raw completions to
    /// [`ReceiveRing::adopt`]; deliveries may arrive in any slot order.
    pub fn on_srq(
        endpoint: &Endpoint,
        srq: &SharedReceiveQueue,
        depth: usize,
        slot_len: usize,
    ) -> Result<ReceiveRing> {
        Self::build(
            RingBacking::Srq(srq.clone()),
            endpoint.pd.clone(),
            depth,
            slot_len,
        )
    }

    fn build(
        backing: RingBacking,
        pd: ProtectionDomain,
        depth: usize,
        slot_len: usize,
    ) -> Result<ReceiveRing> {
        if depth == 0 {
            return Err(FabricError::DeviceLimitExceeded {
                limit: "receive ring depth must be non-zero",
            });
        }
        let slot_len = slot_len.max(1);
        let slab = pd.register_owned(depth * slot_len, AccessFlags::LOCAL_ONLY);
        match &backing {
            RingBacking::Qp(qp) => qp.attach_ring(&slab, depth, slot_len)?,
            RingBacking::Srq(srq) => srq.attach_ring(&slab, depth, slot_len)?,
        }
        Ok(ReceiveRing {
            backing,
            _slab: slab,
            depth,
        })
    }

    /// Number of slots in the ring (lock-free: fixed at construction).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Map a raw completion onto the ring: consume the slot it landed in and
    /// immediately re-post it, under one lock of the queue it is posted to.
    ///
    /// Total by design — a completion the completion queue already handed
    /// over must never be dropped. Completions whose `wr_id` does not name a
    /// ring slot pass through as foreign (`slot: None`); so does a `wr_id`
    /// that collides with a slot index while that slot is not at the ring's
    /// front (a receive posted outside the ring by a caller ignoring the
    /// contract that such receives use `wr_id`s at or above the ring depth,
    /// `u64::MAX` by convention).
    ///
    /// Public so an external event loop that drains this ring's CQ through a
    /// multiplexed [`crate::CqSet`] can hand the raw completions back to the
    /// ring for slot accounting and auto-repost.
    pub fn adopt(&self, wc: WorkCompletion) -> RingCompletion {
        let slot_id = wc.wr_id as usize;
        if wc.wr_id == u64::MAX || slot_id >= self.depth() {
            return RingCompletion { slot: None, wc };
        }
        // A failed re-post only happens on a disconnected QP, where the next
        // wait returns None anyway; the completion in hand is still
        // delivered to the caller.
        let reposted = match &self.backing {
            RingBacking::Qp(qp) => qp.repost_ring_slot(slot_id),
            // The buffer is free again: return the consuming QP's credit, and
            // the slot with it.
            RingBacking::Srq(srq) => srq.repost_ring_slot(wc.qp_num, slot_id),
        };
        RingCompletion {
            slot: reposted.map(|_| slot_id),
            wc,
        }
    }

    /// The private queue pair backing this ring; `None` for SRQ-backed rings
    /// (their pickup runs through the attached QPs' completion queues).
    fn backing_qp(&self) -> Option<&QueuePair> {
        match &self.backing {
            RingBacking::Qp(qp) => Some(qp),
            RingBacking::Srq(_) => None,
        }
    }

    /// Non-blocking pickup of one completion. `None` on SRQ-backed rings —
    /// drain the attached QPs' CQs and call [`ReceiveRing::adopt`] instead.
    pub fn poll_one(&self) -> Option<RingCompletion> {
        let wc = self.backing_qp()?.recv_cq().poll_one()?;
        Some(self.adopt(wc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::memory::AccessFlags;
    use crate::qp::Endpoint;
    use crate::verbs::SendRequest;

    /// The ledger of a ring of `depth` one-byte slots, detached from any
    /// queue.
    fn ledger(depth: usize) -> RingState {
        let slab = MemoryRegion::zeroed(0, depth, AccessFlags::LOCAL_ONLY);
        RingState::new(depth, &slab, 1)
    }

    fn connected_pair() -> (QueuePair, QueuePair) {
        let fabric = Fabric::with_defaults();
        let a = QueuePair::new(&Endpoint::new(&fabric, &fabric.add_node("client")));
        let b = QueuePair::new(&Endpoint::new(&fabric, &fabric.add_node("server")));
        QueuePair::connect_pair(&a, &b).unwrap();
        (a, b)
    }

    fn write_with_imm(from: &QueuePair, to: &QueuePair, imm: u32) -> Result<()> {
        let src = from.pd().register(8, AccessFlags::LOCAL_ONLY);
        let dst = to.pd().register(8, AccessFlags::REMOTE_WRITE);
        from.post_send(
            imm as u64,
            SendRequest::WriteWithImm {
                local: Sge::whole(&src),
                remote: dst.remote_handle(),
                imm,
            },
            false,
        )
    }

    #[test]
    fn ring_state_starts_fully_posted() {
        let state = ledger(4);
        assert_eq!(state.depth(), 4);
        assert_eq!(state.posted(), 4);
        assert_eq!(state.consumed(), 0);
        assert_eq!(state.front(), Some(0));
    }

    #[test]
    fn deliveries_are_fifo_and_reposts_queue_at_the_back() {
        let mut state = ledger(3);
        assert_eq!(state.deliver().unwrap(), 0);
        assert_eq!(state.deliver().unwrap(), 1);
        state.repost(0).unwrap();
        // 2 was posted before the re-posted 0.
        assert_eq!(state.deliver().unwrap(), 2);
        assert_eq!(state.deliver().unwrap(), 0);
    }

    #[test]
    fn empty_ring_rejects_delivery() {
        let mut state = ledger(1);
        state.deliver().unwrap();
        assert_eq!(state.deliver().unwrap_err(), FabricError::ReceiverNotReady);
    }

    #[test]
    fn double_or_foreign_repost_is_rejected() {
        let mut state = ledger(2);
        assert!(state.repost(0).is_err()); // still posted
        assert!(state.repost(7).is_err()); // out of range
        let slot = state.deliver().unwrap();
        state.repost(slot).unwrap();
        assert!(state.repost(slot).is_err()); // already back in the ring
    }

    #[test]
    fn live_ring_auto_reposts_and_never_drains() {
        let (client, server) = connected_pair();
        let ring = ReceiveRing::new(&server, 2, 8).unwrap();
        assert_eq!(server.posted_receives(), 2);
        // Many more messages than the depth: every pickup re-posts its slot.
        for i in 0..10u32 {
            write_with_imm(&client, &server, i).unwrap();
            let c = ring.poll_one().unwrap();
            assert_eq!(c.wc.imm, Some(i));
            assert!(c.slot.is_some());
            assert_eq!(server.posted_receives(), 2);
        }
    }

    #[test]
    fn foreign_receives_pass_through_untouched() {
        let (client, server) = connected_pair();
        let ring = ReceiveRing::new(&server, 2, 8).unwrap();
        // An extra receive posted outside the ring, consumed first... no:
        // the QP receive queue is FIFO, so the ring slots are consumed first.
        // Drain them, then the extra receive is next in line.
        let extra = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        server
            .post_recv(RecvRequest {
                wr_id: u64::MAX,
                local: Sge::whole(&extra),
            })
            .unwrap();
        write_with_imm(&client, &server, 1).unwrap();
        write_with_imm(&client, &server, 2).unwrap();
        write_with_imm(&client, &server, 3).unwrap();
        assert_eq!(ring.poll_one().unwrap().slot, Some(0));
        assert_eq!(ring.poll_one().unwrap().slot, Some(1));
        let foreign = ring.poll_one().unwrap();
        assert_eq!(foreign.slot, None);
        assert_eq!(foreign.wc.imm, Some(3));
        // The ring slots were auto-reposted; the foreign receive was not.
        assert_eq!(server.posted_receives(), 2);
    }

    #[test]
    fn colliding_foreign_wr_id_passes_through_instead_of_corrupting_the_ring() {
        let (client, server) = connected_pair();
        let ring = ReceiveRing::new(&server, 2, 8).unwrap();
        // A caller violating the wr_id contract: a foreign receive whose
        // wr_id collides with slot 1, queued behind both ring slots.
        let extra = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        server
            .post_recv(RecvRequest {
                wr_id: 1,
                local: Sge::whole(&extra),
            })
            .unwrap();
        write_with_imm(&client, &server, 1).unwrap();
        write_with_imm(&client, &server, 2).unwrap();
        write_with_imm(&client, &server, 3).unwrap();
        assert_eq!(ring.poll_one().unwrap().slot, Some(0));
        assert_eq!(ring.poll_one().unwrap().slot, Some(1));
        // Slot 1 is posted again, but behind slot 0: the completion must
        // still reach the caller (as foreign), not consume the ring's slot.
        let colliding = ring.poll_one().unwrap();
        assert_eq!(colliding.slot, None, "slot 1 is not at the ring's front");
        assert_eq!(colliding.wc.imm, Some(3));
        assert_eq!(server.posted_receives(), 2);
    }

    #[test]
    fn zero_depth_ring_is_rejected() {
        let (_client, server) = connected_pair();
        assert!(ReceiveRing::new(&server, 0, 8).is_err());
    }

    #[test]
    fn a_queue_holds_one_ring() {
        // The slot ledger lives with the queue the slots are posted to.
        let (_client, server) = connected_pair();
        let _ring = ReceiveRing::new(&server, 2, 8).unwrap();
        assert!(ReceiveRing::new(&server, 2, 8).is_err());
        assert_eq!(server.posted_receives(), 2);
        let (srq, _ring, _pairs) = srq_ring(4, 1, 1);
        let fabric = Fabric::with_defaults();
        let endpoint = Endpoint::new(&fabric, &fabric.add_node("server"));
        assert!(ReceiveRing::on_srq(&endpoint, &srq, 4, 8).is_err());
        assert_eq!(srq.posted(), 4);
    }

    #[test]
    fn deliver_slot_supports_out_of_order_pickup() {
        let mut state = ledger(3);
        state.deliver_slot(2).unwrap();
        state.deliver_slot(0).unwrap();
        // Already consumed and out-of-range slots are rejected.
        assert!(state.deliver_slot(2).is_err());
        assert!(state.deliver_slot(9).is_err());
        assert_eq!(state.posted(), 1);
        assert_eq!(state.consumed(), 2);
        state.repost(2).unwrap();
        // FIFO delivery still works around the targeted ones: 1 then 2.
        assert_eq!(state.deliver().unwrap(), 1);
        assert_eq!(state.deliver().unwrap(), 2);
    }

    /// A server endpoint with an SRQ-backed ring and `n` connected QPs
    /// drawing from it, each with `credit` flow-control credits.
    fn srq_ring(
        depth: usize,
        n: usize,
        credit: usize,
    ) -> (SharedReceiveQueue, ReceiveRing, Vec<(QueuePair, QueuePair)>) {
        let fabric = Fabric::with_defaults();
        let server_node = fabric.add_node("server");
        let server_ep = Endpoint::new(&fabric, &server_node);
        let srq = SharedReceiveQueue::new(&server_ep, depth);
        let ring = ReceiveRing::on_srq(&server_ep, &srq, depth, 8).unwrap();
        let pairs = (0..n)
            .map(|i| {
                let client_node = fabric.add_node(&format!("client-{i}"));
                let client = QueuePair::new(&Endpoint::new(&fabric, &client_node));
                let server = QueuePair::new(&server_ep);
                QueuePair::connect_pair(&client, &server).unwrap();
                server.attach_srq(&srq, credit);
                (client, server)
            })
            .collect();
        (srq, ring, pairs)
    }

    #[test]
    fn srq_ring_serves_multiple_qps_from_shared_slots() {
        let (srq, ring, pairs) = srq_ring(4, 2, 2);
        assert_eq!(srq.posted(), 4);
        // More messages than slots-per-QP: auto repost keeps the shared pool
        // full, and both connections are served from the same 4 slots.
        for round in 0..3u32 {
            for (i, (client, server)) in pairs.iter().enumerate() {
                let imm = round * 10 + i as u32;
                write_with_imm(client, server, imm).unwrap();
                let raw = server.recv_cq().poll_one().unwrap();
                let c = ring.adopt(raw);
                assert!(c.slot.is_some(), "round {round} qp {i}");
                assert_eq!(c.wc.imm, Some(imm));
            }
        }
        assert_eq!(srq.posted(), 4);
        assert_eq!(srq.stats().in_flight, 0);
        assert!(srq.stats().depth_high_watermark >= 1);
    }

    #[test]
    fn srq_ring_adopts_completions_out_of_slot_order() {
        let (_srq, ring, pairs) = srq_ring(4, 2, 2);
        // Both clients send before any pickup: slots 0 and 1 are consumed.
        write_with_imm(&pairs[0].0, &pairs[0].1, 100).unwrap();
        write_with_imm(&pairs[1].0, &pairs[1].1, 200).unwrap();
        // Drain the *second* QP's CQ first: slot 1 is adopted before slot 0.
        let second = ring.adopt(pairs[1].1.recv_cq().poll_one().unwrap());
        assert_eq!(second.slot, Some(1));
        let first = ring.adopt(pairs[0].1.recv_cq().poll_one().unwrap());
        assert_eq!(first.slot, Some(0));
    }

    #[test]
    fn srq_credits_contain_a_flooding_connection() {
        let (_srq, ring, pairs) = srq_ring(4, 2, 1);
        // QP 0 floods: its single credit allows one in-flight message, the
        // second is refused even though the shared pool still has slots...
        write_with_imm(&pairs[0].0, &pairs[0].1, 1).unwrap();
        assert_eq!(
            write_with_imm(&pairs[0].0, &pairs[0].1, 2).unwrap_err(),
            FabricError::ReceiverNotReady
        );
        // ...which the neighbour happily uses.
        write_with_imm(&pairs[1].0, &pairs[1].1, 3).unwrap();
        // Adopting QP 0's completion releases its credit.
        ring.adopt(pairs[0].1.recv_cq().poll_one().unwrap());
        write_with_imm(&pairs[0].0, &pairs[0].1, 4).unwrap();
    }

    #[test]
    fn srq_attached_qp_rejects_private_post_recv() {
        let (_srq, _ring, pairs) = srq_ring(2, 1, 1);
        let extra = pairs[0].1.pd().register(8, AccessFlags::LOCAL_ONLY);
        let err = pairs[0]
            .1
            .post_recv(RecvRequest {
                wr_id: u64::MAX,
                local: Sge::whole(&extra),
            })
            .unwrap_err();
        assert!(matches!(err, FabricError::UnsupportedOperation(_)));
    }

    /// A receive the model expects on the posted FIFO: a ring slot, or a
    /// foreign receive with its `wr_id` and buffer.
    #[derive(Debug, Clone)]
    enum ModelRecv {
        Slot(usize),
        Foreign(u64, MemoryRegion),
    }

    impl ModelRecv {
        fn wr_id(&self) -> u64 {
            match self {
                ModelRecv::Slot(slot) => *slot as u64,
                ModelRecv::Foreign(wr_id, _) => *wr_id,
            }
        }
    }

    /// What a delivery left for a pickup: the receive it consumed, its
    /// immediate (write-with-immediate) or its bytes (SEND).
    type Landed = (ModelRecv, Option<u32>, Option<Vec<u8>>);

    const SLOT_LEN: usize = 8;

    /// Drive a ring — on a private queue pair, or on an SRQ of `srq_depth`
    /// receives shared by two queue pairs — through `ops`, against a model
    /// of the queue's posted FIFO. `pre` foreign receives are posted before
    /// the ring is built; more join between the slots as `ops` posts them.
    fn check_slot_queue(srq_depth: Option<usize>, depth: usize, pre: usize, ops: &[u8]) {
        let fabric = Fabric::with_defaults();
        let server_ep = Endpoint::new(&fabric, &fabric.add_node("server"));
        let srq = srq_depth.map(|max| SharedReceiveQueue::new(&server_ep, max));
        let pairs: Vec<(QueuePair, QueuePair)> = (0..if srq.is_some() { 2 } else { 1 })
            .map(|i| {
                let node = fabric.add_node(&format!("client-{i}"));
                let client = QueuePair::new(&Endpoint::new(&fabric, &node));
                let server = QueuePair::new(&server_ep);
                QueuePair::connect_pair(&client, &server).unwrap();
                if let Some(srq) = &srq {
                    server.attach_srq(srq, 64);
                }
                (client, server)
            })
            .collect();
        let posted = || match &srq {
            Some(srq) => srq.stats().posted,
            None => pairs[0].1.posted_receives(),
        };
        let mut model: VecDeque<ModelRecv> = VecDeque::new();
        let mut next_foreign = depth as u64;
        let mut post_foreign = |model: &mut VecDeque<ModelRecv>| {
            let region = server_ep.pd.register(SLOT_LEN, AccessFlags::LOCAL_ONLY);
            let recv = RecvRequest {
                wr_id: next_foreign,
                local: Sge::whole(&region),
            };
            match &srq {
                Some(srq) => srq.post(recv).unwrap(),
                None => pairs[0].1.post_recv(recv).unwrap(),
            }
            model.push_back(ModelRecv::Foreign(next_foreign, region));
            next_foreign += 1;
        };
        for _ in 0..pre {
            post_foreign(&mut model);
        }

        // The build posts the slots that fit, in index order, and charges
        // one `post_recv` for each in one advance; a slot that does not fit
        // fails the build there, as posting one slot at a time did.
        let before = server_ep.clock.now();
        let built = match &srq {
            Some(srq) => ReceiveRing::on_srq(&server_ep, srq, depth, SLOT_LEN),
            None => ReceiveRing::new(&pairs[0].1, depth, SLOT_LEN),
        };
        let max_depth = srq_depth.unwrap_or(crate::device::CX5_100G.max_recv_queue_depth);
        let fits = depth.min(max_depth - pre);
        model.extend((0..fits).map(ModelRecv::Slot));
        let charged = server_ep.clock.now().saturating_since(before);
        assert_eq!(
            charged,
            crate::device::CX5_100G.post_recv_overhead * fits as u64
        );
        assert_eq!(posted(), model.len());
        let ring = match built {
            Ok(ring) => {
                assert_eq!(fits, depth);
                ring
            }
            Err(e) => {
                assert!(fits < depth, "a ring that fits was refused: {e:?}");
                let limit = "shared receive queue depth";
                assert_eq!(e, FabricError::DeviceLimitExceeded { limit });
                return;
            }
        };

        let mut landed: Vec<VecDeque<Landed>> = vec![VecDeque::new(); pairs.len()];
        for &op in ops {
            let qp = (op as usize >> 2) % pairs.len();
            let (client, server) = &pairs[qp];
            match op % 4 {
                // A foreign receive, as long as every slot still finds room.
                0 => {
                    let slots_out = depth
                        - model
                            .iter()
                            .filter(|r| matches!(r, ModelRecv::Slot(_)))
                            .count();
                    if model.len() + slots_out < max_depth {
                        post_foreign(&mut model);
                    }
                }
                // A delivery: write-with-immediate or SEND. An SRQ that is
                // out of receives makes the sender retry, so it gets none.
                1 | 2 => {
                    if srq.is_some() && model.is_empty() {
                        continue;
                    }
                    let imm = u32::from(op);
                    let bytes = vec![op; 1 + (op as usize >> 3) % SLOT_LEN];
                    let sent = if op % 4 == 1 {
                        write_with_imm(client, server, imm).map(|()| (Some(imm), None))
                    } else {
                        let src = client.pd().register(bytes.len(), AccessFlags::LOCAL_ONLY);
                        src.write(0, &bytes).unwrap();
                        let local = Sge::whole(&src);
                        let send = SendRequest::Send { local };
                        client
                            .post_send(0, send, false)
                            .map(|()| (None, Some(bytes)))
                    };
                    match (sent, model.pop_front()) {
                        (Ok((imm, bytes)), Some(recv)) => landed[qp].push_back((recv, imm, bytes)),
                        (Err(e), None) => assert_eq!(e, FabricError::ReceiverNotReady),
                        (sent, recv) => panic!("delivery {sent:?} into {recv:?}"),
                    }
                }
                // A pickup, which reposts a ring slot at the back.
                _ => {
                    let picked = match &srq {
                        Some(_) => server.recv_cq().poll_one().map(|wc| ring.adopt(wc)),
                        None => ring.poll_one(),
                    };
                    let Some(c) = picked else {
                        assert!(landed[qp].is_empty());
                        continue;
                    };
                    let (recv, imm, bytes) = landed[qp].pop_front().expect("a delivery landed");
                    assert_eq!(c.wc.wr_id, recv.wr_id());
                    assert_eq!(c.wc.imm, imm);
                    let buffer = match &recv {
                        ModelRecv::Slot(slot) => {
                            assert_eq!(c.slot, Some(*slot));
                            model.push_back(recv.clone());
                            Sge::range(&ring._slab, slot * SLOT_LEN, SLOT_LEN)
                        }
                        ModelRecv::Foreign(_, region) => {
                            assert_eq!(c.slot, None);
                            if let Some(srq) = &srq {
                                srq.release(c.wc.qp_num);
                            }
                            Sge::whole(region)
                        }
                    };
                    if let Some(bytes) = bytes {
                        assert_eq!(c.wc.byte_len, bytes.len());
                        let left = buffer.region.read(buffer.offset, bytes.len()).unwrap();
                        assert_eq!(left, bytes);
                    }
                }
            }
            assert_eq!(posted(), model.len());
        }
    }

    proptest::proptest! {
        // Arbitrary interleavings of deliver/repost never lose a slot: every
        // slot is always exactly posted or consumed, and the totals add up
        // to the depth.
        #[test]
        fn prop_ring_never_loses_buffers(depth in 1usize..16, ops: Vec<u8>) {
            let mut state = ledger(depth);
            let mut delivered: Vec<usize> = Vec::new();
            for op in ops {
                if op % 2 == 0 {
                    match state.deliver() {
                        Ok(slot) => delivered.push(slot),
                        Err(e) => {
                            // Only an empty ring may reject a delivery.
                            proptest::prop_assert_eq!(e, FabricError::ReceiverNotReady);
                            proptest::prop_assert_eq!(state.posted(), 0);
                        }
                    }
                } else if let Some(slot) = delivered.pop() {
                    state.repost(slot).unwrap();
                }
                proptest::prop_assert_eq!(state.posted() + state.consumed(), depth);
                proptest::prop_assert_eq!(delivered.len(), state.consumed());
            }
        }

        // A ring's slots, foreign receives between them, and every delivery
        // and pickup follow one posted FIFO, on a private queue pair and on
        // an SRQ (`room` below 4 makes the SRQ too shallow for the ring).
        #[test]
        fn prop_ring_slots_follow_the_posted_fifo(
            on_srq: bool,
            depth in 1usize..8,
            pre in 0usize..3,
            room in 0usize..12,
            ops: Vec<u8>,
        ) {
            let srq_depth = on_srq.then(|| (depth + pre + room).saturating_sub(4).max(pre).max(1));
            check_slot_queue(srq_depth, depth, pre, &ops);
        }

        // Deliveries come back in exactly the order slots were (re)posted.
        #[test]
        fn prop_ring_delivery_is_fifo(depth in 1usize..12, ops: Vec<bool>) {
            let mut state = ledger(depth);
            // Shadow model: a plain FIFO of slot ids.
            let mut model: std::collections::VecDeque<usize> = (0..depth).collect();
            let mut consumed: Vec<usize> = Vec::new();
            for take in ops {
                if take {
                    match (state.deliver(), model.pop_front()) {
                        (Ok(got), Some(expect)) => {
                            proptest::prop_assert_eq!(got, expect);
                            consumed.push(got);
                        }
                        (Err(_), None) => {}
                        (got, expect) => {
                            panic!("ring and model diverged: {got:?} vs {expect:?}");
                        }
                    }
                } else if let Some(slot) = consumed.first().copied() {
                    consumed.remove(0);
                    state.repost(slot).unwrap();
                    model.push_back(slot);
                }
            }
        }

        // An empty ring always rejects writes, and stays rejecting until a
        // repost; the live transport mirrors this through ReceiverNotReady.
        #[test]
        fn prop_empty_ring_rejects_until_repost(depth in 1usize..8) {
            let mut state = ledger(depth);
            let mut slots = Vec::new();
            for _ in 0..depth {
                slots.push(state.deliver().unwrap());
            }
            proptest::prop_assert_eq!(state.deliver().unwrap_err(), FabricError::ReceiverNotReady);
            proptest::prop_assert_eq!(state.deliver().unwrap_err(), FabricError::ReceiverNotReady);
            state.repost(slots[0]).unwrap();
            proptest::prop_assert_eq!(state.deliver().unwrap(), slots[0]);
        }
    }
}

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
//! * [`RingState`] — the pure slot state machine (posted FIFO + consumed
//!   set). It owns the invariants the property tests pin down: no
//!   interleaving of post/consume/repost may lose a slot, delivery is FIFO
//!   in post order, and delivery into an empty ring is rejected.
//! * [`ReceiveRing`] — the live wrapper that registers one slab of memory,
//!   posts one receive per slot on a [`QueuePair`], and (by default)
//!   re-posts a slot automatically as soon as its completion is picked up —
//!   correct whenever the slot is a pure doorbell, which is what rFaaS uses
//!   it for (payloads travel one-sided into registered buffers, not into the
//!   ring slots).

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::error::{FabricError, Result};
use crate::memory::AccessFlags;
use crate::pd::{OwnedRegion, ProtectionDomain};
use crate::qp::{Endpoint, QueuePair};
use crate::srq::SharedReceiveQueue;
use crate::verbs::{RecvRequest, Sge, WorkCompletion};

/// Pure state machine of a receive ring: every slot is either *posted*
/// (waiting for a message, FIFO position known) or *consumed* (delivered to
/// the application, awaiting repost). There is no third state — a slot can
/// never leak.
#[derive(Debug, Clone)]
pub struct RingState {
    depth: usize,
    /// Slots currently posted, front = next to be consumed by a delivery.
    posted: VecDeque<usize>,
    /// `consumed[slot]` — delivered to the application, not yet re-posted.
    consumed: Vec<bool>,
}

impl RingState {
    /// A ring of `depth` slots, all posted in index order (slot 0 first).
    pub fn new(depth: usize) -> RingState {
        RingState {
            depth,
            posted: (0..depth).collect(),
            consumed: vec![false; depth],
        }
    }

    /// Number of slots in the ring.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of slots currently posted.
    pub fn posted(&self) -> usize {
        self.posted.len()
    }

    /// Number of slots delivered but not yet re-posted.
    pub fn consumed(&self) -> usize {
        self.consumed.iter().filter(|c| **c).count()
    }

    /// The slot an incoming message will land in next, if any.
    pub fn front(&self) -> Option<usize> {
        self.posted.front().copied()
    }

    /// Deliver one message: consumes the oldest posted slot (FIFO, matching
    /// the order a reliable-connected QP consumes its receive queue) and
    /// returns its index. An empty ring rejects the delivery the same way the
    /// transport rejects a write-with-immediate without a posted receive.
    pub fn deliver(&mut self) -> Result<usize> {
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
    pub fn deliver_slot(&mut self, slot: usize) -> Result<()> {
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
    pub fn repost(&mut self, slot: usize) -> Result<()> {
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
/// one receive work request per slot is posted with `wr_id == slot`. Pickup
/// helpers mirror the completion-queue API (busy poll, blocking with
/// timeout) and — in the default automatic mode — repost the consumed slot
/// before handing the completion to the caller, so the ring never drains as
/// long as at most `depth` messages are in flight.
#[derive(Debug)]
pub struct ReceiveRing {
    backing: RingBacking,
    /// The slot slab, registered for as long as the ring lives. Receives
    /// still posted when it drops keep the bytes, not the registration.
    region: OwnedRegion,
    slot_len: usize,
    /// Immutable after construction; duplicated outside the state mutex so
    /// hot-path callers (per-submission overflow checks, adopt) read it
    /// lock-free.
    depth: usize,
    auto_repost: bool,
    state: Mutex<RingState>,
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
            true,
        )
    }

    /// Same ring, but the caller re-posts slots explicitly with
    /// [`ReceiveRing::repost`] — needed when slot contents (two-sided SENDs)
    /// must be read before the slot may be overwritten.
    pub fn with_manual_repost(
        qp: &QueuePair,
        depth: usize,
        slot_len: usize,
    ) -> Result<ReceiveRing> {
        Self::build(
            RingBacking::Qp(qp.clone()),
            qp.pd().clone(),
            depth,
            slot_len,
            false,
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
            true,
        )
    }

    fn build(
        backing: RingBacking,
        pd: ProtectionDomain,
        depth: usize,
        slot_len: usize,
        auto_repost: bool,
    ) -> Result<ReceiveRing> {
        if depth == 0 {
            return Err(FabricError::DeviceLimitExceeded {
                limit: "receive ring depth must be non-zero",
            });
        }
        let region = pd.register_owned(depth * slot_len.max(1), AccessFlags::LOCAL_ONLY);
        let ring = ReceiveRing {
            backing,
            region,
            slot_len: slot_len.max(1),
            depth,
            auto_repost,
            state: Mutex::new(RingState::new(depth)),
        };
        for slot in 0..depth {
            ring.post_slot(slot)?;
        }
        Ok(ring)
    }

    fn post_slot(&self, slot: usize) -> Result<()> {
        match &self.backing {
            RingBacking::Qp(qp) => qp.post_recv(self.recv_request(slot)),
            RingBacking::Srq(srq) => srq.post(self.recv_request(slot)),
        }
    }

    fn recv_request(&self, slot: usize) -> RecvRequest {
        RecvRequest {
            wr_id: slot as u64,
            local: Sge::range(&self.region, slot * self.slot_len, self.slot_len),
        }
    }

    /// Number of slots in the ring (lock-free: fixed at construction).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Slots currently posted (available for incoming messages).
    pub fn posted_slots(&self) -> usize {
        self.state.lock().posted()
    }

    /// Bytes currently stored in `slot` (meaningful after a two-sided SEND).
    pub fn slot_bytes(&self, slot: usize) -> Result<Vec<u8>> {
        self.region.read(slot * self.slot_len, self.slot_len)
    }

    /// Map a raw completion onto the ring: consume the slot it landed in and,
    /// in automatic mode, immediately re-post it.
    ///
    /// Total by design — a completion the completion queue already handed
    /// over must never be dropped. Completions whose `wr_id` does not name a
    /// ring slot pass through as foreign (`slot: None`); so does a `wr_id`
    /// that collides with a slot index while that slot is not at the ring's
    /// front (a receive posted outside the ring by a caller ignoring the
    /// reserve-high-`wr_id` contract below).
    ///
    /// Public so an external event loop that drains this ring's CQ through a
    /// multiplexed [`crate::CqSet`] can hand the raw completions back to the
    /// ring for slot accounting and auto-repost.
    pub fn adopt(&self, wc: WorkCompletion) -> RingCompletion {
        let slot_id = wc.wr_id as usize;
        if wc.wr_id == u64::MAX || slot_id >= self.depth() {
            return RingCompletion { slot: None, wc };
        }
        {
            let mut state = self.state.lock();
            match &self.backing {
                RingBacking::Qp(_) => {
                    // The QP consumes receives FIFO, so a ring delivery
                    // always hits the front slot; anything else is a foreign
                    // receive whose wr_id happens to collide with a slot
                    // index.
                    if state.front() != Some(slot_id) {
                        return RingCompletion { slot: None, wc };
                    }
                    state
                        .deliver()
                        .expect("front() is Some, deliver cannot fail");
                }
                RingBacking::Srq(_) => {
                    // Several QPs drain from the shared queue and their CQs
                    // are swept in registration order, so deliveries land in
                    // arbitrary slot order.
                    if state.deliver_slot(slot_id).is_err() {
                        return RingCompletion { slot: None, wc };
                    }
                }
            }
        }
        if let RingBacking::Srq(srq) = &self.backing {
            // The buffer is free again: return the consuming QP's credit.
            srq.release(wc.qp_num);
        }
        if self.auto_repost {
            // A failed re-post only happens on a disconnected QP, where the
            // next wait returns None anyway; the completion in hand is
            // still delivered to the caller.
            let _ = self.repost(slot_id);
        }
        RingCompletion {
            slot: Some(slot_id),
            wc,
        }
    }

    /// Re-post a consumed slot (no-op guard: rejects non-consumed slots).
    ///
    /// Receives posted *outside* the ring on the same queue pair must use
    /// `wr_id`s at or above the ring depth (`u64::MAX` is conventional), or
    /// their completions are indistinguishable from slot deliveries.
    pub fn repost(&self, slot: usize) -> Result<()> {
        self.state.lock().repost(slot)?;
        self.post_slot(slot)
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

    /// Busy-poll until a completion arrives (hot path). `None` when the
    /// queue pair disconnects while waiting, or on an SRQ-backed ring.
    pub fn busy_wait(&self) -> Option<RingCompletion> {
        let wc = self.backing_qp()?.recv_cq().busy_wait()?;
        Some(self.adopt(wc))
    }

    /// Block until a completion arrives or the wall-clock timeout expires
    /// (warm path; the virtual wake-up cost is charged by the CQ).
    pub fn blocking_wait_timeout(&self, timeout: std::time::Duration) -> Option<RingCompletion> {
        let wc = self
            .backing_qp()?
            .recv_cq()
            .blocking_wait_timeout(timeout)?;
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
        let state = RingState::new(4);
        assert_eq!(state.depth(), 4);
        assert_eq!(state.posted(), 4);
        assert_eq!(state.consumed(), 0);
        assert_eq!(state.front(), Some(0));
    }

    #[test]
    fn deliveries_are_fifo_and_reposts_queue_at_the_back() {
        let mut state = RingState::new(3);
        assert_eq!(state.deliver().unwrap(), 0);
        assert_eq!(state.deliver().unwrap(), 1);
        state.repost(0).unwrap();
        // 2 was posted before the re-posted 0.
        assert_eq!(state.deliver().unwrap(), 2);
        assert_eq!(state.deliver().unwrap(), 0);
    }

    #[test]
    fn empty_ring_rejects_delivery() {
        let mut state = RingState::new(1);
        state.deliver().unwrap();
        assert_eq!(state.deliver().unwrap_err(), FabricError::ReceiverNotReady);
    }

    #[test]
    fn double_or_foreign_repost_is_rejected() {
        let mut state = RingState::new(2);
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
        assert_eq!(ring.posted_slots(), 2);
        // Many more messages than the depth: every pickup re-posts its slot.
        for i in 0..10u32 {
            write_with_imm(&client, &server, i).unwrap();
            let c = ring.busy_wait().unwrap();
            assert_eq!(c.wc.imm, Some(i));
            assert!(c.slot.is_some());
            assert_eq!(ring.posted_slots(), 2);
        }
    }

    #[test]
    fn manual_ring_drains_without_repost_and_rejects_overflow() {
        let (client, server) = connected_pair();
        let ring = ReceiveRing::with_manual_repost(&server, 2, 8).unwrap();
        write_with_imm(&client, &server, 1).unwrap();
        write_with_imm(&client, &server, 2).unwrap();
        let first = ring.poll_one().unwrap();
        let second = ring.poll_one().unwrap();
        assert_eq!(ring.posted_slots(), 0);
        // The transport itself now rejects further writes: ring empty.
        assert_eq!(
            write_with_imm(&client, &server, 3).unwrap_err(),
            FabricError::ReceiverNotReady
        );
        ring.repost(first.slot.unwrap()).unwrap();
        ring.repost(second.slot.unwrap()).unwrap();
        write_with_imm(&client, &server, 3).unwrap();
        assert_eq!(ring.poll_one().unwrap().wc.imm, Some(3));
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
        assert_eq!(ring.busy_wait().unwrap().slot, Some(0));
        assert_eq!(ring.busy_wait().unwrap().slot, Some(1));
        let foreign = ring.busy_wait().unwrap();
        assert_eq!(foreign.slot, None);
        assert_eq!(foreign.wc.imm, Some(3));
        // The ring slots were auto-reposted; the foreign receive was not.
        assert_eq!(ring.posted_slots(), 2);
    }

    #[test]
    fn colliding_foreign_wr_id_passes_through_instead_of_corrupting_the_ring() {
        let (client, server) = connected_pair();
        let ring = ReceiveRing::with_manual_repost(&server, 1, 8).unwrap();
        write_with_imm(&client, &server, 1).unwrap();
        let first = ring.poll_one().unwrap();
        assert_eq!(first.slot, Some(0));
        // A caller violating the wr_id contract: a foreign receive whose
        // wr_id collides with slot 0 while the ring is drained. The
        // completion must still reach the caller (as foreign), not vanish.
        let extra = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        server
            .post_recv(RecvRequest {
                wr_id: 0,
                local: Sge::whole(&extra),
            })
            .unwrap();
        write_with_imm(&client, &server, 9).unwrap();
        let colliding = ring.poll_one().unwrap();
        assert_eq!(colliding.slot, None, "drained ring cannot own this wr_id");
        assert_eq!(colliding.wc.imm, Some(9));
        // The ring state is untouched and reposting still works.
        assert_eq!(ring.posted_slots(), 0);
        ring.repost(0).unwrap();
        assert_eq!(ring.posted_slots(), 1);
    }

    #[test]
    fn zero_depth_ring_is_rejected() {
        let (_client, server) = connected_pair();
        assert!(ReceiveRing::new(&server, 0, 8).is_err());
    }

    #[test]
    fn deliver_slot_supports_out_of_order_pickup() {
        let mut state = RingState::new(3);
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

    #[test]
    fn slot_bytes_expose_sent_data() {
        let (client, server) = connected_pair();
        let ring = ReceiveRing::with_manual_repost(&server, 1, 16).unwrap();
        let src = client
            .pd()
            .register_from(b"ring-slot".to_vec(), AccessFlags::LOCAL_ONLY);
        client
            .post_send(
                1,
                SendRequest::Send {
                    local: Sge::whole(&src),
                },
                false,
            )
            .unwrap();
        let c = ring.busy_wait().unwrap();
        let slot = c.slot.unwrap();
        assert_eq!(&ring.slot_bytes(slot).unwrap()[..9], b"ring-slot");
        ring.repost(slot).unwrap();
    }

    proptest::proptest! {
        // Arbitrary interleavings of deliver/repost never lose a slot: every
        // slot is always exactly posted or consumed, and the totals add up
        // to the depth.
        #[test]
        fn prop_ring_never_loses_buffers(depth in 1usize..16, ops: Vec<u8>) {
            let mut state = RingState::new(depth);
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

        // Deliveries come back in exactly the order slots were (re)posted.
        #[test]
        fn prop_ring_delivery_is_fifo(depth in 1usize..12, ops: Vec<bool>) {
            let mut state = RingState::new(depth);
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
            let mut state = RingState::new(depth);
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

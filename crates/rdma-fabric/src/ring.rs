//! Receive queues, and receive-buffer rings with automatic repost.
//!
//! rFaaS workers keep a fixed-depth ring of posted receives so that a client
//! can fire invocations back to back without ever observing
//! `ReceiverNotReady`; after every consumed completion the slot is re-posted
//! (Sec. IV-A: "the executor re-posts the receive buffer immediately after
//! consuming it"). The same structure backs the client side, where each
//! result notification consumes one slot.
//!
//! A `RecvQueue` is a queue pair's private receive queue or the queue of a
//! [`SharedReceiveQueue`]: one type, as `ibv_post_recv` and
//! `ibv_post_srq_recv` take the same work request. It holds the posted
//! receives, oldest first, and the ledger of the ring posting into it, under
//! its owner's lock. A slot is posted as its index (`Posted::Slot`), and
//! exactly when the queue holds that index: the ledger keeps only the slab
//! and which slots are out. A message's pop puts its slot in hand; the
//! pickup's repost puts it back or, on a full or flushed queue, leaves it in
//! hand for the next repost to retry; a flush counts the posted slots as
//! flushed. So `posted + in hand + flushed` is always the ring's depth.
//!
//! A [`ReceiveRing`] registers one slab, posts every slot in the one
//! acquisition that attaches the ledger, and reposts a slot as soon as its
//! completion is picked up, in one more — correct whenever the slot is a
//! pure doorbell, as in rFaaS (payloads travel one-sided into registered
//! buffers). Only a SEND into a slot builds the slot's scatter/gather entry.

use std::collections::VecDeque;

use crate::device::CX5_100G;
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

/// The ledger of the ring posting into a [`RecvQueue`]: its slab, and each
/// slot the queue does not hold.
#[derive(Debug)]
struct RingState {
    /// The slot slab: slot `i` is `slot_len` bytes at `i * slot_len`. The
    /// ledger keeps it as long as the queue does, so slots still posted
    /// when the ring drops keep the bytes, not the registration.
    slab: MemoryRegion,
    slot_len: usize,
    /// `in_hand[i]`: slot `i` is out of the queue and not flushed — a
    /// message landed in it, or the build found no room for it.
    in_hand: Vec<bool>,
    /// The slots in hand whose pickup already ran and whose repost the queue
    /// refused, oldest first: the next repost retries them.
    refused: Vec<usize>,
    /// Slots that were posted when the queue was flushed.
    flushed: usize,
}

/// A receive queue: the receives posted to it, oldest first and at most
/// `max_depth` of them, and the ledger of the ring whose slots post into it.
/// A message consumes the oldest receive, on a private queue and on a
/// shared one alike.
#[derive(Debug)]
pub(crate) struct RecvQueue {
    posted: VecDeque<Posted>,
    max_depth: usize,
    /// The device limit a post to the full queue reports.
    limit: &'static str,
    /// Why every post is refused, once the queue is flushed.
    closed: Option<FabricError>,
    ring: Option<RingState>,
}

impl RecvQueue {
    /// An empty queue of at most `max_depth` receives, whose full posts
    /// report the device limit `limit`.
    pub(crate) fn new(max_depth: usize, limit: &'static str) -> RecvQueue {
        RecvQueue {
            posted: VecDeque::new(),
            max_depth,
            limit,
            closed: None,
            ring: None,
        }
    }

    /// Receives currently posted.
    pub(crate) fn len(&self) -> usize {
        self.posted.len()
    }

    /// The most receives the queue holds.
    pub(crate) fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Whether one more receive may be posted: the queue is neither flushed
    /// nor full.
    fn room(&self) -> Result<()> {
        if let Some(reason) = &self.closed {
            return Err(reason.clone());
        }
        if self.posted.len() >= self.max_depth {
            return Err(FabricError::DeviceLimitExceeded { limit: self.limit });
        }
        Ok(())
    }

    /// Post `recv` at the back of the queue.
    pub(crate) fn push(&mut self, recv: Posted) -> Result<()> {
        self.room()?;
        self.posted.push_back(recv);
        Ok(())
    }

    /// Take the oldest receive for a message that lands in it. A ring slot
    /// is then in hand until its pickup reposts it.
    pub(crate) fn pop(&mut self) -> Option<Posted> {
        let recv = self.posted.pop_front()?;
        if let (Posted::Slot(slot), Some(ring)) = (&recv, &mut self.ring) {
            ring.in_hand[*slot] = true;
        }
        Some(recv)
    }

    /// Attach the ledger of a ring of `depth` slots of `slot_len` bytes in
    /// `slab` and post its slots, slot 0 first, as many as fit; the rest
    /// stay in hand. Returns how many went on — the caller charges one
    /// `post_recv` each, in one clock advance — and, when one did not, the
    /// refusal, as posting the slots one at a time would have met it at
    /// that slot. A queue holds one ring.
    pub(crate) fn attach_ring(
        &mut self,
        slab: &MemoryRegion,
        depth: usize,
        slot_len: usize,
    ) -> (usize, Result<()>) {
        if self.ring.is_some() {
            let limit = "one receive ring per queue";
            return (0, Err(FabricError::DeviceLimitExceeded { limit }));
        }
        let room = match self.closed {
            Some(_) => 0,
            None => self.max_depth.saturating_sub(self.posted.len()),
        };
        let fits = depth.min(room);
        self.posted.extend((0..fits).map(Posted::Slot));
        self.ring = Some(RingState {
            slab: slab.clone(),
            slot_len,
            in_hand: (0..depth).map(|slot| slot >= fits).collect(),
            refused: Vec::new(),
            flushed: 0,
        });
        (fits, if fits < depth { self.room() } else { Ok(()) })
    }

    /// The buffer of ring slot `slot`, built from the ledger's slab.
    pub(crate) fn ring_slot(&self, slot: usize) -> Sge {
        let ring = self.ring.as_ref().expect("a posted slot has a ring");
        Sge::range(&ring.slab, slot * ring.slot_len, ring.slot_len)
    }

    /// Post in-hand ring slot `slot` back at the back of the queue.
    fn put_back(&mut self, slot: usize) -> Result<()> {
        self.push(Posted::Slot(slot))?;
        if let Some(ring) = &mut self.ring {
            ring.in_hand[slot] = false;
        }
        Ok(())
    }

    /// Pick up ring slot `slot`, delivered into in any order, and post it
    /// back, after the slots whose repost was refused before. Returns how
    /// many went on and whether `slot` did: a refused slot stays in hand for
    /// the next repost to retry. `None` (left alone) when `slot` is not in
    /// hand awaiting its pickup: a receive posted outside the ring whose
    /// `wr_id` collides with a slot index.
    pub(crate) fn repost_ring_slot(&mut self, slot: usize) -> Option<(usize, Result<()>)> {
        let ring = self.ring.as_ref()?;
        if !ring.in_hand.get(slot).copied().unwrap_or(false) || ring.refused.contains(&slot) {
            return None;
        }
        let mut posted = 0;
        while let Some(&next) = self.ring.as_ref()?.refused.first() {
            if self.put_back(next).is_err() {
                break;
            }
            self.ring.as_mut()?.refused.remove(0);
            posted += 1;
        }
        let reposted = self.put_back(slot);
        match reposted {
            Ok(()) => posted += 1,
            Err(_) => self.ring.as_mut()?.refused.push(slot),
        }
        Some((posted, reposted))
    }

    /// Drop every posted receive, as a queue pair's move to the error state
    /// flushes its receive queue, and refuse every later post with
    /// `reason`. The ring's slots among them count as flushed; no completion
    /// reports them, so no clock moves.
    pub(crate) fn flush(&mut self, reason: FabricError) {
        let posted = self.posted.drain(..);
        let slots = posted
            .filter(|recv| matches!(recv, Posted::Slot(_)))
            .count();
        if let Some(ring) = &mut self.ring {
            ring.flushed += slots;
        }
        self.closed = Some(reason);
    }
}

/// A completion picked up through a [`ReceiveRing`].
#[derive(Debug, Clone)]
pub struct RingCompletion {
    /// Ring slot the receive was posted from and is posted again; `None`
    /// when the completion belongs to a receive posted outside the ring
    /// (overflow extras), or when the slot's repost was refused.
    pub slot: Option<usize>,
    /// Why the queue refused the slot's repost — full, or flushed with its
    /// queue pair. The slot stays in hand, and the ring's next repost
    /// retries it.
    pub refused: Option<FabricError>,
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

/// Whose receive queue the ring posts its slots to: a private queue pair's
/// (classic per-connection ring) or a shared receive queue serving many QPs.
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
        let (posted, built) = match &backing {
            RingBacking::Qp(qp) => match qp.private_recv_queue() {
                Ok(mut queue) => queue.attach_ring(&slab, depth, slot_len),
                Err(e) => (0, Err(e)),
            },
            RingBacking::Srq(srq) => srq.lock().0.attach_ring(&slab, depth, slot_len),
        };
        backing.charge_posts(posted);
        built?;
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

    /// Map a raw completion onto the ring: pick up the slot it landed in and
    /// immediately re-post it, under one lock of the queue it is posted to.
    ///
    /// Total by design — a completion the completion queue already handed
    /// over must never be dropped. Completions whose `wr_id` does not name a
    /// ring slot in hand pass through as foreign (`slot: None`), as does a
    /// receive posted outside the ring against the contract that such
    /// receives use `wr_id`s at or above the ring depth (`u64::MAX` by
    /// convention). A refused repost is reported (`slot: None`, `refused`).
    ///
    /// Public so an external event loop that drains this ring's CQ through a
    /// multiplexed [`crate::CqSet`] can hand the raw completions back to the
    /// ring for slot accounting and auto-repost.
    pub fn adopt(&self, wc: WorkCompletion) -> RingCompletion {
        let slot = usize::try_from(wc.wr_id).unwrap_or(usize::MAX);
        let reposted = if slot >= self.depth {
            None
        } else {
            match &self.backing {
                RingBacking::Qp(qp) => qp.recv_queue().repost_ring_slot(slot),
                RingBacking::Srq(srq) => {
                    let mut state = srq.lock();
                    let (queue, credits) = &mut *state;
                    // The buffer is free again: return the consuming QP's
                    // credit, and the slot with it.
                    let reposted = queue.repost_ring_slot(slot);
                    if reposted.is_some() {
                        credits.release(wc.qp_num);
                    }
                    reposted
                }
            }
        };
        let (slot, refused) = match reposted {
            None => (None, None),
            Some((posted, result)) => {
                self.backing.charge_posts(posted);
                (result.is_ok().then_some(slot), result.err())
            }
        };
        RingCompletion { slot, refused, wc }
    }

    /// Non-blocking pickup of one completion. `None` on SRQ-backed rings —
    /// drain the attached QPs' CQs and call [`ReceiveRing::adopt`] instead.
    pub fn poll_one(&self) -> Option<RingCompletion> {
        let RingBacking::Qp(qp) = &self.backing else {
            return None;
        };
        let wc = qp.recv_cq().poll_one()?;
        Some(self.adopt(wc))
    }
}

impl RingBacking {
    /// Charge the queue's owner one `post_recv` for each of `posted`
    /// receives, in one clock advance.
    fn charge_posts(&self, posted: usize) {
        let clock = match self {
            RingBacking::Qp(qp) => qp.clock().as_ref(),
            RingBacking::Srq(srq) => srq.clock(),
        };
        clock.advance(CX5_100G.post_recv_overhead * posted as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::memory::AccessFlags;
    use crate::qp::Endpoint;
    use crate::verbs::{CompletionStatus, SendRequest};

    impl RecvQueue {
        /// Deliver one message into the queue's oldest receive, a ring slot.
        fn deliver(&mut self) -> Result<usize> {
            let recv = self.pop().ok_or(FabricError::ReceiverNotReady)?;
            Ok(recv.wr_id() as usize)
        }

        /// Pick up `slot` and repost it: `None` when it is not in hand.
        fn repost(&mut self, slot: usize) -> Option<Result<()>> {
            self.repost_ring_slot(slot).map(|(_, reposted)| reposted)
        }

        /// The ring's slots: posted, in hand and flushed.
        fn slots(&self) -> (usize, usize, usize) {
            let ring = self.ring.as_ref().expect("a ring posts into the queue");
            let posted = self.posted.iter().filter(|r| matches!(r, Posted::Slot(_)));
            let in_hand = ring.in_hand.iter().filter(|in_hand| **in_hand);
            (posted.count(), in_hand.count(), ring.flushed)
        }
    }

    /// A queue of `depth` receives holding a ring of `depth` one-byte slots,
    /// detached from any queue pair.
    fn ledger(depth: usize) -> RecvQueue {
        let slab = MemoryRegion::zeroed(0, depth, AccessFlags::LOCAL_ONLY);
        let mut queue = RecvQueue::new(depth, "test queue depth");
        queue.attach_ring(&slab, depth, 1).1.unwrap();
        queue
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

    /// What a flushed private queue refuses posts with.
    const CLOSED: FabricError = FabricError::InvalidQpState {
        operation: "post_recv",
        state: "DISCONNECTED",
    };

    /// A receive posted outside any ring, with the conventional `wr_id`.
    fn foreign(region: &MemoryRegion) -> RecvRequest {
        RecvRequest {
            wr_id: u64::MAX,
            local: Sge::whole(region),
        }
    }

    #[test]
    fn ring_state_starts_fully_posted() {
        let queue = ledger(4);
        assert_eq!(queue.slots(), (4, 0, 0));
        assert_eq!(queue.posted.front().map(Posted::wr_id), Some(0));
    }

    #[test]
    fn deliveries_are_fifo_and_reposts_queue_at_the_back() {
        let mut queue = ledger(3);
        assert_eq!(queue.deliver().unwrap(), 0);
        assert_eq!(queue.deliver().unwrap(), 1);
        queue.repost(0).unwrap().unwrap();
        // 2 was posted before the re-posted 0.
        assert_eq!(queue.deliver().unwrap(), 2);
        assert_eq!(queue.deliver().unwrap(), 0);
    }

    #[test]
    fn empty_ring_rejects_delivery() {
        let mut queue = ledger(1);
        queue.deliver().unwrap();
        assert_eq!(queue.deliver().unwrap_err(), FabricError::ReceiverNotReady);
    }

    #[test]
    fn double_or_foreign_repost_is_rejected() {
        let mut queue = ledger(2);
        assert!(queue.repost(0).is_none()); // still posted
        assert!(queue.repost(7).is_none()); // out of range
        let slot = queue.deliver().unwrap();
        queue.repost(slot).unwrap().unwrap();
        assert!(queue.repost(slot).is_none()); // already back in the ring
        assert_eq!(queue.slots(), (2, 0, 0));
    }

    #[test]
    fn deliver_slot_supports_out_of_order_pickup() {
        let mut queue = ledger(3);
        for slot in 0..3 {
            assert_eq!(queue.deliver().unwrap(), slot);
        }
        // Pickups come in any slot order, as the completion queues of the
        // queue pairs sharing an SRQ are swept.
        queue.repost(2).unwrap().unwrap();
        queue.repost(0).unwrap().unwrap();
        // Already picked up and out-of-range slots are rejected.
        assert!(queue.repost(2).is_none());
        assert!(queue.repost(9).is_none());
        assert_eq!(queue.slots(), (2, 1, 0));
        // Delivery follows the repost order: 2 then 0.
        assert_eq!(queue.deliver().unwrap(), 2);
        assert_eq!(queue.deliver().unwrap(), 0);
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
        // The QP receive queue is FIFO, so the ring slots are consumed
        // first; then the extra receive is next in line.
        let extra = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        server.post_recv(foreign(&extra)).unwrap();
        write_with_imm(&client, &server, 1).unwrap();
        write_with_imm(&client, &server, 2).unwrap();
        write_with_imm(&client, &server, 3).unwrap();
        assert_eq!(ring.poll_one().unwrap().slot, Some(0));
        assert_eq!(ring.poll_one().unwrap().slot, Some(1));
        let foreign = ring.poll_one().unwrap();
        assert_eq!(foreign.slot, None);
        assert_eq!(foreign.refused, None);
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
        // Slot 1 is posted again, not in hand: the completion must still
        // reach the caller (as foreign), not consume the ring's slot.
        let colliding = ring.poll_one().unwrap();
        assert_eq!(colliding.slot, None, "slot 1 is posted, not in hand");
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
        let (srq, _ring, _pairs) = srq_ring(4, 4, 1, 1);
        let fabric = Fabric::with_defaults();
        let endpoint = Endpoint::new(&fabric, &fabric.add_node("server"));
        assert!(ReceiveRing::on_srq(&endpoint, &srq, 4, 8).is_err());
        assert_eq!(srq.stats().posted, 4);
    }

    /// A server endpoint with an SRQ of `srq_depth` receives holding a ring
    /// of `depth` slots, and `n` connected QPs drawing from it, each with
    /// `credit` flow-control credits.
    fn srq_ring(
        srq_depth: usize,
        depth: usize,
        n: usize,
        credit: usize,
    ) -> (SharedReceiveQueue, ReceiveRing, Vec<(QueuePair, QueuePair)>) {
        let fabric = Fabric::with_defaults();
        let server_node = fabric.add_node("server");
        let server_ep = Endpoint::new(&fabric, &server_node);
        let srq = SharedReceiveQueue::new(&server_ep, srq_depth);
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
        let (srq, ring, pairs) = srq_ring(4, 4, 2, 2);
        assert_eq!(srq.stats().posted, 4);
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
        assert_eq!(srq.stats().posted, 4);
        assert_eq!(srq.stats().in_flight, 0);
        assert!(srq.stats().depth_high_watermark >= 1);
    }

    #[test]
    fn srq_ring_adopts_completions_out_of_slot_order() {
        let (_srq, ring, pairs) = srq_ring(4, 4, 2, 2);
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
        let (_srq, ring, pairs) = srq_ring(4, 4, 2, 1);
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
        let (_srq, _ring, pairs) = srq_ring(2, 2, 1, 1);
        let extra = pairs[0].1.pd().register(8, AccessFlags::LOCAL_ONLY);
        let err = pairs[0].1.post_recv(foreign(&extra)).unwrap_err();
        assert!(matches!(err, FabricError::UnsupportedOperation(_)));
    }

    #[test]
    fn a_full_srq_refuses_a_slot_repost_instead_of_reporting_it_posted() {
        // An SRQ of two receives holding a one-slot ring: a foreign receive
        // posted before a write-with-immediate, which lands in the slot, and
        // one after it fill the queue before the slot's pickup.
        let (srq, ring, pairs) = srq_ring(2, 1, 1, 4);
        let (client, server) = &pairs[0];
        let extra = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        srq.post(foreign(&extra)).unwrap();
        write_with_imm(client, server, 1).unwrap();
        srq.post(foreign(&extra)).unwrap();
        let c = ring.adopt(server.recv_cq().poll_one().unwrap());
        assert_eq!(
            srq.stats().posted,
            2,
            "the SRQ holds the two foreign receives"
        );
        assert_ne!(c.slot, Some(0), "slot 0 is reported posted but is not");
        assert_eq!(c.wc.imm, Some(1));
    }

    #[test]
    fn a_full_private_queue_refuses_a_slot_repost_instead_of_reporting_it_posted() {
        // A one-slot ring beside 1,023 foreign receives fills the queue pair's
        // 1,024 receives; after one delivery into the slot, one more foreign
        // receive fills it again before the slot's pickup.
        let (client, server) = connected_pair();
        let ring = ReceiveRing::new(&server, 1, 8).unwrap();
        let extra = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        let depth = CX5_100G.max_recv_queue_depth;
        for _ in 1..depth {
            server.post_recv(foreign(&extra)).unwrap();
        }
        write_with_imm(&client, &server, 1).unwrap();
        server.post_recv(foreign(&extra)).unwrap();
        let c = ring.poll_one().unwrap();
        assert_eq!(server.posted_receives(), depth, "only foreign receives");
        assert_ne!(c.slot, Some(0), "slot 0 is reported posted but is not");
        assert_eq!(c.wc.imm, Some(1));
    }

    #[test]
    fn a_refused_slot_goes_back_at_the_next_repost() {
        let (srq, ring, pairs) = srq_ring(2, 2, 1, 4);
        let (client, server) = &pairs[0];
        let extra = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        let pick_up = || ring.adopt(server.recv_cq().poll_one().unwrap());
        // Slot 0 takes a message and a foreign receive takes its place: the
        // pickup finds the queue full.
        write_with_imm(client, server, 1).unwrap();
        srq.post(foreign(&extra)).unwrap();
        let refused = pick_up();
        assert_eq!(refused.slot, None);
        let limit = "shared receive queue depth";
        assert_eq!(
            refused.refused,
            Some(FabricError::DeviceLimitExceeded { limit })
        );
        assert_eq!(srq.lock().0.slots(), (1, 1, 0), "slot 0 stays in hand");
        // Slot 1 and the foreign receive take the next two messages; slot
        // 1's pickup finds room and posts slot 0 back first, then slot 1.
        write_with_imm(client, server, 2).unwrap();
        write_with_imm(client, server, 3).unwrap();
        let wc = server.recv_cq().poll_one().unwrap();
        let before = server.clock().now();
        let reposted = ring.adopt(wc);
        assert_eq!((reposted.slot, reposted.refused), (Some(1), None));
        let charged = server.clock().now().saturating_since(before);
        assert_eq!(charged, CX5_100G.post_recv_overhead * 2);
        assert_eq!(srq.lock().0.slots(), (2, 0, 0), "the ring is whole");
        let foreign_pickup = pick_up();
        assert_eq!((foreign_pickup.slot, foreign_pickup.refused), (None, None));
    }

    #[test]
    fn a_disconnect_flushes_a_private_ring() {
        // Private queue: three of four slots are posted and one in hand
        // when the connection goes; the flush counts the three, drops the
        // foreign receive, and pushes no completion.
        let (client, server) = connected_pair();
        let ring = ReceiveRing::new(&server, 4, 8).unwrap();
        let extra = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        write_with_imm(&client, &server, 1).unwrap();
        server.post_recv(foreign(&extra)).unwrap();
        let (pending, now) = (server.recv_cq().pending(), server.clock().now());
        client.disconnect();
        assert_eq!(server.posted_receives(), 0);
        assert_eq!(server.recv_queue().slots(), (0, 1, 3));
        assert_eq!(server.recv_cq().pending(), pending);
        assert_eq!(server.clock().now(), now);
        // The slot in hand is picked up, and its repost refused.
        let c = ring.poll_one().unwrap();
        assert_eq!((c.slot, c.refused), (None, Some(CLOSED)));
        assert_eq!(server.recv_queue().slots(), (0, 1, 3));
        assert_eq!(server.post_recv(foreign(&extra)), Err(CLOSED));
    }

    #[test]
    fn a_send_longer_than_its_slot_completes_it_in_error() {
        // A 16 B SEND lands in the first of two 8 B slots: the sender's post
        // fails, the slot's receive completes in error, and its pickup posts
        // the slot back.
        let (client, server) = connected_pair();
        let ring = ReceiveRing::new(&server, 2, 8).unwrap();
        let src = client.pd().register(16, AccessFlags::LOCAL_ONLY);
        let before = client.clock().now();
        let send = SendRequest::Send {
            local: Sge::whole(&src),
        };
        let too_small = FabricError::ReceiveBufferTooSmall {
            message_len: 16,
            buffer_len: 8,
        };
        assert_eq!(client.post_send(0, send, false), Err(too_small.clone()));
        assert_eq!(client.clock().now(), before, "the sender is not charged");
        let c = ring.poll_one().expect("the consumed receive completes");
        assert_eq!(c.wc.status, CompletionStatus::Error(too_small));
        assert_eq!((c.wc.wr_id, c.slot, c.refused), (0, Some(0), None));
        assert_eq!(server.recv_queue().slots(), (2, 0, 0));
    }

    /// The ring slots among the receives `model` expects posted.
    fn slots_in(model: &VecDeque<Posted>) -> usize {
        let slots = model.iter().filter(|r| matches!(r, Posted::Slot(_)));
        slots.count()
    }

    /// What a delivery left for a pickup: the receive it consumed, its
    /// immediate (write-with-immediate) or its bytes (SEND), and the status
    /// its completion reports (an error for a SEND longer than the receive).
    type Landed = (Posted, Option<u32>, Option<Vec<u8>>, CompletionStatus);

    const SLOT_LEN: usize = 8;

    /// Drive a ring — on a private queue pair, or on an SRQ of `srq_depth`
    /// receives shared by two queue pairs — through `ops`, against a model
    /// of the queue's posted FIFO (a `Posted` each) and of the slots out of
    /// it. `pre` foreign
    /// receives are posted before the ring is built; more join between the
    /// slots as `ops` posts them, up to filling the queue, so that a
    /// pickup's repost may be refused; a SEND may be longer than its receive,
    /// which then completes in error; and a connection may go. After every
    /// step the ring's slots are posted, in hand or flushed, `depth` in all.
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
        let slots = || match &srq {
            Some(srq) => srq.lock().0.slots(),
            None => pairs[0].1.recv_queue().slots(),
        };
        let max_depth = srq_depth.unwrap_or(CX5_100G.max_recv_queue_depth);
        let full = FabricError::DeviceLimitExceeded {
            limit: match srq {
                Some(_) => "shared receive queue depth",
                None => "receive queue depth",
            },
        };
        let mut model: VecDeque<Posted> = VecDeque::new();
        let mut next_foreign = depth as u64;
        let mut post_foreign = |model: &mut VecDeque<Posted>| {
            let region = server_ep.pd.register(SLOT_LEN, AccessFlags::LOCAL_ONLY);
            let recv = RecvRequest {
                wr_id: next_foreign,
                local: Sge::whole(&region),
            };
            match &srq {
                Some(srq) => srq.post(recv.clone()).unwrap(),
                None => pairs[0].1.post_recv(recv.clone()).unwrap(),
            }
            model.push_back(Posted::Request(recv));
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
        let fits = depth.min(max_depth - pre);
        model.extend((0..fits).map(Posted::Slot));
        let charged = server_ep.clock.now().saturating_since(before);
        assert_eq!(charged, CX5_100G.post_recv_overhead * fits as u64);
        assert_eq!(posted(), model.len());
        assert_eq!(slots(), (fits, depth - fits, 0));
        let ring = match built {
            Ok(ring) => {
                assert_eq!(fits, depth);
                ring
            }
            Err(e) => {
                assert!(fits < depth, "a ring that fits was refused: {e:?}");
                assert_eq!(e, full);
                return;
            }
        };

        let mut landed: Vec<VecDeque<Landed>> = pairs.iter().map(|_| VecDeque::new()).collect();
        // Slots whose repost was refused, oldest first; slots flushed; and
        // which connections are up.
        let mut refused: Vec<usize> = Vec::new();
        let mut flushed = 0;
        let mut connected = vec![true; pairs.len()];
        for &op in ops {
            let qp = (op as usize >> 6) % pairs.len();
            let (client, server) = &pairs[qp];
            // A private queue flushed with its queue pair refuses every post.
            let flushed_queue = srq.is_none() && !connected[0];
            let room = |model: &VecDeque<Posted>| match () {
                _ if flushed_queue => Err(CLOSED),
                _ if model.len() >= max_depth => Err(full.clone()),
                _ => Ok(()),
            };
            match op % 64 {
                // One foreign receive, or (8..=11) as many as fill the
                // queue, so that the next pickups find no room for slots.
                0..=11 => {
                    while room(&model).is_ok() {
                        post_foreign(&mut model);
                        if op % 64 < 8 {
                            break;
                        }
                    }
                }
                // The connection goes: a private queue is flushed, its slots
                // counted and its foreign receives dropped; an SRQ keeps its
                // receives for the other queue pair.
                12 => {
                    client.disconnect();
                    if srq.is_none() && connected[qp] {
                        flushed += slots_in(&model);
                        model.clear();
                    }
                    connected[qp] = false;
                }
                // A delivery: write-with-immediate or SEND, which may be
                // longer than every receive. An SRQ that is out of receives
                // makes the sender retry, so it gets none.
                13..=35 => {
                    if connected[qp] && srq.is_some() && model.is_empty() {
                        continue;
                    }
                    let imm = u32::from(op);
                    let bytes = vec![op; 1 + (op as usize >> 3) % (SLOT_LEN + 2)];
                    let sent = if op % 2 == 0 {
                        write_with_imm(client, server, imm).map(|()| (Some(imm), None))
                    } else {
                        let src = client.pd().register(bytes.len(), AccessFlags::LOCAL_ONLY);
                        src.write(0, &bytes).unwrap();
                        let send = SendRequest::Send {
                            local: Sge::whole(&src),
                        };
                        client
                            .post_send(0, send, false)
                            .map(|()| (None, Some(bytes)))
                    };
                    if !connected[qp] {
                        assert!(matches!(sent, Err(FabricError::InvalidQpState { .. })));
                        continue;
                    }
                    match (sent, model.pop_front()) {
                        (Ok((imm, bytes)), Some(recv)) => {
                            landed[qp].push_back((recv, imm, bytes, CompletionStatus::Success))
                        }
                        (Err(e @ FabricError::ReceiveBufferTooSmall { .. }), Some(recv)) => {
                            let error = CompletionStatus::Error(e);
                            landed[qp].push_back((recv, None, None, error));
                        }
                        (Err(e), None) => assert_eq!(e, FabricError::ReceiverNotReady),
                        (sent, recv) => panic!("delivery {sent:?} into {recv:?}"),
                    }
                }
                // A pickup, which reposts the slots refused before and then
                // its own at the back, as long as the queue has room.
                _ => {
                    let picked = match &srq {
                        Some(_) => server.recv_cq().poll_one().map(|wc| ring.adopt(wc)),
                        None => ring.poll_one(),
                    };
                    let Some(c) = picked else {
                        assert!(landed[qp].is_empty());
                        continue;
                    };
                    let (recv, imm, bytes, status) =
                        landed[qp].pop_front().expect("a delivery landed");
                    assert_eq!((c.wc.wr_id, c.wc.imm), (recv.wr_id(), imm));
                    assert_eq!(c.wc.status, status);
                    let buffer = match recv {
                        Posted::Slot(slot) => {
                            refused.push(slot);
                            while !refused.is_empty() && room(&model).is_ok() {
                                model.push_back(Posted::Slot(refused.remove(0)));
                            }
                            let expect = match refused.contains(&slot) {
                                true => (None, room(&model).err()),
                                false => (Some(slot), None),
                            };
                            assert_eq!((c.slot, c.refused), expect);
                            Sge::range(&ring._slab, slot * SLOT_LEN, SLOT_LEN)
                        }
                        Posted::Request(recv) => {
                            assert_eq!((c.slot, c.refused), (None, None));
                            if let Some(srq) = &srq {
                                srq.release(c.wc.qp_num);
                            }
                            recv.local
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
            let (on_queue, in_hand, out) = slots();
            assert_eq!((on_queue, out), (slots_in(&model), flushed));
            assert_eq!(on_queue + in_hand + out, depth);
        }
    }

    proptest::proptest! {
        // Arbitrary interleavings of deliver/repost never lose a slot: every
        // slot is always exactly posted or in hand, and the totals add up
        // to the depth.
        #[test]
        fn prop_ring_never_loses_buffers(depth in 1usize..16, ops: Vec<u8>) {
            let mut queue = ledger(depth);
            let mut delivered: Vec<usize> = Vec::new();
            for op in ops {
                if op % 2 == 0 {
                    match queue.deliver() {
                        Ok(slot) => delivered.push(slot),
                        Err(e) => {
                            // Only an empty ring may reject a delivery.
                            proptest::prop_assert_eq!(e, FabricError::ReceiverNotReady);
                            proptest::prop_assert_eq!(queue.slots().0, 0);
                        }
                    }
                } else if let Some(slot) = delivered.pop() {
                    queue.repost(slot).unwrap().unwrap();
                }
                let (posted, in_hand, flushed) = queue.slots();
                proptest::prop_assert_eq!(posted + in_hand, depth);
                proptest::prop_assert_eq!(delivered.len(), in_hand);
                proptest::prop_assert_eq!(flushed, 0);
            }
        }

        // Deliveries come back in exactly the order slots were (re)posted.
        #[test]
        fn prop_ring_delivery_is_fifo(depth in 1usize..12, ops: Vec<bool>) {
            let mut queue = ledger(depth);
            // Shadow model: a plain FIFO of slot ids.
            let mut model: VecDeque<usize> = (0..depth).collect();
            let mut in_hand: VecDeque<usize> = VecDeque::new();
            for take in ops {
                if take {
                    match (queue.deliver(), model.pop_front()) {
                        (Ok(got), Some(expect)) => {
                            proptest::prop_assert_eq!(got, expect);
                            in_hand.push_back(got);
                        }
                        (Err(_), None) => {}
                        (got, expect) => {
                            panic!("ring and model diverged: {got:?} vs {expect:?}");
                        }
                    }
                } else if let Some(slot) = in_hand.pop_front() {
                    queue.repost(slot).unwrap().unwrap();
                    model.push_back(slot);
                }
            }
        }

        // An empty ring always rejects writes, and stays rejecting until a
        // repost; the live transport mirrors this through ReceiverNotReady.
        #[test]
        fn prop_empty_ring_rejects_until_repost(depth in 1usize..8) {
            let mut queue = ledger(depth);
            let mut slots = Vec::new();
            for _ in 0..depth {
                slots.push(queue.deliver().unwrap());
            }
            proptest::prop_assert_eq!(queue.deliver().unwrap_err(), FabricError::ReceiverNotReady);
            proptest::prop_assert_eq!(queue.deliver().unwrap_err(), FabricError::ReceiverNotReady);
            queue.repost(slots[0]).unwrap().unwrap();
            proptest::prop_assert_eq!(queue.deliver().unwrap(), slots[0]);
        }

        // A ring's slots, foreign receives between them, and every delivery
        // and pickup follow one posted FIFO, on a private queue pair and on
        // an SRQ (`room` below 4 makes the SRQ too shallow for the ring),
        // through full-queue reposts, SENDs longer than their receive and a
        // lost connection.
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
    }
}

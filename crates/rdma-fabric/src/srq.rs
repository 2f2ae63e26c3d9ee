//! Shared receive queues: one pool of posted receives serving many QPs.
//!
//! A reliable-connected QP normally owns a private receive queue, so an
//! executor hosting `W` workers posts `W × depth` receives — receive memory
//! linear in connection count. An SRQ breaks that coupling: multiple QPs
//! attach to one queue and incoming SENDs/WRITE_WITH_IMMs consume buffers
//! from the shared pool, exactly like `ibv_create_srq` on real hardware.
//!
//! Two properties the executor dispatcher depends on:
//!
//! * **Completions stay per-QP.** The SRQ only changes where the receive
//!   *buffer* comes from; the completion still lands on the consuming QP's
//!   own receive CQ with that QP's number, so a `CqSet` sweep keeps working
//!   unchanged and per-worker billing stays attributable.
//! * **Per-QP flow-control credits.** Each attached QP may hold at most
//!   `credit` buffers in flight. A tenant flooding its connection exhausts
//!   its own credit (its posts fail with `ReceiverNotReady`, the same error
//!   a drained private queue produces) instead of draining the shared pool
//!   and starving its neighbours.
//!
//! The SRQ counts only what attached QPs hold: `SrqStats::in_flight` is the
//! sum of their credit entries. A QP that detaches (it disconnected) takes
//! its entry with it, so a completion of it adopted later returns nothing,
//! and the counts balance whatever order disconnects and pickups come in.

use std::collections::BTreeMap;
use std::sync::{Arc, MutexGuard};

use sim_core::sync::Mutex;
use sim_core::VirtualClock;

use crate::device::CX5_100G;
use crate::error::{FabricError, Result};
use crate::qp::Endpoint;
use crate::ring::{Posted, RecvQueue};
use crate::verbs::RecvRequest;

#[derive(Debug, Clone, Copy)]
struct CreditState {
    limit: usize,
    in_flight: usize,
}

/// The flow-control accounting an SRQ keeps beside its receive queue, under
/// the same lock: one acquisition covers a ring slot's pickup, the credit it
/// returns and its repost.
#[derive(Debug, Default)]
pub(crate) struct Credits {
    /// Per-QP flow-control credits, keyed by `qp_num`. Ordered map so any
    /// iteration (stats, debugging) is deterministic.
    per_qp: BTreeMap<u32, CreditState>,
    /// Buffers the attached QPs hold: the sum of `per_qp`'s `in_flight`,
    /// moved only together with an entry.
    in_flight: usize,
    /// Highest `in_flight` ever observed — how deep into the shared pool
    /// concurrent tenants actually reached.
    high_watermark: usize,
}

impl Credits {
    /// Return one credit to `qp_num`, if it is attached and holds one.
    pub(crate) fn release(&mut self, qp_num: u32) {
        if let Some(credit) = self.per_qp.get_mut(&qp_num) {
            if credit.in_flight > 0 {
                credit.in_flight -= 1;
                self.in_flight -= 1;
            }
        }
    }

    /// Count one more buffer held by `qp_num`, if it is attached.
    fn take(&mut self, qp_num: u32) {
        if let Some(credit) = self.per_qp.get_mut(&qp_num) {
            credit.in_flight += 1;
            self.in_flight += 1;
            self.high_watermark = self.high_watermark.max(self.in_flight);
        }
    }

    /// Whether `qp_num` holds all the buffers its credit allows.
    fn exhausted(&self, qp_num: u32) -> bool {
        self.per_qp
            .get(&qp_num)
            .is_some_and(|c| c.in_flight >= c.limit)
    }
}

#[derive(Debug)]
struct SrqInner {
    clock: Arc<VirtualClock>,
    state: Mutex<(RecvQueue, Credits)>,
}

/// Counters exposed by [`SharedReceiveQueue::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrqStats {
    /// Configured capacity of the shared queue.
    pub max_depth: usize,
    /// Receives currently posted and waiting for messages.
    pub posted: usize,
    /// Buffers currently held by attached QPs.
    pub in_flight: usize,
    /// Highest concurrent in-flight buffer count ever observed.
    pub depth_high_watermark: usize,
    /// Number of QPs currently attached.
    pub attached_qps: usize,
}

/// A shared receive queue multiple queue pairs draw buffers from.
///
/// Cloning is shallow: all clones view the same queue.
#[derive(Debug, Clone)]
pub struct SharedReceiveQueue {
    inner: Arc<SrqInner>,
}

impl SharedReceiveQueue {
    /// Create an SRQ of at most `max_depth` posted receives. Posting charges
    /// the owning `endpoint`'s clock with the usual `post_recv` overhead.
    pub fn new(endpoint: &Endpoint, max_depth: usize) -> SharedReceiveQueue {
        let queue = RecvQueue::new(max_depth.max(1), "shared receive queue depth");
        SharedReceiveQueue {
            inner: Arc::new(SrqInner {
                clock: Arc::clone(&endpoint.clock),
                state: Mutex::new((queue, Credits::default())),
            }),
        }
    }

    /// The queue and its credits, locked. (A lock pin names the caller.)
    #[cfg_attr(debug_assertions, track_caller)]
    pub(crate) fn lock(&self) -> MutexGuard<'_, (RecvQueue, Credits)> {
        self.inner.state.lock()
    }

    /// The owner's clock, which every post charges.
    pub(crate) fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    /// Post a receive into the shared pool.
    pub fn post(&self, recv: RecvRequest) -> Result<()> {
        self.lock().0.push(Posted::Request(recv))?;
        self.inner.clock.advance(CX5_100G.post_recv_overhead);
        Ok(())
    }

    /// Register `qp_num` as a consumer with a flow-control budget of
    /// `credit` concurrently held buffers. Re-attaching resets the budget
    /// and forgets the buffers the entry held.
    pub fn attach(&self, qp_num: u32, credit: usize) {
        let credits = &mut self.lock().1;
        let entry = CreditState {
            limit: credit.max(1),
            in_flight: 0,
        };
        if let Some(old) = credits.per_qp.insert(qp_num, entry) {
            credits.in_flight -= old.in_flight;
        }
    }

    /// Remove `qp_num`'s credit entry: the buffers it holds are no longer
    /// counted, and returning them later changes nothing.
    pub fn detach(&self, qp_num: u32) {
        let credits = &mut self.lock().1;
        if let Some(credit) = credits.per_qp.remove(&qp_num) {
            credits.in_flight -= credit.in_flight;
        }
    }

    /// Consume the oldest posted receive on behalf of `qp_num`, honouring
    /// its credit. Called by the transport when a message arrives on an
    /// attached QP. QPs without a credit entry are uncapped and uncounted.
    pub(crate) fn pop_for(&self, qp_num: u32) -> Result<Posted> {
        let mut state = self.lock();
        let (queue, credits) = &mut *state;
        if credits.exhausted(qp_num) {
            return Err(FabricError::ReceiverNotReady);
        }
        let recv = queue.pop().ok_or(FabricError::ReceiverNotReady)?;
        credits.take(qp_num);
        Ok(recv)
    }

    /// Whether `qp_num` has exhausted its flow-control credit — the
    /// condition that must fail a post immediately, as opposed to the queue
    /// being momentarily empty, which the sending NIC absorbs with RNR
    /// retransmits.
    pub(crate) fn over_credit(&self, qp_num: u32) -> bool {
        self.lock().1.exhausted(qp_num)
    }

    /// Return one credit to `qp_num` once its completion has been picked up
    /// and the buffer is free to repost. A queue pair that is not attached
    /// (never, or no longer) has no credit to return.
    pub fn release(&self, qp_num: u32) {
        self.lock().1.release(qp_num);
    }

    /// Snapshot of the queue's counters.
    pub fn stats(&self) -> SrqStats {
        let state = self.lock();
        let (queue, credits) = &*state;
        SrqStats {
            max_depth: queue.max_depth(),
            posted: queue.len(),
            in_flight: credits.in_flight,
            depth_high_watermark: credits.high_watermark,
            attached_qps: credits.per_qp.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::memory::AccessFlags;
    use crate::qp::QueuePair;
    use crate::ring::ReceiveRing;
    use crate::verbs::Sge;

    fn srq(depth: usize) -> (SharedReceiveQueue, Endpoint) {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("srq-host");
        let endpoint = Endpoint::new(&fabric, &node);
        (SharedReceiveQueue::new(&endpoint, depth), endpoint)
    }

    fn slot(endpoint: &Endpoint, wr_id: u64) -> RecvRequest {
        let region = endpoint.pd.register(8, AccessFlags::LOCAL_ONLY);
        RecvRequest {
            wr_id,
            local: Sge::whole(&region),
        }
    }

    #[test]
    fn posts_are_fifo_and_depth_bounded() {
        let (srq, ep) = srq(2);
        srq.post(slot(&ep, 0)).unwrap();
        srq.post(slot(&ep, 1)).unwrap();
        assert!(matches!(
            srq.post(slot(&ep, 2)),
            Err(FabricError::DeviceLimitExceeded { .. })
        ));
        assert_eq!(srq.pop_for(7).unwrap().wr_id(), 0);
        assert_eq!(srq.pop_for(7).unwrap().wr_id(), 1);
        assert_eq!(srq.pop_for(7).unwrap_err(), FabricError::ReceiverNotReady);
    }

    #[test]
    fn posting_charges_the_owner_clock() {
        let (srq, ep) = srq(4);
        let before = ep.clock.now();
        srq.post(slot(&ep, 0)).unwrap();
        assert!(ep.clock.now() > before);
    }

    #[test]
    fn credits_cap_one_consumer_without_starving_others() {
        let (srq, ep) = srq(8);
        for i in 0..8 {
            srq.post(slot(&ep, i)).unwrap();
        }
        srq.attach(1, 2);
        srq.attach(2, 2);
        // QP 1 burns its whole credit...
        srq.pop_for(1).unwrap();
        srq.pop_for(1).unwrap();
        assert_eq!(srq.pop_for(1).unwrap_err(), FabricError::ReceiverNotReady);
        // ...but QP 2 still gets buffers: the flood was contained.
        srq.pop_for(2).unwrap();
        // Releasing a credit lets QP 1 consume again.
        srq.release(1);
        srq.pop_for(1).unwrap();
        let stats = srq.stats();
        assert_eq!(stats.in_flight, 3);
        assert_eq!(stats.depth_high_watermark, 3);
        assert_eq!(stats.attached_qps, 2);
    }

    #[test]
    fn detach_forgets_in_flight_buffers() {
        let (srq, ep) = srq(4);
        srq.post(slot(&ep, 0)).unwrap();
        srq.attach(9, 4);
        srq.pop_for(9).unwrap();
        assert_eq!(srq.stats().in_flight, 1);
        srq.detach(9);
        assert_eq!(srq.stats().in_flight, 0);
        assert_eq!(srq.stats().attached_qps, 0);
    }

    #[test]
    fn a_detached_queue_pair_returns_no_credit_it_no_longer_holds() {
        // Two queue pairs on one SRQ each hold a buffer; one disconnects,
        // and the completion it left pending is adopted afterwards.
        let fabric = Fabric::with_defaults();
        let server_ep = Endpoint::new(&fabric, &fabric.add_node("server"));
        let srq = SharedReceiveQueue::new(&server_ep, 4);
        let ring = ReceiveRing::on_srq(&server_ep, &srq, 4, 8).unwrap();
        let dst = server_ep.pd.register(8, AccessFlags::REMOTE_WRITE);
        let pairs: Vec<(QueuePair, QueuePair)> = (0..2)
            .map(|i| {
                let node = fabric.add_node(&format!("client-{i}"));
                let client = QueuePair::new(&Endpoint::new(&fabric, &node));
                let server = QueuePair::new(&server_ep);
                QueuePair::connect_pair(&client, &server).unwrap();
                server.attach_srq(&srq, 4);
                client
                    .post_write_inline(0, &[1; 8], &dst.remote_handle(), Some(1), false)
                    .unwrap();
                (client, server)
            })
            .collect();
        assert_eq!(srq.stats().in_flight, 2);
        pairs[0].0.disconnect();
        assert_eq!(srq.stats().in_flight, 1);
        let pending = pairs[0].1.recv_cq().poll_one().unwrap();
        assert!(ring.adopt(pending).slot.is_some());
        assert_eq!(
            srq.stats().in_flight,
            1,
            "the other queue pair still holds its buffer"
        );
    }

    proptest::proptest! {
        // No interleaving of post, pop, release, attach and detach loses or
        // duplicates a buffer: pops drain in FIFO wr_id order, an attached
        // QP never holds more than its credit, `in_flight` is what the
        // attached QPs hold (a release after a detach changes nothing), and
        // the high watermark never falls.
        #[test]
        fn prop_srq_no_loss_and_credits_hold(
            depth in 1usize..16,
            credit in 1usize..6,
            ops: Vec<u8>,
        ) {
            let (srq, ep) = srq(depth);
            srq.attach(1, credit);
            srq.attach(2, credit);
            let mut next_wr: u64 = 0;
            let mut expect_fifo: std::collections::VecDeque<u64> =
                std::collections::VecDeque::new();
            // Per QP: whether it is attached, the buffers it holds, and how
            // many of them its credit entry counts.
            let mut attached = [true; 2];
            let mut held = [0usize; 2];
            let mut counted = [0usize; 2];
            let mut watermark = 0;
            for op in ops {
                let i = usize::from(op >> 3) % 2;
                let qp = i as u32 + 1;
                match op % 8 {
                    0 | 1 => {
                        if srq.post(slot(&ep, next_wr)).is_ok() {
                            expect_fifo.push_back(next_wr);
                            next_wr += 1;
                        } else {
                            proptest::prop_assert_eq!(srq.stats().posted, depth);
                        }
                    }
                    2 | 3 => match srq.pop_for(qp) {
                        Ok(recv) => {
                            let expect = expect_fifo.pop_front().unwrap();
                            proptest::prop_assert_eq!(recv.wr_id(), expect);
                            held[i] += 1;
                            counted[i] += usize::from(attached[i]);
                        }
                        Err(e) => {
                            proptest::prop_assert_eq!(e, FabricError::ReceiverNotReady);
                            proptest::prop_assert!(
                                expect_fifo.is_empty() || (attached[i] && counted[i] >= credit)
                            );
                        }
                    },
                    4 | 5 => {
                        if held[i] > 0 {
                            srq.release(qp);
                            held[i] -= 1;
                            counted[i] = counted[i].saturating_sub(1);
                        }
                    }
                    6 => {
                        srq.detach(qp);
                        attached[i] = false;
                        counted[i] = 0;
                    }
                    _ => {
                        srq.attach(qp, credit);
                        attached[i] = true;
                        counted[i] = 0;
                    }
                }
                let stats = srq.stats();
                proptest::prop_assert!(counted[0] <= credit && counted[1] <= credit);
                proptest::prop_assert_eq!(stats.in_flight, counted[0] + counted[1]);
                proptest::prop_assert_eq!(stats.posted, expect_fifo.len());
                proptest::prop_assert_eq!(
                    stats.attached_qps,
                    usize::from(attached[0]) + usize::from(attached[1])
                );
                proptest::prop_assert!(stats.depth_high_watermark >= watermark);
                proptest::prop_assert!(stats.depth_high_watermark >= stats.in_flight);
                watermark = stats.depth_high_watermark;
            }
        }
    }
}

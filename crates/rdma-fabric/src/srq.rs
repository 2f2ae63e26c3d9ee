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
    /// Buffers handed to QPs and not yet released (summed over all QPs).
    in_flight: usize,
    /// Highest `in_flight` ever observed — how deep into the shared pool
    /// concurrent tenants actually reached.
    high_watermark: usize,
}

impl Credits {
    /// Return one credit to `qp_num`.
    pub(crate) fn release(&mut self, qp_num: u32) {
        if let Some(credit) = self.per_qp.get_mut(&qp_num) {
            credit.in_flight = credit.in_flight.saturating_sub(1);
        }
        self.in_flight = self.in_flight.saturating_sub(1);
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
    /// Buffers currently held by consuming QPs.
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
    /// `credit` concurrently held buffers. Re-attaching resets the budget.
    pub fn attach(&self, qp_num: u32, credit: usize) {
        self.lock().1.per_qp.insert(
            qp_num,
            CreditState {
                limit: credit.max(1),
                in_flight: 0,
            },
        );
    }

    /// Remove `qp_num`'s credit entry (its in-flight buffers are forgotten —
    /// call only after the QP's completions have drained).
    pub fn detach(&self, qp_num: u32) {
        let credits = &mut self.lock().1;
        if let Some(credit) = credits.per_qp.remove(&qp_num) {
            credits.in_flight = credits.in_flight.saturating_sub(credit.in_flight);
        }
    }

    /// Consume the oldest posted receive on behalf of `qp_num`, honouring
    /// its credit. Called by the transport when a message arrives on an
    /// attached QP. QPs without a credit entry are treated as uncapped.
    pub(crate) fn pop_for(&self, qp_num: u32) -> Result<Posted> {
        let mut state = self.lock();
        let (queue, credits) = &mut *state;
        if credits.exhausted(qp_num) {
            return Err(FabricError::ReceiverNotReady);
        }
        let recv = queue.pop().ok_or(FabricError::ReceiverNotReady)?;
        if let Some(credit) = credits.per_qp.get_mut(&qp_num) {
            credit.in_flight += 1;
        }
        credits.in_flight += 1;
        credits.high_watermark = credits.high_watermark.max(credits.in_flight);
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
    /// and the buffer is free to repost.
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

    proptest::proptest! {
        // No interleaving of post/pop/release loses or duplicates a buffer:
        // posted + in-flight never exceeds what was pushed, per-QP in-flight
        // never exceeds its credit, and pops drain in FIFO wr_id order.
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
            let mut held: [usize; 2] = [0, 0];
            for op in ops {
                match op % 4 {
                    0 => {
                        if srq.post(slot(&ep, next_wr)).is_ok() {
                            expect_fifo.push_back(next_wr);
                            next_wr += 1;
                        } else {
                            proptest::prop_assert_eq!(srq.stats().posted, depth);
                        }
                    }
                    1 | 2 => {
                        let qp = (op % 4) as u32;
                        match srq.pop_for(qp) {
                            Ok(recv) => {
                                let expect = expect_fifo.pop_front().unwrap();
                                proptest::prop_assert_eq!(recv.wr_id(), expect);
                                held[qp as usize - 1] += 1;
                            }
                            Err(e) => {
                                proptest::prop_assert_eq!(e, FabricError::ReceiverNotReady);
                                proptest::prop_assert!(
                                    expect_fifo.is_empty() || held[qp as usize - 1] >= credit
                                );
                            }
                        }
                    }
                    _ => {
                        let qp = 1 + (op as u32 % 2);
                        if held[qp as usize - 1] > 0 {
                            srq.release(qp);
                            held[qp as usize - 1] -= 1;
                        }
                    }
                }
                let stats = srq.stats();
                proptest::prop_assert!(held[0] <= credit && held[1] <= credit);
                proptest::prop_assert_eq!(stats.in_flight, held[0] + held[1]);
                proptest::prop_assert_eq!(stats.posted, expect_fifo.len());
            }
        }
    }
}

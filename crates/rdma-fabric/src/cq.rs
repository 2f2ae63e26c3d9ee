//! Completion queues.
//!
//! A completion queue (CQ) collects work completions from one or more queue
//! pairs and bills the consumer for picking each one up, in either of two
//! ways. A *busy-polling* pickup — the mechanism behind rFaaS *hot*
//! invocations — observes the completion almost immediately
//! ([`CompletionQueue::charge_poll_pickup`]). A *blocking* pickup — the
//! mechanism behind *warm* invocations — pays the interrupt/wake-up latency
//! and contends on the node's shared notification channel
//! ([`CompletionQueue::charge_blocking_pickup`]). Both are virtual-time
//! costs: the CQ itself never makes a host thread wait. A host that needs a
//! completion first waits for it through [`crate::Fabric::run_until`], which
//! turns whichever actor is to produce it, then drains the queue.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use sim_core::sync::Mutex;
use sim_core::{SimDuration, SimTime, VirtualClock};

use crate::device::{DeviceFunction, CX5_100G};
use crate::fabric::FabricNode;
use crate::verbs::WorkCompletion;

#[derive(Debug, Default)]
struct CqState {
    completions: VecDeque<WorkCompletion>,
    notifier: Option<CqNotifier>,
}

#[derive(Debug)]
struct CqInner {
    state: Mutex<CqState>,
    /// Completions in `state`: stored (`Release`) under its lock after every
    /// change and loaded (`Acquire`) without it, so a look into an empty
    /// queue takes no lock. A look racing a delivery may read 0 and miss it;
    /// the next look sees it.
    queued: AtomicUsize,
    clock: Arc<VirtualClock>,
    node: Arc<FabricNode>,
    function: DeviceFunction,
}

/// Lock-free event counter shared by every member of a [`CqSet`]: a
/// disconnect on any member moves it, and so do sources that are not
/// completion queues — a [`crate::Listener`] per connection request, an
/// owner per change to the state its event loop sweeps. A loop compares the
/// counter with the value it saw at its last sweep to decide whether its
/// sources need re-examining. Completion deliveries do not move it: the loop
/// drains its members on every turn anyway.
#[derive(Debug, Clone, Default)]
pub struct CqNotifier {
    seq: Arc<AtomicU64>,
}

impl CqNotifier {
    /// Record an event. Publish the state the loop will look for (a queued
    /// request, a raised flag) *before* signalling: this release pairs with
    /// the acquire in [`CqNotifier::sequence`].
    pub(crate) fn signal(&self) {
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// The current event count.
    pub fn sequence(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }
}

/// A completion queue bound to one consumer actor (its virtual clock) and one
/// fabric node (for notification contention accounting).
#[derive(Debug, Clone)]
pub struct CompletionQueue {
    inner: Arc<CqInner>,
}

impl CompletionQueue {
    /// Create a CQ for a consumer running on `node` with virtual clock
    /// `clock`, attached through the given device function.
    pub(crate) fn new(
        clock: Arc<VirtualClock>,
        node: Arc<FabricNode>,
        function: DeviceFunction,
    ) -> CompletionQueue {
        CompletionQueue {
            inner: Arc::new(CqInner {
                state: Mutex::new(CqState::default()),
                queued: AtomicUsize::new(0),
                clock,
                node,
                function,
            }),
        }
    }

    /// The virtual clock of the CQ's consumer.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.inner.clock
    }

    /// Deliver a completion (called by the fabric / peer queue pairs).
    pub(crate) fn push(&self, completion: WorkCompletion) {
        let mut state = self.inner.state.lock();
        state.completions.push_back(completion);
        self.inner.publish(&state);
    }

    /// Tell the owning [`CqSet`], if any, that the producing queue pair
    /// disconnected.
    pub(crate) fn disconnect(&self) {
        let notifier = self.inner.state.lock().notifier.clone();
        if let Some(notifier) = notifier {
            notifier.signal();
        }
    }

    /// Number of completions currently queued.
    pub fn pending(&self) -> usize {
        self.inner.queued.load(Ordering::Acquire)
    }

    /// Non-blocking poll for up to `max` completions (busy-polling pickup),
    /// drained into a caller-owned scratch buffer so the hot loop performs no
    /// steady-state allocations. Appends at most `max` completions to `out`
    /// and returns how many were appended.
    ///
    /// For each completion the consumer clock is synchronised to the
    /// completion's arrival time plus the polling pickup cost. Empty polls do
    /// not advance virtual time: an idle spinning thread does no useful
    /// virtual work.
    #[cfg(test)]
    fn poll_into(&self, max: usize, out: &mut Vec<WorkCompletion>) -> usize {
        let n = self.poll_uncharged_into(max, out);
        for wc in &out[out.len() - n..] {
            self.charge_poll_pickup(wc);
        }
        n
    }

    /// Drain up to `max` completions into `out` **without** touching the
    /// consumer clock. This is the multiplexed-drain building block: an event
    /// loop that serves several consumers from one thread drains rings
    /// uncharged and then applies the per-consumer pickup cost (busy-poll or
    /// blocking) via [`CompletionQueue::charge_poll_pickup`] /
    /// [`CompletionQueue::charge_blocking_pickup`].
    pub fn poll_uncharged_into(&self, max: usize, out: &mut Vec<WorkCompletion>) -> usize {
        self.inner.drain_into(max, out, |wc| wc)
    }

    /// Poll a single completion without blocking (allocation-free).
    pub fn poll_one(&self) -> Option<WorkCompletion> {
        if self.pending() == 0 {
            return None;
        }
        let mut state = self.inner.state.lock();
        let wc = state.completions.pop_front()?;
        self.inner.publish(&state);
        drop(state);
        self.charge_poll_pickup(&wc);
        Some(wc)
    }

    /// Synchronise the consumer clock to a completion observed by busy
    /// polling: arrival time plus the polling pickup cost.
    pub fn charge_poll_pickup(&self, wc: &WorkCompletion) {
        let pickup = CX5_100G.completion_pickup + self.inner.function.message_overhead();
        self.inner.clock.advance_to_then(wc.timestamp, pickup);
    }

    /// Synchronise the consumer clock to a completion observed by a blocked
    /// (warm) consumer: the notification serialises through the node's
    /// shared event channel and the consumer pays the wake-up latency. Pairs
    /// with an uncharged drain ([`CompletionQueue::poll_uncharged_into`]).
    pub fn charge_blocking_pickup(&self, wc: WorkCompletion) -> WorkCompletion {
        // Serialise the notification through the node's shared event channel:
        // concurrent blocking waiters on one node queue behind each other.
        let dispatch = CX5_100G.notification_dispatch;
        let visible: SimTime = self
            .inner
            .node
            .serialize_notification(wc.timestamp, dispatch);
        let wakeup = CX5_100G.blocking_wakeup
            + self.inner.function.blocking_extra()
            + CX5_100G.completion_pickup;
        self.inner.clock.advance_to_then(visible, wakeup);
        wc
    }

    /// The blocking wake-up penalty of this CQ's device function, exposed for
    /// cost-model introspection in benchmarks.
    pub fn blocking_penalty(&self) -> SimDuration {
        CX5_100G.blocking_wakeup + self.inner.function.blocking_extra()
    }

    /// Attach (or detach, with `None`) the edge notifier of a [`CqSet`].
    fn set_notifier(&self, notifier: Option<CqNotifier>) {
        self.inner.state.lock().notifier = notifier;
    }
}

impl CqInner {
    /// Publish the queue length; called with the state lock held.
    fn publish(&self, state: &CqState) {
        self.queued
            .store(state.completions.len(), Ordering::Release);
    }

    /// Move up to `max` completions, oldest first, through `wrap` into `out`,
    /// returning how many moved. An empty queue is not locked.
    fn drain_into<T>(
        &self,
        max: usize,
        out: &mut Vec<T>,
        wrap: impl FnMut(WorkCompletion) -> T,
    ) -> usize {
        if self.queued.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut state = self.state.lock();
        let n = state.completions.len().min(max);
        out.extend(state.completions.drain(..n).map(wrap));
        self.publish(&state);
        n
    }
}

/// A multiplexed poll/drain surface over N completion queues.
///
/// One event loop registers every ring it serves and drains them all per
/// turn with [`CqSet::poll_uncharged_into`], in **registration order**, which
/// keeps multiplexed runs virtual-time deterministic; the shared
/// [`CqNotifier`] tells it when a member disconnected. The drain is
/// uncharged: the event loop applies the per-consumer pickup cost itself
/// ([`CompletionQueue::charge_poll_pickup`] or
/// [`CompletionQueue::charge_blocking_pickup`]) because only it knows which
/// consumer the completion belongs to and how that consumer waits.
#[derive(Debug, Default)]
pub struct CqSet {
    // `None` marks a deregistered member: tokens are indices, so slots are
    // tombstoned rather than removed to keep the remaining tokens stable.
    members: Vec<Option<CompletionQueue>>,
    notifier: CqNotifier,
}

impl CqSet {
    /// An empty set.
    pub fn new() -> CqSet {
        CqSet::default()
    }

    /// Register a CQ and return its member token: the index reported by
    /// [`CqSet::poll_uncharged_into`] for completions drained from it.
    /// Registration order is the drain order.
    pub fn register(&mut self, cq: &CompletionQueue) -> usize {
        cq.set_notifier(Some(self.notifier.clone()));
        self.members.push(Some(cq.clone()));
        self.members.len() - 1
    }

    /// Remove a member from the set, detaching its notifier. Its token is
    /// retired, not reused, and the member is neither drained nor heard from
    /// again.
    pub fn deregister(&mut self, token: usize) {
        if let Some(cq) = self.members[token].take() {
            cq.set_notifier(None);
        }
    }

    /// Number of registered (non-deregistered) members.
    pub fn len(&self) -> usize {
        self.members.iter().flatten().count()
    }

    /// Whether the set has no registered members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total completions currently queued across all members.
    pub fn pending(&self) -> usize {
        self.members.iter().flatten().map(|cq| cq.pending()).sum()
    }

    /// Drain up to `max_per_member` completions from every member, in
    /// registration order, into the caller's scratch buffer as
    /// `(member_token, completion)` pairs. No clock is charged — see the type
    /// docs. Returns how many pairs were appended.
    pub fn poll_uncharged_into(
        &self,
        max_per_member: usize,
        out: &mut Vec<(usize, WorkCompletion)>,
    ) -> usize {
        let mut drained = 0;
        for (token, cq) in self.members.iter().enumerate() {
            let Some(cq) = cq else { continue };
            drained += cq.inner.drain_into(max_per_member, out, |wc| (token, wc));
        }
        drained
    }

    /// The set's event counter, for attaching event sources that are not
    /// completion queues (see [`CqNotifier`]).
    pub fn notifier(&self) -> &CqNotifier {
        &self.notifier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::verbs::{CompletionStatus, OpCode};

    fn make_cq(mode_function: DeviceFunction) -> (CompletionQueue, Arc<VirtualClock>) {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("n0");
        let clock = VirtualClock::shared();
        let cq = CompletionQueue::new(Arc::clone(&clock), node, mode_function);
        (cq, clock)
    }

    fn completion_at(ts_us: u64) -> WorkCompletion {
        WorkCompletion {
            wr_id: 1,
            opcode: OpCode::Recv,
            status: CompletionStatus::Success,
            byte_len: 16,
            imm: Some(7),
            timestamp: SimTime::from_nanos(ts_us * 1_000),
            qp_num: 3,
        }
    }

    /// Take the next completion as a blocked consumer would.
    fn blocking_pickup(cq: &CompletionQueue) -> WorkCompletion {
        let mut out = Vec::new();
        assert_eq!(cq.poll_uncharged_into(1, &mut out), 1);
        cq.charge_blocking_pickup(out.remove(0))
    }

    #[test]
    fn empty_poll_does_not_advance_clock() {
        let (cq, clock) = make_cq(DeviceFunction::Physical);
        assert_eq!(cq.poll_into(4, &mut Vec::new()), 0);
        assert_eq!(clock.now(), SimTime::ZERO);
    }

    #[test]
    fn poll_synchronises_clock_to_arrival() {
        let (cq, clock) = make_cq(DeviceFunction::Physical);
        cq.push(completion_at(10));
        let mut wcs = Vec::new();
        assert_eq!(cq.poll_into(4, &mut wcs), 1);
        assert_eq!(wcs.len(), 1);
        assert_eq!(wcs[0].imm, Some(7));
        // 10 us arrival + 65 ns pickup.
        assert_eq!(clock.now().as_nanos(), 10_065);
    }

    #[test]
    fn blocking_wait_charges_wakeup_latency() {
        let (cq, clock) = make_cq(DeviceFunction::Physical);
        cq.push(completion_at(10));
        let wc = blocking_pickup(&cq);
        assert!(wc.is_success());
        // arrival 10us + dispatch 550ns + wakeup 3800ns + pickup 65ns
        assert_eq!(clock.now().as_nanos(), 10_000 + 550 + 3_800 + 65);
    }

    #[test]
    fn virtual_function_blocking_is_slower() {
        let (phys, phys_clock) = make_cq(DeviceFunction::Physical);
        let (virt, virt_clock) = make_cq(DeviceFunction::Virtual);
        phys.push(completion_at(1));
        virt.push(completion_at(1));
        blocking_pickup(&phys);
        blocking_pickup(&virt);
        assert!(virt_clock.now() > phys_clock.now());
        let delta = virt_clock.now().as_nanos() - phys_clock.now().as_nanos();
        // 600 ns vf blocking extra + 25 ns message overhead tolerance window.
        assert!((600..=700).contains(&delta), "delta {delta}");
    }

    #[test]
    fn notification_contention_serialises_waiters() {
        // Two completions arriving at the same instant on the same node must
        // be observed at staggered virtual times by blocking waiters.
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("n0");
        let c1 = VirtualClock::shared();
        let c2 = VirtualClock::shared();
        let cq1 =
            CompletionQueue::new(Arc::clone(&c1), Arc::clone(&node), DeviceFunction::Physical);
        let cq2 =
            CompletionQueue::new(Arc::clone(&c2), Arc::clone(&node), DeviceFunction::Physical);
        cq1.push(completion_at(10));
        cq2.push(completion_at(10));
        blocking_pickup(&cq1);
        blocking_pickup(&cq2);
        let t1 = c1.now().as_nanos();
        let t2 = c2.now().as_nanos();
        assert_ne!(t1, t2, "notifications must serialise");
        assert_eq!((t1 as i64 - t2 as i64).unsigned_abs(), 550);
    }

    #[test]
    fn pending_counts_queued_completions() {
        let (cq, _clock) = make_cq(DeviceFunction::Physical);
        assert_eq!(cq.pending(), 0);
        cq.push(completion_at(1));
        cq.push(completion_at(2));
        assert_eq!(cq.pending(), 2);
        cq.poll_into(1, &mut Vec::new());
        assert_eq!(cq.pending(), 1);
    }

    #[test]
    fn poll_into_reuses_scratch_without_steady_state_allocations() {
        let (cq, clock) = make_cq(DeviceFunction::Physical);
        let mut scratch: Vec<WorkCompletion> = Vec::with_capacity(8);
        // Warm-up round sizes the buffer; every later round must reuse it.
        for round in 0..64_u64 {
            for i in 0..4 {
                cq.push(completion_at(round * 10 + i));
            }
            scratch.clear();
            let before = scratch.capacity();
            let n = cq.poll_into(8, &mut scratch);
            assert_eq!(n, 4);
            assert_eq!(scratch.len(), 4);
            assert_eq!(
                scratch.capacity(),
                before,
                "steady-state drain must not reallocate"
            );
        }
        assert!(clock.now() > SimTime::ZERO);
    }

    #[test]
    fn poll_uncharged_leaves_the_clock_alone() {
        let (cq, clock) = make_cq(DeviceFunction::Physical);
        cq.push(completion_at(10));
        let mut out = Vec::new();
        assert_eq!(cq.poll_uncharged_into(4, &mut out), 1);
        assert_eq!(clock.now(), SimTime::ZERO);
        // Charging afterwards reproduces the busy-poll pickup exactly.
        cq.charge_poll_pickup(&out[0]);
        assert_eq!(clock.now().as_nanos(), 10_065);
    }

    #[test]
    fn cq_set_drains_members_in_registration_order() {
        let (a, _) = make_cq(DeviceFunction::Physical);
        let (b, _) = make_cq(DeviceFunction::Physical);
        let mut set = CqSet::new();
        let ta = set.register(&a);
        let tb = set.register(&b);
        assert_eq!((ta, tb), (0, 1));
        // Push in the "wrong" order; the drain must still visit a before b.
        b.push(completion_at(2));
        a.push(completion_at(1));
        let mut out = Vec::new();
        assert_eq!(set.poll_uncharged_into(16, &mut out), 2);
        assert_eq!(out[0].0, ta);
        assert_eq!(out[1].0, tb);
        assert_eq!(set.pending(), 0);
    }

    #[test]
    fn cq_set_counter_moves_on_disconnect_not_on_delivery() {
        let (a, _) = make_cq(DeviceFunction::Physical);
        let (b, _) = make_cq(DeviceFunction::Physical);
        let mut set = CqSet::new();
        set.register(&a);
        set.register(&b);
        let quiet = set.notifier().sequence();
        // Deliveries are found by the drain every turn: no signal, no lock
        // beyond the member's own.
        b.push(completion_at(1));
        a.push(completion_at(2));
        assert_eq!(set.notifier().sequence(), quiet);
        assert_eq!(set.pending(), 2);
        // A disconnect, or any owner-side signal, moves the counter.
        a.disconnect();
        let after_disconnect = set.notifier().sequence();
        assert!(after_disconnect > quiet);
        set.notifier().signal();
        assert!(set.notifier().sequence() > after_disconnect);
    }

    #[test]
    fn cq_set_deregister_silences_dead_members() {
        let (a, _) = make_cq(DeviceFunction::Physical);
        let (b, _) = make_cq(DeviceFunction::Physical);
        let mut set = CqSet::new();
        let ta = set.register(&a);
        let tb = set.register(&b);
        assert_eq!(set.len(), 2);
        set.deregister(ta);
        assert_eq!(set.len(), 1);
        // A deregistered member's disconnect no longer reaches the set.
        let before = set.notifier().sequence();
        a.disconnect();
        assert_eq!(set.notifier().sequence(), before);
        // Tokens are stable: the surviving member keeps its index and
        // pushes to the dead slot's CQ are no longer drained.
        a.push(completion_at(1));
        b.push(completion_at(2));
        let mut out = Vec::new();
        assert_eq!(set.poll_uncharged_into(16, &mut out), 1);
        assert_eq!(out[0].0, tb);
        // Deregistering twice is a no-op.
        set.deregister(ta);
    }

    proptest::proptest! {
        // The lock-free queued count never disagrees with the queue: after
        // any sequence of deliveries, single polls, bounded drains,
        // multiplexed drains and disconnects, `pending()` is the model's
        // length, and every completion comes out once, in delivery order.
        #[test]
        fn prop_cq_pending_matches_model(ops: Vec<(u8, u8)>) {
            let cqs = [
                make_cq(DeviceFunction::Physical).0,
                make_cq(DeviceFunction::Physical).0,
            ];
            let mut set = CqSet::new();
            for cq in &cqs {
                set.register(cq);
            }
            let mut model: [VecDeque<u64>; 2] = Default::default();
            let mut delivered = 0u64;
            for (op, arg) in ops {
                let which = usize::from(arg % 2);
                let (cq, queue) = (&cqs[which], &mut model[which]);
                let max = usize::from(arg / 2 % 4);
                match op % 6 {
                    0 | 1 => {
                        delivered += 1;
                        cq.push(WorkCompletion {
                            wr_id: delivered,
                            ..completion_at(delivered)
                        });
                        queue.push_back(delivered);
                    }
                    2 => {
                        let got = cq.poll_one().map(|wc| wc.wr_id);
                        proptest::prop_assert_eq!(got, queue.pop_front());
                    }
                    3 => {
                        let mut out = Vec::new();
                        let n = cq.poll_uncharged_into(max, &mut out);
                        let expected: Vec<u64> = queue.drain(..max.min(queue.len())).collect();
                        proptest::prop_assert_eq!(n, expected.len());
                        let got: Vec<u64> = out.iter().map(|wc| wc.wr_id).collect();
                        proptest::prop_assert_eq!(got, expected);
                    }
                    4 => {
                        let mut out = Vec::new();
                        let n = set.poll_uncharged_into(max, &mut out);
                        let mut expected = Vec::new();
                        for (token, queue) in model.iter_mut().enumerate() {
                            let take = max.min(queue.len());
                            expected.extend(queue.drain(..take).map(|id| (token, id)));
                        }
                        proptest::prop_assert_eq!(n, expected.len());
                        let got: Vec<(usize, u64)> =
                            out.iter().map(|(token, wc)| (*token, wc.wr_id)).collect();
                        proptest::prop_assert_eq!(got, expected);
                    }
                    _ => cq.disconnect(),
                }
                for (cq, queue) in cqs.iter().zip(&model) {
                    proptest::prop_assert_eq!(cq.pending(), queue.len());
                }
                proptest::prop_assert_eq!(set.pending(), model[0].len() + model[1].len());
            }
        }
    }
}

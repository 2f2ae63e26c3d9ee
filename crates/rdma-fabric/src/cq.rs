//! Completion queues.
//!
//! A completion queue (CQ) collects work completions from one or more queue
//! pairs. Consumers can either *busy poll* it — the mechanism behind rFaaS
//! *hot* invocations — or block until a completion arrives — the mechanism
//! behind *warm* invocations. Busy polling costs CPU but observes the
//! completion almost immediately; blocking waits release the CPU but pay the
//! interrupt/wake-up latency and contend on the node's shared notification
//! channel.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use sim_core::{SimDuration, SimTime, VirtualClock};

use crate::device::{DeviceFunction, NicProfile};
use crate::fabric::FabricNode;
use crate::verbs::WorkCompletion;

/// How a consumer observes completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// Spin on the CQ; lowest latency, occupies the CPU (hot invocations).
    BusyPoll,
    /// Sleep until the completion event fires; frees the CPU but pays the
    /// wake-up cost (warm invocations).
    Blocking,
}

#[derive(Debug, Default)]
struct CqState {
    completions: VecDeque<WorkCompletion>,
    disconnected: bool,
    notifier: Option<CqNotifier>,
}

#[derive(Debug)]
struct CqInner {
    state: Mutex<CqState>,
    available: Condvar,
    clock: Arc<VirtualClock>,
    node: Arc<FabricNode>,
    profile: NicProfile,
    function: DeviceFunction,
}

#[derive(Debug, Default)]
struct NotifierInner {
    /// Event count. Bumped only while holding `sleepers` (so a sleeper that
    /// checked it under that lock cannot miss the bump), read without it.
    seq: AtomicU64,
    sleepers: Mutex<()>,
    changed: Condvar,
}

/// Edge notification channel shared by every member of a [`CqSet`]: each
/// delivery (or disconnect) on any member bumps a sequence number and wakes
/// sleepers, so one thread can block on N rings at once without busy
/// re-scanning them. Sources other than completion queues join the same
/// channel: a [`crate::Listener`] signals it per connection request, and an
/// owner stopping the event loop signals it after raising its stop flag.
#[derive(Debug, Clone, Default)]
pub struct CqNotifier {
    inner: Arc<NotifierInner>,
}

impl CqNotifier {
    /// Record an event and wake every sleeper. Publish the state the woken
    /// thread will look for (a queued request, a raised flag) *before*
    /// signalling.
    pub fn signal(&self) {
        let sleepers = self.inner.sleepers.lock();
        self.inner.seq.fetch_add(1, Ordering::SeqCst);
        drop(sleepers);
        self.inner.changed.notify_all();
    }

    /// The current event sequence number. An event loop snapshots it before
    /// it examines its sources and hands the snapshot to
    /// [`CqSet::wait_since`]: an event landing anywhere in between moves the
    /// sequence past the snapshot, so the wait returns at once instead of
    /// sleeping through it. Lock-free: a spinning loop snapshots every turn.
    pub fn sequence(&self) -> u64 {
        self.inner.seq.load(Ordering::SeqCst)
    }

    /// Block until the sequence number moves past `seen` or the wall-clock
    /// timeout expires. Returns `true` when woken by a signal.
    fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        // simlint::allow(wall_clock, reason = "bounds how long the host thread parks; virtual time is charged by the pickup cost model, not here")
        let deadline = std::time::Instant::now() + timeout;
        let mut sleepers = self.inner.sleepers.lock();
        while self.sequence() == seen {
            if self
                .inner
                .changed
                .wait_until(&mut sleepers, deadline)
                .timed_out()
            {
                return self.sequence() != seen;
            }
        }
        true
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
    pub fn new(
        clock: Arc<VirtualClock>,
        node: Arc<FabricNode>,
        profile: NicProfile,
        function: DeviceFunction,
    ) -> CompletionQueue {
        CompletionQueue {
            inner: Arc::new(CqInner {
                state: Mutex::new(CqState::default()),
                available: Condvar::new(),
                clock,
                node,
                profile,
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
        let notifier = state.notifier.clone();
        drop(state);
        self.inner.available.notify_all();
        if let Some(notifier) = notifier {
            notifier.signal();
        }
    }

    /// Mark the CQ as disconnected so blocked waiters wake up with `None`.
    pub(crate) fn disconnect(&self) {
        let mut state = self.inner.state.lock();
        state.disconnected = true;
        let notifier = state.notifier.clone();
        drop(state);
        self.inner.available.notify_all();
        if let Some(notifier) = notifier {
            notifier.signal();
        }
    }

    /// Whether the producing side has torn the connection down.
    pub fn is_disconnected(&self) -> bool {
        self.inner.state.lock().disconnected
    }

    /// Number of completions currently queued.
    pub fn pending(&self) -> usize {
        self.inner.state.lock().completions.len()
    }

    /// Non-blocking poll for up to `max` completions (busy-polling pickup).
    ///
    /// For each returned completion the consumer clock is synchronised to the
    /// completion's arrival time plus the polling pickup cost. Empty polls do
    /// not advance virtual time: an idle spinning thread does no useful
    /// virtual work.
    pub fn poll(&self, max: usize) -> Vec<WorkCompletion> {
        let mut drained = Vec::new();
        self.poll_into(max, &mut drained);
        drained
    }

    /// Like [`CompletionQueue::poll`], but drains into a caller-owned scratch
    /// buffer so the hot loop performs no steady-state allocations. Appends at
    /// most `max` completions to `out` and returns how many were appended.
    pub fn poll_into(&self, max: usize, out: &mut Vec<WorkCompletion>) -> usize {
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
        let mut state = self.inner.state.lock();
        let n = state.completions.len().min(max);
        out.extend(state.completions.drain(..n));
        n
    }

    /// Poll a single completion without blocking (allocation-free).
    pub fn poll_one(&self) -> Option<WorkCompletion> {
        let mut state = self.inner.state.lock();
        let wc = state.completions.pop_front()?;
        drop(state);
        self.charge_poll_pickup(&wc);
        Some(wc)
    }

    /// Synchronise the consumer clock to a completion observed by busy
    /// polling: arrival time plus the polling pickup cost.
    pub fn charge_poll_pickup(&self, wc: &WorkCompletion) {
        let pickup = self.inner.profile.completion_pickup
            + self.inner.function.message_overhead(&self.inner.profile);
        self.inner.clock.advance_to_then(wc.timestamp, pickup);
    }

    /// Busy-poll until a completion arrives (hot path). Returns `None` if the
    /// CQ is disconnected while waiting.
    pub fn busy_wait(&self) -> Option<WorkCompletion> {
        loop {
            if let Some(wc) = self.poll_one() {
                return Some(wc);
            }
            if self.inner.state.lock().disconnected {
                return None;
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }

    /// Block until a completion arrives (warm path). Charges the blocking
    /// wake-up latency and the per-node notification serialisation. Returns
    /// `None` if the CQ is disconnected while waiting.
    pub fn blocking_wait(&self) -> Option<WorkCompletion> {
        let mut state = self.inner.state.lock();
        loop {
            if let Some(wc) = state.completions.pop_front() {
                drop(state);
                return Some(self.charge_blocking_pickup(wc));
            }
            if state.disconnected {
                return None;
            }
            self.inner.available.wait(&mut state);
        }
    }

    /// Block until a completion arrives or the real-time timeout expires.
    /// The timeout is wall-clock (it bounds test execution time); the virtual
    /// cost model is identical to [`CompletionQueue::blocking_wait`].
    pub fn blocking_wait_timeout(&self, timeout: Duration) -> Option<WorkCompletion> {
        // simlint::allow(wall_clock, reason = "host-side wait bound so tests cannot hang; completions are billed in virtual time on pickup")
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.inner.state.lock();
        loop {
            if let Some(wc) = state.completions.pop_front() {
                drop(state);
                return Some(self.charge_blocking_pickup(wc));
            }
            if state.disconnected {
                return None;
            }
            // simlint::allow(wall_clock, reason = "re-checks the host-side deadline above after each wakeup")
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            if self
                .inner
                .available
                .wait_until(&mut state, deadline)
                .timed_out()
            {
                return state.completions.pop_front().map(|wc| {
                    drop(state);
                    self.charge_blocking_pickup(wc)
                });
            }
        }
    }

    /// Wait with the requested mode.
    pub fn wait(&self, mode: WaitMode) -> Option<WorkCompletion> {
        match mode {
            WaitMode::BusyPoll => self.busy_wait(),
            WaitMode::Blocking => self.blocking_wait(),
        }
    }

    /// Synchronise the consumer clock to a completion observed via a blocking
    /// wait: the notification serialises through the node's shared event
    /// channel and the consumer pays the wake-up latency. Public so a
    /// multiplexed event loop draining uncharged (see
    /// [`CompletionQueue::poll_uncharged_into`]) can bill a blocked consumer
    /// exactly as [`CompletionQueue::blocking_wait`] would have.
    pub fn charge_blocking_pickup(&self, wc: WorkCompletion) -> WorkCompletion {
        // Serialise the notification through the node's shared event channel:
        // concurrent blocking waiters on one node queue behind each other.
        let dispatch = self.inner.profile.notification_dispatch;
        let visible: SimTime = self
            .inner
            .node
            .serialize_notification(wc.timestamp, dispatch);
        let wakeup = self.inner.profile.blocking_wakeup
            + self.inner.function.blocking_extra(&self.inner.profile)
            + self.inner.profile.completion_pickup;
        self.inner.clock.advance_to_then(visible, wakeup);
        wc
    }

    /// The blocking wake-up penalty of this CQ's device function, exposed for
    /// cost-model introspection in benchmarks.
    pub fn blocking_penalty(&self) -> SimDuration {
        self.inner.profile.blocking_wakeup + self.inner.function.blocking_extra(&self.inner.profile)
    }

    /// Attach (or detach, with `None`) the edge notifier of a [`CqSet`].
    fn set_notifier(&self, notifier: Option<CqNotifier>) {
        self.inner.state.lock().notifier = notifier;
    }
}

/// A multiplexed poll/drain surface over N completion queues.
///
/// One event-loop thread registers every ring it serves and then alternates
/// between [`CqSet::poll_uncharged_into`] — which drains all members in
/// **registration order**, keeping multiplexed runs virtual-time
/// deterministic — and [`CqSet::wait`], which blocks on the shared
/// [`CqNotifier`] until any member receives a delivery or disconnect. The
/// drain is uncharged: the event loop applies the per-consumer pickup cost
/// itself ([`CompletionQueue::charge_poll_pickup`] or
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
    /// retired, not reused. Required once a member disconnects for good:
    /// a permanently disconnected member would otherwise turn every
    /// [`CqSet::wait`] into an immediate (spurious) wakeup.
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
            let mut state = cq.inner.state.lock();
            let n = state.completions.len().min(max_per_member);
            out.extend(state.completions.drain(..n).map(|wc| (token, wc)));
            drained += n;
        }
        drained
    }

    /// Member access by token (registration index). Panics for a
    /// deregistered token.
    pub fn member(&self, token: usize) -> &CompletionQueue {
        self.members[token]
            .as_ref()
            .expect("CqSet member was deregistered")
    }

    /// The set's notification channel, for attaching event sources that are
    /// not completion queues (see [`CqNotifier`]).
    pub fn notifier(&self) -> &CqNotifier {
        &self.notifier
    }

    /// Block until any member has a queued completion, any member
    /// disconnects, the notifier is signalled, or the wall-clock timeout
    /// expires. Returns `true` if there may be work (queued completions, a
    /// disconnect edge or a signal), `false` on a quiet timeout. Never
    /// charges virtual time: like an empty poll, waiting is not useful
    /// virtual work.
    pub fn wait(&self, timeout: Duration) -> bool {
        // Snapshot the sequence number *before* re-checking the members: a
        // delivery racing with this wait bumps the sequence and the
        // `wait_past` below returns immediately instead of losing the wakeup.
        self.wait_since(self.notifier.sequence(), timeout)
    }

    /// [`CqSet::wait`] against a sequence snapshot the caller took earlier
    /// ([`CqNotifier::sequence`]), for loops that examine sources the set
    /// does not hold — listeners, stop flags — between the snapshot and the
    /// wait.
    pub fn wait_since(&self, seen: u64, timeout: Duration) -> bool {
        if self
            .members
            .iter()
            .flatten()
            .any(|cq| cq.pending() > 0 || cq.is_disconnected())
        {
            return true;
        }
        self.notifier.wait_past(seen, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::verbs::{CompletionStatus, OpCode};
    use std::thread;

    fn make_cq(mode_function: DeviceFunction) -> (CompletionQueue, Arc<VirtualClock>) {
        let fabric = Fabric::new(NicProfile::default());
        let node = fabric.add_node("n0");
        let clock = VirtualClock::shared();
        let cq = CompletionQueue::new(
            Arc::clone(&clock),
            node,
            NicProfile::default(),
            mode_function,
        );
        (cq, clock)
    }

    fn completion_at(ts_us: u64) -> WorkCompletion {
        WorkCompletion {
            wr_id: 1,
            opcode: OpCode::Recv,
            status: CompletionStatus::Success,
            byte_len: 16,
            imm: Some(7),
            timestamp: SimTime::from_micros(ts_us),
            qp_num: 3,
        }
    }

    #[test]
    fn empty_poll_does_not_advance_clock() {
        let (cq, clock) = make_cq(DeviceFunction::Physical);
        assert!(cq.poll(4).is_empty());
        assert_eq!(clock.now(), SimTime::ZERO);
    }

    #[test]
    fn poll_synchronises_clock_to_arrival() {
        let (cq, clock) = make_cq(DeviceFunction::Physical);
        cq.push(completion_at(10));
        let wcs = cq.poll(4);
        assert_eq!(wcs.len(), 1);
        assert_eq!(wcs[0].imm, Some(7));
        // 10 us arrival + 65 ns pickup.
        assert_eq!(clock.now().as_nanos(), 10_065);
    }

    #[test]
    fn blocking_wait_charges_wakeup_latency() {
        let (cq, clock) = make_cq(DeviceFunction::Physical);
        cq.push(completion_at(10));
        let wc = cq.blocking_wait().unwrap();
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
        phys.blocking_wait().unwrap();
        virt.blocking_wait().unwrap();
        assert!(virt_clock.now() > phys_clock.now());
        let delta = virt_clock.now().as_nanos() - phys_clock.now().as_nanos();
        // 600 ns vf blocking extra + 25 ns message overhead tolerance window.
        assert!((600..=700).contains(&delta), "delta {delta}");
    }

    #[test]
    fn blocking_wait_wakes_on_push_from_other_thread() {
        let (cq, _clock) = make_cq(DeviceFunction::Physical);
        let cq2 = cq.clone();
        let handle = thread::spawn(move || cq2.blocking_wait());
        thread::sleep(Duration::from_millis(20));
        cq.push(completion_at(5));
        let wc = handle.join().unwrap().unwrap();
        assert_eq!(wc.wr_id, 1);
    }

    #[test]
    fn busy_wait_picks_up_pushed_completion() {
        let (cq, _clock) = make_cq(DeviceFunction::Physical);
        let cq2 = cq.clone();
        let handle = thread::spawn(move || cq2.busy_wait());
        thread::sleep(Duration::from_millis(10));
        cq.push(completion_at(2));
        assert!(handle.join().unwrap().is_some());
    }

    #[test]
    fn disconnect_wakes_blocked_waiters_with_none() {
        let (cq, _clock) = make_cq(DeviceFunction::Physical);
        let cq2 = cq.clone();
        let handle = thread::spawn(move || cq2.blocking_wait());
        thread::sleep(Duration::from_millis(10));
        cq.disconnect();
        assert!(handle.join().unwrap().is_none());
        // Busy wait also observes the disconnect.
        assert!(cq.busy_wait().is_none());
    }

    #[test]
    fn blocking_wait_timeout_returns_none_when_idle() {
        let (cq, _clock) = make_cq(DeviceFunction::Physical);
        assert!(cq
            .blocking_wait_timeout(Duration::from_millis(10))
            .is_none());
        cq.push(completion_at(1));
        assert!(cq
            .blocking_wait_timeout(Duration::from_millis(10))
            .is_some());
    }

    #[test]
    fn notification_contention_serialises_waiters() {
        // Two completions arriving at the same instant on the same node must
        // be observed at staggered virtual times by blocking waiters.
        let fabric = Fabric::new(NicProfile::default());
        let node = fabric.add_node("n0");
        let c1 = VirtualClock::shared();
        let c2 = VirtualClock::shared();
        let cq1 = CompletionQueue::new(
            Arc::clone(&c1),
            Arc::clone(&node),
            NicProfile::default(),
            DeviceFunction::Physical,
        );
        let cq2 = CompletionQueue::new(
            Arc::clone(&c2),
            Arc::clone(&node),
            NicProfile::default(),
            DeviceFunction::Physical,
        );
        cq1.push(completion_at(10));
        cq2.push(completion_at(10));
        cq1.blocking_wait().unwrap();
        cq2.blocking_wait().unwrap();
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
        cq.poll(1);
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
    fn cq_set_wait_wakes_on_member_push_and_disconnect() {
        let (a, _) = make_cq(DeviceFunction::Physical);
        let (b, _) = make_cq(DeviceFunction::Physical);
        let mut set = CqSet::new();
        set.register(&a);
        set.register(&b);
        // Quiet timeout.
        assert!(!set.wait(Duration::from_millis(5)));
        // Pre-queued work returns immediately.
        b.push(completion_at(1));
        assert!(set.wait(Duration::from_millis(5)));
        let mut out = Vec::new();
        set.poll_uncharged_into(16, &mut out);
        // A push from another thread wakes the sleeper.
        let b2 = b.clone();
        let pusher = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            b2.push(completion_at(2));
        });
        assert!(set.wait(Duration::from_secs(5)));
        pusher.join().unwrap();
        out.clear();
        set.poll_uncharged_into(16, &mut out);
        // A disconnect edge also wakes the sleeper.
        let a2 = a.clone();
        let dropper = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            a2.disconnect();
        });
        assert!(set.wait(Duration::from_secs(5)));
        dropper.join().unwrap();
    }

    #[test]
    fn cq_set_deregister_silences_dead_members() {
        let (a, _) = make_cq(DeviceFunction::Physical);
        let (b, _) = make_cq(DeviceFunction::Physical);
        let mut set = CqSet::new();
        let ta = set.register(&a);
        let tb = set.register(&b);
        assert_eq!(set.len(), 2);
        a.disconnect();
        // A permanently disconnected member makes every wait return
        // immediately; deregistering it restores quiet timeouts.
        assert!(set.wait(Duration::from_millis(1)));
        set.deregister(ta);
        assert_eq!(set.len(), 1);
        assert!(!set.wait(Duration::from_millis(1)));
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
}

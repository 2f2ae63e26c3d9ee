//! The fabric: nodes, links and transfer timing.
//!
//! A [`Fabric`] models one RDMA network: a set of nodes (machines with one
//! NIC port each) connected through a non-blocking switch. Each node tracks
//! when its egress and ingress directions become free, which is what produces
//! bandwidth saturation when many parallel invocations move large payloads
//! (Fig. 10), and a shared notification channel that serialises blocking
//! completion events (the warm-invocation contention in the same figure).
//!
//! The fabric also carries the actors that serve the network without a
//! thread of their own (an executor process's dispatcher): whoever waits for
//! one of them — a connecting client, an invoker, a sender meeting an empty
//! shared receive queue — turns them all through [`Fabric::run_until`].
//! It also numbers the queue pairs, memory keys, actors and client control
//! sockets on it, each from 1, so no id depends on what else ran in the
//! process.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sim_core::sync::Mutex;
use sim_core::{SimDuration, SimTime};

use crate::device::{NicProfile, CX5_100G};

/// A participant the fabric turns on behalf of whichever host thread waits.
pub trait Actor: Send + Sync {
    /// Take one turn and report whether anything progressed. Must not block:
    /// an actor another thread is turning right now (or that this thread is
    /// already inside) returns `false` at once.
    fn turn(&self) -> bool;
}

/// Timing of one data transfer computed by the link model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferTiming {
    /// When the initiator NIC finished serialising the message (send side).
    pub depart: SimTime,
    /// When the last byte arrived at the destination (receive side).
    pub arrive: SimTime,
}

/// The instant (in virtual nanoseconds) until which one direction of a port
/// is occupied. Every message moves it, so it is an atomic, not a lock.
#[derive(Debug, Default)]
struct BusyUntil(AtomicU64);

impl BusyUntil {
    /// Move the instant to `next(current)` and return the new instant.
    fn advance(&self, next: impl Fn(SimTime) -> SimTime) -> SimTime {
        let step = |busy| next(SimTime::from_nanos(busy));
        let previous = self
            .0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |busy| {
                Some(step(busy).as_nanos())
            })
            .expect("the update closure never declines");
        step(previous)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Release);
    }
}

/// One machine attached to the fabric.
#[derive(Debug)]
pub struct FabricNode {
    name: String,
    egress_busy_until: BusyUntil,
    ingress_busy_until: BusyUntil,
    notification_busy_until: BusyUntil,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    messages_sent: AtomicU64,
}

impl FabricNode {
    fn new(name: String) -> FabricNode {
        FabricNode {
            name,
            egress_busy_until: BusyUntil::default(),
            ingress_busy_until: BusyUntil::default(),
            notification_busy_until: BusyUntil::default(),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            messages_sent: AtomicU64::new(0),
        }
    }

    /// Node name (host name in the cluster).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total bytes sent by this node (traffic accounting).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total bytes received by this node.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Total messages sent by this node.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Reserve the egress direction for `duration` starting no earlier than
    /// `ready`. Returns the instant the reservation ends.
    fn reserve_egress(&self, ready: SimTime, duration: SimDuration) -> SimTime {
        self.egress_busy_until
            .advance(|busy| ready.max(busy) + duration)
    }

    /// Reserve the ingress direction so that a message whose last byte would
    /// arrive at `uncontended_arrival` (taking `duration` to stream in) is
    /// delayed behind any earlier arrivals. Returns the contended arrival.
    fn reserve_ingress(&self, uncontended_arrival: SimTime, duration: SimDuration) -> SimTime {
        self.ingress_busy_until
            .advance(|busy| uncontended_arrival.max(busy + duration))
    }

    /// Serialise one blocking-notification event through the node's shared
    /// event channel: the event becomes visible `dispatch` after the channel
    /// frees up. Returns the visibility instant.
    pub(crate) fn serialize_notification(&self, event: SimTime, dispatch: SimDuration) -> SimTime {
        self.notification_busy_until
            .advance(|busy| event.max(busy) + dispatch)
    }

    /// Reset contention state (used between benchmark repetitions).
    pub fn reset_contention(&self) {
        self.egress_busy_until.reset();
        self.ingress_busy_until.reset();
        self.notification_busy_until.reset();
    }
}

/// An RDMA network connecting a set of nodes through a non-blocking switch.
pub struct Fabric {
    nodes: Mutex<BTreeMap<String, Arc<FabricNode>>>,
    listeners: Mutex<BTreeMap<String, crate::cm::ListenerHandle>>,
    datagrams: Mutex<BTreeMap<String, crate::cm::DatagramHandle>>,
    /// Registered actors in registration (= turn) order, keyed by id.
    actors: Mutex<Vec<(u64, Arc<dyn Actor>)>>,
    next_actor: AtomicU64,
    next_control: AtomicU64,
    next_qp_num: AtomicU32,
    next_key: AtomicU64,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.node_count())
            .finish_non_exhaustive()
    }
}

impl Fabric {
    /// Create a fabric whose links follow [`CX5_100G`], the paper-calibrated
    /// profile.
    pub fn with_defaults() -> Arc<Fabric> {
        Arc::new(Fabric {
            nodes: Mutex::new(BTreeMap::new()),
            listeners: Mutex::new(BTreeMap::new()),
            datagrams: Mutex::new(BTreeMap::new()),
            actors: Mutex::new(Vec::new()),
            next_actor: AtomicU64::new(1),
            next_control: AtomicU64::new(1),
            next_qp_num: AtomicU32::new(1),
            next_key: AtomicU64::new(1),
        })
    }

    /// Register `actor`: every later [`Fabric::pump`] turns it once, after
    /// every actor registered before it. Returns the id that unregisters it.
    pub fn register_actor(&self, actor: Arc<dyn Actor>) -> u64 {
        let id = self.next_actor.fetch_add(1, Ordering::Relaxed);
        self.actors.lock().push((id, actor));
        id
    }

    /// The next client control-socket number on this fabric, counting from 1.
    /// A socket address built from it depends only on how many control
    /// sockets this fabric bound before, not on anything else in the process.
    pub fn next_control_id(&self) -> u64 {
        self.next_control.fetch_add(1, Ordering::Relaxed)
    }

    /// The next queue pair number on this fabric, counting from 1.
    pub(crate) fn next_qp_num(&self) -> u32 {
        self.next_qp_num.fetch_add(1, Ordering::Relaxed)
    }

    /// The next memory key of any protection domain on this fabric.
    pub(crate) fn next_key(&self) -> u64 {
        self.next_key.fetch_add(1, Ordering::Relaxed)
    }

    /// Remove an actor. Waits out a pump that is mid-sweep, so once this
    /// returns the actor is never turned again. Must not be called from
    /// inside an actor's turn.
    pub fn unregister_actor(&self, id: u64) {
        self.actors.lock().retain(|(actor, _)| *actor != id);
    }

    /// Give every registered actor one turn, in registration order, and
    /// report whether any progressed. Never blocks and never allocates: a
    /// pump that finds the actor list already being swept (by another thread,
    /// or by this one further up the stack) returns `false`, and a busy actor
    /// is skipped.
    pub fn pump(&self) -> bool {
        let Some(actors) = self.actors.try_lock() else {
            return false;
        };
        let mut progressed = false;
        for (_, actor) in actors.iter() {
            progressed |= actor.turn();
        }
        progressed
    }

    /// Pump until `done` holds or the wall-clock `timeout` passes; returns
    /// whether `done` held. Every host-side wait on an actor goes through
    /// here: `done` is checked before each pump, and the thread yields only
    /// after a pump that moved nothing. The timeout only guards the host
    /// against a peer that never answers (`Duration::MAX` waits for good);
    /// virtual time is charged by whatever `done` observes, never here.
    pub fn run_until(&self, mut done: impl FnMut() -> bool, timeout: Duration) -> bool {
        let mut deadline = None;
        loop {
            if done() {
                return true;
            }
            if self.pump() {
                continue;
            }
            // The workspace's one wall-clock read: a host-side guard on how
            // long a wait pumps, read only once a pump came up idle and never
            // charged to a virtual clock.
            let now = Instant::now();
            let deadline = *deadline.get_or_insert_with(|| now.checked_add(timeout));
            if deadline.is_some_and(|deadline| now >= deadline) {
                return done();
            }
            std::thread::yield_now();
        }
    }

    /// The NIC/link profile of this fabric: always [`CX5_100G`]. No code in
    /// this workspace calls it; the host-time benchmark (simbench) still
    /// reads it, until it moves onto the constant (ROADMAP item 21).
    pub fn profile(&self) -> &'static NicProfile {
        &CX5_100G
    }

    /// Add (or look up) a node by name.
    pub fn add_node(&self, name: &str) -> Arc<FabricNode> {
        let mut nodes = self.nodes.lock();
        if let Some(node) = nodes.get(name) {
            return Arc::clone(node);
        }
        let node = Arc::new(FabricNode::new(name.to_string()));
        nodes.insert(name.to_string(), Arc::clone(&node));
        node
    }

    /// Look up an existing node.
    pub fn node(&self, name: &str) -> Option<Arc<FabricNode>> {
        self.nodes.lock().get(name).cloned()
    }

    /// Number of nodes attached to the fabric.
    fn node_count(&self) -> usize {
        self.nodes.lock().len()
    }

    /// Compute the timing of a transfer of `bytes` from `src` to `dst`,
    /// issued when the initiator was ready at `ready`, and account the
    /// occupancy on both ports. Loopback transfers (same node) skip the wire.
    pub(crate) fn transfer(
        &self,
        src: &FabricNode,
        dst: &FabricNode,
        bytes: usize,
        ready: SimTime,
    ) -> TransferTiming {
        src.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        src.messages_sent.fetch_add(1, Ordering::Relaxed);
        dst.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);

        if std::ptr::eq(src, dst) {
            // Intra-node transfer: loopback through the NIC, no wire latency,
            // but still bounded by PCIe/NIC bandwidth.
            let duration = CX5_100G.serialization(bytes);
            let depart = src.reserve_egress(ready, duration);
            return TransferTiming {
                depart,
                arrive: depart,
            };
        }

        let duration = CX5_100G.serialization(bytes);
        // Cut-through switching: the last byte leaves the source at `depart`
        // and arrives one propagation delay later, unless the destination
        // ingress is still draining earlier flows.
        let depart = src.reserve_egress(ready, duration);
        let uncontended_arrival = depart + CX5_100G.one_way_latency;
        let arrive = dst.reserve_ingress(uncontended_arrival, duration);
        TransferTiming { depart, arrive }
    }

    /// Bind `address` to `handle`, returning the handle it replaces.
    pub(crate) fn register_listener(
        &self,
        address: &str,
        handle: crate::cm::ListenerHandle,
    ) -> Option<crate::cm::ListenerHandle> {
        self.listeners.lock().insert(address.to_string(), handle)
    }

    pub(crate) fn unregister_listener(&self, address: &str) {
        self.listeners.lock().remove(address);
    }

    pub(crate) fn listener(&self, address: &str) -> Option<crate::cm::ListenerHandle> {
        self.listeners.lock().get(address).cloned()
    }

    /// Bind `address` to `handle`, returning the handle it replaces.
    pub(crate) fn register_datagram(
        &self,
        address: &str,
        handle: crate::cm::DatagramHandle,
    ) -> Option<crate::cm::DatagramHandle> {
        self.datagrams.lock().insert(address.to_string(), handle)
    }

    pub(crate) fn unregister_datagram(&self, address: &str) {
        self.datagrams.lock().remove(address);
    }

    pub(crate) fn datagram(&self, address: &str) -> Option<crate::cm::DatagramHandle> {
        self.datagrams.lock().get(address).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_deduplicated_by_name() {
        let fabric = Fabric::with_defaults();
        let a = fabric.add_node("node-1");
        let b = fabric.add_node("node-1");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(fabric.node_count(), 1);
        assert!(fabric.node("node-1").is_some());
        assert!(fabric.node("missing").is_none());
    }

    #[test]
    fn single_transfer_is_latency_plus_serialization() {
        let fabric = Fabric::with_defaults();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let bytes = 1024 * 1024;
        let t = fabric.transfer(&a, &b, bytes, SimTime::ZERO);
        let expected_ser = CX5_100G.serialization(bytes);
        assert_eq!(t.depart, SimTime::ZERO + expected_ser);
        assert_eq!(t.arrive, t.depart + CX5_100G.one_way_latency);
    }

    #[test]
    fn egress_contention_serialises_outgoing_flows() {
        // One sender pushing two 1 MiB messages back to back: the second
        // departs only after the first finished serialising.
        let fabric = Fabric::with_defaults();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let c = fabric.add_node("c");
        let bytes = 1024 * 1024;
        let t1 = fabric.transfer(&a, &b, bytes, SimTime::ZERO);
        let t2 = fabric.transfer(&a, &c, bytes, SimTime::ZERO);
        assert!(t2.depart >= t1.depart + CX5_100G.serialization(bytes));
    }

    #[test]
    fn ingress_contention_serialises_incoming_flows() {
        let fabric = Fabric::with_defaults();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let dst = fabric.add_node("dst");
        let bytes = 1024 * 1024;
        let t1 = fabric.transfer(&a, &dst, bytes, SimTime::ZERO);
        let t2 = fabric.transfer(&b, &dst, bytes, SimTime::ZERO);
        // Both senders are free, but the destination can only drain one at a
        // time: the second arrival is one serialization later.
        assert!(t2.arrive >= t1.arrive + CX5_100G.serialization(bytes));
    }

    #[test]
    fn small_messages_barely_contend() {
        let fabric = Fabric::with_defaults();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let t1 = fabric.transfer(&a, &b, 64, SimTime::ZERO);
        let t2 = fabric.transfer(&a, &b, 64, SimTime::ZERO);
        let gap = t2.arrive.saturating_since(t1.arrive);
        assert!(
            gap.as_nanos() < 50,
            "64-byte messages should not queue: {gap}"
        );
    }

    #[test]
    fn loopback_skips_wire_latency() {
        let fabric = Fabric::with_defaults();
        let a = fabric.add_node("a");
        let t = fabric.transfer(&a, &a, 4096, SimTime::ZERO);
        assert_eq!(t.depart, t.arrive);
    }

    #[test]
    fn traffic_counters_accumulate() {
        let fabric = Fabric::with_defaults();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        fabric.transfer(&a, &b, 100, SimTime::ZERO);
        fabric.transfer(&a, &b, 200, SimTime::ZERO);
        assert_eq!(a.bytes_sent(), 300);
        assert_eq!(a.messages_sent(), 2);
        assert_eq!(b.bytes_received(), 300);
        assert_eq!(b.bytes_sent(), 0);
    }

    #[test]
    fn reset_contention_clears_busy_state() {
        let fabric = Fabric::with_defaults();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let bytes = 8 * 1024 * 1024;
        fabric.transfer(&a, &b, bytes, SimTime::ZERO);
        a.reset_contention();
        b.reset_contention();
        let t = fabric.transfer(&a, &b, 64, SimTime::ZERO);
        assert!(t.arrive.as_micros_f64() < 10.0);
    }

    #[test]
    fn control_message_is_one_way_latency() {
        let fabric = Fabric::with_defaults();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let arrive = fabric
            .transfer(&a, &b, 0, SimTime::from_nanos(5_000))
            .arrive;
        assert_eq!(
            arrive,
            SimTime::from_nanos(5_000) + CX5_100G.one_way_latency
        );
    }

    /// Records every turn it takes into a shared log; a held `gate` makes it
    /// busy, as an actor another thread is turning is.
    struct LoggingActor {
        name: &'static str,
        log: Arc<Mutex<Vec<&'static str>>>,
        gate: Mutex<()>,
    }

    impl LoggingActor {
        fn new(name: &'static str, log: &Arc<Mutex<Vec<&'static str>>>) -> Arc<LoggingActor> {
            Arc::new(LoggingActor {
                name,
                log: Arc::clone(log),
                gate: Mutex::new(()),
            })
        }
    }

    impl Actor for LoggingActor {
        fn turn(&self) -> bool {
            let Some(_turning) = self.gate.try_lock() else {
                return false;
            };
            self.log.lock().push(self.name);
            true
        }
    }

    #[test]
    fn pump_turns_actors_in_registration_order() {
        let fabric = Fabric::with_defaults();
        let log = Arc::new(Mutex::new(Vec::new()));
        assert!(!fabric.pump(), "no actors, no progress");
        fabric.register_actor(LoggingActor::new("first", &log));
        fabric.register_actor(LoggingActor::new("second", &log));
        fabric.register_actor(LoggingActor::new("third", &log));
        assert!(fabric.pump());
        assert!(fabric.pump());
        assert_eq!(
            *log.lock(),
            ["first", "second", "third", "first", "second", "third"]
        );
    }

    #[test]
    fn pump_skips_a_busy_actor_instead_of_blocking() {
        let fabric = Fabric::with_defaults();
        let log = Arc::new(Mutex::new(Vec::new()));
        let busy = LoggingActor::new("busy", &log);
        fabric.register_actor(busy.clone());
        fabric.register_actor(LoggingActor::new("free", &log));
        let held = busy.gate.lock();
        // This thread holds the busy actor: a blocking pump would deadlock.
        assert!(fabric.pump());
        assert_eq!(*log.lock(), ["free"]);
        drop(held);
        fabric.pump();
        assert_eq!(*log.lock(), ["free", "busy", "free"]);
    }

    #[test]
    fn a_nested_pump_returns_without_turning_anything() {
        struct Nesting {
            fabric: Arc<Fabric>,
            inner: Mutex<Option<bool>>,
        }
        impl Actor for Nesting {
            fn turn(&self) -> bool {
                *self.inner.lock() = Some(self.fabric.pump());
                true
            }
        }
        let fabric = Fabric::with_defaults();
        let actor = Arc::new(Nesting {
            fabric: Arc::clone(&fabric),
            inner: Mutex::new(None),
        });
        fabric.register_actor(actor.clone());
        assert!(fabric.pump());
        assert_eq!(*actor.inner.lock(), Some(false));
    }

    #[test]
    fn an_unregistered_actor_is_never_turned_again() {
        let fabric = Fabric::with_defaults();
        let log = Arc::new(Mutex::new(Vec::new()));
        let gone = fabric.register_actor(LoggingActor::new("gone", &log));
        fabric.register_actor(LoggingActor::new("kept", &log));
        fabric.pump();
        fabric.unregister_actor(gone);
        fabric.pump();
        fabric.pump();
        assert_eq!(*log.lock(), ["gone", "kept", "kept", "kept"]);
        // Unregistering twice is a no-op.
        fabric.unregister_actor(gone);
    }

    #[test]
    fn run_until_pumps_until_done_and_times_out_otherwise() {
        let fabric = Fabric::with_defaults();
        let log = Arc::new(Mutex::new(Vec::new()));
        fabric.register_actor(LoggingActor::new("a", &log));
        // Done after the third turn: exactly three pumps, no idle wait.
        assert!(fabric.run_until(|| log.lock().len() == 3, Duration::from_secs(60)));
        assert_eq!(log.lock().len(), 3);
        // Nothing can make an idle fabric progress: the guard expires.
        let idle = Fabric::with_defaults();
        let started = std::time::Instant::now();
        assert!(!idle.run_until(|| false, Duration::from_millis(10)));
        assert!(started.elapsed() >= Duration::from_millis(10));
        assert!(idle.run_until(|| true, Duration::ZERO));
    }

    #[test]
    fn a_post_into_an_empty_srq_succeeds_once_an_actor_reposts() {
        use crate::memory::AccessFlags;
        use crate::qp::{Endpoint, QueuePair};
        use crate::srq::SharedReceiveQueue;
        use crate::verbs::{RecvRequest, SendRequest, Sge};

        /// The receiving side's event loop: on its turn it reposts one
        /// receive into the shared queue, as a dispatcher's ring does once it
        /// has served a completion.
        struct Reposter {
            srq: SharedReceiveQueue,
            slot: crate::memory::MemoryRegion,
            turns: AtomicU64,
        }
        impl Actor for Reposter {
            fn turn(&self) -> bool {
                self.turns.fetch_add(1, Ordering::Relaxed);
                self.srq
                    .post(RecvRequest {
                        wr_id: 7,
                        local: Sge::whole(&self.slot),
                    })
                    .is_ok()
            }
        }

        let fabric = Fabric::with_defaults();
        let sender = Endpoint::new(&fabric, &fabric.add_node("sender"));
        let receiver = Endpoint::new(&fabric, &fabric.add_node("receiver"));
        let (tx, rx) = (QueuePair::new(&sender), QueuePair::new(&receiver));
        QueuePair::connect_pair(&tx, &rx).unwrap();
        let srq = SharedReceiveQueue::new(&receiver, 4);
        rx.attach_srq(&srq, 4);
        let reposter = Arc::new(Reposter {
            srq: srq.clone(),
            slot: receiver.pd.register(8, AccessFlags::LOCAL_ONLY),
            turns: AtomicU64::new(0),
        });
        fabric.register_actor(reposter.clone());

        let message = sender
            .pd
            .register_from(b"rnr".to_vec(), AccessFlags::LOCAL_ONLY);
        let started = std::time::Instant::now();
        tx.post_send(
            1,
            SendRequest::Send {
                local: Sge::whole(&message),
            },
            false,
        )
        .unwrap();
        // One in-line turn of the receiver served the retry: no wall-clock
        // retransmit window was waited out.
        assert_eq!(reposter.turns.load(Ordering::Relaxed), 1);
        assert!(started.elapsed() < Duration::from_secs(1));
        let wc = rx.recv_cq().poll_one().unwrap();
        assert_eq!((wc.wr_id, wc.byte_len), (7, 3));
    }

    #[test]
    fn notification_serialisation_orders_events() {
        let fabric = Fabric::with_defaults();
        let n = fabric.add_node("n");
        let d = SimDuration::from_nanos(500);
        let v1 = n.serialize_notification(SimTime::from_nanos(1_000), d);
        let v2 = n.serialize_notification(SimTime::from_nanos(1_000), d);
        let v3 = n.serialize_notification(SimTime::from_nanos(1_000), d);
        assert_eq!(v1.as_nanos(), 1_500);
        assert_eq!(v2.as_nanos(), 2_000);
        assert_eq!(v3.as_nanos(), 2_500);
    }
}

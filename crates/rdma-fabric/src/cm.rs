//! Connection management, the `rdma_cm` analogue.
//!
//! Servers bind a [`Listener`] at a string address ("host:service"); clients
//! call [`connect`] with an [`Endpoint`] describing where they run. The
//! handshake produces a connected [`QueuePair`] on both sides and charges the
//! reliable-connection establishment cost from the NIC profile — the cost
//! rFaaS clients amortise by caching connections inside leases (Sec. III-B).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sim_core::sync::Mutex;
use sim_core::SimTime;

use crate::cq::CqNotifier;
use crate::device::CX5_100G;
use crate::error::{FabricError, Result};
use crate::fabric::Fabric;
use crate::pool::ConnectionPool;
use crate::qp::{Endpoint, QueuePair};

/// Private message describing a pending connection request.
pub(crate) struct ConnectRequest {
    client_qp: QueuePair,
    client_time: SimTime,
    /// Whether the client redeemed a pool warmth token for this remote: both
    /// sides then charge the (much cheaper) warm re-establishment tier.
    warm: bool,
    /// The connecting side's answer slot: `ACCEPTED` once the acceptor
    /// connected the pair, `DROPPED` if the request died unanswered.
    reply: Arc<AtomicU8>,
}

const PENDING: u8 = 0;
const ACCEPTED: u8 = 1;
const DROPPED: u8 = 2;

impl Drop for ConnectRequest {
    fn drop(&mut self) {
        // A request dropped unanswered (its listener went away) must not
        // leave the client waiting out its timeout.
        let _ = self
            .reply
            .compare_exchange(PENDING, DROPPED, Ordering::AcqRel, Ordering::Acquire);
    }
}

/// The queue behind a [`Listener`] or a [`DatagramSocket`], shared with its
/// entry in the fabric's address table. It closes when its address is bound
/// again: a closed inbox takes nothing new, and its owner reads
/// [`FabricError::ConnectionLost`] once the queue is empty.
struct Inbox<T> {
    queue: VecDeque<T>,
    closed: bool,
}

type SharedInbox<T> = Arc<Mutex<Inbox<T>>>;

impl<T> Inbox<T> {
    fn shared() -> SharedInbox<T> {
        Arc::new(Mutex::new(Inbox {
            queue: VecDeque::new(),
            closed: false,
        }))
    }

    /// Queue `item`, or hand it back if the inbox is closed.
    fn push(&mut self, item: T) -> std::result::Result<(), T> {
        if self.closed {
            return Err(item);
        }
        self.queue.push_back(item);
        Ok(())
    }

    /// The next item; `Ok(None)` while the queue is empty and open.
    fn pop(&mut self) -> Result<Option<T>> {
        match self.queue.pop_front() {
            None if self.closed => Err(FabricError::ConnectionLost),
            item => Ok(item),
        }
    }

    /// Whether [`Inbox::pop`] has an answer other than `Ok(None)`.
    fn ready(&self) -> bool {
        self.closed || !self.queue.is_empty()
    }
}

/// Cloneable handle stored in the fabric's listener table.
#[derive(Clone)]
pub(crate) struct ListenerHandle {
    inbox: SharedInbox<ConnectRequest>,
    /// Signalled after each request is queued (shared with the [`Listener`],
    /// which attaches it after `bind`).
    notifier: Arc<Mutex<Option<CqNotifier>>>,
}

/// A listening endpoint accepting RDMA connection requests.
pub struct Listener {
    fabric: Arc<Fabric>,
    address: String,
    inbox: SharedInbox<ConnectRequest>,
    notifier: Arc<Mutex<Option<CqNotifier>>>,
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Listener")
            .field("address", &self.address)
            .finish()
    }
}

impl Listener {
    /// Bind a listener at `address`. Rebinding an address replaces the
    /// previous listener, like restarting a daemon on the same port.
    pub fn bind(fabric: &Arc<Fabric>, address: &str) -> Listener {
        let inbox = Inbox::shared();
        let notifier = Arc::new(Mutex::new(None));
        let handle = ListenerHandle {
            inbox: Arc::clone(&inbox),
            notifier: Arc::clone(&notifier),
        };
        if let Some(replaced) = fabric.register_listener(address, handle) {
            replaced.inbox.lock().closed = true;
        }
        Listener {
            fabric: Arc::clone(fabric),
            address: address.to_string(),
            inbox,
            notifier,
        }
    }

    /// Signal `notifier` whenever a connection request is queued here, so an
    /// event loop watching it (usually a [`crate::CqSet`]'s) re-examines its
    /// listeners only when a client arrived, instead of calling
    /// [`Listener::try_accept`] on every turn. Replaces any earlier
    /// attachment. Requests already queued are not re-announced: poll once
    /// after attaching.
    pub fn attach_notifier(&self, notifier: &CqNotifier) {
        *self.notifier.lock() = Some(notifier.clone());
    }

    /// The address this listener is bound to.
    pub fn address(&self) -> &str {
        &self.address
    }

    /// Accept the next connection request, waiting for one through
    /// [`Fabric::run_until`] up to the wall-clock `timeout`; `Ok(None)` when
    /// none arrived in time.
    ///
    /// `endpoint` describes the accepting actor (its node, clock, protection
    /// domain and device function); the returned queue pair is connected to
    /// the requesting client.
    pub fn accept_timeout(
        &self,
        endpoint: &Endpoint,
        timeout: Duration,
    ) -> Result<Option<QueuePair>> {
        self.fabric.run_until(|| self.inbox.lock().ready(), timeout);
        self.try_accept(endpoint)
    }

    /// Non-blocking accept: returns `Ok(None)` when no request is pending,
    /// and [`FabricError::ConnectionLost`] once the address was bound again.
    pub fn try_accept(&self, endpoint: &Endpoint) -> Result<Option<QueuePair>> {
        let request = self.inbox.lock().pop()?;
        request
            .map(|request| self.finish_accept(endpoint, request))
            .transpose()
    }

    /// Number of connection requests waiting to be accepted.
    pub fn pending(&self) -> usize {
        self.inbox.lock().queue.len()
    }

    fn finish_accept(&self, endpoint: &Endpoint, request: ConnectRequest) -> Result<QueuePair> {
        let server_qp = QueuePair::new(endpoint);
        QueuePair::connect_pair(&request.client_qp, &server_qp)?;
        // The server observes the request one propagation delay after the
        // client issued it and spends half the handshake processing it; a
        // warm re-establishment only pays the cheap tier.
        let setup = if request.warm {
            CX5_100G.warm_connection_setup
        } else {
            CX5_100G.connection_setup
        };
        endpoint
            .clock
            .advance_to_then(request.client_time + CX5_100G.one_way_latency, setup / 2);
        // Answer the connecting client (it may have given up already). The
        // release publishes the connected pair to the client's acquire load.
        request.reply.store(ACCEPTED, Ordering::Release);
        Ok(server_qp)
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        // Requests still queued die with the inbox, which answers them.
        // Only unregister if the table still points at this listener (it may
        // have been replaced by a rebind).
        if let Some(handle) = self.fabric.listener(&self.address) {
            if Arc::ptr_eq(&handle.inbox, &self.inbox) {
                self.fabric.unregister_listener(&self.address);
            }
        }
    }
}

/// Connect to a listener bound at `address`, blocking until the server
/// accepts. The returned queue pair is connected and ready for verbs.
pub fn connect(endpoint: &Endpoint, address: &str) -> Result<QueuePair> {
    connect_with_timeout(endpoint, address, Duration::from_secs(30))
}

/// Connect with an explicit wall-clock timeout (bounds test execution time).
pub(crate) fn connect_with_timeout(
    endpoint: &Endpoint,
    address: &str,
    timeout: Duration,
) -> Result<QueuePair> {
    connect_inner(endpoint, address, timeout, false, |_| Ok(()))
}

/// Connect through a [`ConnectionPool`]: when the pool holds a warmth token
/// for `key` (usually the remote node's name), both sides charge only the
/// warm re-establishment tier of the NIC profile instead of the full RC
/// handshake. Returns the connected queue pair and whether it was warm.
///
/// The token is consumed either way — a failed warm connect loses it, the
/// safe direction (the next attempt pays full price).
pub fn connect_pooled(
    endpoint: &Endpoint,
    address: &str,
    pool: &ConnectionPool,
    key: &str,
    timeout: Duration,
) -> Result<(QueuePair, bool)> {
    connect_pooled_with(endpoint, address, pool, key, timeout, |_| Ok(()))
}

/// [`connect_pooled`], with `on_init` run on the new queue pair while it is
/// still unconnected and before the request leaves: the place to post the
/// receives the peer's first message will land in (ibverbs practice — a QP
/// accepts receives from INIT on), so the server can send the moment it
/// accepts and never meets `ReceiverNotReady`. An error from `on_init`
/// abandons the connect.
pub fn connect_pooled_with(
    endpoint: &Endpoint,
    address: &str,
    pool: &ConnectionPool,
    key: &str,
    timeout: Duration,
    on_init: impl FnOnce(&QueuePair) -> Result<()>,
) -> Result<(QueuePair, bool)> {
    let warm = pool.lease(key);
    let qp = connect_inner(endpoint, address, timeout, warm, on_init)?;
    Ok((qp, warm))
}

fn connect_inner(
    endpoint: &Endpoint,
    address: &str,
    timeout: Duration,
    warm: bool,
    on_init: impl FnOnce(&QueuePair) -> Result<()>,
) -> Result<QueuePair> {
    let handle = endpoint
        .fabric
        .listener(address)
        .ok_or_else(|| FabricError::UnknownAddress(address.to_string()))?;
    let client_qp = QueuePair::new(endpoint);
    // The request's departure instant is taken before `on_init` charges the
    // client clock, so the server's accept instant does not depend on what
    // the client prepared first.
    let client_time = endpoint.clock.now();
    on_init(&client_qp)?;
    let reply = Arc::new(AtomicU8::new(PENDING));
    let request = ConnectRequest {
        client_qp: client_qp.clone(),
        client_time,
        warm,
        reply: Arc::clone(&reply),
    };
    handle
        .inbox
        .lock()
        .push(request)
        .map_err(|_| FabricError::UnknownAddress(address.to_string()))?;
    // Queue first, signal second: the acceptor's next sweep must find the
    // request.
    let notifier = handle.notifier.lock().clone();
    if let Some(notifier) = notifier {
        notifier.signal();
    }
    // Holding no handle while waiting lets a listener that goes away drop
    // the queued request, which answers it.
    drop(handle);
    // The acceptor is usually an actor on this fabric: waiting turns it.
    endpoint
        .fabric
        .run_until(|| reply.load(Ordering::Acquire) != PENDING, timeout);
    match reply.load(Ordering::Acquire) {
        ACCEPTED => {}
        DROPPED => return Err(FabricError::ConnectionLost),
        _ => {
            return Err(FabricError::Timeout {
                operation: "connect",
            })
        }
    }
    // The client pays the connection-establishment latency of its tier.
    endpoint.clock.advance(if warm {
        CX5_100G.warm_connection_setup
    } else {
        CX5_100G.connection_setup
    });
    Ok(client_qp)
}

/// A message delivered through a [`DatagramSocket`].
#[derive(Debug, Clone)]
pub struct DatagramMessage {
    /// Address of the sending socket (reply-to).
    pub from: String,
    /// Message payload.
    pub payload: Vec<u8>,
    /// Fabric-model instant the last byte arrived.
    pub arrived_at: SimTime,
}

/// Cloneable handle stored in the fabric's datagram table.
#[derive(Clone)]
pub(crate) struct DatagramHandle {
    inbox: SharedInbox<DatagramMessage>,
    node: Arc<crate::fabric::FabricNode>,
}

/// A UD/DC-style unreliable-datagram endpoint: per-message addressing, no
/// per-peer connection state, and a setup cost (`datagram_setup`) an order
/// of magnitude below the RC handshake. rFaaS-style control planes use this
/// for first contact — allocation requests and replies — and reserve RC
/// connections for the leased data path.
pub struct DatagramSocket {
    fabric: Arc<Fabric>,
    node: Arc<crate::fabric::FabricNode>,
    clock: Arc<sim_core::VirtualClock>,
    address: String,
    inbox: SharedInbox<DatagramMessage>,
}

impl std::fmt::Debug for DatagramSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatagramSocket")
            .field("address", &self.address)
            .finish()
    }
}

impl DatagramSocket {
    /// Bind a datagram socket at `address`, charging the (cheap) datagram
    /// endpoint setup on the endpoint's clock. Rebinding an address replaces
    /// the previous socket.
    pub fn bind(endpoint: &Endpoint, address: &str) -> DatagramSocket {
        let inbox = Inbox::shared();
        let handle = DatagramHandle {
            inbox: Arc::clone(&inbox),
            node: Arc::clone(&endpoint.node),
        };
        if let Some(replaced) = endpoint.fabric.register_datagram(address, handle) {
            replaced.inbox.lock().closed = true;
        }
        endpoint.clock.advance(CX5_100G.datagram_setup);
        DatagramSocket {
            fabric: Arc::clone(&endpoint.fabric),
            node: Arc::clone(&endpoint.node),
            clock: Arc::clone(&endpoint.clock),
            address: address.to_string(),
            inbox,
        }
    }

    /// The address this socket is bound to.
    pub fn address(&self) -> &str {
        &self.address
    }

    /// Send `payload` to the socket bound at `dst`. No connection is
    /// involved: the sender pays the usual issue cost, the fabric model
    /// times the transfer, and the message queues at the destination.
    /// Returns the arrival instant.
    pub fn send_to(&self, dst: &str, payload: &[u8]) -> Result<SimTime> {
        let handle = self
            .fabric
            .datagram(dst)
            .ok_or_else(|| FabricError::UnknownAddress(dst.to_string()))?;
        let ready = self.clock.advance(CX5_100G.issue_cost(payload.len()));
        let timing = self
            .fabric
            .transfer(&self.node, &handle.node, payload.len(), ready);
        let message = DatagramMessage {
            from: self.address.clone(),
            payload: payload.to_vec(),
            arrived_at: timing.arrive,
        };
        handle
            .inbox
            .lock()
            .push(message)
            .map_err(|_| FabricError::UnknownAddress(dst.to_string()))?;
        Ok(timing.arrive)
    }

    /// Receive the next message without waiting: callers pump the peer
    /// they expect a reply from first, so the reply is either queued or
    /// never coming. Fails with `ConnectionLost` once the socket was
    /// replaced and with `Timeout` on an empty inbox. The receiver's clock
    /// advances to the message's arrival and pays the completion pickup
    /// cost.
    pub fn recv(&self) -> Result<DatagramMessage> {
        let msg = self.inbox.lock().pop()?.ok_or(FabricError::Timeout {
            operation: "datagram receive",
        })?;
        self.observe(&msg);
        Ok(msg)
    }

    /// Non-blocking receive: `None` when no message is queued.
    pub fn try_recv(&self) -> Option<DatagramMessage> {
        let msg = self.inbox.lock().queue.pop_front()?;
        self.observe(&msg);
        Some(msg)
    }

    /// Number of messages waiting to be received.
    pub fn pending(&self) -> usize {
        self.inbox.lock().queue.len()
    }

    fn observe(&self, msg: &DatagramMessage) {
        self.clock
            .advance_to_then(msg.arrived_at, CX5_100G.completion_pickup);
    }
}

impl Drop for DatagramSocket {
    fn drop(&mut self) {
        if let Some(handle) = self.fabric.datagram(&self.address) {
            if Arc::ptr_eq(&handle.inbox, &self.inbox) {
                self.fabric.unregister_datagram(&self.address);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AccessFlags;
    use crate::verbs::{RecvRequest, SendRequest, Sge};
    use std::thread;

    /// Accept the next connection request, waiting up to 5 s for it.
    fn accept(listener: &Listener, endpoint: &Endpoint) -> QueuePair {
        listener
            .accept_timeout(endpoint, Duration::from_secs(5))
            .unwrap()
            .expect("a connection request within 5 s")
    }

    #[test]
    fn connect_and_accept_produce_linked_qps() {
        let fabric = Fabric::with_defaults();
        let server_node = fabric.add_node("server");
        let client_node = fabric.add_node("client");
        let listener = Listener::bind(&fabric, "server:9000");
        let server_ep = Endpoint::new(&fabric, &server_node);

        let fabric2 = Arc::clone(&fabric);
        let client_thread = thread::spawn(move || {
            let client_ep = Endpoint::new(&fabric2, &client_node);
            connect(&client_ep, "server:9000").unwrap()
        });
        let server_qp = accept(&listener, &server_ep);
        let client_qp = client_thread.join().unwrap();
        assert!(client_qp.is_connected());
        assert!(server_qp.is_connected());

        // Data flows across the established connection.
        let msg = client_qp
            .pd()
            .register_from(b"ping".to_vec(), AccessFlags::LOCAL_ONLY);
        let buf = server_qp.pd().register(8, AccessFlags::LOCAL_ONLY);
        server_qp
            .post_recv(RecvRequest {
                wr_id: 1,
                local: Sge::whole(&buf),
            })
            .unwrap();
        client_qp
            .post_send(
                1,
                SendRequest::Send {
                    local: Sge::whole(&msg),
                },
                false,
            )
            .unwrap();
        let wc = server_qp.recv_cq().poll_one().unwrap();
        assert_eq!(wc.byte_len, 4);
        assert_eq!(&buf.read(0, 4).unwrap(), b"ping");
    }

    #[test]
    fn connect_to_unknown_address_fails() {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("n");
        let ep = Endpoint::new(&fabric, &node);
        let err = connect(&ep, "nowhere:1").unwrap_err();
        assert!(matches!(err, FabricError::UnknownAddress(_)));
    }

    #[test]
    fn connection_charges_setup_latency_on_client() {
        let fabric = Fabric::with_defaults();
        let server_node = fabric.add_node("server");
        let client_node = fabric.add_node("client");
        let listener = Listener::bind(&fabric, "server:1");
        let server_ep = Endpoint::new(&fabric, &server_node);
        let fabric2 = Arc::clone(&fabric);
        let t = thread::spawn(move || {
            let ep = Endpoint::new(&fabric2, &client_node);
            let qp = connect(&ep, "server:1").unwrap();
            qp.clock().now()
        });
        accept(&listener, &server_ep);
        let client_time = t.join().unwrap();
        let setup = CX5_100G.connection_setup;
        assert!(client_time.as_nanos() >= setup.as_nanos());
    }

    #[test]
    fn try_accept_returns_none_when_idle() {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("server");
        let listener = Listener::bind(&fabric, "server:2");
        let ep = Endpoint::new(&fabric, &node);
        assert!(listener.try_accept(&ep).unwrap().is_none());
        assert_eq!(listener.pending(), 0);
    }

    #[test]
    fn accept_timeout_expires() {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("server");
        let listener = Listener::bind(&fabric, "server:3");
        let ep = Endpoint::new(&fabric, &node);
        let got = listener
            .accept_timeout(&ep, Duration::from_millis(20))
            .unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn dropping_listener_unbinds_address() {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("n");
        {
            let _listener = Listener::bind(&fabric, "temp:1");
            assert!(fabric.listener("temp:1").is_some());
        }
        assert!(fabric.listener("temp:1").is_none());
        let ep = Endpoint::new(&fabric, &node);
        assert!(connect(&ep, "temp:1").is_err());
    }

    #[test]
    fn rebinding_replaces_listener_without_breaking_drop() {
        let fabric = Fabric::with_defaults();
        let first = Listener::bind(&fabric, "svc:1");
        let second = Listener::bind(&fabric, "svc:1");
        drop(first);
        // The second listener must still be registered.
        assert!(fabric.listener("svc:1").is_some());
        drop(second);
        assert!(fabric.listener("svc:1").is_none());
    }

    #[test]
    fn multiple_clients_queue_on_one_listener() {
        let fabric = Fabric::with_defaults();
        let server_node = fabric.add_node("server");
        let listener = Listener::bind(&fabric, "server:4");
        let server_ep = Endpoint::new(&fabric, &server_node);

        let mut clients = Vec::new();
        for i in 0..4 {
            let fabric = Arc::clone(&fabric);
            clients.push(thread::spawn(move || {
                let node = fabric.add_node(&format!("client-{i}"));
                let ep = Endpoint::new(&fabric, &node);
                connect(&ep, "server:4").unwrap()
            }));
        }
        let mut server_qps = Vec::new();
        for _ in 0..4 {
            server_qps.push(accept(&listener, &server_ep));
        }
        for c in clients {
            assert!(c.join().unwrap().is_connected());
        }
        assert_eq!(server_qps.len(), 4);
    }

    #[test]
    fn try_accept_on_replaced_listener_reports_connection_lost() {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("server");
        let ep = Endpoint::new(&fabric, &node);
        let first = Listener::bind(&fabric, "svc:replaced");
        // Rebinding closes the first listener's inbox: once it is empty,
        // accepting from it reports the loss instead of waiting.
        let _second = Listener::bind(&fabric, "svc:replaced");
        assert!(matches!(
            first.try_accept(&ep),
            Err(FabricError::ConnectionLost)
        ));
        assert!(matches!(
            first.accept_timeout(&ep, Duration::from_secs(5)),
            Err(FabricError::ConnectionLost)
        ));
    }

    #[test]
    fn connect_times_out_against_unresponsive_listener() {
        let fabric = Fabric::with_defaults();
        let _server = fabric.add_node("server");
        let client_node = fabric.add_node("client");
        let _listener = Listener::bind(&fabric, "server:slow");
        let ep = Endpoint::new(&fabric, &client_node);
        // Nobody calls accept: the client must give up with a typed error,
        // not hang or report the address as unknown.
        let err = connect_with_timeout(&ep, "server:slow", Duration::from_millis(20)).unwrap_err();
        assert_eq!(
            err,
            FabricError::Timeout {
                operation: "connect"
            }
        );
    }

    #[test]
    fn connect_fails_fast_when_the_listener_goes_away_unanswered() {
        let fabric = Fabric::with_defaults();
        let listener = Listener::bind(&fabric, "server:closing");
        let client_ep = Endpoint::new(&fabric, &fabric.add_node("client"));
        let client = thread::spawn(move || {
            connect_with_timeout(&client_ep, "server:closing", Duration::from_secs(30))
        });
        assert!(fabric.run_until(|| listener.pending() > 0, Duration::from_secs(5)));
        let started = std::time::Instant::now();
        drop(listener);
        assert_eq!(
            client.join().unwrap().unwrap_err(),
            FabricError::ConnectionLost
        );
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn accept_survives_client_that_gave_up() {
        let fabric = Fabric::with_defaults();
        let server_node = fabric.add_node("server");
        let client_node = fabric.add_node("client");
        let listener = Listener::bind(&fabric, "server:late");
        let server_ep = Endpoint::new(&fabric, &server_node);

        let client_ep = Endpoint::new(&fabric, &client_node);
        let err = connect_with_timeout(&client_ep, "server:late", Duration::from_millis(5));
        assert!(matches!(err, Err(FabricError::Timeout { .. })));

        // The request is still queued; accepting it must not panic even
        // though the client dropped its reply receiver.
        let qp = accept(&listener, &server_ep);
        assert!(qp.is_connected());
    }

    #[test]
    fn connect_request_wakes_a_set_watching_the_listener() {
        let fabric = Fabric::with_defaults();
        let server_node = fabric.add_node("server");
        let client_node = fabric.add_node("client");
        let listener = Listener::bind(&fabric, "server:watched");
        let server_ep = Endpoint::new(&fabric, &server_node);
        let set = crate::CqSet::new();
        listener.attach_notifier(set.notifier());
        let quiet = set.notifier().sequence();

        let client_ep = Endpoint::new(&fabric, &client_node);
        let client = thread::spawn(move || connect(&client_ep, "server:watched").unwrap());
        // The request moves the set's counter: an event loop comparing it
        // with its last sweep knows to try the listener.
        assert!(fabric.run_until(
            || set.notifier().sequence() != quiet,
            Duration::from_secs(5)
        ));
        assert!(listener.try_accept(&server_ep).unwrap().is_some());
        assert!(client.join().unwrap().is_connected());
    }

    #[test]
    fn waiting_connect_turns_the_accepting_actor() {
        /// An acceptor with no thread of its own: it accepts only when the
        /// fabric turns it.
        struct Acceptor {
            listener: Listener,
            endpoint: Endpoint,
            accepted: Mutex<Vec<QueuePair>>,
        }
        impl crate::Actor for Acceptor {
            fn turn(&self) -> bool {
                match self.listener.try_accept(&self.endpoint) {
                    Ok(Some(qp)) => {
                        self.accepted.lock().push(qp);
                        true
                    }
                    _ => false,
                }
            }
        }
        let fabric = Fabric::with_defaults();
        let server_ep = Endpoint::new(&fabric, &fabric.add_node("server"));
        let client_ep = Endpoint::new(&fabric, &fabric.add_node("client"));
        let acceptor = Arc::new(Acceptor {
            listener: Listener::bind(&fabric, "server:actor"),
            endpoint: server_ep,
            accepted: Mutex::new(Vec::new()),
        });
        let id = fabric.register_actor(acceptor.clone());
        // One thread: every connect is accepted in-line by its own wait.
        for _ in 0..100 {
            let qp = connect_with_timeout(&client_ep, "server:actor", Duration::from_secs(5))
                .expect("the wait turned the acceptor");
            assert!(qp.is_connected());
        }
        assert_eq!(acceptor.accepted.lock().len(), 100);
        // Unregistered, nothing accepts: the connect times out.
        fabric.unregister_actor(id);
        assert!(matches!(
            connect_with_timeout(&client_ep, "server:actor", Duration::from_millis(5)),
            Err(FabricError::Timeout { .. })
        ));
    }

    #[test]
    fn receives_posted_on_init_are_ready_when_the_server_accepts() {
        let fabric = Fabric::with_defaults();
        let server_node = fabric.add_node("server");
        let client_node = fabric.add_node("client");
        let listener = Listener::bind(&fabric, "server:hello");
        let server_ep = Endpoint::new(&fabric, &server_node);
        let client_ep = Endpoint::new(&fabric, &client_node);
        let pool = ConnectionPool::new();
        let inbox = client_ep.pd.register(8, AccessFlags::LOCAL_ONLY);

        let server = thread::spawn(move || {
            let qp = accept(&listener, &server_ep);
            let accepted_at = server_ep.clock.now();
            let hello = qp
                .pd()
                .register_from(b"hello".to_vec(), AccessFlags::LOCAL_ONLY);
            // No retry loop: the receive was posted before the request left.
            qp.post_send(
                0,
                SendRequest::Send {
                    local: Sge::whole(&hello),
                },
                false,
            )
            .unwrap();
            (qp, accepted_at, listener)
        });
        let departed = client_ep.clock.now();
        let (qp, _warm) = connect_pooled_with(
            &client_ep,
            "server:hello",
            &pool,
            "server",
            Duration::from_secs(5),
            |qp| {
                qp.post_recv(RecvRequest {
                    wr_id: 9,
                    local: Sge::whole(&inbox),
                })
            },
        )
        .unwrap();
        let (_server_qp, accepted_at, _listener) = server.join().unwrap();
        // The server sent the hello before it was joined.
        let wc = qp.recv_cq().poll_one().unwrap();
        assert_eq!((wc.wr_id, wc.byte_len), (9, 5));
        assert_eq!(&inbox.read(0, 5).unwrap(), b"hello");
        // The accept instant is the request's departure plus propagation and
        // the server's half of the handshake — not shifted by the receive
        // the client posted (and was charged for) first.
        assert_eq!(
            accepted_at,
            departed + CX5_100G.one_way_latency + CX5_100G.connection_setup / 2
        );
        // An `on_init` error abandons the connect before anything is sent.
        let err = connect_pooled_with(
            &client_ep,
            "server:hello",
            &pool,
            "server",
            Duration::from_secs(5),
            |_| Err(FabricError::NotConnected),
        );
        assert_eq!(err.unwrap_err(), FabricError::NotConnected);
    }

    #[test]
    fn pooled_connect_charges_warm_tier_on_reuse() {
        let fabric = Fabric::with_defaults();
        let server_node = fabric.add_node("server");
        let client_node = fabric.add_node("client");
        let listener = Listener::bind(&fabric, "server:pooled");
        let server_ep = Endpoint::new(&fabric, &server_node);
        let pool = ConnectionPool::new();

        let fabric2 = Arc::clone(&fabric);
        let pool2 = pool.clone();
        let t = thread::spawn(move || {
            let ep = Endpoint::new(&fabric2, &client_node);
            let before = ep.clock.now();
            let (qp, warm) = connect_pooled(
                &ep,
                "server:pooled",
                &pool2,
                "server",
                Duration::from_secs(5),
            )
            .unwrap();
            let cold_cost = ep.clock.now().saturating_since(before);
            assert!(!warm);
            qp.disconnect();
            pool2.release("server", ep.clock.now());

            let before = ep.clock.now();
            let (qp, warm) = connect_pooled(
                &ep,
                "server:pooled",
                &pool2,
                "server",
                Duration::from_secs(5),
            )
            .unwrap();
            let warm_cost = ep.clock.now().saturating_since(before);
            assert!(warm);
            assert!(qp.is_connected());
            (cold_cost, warm_cost)
        });
        let first = accept(&listener, &server_ep);
        let server_cold = server_ep.clock.now();
        accept(&listener, &server_ep);
        let (cold_cost, warm_cost) = t.join().unwrap();
        drop(first);

        // Warm re-establishment is at least 5x cheaper on the client, and the
        // server's half-handshake share shrinks by the same tier change.
        assert!(
            warm_cost.as_nanos() * 5 <= cold_cost.as_nanos(),
            "warm {warm_cost:?} vs cold {cold_cost:?}"
        );
        assert!(server_cold.as_nanos() > 0);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn datagrams_deliver_payload_and_reply_address() {
        let fabric = Fabric::with_defaults();
        let a = fabric.add_node("ctl-a");
        let b = fabric.add_node("ctl-b");
        let ep_a = Endpoint::new(&fabric, &a);
        let ep_b = Endpoint::new(&fabric, &b);
        let sock_a = DatagramSocket::bind(&ep_a, "udp://a");
        let sock_b = DatagramSocket::bind(&ep_b, "udp://b");

        sock_a.send_to("udp://b", b"allocate 4 cores").unwrap();
        let msg = sock_b.recv().unwrap();
        assert_eq!(msg.payload, b"allocate 4 cores");
        assert_eq!(msg.from, "udp://a");
        // The receiver's clock caught up to the arrival.
        assert!(ep_b.clock.now() >= msg.arrived_at);

        // Reply through the carried address: no connection state anywhere.
        sock_b.send_to(&msg.from, b"granted").unwrap();
        let reply = sock_a.recv().unwrap();
        assert_eq!(reply.payload, b"granted");
    }

    #[test]
    fn datagram_bind_is_cheaper_than_connection_setup() {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("ctl");
        let ep = Endpoint::new(&fabric, &node);
        let before = ep.clock.now();
        let _sock = DatagramSocket::bind(&ep, "udp://ctl");
        let bind_cost = ep.clock.now().saturating_since(before);
        assert_eq!(bind_cost, CX5_100G.datagram_setup);
        assert!(bind_cost.as_nanos() * 5 <= CX5_100G.connection_setup.as_nanos());
    }

    #[test]
    fn datagram_recv_times_out_and_unknown_destination_fails() {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("ctl");
        let ep = Endpoint::new(&fabric, &node);
        let sock = DatagramSocket::bind(&ep, "udp://lonely");
        assert!(matches!(
            sock.send_to("udp://nobody", b"hello"),
            Err(FabricError::UnknownAddress(_))
        ));
        assert_eq!(
            sock.recv().unwrap_err(),
            FabricError::Timeout {
                operation: "datagram receive"
            }
        );
        assert!(sock.try_recv().is_none());
        assert_eq!(sock.pending(), 0);
    }

    #[test]
    fn dropping_datagram_socket_unbinds_address() {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("ctl");
        let ep = Endpoint::new(&fabric, &node);
        {
            let _sock = DatagramSocket::bind(&ep, "udp://temp");
            assert!(fabric.datagram("udp://temp").is_some());
        }
        assert!(fabric.datagram("udp://temp").is_none());
        // Rebinding replaces; dropping the stale socket keeps the new one.
        let first = DatagramSocket::bind(&ep, "udp://re");
        let second = DatagramSocket::bind(&ep, "udp://re");
        drop(first);
        assert!(fabric.datagram("udp://re").is_some());
        drop(second);
        assert!(fabric.datagram("udp://re").is_none());
    }
}

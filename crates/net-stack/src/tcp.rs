//! Kernel TCP/IP transport model.
//!
//! Unlike the RDMA fabric, every TCP message crosses the operating system
//! twice (sender and receiver syscalls, softirq processing, copies between
//! user and kernel buffers). The model charges those per-message overheads on
//! top of the same propagation/serialisation structure as the RDMA link, and
//! is calibrated so that a small-message request/response lands in the
//! 20–30 µs range of the paper's `netperf` baseline (Fig. 8).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sim_core::{SimDuration, SimTime, VirtualClock};

/// Cost constants of the kernel TCP/IP path.
#[derive(Debug, Clone)]
pub struct TcpProfile {
    /// One-way wire latency (propagation + switching).
    pub one_way_latency: SimDuration,
    /// Sustainable stream bandwidth in bytes per second. Kernel TCP on the
    /// same 100 Gb/s link reaches a lower goodput than RDMA because of copies
    /// and segmentation.
    pub bandwidth_bytes_per_sec: f64,
    /// Per-message cost on the sending side: syscall, copy to kernel buffers,
    /// segmentation.
    pub send_overhead: SimDuration,
    /// Per-message cost on the receiving side: interrupt, softirq, copy to
    /// user space, scheduler wake-up.
    pub recv_overhead: SimDuration,
    /// Extra copy cost per byte (user/kernel crossing), on top of wire
    /// serialisation.
    pub copy_cost_per_byte: SimDuration,
    /// TCP three-way handshake plus socket setup.
    pub connection_setup: SimDuration,
}

impl TcpProfile {
    /// Kernel TCP over the evaluation cluster's 100 Gb/s link.
    pub fn kernel_100g() -> TcpProfile {
        TcpProfile {
            one_way_latency: SimDuration::from_nanos(1_700),
            // ~5.5 GB/s goodput for a single well-tuned stream.
            bandwidth_bytes_per_sec: 5.5e9,
            send_overhead: SimDuration::from_micros(4),
            recv_overhead: SimDuration::from_micros(6),
            copy_cost_per_byte: SimDuration::from_nanos(0),
            connection_setup: SimDuration::from_micros(180),
        }
    }

    /// A wide-area path to a public-cloud region (used by the AWS Lambda
    /// baseline): millisecond-scale latency, constrained per-flow bandwidth.
    pub fn wan_to_cloud_region() -> TcpProfile {
        TcpProfile {
            one_way_latency: SimDuration::from_micros(600),
            bandwidth_bytes_per_sec: 1.2e9,
            send_overhead: SimDuration::from_micros(8),
            recv_overhead: SimDuration::from_micros(10),
            copy_cost_per_byte: SimDuration::from_nanos(0),
            connection_setup: SimDuration::from_millis(2),
        }
    }

    /// Serialisation time of `bytes` on the wire.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }

    /// Total per-byte copy cost for a message of `bytes`.
    pub fn copy_cost(&self, bytes: usize) -> SimDuration {
        self.copy_cost_per_byte.saturating_mul(bytes as u64)
    }

    /// One-way delivery time of a message of `bytes`, excluding queueing.
    pub fn one_way(&self, bytes: usize) -> SimDuration {
        self.send_overhead
            + self.copy_cost(bytes)
            + self.serialization(bytes)
            + self.one_way_latency
            + self.recv_overhead
    }

    /// Request/response round trip with the given payload sizes — the
    /// `netperf TCP_RR` shape used as the Fig. 8 baseline.
    pub fn request_response(&self, request_bytes: usize, response_bytes: usize) -> SimDuration {
        self.one_way(request_bytes) + self.one_way(response_bytes)
    }
}

impl Default for TcpProfile {
    fn default() -> Self {
        TcpProfile::kernel_100g()
    }
}

#[derive(Debug, Default)]
struct HostState {
    egress_busy_until: SimTime,
    ingress_busy_until: SimTime,
}

/// A set of hosts connected by kernel TCP/IP over a shared switch.
#[derive(Debug)]
pub struct TcpNetwork {
    profile: TcpProfile,
    hosts: Mutex<HashMap<String, Arc<Mutex<HostState>>>>,
}

impl TcpNetwork {
    /// Create a network with the given profile.
    pub fn new(profile: TcpProfile) -> Arc<TcpNetwork> {
        Arc::new(TcpNetwork {
            profile,
            hosts: Mutex::new(HashMap::new()),
        })
    }

    /// The transport profile of this network.
    pub fn profile(&self) -> &TcpProfile {
        &self.profile
    }

    fn host(&self, name: &str) -> Arc<Mutex<HostState>> {
        Arc::clone(
            self.hosts
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(HostState::default()))),
        )
    }

    /// Open a connection between two named hosts. The caller's clock is
    /// charged the TCP handshake.
    pub fn connect(
        self: &Arc<Self>,
        client_host: &str,
        server_host: &str,
        client_clock: Arc<VirtualClock>,
        server_clock: Arc<VirtualClock>,
    ) -> TcpConnection {
        client_clock.advance(self.profile.connection_setup);
        TcpConnection {
            network: Arc::clone(self),
            client_host: client_host.to_string(),
            server_host: server_host.to_string(),
            client_clock,
            server_clock,
        }
    }

    /// Deliver `bytes` from `src` to `dst`, given the sender was ready at
    /// `ready`. Returns the arrival time of the last byte, accounting
    /// per-host egress/ingress occupancy.
    pub fn transfer(&self, src: &str, dst: &str, bytes: usize, ready: SimTime) -> SimTime {
        let ser = self.profile.serialization(bytes) + self.profile.copy_cost(bytes);
        let src_state = self.host(src);
        let depart = {
            let mut s = src_state.lock();
            let start = ready.max(s.egress_busy_until);
            let end = start + ser;
            s.egress_busy_until = end;
            end
        };
        let uncontended = depart + self.profile.one_way_latency;
        let dst_state = self.host(dst);
        let mut d = dst_state.lock();
        let arrival = uncontended.max(d.ingress_busy_until + ser);
        d.ingress_busy_until = arrival;
        arrival
    }
}

/// A connected TCP byte-message channel between a client and a server actor.
///
/// The connection does not carry real bytes — the baseline platforms only
/// need delivery *times* — but it tracks both actors' virtual clocks so that
/// request/response exchanges interleave correctly with other work.
#[derive(Debug, Clone)]
pub struct TcpConnection {
    network: Arc<TcpNetwork>,
    client_host: String,
    server_host: String,
    client_clock: Arc<VirtualClock>,
    server_clock: Arc<VirtualClock>,
}

impl TcpConnection {
    /// Send `bytes` from the client to the server; both clocks advance
    /// (sender pays the send syscall, the receiver observes the arrival).
    pub fn client_send(&self, bytes: usize) -> SimTime {
        let ready = self
            .client_clock
            .advance(self.network.profile.send_overhead + self.network.profile.copy_cost(bytes));
        let arrival = self
            .network
            .transfer(&self.client_host, &self.server_host, bytes, ready);
        self.server_clock
            .advance_to_then(arrival, self.network.profile.recv_overhead)
    }

    /// Send `bytes` from the server back to the client.
    pub fn server_send(&self, bytes: usize) -> SimTime {
        let ready = self
            .server_clock
            .advance(self.network.profile.send_overhead + self.network.profile.copy_cost(bytes));
        let arrival = self
            .network
            .transfer(&self.server_host, &self.client_host, bytes, ready);
        self.client_clock
            .advance_to_then(arrival, self.network.profile.recv_overhead)
    }

    /// Full request/response exchange initiated by the client, with the
    /// server spending `server_work` between receiving the request and
    /// sending the response. Returns the client-observed completion time.
    pub fn request_response(
        &self,
        request_bytes: usize,
        response_bytes: usize,
        server_work: SimDuration,
    ) -> SimTime {
        self.client_send(request_bytes);
        self.server_clock.advance(server_work);
        self.server_send(response_bytes)
    }

    /// The client-side virtual clock.
    pub fn client_clock(&self) -> &Arc<VirtualClock> {
        &self.client_clock
    }

    /// The server-side virtual clock.
    pub fn server_clock(&self) -> &Arc<VirtualClock> {
        &self.server_clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_rtt_matches_netperf_range() {
        let p = TcpProfile::kernel_100g();
        let rtt = p.request_response(64, 64).as_micros_f64();
        assert!((15.0..35.0).contains(&rtt), "TCP RTT was {rtt} us");
    }

    #[test]
    fn tcp_is_slower_than_rdma_for_small_messages() {
        let tcp = TcpProfile::kernel_100g().request_response(64, 64);
        // The RDMA fabric's small-message RTT is ~3.7 us.
        assert!(tcp.as_micros_f64() > 3.0 * 3.7);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let p = TcpProfile::kernel_100g();
        let t = p.one_way(64 * 1024 * 1024).as_millis_f64();
        // 64 MiB at ~5.5 GB/s ≈ 12 ms.
        assert!((10.0..16.0).contains(&t), "64 MiB one-way took {t} ms");
    }

    #[test]
    fn wan_profile_is_slower_than_cluster() {
        let lan = TcpProfile::kernel_100g();
        let wan = TcpProfile::wan_to_cloud_region();
        assert!(wan.request_response(1024, 1024) > lan.request_response(1024, 1024));
        assert!(wan.connection_setup > lan.connection_setup);
    }

    #[test]
    fn connection_charges_handshake_and_moves_clocks() {
        let net = TcpNetwork::new(TcpProfile::kernel_100g());
        let client = VirtualClock::shared();
        let server = VirtualClock::shared();
        let conn = net.connect("client", "server", Arc::clone(&client), Arc::clone(&server));
        assert_eq!(
            client.now().as_nanos(),
            net.profile().connection_setup.as_nanos()
        );
        let done = conn.request_response(1024, 1024, SimDuration::from_micros(100));
        assert!(done > client.now() - SimDuration::from_nanos(1));
        assert!(server.now() > SimTime::ZERO);
        // Client observes the full round trip including the server work.
        assert!(client.now().as_micros_f64() > 100.0);
    }

    #[test]
    fn network_transfers_serialise_on_shared_hosts() {
        let net = TcpNetwork::new(TcpProfile::kernel_100g());
        let bytes = 16 * 1024 * 1024;
        let a1 = net.transfer("a", "b", bytes, SimTime::ZERO);
        let a2 = net.transfer("a", "c", bytes, SimTime::ZERO);
        assert!(a2 > a1, "second flow must queue behind the first on egress");
    }

    #[test]
    fn zero_byte_messages_have_zero_serialization() {
        let p = TcpProfile::default();
        assert!(p.serialization(0).is_zero());
        assert!(p.one_way(0) >= p.one_way_latency);
    }
}

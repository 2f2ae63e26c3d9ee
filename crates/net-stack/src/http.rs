//! HTTP/REST request cost model.
//!
//! Serverless platforms expose functions behind HTTP gateways and REST
//! triggers (Fig. 3 of the paper). An invocation therefore pays, on top of
//! TCP: TLS record processing, HTTP parsing, routing in the gateway, and the
//! JSON/base64 payload encoding modelled in [`crate::encoding`]. The
//! [`HttpExchange`] helper composes those pieces into the request/response
//! time that the baseline platform models consume.

use sim_core::SimDuration;

use crate::encoding::EncodingCost;
use crate::tcp::TcpProfile;

/// Cost constants of an HTTP/1.1 + JSON API layer.
#[derive(Debug, Clone)]
pub struct HttpProfile {
    /// Underlying TCP transport.
    pub tcp: TcpProfile,
    /// Payload encoding costs (base64 + JSON).
    pub encoding: EncodingCost,
    /// Fixed per-request cost of HTTP parsing and routing at the server.
    pub server_http_overhead: SimDuration,
    /// Fixed per-request cost of building/parsing HTTP messages at the client.
    pub client_http_overhead: SimDuration,
    /// TLS record protection per byte (0 disables TLS).
    pub tls_per_byte: SimDuration,
    /// Whether payloads must be base64/JSON wrapped (true for public FaaS
    /// APIs, false for internal RPC such as Nightcore's protocol).
    pub json_payloads: bool,
}

impl HttpProfile {
    /// An HTTP gateway inside the cluster (OpenWhisk-style deployment).
    pub fn cluster_gateway() -> HttpProfile {
        HttpProfile {
            tcp: TcpProfile::kernel_100g(),
            encoding: EncodingCost::typical_core(),
            server_http_overhead: SimDuration::from_micros(120),
            client_http_overhead: SimDuration::from_micros(60),
            tls_per_byte: SimDuration::ZERO,
            json_payloads: true,
        }
    }

    /// A public-cloud HTTPS endpoint (AWS Lambda-style deployment).
    pub fn public_cloud() -> HttpProfile {
        HttpProfile {
            tcp: TcpProfile::wan_to_cloud_region(),
            encoding: EncodingCost::typical_core(),
            server_http_overhead: SimDuration::from_micros(250),
            client_http_overhead: SimDuration::from_micros(120),
            tls_per_byte: SimDuration::from_nanos(1),
            json_payloads: true,
        }
    }

    /// A lightweight RPC protocol over TCP (Nightcore-style): binary
    /// payloads, minimal framing.
    pub fn binary_rpc() -> HttpProfile {
        HttpProfile {
            tcp: TcpProfile::kernel_100g(),
            encoding: EncodingCost {
                envelope_overhead: SimDuration::from_micros(2),
                encode_per_byte: SimDuration::ZERO,
                decode_per_byte: SimDuration::ZERO,
                json_per_byte: SimDuration::ZERO,
            },
            server_http_overhead: SimDuration::from_micros(8),
            client_http_overhead: SimDuration::from_micros(4),
            tls_per_byte: SimDuration::ZERO,
            json_payloads: false,
        }
    }

    /// Number of bytes that actually cross the wire for a binary payload of
    /// `raw_bytes`.
    pub fn wire_bytes(&self, raw_bytes: usize) -> usize {
        if self.json_payloads {
            self.encoding.wire_size(raw_bytes)
        } else {
            raw_bytes + 64
        }
    }
}

impl Default for HttpProfile {
    fn default() -> Self {
        HttpProfile::cluster_gateway()
    }
}

/// One HTTP request/response exchange between a client and a server hop.
#[derive(Debug, Clone)]
pub struct HttpExchange<'a> {
    profile: &'a HttpProfile,
}

impl<'a> HttpExchange<'a> {
    /// Create an exchange calculator over `profile`.
    pub fn new(profile: &'a HttpProfile) -> HttpExchange<'a> {
        HttpExchange { profile }
    }

    /// Client-side cost of preparing a request carrying `raw_bytes` of binary
    /// payload (encoding + HTTP framing + TLS).
    pub fn client_prepare(&self, raw_bytes: usize) -> SimDuration {
        let p = self.profile;
        let encode = if p.json_payloads {
            p.encoding.encode_request(raw_bytes)
        } else {
            p.encoding.envelope_overhead
        };
        encode
            + p.client_http_overhead
            + p.tls_per_byte
                .saturating_mul(self.profile.wire_bytes(raw_bytes) as u64)
    }

    /// Server-side cost of parsing a request carrying `raw_bytes` of payload.
    pub fn server_parse(&self, raw_bytes: usize) -> SimDuration {
        let p = self.profile;
        let decode = if p.json_payloads {
            p.encoding.decode_request(raw_bytes)
        } else {
            SimDuration::ZERO
        };
        decode + p.server_http_overhead
    }

    /// End-to-end latency of a full request/response exchange with binary
    /// payloads of `request_bytes` and `response_bytes`, where the server
    /// spends `server_work` handling the request. Single hop, no queueing.
    pub fn round_trip(
        &self,
        request_bytes: usize,
        response_bytes: usize,
        server_work: SimDuration,
    ) -> SimDuration {
        let p = self.profile;
        let request_wire = p.wire_bytes(request_bytes);
        let response_wire = p.wire_bytes(response_bytes);
        self.client_prepare(request_bytes)
            + p.tcp.one_way(request_wire)
            + self.server_parse(request_bytes)
            + server_work
            + self.client_prepare(response_bytes) // server-side encoding of the response
            + p.tcp.one_way(response_wire)
            + self.server_parse(response_bytes) // client-side decoding of the response
    }

    /// Effective goodput (original payload bytes per second) of repeatedly
    /// pushing `raw_bytes` payloads through this exchange.
    pub fn goodput_bytes_per_sec(&self, raw_bytes: usize) -> f64 {
        let t = self.round_trip(raw_bytes, raw_bytes, SimDuration::ZERO);
        2.0 * raw_bytes as f64 / t.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_wrapping_expands_wire_size() {
        let p = HttpProfile::cluster_gateway();
        assert!(p.wire_bytes(3_000_000) > 4_000_000);
        let rpc = HttpProfile::binary_rpc();
        assert!(rpc.wire_bytes(3_000_000) < 3_001_000);
    }

    #[test]
    fn http_round_trip_is_orders_of_magnitude_above_rdma() {
        let p = HttpProfile::cluster_gateway();
        let x = HttpExchange::new(&p);
        let rtt = x.round_trip(1024, 1024, SimDuration::ZERO);
        // RDMA achieves ~4 us; even an in-cluster HTTP hop is > 50 us.
        assert!(rtt.as_micros_f64() > 50.0, "HTTP RTT was {rtt}");
    }

    #[test]
    fn binary_rpc_is_faster_than_json_http() {
        let json = HttpProfile::cluster_gateway();
        let rpc = HttpProfile::binary_rpc();
        let payload = 128 * 1024;
        let t_json = HttpExchange::new(&json).round_trip(payload, payload, SimDuration::ZERO);
        let t_rpc = HttpExchange::new(&rpc).round_trip(payload, payload, SimDuration::ZERO);
        assert!(t_rpc < t_json);
    }

    #[test]
    fn public_cloud_pays_wan_latency() {
        let wan = HttpProfile::public_cloud();
        let lan = HttpProfile::cluster_gateway();
        let t_wan = HttpExchange::new(&wan).round_trip(1024, 1024, SimDuration::ZERO);
        let t_lan = HttpExchange::new(&lan).round_trip(1024, 1024, SimDuration::ZERO);
        assert!(t_wan > t_lan);
    }

    #[test]
    fn goodput_saturates_below_link_bandwidth() {
        let p = HttpProfile::cluster_gateway();
        let x = HttpExchange::new(&p);
        let goodput = x.goodput_bytes_per_sec(5 * 1024 * 1024);
        // JSON + base64 + TCP copies keep goodput well below the 12 GB/s link.
        assert!(goodput < 4.0e9, "goodput {goodput}");
        assert!(goodput > 1.0e8);
    }

    #[test]
    fn larger_payloads_cost_more() {
        let p = HttpProfile::cluster_gateway();
        let x = HttpExchange::new(&p);
        let small = x.round_trip(1024, 1024, SimDuration::ZERO);
        let large = x.round_trip(5 * 1024 * 1024, 5 * 1024 * 1024, SimDuration::ZERO);
        assert!(large > small * 20);
    }
}

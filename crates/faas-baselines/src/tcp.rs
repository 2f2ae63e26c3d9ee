//! Kernel TCP/IP round trip: the `netperf` baseline of Fig. 8.
//!
//! Unlike the RDMA fabric, every TCP message crosses the operating system
//! twice (sender and receiver syscalls, softirq processing, copies between
//! user and kernel buffers). The profile charges those per-message overheads
//! on top of the same propagation/serialisation structure as the RDMA link
//! (whose one-way latency it shares: one switch), and is calibrated so that
//! a small-message request/response lands in the 20–30 µs range of the
//! paper's `netperf` baseline.

use rdma_fabric::CX5_100G;
use sim_core::SimDuration;

/// Cost constants of the kernel TCP/IP path.
///
/// [`KERNEL_100G`] is the one profile, a `static`. As with
/// `rdma_fabric::NicProfile`, a private field keeps every other profile out
/// of code outside this module, and no copy or clone can be made. Each of
/// these fails to compile:
///
/// ```compile_fail,E0451
/// use faas_baselines::{tcp::TcpProfile, KERNEL_100G};
/// // A literal: it needs the private field, written or updated from another.
/// let tcp = TcpProfile { send_overhead: KERNEL_100G.recv_overhead, ..KERNEL_100G };
/// ```
///
/// ```compile_fail,E0507
/// use faas_baselines::{tcp::TcpProfile, KERNEL_100G};
/// // A copy, into a binding, a field or a by-value parameter.
/// let tcp: TcpProfile = KERNEL_100G;
/// ```
///
/// ```compile_fail,E0599
/// use faas_baselines::KERNEL_100G;
/// // A clone.
/// let tcp = KERNEL_100G.clone();
/// ```
#[derive(Debug)]
#[expect(
    clippy::manual_non_exhaustive,
    reason = "`#[non_exhaustive]` would still admit a literal in this crate's other modules"
)]
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
    /// Private: no profile is written outside this module.
    _one_home: (),
}

/// Kernel TCP over the evaluation cluster's 100 Gb/s link.
pub static KERNEL_100G: TcpProfile = TcpProfile {
    one_way_latency: CX5_100G.one_way_latency,
    // ~5.5 GB/s goodput for a single well-tuned stream.
    bandwidth_bytes_per_sec: 5.5e9,
    send_overhead: SimDuration::from_micros(4),
    recv_overhead: SimDuration::from_micros(6),
    _one_home: (),
};

impl TcpProfile {
    /// Serialisation time of `bytes` on the wire.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }

    /// One-way delivery time of a message of `bytes`, excluding queueing.
    fn one_way(&self, bytes: usize) -> SimDuration {
        self.send_overhead + self.serialization(bytes) + self.one_way_latency + self.recv_overhead
    }

    /// Request/response round trip with the given payload sizes — the
    /// `netperf TCP_RR` shape used as the Fig. 8 baseline.
    pub fn request_response(&self, request_bytes: usize, response_bytes: usize) -> SimDuration {
        self.one_way(request_bytes) + self.one_way(response_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_rtt_matches_netperf_range() {
        let p = &KERNEL_100G;
        let rtt = p.request_response(64, 64).as_micros_f64();
        assert!((15.0..35.0).contains(&rtt), "TCP RTT was {rtt} us");
    }

    #[test]
    fn tcp_is_slower_than_rdma_for_small_messages() {
        let tcp = KERNEL_100G.request_response(64, 64);
        // The RDMA fabric's small-message RTT is ~3.7 us.
        assert!(tcp.as_micros_f64() > 3.0 * 3.7);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let p = &KERNEL_100G;
        let t = p.one_way(64 * 1024 * 1024).as_millis_f64();
        // 64 MiB at ~5.5 GB/s ≈ 12 ms.
        assert!((10.0..16.0).contains(&t), "64 MiB one-way took {t} ms");
    }

    #[test]
    fn zero_byte_messages_have_zero_serialization() {
        let p = &KERNEL_100G;
        assert!(p.serialization(0).is_zero());
        assert!(p.one_way(0) >= p.one_way_latency);
    }
}

//! NIC device profiles and the calibrated cost model.
//!
//! A [`NicProfile`] collects every latency/bandwidth constant of the software
//! fabric. The one profile, [`CX5_100G`], is calibrated against the numbers
//! the paper reports for its evaluation cluster (Sec. V, "Platform"):
//!
//! * Mellanox MT27800, 100 Gb/s RoCEv2 link,
//! * measured RTT of 3.69 µs for small messages (`ib_write_lat`),
//! * measured bandwidth of 11 686.4 MiB/s,
//! * message inlining effective up to 128 bytes,
//! * blocking completion waits several microseconds slower than busy polling,
//! * SR-IOV virtual functions add ~50 ns (hot) / ~650 ns (warm) per invocation.
//!
//! Every charge reads [`CX5_100G`] where it is made: no fabric, queue pair or
//! plan keeps a copy of it. The type holds that rule (see [`NicProfile`]).

use sim_core::SimDuration;

/// Calibrated performance profile of an RDMA NIC and its link.
///
/// [`CX5_100G`] is the one profile, a `static`: code reads it in place or
/// borrows it as `&'static NicProfile`. A private field keeps every other
/// profile out of code outside this module, and with no `Clone` and no
/// `const` no copy can be made either. Each of these fails to compile:
///
/// ```compile_fail,E0451
/// use rdma_fabric::{NicProfile, CX5_100G};
/// // A literal: it needs the private field, written or updated from another.
/// let nic = NicProfile { max_inline_data: 256, ..CX5_100G };
/// ```
///
/// ```compile_fail,E0507
/// use rdma_fabric::{NicProfile, CX5_100G};
/// // A copy, into a binding, a field or a by-value parameter.
/// let nic: NicProfile = CX5_100G;
/// ```
///
/// ```compile_fail,E0599
/// use rdma_fabric::CX5_100G;
/// // A clone.
/// let nic = CX5_100G.clone();
/// ```
#[derive(Debug)]
#[expect(
    clippy::manual_non_exhaustive,
    reason = "`#[non_exhaustive]` would still admit a literal in this crate's other modules"
)]
pub struct NicProfile {
    /// One-way propagation + switching latency of the link.
    pub one_way_latency: SimDuration,
    /// Sustainable link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Cost of building a WQE and ringing the doorbell on `post_send`.
    pub post_send_overhead: SimDuration,
    /// Cost of each *additional* WQE in a doorbell-batched post: the chain
    /// shares one doorbell write, so follow-up WQEs only pay the descriptor
    /// build, not the MMIO.
    pub chained_wqe_overhead: SimDuration,
    /// Cost of posting a receive work request.
    pub post_recv_overhead: SimDuration,
    /// Largest payload that can be inlined into the WQE.
    pub max_inline_data: usize,
    /// Extra DMA-fetch cost paid when a payload is *not* inlined.
    pub non_inline_dma_fetch: SimDuration,
    /// Cost of consuming one CQE with busy polling.
    pub completion_pickup: SimDuration,
    /// Extra latency of a blocking (event-based) completion wait: interrupt
    /// generation, scheduler wake-up and cache refill.
    pub blocking_wakeup: SimDuration,
    /// Serialisation cost per blocking notification on the shared event
    /// channel of one node; concurrent blocking waiters contend on this
    /// ("contention on RDMA notifications", Fig. 10).
    pub notification_dispatch: SimDuration,
    /// Execution time of a remote atomic at the target NIC.
    pub atomic_execution: SimDuration,
    /// Latency to generate the initiator-side CQE once the last byte left.
    pub local_completion: SimDuration,
    /// Reliable-connection establishment cost (QP transition + CM handshake).
    pub connection_setup: SimDuration,
    /// Re-establishment cost of a *warm* reliable connection: the peers have
    /// exchanged QP attributes before, cached path records and pinned pages
    /// survive in the pool, so only the state-machine transition is paid.
    pub warm_connection_setup: SimDuration,
    /// Setup cost of an unreliable-datagram style endpoint (UD/DC): no
    /// per-peer handshake, one address-handle creation — the cheap
    /// first-contact transport for control-plane traffic.
    pub datagram_setup: SimDuration,
    /// Per-message overhead added by an SR-IOV virtual function (each
    /// direction) when the executor runs inside a container.
    pub vf_message_overhead: SimDuration,
    /// Additional blocking-wakeup penalty when interrupts are routed through
    /// a virtual function.
    pub vf_blocking_extra: SimDuration,
    /// Maximum number of outstanding receive work requests per QP.
    pub max_recv_queue_depth: usize,
    /// Private: no profile is written outside this module.
    _one_home: (),
}

/// The profile calibrated to the paper's evaluation cluster: ConnectX-5
/// (MT27800) with a 100 Gb/s RoCEv2 link.
pub static CX5_100G: NicProfile = NicProfile {
    // 2 * (0.08 post + 1.70 one-way + 0.065 pickup)
    // ≈ 3.69 µs RTT for small inlined writes.
    one_way_latency: SimDuration::from_nanos(1_700),
    // 11 686.4 MiB/s measured by the paper.
    bandwidth_bytes_per_sec: 11_686.4 * 1024.0 * 1024.0,
    post_send_overhead: SimDuration::from_nanos(80),
    chained_wqe_overhead: SimDuration::from_nanos(25),
    post_recv_overhead: SimDuration::from_nanos(60),
    max_inline_data: 128,
    non_inline_dma_fetch: SimDuration::from_nanos(300),
    completion_pickup: SimDuration::from_nanos(65),
    blocking_wakeup: SimDuration::from_nanos(3_800),
    notification_dispatch: SimDuration::from_nanos(550),
    atomic_execution: SimDuration::from_nanos(120),
    local_completion: SimDuration::from_nanos(100),
    connection_setup: SimDuration::from_micros(450),
    warm_connection_setup: SimDuration::from_micros(45),
    datagram_setup: SimDuration::from_micros(18),
    vf_message_overhead: SimDuration::from_nanos(25),
    vf_blocking_extra: SimDuration::from_nanos(600),
    max_recv_queue_depth: 1024,
    _one_home: (),
};

impl NicProfile {
    /// Serialisation time of `bytes` on this link.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }

    /// Whether a payload of `bytes` can be inlined into the work request.
    fn can_inline(&self, bytes: usize) -> bool {
        bytes <= self.max_inline_data
    }

    /// Initiator-side cost of issuing a send-queue operation for `bytes` of
    /// payload: WQE build + doorbell, plus the DMA fetch if not inlined.
    pub fn issue_cost(&self, bytes: usize) -> SimDuration {
        if self.can_inline(bytes) {
            self.post_send_overhead
        } else {
            self.post_send_overhead + self.non_inline_dma_fetch
        }
    }

    /// Issue cost of a WQE that rides an earlier doorbell (position > 0 in a
    /// batched post): descriptor build plus the DMA fetch if not inlined, but
    /// no doorbell MMIO of its own.
    pub fn issue_cost_chained(&self, bytes: usize) -> SimDuration {
        if self.can_inline(bytes) {
            self.chained_wqe_overhead
        } else {
            self.chained_wqe_overhead + self.non_inline_dma_fetch
        }
    }

    /// Cost of a batched prefetch window: `pages` page READs posted as one
    /// chained batch (one doorbell, one shared round trip, back-to-back
    /// serialisation), amortising the per-fault overhead that makes
    /// page-at-a-time faulting expensive.
    pub fn fork_read_cost(&self, pages: usize, page_bytes: usize) -> SimDuration {
        if pages == 0 || page_bytes == 0 {
            return SimDuration::ZERO;
        }
        // READs carry no payload outbound, so nothing inlines: every WQE
        // pays its descriptor DMA fetch.
        self.post_send_overhead
            + self.non_inline_dma_fetch
            + (self.chained_wqe_overhead + self.non_inline_dma_fetch) * (pages as u64 - 1)
            + self.serialization(pages * page_bytes)
            + self.one_way_latency * 2
            + self.completion_pickup
    }

    /// Expected uncontended round-trip time of a write ping-pong with
    /// payloads of `bytes` in each direction — the `ib_write_lat` baseline the
    /// paper compares against in Fig. 8.
    pub fn write_pingpong_rtt(&self, bytes: usize) -> SimDuration {
        let one_way = self.issue_cost(bytes)
            + self.serialization(bytes)
            + self.one_way_latency
            + self.completion_pickup;
        one_way * 2
    }

    /// Cost of fetching `bytes` of state with a single one-sided READ from
    /// the owner node: issue the READ (no outbound payload, so the WQE always
    /// pays its descriptor DMA fetch), a full round trip, the value streaming
    /// back, and the initiator-side completion pickup. The owner's CPU is
    /// never involved — the property the state plane's hot-key path relies
    /// on.
    pub fn state_read_cost(&self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        self.post_send_overhead
            + self.non_inline_dma_fetch
            + self.serialization(bytes)
            + self.one_way_latency * 2
            + self.completion_pickup
    }

    /// Cost of pushing `bytes` of state to the owner node with a one-sided
    /// Write: issue (inlined when small), stream the value out, one-way
    /// propagation, and the local CQE once the last byte left. No remote
    /// completion is awaited — push-model puts are fire-and-forget on the
    /// data path, with ordering recovered on the control path.
    pub fn state_write_cost(&self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        self.issue_cost(bytes)
            + self.serialization(bytes)
            + self.one_way_latency
            + self.local_completion
    }
}

/// Whether an endpoint attaches to the NIC's physical function or to an
/// SR-IOV virtual function passed into a container (Sec. III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFunction {
    /// Bare-metal access to the physical function.
    Physical,
    /// Containerised access through an SR-IOV virtual function.
    Virtual,
}

impl DeviceFunction {
    /// Per-message overhead of this function type.
    pub(crate) fn message_overhead(self) -> SimDuration {
        match self {
            DeviceFunction::Physical => SimDuration::ZERO,
            DeviceFunction::Virtual => CX5_100G.vf_message_overhead,
        }
    }

    /// Extra blocking-wakeup penalty of this function type.
    pub(crate) fn blocking_extra(self) -> SimDuration {
        match self {
            DeviceFunction::Physical => SimDuration::ZERO,
            DeviceFunction::Virtual => CX5_100G.vf_blocking_extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::PAGE_SIZE;

    #[test]
    fn default_profile_matches_paper_rtt() {
        let p = &CX5_100G;
        // Paper: 3.69 us RTT for small messages.
        let rtt = p.write_pingpong_rtt(8).as_micros_f64();
        assert!((rtt - 3.69).abs() < 0.15, "small-message RTT was {rtt} us");
    }

    #[test]
    fn bandwidth_matches_paper() {
        let p = &CX5_100G;
        // 1 MiB should serialize in roughly 1/11686 s ≈ 85.6 us.
        let t = p.serialization(1024 * 1024).as_micros_f64();
        assert!((t - 85.6).abs() < 2.0, "1 MiB serialization was {t} us");
        assert!(p.serialization(0).is_zero());
    }

    #[test]
    fn inline_threshold_behaviour() {
        let p = &CX5_100G;
        assert!(p.can_inline(128));
        assert!(!p.can_inline(129));
        assert!(p.issue_cost(64) < p.issue_cost(256));
        // The non-inline penalty is the paper's ~300 ns 128-byte anomaly.
        let delta = p.issue_cost(256).saturating_sub(p.issue_cost(64));
        assert_eq!(delta, p.non_inline_dma_fetch);
    }

    #[test]
    fn chained_wqes_are_cheaper_than_doorbells() {
        let p = &CX5_100G;
        assert!(p.issue_cost_chained(8) < p.issue_cost(8));
        // The DMA-fetch penalty still applies to chained non-inline WQEs.
        assert_eq!(
            p.issue_cost_chained(1 << 20)
                .saturating_sub(p.issue_cost_chained(8)),
            p.non_inline_dma_fetch
        );
    }

    #[test]
    fn rtt_grows_with_payload() {
        let p = &CX5_100G;
        let small = p.write_pingpong_rtt(8);
        let large = p.write_pingpong_rtt(1024 * 1024);
        assert!(large > small * 10);
    }

    #[test]
    fn virtual_function_adds_overhead() {
        assert!(DeviceFunction::Physical.message_overhead().is_zero());
        assert!(!DeviceFunction::Virtual.message_overhead().is_zero());
        assert!(
            DeviceFunction::Virtual.blocking_extra() > DeviceFunction::Physical.blocking_extra()
        );
    }

    #[test]
    fn connection_setup_tiers_are_ordered() {
        // Full RC handshake ≫ warm re-establishment ≫ datagram first contact:
        // the spread the connection pool and the control-plane datagram path
        // amortise.
        let p = &CX5_100G;
        assert!(p.warm_connection_setup * 5 <= p.connection_setup);
        assert!(p.datagram_setup < p.warm_connection_setup);
    }

    #[test]
    fn state_access_tiers_are_ordered() {
        let p = &CX5_100G;
        // A one-sided read pays two one-way latencies, a push-model write
        // only one: the read can never be cheaper than the write of the
        // same value.
        for bytes in [64usize, 4096, 1 << 20] {
            assert!(p.state_read_cost(bytes) > p.state_write_cost(bytes));
        }
        // A one-sided read beats a full write ping-pong of the same
        // payload once the value outgrows inlining — the
        // copy-in/copy-out baseline pays that ping-pong per invocation.
        for bytes in [4096usize, 1 << 20] {
            assert!(p.state_read_cost(bytes) < p.write_pingpong_rtt(bytes));
        }
        assert!(p.state_read_cost(0).is_zero());
        assert!(p.state_write_cost(0).is_zero());
        // Large values are bandwidth-bound: doubling the value roughly
        // doubles the wire time.
        let one = p.state_read_cost(1 << 20);
        let two = p.state_read_cost(2 << 20);
        assert!(two > one);
        assert!(two < one * 3);
    }

    #[test]
    fn empty_map_costs_nothing() {
        assert!(CX5_100G.fork_read_cost(0, PAGE_SIZE).is_zero());
        assert!(CX5_100G.fork_read_cost(32, 0).is_zero());
    }

    #[test]
    fn batching_amortises_the_per_page_overhead() {
        let one_by_one = CX5_100G.fork_read_cost(1, PAGE_SIZE) * 32;
        let batched = CX5_100G.fork_read_cost(32, PAGE_SIZE);
        assert!(
            batched < one_by_one,
            "batched window must beat page-at-a-time faulting"
        );
        // The batch still pays full serialisation for every page: it can
        // never be cheaper than the wire time alone.
        assert!(batched > CX5_100G.serialization(32 * PAGE_SIZE));
        // A short tail window is cheaper than a full one.
        assert!(CX5_100G.fork_read_cost(2, PAGE_SIZE) < batched);
    }

    #[test]
    fn fault_residue_is_microseconds_on_the_evaluation_nic() {
        // A minimal executor image (130 pages: four 32-page windows and a
        // 2-page tail) must fault in within a handful of invocations' worth
        // of µs — the fork tier's residue, not a second cold start.
        let window = CX5_100G.fork_read_cost(32, PAGE_SIZE);
        let total = (window * 4 + CX5_100G.fork_read_cost(2, PAGE_SIZE)).as_micros_f64();
        assert!(
            (20.0..500.0).contains(&total),
            "full fault-in {total} µs should be µs-scale"
        );
        let batch = window.as_micros_f64();
        assert!(
            batch < 100.0,
            "one window {batch} µs stays well under 100 µs"
        );
    }
}

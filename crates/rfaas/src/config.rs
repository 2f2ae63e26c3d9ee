//! Platform configuration and calibrated rFaaS-specific costs.

use sim_core::SimDuration;

/// How an executor worker waits for invocations (Sec. III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollingMode {
    /// Busy-poll the completion queue: ~300 ns invocation overhead, but the
    /// worker occupies its CPU core and the hot-poll time is billed.
    Hot,
    /// Block on completion events: the CPU is released between invocations at
    /// the price of several microseconds of wake-up latency.
    Warm,
    /// Busy-poll after each execution, but fall back to blocking after the
    /// configured hot-poll timeout elapses without a new request.
    Adaptive,
}

/// Cost constants of the rFaaS data path and control plane, calibrated
/// against Sec. V of the paper.
#[derive(Debug, Clone)]
pub struct RFaasConfig {
    /// Executor-side cost of parsing the invocation header, locating the
    /// function and setting up its arguments. Together with the result
    /// write-back this is the ~300 ns hot-invocation overhead of Fig. 8.
    pub dispatch_cost: SimDuration,
    /// Client-side cost of filling the 12-byte invocation header and
    /// book-keeping the invocation id.
    pub header_write_cost: SimDuration,
    /// Manager-side processing of one allocation request (lease lookup,
    /// placement decision, accounting record).
    pub allocation_processing_cost: SimDuration,
    /// Client-side cost of serialising and submitting the allocation request.
    pub allocation_submit_cost: SimDuration,
    /// *Virtual-time* window an adaptive worker busy-polls after serving a
    /// request before rolling back to a blocking wait (the "configurable
    /// time without a new invocation" of Sec. III-C). Compared against the
    /// next completion's virtual timestamp, so the spin-vs-block billing
    /// decision is deterministic across runs.
    pub hot_poll_fallback: SimDuration,
    /// Wall-clock deadline for establishing a worker connection (and for the
    /// executor's hello that follows). A peer that never answers surfaces a
    /// typed timeout error instead of hanging the client forever.
    pub connect_timeout: std::time::Duration,
    /// *Virtual-time* budget a hot worker spins without a new invocation
    /// before demoting itself to warm (Sec. III-C: hot executors poll "for a
    /// configurable amount of time" and then release the core). The demotion
    /// caps the hot-polling bill at this budget and makes the next invocation
    /// pay the warm wake-up path. `SimDuration::ZERO` disables demotion.
    pub hot_poll_timeout: SimDuration,
    /// Maximum payload bytes a single invocation may carry (the executor
    /// registers an input buffer of this size per worker).
    pub max_payload_bytes: usize,
    /// Number of invocations a worker keeps pre-posted receives for.
    pub recv_queue_depth: usize,
    /// Manager-side processing of one lease-renewal request. Renewal touches
    /// only the lease record (no placement decision), so the paper's
    /// allocation-processing budget is the upper bound; clients pay this cost
    /// on every `extend_lease` round trip.
    pub lease_renewal_cost: SimDuration,
    /// Heartbeat interval between allocators and the resource manager: each
    /// live spot executor emits one heartbeat per interval and the lifecycle
    /// driver records it (Sec. III-B failure detection).
    pub heartbeat_interval: SimDuration,
    /// Silence after which the manager declares an executor failed,
    /// deregisters it and marks its leases terminated. Must be a small
    /// multiple of `heartbeat_interval` to tolerate jittered heartbeats.
    pub heartbeat_timeout: SimDuration,
    /// Idle time after which an executor process is reclaimed.
    pub executor_idle_timeout: SimDuration,
    /// Max parked warm parents per `(SandboxType, package)` key in each
    /// executor's warm pool. Zero disables warm pooling entirely: every
    /// deallocation tears its sandbox down and every allocation cold-spawns,
    /// which is the paper's baseline behaviour.
    pub warm_pool_capacity: usize,
    /// Idle age after which a parked warm parent is evicted from the pool
    /// (and its sandbox finally torn down).
    pub warm_pool_idle_timeout: SimDuration,
    /// Pages fetched per remote-fork fault: one chained one-sided READ batch
    /// from the parent node serves this many consecutive snapshot pages.
    pub fork_prefetch_window: usize,
    /// Size of the pre-registered state-cache region each state-plane client
    /// (session side and executor side) carves hot values out of. Values
    /// larger than this cannot be served zero-copy.
    pub state_cache_bytes: usize,
    /// Billing rate per (GiB × second) of leased memory.
    pub price_allocation: f64,
    /// Billing rate per second of active computation.
    pub price_compute: f64,
    /// Billing rate per second of hot polling.
    pub price_hot_polling: f64,
}

impl RFaasConfig {
    /// Configuration matching the paper's evaluation platform.
    pub fn paper_calibration() -> RFaasConfig {
        RFaasConfig {
            dispatch_cost: SimDuration::from_nanos(200),
            header_write_cost: SimDuration::from_nanos(30),
            allocation_processing_cost: SimDuration::from_micros(700),
            allocation_submit_cost: SimDuration::from_micros(500),
            hot_poll_fallback: SimDuration::from_millis(50),
            connect_timeout: std::time::Duration::from_secs(10),
            hot_poll_timeout: SimDuration::from_millis(100),
            max_payload_bytes: 8 * 1024 * 1024,
            recv_queue_depth: 16,
            lease_renewal_cost: SimDuration::from_micros(700),
            heartbeat_interval: SimDuration::from_secs(5),
            heartbeat_timeout: SimDuration::from_secs(15),
            executor_idle_timeout: SimDuration::from_secs(60),
            // Warm pooling is opt-in: the paper's evaluation always pays the
            // full cold spawn, so the calibrated default keeps the pool off.
            warm_pool_capacity: 0,
            warm_pool_idle_timeout: SimDuration::from_secs(120),
            fork_prefetch_window: 32,
            // Matches the default per-worker payload ceiling: any value that
            // could ride an invocation can also live in the cache.
            state_cache_bytes: 16 * 1024 * 1024,
            // Prices follow the provisioned-function model of Sec. IV-C: hot
            // polling is billed like active compute, memory allocation is an
            // order of magnitude cheaper.
            price_allocation: 0.02,
            price_compute: 0.20,
            price_hot_polling: 0.20,
        }
    }
}

impl Default for RFaasConfig {
    fn default() -> Self {
        RFaasConfig::paper_calibration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibration_is_sane() {
        let c = RFaasConfig::paper_calibration();
        // The rFaaS processing overhead must stay in the nanosecond range —
        // it is the core claim of the paper.
        assert!(c.dispatch_cost.as_nanos() < 1_000);
        assert!(c.header_write_cost.as_nanos() < 100);
        assert!(c.max_payload_bytes >= 5 * 1024 * 1024);
        assert!(c.recv_queue_depth >= 1);
        // Connect attempts must give up eventually, but not so fast that a
        // loaded test box produces spurious timeouts.
        assert!(c.connect_timeout >= std::time::Duration::from_secs(1));
    }

    #[test]
    fn lease_lifecycle_knobs_are_consistent() {
        let c = RFaasConfig::paper_calibration();
        // Renewal is a control-plane round trip bounded by the allocation
        // processing budget.
        assert!(c.lease_renewal_cost <= c.allocation_processing_cost);
        // The failure detector must tolerate at least two missed heartbeats.
        assert!(c.heartbeat_timeout >= c.heartbeat_interval * 2);
    }

    #[test]
    fn hot_poll_timeout_is_long_enough_for_bursts() {
        let c = RFaasConfig::paper_calibration();
        // The demotion budget must dwarf a single invocation (microseconds)
        // so back-to-back bursts never demote, while staying far below the
        // lease lifetime so an abandoned hot worker stops burning its core.
        assert!(c.hot_poll_timeout >= SimDuration::from_millis(1));
        let lease_lifetime = crate::LeaseRequest::single_worker("pkg").timeout;
        assert!(c.hot_poll_timeout < lease_lifetime);
    }

    #[test]
    fn hot_polling_priced_like_compute() {
        let c = RFaasConfig::default();
        assert_eq!(c.price_hot_polling, c.price_compute);
        assert!(c.price_allocation < c.price_compute);
    }

    #[test]
    fn polling_modes_are_distinct() {
        assert_ne!(PollingMode::Hot, PollingMode::Warm);
        assert_ne!(PollingMode::Hot, PollingMode::Adaptive);
    }
}

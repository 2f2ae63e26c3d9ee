//! Platform configuration and calibrated rFaaS-specific costs.

use sim_core::SimDuration;

/// How an executor worker waits for invocations (Sec. III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollingMode {
    /// Busy-poll the completion queue: ~300 ns invocation overhead, but the
    /// worker occupies its CPU core and the hot-poll time is billed. After
    /// [`HOT_POLL_TIMEOUT`] without a new invocation the worker demotes itself
    /// to [`PollingMode::Warm`]: the polling bill stops at the timeout and the
    /// next invocation pays the blocking wake-up.
    Hot,
    /// Block on completion events: the CPU is released between invocations at
    /// the price of several microseconds of wake-up latency.
    Warm,
}

/// *Virtual-time* budget a hot worker spins without a new invocation before
/// demoting itself to warm (Sec. III-C: hot executors poll "for a
/// configurable amount of time" and then release the core). The demotion
/// caps the hot-polling bill at this budget and makes the next invocation pay
/// the warm wake-up path.
pub const HOT_POLL_TIMEOUT: SimDuration = SimDuration::from_millis(100);

/// Heartbeat interval between allocators and the resource manager: each live
/// spot executor emits one heartbeat per interval and the lifecycle driver
/// records it (Sec. III-B failure detection).
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Silence after which the manager declares an executor failed, deregisters
/// it and marks its leases terminated: three intervals, so jittered
/// heartbeats are tolerated.
pub const HEARTBEAT_TIMEOUT: SimDuration = SimDuration::from_secs(15);

/// Executor-side cost of parsing the invocation header, locating the
/// function and setting up its arguments. Together with the result
/// write-back this is the ~300 ns hot-invocation overhead of Fig. 8.
pub(crate) const DISPATCH_COST: SimDuration = SimDuration::from_nanos(200);

/// Client-side cost of filling the invocation header
/// (`INVOCATION_HEADER_BYTES`) and book-keeping the invocation id.
pub(crate) const HEADER_WRITE_COST: SimDuration = SimDuration::from_nanos(30);

/// Manager-side processing of one allocation request (lease lookup,
/// placement decision, accounting record).
pub(crate) const ALLOCATION_PROCESSING_COST: SimDuration = SimDuration::from_micros(700);

/// Client-side cost of serialising and submitting the allocation request.
pub const ALLOCATION_SUBMIT_COST: SimDuration = SimDuration::from_micros(500);

/// Number of invocations a worker keeps pre-posted receives for.
pub(crate) const RECV_QUEUE_DEPTH: usize = 16;

/// Manager-side processing of one lease-renewal request. Renewal touches
/// only the lease record (no placement decision), so the paper's
/// allocation-processing budget is the upper bound; clients pay this cost
/// on every `extend_lease` round trip.
pub(crate) const LEASE_RENEWAL_COST: SimDuration = SimDuration::from_micros(700);

/// Pages fetched per remote-fork fault: one chained one-sided READ batch
/// from the parent node serves this many consecutive snapshot pages.
pub(crate) const FORK_PREFETCH_WINDOW: usize = 32;

/// Size of the pre-registered state-cache region each state-plane client
/// (session side and executor side) carves hot values out of. Values
/// larger than this cannot be served zero-copy. Twice the default payload
/// ceiling, so any value that could ride an invocation can also live in
/// the cache.
pub(crate) const STATE_CACHE_BYTES: usize = 16 * 1024 * 1024;

// Prices follow the provisioned-function model of Sec. IV-C: hot polling is
// billed like active compute, memory allocation is an order of magnitude
// cheaper.

/// Billing rate per (GiB × second) of leased memory.
pub(crate) const PRICE_ALLOCATION: f64 = 0.02;

/// Billing rate per second of active computation.
pub(crate) const PRICE_COMPUTE: f64 = 0.20;

/// Billing rate per second of hot polling.
pub(crate) const PRICE_HOT_POLLING: f64 = 0.20;

/// The two sizes a deployment chooses; every cost, depth and price of the
/// paper's calibration is a constant of this module.
#[derive(Debug, Clone)]
pub struct RFaasConfig {
    /// Maximum payload bytes a single invocation may carry (the executor
    /// registers an input buffer of this size per worker).
    pub max_payload_bytes: usize,
    /// Max parked warm parents per `(SandboxType, package)` key in each
    /// executor's warm pool. Zero disables warm pooling entirely: every
    /// deallocation tears its sandbox down and every allocation cold-spawns,
    /// which is the paper's baseline behaviour.
    pub warm_pool_capacity: usize,
}

impl RFaasConfig {
    /// Configuration matching the paper's evaluation platform.
    pub fn paper_calibration() -> RFaasConfig {
        RFaasConfig {
            max_payload_bytes: 8 * 1024 * 1024,
            // Warm pooling is opt-in: the paper's evaluation always pays the
            // full cold spawn, so the calibrated default keeps the pool off.
            warm_pool_capacity: 0,
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
        // The rFaaS processing overhead must stay in the nanosecond range —
        // it is the core claim of the paper.
        const { assert!(DISPATCH_COST.as_nanos() < 1_000) };
        const { assert!(HEADER_WRITE_COST.as_nanos() < 100) };
        assert!(RFaasConfig::paper_calibration().max_payload_bytes >= 5 * 1024 * 1024);
        const { assert!(RECV_QUEUE_DEPTH >= 1) };
        // A zero prefetch window would fault nothing: a forked child could
        // never become resident.
        const { assert!(FORK_PREFETCH_WINDOW >= 1) };
    }

    #[test]
    fn lease_lifecycle_knobs_are_consistent() {
        // Renewal is a control-plane round trip bounded by the allocation
        // processing budget.
        const { assert!(LEASE_RENEWAL_COST.as_nanos() <= ALLOCATION_PROCESSING_COST.as_nanos()) };
        // The failure detector must tolerate at least two missed heartbeats.
        assert!(HEARTBEAT_TIMEOUT >= HEARTBEAT_INTERVAL * 2);
    }

    #[test]
    fn hot_poll_timeout_is_long_enough_for_bursts() {
        // The demotion budget must dwarf a single invocation (microseconds)
        // so back-to-back bursts never demote, while staying far below the
        // lease lifetime so an abandoned hot worker stops burning its core.
        assert!(HOT_POLL_TIMEOUT >= SimDuration::from_millis(1));
        let lease_lifetime = crate::LeaseRequest::single_worker("pkg").timeout;
        assert!(HOT_POLL_TIMEOUT < lease_lifetime);
    }

    #[test]
    fn hot_polling_priced_like_compute() {
        const { assert!(PRICE_HOT_POLLING == PRICE_COMPUTE) };
        const { assert!(PRICE_ALLOCATION < PRICE_COMPUTE) };
    }

    #[test]
    fn polling_modes_are_distinct() {
        assert_ne!(PollingMode::Hot, PollingMode::Warm);
    }
}

//! The manager-side lease-lifecycle driver.
//!
//! Granting a lease is only half of the contract the paper describes
//! (Sec. III-B/D): the platform must also *enforce* it — reclaim resources
//! when leases expire, detect executors that stopped heartbeating, and mark
//! their leases terminated so clients re-allocate. [`LifecycleDriver`] is the
//! background step of the resource manager that does all three. It is driven
//! by virtual time: callers (simulations, figure binaries, tests) invoke
//! [`LifecycleDriver::step`] at whatever cadence their scenario advances the
//! clock, which keeps the control loop deterministic.
//!
//! One step performs, in order:
//!
//! 1. **Heartbeat collection** — every live registered executor emits a
//!    heartbeat once per [`HEARTBEAT_INTERVAL`]; the driver records it with
//!    the manager.
//! 2. **Failure detection** — executors silent for longer than
//!    [`HEARTBEAT_TIMEOUT`] are deregistered and every lease placed on them
//!    is marked terminated.
//! 3. **Lease expiry** — expired leases are released, returning their
//!    reservations to the manager's placement pool.
//! 4. **Executor-side reaping** — each surviving allocator deallocates the
//!    processes whose lease deadline passed, returning node cores/memory.

use std::sync::Arc;

use sim_core::sync::{ranks, OrderedMutex};
use sim_core::SimTime;

use crate::config::{HEARTBEAT_INTERVAL, HEARTBEAT_TIMEOUT};
use crate::manager::ResourceManager;

/// Counters describing lifecycle activity. Returned per step and accumulated
/// over the driver's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Heartbeats collected from live executors.
    pub heartbeats: u64,
    /// Executors deregistered because their heartbeats stopped.
    pub executors_failed: u64,
    /// Leases marked terminated because their executor failed.
    pub leases_terminated: u64,
    /// Leases released because they expired.
    pub leases_expired: u64,
    /// Executor processes reaped after their lease deadline passed.
    pub processes_reaped: u64,
}

impl LifecycleStats {
    fn absorb(&mut self, other: &LifecycleStats) {
        self.heartbeats += other.heartbeats;
        self.executors_failed += other.executors_failed;
        self.leases_terminated += other.leases_terminated;
        self.leases_expired += other.leases_expired;
        self.processes_reaped += other.processes_reaped;
    }
}

/// The manager's lease-lifecycle background step (see module docs), over
/// one manager or every shard of a [`ManagerGroup`], shard by shard. Each
/// shard's step sees only its own executors and leases, so a step over the
/// group costs the same total work as one big manager would — but the shards
/// could run their steps on different cores, which is exactly the scale-out
/// claim the fig15 experiment measures.
///
/// [`ManagerGroup`]: crate::sharding::ManagerGroup
pub struct LifecycleDriver {
    managers: Vec<Arc<ResourceManager>>,
    total: OrderedMutex<LifecycleStats>,
}

impl std::fmt::Debug for LifecycleDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LifecycleDriver")
            .field("shards", &self.managers.len())
            .field("total", &*self.total.lock())
            .finish()
    }
}

impl LifecycleDriver {
    /// A driver stepping `managers` in order: `[&manager]` for one manager,
    /// `group.managers()` for every shard of a group.
    pub fn new<'a>(
        managers: impl IntoIterator<Item = &'a Arc<ResourceManager>>,
    ) -> LifecycleDriver {
        LifecycleDriver {
            managers: managers.into_iter().cloned().collect(),
            total: OrderedMutex::new(ranks::LIFECYCLE_STATS, LifecycleStats::default()),
        }
    }

    /// Cumulative counters since the driver was created.
    pub fn total(&self) -> LifecycleStats {
        *self.total.lock()
    }

    /// Run one lifecycle step at virtual time `now` on every manager, one
    /// after the other; returns what this step did. Steps are idempotent at a
    /// fixed `now`.
    pub fn step(&self, now: SimTime) -> LifecycleStats {
        let mut delta = LifecycleStats::default();
        for manager in &self.managers {
            // 1. Collect the heartbeats live executors emit (Sec. III-B).
            for executor in manager.registered_executors() {
                if let Some(at) = executor.emit_heartbeat_if_due(now, HEARTBEAT_INTERVAL) {
                    if manager.heartbeat(executor.name(), at) {
                        delta.heartbeats += 1;
                    }
                }
            }

            // 2. Deregister executors whose heartbeats stopped and mark their
            // leases terminated so clients stop waiting for a node that is
            // gone.
            for name in manager.failed_executors(now, HEARTBEAT_TIMEOUT) {
                if manager.deregister_executor(&name) {
                    delta.executors_failed += 1;
                    delta.leases_terminated += manager.terminate_leases_on(&name).len() as u64;
                }
            }

            // 3. Release expired leases: their reservations re-enter
            // placement.
            for lease_id in manager.expired_leases(now) {
                if manager.release_lease(lease_id).is_ok() {
                    delta.leases_expired += 1;
                }
            }

            // 4. Executor-side enforcement: allocators reap the processes
            // whose deadline passed, freeing the node's cores and memory.
            for executor in manager.registered_executors() {
                delta.processes_reaped += executor.allocator().reap_expired(now) as u64;
            }
        }
        self.total.lock().absorb(&delta);
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RFaasConfig;
    use crate::executor::SpotExecutor;
    use crate::protocol::LeaseRequest;
    use crate::session::Session;
    use cluster_sim::NodeResources;
    use rdma_fabric::Fabric;
    use sandbox::{echo_function, CodePackage, FunctionRegistry};
    use sim_core::SimDuration;

    fn platform(executors: usize) -> (Arc<Fabric>, Arc<ResourceManager>, Vec<Arc<SpotExecutor>>) {
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(CodePackage::minimal("pkg").with_function(echo_function()));
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let execs: Vec<Arc<SpotExecutor>> = (0..executors)
            .map(|i| {
                let exec = SpotExecutor::new(
                    &fabric,
                    &format!("exec-{i}"),
                    NodeResources {
                        cores: 8,
                        memory_mib: 32 * 1024,
                    },
                    registry.clone(),
                    RFaasConfig::default(),
                );
                manager.register_executor(&exec);
                exec
            })
            .collect();
        (fabric, manager, execs)
    }

    #[test]
    fn step_collects_heartbeats_per_interval() {
        let (_fabric, manager, _execs) = platform(2);
        let driver = LifecycleDriver::new([&manager]);
        let t = SimTime::from_secs(1);
        assert_eq!(driver.step(t).heartbeats, 2);
        // Same instant again: nothing new is due.
        assert_eq!(driver.step(t).heartbeats, 0);
        assert_eq!(driver.step(t + HEARTBEAT_INTERVAL).heartbeats, 2);
        assert_eq!(driver.total().heartbeats, 4);
    }

    #[test]
    fn dead_executor_is_deregistered_and_its_leases_terminated() {
        let (_fabric, manager, execs) = platform(2);
        let driver = LifecycleDriver::new([&manager]);
        let clock = sim_core::VirtualClock::new();
        let (lease, _) = manager
            .request_lease(&LeaseRequest::single_worker("pkg"), &clock)
            .unwrap();
        // Keep both executors alive for a while, then kill the lease's host.
        driver.step(SimTime::from_secs(1));
        let victim = execs
            .iter()
            .find(|e| e.name() == lease.executor_node)
            .unwrap();
        victim.fail();
        let later = SimTime::from_secs(1) + HEARTBEAT_TIMEOUT * 2;
        let delta = driver.step(later);
        assert_eq!(delta.executors_failed, 1);
        assert_eq!(delta.leases_terminated, 1);
        assert_eq!(manager.executor_count(), 1);
        assert!(manager.lease(lease.id).is_none());
        // The step terminated the victim's only lease: none is left on it.
        assert!(manager.terminate_leases_on(&lease.executor_node).is_empty());
        // The survivor keeps heartbeating and is never deregistered.
        let much_later = later + HEARTBEAT_INTERVAL * 10;
        assert_eq!(driver.step(much_later).executors_failed, 0);
        assert_eq!(manager.executor_count(), 1);
    }

    #[test]
    fn expired_leases_are_released_and_processes_reaped() {
        let (fabric, manager, execs) = platform(1);
        let driver = LifecycleDriver::new([&manager]);
        let _session = Session::builder(&fabric, "client", &manager, "pkg")
            .lease_timeout(SimDuration::from_secs(10))
            .connect()
            .unwrap();
        assert_eq!(manager.lease_count(), 1);
        assert_eq!(execs[0].allocator().process_count(), 1);
        let cores_leased = manager.available_resources().cores;

        // Before the deadline nothing is reclaimed (the step still collects
        // the executor's first heartbeat).
        let early = manager.clock().now();
        let delta = driver.step(early);
        assert_eq!(delta.leases_expired, 0);
        assert_eq!(delta.processes_reaped, 0);

        let late = early + SimDuration::from_secs(60);
        let delta = driver.step(late);
        assert_eq!(delta.leases_expired, 1);
        assert_eq!(delta.processes_reaped, 1);
        assert_eq!(manager.lease_count(), 0);
        assert_eq!(execs[0].allocator().process_count(), 0);
        assert!(manager.available_resources().cores > cores_leased);
        // The expiry was enforcement, not an executor failure.
        assert_eq!(driver.total().executors_failed, 0);
    }

    #[test]
    fn group_driver_steps_every_shard() {
        use crate::sharding::ManagerGroup;

        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(CodePackage::minimal("pkg").with_function(echo_function()));
        let group = ManagerGroup::new(&fabric, RFaasConfig::default(), 3);
        for i in 0..9 {
            let exec = SpotExecutor::new(
                &fabric,
                &format!("exec-{i:02}"),
                NodeResources {
                    cores: 8,
                    memory_mib: 32 * 1024,
                },
                registry.clone(),
                RFaasConfig::default(),
            );
            group.register_executor(&exec);
        }
        let driver = LifecycleDriver::new(group.managers());

        // A short lease on some shard, never renewed.
        let clock = sim_core::VirtualClock::new();
        let mut request = LeaseRequest::single_worker("pkg");
        request.timeout = SimDuration::from_secs(5);
        let (_, lease, _) = group.request_lease("tenant-x", &request, &clock).unwrap();
        assert_eq!(group.lease_count(), 1);

        // Every live executor heartbeats, whichever shard holds it.
        let delta = driver.step(SimTime::from_secs(1));
        assert_eq!(delta.heartbeats, 9);

        // The expiry is enforced on the owning shard.
        let delta = driver.step(SimTime::from_secs(60));
        assert_eq!(delta.leases_expired, 1);
        assert_eq!(group.lease_count(), 0);
        assert!(group.lease(lease.id).is_none());
    }
}

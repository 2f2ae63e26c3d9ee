//! The resource manager: leases, executor registry, heartbeats and billing.
//!
//! rFaaS splits allocation from invocation (Sec. III-A/B): clients involve
//! the resource manager exactly once per lease, and every subsequent warm or
//! hot invocation goes straight to the executor over RDMA. The manager keeps
//! the inventory of spot executors advertised by cluster operators, grants
//! leases round-robin over executors that can fit the request, tracks
//! executor heartbeats for failure detection, and owns the billing database
//! that allocators update with RDMA atomics.

use std::collections::BTreeMap;
use std::sync::Arc;

use cluster_sim::NodeResources;
use rdma_fabric::{Endpoint, Fabric, FabricNode, QueuePair};
use sim_core::sync::{ranks, OrderedMutex};
use sim_core::{SimDuration, SimTime, VirtualClock};

use rdma_fabric::DatagramSocket;

use crate::billing::{BillingClient, BillingDatabase, UsageRecord};
use crate::config::{RFaasConfig, ALLOCATION_PROCESSING_COST, LEASE_RENEWAL_COST};
use crate::error::{RFaasError, Result};
use crate::executor::SpotExecutor;
use crate::protocol::{ControlFrame, Lease, LeaseRequest};

struct RegisteredExecutor {
    executor: Arc<SpotExecutor>,
    available: NodeResources,
    last_heartbeat: SimTime,
    billing_slot: usize,
}

/// Everything the manager mutates, under its one lock.
struct ManagerState {
    // First-contact control plane: allocation requests arrive as datagrams
    // (no RC handshake) and the verdict goes back to the client's reply
    // address. Polling holds the lock across placement.
    control: DatagramSocket,
    // Both registries are ordered maps: placement, failure detection and
    // expiry sweeps iterate them, and HashMap key order would leak
    // run-to-run nondeterminism into all three.
    executors: BTreeMap<String, RegisteredExecutor>,
    leases: BTreeMap<u64, Lease>,
    // Manager-side halves of the billing connections; kept alive so executors
    // can keep issuing one-sided atomics without any manager CPU involvement.
    billing_qps: Vec<QueuePair>,
    // The id the next grant takes; advances by `lease_id_stride`.
    next_lease_id: u64,
    // Where the next placement's round-robin scan starts.
    round_robin: usize,
}

/// The rFaaS resource manager (one instance of the replicated service).
pub struct ResourceManager {
    fabric: Arc<Fabric>,
    node: Arc<FabricNode>,
    endpoint: Endpoint,
    clock: Arc<VirtualClock>,
    state: OrderedMutex<ManagerState>,
    control_address: String,
    billing: BillingDatabase,
    // Lease ids advance by this much per grant. A standalone manager strides
    // by 1; shard `i` of an S-shard ManagerGroup starts at `i + 1` and
    // strides by S, so every id's residue class identifies its shard and
    // cross-shard lookup needs no directory.
    lease_id_stride: u64,
}

impl std::fmt::Debug for ResourceManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceManager")
            .field("executors", &self.executor_count())
            .field("leases", &self.lease_count())
            .finish()
    }
}

impl ResourceManager {
    /// Create a manager attached to `fabric` on its own node. The manager
    /// reads nothing from `_config`: its costs are the calibrated constants.
    pub fn new(fabric: &Arc<Fabric>, _config: RFaasConfig) -> Arc<ResourceManager> {
        Self::with_lease_namespace(fabric, "resource-manager", 1, 1)
    }

    /// Create a manager issuing lease ids `first_lease_id, first_lease_id +
    /// stride, ...`. The sharded [`ManagerGroup`] gives each shard a disjoint
    /// residue class so leases stay globally unique and O(1) routable.
    ///
    /// [`ManagerGroup`]: crate::sharding::ManagerGroup
    pub(crate) fn with_lease_namespace(
        fabric: &Arc<Fabric>,
        node_name: &str,
        first_lease_id: u64,
        stride: u64,
    ) -> Arc<ResourceManager> {
        let node = fabric.add_node(node_name);
        let endpoint = Endpoint::new(fabric, &node);
        let billing = BillingDatabase::new(&endpoint);
        let control_address = format!("rfaas-ctl://{node_name}");
        let control = DatagramSocket::bind(&endpoint, &control_address);
        Arc::new(ResourceManager {
            fabric: Arc::clone(fabric),
            node,
            clock: Arc::clone(&endpoint.clock),
            endpoint,
            state: OrderedMutex::new(
                ranks::MANAGER,
                ManagerState {
                    control,
                    executors: BTreeMap::new(),
                    leases: BTreeMap::new(),
                    billing_qps: Vec::new(),
                    next_lease_id: first_lease_id.max(1),
                    round_robin: 0,
                },
            ),
            control_address,
            billing,
            lease_id_stride: stride.max(1),
        })
    }

    /// The manager's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The fabric node the manager runs on.
    pub fn node(&self) -> &Arc<FabricNode> {
        &self.node
    }

    /// Register a spot executor (a cluster operator adding idle resources,
    /// C2 in Fig. 4). Also wires the executor's allocator to the billing
    /// database through a dedicated queue pair.
    pub fn register_executor(&self, executor: &Arc<SpotExecutor>) {
        let slot = self.billing.reserve_slot();
        // Create the RDMA connection the allocator will use for billing
        // atomics: one manager-side QP (parked) and one executor-side QP.
        let manager_qp = QueuePair::new(&self.endpoint);
        let executor_endpoint = Endpoint::new(&self.fabric, executor.node())
            .with_clock(Arc::clone(executor.allocator().clock()));
        let executor_qp = QueuePair::new(&executor_endpoint);
        let billing_qp = QueuePair::connect_pair(&manager_qp, &executor_qp)
            .is_ok()
            .then(|| {
                executor.allocator().attach_billing(BillingClient::new(
                    executor_qp,
                    self.billing.slot_handle(slot),
                ));
                manager_qp
            });
        let mut state = self.state.lock();
        state.billing_qps.extend(billing_qp);
        state.executors.insert(
            executor.name().to_string(),
            RegisteredExecutor {
                available: executor.resources(),
                executor: Arc::clone(executor),
                last_heartbeat: self.clock.now(),
                billing_slot: slot,
            },
        );
    }

    /// Remove an executor from the pool (node reclaimed by the batch system):
    /// no new leases will be placed there. Pair this with
    /// [`Self::terminate_leases_on`] — once the registry entry is gone,
    /// leases still mapped to the node can no longer credit their resources
    /// back on release and would linger as zombies. The [`LifecycleDriver`]
    /// does both for executors whose heartbeats stop.
    ///
    /// [`LifecycleDriver`]: crate::lifecycle::LifecycleDriver
    pub fn deregister_executor(&self, name: &str) -> bool {
        self.state.lock().executors.remove(name).is_some()
    }

    /// Number of registered executors.
    pub(crate) fn executor_count(&self) -> usize {
        self.state.lock().executors.len()
    }

    /// Number of active leases.
    pub fn lease_count(&self) -> usize {
        self.state.lock().leases.len()
    }

    /// Look up a registered executor by node name.
    pub(crate) fn executor(&self, name: &str) -> Option<Arc<SpotExecutor>> {
        self.state
            .lock()
            .executors
            .get(name)
            .map(|r| Arc::clone(&r.executor))
    }

    /// All currently registered executors, in deterministic (name) order.
    pub(crate) fn registered_executors(&self) -> Vec<Arc<SpotExecutor>> {
        self.state
            .lock()
            .executors
            .values()
            .map(|r| Arc::clone(&r.executor))
            .collect()
    }

    /// Look up an active lease.
    pub fn lease(&self, id: u64) -> Option<Lease> {
        self.state.lock().leases.get(&id).cloned()
    }

    /// Grant a lease for `request`, charging the manager-side processing cost
    /// on `client_clock` (the client is blocked while the manager decides).
    ///
    /// Placement is round-robin over executors with enough free resources,
    /// which spreads leases the same way the replicated managers of
    /// Sec. III-D would.
    pub fn request_lease(
        &self,
        request: &LeaseRequest,
        client_clock: &VirtualClock,
    ) -> Result<(Lease, Arc<SpotExecutor>)> {
        // The request carries the client's timestamp: the manager synchronises
        // to it (conservative logical-time rule) so granted expiry instants
        // are meaningful to the client, then spends its processing budget,
        // which the client observes as added latency on the (cold) path.
        self.clock.advance_to(client_clock.now());
        self.clock.advance(ALLOCATION_PROCESSING_COST);
        client_clock.advance(ALLOCATION_PROCESSING_COST);
        self.place_request(&mut self.state.lock(), request)
    }

    /// The datagram address allocation requests should be sent to.
    pub fn control_address(&self) -> &str {
        &self.control_address
    }

    /// Drain pending control-plane datagrams: each `Allocate` frame is placed
    /// (or denied) and answered at the sender's reply address. Returns how
    /// many frames were handled. Malformed or unexpected frames are dropped —
    /// an unreliable transport cannot promise the sender a diagnosis anyway.
    pub(crate) fn poll_control(&self) -> usize {
        let mut state = self.state.lock();
        let mut handled = 0;
        while let Some(msg) = state.control.try_recv() {
            handled += 1;
            let (reply_to, request) = match ControlFrame::decode(&msg.payload) {
                Ok(ControlFrame::Allocate { reply_to, request }) => (reply_to, request),
                _ => continue,
            };
            self.clock.advance(ALLOCATION_PROCESSING_COST);
            let frame = match self.place_request(&mut state, &request) {
                Ok((lease, _)) => ControlFrame::Granted { lease },
                Err(err) => ControlFrame::Denied {
                    reason: err.to_string(),
                },
            };
            let _ = state.control.send_to(&reply_to, &frame.encode());
        }
        handled
    }

    /// Placement core shared by the RC path ([`Self::request_lease`]) and the
    /// datagram control plane: round-robin over executors with room, reserve
    /// the resources, mint the lease at the manager's current clock.
    fn place_request(
        &self,
        state: &mut ManagerState,
        request: &LeaseRequest,
    ) -> Result<(Lease, Arc<SpotExecutor>)> {
        let executors = &mut state.executors;
        if executors.is_empty() {
            return Err(RFaasError::InsufficientResources {
                requested_cores: request.cores,
                requested_memory_mib: request.memory_mib,
            });
        }
        let needed = NodeResources {
            cores: request.cores,
            memory_mib: request.memory_mib,
        };
        // BTreeMap entries come back sorted by name, so the round-robin
        // rotation below is deterministic without a per-placement sort.
        let start = state.round_robin % executors.len();
        state.round_robin += 1;
        let candidates = || {
            let rotation = executors
                .iter()
                .skip(start)
                .chain(executors.iter().take(start));
            rotation.filter(|(_, entry)| entry.available.can_fit(&needed))
        };
        // Prefer an executor holding a warm parent for this (sandbox,
        // package): an allocation placed there can resume or fork instead of
        // cold-spawning. Fall back to plain round-robin over executors with
        // room; with warm pooling disabled the two passes choose identically.
        let chosen = candidates()
            .find(|(_, entry)| {
                entry
                    .executor
                    .allocator()
                    .warm_pool()
                    .idle_for(request.sandbox, &request.package)
                    > 0
            })
            .or_else(|| candidates().next())
            .map(|(name, _)| name.clone())
            .ok_or(RFaasError::InsufficientResources {
                requested_cores: request.cores,
                requested_memory_mib: request.memory_mib,
            })?;

        let entry = executors.get_mut(&chosen).expect("chosen executor exists");
        entry.available = entry.available.saturating_sub(&needed);
        let id = state.next_lease_id;
        state.next_lease_id += self.lease_id_stride;
        let lease = Lease {
            id,
            executor_node: chosen.clone(),
            cores: request.cores,
            memory_mib: request.memory_mib,
            expires_at: self.clock.now() + request.timeout,
            sandbox: request.sandbox,
            package: request.package.clone(),
            billing_slot: entry.billing_slot,
        };
        let executor = Arc::clone(&entry.executor);
        state.leases.insert(lease.id, lease.clone());
        Ok((lease, executor))
    }

    /// Renew a lease: push its expiry to `now + extension` (never backwards),
    /// charging the renewal processing cost on both clocks. Fails if the
    /// lease no longer exists or its executor was deregistered — the client
    /// must then re-allocate.
    pub(crate) fn renew_lease(
        &self,
        lease_id: u64,
        extension: SimDuration,
        client_clock: &VirtualClock,
    ) -> Result<Lease> {
        self.clock.advance_to(client_clock.now());
        self.clock.advance(LEASE_RENEWAL_COST);
        client_clock.advance(LEASE_RENEWAL_COST);

        let mut state = self.state.lock();
        let state = &mut *state;
        let lease = state
            .leases
            .get_mut(&lease_id)
            .ok_or(RFaasError::UnknownLease(lease_id))?;
        if !state.executors.contains_key(&lease.executor_node) {
            return Err(RFaasError::ExecutorLost(lease.executor_node.clone()));
        }
        lease.expires_at = lease.expires_at.max(self.clock.now() + extension);
        Ok(lease.clone())
    }

    /// Release a lease before it expires; the executor notifies the manager
    /// so the resources re-enter future allocations (Sec. III-B).
    pub fn release_lease(&self, lease_id: u64) -> Result<()> {
        let mut state = self.state.lock();
        let lease = state
            .leases
            .remove(&lease_id)
            .ok_or(RFaasError::UnknownLease(lease_id))?;
        if let Some(entry) = state.executors.get_mut(&lease.executor_node) {
            entry.available = entry.available.add(&NodeResources {
                cores: lease.cores,
                memory_mib: lease.memory_mib,
            });
        }
        Ok(())
    }

    /// Terminate every lease placed on `node`, removing it (the node died or
    /// was reclaimed before the leases expired). The executor's registry entry —
    /// and with it the node's resource accounting — must already be gone;
    /// clients discover the termination through an `ExecutorLost` on their
    /// connections. Returns the ids terminated.
    pub fn terminate_leases_on(&self, node: &str) -> Vec<u64> {
        let mut state = self.state.lock();
        let ids: Vec<u64> = state
            .leases
            .values()
            .filter(|l| l.executor_node == node)
            .map(|l| l.id)
            .collect();
        for id in &ids {
            state.leases.remove(id);
        }
        ids
    }

    /// Record a heartbeat from an executor's allocator.
    pub(crate) fn heartbeat(&self, executor_name: &str, now: SimTime) -> bool {
        match self.state.lock().executors.get_mut(executor_name) {
            Some(entry) => {
                entry.last_heartbeat = entry.last_heartbeat.max(now);
                true
            }
            None => false,
        }
    }

    /// Executors whose last heartbeat is older than `timeout` at `now`; the
    /// manager announces their leases as terminated so clients can reallocate.
    pub(crate) fn failed_executors(&self, now: SimTime, timeout: SimDuration) -> Vec<String> {
        self.state
            .lock()
            .executors
            .iter()
            .filter(|(_, e)| now.saturating_since(e.last_heartbeat) > timeout)
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Leases that have expired at `now`. The caller (or a manager background
    /// task) releases them to reclaim resources.
    pub(crate) fn expired_leases(&self, now: SimTime) -> Vec<u64> {
        self.state
            .lock()
            .leases
            .values()
            .filter(|l| !l.is_valid_at(now))
            .map(|l| l.id)
            .collect()
    }

    /// Aggregate resources still available across all registered executors.
    pub fn available_resources(&self) -> NodeResources {
        self.state
            .lock()
            .executors
            .values()
            .fold(NodeResources::ZERO, |acc, e| acc.add(&e.available))
    }

    /// Usage accumulated for the executor hosting `lease`. An executor
    /// process adds its usage when it ends (deallocation, an expiry reap or
    /// its node failing), so a process still serving adds nothing yet.
    pub fn lease_usage(&self, lease: &Lease) -> UsageRecord {
        self.billing.read_slot(lease.billing_slot)
    }

    /// Total monetary cost accumulated by the platform so far.
    pub fn total_cost(&self) -> f64 {
        self.billing.total_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RFaasConfig;
    use sandbox::{echo_function, CodePackage, FunctionRegistry, SandboxType};

    fn registry() -> FunctionRegistry {
        let r = FunctionRegistry::new();
        r.deploy(CodePackage::minimal("echo-pkg").with_function(echo_function()));
        r
    }

    fn setup(executors: usize) -> (Arc<Fabric>, Arc<ResourceManager>, Vec<Arc<SpotExecutor>>) {
        setup_with(executors, RFaasConfig::default())
    }

    fn setup_with(
        executors: usize,
        config: RFaasConfig,
    ) -> (Arc<Fabric>, Arc<ResourceManager>, Vec<Arc<SpotExecutor>>) {
        let fabric = Fabric::with_defaults();
        let manager = ResourceManager::new(&fabric, config.clone());
        let mut execs = Vec::new();
        for i in 0..executors {
            let exec = SpotExecutor::new(
                &fabric,
                &format!("exec-{i}"),
                NodeResources {
                    cores: 16,
                    memory_mib: 64 * 1024,
                },
                registry(),
                config.clone(),
            );
            manager.register_executor(&exec);
            execs.push(exec);
        }
        (fabric, manager, execs)
    }

    fn request() -> LeaseRequest {
        LeaseRequest::single_worker("echo-pkg")
            .with_cores(4)
            .with_memory_mib(4096)
    }

    #[test]
    fn lease_grant_reserves_resources() {
        let (_fabric, manager, _execs) = setup(1);
        assert_eq!(manager.executor_count(), 1);
        let client_clock = VirtualClock::new();
        let (lease, executor) = manager.request_lease(&request(), &client_clock).unwrap();
        assert_eq!(lease.cores, 4);
        assert_eq!(executor.name(), "exec-0");
        assert_eq!(manager.lease_count(), 1);
        assert_eq!(manager.available_resources().cores, 12);
        // The client pays the manager processing latency.
        assert!(client_clock.now().as_micros_f64() >= 500.0);
        assert!(manager.lease(lease.id).is_some());
    }

    #[test]
    fn release_returns_resources() {
        let (_fabric, manager, _execs) = setup(1);
        let clock = VirtualClock::new();
        let (lease, _) = manager.request_lease(&request(), &clock).unwrap();
        manager.release_lease(lease.id).unwrap();
        assert_eq!(manager.lease_count(), 0);
        assert_eq!(manager.available_resources().cores, 16);
        assert!(matches!(
            manager.release_lease(lease.id),
            Err(RFaasError::UnknownLease(_))
        ));
    }

    #[test]
    fn round_robin_spreads_leases_across_executors() {
        let (_fabric, manager, _execs) = setup(4);
        let clock = VirtualClock::new();
        let mut nodes = std::collections::HashSet::new();
        for _ in 0..4 {
            let (lease, _) = manager.request_lease(&request(), &clock).unwrap();
            nodes.insert(lease.executor_node);
        }
        assert!(
            nodes.len() >= 3,
            "round-robin should spread over executors, got {nodes:?}"
        );
    }

    #[test]
    fn placement_is_deterministic_across_managers() {
        // Two identically configured managers must place identical request
        // sequences identically — HashMap iteration order must not leak into
        // placement (regression: round-robin walked raw key order).
        let place = || -> Vec<String> {
            let (_fabric, manager, _execs) = setup(5);
            let clock = VirtualClock::new();
            (0..10)
                .map(|_| {
                    manager
                        .request_lease(&request(), &clock)
                        .unwrap()
                        .0
                        .executor_node
                })
                .collect()
        };
        let first = place();
        assert_eq!(first, place());
        // The sorted rotation also visits every executor.
        assert_eq!(
            first.iter().collect::<std::collections::HashSet<_>>().len(),
            5
        );
    }

    #[test]
    fn placement_prefers_an_executor_holding_a_warm_parent() {
        // Two executors with enabled warm pools; optionally park an
        // echo-pkg parent on exec-1, the one round-robin visits second.
        let place = |parent_on_exec_1: bool| -> Vec<String> {
            let config = RFaasConfig {
                warm_pool_capacity: 2,
                ..RFaasConfig::default()
            };
            let (_fabric, manager, execs) = setup_with(2, config);
            if parent_on_exec_1 {
                let images = sandbox::ImageRegistry::new();
                let (mut parent, _) =
                    sandbox::Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 30, &images, "ubuntu");
                parent.load_package(CodePackage::minimal("echo-pkg"));
                let pool = execs[1].allocator().warm_pool();
                assert!(pool.park(parent, SimTime::ZERO).is_some());
            }
            let clock = VirtualClock::new();
            let lease = || manager.request_lease(&request(), &clock).unwrap().0;
            vec![lease().executor_node, lease().executor_node]
        };
        // Both pools empty: plain round-robin.
        assert_eq!(place(false), ["exec-0", "exec-1"]);
        // The parent draws both leases to exec-1: placement only looks, so
        // the parent stays parked.
        assert_eq!(place(true), ["exec-1", "exec-1"]);
    }

    #[test]
    fn renew_lease_extends_expiry_and_charges_the_client() {
        let (_fabric, manager, _execs) = setup(1);
        let clock = VirtualClock::new();
        let mut req = request();
        req.timeout = SimDuration::from_secs(10);
        let (lease, _) = manager.request_lease(&req, &clock).unwrap();
        let before_renewal = clock.now();
        let renewed = manager
            .renew_lease(lease.id, SimDuration::from_secs(30), &clock)
            .unwrap();
        assert!(renewed.expires_at >= lease.expires_at + SimDuration::from_secs(19));
        assert_eq!(
            manager.lease(lease.id).unwrap().expires_at,
            renewed.expires_at
        );
        // The client pays the renewal processing cost.
        assert!(clock.now() > before_renewal);
        // Renewal never moves the expiry backwards.
        let shrunk = manager
            .renew_lease(lease.id, SimDuration::from_nanos(1), &clock)
            .unwrap();
        assert_eq!(shrunk.expires_at, renewed.expires_at);
        assert!(matches!(
            manager.renew_lease(999, SimDuration::from_secs(1), &clock),
            Err(RFaasError::UnknownLease(999))
        ));
    }

    #[test]
    fn a_renewal_charges_the_manager_before_it_sets_the_expiry() {
        // A client clock ahead of the manager's: the manager catches up to
        // the request's arrival, processes the renewal, and only then
        // counts the extension.
        let (_fabric, manager, _execs) = setup(1);
        let clock = VirtualClock::new();
        let mut req = request();
        req.timeout = SimDuration::from_secs(1);
        let (lease, _) = manager.request_lease(&req, &clock).unwrap();
        clock.advance(SimDuration::from_secs(5));
        let client_now = clock.now();
        assert!(manager.clock.now() < client_now);
        let extension = SimDuration::from_secs(30);
        let renewed = manager.renew_lease(lease.id, extension, &clock).unwrap();
        assert_eq!(
            renewed.expires_at,
            client_now + LEASE_RENEWAL_COST + extension
        );
        assert_eq!(clock.now(), client_now + LEASE_RENEWAL_COST);
    }

    #[test]
    fn renew_fails_after_executor_deregistration() {
        let (_fabric, manager, _execs) = setup(1);
        let clock = VirtualClock::new();
        let (lease, _) = manager.request_lease(&request(), &clock).unwrap();
        manager.deregister_executor("exec-0");
        assert!(matches!(
            manager.renew_lease(lease.id, SimDuration::from_secs(1), &clock),
            Err(RFaasError::ExecutorLost(_))
        ));
    }

    #[test]
    fn terminated_leases_are_removed_and_flagged() {
        let (_fabric, manager, _execs) = setup(2);
        let clock = VirtualClock::new();
        let (a, _) = manager.request_lease(&request(), &clock).unwrap();
        let (b, _) = manager.request_lease(&request(), &clock).unwrap();
        assert_ne!(a.executor_node, b.executor_node);
        manager.deregister_executor(&a.executor_node);
        let terminated = manager.terminate_leases_on(&a.executor_node);
        assert_eq!(terminated, vec![a.id]);
        assert!(manager.lease(a.id).is_none());
        assert!(manager.lease(b.id).is_some());
        assert_eq!(manager.lease_count(), 1);
        // Terminated once: the node has nothing left to terminate.
        assert!(manager.terminate_leases_on(&a.executor_node).is_empty());
    }

    #[test]
    fn registered_executors_come_back_in_name_order() {
        let (_fabric, manager, _execs) = setup(3);
        let names: Vec<String> = manager
            .registered_executors()
            .iter()
            .map(|e| e.name().to_string())
            .collect();
        assert_eq!(names, vec!["exec-0", "exec-1", "exec-2"]);
    }

    #[test]
    fn manager_clock_syncs_to_client_requests() {
        let (_fabric, manager, _execs) = setup(1);
        let clock = VirtualClock::new();
        clock.advance(SimDuration::from_secs(100));
        let mut req = request();
        req.timeout = SimDuration::from_secs(10);
        let (lease, _) = manager.request_lease(&req, &clock).unwrap();
        // The lease expiry is anchored to the (later) client time, not the
        // manager's stale local clock.
        assert!(lease.expires_at >= SimTime::from_secs(110));
        assert!(manager.clock().now() >= SimTime::from_secs(100));
    }

    #[test]
    fn exhausted_pool_rejects_requests() {
        let (_fabric, manager, _execs) = setup(1);
        let clock = VirtualClock::new();
        // 16 cores / 4 per lease = 4 leases fit.
        for _ in 0..4 {
            manager.request_lease(&request(), &clock).unwrap();
        }
        let err = manager.request_lease(&request(), &clock).unwrap_err();
        assert!(matches!(err, RFaasError::InsufficientResources { .. }));
    }

    #[test]
    fn no_executors_means_no_lease() {
        let fabric = Fabric::with_defaults();
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let err = manager
            .request_lease(&request(), &VirtualClock::new())
            .unwrap_err();
        assert!(matches!(err, RFaasError::InsufficientResources { .. }));
    }

    #[test]
    fn deregistered_executor_is_skipped() {
        let (_fabric, manager, _execs) = setup(2);
        assert!(manager.deregister_executor("exec-0"));
        assert!(!manager.deregister_executor("exec-0"));
        let clock = VirtualClock::new();
        for _ in 0..3 {
            let (lease, _) = manager.request_lease(&request(), &clock).unwrap();
            assert_eq!(lease.executor_node, "exec-1");
        }
        assert!(manager.executor("exec-0").is_none());
        assert!(manager.executor("exec-1").is_some());
    }

    #[test]
    fn heartbeats_detect_failed_executors() {
        let (_fabric, manager, _execs) = setup(2);
        let t0 = manager.clock().now();
        assert!(manager.heartbeat("exec-0", t0 + SimDuration::from_secs(30)));
        assert!(!manager.heartbeat("unknown", t0));
        let failed =
            manager.failed_executors(t0 + SimDuration::from_secs(40), SimDuration::from_secs(15));
        assert_eq!(failed, vec!["exec-1".to_string()]);
    }

    #[test]
    fn expired_leases_are_reported() {
        let (_fabric, manager, _execs) = setup(1);
        let clock = VirtualClock::new();
        let mut req = request();
        req.timeout = SimDuration::from_secs(10);
        let (lease, _) = manager.request_lease(&req, &clock).unwrap();
        assert!(manager.expired_leases(manager.clock().now()).is_empty());
        let later = manager.clock().now() + SimDuration::from_secs(11);
        assert_eq!(manager.expired_leases(later), vec![lease.id]);
    }

    #[test]
    fn lease_namespace_strides_ids() {
        // Shard 1 of a 4-shard plane: ids 2, 6, 10, ... — the residue class
        // the group's cross-shard routing depends on.
        let fabric = Fabric::with_defaults();
        let manager = ResourceManager::with_lease_namespace(&fabric, "m-1", 2, 4);
        let exec = SpotExecutor::new(
            &fabric,
            "exec-ns",
            NodeResources {
                cores: 16,
                memory_mib: 64 * 1024,
            },
            registry(),
            RFaasConfig::default(),
        );
        manager.register_executor(&exec);
        let clock = VirtualClock::new();
        let ids: Vec<u64> = (0..3)
            .map(|_| manager.request_lease(&request(), &clock).unwrap().0.id)
            .collect();
        assert_eq!(ids, vec![2, 6, 10]);
    }

    #[test]
    fn control_datagrams_grant_and_deny() {
        let (fabric, manager, _execs) = setup(1);
        let client_node = fabric.add_node("ctl-client");
        let ep = Endpoint::new(&fabric, &client_node);
        let sock = DatagramSocket::bind(&ep, "rfaas-clt://ctl-client/0");

        // 16 cores / 4 per request: four grants, then a denial.
        for _ in 0..5 {
            let frame = ControlFrame::Allocate {
                reply_to: sock.address().to_string(),
                request: request(),
            };
            sock.send_to(manager.control_address(), &frame.encode())
                .unwrap();
        }
        assert_eq!(manager.poll_control(), 5);
        assert_eq!(manager.poll_control(), 0);

        let mut grants = 0;
        let mut denials = 0;
        for _ in 0..5 {
            let reply = sock.recv().unwrap();
            match ControlFrame::decode(&reply.payload).unwrap() {
                ControlFrame::Granted { lease } => {
                    assert!(manager.lease(lease.id).is_some());
                    assert_eq!(lease.executor_node, "exec-0");
                    grants += 1;
                }
                ControlFrame::Denied { reason } => {
                    assert!(!reason.is_empty());
                    denials += 1;
                }
                other => panic!("unexpected control reply {other:?}"),
            }
        }
        assert_eq!((grants, denials), (4, 1));
        // Garbage frames are dropped without wedging the poller.
        sock.send_to(manager.control_address(), &[0xFF, 1, 2])
            .unwrap();
        assert_eq!(manager.poll_control(), 1);
        assert_eq!(manager.lease_count(), 4);
    }

    #[test]
    fn billing_database_starts_empty() {
        let (_fabric, manager, _execs) = setup(1);
        let clock = VirtualClock::new();
        let (lease, _) = manager.request_lease(&request(), &clock).unwrap();
        assert!(manager.lease_usage(&lease).is_empty());
        assert_eq!(manager.total_cost(), 0.0);
    }
}

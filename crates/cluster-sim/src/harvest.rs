//! Idle-resource harvesting for spot executors.
//!
//! Cluster operators add idle resources to the rFaaS resource manager and
//! reclaim them when batch jobs need the nodes (Sec. III-A, "C2" in Fig. 4).
//! The [`ResourceHarvester`] sits between the batch scheduler and the rFaaS
//! manager: it offers idle cores/memory as harvestable bundles and supports
//! reclamation, which the manager translates into lease terminations.

use crate::jobs::BatchScheduler;
use crate::node::NodeResources;

/// An offer of harvestable resources on one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarvestedResources {
    /// Node the resources live on.
    pub node_name: String,
    /// Cores and memory available for spot executors.
    pub available: NodeResources,
}

/// Policy knobs for harvesting.
#[derive(Debug, Clone, Copy)]
pub struct HarvestPolicy {
    /// Cores kept in reserve on every node for incoming batch jobs.
    pub reserved_cores: u32,
    /// Memory (MiB) kept in reserve on every node.
    pub reserved_memory_mib: u64,
    /// Smallest bundle worth offering; avoids fragmenting the pool.
    pub min_offer: NodeResources,
}

impl Default for HarvestPolicy {
    fn default() -> Self {
        HarvestPolicy {
            reserved_cores: 2,
            reserved_memory_mib: 8 * 1024,
            min_offer: NodeResources {
                cores: 1,
                memory_mib: 1024,
            },
        }
    }
}

/// Extracts idle-resource offers from a batch-managed cluster.
#[derive(Debug, Default)]
pub struct ResourceHarvester {
    /// The reserves an offer leaves; only tests compute offers.
    #[cfg(test)]
    policy: HarvestPolicy,
}

impl ResourceHarvester {
    /// Harvester with an explicit policy.
    #[cfg(test)]
    fn new(policy: HarvestPolicy) -> ResourceHarvester {
        ResourceHarvester { policy }
    }

    /// Current offers over all nodes of `scheduler`.
    #[cfg(test)]
    fn offers(&self, scheduler: &BatchScheduler) -> Vec<HarvestedResources> {
        scheduler
            .nodes()
            .iter()
            .filter_map(|node| {
                let idle = node.idle();
                let available = NodeResources {
                    cores: idle.cores.saturating_sub(self.policy.reserved_cores),
                    memory_mib: idle
                        .memory_mib
                        .saturating_sub(self.policy.reserved_memory_mib),
                };
                if available.can_fit(&self.policy.min_offer) {
                    Some(HarvestedResources {
                        node_name: node.name.clone(),
                        available,
                    })
                } else {
                    None
                }
            })
            .collect()
    }

    /// Claim `request` on the named node. Returns whether the claim succeeded
    /// (it fails if a batch job grabbed the resources first).
    pub fn claim(
        &self,
        scheduler: &mut BatchScheduler,
        node_name: &str,
        request: NodeResources,
    ) -> bool {
        scheduler
            .nodes_mut()
            .iter_mut()
            .find(|n| n.name == node_name)
            .map(|n| n.harvest(request))
            .unwrap_or(false)
    }

    /// Return previously claimed resources on the named node.
    pub fn release(&self, scheduler: &mut BatchScheduler, node_name: &str, request: NodeResources) {
        if let Some(node) = scheduler
            .nodes_mut()
            .iter_mut()
            .find(|n| n.name == node_name)
        {
            node.release_harvest(request);
        }
    }

    /// Take the node back for the batch system: return the node's entire
    /// harvested bundle to the idle pool and report what was reclaimed. The
    /// rFaaS manager translates this into deregistering the node's spot
    /// executor and terminating its leases (Sec. III-A reclamation).
    pub fn reclaim_node(
        &self,
        scheduler: &mut BatchScheduler,
        node_name: &str,
    ) -> Option<NodeResources> {
        let node = scheduler
            .nodes_mut()
            .iter_mut()
            .find(|n| n.name == node_name)?;
        let reclaimed = node.harvested;
        node.release_harvest(reclaimed);
        Some(reclaimed)
    }

    /// Nodes whose harvested resources collide with batch demand: the idle
    /// pool went negative, so the manager must reclaim leases there.
    pub fn reclamation_candidates(&self, scheduler: &BatchScheduler) -> Vec<String> {
        scheduler
            .nodes()
            .iter()
            .filter(|n| {
                let committed = n.batch_allocated.add(&n.harvested);
                committed.cores > n.total.cores || committed.memory_mib > n.total.memory_mib
            })
            .map(|n| n.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeResources;

    fn idle_cluster(nodes: usize) -> BatchScheduler {
        BatchScheduler::new(nodes, NodeResources::xeon_gold_6154_dual())
    }

    #[test]
    fn idle_cluster_offers_almost_everything() {
        let sched = idle_cluster(4);
        let harvester = ResourceHarvester::default();
        let offers = harvester.offers(&sched);
        assert_eq!(offers.len(), 4);
        for offer in &offers {
            assert_eq!(offer.available.cores, 36 - 2);
            assert!(offer.available.memory_mib > 300 * 1024);
        }
    }

    #[test]
    fn busy_nodes_offer_nothing() {
        let mut sched = idle_cluster(2);
        for node in sched.nodes_mut() {
            assert!(node.allocate_batch(NodeResources {
                cores: 36,
                memory_mib: 1024
            }));
        }
        let harvester = ResourceHarvester::default();
        assert!(harvester.offers(&sched).is_empty());
    }

    #[test]
    fn claim_and_release_round_trip() {
        let mut sched = idle_cluster(1);
        let harvester = ResourceHarvester::default();
        let request = NodeResources {
            cores: 8,
            memory_mib: 16 * 1024,
        };
        assert!(harvester.claim(&mut sched, "nid00000", request));
        let offers = harvester.offers(&sched);
        assert_eq!(offers[0].available.cores, 36 - 2 - 8);
        harvester.release(&mut sched, "nid00000", request);
        assert_eq!(harvester.offers(&sched)[0].available.cores, 34);
        // Claims on unknown nodes fail gracefully.
        assert!(!harvester.claim(&mut sched, "missing", request));
    }

    #[test]
    fn reclamation_detects_overcommitted_nodes() {
        let mut sched = idle_cluster(1);
        let harvester = ResourceHarvester::default();
        // Harvest most of the node, then a batch job takes the whole node.
        assert!(harvester.claim(
            &mut sched,
            "nid00000",
            NodeResources {
                cores: 30,
                memory_mib: 1024
            }
        ));
        // Batch allocation bypasses the harvest (arrives through SLURM).
        sched.nodes_mut()[0].batch_allocated = NodeResources {
            cores: 36,
            memory_mib: 2048,
        };
        let candidates = harvester.reclamation_candidates(&sched);
        assert_eq!(candidates, vec!["nid00000".to_string()]);
    }

    #[test]
    fn reclaim_node_returns_the_whole_harvested_bundle() {
        let mut sched = idle_cluster(2);
        let harvester = ResourceHarvester::default();
        let request = NodeResources {
            cores: 12,
            memory_mib: 32 * 1024,
        };
        assert!(harvester.claim(&mut sched, "nid00000", request));
        let reclaimed = harvester.reclaim_node(&mut sched, "nid00000").unwrap();
        assert_eq!(reclaimed, request);
        assert_eq!(sched.nodes()[0].harvested, NodeResources::ZERO);
        assert_eq!(sched.nodes()[0].idle().cores, 36);
        // Unharvested and unknown nodes reclaim nothing.
        assert_eq!(
            harvester.reclaim_node(&mut sched, "nid00001"),
            Some(NodeResources::ZERO)
        );
        assert_eq!(harvester.reclaim_node(&mut sched, "missing"), None);
    }

    #[test]
    fn policy_reserves_are_respected() {
        let sched = idle_cluster(1);
        let harvester = ResourceHarvester::new(HarvestPolicy {
            reserved_cores: 10,
            reserved_memory_mib: 100 * 1024,
            min_offer: NodeResources {
                cores: 1,
                memory_mib: 1024,
            },
        });
        let offers = harvester.offers(&sched);
        assert_eq!(offers[0].available.cores, 26);
        assert_eq!(offers[0].available.memory_mib, 277 * 1024);
    }
}

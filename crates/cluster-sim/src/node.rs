//! Cluster nodes and their resource accounting.

/// Compute resources of one node (or of a reservation on one node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeResources {
    /// Physical CPU cores.
    pub cores: u32,
    /// Memory in mebibytes.
    pub memory_mib: u64,
}

impl NodeResources {
    /// The evaluation cluster's node shape: 2 × 18-core Xeon Gold 6154 with
    /// 377 GiB of memory (Sec. V, "Platform").
    pub fn xeon_gold_6154_dual() -> NodeResources {
        NodeResources {
            cores: 36,
            memory_mib: 377 * 1024,
        }
    }

    /// Whether this amount can satisfy a request of `other`.
    pub fn can_fit(&self, other: &NodeResources) -> bool {
        self.cores >= other.cores && self.memory_mib >= other.memory_mib
    }

    /// Subtract `other`, saturating at zero.
    pub fn saturating_sub(&self, other: &NodeResources) -> NodeResources {
        NodeResources {
            cores: self.cores.saturating_sub(other.cores),
            memory_mib: self.memory_mib.saturating_sub(other.memory_mib),
        }
    }

    /// Add `other`.
    pub fn add(&self, other: &NodeResources) -> NodeResources {
        NodeResources {
            cores: self.cores + other.cores,
            memory_mib: self.memory_mib + other.memory_mib,
        }
    }

    /// An empty resource bundle.
    pub const ZERO: NodeResources = NodeResources {
        cores: 0,
        memory_mib: 0,
    };
}

/// One node of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterNode {
    /// Node hostname.
    pub name: String,
    /// Total installed resources.
    pub total: NodeResources,
    /// Resources currently allocated to batch jobs.
    pub batch_allocated: NodeResources,
    /// Resources currently leased to rFaaS spot executors.
    pub harvested: NodeResources,
}

impl ClusterNode {
    /// Create an idle node.
    pub fn new(name: &str, total: NodeResources) -> ClusterNode {
        ClusterNode {
            name: name.to_string(),
            total,
            batch_allocated: NodeResources::ZERO,
            harvested: NodeResources::ZERO,
        }
    }

    /// Resources not used by batch jobs nor harvested.
    pub fn idle(&self) -> NodeResources {
        self.total
            .saturating_sub(&self.batch_allocated)
            .saturating_sub(&self.harvested)
    }

    /// Fraction of cores idle (not allocated to batch jobs), in [0, 1].
    pub fn idle_core_fraction(&self) -> f64 {
        if self.total.cores == 0 {
            return 0.0;
        }
        (self.total.cores - self.batch_allocated.cores.min(self.total.cores)) as f64
            / self.total.cores as f64
    }

    /// Fraction of memory free (not allocated to batch jobs), in [0, 1].
    pub fn free_memory_fraction(&self) -> f64 {
        if self.total.memory_mib == 0 {
            return 0.0;
        }
        (self.total.memory_mib - self.batch_allocated.memory_mib.min(self.total.memory_mib)) as f64
            / self.total.memory_mib as f64
    }

    /// Try to allocate `request` to a batch job. Returns whether it fit.
    pub fn allocate_batch(&mut self, request: NodeResources) -> bool {
        if self.idle().can_fit(&request) {
            self.batch_allocated = self.batch_allocated.add(&request);
            true
        } else {
            false
        }
    }

    /// Release a batch allocation.
    pub fn release_batch(&mut self, request: NodeResources) {
        self.batch_allocated = self.batch_allocated.saturating_sub(&request);
    }

    /// Try to harvest `request` for a spot executor. Returns whether it fit.
    pub fn harvest(&mut self, request: NodeResources) -> bool {
        if self.idle().can_fit(&request) {
            self.harvested = self.harvested.add(&request);
            true
        } else {
            false
        }
    }

    /// Return previously harvested resources to the idle pool.
    pub fn release_harvest(&mut self, request: NodeResources) {
        self.harvested = self.harvested.saturating_sub(&request);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_node_shape() {
        let r = NodeResources::xeon_gold_6154_dual();
        assert_eq!(r.cores, 36);
        assert_eq!(r.memory_mib, 377 * 1024);
    }

    #[test]
    fn resource_arithmetic() {
        let a = NodeResources {
            cores: 10,
            memory_mib: 100,
        };
        let b = NodeResources {
            cores: 4,
            memory_mib: 60,
        };
        assert!(a.can_fit(&b));
        assert!(!b.can_fit(&a));
        assert_eq!(
            a.saturating_sub(&b),
            NodeResources {
                cores: 6,
                memory_mib: 40
            }
        );
        assert_eq!(b.saturating_sub(&a), NodeResources::ZERO);
        assert_eq!(
            a.add(&b),
            NodeResources {
                cores: 14,
                memory_mib: 160
            }
        );
    }

    #[test]
    fn batch_allocation_and_idle_tracking() {
        let mut node = ClusterNode::new(
            "nid00001",
            NodeResources {
                cores: 36,
                memory_mib: 1000,
            },
        );
        assert!(node.allocate_batch(NodeResources {
            cores: 30,
            memory_mib: 200
        }));
        assert_eq!(node.idle().cores, 6);
        assert!((node.idle_core_fraction() - 6.0 / 36.0).abs() < 1e-9);
        assert!((node.free_memory_fraction() - 0.8).abs() < 1e-9);
        // Over-allocation is rejected.
        assert!(!node.allocate_batch(NodeResources {
            cores: 10,
            memory_mib: 10
        }));
        node.release_batch(NodeResources {
            cores: 30,
            memory_mib: 200,
        });
        assert_eq!(node.idle().cores, 36);
    }

    #[test]
    fn harvesting_respects_batch_allocations() {
        let mut node = ClusterNode::new(
            "nid00002",
            NodeResources {
                cores: 36,
                memory_mib: 1000,
            },
        );
        node.allocate_batch(NodeResources {
            cores: 20,
            memory_mib: 100,
        });
        assert!(node.harvest(NodeResources {
            cores: 16,
            memory_mib: 800
        }));
        assert!(
            !node.harvest(NodeResources {
                cores: 1,
                memory_mib: 1
            }) || node.idle().cores > 0
        );
        assert_eq!(
            node.idle(),
            NodeResources {
                cores: 0,
                memory_mib: 100
            }
        );
        node.release_harvest(NodeResources {
            cores: 16,
            memory_mib: 800,
        });
        assert_eq!(node.idle().cores, 16);
    }

    #[test]
    fn fractions_handle_degenerate_nodes() {
        let node = ClusterNode::new("empty", NodeResources::ZERO);
        assert_eq!(node.idle_core_fraction(), 0.0);
        assert_eq!(node.free_memory_fraction(), 0.0);
    }
}

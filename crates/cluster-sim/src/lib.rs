//! Cluster, batch scheduler and idle-resource harvesting simulation.
//!
//! rFaaS's motivation (Sec. II-A, Fig. 2) is that batch-managed HPC systems
//! leave CPU cores and — especially — memory idle for short, unpredictable
//! windows, and that those windows can host ephemeral serverless executors.
//! The paper observes Piz Daint through SLURM at one-minute granularity; real
//! traces are not redistributable, so this crate builds a synthetic cluster
//! with a batch-job arrival process whose utilisation statistics match the
//! published figures (80–94% node utilisation, ~75% of node memory unused),
//! and exposes the harvested idle resources to the rFaaS resource manager.
//!
//! * [`node`] — node inventory and resource accounting,
//! * [`jobs`] — batch-job generator and a simple FCFS backfilling scheduler,
//!   which also hands idle bundles to spot executors and reclaims them,
//! * [`trace`] — utilisation time series (regenerates Fig. 2),
//! * [`tenants`] — seeded multi-tenant fleet generation (the serverless
//!   demand side that the sharded manager plane scales against).

pub mod jobs;
pub mod node;
pub mod tenants;
pub mod trace;

pub use jobs::{BatchJob, BatchScheduler};
pub use node::{ClusterNode, NodeResources};
pub use tenants::{episode_ordinals, TenantFleet, TenantProfile, TenantRequest, WorkloadKind};
pub use trace::{TracePoint, UtilizationTrace};

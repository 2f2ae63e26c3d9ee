//! Umbrella crate of the rFaaS reproduction (IPDPS 2023).
//!
//! Re-exports every workspace crate so examples and downstream users can pull
//! the whole system in with a single dependency. See the `rfaas` crate for
//! the platform itself, `rdma_fabric` for the software RDMA substrate, and
//! `DESIGN.md` / `EXPERIMENTS.md` at the repository root for the system
//! inventory and the per-figure reproduction index.

pub use cluster_sim;
pub use faas_baselines;
pub use rdma_fabric;
pub use rfaas;
pub use sandbox;
pub use sim_core;
pub use state_plane;
pub use workloads;

//! A rank-per-thread message-passing runtime with virtual-time accounting.
//!
//! The paper's HPC experiments (Sec. V-G) accelerate MPI applications with
//! rFaaS: every MPI rank offloads half of its work to a leased function. This
//! crate provides the message-passing substrate those experiments run on —
//! ranks are OS threads, the barrier moves real messages through channels,
//! and communication time is charged on per-rank
//! [`VirtualClock`](sim_core::VirtualClock)s using the same latency/bandwidth constants as the RDMA
//! fabric (MPI on the evaluation cluster runs over the same 100 Gb/s link).

pub mod collectives;
pub mod comm;

pub use comm::{MpiWorld, Rank, RankResult};

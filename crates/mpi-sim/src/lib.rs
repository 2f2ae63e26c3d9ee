//! A bulk-synchronous message-passing world with virtual-time accounting.
//!
//! The paper's HPC experiments (Sec. V-G) accelerate MPI applications with
//! rFaaS: every MPI rank offloads half of its work to a leased function. This
//! crate provides the message-passing substrate those experiments run on. A
//! [`MpiWorld`] holds one
//! [`VirtualClock`](sim_core::VirtualClock) per rank and runs rank bodies on
//! the calling thread, in rank order; callers drive their ranks in lockstep,
//! every rank finishing one stage before any rank starts the next. The
//! barrier, the one collective the experiments use, is computed in closed
//! form on the rank clocks, charging the latency of the RDMA fabric (MPI on
//! the evaluation cluster runs over the same 100 Gb/s link).

mod comm;

pub use comm::{MpiWorld, Rank};

//! # state-plane — zero-copy RDMA state for stateful functions
//!
//! rFaaS functions are stateless by construction: every invocation ships its
//! whole input over the wire and its whole output back. That is the right
//! call for latency, but it makes iterative workloads (streaming
//! aggregation, model training) pay a copy-in/copy-out tax proportional to
//! their *state*, not their *update*. This crate adds the missing tier: a
//! distributed KV store whose metadata rides the control plane and whose
//! bytes ride one-sided RDMA.
//!
//! The split mirrors the rest of the platform:
//!
//! * [`StateFrame`] — the control-plane wire protocol (lookup, reserve,
//!   commit, delete, invalidate), datagram-shaped like the allocation
//!   protocol's `ControlFrame`.
//! * [`RegionAllocator`] — span bookkeeping over a memory region registered
//!   once; values are carved out of it, never registered individually.
//! * [`StatePlane`] — the owner: one pre-registered arena plus the metadata
//!   service that maps keys to arena spans and fans out invalidations.
//! * [`StateClient`] — an attached consumer: a pre-registered cache region
//!   serving hot keys with zero wire cost, one-sided READs on misses,
//!   push-model Writes on puts.
//! * [`StateSpec`] / [`StateKey`] — the declared key dependencies of a
//!   function binding, validated once at bind time.
//!
//! Everything is costed by the fabric's `NicProfile` and advances virtual
//! clocks only, so simulations involving state stay deterministic.

mod error;
mod frame;
mod plane;
mod region;
mod spec;

pub use error::{Result, StateError};
pub use frame::StateFrame;
pub use plane::{
    StateClient, StateClientStats, StatePlacement, StatePlane, StatePlaneStats, StateValues,
};
pub use region::{RegionAllocator, Span};
pub use spec::{StateKey, StateMode, StateSpec};

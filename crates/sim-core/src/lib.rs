//! Core simulation utilities shared by every crate in the rFaaS reproduction.
//!
//! The reproduction measures performance in *virtual time*: data movement and
//! computation really happen, but their duration is charged from calibrated
//! cost models onto per-actor [`VirtualClock`]s. This module provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual timestamps,
//! * [`VirtualClock`] — a monotonically advancing clock owned by one actor
//!   (client, executor worker, manager, MPI rank, ...),
//! * [`stats`] — medians, percentiles and the non-parametric confidence
//!   intervals the paper reports,
//! * [`rng`] — small deterministic PRNG helpers so experiments are repeatable,
//! * [`histogram`] — fixed-bucket latency histograms for harness output,
//! * [`pool`] — [`KeyedPool`], values parked per key and redeemed oldest
//!   first: connection warmth tokens and warm fork parents,
//! * [`sync`] — the workspace's locks: a non-poisoning `Mutex` / `RwLock`
//!   facade over `std::sync`, and rank-ordered mutexes enforcing the
//!   workspace lock order (checked in debug builds),
//! * [`wire`] — the little-endian frame reader and writer the allocation
//!   and state control planes share.

pub mod clock;
pub mod histogram;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;
pub mod wire;

pub use clock::VirtualClock;
pub use histogram::LatencyHistogram;
pub use pool::{KeyedPool, PoolStats};
pub use rng::{splitmix64_finalize, DeterministicRng};
pub use stats::{median, ConfidenceInterval, Summary};
pub use sync::{LockRank, OrderedMutex, OrderedMutexGuard};
pub use time::{SimDuration, SimTime};

//! rFaaS: an RDMA-accelerated Function-as-a-Service platform with allocation
//! leases and microsecond invocations.
//!
//! This crate is the Rust reproduction of the system described in
//! *"rFaaS: Enabling High Performance Serverless with RDMA and Leases"*
//! (Copik et al., IPDPS 2023). It implements the three architectural ideas of
//! the paper on top of the software RDMA fabric of [`rdma_fabric`]:
//!
//! 1. **Allocation leases** ([`manager`]) — clients contact the resource
//!    manager once to lease spot executors; warm and hot invocations bypass
//!    the control plane entirely.
//! 2. **Direct, decentralised invocations** ([`executor`], [`Session`]) —
//!    the client holds an RDMA connection to every executor worker thread
//!    and invokes functions by writing header + payload straight into the
//!    worker's registered memory; results are written straight back. One
//!    client type, [`Session`], owns the lease, the connections and the
//!    transparent recovery; [`client`] holds its wire-level pieces.
//! 3. **Hot, warm and cold invocation types** — busy-polling workers serve
//!    hot invocations with ~300 ns of platform overhead, blocking workers
//!    serve warm invocations a few microseconds slower but release the CPU,
//!    and cold invocations pay sandbox initialisation (Fig. 5).
//! 4. **A fork tier between warm and cold** — deallocated sandboxes park in
//!    per-executor warm pools ([`sandbox::WarmPool`], a view over the same
//!    [`sim_core::KeyedPool`] that pools connection warmth) and later
//!    allocations of the same package either resume a parked parent or
//!    *remote-fork* from its snapshot, lazily faulting pages in over
//!    one-sided RDMA reads ([`executor::ForkFaultState`]); see
//!    [`executor::AllocationPolicy`].
//!
//! ```
//! use std::sync::Arc;
//! use rdma_fabric::Fabric;
//! use cluster_sim::NodeResources;
//! use sandbox::{CodePackage, FunctionRegistry, echo_function};
//! use rfaas::{ResourceManager, RFaasConfig, Session, SpotExecutor};
//!
//! // Deploy a code package and offer one spot executor.
//! let fabric = Fabric::with_defaults();
//! let registry = FunctionRegistry::new();
//! registry.deploy(CodePackage::minimal("demo").with_function(echo_function()));
//! let manager = ResourceManager::new(&fabric, RFaasConfig::default());
//! let executor = SpotExecutor::new(
//!     &fabric, "node-1",
//!     NodeResources { cores: 4, memory_mib: 8192 },
//!     registry, RFaasConfig::default(),
//! );
//! manager.register_executor(&executor);
//!
//! // Lease one worker and invoke the echo function over RDMA through a
//! // typed handle: payload length and buffer sizing come from the codec.
//! let session = Session::builder(&fabric, "client", &manager, "demo")
//!     .connect()
//!     .unwrap();
//! let echo = session.function::<[u8], [u8]>("echo").unwrap();
//! let (reply, rtt) = echo.invoke_timed(b"hello rfaas").unwrap();
//! assert_eq!(reply, b"hello rfaas");
//! assert!(rtt.as_micros_f64() < 50.0);
//! session.close().unwrap();
//! ```

pub mod billing;
pub mod client;
pub mod codec;
pub mod config;
pub mod error;
pub mod executor;
pub mod lifecycle;
pub mod manager;
pub mod protocol;
pub mod reactor;
pub mod session;
pub mod sharding;

pub use billing::{BillingDatabase, UsageRecord};
pub use client::{BatchStats, ColdStartBreakdown, ConnectionPlaneStats};
pub use codec::{check_capacity, Codec, F64View};
pub use config::{
    PollingMode, RFaasConfig, ALLOCATION_SUBMIT_COST, HEARTBEAT_INTERVAL, HEARTBEAT_TIMEOUT,
    HOT_POLL_TIMEOUT,
};
pub use error::{RFaasError, Result};
pub use executor::{
    AllocationPolicy, ExecutorProcess, FaultBatch, ForkFaultState, LightweightAllocator,
    SpotExecutor, WorkerStats,
};
pub use lifecycle::{LifecycleDriver, LifecycleStats};
pub use manager::ResourceManager;
pub use protocol::{
    ControlFrame, ImmValue, InvocationHeader, Lease, LeaseRequest, ResultStatus,
    INVOCATION_HEADER_BYTES,
};
pub use reactor::{Reactor, ReactorStats};
pub use session::{
    AllocationBuilder, CompletionSet, FunctionHandle, Session, SessionState, SessionStats,
    TypedFuture,
};
pub use sharding::{HashRing, ManagerGroup};
// The state plane is part of the client surface (builder knob, `with_state`
// declarations, `Session::state`), so its vocabulary types are re-exported.
pub use state_plane::{
    StateClientStats, StateError, StateKey, StateMode, StatePlane, StatePlaneStats, StateSpec,
};

//! Execution sandboxes and function code packages.
//!
//! rFaaS executes user functions inside isolated sandboxes — bare-metal
//! processes for trusted single-tenant deployments and Docker containers with
//! SR-IOV passthrough for multi-tenant clusters. The paper's cold
//! start measurements (Fig. 9) are dominated by sandbox initialisation, so
//! this crate models the lifecycle costs, while the functions themselves are
//! *real Rust code* registered behind the paper's `f(in, size, out)` ABI.
//!
//! * [`function`] — the function ABI, code packages and built-in functions,
//! * [`registry`] — function/code registries and the Docker image registry,
//! * [`sandbox`] — sandbox types, lifecycle state machine and cost model,
//! * [`snapshot`] — parent snapshots and page-fault accounting for remote fork,
//! * [`warm_pool`] — pre-warmed fork parents pooled per sandbox type/package
//!   in a [`sim_core::KeyedPool`].

pub mod function;
pub mod registry;
pub mod sandbox;
pub mod snapshot;
pub mod warm_pool;

pub use function::{
    echo_function, FunctionError, FunctionOutcome, RemoteFunction, SharedFunction, StateAccess,
};
pub use registry::{CodePackage, FunctionRegistry, ImageInfo, ImageRegistry};
pub use sandbox::{Sandbox, SandboxState, SandboxType, SpawnBreakdown};
pub use snapshot::{FaultTracker, SandboxSnapshot, SNAPSHOT_PAGE_BYTES};
pub use warm_pool::{WarmParent, WarmPool};

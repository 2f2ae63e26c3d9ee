//! Error types of the rFaaS platform.

use std::fmt;

use rdma_fabric::FabricError;
use sandbox::FunctionError;
use sim_core::wire::FrameError;
use state_plane::StateError;

/// Errors surfaced by the rFaaS client library, resource manager and
/// executors.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard arm
/// so the platform can grow new failure modes without breaking callers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RFaasError {
    /// The resource manager has no executor able to satisfy the request.
    InsufficientResources {
        /// Cores requested.
        requested_cores: u32,
        /// Memory requested (MiB).
        requested_memory_mib: u64,
    },
    /// The referenced lease does not exist or has already been released.
    UnknownLease(u64),
    /// The lease expired before the operation completed.
    LeaseExpired(u64),
    /// The requested code package is not deployed in the registry.
    UnknownPackage(String),
    /// The requested function does not exist in the allocated package.
    UnknownFunction(String),
    /// No executor workers are allocated; call `allocate` first.
    NotAllocated,
    /// The invocation payload exceeds the executor's registered input buffer.
    PayloadTooLarge {
        /// Payload size including the header.
        payload: usize,
        /// Executor input-buffer capacity.
        capacity: usize,
    },
    /// The executor rejected the invocation (resources busy) and no other
    /// executor could take it.
    AllWorkersBusy,
    /// The executor reported a function-level failure.
    Function(FunctionError),
    /// The underlying RDMA fabric failed.
    Fabric(FabricError),
    /// The executor process disappeared (connection lost / node reclaimed).
    ExecutorLost(String),
    /// A typed payload failed to encode or decode (malformed wire bytes for
    /// the requested [`crate::Codec`]).
    Codec(String),
    /// The state plane rejected an operation (unknown key, exhausted arena,
    /// value too large for the client cache, ...).
    StatePlane(StateError),
    /// An internal invariant was violated (bug guard).
    Internal(String),
}

impl fmt::Display for RFaasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RFaasError::InsufficientResources { requested_cores, requested_memory_mib } => write!(
                f,
                "no spot executor can provide {requested_cores} cores and {requested_memory_mib} MiB"
            ),
            RFaasError::UnknownLease(id) => write!(f, "unknown lease {id}"),
            RFaasError::LeaseExpired(id) => write!(f, "lease {id} has expired"),
            RFaasError::UnknownPackage(name) => write!(f, "code package '{name}' is not deployed"),
            RFaasError::UnknownFunction(name) => write!(f, "function '{name}' not found in package"),
            RFaasError::NotAllocated => write!(f, "no executors allocated; call allocate() first"),
            RFaasError::PayloadTooLarge { payload, capacity } => write!(
                f,
                "payload of {payload} bytes exceeds the executor input buffer of {capacity} bytes"
            ),
            RFaasError::AllWorkersBusy => write!(f, "all executor workers rejected the invocation"),
            RFaasError::Function(e) => write!(f, "function error: {e}"),
            RFaasError::Fabric(e) => write!(f, "fabric error: {e}"),
            RFaasError::ExecutorLost(name) => write!(f, "executor '{name}' is no longer reachable"),
            RFaasError::Codec(msg) => write!(f, "codec error: {msg}"),
            RFaasError::StatePlane(e) => write!(f, "state plane error: {e}"),
            RFaasError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for RFaasError {}

impl From<FabricError> for RFaasError {
    fn from(e: FabricError) -> Self {
        RFaasError::Fabric(e)
    }
}

impl From<FunctionError> for RFaasError {
    fn from(e: FunctionError) -> Self {
        RFaasError::Function(e)
    }
}

impl From<StateError> for RFaasError {
    fn from(e: StateError) -> Self {
        RFaasError::StatePlane(e)
    }
}

/// A malformed allocation control frame.
impl From<FrameError> for RFaasError {
    fn from(e: FrameError) -> Self {
        RFaasError::Internal(format!("control frame {e}"))
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RFaasError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_wrap_sources() {
        let e: RFaasError = FabricError::NotConnected.into();
        assert!(matches!(e, RFaasError::Fabric(FabricError::NotConnected)));
        let e: RFaasError = FunctionError::InvalidInput("bad".into()).into();
        assert!(matches!(e, RFaasError::Function(_)));
        let e: RFaasError = StateError::UnknownKey("model".into()).into();
        assert!(matches!(e, RFaasError::StatePlane(_)));
    }

    #[test]
    fn display_is_informative() {
        let e = RFaasError::PayloadTooLarge {
            payload: 100,
            capacity: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("10"));
        assert!(RFaasError::UnknownPackage("img".into())
            .to_string()
            .contains("img"));
        assert!(RFaasError::NotAllocated.to_string().contains("allocate"));
    }
}

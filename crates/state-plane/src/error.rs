//! State-plane errors.

use rdma_fabric::FabricError;
use sim_core::wire::FrameError;

/// Errors surfaced by the state plane.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard arm
/// so new failure modes (quota classes, replication faults, ...) can be
/// added without a breaking release.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The key is not present in the plane.
    UnknownKey(String),
    /// The owner's arena cannot hold the value.
    CapacityExhausted {
        /// Bytes the value needs.
        requested: usize,
        /// Largest contiguous free span of the arena.
        largest_free: usize,
    },
    /// The value does not fit the client's pre-registered cache region, so
    /// it cannot be served zero-copy.
    ValueTooLarge {
        /// Bytes the value needs.
        value: usize,
        /// Capacity of the client cache region.
        cache: usize,
    },
    /// A fabric-level failure on the control or data path.
    Fabric(FabricError),
    /// A malformed or unexpected control frame.
    Protocol(String),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::UnknownKey(key) => write!(f, "unknown state key '{key}'"),
            StateError::CapacityExhausted {
                requested,
                largest_free,
            } => write!(
                f,
                "state arena exhausted: {requested} B requested, largest free span {largest_free} B"
            ),
            StateError::ValueTooLarge { value, cache } => write!(
                f,
                "value of {value} B exceeds the {cache} B client cache region"
            ),
            StateError::Fabric(e) => write!(f, "fabric error on the state plane: {e}"),
            StateError::Protocol(msg) => write!(f, "state-plane protocol error: {msg}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<FabricError> for StateError {
    fn from(e: FabricError) -> StateError {
        StateError::Fabric(e)
    }
}

/// A malformed state frame.
impl From<FrameError> for StateError {
    fn from(e: FrameError) -> StateError {
        StateError::Protocol(format!("state frame {e}"))
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StateError>;

//! Work requests, scatter/gather entries and work completions.
//!
//! The types mirror the subset of the ibverbs API that rFaaS relies on:
//! `IBV_WR_SEND`, `IBV_WR_RDMA_WRITE`, `IBV_WR_RDMA_WRITE_WITH_IMM`,
//! `IBV_WR_RDMA_READ` and the two atomics, plus receive work requests and
//! their completions.

use sim_core::SimTime;

use crate::memory::{MemoryRegion, RemoteMemoryHandle};

/// Operation code of a work request / completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCode {
    /// Two-sided send; consumes a posted receive at the remote.
    Send,
    /// One-sided write into remote memory; invisible to the remote CPU.
    Write,
    /// One-sided write that also consumes a posted receive and delivers a
    /// 32-bit immediate value to the remote completion queue.
    WriteWithImm,
    /// One-sided read from remote memory.
    Read,
    /// Remote atomic fetch-and-add on an 8-byte word.
    AtomicFetchAdd,
    /// Remote atomic compare-and-swap on an 8-byte word.
    AtomicCompareSwap,
    /// Completion of a posted receive.
    Recv,
}

/// A local scatter/gather entry: a range of a registered memory region.
#[derive(Debug, Clone)]
pub struct Sge {
    /// The registered region the data lives in.
    pub region: MemoryRegion,
    /// Byte offset into the region.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
}

impl Sge {
    /// A scatter/gather entry covering an entire region.
    pub fn whole(region: &MemoryRegion) -> Sge {
        Sge {
            offset: 0,
            len: region.len(),
            region: region.clone(),
        }
    }

    /// A scatter/gather entry covering `[offset, offset + len)` of `region`.
    pub fn range(region: &MemoryRegion, offset: usize, len: usize) -> Sge {
        Sge {
            region: region.clone(),
            offset,
            len,
        }
    }
}

/// Payload-less description of what to do when posting to a send queue.
#[derive(Debug, Clone)]
pub enum SendRequest {
    /// Two-sided send of the local SGE.
    Send {
        /// Data to transmit.
        local: Sge,
    },
    /// One-sided RDMA write.
    Write {
        /// Data to transmit.
        local: Sge,
        /// Destination address/rkey at the remote.
        remote: RemoteMemoryHandle,
    },
    /// One-sided RDMA write with a 32-bit immediate.
    WriteWithImm {
        /// Data to transmit.
        local: Sge,
        /// Destination address/rkey at the remote.
        remote: RemoteMemoryHandle,
        /// Immediate value delivered with the remote completion. rFaaS packs
        /// the invocation identifier and function index in here.
        imm: u32,
    },
    /// One-sided RDMA read into the local SGE.
    Read {
        /// Local destination for the fetched data.
        local: Sge,
        /// Remote source.
        remote: RemoteMemoryHandle,
    },
    /// Remote atomic fetch-and-add; the original value is written into the
    /// 8-byte local SGE.
    AtomicFetchAdd {
        /// Local 8-byte destination for the original value.
        local: Sge,
        /// Remote 8-byte target word.
        remote: RemoteMemoryHandle,
        /// Addend.
        add: u64,
    },
    /// Remote atomic compare-and-swap; the original value is written into the
    /// 8-byte local SGE.
    AtomicCompareSwap {
        /// Local 8-byte destination for the original value.
        local: Sge,
        /// Remote 8-byte target word.
        remote: RemoteMemoryHandle,
        /// Expected value.
        compare: u64,
        /// Replacement value.
        swap: u64,
    },
}

impl SendRequest {
    /// The local scatter/gather entry of the request.
    pub(crate) fn local(&self) -> &Sge {
        match self {
            SendRequest::Send { local }
            | SendRequest::Write { local, .. }
            | SendRequest::WriteWithImm { local, .. }
            | SendRequest::Read { local, .. }
            | SendRequest::AtomicFetchAdd { local, .. }
            | SendRequest::AtomicCompareSwap { local, .. } => local,
        }
    }
}

/// A receive work request: a buffer waiting for an incoming SEND or
/// WRITE_WITH_IMM.
#[derive(Debug, Clone)]
pub struct RecvRequest {
    /// User-chosen identifier echoed in the completion.
    pub wr_id: u64,
    /// Buffer the incoming message (for SEND) is placed into.
    pub local: Sge,
}

/// Status of a completed work request.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompletionStatus {
    /// The operation completed successfully.
    Success,
    /// The operation failed.
    Error(crate::error::FabricError),
}

impl CompletionStatus {
    /// Whether the completion is successful.
    pub fn is_success(&self) -> bool {
        matches!(self, CompletionStatus::Success)
    }
}

/// A work completion delivered through a completion queue.
#[derive(Debug, Clone)]
pub struct WorkCompletion {
    /// User-chosen identifier of the completed work request.
    pub wr_id: u64,
    /// Operation that completed.
    pub opcode: OpCode,
    /// Success or failure.
    pub status: CompletionStatus,
    /// Number of payload bytes transferred.
    pub byte_len: usize,
    /// Immediate value, present for WRITE_WITH_IMM receive completions.
    pub imm: Option<u32>,
    /// Virtual time at which the completion became visible to its consumer.
    pub timestamp: SimTime,
    /// Queue pair number the completion belongs to.
    pub qp_num: u32,
}

impl WorkCompletion {
    /// Whether the completion reports success.
    pub fn is_success(&self) -> bool {
        self.status.is_success()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_status() {
        assert!(CompletionStatus::Success.is_success());
        assert!(!CompletionStatus::Error(crate::error::FabricError::NotConnected).is_success());
    }
}

//! A software RDMA fabric with a calibrated performance model.
//!
//! This crate replaces the ibverbs/RoCEv2 stack the rFaaS paper runs on. It
//! reproduces the *semantics* rFaaS depends on — protection domains,
//! registered memory with remote keys, reliable-connected queue pairs,
//! one-sided WRITE / WRITE_WITH_IMM / READ, remote atomics, completion queues
//! with busy-polling and blocking waits, SR-IOV virtual functions — and a
//! virtual-time *performance model* calibrated to the paper's evaluation
//! cluster (3.69 µs RTT, 11 686 MiB/s, 128-byte inline threshold).
//!
//! Data really moves: a WRITE copies bytes into the peer's registered buffer.
//! Time is virtual: completion timestamps come from the link model, and each
//! actor's [`sim_core::VirtualClock`] advances to them when it observes the
//! completion, so measured latencies are deterministic and hardware-free.
//!
//! ```
//! use rdma_fabric::{Fabric, Endpoint, QueuePair, SendRequest, Sge, AccessFlags, RecvRequest};
//!
//! let fabric = Fabric::with_defaults();
//! let a = fabric.add_node("client");
//! let b = fabric.add_node("server");
//! let qa = QueuePair::new(&Endpoint::new(&fabric, &a));
//! let qb = QueuePair::new(&Endpoint::new(&fabric, &b));
//! QueuePair::connect_pair(&qa, &qb).unwrap();
//!
//! let payload = qa.pd().register_from(vec![42u8; 64], AccessFlags::LOCAL_ONLY);
//! let target = qb.pd().register(64, AccessFlags::REMOTE_WRITE);
//! let scratch = qb.pd().register(1, AccessFlags::LOCAL_ONLY);
//! qb.post_recv(RecvRequest { wr_id: 1, local: Sge::whole(&scratch) }).unwrap();
//! qa.post_send(7, SendRequest::WriteWithImm {
//!     local: Sge::whole(&payload),
//!     remote: target.remote_handle(),
//!     imm: 123,
//! }, false).unwrap();
//! let completion = qb.recv_cq().poll_one().unwrap();
//! assert_eq!(completion.imm, Some(123));
//! assert_eq!(target.read_all(), vec![42u8; 64]);
//! ```

pub mod cm;
pub mod cq;
pub mod device;
pub mod error;
pub mod fabric;
pub mod fork;
pub mod memory;
pub mod pd;
pub mod pool;
pub mod qp;
pub mod ring;
pub mod srq;
pub mod verbs;

pub use cm::{
    connect, connect_pooled, connect_pooled_with, connect_with_timeout, DatagramMessage,
    DatagramSocket, Listener,
};
pub use cq::{CompletionQueue, CqNotifier, CqSet, WaitMode};
pub use device::{DeviceFunction, NicProfile};
pub use error::{FabricError, Result};
pub use fabric::{Fabric, FabricNode, TransferTiming};
pub use fork::{FaultBatch, PrefetchPlan};
pub use memory::{AccessFlags, MemoryRegion, RemoteMemoryHandle, PAGE_SIZE};
pub use pd::{OwnedRegion, ProtectionDomain};
pub use pool::{ConnectionPool, PoolStats};
pub use qp::{Endpoint, QpState, QueuePair};
pub use ring::{ReceiveRing, RingCompletion, RingState};
pub use srq::{SharedReceiveQueue, SrqStats};
pub use verbs::{CompletionStatus, OpCode, RecvRequest, SendRequest, Sge, WorkCompletion};

//! Wire protocol of rFaaS invocations and leases.
//!
//! An invocation is a single RDMA WRITE_WITH_IMM into the worker's registered
//! input buffer. The buffer starts with a small header telling the executor
//! where to write the result — "an address and access key for a buffer on the
//! client's side" (Sec. IV-A) — followed by the raw payload. The 32-bit
//! immediate value carries the invocation identifier and the function index.
//! The result travels back the same way: a WRITE_WITH_IMM into the client's
//! output buffer whose immediate carries the invocation id and a status code.
//!
//! The paper packs the header into twelve bytes (64-bit address + 32-bit
//! rkey); the software fabric uses 64-bit remote keys and explicit lengths,
//! so the header here is 24 bytes. The cost model is unaffected: both fit in
//! a single cache line and are written once per invocation.

use rdma_fabric::RemoteMemoryHandle;
use sandbox::SandboxType;
use sim_core::{SimDuration, SimTime};

use crate::error::{RFaasError, Result};

/// Size of the invocation header preceding the payload in the executor's
/// input buffer.
pub const INVOCATION_HEADER_BYTES: usize = 24;

/// Header written by the client in front of every invocation payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationHeader {
    /// Remote key of the client's result buffer.
    pub result_rkey: u64,
    /// Offset within the client's result registration.
    pub result_offset: u64,
    /// Capacity of the client's result buffer in bytes.
    pub result_capacity: u64,
}

impl InvocationHeader {
    /// Build a header pointing at the client-side result buffer.
    pub fn for_result_buffer(handle: &RemoteMemoryHandle) -> InvocationHeader {
        InvocationHeader {
            result_rkey: handle.rkey,
            result_offset: handle.offset as u64,
            result_capacity: handle.len as u64,
        }
    }

    /// Serialise into the on-wire byte layout.
    pub fn encode(&self) -> [u8; INVOCATION_HEADER_BYTES] {
        let mut bytes = [0u8; INVOCATION_HEADER_BYTES];
        bytes[0..8].copy_from_slice(&self.result_rkey.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.result_offset.to_le_bytes());
        bytes[16..24].copy_from_slice(&self.result_capacity.to_le_bytes());
        bytes
    }

    /// Parse from the on-wire byte layout.
    pub fn decode(bytes: &[u8]) -> Result<InvocationHeader> {
        if bytes.len() < INVOCATION_HEADER_BYTES {
            return Err(RFaasError::Internal(format!(
                "invocation header truncated: {} bytes",
                bytes.len()
            )));
        }
        Ok(InvocationHeader {
            result_rkey: u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")),
            result_offset: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
            result_capacity: u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
        })
    }

    /// The remote handle this header points at.
    pub fn result_handle(&self) -> RemoteMemoryHandle {
        RemoteMemoryHandle {
            rkey: self.result_rkey,
            offset: self.result_offset as usize,
            len: self.result_capacity as usize,
        }
    }
}

/// Status of an invocation result, carried in the immediate value.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard arm
/// so new status codes can be added without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResultStatus {
    /// The function executed; the completion's byte length is the output size.
    Success,
    /// The executor's resources were busy (oversubscribed warm invocation);
    /// the client should redirect to another executor (Fig. 6).
    Rejected,
    /// The function raised an error.
    FunctionFailed,
    /// The lease backing this worker expired before the invocation arrived;
    /// the client must re-allocate through the resource manager (Sec. III-B).
    LeaseExpired,
}

/// Packing/unpacking of the 32-bit immediate value.
///
/// Request immediates carry `(invocation_id, function_index)`; response
/// immediates carry `(invocation_id, status)`. Invocation ids wrap at 2^24,
/// which is far more than the number of in-flight invocations per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmValue;

impl ImmValue {
    /// Encode a request immediate.
    pub fn request(invocation_id: u32, function_index: u8) -> u32 {
        ((invocation_id & 0x00FF_FFFF) << 8) | function_index as u32
    }

    /// Decode a request immediate into `(invocation_id, function_index)`.
    pub fn parse_request(imm: u32) -> (u32, u8) {
        (imm >> 8, (imm & 0xFF) as u8)
    }

    /// Encode a response immediate.
    pub fn response(invocation_id: u32, status: ResultStatus) -> u32 {
        let code = match status {
            ResultStatus::Success => 0,
            ResultStatus::Rejected => 1,
            ResultStatus::FunctionFailed => 2,
            ResultStatus::LeaseExpired => 3,
        };
        ((invocation_id & 0x00FF_FFFF) << 8) | code
    }

    /// Decode a response immediate into `(invocation_id, status)`.
    pub fn parse_response(imm: u32) -> (u32, ResultStatus) {
        let status = match imm & 0xFF {
            0 => ResultStatus::Success,
            1 => ResultStatus::Rejected,
            3 => ResultStatus::LeaseExpired,
            _ => ResultStatus::FunctionFailed,
        };
        (imm >> 8, status)
    }
}

/// A client's request for executor resources (A1 in Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseRequest {
    /// Worker threads (= parallel function instances) requested.
    pub cores: u32,
    /// Memory for the executor process, in MiB.
    pub memory_mib: u64,
    /// How long the lease should remain valid.
    pub timeout: SimDuration,
    /// Sandbox technology to isolate the executor with.
    pub sandbox: SandboxType,
    /// Name of the deployed code package to load.
    pub package: String,
}

impl LeaseRequest {
    /// A minimal single-worker request for the given package.
    pub fn single_worker(package: &str) -> LeaseRequest {
        LeaseRequest {
            cores: 1,
            memory_mib: 512,
            timeout: SimDuration::from_secs(600),
            sandbox: SandboxType::BareMetal,
            package: package.to_string(),
        }
    }

    /// Builder-style override of the worker count.
    pub fn with_cores(mut self, cores: u32) -> LeaseRequest {
        self.cores = cores;
        self
    }

    /// Builder-style override of the sandbox type.
    pub fn with_sandbox(mut self, sandbox: SandboxType) -> LeaseRequest {
        self.sandbox = sandbox;
        self
    }

    /// Builder-style override of the memory request.
    pub fn with_memory_mib(mut self, memory_mib: u64) -> LeaseRequest {
        self.memory_mib = memory_mib;
        self
    }
}

/// A granted lease on a spot executor (Sec. III-B).
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// Unique lease identifier.
    pub id: u64,
    /// Node the spot executor runs on.
    pub executor_node: String,
    /// Resources granted.
    pub cores: u32,
    /// Memory granted, in MiB.
    pub memory_mib: u64,
    /// Instant the lease expires; the manager reclaims the resources then.
    pub expires_at: SimTime,
    /// Sandbox type the executor will run in.
    pub sandbox: SandboxType,
    /// Code package the executor serves.
    pub package: String,
    /// Index of the lease's billing slot in the manager's billing database.
    pub billing_slot: usize,
}

impl Lease {
    /// Whether the lease is still valid at `now`.
    pub fn is_valid_at(&self, now: SimTime) -> bool {
        now < self.expires_at
    }
}

/// Control-plane frames carried over the datagram first-contact transport.
///
/// Allocation no longer needs a reliable connection: the client sends one
/// `Allocate` datagram carrying its reply address, the manager answers with
/// `Granted` or `Denied`. The frames use a hand-rolled little-endian layout —
/// length-prefixed strings, nanosecond u64 durations — so both ends agree on
/// bytes without relying on a serialisation framework.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlFrame {
    /// A1 in Fig. 4: request resources; `reply_to` is the client's datagram
    /// address the verdict should be sent to.
    Allocate {
        /// Datagram address of the requesting client.
        reply_to: String,
        /// The resource request itself.
        request: LeaseRequest,
    },
    /// A2: the manager granted a lease.
    Granted {
        /// The granted lease.
        lease: Lease,
    },
    /// The manager could not place the request.
    Denied {
        /// Human-readable reason.
        reason: String,
    },
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn sandbox_code(sandbox: SandboxType) -> u8 {
    match sandbox {
        SandboxType::BareMetal => 0,
        SandboxType::Docker => 1,
        SandboxType::Singularity => 2,
        SandboxType::MicroVm => 3,
    }
}

/// Cursor-style decoder over a control frame's bytes.
struct FrameReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> FrameReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.at < n {
            return Err(RFaasError::Internal(format!(
                "control frame truncated at byte {}",
                self.at
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| RFaasError::Internal("control frame string is not UTF-8".into()))
    }

    fn sandbox(&mut self) -> Result<SandboxType> {
        match self.u8()? {
            0 => Ok(SandboxType::BareMetal),
            1 => Ok(SandboxType::Docker),
            2 => Ok(SandboxType::Singularity),
            3 => Ok(SandboxType::MicroVm),
            code => Err(RFaasError::Internal(format!(
                "unknown sandbox code {code} in control frame"
            ))),
        }
    }
}

impl ControlFrame {
    /// Serialise into the on-wire byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            ControlFrame::Allocate { reply_to, request } => {
                out.push(0);
                put_str(&mut out, reply_to);
                out.extend_from_slice(&request.cores.to_le_bytes());
                out.extend_from_slice(&request.memory_mib.to_le_bytes());
                out.extend_from_slice(&request.timeout.as_nanos().to_le_bytes());
                out.push(sandbox_code(request.sandbox));
                put_str(&mut out, &request.package);
            }
            ControlFrame::Granted { lease } => {
                out.push(1);
                out.extend_from_slice(&lease.id.to_le_bytes());
                put_str(&mut out, &lease.executor_node);
                out.extend_from_slice(&lease.cores.to_le_bytes());
                out.extend_from_slice(&lease.memory_mib.to_le_bytes());
                out.extend_from_slice(&lease.expires_at.as_nanos().to_le_bytes());
                out.push(sandbox_code(lease.sandbox));
                put_str(&mut out, &lease.package);
                out.extend_from_slice(&(lease.billing_slot as u64).to_le_bytes());
            }
            ControlFrame::Denied { reason } => {
                out.push(2);
                put_str(&mut out, reason);
            }
        }
        out
    }

    /// Parse from the on-wire byte layout.
    pub fn decode(bytes: &[u8]) -> Result<ControlFrame> {
        let mut r = FrameReader { bytes, at: 0 };
        match r.u8()? {
            0 => Ok(ControlFrame::Allocate {
                reply_to: r.string()?,
                request: LeaseRequest {
                    cores: r.u32()?,
                    memory_mib: r.u64()?,
                    timeout: SimDuration::from_nanos(r.u64()?),
                    sandbox: r.sandbox()?,
                    package: r.string()?,
                },
            }),
            1 => Ok(ControlFrame::Granted {
                lease: Lease {
                    id: r.u64()?,
                    executor_node: r.string()?,
                    cores: r.u32()?,
                    memory_mib: r.u64()?,
                    expires_at: SimTime::from_nanos(r.u64()?),
                    sandbox: r.sandbox()?,
                    package: r.string()?,
                    billing_slot: r.u64()? as usize,
                },
            }),
            2 => Ok(ControlFrame::Denied {
                reason: r.string()?,
            }),
            tag => Err(RFaasError::Internal(format!(
                "unknown control frame tag {tag}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let h = InvocationHeader {
            result_rkey: 0xAABB_CCDD_EEFF_0011,
            result_offset: 4096,
            result_capacity: 1 << 20,
        };
        let bytes = h.encode();
        assert_eq!(bytes.len(), INVOCATION_HEADER_BYTES);
        let decoded = InvocationHeader::decode(&bytes).unwrap();
        assert_eq!(decoded, h);
        let handle = decoded.result_handle();
        assert_eq!(handle.rkey, h.result_rkey);
        assert_eq!(handle.offset, 4096);
        assert_eq!(handle.len, 1 << 20);
    }

    #[test]
    fn header_decode_rejects_short_input() {
        assert!(InvocationHeader::decode(&[0u8; 8]).is_err());
    }

    #[test]
    fn header_from_remote_handle() {
        let handle = RemoteMemoryHandle {
            rkey: 7,
            offset: 128,
            len: 512,
        };
        let h = InvocationHeader::for_result_buffer(&handle);
        assert_eq!(h.result_rkey, 7);
        assert_eq!(h.result_offset, 128);
        assert_eq!(h.result_capacity, 512);
    }

    #[test]
    fn imm_request_round_trip() {
        for id in [0u32, 1, 255, 65_535, 0x00FF_FFFF] {
            for index in [0u8, 1, 17, 255] {
                let imm = ImmValue::request(id, index);
                let (got_id, got_index) = ImmValue::parse_request(imm);
                assert_eq!(got_id, id);
                assert_eq!(got_index, index);
            }
        }
    }

    #[test]
    fn imm_response_round_trip() {
        for status in [
            ResultStatus::Success,
            ResultStatus::Rejected,
            ResultStatus::FunctionFailed,
            ResultStatus::LeaseExpired,
        ] {
            let imm = ImmValue::response(12345, status);
            let (id, got) = ImmValue::parse_response(imm);
            assert_eq!(id, 12345);
            assert_eq!(got, status);
        }
    }

    #[test]
    fn lease_request_builder() {
        let req = LeaseRequest::single_worker("thumbnailer")
            .with_cores(8)
            .with_memory_mib(2048)
            .with_sandbox(SandboxType::Docker);
        assert_eq!(req.cores, 8);
        assert_eq!(req.memory_mib, 2048);
        assert_eq!(req.sandbox, SandboxType::Docker);
        assert_eq!(req.package, "thumbnailer");
    }

    #[test]
    fn lease_validity() {
        let lease = Lease {
            id: 1,
            executor_node: "nid00001".into(),
            cores: 1,
            memory_mib: 512,
            expires_at: SimTime::from_secs(100),
            sandbox: SandboxType::BareMetal,
            package: "noop".into(),
            billing_slot: 0,
        };
        assert!(lease.is_valid_at(SimTime::from_secs(99)));
        assert!(!lease.is_valid_at(SimTime::from_secs(100)));
        assert!(!lease.is_valid_at(SimTime::from_secs(101)));
    }

    #[test]
    fn control_frames_round_trip() {
        let frames = [
            ControlFrame::Allocate {
                reply_to: "rfaas-clt://client-0/1".into(),
                request: LeaseRequest::single_worker("thumbnailer")
                    .with_cores(4)
                    .with_sandbox(SandboxType::Docker),
            },
            ControlFrame::Granted {
                lease: Lease {
                    id: 42,
                    executor_node: "nid00007".into(),
                    cores: 4,
                    memory_mib: 2048,
                    expires_at: SimTime::from_secs(600),
                    sandbox: SandboxType::MicroVm,
                    package: "thumbnailer".into(),
                    billing_slot: 9,
                },
            },
            ControlFrame::Denied {
                reason: "no executor can fit 4 cores".into(),
            },
        ];
        for frame in frames {
            let decoded = ControlFrame::decode(&frame.encode()).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn control_frame_decode_rejects_garbage() {
        assert!(ControlFrame::decode(&[]).is_err());
        assert!(ControlFrame::decode(&[9]).is_err());
        // A truncated Allocate (string length promises more than present).
        let mut bytes = ControlFrame::Denied {
            reason: "x".repeat(40),
        }
        .encode();
        bytes.truncate(10);
        assert!(ControlFrame::decode(&bytes).is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_control_allocate_round_trip(
            cores in 1u32..1024,
            memory_mib in 1u64..1 << 20,
            timeout_ns: u64,
            reply: String,
            package: String,
        ) {
            let frame = ControlFrame::Allocate {
                reply_to: reply,
                request: LeaseRequest {
                    cores,
                    memory_mib,
                    timeout: SimDuration::from_nanos(timeout_ns),
                    sandbox: SandboxType::Singularity,
                    package,
                },
            };
            let decoded = ControlFrame::decode(&frame.encode()).unwrap();
            proptest::prop_assert_eq!(decoded, frame);
        }

        #[test]
        fn prop_imm_request_round_trip(id in 0u32..0x0100_0000, index: u8) {
            let imm = ImmValue::request(id, index);
            let (got_id, got_index) = ImmValue::parse_request(imm);
            proptest::prop_assert_eq!(got_id, id);
            proptest::prop_assert_eq!(got_index, index);
        }

        #[test]
        fn prop_header_round_trip(rkey: u64, offset: u64, capacity: u64) {
            let h = InvocationHeader { result_rkey: rkey, result_offset: offset, result_capacity: capacity };
            let decoded = InvocationHeader::decode(&h.encode()).unwrap();
            proptest::prop_assert_eq!(decoded, h);
        }
    }
}

//! Control-plane frames of the state plane.
//!
//! Everything that is *not* value bytes rides the datagram control path:
//! key → region lookups, put reservations, commits, deletes and the
//! invalidations the owner fans out to caching clients. The frames use the
//! little-endian layout of [`sim_core::wire`], the same as the platform's
//! allocation protocol — length-prefixed strings, explicit u64 words — so
//! both ends agree on bytes without a serialisation framework, and the
//! encoding is bit-stable for the determinism suite.

use sim_core::wire::{put_str, FrameReader};

use crate::error::{Result, StateError};

/// One control-plane message of the state plane.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateFrame {
    /// Client → owner: where does `key` live? Answered with [`StateFrame::Owner`]
    /// or [`StateFrame::NotFound`] to `reply_to`.
    Lookup {
        /// Datagram address the verdict should be sent to.
        reply_to: String,
        /// Key being resolved.
        key: String,
    },
    /// Owner → client: `key` lives at `[offset, offset + len)` of the
    /// owner's arena, currently at `version`. The client may READ it
    /// one-sidedly from now on.
    Owner {
        /// Resolved key.
        key: String,
        /// Byte offset inside the owner's arena.
        offset: u64,
        /// Value length in bytes.
        len: u64,
        /// Monotonic version of the value.
        version: u64,
    },
    /// Owner → client: the key does not exist.
    NotFound {
        /// The unresolved key.
        key: String,
    },
    /// Client → owner: reserve `len` arena bytes for a put of `key`.
    /// Answered with [`StateFrame::Reserved`] or [`StateFrame::Denied`].
    Reserve {
        /// Datagram address the verdict should be sent to.
        reply_to: String,
        /// Key being written.
        key: String,
        /// Bytes the new value needs.
        len: u64,
    },
    /// Owner → client: the span is reserved; push the value bytes with a
    /// one-sided Write, then send [`StateFrame::Commit`].
    Reserved {
        /// Key being written.
        key: String,
        /// Byte offset inside the owner's arena.
        offset: u64,
        /// Reserved length in bytes.
        len: u64,
        /// Version the value will carry once committed.
        version: u64,
    },
    /// Owner → client: the reservation failed — the arena cannot hold the
    /// value. Carries the numbers so the client can surface a typed
    /// capacity error instead of a string.
    Denied {
        /// Key being written.
        key: String,
        /// Bytes the reservation asked for.
        requested: u64,
        /// Largest contiguous free span of the arena.
        largest_free: u64,
    },
    /// Client → owner: the pushed value of `key` is complete; publish it and
    /// invalidate other caches. Fire-and-forget (no reply).
    Commit {
        /// Address of the committing client (skipped by the invalidation
        /// fan-out — its cache is already current).
        reply_to: String,
        /// Committed key.
        key: String,
    },
    /// Client → owner: delete `key`. Answered with [`StateFrame::Deleted`].
    Delete {
        /// Datagram address the verdict should be sent to.
        reply_to: String,
        /// Key being deleted.
        key: String,
    },
    /// Owner → client: the delete ran; `existed` says whether there was a
    /// value to drop.
    Deleted {
        /// Deleted key.
        key: String,
        /// Whether the key existed.
        existed: bool,
    },
    /// Owner → caching client: your copy of `key` is stale. `version == 0`
    /// means the key was deleted; otherwise a newer `version` exists.
    Invalidate {
        /// Invalidated key.
        key: String,
        /// New version, or 0 on delete.
        version: u64,
    },
}

const TAG_LOOKUP: u8 = 1;
const TAG_OWNER: u8 = 2;
const TAG_NOT_FOUND: u8 = 3;
const TAG_RESERVE: u8 = 4;
const TAG_RESERVED: u8 = 5;
const TAG_DENIED: u8 = 6;
const TAG_COMMIT: u8 = 7;
const TAG_DELETE: u8 = 8;
const TAG_DELETED: u8 = 9;
const TAG_INVALIDATE: u8 = 10;

impl StateFrame {
    /// Serialise the frame into datagram payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            StateFrame::Lookup { reply_to, key } => {
                out.push(TAG_LOOKUP);
                put_str(&mut out, reply_to);
                put_str(&mut out, key);
            }
            StateFrame::Owner {
                key,
                offset,
                len,
                version,
            } => {
                out.push(TAG_OWNER);
                put_str(&mut out, key);
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
            }
            StateFrame::NotFound { key } => {
                out.push(TAG_NOT_FOUND);
                put_str(&mut out, key);
            }
            StateFrame::Reserve { reply_to, key, len } => {
                out.push(TAG_RESERVE);
                put_str(&mut out, reply_to);
                put_str(&mut out, key);
                out.extend_from_slice(&len.to_le_bytes());
            }
            StateFrame::Reserved {
                key,
                offset,
                len,
                version,
            } => {
                out.push(TAG_RESERVED);
                put_str(&mut out, key);
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
            }
            StateFrame::Denied {
                key,
                requested,
                largest_free,
            } => {
                out.push(TAG_DENIED);
                put_str(&mut out, key);
                out.extend_from_slice(&requested.to_le_bytes());
                out.extend_from_slice(&largest_free.to_le_bytes());
            }
            StateFrame::Commit { reply_to, key } => {
                out.push(TAG_COMMIT);
                put_str(&mut out, reply_to);
                put_str(&mut out, key);
            }
            StateFrame::Delete { reply_to, key } => {
                out.push(TAG_DELETE);
                put_str(&mut out, reply_to);
                put_str(&mut out, key);
            }
            StateFrame::Deleted { key, existed } => {
                out.push(TAG_DELETED);
                put_str(&mut out, key);
                out.push(u8::from(*existed));
            }
            StateFrame::Invalidate { key, version } => {
                out.push(TAG_INVALIDATE);
                put_str(&mut out, key);
                out.extend_from_slice(&version.to_le_bytes());
            }
        }
        out
    }

    /// Decode a frame from datagram payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<StateFrame> {
        let mut r = FrameReader::new(bytes);
        let frame = match r.u8()? {
            TAG_LOOKUP => StateFrame::Lookup {
                reply_to: r.string()?,
                key: r.string()?,
            },
            TAG_OWNER => StateFrame::Owner {
                key: r.string()?,
                offset: r.u64()?,
                len: r.u64()?,
                version: r.u64()?,
            },
            TAG_NOT_FOUND => StateFrame::NotFound { key: r.string()? },
            TAG_RESERVE => StateFrame::Reserve {
                reply_to: r.string()?,
                key: r.string()?,
                len: r.u64()?,
            },
            TAG_RESERVED => StateFrame::Reserved {
                key: r.string()?,
                offset: r.u64()?,
                len: r.u64()?,
                version: r.u64()?,
            },
            TAG_DENIED => StateFrame::Denied {
                key: r.string()?,
                requested: r.u64()?,
                largest_free: r.u64()?,
            },
            TAG_COMMIT => StateFrame::Commit {
                reply_to: r.string()?,
                key: r.string()?,
            },
            TAG_DELETE => StateFrame::Delete {
                reply_to: r.string()?,
                key: r.string()?,
            },
            TAG_DELETED => StateFrame::Deleted {
                key: r.string()?,
                existed: r.u8()? != 0,
            },
            TAG_INVALIDATE => StateFrame::Invalidate {
                key: r.string()?,
                version: r.u64()?,
            },
            tag => {
                return Err(StateError::Protocol(format!(
                    "unknown state frame tag {tag}"
                )))
            }
        };
        r.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<StateFrame> {
        vec![
            StateFrame::Lookup {
                reply_to: "state://client-0".into(),
                key: "model".into(),
            },
            StateFrame::Owner {
                key: "model".into(),
                offset: 4096,
                len: 1 << 20,
                version: 7,
            },
            StateFrame::NotFound { key: "gone".into() },
            StateFrame::Reserve {
                reply_to: "state://client-1".into(),
                key: "agg".into(),
                len: 256,
            },
            StateFrame::Reserved {
                key: "agg".into(),
                offset: 0,
                len: 256,
                version: 1,
            },
            StateFrame::Denied {
                key: "huge".into(),
                requested: 1 << 30,
                largest_free: 4096,
            },
            StateFrame::Commit {
                reply_to: "state://client-1".into(),
                key: "agg".into(),
            },
            StateFrame::Delete {
                reply_to: "state://client-0".into(),
                key: "agg".into(),
            },
            StateFrame::Deleted {
                key: "agg".into(),
                existed: true,
            },
            StateFrame::Invalidate {
                key: "model".into(),
                version: 8,
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in frames() {
            let bytes = frame.encode();
            assert_eq!(StateFrame::decode(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_are_rejected() {
        for frame in frames() {
            let bytes = frame.encode();
            for cut in 1..bytes.len() {
                assert!(
                    StateFrame::decode(&bytes[..cut]).is_err(),
                    "truncation at {cut} must not decode: {frame:?}"
                );
            }
            let mut padded = bytes.clone();
            padded.push(0);
            assert!(StateFrame::decode(&padded).is_err());
        }
        assert!(StateFrame::decode(&[]).is_err());
        assert!(StateFrame::decode(&[99]).is_err());
    }

    proptest::proptest! {
        // Any (reply_to, key, words) combination survives the wire.
        #[test]
        fn prop_state_frame_round_trip(reply_to: String, key: String, a: u64, b: u64, c: u64) {
            for frame in [
                StateFrame::Lookup { reply_to: reply_to.clone(), key: key.clone() },
                StateFrame::Owner { key: key.clone(), offset: a, len: b, version: c },
                StateFrame::Reserve { reply_to: reply_to.clone(), key: key.clone(), len: a },
                StateFrame::Reserved { key: key.clone(), offset: a, len: b, version: c },
                StateFrame::Denied { key: key.clone(), requested: a, largest_free: b },
                StateFrame::Commit { reply_to: reply_to.clone(), key: key.clone() },
                StateFrame::Deleted { key: key.clone(), existed: a & 1 == 1 },
                StateFrame::Invalidate { key, version: c },
            ] {
                proptest::prop_assert_eq!(StateFrame::decode(&frame.encode()).unwrap(), frame);
            }
        }
    }
}

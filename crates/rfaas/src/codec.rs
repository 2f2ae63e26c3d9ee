//! Typed payload codecs for the session API.
//!
//! A [`Codec`] describes how a Rust value maps onto the raw invocation
//! payload bytes that travel over RDMA. The typed client surface
//! ([`crate::Session`], [`crate::FunctionHandle`]) uses it to infer payload
//! lengths and buffer sizes from the value itself, so callers never thread
//! `(buffer, payload_len)` pairs by hand — the chronic source of short-read
//! and over-read bugs in the raw API.
//!
//! The crate ships codecs for the two wire shapes every paper workload
//! reduces to — raw bytes (`[u8]`) and little-endian `f64` vectors
//! (`[f64]`) — and the `workloads` crate layers codecs for its own payload
//! types (option batches, images) on top.

use crate::error::{RFaasError, Result};

/// Encoding/decoding of one invocation payload type.
///
/// `Self` is the *borrowed* shape handed to `submit`/`invoke` (so unsized
/// slice types like `[u8]` work directly), while [`Codec::Owned`] is the
/// owned shape a result decodes into.
pub trait Codec {
    /// The owned value produced by [`Codec::decode`].
    type Owned;

    /// The borrowed view produced by [`Codec::decode_view`]: a typed window
    /// over payload bytes that stay where they are (a registered buffer, a
    /// state-plane cache span). No staging copy is made.
    type View<'a>;

    /// Exact number of payload bytes this value encodes to.
    fn encoded_len(&self) -> usize;

    /// Encode the value into the start of `buf`, returning the bytes
    /// written (always [`Codec::encoded_len`]). Fails with
    /// [`RFaasError::PayloadTooLarge`] when `buf` is too small — the
    /// capacity-bound rejection the typed layer relies on. `buf` starts
    /// with unspecified bytes: every byte of the encoding must be written.
    fn encode_into(&self, buf: &mut [u8]) -> Result<usize>;

    /// Decode a payload back into an owned value. Fails with
    /// [`RFaasError::Codec`] on malformed bytes.
    fn decode(bytes: &[u8]) -> Result<Self::Owned>;

    /// Decode a payload the caller already owns. The default decodes a
    /// copy, as [`Codec::decode`] does; `[u8]` returns the bytes themselves,
    /// so a result handed over by its region is never copied.
    fn decode_owned(bytes: Vec<u8>) -> Result<Self::Owned> {
        Self::decode(&bytes)
    }

    /// Decode a payload *in place*: validate the bytes and hand back a typed
    /// view borrowing them. This is the state-plane read path — a value
    /// cached in a pre-registered client region is decoded without ever
    /// being copied out of it. Fails with [`RFaasError::Codec`] on the same
    /// malformed inputs [`Codec::decode`] rejects.
    fn decode_view(bytes: &[u8]) -> Result<Self::View<'_>>;

    /// The value's encoding, when the value already is those bytes (only
    /// `[u8]`): the client then stages it with one region write, which a
    /// buffer whose bytes a DMA still shares takes without copying them
    /// first. `None` encodes through [`Codec::encode_into`].
    fn encoded_bytes(&self) -> Option<&[u8]> {
        None
    }
}

/// Shared capacity guard for encoders: rejects a value of `required` bytes
/// aimed at a `capacity`-byte buffer with [`RFaasError::PayloadTooLarge`].
/// Public so downstream [`Codec`] implementations (e.g. the workload
/// payloads) reuse the canonical check instead of hand-rolling it.
pub fn check_capacity(required: usize, capacity: usize) -> Result<()> {
    if required > capacity {
        return Err(RFaasError::PayloadTooLarge {
            payload: required,
            capacity,
        });
    }
    Ok(())
}

impl Codec for [u8] {
    type Owned = Vec<u8>;
    type View<'a> = &'a [u8];

    fn encoded_len(&self) -> usize {
        self.len()
    }

    fn encode_into(&self, buf: &mut [u8]) -> Result<usize> {
        check_capacity(self.len(), buf.len())?;
        buf[..self.len()].copy_from_slice(self);
        Ok(self.len())
    }

    fn decode(bytes: &[u8]) -> Result<Vec<u8>> {
        Ok(bytes.to_vec())
    }

    fn decode_owned(bytes: Vec<u8>) -> Result<Vec<u8>> {
        Ok(bytes)
    }

    fn decode_view(bytes: &[u8]) -> Result<&[u8]> {
        Ok(bytes)
    }

    fn encoded_bytes(&self) -> Option<&[u8]> {
        Some(self)
    }
}

/// Borrowed view over a little-endian `f64` payload: element access without
/// materialising a `Vec<f64>`. Produced by `<[f64]>::decode_view`.
#[derive(Debug, Clone, Copy)]
pub struct F64View<'a> {
    bytes: &'a [u8],
}

impl<'a> F64View<'a> {
    /// Number of `f64` elements.
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Whether the payload holds no elements.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Element `i`, if in bounds.
    pub fn get(&self, i: usize) -> Option<f64> {
        let start = i.checked_mul(8)?;
        let chunk = self.bytes.get(start..start.checked_add(8)?)?;
        Some(f64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
    }

    /// Iterate the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
    }

    /// Copy out into an owned vector (leaves the view usable).
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

impl Codec for [f64] {
    type Owned = Vec<f64>;
    type View<'a> = F64View<'a>;

    fn encoded_len(&self) -> usize {
        self.len() * 8
    }

    fn encode_into(&self, buf: &mut [u8]) -> Result<usize> {
        let len = self.encoded_len();
        check_capacity(len, buf.len())?;
        for (chunk, value) in buf[..len].chunks_exact_mut(8).zip(self.iter()) {
            chunk.copy_from_slice(&value.to_le_bytes());
        }
        Ok(len)
    }

    fn decode(bytes: &[u8]) -> Result<Vec<f64>> {
        if !bytes.len().is_multiple_of(8) {
            return Err(RFaasError::Codec(format!(
                "f64 payload length {} is not a multiple of 8",
                bytes.len()
            )));
        }
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    fn decode_view(bytes: &[u8]) -> Result<F64View<'_>> {
        if !bytes.len().is_multiple_of(8) {
            return Err(RFaasError::Codec(format!(
                "f64 payload length {} is not a multiple of 8",
                bytes.len()
            )));
        }
        Ok(F64View { bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_codec_round_trips_and_bounds() {
        let data = [1u8, 2, 3, 4];
        assert_eq!(data[..].encoded_len(), 4);
        let mut buf = [0u8; 8];
        assert_eq!(data[..].encode_into(&mut buf).unwrap(), 4);
        assert_eq!(<[u8]>::decode(&buf[..4]).unwrap(), data.to_vec());
        let mut short = [0u8; 3];
        assert!(matches!(
            data[..].encode_into(&mut short),
            Err(RFaasError::PayloadTooLarge {
                payload: 4,
                capacity: 3
            })
        ));
    }

    #[test]
    fn f64_codec_round_trips_and_rejects_ragged_lengths() {
        let values = [1.5f64, -2.25, 1e300];
        let mut buf = vec![0u8; values[..].encoded_len()];
        values[..].encode_into(&mut buf).unwrap();
        assert_eq!(<[f64]>::decode(&buf).unwrap(), values.to_vec());
        assert!(matches!(
            <[f64]>::decode(&buf[..buf.len() - 1]),
            Err(RFaasError::Codec(_))
        ));
        let mut short = vec![0u8; 8];
        assert!(values[..].encode_into(&mut short).is_err());
    }

    #[test]
    fn byte_view_borrows_without_copying() {
        let data = [9u8, 8, 7];
        let view = <[u8]>::decode_view(&data).unwrap();
        assert_eq!(view, &data[..]);
        // In-place: the view is the payload bytes, not a staging copy.
        assert!(std::ptr::eq(view.as_ptr(), data.as_ptr()));
    }

    #[test]
    fn f64_view_decodes_in_place_and_rejects_ragged_lengths() {
        let values = [0.5f64, -3.0, 42.0];
        let mut buf = vec![0u8; values[..].encoded_len()];
        values[..].encode_into(&mut buf).unwrap();
        let view = <[f64]>::decode_view(&buf).unwrap();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.get(1), Some(-3.0));
        assert_eq!(view.get(3), None);
        // Offsets past `usize::MAX` are out of bounds, not wrapped.
        assert_eq!(view.get(usize::MAX / 8), None);
        assert_eq!(view.get(usize::MAX / 8 + 1), None);
        assert_eq!(view.iter().sum::<f64>(), 39.5);
        assert_eq!(view.to_vec(), values.to_vec());
        assert!(matches!(
            <[f64]>::decode_view(&buf[..buf.len() - 1]),
            Err(RFaasError::Codec(_))
        ));
        let empty = <[f64]>::decode_view(&[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.get(0), None);
    }

    proptest::proptest! {
        #[test]
        fn prop_byte_codec_round_trip(data: Vec<u8>) {
            let mut buf = vec![0u8; data.len()];
            proptest::prop_assert_eq!(data[..].encode_into(&mut buf).unwrap(), data.len());
            proptest::prop_assert_eq!(<[u8]>::decode(&buf).unwrap(), data);
        }

        #[test]
        fn prop_f64_codec_round_trip(values: Vec<f64>) {
            let values: Vec<f64> = values.into_iter().filter(|v| !v.is_nan()).collect();
            let mut buf = vec![0u8; values[..].encoded_len()];
            values[..].encode_into(&mut buf).unwrap();
            proptest::prop_assert_eq!(<[f64]>::decode(&buf).unwrap(), values);
        }

        #[test]
        fn prop_codecs_reject_short_buffers(data: Vec<u8>, cut in 1usize..64) {
            if data.len() >= cut {
                let mut short = vec![0u8; data.len() - cut];
                proptest::prop_assert!(data[..].encode_into(&mut short).is_err());
            }
        }
    }
}

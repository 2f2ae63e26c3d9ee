//! Payload encoding: a real base64 codec and its cost model.
//!
//! Commercial FaaS APIs cannot accept raw binary invocation payloads: AWS
//! Lambda and OpenWhisk require the binary image data to be wrapped in a
//! base64-encoded JSON field (Sec. V-C, V-E of the paper). That inflates the
//! payload by 4/3 and burns CPU time on both sides. rFaaS transmits raw
//! bytes, which is part of its bandwidth advantage.

use sim_core::SimDuration;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode bytes as standard base64 with padding.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(triple >> 18) as usize & 0x3F] as char);
        out.push(ALPHABET[(triple >> 12) as usize & 0x3F] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(triple >> 6) as usize & 0x3F] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[triple as usize & 0x3F] as char
        } else {
            '='
        });
    }
    out
}

/// Decode standard base64 (with or without padding). Returns `None` on any
/// character outside the alphabet or an impossible length.
pub fn base64_decode(text: &str) -> Option<Vec<u8>> {
    fn value(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some((c - b'A') as u32),
            b'a'..=b'z' => Some((c - b'a') as u32 + 26),
            b'0'..=b'9' => Some((c - b'0') as u32 + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let stripped: Vec<u8> = text.bytes().filter(|&b| b != b'=').collect();
    if stripped.len() % 4 == 1 {
        return None;
    }
    let mut out = Vec::with_capacity(stripped.len() * 3 / 4);
    for chunk in stripped.chunks(4) {
        let mut acc: u32 = 0;
        for (i, &c) in chunk.iter().enumerate() {
            acc |= value(c)? << (18 - 6 * i);
        }
        out.push((acc >> 16) as u8);
        if chunk.len() > 2 {
            out.push((acc >> 8) as u8);
        }
        if chunk.len() > 3 {
            out.push(acc as u8);
        }
    }
    Some(out)
}

/// Size of the base64 representation of `raw_bytes` bytes (with padding).
pub fn base64_encoded_len(raw_bytes: usize) -> usize {
    raw_bytes.div_ceil(3) * 4
}

/// CPU cost model of encoding/decoding payloads for JSON-based FaaS APIs.
#[derive(Debug, Clone)]
pub struct EncodingCost {
    /// Per-byte CPU cost of base64 encoding (measured on a ~3 GHz core,
    /// roughly 1 GB/s for a scalar implementation).
    pub encode_per_byte: SimDuration,
    /// Per-byte CPU cost of base64 decoding.
    pub decode_per_byte: SimDuration,
    /// Per-byte CPU cost of JSON string escaping/parsing around the payload.
    pub json_per_byte: SimDuration,
    /// Fixed cost of assembling the request envelope (headers, signature).
    pub envelope_overhead: SimDuration,
}

impl EncodingCost {
    /// Default cost model for a general-purpose CPU core.
    pub fn typical_core() -> EncodingCost {
        EncodingCost {
            encode_per_byte: SimDuration::from_nanos(1),
            decode_per_byte: SimDuration::from_nanos(1),
            json_per_byte: SimDuration::from_nanos(1),
            envelope_overhead: SimDuration::from_micros(40),
        }
    }

    /// Cost of preparing `raw_bytes` of binary payload for a JSON API call
    /// (client side): base64 encode + JSON envelope.
    pub fn encode_request(&self, raw_bytes: usize) -> SimDuration {
        self.envelope_overhead
            + (self.encode_per_byte + self.json_per_byte).saturating_mul(raw_bytes as u64)
    }

    /// Cost of unpacking a JSON API payload of `raw_bytes` original bytes
    /// (server side): JSON parse + base64 decode.
    pub fn decode_request(&self, raw_bytes: usize) -> SimDuration {
        (self.decode_per_byte + self.json_per_byte).saturating_mul(raw_bytes as u64)
    }

    /// Wire size of a JSON-wrapped binary payload of `raw_bytes`.
    pub fn wire_size(&self, raw_bytes: usize) -> usize {
        // base64 expansion plus a small JSON envelope.
        base64_encoded_len(raw_bytes) + 256
    }
}

impl Default for EncodingCost {
    fn default() -> Self {
        EncodingCost::typical_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_ascii() {
        let data = b"rFaaS: RDMA serverless".to_vec();
        let encoded = base64_encode(&data);
        assert_eq!(base64_decode(&encoded).unwrap(), data);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(base64_encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
        assert_eq!(base64_decode("Zm9vYmE=").unwrap(), b"fooba");
        assert_eq!(base64_decode("Zm9vYmE").unwrap(), b"fooba");
    }

    #[test]
    fn round_trip_binary() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let encoded = base64_encode(&data);
        assert_eq!(encoded.len(), base64_encoded_len(data.len()));
        assert_eq!(base64_decode(&encoded).unwrap(), data);
    }

    #[test]
    fn invalid_input_rejected() {
        assert!(base64_decode("!!!!").is_none());
        assert!(base64_decode("A").is_none());
        assert!(base64_decode("Zm9v YmFy").is_none());
    }

    #[test]
    fn expansion_factor_is_four_thirds() {
        let len = base64_encoded_len(3 * 1024 * 1024);
        assert_eq!(len, 4 * 1024 * 1024);
    }

    #[test]
    fn encoding_cost_scales_with_payload() {
        let c = EncodingCost::typical_core();
        let small = c.encode_request(1024);
        let large = c.encode_request(1024 * 1024);
        assert!(large > small * 10);
        assert!(c.decode_request(0).is_zero());
        assert!(c.wire_size(3_000_000) > 4_000_000);
    }

    proptest::proptest! {
        #[test]
        fn prop_round_trip(data: Vec<u8>) {
            let encoded = base64_encode(&data);
            proptest::prop_assert_eq!(base64_decode(&encoded).unwrap(), data);
        }

        #[test]
        fn prop_encoded_len(data: Vec<u8>) {
            proptest::prop_assert_eq!(base64_encode(&data).len(), base64_encoded_len(data.len()));
        }
    }
}

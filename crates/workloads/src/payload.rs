//! Payload generators, the evaluation input sizes, and the [`Codec`]
//! implementations that plug the workload wire formats into the typed
//! session API (`rfaas::Session` / `rfaas::FunctionHandle`).

use rfaas::{check_capacity, Codec, RFaasError};
use sim_core::DeterministicRng;

use crate::blackscholes::{options_from_bytes, OptionContract};
use crate::thumbnailer::Image;

/// Input sizes used throughout Sec. V of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSizes;

impl InputSizes {
    /// Small thumbnailer image (97 kB).
    pub const THUMBNAIL_SMALL: usize = 97 * 1024;
    /// Large thumbnailer image (3.6 MB).
    pub const THUMBNAIL_LARGE: usize = 3_600 * 1024;
    /// Small image-recognition input (53 kB).
    pub const INFERENCE_SMALL: usize = 53 * 1024;
    /// Large image-recognition input (230 kB).
    pub const INFERENCE_LARGE: usize = 230 * 1024;
}

/// Generate `size` bytes of deterministic pseudo-random payload.
pub fn generate_payload(size: usize, seed: u64) -> Vec<u8> {
    let mut rng = DeterministicRng::new(seed);
    let mut data = Vec::with_capacity(size);
    while data.len() + 8 <= size {
        data.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    while data.len() < size {
        data.push(rng.next_u64() as u8);
    }
    data
}

/// Encode a `f64` slice into little-endian bytes.
pub(crate) fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// Decode little-endian bytes into a `f64` vector.
pub(crate) fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// Bytes one [`OptionContract`] occupies on the wire (six little-endian
/// `f64` words: spot, strike, rate, volatility, time, is_put).
pub const OPTION_WIRE_BYTES: usize = 48;

/// An owned batch of [`OptionContract`]s, newtyped so the workload crate
/// can implement the foreign [`Codec`] trait for it (orphan rule).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OptionBatch(pub Vec<OptionContract>);

impl From<Vec<OptionContract>> for OptionBatch {
    fn from(options: Vec<OptionContract>) -> OptionBatch {
        OptionBatch(options)
    }
}

impl std::ops::Deref for OptionBatch {
    type Target = [OptionContract];

    fn deref(&self) -> &[OptionContract] {
        &self.0
    }
}

/// Borrowed view over an option-batch payload: contracts are decoded on
/// access, the record bytes stay in place. Produced by
/// `<OptionBatch>::decode_view`.
#[derive(Debug, Clone, Copy)]
pub struct OptionBatchView<'a> {
    bytes: &'a [u8],
}

impl<'a> OptionBatchView<'a> {
    /// Number of contracts in the batch.
    pub fn len(&self) -> usize {
        self.bytes.len() / OPTION_WIRE_BYTES
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Contract `i`, decoded from its wire record.
    pub fn get(&self, i: usize) -> Option<OptionContract> {
        let start = i.checked_mul(OPTION_WIRE_BYTES)?;
        let record = self
            .bytes
            .get(start..start.checked_add(OPTION_WIRE_BYTES)?)?;
        let word = |j: usize| {
            f64::from_le_bytes(record[j * 8..(j + 1) * 8].try_into().expect("8-byte word"))
        };
        Some(OptionContract {
            spot: word(0),
            strike: word(1),
            rate: word(2),
            volatility: word(3),
            time: word(4),
            is_put: word(5) > 0.5,
        })
    }

    /// Iterate the contracts in order.
    pub fn iter(&self) -> impl Iterator<Item = OptionContract> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("index in bounds"))
    }
}

impl Codec for OptionBatch {
    type Owned = OptionBatch;
    type View<'a> = OptionBatchView<'a>;

    fn encoded_len(&self) -> usize {
        self.0.len() * OPTION_WIRE_BYTES
    }

    fn encode_into(&self, buf: &mut [u8]) -> rfaas::Result<usize> {
        let len = self.encoded_len();
        check_capacity(len, buf.len())?;
        for (record, option) in buf[..len]
            .chunks_exact_mut(OPTION_WIRE_BYTES)
            .zip(self.0.iter())
        {
            let words = [
                option.spot,
                option.strike,
                option.rate,
                option.volatility,
                option.time,
                if option.is_put { 1.0 } else { 0.0 },
            ];
            for (slot, word) in record.chunks_exact_mut(8).zip(words) {
                slot.copy_from_slice(&word.to_le_bytes());
            }
        }
        Ok(len)
    }

    fn decode(bytes: &[u8]) -> rfaas::Result<OptionBatch> {
        if !bytes.len().is_multiple_of(OPTION_WIRE_BYTES) {
            return Err(RFaasError::Codec(format!(
                "option batch length {} is not a multiple of the {OPTION_WIRE_BYTES}-byte record",
                bytes.len()
            )));
        }
        Ok(OptionBatch(options_from_bytes(bytes)))
    }

    fn decode_view(bytes: &[u8]) -> rfaas::Result<OptionBatchView<'_>> {
        if !bytes.len().is_multiple_of(OPTION_WIRE_BYTES) {
            return Err(RFaasError::Codec(format!(
                "option batch length {} is not a multiple of the {OPTION_WIRE_BYTES}-byte record",
                bytes.len()
            )));
        }
        Ok(OptionBatchView { bytes })
    }
}

/// Borrowed view over an image payload: header decoded, pixel bytes left in
/// place. Produced by `<Image>::decode_view`.
#[derive(Debug, Clone, Copy)]
pub struct ImageView<'a> {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// `width * height * 3` bytes of RGB data, borrowed from the payload.
    pub pixels: &'a [u8],
}

impl<'a> ImageView<'a> {
    /// Parse the `[width u32 | height u32 | RGB bytes]` payload layout: the
    /// one header check behind both [`Image::decode`] and
    /// `<Image>::decode_view`. The dimensions come from the client, so the
    /// pixel byte count is computed with checked arithmetic.
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<ImageView<'a>, String> {
        if bytes.len() < 8 {
            return Err("image header missing".into());
        }
        let width = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        let height = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let expected = (width as usize)
            .checked_mul(height as usize)
            .and_then(|pixels| pixels.checked_mul(3))
            .ok_or_else(|| format!("image {width}x{height} overflows the address space"))?;
        let pixels = bytes[8..]
            .get(..expected)
            .filter(|_| width != 0 && height != 0)
            .ok_or_else(|| {
                format!(
                    "truncated image: {width}x{height} needs {expected} bytes, got {}",
                    bytes.len() - 8
                )
            })?;
        Ok(ImageView {
            width,
            height,
            pixels,
        })
    }
}

impl Codec for Image {
    type Owned = Image;
    type View<'a> = ImageView<'a>;

    fn encoded_len(&self) -> usize {
        8 + self.pixels.len()
    }

    fn encode_into(&self, buf: &mut [u8]) -> rfaas::Result<usize> {
        let len = self.encoded_len();
        check_capacity(len, buf.len())?;
        buf[0..4].copy_from_slice(&self.width.to_le_bytes());
        buf[4..8].copy_from_slice(&self.height.to_le_bytes());
        buf[8..len].copy_from_slice(&self.pixels);
        Ok(len)
    }

    fn decode(bytes: &[u8]) -> rfaas::Result<Image> {
        Image::decode(bytes).map_err(|e| RFaasError::Codec(e.to_string()))
    }

    fn decode_view(bytes: &[u8]) -> rfaas::Result<ImageView<'_>> {
        ImageView::parse(bytes).map_err(RFaasError::Codec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackscholes::{generate_options, options_to_bytes};

    #[test]
    fn payload_has_exact_size_and_is_deterministic() {
        for size in [0, 1, 7, 8, 1024, 4097] {
            let a = generate_payload(size, 42);
            let b = generate_payload(size, 42);
            assert_eq!(a.len(), size);
            assert_eq!(a, b);
        }
        assert_ne!(generate_payload(64, 1), generate_payload(64, 2));
    }

    #[test]
    fn input_sizes_match_paper() {
        assert_eq!(InputSizes::THUMBNAIL_SMALL, 99_328);
        assert_eq!(InputSizes::THUMBNAIL_LARGE, 3_686_400);
    }

    #[test]
    fn f64_bytes_round_trip() {
        let values = vec![0.0, -1.5, f64::MAX, 1e-300];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&values)), values);
    }

    #[test]
    fn option_codec_matches_the_legacy_wire_format() {
        let options = OptionBatch(generate_options(64, 9));
        let mut buf = vec![0u8; options.encoded_len()];
        assert_eq!(options.encode_into(&mut buf).unwrap(), 64 * 48);
        // The codec must emit byte-identical wire data to options_to_bytes,
        // or remote pricing would diverge between the typed and raw APIs.
        assert_eq!(buf, options_to_bytes(&options));
        assert_eq!(<OptionBatch as Codec>::decode(&buf).unwrap(), options);
        // Ragged lengths and short buffers are rejected.
        assert!(matches!(
            <OptionBatch as Codec>::decode(&buf[..47]),
            Err(RFaasError::Codec(_))
        ));
        let mut short = vec![0u8; 47];
        assert!(matches!(
            options.encode_into(&mut short),
            Err(RFaasError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn image_codec_matches_image_encode() {
        let image = Image::synthetic(20_000, 5);
        let mut buf = vec![0u8; image.encoded_len()];
        image.encode_into(&mut buf).unwrap();
        assert_eq!(buf, image.encode());
        assert_eq!(<Image as Codec>::decode(&buf).unwrap(), image);
        assert!(matches!(
            <Image as Codec>::decode(&buf[..10]),
            Err(RFaasError::Codec(_))
        ));
        let mut short = vec![0u8; 16];
        assert!(image.encode_into(&mut short).is_err());
    }

    #[test]
    fn option_view_decodes_records_in_place() {
        let options = OptionBatch(generate_options(16, 3));
        let mut buf = vec![0u8; options.encoded_len()];
        options.encode_into(&mut buf).unwrap();
        let view = <OptionBatch as Codec>::decode_view(&buf).unwrap();
        assert_eq!(view.len(), 16);
        assert_eq!(view.get(16), None);
        assert_eq!(view.get(usize::MAX / OPTION_WIRE_BYTES), None);
        assert_eq!(view.get(usize::MAX / OPTION_WIRE_BYTES + 1), None);
        assert_eq!(view.iter().collect::<Vec<_>>(), options.0);
        assert!(matches!(
            <OptionBatch as Codec>::decode_view(&buf[..47]),
            Err(RFaasError::Codec(_))
        ));
    }

    #[test]
    fn image_view_rejects_an_overflowing_header() {
        // u32::MAX × u32::MAX pixels: the byte count overflows `usize`.
        assert!(matches!(
            <Image as Codec>::decode_view(&[0xFF; 8]),
            Err(RFaasError::Codec(_))
        ));
    }

    #[test]
    fn image_view_borrows_the_pixel_bytes() {
        let image = Image::synthetic(5_000, 11);
        let mut buf = vec![0u8; image.encoded_len()];
        image.encode_into(&mut buf).unwrap();
        let view = <Image as Codec>::decode_view(&buf).unwrap();
        assert_eq!((view.width, view.height), (image.width, image.height));
        assert_eq!(view.pixels, &image.pixels[..]);
        // In-place: the pixel view borrows the payload, no staging copy.
        assert!(std::ptr::eq(view.pixels.as_ptr(), buf[8..].as_ptr()));
        assert!(matches!(
            <Image as Codec>::decode_view(&buf[..10]),
            Err(RFaasError::Codec(_))
        ));
    }

    proptest::proptest! {
        #[test]
        fn prop_f64_round_trip(values: Vec<f64>) {
            let filtered: Vec<f64> = values.into_iter().filter(|v| !v.is_nan()).collect();
            proptest::prop_assert_eq!(bytes_to_f64s(&f64s_to_bytes(&filtered)), filtered);
        }

        #[test]
        fn prop_option_codec_round_trip(n in 0usize..64, seed: u64) {
            let options = OptionBatch(generate_options(n, seed));
            let mut buf = vec![0u8; options.encoded_len()];
            options.encode_into(&mut buf).unwrap();
            proptest::prop_assert_eq!(<OptionBatch as Codec>::decode(&buf).unwrap(), options);
        }

        #[test]
        fn prop_image_codec_round_trip(target in 9usize..40_000, seed: u64) {
            let image = Image::synthetic(target, seed);
            let mut buf = vec![0u8; image.encoded_len()];
            image.encode_into(&mut buf).unwrap();
            proptest::prop_assert_eq!(<Image as Codec>::decode(&buf).unwrap(), image);
        }

        #[test]
        fn prop_codecs_reject_short_buffers(n in 1usize..32, seed: u64, cut in 1usize..48) {
            let options = OptionBatch(generate_options(n, seed));
            let needed = options.encoded_len();
            if needed >= cut {
                let mut short = vec![0u8; needed - cut];
                proptest::prop_assert!(options.encode_into(&mut short).is_err());
            }
        }
    }
}

//! Thumbnail generation (the SeBS `thumbnailer` benchmark, Fig. 11a).
//!
//! The original benchmark resizes a user-supplied JPEG with OpenCV; here a
//! synthetic RGB image of the same byte size is generated, transmitted as the
//! invocation payload, and resized with a real bilinear filter. The cost
//! model charges the decode + resize + encode time measured for OpenCV-class
//! implementations on the evaluation CPU.

use sandbox::{FunctionError, SharedFunction};
use sim_core::{DeterministicRng, SimDuration};

use crate::payload::ImageView;

/// Side length of the generated thumbnail.
const THUMBNAIL_SIZE: u32 = 256;

/// A simple packed RGB image (8 bits per channel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// `width * height * 3` bytes of RGB data, row-major.
    pub pixels: Vec<u8>,
}

impl Image {
    /// Generate a deterministic synthetic image whose encoded size is
    /// approximately `target_bytes`.
    pub fn synthetic(target_bytes: usize, seed: u64) -> Image {
        // Encoded size = 8-byte header + w*h*3; pick a square-ish shape.
        let pixels_needed = target_bytes.saturating_sub(8) / 3;
        let side = (pixels_needed as f64).sqrt().floor().max(1.0) as u32;
        let mut rng = DeterministicRng::new(seed);
        let mut pixels = Vec::with_capacity((side * side * 3) as usize);
        for y in 0..side {
            for x in 0..side {
                // A smooth gradient plus noise, so resizing is non-trivial.
                let base = ((x * 255 / side) as u8, (y * 255 / side) as u8);
                pixels.push(base.0.wrapping_add((rng.next_u64() % 16) as u8));
                pixels.push(base.1.wrapping_add((rng.next_u64() % 16) as u8));
                pixels.push(((x ^ y) as u8).wrapping_add((rng.next_u64() % 16) as u8));
            }
        }
        Image {
            width: side,
            height: side,
            pixels,
        }
    }

    /// Encode into the invocation payload layout: `[width u32 | height u32 |
    /// RGB bytes]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(8 + self.pixels.len());
        bytes.extend_from_slice(&self.width.to_le_bytes());
        bytes.extend_from_slice(&self.height.to_le_bytes());
        bytes.extend_from_slice(&self.pixels);
        bytes
    }

    /// Decode the invocation payload layout.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Image, FunctionError> {
        let view = ImageView::parse(bytes).map_err(FunctionError::InvalidInput)?;
        Ok(Image {
            width: view.width,
            height: view.height,
            pixels: view.pixels.to_vec(),
        })
    }

    fn pixel(&self, x: u32, y: u32) -> [f64; 3] {
        let idx = ((y * self.width + x) * 3) as usize;
        [
            self.pixels[idx] as f64,
            self.pixels[idx + 1] as f64,
            self.pixels[idx + 2] as f64,
        ]
    }

    /// Bilinear resize to `dst_width × dst_height`.
    pub fn resize(&self, dst_width: u32, dst_height: u32) -> Image {
        assert!(dst_width > 0 && dst_height > 0);
        let mut pixels = Vec::with_capacity((dst_width * dst_height * 3) as usize);
        let x_ratio = self.width as f64 / dst_width as f64;
        let y_ratio = self.height as f64 / dst_height as f64;
        for dy in 0..dst_height {
            for dx in 0..dst_width {
                let sx = (dx as f64 + 0.5) * x_ratio - 0.5;
                let sy = (dy as f64 + 0.5) * y_ratio - 0.5;
                let x0 = sx.floor().max(0.0) as u32;
                let y0 = sy.floor().max(0.0) as u32;
                let x1 = (x0 + 1).min(self.width - 1);
                let y1 = (y0 + 1).min(self.height - 1);
                let fx = (sx - x0 as f64).clamp(0.0, 1.0);
                let fy = (sy - y0 as f64).clamp(0.0, 1.0);
                let p00 = self.pixel(x0, y0);
                let p10 = self.pixel(x1, y0);
                let p01 = self.pixel(x0, y1);
                let p11 = self.pixel(x1, y1);
                for c in 0..3 {
                    let top = p00[c] * (1.0 - fx) + p10[c] * fx;
                    let bottom = p01[c] * (1.0 - fx) + p11[c] * fx;
                    pixels.push((top * (1.0 - fy) + bottom * fy).round().clamp(0.0, 255.0) as u8);
                }
            }
        }
        Image {
            width: dst_width,
            height: dst_height,
            pixels,
        }
    }
}

/// The rFaaS thumbnailer function: decodes the payload image and returns an
/// encoded 256×256 thumbnail.
pub fn thumbnailer_function() -> SharedFunction {
    SharedFunction::from_fn("thumbnailer", |input, output| {
        let image = Image::decode(input)?;
        let target_w = THUMBNAIL_SIZE.min(image.width);
        let target_h = THUMBNAIL_SIZE.min(image.height);
        let thumbnail = image.resize(target_w, target_h);
        let bytes = thumbnail.encode();
        if output.len() < bytes.len() {
            return Err(FunctionError::OutputTooLarge {
                required: bytes.len(),
                capacity: output.len(),
            });
        }
        output[..bytes.len()].copy_from_slice(&bytes);
        Ok(bytes.len())
    })
    .with_cost_model(|input_len| {
        // OpenCV-class decode + resize + encode: ~1 ms fixed plus ~31 ns per
        // input byte (Fig. 11a: 4.4 ms for the 97 kB image, ~115 ms for the
        // 3.6 MB image).
        SimDuration::from_micros(1_000) + SimDuration::from_nanos((31.0 * input_len as f64) as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::InputSizes;

    #[test]
    fn synthetic_image_hits_target_size() {
        for target in [InputSizes::THUMBNAIL_SMALL, InputSizes::THUMBNAIL_LARGE] {
            let image = Image::synthetic(target, 1);
            let encoded = image.encode();
            let error = (encoded.len() as f64 - target as f64).abs() / target as f64;
            assert!(
                error < 0.05,
                "encoded {} vs target {}",
                encoded.len(),
                target
            );
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let image = Image::synthetic(50_000, 3);
        let decoded = Image::decode(&image.encode()).unwrap();
        assert_eq!(decoded, image);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Image::decode(&[1, 2, 3]).is_err());
        let mut bytes = Image::synthetic(10_000, 1).encode();
        bytes.truncate(bytes.len() - 100);
        assert!(Image::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_an_overflowing_header() {
        // u32::MAX × u32::MAX pixels: the byte count overflows `usize`.
        let header = [0xFF; 8];
        assert!(matches!(
            Image::decode(&header),
            Err(FunctionError::InvalidInput(_))
        ));
        let mut output = vec![0u8; 64];
        assert!(matches!(
            thumbnailer_function().invoke(&header, &mut output),
            Err(FunctionError::InvalidInput(_))
        ));
    }

    #[test]
    fn resize_produces_expected_dimensions_and_range() {
        let image = Image::synthetic(200_000, 5);
        let thumb = image.resize(64, 32);
        assert_eq!(thumb.width, 64);
        assert_eq!(thumb.height, 32);
        assert_eq!(thumb.pixels.len(), 64 * 32 * 3);
    }

    #[test]
    fn resize_of_uniform_image_is_uniform() {
        let image = Image {
            width: 100,
            height: 100,
            pixels: vec![200u8; 100 * 100 * 3],
        };
        let thumb = image.resize(10, 10);
        assert!(thumb.pixels.iter().all(|&p| p == 200));
    }

    #[test]
    fn function_returns_thumbnail() {
        let image = Image::synthetic(InputSizes::THUMBNAIL_LARGE, 7);
        let f = thumbnailer_function();
        let input = image.encode();
        let mut output = vec![0u8; (THUMBNAIL_SIZE * THUMBNAIL_SIZE * 3 + 8) as usize];
        let len = f.invoke(&input, &mut output).unwrap();
        let thumb = Image::decode(&output[..len]).unwrap();
        assert_eq!(thumb.width, THUMBNAIL_SIZE.min(image.width));
        assert!(thumb.pixels.len() < image.pixels.len());
    }

    #[test]
    fn cost_model_matches_figure_11a() {
        let f = thumbnailer_function();
        let small = f.compute_cost(InputSizes::THUMBNAIL_SMALL).as_millis_f64();
        let large = f.compute_cost(InputSizes::THUMBNAIL_LARGE).as_millis_f64();
        assert!((2.5..6.5).contains(&small), "small image cost {small} ms");
        assert!(
            (90.0..140.0).contains(&large),
            "large image cost {large} ms"
        );
    }
}

//! Image-recognition inference (the SeBS `image-recognition` benchmark,
//! Fig. 11b).
//!
//! The paper runs ResNet-50 through the PyTorch C++ API. Shipping a real
//! 25-million-parameter network is neither possible nor necessary here: what
//! the experiment measures is the end-to-end cost of moving a 53 kB / 230 kB
//! image to a function whose compute takes ~110 ms and whose model weights
//! stay cached in the warm executor. This module implements a *real* (small)
//! convolutional network — convolution, ReLU, average pooling and a dense
//! classifier over deterministic weights — and attaches the ResNet-50-scale
//! cost model.

use sandbox::{FunctionError, SharedFunction};
use sim_core::sync::Mutex;
use sim_core::{DeterministicRng, SimDuration};

use crate::payload::f64s_to_bytes;
use crate::thumbnailer::Image;

/// Number of output classes (ImageNet-1k, as for ResNet-50).
pub const NUM_CLASSES: usize = 1000;
/// Input resolution the network operates on.
const INPUT_SIDE: u32 = 64;
/// Number of convolution filters.
const FILTERS: usize = 8;
/// Pooled feature-map side length.
const POOLED_SIDE: usize = 16;

/// A small convolutional classifier with deterministic weights.
#[derive(Debug, Clone)]
pub(crate) struct InferenceModel {
    conv_kernels: Vec<f64>,  // FILTERS × 3 × 3 × 3
    dense_weights: Vec<f64>, // NUM_CLASSES × (FILTERS × POOLED_SIDE²)
    dense_bias: Vec<f64>,    // NUM_CLASSES
}

impl InferenceModel {
    /// Deterministically initialised model (stands in for the TorchScript
    /// ResNet-50 checkpoint the paper ships in the Docker image).
    pub(crate) fn pretrained(seed: u64) -> InferenceModel {
        let mut rng = DeterministicRng::new(seed);
        let features = FILTERS * POOLED_SIDE * POOLED_SIDE;
        InferenceModel {
            conv_kernels: (0..FILTERS * 3 * 3 * 3)
                .map(|_| rng.range_f64(-0.5, 0.5))
                .collect(),
            dense_weights: (0..NUM_CLASSES * features)
                .map(|_| rng.range_f64(-0.05, 0.05))
                .collect(),
            dense_bias: (0..NUM_CLASSES).map(|_| rng.range_f64(-0.1, 0.1)).collect(),
        }
    }

    /// Run the network over an image, returning `NUM_CLASSES` logits.
    pub(crate) fn forward(&self, image: &Image) -> Vec<f64> {
        // Downscale to the fixed input resolution (preprocessing step).
        let input = image.resize(INPUT_SIDE, INPUT_SIDE);
        let side = INPUT_SIDE as usize;

        // 3×3 convolution + ReLU for every filter.
        let mut maps = vec![0.0f64; FILTERS * side * side];
        for f in 0..FILTERS {
            for y in 1..side - 1 {
                for x in 1..side - 1 {
                    let mut acc = 0.0;
                    for ky in 0..3 {
                        for kx in 0..3 {
                            let px = ((y + ky - 1) * side + (x + kx - 1)) * 3;
                            for c in 0..3 {
                                let w = self.conv_kernels[((f * 3 + ky) * 3 + kx) * 3 + c];
                                acc += w * input.pixels[px + c] as f64 / 255.0;
                            }
                        }
                    }
                    maps[f * side * side + y * side + x] = acc.max(0.0);
                }
            }
        }

        // Average pooling down to POOLED_SIDE × POOLED_SIDE.
        let stride = side / POOLED_SIDE;
        let mut pooled = vec![0.0f64; FILTERS * POOLED_SIDE * POOLED_SIDE];
        for f in 0..FILTERS {
            for py in 0..POOLED_SIDE {
                for px in 0..POOLED_SIDE {
                    let mut acc = 0.0;
                    for y in 0..stride {
                        for x in 0..stride {
                            acc +=
                                maps[f * side * side + (py * stride + y) * side + px * stride + x];
                        }
                    }
                    pooled[f * POOLED_SIDE * POOLED_SIDE + py * POOLED_SIDE + px] =
                        acc / (stride * stride) as f64;
                }
            }
        }

        // Dense classifier.
        let features = pooled.len();
        let mut logits = self.dense_bias.clone();
        for (class, logit) in logits.iter_mut().enumerate() {
            let weights = &self.dense_weights[class * features..(class + 1) * features];
            *logit += weights
                .iter()
                .zip(pooled.iter())
                .map(|(w, v)| w * v)
                .sum::<f64>();
        }
        logits
    }
}

/// The rFaaS image-recognition function. The model is loaded lazily on the
/// first invocation and cached in the executor's memory afterwards, exactly
/// like the TorchScript model in the paper (Sec. V-E(b)).
pub fn image_recognition_function() -> SharedFunction {
    let model: Mutex<Option<InferenceModel>> = Mutex::new(None);
    SharedFunction::from_fn("image-recognition", move |input, output| {
        let image = Image::decode(input)?;
        let mut guard = model.lock();
        let model = guard.get_or_insert_with(|| InferenceModel::pretrained(50));
        let logits = model.forward(&image);
        let bytes = f64s_to_bytes(&logits);
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
        // ResNet-50 inference on one CPU core: ~110 ms (Fig. 11b shows
        // 112-118 ms end to end), plus JPEG-decode-style per-byte cost.
        SimDuration::from_millis(110) + SimDuration::from_nanos((8.0 * input_len as f64) as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{bytes_to_f64s, InputSizes};

    #[test]
    fn forward_produces_one_logit_per_class() {
        let model = InferenceModel::pretrained(1);
        let image = Image::synthetic(InputSizes::INFERENCE_SMALL, 2);
        let logits = model.forward(&image);
        assert_eq!(logits.len(), NUM_CLASSES);
        assert!(logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn inference_is_deterministic() {
        let model = InferenceModel::pretrained(1);
        let image = Image::synthetic(InputSizes::INFERENCE_LARGE, 3);
        assert_eq!(model.forward(&image), model.forward(&image));
    }

    #[test]
    fn different_images_give_different_predictions() {
        let model = InferenceModel::pretrained(1);
        let a = Image::synthetic(InputSizes::INFERENCE_SMALL, 10);
        let b = Image::synthetic(InputSizes::INFERENCE_SMALL, 11);
        assert_ne!(model.forward(&a), model.forward(&b));
    }

    #[test]
    fn function_returns_logits_and_caches_model() {
        let f = image_recognition_function();
        let image = Image::synthetic(InputSizes::INFERENCE_SMALL, 4);
        let input = image.encode();
        let mut output = vec![0u8; NUM_CLASSES * 8];
        let len = f.invoke(&input, &mut output).unwrap();
        assert_eq!(len, NUM_CLASSES * 8);
        let logits = bytes_to_f64s(&output[..len]);
        // A second invocation (warm model) must agree with the first.
        let len2 = f.invoke(&input, &mut output).unwrap();
        assert_eq!(bytes_to_f64s(&output[..len2]), logits);
    }

    #[test]
    fn function_rejects_bad_inputs() {
        let f = image_recognition_function();
        let mut output = vec![0u8; NUM_CLASSES * 8];
        assert!(f.invoke(&[0u8; 4], &mut output).is_err());
        let image = Image::synthetic(InputSizes::INFERENCE_SMALL, 4);
        let mut small_output = vec![0u8; 128];
        assert!(f.invoke(&image.encode(), &mut small_output).is_err());
    }

    #[test]
    fn cost_model_matches_figure_11b() {
        let f = image_recognition_function();
        let small = f.compute_cost(InputSizes::INFERENCE_SMALL).as_millis_f64();
        let large = f.compute_cost(InputSizes::INFERENCE_LARGE).as_millis_f64();
        assert!(
            (105.0..125.0).contains(&small),
            "small input cost {small} ms"
        );
        assert!(
            (105.0..125.0).contains(&large),
            "large input cost {large} ms"
        );
        assert!(large > small);
    }
}

//! Iterative model training with the model resident in the state plane.
//!
//! Linear regression by minibatch gradient descent: the weight vector lives
//! under [`MODEL_KEY`] in the state plane instead of shuttling with every
//! invocation. Each leased invocation carries only a minibatch; the worker
//! materialises the current weights through its state window, takes one
//! gradient step, writes the updated weights back, and returns the batch
//! loss. Across invocations — and across re-allocations, since the plane
//! outlives any lease — training progresses without the client ever copying
//! the model.

use sandbox::{FunctionError, SharedFunction};
use sim_core::SimDuration;

use crate::payload::{bytes_to_f64s, f64s_to_bytes};

/// State-plane key holding the weight vector (bias last).
pub const MODEL_KEY: &str = "model";

/// Cost per (row, feature) multiply-accumulate of the gradient step.
const COST_PER_MAC: SimDuration = SimDuration::from_nanos(2);

/// A synthetic regression problem with known ground-truth weights.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSet {
    /// Feature dimensionality (excluding the bias term).
    pub dim: usize,
    /// Row-major `rows × dim` feature matrix.
    pub features: Vec<f64>,
    /// One target per row.
    pub targets: Vec<f64>,
    /// The weights (dim + 1, bias last) that generated the targets.
    pub truth: Vec<f64>,
}

impl TrainingSet {
    /// Generate `rows` noisy samples of a random linear model.
    #[cfg(test)]
    fn generate(rows: usize, dim: usize, seed: u64) -> TrainingSet {
        let mut rng = sim_core::DeterministicRng::new(seed);
        let truth: Vec<f64> = (0..=dim).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let mut features = Vec::with_capacity(rows * dim);
        let mut targets = Vec::with_capacity(rows);
        for _ in 0..rows {
            let row: Vec<f64> = (0..dim).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let mut y = truth[dim]; // bias
            for (x, w) in row.iter().zip(&truth) {
                y += x * w;
            }
            y += rng.range_f64(-0.01, 0.01); // observation noise
            features.extend_from_slice(&row);
            targets.push(y);
        }
        TrainingSet {
            dim,
            features,
            targets,
            truth,
        }
    }

    /// The minibatch covering rows `[begin, end)`, encoded for
    /// [`training_step_function`]: `[lr, dim, rows, row-major features...,
    /// targets...]` as little-endian `f64`s.
    #[cfg(test)]
    fn minibatch(&self, begin: usize, end: usize, learning_rate: f64) -> Vec<u8> {
        assert!(begin <= end && end <= self.targets.len());
        let rows = end - begin;
        let mut frame = Vec::with_capacity(3 + rows * (self.dim + 1));
        frame.push(learning_rate);
        frame.push(self.dim as f64);
        frame.push(rows as f64);
        frame.extend_from_slice(&self.features[begin * self.dim..end * self.dim]);
        frame.extend_from_slice(&self.targets[begin..end]);
        f64s_to_bytes(&frame)
    }
}

/// One minibatch gradient step on mean-squared-error loss. Returns the
/// pre-step batch loss; `weights` (dim + 1, bias last) is updated in place.
fn sgd_step(
    weights: &mut [f64],
    dim: usize,
    features: &[f64],
    targets: &[f64],
    learning_rate: f64,
) -> f64 {
    let rows = targets.len();
    assert_eq!(weights.len(), dim + 1);
    assert_eq!(features.len(), rows * dim);
    let mut grad = vec![0.0f64; dim + 1];
    let mut loss = 0.0;
    for (r, &y) in targets.iter().enumerate() {
        let row = &features[r * dim..(r + 1) * dim];
        let mut pred = weights[dim];
        for (x, w) in row.iter().zip(weights.iter()) {
            pred += x * w;
        }
        let err = pred - y;
        loss += err * err;
        for (g, x) in grad.iter_mut().zip(row) {
            *g += err * x;
        }
        grad[dim] += err;
    }
    let scale = 2.0 / rows.max(1) as f64;
    for (w, g) in weights.iter_mut().zip(&grad) {
        *w -= learning_rate * scale * g;
    }
    loss / rows.max(1) as f64
}

/// The offloadable training-step function. Declare
/// `StateKey::read_write(MODEL_KEY)` when binding it. Input is a minibatch
/// frame, `[lr, dim, rows, row-major features..., targets...]` as
/// little-endian `f64`s; a fresh (empty) model key initialises to zero
/// weights. Output is the pre-step batch loss as one `f64`.
pub fn training_step_function() -> SharedFunction {
    SharedFunction::from_stateful_fn("train-step", |input, state, output| {
        let values = bytes_to_f64s(input);
        if values.len() < 3 {
            return Err(FunctionError::InvalidInput(
                "minibatch header missing".into(),
            ));
        }
        let learning_rate = values[0];
        let dim = values[1] as usize;
        let rows = values[2] as usize;
        if values.len() != 3 + rows * (dim + 1) {
            return Err(FunctionError::InvalidInput("truncated minibatch".into()));
        }
        let features = &values[3..3 + rows * dim];
        let targets = &values[3 + rows * dim..];

        let model_bytes = state.read(MODEL_KEY)?;
        let mut weights = if model_bytes.is_empty() {
            vec![0.0f64; dim + 1]
        } else {
            bytes_to_f64s(model_bytes)
        };
        if weights.len() != dim + 1 {
            return Err(FunctionError::StateAccess(format!(
                "model has {} weights, minibatch expects {}",
                weights.len(),
                dim + 1
            )));
        }
        let loss = sgd_step(&mut weights, dim, features, targets, learning_rate);
        let encoded = f64s_to_bytes(&weights);
        let slot = state.write(MODEL_KEY)?;
        slot.clear();
        slot.extend_from_slice(&encoded);
        if output.len() < 8 {
            return Err(FunctionError::OutputTooLarge {
                required: 8,
                capacity: output.len(),
            });
        }
        output[..8].copy_from_slice(&loss.to_le_bytes());
        Ok(8)
    })
    // One forward + one backward pass: ~2 MACs per (row, feature) pair. The
    // frame is rows * (dim + 1) + 3 values; treating every value as one MAC
    // pair keeps the model linear in minibatch size.
    .with_cost_model(|input_len| COST_PER_MAC * 2 * (input_len / 8) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandbox::StateAccess;
    use std::collections::BTreeMap;

    struct MapState(BTreeMap<String, Vec<u8>>);
    impl StateAccess for MapState {
        fn read(&self, key: &str) -> Result<&[u8], FunctionError> {
            self.0
                .get(key)
                .map(|v| v.as_slice())
                .ok_or_else(|| FunctionError::StateAccess(format!("undeclared '{key}'")))
        }
        fn write(&mut self, key: &str) -> Result<&mut Vec<u8>, FunctionError> {
            self.0
                .get_mut(key)
                .ok_or_else(|| FunctionError::StateAccess(format!("undeclared '{key}'")))
        }
    }

    #[test]
    fn sgd_converges_towards_the_generating_weights() {
        let set = TrainingSet::generate(256, 4, 11);
        let mut weights = vec![0.0f64; 5];
        let mut last = f64::INFINITY;
        for epoch in 0..200 {
            let loss = sgd_step(&mut weights, 4, &set.features, &set.targets, 0.1);
            if epoch % 50 == 0 {
                assert!(loss <= last, "loss must not increase: {loss} > {last}");
                last = loss;
            }
        }
        for (w, t) in weights.iter().zip(&set.truth) {
            assert!((w - t).abs() < 0.05, "weight {w} far from truth {t}");
        }
    }

    #[test]
    fn offloaded_steps_match_the_local_loop() {
        let set = TrainingSet::generate(64, 3, 42);
        let f = training_step_function();
        assert!(f.is_stateful());

        // Drive the stateful function over 16-row minibatches.
        let mut state = MapState(BTreeMap::from([(MODEL_KEY.to_string(), Vec::new())]));
        let mut out = vec![0u8; 8];
        let mut offloaded_losses = Vec::new();
        for begin in (0..64).step_by(16) {
            let frame = set.minibatch(begin, begin + 16, 0.05);
            f.invoke_stateful(&frame, &mut state, &mut out).unwrap();
            offloaded_losses.push(f64::from_le_bytes(out[..8].try_into().unwrap()));
        }

        // The local loop over the same minibatches produces the same model
        // and the same losses, bit for bit.
        let mut weights = vec![0.0f64; 4];
        for (i, begin) in (0..64).step_by(16).enumerate() {
            let loss = sgd_step(
                &mut weights,
                3,
                &set.features[begin * 3..(begin + 16) * 3],
                &set.targets[begin..begin + 16],
                0.05,
            );
            assert_eq!(loss, offloaded_losses[i]);
        }
        assert_eq!(bytes_to_f64s(&state.0[MODEL_KEY]), weights);
    }

    #[test]
    fn malformed_frames_and_models_are_rejected() {
        let f = training_step_function();
        let mut state = MapState(BTreeMap::from([(MODEL_KEY.to_string(), Vec::new())]));
        let mut out = vec![0u8; 8];
        assert!(matches!(
            f.invoke_stateful(&[0u8; 8], &mut state, &mut out),
            Err(FunctionError::InvalidInput(_))
        ));
        // A model whose dimensionality disagrees with the minibatch is a
        // state violation, not a silent reshape.
        state
            .0
            .insert(MODEL_KEY.to_string(), f64s_to_bytes(&[1.0, 2.0]));
        let set = TrainingSet::generate(8, 3, 1);
        let frame = set.minibatch(0, 8, 0.1);
        assert!(matches!(
            f.invoke_stateful(&frame, &mut state, &mut out),
            Err(FunctionError::StateAccess(_))
        ));
    }
}

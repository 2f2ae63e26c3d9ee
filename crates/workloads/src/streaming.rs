//! Stateful streaming aggregation over the RDMA state plane.
//!
//! A sensor stream arrives in batches of `f64` readings; the running
//! aggregate (count, sum, min, max) lives in the state plane under
//! [`AGGREGATE_KEY`] rather than travelling with every invocation. Each
//! invocation materialises the aggregate into the worker's state window,
//! folds the batch in, and writes the updated aggregate back — the classic
//! "keyed state" shape of streaming engines, expressed as a leased rFaaS
//! function with a `with_state` declaration.

use sandbox::{FunctionError, SharedFunction};
use sim_core::SimDuration;

use crate::payload::{bytes_to_f64s, f64s_to_bytes};

/// State-plane key holding the running aggregate.
pub const AGGREGATE_KEY: &str = "stream-aggregate";

/// Cost of folding one reading into the aggregate: a handful of compares and
/// adds, far below the per-option Black-Scholes cost.
const COST_PER_READING: SimDuration = SimDuration::from_nanos(6);

/// Running aggregate of a stream of readings. Serialised as four `f64`s
/// (count, sum, min, max) so it round-trips through the byte-oriented state
/// plane with [`encode`](StreamAggregate::encode); the reply of the
/// streaming function is the same four values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamAggregate {
    /// Readings folded in so far.
    pub count: u64,
    /// Sum of all readings.
    pub sum: f64,
    /// Smallest reading observed.
    pub min: f64,
    /// Largest reading observed.
    pub max: f64,
}

impl Default for StreamAggregate {
    fn default() -> StreamAggregate {
        StreamAggregate {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl StreamAggregate {
    /// Fold a batch of readings into the aggregate.
    pub(crate) fn update(&mut self, readings: &[f64]) {
        for &r in readings {
            self.count += 1;
            self.sum += r;
            self.min = self.min.min(r);
            self.max = self.max.max(r);
        }
    }

    /// Mean of the readings folded in so far (0 for an empty aggregate).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Serialise as four little-endian `f64`s.
    pub fn encode(&self) -> Vec<u8> {
        f64s_to_bytes(&[self.count as f64, self.sum, self.min, self.max])
    }

    /// Deserialise from [`encode`](StreamAggregate::encode) output; an empty
    /// slice decodes to the identity aggregate (a fresh state-plane key).
    pub(crate) fn decode(bytes: &[u8]) -> Result<StreamAggregate, FunctionError> {
        if bytes.is_empty() {
            return Ok(StreamAggregate::default());
        }
        let values = bytes_to_f64s(bytes);
        if values.len() != 4 {
            return Err(FunctionError::StateAccess(format!(
                "aggregate state is {} bytes, expected 32 or 0",
                bytes.len()
            )));
        }
        Ok(StreamAggregate {
            count: values[0] as u64,
            sum: values[1],
            min: values[2],
            max: values[3],
        })
    }
}

/// The offloadable streaming-aggregation function. Declare
/// `StateKey::read_write(AGGREGATE_KEY)` when binding it; the input is a
/// batch of `f64` readings and the output echoes the updated aggregate
/// (count, sum, min, max) so the client can observe progress without a
/// separate state read.
pub fn streaming_aggregation_function() -> SharedFunction {
    SharedFunction::from_stateful_fn("stream-aggregate", |input, state, output| {
        let readings = bytes_to_f64s(input);
        let mut agg = StreamAggregate::decode(state.read(AGGREGATE_KEY)?)?;
        agg.update(&readings);
        let encoded = agg.encode();
        let slot = state.write(AGGREGATE_KEY)?;
        slot.clear();
        slot.extend_from_slice(&encoded);
        if output.len() < encoded.len() {
            return Err(FunctionError::OutputTooLarge {
                required: encoded.len(),
                capacity: output.len(),
            });
        }
        output[..encoded.len()].copy_from_slice(&encoded);
        Ok(encoded.len())
    })
    .with_cost_model(|input_len| COST_PER_READING * (input_len / 8) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandbox::StateAccess;
    use sim_core::DeterministicRng;
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
    fn aggregate_round_trips_and_folds_correctly() {
        let mut agg = StreamAggregate::default();
        agg.update(&[2.0, -1.0, 5.0]);
        assert_eq!(agg.count, 3);
        assert_eq!(agg.sum, 6.0);
        assert_eq!(agg.min, -1.0);
        assert_eq!(agg.max, 5.0);
        assert_eq!(agg.mean(), 2.0);
        assert_eq!(StreamAggregate::decode(&agg.encode()).unwrap(), agg);
        // A fresh (empty) key is the identity aggregate.
        assert_eq!(
            StreamAggregate::decode(&[]).unwrap(),
            StreamAggregate::default()
        );
        assert!(StreamAggregate::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn offloaded_batches_match_the_local_fold() {
        let f = streaming_aggregation_function();
        assert!(f.is_stateful());
        let mut rng = DeterministicRng::new(7);
        let batches: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..64).map(|_| rng.range_f64(-100.0, 100.0)).collect())
            .collect();

        let mut state = MapState(BTreeMap::from([(AGGREGATE_KEY.to_string(), Vec::new())]));
        let mut out = vec![0u8; 64];
        for batch in &batches {
            let n = f
                .invoke_stateful(&f64s_to_bytes(batch), &mut state, &mut out)
                .unwrap();
            assert_eq!(n, 32);
        }
        let streamed = StreamAggregate::decode(&state.0[AGGREGATE_KEY]).unwrap();
        let mut local = StreamAggregate::default();
        for batch in &batches {
            local.update(batch);
        }
        assert_eq!(streamed, local);
        // The final output frame echoes the committed aggregate.
        assert_eq!(StreamAggregate::decode(&out[..32]).unwrap(), local);
        // Cost scales with readings, not with accumulated state.
        assert_eq!(f.compute_cost(64 * 8), COST_PER_READING * 64);
    }
}

//! Invocation-path modelling.
//!
//! A warm FaaS invocation traverses a pipeline of components — gateways,
//! controllers, queues, runtimes — each adding fixed latency and, for the
//! components that copy or re-encode the payload, a per-byte cost. The
//! end-to-end round-trip time is the sum over the request and response
//! directions plus the function execution itself.

use sim_core::{DeterministicRng, SimDuration};

/// One hop/component on the invocation path.
#[derive(Debug, Clone)]
pub struct PathComponent {
    /// Human-readable component name (gateway, controller, message bus, ...).
    pub name: String,
    /// Fixed processing latency per traversal.
    pub fixed: SimDuration,
    /// Additional cost per payload byte in nanoseconds (copies, encoding,
    /// serialisation). Fractional values capture multi-GB/s components.
    pub per_byte_ns: f64,
    /// Whether the component sits on the request path.
    pub on_request: bool,
    /// Whether the component sits on the response path.
    pub on_response: bool,
}

impl PathComponent {
    /// A component traversed in both directions.
    pub fn both(name: &str, fixed: SimDuration, per_byte_ns: f64) -> PathComponent {
        PathComponent {
            name: name.to_string(),
            fixed,
            per_byte_ns,
            on_request: true,
            on_response: true,
        }
    }

    /// A component traversed only on the request path.
    pub fn request_only(name: &str, fixed: SimDuration, per_byte_ns: f64) -> PathComponent {
        PathComponent {
            on_request: true,
            on_response: false,
            ..PathComponent::both(name, fixed, per_byte_ns)
        }
    }

    fn cost(&self, bytes: usize) -> SimDuration {
        self.fixed + SimDuration::from_nanos((self.per_byte_ns * bytes as f64).round() as u64)
    }
}

/// The full invocation path of one platform.
#[derive(Debug, Clone)]
pub struct InvocationPath {
    /// Components in traversal order.
    pub components: Vec<PathComponent>,
    /// Payload expansion factor on the wire (4/3 for base64-in-JSON APIs,
    /// 1.0 for binary protocols).
    pub payload_expansion: f64,
    /// Relative standard deviation of the total latency (tail behaviour);
    /// commercial clouds exhibit much heavier tails than a quiet cluster.
    pub jitter: f64,
}

impl InvocationPath {
    /// Wire bytes for a raw payload of `bytes`.
    pub fn wire_bytes(&self, bytes: usize) -> usize {
        (bytes as f64 * self.payload_expansion).ceil() as usize
    }

    /// Deterministic (median) round-trip time for the given payload sizes and
    /// function execution time.
    pub fn round_trip(
        &self,
        request_bytes: usize,
        response_bytes: usize,
        function_work: SimDuration,
    ) -> SimDuration {
        let request_wire = self.wire_bytes(request_bytes);
        let response_wire = self.wire_bytes(response_bytes);
        let mut total = function_work;
        for c in &self.components {
            if c.on_request {
                total += c.cost(request_wire);
            }
            if c.on_response {
                total += c.cost(response_wire);
            }
        }
        total
    }

    /// A randomised sample of the round-trip time, with multiplicative jitter
    /// reflecting queueing noise and shared-tenant interference.
    pub fn sample_round_trip(
        &self,
        request_bytes: usize,
        response_bytes: usize,
        function_work: SimDuration,
        rng: &mut DeterministicRng,
    ) -> SimDuration {
        let median = self.round_trip(request_bytes, response_bytes, function_work);
        // Log-normal-ish multiplicative noise, never below 85% of the median.
        let factor = (1.0 + rng.normal(0.0, self.jitter).abs()).max(0.85);
        median.mul_f64(factor)
    }

    /// Effective goodput in bytes of raw payload per second when streaming
    /// `bytes`-sized requests and responses back to back.
    pub fn goodput_bytes_per_sec(&self, bytes: usize) -> f64 {
        let rtt = self.round_trip(bytes, bytes, SimDuration::ZERO);
        2.0 * bytes as f64 / rtt.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_path() -> InvocationPath {
        InvocationPath {
            components: vec![
                PathComponent::both("gateway", SimDuration::from_micros(100), 1.0),
                PathComponent::request_only("scheduler", SimDuration::from_micros(50), 0.0),
            ],
            payload_expansion: 4.0 / 3.0,
            jitter: 0.1,
        }
    }

    #[test]
    fn round_trip_sums_directional_components() {
        let path = simple_path();
        let rtt = path.round_trip(0, 0, SimDuration::ZERO);
        // gateway twice + scheduler once.
        assert_eq!(rtt.as_micros_f64(), 250.0);
        let with_work = path.round_trip(0, 0, SimDuration::from_micros(10));
        assert_eq!(with_work.as_micros_f64(), 260.0);
    }

    #[test]
    fn payload_expansion_inflates_wire_bytes() {
        let path = simple_path();
        assert_eq!(path.wire_bytes(3000), 4000);
        let small = path.round_trip(0, 0, SimDuration::ZERO);
        let large = path.round_trip(3000, 0, SimDuration::ZERO);
        // 4000 wire bytes * 1 ns on gateway (request) + gateway fixed costs.
        assert_eq!((large - small).as_nanos(), 4_000);
    }

    #[test]
    fn samples_hover_above_the_median() {
        let path = simple_path();
        let mut rng = DeterministicRng::new(3);
        let median = path.round_trip(1024, 1024, SimDuration::ZERO);
        let mut higher = 0;
        for _ in 0..200 {
            let s = path.sample_round_trip(1024, 1024, SimDuration::ZERO, &mut rng);
            assert!(s >= median.mul_f64(0.8));
            if s > median {
                higher += 1;
            }
        }
        assert!(higher > 100, "jitter should mostly inflate latency");
    }

    #[test]
    fn goodput_decreases_with_fixed_overhead() {
        let path = simple_path();
        let small = path.goodput_bytes_per_sec(1024);
        let large = path.goodput_bytes_per_sec(1024 * 1024);
        assert!(large > small, "larger payloads amortise fixed costs");
    }
}

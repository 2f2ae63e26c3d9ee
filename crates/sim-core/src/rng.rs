//! Deterministic random number generation.
//!
//! Every stochastic component of the simulation (network jitter, batch-job
//! arrivals, payload generation) draws from a [`DeterministicRng`] seeded
//! explicitly, so experiments are bit-reproducible across runs and machines.
//! The generator is SplitMix64 — tiny, fast, and good enough for cost-model
//! jitter and synthetic payloads.

/// The SplitMix64 finalizer: a full-avalanche bijective mix of a 64-bit
/// word. Besides driving [`DeterministicRng`], it is the avalanche step of
/// deterministic placement hashing (`rfaas::sharding::stable_hash`), where
/// raw byte-hash output clusters too much to order a consistent-hash ring.
pub fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, seedable, fully deterministic PRNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    state: u64,
}

impl DeterministicRng {
    /// Create a generator from an explicit seed.
    pub fn new(seed: u64) -> Self {
        DeterministicRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64_finalize(self.state)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64 requires lo < hi");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Sample an exponential distribution with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Sample a normal distribution (Box-Muller) with the given mean/stddev.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + stddev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Derive a child generator with an independent stream.
    pub fn fork(&mut self, stream: u64) -> DeterministicRng {
        DeterministicRng::new(self.next_u64() ^ stream.rotate_left(17))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::new(42);
        let mut b = DeterministicRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DeterministicRng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DeterministicRng::new(9);
        for _ in 0..10_000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
            let y = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&y));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DeterministicRng::new(11);
        let n = 50_000;
        let mean = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = DeterministicRng::new(13);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean was {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "stddev was {}", var.sqrt());
    }

    #[test]
    fn chance_probability_roughly_holds() {
        let mut r = DeterministicRng::new(17);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate was {rate}");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = DeterministicRng::new(99);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let identical = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(identical, 0);
    }
}

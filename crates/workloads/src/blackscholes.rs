//! Black-Scholes option pricing (PARSEC), the parallel-offloading workload of
//! Fig. 12.
//!
//! Every option is priced with the closed-form Black-Scholes formula; the
//! batch pricer is embarrassingly parallel, which is why the paper uses it to
//! compare OpenMP threading, full rFaaS offloading and the hybrid
//! OpenMP + rFaaS configuration.

use sandbox::{FunctionError, SharedFunction};
use sim_core::{DeterministicRng, SimDuration};

use crate::payload::{bytes_to_f64s, f64s_to_bytes};

/// Virtual compute cost of pricing one option on one core of the evaluation
/// node (calibrated so the full 5-million-option batch takes ~0.4 s serial,
/// matching the single-thread point of Fig. 12).
const COST_PER_OPTION: SimDuration = SimDuration::from_nanos(80);

/// One option contract (the PARSEC input record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptionContract {
    /// Spot price of the underlying.
    pub spot: f64,
    /// Strike price.
    pub strike: f64,
    /// Risk-free interest rate.
    pub rate: f64,
    /// Volatility of the underlying.
    pub volatility: f64,
    /// Time to maturity in years.
    pub time: f64,
    /// `true` for a put, `false` for a call.
    pub is_put: bool,
}

/// Cumulative distribution function of the standard normal distribution
/// (Abramowitz & Stegun 7.1.26 polynomial approximation, as in PARSEC).
fn normal_cdf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    0.5 * (1.0 + sign * y)
}

/// Price a single option with the Black-Scholes closed form.
fn price_option(option: &OptionContract) -> f64 {
    let OptionContract {
        spot,
        strike,
        rate,
        volatility,
        time,
        is_put,
    } = *option;
    let sqrt_t = time.sqrt();
    let d1 = ((spot / strike).ln() + (rate + 0.5 * volatility * volatility) * time)
        / (volatility * sqrt_t);
    let d2 = d1 - volatility * sqrt_t;
    let discounted_strike = strike * (-rate * time).exp();
    if is_put {
        discounted_strike * normal_cdf(-d2) - spot * normal_cdf(-d1)
    } else {
        spot * normal_cdf(d1) - discounted_strike * normal_cdf(d2)
    }
}

/// Price a batch of options.
pub fn price_batch(options: &[OptionContract]) -> Vec<f64> {
    options.iter().map(price_option).collect()
}

/// Generate a deterministic batch of `n` option contracts.
pub fn generate_options(n: usize, seed: u64) -> Vec<OptionContract> {
    let mut rng = DeterministicRng::new(seed);
    (0..n)
        .map(|_| OptionContract {
            spot: rng.range_f64(20.0, 120.0),
            strike: rng.range_f64(20.0, 120.0),
            rate: rng.range_f64(0.01, 0.08),
            volatility: rng.range_f64(0.1, 0.6),
            time: rng.range_f64(0.1, 2.0),
            is_put: rng.chance(0.5),
        })
        .collect()
}

/// Serialise option contracts into the invocation payload layout
/// (6 `f64` words per option, `is_put` encoded as 0.0/1.0).
pub fn options_to_bytes(options: &[OptionContract]) -> Vec<u8> {
    let mut values = Vec::with_capacity(options.len() * 6);
    for o in options {
        values.extend_from_slice(&[
            o.spot,
            o.strike,
            o.rate,
            o.volatility,
            o.time,
            if o.is_put { 1.0 } else { 0.0 },
        ]);
    }
    f64s_to_bytes(&values)
}

/// Deserialise the invocation payload layout back into option contracts.
pub(crate) fn options_from_bytes(bytes: &[u8]) -> Vec<OptionContract> {
    bytes_to_f64s(bytes)
        .chunks_exact(6)
        .map(|c| OptionContract {
            spot: c[0],
            strike: c[1],
            rate: c[2],
            volatility: c[3],
            time: c[4],
            is_put: c[5] > 0.5,
        })
        .collect()
}

/// The rFaaS function: prices the options in the payload and returns one
/// `f64` price per option.
pub fn blackscholes_function() -> SharedFunction {
    SharedFunction::from_fn("blackscholes", |input, output| {
        let options = options_from_bytes(input);
        let prices = price_batch(&options);
        let bytes = f64s_to_bytes(&prices);
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
        let options = input_len / 48;
        COST_PER_OPTION * options as u64
    })
}

/// Virtual execution time of pricing `n` options over `threads` local
/// (OpenMP-style) threads: the makespan of an even static partition.
pub fn local_parallel_cost(n: usize, threads: usize) -> SimDuration {
    let threads = threads.max(1);
    COST_PER_OPTION * n.div_ceil(threads) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_sane() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!(normal_cdf(5.0) > 0.999_99);
        assert!(normal_cdf(-5.0) < 1e-5);
        // Symmetry.
        assert!((normal_cdf(1.3) + normal_cdf(-1.3) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn known_call_price() {
        // Classic textbook case: S=100, K=100, r=5%, sigma=20%, T=1 year.
        let call = OptionContract {
            spot: 100.0,
            strike: 100.0,
            rate: 0.05,
            volatility: 0.2,
            time: 1.0,
            is_put: false,
        };
        let price = price_option(&call);
        assert!((price - 10.45).abs() < 0.1, "call price {price}");
    }

    #[test]
    fn known_put_price_via_parity() {
        let put = OptionContract {
            spot: 100.0,
            strike: 100.0,
            rate: 0.05,
            volatility: 0.2,
            time: 1.0,
            is_put: true,
        };
        let call = OptionContract {
            is_put: false,
            ..put
        };
        // Put-call parity: C - P = S - K e^{-rT}.
        let parity = price_option(&call) - price_option(&put);
        let expected = 100.0 - 100.0 * (-0.05f64).exp();
        assert!(
            (parity - expected).abs() < 0.05,
            "parity gap {}",
            parity - expected
        );
    }

    #[test]
    fn prices_are_nonnegative_and_bounded() {
        for o in generate_options(2_000, 7) {
            let p = price_option(&o);
            assert!(p >= -1e-9, "negative price {p} for {o:?}");
            assert!(p <= o.spot.max(o.strike), "price {p} above bound for {o:?}");
        }
    }

    #[test]
    fn serialization_round_trip() {
        let options = generate_options(128, 3);
        let bytes = options_to_bytes(&options);
        assert_eq!(bytes.len(), 128 * 48);
        assert_eq!(options_from_bytes(&bytes), options);
    }

    #[test]
    fn function_prices_match_local_execution() {
        let options = generate_options(64, 11);
        let f = blackscholes_function();
        let input = options_to_bytes(&options);
        let mut output = vec![0u8; 64 * 8];
        let n = f.invoke(&input, &mut output).unwrap();
        assert_eq!(n, 64 * 8);
        let remote = bytes_to_f64s(&output[..n]);
        let local = price_batch(&options);
        for (r, l) in remote.iter().zip(local.iter()) {
            assert_eq!(r, l);
        }
        // Cost model scales with the number of options.
        assert_eq!(f.compute_cost(48 * 1_000), COST_PER_OPTION * 1_000);
    }

    #[test]
    fn function_rejects_small_output_buffer() {
        let options = generate_options(16, 1);
        let f = blackscholes_function();
        let mut output = vec![0u8; 8];
        assert!(f.invoke(&options_to_bytes(&options), &mut output).is_err());
    }

    #[test]
    fn local_parallel_cost_scales_down_with_threads() {
        let serial = local_parallel_cost(1_000_000, 1);
        let parallel = local_parallel_cost(1_000_000, 32);
        assert_eq!(serial, COST_PER_OPTION * 1_000_000);
        assert!(parallel <= serial / 31);
        assert_eq!(local_parallel_cost(10, 0), local_parallel_cost(10, 1));
    }
}

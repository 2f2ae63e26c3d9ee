//! Dense matrix-matrix multiplication, the per-rank kernel of Fig. 13a.
//!
//! In the paper, every MPI rank multiplies its own `n × n` matrices and the
//! MPI + rFaaS variant offloads half of the result rows to a leased function.
//! The kernel here is a cache-blocked triple loop over row-major `f64`
//! matrices; the attached cost model charges `2·rows·n²` floating-point
//! operations at the effective per-core rate of the evaluation nodes.

use sandbox::{FunctionError, SharedFunction};
use sim_core::{DeterministicRng, SimDuration};

use crate::payload::{bytes_to_f64s, f64s_to_bytes};

/// Effective per-core cost of one fused multiply-add pair (2 flops) for the
/// naive kernel on the evaluation CPU. Calibrated so an 800×800 multiply
/// takes ~1 s, matching the largest size of Fig. 13a.
const COST_PER_FLOP_PAIR: f64 = 1.0; // nanoseconds

const BLOCK: usize = 64;

/// Multiply row-major `a` (n×n) by `b` (n×n) producing the full result.
#[cfg(test)]
fn multiply(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    multiply_rows(a, b, n, 0, n)
}

/// Multiply rows `[row_begin, row_end)` of `a` by `b`, producing
/// `(row_end - row_begin) × n` output rows.
pub(crate) fn multiply_rows(
    a: &[f64],
    b: &[f64],
    n: usize,
    row_begin: usize,
    row_end: usize,
) -> Vec<f64> {
    assert!(
        a.len() >= n * n && b.len() >= n * n,
        "matrix buffers too small"
    );
    assert!(
        row_begin <= row_end && row_end <= n,
        "row range out of bounds"
    );
    let rows = row_end - row_begin;
    let mut c = vec![0.0f64; rows * n];
    for ii in (row_begin..row_end).step_by(BLOCK) {
        for kk in (0..n).step_by(BLOCK) {
            for jj in (0..n).step_by(BLOCK) {
                let i_max = (ii + BLOCK).min(row_end);
                let k_max = (kk + BLOCK).min(n);
                let j_max = (jj + BLOCK).min(n);
                for i in ii..i_max {
                    for k in kk..k_max {
                        let a_ik = a[i * n + k];
                        let c_row = &mut c[(i - row_begin) * n..(i - row_begin) * n + n];
                        let b_row = &b[k * n..k * n + n];
                        for j in jj..j_max {
                            c_row[j] += a_ik * b_row[j];
                        }
                    }
                }
            }
        }
    }
    c
}

/// Virtual compute cost of multiplying `rows` rows of an `n × n` system.
pub fn compute_cost(rows: usize, n: usize) -> SimDuration {
    SimDuration::from_nanos((rows as f64 * n as f64 * n as f64 * COST_PER_FLOP_PAIR) as u64)
}

/// Generate a deterministic `n × n` matrix with entries in `[-1, 1]`.
pub fn random_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = DeterministicRng::new(seed);
    (0..n * n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

/// Payload layout of the offloaded half-multiply: `[n, row_begin, row_end]`
/// as `f64` words followed by `A` (n²) and `B` (n²).
pub fn encode_matmul_request(
    a: &[f64],
    b: &[f64],
    n: usize,
    row_begin: usize,
    row_end: usize,
) -> Vec<u8> {
    let mut values = Vec::with_capacity(3 + 2 * n * n);
    values.push(n as f64);
    values.push(row_begin as f64);
    values.push(row_end as f64);
    values.extend_from_slice(&a[..n * n]);
    values.extend_from_slice(&b[..n * n]);
    f64s_to_bytes(&values)
}

/// The rFaaS function computing the requested row range of `A × B`.
pub fn matmul_function() -> SharedFunction {
    SharedFunction::from_fn("matmul", |input, output| {
        let values = bytes_to_f64s(input);
        if values.len() < 3 {
            return Err(FunctionError::InvalidInput("matmul header missing".into()));
        }
        let n = values[0] as usize;
        let row_begin = values[1] as usize;
        let row_end = values[2] as usize;
        if values.len() < 3 + 2 * n * n || row_end > n || row_begin > row_end {
            return Err(FunctionError::InvalidInput(format!(
                "inconsistent matmul request: n={n}, rows={row_begin}..{row_end}, words={}",
                values.len()
            )));
        }
        let a = &values[3..3 + n * n];
        let b = &values[3 + n * n..3 + 2 * n * n];
        let c = multiply_rows(a, b, n, row_begin, row_end);
        let bytes = f64s_to_bytes(&c);
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
        // words = 3 + 2 n²  →  n = sqrt((words - 3) / 2); the offloaded part
        // covers roughly half the rows.
        let words = input_len / 8;
        let n = (((words.saturating_sub(3)) / 2) as f64).sqrt();
        SimDuration::from_nanos((0.5 * n * n * n * COST_PER_FLOP_PAIR) as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_multiply(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..n {
                    sum += a[i * n + k] * b[k * n + j];
                }
                c[i * n + j] = sum;
            }
        }
        c
    }

    #[test]
    fn identity_multiplication() {
        let n = 17;
        let a = random_matrix(n, 1);
        let mut identity = vec![0.0; n * n];
        for i in 0..n {
            identity[i * n + i] = 1.0;
        }
        let c = multiply(&a, &identity, n);
        for (x, y) in c.iter().zip(a.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn blocked_kernel_matches_reference() {
        let n = 70; // not a multiple of the block size
        let a = random_matrix(n, 2);
        let b = random_matrix(n, 3);
        let blocked = multiply(&a, &b, n);
        let reference = reference_multiply(&a, &b, n);
        for (x, y) in blocked.iter().zip(reference.iter()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn row_range_multiplication_matches_full() {
        let n = 48;
        let a = random_matrix(n, 4);
        let b = random_matrix(n, 5);
        let full = multiply(&a, &b, n);
        let lower = multiply_rows(&a, &b, n, n / 2, n);
        assert_eq!(lower.len(), (n / 2) * n);
        for (i, value) in lower.iter().enumerate() {
            assert!((value - full[n * n / 2 + i]).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn invalid_row_range_panics() {
        let a = random_matrix(8, 1);
        let b = random_matrix(8, 2);
        multiply_rows(&a, &b, 8, 6, 10);
    }

    #[test]
    fn cost_model_is_cubic() {
        let small = compute_cost(400, 400);
        let large = compute_cost(800, 800);
        assert!((large.as_nanos() as f64 / small.as_nanos() as f64 - 8.0).abs() < 0.01);
        // 800×800 full multiply ≈ 1.0 s wall time on one core (Fig. 13a).
        assert!((0.4..1.5).contains(&large.as_secs_f64()));
    }

    #[test]
    fn function_computes_requested_rows() {
        let n = 32;
        let a = random_matrix(n, 6);
        let b = random_matrix(n, 7);
        let request = encode_matmul_request(&a, &b, n, n / 2, n);
        let f = matmul_function();
        let mut output = vec![0u8; (n / 2) * n * 8];
        let len = f.invoke(&request, &mut output).unwrap();
        assert_eq!(len, (n / 2) * n * 8);
        let remote = bytes_to_f64s(&output[..len]);
        let local = multiply_rows(&a, &b, n, n / 2, n);
        for (r, l) in remote.iter().zip(local.iter()) {
            assert!((r - l).abs() < 1e-12);
        }
        // Cost model corresponds to roughly half the cubic work.
        let cost = f.compute_cost(request.len());
        let expected = compute_cost(n / 2, n);
        let ratio = cost.as_nanos() as f64 / expected.as_nanos() as f64;
        assert!((0.8..1.2).contains(&ratio), "cost ratio {ratio}");
    }

    #[test]
    fn function_rejects_malformed_requests() {
        let f = matmul_function();
        let mut output = vec![0u8; 64];
        assert!(f.invoke(&[0u8; 8], &mut output).is_err());
        // Header claims a larger matrix than the payload carries.
        let bogus = f64s_to_bytes(&[100.0, 0.0, 100.0, 1.0, 2.0]);
        assert!(f.invoke(&bogus, &mut output).is_err());
    }
}

//! Jacobi linear solver, the bulk-synchronous workload of Fig. 13b.
//!
//! The MPI + rFaaS variant offloads half of every iteration to a leased
//! function and exploits the classic serverless optimisation of caching the
//! (immutable) system matrix in the warm executor: only the updated solution
//! vector travels after the first invocation.

use sandbox::{FunctionError, SharedFunction};
use sim_core::sync::Mutex;
use sim_core::{DeterministicRng, SimDuration};

use crate::payload::{bytes_to_f64s, f64s_to_bytes};

/// Cost of one Jacobi update of one unknown (one row dot product element
/// pair), calibrated so a 2 500-unknown iteration lands in the
/// millisecond-per-iteration regime reported in Sec. V-G.
const COST_PER_ELEMENT: f64 = 1.6; // nanoseconds per (i, j) pair

/// A diagonally dominant dense linear system `A x = b`.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiSystem {
    /// Number of unknowns.
    pub n: usize,
    /// Row-major `n × n` matrix.
    pub a: Vec<f64>,
    /// Right-hand side.
    pub b: Vec<f64>,
}

impl JacobiSystem {
    /// Generate a well-conditioned, diagonally dominant system.
    pub fn generate(n: usize, seed: u64) -> JacobiSystem {
        let mut rng = DeterministicRng::new(seed);
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = rng.range_f64(-1.0, 1.0);
                    a[i * n + j] = v;
                    row_sum += v.abs();
                }
            }
            // Strict diagonal dominance guarantees Jacobi convergence.
            a[i * n + i] = row_sum + rng.range_f64(1.0, 2.0);
        }
        let b = (0..n).map(|_| rng.range_f64(-10.0, 10.0)).collect();
        JacobiSystem { n, a, b }
    }

    /// Residual norm `‖A x − b‖₂`.
    pub fn residual(&self, x: &[f64]) -> f64 {
        let n = self.n;
        assert_eq!(x.len(), n, "solution vector must have {n} entries");
        let mut norm = 0.0;
        for i in 0..n {
            let mut acc = -self.b[i];
            for (aij, xj) in self.a[i * n..(i + 1) * n].iter().zip(x) {
                acc += aij * xj;
            }
            norm += acc * acc;
        }
        norm.sqrt()
    }
}

/// One Jacobi sweep over the row range `[row_begin, row_end)`; returns the
/// updated values for those rows.
pub fn jacobi_sweep_rows(
    system: &JacobiSystem,
    x: &[f64],
    row_begin: usize,
    row_end: usize,
) -> Vec<f64> {
    let n = system.n;
    assert!(row_begin <= row_end && row_end <= n);
    assert_eq!(x.len(), n, "solution vector must have {n} entries");
    let mut out = Vec::with_capacity(row_end - row_begin);
    for i in row_begin..row_end {
        let mut sigma = 0.0;
        for (j, (aij, xj)) in system.a[i * n..(i + 1) * n].iter().zip(x).enumerate() {
            if j != i {
                sigma += aij * xj;
            }
        }
        out.push((system.b[i] - sigma) / system.a[i * n + i]);
    }
    out
}

/// Solve the system with `iterations` Jacobi sweeps starting from zero.
#[cfg(test)]
fn jacobi_solve(system: &JacobiSystem, iterations: usize) -> Vec<f64> {
    let mut x = vec![0.0; system.n];
    for _ in 0..iterations {
        x = jacobi_sweep_rows(system, &x, 0, system.n);
    }
    x
}

/// Virtual compute cost of sweeping `rows` rows of an `n`-unknown system.
pub fn sweep_cost(rows: usize, n: usize) -> SimDuration {
    SimDuration::from_nanos((rows as f64 * n as f64 * COST_PER_ELEMENT) as u64)
}

/// Message kinds accepted by [`jacobi_function`].
const MSG_INSTALL_SYSTEM: f64 = 0.0;
const MSG_ITERATE: f64 = 1.0;

/// Encode the first invocation: install the system and run one half-sweep
/// with the provided solution vector.
pub fn encode_install(
    system: &JacobiSystem,
    x: &[f64],
    row_begin: usize,
    row_end: usize,
) -> Vec<u8> {
    let mut values = vec![
        MSG_INSTALL_SYSTEM,
        system.n as f64,
        row_begin as f64,
        row_end as f64,
    ];
    values.extend_from_slice(&system.a);
    values.extend_from_slice(&system.b);
    values.extend_from_slice(x);
    f64s_to_bytes(&values)
}

/// Encode a subsequent iteration: only the updated solution vector travels.
pub fn encode_iterate(x: &[f64], row_begin: usize, row_end: usize) -> Vec<u8> {
    let mut values = vec![
        MSG_ITERATE,
        x.len() as f64,
        row_begin as f64,
        row_end as f64,
    ];
    values.extend_from_slice(x);
    f64s_to_bytes(&values)
}

/// The rFaaS Jacobi function: caches the system matrix in executor memory on
/// the first invocation and afterwards only needs the solution vector, the
/// optimisation described in Sec. V-G(b).
pub fn jacobi_function() -> SharedFunction {
    let cached: Mutex<Option<JacobiSystem>> = Mutex::new(None);
    SharedFunction::from_fn("jacobi", move |input, output| {
        let values = bytes_to_f64s(input);
        if values.len() < 4 {
            return Err(FunctionError::InvalidInput("jacobi header missing".into()));
        }
        let kind = values[0];
        let n = values[1] as usize;
        let row_begin = values[2] as usize;
        let row_end = values[3] as usize;
        // `n` comes from the client: size the body with checked arithmetic.
        let body = values.len() - 4;
        let (system_storage, x): (Option<JacobiSystem>, Vec<f64>) = if kind == MSG_INSTALL_SYSTEM {
            // A, b and x: n² + 2n words.
            let words = n.checked_add(2).and_then(|m| m.checked_mul(n));
            if words.is_none_or(|words| body < words) {
                return Err(FunctionError::InvalidInput(
                    "truncated jacobi system".into(),
                ));
            }
            let a = values[4..4 + n * n].to_vec();
            let b = values[4 + n * n..4 + n * n + n].to_vec();
            let x = values[4 + n * n + n..4 + n * n + 2 * n].to_vec();
            (Some(JacobiSystem { n, a, b }), x)
        } else {
            if body < n {
                return Err(FunctionError::InvalidInput(
                    "truncated solution vector".into(),
                ));
            }
            (None, values[4..4 + n].to_vec())
        };
        if let Some(system) = system_storage {
            *cached.lock() = Some(system);
        }
        let guard = cached.lock();
        let system = guard.as_ref().ok_or_else(|| {
            FunctionError::InvalidInput("no cached system; send install first".into())
        })?;
        if system.n != n || row_end > n || row_begin > row_end {
            return Err(FunctionError::InvalidInput("row range mismatch".into()));
        }
        let updated = jacobi_sweep_rows(system, &x, row_begin, row_end);
        let bytes = f64s_to_bytes(&updated);
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
        // Iterate messages carry ~n solution words; install messages carry
        // n² + 2n words. Either way the executed half-sweep costs ~n²/2.
        let words = (input_len / 8).saturating_sub(4);
        let n = if words > 4096 {
            // install message: words ≈ n² + 2n
            (words as f64).sqrt()
        } else {
            words as f64
        };
        SimDuration::from_nanos((0.5 * n * n * COST_PER_ELEMENT) as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_systems_are_diagonally_dominant() {
        let s = JacobiSystem::generate(64, 5);
        for i in 0..s.n {
            let diag = s.a[i * s.n + i].abs();
            let off: f64 = (0..s.n)
                .filter(|&j| j != i)
                .map(|j| s.a[i * s.n + j].abs())
                .sum();
            assert!(diag > off, "row {i} not dominant");
        }
    }

    #[test]
    fn solver_converges() {
        let system = JacobiSystem::generate(80, 9);
        let x0 = vec![0.0; system.n];
        let x = jacobi_solve(&system, 100);
        assert!(system.residual(&x) < 1e-6 * system.residual(&x0).max(1.0));
    }

    #[test]
    fn split_sweep_equals_full_sweep() {
        let system = JacobiSystem::generate(50, 2);
        let x: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let full = jacobi_sweep_rows(&system, &x, 0, 50);
        let mut split = jacobi_sweep_rows(&system, &x, 0, 25);
        split.extend(jacobi_sweep_rows(&system, &x, 25, 50));
        assert_eq!(full, split);
    }

    #[test]
    fn function_caches_system_between_invocations() {
        let system = JacobiSystem::generate(40, 3);
        let f = jacobi_function();
        let mut x = vec![0.0; system.n];
        let mut output = vec![0u8; system.n * 8];

        // First invocation installs the system and sweeps the upper half.
        let install = encode_install(&system, &x, 0, 20);
        let len = f.invoke(&install, &mut output).unwrap();
        let local = jacobi_sweep_rows(&system, &x, 0, 20);
        assert_eq!(bytes_to_f64s(&output[..len]), local);
        x[..20].copy_from_slice(&local);

        // Subsequent invocations only send the solution vector.
        let iterate = encode_iterate(&x, 0, 20);
        assert!(iterate.len() < install.len() / 10);
        let len = f.invoke(&iterate, &mut output).unwrap();
        assert_eq!(
            bytes_to_f64s(&output[..len]),
            jacobi_sweep_rows(&system, &x, 0, 20)
        );
    }

    #[test]
    fn iterate_without_install_fails() {
        let f = jacobi_function();
        let mut output = vec![0u8; 64];
        let err = f
            .invoke(&encode_iterate(&[1.0, 2.0], 0, 1), &mut output)
            .unwrap_err();
        assert!(matches!(err, FunctionError::InvalidInput(_)));
    }

    #[test]
    fn install_with_an_overflowing_size_is_rejected() {
        // n = 10¹⁰ unknowns: n² overflows `usize`.
        let header = f64s_to_bytes(&[MSG_INSTALL_SYSTEM, 1e10, 0.0, 1.0]);
        let mut output = vec![0u8; 64];
        let err = jacobi_function().invoke(&header, &mut output).unwrap_err();
        assert!(matches!(err, FunctionError::InvalidInput(_)));
    }

    #[test]
    fn cost_model_tracks_problem_size() {
        assert!(sweep_cost(1250, 2500) > sweep_cost(250, 500) * 20);
        // A full 2 500-unknown sweep sits in the millisecond range (Sec. V-G).
        let per_iter = sweep_cost(2500, 2500).as_millis_f64();
        assert!((1.0..20.0).contains(&per_iter), "sweep cost {per_iter} ms");
    }

    #[test]
    fn solver_handles_trivial_system() {
        let system = JacobiSystem {
            n: 1,
            a: vec![2.0],
            b: vec![4.0],
        };
        let x = jacobi_solve(&system, 10);
        assert!((x[0] - 2.0).abs() < 1e-12);
    }
}

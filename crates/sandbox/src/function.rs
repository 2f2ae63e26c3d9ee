//! The rFaaS function ABI.
//!
//! The paper's function interface (Listing 1) is
//! `uint32_t f(void* in, uint32_t size, void* out)`: the input payload is
//! written by the client into the executor's registered buffer, the function
//! writes its result into the registered output buffer, and the return value
//! is the number of output bytes the executor writes back into the client's
//! memory. The Rust equivalent is the [`RemoteFunction`] trait; closures are
//! adapted through [`SharedFunction::from_fn`].

use std::fmt;
use std::sync::Arc;

use sim_core::SimDuration;

/// Error raised by a function body.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard arm
/// so new failure modes can be added without a breaking release.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FunctionError {
    /// The output produced by the function does not fit in the registered
    /// output buffer the client allocated.
    OutputTooLarge {
        /// Bytes the function wanted to produce.
        required: usize,
        /// Capacity of the output buffer.
        capacity: usize,
    },
    /// The input payload failed validation (wrong size, bad magic, ...).
    InvalidInput(String),
    /// The function body failed for a domain-specific reason.
    ExecutionFailed(String),
    /// The function touched state outside its declaration: an undeclared
    /// key, or a write to a key declared read-only.
    StateAccess(String),
}

impl fmt::Display for FunctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionError::OutputTooLarge { required, capacity } => write!(
                f,
                "function output of {required} bytes exceeds the {capacity}-byte output buffer"
            ),
            FunctionError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            FunctionError::ExecutionFailed(msg) => write!(f, "execution failed: {msg}"),
            FunctionError::StateAccess(msg) => write!(f, "state access violation: {msg}"),
        }
    }
}

impl std::error::Error for FunctionError {}

/// Result of one function execution: the number of bytes written to the
/// output buffer.
pub type FunctionOutcome = Result<usize, FunctionError>;

/// The state window handed to a stateful function body.
///
/// The executor resolves the keys the binding *declared* into its state
/// cache before dispatch; this trait is the function's view of that window.
/// Reads hand out bytes borrowed where the executor cached them (no
/// per-invocation copy of the value), writes hand out a mutable copy of the
/// value — made on the key's first write — and mark it dirty so the executor
/// writes it back after completion. Touching an undeclared key, or writing
/// a key declared read-only, is a [`FunctionError::StateAccess`].
pub trait StateAccess {
    /// Borrow the current value of a declared key.
    fn read(&self, key: &str) -> Result<&[u8], FunctionError>;

    /// Borrow the value of a declared read-write key for mutation (resizing
    /// is allowed). The key is marked dirty and written back after the
    /// invocation completes.
    fn write(&mut self, key: &str) -> Result<&mut Vec<u8>, FunctionError>;
}

/// A [`StateAccess`] window over nothing — every access fails. Used when a
/// stateful function is dispatched without declared state.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoState;

impl StateAccess for NoState {
    fn read(&self, key: &str) -> Result<&[u8], FunctionError> {
        Err(FunctionError::StateAccess(format!(
            "key '{key}' was not declared by this binding"
        )))
    }

    fn write(&mut self, key: &str) -> Result<&mut Vec<u8>, FunctionError> {
        Err(FunctionError::StateAccess(format!(
            "key '{key}' was not declared by this binding"
        )))
    }
}

/// A serverless function body.
///
/// Implementations must be thread-safe: rFaaS executors run one function
/// instance per worker thread and the same registered code may execute
/// concurrently on all of them.
pub trait RemoteFunction: Send + Sync {
    /// Execute the function over `input`, writing the result into `output`
    /// and returning the number of valid output bytes.
    fn invoke(&self, input: &[u8], output: &mut [u8]) -> FunctionOutcome;

    /// Short, human-readable name (used in logs and billing records).
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// A reference-counted function, the unit stored in code packages.
#[derive(Clone)]
pub struct SharedFunction {
    name: Arc<str>,
    body: Arc<dyn RemoteFunction>,
    /// Optional virtual-time cost model: maps input size to the compute time
    /// charged on the executing worker's clock. Functions without a model
    /// charge nothing beyond the platform dispatch overhead (appropriate for
    /// the paper's no-op echo benchmarks).
    cost: Option<Arc<dyn Fn(usize) -> SimDuration + Send + Sync>>,
    /// Optional stateful body. When present, [`SharedFunction::invoke_stateful`]
    /// routes through it with the executor-materialised state window;
    /// otherwise it falls back to the stateless `body`.
    #[allow(clippy::type_complexity)]
    stateful: Option<
        Arc<dyn Fn(&[u8], &mut dyn StateAccess, &mut [u8]) -> FunctionOutcome + Send + Sync>,
    >,
}

impl fmt::Debug for SharedFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedFunction")
            .field("name", &self.name)
            .finish()
    }
}

impl SharedFunction {
    /// Wrap an existing [`RemoteFunction`] implementation.
    pub fn new(name: &str, body: Arc<dyn RemoteFunction>) -> SharedFunction {
        SharedFunction {
            name: Arc::from(name),
            body,
            cost: None,
            stateful: None,
        }
    }

    /// Adapt a closure with the paper's `f(in, size, out) -> out_size` shape.
    pub fn from_fn<F>(name: &str, f: F) -> SharedFunction
    where
        F: Fn(&[u8], &mut [u8]) -> FunctionOutcome + Send + Sync + 'static,
    {
        struct ClosureFunction<F> {
            name: String,
            f: F,
        }
        impl<F> RemoteFunction for ClosureFunction<F>
        where
            F: Fn(&[u8], &mut [u8]) -> FunctionOutcome + Send + Sync,
        {
            fn invoke(&self, input: &[u8], output: &mut [u8]) -> FunctionOutcome {
                (self.f)(input, output)
            }
            fn name(&self) -> &str {
                &self.name
            }
        }
        SharedFunction {
            name: Arc::from(name),
            body: Arc::new(ClosureFunction {
                name: name.to_string(),
                f,
            }),
            cost: None,
            stateful: None,
        }
    }

    /// Adapt a stateful closure: `f(in, state, out) -> out_size`, where
    /// `state` is the window over the keys the binding declared. Invoking a
    /// stateful function through the stateless [`SharedFunction::invoke`]
    /// path fails with [`FunctionError::StateAccess`], so a binding that
    /// forgot `with_state` fails loudly rather than silently computing on
    /// nothing.
    pub fn from_stateful_fn<F>(name: &str, f: F) -> SharedFunction
    where
        F: Fn(&[u8], &mut dyn StateAccess, &mut [u8]) -> FunctionOutcome + Send + Sync + 'static,
    {
        struct StatelessShim;
        impl RemoteFunction for StatelessShim {
            fn invoke(&self, _input: &[u8], _output: &mut [u8]) -> FunctionOutcome {
                Err(FunctionError::StateAccess(
                    "stateful function invoked without a state window".into(),
                ))
            }
        }
        SharedFunction {
            name: Arc::from(name),
            body: Arc::new(StatelessShim),
            cost: None,
            stateful: Some(Arc::new(f)),
        }
    }

    /// Attach a virtual-time cost model mapping input size (bytes) to compute
    /// time. Used by the evaluation workloads so that offloaded kernels charge
    /// realistic execution time on the worker's clock.
    pub fn with_cost_model(
        mut self,
        cost: impl Fn(usize) -> SimDuration + Send + Sync + 'static,
    ) -> SharedFunction {
        self.cost = Some(Arc::new(cost));
        self
    }

    /// The function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execute the function.
    pub fn invoke(&self, input: &[u8], output: &mut [u8]) -> FunctionOutcome {
        self.body.invoke(input, output)
    }

    /// Execute the function with a state window. Stateless functions ignore
    /// the window and run their plain body, so executors can route every
    /// dispatch through this entry point.
    pub fn invoke_stateful(
        &self,
        input: &[u8],
        state: &mut dyn StateAccess,
        output: &mut [u8],
    ) -> FunctionOutcome {
        match &self.stateful {
            Some(f) => f(input, state, output),
            None => self.body.invoke(input, output),
        }
    }

    /// Whether this function declares a stateful body.
    pub fn is_stateful(&self) -> bool {
        self.stateful.is_some()
    }

    /// Virtual compute time charged for an invocation with `input_len` bytes
    /// of payload (zero when no cost model is attached).
    pub fn compute_cost(&self, input_len: usize) -> SimDuration {
        self.cost
            .as_ref()
            .map(|c| c(input_len))
            .unwrap_or(SimDuration::ZERO)
    }
}

/// The no-op "echo" function used throughout the paper's microbenchmarks:
/// it returns the input payload unchanged (Sec. V-A, V-C, V-D).
pub fn echo_function() -> SharedFunction {
    SharedFunction::from_fn("echo", |input, output| {
        if output.len() < input.len() {
            return Err(FunctionError::OutputTooLarge {
                required: input.len(),
                capacity: output.len(),
            });
        }
        output[..input.len()].copy_from_slice(input);
        Ok(input.len())
    })
}

/// A function that returns a fixed-size all-zero payload regardless of input,
/// used by tests that need asymmetric input/output sizes.
pub fn zeros_function(output_len: usize) -> SharedFunction {
    SharedFunction::from_fn("zeros", move |_input, output| {
        if output.len() < output_len {
            return Err(FunctionError::OutputTooLarge {
                required: output_len,
                capacity: output.len(),
            });
        }
        output[..output_len].fill(0);
        Ok(output_len)
    })
}

/// A function that always fails, used by fault-injection tests.
pub fn failing_function(message: &str) -> SharedFunction {
    let message = message.to_string();
    SharedFunction::from_fn("always-fails", move |_input, _output| {
        Err(FunctionError::ExecutionFailed(message.clone()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_copies_input_to_output() {
        let f = echo_function();
        let input = vec![1u8, 2, 3, 4];
        let mut output = vec![0u8; 16];
        let n = f.invoke(&input, &mut output).unwrap();
        assert_eq!(n, 4);
        assert_eq!(&output[..4], &[1, 2, 3, 4]);
        assert_eq!(f.name(), "echo");
    }

    #[test]
    fn echo_rejects_undersized_output() {
        let f = echo_function();
        let input = vec![0u8; 32];
        let mut output = vec![0u8; 8];
        let err = f.invoke(&input, &mut output).unwrap_err();
        assert!(matches!(
            err,
            FunctionError::OutputTooLarge {
                required: 32,
                capacity: 8
            }
        ));
    }

    #[test]
    fn zeros_ignores_input() {
        let f = zeros_function(10);
        let mut output = vec![0xFFu8; 16];
        let n = f.invoke(&[1, 2, 3], &mut output).unwrap();
        assert_eq!(n, 10);
        assert_eq!(&output[..10], &[0u8; 10]);
        assert_eq!(output[10], 0xFF);
    }

    #[test]
    fn failing_function_reports_error() {
        let f = failing_function("boom");
        let mut output = vec![0u8; 8];
        let err = f.invoke(&[], &mut output).unwrap_err();
        assert_eq!(err, FunctionError::ExecutionFailed("boom".into()));
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn closure_adapter_preserves_name_and_behaviour() {
        let double = SharedFunction::from_fn("double", |input, output| {
            let n = input.len();
            if output.len() < 2 * n {
                return Err(FunctionError::OutputTooLarge {
                    required: 2 * n,
                    capacity: output.len(),
                });
            }
            output[..n].copy_from_slice(input);
            output[n..2 * n].copy_from_slice(input);
            Ok(2 * n)
        });
        assert_eq!(double.name(), "double");
        let mut out = vec![0u8; 8];
        assert_eq!(double.invoke(&[7, 8], &mut out).unwrap(), 4);
        assert_eq!(&out[..4], &[7, 8, 7, 8]);
    }

    #[test]
    fn stateful_functions_route_through_the_state_window() {
        use std::collections::BTreeMap;

        /// Minimal window over a map, for the ABI test only — the real
        /// window lives in the executor.
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

        let f = SharedFunction::from_stateful_fn("counter", |input, state, output| {
            let count = state.write("count")?;
            count[0] = count[0].wrapping_add(input.len() as u8);
            output[0] = count[0];
            Ok(1)
        });
        assert!(f.is_stateful());
        assert!(!echo_function().is_stateful());

        let mut state = MapState(BTreeMap::from([("count".to_string(), vec![0u8])]));
        let mut out = vec![0u8; 4];
        f.invoke_stateful(&[1, 2, 3], &mut state, &mut out).unwrap();
        f.invoke_stateful(&[1], &mut state, &mut out).unwrap();
        assert_eq!(out[0], 4);
        assert_eq!(state.0["count"], vec![4]);

        // The stateless entry point refuses to run a stateful body...
        let err = f.invoke(&[1], &mut out).unwrap_err();
        assert!(matches!(err, FunctionError::StateAccess(_)));
        // ...and an undeclared key is a typed violation.
        let g = SharedFunction::from_stateful_fn("oops", |_in, state, _out| {
            state.read("undeclared")?;
            Ok(0)
        });
        let err = g.invoke_stateful(&[], &mut state, &mut out).unwrap_err();
        assert!(matches!(err, FunctionError::StateAccess(_)));
    }

    #[test]
    fn stateless_functions_ignore_the_state_window() {
        let f = echo_function();
        let mut out = vec![0u8; 4];
        let n = f.invoke_stateful(&[5, 6], &mut NoState, &mut out).unwrap();
        assert_eq!(n, 2);
        assert_eq!(&out[..2], &[5, 6]);
        // NoState rejects everything.
        assert!(NoState.read("k").is_err());
        assert!(NoState.write("k").is_err());
    }

    #[test]
    fn shared_function_is_cloneable_and_thread_safe() {
        let f = echo_function();
        let g = f.clone();
        let handle = std::thread::spawn(move || {
            let mut out = vec![0u8; 4];
            g.invoke(&[9; 4], &mut out).unwrap()
        });
        assert_eq!(handle.join().unwrap(), 4);
        let mut out = vec![0u8; 4];
        assert_eq!(f.invoke(&[1; 4], &mut out).unwrap(), 4);
    }
}

//! Shared harness for the figure-regeneration binaries.
//!
//! Every evaluation binary stands up the same testbed: an RDMA fabric with a
//! resource manager, a set of spot executors offering the evaluation nodes'
//! resources, a function registry with all workload functions deployed, and a
//! client-side invoker. [`Testbed`] wraps that plumbing; the binaries then
//! only express the experiment itself (payload sweep, worker sweep, ...).

use std::sync::Arc;

use cluster_sim::NodeResources;
use rdma_fabric::Fabric;
use rfaas::{AllocationBuilder, PollingMode, RFaasConfig, ResourceManager, Session, SpotExecutor};
use sandbox::{echo_function, CodePackage, FunctionRegistry, SandboxType, SharedFunction};
use sim_core::{SimDuration, Summary};
use workloads::{
    blackscholes_function, image_recognition_function, jacobi_function, matmul_function,
    streaming_aggregation_function, thumbnailer_function, training_step_function,
};

/// Name of the code package every testbed deploys.
pub const PACKAGE: &str = "evaluation";

/// A ready-to-use rFaaS deployment for experiments.
pub struct Testbed {
    /// The RDMA fabric connecting every node.
    pub fabric: Arc<Fabric>,
    /// The resource manager.
    pub manager: Arc<ResourceManager>,
    /// The spot executors registered with the manager.
    pub executors: Vec<Arc<SpotExecutor>>,
    /// Platform configuration used everywhere.
    pub config: RFaasConfig,
}

impl Testbed {
    /// Build a testbed with `executor_nodes` spot executors shaped like the
    /// paper's evaluation nodes (36 cores, 377 GiB).
    pub fn new(executor_nodes: usize) -> Testbed {
        Testbed::with_config(executor_nodes, RFaasConfig::paper_calibration())
    }

    /// Build a testbed with an explicit platform configuration (used by
    /// experiments that need larger invocation payloads than the default).
    pub fn with_config(executor_nodes: usize, config: RFaasConfig) -> Testbed {
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(evaluation_package());
        let manager = ResourceManager::new(&fabric, config.clone());
        let executors: Vec<Arc<SpotExecutor>> = (0..executor_nodes)
            .map(|i| {
                let executor = SpotExecutor::new(
                    &fabric,
                    &format!("spot-{i:02}"),
                    NodeResources::xeon_gold_6154_dual(),
                    registry.clone(),
                    config.clone(),
                );
                manager.register_executor(&executor);
                executor
            })
            .collect();
        Testbed {
            fabric,
            manager,
            executors,
            config,
        }
    }

    /// Start building a [`Session`] for a client on its own node, against
    /// the testbed's manager and configuration, requesting the evaluation
    /// package. Callers layer worker count, sandbox and polling mode on top.
    pub fn session(&self, client_name: &str) -> AllocationBuilder {
        Session::builder(&self.fabric, client_name, &self.manager, PACKAGE)
            .config(self.config.clone())
            .memory_mib(16 * 1024)
    }

    /// Build a connected session leasing `workers` workers with the given
    /// sandbox and polling mode (the one-liner most experiments want).
    pub fn allocated_session(
        &self,
        client_name: &str,
        workers: u32,
        sandbox: SandboxType,
        mode: PollingMode,
    ) -> Session {
        self.session(client_name)
            .workers(workers)
            .sandbox(sandbox)
            .polling(mode)
            .connect()
            .expect("allocation on a fresh testbed succeeds")
    }
}

/// State-plane key holding the reference dataset of the Fig. 19 experiment.
pub const DATASET_KEY: &str = "dataset";

/// Stateful read-path microbenchmark function (Fig. 19): touches the
/// [`DATASET_KEY`] value materialised through its `with_state` declaration
/// and returns the value's length, so the invocation itself moves only
/// 8 bytes each way regardless of how large the dataset is.
pub fn state_touch_function() -> SharedFunction {
    SharedFunction::from_stateful_fn("state-touch", |_input, state, output| {
        let dataset = state.read(DATASET_KEY)?;
        // Touch both ends so the read cannot be optimised into a length probe.
        let fingerprint = dataset.len() as u64
            + *dataset.first().unwrap_or(&0) as u64
            + *dataset.last().unwrap_or(&0) as u64;
        // The window is what the client can receive, possibly under 8 B.
        let capacity = output.len();
        let slot = output
            .get_mut(..8)
            .ok_or(sandbox::FunctionError::OutputTooLarge {
                required: 8,
                capacity,
            })?;
        slot.copy_from_slice(&fingerprint.to_le_bytes());
        Ok(8)
    })
}

/// The code package containing every evaluation function.
pub fn evaluation_package() -> CodePackage {
    CodePackage::minimal(PACKAGE)
        .with_function(echo_function())
        .with_function(thumbnailer_function())
        .with_function(image_recognition_function())
        .with_function(blackscholes_function())
        .with_function(matmul_function())
        .with_function(jacobi_function())
        .with_function(streaming_aggregation_function())
        .with_function(training_step_function())
        .with_function(state_touch_function())
}

/// One row of a results table printed by a figure binary.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Series label (platform, configuration, ...).
    pub series: String,
    /// X-axis value (payload bytes, worker count, matrix size, ...).
    pub x: f64,
    /// Median of the measured metric.
    pub median: f64,
    /// 99th percentile of the measured metric.
    pub p99: f64,
    /// Unit of the metric (`us`, `ms`, `s`, `%`).
    pub unit: String,
}

impl ResultRow {
    /// The row as one compact JSON object, fields in declaration order: the
    /// line format `scripts/perf_snapshot.py` scrapes and
    /// `BENCH_BASELINE.json` gates.
    fn to_json(&self) -> String {
        // JSON has no Infinity/NaN: non-finite values print as `null`.
        let number = |x: f64| {
            if x.is_finite() {
                x.to_string()
            } else {
                "null".to_string()
            }
        };
        format!(
            r#"{{"series":{},"x":{},"median":{},"p99":{},"unit":{}}}"#,
            json_string(&self.series),
            number(self.x),
            number(self.median),
            number(self.p99),
            json_string(&self.unit),
        )
    }
}

/// `s` as a quoted JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print a results table both as an aligned text table and as JSON lines
/// (machine-readable for plotting scripts).
pub fn print_table(title: &str, rows: &[ResultRow]) {
    println!("\n# {title}");
    println!(
        "{:<28} {:>14} {:>14} {:>14}  unit",
        "series", "x", "median", "p99"
    );
    for row in rows {
        println!(
            "{:<28} {:>14.3} {:>14.3} {:>14.3}  {}",
            row.series, row.x, row.median, row.p99, row.unit
        );
    }
    println!("## json");
    for row in rows {
        println!("{}", row.to_json());
    }
}

/// Summarise a set of virtual durations in microseconds.
pub fn summarize_us(samples: &[SimDuration]) -> Summary {
    Summary::of_durations_us(samples)
}

/// Summarise a set of virtual durations in milliseconds.
pub fn summarize_ms(samples: &[SimDuration]) -> Summary {
    Summary::of_durations_ms(samples)
}

/// Usage banner shared by every figure binary.
const USAGE: &str = "\
usage: fig binary [--quick] [SUB_EXPERIMENT]

  --quick          reduced repetitions and problem sizes (the CI smoke and
                   perf-snapshot profile)
  SUB_EXPERIMENT   one optional positional selecting a sub-experiment where
                   the binary offers one (see EXPERIMENTS.md)";

/// Validate a raw argument list (binary name already stripped). Rejects any
/// unrecognised `-`-prefixed flag and more than one positional, so a typoed
/// `--qiuck` fails loudly instead of silently selecting the full-length run.
fn check_args(args: impl Iterator<Item = String>) -> std::result::Result<(), String> {
    let mut positionals = 0usize;
    for arg in args {
        match arg.as_str() {
            "--quick" | "--help" | "-h" => {}
            flag if flag.starts_with('-') => {
                return Err(format!("unrecognised flag '{flag}'"));
            }
            positional => {
                positionals += 1;
                if positionals > 1 {
                    return Err(format!("unexpected extra argument '{positional}'"));
                }
            }
        }
    }
    Ok(())
}

/// Validate the process arguments, exiting with a usage message on anything
/// unrecognised (status 2) or printing it on `--help` (status 0). Every entry
/// point into the CLI surface calls this, so no figure binary can run with a
/// misspelled flag.
fn validate_cli() {
    if let Err(msg) = check_args(std::env::args().skip(1)) {
        eprintln!("error: {msg}\n{USAGE}");
        std::process::exit(2);
    }
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
}

/// Whether the binary was invoked with `--quick` (fewer repetitions / smaller
/// problem sizes, for CI and smoke testing). Exits with a usage message if
/// the command line carries anything unrecognised.
pub fn quick_mode() -> bool {
    validate_cli();
    std::env::args().any(|a| a == "--quick")
}

/// First non-flag command-line argument, if any (used by binaries that select
/// a sub-experiment, e.g. `thumbnailer` vs `inference`). Exits with a usage
/// message if the command line carries anything unrecognised.
pub fn sub_experiment() -> Option<String> {
    validate_cli();
    std::env::args().skip(1).find(|a| !a.starts_with("--"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_and_serves_invocations() {
        let testbed = Testbed::new(2);
        assert_eq!(testbed.manager.executor_count(), 2);
        let session =
            testbed.allocated_session("client", 1, SandboxType::BareMetal, PollingMode::Hot);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let (reply, rtt) = echo.invoke_timed(&[9u8; 64][..]).unwrap();
        assert_eq!(reply.len(), 64);
        assert!(rtt.as_micros_f64() < 50.0);
    }

    #[test]
    fn evaluation_package_contains_all_functions() {
        let pkg = evaluation_package();
        for name in [
            "echo",
            "thumbnailer",
            "image-recognition",
            "blackscholes",
            "matmul",
            "jacobi",
        ] {
            assert!(pkg.function_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn known_cli_shapes_pass_validation() {
        let ok = |args: &[&str]| check_args(args.iter().map(|s| s.to_string()));
        assert!(ok(&[]).is_ok());
        assert!(ok(&["--quick"]).is_ok());
        assert!(ok(&["--help"]).is_ok());
        assert!(ok(&["-h"]).is_ok());
        assert!(ok(&["thumbnailer"]).is_ok());
        assert!(ok(&["--quick", "inference"]).is_ok());
    }

    #[test]
    fn typoed_and_extra_arguments_are_rejected() {
        let err = |args: &[&str]| check_args(args.iter().map(|s| s.to_string())).unwrap_err();
        // The CI-masquerade scenario the validation exists for.
        assert!(err(&["--qiuck"]).contains("--qiuck"));
        assert!(err(&["--quick", "--verbose"]).contains("--verbose"));
        assert!(err(&["-q"]).contains("-q"));
        assert!(err(&["thumbnailer", "extra"]).contains("extra"));
    }

    /// Byte-exact pin of the `## json` rows that `scripts/perf_snapshot.py`
    /// and every committed report were written against.
    #[test]
    fn result_rows_are_byte_exact_json() {
        let row = |series: &str, x, median, p99, unit: &str| ResultRow {
            series: series.into(),
            x,
            median,
            p99,
            unit: unit.into(),
        };
        // An integer-valued `x` prints without a fraction; fractions stay.
        assert_eq!(
            row("rFaaS hot", 1024.0, 3.96, 4.2, "us").to_json(),
            r#"{"series":"rFaaS hot","x":1024,"median":3.96,"p99":4.2,"unit":"us"}"#
        );
        // Quote, backslash, named and unnamed control characters; NaN.
        assert_eq!(
            row("a\"b\\c\u{1}d\ne\tf\rg", 0.5, 1e21, f64::NAN, "%").to_json(),
            r#"{"series":"a\"b\\c\u0001d\ne\tf\rg","x":0.5,"median":1000000000000000000000,"p99":null,"unit":"%"}"#
        );
        // Infinities, negative zero, a small fraction; non-ASCII passes through.
        assert_eq!(
            row("é \u{1f}", -0.0, 1e-7, f64::INFINITY, "ms").to_json(),
            r#"{"series":"é \u001f","x":-0,"median":0.0000001,"p99":null,"unit":"ms"}"#
        );
        assert_eq!(
            row("inf", 1e15, 1e16, f64::NEG_INFINITY, "s").to_json(),
            r#"{"series":"inf","x":1000000000000000,"median":10000000000000000,"p99":null,"unit":"s"}"#
        );
    }
}

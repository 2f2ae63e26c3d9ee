//! The evaluation: the shared testbed harness and the fifteen figure
//! reproductions, one module each.
//!
//! Every figure stands up the same testbed: an RDMA fabric with a resource
//! manager, a set of spot executors offering the evaluation nodes'
//! resources, a function registry with all workload functions deployed, and
//! client sessions. [`Testbed`] wraps that plumbing; the figures then only
//! express the experiment itself (payload sweep, worker sweep, ...).
//! [`FIGURES`] names every figure's `run`, which returns [`Table`]s of
//! [`Row`]s, and its [`Claim`]s over those rows; the `figures` binary prints
//! the tables and the golden report test (`tests/report_golden.rs`) compares
//! them, and both check after, with [`Figure::failed_claims`], that no
//! `series @ x` key repeats and every claim holds.

use std::sync::Arc;

use cluster_sim::NodeResources;
use rdma_fabric::Fabric;
use rfaas::{AllocationBuilder, PollingMode, RFaasConfig, ResourceManager, Session, SpotExecutor};
use sandbox::{echo_function, CodePackage, FunctionRegistry, SandboxType, SharedFunction};
use sim_core::Summary;
use workloads::{
    blackscholes_function, image_recognition_function, jacobi_function, matmul_function,
    streaming_aggregation_function, thumbnailer_function,
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
        }
    }

    /// Start building a [`Session`] for a client on its own node, against
    /// the testbed's manager, requesting the evaluation package. Callers layer worker count, sandbox and polling mode on top.
    pub fn session(&self, client_name: &str) -> AllocationBuilder {
        Session::builder(&self.fabric, client_name, &self.manager, PACKAGE).memory_mib(16 * 1024)
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
        .with_function(state_touch_function())
}

/// One row of a figure's table: a series at one x-axis point, holding one
/// measured value or the summary of samples that differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Series label (platform, configuration, counter, ...).
    pub series: String,
    /// X-axis value (payload bytes, worker count, shard index, ...).
    pub x: f64,
    /// What was measured.
    pub measure: Measure,
    /// Unit of the measure (`us`, `ms`, `%`, `count`, `USD`, ...).
    pub unit: &'static str,
}

/// The measure of a [`Row`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measure {
    /// One number: a deterministic state, measured once.
    Value(f64),
    /// Samples that differ, from the source of variation the figure's module
    /// doc names.
    Distribution {
        /// Number of samples.
        n: usize,
        /// Median of the samples.
        median: f64,
        /// 99th percentile of the samples.
        p99: f64,
        /// Arithmetic mean of the samples.
        mean: f64,
    },
}

impl Row {
    /// A row holding one measured value.
    pub(crate) fn value(series: impl Into<String>, x: f64, value: f64, unit: &'static str) -> Row {
        Row {
            series: series.into(),
            x,
            measure: Measure::Value(value),
            unit,
        }
    }

    /// A row summarising `samples`. Panics, naming the row, on one sample or
    /// on several that are all bit-identical: a deterministic state is
    /// measured once, as a [`Row::value`].
    pub(crate) fn distribution(
        series: impl Into<String>,
        x: f64,
        samples: &[f64],
        unit: &'static str,
    ) -> Row {
        let series = series.into();
        assert!(
            samples.iter().any(|s| s.to_bits() != samples[0].to_bits()),
            "{series} @ {x}: {} sample(s), none differing from the first; a deterministic \
             state is measured once, as a value row",
            samples.len()
        );
        let summary = Summary::of(samples);
        Row {
            series,
            x,
            measure: Measure::Distribution {
                n: summary.count,
                median: summary.median,
                p99: summary.p99,
                mean: summary.mean,
            },
            unit,
        }
    }

    /// A row for the samples of a loop that is itself the experiment (waves,
    /// episodes, a churn schedule), not a repeated measurement: a
    /// [`Row::value`] when every sample is bit-identical, a
    /// [`Row::distribution`] otherwise.
    pub(crate) fn sampled(
        series: impl Into<String>,
        x: f64,
        samples: &[f64],
        unit: &'static str,
    ) -> Row {
        if samples.iter().all(|s| s.to_bits() == samples[0].to_bits()) {
            Row::value(series, x, samples[0], unit)
        } else {
            Row::distribution(series, x, samples, unit)
        }
    }

    /// The row as one compact JSON object: `{"series","x","value","unit"}`
    /// or `{"series","x","n","median","p99","mean","unit"}`. It is the line
    /// `figures` prints after `## json` and the golden report
    /// (`tests/golden/report/<figure>.jsonl`) holds.
    pub fn to_json(&self) -> String {
        // JSON has no Infinity/NaN: non-finite values print as `null`.
        let number = |x: f64| {
            if x.is_finite() {
                x.to_string()
            } else {
                "null".to_string()
            }
        };
        let measure = match self.measure {
            Measure::Value(value) => format!(r#""value":{}"#, number(value)),
            Measure::Distribution {
                n,
                median,
                p99,
                mean,
            } => format!(
                r#""n":{n},"median":{},"p99":{},"mean":{}"#,
                number(median),
                number(p99),
                number(mean)
            ),
        };
        format!(
            r#"{{"series":{},"x":{},{measure},"unit":{}}}"#,
            json_string(&self.series),
            number(self.x),
            json_string(self.unit),
        )
    }
}

/// A titled table of rows, one of the tables a figure returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The table's title. Static, so it cannot carry a measured number.
    pub title: &'static str,
    /// The rows, in print order.
    pub rows: Vec<Row>,
}

/// A figure's claim about its own rows: a predicate over the tables its
/// `run` returned, checked after the rows by [`Figure::failed_claims`].
pub struct Claim {
    /// What the claim says.
    pub name: &'static str,
    /// Where it comes from: the paper section it reproduces (`"paper §V-A"`)
    /// or `"model"` for an invariant of this reproduction.
    pub source: &'static str,
    /// The predicate; `Err` says which numbers broke it.
    pub check: fn(&[Table]) -> Result<(), String>,
}

/// Row `series @ x` of `tables`. An absent row is an error naming it, so a
/// claim never passes on a row that is not there. A key names one row of a
/// figure: [`Figure::failed_claims`] fails any key that repeats.
fn row<'a>(tables: &'a [Table], series: &str, x: f64) -> Result<&'a Row, String> {
    tables
        .iter()
        .flat_map(|table| &table.rows)
        .find(|row| row.series == series && row.x == x)
        .ok_or_else(|| format!("{series} @ {x}: no such row"))
}

/// The value of row `series @ x`, or its median if it is a distribution.
pub fn at(tables: &[Table], series: &str, x: f64) -> Result<f64, String> {
    Ok(match row(tables, series, x)?.measure {
        Measure::Value(value) => value,
        Measure::Distribution { median, .. } => median,
    })
}

/// The p99 of row `series @ x`, or its value if it is a value row.
pub(crate) fn p99_at(tables: &[Table], series: &str, x: f64) -> Result<f64, String> {
    Ok(match row(tables, series, x)?.measure {
        Measure::Value(value) => value,
        Measure::Distribution { p99, .. } => p99,
    })
}

/// The x of every row of `series`, in row order. A series with no row is an
/// error naming it, so a claim over its rows never passes vacuously.
pub(crate) fn xs(tables: &[Table], series: &str) -> Result<Vec<f64>, String> {
    let xs: Vec<f64> = tables
        .iter()
        .flat_map(|table| &table.rows)
        .filter(|row| row.series == series)
        .map(|row| row.x)
        .collect();
    if xs.is_empty() {
        return Err(format!("{series}: no row"));
    }
    Ok(xs)
}

/// Whether `holds` for the numbers of the rows `keys`, each `(series, x)`,
/// read with [`at`]; a failure names every row with its number.
pub(crate) fn rows<const N: usize>(
    tables: &[Table],
    keys: [(&str, f64); N],
    holds: impl Fn([f64; N]) -> bool,
) -> Result<(), String> {
    let mut numbers = [0.0; N];
    for (number, (series, x)) in numbers.iter_mut().zip(keys) {
        *number = at(tables, series, x)?;
    }
    if holds(numbers) {
        return Ok(());
    }
    let named: Vec<String> = keys
        .iter()
        .zip(numbers)
        .map(|((series, x), number)| format!("{series} @ {x}: {number}"))
        .collect();
    Err(named.join(", "))
}

/// Whether `holds(x, numbers)` at the x of every row of `names[0]`, reading
/// the row of each of `names` at that x.
pub(crate) fn every<const N: usize>(
    tables: &[Table],
    names: [&str; N],
    holds: impl Fn(f64, [f64; N]) -> bool,
) -> Result<(), String> {
    xs(tables, names[0])?.into_iter().try_for_each(|x| {
        rows(tables, names.map(|name| (name, x)), |numbers| {
            holds(x, numbers)
        })
    })
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

/// How large a run a figure makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Reduced problem sizes, fleets and horizons (`--quick`).
    Quick,
    /// The default run.
    Standard,
    /// Paper-sized problems where the figure offers them (`--full`).
    Full,
}

impl Size {
    fn quick(self) -> bool {
        self == Size::Quick
    }

    fn full(self) -> bool {
        self == Size::Full
    }
}

/// One figure of the evaluation: its name, the function that runs it and its
/// claims. `run` prints nothing and checks nothing: it returns the figure's
/// tables, which the `figures` binary prints and the golden report compares,
/// and every number the run measures is a row of one of them.
/// [`Figure::failed_claims`] checks those rows after.
pub struct Figure {
    /// The figure's name, as `figures` takes it and EXPERIMENTS.md lists it.
    pub name: &'static str,
    /// Run the figure.
    pub run: fn(Size) -> Vec<Table>,
    /// What the figure claims about the rows `run` returns.
    pub claims: &'static [Claim],
}

impl Figure {
    /// One line per key `series @ x` that names more than one row of
    /// `tables`, in one table or across tables, naming the figure, the key
    /// and the title of each table holding it; then one line per claim that
    /// `tables` break, naming the figure, the claim, its source and what
    /// broke it.
    pub fn failed_claims(&self, tables: &[Table]) -> Vec<String> {
        let mut keys: Vec<(&str, f64, Vec<&str>)> = Vec::new();
        for table in tables {
            for row in &table.rows {
                match keys
                    .iter_mut()
                    .find(|(series, x, _)| *series == row.series && *x == row.x)
                {
                    Some((_, _, titles)) => titles.push(table.title),
                    None => keys.push((&row.series, row.x, vec![table.title])),
                }
            }
        }
        let repeated = keys.into_iter().filter(|(_, _, titles)| titles.len() > 1);
        let repeated = repeated.map(|(series, x, titles)| {
            format!(
                "{} / row '{series} @ {x}' repeats, in tables '{}'",
                self.name,
                titles.join("', '")
            )
        });
        let failed = self.claims.iter().filter_map(|claim| {
            let detail = (claim.check)(tables).err()?;
            Some(format!(
                "{} / claim '{}' ({}): {detail}",
                self.name, claim.name, claim.source
            ))
        });
        repeated.chain(failed).collect()
    }
}

// Declared as plain items, outside `figures!`: rustfmt does not follow a
// `mod` item inside a macro body, so `cargo fmt` would never check them.
mod fig10_parallel_scaling;
mod fig11_serverless_functions;
mod fig12_parallel_offloading;
mod fig13_hpc_applications;
mod fig14_lease_churn;
mod fig15_allocation_throughput;
mod fig16_saturation;
mod fig17_connection_churn;
mod fig18_fork_spectrum;
mod fig19_state_plane;
mod fig1_platform_comparison;
mod fig2_cluster_utilization;
mod fig7_invocation_spectrum;
mod fig8_invocation_latency;
mod fig9_cold_start;

/// List each figure in [`FIGURES`], named after its module, with its `run`
/// and its `CLAIMS`.
macro_rules! figures {
    ($($module:ident;)*) => {
        /// Every figure, in the order `figures` runs them all.
        pub const FIGURES: [Figure; 15] = [$(Figure {
            name: stringify!($module),
            run: $module::run,
            claims: $module::CLAIMS,
        }),*];
    };
}

figures! {
    fig1_platform_comparison;
    fig2_cluster_utilization;
    fig7_invocation_spectrum;
    fig8_invocation_latency;
    fig9_cold_start;
    fig10_parallel_scaling;
    fig11_serverless_functions;
    fig12_parallel_offloading;
    fig13_hpc_applications;
    fig14_lease_churn;
    fig15_allocation_throughput;
    fig16_saturation;
    fig17_connection_churn;
    fig18_fork_spectrum;
    fig19_state_plane;
}

/// Parse the arguments of `figures` (binary name stripped) into the figures
/// to run and their size. Rejects any unrecognised `-`-prefixed flag,
/// `--quick` with `--full`, an unknown figure and any second positional, so
/// a typoed `--qiuck` fails loudly instead of silently selecting the
/// full-length run. `--help` and `-h` pass; the caller prints its usage
/// banner for them.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<&'static Figure>, Size), String> {
    let mut size = Size::Standard;
    let mut name = None;
    for arg in args {
        let picked = match arg.as_str() {
            "--quick" => Size::Quick,
            "--full" => Size::Full,
            "--help" | "-h" => continue,
            flag if flag.starts_with('-') => return Err(format!("unrecognised flag '{flag}'")),
            _ if name.is_some() => return Err(format!("unexpected extra argument '{arg}'")),
            _ => {
                name = Some(arg);
                continue;
            }
        };
        if size != Size::Standard && size != picked {
            return Err("--quick and --full exclude each other".to_string());
        }
        size = picked;
    }
    let Some(name) = name else {
        return Ok((FIGURES.iter().collect(), size));
    };
    let figure = FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        format!("unknown figure '{name}' (offered: {})", names.join(", "))
    })?;
    Ok((vec![figure], size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_and_serves_invocations() {
        let testbed = Testbed::new(2);
        assert_eq!(
            testbed.manager.available_resources().cores,
            2 * 36,
            "both executors registered"
        );
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

    /// The names and size `parse_args` selects for `args`.
    fn parse(args: &[&str]) -> Result<(Vec<&'static str>, Size), String> {
        let (figures, size) = parse_args(args.iter().map(|s| s.to_string()))?;
        Ok((figures.iter().map(|f| f.name).collect(), size))
    }

    #[test]
    fn known_cli_shapes_pass_validation() {
        let all: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(parse(&[]), Ok((all.clone(), Size::Standard)));
        assert_eq!(parse(&["--quick"]), Ok((all.clone(), Size::Quick)));
        assert_eq!(parse(&["--full"]), Ok((all.clone(), Size::Full)));
        assert_eq!(parse(&["--help"]), Ok((all.clone(), Size::Standard)));
        assert!(parse(&["-h"]).is_ok());
        assert!(parse(&["--quick", "--quick"]).is_ok());
        assert_eq!(
            parse(&["fig8_invocation_latency", "--quick"]),
            Ok((vec!["fig8_invocation_latency"], Size::Quick))
        );
        assert_eq!(
            parse(&["--full", "fig13_hpc_applications"]),
            Ok((vec!["fig13_hpc_applications"], Size::Full))
        );
        // The table names fifteen distinct figures.
        let distinct: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(distinct.len(), 15);
    }

    #[test]
    fn typoed_and_extra_arguments_are_rejected() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        // The CI-masquerade scenario the validation exists for.
        assert!(err(&["--qiuck"]).contains("--qiuck"));
        assert!(err(&["--quick", "--verbose"]).contains("--verbose"));
        assert!(err(&["-q"]).contains("-q"));
        assert!(err(&["--quick", "--full"]).contains("exclude"));
        // A figure runs whole: a second positional is an extra argument.
        let extra = err(&["fig13_hpc_applications", "jacobi"]);
        assert_eq!(extra, "unexpected extra argument 'jacobi'");
        // An unknown figure names all fifteen.
        let unknown = err(&["--quick", "fig8_invocation_latncy"]);
        assert!(unknown.contains("fig8_invocation_latncy"));
        assert!(
            FIGURES.iter().all(|f| unknown.contains(f.name)),
            "{unknown}"
        );
    }

    /// Byte-exact pin of the `## json` row format, the line format of the
    /// golden report (`tests/golden/report/<figure>.jsonl`).
    #[test]
    fn result_rows_are_byte_exact_json() {
        // An integer-valued `x` prints without a fraction; fractions stay.
        assert_eq!(
            Row::value("rFaaS hot", 1024.0, 3.96, "us").to_json(),
            r#"{"series":"rFaaS hot","x":1024,"value":3.96,"unit":"us"}"#
        );
        // Quote, backslash, named and unnamed control characters; NaN.
        assert_eq!(
            Row::value("a\"b\\c\u{1}d\ne\tf\rg", 0.5, f64::NAN, "%").to_json(),
            r#"{"series":"a\"b\\c\u0001d\ne\tf\rg","x":0.5,"value":null,"unit":"%"}"#
        );
        // Infinities, negative zero, large and small magnitudes; non-ASCII
        // passes through.
        assert_eq!(
            Row::value("é \u{1f}", -0.0, 1e-7, "ms").to_json(),
            r#"{"series":"é \u001f","x":-0,"value":0.0000001,"unit":"ms"}"#
        );
        assert_eq!(
            Row::value("inf", 1e15, f64::NEG_INFINITY, "s").to_json(),
            r#"{"series":"inf","x":1000000000000000,"value":null,"unit":"s"}"#
        );
        // A distribution: its fields in declaration order, a non-finite one
        // as `null`.
        let spread = Row {
            series: "AWS Lambda".into(),
            x: 1.0,
            measure: Measure::Distribution {
                n: 200,
                median: 1e21,
                p99: f64::INFINITY,
                mean: 24361.5,
            },
            unit: "us",
        };
        assert_eq!(
            spread.to_json(),
            r#"{"series":"AWS Lambda","x":1,"n":200,"median":1000000000000000000000,"p99":null,"mean":24361.5,"unit":"us"}"#
        );
    }

    /// A claim reading a row that is absent fails, naming `series @ x`; with
    /// the row present and holding, it passes.
    #[test]
    fn a_claim_on_an_absent_row_fails_naming_it() {
        let figure = Figure {
            name: "fig",
            run: |_| Vec::new(),
            claims: &[Claim {
                name: "hot under 5 us",
                source: "model",
                check: |t| rows(t, [("rFaaS hot", 8.0)], |[hot]| hot < 5.0),
            }],
        };
        let tables = |x, hot| {
            vec![Table {
                title: "t",
                rows: vec![Row::value("rFaaS hot", x, hot, "us")],
            }]
        };
        assert!(figure.failed_claims(&tables(8.0, 3.9)).is_empty());
        let failed = |x, hot| figure.failed_claims(&tables(x, hot)).join("\n");
        assert_eq!(
            failed(16.0, 3.9),
            "fig / claim 'hot under 5 us' (model): rFaaS hot @ 8: no such row"
        );
        assert_eq!(
            failed(8.0, 6.0),
            "fig / claim 'hot under 5 us' (model): rFaaS hot @ 8: 6"
        );
        let warm = every(&tables(8.0, 3.9), ["rFaaS warm"], |_, _| true);
        assert_eq!(warm, Err("rFaaS warm: no row".into()));
    }

    /// A distribution needs samples that differ: one sample, or several that
    /// are bit-identical, is a deterministic state measured again, and the
    /// panic names the row.
    #[test]
    fn a_distribution_refuses_a_repeated_state() {
        let panic_message = |samples: Vec<f64>| {
            let payload = std::panic::catch_unwind(|| {
                Row::distribution("rFaaS hot (bare-metal)", 32.0, &samples, "us")
            })
            .expect_err("a repeated state must panic");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };
        for samples in [vec![3.988; 20], vec![3.988]] {
            let message = panic_message(samples);
            assert!(message.contains("rFaaS hot (bare-metal) @ 32"), "{message}");
        }
        // A seeded spread is accepted and summarised.
        let mut rng = sim_core::DeterministicRng::new(2021);
        let samples: Vec<f64> = (0..200)
            .map(|_| {
                faas_baselines::aws_lambda()
                    .sample_rtt(1024, 1024, sim_core::SimDuration::ZERO, &mut rng)
                    .as_micros_f64()
            })
            .collect();
        let row = Row::distribution("AWS Lambda", 1.0, &samples, "us");
        let summary = Summary::of(&samples);
        assert_eq!(
            row.measure,
            Measure::Distribution {
                n: 200,
                median: summary.median,
                p99: summary.p99,
                mean: summary.mean,
            }
        );
        assert!(summary.median < summary.p99);
        // The samples of an experiment loop make a value when they agree.
        assert_eq!(row, Row::sampled("AWS Lambda", 1.0, &samples, "us"));
        assert_eq!(
            Row::sampled("gather latency", 16.0, &[5.867; 48], "us"),
            Row::value("gather latency", 16.0, 5.867, "us")
        );
    }
}

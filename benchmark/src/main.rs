//! simbench: the two-clock benchmark of the rFaaS reproduction. See README.md.

mod alloc;
mod harness;
mod host;
mod inputs;
mod layers;
mod metrics;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::Plan;
use metrics::Report;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--skip-layers]
       simbench suite [--seed N] [--smoke] [--aa]
       simbench layers
       simbench manifest

  --workload NAME  run one workload (see `simbench manifest`) and print its
                   metrics; the last line of standard output is the result as
                   one JSON object
  --seed N         seed of every generated input (default 1)
  --seconds S      scale the fixed operation counts, which are sized for 8
  --trace 1        traced run at a quarter of the operations: spans, the
                   counting allocator and the isolated per-layer timings
  --smoke          1 % of the operation counts
  --skip-layers    traced run without the isolated per-layer timings
  suite            every workload, untraced then traced, each in its own
                   process, then `layers` once; --aa runs it twice and compares
  layers           the isolated per-layer timings alone
  manifest         print the text of BENCHMARK.json";

/// Options of a single-workload run.
struct RunArgs {
    plan: Plan,
    skip_layers: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut scale = 1.0f64;
    let mut traced = false;
    let mut skip_layers = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 60]"));
                }
                scale = seconds / metrics::RUN_SECONDS as f64;
            }
            "--trace" => {
                traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => scale = 0.01,
            "--skip-layers" => skip_layers = true,
            other => return Err(format!("unrecognised argument '{other}'")),
        }
    }
    Ok(RunArgs {
        plan: Plan {
            workload: workload.ok_or("--workload is required")?,
            seed,
            scale,
            traced,
        },
        skip_layers,
    })
}

fn run_one(args: RunArgs) -> ExitCode {
    let traced = args.plan.traced;
    let scale = args.plan.scale;
    println!(
        "# {} seed {} scale {scale} {}",
        args.plan.workload,
        args.plan.seed,
        if traced { "traced" } else { "untraced" }
    );
    let Some(harness) = workloads::run(args.plan) else {
        eprintln!("simbench: unknown workload\n{USAGE}");
        return ExitCode::from(2);
    };
    let (attempted, failed) = harness.totals();
    let mut metrics = harness.finish();
    if traced && !args.skip_layers {
        metrics.extend(&layers::run(scale.min(1.0)));
    }
    let report = Report {
        metrics,
        attempted,
        failed,
    };
    print!("{}", report.to_table());
    println!("{}", report.driver_line(traced));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    host::pin_malloc_thresholds();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("suite") => suite::run(&args[1..]),
        Some("layers") => {
            let report = Report {
                metrics: layers::run(1.0),
                ..Report::default()
            };
            print!("# isolated per-layer timings\n{}", report.to_table());
            ExitCode::SUCCESS
        }
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            ExitCode::SUCCESS
        }
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(_) => match parse_run_args(&args) {
            Ok(run) => run_one(run),
            Err(e) => {
                eprintln!("simbench: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

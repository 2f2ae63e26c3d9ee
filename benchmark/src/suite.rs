//! `simbench suite`: every workload untraced and traced, each in its own
//! process (so peak RSS is per workload), then the isolated layer timings;
//! with `--aa`, all of it twice, interleaved, and compared.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::layers;
use crate::metrics::{self, Better, Report, END_TO_END, WORKLOADS};

/// Segment-rate spread above which two host measurements cannot be told
/// apart from noise.
const NOISE_LIMIT: f64 = 0.15;

struct Options {
    seed: u64,
    smoke: bool,
    aa: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        seed: 1,
        smoke: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                options.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--smoke" => options.smoke = true,
            "--aa" => options.aa = true,
            other => return Err(format!("unrecognised suite argument '{other}'")),
        }
    }
    Ok(options)
}

/// Run one workload in a child process and read its report back.
fn run_child(
    exe: &Path,
    workload: &str,
    options: &Options,
    traced: bool,
) -> Result<Report, String> {
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &options.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }, "--skip-layers"])
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Everything but the driver's JSON line, which repeats the table.
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    Report::parse(&stdout).ok_or_else(|| format!("{workload} printed no complete report"))
}

/// How much worse `b` is than `a`, as a share of `a`, in the direction that
/// is worse for this metric (negative: better).
fn worse_share(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Outcome of comparing two runs of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metrics identical, host metrics within their bounds.
    Unchanged,
    /// Exact metrics identical, but the host was too noisy to tell.
    Unresolved,
    /// An exact metric differs or a host metric is beyond its bound.
    Differs,
}

/// Relative difference tolerated between two runs' simulated values on
/// `saturate`, and only there. With 256 invocations in flight the client's
/// clock depends on the order in which it picks up completions that land
/// during one reactor sweep (each pickup advances the clock to the
/// completion's timestamp, then charges the poll), and that order is host
/// timing. Full-length runs were seen to differ by up to 1.6e-4 in
/// `sim_ops_per_s` and by 1.0e-3 in the billed cost, which follows the
/// workers' clocks. Counts stay exact.
const SATURATE_SIM_TOLERANCE: f64 = 5e-3;

/// Compare run `b` against run `a` of the same code and seed. Every counted
/// metric must be bit-identical, every simulated one within `sim_tolerance`
/// (0 but for `saturate`); with `bounded`, each noisy end-to-end metric may
/// be worse by at most its bound. Returns the verdict and the lines
/// explaining it.
pub fn compare(a: &Report, b: &Report, bounded: bool, sim_tolerance: f64) -> (Verdict, String) {
    let mut lines = String::new();
    let mut differs = false;
    let mut exact = 0;
    let names = a.metrics.iter().chain(b.metrics.iter()).map(|(n, _)| n);
    let mut seen: Vec<&str> = Vec::new();
    for name in names {
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        let Some(def) = metrics::definition(name) else {
            continue;
        };
        if !metrics::repeats_exactly(&def) {
            continue;
        }
        exact += 1;
        let (va, vb) = (a.metrics.get(name), b.metrics.get(name));
        if va.map(f64::to_bits) == vb.map(f64::to_bits) {
            continue;
        }
        let near = match (va, vb) {
            (Some(va), Some(vb)) if name.contains("sim_") => {
                ((vb - va) / va).abs() <= sim_tolerance
            }
            _ => false,
        };
        if near {
            writeln!(lines, "  within {sim_tolerance:e} {name}: {va:?} vs {vb:?}")
                .expect("String write");
        } else {
            differs = true;
            writeln!(lines, "  DIFFERS {name}: {va:?} vs {vb:?}").expect("String write");
        }
    }
    if (a.attempted, a.failed) != (b.attempted, b.failed) {
        differs = true;
        writeln!(
            lines,
            "  DIFFERS attempted/failed: {}/{} vs {}/{}",
            a.attempted, a.failed, b.attempted, b.failed
        )
        .expect("String write");
    }
    writeln!(
        lines,
        "  {exact} simulated and counted metrics compared bit for bit"
    )
    .expect("String write");

    let mut beyond = false;
    if bounded {
        for e in END_TO_END {
            if metrics::repeats_exactly(&e.def) {
                continue;
            }
            let (Some(va), Some(vb)) = (a.metrics.get(e.def.name), b.metrics.get(e.def.name))
            else {
                continue;
            };
            let worse = worse_share(e.def.better, va, vb);
            let within = worse <= e.bound;
            beyond |= !within;
            writeln!(
                lines,
                "  {:<20} A {va:<14.6} B {vb:<14.6} worse by {:>+7.2} % (bound {:.1} %) {}",
                e.def.name,
                worse * 100.0,
                e.bound * 100.0,
                if within { "ok" } else { "BEYOND BOUND" }
            )
            .expect("String write");
        }
    }
    let noise = [a, b]
        .iter()
        .filter_map(|r| r.metrics.get("host.noise"))
        .fold(0.0, f64::max);
    let verdict = if differs {
        Verdict::Differs
    } else if noise > NOISE_LIMIT {
        writeln!(
            lines,
            "  host.noise {noise:.3} exceeds {NOISE_LIMIT}: host metrics are unresolved"
        )
        .expect("String write");
        Verdict::Unresolved
    } else if beyond {
        Verdict::Differs
    } else {
        Verdict::Unchanged
    };
    (verdict, lines)
}

/// `value` of the `BENCH_BASELINE.json` gate for `bin`/`series` at `x`.
fn baseline_gate(baseline: &str, bin: &str, series: &str, x: u64) -> Option<f64> {
    baseline.split('}').find_map(|gate| {
        let has = |field: &str| gate.contains(field);
        if !(has(&format!("\"bin\": \"{bin}\""))
            && has(&format!("\"series\": \"{series}\""))
            && has(&format!("\"x\": {x},")))
        {
            return None;
        }
        let value = gate.split("\"value\":").nth(1)?;
        value.trim().parse().ok()
    })
}

/// Print this benchmark's virtual latencies beside the committed Fig. 19
/// gates they should agree with, so drift between the two harnesses shows.
/// Informational: never fails the run.
fn print_anchors(untraced: &[(&str, Report)]) {
    let Ok(baseline) = std::fs::read_to_string("BENCH_BASELINE.json") else {
        println!("# anchors: no BENCH_BASELINE.json in the current directory, skipped");
        return;
    };
    println!("# anchors: sim_lat_p50_us beside the committed fig19 gates at 1 MiB");
    for (workload, series) in [
        ("bulk_payload", "copy-in/copy-out"),
        ("state_read", "state plane hot"),
    ] {
        let ours = untraced
            .iter()
            .find(|(w, _)| *w == workload)
            .and_then(|(_, r)| r.metrics.get("sim_lat_p50_us"));
        let gate = baseline_gate(&baseline, "fig19_state_plane", series, 1 << 20);
        match (ours, gate) {
            (Some(ours), Some(gate)) => println!(
                "{workload:<14} {ours} us   fig19 '{series}' {gate} us   drift {:+.3} %",
                (ours - gate) / gate * 100.0
            ),
            _ => println!("{workload:<14} {ours:?}   fig19 '{series}' {gate:?}   (not comparable)"),
        }
    }
}

/// The seven end-to-end numbers of one workload, from its untraced run.
fn print_end_to_end(workload: &str, report: &Report) {
    println!("# {workload}: end to end (untraced run)");
    for name in [
        "setup_s",
        "sim_lat_p50_us",
        "sim_lat_p99_us",
        "sim_ops_per_s",
        "host_ops_per_s",
        "host_peak_rss_mib",
        "failed_share",
    ] {
        let unit = metrics::definition(name).map_or("", |d| d.unit);
        match report.metrics.get(name) {
            Some(value) => println!("{name:<44} {value:<24} {unit}"),
            None => println!("{name:<44} missing"),
        }
    }
    println!(
        "{:<44} {} of {} attempted",
        "failed", report.failed, report.attempted
    );
}

pub fn run(args: &[String]) -> ExitCode {
    let options = match parse(args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("simbench: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let sides = if options.aa { 2 } else { 1 };
    // Per workload: [untraced A, untraced B], [traced A, traced B] — the two
    // sides of an A/A run alternate so slow drift of the host hits both.
    let mut untraced: Vec<Vec<Report>> = Vec::new();
    let mut traced: Vec<Vec<Report>> = Vec::new();
    for w in WORKLOADS {
        for (is_traced, into) in [(false, &mut untraced), (true, &mut traced)] {
            let mut reports = Vec::new();
            for _ in 0..sides {
                match run_child(&exe, w.name, &options, is_traced) {
                    Ok(report) => reports.push(report),
                    Err(e) => {
                        eprintln!("simbench: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            into.push(reports);
        }
    }
    let layer_scale = if options.smoke { 0.01 } else { 1.0 };
    let layer_reports: Vec<Report> = (0..sides)
        .map(|_| Report {
            metrics: layers::run(layer_scale),
            ..Report::default()
        })
        .collect();
    println!("# isolated per-layer timings");
    print!("{}", layer_reports[0].to_table());

    let mut failed = 0;
    let firsts: Vec<(&str, Report)> = WORKLOADS
        .iter()
        .zip(&untraced)
        .map(|(w, reports)| (w.name, reports[0].clone()))
        .collect();
    for (workload, report) in &firsts {
        print_end_to_end(workload, report);
        failed += report.failed;
    }
    failed += traced.iter().flatten().map(|r| r.failed).sum::<u64>();
    print_anchors(&firsts);

    let mut differs = false;
    if options.aa {
        println!("# A/A: the same code and seed run twice");
        let rows = WORKLOADS.iter().zip(untraced.iter().zip(&traced));
        for (w, (untraced, traced)) in rows {
            let tolerance = if w.name == "saturate" {
                SATURATE_SIM_TOLERANCE
            } else {
                0.0
            };
            let (end_to_end, mut lines) = compare(&untraced[0], &untraced[1], true, tolerance);
            let (per_layer, traced_lines) = compare(&traced[0], &traced[1], false, tolerance);
            lines.push_str(&traced_lines);
            let verdict = match (end_to_end, per_layer) {
                (Verdict::Differs, _) | (_, Verdict::Differs) => Verdict::Differs,
                (Verdict::Unresolved, _) => Verdict::Unresolved,
                _ => Verdict::Unchanged,
            };
            differs |= verdict == Verdict::Differs;
            println!("{:<16} {verdict:?}\n{lines}", w.name);
        }
        let (verdict, lines) = compare(&layer_reports[0], &layer_reports[1], false, 0.0);
        differs |= verdict == Verdict::Differs;
        println!("{:<16} {verdict:?}\n{lines}", "layers");
    }
    if failed > 0 || differs {
        eprintln!("simbench: {failed} failed operation(s), A/A differs: {differs}");
        return ExitCode::FAILURE;
    }
    println!("# suite ok: 0 failed operations");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, f64)]) -> Report {
        let mut r = Report {
            attempted: 100,
            ..Report::default()
        };
        for (name, value) in pairs {
            r.metrics.set(name, *value);
        }
        r
    }

    const BASE: [(&str, f64); 6] = [
        ("setup_s", 0.40),
        ("sim_ops_per_s", 250_501.002_004_008),
        ("host_ops_per_s", 280_000.0),
        ("host_peak_rss_mib", 50.0),
        ("sim_lat_p50_us", 3.992),
        ("host.noise", 0.05),
    ];

    fn with(changes: &[(&str, f64)]) -> Report {
        let mut r = report(&BASE);
        for (name, value) in changes {
            r.metrics.set(name, *value);
        }
        r
    }

    #[test]
    fn identical_and_within_bound_runs_are_unchanged() {
        let a = report(&BASE);
        assert_eq!(compare(&a, &a, true, 0.0).0, Verdict::Unchanged);
        // 9 % slower, 24 % longer set-up: inside the bounds.
        let b = with(&[("host_ops_per_s", 254_800.0), ("setup_s", 0.496)]);
        let (verdict, lines) = compare(&a, &b, true, 0.0);
        assert_eq!(verdict, Verdict::Unchanged, "{lines}");
        assert!(lines.contains("worse by   +9.00 %"), "{lines}");
        // Getting better is never a difference.
        let faster = with(&[("host_ops_per_s", 400_000.0), ("setup_s", 0.1)]);
        assert_eq!(compare(&a, &faster, true, 0.0).0, Verdict::Unchanged);
    }

    #[test]
    fn a_simulated_metric_off_by_one_ulp_differs() {
        let a = report(&BASE);
        let nudged = f64::from_bits(3.992f64.to_bits() + 1);
        let (verdict, lines) = compare(&a, &with(&[("sim_lat_p50_us", nudged)]), true, 0.0);
        assert_eq!(verdict, Verdict::Differs);
        assert!(lines.contains("DIFFERS sim_lat_p50_us"), "{lines}");
        // Noise does not excuse a simulated difference.
        let noisy = with(&[("sim_lat_p50_us", nudged), ("host.noise", 0.4)]);
        assert_eq!(compare(&a, &noisy, true, 0.0).0, Verdict::Differs);
        // On `saturate` a simulated time may differ within the tolerance; a
        // count may not.
        let near = with(&[("sim_ops_per_s", 250_501.002_004_008 * (1.0 + 1e-5))]);
        let (verdict, lines) = compare(&a, &near, true, SATURATE_SIM_TOLERANCE);
        assert_eq!(verdict, Verdict::Unchanged, "{lines}");
        assert!(lines.contains("within 5e-3 sim_ops_per_s"), "{lines}");
        let far = with(&[("sim_ops_per_s", 250_501.002_004_008 * 1.01)]);
        assert_eq!(
            compare(&a, &far, true, SATURATE_SIM_TOLERANCE).0,
            Verdict::Differs
        );
        // A count missing on one side differs too.
        let mut extra = report(&BASE);
        extra.metrics.set("rfaas.recoveries", 0.0);
        assert_eq!(compare(&a, &extra, false, 0.0).0, Verdict::Differs);
        let mut failed = report(&BASE);
        failed.failed = 1;
        assert_eq!(compare(&a, &failed, false, 0.0).0, Verdict::Differs);
    }

    #[test]
    fn beyond_bound_differs_unless_the_host_was_noisy() {
        let a = report(&BASE);
        let slow = with(&[("host_ops_per_s", 220_000.0)]);
        let (verdict, lines) = compare(&a, &slow, true, 0.0);
        assert_eq!(verdict, Verdict::Differs);
        assert!(lines.contains("BEYOND BOUND"), "{lines}");
        // The traced comparison applies no bounds.
        assert_eq!(compare(&a, &slow, false, 0.0).0, Verdict::Unchanged);
        let noisy = with(&[("host_ops_per_s", 220_000.0), ("host.noise", 0.16)]);
        assert_eq!(compare(&a, &noisy, true, 0.0).0, Verdict::Unresolved);
        // Noisy but within bounds is still unresolved, not unchanged.
        assert_eq!(
            compare(&a, &with(&[("host.noise", 0.2)]), true, 0.0).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn baseline_gates_are_found_by_bin_series_and_x() {
        let baseline = r#"{ "gates": [
            { "bin": "fig19_state_plane", "series": "copy-in/copy-out", "x": 1048576, "metric": "median", "value": 175.722 },
            { "bin": "fig19_state_plane", "series": "state plane hot", "x": 1048576, "metric": "median", "value": 3.984 },
            { "bin": "fig19_state_plane", "series": "copy-in/copy-out", "x": 4194304, "metric": "median", "value": 689.138 }
        ] }"#;
        let gate = |series, x| baseline_gate(baseline, "fig19_state_plane", series, x);
        assert_eq!(gate("copy-in/copy-out", 1 << 20), Some(175.722));
        assert_eq!(gate("state plane hot", 1 << 20), Some(3.984));
        assert_eq!(gate("copy-in/copy-out", 4 << 20), Some(689.138));
        assert_eq!(gate("state plane first read", 1 << 20), None);
    }

    #[test]
    fn suite_arguments_parse() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = parse(&args(&["--seed", "9", "--aa", "--smoke"])).unwrap();
        assert_eq!((o.seed, o.smoke, o.aa), (9, true, true));
        assert!(parse(&args(&["--seed"])).is_err());
        assert!(parse(&args(&["--bogus"])).is_err());
    }
}

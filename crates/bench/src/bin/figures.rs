//! Regenerate the evaluation's figures: `figures [FIG] [--quick | --full]`
//! runs one figure, or all fifteen in order, printing each figure's tables
//! and `## json` rows. After each figure it checks the figure's rows (no
//! repeated `series @ x` key) and claims, prints every failure to stderr
//! and, if any failed, exits 1. See EXPERIMENTS.md for the index.

use rfaas_bench::{parse_args, Measure, Table};

/// Usage banner of the `figures` binary.
const USAGE: &str = "\
usage: figures [FIG] [--quick | --full]

  FIG              the one figure to run, e.g. fig8_invocation_latency (see
                   EXPERIMENTS.md); without it all fifteen run, in order
  --quick          reduced problem sizes, fleets and horizons (the CI smoke
                   and the golden report, tests/golden/report)
  --full           paper-sized problems where the figure offers them (fig12's
                   5 M-option batch, fig13's 64-rank sweep)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (figures, size) = parse_args(args.iter().cloned()).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let mut failed = false;
    for figure in figures {
        println!("\n## figure {}", figure.name);
        let tables = (figure.run)(size);
        for table in &tables {
            print_table(table);
        }
        for claim in figure.failed_claims(&tables) {
            eprintln!("failed: {claim}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Print a table as aligned text, a distribution row adding its sample count,
/// p99 and mean, then as JSON lines after `## json` (one `Row::to_json` line
/// per row, the golden report's line format).
fn print_table(table: &Table) {
    println!("\n# {}", table.title);
    println!(
        "{:<40} {:>14} {:>16}  unit",
        "series", "x", "value | median"
    );
    for row in &table.rows {
        let (value, spread) = match row.measure {
            Measure::Value(value) => (value, String::new()),
            Measure::Distribution {
                n,
                median,
                p99,
                mean,
            } => (median, format!("  (n {n}, p99 {p99:.3}, mean {mean:.3})")),
        };
        println!(
            "{:<40} {:>14.3} {:>16.3}  {}{spread}",
            row.series, row.x, value, row.unit
        );
    }
    println!("## json");
    for row in &table.rows {
        println!("{}", row.to_json());
    }
}

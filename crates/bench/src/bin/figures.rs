//! Regenerate the evaluation's figures: `figures [FIG] [--quick | --full]
//! [SUB_EXPERIMENT]` runs one figure, or all fifteen in order, printing each
//! figure's tables and `## json` rows. See EXPERIMENTS.md for the index.

use rfaas_bench::parse_args;

/// Usage banner of the `figures` binary.
const USAGE: &str = "\
usage: figures [FIG] [--quick | --full] [SUB_EXPERIMENT]

  FIG              the one figure to run, e.g. fig8_invocation_latency (see
                   EXPERIMENTS.md); without it all fifteen run, in order
  --quick          reduced repetitions and problem sizes (the CI smoke and
                   the golden report, tests/golden/report)
  --full           paper-sized problems where the figure offers them (fig12's
                   5 M-option batch, fig13's 64-rank sweep)
  SUB_EXPERIMENT   one optional positional after FIG selecting a
                   sub-experiment where the figure offers one (fig11:
                   thumbnailer, inference; fig13: matmul, jacobi)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (figures, mode) = parse_args(args.iter().cloned()).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    for figure in figures {
        println!("\n## figure {}", figure.name);
        (figure.run)(mode);
    }
}

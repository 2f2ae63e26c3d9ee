//! The golden report: every figure's `--quick` rows, compared at tolerance 0
//! with `tests/golden/report/<figure>.jsonl`: one `Row::to_json` line per
//! row, its tables in order, a value row as `{"series","x","value","unit"}`
//! and a distribution row as `{"series","x","n","median","p99","mean","unit"}`.
//! The simulation runs on virtual time, so a row moves only when the model
//! or the code behind it does, and then the test names each moved, added or
//! missing row by `series @ x`, with its old and new fields (the diff of
//! `tests/golden/mod.rs`). It then checks the same rows with
//! `Figure::failed_claims`: no `series @ x` key repeats, and every claim
//! (`Figure::claims`) holds, so a failed claim is named after the rows that
//! moved. After an intended move, rewrite the files with
//! `UPDATE_GOLDEN=1 cargo test --test report_golden` and commit them. One
//! test per figure, so libtest runs the figures in parallel and each rewrite
//! touches its own file.

mod golden;

use rfaas_bench::{at, Claim, Figure, Measure, Row, Size, Table, FIGURES};

/// Each figure's rows as the golden file holds them: one JSON line per row.
fn report(tables: &[Table]) -> String {
    tables
        .iter()
        .flat_map(|table| &table.rows)
        .map(|row| row.to_json() + "\n")
        .collect()
}

/// Every moved, missing or added row of `tables` against `expected`, then
/// every repeated key and every claim of `figure` that the rows break.
fn failures(figure: &Figure, expected: &str, tables: &[Table]) -> Vec<String> {
    let mut lines = golden::row_diff(figure.name, expected, &report(tables));
    lines.extend(figure.failed_claims(tables));
    lines
}

/// Run `figure` at `--quick`, compare its rows with its golden file (or
/// rewrite the file under `UPDATE_GOLDEN`) and check its claims on them.
fn check(figure: &str) {
    let figure = FIGURES
        .iter()
        .find(|f| f.name == figure)
        .unwrap_or_else(|| panic!("no figure named {figure}"));
    let tables = (figure.run)(Size::Quick);
    let path = golden::dir("report").join(format!("{}.jsonl", figure.name));
    let expected = golden::expected(&path, &report(&tables));
    golden::assert_none(&path, &failures(figure, &expected, &tables));
}

macro_rules! golden {
    ($($figure:ident),* $(,)?) => {
        $(
            #[test]
            fn $figure() {
                check(stringify!($figure));
            }
        )*

        /// Every figure has its test above and its golden file, and every
        /// golden file its figure (a rewrite may still be creating them).
        #[test]
        fn every_figure_has_a_golden_file() {
            let tested = [$(stringify!($figure)),*];
            let figures: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            assert_eq!(tested.as_slice(), figures.as_slice());
            golden::assert_files(&golden::dir("report"), &figures, "jsonl");
        }
    };
}

golden!(
    fig1_platform_comparison,
    fig2_cluster_utilization,
    fig7_invocation_spectrum,
    fig8_invocation_latency,
    fig9_cold_start,
    fig10_parallel_scaling,
    fig11_serverless_functions,
    fig12_parallel_offloading,
    fig13_hpc_applications,
    fig14_lease_churn,
    fig15_allocation_throughput,
    fig16_saturation,
    fig17_connection_churn,
    fig18_fork_spectrum,
    fig19_state_plane,
);

#[test]
fn a_moved_row_is_named() {
    let golden = concat!(
        r#"{"series":"rFaaS hot","x":1,"value":3.5,"unit":"us"}"#,
        "\n",
        r#"{"series":"rFaaS hot","x":2,"value":3.6,"unit":"us"}"#,
        "\n",
        r#"{"series":"AWS Lambda","x":1,"n":200,"median":24361.1,"p99":35400.4,"mean":25000,"unit":"us"}"#,
        "\n",
        r#"{"series":"x, \"y\"","x":0.5,"value":1,"unit":"count"}"#,
        "\n",
    );
    let moved = concat!(
        r#"{"series":"rFaaS hot","x":1,"value":3.75,"unit":"us"}"#,
        "\n",
        r#"{"series":"rFaaS warm","x":2,"value":8,"unit":"us"}"#,
        "\n",
        r#"{"series":"AWS Lambda","x":1,"n":200,"median":24361.1,"p99":35400.4,"mean":25000.5,"unit":"us"}"#,
        "\n",
        r#"{"series":"x, \"y\"","x":0.5,"value":1,"unit":"%"}"#,
        "\n",
    );
    assert_eq!(
        golden::row_diff("fig", golden, moved),
        [
            r#"fig / rFaaS hot @ 1: "value":3.5,"unit":"us" → "value":3.75,"unit":"us""#,
            r#"fig / rFaaS hot @ 2: missing ("value":3.6,"unit":"us")"#,
            r#"fig / AWS Lambda @ 1: "n":200,"median":24361.1,"p99":35400.4,"mean":25000,"unit":"us" → "n":200,"median":24361.1,"p99":35400.4,"mean":25000.5,"unit":"us""#,
            r#"fig / x, \"y\" @ 0.5: "value":1,"unit":"count" → "value":1,"unit":"%""#,
            r#"fig / rFaaS warm @ 2: added ("value":8,"unit":"us")"#,
        ]
    );
    let swapped: String = golden.lines().rev().map(|l| format!("{l}\n")).collect();
    assert_eq!(
        golden::row_diff("fig", golden, &swapped),
        ["fig: the same rows in another order"]
    );
}

/// A `series @ x` key that names two rows, across tables or in one, fails
/// naming the figure, the key and the title of each table holding it.
#[test]
fn a_repeated_key_is_named() {
    let figure = Figure {
        name: "fig",
        run: |_| Vec::new(),
        claims: &[],
    };
    let table = |title, series: &[&str]| Table {
        title,
        rows: series
            .iter()
            .map(|&series| Row {
                series: series.into(),
                x: 500.0,
                measure: Measure::Value(1.5),
                unit: "s",
            })
            .collect(),
    };
    let kernels = [
        table("Figure 13a: matmul", &["matmul MPI (16 processes)"]),
        table("Figure 13b: Jacobi", &["Jacobi MPI (16 processes)"]),
    ];
    assert!(figure.failed_claims(&kernels).is_empty());
    let shared = [
        table("Figure 13a: matmul", &["MPI (16 processes)"]),
        table("Figure 13b: Jacobi", &["MPI (16 processes)"]),
    ];
    assert_eq!(
        figure.failed_claims(&shared),
        ["fig / row 'MPI (16 processes) @ 500' repeats, in tables \
          'Figure 13a: matmul', 'Figure 13b: Jacobi'"]
    );
    let twice = [table("t", &["rFaaS hot", "rFaaS hot"])];
    assert_eq!(
        figure.failed_claims(&twice),
        ["fig / row 'rFaaS hot @ 500' repeats, in tables 't', 't'"]
    );
}

#[test]
fn a_failed_claim_is_named_after_the_moved_rows() {
    let figure = Figure {
        name: "fig",
        run: |_| Vec::new(),
        claims: &[Claim {
            name: "hot under 3.6 us",
            source: "model",
            check: |t| {
                let hot = at(t, "rFaaS hot", 1.0)?;
                (hot < 3.6)
                    .then_some(())
                    .ok_or(format!("rFaaS hot @ 1: {hot}"))
            },
        }],
    };
    let hot = |value| Table {
        title: "t",
        rows: vec![Row {
            series: "rFaaS hot".into(),
            x: 1.0,
            measure: Measure::Value(value),
            unit: "us",
        }],
    };
    let golden = r#"{"series":"rFaaS hot","x":1,"value":3.5,"unit":"us"}"#.to_string() + "\n";
    assert!(failures(&figure, &golden, &[hot(3.5)]).is_empty());
    assert_eq!(
        failures(&figure, &golden, &[hot(3.75)]),
        [
            r#"fig / rFaaS hot @ 1: "value":3.5,"unit":"us" → "value":3.75,"unit":"us""#,
            "fig / claim 'hot under 3.6 us' (model): rFaaS hot @ 1: 3.75",
        ]
    );
}

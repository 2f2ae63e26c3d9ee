//! The golden report: every figure's `--quick` rows, compared at tolerance 0
//! with `tests/golden/report/<figure>.jsonl`: one `Row::to_json` line per
//! row, its tables in order, a value row as `{"series","x","value","unit"}`
//! and a distribution row as `{"series","x","n","median","p99","mean","unit"}`.
//! The simulation runs on virtual time, so a row moves only when the model
//! or the code behind it does, and then the test names each moved, added or
//! missing row by `series @ x`, with its old and new fields. After an intended move, rewrite
//! the files with `UPDATE_GOLDEN=1 cargo test --test report_golden` and
//! commit them. One test per figure, so libtest runs the figures in
//! parallel and each rewrite touches its own file.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use rfaas_bench::{Mode, Size, FIGURES};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report")
}

/// A row line split into its key (`series @ x`) and the rest of its fields.
fn split_row(line: &str) -> (String, &str) {
    let line = line.strip_prefix(r#"{"series":"#).unwrap_or(line);
    let line = line.strip_suffix('}').unwrap_or(line);
    // A quote inside the series is escaped, so the first `,"x":` ends it.
    let (series, rest) = line.split_once(r#","x":"#).unwrap_or((line, ""));
    let (x, fields) = rest.split_once(',').unwrap_or((rest, ""));
    let series = series.strip_prefix('"').unwrap_or(series);
    let series = series.strip_suffix('"').unwrap_or(series);
    (format!("{series} @ {x}"), fields)
}

/// Rows keyed by `series @ x` and the key's occurrence, in line order.
fn keyed(text: &str) -> Vec<((String, usize), &str)> {
    let mut seen = BTreeMap::new();
    text.lines()
        .map(|line| {
            let (key, fields) = split_row(line);
            let nth = seen.entry(key.clone()).or_insert(0usize);
            *nth += 1;
            ((key, *nth), fields)
        })
        .collect()
}

/// One line per moved, missing or added row of `actual` against `expected`.
fn row_diff(figure: &str, expected: &str, actual: &str) -> Vec<String> {
    let old = keyed(expected);
    let new: BTreeMap<_, _> = keyed(actual).into_iter().collect();
    let old_keys: BTreeMap<_, _> = old.iter().cloned().collect();
    let mut lines = Vec::new();
    for (key, before) in &old {
        match new.get(key) {
            None => lines.push(format!("{figure} / {}: missing ({before})", key.0)),
            Some(after) if after != before => {
                lines.push(format!("{figure} / {}: {before} → {after}", key.0))
            }
            Some(_) => {}
        }
    }
    for (key, after) in keyed(actual) {
        if !old_keys.contains_key(&key) {
            lines.push(format!("{figure} / {}: added ({after})", key.0));
        }
    }
    if lines.is_empty() {
        lines.push(format!("{figure}: the same rows in another order"));
    }
    lines
}

/// Run `figure` at `--quick` and compare its rows with its golden file, or
/// rewrite the file under `UPDATE_GOLDEN`.
fn check(figure: &str) {
    let run = FIGURES
        .iter()
        .find(|f| f.name == figure)
        .unwrap_or_else(|| panic!("no figure named {figure}"))
        .run;
    let tables = run(Mode {
        size: Size::Quick,
        sub: None,
    });
    let actual: String = tables
        .iter()
        .flat_map(|table| &table.rows)
        .map(|row| row.to_json() + "\n")
        .collect();
    let path = golden_dir().join(format!("{figure}.jsonl"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_default();
    assert!(
        actual == expected,
        "{} rows differ from {}:\n{}\nIf the move is intended, rerun with \
         UPDATE_GOLDEN=1 cargo test --test report_golden and commit the file.",
        figure,
        path.display(),
        row_diff(figure, &expected, &actual).join("\n")
    );
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
            if std::env::var_os("UPDATE_GOLDEN").is_some() {
                return;
            }
            let mut files: Vec<String> = fs::read_dir(golden_dir())
                .unwrap()
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .collect();
            files.sort();
            let mut expected: Vec<String> =
                figures.iter().map(|f| format!("{f}.jsonl")).collect();
            expected.sort();
            assert_eq!(files, expected);
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
        row_diff("fig", golden, moved),
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
        row_diff("fig", golden, &swapped),
        ["fig: the same rows in another order"]
    );
}

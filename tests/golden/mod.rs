//! The golden files and their diff, shared by `tests/report_golden.rs`
//! (every figure's `--quick` rows, `tests/golden/report/<figure>.jsonl`) and
//! `tests/determinism.rs` (each scenario's transcripts,
//! `tests/golden/determinism/<scenario>.txt`). A file is compared with what
//! the code produces now at tolerance 0, and a mismatch names each moved,
//! missing or added line by its key, with its old and new fields. After an
//! intended move, `UPDATE_GOLDEN=1 cargo test --test <test>` rewrites the
//! files of that test, and the commit records what moved.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Whether this run rewrites the golden files (`UPDATE_GOLDEN` is set)
/// rather than only checking them.
fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// The golden directory `tests/golden/<name>`.
pub fn dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The golden file at `path`, first rewritten with `actual` when updating. A
/// missing file reads as empty, so every line of `actual` is named added.
pub fn expected(path: &Path, actual: &str) -> String {
    if updating() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, actual).unwrap();
    }
    fs::read_to_string(path).unwrap_or_default()
}

/// Asserts that `dir` holds the golden file `<name>.<extension>` of each of
/// `names` and no other file. Skipped when updating: a rewrite running in a
/// parallel test may still be creating them.
pub fn assert_files(dir: &Path, names: &[&str], extension: &str) {
    if updating() {
        return;
    }
    let mut files: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut expected: Vec<String> = names
        .iter()
        .map(|name| format!("{name}.{extension}"))
        .collect();
    expected.sort();
    assert_eq!(files, expected, "the golden files of {}", dir.display());
}

/// A line split into its key and the rest of its fields. A report row keys
/// by `series @ x`; a transcript line by its words before the first `: ` or
/// ` -> `, or by the whole line where it has neither.
fn split_row(line: &str) -> (String, &str) {
    let Some(row) = line.strip_prefix(r#"{"series":"#) else {
        let line = line.trim_start();
        let cut = [": ", " -> "]
            .into_iter()
            .filter_map(|separator| Some((line.find(separator)?, separator.len())))
            .min();
        return match cut {
            Some((at, len)) => (line[..at].to_string(), &line[at + len..]),
            None => (line.to_string(), ""),
        };
    };
    let row = row.strip_suffix('}').unwrap_or(row);
    // A quote inside the series is escaped, so the first `,"x":` ends it.
    let (series, rest) = row.split_once(r#","x":"#).unwrap_or((row, ""));
    let (x, fields) = rest.split_once(',').unwrap_or((rest, ""));
    let series = series.strip_prefix('"').unwrap_or(series);
    let series = series.strip_suffix('"').unwrap_or(series);
    (format!("{series} @ {x}"), fields)
}

/// Lines keyed by their key and its occurrence, in line order. A `## <title>`
/// line opens a section: the lines under it key as `<title> / <key>`.
fn keyed(text: &str) -> Vec<((String, usize), &str)> {
    let mut seen = BTreeMap::new();
    let mut section = None;
    text.lines()
        .filter_map(|line| {
            if let Some(title) = line.strip_prefix("## ") {
                section = Some(title);
                return None;
            }
            let (key, fields) = split_row(line);
            let key = match section {
                Some(title) => format!("{title} / {key}"),
                None => key,
            };
            let nth = seen.entry(key.clone()).or_insert(0usize);
            *nth += 1;
            Some(((key, *nth), fields))
        })
        .collect()
}

/// One line per moved, missing or added line of `actual` against
/// `expected`, named `<name> / <key>` (and `#<n>` from a key's second
/// occurrence on); none when the two are equal.
pub fn row_diff(name: &str, expected: &str, actual: &str) -> Vec<String> {
    if actual == expected {
        return Vec::new();
    }
    let (old, new) = (keyed(expected), keyed(actual));
    let old_keys: BTreeMap<_, _> = old.iter().cloned().collect();
    let new_keys: BTreeMap<_, _> = new.iter().cloned().collect();
    let named = |(key, nth): &(String, usize)| match nth {
        1 => format!("{name} / {key}"),
        _ => format!("{name} / {key} #{nth}"),
    };
    let mut lines = Vec::new();
    for (key, before) in &old {
        match new_keys.get(key) {
            None => lines.push(format!("{}: missing ({before})", named(key))),
            Some(after) if after != before => {
                lines.push(format!("{}: {before} → {after}", named(key)))
            }
            Some(_) => {}
        }
    }
    for (key, after) in &new {
        if !old_keys.contains_key(key) {
            lines.push(format!("{}: added ({after})", named(key)));
        }
    }
    if lines.is_empty() {
        lines.push(format!("{name}: the same rows in another order"));
    }
    lines
}

/// Panics unless `failures` (against the golden file at `path`) is empty,
/// listing each and how to accept an intended move.
pub fn assert_none(path: &Path, failures: &[String]) {
    assert!(
        failures.is_empty(),
        "failures against {}:\n{}\nIf a move is intended, rerun with UPDATE_GOLDEN=1 \
         cargo test --test {} and commit the file.",
        path.display(),
        failures.join("\n"),
        env!("CARGO_CRATE_NAME")
    );
}

//! METRICS.md and the series the code actually records must agree, in
//! both directions:
//!
//! * every `"sintel_*"` string literal in non-test workspace source
//!   (the names handed to `counter_add`/`gauge_set`/`observe` or
//!   rendered from the serve tick window) has a METRICS.md row, so no
//!   crate can record an undocumented series;
//! * every METRICS.md row names a series that some non-test source
//!   records, so a row cannot outlive its series.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR of the facade crate is the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The series kinds METRICS.md's "Reading the table" section defines.
const KINDS: [&str; 5] = ["counter", "gauge", "histogram", "rollup-delta", "rollup-observe"];

/// The series names METRICS.md documents, checking each row's shape.
fn documented_series() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(repo_root().join("METRICS.md"))
        .expect("METRICS.md exists at the repo root");
    let mut names = BTreeSet::new();
    for line in doc.lines() {
        let Some(rest) = line.strip_prefix("| `sintel_") else { continue };
        let cells: Vec<&str> = rest.split('|').map(str::trim).collect();
        assert!(
            cells.len() >= 4 && KINDS.contains(&cells[1]) && !cells[2].is_empty(),
            "malformed METRICS.md row (want | `name` | kind | labels | semantics |): {line}"
        );
        let name = format!("sintel_{}", cells[0].trim_end_matches('`'));
        assert!(names.insert(name), "duplicate METRICS.md row: {line}");
    }
    assert!(!names.is_empty(), "METRICS.md table not found");
    names
}

/// All `.rs` files under `dir`, recursively, outside `target` and
/// integration-test (`tests`) directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target" || n == "tests") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `sintel_[a-z0-9_]+` string literals in `source`, with everything
/// from the first `mod tests` on discarded (tests may name scratch
/// series freely).
fn quoted_metric_names(source: &str) -> Vec<String> {
    let source = source.split("mod tests").next().unwrap_or(source);
    let mut found = Vec::new();
    for chunk in source.split('"').skip(1).step_by(2) {
        if !chunk.starts_with("sintel_") {
            continue;
        }
        if chunk.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            found.push(chunk.to_string());
        }
    }
    found
}

/// Every `sintel_*` series literal in non-test workspace source, with
/// the file it is in (one entry per occurrence).
fn recorded_series() -> Vec<(String, PathBuf)> {
    let mut files = Vec::new();
    rust_files(&repo_root().join("crates"), &mut files);
    rust_files(&repo_root().join("src"), &mut files);
    assert!(files.len() > 50, "source walk looks broken: {} files", files.len());
    let mut found = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path).expect("readable source file");
        for name in quoted_metric_names(&source) {
            found.push((name, path.clone()));
        }
    }
    found
}

#[test]
fn every_recorded_series_is_documented() {
    let documented = documented_series();
    let undocumented: Vec<String> = recorded_series()
        .into_iter()
        .filter(|(name, _)| !documented.contains(name))
        .map(|(name, path)| format!("{name} in {}", path.display()))
        .collect();
    assert!(
        undocumented.is_empty(),
        "series recorded but missing from METRICS.md: {undocumented:#?}"
    );
}

#[test]
fn every_documented_series_is_recorded() {
    let recorded: BTreeSet<String> = recorded_series().into_iter().map(|(name, _)| name).collect();
    let stale: Vec<String> = documented_series().difference(&recorded).cloned().collect();
    assert!(stale.is_empty(), "METRICS.md rows that no source records: {stale:?}");
}

//! METRICS.md, the metric catalog and the code's actually-recorded
//! series must agree — this binary is the enforcement promised by
//! `crates/obs/src/catalog.rs`:
//!
//! * every catalog entry appears in METRICS.md with the right kind and
//!   label keys, and METRICS.md lists nothing the catalog doesn't;
//! * every `"sintel_*"` string literal in non-test workspace source
//!   (the names handed to `counter_add`/`gauge_set`/`observe` or
//!   rendered from the serve tick window) resolves to a catalog entry,
//!   so no crate can record an undocumented series.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use sintel_obs::{metric_def, METRICS};

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR of the facade crate is the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// METRICS.md table rows as (name, kind, labels).
fn doc_rows() -> Vec<(String, String, String)> {
    let doc = std::fs::read_to_string(repo_root().join("METRICS.md"))
        .expect("METRICS.md exists at the repo root");
    doc.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("| `sintel_")?;
            let cells: Vec<&str> = rest.split('|').map(str::trim).collect();
            assert!(
                cells.len() >= 4,
                "malformed METRICS.md row (want | `name` | kind | labels | semantics |): {line}"
            );
            let name = format!("sintel_{}", cells[0].trim_end_matches('`'));
            Some((name, cells[1].to_string(), cells[2].to_string()))
        })
        .collect()
}

#[test]
fn doc_and_catalog_agree() {
    let rows = doc_rows();
    assert!(!rows.is_empty(), "METRICS.md catalog table not found");

    let documented: BTreeSet<&str> = rows.iter().map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(rows.len(), documented.len(), "duplicate rows in METRICS.md");

    let catalogued: BTreeSet<&str> = METRICS.iter().map(|d| d.name).collect();
    let missing: Vec<&&str> = catalogued.difference(&documented).collect();
    assert!(missing.is_empty(), "catalogued but undocumented in METRICS.md: {missing:?}");
    let stale: Vec<&&str> = documented.difference(&catalogued).collect();
    assert!(stale.is_empty(), "documented in METRICS.md but not in the catalog: {stale:?}");

    for (name, kind, labels) in &rows {
        let def = metric_def(name).expect("checked above");
        assert_eq!(
            kind,
            def.kind.as_str(),
            "METRICS.md kind for {name} disagrees with the catalog"
        );
        let want_labels =
            if def.labels.is_empty() { "—".to_string() } else { def.labels.join(", ") };
        assert_eq!(
            labels, &want_labels,
            "METRICS.md labels for {name} disagree with the catalog"
        );
    }
}

/// All `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
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

#[test]
fn every_recorded_series_is_catalogued() {
    let mut files = Vec::new();
    rust_files(&repo_root().join("crates"), &mut files);
    rust_files(&repo_root().join("src"), &mut files);
    assert!(files.len() > 50, "source walk looks broken: {} files", files.len());

    let mut unregistered: Vec<String> = Vec::new();
    for path in &files {
        // The catalog defines the names; it is the reference itself.
        if path.ends_with("obs/src/catalog.rs") {
            continue;
        }
        let source = std::fs::read_to_string(path).expect("readable source file");
        for name in quoted_metric_names(&source) {
            if metric_def(&name).is_none() {
                unregistered.push(format!("{} in {}", name, path.display()));
            }
        }
    }
    assert!(
        unregistered.is_empty(),
        "series recorded but missing from the catalog (add them to \
         crates/obs/src/catalog.rs and METRICS.md): {unregistered:#?}"
    );
}

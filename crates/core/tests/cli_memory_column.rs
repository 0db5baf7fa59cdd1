//! `sintel-cli benchmark --store DIR` persists a measured memory
//! column: the binary installs the `sintel_common::alloc` meter, so
//! every stored `benchmark_results` document holds a nonzero
//! `peak_memory_bytes`.

use std::process::Command;

use sintel_store::{Doc, Filter, SintelDb};

#[test]
fn stored_benchmark_rows_carry_a_measured_peak() {
    let dir = std::env::temp_dir().join(format!("sintel-cli-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_sintel-cli"))
        .args(["benchmark", "--scale", "0.02", "--datasets", "NAB", "--pipelines", "arima"])
        .arg("--store")
        .arg(&dir)
        .output()
        .expect("sintel-cli runs");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    let db = SintelDb::open(&dir).expect("reopen store");
    let rows = db.raw().find("benchmark_results", &Filter::All);
    assert!(!rows.is_empty(), "the benchmark stored no rows");
    for row in &rows {
        let peak = row.get("peak_memory_bytes").and_then(Doc::as_i64);
        assert!(peak.is_some_and(|p| p > 0), "no measured memory column in {row:?}");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

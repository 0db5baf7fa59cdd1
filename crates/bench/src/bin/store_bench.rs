//! **Store microbench** — durability-path throughput of the sharded,
//! WAL-backed knowledge base (DESIGN.md §4f).
//!
//! Measures, at `SINTEL_SCALE`:
//!
//! * single-op append throughput at each durability level
//!   (`snapshot` / `wal` / `wal-sync`),
//! * group-commit append throughput (one batch, one record, one fsync),
//! * WAL replay throughput on reopen (crash-recovery speed), and
//! * compaction throughput (log → snapshot fold).
//!
//! Besides the console table, writes `BENCH_store.json` (override with
//! `SINTEL_BENCH_OUT`) — machine-readable ops/sec so the numbers can be
//! tracked across commits.
//!
//! Run: `cargo run -p sintel-bench --release --bin store_bench`

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sintel_store::{json, Database, Doc, Durability, StoreOptions};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sintel-store-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn doc(i: usize) -> Doc {
    Doc::obj()
        .with("signal", format!("signal-{:04}", i % 97))
        .with("score", (i as f64) * 0.125)
        .with("tag", if i % 3 == 0 { "anomaly" } else { "normal" })
}

/// Options with compaction disabled: each phase is measured in
/// isolation, so the log must not fold mid-measurement.
fn opts(durability: Durability) -> StoreOptions {
    StoreOptions { durability, compact_threshold: u64::MAX }
}

fn ops_per_sec(n: usize, elapsed: Duration) -> f64 {
    n as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// Insert `n` docs one commit at a time; returns ops/sec.
fn bench_appends(dir: &Path, durability: Durability, n: usize) -> f64 {
    let db = Database::open_with(dir, opts(durability)).expect("open store");
    let start = Instant::now();
    for i in 0..n {
        db.insert("events", doc(i)).expect("append");
    }
    ops_per_sec(n, start.elapsed())
}

/// Insert `n` docs under one batch scope — one record, one fsync.
fn bench_batched(dir: &Path, n: usize) -> f64 {
    let db = Database::open_with(dir, opts(Durability::WalSync)).expect("open store");
    let start = Instant::now();
    let scope = db.batch();
    for i in 0..n {
        db.insert("events", doc(i)).expect("append");
    }
    scope.commit().expect("batch commit");
    ops_per_sec(n, start.elapsed())
}

fn main() {
    let session = sintel_bench::obs_session();
    let scale = sintel_bench::scale_from_env(0.25);
    let n = ((20_000.0 * scale) as usize).max(200);
    let n_sync = (n / 20).max(50); // per-op fsync is orders slower; keep it bounded
    eprintln!("store microbench: {n} ops per level ({n_sync} at wal-sync), scale {scale} …");

    let mut results: Vec<(String, f64, usize)> = Vec::new();

    for (durability, ops) in [
        (Durability::Snapshot, n),
        (Durability::Wal, n),
        (Durability::WalSync, n_sync),
    ] {
        let dir = tmpdir(durability.label());
        let rate = bench_appends(&dir, durability, ops);
        results.push((format!("append_{}", durability.label()), rate, ops));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let batch_dir = tmpdir("batched");
    results.push(("append_wal_sync_batched".into(), bench_batched(&batch_dir, n), n));
    let _ = std::fs::remove_dir_all(&batch_dir);

    // Replay: populate a log, drop the handle mid-flight (no save), and
    // time the recovery reopen.
    let replay_dir = tmpdir("replay");
    {
        let db = Database::open_with(&replay_dir, opts(Durability::Wal)).expect("open store");
        for i in 0..n {
            db.insert("events", doc(i)).expect("append");
        }
    }
    let start = Instant::now();
    let db = Database::open_with(&replay_dir, opts(Durability::Wal)).expect("replay reopen");
    let replay_elapsed = start.elapsed();
    assert_eq!(db.recovery().wal_replayed_batches, n, "replay must cover every batch");
    results.push(("wal_replay".into(), ops_per_sec(n, replay_elapsed), n));

    // Compaction: fold the replayed log into snapshots.
    let start = Instant::now();
    db.save().expect("compaction");
    results.push(("compaction".into(), ops_per_sec(n, start.elapsed()), n));
    drop(db);
    let _ = std::fs::remove_dir_all(&replay_dir);

    println!("Store microbench: durability-path throughput (scale {scale})\n");
    println!("{:<26} {:>14} {:>10}", "phase", "docs/sec", "docs");
    for (name, rate, ops) in &results {
        println!("{name:<26} {rate:>14.0} {ops:>10}");
    }
    println!(
        "\nexpected shape: batched wal-sync ≈ snapshot ≫ per-op wal-sync;\n\
         replay and compaction are linear in log size."
    );

    let out = std::env::var("SINTEL_BENCH_OUT").unwrap_or_else(|_| "BENCH_store.json".into());
    let mut phases = Doc::obj();
    for (name, rate, ops) in &results {
        phases = phases.with(
            name.as_str(),
            Doc::obj().with("docs_per_sec", (rate.round() as i64).max(1)).with("docs", *ops),
        );
    }
    let report = Doc::obj().with("bench", "store").with("scale", scale).with("phases", phases);
    if let Err(e) = std::fs::write(&out, json::to_json(&report) + "\n") {
        eprintln!("store microbench: writing {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("store microbench: wrote {out}");
    session.finish();
}

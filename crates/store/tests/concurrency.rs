//! Concurrency property of the store: snapshot determinism. A workload
//! partitioned across 1, 2 and 8 worker threads (single writer per
//! collection, fixed per-collection op order, reads interleaved
//! throughout) must produce bitwise-identical post-compaction snapshot
//! files at every thread count: persisted bytes are a function of the
//! logical workload, never of scheduling.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sintel_common::check::{forall, shrinks, Config};
use sintel_common::SintelRng;
use sintel_store::{Database, Doc, Filter};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sintel-conc-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Op codes for one collection's workload; values are derived from
/// `(collection, op index)` so replays are exact.
type Workload = Vec<Vec<u8>>;

/// Run `spec` with `threads` workers over a fresh database in `dir`,
/// compact, and return every snapshot file's bytes.
fn run_workload(spec: &Workload, threads: usize, dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let db = Arc::new(Database::open(dir).expect("open"));
    let spec = Arc::new(spec.clone());
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        let spec = Arc::clone(&spec);
        handles.push(std::thread::spawn(move || {
            // Collection `ci` belongs to worker `ci % threads`: one
            // writer per collection, op order fixed — the id sequence
            // of each collection is identical at any thread count.
            for (ci, ops) in spec.iter().enumerate() {
                if ci % threads != t {
                    continue;
                }
                let col = format!("c{ci}");
                let mut live: Vec<u64> = Vec::new();
                for (oi, &code) in ops.iter().enumerate() {
                    let value = (ci * 1000 + oi) as i64;
                    match code % 4 {
                        2 if !live.is_empty() => {
                            let id = live[oi % live.len()];
                            db.patch(&col, id, &[("v", Doc::I64(value))]).expect("patch");
                        }
                        3 if !live.is_empty() => {
                            let id = live.remove(oi % live.len());
                            db.delete(&col, id).expect("delete");
                        }
                        _ => {
                            live.push(
                                db.insert(&col, Doc::obj().with("v", value)).expect("insert"),
                            );
                        }
                    }
                    // Interleave reads with every write: they must see
                    // a consistent collection and never deadlock.
                    assert_eq!(db.count(&col, &Filter::All), live.len());
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker");
    }
    db.save().expect("compact");
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("readdir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
            let name = path.file_name().and_then(|n| n.to_str()).expect("name").to_string();
            files.insert(name, std::fs::read(&path).expect("read snapshot"));
        }
    }
    files
}

#[test]
fn snapshot_bytes_identical_at_1_2_8_threads() {
    let cfg = Config::default().cases(10).seed(0x5AFE_BEEF);
    forall(
        "post-compaction snapshots are thread-count-invariant",
        &cfg,
        |rng: &mut SintelRng| -> Workload {
            let ncols = 3 + rng.index(5);
            (0..ncols)
                .map(|_| (0..5 + rng.index(25)).map(|_| rng.index(4) as u8).collect())
                .collect()
        },
        shrinks::none,
        |spec| {
            let mut baseline: Option<BTreeMap<String, Vec<u8>>> = None;
            for threads in [1usize, 2, 8] {
                let dir = tmpdir(&format!("bytes-{threads}"));
                let files = run_workload(spec, threads, &dir);
                std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
                if files.is_empty() {
                    return Err("workload produced no snapshots".to_string());
                }
                match &baseline {
                    None => baseline = Some(files),
                    Some(expected) => {
                        if *expected != files {
                            let diff: Vec<&String> = expected
                                .keys()
                                .chain(files.keys())
                                .filter(|k| expected.get(*k) != files.get(*k))
                                .collect();
                            return Err(format!(
                                "snapshots diverge at {threads} threads: {diff:?}"
                            ));
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

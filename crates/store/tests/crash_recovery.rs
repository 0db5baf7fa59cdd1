//! Crash-recovery harness (requires `--features faulty`).
//!
//! Simulates a crash at every injection point in the durability path
//! and at **every byte offset** of a torn WAL tail, then reopens the
//! database and asserts the recovery contract: no panic, all committed
//! batches present, at most the single in-flight batch lost, and no
//! orphan temp/log debris left behind.
//!
//! An injected crash leaves the on-disk state exactly as a real crash
//! would and kills nothing — so after each one, the harness does what
//! a restarted process does: drop the handle, `Database::open`, and
//! inspect the [`RecoveryReport`].
#![cfg(feature = "faulty")]

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use sintel_common::check::{forall, shrinks, Config};
use sintel_common::SintelRng;
use sintel_store::wal::fault::{self, CrashPoint};
use sintel_store::wal::WAL_FILE;
use sintel_store::schema::collections;
use sintel_store::{Database, Doc, Filter, SintelDb, StoreError};

/// The fault-injection arm point is process-global; crash tests must
/// not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm();
    guard
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sintel-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn doc(v: i64) -> Doc {
    Doc::obj().with("v", v)
}

/// Directory entries that are neither snapshots nor the log — i.e.
/// debris recovery should never leave behind (`.corrupt` quarantines
/// are deliberate and excluded).
fn debris(dir: &PathBuf) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("readdir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| {
            name != WAL_FILE && !name.ends_with(".jsonl") && !name.ends_with(".corrupt")
        })
        .collect()
}

#[test]
fn append_crash_points_lose_at_most_the_inflight_batch() {
    let _guard = serial();
    for point in [
        CrashPoint::BeforeAppend,
        CrashPoint::MidAppend,
        CrashPoint::AfterAppendBeforeSync,
    ] {
        let dir = tmpdir(point.label());
        {
            let db = Database::open(&dir).expect("open");
            db.insert("events", doc(1)).expect("commit 1");
            db.insert("events", doc(2)).expect("commit 2");
            fault::arm(point);
            let crashed = db.insert("events", doc(3));
            assert!(
                matches!(crashed, Err(StoreError::Injected(_))),
                "{point:?}: expected injected crash, got {crashed:?}"
            );
            // The write is applied in memory regardless — availability —
            // but the handle is now a crashed machine: drop it.
            assert_eq!(db.count("events", &Filter::All), 3);
        }
        let db = Database::open(&dir)
            .unwrap_or_else(|e| panic!("{point:?}: reopen must recover, got {e}"));
        let committed = db.count("events", &Filter::All);
        match point {
            // Nothing of batch 3 reached the disk.
            CrashPoint::BeforeAppend => assert_eq!(committed, 2, "{point:?}"),
            // A torn tail: truncated away, batch 3 lost.
            CrashPoint::MidAppend => {
                assert_eq!(committed, 2, "{point:?}");
                assert!(
                    db.recovery().wal_truncated_at.is_some(),
                    "{point:?}: torn tail must be reported"
                );
            }
            // The full record reached the page cache; a same-process
            // reopen reads it back (real power loss may or may not).
            CrashPoint::AfterAppendBeforeSync => assert_eq!(committed, 3, "{point:?}"),
            CrashPoint::MidCompaction => unreachable!(),
        }
        // Batches 1 and 2 were acknowledged as durable: always present.
        for v in [1i64, 2] {
            assert_eq!(
                db.count("events", &Filter::Gt("v".into(), Doc::I64(v - 1))) >= 1,
                true,
                "{point:?}: committed doc v={v} lost"
            );
        }
        assert_eq!(debris(&dir), Vec::<String>::new(), "{point:?}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

fn append_errors() -> u64 {
    sintel_obs::global().snapshot().counter("sintel_store_wal_append_errors_total").unwrap_or(0)
}

/// Knowledge-base writes report a failed append as `Err` instead of
/// success; the failure is still counted, and the reopened store does
/// not contain the failed write.
#[test]
fn knowledge_base_write_failures_surface() {
    let _guard = serial();
    let dir = tmpdir("kb-writes");
    let (kept, deleted) = {
        let kb = SintelDb::open(&dir).expect("open");
        let run = kb.add_signalrun(1, "S-1", "done").expect("commit signalrun");
        let kept = kb.add_event(run, "S-1", 0, 10, 0.5).expect("commit event");
        let deleted = kb.add_event(run, "S-1", 20, 30, 0.7).expect("commit event");
        let before = append_errors();

        fault::arm(CrashPoint::BeforeAppend);
        let added = kb.add_event(run, "S-1", 40, 50, 0.9);
        assert!(matches!(added, Err(StoreError::Injected(_))), "add_event: {added:?}");
        fault::arm(CrashPoint::BeforeAppend);
        let status = kb.set_event_status(kept, "confirmed");
        assert!(matches!(status, Err(StoreError::Injected(_))), "set_event_status: {status:?}");
        fault::arm(CrashPoint::BeforeAppend);
        let removed = kb.raw().delete(collections::EVENTS, deleted);
        assert!(matches!(removed, Err(StoreError::Injected(_))), "delete: {removed:?}");

        assert_eq!(append_errors(), before + 3);
        (kept, deleted)
    };
    let kb = SintelDb::open(&dir).expect("reopen");
    let events = kb.events_for_signal("S-1");
    let ids: Vec<i64> = events.iter().filter_map(|e| e.get("_id").and_then(Doc::as_i64)).collect();
    assert_eq!(ids, vec![kept as i64, deleted as i64], "failed insert and delete must not persist");
    assert_eq!(events[0].get("status").and_then(Doc::as_str), Some("unreviewed"));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn mid_compaction_crash_leaves_wal_authoritative() {
    let _guard = serial();
    let dir = tmpdir("mid-compaction");
    {
        let db = Database::open(&dir).expect("open");
        for v in 0..5 {
            db.insert("events", doc(v)).expect("commit");
        }
        fault::arm(CrashPoint::MidCompaction);
        let crashed = db.save();
        assert!(
            matches!(crashed, Err(StoreError::Injected(_))),
            "expected injected compaction crash, got {crashed:?}"
        );
        // The crash struck after a temp file was flushed but before its
        // rename: an orphan is on disk and the WAL was NOT truncated.
        let tmps: Vec<String> = debris(&dir);
        assert!(
            tmps.iter().any(|n| n.ends_with(".tmp")),
            "expected an orphan temp file, found {tmps:?}"
        );
    }
    let db = Database::open(&dir).expect("reopen after compaction crash");
    assert!(
        !db.recovery().orphans_removed.is_empty(),
        "recovery must report the orphan it removed"
    );
    assert_eq!(db.count("events", &Filter::All), 5, "WAL still held every batch");
    assert_eq!(debris(&dir), Vec::<String>::new());
    // With the fault disarmed, compaction completes and a further
    // reopen is clean.
    db.save().expect("compaction succeeds once the fault is gone");
    drop(db);
    let db = Database::open(&dir).expect("clean reopen");
    assert!(db.recovery().is_clean(), "got {:?}", db.recovery());
    assert_eq!(db.count("events", &Filter::All), 5);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn crash_during_batch_commit_loses_only_that_batch() {
    let _guard = serial();
    let dir = tmpdir("batch-crash");
    {
        let db = Database::open(&dir).expect("open");
        db.insert("events", doc(1)).expect("commit");
        let scope = db.batch();
        db.insert("events", doc(2)).expect("buffered");
        db.insert("events", doc(3)).expect("buffered");
        fault::arm(CrashPoint::MidAppend);
        let crashed = scope.commit();
        assert!(matches!(crashed, Err(StoreError::Injected(_))), "got {crashed:?}");
    }
    let db = Database::open(&dir).expect("reopen");
    // The batch was one record: both of its writes vanish together.
    assert_eq!(db.count("events", &Filter::All), 1);
    assert_eq!(db.recovery().wal_replayed_batches, 1);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Every byte offset of the log is a possible torn-tail boundary; all
/// of them must recover to exactly the committed prefix.
#[test]
fn torn_tail_recovers_at_every_byte_offset() {
    let _guard = serial();
    let base = tmpdir("sweep-base");
    {
        let db = Database::open(&base).expect("open");
        for v in 0..3 {
            db.insert("events", doc(v)).expect("commit");
        }
    }
    let wal = std::fs::read(base.join(WAL_FILE)).expect("read canonical log");
    std::fs::remove_dir_all(&base).expect("cleanup base");

    // Record boundaries, from the length prefixes.
    let mut boundaries = vec![0usize];
    let mut off = 0usize;
    while off < wal.len() {
        let len =
            u32::from_le_bytes(wal[off..off + 4].try_into().expect("header")) as usize;
        off += 8 + len;
        boundaries.push(off);
    }
    assert_eq!(boundaries.len(), 4, "expected 3 records");
    assert_eq!(off, wal.len());

    for cut in 0..=wal.len() {
        let dir = tmpdir("sweep-case");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(WAL_FILE), &wal[..cut]).expect("plant torn log");
        let db = Database::open(&dir)
            .unwrap_or_else(|e| panic!("offset {cut}: recovery failed: {e}"));
        // Committed prefix: every record wholly before the cut.
        let expected = boundaries.iter().filter(|b| **b <= cut).count() - 1;
        assert_eq!(
            db.recovery().wal_replayed_batches,
            expected,
            "offset {cut}: wrong batch count"
        );
        assert_eq!(db.count("events", &Filter::All), expected, "offset {cut}");
        let clean_cut = cut == boundaries[expected];
        assert_eq!(
            db.recovery().wal_truncated_at.is_some(),
            !clean_cut,
            "offset {cut}: truncation report mismatch"
        );
        // The log was repaired to the last committed boundary.
        let repaired = std::fs::metadata(dir.join(WAL_FILE)).expect("meta").len();
        assert_eq!(repaired as usize, boundaries[expected], "offset {cut}");
        assert_eq!(debris(&dir), Vec::<String>::new(), "offset {cut}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Randomised workloads with a crash injected at a random point: after
/// reopening, every *acknowledged* write is present and at most the
/// one in-flight write is unaccounted for.
#[test]
fn random_workloads_survive_random_crashes() {
    let _guard = serial();
    let cfg = Config::default().cases(24).seed(0xC4A5_11ED);
    forall(
        "random crash-point workload recovers",
        &cfg,
        |rng: &mut SintelRng| {
            let before = rng.index(6);
            let after = rng.index(6);
            let point = CrashPoint::ALL[rng.index(3)]; // append-path points
            (before, point, after)
        },
        shrinks::none,
        |&(before, point, after)| {
            let dir = tmpdir("forall");
            let mut acked: Vec<u64> = Vec::new();
            let mut inflight: Option<u64> = None;
            {
                let db = Database::open(&dir).map_err(|e| e.to_string())?;
                for v in 0..before {
                    acked.push(
                        db.insert("events", doc(v as i64)).map_err(|e| e.to_string())?,
                    );
                }
                fault::arm(point);
                match db.insert("events", doc(1000)) {
                    Ok(id) => acked.push(id),
                    Err(StoreError::Injected(_)) => {
                        inflight = db
                            .find("events", &Filter::eq("v", 1000i64))
                            .first()
                            .and_then(|d| d.get("_id"))
                            .and_then(Doc::as_i64)
                            .map(|id| id as u64);
                    }
                    Err(other) => return Err(format!("unexpected error: {other}")),
                }
                fault::disarm();
            }
            // Crash: drop the handle, restart the machine.
            {
                let db = Database::open(&dir).map_err(|e| e.to_string())?;
                for &id in &acked {
                    if db.get("events", id).is_none() {
                        return Err(format!("acknowledged doc {id} lost after {point:?}"));
                    }
                }
                let survivors = db.count("events", &Filter::All);
                let max_expected = acked.len() + usize::from(inflight.is_some());
                if survivors < acked.len() || survivors > max_expected {
                    return Err(format!(
                        "{survivors} docs after crash at {point:?}; \
                         acked {} inflight {inflight:?}",
                        acked.len()
                    ));
                }
                // The machine restarts and keeps working.
                for v in 0..after {
                    db.insert("events", doc(2000 + v as i64)).map_err(|e| e.to_string())?;
                }
            }
            let db = Database::open(&dir).map_err(|e| e.to_string())?;
            let total = db.count("events", &Filter::All);
            if total < acked.len() + after {
                return Err(format!("post-restart writes lost: {total}"));
            }
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
            Ok(())
        },
    );
}

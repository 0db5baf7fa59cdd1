//! Append-only, checksummed write-ahead log.
//!
//! Every committed mutation batch becomes one **record** on the log:
//!
//! ```text
//! ┌────────────┬────────────┬───────────────────────────┐
//! │ len: u32LE │ crc: u32LE │ payload (len bytes, JSON) │
//! └────────────┴────────────┴───────────────────────────┘
//! ```
//!
//! The payload is a JSON array of operations ([`WalOp`]), serialised
//! with the in-repo [`crate::json`] writer; `crc` is the IEEE CRC-32 of
//! the payload bytes. Records are appended with `sync_data` on the log
//! file (when the database runs at [`crate::Durability::WalSync`]) and
//! the log's directory is fsynced when the file is created or reset, so
//! a committed batch survives power loss.
//!
//! Recovery ([`Wal::open`]) replays records in order and **truncates at
//! the first torn record** — a short header, a length pointing past the
//! end of the file, a checksum mismatch, or an undecodable payload. A
//! torn tail is the signature of a crash mid-append; everything before
//! it is intact by construction (records are written front to back and
//! fsynced in order), so truncation loses at most the one in-flight
//! batch and never panics.
//!
//! Crash-point fault injection (the `faulty` feature, [`fault`]) lets
//! tests simulate a crash *inside* the append/compaction path: the hook
//! leaves the file exactly as a real crash would (partial record, full
//! record without fsync, orphan temp file) and surfaces
//! [`StoreError::Injected`] so the harness can drop the handle and
//! re-open from disk.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::doc::Doc;
use crate::json::{from_json, to_json};
use crate::{Result, StoreError};

/// File name of the log inside a database directory.
pub const WAL_FILE: &str = "sintel.wal";

/// Bytes of the per-record header (length + checksum).
const HEADER_BYTES: usize = 8;

/// Upper bound on a single record's payload; a "length" beyond this is
/// treated as tail corruption rather than an allocation request.
const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

fn io_err(e: impl std::fmt::Display) -> StoreError {
    StoreError::Io(e.to_string())
}

// ---- CRC-32 (IEEE 802.3 polynomial, table-driven) ----------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of a byte slice (the checksum stored in record headers).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = ((c ^ b as u32) & 0xFF) as usize;
        // In range: idx is masked to 0..256.
        c = CRC_TABLE[idx] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// `fsync` a directory so a just-created/renamed/truncated entry inside
/// it is durable (POSIX requires syncing the *directory* for that).
pub(crate) fn fsync_dir(dir: &Path) -> Result<()> {
    File::open(dir).and_then(|d| d.sync_all()).map_err(io_err)
}

// ---- Operations & batch codec ------------------------------------------

/// One logical mutation inside a WAL record. Mutations are logged as
/// *post-images*: `Put` carries the full document after the write
/// (insert, update and patch all reduce to it), which makes replay a
/// pure upsert — idempotent over any snapshot the crash left behind.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Upsert `doc` (which carries its `_id`) into `collection`.
    Put {
        /// Target collection.
        collection: String,
        /// Document id (also stamped in `doc` as `_id`).
        id: u64,
        /// Full post-image of the document.
        doc: Doc,
    },
    /// Delete document `id` from `collection`.
    Delete {
        /// Target collection.
        collection: String,
        /// Document id.
        id: u64,
    },
}

/// Serialise a batch of operations into a record payload (JSON array).
pub fn encode_batch(ops: &[WalOp]) -> String {
    let items: Vec<Doc> = ops
        .iter()
        .map(|op| match op {
            WalOp::Put { collection, id, doc } => Doc::obj()
                .with("op", "put")
                .with("c", collection.as_str())
                .with("id", *id)
                .with("doc", doc.clone()),
            WalOp::Delete { collection, id } => Doc::obj()
                .with("op", "del")
                .with("c", collection.as_str())
                .with("id", *id),
        })
        .collect();
    to_json(&Doc::Arr(items))
}

/// Parse a record payload back into operations. Any structural problem
/// is an error — the replay loop treats it as tail corruption.
pub fn decode_batch(payload: &str) -> Result<Vec<WalOp>> {
    let parsed = from_json(payload)?;
    let Doc::Arr(items) = parsed else {
        return Err(StoreError::Schema("wal record payload is not an array".into()));
    };
    let mut ops = Vec::with_capacity(items.len());
    for item in items {
        let Doc::Obj(mut fields) = item else {
            return Err(StoreError::Schema("wal op is not an object".into()));
        };
        let is_put = match fields.get("op").and_then(Doc::as_str) {
            Some("put") => true,
            Some("del") => false,
            Some(other) => return Err(StoreError::Schema(format!("unknown wal op '{other}'"))),
            None => return Err(StoreError::Schema("wal op lacks 'op'".into())),
        };
        let collection = fields
            .get("c")
            .and_then(Doc::as_str)
            .ok_or_else(|| StoreError::Schema("wal op lacks 'c'".into()))?
            .to_string();
        let id = fields
            .get("id")
            .and_then(Doc::as_i64)
            .filter(|id| *id >= 0)
            .ok_or_else(|| StoreError::Schema("wal op lacks a valid 'id'".into()))?
            as u64;
        if is_put {
            let doc = fields
                .remove("doc")
                .ok_or_else(|| StoreError::Schema("wal put lacks 'doc'".into()))?;
            ops.push(WalOp::Put { collection, id, doc });
        } else {
            ops.push(WalOp::Delete { collection, id });
        }
    }
    Ok(ops)
}

// ---- Crash-point fault injection ---------------------------------------

/// Crash-point fault injection for the durability tests (`faulty`
/// feature only). Arm a [`fault::CrashPoint`] and the next I/O path
/// that reaches it fails with [`StoreError::Injected`], leaving the
/// on-disk state exactly as a real crash at that instant would.
#[cfg(feature = "faulty")]
pub mod fault {
    use std::sync::Mutex;

    /// Where in the durability path the simulated crash strikes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CrashPoint {
        /// Before any record byte is written: the batch is wholly lost.
        BeforeAppend,
        /// After the header and half the payload: a torn tail.
        MidAppend,
        /// After the full record, before `sync_data`: the batch may or
        /// may not survive (it does on a same-process re-open; on real
        /// power loss the page cache decides).
        AfterAppendBeforeSync,
        /// During compaction, after a snapshot temp file is written but
        /// before it is renamed into place: an orphan `.tmp` is left
        /// and the WAL still holds everything.
        MidCompaction,
    }

    impl CrashPoint {
        /// All crash points, for exhaustive harness sweeps.
        pub const ALL: [CrashPoint; 4] = [
            CrashPoint::BeforeAppend,
            CrashPoint::MidAppend,
            CrashPoint::AfterAppendBeforeSync,
            CrashPoint::MidCompaction,
        ];

        /// Stable label (used in the injected error and in logs).
        pub fn label(self) -> &'static str {
            match self {
                CrashPoint::BeforeAppend => "before-append",
                CrashPoint::MidAppend => "mid-append",
                CrashPoint::AfterAppendBeforeSync => "after-append-before-fsync",
                CrashPoint::MidCompaction => "mid-compaction",
            }
        }
    }

    static ARMED: Mutex<Option<CrashPoint>> = Mutex::new(None);

    fn armed() -> std::sync::MutexGuard<'static, Option<CrashPoint>> {
        ARMED.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arm one crash point; the next path reaching it crashes (once).
    pub fn arm(point: CrashPoint) {
        *armed() = Some(point);
    }

    /// Disarm any armed crash point.
    pub fn disarm() {
        *armed() = None;
    }

    /// True (and disarms) when `point` is the armed crash point.
    pub(crate) fn take(point: CrashPoint) -> bool {
        let mut guard = armed();
        if *guard == Some(point) {
            *guard = None;
            true
        } else {
            false
        }
    }
}

#[cfg(feature = "faulty")]
pub(crate) fn injected(point: fault::CrashPoint) -> StoreError {
    StoreError::Injected(point.label())
}

/// Check a crash point in the I/O path; compiles to nothing without the
/// `faulty` feature.
macro_rules! crash_point {
    ($point:ident, $on_crash:expr) => {
        #[cfg(feature = "faulty")]
        {
            if $crate::wal::fault::take($crate::wal::fault::CrashPoint::$point) {
                return $on_crash($crate::wal::injected($crate::wal::fault::CrashPoint::$point));
            }
        }
    };
}

pub(crate) use crash_point;

// ---- The log itself ----------------------------------------------------

/// An open write-ahead log: an append cursor over `sintel.wal` inside a
/// database directory.
pub struct Wal {
    file: File,
    dir: PathBuf,
    len: u64,
    sync: bool,
}

/// What [`Wal::open`] recovered from an existing log.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Every committed batch, in append order.
    pub batches: Vec<Vec<WalOp>>,
    /// Byte offset the log was truncated at, when a torn tail was found.
    pub truncated_at: Option<u64>,
}

impl Wal {
    /// Open (creating if needed) the log inside `dir`, replaying and
    /// repairing it: committed batches are returned in order and a torn
    /// tail — crash debris — is truncated away, never propagated.
    pub fn open(dir: &Path, sync: bool) -> Result<(Wal, Replay)> {
        let path = dir.join(WAL_FILE);
        let existed = path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err)?;
        if !existed {
            // The log file's *existence* must survive a crash too.
            fsync_dir(dir)?;
        }

        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;

        let mut replay = Replay::default();
        let mut off = 0usize;
        while off < bytes.len() {
            let record = read_record(&bytes, off)
                .and_then(|(payload, next)| Ok((decode_batch(payload)?, next)));
            let Ok((ops, next)) = record else {
                replay.truncated_at = Some(off as u64);
                break;
            };
            replay.batches.push(ops);
            off = next;
        }
        if replay.truncated_at.is_some() {
            file.set_len(off as u64).map_err(io_err)?;
            file.sync_data().map_err(io_err)?;
        }
        file.seek(SeekFrom::Start(off as u64)).map_err(io_err)?;

        Ok((Wal { file, dir: dir.to_path_buf(), len: off as u64, sync }, replay))
    }

    /// Append one record. With `sync` durability the record is
    /// `sync_data`'d before returning: a successful append is durable.
    pub fn append(&mut self, payload: &str) -> Result<()> {
        crash_point!(BeforeAppend, Err);
        let record = encode_record(payload);

        #[cfg(feature = "faulty")]
        if fault::take(fault::CrashPoint::MidAppend) {
            // A torn write: the header plus half the payload hit the
            // disk, then the machine dies.
            let torn = HEADER_BYTES + payload.len() / 2;
            let partial = record.get(..torn).unwrap_or(&record);
            self.file.write_all(partial).map_err(io_err)?;
            self.file.sync_data().map_err(io_err)?;
            return Err(injected(fault::CrashPoint::MidAppend));
        }

        if let Err(e) = self.file.write_all(&record) {
            // The write may have landed partially; repair the tail now
            // so a *later* successful append can't hide behind torn
            // bytes (replay truncates at the first bad record, which
            // would silently drop everything after it).
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
            return Err(io_err(e));
        }

        // Simulated machine death: the record sits in the page cache,
        // unsynced, and the handle must be dropped and reopened — no
        // repair, exactly like real power loss.
        crash_point!(AfterAppendBeforeSync, Err);

        self.len += record.len() as u64;
        if self.sync {
            self.file.sync_data().map_err(io_err)?;
        }
        Ok(())
    }

    /// Whether appends are fsynced individually.
    pub fn synced(&self) -> bool {
        self.sync
    }

    /// Current length of the log in bytes (committed records only).
    pub fn size(&self) -> u64 {
        self.len
    }

    /// Truncate the log to empty (after a successful compaction made
    /// its contents redundant) and make the truncation durable.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(0).map_err(io_err)?;
        self.file.seek(SeekFrom::Start(0)).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        fsync_dir(&self.dir)?;
        self.len = 0;
        Ok(())
    }
}

/// Frame one record: the header (payload length, CRC-32) followed by
/// the payload bytes — the exact bytes [`Wal::append`] writes.
pub fn encode_record(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut record = Vec::with_capacity(HEADER_BYTES + bytes.len());
    record.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(bytes).to_le_bytes());
    record.extend_from_slice(bytes);
    record
}

/// Decode the record starting at byte `off` of a log image: its payload
/// and the offset of the next record. A torn or corrupt record (short
/// header, impossible length, bad checksum, non-UTF-8 payload) is a
/// [`StoreError::TornRecord`]; replay truncates the log there. Never
/// allocates: the payload borrows from `bytes`.
pub fn read_record(bytes: &[u8], off: usize) -> Result<(&str, usize)> {
    let torn = |cause| StoreError::TornRecord { offset: off, cause };
    let header = off.checked_add(HEADER_BYTES).and_then(|end| bytes.get(off..end));
    let Some(&[l0, l1, l2, l3, c0, c1, c2, c3]) = header else {
        return Err(torn("short header"));
    };
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let crc = u32::from_le_bytes([c0, c1, c2, c3]);
    if len > MAX_RECORD_BYTES {
        return Err(torn("length exceeds the record limit"));
    }
    let start = off + HEADER_BYTES;
    let payload = bytes.get(start..start + len).ok_or_else(|| torn("payload runs past the end"))?;
    if crc32(payload) != crc {
        return Err(torn("checksum mismatch"));
    }
    let text = std::str::from_utf8(payload).map_err(|_| torn("payload is not UTF-8"))?;
    Ok((text, start + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sintel-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn put(c: &str, id: u64, v: i64) -> WalOp {
        WalOp::Put {
            collection: c.to_string(),
            id,
            doc: Doc::obj().with("_id", id).with("v", v),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn batch_codec_round_trips() {
        let ops = vec![put("events", 1, 7), WalOp::Delete { collection: "events".into(), id: 1 }];
        let payload = encode_batch(&ops);
        assert_eq!(decode_batch(&payload).expect("decodes"), ops);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert!(decode_batch("{}").is_err());
        assert!(decode_batch("[{\"op\":\"warp\",\"c\":\"x\",\"id\":1}]").is_err());
        assert!(decode_batch("[{\"op\":\"put\",\"c\":\"x\",\"id\":-4}]").is_err());
        assert!(decode_batch("not json").is_err());
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = tmpdir("roundtrip");
        {
            let (mut wal, replay) = Wal::open(&dir, true).expect("open");
            assert!(replay.batches.is_empty());
            wal.append(&encode_batch(&[put("a", 1, 10)])).expect("append");
            wal.append(&encode_batch(&[put("a", 2, 20), put("b", 1, 30)])).expect("append");
        }
        let (wal, replay) = Wal::open(&dir, true).expect("reopen");
        assert_eq!(replay.batches.len(), 2);
        assert_eq!(replay.truncated_at, None);
        assert_eq!(replay.batches[1].len(), 2);
        assert!(wal.size() > 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmpdir("torn");
        let full_len;
        {
            let (mut wal, _) = Wal::open(&dir, true).expect("open");
            wal.append(&encode_batch(&[put("a", 1, 1)])).expect("append");
            wal.append(&encode_batch(&[put("a", 2, 2)])).expect("append");
            full_len = wal.size();
        }
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).expect("read wal");
        assert_eq!(bytes.len() as u64, full_len);
        // Chop 3 bytes off the last record: checksum can't match.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        let (wal, replay) = Wal::open(&dir, true).expect("recover");
        assert_eq!(replay.batches.len(), 1, "only the intact record survives");
        assert!(replay.truncated_at.is_some());
        // The file was repaired to the last good boundary.
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            wal.size(),
            "file truncated to the committed prefix"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn bitflip_in_payload_is_detected() {
        let dir = tmpdir("bitflip");
        {
            let (mut wal, _) = Wal::open(&dir, true).expect("open");
            wal.append(&encode_batch(&[put("a", 1, 1)])).expect("append");
        }
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        let (_, replay) = Wal::open(&dir, true).expect("recover");
        assert!(replay.batches.is_empty(), "corrupted record must not replay");
        assert_eq!(replay.truncated_at, Some(0));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn reset_empties_the_log_durably() {
        let dir = tmpdir("reset");
        {
            let (mut wal, _) = Wal::open(&dir, false).expect("open");
            wal.append(&encode_batch(&[put("a", 1, 1)])).expect("append");
            wal.reset().expect("reset");
            assert_eq!(wal.size(), 0);
            wal.append(&encode_batch(&[put("a", 2, 2)])).expect("append after reset");
        }
        let (_, replay) = Wal::open(&dir, false).expect("reopen");
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(
            replay.batches[0],
            vec![put("a", 2, 2)],
            "only the post-reset record remains"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

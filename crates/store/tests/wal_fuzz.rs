//! Fuzzing of the write-ahead-log decoder (DESIGN.md §4f): record
//! framing (`read_record`) and the batch codec (`decode_batch`), the
//! two functions replay runs over whatever bytes a crash left on disk.
//!
//! * Every truncation of a valid log image, and every seeded byte
//!   mutation of one, decodes to an intact prefix of batches followed
//!   by a typed `StoreError` — never a panic.
//! * `encode_batch` → `decode_batch` round-trips any batch exactly.
//! * Decoding allocates in proportion to the input's length, never to
//!   a length field read from it.
//!
//! Every suite replays from `SINTEL_CHECK_SEED`.

use std::collections::BTreeMap;

use sintel_common::alloc;
use sintel_common::check::{apply_edits, forall, random_edits, shrinks, Config, Edit, PropResult};
use sintel_common::SintelRng;
use sintel_store::wal::{decode_batch, encode_batch, encode_record, read_record, WalOp};
use sintel_store::{Doc, StoreError};

#[global_allocator]
static METER: alloc::Counting = alloc::Counting;

// ---- generators ---------------------------------------------------------

/// Characters that stress the JSON string writer and parser: quotes,
/// backslashes, control characters, multi-byte UTF-8.
const CHARS: &[char] =
    &['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '€', '𝄞'];

fn random_string(rng: &mut SintelRng) -> String {
    (0..rng.index(10)).map(|_| *rng.choice(CHARS)).collect()
}

fn random_f64(rng: &mut SintelRng) -> f64 {
    match rng.index(4) {
        0 => *rng.choice(&[0.0, -0.0, 1.0, f64::MIN_POSITIVE, 5e-324, 1e300, f64::MAX]),
        1 => rng.int_range(-1000, 1000) as f64,
        _ => rng.normal(0.0, 1e6),
    }
}

fn random_doc(rng: &mut SintelRng, depth: usize) -> Doc {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.index(kinds) {
        0 => Doc::Null,
        1 => Doc::Bool(rng.chance(0.5)),
        2 => {
            let any = rng.next_u64() as i64;
            Doc::I64(*rng.choice(&[0, -1, i64::MIN, i64::MAX, any]))
        }
        3 => Doc::F64(random_f64(rng)),
        4 => Doc::Str(random_string(rng)),
        5 => Doc::Arr((0..rng.index(4)).map(|_| random_doc(rng, depth - 1)).collect()),
        _ => {
            let mut fields = BTreeMap::new();
            for _ in 0..rng.index(4) {
                fields.insert(random_string(rng), random_doc(rng, depth - 1));
            }
            Doc::Obj(fields)
        }
    }
}

fn random_batch(rng: &mut SintelRng) -> Vec<WalOp> {
    (0..rng.index(5))
        .map(|_| {
            let collection = random_string(rng);
            // Ids are non-negative `i64`s on the wire.
            let id = rng.next_u64() >> rng.int_range(1, 63);
            if rng.chance(0.7) {
                WalOp::Put { collection, id, doc: random_doc(rng, 3) }
            } else {
                WalOp::Delete { collection, id }
            }
        })
        .collect()
}

/// A valid log image: its batches and each record's start offset.
#[derive(Debug, Clone)]
struct Log {
    bytes: Vec<u8>,
    batches: Vec<Vec<WalOp>>,
    starts: Vec<usize>,
}

impl Log {
    /// The end of record `record`'s bytes.
    fn end(&self, record: usize) -> usize {
        self.starts.get(record + 1).copied().unwrap_or(self.bytes.len())
    }
}

fn random_log(rng: &mut SintelRng) -> Log {
    let mut log = Log { bytes: Vec::new(), batches: Vec::new(), starts: Vec::new() };
    for _ in 0..rng.int_range(1, 5) {
        let batch = random_batch(rng);
        log.starts.push(log.bytes.len());
        log.bytes.extend(encode_record(&encode_batch(&batch)));
        log.batches.push(batch);
    }
    log
}

/// Decode a whole log image as replay does: every batch up to the first
/// bad record, whose error ends the scan.
fn scan(bytes: &[u8]) -> (Vec<Vec<WalOp>>, Option<StoreError>) {
    let mut batches = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        match read_record(bytes, off).and_then(|(payload, next)| Ok((decode_batch(payload)?, next)))
        {
            Ok((ops, next)) => {
                batches.push(ops);
                off = next;
            }
            Err(e) => return (batches, Some(e)),
        }
    }
    (batches, None)
}

/// The errors a corrupt log may produce: framing, JSON or batch shape.
fn is_decode_error(e: &StoreError) -> bool {
    matches!(e, StoreError::TornRecord { .. } | StoreError::Parse { .. } | StoreError::Schema(_))
}

/// How a mutation case corrupts a log image.
#[derive(Debug, Clone)]
enum Mutation {
    /// Edit bytes anywhere in the image.
    Bytes(Vec<Edit>),
    /// Write `len` into the length field of the record at `record`.
    Length { record: usize, len: u32 },
    /// Edit the payload of record `record` and re-frame it with a
    /// matching checksum, so the damage reaches `decode_batch`.
    Reframed { record: usize, edits: Vec<Edit> },
}

#[derive(Debug, Clone)]
struct MutationCase {
    log: Log,
    mutation: Mutation,
}

impl MutationCase {
    /// The mutated image and the start of the first record it touched.
    fn apply(&self) -> (Vec<u8>, usize) {
        let log = &self.log;
        match &self.mutation {
            Mutation::Bytes(edits) => {
                let (bytes, first) = apply_edits(&log.bytes, edits);
                let record = log.starts.iter().rposition(|&s| s <= first).unwrap_or(0);
                (bytes, log.starts[record])
            }
            Mutation::Length { record, len } => {
                let mut bytes = log.bytes.clone();
                let at = log.starts[*record];
                bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
                (bytes, at)
            }
            Mutation::Reframed { record, edits } => {
                let at = log.starts[*record];
                let end = log.end(*record);
                let (payload, _) = apply_edits(&log.bytes[at + 8..end], edits);
                let mut bytes = log.bytes[..at].to_vec();
                bytes.extend(encode_record(&String::from_utf8_lossy(&payload)));
                bytes.extend_from_slice(&log.bytes[end..]);
                (bytes, at)
            }
        }
    }
}

/// JSON-significant bytes for edits, so corrupt payloads stay
/// near-valid JSON rather than failing at the first byte.
const JSON_BYTES: &[u8] = b"[]{}\",:0-9.eEtrufalsnl\\ \x00\xff";

fn random_mutation(rng: &mut SintelRng) -> MutationCase {
    let log = random_log(rng);
    let record = rng.index(log.starts.len());
    let mutation = match rng.index(3) {
        0 => Mutation::Bytes(random_edits(rng, log.bytes.len(), JSON_BYTES)),
        1 => {
            let limit = 64 * 1024 * 1024;
            let edge = *rng.choice(&[0, 1, 7, limit, limit + 1, u32::MAX]);
            let len = if rng.chance(0.3) { rng.next_u64() as u32 } else { edge };
            Mutation::Length { record, len }
        }
        _ => {
            let payload = log.end(record) - log.starts[record] - 8;
            Mutation::Reframed { record, edits: random_edits(rng, payload, JSON_BYTES) }
        }
    };
    MutationCase { log, mutation }
}

// ---- properties ---------------------------------------------------------

/// Every cut of a valid image: a cut on a record boundary decodes the
/// batches before it; a cut inside a record decodes the batches before
/// that record and then fails with `TornRecord` at its start.
#[test]
fn every_truncation_decodes_a_prefix_then_a_torn_record() {
    forall(
        "truncated wal image == intact prefix + TornRecord",
        &Config::default().cases(64),
        random_log,
        shrinks::none,
        |log: &Log| -> PropResult {
            for cut in 0..=log.bytes.len() {
                let (batches, err) = scan(&log.bytes[..cut]);
                let whole = log.starts.iter().filter(|&&s| s < cut).count();
                let on_boundary = cut == log.bytes.len() || log.starts.contains(&cut);
                let intact = if on_boundary { whole } else { whole - 1 };
                if batches[..] != log.batches[..intact] {
                    return Err(format!("cut {cut}: decoded batches differ from the prefix"));
                }
                match (on_boundary, err) {
                    (true, None) => {}
                    (false, Some(StoreError::TornRecord { offset, .. }))
                        if offset == log.starts[intact] => {}
                    (_, other) => {
                        return Err(format!("cut {cut} (boundary: {on_boundary}): got {other:?}"))
                    }
                }
            }
            Ok(())
        },
    );
}

/// A mutated image never panics the decoder: the records before the
/// first mutated one decode intact, and the scan either ends there
/// with a typed decode error or (a checksum collision, or a re-framed
/// payload that is still a valid batch) decodes on. A single flipped
/// byte inside a checksum or payload is always caught.
#[test]
fn mutated_images_fail_typed_after_an_intact_prefix() {
    forall(
        "mutated wal image == intact prefix + typed StoreError",
        &Config::default().cases(512),
        random_mutation,
        shrinks::none,
        |case: &MutationCase| -> PropResult {
            let (bytes, first) = case.apply();
            let intact = case.log.starts.iter().filter(|&&s| s < first).count();
            let (batches, err) = scan(&bytes);
            if batches.len() < intact || batches[..intact] != case.log.batches[..intact] {
                return Err("records before the mutation did not decode intact".into());
            }
            if let Some(e) = &err {
                if !is_decode_error(e) {
                    return Err(format!("untyped decode failure: {e:?}"));
                }
            }
            let flipped = match &case.mutation {
                Mutation::Bytes(edits) => match edits[..] {
                    [Edit::Flip(pos, _)] => Some(pos),
                    _ => None,
                },
                _ => None,
            };
            if flipped.is_some_and(|pos| pos >= first + 4 && pos < case.log.end(intact)) {
                let caught = matches!(
                    err,
                    Some(StoreError::TornRecord { offset, cause: "checksum mismatch" })
                        if offset == first
                );
                if !caught || batches.len() != intact {
                    return Err(format!("single flipped byte not caught: {err:?}"));
                }
            }
            Ok(())
        },
    );
}

/// `encode_batch` → `decode_batch` is the identity on any batch, and
/// the framed record reads back as exactly its payload.
#[test]
fn batches_round_trip_exactly() {
    forall(
        "decode_batch(encode_batch(ops)) == ops",
        &Config::default().cases(512),
        random_batch,
        |ops: &Vec<WalOp>| shrinks::truncate_vec(ops),
        |ops: &Vec<WalOp>| -> PropResult {
            let payload = encode_batch(ops);
            let decoded = decode_batch(&payload).map_err(|e| format!("{e}: {payload}"))?;
            if decoded != *ops {
                return Err(format!("round trip changed the batch: {payload}"));
            }
            let record = encode_record(&payload);
            match read_record(&record, 0) {
                Ok((text, next)) if text == payload && next == record.len() => Ok(()),
                other => Err(format!("framed record read back as {other:?}")),
            }
        },
    );
}

/// Decoding a (mutated) image allocates in proportion to its length.
#[test]
fn decoding_allocates_in_proportion_to_the_input() {
    forall(
        "scan allocations <= 1 KiB + 32 x image length",
        &Config::default().cases(512),
        random_mutation,
        shrinks::none,
        |case: &MutationCase| -> PropResult {
            let (bytes, _) = case.apply();
            let (allocated, _) = alloc::measure(|| scan(&bytes));
            let budget = alloc::budget(bytes.len());
            if allocated.bytes > budget {
                return Err(format!(
                    "decoding {} bytes allocated {} bytes (budget {budget})",
                    bytes.len(),
                    allocated.bytes
                ));
            }
            Ok(())
        },
    );
}

/// A record whose length field claims the whole 64 MiB limit decodes
/// to a `TornRecord` without allocating at all.
#[test]
fn an_oversized_length_field_allocates_nothing() {
    let mut bytes = encode_record("[]");
    bytes[..4].copy_from_slice(&(64u32 * 1024 * 1024).to_le_bytes());
    let (allocated, read) = alloc::measure(|| read_record(&bytes, 0).map(|(_, next)| next));
    assert!(matches!(read, Err(StoreError::TornRecord { offset: 0, .. })), "{read:?}");
    assert_eq!(allocated.bytes, 0, "read_record allocated {allocated:?}");
}

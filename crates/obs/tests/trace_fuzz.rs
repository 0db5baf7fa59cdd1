//! Fuzzing of the trace reader (DESIGN.md §4c): `parse_jsonl` takes
//! whatever bytes a trace file or a `/trace` response holds, so it is
//! an untrusted-bytes parser like the WAL decoder.
//!
//! * Every truncation of a valid multi-line trace parses to exactly the
//!   events of its complete lines, or fails naming the cut line.
//! * Every seeded byte mutation returns `Ok` or a line-numbered `Err` —
//!   never a panic — and the lines before the first mutated one still
//!   parse to their events.
//! * Parsing allocates in proportion to the input's length.
//!
//! Every suite replays from `SINTEL_CHECK_SEED`.

use std::collections::BTreeMap;

use sintel_common::alloc;
use sintel_common::check::{forall, gens, shrinks, Config, MutationCase, PropResult};
use sintel_common::SintelRng;
use sintel_obs::{export_jsonl, parse_jsonl, EventKind, FieldValue, TraceEvent};

#[global_allocator]
static METER: alloc::Counting = alloc::Counting;

// ---- generators ---------------------------------------------------------

/// A field value that reads back equal: JSON has one integer type, so
/// `Int` is negative and `UInt` at most `i64::MAX`.
fn random_field(rng: &mut SintelRng) -> FieldValue {
    match rng.index(5) {
        0 => FieldValue::Str(gens::escape_heavy_string(rng)),
        1 => FieldValue::UInt(rng.next_u64() >> 1),
        2 => FieldValue::Int(-1 - (rng.next_u64() >> 1) as i64),
        3 => FieldValue::Float(rng.normal(0.0, 1e6)),
        _ => FieldValue::Bool(rng.chance(0.5)),
    }
}

/// A valid trace: open/close events with short ASCII names (so a trace
/// is several lines, not one long string) and a few fields each.
fn random_trace(rng: &mut SintelRng) -> Vec<TraceEvent> {
    (0..2 + rng.index(5))
        .map(|i| {
            let open = rng.chance(0.5);
            let fields: BTreeMap<String, FieldValue> = (0..rng.index(3))
                .map(|_| (gens::escape_heavy_string(rng), random_field(rng)))
                .collect();
            TraceEvent {
                kind: if open { EventKind::Open } else { EventKind::Close },
                id: i as u64 + 1,
                parent: (i > 0).then(|| rng.index(i) as u64 + 1),
                name: format!("primitive.step{}", rng.index(100)),
                ts_ns: rng.next_u64() >> 20,
                duration_ns: (!open).then(|| rng.next_u64() >> 30),
                fields: fields.into_iter().collect(),
            }
        })
        .collect()
}

/// JSON- and JSONL-significant bytes, so damaged lines stay near-valid
/// JSON rather than failing at the first byte.
const JSON_BYTES: &[u8] = b"[]{}\",:0-9.eE+tfn\\u \n\r\x00\xff";

/// A valid trace's text and a few edits to its bytes.
fn random_mutation(rng: &mut SintelRng) -> MutationCase {
    let text = export_jsonl(&random_trace(rng)).into_bytes();
    MutationCase::random(rng, text, JSON_BYTES)
}

/// A mutation case's edited bytes as text (invalid UTF-8 replaced) and
/// the lowest byte position an edit touched.
fn edited_text(case: &MutationCase) -> (String, usize) {
    let (bytes, first) = case.apply();
    (String::from_utf8_lossy(&bytes).into_owned(), first)
}

/// The 1-based line number in an error from `parse_jsonl`.
fn error_line(err: &str) -> Option<usize> {
    err.strip_prefix("line ")?.split(':').next()?.parse().ok()
}

// ---- properties ---------------------------------------------------------

/// Every cut of a valid trace on a character boundary: a cut at a line
/// end parses to the events of the whole lines before it; a cut inside
/// a line's object fails, naming that line.
#[test]
fn every_truncation_parses_the_complete_lines_or_names_the_cut_line() {
    forall(
        "truncated trace == events of its complete lines, or Err at the cut line",
        &Config::default().cases(48),
        random_trace,
        |events: &Vec<TraceEvent>| shrinks::truncate_vec(events),
        |events: &Vec<TraceEvent>| -> PropResult {
            let text = export_jsonl(events);
            for cut in (0..=text.len()).filter(|&c| text.is_char_boundary(c)) {
                let prefix = &text[..cut];
                let complete = prefix.matches('\n').count();
                let result = parse_jsonl(prefix);
                // Lines are whole up to the cut when it falls on either
                // side of a line's newline.
                let whole = if prefix.is_empty() || prefix.ends_with('\n') {
                    Some(complete)
                } else {
                    (text.as_bytes()[cut] == b'\n').then_some(complete + 1)
                };
                if let Some(whole) = whole {
                    match result {
                        Ok(parsed) if parsed[..] == events[..whole] => {}
                        other => return Err(format!("cut {cut} at a line end: {other:?}")),
                    }
                } else {
                    match result {
                        Err(e) if error_line(&e) == Some(complete + 1) => {}
                        other => return Err(format!("cut {cut} inside a line: {other:?}")),
                    }
                }
            }
            Ok(())
        },
    );
}

/// A mutated trace never panics the parser: it returns `Ok` or an
/// `Err` naming a line at or after the first mutated one, and the
/// lines before that one parse to their original events.
#[test]
fn mutated_traces_parse_or_fail_with_a_line_number() {
    forall(
        "mutated trace == intact prefix + Ok or line-numbered Err",
        &Config::default().cases(512),
        random_mutation,
        shrinks::none,
        |case: &MutationCase| -> PropResult {
            let (text, first) = edited_text(case);
            let intact = case.text[..first].iter().filter(|&&b| b == b'\n').count();
            let original = parse_jsonl(&String::from_utf8_lossy(&case.text))
                .map_err(|e| format!("unmutated: {e}"))?;
            match parse_jsonl(&text) {
                Ok(parsed) => {
                    if parsed.len() < intact || parsed[..intact] != original[..intact] {
                        return Err(format!("lines before the first edit changed: {text:?}"));
                    }
                }
                Err(e) => match error_line(&e) {
                    Some(line) if line > intact => {}
                    _ => return Err(format!("{e:?} is before the edited line {}", intact + 1)),
                },
            }
            Ok(())
        },
    );
}

/// Parsing a (mutated) trace allocates in proportion to its length.
#[test]
fn parsing_allocates_in_proportion_to_the_input() {
    forall(
        "parse_jsonl allocations <= 1 KiB + 32 x input length",
        &Config::default().cases(512),
        random_mutation,
        shrinks::none,
        |case: &MutationCase| -> PropResult {
            let (text, _) = edited_text(case);
            let (allocated, _) = alloc::measure(|| parse_jsonl(&text));
            let budget = alloc::budget(text.len());
            if allocated.bytes > budget {
                return Err(format!(
                    "parsing {} bytes allocated {} bytes (budget {budget})",
                    text.len(),
                    allocated.bytes
                ));
            }
            Ok(())
        },
    );
}

/// A line of a million unclosed objects is a line-numbered error, not a
/// stack overflow, and allocates in proportion to what it read.
#[test]
fn deep_nesting_is_an_error_with_bounded_allocation() {
    let text = "{\"a\":".repeat(1_000_000);
    let (allocated, result) = alloc::measure(|| parse_jsonl(&text));
    assert_eq!(result.unwrap_err(), "line 1: nesting too deep");
    assert!(allocated.bytes <= alloc::budget(text.len()), "allocated {allocated:?}");
}

//! Shared by the CSV fuzz suites (`csv_fuzz.rs` here and the serve
//! crate's `corpus_fuzz.rs`, which includes this file by path): the
//! CSV alphabet for seeded byte edits and the truncation and mutation
//! properties every CSV decoder must keep.

use std::fmt::Debug;

use sintel_common::check::{MutationCase, PropResult};
use sintel_timeseries::csvio::CsvError;

/// CSV-significant bytes, so damaged rows stay near-valid.
pub const CSV_BYTES: &[u8] = b",#\n\r -+.0159eEinfNa \t\x00\xff\xc3";

/// A decoder's rows or its `CsvError`; any other error is a failure.
pub type Decoded<R> = Result<Result<Vec<R>, CsvError>, String>;

/// The number of `\n` bytes in `bytes`.
pub fn newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Every cut of `text`, whose line `header + 1 + i` holds `rows[i]`:
/// a cut at a line end decodes to exactly the rows before it; a cut
/// inside a line decodes to those rows plus at most the cut line's, or
/// fails naming a line at or after the cut.
pub fn check_truncations<R: PartialEq + Debug>(
    text: &[u8],
    rows: &[R],
    header: usize,
    decode: impl Fn(&[u8]) -> Decoded<R>,
) -> PropResult {
    for cut in 0..=text.len() {
        let prefix = &text[..cut];
        let at_line_end = text.get(cut) == Some(&b'\n') || prefix.ends_with(b"\n");
        let whole = newlines(prefix) + usize::from(text.get(cut) == Some(&b'\n'));
        let complete = whole.saturating_sub(header);
        match decode(prefix)? {
            Ok(got) if got.len() >= complete && got[..complete] == rows[..complete] => {
                if got.len() > complete + usize::from(!at_line_end) {
                    return Err(format!("cut {cut}: {} rows from {complete} whole", got.len()));
                }
            }
            Err(e) if e.line > newlines(prefix) && (whole < header || !at_line_end) => {}
            other => return Err(format!("cut {cut} ({complete} whole rows): {other:?}")),
        }
    }
    Ok(())
}

/// A mutated file decodes to `Ok` or a `CsvError`; the rows on lines
/// before the first edit are intact, and an error names a line at or
/// after it.
pub fn check_mutation<R: PartialEq + Debug>(
    case: &MutationCase,
    rows: &[R],
    header: usize,
    decode: impl Fn(&[u8]) -> Decoded<R>,
) -> PropResult {
    let (bytes, first) = case.apply();
    let intact = newlines(&case.text[..first]);
    match decode(&bytes)? {
        Ok(got) if intact > header => {
            let keep = intact - header;
            if got.len() < keep || got[..keep] != rows[..keep] {
                return Err(format!("rows before the edited line {} changed", intact + 1));
            }
        }
        Err(e) if e.line <= intact => {
            return Err(format!("{e} is before the edited line {}", intact + 1));
        }
        _ => {}
    }
    Ok(())
}

//! Shared by the CSV fuzz suites (`csv_fuzz.rs` here and the serve
//! crate's `corpus_fuzz.rs`, which includes this file by path): a
//! counting allocator, seeded byte edits and the truncation and
//! mutation properties every CSV decoder must keep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

use sintel_common::check::PropResult;
use sintel_common::SintelRng;
use sintel_timeseries::csvio::CsvError;

/// Global allocator that counts, on the current thread, the bytes
/// requested (`alloc`, `alloc_zeroed` and the new size of a `realloc`)
/// and the peak of the bytes live at once.
struct CountingAlloc;

thread_local! {
    // `const` init: creating the counters must not allocate.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn bump(requested: usize, freed: usize) {
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + requested as u64));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + requested as i64 - freed as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size(), 0);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while running `f`.
pub fn alloc_bytes<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_BYTES.with(Cell::get);
    let out = f();
    (ALLOC_BYTES.with(Cell::get) - before, out)
}

/// The most bytes live at once on this thread while running `f`, over
/// the level before it.
pub fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (PEAK.with(Cell::get) - before, out)
}

/// Allocation bound for decoding `len` bytes: a small fixed slack plus
/// a constant factor of the input. The factor covers the decoded
/// vectors' geometric growth and an error message quoting a field.
pub fn alloc_budget(len: usize) -> u64 {
    1024 + 32 * len as u64
}

/// A decoder's rows or its `CsvError`; any other error is a failure.
pub type Decoded<R> = Result<Result<Vec<R>, CsvError>, String>;

/// A valid file's bytes and a few edits to them.
#[derive(Debug, Clone)]
pub struct MutationCase {
    pub text: Vec<u8>,
    pub edits: Vec<Edit>,
}

#[derive(Debug, Clone)]
pub enum Edit {
    /// XOR a nonzero mask into the byte at a position.
    Flip(usize, u8),
    /// Overwrite the byte at a position.
    Set(usize, u8),
    /// Insert a byte before a position.
    Insert(usize, u8),
    /// Remove the byte at a position.
    Remove(usize),
}

/// CSV-significant bytes, so damaged rows stay near-valid.
const CSV_BYTES: &[u8] = b",#\n\r -+.0159eEinfNa \t\x00\xff\xc3";

pub fn random_edits(rng: &mut SintelRng, text: Vec<u8>) -> MutationCase {
    let len = text.len();
    let edits = (0..rng.int_range(1, 4))
        .map(|_| {
            let at = rng.index(len.max(1));
            let byte = *rng.choice(CSV_BYTES);
            match rng.index(4) {
                0 => Edit::Flip(at, rng.int_range(1, 256) as u8),
                1 => Edit::Set(at, byte),
                2 => Edit::Insert(at, byte),
                _ => Edit::Remove(at),
            }
        })
        .collect();
    MutationCase { text, edits }
}

impl MutationCase {
    /// The mutated bytes and the lowest position an edit touched.
    pub fn apply(&self) -> (Vec<u8>, usize) {
        let mut bytes = self.text.clone();
        let mut first = bytes.len();
        for edit in &self.edits {
            let last = bytes.len().saturating_sub(1);
            let at = match *edit {
                Edit::Flip(at, mask) => {
                    if let Some(b) = bytes.get_mut(at.min(last)) {
                        *b ^= mask;
                    }
                    at.min(last)
                }
                Edit::Set(at, byte) => {
                    if let Some(b) = bytes.get_mut(at.min(last)) {
                        *b = byte;
                    }
                    at.min(last)
                }
                Edit::Insert(at, byte) => {
                    bytes.insert(at.min(bytes.len()), byte);
                    at.min(bytes.len())
                }
                Edit::Remove(at) => {
                    if at < bytes.len() {
                        bytes.remove(at);
                    }
                    at.min(last)
                }
            };
            first = first.min(at);
        }
        (bytes, first)
    }
}

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

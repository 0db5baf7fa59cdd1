//! Fuzzing of the serve corpus decoder (`event::decode_corpus`): a
//! corpus is whatever `tenant,signal,timestamp,value` file an operator
//! replays, so it is an untrusted-bytes parser like the WAL, trace and
//! HTTP readers, and it keeps the same properties as the signal and
//! label decoders (`sintel-timeseries`'s `csv_fuzz.rs`, whose support
//! module this suite shares):
//!
//! * every truncation of a valid corpus, with or without a header,
//!   decodes to the events before the cut (plus at most the cut row's
//!   prefix), or fails with a `CsvError` naming a line at or after it;
//! * every seeded byte mutation returns `Ok` or a `CsvError` — never a
//!   panic — and the lines before the first mutated one still decode
//!   to their events;
//! * decoding allocates in proportion to the input's length, and a line
//!   past the reader's cap allocates no more than the cap.
//!
//! Every suite replays from `SINTEL_CHECK_SEED`.

use std::io::BufReader;

use sintel_common::alloc;
use sintel_common::check::{forall, shrinks, Config, MutationCase, PropResult};
use sintel_common::SintelRng;
use sintel_serve::event::decode_corpus;
use sintel_timeseries::csvio::MAX_LINE;

#[path = "../../timeseries/tests/support/csv.rs"]
mod support;
use support::{check_mutation, check_truncations, Decoded, CSV_BYTES};

#[global_allocator]
static METER: alloc::Counting = alloc::Counting;

/// An event as `(tenant, signal, timestamp, value bits)`, so NaN
/// compares equal.
type Row = (String, String, i64, u64);

/// A valid corpus: up to 12 events, with or without a header row.
#[derive(Debug, Clone)]
struct Corpus {
    header: bool,
    events: Vec<Row>,
}

impl Corpus {
    fn text(&self) -> Vec<u8> {
        let mut text = String::new();
        if self.header {
            text.push_str("tenant,signal,timestamp,value\n");
        }
        for (tenant, signal, timestamp, bits) in &self.events {
            text.push_str(&format!("{tenant},{signal},{timestamp},{}\n", f64::from_bits(*bits)));
        }
        text.into_bytes()
    }
}

fn random_corpus(rng: &mut SintelRng) -> Corpus {
    let events = (0..rng.index(13))
        .map(|_| {
            let value = match rng.index(8) {
                0 => f64::NAN,
                1 => *rng.choice(&[0.0, -0.0, 5e-324, f64::MAX, f64::INFINITY]),
                _ => rng.normal(0.0, 1e3),
            };
            (
                rng.choice(&["acme", "guest", "t-9", "_x"]).to_string(),
                rng.choice(&["cpu", "mem", "disk io"]).to_string(),
                rng.int_range(-1 << 40, 1 << 40),
                value.to_bits(),
            )
        })
        .collect();
    Corpus { header: rng.chance(0.5), events }
}

fn decode_rows(bytes: &[u8]) -> Decoded<Row> {
    Ok(decode_corpus(bytes).map(|events| {
        events.into_iter().map(|e| (e.tenant, e.signal, e.timestamp, e.value.to_bits())).collect()
    }))
}

#[test]
fn corpora_round_trip_bit_for_bit() {
    forall(
        "decode_corpus(text(c)) == c",
        &Config::default().cases(256),
        random_corpus,
        shrinks::none,
        |corpus: &Corpus| -> PropResult {
            match decode_rows(&corpus.text())? {
                Ok(rows) if rows == corpus.events => Ok(()),
                other => Err(format!("decoded {other:?}")),
            }
        },
    );
}

#[test]
fn every_corpus_truncation_decodes_its_whole_rows_or_names_the_cut_line() {
    forall(
        "truncated corpus == its whole rows, or CsvError at or after the cut",
        &Config::default().cases(64),
        random_corpus,
        shrinks::none,
        |corpus: &Corpus| {
            let header = usize::from(corpus.header);
            check_truncations(&corpus.text(), &corpus.events, header, decode_rows)
        },
    );
}

/// A corpus's header flag and one set of edits to its text.
fn random_mutation(rng: &mut SintelRng) -> (bool, MutationCase) {
    let corpus = random_corpus(rng);
    (corpus.header, MutationCase::random(rng, corpus.text(), CSV_BYTES))
}

#[test]
fn mutated_corpora_decode_or_fail_with_a_line_number() {
    forall(
        "mutated corpus == intact prefix + Ok or CsvError",
        &Config::default().cases(512),
        random_mutation,
        shrinks::none,
        |(header, case): &(bool, MutationCase)| {
            let rows = decode_rows(&case.text)?.map_err(|e| format!("unmutated: {e}"))?;
            check_mutation(case, &rows, usize::from(*header), decode_rows)
        },
    );
}

#[test]
fn corpus_decoding_allocates_in_proportion_to_the_input() {
    forall(
        "decode_corpus allocations <= 1 KiB + 32 x input length",
        &Config::default().cases(512),
        random_mutation,
        shrinks::none,
        |(_, case): &(bool, MutationCase)| -> PropResult {
            let (bytes, _) = case.apply();
            let (allocated, _) = alloc::measure(|| decode_corpus(&bytes[..]));
            if allocated.bytes > alloc::budget(bytes.len()) {
                return Err(format!("{} bytes allocated {}", bytes.len(), allocated.bytes));
            }
            Ok(())
        },
    );
}

/// A corpus line one byte past the cap is a `CsvError` on that line,
/// and reading it keeps no more than the cap live.
#[test]
fn an_over_cap_corpus_line_is_an_error_that_buffers_at_most_the_cap() {
    let mut text = b"acme,cpu,1,0.5\nacme,".to_vec();
    text.resize(text.len() + MAX_LINE + 1 - "acme,".len() - ",2,0.5".len(), b'c');
    text.extend_from_slice(b",2,0.5\n");
    let reader = BufReader::new(&text[..]);
    let (allocated, result) = alloc::measure(|| decode_corpus(reader));
    let e = result.expect_err("an over-cap line must not decode");
    assert_eq!(e.line, 2, "{e}");
    assert!(e.message.contains("longer than"), "{e}");
    let peak = allocated.peak_live;
    assert!(peak <= MAX_LINE as u64 + 1024, "{peak} bytes live at once");
}

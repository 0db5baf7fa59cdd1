//! Fuzzing of the CSV decoders (`sintel_timeseries::csvio`): signal and
//! label files come from disk or from a user, so the decoders are
//! untrusted-bytes parsers like the WAL and trace readers.
//!
//! * `encode_signal` → `decode_signal` round-trips any signal (NaN and
//!   multivariate columns included) bit for bit, and `decode_labels`
//!   reads back any label set in `write_labels_csv`'s format.
//! * Every truncation of a valid file decodes to the rows before the
//!   cut (plus at most the cut row's prefix), or fails with a
//!   `CsvError` naming a line at or after the cut.
//! * Every seeded byte mutation returns `Ok` or a `CsvError` — never a
//!   panic or another error — and the lines before the first mutated
//!   one still decode to their rows.
//! * Decoding allocates in proportion to the input's length, and a
//!   line past the reader's cap allocates no more than the cap.
//!
//! Every suite replays from `SINTEL_CHECK_SEED`.

use std::io::BufReader;

use sintel_common::check::{forall, shrinks, Config, PropResult};
use sintel_common::SintelRng;
use sintel_timeseries::csvio::{decode_labels, decode_signal, encode_signal, MAX_LINE};
use sintel_timeseries::{Interval, Signal, TimeSeriesError};

#[path = "support/csv.rs"]
mod support;
use support::{
    alloc_budget, alloc_bytes, check_mutation, check_truncations, peak_live_bytes, random_edits,
    Decoded, MutationCase,
};

// ---- generators ---------------------------------------------------------

fn random_value(rng: &mut SintelRng) -> f64 {
    match rng.index(8) {
        0 => f64::NAN,
        1 => *rng.choice(&[0.0, -0.0, 5e-324, 1e300, f64::MAX, f64::INFINITY, f64::NEG_INFINITY]),
        _ => rng.normal(0.0, 1e3),
    }
}

/// A signal of 1–3 channels and up to 12 rows, with strictly increasing
/// timestamps of any sign and magnitude.
fn random_signal(rng: &mut SintelRng) -> Signal {
    let n = rng.index(13);
    let mut t = rng.int_range(-1 << 40, 1 << 40);
    let timestamps: Vec<i64> = (0..n)
        .map(|_| {
            t += rng.int_range(1, 1000);
            t
        })
        .collect();
    let channels =
        (0..1 + rng.index(3)).map(|_| (0..n).map(|_| random_value(rng)).collect()).collect();
    Signal::multivariate("fuzz", timestamps, channels).expect("increasing timestamps")
}

fn random_labels(rng: &mut SintelRng) -> Vec<Interval> {
    (0..rng.index(10))
        .map(|_| {
            let start = rng.int_range(-1 << 40, 1 << 40);
            Interval::new(start, start + rng.int_range(0, 5000)).expect("ordered")
        })
        .collect()
}

fn signal_text(signal: &Signal) -> Vec<u8> {
    let mut out = Vec::new();
    encode_signal(signal, &mut out).expect("writing to a Vec");
    out
}

/// A label file as `write_labels_csv` writes it.
fn labels_text(labels: &[Interval]) -> Vec<u8> {
    let rows: String = labels.iter().map(|iv| format!("{},{}\n", iv.start, iv.end)).collect();
    format!("start,end\n{rows}").into_bytes()
}

/// A signal's rows as `(timestamp, value bits…)`, so NaN compares equal.
fn signal_rows(signal: &Signal) -> Vec<(i64, Vec<u64>)> {
    (0..signal.len())
        .map(|t| {
            let values = (0..signal.num_channels()).map(|c| signal.channel(c)[t].to_bits());
            (signal.timestamps()[t], values.collect())
        })
        .collect()
}

fn decode_signal_rows(bytes: &[u8]) -> Decoded<(i64, Vec<u64>)> {
    typed(decode_signal("fuzz", bytes).map(|s| signal_rows(&s)))
}

fn decode_label_rows(bytes: &[u8]) -> Decoded<Interval> {
    typed(decode_labels(bytes))
}

/// Keep a `CsvError` typed; any other error is a failure.
fn typed<R>(result: sintel_timeseries::Result<Vec<R>>) -> Decoded<R> {
    match result {
        Ok(rows) => Ok(Ok(rows)),
        Err(TimeSeriesError::Csv(e)) => Ok(Err(e)),
        Err(other) => Err(format!("untyped rejection: {other:?}")),
    }
}

// ---- signals ----------------------------------------------------------------

#[test]
fn signals_round_trip_bit_for_bit() {
    forall(
        "decode_signal(encode_signal(s)) == s",
        &Config::default().cases(256),
        random_signal,
        shrinks::none,
        |signal: &Signal| -> PropResult {
            let text = signal_text(signal);
            let back = decode_signal("fuzz", &text[..]).map_err(|e| e.to_string())?;
            if back.num_channels() != signal.num_channels()
                || signal_rows(&back) != signal_rows(signal)
            {
                return Err(format!("decoded {back:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn every_signal_truncation_decodes_its_whole_rows_or_names_the_cut_line() {
    forall(
        "truncated signal == its whole rows, or CsvError at or after the cut",
        &Config::default().cases(64),
        random_signal,
        shrinks::none,
        |signal: &Signal| {
            check_truncations(&signal_text(signal), &signal_rows(signal), 1, decode_signal_rows)
        },
    );
}

fn random_signal_mutation(rng: &mut SintelRng) -> MutationCase {
    let text = signal_text(&random_signal(rng));
    random_edits(rng, text)
}

#[test]
fn mutated_signals_decode_or_fail_with_a_line_number() {
    forall(
        "mutated signal == intact prefix + Ok or CsvError",
        &Config::default().cases(512),
        random_signal_mutation,
        shrinks::none,
        |case: &MutationCase| {
            let rows = decode_signal_rows(&case.text)?.map_err(|e| format!("unmutated: {e}"))?;
            check_mutation(case, &rows, 1, decode_signal_rows)
        },
    );
}

#[test]
fn signal_decoding_allocates_in_proportion_to_the_input() {
    forall(
        "decode_signal allocations <= 1 KiB + 32 x input length",
        &Config::default().cases(512),
        random_signal_mutation,
        shrinks::none,
        |case: &MutationCase| -> PropResult {
            let (bytes, _) = case.apply();
            let (allocated, _) = alloc_bytes(|| decode_signal("fuzz", &bytes[..]));
            if allocated > alloc_budget(bytes.len()) {
                return Err(format!("{} bytes allocated {allocated}", bytes.len()));
            }
            Ok(())
        },
    );
}

// ---- labels -----------------------------------------------------------------

#[test]
fn labels_round_trip_exactly() {
    forall(
        "decode_labels(encode_labels(l)) == l",
        &Config::default().cases(256),
        random_labels,
        shrinks::none,
        |labels: &Vec<Interval>| -> PropResult {
            match decode_labels(&labels_text(labels)[..]) {
                Ok(back) if back == *labels => Ok(()),
                other => Err(format!("decoded {other:?}")),
            }
        },
    );
}

#[test]
fn every_label_truncation_decodes_its_whole_rows_or_names_the_cut_line() {
    forall(
        "truncated labels == their whole rows, or CsvError at or after the cut",
        &Config::default().cases(64),
        random_labels,
        |labels: &Vec<Interval>| shrinks::truncate_vec(labels),
        |labels: &Vec<Interval>| {
            check_truncations(&labels_text(labels), labels, 1, decode_label_rows)
        },
    );
}

fn random_label_mutation(rng: &mut SintelRng) -> MutationCase {
    let text = labels_text(&random_labels(rng));
    random_edits(rng, text)
}

#[test]
fn mutated_labels_decode_or_fail_with_a_line_number() {
    forall(
        "mutated labels == intact prefix + Ok or CsvError",
        &Config::default().cases(512),
        random_label_mutation,
        shrinks::none,
        |case: &MutationCase| {
            let rows = decode_label_rows(&case.text)?.map_err(|e| format!("unmutated: {e}"))?;
            check_mutation(case, &rows, 1, decode_label_rows)
        },
    );
}

#[test]
fn label_decoding_allocates_in_proportion_to_the_input() {
    forall(
        "decode_labels allocations <= 1 KiB + 32 x input length",
        &Config::default().cases(512),
        random_label_mutation,
        shrinks::none,
        |case: &MutationCase| -> PropResult {
            let (bytes, _) = case.apply();
            let (allocated, _) = alloc_bytes(|| decode_labels(&bytes[..]));
            if allocated > alloc_budget(bytes.len()) {
                return Err(format!("{} bytes allocated {allocated}", bytes.len()));
            }
            Ok(())
        },
    );
}

// ---- the reader's line cap ----------------------------------------------------

/// A line of exactly `MAX_LINE` bytes decodes; one byte more is a
/// `CsvError` on that line, and reading it, in the 8 KiB chunks of a
/// default `BufReader`, keeps no more than the cap live.
#[test]
fn an_over_cap_line_is_an_error_that_buffers_at_most_the_cap() {
    let row = |len: usize| {
        let mut text = b"timestamp,value\n1,".to_vec();
        text.resize(text.len() + len - 2, b'0');
        text.extend_from_slice(b"\n2,3\n");
        text
    };
    let signal = decode_signal("cap", &row(MAX_LINE)[..]).expect("a line at the cap decodes");
    assert_eq!(signal.timestamps(), &[1, 2]);

    let text = row(MAX_LINE + 1);
    let reader = BufReader::new(&text[..]);
    let (peak, result) = peak_live_bytes(|| decode_signal("cap", reader));
    match result {
        Err(TimeSeriesError::Csv(e)) => {
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains("longer than"), "{e}");
        }
        other => panic!("an over-cap line decoded to {other:?}"),
    }
    assert!(peak as usize <= MAX_LINE + 1024, "{peak} bytes live at once");
}

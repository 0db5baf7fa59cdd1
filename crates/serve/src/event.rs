//! Ingest and emission event types, the admission protocol, and the
//! CSV corpus format events are replayed from.

use std::io::BufRead;

use sintel_timeseries::csvio::{CsvError, Rows};

/// One streamed sample: a `(tenant, signal, timestamp, value)` tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestEvent {
    /// Tenant the sample belongs to.
    pub tenant: String,
    /// Signal name within the tenant.
    pub signal: String,
    /// Sample timestamp (must be strictly increasing per signal; stale
    /// or duplicate timestamps are absorbed idempotently, which is what
    /// makes at-least-once replay after a crash safe).
    pub timestamp: i64,
    /// Sample value.
    pub value: f64,
}

impl IngestEvent {
    /// Construct an event.
    pub fn new(tenant: &str, signal: &str, timestamp: i64, value: f64) -> Self {
        Self { tenant: tenant.to_string(), signal: signal.to_string(), timestamp, value }
    }
}

/// Decode a serve corpus: `tenant,signal,timestamp,value` rows. The
/// first row is a header when its timestamp is not an integer.
pub fn decode_corpus(reader: impl BufRead) -> Result<Vec<IngestEvent>, CsvError> {
    let mut rows = Rows::new(reader);
    let mut events = Vec::new();
    let mut first = true;
    while let Some(row) = rows.next_row()? {
        let mut fields = row.fields();
        let (Some(tenant), Some(signal), Some(timestamp), Some(value), None) =
            (fields.next(), fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(row.error("want tenant,signal,timestamp,value"));
        };
        let timestamp = row.parse("timestamp", Some(timestamp));
        if std::mem::take(&mut first) && timestamp.is_err() {
            continue;
        }
        events.push(IngestEvent::new(tenant, signal, timestamp?, row.parse("value", Some(value))?));
    }
    Ok(events)
}

/// Admission decision for one offered event — the backpressure
/// protocol callers must honour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued; the event is processed on the next tick.
    Accepted,
    /// The tenant's bounded queue is full. The caller should run (or
    /// wait for) `after_ticks` engine ticks and re-offer the event —
    /// nothing was dropped.
    Retry {
        /// How many ticks to wait before re-offering.
        after_ticks: u32,
    },
    /// Load-shed: the event was dropped. Either the aggregate backlog
    /// is past the high-water mark and this tenant's priority is below
    /// the floor, or the tenant has been quarantined.
    Shed,
}

/// A committed anomaly event emitted by the serving tier.
///
/// `seq` is per-tenant, dense and monotonic: consumers deduplicate
/// re-deliveries by `(tenant, seq)`, and the crash-recovery property
/// test asserts the committed `seq` sequence of an interrupted run is
/// identical to an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyEvent {
    /// Tenant the anomaly belongs to.
    pub tenant: String,
    /// Signal the anomaly was detected on.
    pub signal: String,
    /// Per-tenant emission sequence number (0-based, dense).
    pub seq: u64,
    /// Anomaly interval start (timestamp space).
    pub start: i64,
    /// Anomaly interval end (timestamp space).
    pub end: i64,
    /// Detection severity score.
    pub severity: f64,
    /// The tenant's detection-pass counter when this event was found.
    pub pass: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_event_construction() {
        let ev = IngestEvent::new("acme", "cpu", 42, 0.5);
        assert_eq!(ev.tenant, "acme");
        assert_eq!(ev.signal, "cpu");
        assert_eq!(ev.timestamp, 42);
        assert_eq!(ev.value, 0.5);
    }

    fn corpus(text: &str) -> Result<Vec<IngestEvent>, CsvError> {
        decode_corpus(text.as_bytes())
    }

    #[test]
    fn corpus_header_row_is_optional() {
        let rows = "acme,cpu,1,0.5\nguest, mem ,2,-1e3\n";
        let events = vec![
            IngestEvent::new("acme", "cpu", 1, 0.5),
            IngestEvent::new("guest", "mem", 2, -1e3),
        ];
        assert_eq!(corpus(rows), Ok(events.clone()));
        assert_eq!(corpus(&format!("tenant,signal,timestamp,value\n{rows}")), Ok(events.clone()));
        // Blank and `#` lines may come before the header.
        assert_eq!(
            corpus(&format!("\n# replay\ntenant,signal,timestamp,value\n{rows}")),
            Ok(events)
        );
    }

    #[test]
    fn corpus_comments_and_blank_lines_are_skipped() {
        let text = "# tenants\nacme,cpu,1,0.5\n\n  # mid-file\r\nacme,cpu,2,NaN\n";
        let events = corpus(text).expect("decodes");
        assert_eq!(events.len(), 2);
        assert_eq!((events[1].timestamp, events[1].value.is_nan()), (2, true));
    }

    #[test]
    fn corpus_rejections_name_their_line() {
        let error = |text: &str| corpus(text).expect_err("rejected");
        let e = error("acme,cpu,1,0.5\n\nacme,cpu,2\n");
        assert_eq!((e.line, e.message.as_str()), (3, "want tenant,signal,timestamp,value"));
        let e = error("acme,cpu,1,0.5,extra\n");
        assert_eq!((e.line, e.message.as_str()), (1, "want tenant,signal,timestamp,value"));
        // A non-integer timestamp is a header only on the first row.
        let e = error("tenant,signal,timestamp,value\n# c\nacme,cpu,1.5,0.5\n");
        assert_eq!(e.line, 3);
        assert!(e.message.starts_with("bad timestamp '1.5'"), "{e}");
        let e = error("acme,cpu,1,0.5\nacme,cpu,2,\n");
        assert_eq!(e.line, 2);
        assert!(e.message.starts_with("bad value ''"), "{e}");
        assert_eq!(e.to_string(), format!("csv parse error at line 2: {}", e.message));
    }

    #[test]
    fn admission_variants_compare() {
        assert_eq!(Admission::Accepted, Admission::Accepted);
        assert_eq!(Admission::Retry { after_ticks: 1 }, Admission::Retry { after_ticks: 1 });
        assert_ne!(Admission::Accepted, Admission::Shed);
    }
}

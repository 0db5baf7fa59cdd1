//! Self time of the program's existing spans, from a drained trace.
//!
//! A span's self time is its duration minus the union of the intervals
//! its children cover. Children on the same thread carry their parent's
//! id. Work handed to another thread (the run-policy watchdog, the
//! parallel pass pool) opens its spans with no parent; such a span is
//! attributed by containment: to the latest-starting span of the
//! expected parent kind whose interval holds it and that `compatible`
//! accepts.

use std::collections::BTreeMap;

use sintel_obs::{EventKind, FieldValue, TraceEvent};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id.
    pub id: u64,
    /// Same-thread parent id, if any.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Start, nanoseconds on the trace clock.
    pub start: u64,
    /// End, nanoseconds on the trace clock.
    pub end: u64,
    /// Structured fields recorded when the span opened.
    pub fields: Vec<(String, FieldValue)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// A string field, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                FieldValue::Str(s) => Some(s.as_str()),
                _ => None,
            })
    }
}

/// Pair open and close events into spans (spans still open are dropped).
pub fn spans(events: &[TraceEvent]) -> Vec<Span> {
    let mut open: BTreeMap<u64, &TraceEvent> = BTreeMap::new();
    let mut out = Vec::new();
    for event in events {
        match event.kind {
            EventKind::Open => {
                open.insert(event.id, event);
            }
            EventKind::Close => {
                if let Some(o) = open.remove(&event.id) {
                    out.push(Span {
                        id: o.id,
                        parent: o.parent,
                        name: o.name.clone(),
                        start: o.ts_ns,
                        end: event.ts_ns.max(o.ts_ns),
                        fields: o.fields.clone(),
                    });
                }
            }
        }
    }
    out.sort_by_key(|s| (s.start, s.id));
    out
}

/// Length of the union of `[start, end)` intervals, in nanoseconds.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Parent assignment for a trace: `parent_of[i]` is the index of span
/// `i`'s parent, by id or by containment.
pub struct Forest {
    /// The spans, sorted by start.
    pub spans: Vec<Span>,
    parent_of: Vec<Option<usize>>,
}

impl Forest {
    /// Link same-thread parents by id, then attribute each parentless
    /// span named in `adopt` (child prefix → parent name) by
    /// containment, among parents that `compatible(parent, child)`
    /// accepts.
    pub fn new(
        events: &[TraceEvent],
        adopt: &[(&str, &str)],
        compatible: impl Fn(&Span, &Span) -> bool,
    ) -> Self {
        let spans = spans(events);
        let index: BTreeMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut parent_of: Vec<Option<usize>> = spans
            .iter()
            .map(|s| s.parent.and_then(|p| index.get(&p).copied()))
            .collect();
        for (i, child) in spans.iter().enumerate() {
            if parent_of[i].is_some() {
                continue;
            }
            let Some(&(_, parent_name)) = adopt
                .iter()
                .find(|(prefix, _)| child.name.starts_with(prefix))
            else {
                continue;
            };
            // Spans are sorted by start, so the last match is the
            // latest-starting container.
            parent_of[i] = spans[..i]
                .iter()
                .enumerate()
                .rev()
                .find(|(_, p)| {
                    p.name == parent_name
                        && p.start <= child.start
                        && child.end <= p.end
                        && compatible(p, child)
                })
                .map(|(j, _)| j);
        }
        Self { spans, parent_of }
    }

    /// Spans whose name starts with `prefix` that have no parent, by id
    /// or by containment.
    pub fn roots(&self, prefix: &str) -> usize {
        self.spans
            .iter()
            .zip(&self.parent_of)
            .filter(|(s, p)| p.is_none() && s.name.starts_with(prefix))
            .count()
    }

    /// Self time of every span whose name starts with `prefix`, keyed
    /// by `key(span)`.
    pub fn self_ns(&self, prefix: &str, key: impl Fn(&Span) -> String) -> BTreeMap<String, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for (i, parent) in self.parent_of.iter().enumerate() {
            if let Some(p) = parent {
                children[*p].push((self.spans[i].start, self.spans[i].end));
            }
        }
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if !span.name.starts_with(prefix) {
                continue;
            }
            let covered = union_ns(&mut children[i]).min(span.duration());
            *out.entry(key(span)).or_default() += span.duration() - covered;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, id: u64, parent: Option<u64>, name: &str, ts: u64) -> TraceEvent {
        TraceEvent {
            kind,
            id,
            parent,
            name: name.to_string(),
            ts_ns: ts,
            duration_ns: None,
            fields: Vec::new(),
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_children_by_id_and_by_containment() {
        use EventKind::{Close, Open};
        let events = vec![
            ev(Open, 1, None, "serve.pass", 0),
            // Same thread: child by id.
            ev(Open, 2, Some(1), "pipeline.fit", 10),
            ev(Close, 2, Some(1), "pipeline.fit", 40),
            // Another thread: parentless, adopted by containment.
            ev(Open, 3, None, "pipeline.update", 50),
            ev(Close, 3, None, "pipeline.update", 80),
            ev(Close, 1, None, "serve.pass", 100),
            // Outside every pass: stays a root.
            ev(Open, 4, None, "pipeline.update", 200),
            ev(Close, 4, None, "pipeline.update", 210),
        ];
        let forest = Forest::new(&events, &[("pipeline.", "serve.pass")], |_, _| true);
        let pass = forest.self_ns("serve.pass", |_| "pass".into());
        assert_eq!(pass["pass"], 40);
        let pipeline = forest.self_ns("pipeline.", |_| "pipeline".into());
        assert_eq!(pipeline["pipeline"], 30 + 30 + 10);
        assert_eq!(forest.roots("pipeline."), 1);
    }
}

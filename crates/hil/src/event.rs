//! The reviewable event lifecycle.

use sintel_store::{Doc, SintelDb};
use sintel_timeseries::Interval;

use crate::Result;

/// Review status of a detected (or expert-created) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventStatus {
    /// Freshly detected, awaiting review.
    Unreviewed,
    /// Expert confirmed it is a real anomaly.
    Confirmed,
    /// Expert marked it as normal behaviour (false alarm).
    Rejected,
    /// Expert adjusted the boundaries.
    Modified,
    /// Expert created it manually (the ML missed it).
    Created,
    /// Flagged for further investigation.
    Investigate,
}

impl EventStatus {
    /// Stable string used in the knowledge base.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventStatus::Unreviewed => "unreviewed",
            EventStatus::Confirmed => "confirmed",
            EventStatus::Rejected => "rejected",
            EventStatus::Modified => "modified",
            EventStatus::Created => "created",
            EventStatus::Investigate => "investigate",
        }
    }

    /// Parse from the knowledge-base string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "unreviewed" => Some(Self::Unreviewed),
            "confirmed" => Some(Self::Confirmed),
            "rejected" => Some(Self::Rejected),
            "modified" => Some(Self::Modified),
            "created" => Some(Self::Created),
            "investigate" => Some(Self::Investigate),
            _ => None,
        }
    }
}

/// An anomalous event under review.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Knowledge-base id (0 before persistence).
    pub id: u64,
    /// Signal the event belongs to.
    pub signal: String,
    /// The anomalous span.
    pub interval: Interval,
    /// Detector severity score.
    pub severity: f64,
    /// Review status.
    pub status: EventStatus,
}

/// An expert's annotation action on an event (§2.4: confirming,
/// modifying, removing, searching and discussing events).
#[derive(Debug, Clone, PartialEq)]
pub enum AnnotationAction {
    /// Confirm the event as a true anomaly.
    Confirm,
    /// Remove / reject the event as normal behaviour.
    Remove,
    /// Adjust the event boundaries.
    Modify(Interval),
    /// Create a new event the detector missed.
    Create(Interval),
    /// Attach a free-form tag.
    Tag(String),
    /// Add a discussion comment.
    Comment(String),
}

impl AnnotationAction {
    /// Stable action name used in the knowledge base.
    pub fn name(&self) -> &'static str {
        match self {
            AnnotationAction::Confirm => "confirm",
            AnnotationAction::Remove => "remove",
            AnnotationAction::Modify(_) => "modify",
            AnnotationAction::Create(_) => "create",
            AnnotationAction::Tag(_) => "tag",
            AnnotationAction::Comment(_) => "comment",
        }
    }
}

/// Apply an annotation action to an event, persisting both the action
/// and the resulting state into the knowledge base as one WAL record:
/// a crash persists both or neither.
pub fn apply_action(
    db: &SintelDb,
    event: &mut Event,
    user_id: u64,
    action: &AnnotationAction,
) -> Result<()> {
    let scope = db.batch();
    match action {
        AnnotationAction::Confirm => {
            event.status = EventStatus::Confirmed;
            db.set_event_status(event.id, event.status.as_str())?;
        }
        AnnotationAction::Remove => {
            event.status = EventStatus::Rejected;
            db.set_event_status(event.id, event.status.as_str())?;
        }
        AnnotationAction::Modify(new_interval) => {
            event.interval = *new_interval;
            event.status = EventStatus::Modified;
            db.raw().patch(
                sintel_store::schema::collections::EVENTS,
                event.id,
                &[
                    ("start_time", Doc::from(new_interval.start)),
                    ("stop_time", Doc::from(new_interval.end)),
                    ("status", Doc::from(event.status.as_str())),
                ],
            )?;
        }
        AnnotationAction::Create(_) => {
            event.status = EventStatus::Created;
            db.set_event_status(event.id, event.status.as_str())?;
        }
        AnnotationAction::Tag(_) | AnnotationAction::Comment(_) => {}
    }
    match action {
        AnnotationAction::Comment(text) => db.add_comment(event.id, user_id, text)?,
        AnnotationAction::Tag(tag) => db.add_annotation(event.id, user_id, action.name(), tag)?,
        other => db.add_annotation(event.id, user_id, other.name(), "")?,
    };
    Ok(scope.commit()?)
}

/// Persist a freshly detected event and return the in-memory view.
pub fn persist_detected(
    db: &SintelDb,
    signalrun_id: u64,
    signal: &str,
    interval: Interval,
    severity: f64,
) -> Result<Event> {
    let id = db.add_event(signalrun_id, signal, interval.start, interval.end, severity)?;
    Ok(Event {
        id,
        signal: signal.to_string(),
        interval,
        severity,
        status: EventStatus::Unreviewed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_string_roundtrip() {
        for s in [
            EventStatus::Unreviewed,
            EventStatus::Confirmed,
            EventStatus::Rejected,
            EventStatus::Modified,
            EventStatus::Created,
            EventStatus::Investigate,
        ] {
            assert_eq!(EventStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(EventStatus::parse("bogus"), None);
    }

    #[test]
    fn actions_persist_to_knowledge_base() {
        let db = SintelDb::in_memory();
        let user = db.add_user("bob", "engineer").unwrap();
        let run = db.add_signalrun(1, "S-1", "done").unwrap();
        let mut event =
            persist_detected(&db, run, "S-1", Interval::new(100, 200).unwrap(), 0.8).unwrap();
        assert_eq!(event.status, EventStatus::Unreviewed);

        apply_action(&db, &mut event, user, &AnnotationAction::Confirm).unwrap();
        assert_eq!(event.status, EventStatus::Confirmed);
        let doc = db.events_for_signal("S-1").pop().unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("confirmed"));
        assert_eq!(db.annotations_for_event(event.id).len(), 1);

        apply_action(
            &db,
            &mut event,
            user,
            &AnnotationAction::Modify(Interval::new(90, 210).unwrap()),
        )
        .unwrap();
        let doc = db.events_for_signal("S-1").pop().unwrap();
        assert_eq!(doc.get("start_time").unwrap().as_i64(), Some(90));
        assert_eq!(event.interval.end, 210);

        apply_action(&db, &mut event, user, &AnnotationAction::Comment("maneuver".into()))
            .unwrap();
        assert_eq!(db.comments_for_event(event.id).len(), 1);

        apply_action(&db, &mut event, user, &AnnotationAction::Tag("eclipse".into())).unwrap();
        let annotations = db.annotations_for_event(event.id);
        assert!(annotations.iter().any(|a| a.get("tag").unwrap().as_str() == Some("eclipse")));
    }

    #[test]
    fn an_action_is_one_wal_record() {
        let dir = std::env::temp_dir().join(format!("sintel-hil-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = SintelDb::open(&dir).unwrap();
        let user = db.add_user("ada", "engineer").unwrap();
        let mut event =
            persist_detected(&db, 1, "S-1", Interval::new(10, 20).unwrap(), 0.5).unwrap();
        db.save().unwrap();
        apply_action(&db, &mut event, user, &AnnotationAction::Confirm).unwrap();
        drop(db);
        let db = SintelDb::open(&dir).unwrap();
        assert_eq!(db.recovery().wal_replayed_batches, 1, "status and annotation commit together");
        let doc = db.events_for_signal("S-1").pop().unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("confirmed"));
        assert_eq!(db.annotations_for_event(event.id).len(), 1);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_marks_rejected() {
        let db = SintelDb::in_memory();
        let user = db.add_user("eve", "engineer").unwrap();
        let mut event =
            persist_detected(&db, 1, "S-1", Interval::new(0, 5).unwrap(), 0.1).unwrap();
        apply_action(&db, &mut event, user, &AnnotationAction::Remove).unwrap();
        assert_eq!(event.status, EventStatus::Rejected);
    }
}

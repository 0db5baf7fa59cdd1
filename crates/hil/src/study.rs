//! The real-world use-case simulation behind Figure 8b.
//!
//! The paper's study: 16 telemetry signals spanning 5+ years from the
//! collaborating satellite operator, 6 senior experts, and a posteriori
//! tracing of 110 human-tagged events — 52.7% deemed normal, 11
//! confirmed anomalies, 6 manually added events, the rest marked for
//! further investigation; 27 of the 110 events had been missed by the ML
//! model (§4, §5: lunar eclipses look normal but matter; maneuvers look
//! anomalous but are routine).
//!
//! Real operator telemetry is proprietary, so this module reconstructs
//! the *process*: synthetic telemetry channels with known anomalies plus
//! routine-but-odd maneuvers and eclipse-like reference events, a
//! detector pass, and six scripted expert personas that tag the combined
//! event set. All activity is persisted to the knowledge base.

use sintel_common::SintelRng;
use sintel_store::SintelDb;
use sintel_timeseries::Interval;

use crate::event::EventStatus;
use crate::Result;

/// Tag taxonomy of the study (Figure 8b rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StudyTag {
    /// Event traced back and deemed normal behaviour.
    Normal,
    /// Confirmed anomaly.
    ConfirmedAnomaly,
    /// New event created by an expert (the ML missed it).
    NewEvent,
    /// Needs further investigation before a verdict.
    FurtherInvestigation,
}

/// Aggregated tag counts for one column of Figure 8b.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagCounts {
    /// Deemed normal.
    pub normal: usize,
    /// Confirmed anomalies.
    pub confirmed: usize,
    /// Expert-created events.
    pub added: usize,
    /// Flagged for further investigation.
    pub investigate: usize,
}

impl TagCounts {
    /// Total events in the column.
    pub fn total(&self) -> usize {
        self.normal + self.confirmed + self.added + self.investigate
    }
}

/// Outcome of the study simulation (the two columns of Figure 8b).
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// Events the ML identified and presented to the experts.
    pub ml_presented: TagCounts,
    /// Events the ML missed but experts marked.
    pub ml_missed: TagCounts,
    /// Number of signals in the study.
    pub signals: usize,
    /// Number of participating experts.
    pub experts: usize,
}

impl StudyOutcome {
    /// Total tagged events.
    pub fn total_events(&self) -> usize {
        self.ml_presented.total() + self.ml_missed.total()
    }

    /// Fraction of events deemed normal (paper: 52.7%).
    pub fn normal_fraction(&self) -> f64 {
        (self.ml_presented.normal + self.ml_missed.normal) as f64
            / self.total_events().max(1) as f64
    }
}

/// Configuration of the study simulation.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Telemetry channels reviewed (paper: 16).
    pub signals: usize,
    /// Expert personas (paper: 6).
    pub experts: usize,
    /// Target number of tagged events (paper: 110).
    pub events: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self { signals: 16, experts: 6, events: 110, seed: 42 }
    }
}

/// The character of one event in the simulated operations timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventNature {
    /// Genuine fault (thermal excursion, power dip…).
    TrueAnomaly,
    /// Routine maneuver: looks odd, is normal (paper §5).
    Maneuver,
    /// Eclipse-like reference event: looks normal, worth recording.
    Eclipse,
    /// Detector noise: nothing there.
    Spurious,
}

/// Run the simulated study, persisting everything to `db`.
pub fn run_study(cfg: &StudyConfig, db: &SintelDb) -> Result<StudyOutcome> {
    let mut rng = SintelRng::seed_from_u64(cfg.seed);

    // Register the cast.
    let expert_ids: Vec<u64> = (0..cfg.experts)
        .map(|i| db.add_user(&format!("expert-{i}"), "senior satellite engineer"))
        .collect::<std::result::Result<_, _>>()?;
    db.add_dataset("SATOPS", "satellite telemetry")?;
    let signal_names: Vec<String> = (0..cfg.signals)
        .map(|i| {
            let name = format!("SATOPS/CH-{i:02}");
            db.add_signal(&name, "SATOPS", 0, 5 * 365 * 86_400).map(|_| name)
        })
        .collect::<std::result::Result<_, _>>()?;
    let exp = db.add_experiment("satellite-study", "SATOPS", "lstm_dynamic_threshold")?;

    // Build the event population. Detection characteristics mirror the
    // paper's observations: the ML surfaces true anomalies *and* odd-
    // looking routine behaviour (maneuvers); it misses normal-shaped
    // reference events (eclipses) and a share of subtle anomalies.
    let mut presented = TagCounts::default();
    let mut missed = TagCounts::default();

    for k in 0..cfg.events {
        let signal = &signal_names[rng.index(signal_names.len())];
        let run = db.add_signalrun(exp, signal, "done")?;
        let start = rng.int_range(0, 5 * 365 * 86_400 - 7_200);
        let interval = Interval::new(start, start + rng.int_range(600, 7_200))
            .expect("positive duration");

        // Population mix chosen to land near the published proportions.
        let nature = match rng.uniform() {
            u if u < 0.133 => EventNature::TrueAnomaly,
            u if u < 0.433 => EventNature::Maneuver,
            u if u < 0.653 => EventNature::Eclipse,
            _ => EventNature::Spurious,
        };
        // Detection odds per nature: odd shapes get caught, normal
        // shapes slip through.
        let detected = match nature {
            EventNature::TrueAnomaly => rng.chance(0.70),
            EventNature::Maneuver => rng.chance(0.92),
            EventNature::Spurious => true, // spurious = detector output
            EventNature::Eclipse => rng.chance(0.20),
        };

        // The reviewing expert (events can be discussed by several; the
        // first reviewer's verdict is recorded as the tag).
        let reviewer = expert_ids[rng.index(expert_ids.len())];
        let tag = match nature {
            EventNature::TrueAnomaly => {
                if rng.chance(0.80) {
                    StudyTag::ConfirmedAnomaly
                } else {
                    StudyTag::FurtherInvestigation
                }
            }
            EventNature::Maneuver => {
                // Routine once traced back, though a chunk stays open.
                if rng.chance(0.65) {
                    StudyTag::Normal
                } else {
                    StudyTag::FurtherInvestigation
                }
            }
            EventNature::Eclipse => {
                if detected {
                    // Presented by the ML: traced back to normal.
                    StudyTag::Normal
                } else if rng.chance(0.33) {
                    // Worth recording for future reference.
                    StudyTag::NewEvent
                } else if rng.chance(0.6) {
                    StudyTag::Normal
                } else {
                    StudyTag::FurtherInvestigation
                }
            }
            EventNature::Spurious => {
                if rng.chance(0.65) {
                    StudyTag::Normal
                } else {
                    StudyTag::FurtherInvestigation
                }
            }
        };

        // Persist: event, annotation, and the occasional discussion.
        let event_id = db.add_event(run, signal, interval.start, interval.end, rng.uniform())?;
        let status = match tag {
            StudyTag::Normal => EventStatus::Rejected,
            StudyTag::ConfirmedAnomaly => EventStatus::Confirmed,
            StudyTag::NewEvent => EventStatus::Created,
            StudyTag::FurtherInvestigation => EventStatus::Investigate,
        };
        db.set_event_status(event_id, status.as_str())?;
        let tag_name = match tag {
            StudyTag::Normal => "normal",
            StudyTag::ConfirmedAnomaly => "anomaly",
            StudyTag::NewEvent => "new event",
            StudyTag::FurtherInvestigation => "investigate",
        };
        db.add_annotation(event_id, reviewer, "tag", tag_name)?;
        if rng.chance(0.3) {
            let second = expert_ids[rng.index(expert_ids.len())];
            db.add_comment(event_id, second, "discussed in weekly ops review")?;
        }
        let _ = k;

        let column = if detected { &mut presented } else { &mut missed };
        match tag {
            StudyTag::Normal => column.normal += 1,
            StudyTag::ConfirmedAnomaly => column.confirmed += 1,
            StudyTag::NewEvent => column.added += 1,
            StudyTag::FurtherInvestigation => column.investigate += 1,
        }
    }

    Ok(StudyOutcome {
        ml_presented: presented,
        ml_missed: missed,
        signals: cfg.signals,
        experts: cfg.experts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_shape_matches_paper() {
        let db = SintelDb::in_memory();
        let outcome = run_study(&StudyConfig::default(), &db).unwrap();
        assert_eq!(outcome.total_events(), 110);
        assert_eq!(outcome.signals, 16);
        assert_eq!(outcome.experts, 6);
        // Paper: 52.7% normal, 11 confirmed, 6 added, 27/110 missed.
        let normal_frac = outcome.normal_fraction();
        assert!((0.40..0.65).contains(&normal_frac), "normal {normal_frac}");
        let confirmed = outcome.ml_presented.confirmed + outcome.ml_missed.confirmed;
        assert!((5..=20).contains(&confirmed), "confirmed {confirmed}");
        let added = outcome.ml_presented.added + outcome.ml_missed.added;
        assert!((1..=15).contains(&added), "added {added}");
        let missed = outcome.ml_missed.total();
        assert!((15..=45).contains(&missed), "missed {missed}");
        // Added events only arise in the missed column.
        assert_eq!(outcome.ml_presented.added, 0);
    }

    #[test]
    fn study_persists_to_knowledge_base() {
        let db = SintelDb::in_memory();
        let outcome = run_study(&StudyConfig { events: 40, ..Default::default() }, &db).unwrap();
        use sintel_store::{schema::collections, Filter};
        assert_eq!(db.raw().count(collections::EVENTS, &Filter::All), 40);
        assert_eq!(db.raw().count(collections::ANNOTATIONS, &Filter::All), 40);
        assert_eq!(db.raw().count(collections::USERS, &Filter::All), 6);
        assert_eq!(db.raw().count(collections::SIGNALS, &Filter::All), 16);
        assert_eq!(outcome.total_events(), 40);
        // Some discussion happened.
        assert!(db.raw().count(collections::COMMENTS, &Filter::All) > 0);
    }

    #[test]
    fn study_is_deterministic() {
        let a = run_study(&StudyConfig::default(), &SintelDb::in_memory()).unwrap();
        let b = run_study(&StudyConfig::default(), &SintelDb::in_memory()).unwrap();
        assert_eq!(a.ml_presented, b.ml_presented);
        assert_eq!(a.ml_missed, b.ml_missed);
    }
}

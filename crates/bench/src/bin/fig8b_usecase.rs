//! **Figure 8b** — tags collected in the real-world satellite use case.
//!
//! The paper's study: 16 signals spanning 5+ years, 6 experts, 110
//! human-tagged events traced back a posteriori — 52.7% deemed normal,
//! 11 confirmed anomalies, 6 manually added events, the rest marked for
//! further investigation; 27/110 events had been missed by the ML model
//! (eclipse-like events look normal; maneuvers look anomalous but are
//! routine). Proprietary telemetry is simulated per DESIGN.md §2.
//!
//! Run: `cargo run -p sintel-bench --bin fig8b_usecase`

use sintel_hil::study::{run_study, StudyConfig};
use sintel_store::SintelDb;

fn main() {
    let db = SintelDb::in_memory();
    let cfg = StudyConfig::default();
    let outcome = run_study(&cfg, &db).expect("study run");

    println!(
        "Figure 8b: collected tags ({} signals, {} experts, {} events)\n",
        outcome.signals,
        outcome.experts,
        outcome.total_events()
    );
    println!(
        "{:<26} {:>16} {:>16} {:>8}",
        "tag", "identified by ML", "missed by ML", "total"
    );
    let rows = [
        ("normal", outcome.ml_presented.normal, outcome.ml_missed.normal),
        ("confirmed anomaly", outcome.ml_presented.confirmed, outcome.ml_missed.confirmed),
        ("new event (added)", outcome.ml_presented.added, outcome.ml_missed.added),
        (
            "further investigation",
            outcome.ml_presented.investigate,
            outcome.ml_missed.investigate,
        ),
    ];
    for (tag, presented, missed) in rows {
        println!("{:<26} {:>16} {:>16} {:>8}", tag, presented, missed, presented + missed);
    }
    println!(
        "{:<26} {:>16} {:>16} {:>8}",
        "total",
        outcome.ml_presented.total(),
        outcome.ml_missed.total(),
        outcome.total_events()
    );
    println!(
        "\nnormal fraction: {:.1}% (paper: 52.7%)   missed by ML: {}/{} (paper: 27/110)",
        100.0 * outcome.normal_fraction(),
        outcome.ml_missed.total(),
        outcome.total_events()
    );

    use sintel_store::{schema::collections, Filter};
    println!(
        "knowledge base now holds {} events, {} annotations, {} comments.",
        db.raw().count(collections::EVENTS, &Filter::All),
        db.raw().count(collections::ANNOTATIONS, &Filter::All),
        db.raw().count(collections::COMMENTS, &Filter::All),
    );
}

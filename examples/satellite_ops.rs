//! Satellite operations — the paper's §2.1 real-world scenario as a
//! runnable end-to-end session: a fleet of telemetry channels flows
//! through an unsupervised pipeline, detections land in the persistent
//! knowledge base, the operations team inspects them through the REST
//! API and the multi-aggregation viewer, and the weekly batch feeds
//! expert annotations back into a semi-supervised pipeline.
//!
//! Run: `cargo run --release --example satellite_ops`

use sintel::api::{Request, RestApi};
use sintel::Sintel;
use sintel_common::SintelRng;
use sintel_datasets::synth::{inject, AnomalyKind, BaseSignal};
use sintel_hil::event::{apply_action, persist_detected};
use sintel_hil::viz::multi_aggregation_view;
use sintel_hil::{AnnotationAction, Annotator, SimulatedExpert};
use sintel_store::{Doc, SintelDb};
use sintel_timeseries::{Interval, Signal};

/// One spacecraft telemetry channel with a known fault.
fn channel(idx: u64, fault: Option<(usize, usize, AnomalyKind)>) -> (Signal, Vec<Interval>) {
    let mut rng = SintelRng::seed_from_u64(0x5A7 + idx);
    let base = BaseSignal {
        level: rng.uniform_range(-0.5, 0.5),
        seasonal: vec![(0.6, 96.0, rng.uniform_range(0.0, 6.0))],
        noise: 0.03,
        quantize: 0.05,
        ..Default::default()
    };
    let mut values = base.render(1800, &mut rng);
    let mut truth = Vec::new();
    if let Some((s, e, kind)) = fault {
        inject(&mut values, s, e, kind, 5.0, &mut rng);
        truth.push(Interval::new(s as i64 * 60, e as i64 * 60).expect("ordered"));
    }
    let ts: Vec<i64> = (0..values.len() as i64).map(|t| t * 60).collect();
    (
        Signal::univariate(format!("SAT/CH-{idx:02}"), ts, values).expect("valid"),
        truth,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The operations fleet: four channels, two carrying faults.
    let fleet: Vec<(Signal, Vec<Interval>)> = vec![
        channel(0, Some((700, 760, AnomalyKind::AmplitudeChange))),
        channel(1, None),
        channel(2, Some((1200, 1280, AnomalyKind::Flatline))),
        channel(3, None),
    ];

    // Persistent knowledge base on disk (as the paper's mongoDB).
    let dir = std::env::temp_dir().join("sintel-satellite-ops");
    let _ = std::fs::remove_dir_all(&dir);
    let db = SintelDb::open(&dir)?;
    db.add_dataset("SAT", "spacecraft telemetry")?;
    let operator = db.add_user("ops-team", "satellite engineer")?;
    for (signal, _) in &fleet {
        db.add_signal(signal.name(), "SAT", signal.start().unwrap(), signal.end().unwrap())?;
    }

    // Detection sweep with the knowledge base attached: every event is
    // logged automatically.
    let mut sintel = Sintel::new("lstm_autoencoder")?.with_db(db);
    let mut all_events = Vec::new();
    for (signal, _) in &fleet {
        let (train, _) = signal.split(0.5)?;
        sintel.fit(&train)?;
        let anomalies = sintel.detect(signal)?;
        println!("{}: {} events flagged", signal.name(), anomalies.len());
        all_events.push(anomalies);
    }

    // Persist the detection session, then open a second session onto
    // the same knowledge base — the on-call engineer's REST API view.
    sintel.db().unwrap().save()?;
    let api = RestApi::new(SintelDb::open(&dir)?);
    let sintel::api::Response::Ok(Doc::Arr(events)) = api.handle(&Request::get("/events"))
    else {
        panic!("expected event list")
    };
    println!("\nREST GET /events -> {} events pending review", events.len());

    // Review with the multi-aggregation viewer and annotate.
    let truth: Vec<(String, Vec<Interval>)> = fleet
        .iter()
        .map(|(s, t)| (s.name().to_string(), t.clone()))
        .collect();
    let mut expert = SimulatedExpert::new(truth, 1.0, 11);
    let mut confirmed = 0;
    for (fleet_idx, anomalies) in all_events.iter().enumerate() {
        let (signal, _) = &fleet[fleet_idx];
        for a in anomalies {
            let mut event = persist_detected(
                api.db(),
                fleet_idx as u64 + 100,
                signal.name(),
                a.interval,
                a.score,
            )?;
            let action = expert.review(&event);
            if matches!(action, AnnotationAction::Confirm) {
                confirmed += 1;
                println!(
                    "\nconfirmed anomaly on {} at [{} .. {}]:",
                    signal.name(),
                    a.interval.start,
                    a.interval.end
                );
                let view = multi_aggregation_view(signal, &[a.interval], &[1, 8], 90, 7);
                println!("{view}");
            }
            apply_action(api.db(), &mut event, operator, &action)?;
        }
    }
    println!("review done: {confirmed} events confirmed as anomalies.");

    // Everything survives a restart.
    api.db().save()?;
    let reopened = SintelDb::open(&dir)?;
    use sintel_store::{schema::collections, Filter};
    println!(
        "knowledge base on disk: {} events, {} annotations across sessions.",
        reopened.raw().count(collections::EVENTS, &Filter::All),
        reopened.raw().count(collections::ANNOTATIONS, &Filter::All),
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

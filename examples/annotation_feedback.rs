//! Human-in-the-loop annotation and feedback — the Figure 1 workflow.
//!
//! An unsupervised pipeline proposes events; an expert (simulated here,
//! as in the paper's own feedback evaluation) confirms, rejects, tags
//! and discusses them; every action lands in the knowledge base; and the
//! semi-supervised pipeline of Figure 2b learns from the verified
//! sequences, improving with each annotation round.
//!
//! Run: `cargo run --release --example annotation_feedback`

use sintel_common::SintelRng;
use sintel_datasets::synth::{inject, AnomalyKind, BaseSignal};
use sintel_hil::event::{apply_action, persist_detected};
use sintel_hil::{
    AnnotationAction, Annotator, FeedbackLoop, RetrainPolicy, ReviewStrategy, SimulatedExpert,
};
use sintel_pipeline::hub;
use sintel_store::SintelDb;
use sintel_timeseries::{Interval, Signal};

fn telemetry(seed: u64, n: usize, events: &[(usize, usize)]) -> (Signal, Vec<Interval>) {
    let mut rng = SintelRng::seed_from_u64(seed);
    let base = BaseSignal {
        level: 20.0,
        seasonal: vec![(4.0, 96.0, 0.7)],
        noise: 0.5,
        ..Default::default()
    };
    let mut values = base.render(n, &mut rng);
    let mut truth = Vec::new();
    for &(s, e) in events {
        inject(&mut values, s, e, AnomalyKind::LevelShift, 5.0, &mut rng);
        truth.push(Interval::new(s as i64, e as i64).expect("ordered"));
    }
    (Signal::from_values("train", values), truth)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, train_truth) = telemetry(
        1,
        3600,
        &[(300, 340), (800, 850), (1400, 1430), (2200, 2250), (3000, 3040)],
    );
    let (test, test_truth) =
        telemetry(2, 1400, &[(250, 290), (650, 700), (1100, 1150)]);
    let test = test.with_name("test");

    // Phase 1: unsupervised proposals.
    let mut unsup = hub::build_pipeline("arima")?;
    let proposals = unsup.fit_detect(&train, &train)?;
    println!("unsupervised pipeline proposed {} events", proposals.len());

    // Phase 2: an expert reviews them through the annotation API, every
    // action persisted to the knowledge base.
    let db = SintelDb::in_memory();
    let user = db.add_user("dana", "satellite engineer")?;
    let run = db.add_signalrun(1, "train", "done")?;
    let mut expert =
        SimulatedExpert::new(vec![("train".to_string(), train_truth.clone())], 1.0, 3);
    for proposal in &proposals {
        let mut event = persist_detected(&db, run, "train", proposal.interval, proposal.score)?;
        let action = expert.review(&event);
        apply_action(&db, &mut event, user, &action)?;
        if matches!(action, AnnotationAction::Confirm) {
            apply_action(
                &db,
                &mut event,
                user,
                &AnnotationAction::Comment("confirmed after checking the ops log".into()),
            )?;
        }
        println!(
            "  event [{} .. {}] -> {}",
            event.interval.start,
            event.interval.end,
            action.name()
        );
    }
    use sintel_store::{schema::collections, Filter};
    println!(
        "knowledge base: {} events, {} annotations, {} comments\n",
        db.raw().count(collections::EVENTS, &Filter::All),
        db.raw().count(collections::ANNOTATIONS, &Filter::All),
        db.raw().count(collections::COMMENTS, &Filter::All),
    );

    // Phase 3: the feedback loop — retrain the semi-supervised pipeline
    // after every k = 2 annotations and watch test F1 climb. The review
    // queue here is uncertainty-first (active learning) and retraining
    // is skipped for batches that confirmed nothing (the paper's §5
    // "decide when to retrain" cost optimisation).
    let mut expert =
        SimulatedExpert::new(vec![("train".to_string(), train_truth)], 1.0, 7);
    let cfg = FeedbackLoop {
        epochs: 50,
        strategy: ReviewStrategy::UncertaintyFirst,
        retrain: RetrainPolicy::OnNewAnomaly,
        ..Default::default()
    };
    let points = cfg.run(&mut expert, &train, &test, &test_truth, &proposals)?;
    println!("feedback loop (k = 2, uncertainty-first queue, lazy retraining):");
    for p in &points {
        let bar = "#".repeat((p.f1 * 30.0).round() as usize);
        let tag = if p.retrained { "" } else { "  (retrain skipped)" };
        println!(
            "  after {:>2} annotations: test F1 {:.3} {bar}{tag}",
            p.annotations, p.f1
        );
    }
    let retrains = points.iter().filter(|p| p.retrained).count();
    println!(
        "retrained {retrains}/{} iterations — annotations that only rejected\n\
         false alarms did not trigger a retraining pass.",
        points.len()
    );
    Ok(())
}

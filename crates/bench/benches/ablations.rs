//! Ablation benches for the design choices DESIGN.md §4 calls out:
//!
//! * dynamic (Hundman) vs fixed k·σ thresholding — cost and yield;
//! * GP tuner vs random search at equal budget — time per proposal;
//! * indexed vs full-scan store queries;
//! * error smoothing on vs off in `regression_errors`;
//! * weighted vs overlapping segment scoring.

use sintel_common::microbench::Criterion;
use sintel_common::{criterion_group, criterion_main};
use std::hint::black_box;

use sintel_common::SintelRng;
use sintel_stats::threshold::{dynamic_threshold, fixed_threshold, ThresholdParams};
use sintel_store::{Doc, Filter, SintelDb};
use sintel_timeseries::Interval;
use sintel_tuner::{DimSpec, GpTuner, RandomTuner, Space, Tuner};

fn errors_with_bursts(n: usize) -> Vec<f64> {
    let mut rng = SintelRng::seed_from_u64(3);
    let mut errors: Vec<f64> = (0..n).map(|_| rng.normal(1.0, 0.15).abs()).collect();
    for burst in 0..4 {
        let at = (burst + 1) * n / 5;
        for e in &mut errors[at..at + 12] {
            *e += 4.0;
        }
    }
    errors
}

fn threshold_ablation(c: &mut Criterion) {
    let errors = errors_with_bursts(4000);
    let mut group = c.benchmark_group("threshold");
    group.sample_size(20);
    group.bench_function("dynamic_hundman", |b| {
        let params = ThresholdParams::default();
        b.iter(|| black_box(dynamic_threshold(black_box(&errors), &params).expect("valid params")));
    });
    group.bench_function("fixed_3sigma", |b| {
        b.iter(|| black_box(fixed_threshold(black_box(&errors), 3.0).expect("valid k")));
    });
    group.finish();
}

fn tuner_ablation(c: &mut Criterion) {
    let space = Space::new(vec![DimSpec::Float { lo: 0.0, hi: 1.0, log: false }; 4]);
    let objective = |x: &[f64]| -> f64 {
        -x.iter().map(|v| (v - 0.4) * (v - 0.4)).sum::<f64>()
    };
    let mut group = c.benchmark_group("tuner_30_evals");
    group.sample_size(10);
    group.bench_function("gp", |b| {
        b.iter(|| {
            let mut tuner = GpTuner::new(space.clone(), 1);
            for _ in 0..30 {
                let p = tuner.propose().unwrap();
                let s = objective(&p);
                tuner.record(p, s);
            }
            black_box(tuner.best().map(|(_, s)| s))
        });
    });
    group.bench_function("random", |b| {
        b.iter(|| {
            let mut tuner = RandomTuner::new(space.clone(), 1);
            for _ in 0..30 {
                let p = tuner.propose().unwrap();
                let s = objective(&p);
                tuner.record(p, s);
            }
            black_box(tuner.best().map(|(_, s)| s))
        });
    });
    group.finish();
}

fn store_index_ablation(c: &mut Criterion) {
    let build = |indexed: bool| {
        let db = SintelDb::in_memory(); // indexes events.signal by default
        let raw = db.raw();
        if !indexed {
            // A parallel unindexed collection with identical content.
            for i in 0..5_000 {
                raw.insert(
                    "events_unindexed",
                    Doc::obj().with("signal", format!("S-{}", i % 100)).with("n", i as i64),
                )
                .expect("in-memory insert");
            }
        } else {
            for i in 0..5_000 {
                raw.insert(
                    sintel_store::schema::collections::EVENTS,
                    Doc::obj().with("signal", format!("S-{}", i % 100)).with("n", i as i64),
                )
                .expect("in-memory insert");
            }
        }
        db
    };
    let indexed = build(true);
    let scanned = build(false);
    let filter = Filter::eq("signal", "S-42");
    let mut group = c.benchmark_group("store_query_5k_docs");
    group.bench_function("indexed", |b| {
        b.iter(|| {
            black_box(
                indexed
                    .raw()
                    .find(sintel_store::schema::collections::EVENTS, black_box(&filter)),
            )
        });
    });
    group.bench_function("full_scan", |b| {
        b.iter(|| black_box(scanned.raw().find("events_unindexed", black_box(&filter))));
    });
    group.finish();
}

fn scoring_ablation(c: &mut Criterion) {
    let mut rng = SintelRng::seed_from_u64(11);
    let mk = |n: usize, rng: &mut SintelRng| -> Vec<Interval> {
        (0..n)
            .map(|_| {
                let s = rng.int_range(0, 1_000_000);
                Interval::new(s, s + rng.int_range(1, 2_000)).unwrap()
            })
            .collect()
    };
    let truth = mk(200, &mut rng);
    let pred = mk(300, &mut rng);
    let mut group = c.benchmark_group("segment_scoring_200x300");
    group.bench_function("overlapping", |b| {
        b.iter(|| black_box(sintel_metrics::overlapping_segment(&truth, &pred)));
    });
    group.bench_function("weighted", |b| {
        b.iter(|| black_box(sintel_metrics::weighted_segment(&truth, &pred)));
    });
    group.finish();
}

fn smoothing_ablation(c: &mut Criterion) {
    use sintel_primitives::{Context, HyperValue, Value};
    let n = 8_000;
    let mut rng = SintelRng::seed_from_u64(5);
    let preds: Vec<f64> = (0..n).map(|_| rng.normal(0.0, 1.0)).collect();
    let targets: Vec<f64> = (0..n).map(|_| rng.normal(0.0, 1.0)).collect();
    let mut ctx = Context::new();
    ctx.set("predictions", Value::Series(preds));
    ctx.set("targets", Value::Series(targets));
    ctx.set("index_timestamps", Value::Timestamps((0..n as i64).collect()));

    let mut group = c.benchmark_group("regression_errors_8k");
    for (label, smooth) in [("smoothing_on", true), ("smoothing_off", false)] {
        group.bench_function(label, |b| {
            let mut prim = sintel_primitives::build_primitive("regression_errors").unwrap();
            prim.set_hyperparam("smooth", HyperValue::Flag(smooth)).unwrap();
            b.iter(|| black_box(prim.produce(black_box(&ctx)).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    threshold_ablation,
    tuner_ablation,
    store_index_ablation,
    scoring_ablation,
    smoothing_ablation
);
criterion_main!(benches);

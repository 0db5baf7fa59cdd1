//! Ablation benches for the design choices DESIGN.md §4 calls out:
//!
//! * dynamic (Hundman) vs fixed k·σ thresholding — cost and yield;
//! * GP tuner vs random search at equal budget — time per proposal;
//! * indexed vs full-scan store queries;
//! * error smoothing on vs off in `regression_errors`;
//! * weighted vs overlapping segment scoring;
//! * store durability levels: per-op append at `snapshot` / `wal` /
//!   `wal-sync`, batched `wal-sync`, WAL replay and compaction (§4f).
//!
//! Every row is the median over samples, printed to the console.
//!
//! Run: `cargo bench -p sintel-bench --bench ablations`

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sintel_bench::median_time;
use sintel_common::SintelRng;
use sintel_stats::threshold::{dynamic_threshold, fixed_threshold, ThresholdParams};
use sintel_store::{Database, Doc, Durability, Filter, SintelDb, StoreOptions};
use sintel_timeseries::Interval;
use sintel_tuner::{DimSpec, GpTuner, RandomTuner, Space, Tuner};

/// Wall-clock budget of one sample of a [`bench`] row.
const SAMPLE_BUDGET: Duration = Duration::from_millis(10);

/// Print the median time of one call of `f` over `samples` samples as
/// the row `name`. Each sample times a batch of calls sized to
/// [`SAMPLE_BUDGET`] by one warm-up call, so microsecond calls stay
/// above the clock's resolution.
fn bench<O>(name: &str, samples: usize, mut f: impl FnMut() -> O) {
    let start = Instant::now();
    black_box(f());
    let once = start.elapsed().max(Duration::from_nanos(1));
    let iters = (SAMPLE_BUDGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;
    let median = median_time(samples, || {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed() / iters
    });
    println!("{name:<44} median {:>12}  ({samples} samples)", fmt(median));
}

fn fmt(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

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

fn threshold_ablation() {
    let errors = errors_with_bursts(4000);
    let params = ThresholdParams::default();
    bench("threshold/dynamic_hundman", 20, || {
        dynamic_threshold(black_box(&errors), &params).expect("valid params")
    });
    bench("threshold/fixed_3sigma", 20, || {
        fixed_threshold(black_box(&errors), 3.0).expect("valid k")
    });
}

fn tuner_ablation() {
    let space = Space::new(vec![DimSpec::Float { lo: 0.0, hi: 1.0, log: false }; 4]);
    let objective = |x: &[f64]| -> f64 {
        -x.iter().map(|v| (v - 0.4) * (v - 0.4)).sum::<f64>()
    };
    bench("tuner_30_evals/gp", 10, || {
        let mut tuner = GpTuner::new(space.clone(), 1);
        for _ in 0..30 {
            let p = tuner.propose().unwrap();
            let s = objective(&p);
            tuner.record(p, s);
        }
        tuner.best().map(|(_, s)| s)
    });
    bench("tuner_30_evals/random", 10, || {
        let mut tuner = RandomTuner::new(space.clone(), 1);
        for _ in 0..30 {
            let p = tuner.propose().unwrap();
            let s = objective(&p);
            tuner.record(p, s);
        }
        tuner.best().map(|(_, s)| s)
    });
}

fn store_index_ablation() {
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
    bench("store_query_5k_docs/indexed", 30, || {
        indexed.raw().find(sintel_store::schema::collections::EVENTS, black_box(&filter))
    });
    bench("store_query_5k_docs/full_scan", 30, || {
        scanned.raw().find("events_unindexed", black_box(&filter))
    });
}

fn scoring_ablation() {
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
    bench("segment_scoring_200x300/overlapping", 30, || {
        sintel_metrics::overlapping_segment(&truth, &pred)
    });
    bench("segment_scoring_200x300/weighted", 30, || {
        sintel_metrics::weighted_segment(&truth, &pred)
    });
}

fn smoothing_ablation() {
    use sintel_primitives::{Context, HyperValue, Value};
    let n = 8_000;
    let mut rng = SintelRng::seed_from_u64(5);
    let preds: Vec<f64> = (0..n).map(|_| rng.normal(0.0, 1.0)).collect();
    let targets: Vec<f64> = (0..n).map(|_| rng.normal(0.0, 1.0)).collect();
    let mut ctx = Context::new();
    ctx.set("predictions", Value::Series(preds));
    ctx.set("targets", Value::Series(targets));
    ctx.set("index_timestamps", Value::Timestamps((0..n as i64).collect()));

    for (label, smooth) in [("smoothing_on", true), ("smoothing_off", false)] {
        let mut prim = sintel_primitives::build_primitive("regression_errors").unwrap();
        prim.set_hyperparam("smooth", HyperValue::Flag(smooth)).unwrap();
        let name = format!("regression_errors_8k/{label}");
        bench(&name, 30, || prim.produce(black_box(&ctx)).unwrap());
    }
}

/// A fresh, empty store directory for one durability sample.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("sintel-ablation-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_doc(i: usize) -> Doc {
    Doc::obj()
        .with("signal", format!("signal-{:04}", i % 97))
        .with("score", (i as f64) * 0.125)
        .with("tag", if i.is_multiple_of(3) { "anomaly" } else { "normal" })
}

/// Open `dir` at `durability` with compaction disabled, so each row
/// measures one phase and the log never folds mid-measurement.
fn open_store(dir: &std::path::Path, durability: Durability) -> Database {
    Database::open_with(dir, StoreOptions { durability, compact_threshold: u64::MAX })
        .expect("open store")
}

/// Print a durability row as docs/sec at the median sample time.
fn store_row(name: &str, median: Duration, docs: usize, samples: usize) {
    let rate = docs as f64 / median.as_secs_f64().max(1e-9);
    println!(
        "{:<44} median {:>12}  {rate:>10.0} docs/s  ({docs} docs, {samples} samples)",
        format!("store_durability/{name}"),
        fmt(median),
    );
}

/// Durability-path cost of the WAL-backed knowledge base (DESIGN.md
/// §4f). Expected shape: batched `wal-sync` ≈ `snapshot` ≫ per-op
/// `wal-sync`; replay and compaction are linear in log size.
fn store_durability_ablation() {
    const SAMPLES: usize = 5;
    let n = 5_000;
    // Per-op fsync is orders of magnitude slower; keep it bounded.
    let n_sync = 250;
    for (durability, docs) in
        [(Durability::Snapshot, n), (Durability::Wal, n), (Durability::WalSync, n_sync)]
    {
        let label = durability.label();
        let median = median_time(SAMPLES, || {
            let dir = store_dir(label);
            let db = open_store(&dir, durability);
            let start = Instant::now();
            for i in 0..docs {
                db.insert("events", store_doc(i)).expect("append");
            }
            let elapsed = start.elapsed();
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
            elapsed
        });
        store_row(&format!("append_{label}"), median, docs, SAMPLES);
    }

    let batched = median_time(SAMPLES, || {
        let dir = store_dir("batched");
        let db = open_store(&dir, Durability::WalSync);
        let start = Instant::now();
        let scope = db.batch();
        for i in 0..n {
            db.insert("events", store_doc(i)).expect("append");
        }
        scope.commit().expect("batch commit");
        let elapsed = start.elapsed();
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        elapsed
    });
    store_row("append_wal_sync_batched", batched, n, SAMPLES);

    // A log of `n` single-doc batches, left unsaved as after a crash.
    let populated = |tag: &str| {
        let dir = store_dir(tag);
        let db = open_store(&dir, Durability::Wal);
        for i in 0..n {
            db.insert("events", store_doc(i)).expect("append");
        }
        dir
    };
    let replay = median_time(SAMPLES, || {
        let dir = populated("replay");
        let start = Instant::now();
        let db = open_store(&dir, Durability::Wal);
        let elapsed = start.elapsed();
        assert_eq!(db.recovery().wal_replayed_batches, n, "replay must cover every batch");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        elapsed
    });
    store_row("wal_replay", replay, n, SAMPLES);

    let compaction = median_time(SAMPLES, || {
        let dir = populated("compaction");
        let db = open_store(&dir, Durability::Wal);
        let start = Instant::now();
        db.save().expect("compaction");
        let elapsed = start.elapsed();
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        elapsed
    });
    store_row("compaction", compaction, n, SAMPLES);
}

fn main() {
    threshold_ablation();
    tuner_ablation();
    store_index_ablation();
    scoring_ablation();
    smoothing_ablation();
    store_durability_ablation();
}

//! `batch_deep`: one data scientist runs the paper's flagship pipeline
//! signal by signal (Figure 4a). Each op is `Sintel::new`, `fit`,
//! `detect` and `score` on one signal, in a closed loop.

use std::time::{Duration, Instant};

use sintel::sintel::score;
use sintel::{MetricKind, Sintel};
use sintel_timeseries::Interval;

use crate::heap;
use crate::inputs::{self, Labelled};
use crate::report::{primitive_metric, Digest, Outcome};
use crate::stats::median;
use crate::sys;
use crate::trace::Forest;
use crate::window::{self, Meter};
use crate::Args;

const PIPELINE: &str = "lstm_dynamic_threshold";
/// Signals in the pool the loop cycles through.
pub const POOL: usize = 6;
/// Points per signal.
pub const LEN: usize = 240;
/// Ops per measurement window (a divisor of [`POOL`]).
const WINDOW: usize = 2;
/// Constructions per `setup_s` sample: one takes microseconds, so a
/// sample is the mean of a block. Blocks run before the loop and after
/// every window, so the median spans the run like the other metrics.
const SETUP_PER_BLOCK: usize = 16;
/// Blocks timed before the first signal.
const SETUP_BLOCKS_BEFORE: usize = 15;

/// Mean time of one orchestrator construction over a block.
fn setup_block() -> Result<f64, String> {
    let t = Instant::now();
    for _ in 0..SETUP_PER_BLOCK {
        std::hint::black_box(Sintel::new(PIPELINE).map_err(|e| e.to_string())?);
    }
    Ok(t.elapsed().as_secs_f64() / SETUP_PER_BLOCK as f64)
}

/// Timing of one op, split by the calls it makes.
struct Op {
    total: Duration,
    fit: Duration,
    detect: Duration,
    score: Duration,
}

/// Detections of one signal: `(start, end, score)`.
type Found = Vec<(i64, i64, f64)>;

/// Run one op; `Err` is the `Sintel` error that failed it.
fn op(signal: &Labelled) -> Result<(Op, Found), String> {
    let t0 = Instant::now();
    let mut sintel = Sintel::new(PIPELINE).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    sintel.fit(&signal.signal).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let detected = sintel.detect(&signal.signal).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let pred: Vec<Interval> = detected.iter().map(|d| d.interval).collect();
    std::hint::black_box(score(&signal.labels, &pred, MetricKind::Overlap));
    let t4 = Instant::now();
    let timing = Op {
        total: t4 - t0,
        fit: t2 - t1,
        detect: t3 - t2,
        score: t4 - t3,
    };
    let found = detected
        .iter()
        .map(|d| (d.interval.start, d.interval.end, d.score))
        .collect();
    Ok((timing, found))
}

/// Run the workload. With `args.trace`, sweeps over the pool alternate
/// untraced and traced; timings around calls come from the untraced
/// sweeps and span self times from the traced ones.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let pool = inputs::signals(args.seed, 0x0042_4154_4348, POOL, LEN); // "BATCH"
    out.stamp("pool_signals", pool.len());
    out.stamp("signal_len", LEN);
    out.stamp("pipeline", PIPELINE);
    let mut fingerprint = Digest::default();
    for s in &pool {
        s.signal
            .timestamps()
            .iter()
            .for_each(|&t| fingerprint.int(t));
        s.signal.values().iter().for_each(|&v| fingerprint.float(v));
    }
    out.stamp("inputs", fingerprint.hex());

    // setup_s: orchestrator construction before the first signal.
    let cold = Instant::now();
    std::hint::black_box(Sintel::new(PIPELINE).map_err(|e| e.to_string())?);
    out.stamp("cold_setup_s", cold.elapsed().as_secs_f64());
    let mut setups = Vec::new();
    for _ in 0..SETUP_BLOCKS_BEFORE {
        setups.push(setup_block()?);
    }

    // Closed loop over the pool, window by window, until the run length
    // is spent: at least one sweep, or two when traced (one of each
    // kind, as traced and untraced sweeps alternate).
    let min_ops = POOL * if args.trace { 2 } else { 1 };
    let deadline = Duration::from_secs_f64(args.seconds);
    let mut outputs: Vec<Option<Found>> = vec![None; pool.len()];
    let (mut fits, mut detects, mut scores) = (vec![], vec![], vec![]);
    let (mut wall, mut inside) = (0.0, 0.0);
    let (mut traced_wall, mut untraced_wall) = (0.0, 0.0);
    let (mut traced_ops, mut untraced_ops) = (0u64, 0u64);
    let mut windows = Vec::new();
    let cores = sys::nproc();
    let mut trace_events = Vec::new();
    let started = Instant::now();
    let mut k = 0;
    while k < min_ops || started.elapsed() < deadline {
        let traced = args.trace && (k / POOL) % 2 == 1;
        if traced {
            sintel_obs::tracing_start();
        }
        let meter = Meter::start();
        let mut latencies = Vec::with_capacity(WINDOW);
        for i in (k % POOL)..(k % POOL + WINDOW) {
            let signal = &pool[i];
            out.attempted += 1;
            match op(signal) {
                Ok((timing, found)) => {
                    inside += timing.total.as_secs_f64();
                    if !traced {
                        latencies.push(timing.total.as_secs_f64() * 1e3);
                        fits.push(timing.fit.as_secs_f64() * 1e3);
                        detects.push(timing.detect.as_secs_f64() * 1e3);
                        scores.push(timing.score.as_secs_f64() * 1e3);
                    }
                    match &outputs[i] {
                        None => outputs[i] = Some(found),
                        Some(first) if *first != found => out.problems.push(format!(
                            "signal {} detections changed between sweeps",
                            signal.signal.name()
                        )),
                        Some(_) => {}
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.problems
                        .push(format!("signal {}: {e}", signal.signal.name()));
                }
            }
        }
        k += WINDOW;
        let window = meter.stop(WINDOW as f64, latencies, cores);
        wall += window.wall;
        if traced {
            trace_events.extend(sintel_obs::tracing_stop());
            traced_wall += window.wall;
            traced_ops += WINDOW as u64;
        } else {
            untraced_wall += window.wall;
            untraced_ops += WINDOW as u64;
            windows.push(window);
        }
        setups.push(setup_block()?);
    }
    out.set("setup_s", median(&setups).unwrap_or(0.0));
    out.stamp("ops", out.attempted);
    out.stamp("sweeps", k as f64 / POOL as f64);
    out.stamp("loop_seconds", format!("{wall:.3}"));

    let (rate, cpu, latency) = window::summarise(&windows);
    out.stamp("windows", window::describe(&windows));
    out.set("throughput_per_s", rate);
    out.set("latency_p50_ms", latency);
    out.set("cpu_ms_per_op", cpu);

    // Quality, micro-averaged over the pool, and the output digest.
    let truth: Vec<Vec<Interval>> = pool.iter().map(|s| s.labels.clone()).collect();
    let preds: Vec<Vec<Interval>> = outputs
        .iter()
        .map(|found| {
            found
                .iter()
                .flatten()
                .filter_map(|&(s, e, _)| Interval::new(s, e).ok())
                .collect()
        })
        .collect();
    let f1 = score(
        &inputs::disjoint(&truth),
        &inputs::disjoint(&preds),
        MetricKind::Overlap,
    )
    .f1;
    out.set("f1", f1);
    // Memory: the peak heap one op adds (every signal has the same
    // length), counted outside the timed loop.
    let (again, heap_mib) = heap::peak_of(|| op(&pool[0]));
    out.set("peak_heap_mb", heap_mib);
    if again.map(|(_, found)| found).ok() != outputs[0] {
        out.problems
            .push("the memory pass detected differently".to_string());
    }
    let mut digest = Digest::default();
    for found in outputs.iter().flatten() {
        digest.int(found.len() as i64);
        for &(s, e, sc) in found {
            digest.int(s);
            digest.int(e);
            digest.float(sc);
        }
    }
    digest.float(f1);
    out.stamp("digest", digest.hex());

    if args.trace {
        out.set("core.fit_ms", median(&fits).unwrap_or(0.0));
        out.set("core.detect_ms", median(&detects).unwrap_or(0.0));
        out.set("metrics.score_ms", median(&scores).unwrap_or(0.0));
        let per_op = |ns: u64| ns as f64 / 1e6 / traced_ops as f64;
        let forest = Forest::new(&trace_events, &[], |_, _| true);
        let primitives = forest.self_ns("primitive.", |s| {
            let phase = s.name.trim_start_matches("primitive.");
            primitive_metric(s.field("primitive").unwrap_or("?"), phase)
        });
        for (name, ns) in primitives {
            out.set(&name, per_op(ns));
        }
        let pipeline: u64 = forest
            .self_ns("pipeline.", |_| String::new())
            .values()
            .sum();
        out.set("pipeline.self_ms", per_op(pipeline));
        let closed = forest.spans.len() as f64;
        out.set("obs.spans_per_op", closed / traced_ops as f64);
        let untraced_rate = untraced_ops as f64 / untraced_wall;
        let traced_rate = traced_ops as f64 / traced_wall;
        out.set(
            "obs.trace_overhead_pct",
            100.0 * (untraced_rate - traced_rate) / untraced_rate,
        );
    }
    out.set("bench.unattributed_pct", 100.0 * (wall - inside) / wall);
    Ok(())
}

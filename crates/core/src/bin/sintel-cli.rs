//! `sintel-cli` — the end-user command line (Table 1's "End User" row).
//!
//! ```text
//! sintel-cli pipelines                          list the pipeline hub
//! sintel-cli primitives                         list registered primitives
//! sintel-cli datasets [--scale S]               dataset summary (Table 2)
//! sintel-cli detect --signal F.csv --pipeline P [--train G.csv] [--labels L.csv]
//! sintel-cli view --signal F.csv [--width N] [--height N]
//! sintel-cli benchmark [--scale S] [--pipelines a,b] [--datasets NAB,YAHOO]
//!                      [--timeout SECS] [--retries N] [--threads N]
//!                      [--store DIR] [--store-durability snapshot|wal|wal-sync]
//! sintel-cli analyze [--all | PIPELINE...]      static template diagnostics
//! ```
//!
//! Signals are `timestamp,value` CSV files (`sintel_timeseries::csvio`
//! format); label files are `start,end` rows.
//!
//! Every command also takes the observability flags `--log-level LEVEL`,
//! `--trace-out FILE` (JSON-lines span trace) and `--metrics-out FILE`
//! (Prometheus text metrics snapshot).

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use sintel::benchmark::{
    benchmark_report_with_db, persist_benchmark, render_perf_table, render_table,
    BenchmarkConfig, MetricKind,
};
use sintel::Sintel;
use sintel_pipeline::hub::template_by_name;
use sintel_pipeline::policy::RunPolicy;
use sintel_serve::event::decode_corpus;
use sintel_serve::{Admission, AnomalyEvent, ServeConfig, ServeEngine, StatusServer, TenantSpec};
use sintel_store::{Durability, SintelDb, StoreOptions};
use sintel_datasets::{load_all, DatasetConfig, DatasetId};
use sintel_timeseries::csvio;

// The benchmark's memory column reads this meter; without it a stored
// `peak_memory_bytes` would be a measured-looking zero.
#[global_allocator]
static METER: sintel_common::alloc::Counting = sintel_common::alloc::Counting;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `analyze` takes positional pipeline names and the valueless
    // `--all` / `--deployment` switches, and `serve` the valueless
    // `--dry-run`, which the strict `--key value` parser would reject;
    // peel them off before flag parsing.
    let (targets, rest) = if command == "analyze" {
        split_analyze_args(rest)
    } else if command == "serve" {
        split_serve_args(rest)
    } else {
        (Vec::new(), rest.to_vec())
    };
    let opts = match parse_flags(&rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let obs = match setup_observability(&opts) {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = apply_threads_flag(&opts) {
        eprintln!("error: {e}\n\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let result = match command.as_str() {
        "pipelines" => cmd_pipelines(),
        "primitives" => cmd_primitives(),
        "datasets" => cmd_datasets(&opts),
        "detect" => cmd_detect(&opts),
        "view" => cmd_view(&opts),
        "benchmark" => cmd_benchmark(&opts),
        "serve" => cmd_serve(&opts, targets.iter().any(|t| t == "--dry-run")),
        "forecast" => cmd_forecast(&opts),
        "analyze" => cmd_analyze(&targets),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    // Export trace/metrics even when the command failed — a post-mortem
    // is exactly when the trace matters.
    let export = finish_observability(&obs);
    match result.and(export) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Leveled, so `--log-level off` silences it; the exit code
            // still reports the failure.
            sintel_obs::error!("sintel::cli", e);
            ExitCode::FAILURE
        }
    }
}

/// Trace/metrics export destinations requested on the command line.
/// Holds the trace-flush guard so a panic mid-command still flushes
/// the buffered span tail to `--trace-out` during unwinding.
#[derive(Debug)]
struct ObsFlags {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    _trace_guard: Option<sintel_obs::TraceFlushGuard>,
}

/// Apply `--log-level` and arm `--trace-out` capture before the command
/// runs. Tracing writes through a registered sink: the returned guard
/// flushes whatever is buffered even if the command panics.
fn setup_observability(opts: &HashMap<String, String>) -> Result<ObsFlags, String> {
    if let Some(level) = opts.get("log-level") {
        let parsed = sintel_obs::Level::parse(level)
            .ok_or_else(|| format!("bad --log-level '{level}' (error|warn|info|debug|trace|off)"))?;
        sintel_obs::set_level(parsed);
    }
    let trace_out = opts.get("trace-out").cloned();
    let mut trace_guard = None;
    if let Some(path) = &trace_out {
        // Truncate up front so sink appends rebuild the file from
        // scratch for this run.
        std::fs::write(path, "").map_err(|e| format!("creating --trace-out {path}: {e}"))?;
        sintel_obs::set_trace_sink(Some(path.into()));
        sintel_obs::tracing_start();
        trace_guard = Some(sintel_obs::TraceFlushGuard::new());
    }
    Ok(ObsFlags {
        trace_out,
        metrics_out: opts.get("metrics-out").cloned(),
        _trace_guard: trace_guard,
    })
}

/// Write the captured trace (JSON lines) and the metrics snapshot
/// (Prometheus text) to their requested destinations.
fn finish_observability(flags: &ObsFlags) -> Result<(), String> {
    if let Some(path) = &flags.trace_out {
        sintel_obs::flush_trace().map_err(|e| format!("writing --trace-out {path}: {e}"))?;
        sintel_obs::set_trace_sink(None);
        let _ = sintel_obs::tracing_stop();
        // Count the sink, not the last flush: guards (engine shutdown,
        // panic-unwind) may already have drained the buffer into it.
        let total = std::fs::read_to_string(path).map(|t| t.lines().count()).unwrap_or(0);
        eprintln!("trace: {total} span events -> {path}");
    }
    if let Some(path) = &flags.metrics_out {
        let snapshot = sintel_obs::global().snapshot();
        std::fs::write(path, snapshot.to_prometheus())
            .map_err(|e| format!("writing --metrics-out {path}: {e}"))?;
        eprintln!("metrics: {} series -> {path}", snapshot.metrics.len());
    }
    Ok(())
}

const USAGE: &str = "sintel-cli — end-to-end time series anomaly detection

USAGE:
  sintel-cli pipelines
  sintel-cli primitives
  sintel-cli datasets  [--scale S]
  sintel-cli detect    --signal FILE.csv --pipeline NAME
                       [--train FILE.csv] [--labels FILE.csv]
  sintel-cli view      --signal FILE.csv [--width N] [--height N]
  sintel-cli benchmark [--scale S] [--pipelines a,b,c] [--datasets NAB,NASA,YAHOO]
                       [--timeout SECS] [--retries N] [--threads N]
                       [--store DIR] [--store-durability snapshot|wal|wal-sync]
                       --store persists runs/failures/quarantine to a
                       crash-safe knowledge base (WAL + snapshots); the
                       durability knob trades fsync cost for crash loss:
                       wal-sync (default) fsyncs every commit, wal leaves
                       fsync to the OS, snapshot only persists on save
  sintel-cli serve     --corpus FILE.csv [--pipeline NAME] [--tenants a:9,b:1]
                       [--tick-every N] [--window N] [--hop N] [--min-points N]
                       [--queue-capacity N] [--high-water N] [--priority-floor P]
                       [--degrade-depth N] [--timeout SECS]
                       [--store DIR] [--store-durability snapshot|wal|wal-sync]
                       [--status-addr HOST:PORT] [--tick-log FILE]
                       replay a multi-tenant event corpus (tenant,signal,
                       timestamp,value rows) through the streaming engine.
                       Bounded queues push back (Retry => the replayer runs a
                       tick and re-offers); past --high-water, tenants with
                       priority below --priority-floor are shed. With --store,
                       sessions checkpoint group-committed per tick: rerunning
                       after a kill -9 resumes where the last tick committed,
                       losing at most one uncommitted interval and never
                       duplicating a committed anomaly event.
                       --status-addr serves live /metrics /healthz /tenants
                       /trace over HTTP (read-only; off by default);
                       --tick-log appends one wide-event JSON line per tick;
                       --dry-run prints the whole-deployment static analysis
                       (SA008-SA014) and exits without replaying anything
  sintel-cli forecast  --signal FILE.csv [--model arima|holt_winters|seasonal_naive]
                       [--horizon N]
  sintel-cli analyze   [--all | PIPELINE...] [--deployment]
                       static dataflow/contract/shape/cost diagnostics
                       (SA000-SA009); exits nonzero on error diagnostics.
                       --deployment additionally analyzes the named
                       pipelines as a tenant roster under the default
                       serve configuration (SA008-SA014)

OBSERVABILITY (any command):
  --log-level LEVEL    stderr log verbosity: error|warn|info|debug|trace|off
                       (overrides the SINTEL_LOG environment variable)
  --trace-out FILE     export the run's span trace as JSON lines
  --metrics-out FILE   export the run's metrics snapshot as Prometheus text

PARALLELISM (any command):
  --threads N          worker-thread budget (overrides SINTEL_THREADS;
                       default = available parallelism). Results are
                       bitwise-identical at every setting";

/// Parse `--key value` flags into a map.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{flag}'"));
        };
        let value =
            iter.next().ok_or_else(|| format!("flag --{key} needs a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    Ok(opts)
}

/// Split `analyze`'s positional arguments (pipeline names and the bare
/// `--all` / `--deployment` switches) from the `--key value` flags
/// shared by every command.
fn split_analyze_args(args: &[String]) -> (Vec<String>, Vec<String>) {
    let mut targets = Vec::new();
    let mut flags = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--all" || arg == "--deployment" {
            targets.push(arg.clone());
        } else if arg.starts_with("--") {
            flags.push(arg.clone());
            if let Some(value) = iter.next() {
                flags.push(value.clone());
            }
        } else {
            targets.push(arg.clone());
        }
    }
    (targets, flags)
}

/// Peel `serve`'s bare `--dry-run` switch off the `--key value` flags.
fn split_serve_args(args: &[String]) -> (Vec<String>, Vec<String>) {
    let (switches, flags): (Vec<String>, Vec<String>) =
        args.iter().cloned().partition(|a| a == "--dry-run");
    (switches, flags)
}

fn cmd_analyze(targets: &[String]) -> Result<(), String> {
    let all = targets.iter().any(|t| t == "--all");
    let deployment = targets.iter().any(|t| t == "--deployment");
    let names: Vec<String> = if all {
        sintel_pipeline::hub::available_pipelines()
            .iter()
            .chain(sintel_pipeline::hub::EXTENSION_PIPELINES.iter())
            .map(|s| s.to_string())
            .collect()
    } else {
        let named: Vec<String> =
            targets.iter().filter(|t| !t.starts_with("--")).cloned().collect();
        if named.is_empty() {
            return Err("analyze needs a pipeline name or --all".to_string());
        }
        named
    };
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for name in &names {
        let template =
            sintel_pipeline::hub::template_by_name(name).map_err(|e| e.to_string())?;
        let report = template.analyze();
        print!("{}", report.render());
        errors += report.errors().count();
        warnings += report.warnings().count();
    }
    // --deployment: analyze the named pipelines as a tenant roster under
    // the default serve configuration — the whole-deployment checks
    // (SA008 degradation invariant, SA010-SA014) on top of the
    // per-template reports above.
    if deployment {
        let cfg = ServeConfig::default();
        let specs = names
            .iter()
            .map(|name| {
                template_by_name(name)
                    .map(|t| TenantSpec::new(name, 0, t))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let report = sintel_serve::analyze_deployment(&cfg, &specs);
        print!("{}", report.render());
        errors += report.errors().count();
        warnings += report.warnings().count();
    }
    if names.len() > 1 {
        println!(
            "\nanalyzed {} pipelines: {errors} error(s), {warnings} warning(s)",
            names.len()
        );
    }
    if errors > 0 {
        Err(format!("{errors} error diagnostic(s)"))
    } else {
        Ok(())
    }
}

fn cmd_pipelines() -> Result<(), String> {
    println!("pipeline hub (paper Table 3):");
    for name in sintel_pipeline::hub::available_pipelines() {
        println!("  {name}");
    }
    println!("extensions:");
    for name in sintel_pipeline::hub::EXTENSION_PIPELINES {
        println!("  {name}");
    }
    Ok(())
}

fn cmd_primitives() -> Result<(), String> {
    println!("{:<26} {:<15} description", "primitive", "engine");
    for name in sintel_primitives::available_primitives() {
        let prim = sintel_primitives::build_primitive(name).map_err(|e| e.to_string())?;
        let meta = prim.meta();
        println!("{:<26} {:<15} {}", meta.name, meta.engine.to_string(), meta.description);
    }
    Ok(())
}

fn cmd_datasets(opts: &HashMap<String, String>) -> Result<(), String> {
    let scale: f64 = opts.get("scale").map_or(Ok(1.0), |s| {
        s.parse().map_err(|_| format!("bad --scale '{s}'"))
    })?;
    let cfg = DatasetConfig { seed: 42, signal_scale: scale, length_scale: scale };
    println!("{:<10} {:>10} {:>13} {:>20}", "dataset", "signals", "anomalies", "avg length");
    for ds in load_all(&cfg) {
        println!(
            "{:<10} {:>10} {:>13} {:>20}",
            ds.name,
            ds.num_signals(),
            ds.num_anomalies(),
            ds.avg_signal_length()
        );
    }
    Ok(())
}

fn cmd_detect(opts: &HashMap<String, String>) -> Result<(), String> {
    let signal_path = opts.get("signal").ok_or("--signal is required")?;
    let pipeline = opts.get("pipeline").ok_or("--pipeline is required")?;
    let signal = csvio::read_signal_csv("signal", Path::new(signal_path))
        .map_err(|e| e.to_string())?;
    let train = match opts.get("train") {
        Some(path) => {
            csvio::read_signal_csv("train", Path::new(path)).map_err(|e| e.to_string())?
        }
        None => signal.clone(),
    };

    let mut sintel = Sintel::new(pipeline).map_err(|e| e.to_string())?;
    sintel.fit(&train).map_err(|e| e.to_string())?;
    let anomalies = sintel.detect(&signal).map_err(|e| e.to_string())?;
    println!("detected {} anomalies:", anomalies.len());
    println!("{:>12} {:>12} {:>9}", "start", "end", "severity");
    for a in &anomalies {
        println!("{:>12} {:>12} {:>9.3}", a.interval.start, a.interval.end, a.score);
    }

    if let Some(labels_path) = opts.get("labels") {
        let truth =
            csvio::read_labels_csv(Path::new(labels_path)).map_err(|e| e.to_string())?;
        let pred: Vec<_> = anomalies.iter().map(|a| a.interval).collect();
        let scores = sintel_metrics::overlapping_segment(&truth, &pred).scores();
        println!(
            "\nvs {} labelled anomalies: F1 {:.3} precision {:.3} recall {:.3}",
            truth.len(),
            scores.f1,
            scores.precision,
            scores.recall
        );
    }
    Ok(())
}

fn cmd_view(opts: &HashMap<String, String>) -> Result<(), String> {
    let signal_path = opts.get("signal").ok_or("--signal is required")?;
    let parse_dim = |key: &str, default: usize| -> Result<usize, String> {
        opts.get(key).map_or(Ok(default), |s| {
            s.parse().map_err(|_| format!("bad --{key} '{s}'"))
        })
    };
    let width = parse_dim("width", 100)?;
    let height = parse_dim("height", 14)?;
    let signal = csvio::read_signal_csv("signal", Path::new(signal_path))
        .map_err(|e| e.to_string())?;
    print!("{}", sintel_hil::viz::render(&signal, &[], width, height));
    Ok(())
}

fn cmd_forecast(opts: &HashMap<String, String>) -> Result<(), String> {
    use sintel::forecast::{ForecastModel, Forecaster};
    let signal_path = opts.get("signal").ok_or("--signal is required")?;
    let model = match opts.get("model") {
        Some(name) => {
            ForecastModel::parse(name).ok_or_else(|| format!("unknown model '{name}'"))?
        }
        None => ForecastModel::Arima,
    };
    let horizon: usize = opts.get("horizon").map_or(Ok(24), |s| {
        s.parse().map_err(|_| format!("bad --horizon '{s}'"))
    })?;
    let signal = csvio::read_signal_csv("signal", Path::new(signal_path))
        .map_err(|e| e.to_string())?;
    let mut forecaster = Forecaster::new(model);
    forecaster.fit(&signal).map_err(|e| e.to_string())?;
    let fc = forecaster.forecast(horizon).map_err(|e| e.to_string())?;
    println!("{:>12} {:>14}", "timestamp", "forecast");
    for (t, v) in fc.timestamps().iter().zip(fc.values()) {
        println!("{t:>12} {v:>14.4}");
    }
    // Honest accuracy estimate from a backtest on the recent history.
    let holdout = (horizon).min(signal.len() / 4).max(8);
    if let Ok((mae, smape)) = sintel::forecast::Forecaster::backtest(model, &signal, holdout) {
        println!("
backtest on the last {holdout} samples: MAE {mae:.4}, SMAPE {smape:.4}");
    }
    Ok(())
}

fn cmd_benchmark(opts: &HashMap<String, String>) -> Result<(), String> {
    let scale: f64 = opts.get("scale").map_or(Ok(0.03), |s| {
        s.parse().map_err(|_| format!("bad --scale '{s}'"))
    })?;
    let mut policy = sintel::RunPolicy::default();
    if let Some(s) = opts.get("timeout") {
        let secs: u64 = s.parse().map_err(|_| format!("bad --timeout '{s}'"))?;
        policy.timeout = std::time::Duration::from_secs(secs);
    }
    if let Some(s) = opts.get("retries") {
        policy.max_retries = s.parse().map_err(|_| format!("bad --retries '{s}'"))?;
    }
    let pipelines: Vec<String> = match opts.get("pipelines") {
        Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
        None => sintel_pipeline::hub::available_pipelines()
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    let datasets: Vec<DatasetId> = match opts.get("datasets") {
        Some(list) => list
            .split(',')
            .map(|s| {
                DatasetId::parse(s.trim()).ok_or_else(|| format!("unknown dataset '{s}'"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![DatasetId::Nab, DatasetId::Nasa, DatasetId::Yahoo],
    };
    let cfg = BenchmarkConfig {
        pipelines,
        datasets,
        data: DatasetConfig {
            seed: 42,
            signal_scale: scale,
            length_scale: (scale * 2.5).clamp(0.1, 1.0),
        },
        metric: MetricKind::Overlap,
        policy,
        ..BenchmarkConfig::default()
    };
    let db = open_store(opts)?;
    let report = benchmark_report_with_db(&cfg, db.as_ref()).map_err(|e| e.to_string())?;
    print!("{}", render_table(&report.rows));
    println!();
    print!("{}", render_perf_table(&report));
    if let Some(db) = &db {
        persist_benchmark(db, &report.rows)
            .map_err(|e| format!("persisting benchmark results: {e}"))?;
        db.save().map_err(|e| format!("saving knowledge base: {e}"))?;
        let raw = db.raw();
        eprintln!(
            "store: {} collections persisted at durability '{}' ({} run failures, \
             {} quarantined pairs)",
            raw.collection_names().len(),
            raw.durability().label(),
            raw.count(sintel_store::schema::collections::RUN_FAILURES, &sintel_store::Filter::All),
            raw.count(sintel_store::schema::collections::QUARANTINE, &sintel_store::Filter::All),
        );
    }
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>, dry_run: bool) -> Result<(), String> {
    let corpus = opts
        .get("corpus")
        .ok_or("serve needs --corpus FILE.csv (tenant,signal,timestamp,value rows)")?;
    let file = std::fs::File::open(corpus).map_err(|e| format!("reading {corpus}: {e}"))?;
    let events =
        decode_corpus(std::io::BufReader::new(file)).map_err(|e| format!("{corpus}: {e}"))?;
    if events.is_empty() {
        return Err(format!("{corpus}: no events"));
    }

    let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
        match opts.get(key) {
            Some(s) => s
                .parse()
                .ok()
                .filter(|n: &usize| *n >= 1)
                .ok_or_else(|| format!("bad --{key} '{s}' (want an integer >= 1)")),
            None => Ok(default),
        }
    };
    let mut cfg = ServeConfig::default();
    cfg.window = parse_usize("window", cfg.window)?;
    cfg.hop = parse_usize("hop", cfg.hop as usize)? as u64;
    cfg.min_points = parse_usize("min-points", cfg.min_points)?;
    cfg.queue_capacity = parse_usize("queue-capacity", cfg.queue_capacity)?;
    cfg.high_water = parse_usize("high-water", cfg.high_water)?;
    cfg.degrade_depth = parse_usize("degrade-depth", cfg.degrade_depth)?;
    if let Some(s) = opts.get("priority-floor") {
        cfg.priority_floor =
            s.parse().map_err(|_| format!("bad --priority-floor '{s}' (want 0-255)"))?;
    }
    if let Some(s) = opts.get("timeout") {
        let secs: f64 = s
            .parse()
            .ok()
            .filter(|v: &f64| *v > 0.0)
            .ok_or_else(|| format!("bad --timeout '{s}' (want seconds > 0)"))?;
        cfg.policy = RunPolicy::single_attempt(Duration::from_secs_f64(secs));
    }

    let template_name =
        opts.get("pipeline").map(String::as_str).unwrap_or("azure_anomaly_detection");
    let template =
        template_by_name(template_name).map_err(|e| format!("--pipeline {template_name}: {e}"))?;

    // --tenants a:9,b:1 sets load-shedding priorities; any tenant seen
    // in the corpus but not listed defaults to priority 5.
    let mut priorities: HashMap<String, u8> = HashMap::new();
    if let Some(spec) = opts.get("tenants") {
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (name, priority) = part
                .split_once(':')
                .ok_or_else(|| format!("bad --tenants entry '{part}' (want name:priority)"))?;
            let priority: u8 =
                priority.parse().map_err(|_| format!("bad priority in '{part}' (want 0-255)"))?;
            priorities.insert(name.to_string(), priority);
        }
    }
    let mut names: Vec<&str> = events.iter().map(|e| e.tenant.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let specs: Vec<TenantSpec> = names
        .iter()
        .map(|n| TenantSpec::new(n, priorities.get(*n).copied().unwrap_or(5), template.clone()))
        .collect();

    // --dry-run: run the whole-deployment static analysis (exactly what
    // `ServeEngine::open` gates on) and exit before touching the store
    // or replaying a single event.
    if dry_run {
        let report = sintel_serve::analyze_deployment(&cfg, &specs);
        print!("{}", report.render());
        return if report.has_errors() {
            Err("deployment analysis found errors; the engine would refuse to open".to_string())
        } else {
            Ok(())
        };
    }

    let store = open_store(opts)?;
    let persistent = store.is_some();
    let db = store.unwrap_or_else(SintelDb::in_memory);
    let mut engine = ServeEngine::open(db, cfg, specs).map_err(|e| format!("serve: {e}"))?;
    if engine.ticks() > 0 {
        eprintln!(
            "serve: resumed {} tenant session(s) at tick {}",
            engine.tenant_names().len(),
            engine.ticks()
        );
    }

    // --status-addr exposes live introspection over HTTP (off by
    // default). The server only reads published snapshots, so scrape
    // traffic cannot perturb the replay's committed emissions.
    let mut status_server = None;
    if let Some(addr) = opts.get("status-addr") {
        let shared = engine.enable_status();
        let server =
            StatusServer::bind(addr, shared).map_err(|e| format!("--status-addr {addr}: {e}"))?;
        eprintln!(
            "status: /metrics /healthz /tenants /trace on http://{}",
            server.local_addr()
        );
        status_server = Some(server);
    }
    // --tick-log appends one wide-event JSON line per committed tick.
    let mut tick_log = match opts.get("tick-log") {
        Some(path) => Some(
            std::fs::File::create(path).map_err(|e| format!("creating --tick-log {path}: {e}"))?,
        ),
        None => None,
    };
    fn run_tick(
        engine: &mut ServeEngine,
        tick_log: &mut Option<std::fs::File>,
    ) -> Result<Vec<AnomalyEvent>, String> {
        let events = engine.tick().map_err(|e| e.to_string())?;
        if let Some(file) = tick_log {
            if let Some(wide) = engine.last_wide_event() {
                use std::io::Write as _;
                writeln!(file, "{}", wide.to_json_line())
                    .map_err(|e| format!("writing --tick-log: {e}"))?;
            }
        }
        Ok(events)
    }

    let tick_every = parse_usize("tick-every", 64)? as u64;
    let mut emitted = Vec::new();
    let (mut accepted, mut shed) = (0u64, 0u64);
    for event in &events {
        let mut spins = 0u32;
        loop {
            match engine.offer(event).map_err(|e| e.to_string())? {
                Admission::Accepted => {
                    accepted += 1;
                    break;
                }
                Admission::Retry { after_ticks } => {
                    spins += 1;
                    if spins > 1_000 {
                        return Err(format!(
                            "tenant '{}': queue never drained after {spins} retries",
                            event.tenant
                        ));
                    }
                    for _ in 0..after_ticks.max(1) {
                        emitted.extend(run_tick(&mut engine, &mut tick_log)?);
                    }
                }
                Admission::Shed => {
                    shed += 1;
                    break;
                }
            }
        }
        if accepted > 0 && accepted % tick_every == 0 {
            emitted.extend(run_tick(&mut engine, &mut tick_log)?);
        }
    }
    emitted.extend(run_tick(&mut engine, &mut tick_log)?);
    if let Some(server) = status_server.take() {
        server.stop();
    }

    let stats = engine.stats();
    println!(
        "Serve replay: {} events, {accepted} accepted, {shed} shed, {} anomaly event(s), \
         tick {}{}",
        events.len(),
        emitted.len(),
        stats.ticks,
        if persistent { " (checkpointed)" } else { "" }
    );
    println!();
    println!(
        "{:<16} {:>9} {:>6} {:>8} {:>8} {:>7} {:>6} {:>6} {:>9} {:>12}",
        "tenant", "accepted", "shed", "retried", "emitted", "passes", "fails", "trips",
        "degraded", "quarantined"
    );
    for (name, t) in &stats.tenants {
        println!(
            "{name:<16} {:>9} {:>6} {:>8} {:>8} {:>7} {:>6} {:>6} {:>9} {:>12}",
            t.accepted,
            t.shed,
            t.retried,
            t.emitted,
            t.passes_run,
            t.pass_failures,
            t.breaker_trips,
            t.degraded,
            t.quarantined
        );
    }
    let self_events = engine.self_events();
    if !self_events.is_empty() {
        println!();
        println!(
            "self-monitor: {} anomaly event(s) on the engine's own per-tick streams (_self)",
            self_events.len()
        );
    }
    if !emitted.is_empty() {
        println!();
        println!("first anomaly events:");
        for ev in emitted.iter().take(10) {
            println!(
                "  {}/{} seq={} interval [{}, {}] severity {:.3}",
                ev.tenant, ev.signal, ev.seq, ev.start, ev.end, ev.severity
            );
        }
        if emitted.len() > 10 {
            println!("  … and {} more", emitted.len() - 10);
        }
    }
    Ok(())
}

/// Open the persistent knowledge base named by `--store DIR`, at the
/// durability level named by `--store-durability` (default `wal-sync`).
/// Returns `None` when no store was requested.
fn open_store(opts: &HashMap<String, String>) -> Result<Option<SintelDb>, String> {
    let Some(dir) = opts.get("store") else {
        if opts.contains_key("store-durability") {
            return Err("--store-durability needs --store DIR".to_string());
        }
        return Ok(None);
    };
    let mut store_opts = StoreOptions::default();
    if let Some(s) = opts.get("store-durability") {
        store_opts.durability = Durability::parse(s).ok_or_else(|| {
            format!("bad --store-durability '{s}' (want snapshot|wal|wal-sync)")
        })?;
    }
    let db = SintelDb::open_with(Path::new(dir), store_opts)
        .map_err(|e| format!("opening --store {dir}: {e}"))?;
    let recovery = db.recovery();
    if !recovery.is_clean() {
        eprintln!(
            "store: recovered {dir}: {} corrupt snapshot(s) quarantined, \
             {} orphan temp file(s) removed, {} WAL batch(es) replayed{}",
            recovery.corrupt.len(),
            recovery.orphans_removed.len(),
            recovery.wal_replayed_batches,
            recovery
                .wal_truncated_at
                .map(|o| format!(", torn tail truncated at byte {o}"))
                .unwrap_or_default(),
        );
    }
    Ok(Some(db))
}

/// Apply `--threads N` as the process-wide worker budget (precedence
/// over `SINTEL_THREADS`; default = available parallelism).
fn apply_threads_flag(opts: &HashMap<String, String>) -> Result<(), String> {
    if let Some(s) = opts.get("threads") {
        let n: usize = s
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("bad --threads '{s}' (want an integer >= 1)"))?;
        sintel_common::set_threads(Some(n));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<HashMap<String, String>, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_flags_happy_path() {
        let opts = flags(&["--signal", "a.csv", "--pipeline", "arima"]).unwrap();
        assert_eq!(opts.get("signal").map(String::as_str), Some("a.csv"));
        assert_eq!(opts.get("pipeline").map(String::as_str), Some("arima"));
    }

    #[test]
    fn parse_flags_rejects_positional_and_dangling() {
        assert!(flags(&["positional"]).is_err());
        assert!(flags(&["--scale"]).is_err());
    }

    #[test]
    fn threads_flag_sets_and_validates_the_budget() {
        let mut opts = HashMap::new();
        assert!(apply_threads_flag(&opts).is_ok(), "absent flag is fine");
        opts.insert("threads".to_string(), "3".to_string());
        apply_threads_flag(&opts).unwrap();
        assert_eq!(sintel_common::configured_threads(), 3);
        sintel_common::set_threads(None);
        for bad in ["0", "-1", "many"] {
            opts.insert("threads".to_string(), bad.to_string());
            assert!(apply_threads_flag(&opts).is_err(), "--threads {bad}");
        }
    }

    #[test]
    fn commands_work_without_io() {
        assert!(cmd_pipelines().is_ok());
        assert!(cmd_primitives().is_ok());
        let mut opts = HashMap::new();
        opts.insert("scale".to_string(), "0.02".to_string());
        assert!(cmd_datasets(&opts).is_ok());
    }

    #[test]
    fn observability_flags_export_trace_and_metrics() {
        let dir = std::env::temp_dir()
            .join(format!("sintel-cli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let metrics = dir.join("metrics.txt");
        let mut opts = HashMap::new();
        opts.insert("trace-out".to_string(), trace.to_string_lossy().into_owned());
        opts.insert("metrics-out".to_string(), metrics.to_string_lossy().into_owned());
        opts.insert("log-level".to_string(), "warn".to_string());

        let obs = setup_observability(&opts).unwrap();
        {
            let _span = sintel_obs::span("cli.test");
            sintel_obs::counter_add("sintel_cli_test_total", 1);
        }
        finish_observability(&obs).unwrap();

        let events =
            sintel_obs::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(events.iter().any(|e| e.name == "cli.test"));
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(text.contains("sintel_cli_test_total"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_observability_flags_are_rejected() {
        let mut opts = HashMap::new();
        opts.insert("log-level".to_string(), "loud".to_string());
        assert!(setup_observability(&opts).unwrap_err().contains("--log-level"));
    }

    #[test]
    fn split_analyze_args_separates_targets_from_flags() {
        let args: Vec<String> =
            ["arima", "--all", "--deployment", "--log-level", "warn", "lstm"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let (targets, flags) = split_analyze_args(&args);
        assert_eq!(targets, vec!["arima", "--all", "--deployment", "lstm"]);
        assert_eq!(flags, vec!["--log-level", "warn"]);
    }

    #[test]
    fn split_serve_args_peels_dry_run() {
        let args: Vec<String> = ["--dry-run", "--corpus", "events.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (switches, flags) = split_serve_args(&args);
        assert_eq!(switches, vec!["--dry-run"]);
        assert_eq!(flags, vec!["--corpus", "events.csv"]);
    }

    #[test]
    fn analyze_command_reports_hub_pipelines_clean() {
        let all = vec!["--all".to_string()];
        assert!(cmd_analyze(&all).is_ok());
        let one = vec!["arima".to_string()];
        assert!(cmd_analyze(&one).is_ok());
        assert!(cmd_analyze(&[]).unwrap_err().contains("--all"));
        assert!(
            cmd_analyze(&["--deployment".to_string()]).unwrap_err().contains("--all"),
            "--deployment alone still needs targets"
        );
        let bogus = vec!["not_a_pipeline".to_string()];
        assert!(cmd_analyze(&bogus).is_err());
    }

    #[test]
    fn analyze_deployment_over_hub_roster_is_error_free() {
        // The shipped hub templates must be deployable as tenants under
        // the default serve configuration (ISSUE 9 acceptance).
        let mut targets: Vec<String> = sintel_pipeline::hub::available_pipelines()
            .iter()
            .map(|s| s.to_string())
            .collect();
        targets.push("--deployment".to_string());
        assert!(cmd_analyze(&targets).is_ok());
    }

    #[test]
    fn detect_requires_signal_flag() {
        let err = cmd_detect(&HashMap::new()).unwrap_err();
        assert!(err.contains("--signal"));
        let mut opts = HashMap::new();
        opts.insert("signal".to_string(), "/nonexistent.csv".to_string());
        opts.insert("pipeline".to_string(), "arima".to_string());
        assert!(cmd_detect(&opts).is_err());
    }
}

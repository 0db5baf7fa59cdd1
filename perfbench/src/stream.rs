//! `stream_stat` and `stream_durable`: the serve tier with
//! `ServeConfig::default()` and a roster of tenants alternating `arima`
//! and `azure_anomaly_detection`, each replaying a labelled signal.
//!
//! Both workloads feed the same events: `PRELUDE` ticks, then
//! `EPISODE` measured ticks. A tick offers one hop of events per tenant
//! and then calls `tick()`, in a closed loop. A run repeats whole
//! episodes until its length is spent, so every episode does the same
//! work on the same history and the figures do not depend on run length.
//!
//! * `stream_stat` opens an engine over an in-memory store each
//!   episode. `setup_s` is `ServeEngine::open` plus the warm-up ticks
//!   until every tenant has run its first pass; the rest of the prelude
//!   runs untimed.
//! * `stream_durable` writes the prelude once to an on-disk store at
//!   `Durability::Wal`. Each episode restores a copy of it and times a
//!   cold restart (`SintelDb::open_with` plus `ServeEngine::open`) as
//!   `setup_s`. Its committed events must equal, event by event, those
//!   of an in-memory run over the same events.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sintel::sintel::score;
use sintel::MetricKind;
use sintel_pipeline::hub;
use sintel_serve::{
    Admission, AnomalyEvent, IngestEvent, ServeConfig, ServeEngine, TenantSpec, TickWideEvent,
};
use sintel_store::{Durability, SintelDb, StoreOptions};
use sintel_timeseries::Interval;

use crate::heap;
use crate::inputs::{self, Tenant};
use crate::report::{primitive_metric, Digest, Outcome};
use crate::stats::{median, tail_percentile, MIN_BEYOND};
use crate::sys;
use crate::trace::Forest;
use crate::window::{self, Meter, Window};
use crate::Args;

/// Measured ticks per window (a divisor of the episode length).
const WINDOW: usize = 40;

/// Tenants in the roster.
pub const TENANTS: usize = 8;
/// Points per replayed signal.
pub const SIGNAL_LEN: usize = 640;

/// The shape of one workload's event stream.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Tenants and their signals.
    pub roster: Vec<Tenant>,
    /// Engine configuration.
    pub cfg: ServeConfig,
    /// Ticks before the measured ones.
    pub prelude: usize,
    /// Measured ticks per episode.
    pub episode: usize,
    /// Events of every tick, prelude first.
    pub ticks: Vec<Vec<IngestEvent>>,
}

impl Plan {
    /// The benchmark's plan for `seed`.
    pub fn new(seed: u64, prelude: usize, episode: usize) -> Self {
        Self::with(
            inputs::roster(seed, TENANTS, SIGNAL_LEN),
            ServeConfig::default(),
            prelude,
            episode,
        )
    }

    /// A plan over any roster and configuration.
    pub fn with(roster: Vec<Tenant>, cfg: ServeConfig, prelude: usize, episode: usize) -> Self {
        let ticks = inputs::ticks(&roster, cfg.hop as usize, prelude + episode);
        Self {
            roster,
            cfg,
            prelude,
            episode,
            ticks,
        }
    }

    fn specs(&self) -> Result<Vec<TenantSpec>, String> {
        self.roster
            .iter()
            .map(|t| {
                let template = hub::template_by_name(t.pipeline).map_err(|e| e.to_string())?;
                Ok(TenantSpec::new(&t.name, 5, template))
            })
            .collect()
    }

    fn open(&self, db: SintelDb) -> Result<ServeEngine, String> {
        ServeEngine::open(db, self.cfg.clone(), self.specs()?).map_err(|e| e.to_string())
    }

    /// Events each tenant has been fed after `ticks` ticks.
    fn events_per_tenant(&self, ticks: usize) -> usize {
        ticks * self.cfg.hop as usize
    }
}

/// Timing of one tick.
#[derive(Debug, Clone, Copy)]
struct TickTiming {
    /// First offer to `tick()` returning.
    latency: Duration,
    /// All offers of the tick.
    offers: Duration,
    /// The `tick()` call.
    tick: Duration,
}

/// Offer one tick's events and run the tick. Refused admissions are
/// counted, not retried.
fn run_tick(
    engine: &mut ServeEngine,
    events: &[IngestEvent],
    refused: &mut u64,
) -> Result<TickTiming, String> {
    let t0 = Instant::now();
    for event in events {
        if engine.offer(event).map_err(|e| e.to_string())? != Admission::Accepted {
            *refused += 1;
        }
    }
    let t1 = Instant::now();
    engine.tick().map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    Ok(TickTiming {
        latency: t2 - t0,
        offers: t1 - t0,
        tick: t2 - t1,
    })
}

/// Run untimed ticks `range` of the plan.
fn feed(
    plan: &Plan,
    engine: &mut ServeEngine,
    range: std::ops::Range<usize>,
) -> Result<u64, String> {
    let mut refused = 0;
    for t in range {
        run_tick(engine, &plan.ticks[t], &mut refused)?;
    }
    Ok(refused)
}

/// Every committed event of the roster's tenants, tenant by tenant.
pub fn committed(engine: &ServeEngine, roster: &[Tenant]) -> Vec<AnomalyEvent> {
    roster
        .iter()
        .flat_map(|t| engine.committed_events(&t.name))
        .collect()
}

/// The output check between two event streams: equal event by event.
pub fn compare_events(reference: &[AnomalyEvent], got: &[AnomalyEvent]) -> Result<(), String> {
    for (i, (want, have)) in reference.iter().zip(got).enumerate() {
        let same = want.tenant == have.tenant
            && want.signal == have.signal
            && want.seq == have.seq
            && want.start == have.start
            && want.end == have.end
            && want.severity.to_bits() == have.severity.to_bits()
            && want.pass == have.pass;
        if !same {
            return Err(format!(
                "event {i} differs: expected {want:?}, got {have:?}"
            ));
        }
    }
    if reference.len() != got.len() {
        return Err(format!(
            "expected {} events, got {}",
            reference.len(),
            got.len()
        ));
    }
    Ok(())
}

/// Overlap F1 of the committed events against the labels fed,
/// micro-averaged over tenants.
pub fn f1(plan: &Plan, events: &[AnomalyEvent]) -> f64 {
    let fed = plan.events_per_tenant(plan.prelude + plan.episode);
    let truth: Vec<Vec<Interval>> = plan.roster.iter().map(|t| t.truth(fed)).collect();
    let pred: Vec<Vec<Interval>> = plan
        .roster
        .iter()
        .map(|t| {
            events
                .iter()
                .filter(|e| e.tenant == t.name)
                .filter_map(|e| Interval::new(e.start, e.end).ok())
                .collect()
        })
        .collect();
    score(
        &inputs::disjoint(&truth),
        &inputs::disjoint(&pred),
        MetricKind::Overlap,
    )
    .f1
}

/// Digest of an event stream.
pub fn digest(events: &[AnomalyEvent]) -> Digest {
    let mut d = Digest::default();
    for e in events {
        d.write(e.tenant.as_bytes());
        d.write(e.signal.as_bytes());
        d.int(e.seq as i64);
        d.int(e.start);
        d.int(e.end);
        d.float(e.severity);
        d.int(e.pass as i64);
    }
    d
}

/// Counter and histogram-sum readings of the global registry.
#[derive(Debug, Clone, Copy, Default)]
struct Registry {
    wal_bytes: u64,
    fsyncs: u64,
    compactions: u64,
    attempts: u64,
    wal_append_s: f64,
    compaction_s: f64,
}

impl Registry {
    fn read() -> Self {
        let snap = sintel_obs::global().snapshot();
        let counter = |n: &str| snap.counter(n).unwrap_or(0);
        let seconds = |n: &str| snap.histogram(n).map_or(0.0, |h| h.sum());
        Self {
            wal_bytes: counter("sintel_store_wal_appended_bytes_total"),
            fsyncs: counter("sintel_store_wal_fsyncs_total"),
            compactions: counter("sintel_store_compactions_total"),
            attempts: counter("sintel_run_attempts_total"),
            wal_append_s: seconds("sintel_store_wal_append_seconds"),
            compaction_s: seconds("sintel_store_compaction_seconds"),
        }
    }

    fn since(self, before: Registry) -> Registry {
        Registry {
            wal_bytes: self.wal_bytes - before.wal_bytes,
            fsyncs: self.fsyncs - before.fsyncs,
            compactions: self.compactions - before.compactions,
            attempts: self.attempts - before.attempts,
            wal_append_s: self.wal_append_s - before.wal_append_s,
            compaction_s: self.compaction_s - before.compaction_s,
        }
    }
}

/// What one episode measured.
#[derive(Debug, Default)]
struct Episode {
    setups: Vec<f64>,
    warm_ticks: usize,
    store_opens: Vec<f64>,
    serve_opens: Vec<f64>,
    replayed_batches: usize,
    wall: f64,
    inside: f64,
    ticks: Vec<TickTiming>,
    wide: Vec<TickWideEvent>,
    registry: Registry,
    passes: u64,
    self_passes: u64,
    failed_passes: u64,
    refused: u64,
    events: Vec<AnomalyEvent>,
    trace: Vec<sintel_obs::TraceEvent>,
    /// Each run of [`WINDOW`] measured ticks.
    windows: Vec<Window>,
}

/// The measured ticks of an episode, on an engine already set up.
fn measure(
    plan: &Plan,
    engine: &mut ServeEngine,
    traced: bool,
    ep: &mut Episode,
) -> Result<(), String> {
    let stats0 = engine.stats();
    let self0 = engine.self_session().map_or(0, |s| s.pass_counter());
    let reg0 = Registry::read();
    if traced {
        sintel_obs::tracing_start();
    }
    let cores = sys::nproc();
    let ops_per_window = (WINDOW * plan.ticks.first().map_or(0, Vec::len)) as f64;
    let t0 = Instant::now();
    let mut meter = Meter::start();
    let mut latencies = Vec::with_capacity(WINDOW);
    for (i, t) in (plan.prelude..plan.prelude + plan.episode).enumerate() {
        let timing = run_tick(engine, &plan.ticks[t], &mut ep.refused)?;
        ep.inside += timing.latency.as_secs_f64();
        latencies.push(timing.latency.as_secs_f64() * 1e3);
        ep.ticks.push(timing);
        if let Some(wide) = engine.last_wide_event() {
            ep.wide.push(wide.clone());
        }
        if (i + 1) % WINDOW == 0 {
            let full = std::mem::replace(&mut latencies, Vec::with_capacity(WINDOW));
            ep.windows.push(meter.stop(ops_per_window, full, cores));
            meter = Meter::start();
        }
    }
    ep.wall = t0.elapsed().as_secs_f64();
    if traced {
        ep.trace = sintel_obs::tracing_stop();
    }
    ep.registry = Registry::read().since(reg0);
    let stats = engine.stats();
    for (name, now) in &stats.tenants {
        let before = stats0.tenants.get(name).cloned().unwrap_or_default();
        ep.passes += now.passes_run - before.passes_run;
        ep.failed_passes += (now.pass_failures - before.pass_failures)
            + (now.passes_skipped - before.passes_skipped);
    }
    ep.self_passes = engine.self_session().map_or(0, |s| s.pass_counter()) - self0;
    Ok(())
}

/// One `stream_stat` episode over a fresh in-memory store.
fn stat_episode(plan: &Plan, traced: bool) -> Result<(Episode, ServeEngine), String> {
    let mut ep = Episode::default();
    let t0 = Instant::now();
    let mut engine = plan.open(SintelDb::in_memory())?;
    ep.serve_opens.push(t0.elapsed().as_secs_f64());
    let mut warm = 0;
    let warmed = |engine: &ServeEngine| engine.stats().tenants.values().all(|s| s.passes_run > 0);
    while !warmed(&engine) {
        if warm == plan.prelude {
            return Err(format!(
                "not every tenant ran a pass within {} prelude ticks",
                plan.prelude
            ));
        }
        run_tick(&mut engine, &plan.ticks[warm], &mut ep.refused)?;
        warm += 1;
    }
    ep.setups.push(t0.elapsed().as_secs_f64());
    ep.warm_ticks = warm;
    ep.refused += feed(plan, &mut engine, warm..plan.prelude)?;
    measure(plan, &mut engine, traced, &mut ep)?;
    Ok((ep, engine))
}

/// Store options of `stream_durable`: WAL without fsync per append.
pub fn durable_options() -> StoreOptions {
    StoreOptions {
        durability: Durability::Wal,
        ..StoreOptions::default()
    }
}

/// Write the prelude ticks into an on-disk store at `dir`.
pub fn write_prelude(plan: &Plan, dir: &Path) -> Result<(), String> {
    let db = SintelDb::open_with(dir, durable_options()).map_err(|e| e.to_string())?;
    let mut engine = plan.open(db)?;
    let refused = feed(plan, &mut engine, 0..plan.prelude)?;
    if refused > 0 {
        return Err(format!("the prelude had {refused} refused admissions"));
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            let target = to.join(path.file_name().ok_or("unnamed store file")?);
            std::fs::copy(&path, &target)
                .map_err(|e| format!("copying {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Cold restarts timed per `stream_durable` episode; the episode runs
/// on the last.
const RESTARTS: usize = 3;

/// Restore the prelude store into `dir` and restart cold over it.
fn restart(
    plan: &Plan,
    prelude: &Path,
    dir: &Path,
    ep: &mut Episode,
) -> Result<ServeEngine, String> {
    let _ = std::fs::remove_dir_all(dir);
    copy_dir(prelude, dir)?;
    let t0 = Instant::now();
    let db = SintelDb::open_with(dir, durable_options()).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let engine = plan.open(db)?;
    let t2 = Instant::now();
    ep.setups.push((t2 - t0).as_secs_f64());
    ep.store_opens.push((t1 - t0).as_secs_f64());
    ep.serve_opens.push((t2 - t1).as_secs_f64());
    let recovery = engine.db().recovery();
    if !recovery.is_clean() {
        return Err(format!(
            "recovery of the prelude store was not clean: {recovery:?}"
        ));
    }
    ep.replayed_batches = recovery.wal_replayed_batches;
    Ok(engine)
}

/// One `stream_durable` episode: [`RESTARTS`] cold restarts from the
/// prelude store, then the measured ticks.
fn durable_episode(
    plan: &Plan,
    prelude: &Path,
    dir: &Path,
    traced: bool,
) -> Result<(Episode, ServeEngine), String> {
    let mut ep = Episode::default();
    for _ in 1..RESTARTS {
        drop(restart(plan, prelude, dir, &mut ep)?);
    }
    let mut engine = restart(plan, prelude, dir, &mut ep)?;
    measure(plan, &mut engine, traced, &mut ep)?;
    Ok((ep, engine))
}

/// Read an episode's committed events back, then shut its engine down
/// and remove its store directory, if it has one.
fn finish(
    plan: &Plan,
    (mut ep, engine): (Episode, ServeEngine),
    dir: Option<&Path>,
) -> Result<Episode, String> {
    ep.events = committed(&engine, &plan.roster);
    drop(engine);
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    Ok(ep)
}

/// The in-memory reference: every tick of the plan, then the committed
/// events.
pub fn reference_events(plan: &Plan) -> Result<Vec<AnomalyEvent>, String> {
    let mut engine = plan.open(SintelDb::in_memory())?;
    feed(plan, &mut engine, 0..plan.prelude + plan.episode)?;
    Ok(committed(&engine, &plan.roster))
}

/// Which stream workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-memory knowledge base.
    Stat,
    /// On-disk knowledge base at `Durability::Wal`.
    Durable,
}

/// Run a stream workload; `work` is a scratch directory for stores.
pub fn run(
    args: &Args,
    kind: Kind,
    plan: &Plan,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    out.stamp("tenants", plan.roster.len());
    out.stamp("signal_len", SIGNAL_LEN);
    out.stamp("prelude_ticks", plan.prelude);
    out.stamp("episode_ticks", plan.episode);
    out.stamp("events_per_tick", plan.ticks.first().map_or(0, Vec::len));
    let mut fingerprint = Digest::default();
    for e in plan.ticks.iter().flatten() {
        fingerprint.write(e.tenant.as_bytes());
        fingerprint.int(e.timestamp);
        fingerprint.float(e.value);
    }
    out.stamp("inputs", fingerprint.hex());

    let prelude_dir: PathBuf = work.join("prelude");
    let reference = match kind {
        Kind::Stat => None,
        Kind::Durable => {
            write_prelude(plan, &prelude_dir)?;
            Some(reference_events(plan)?)
        }
    };

    let episode_dir = work.join("episode");
    let dir = (kind == Kind::Durable).then_some(episode_dir.as_path());
    let start = |traced: bool| match kind {
        Kind::Stat => stat_episode(plan, traced),
        Kind::Durable => durable_episode(plan, &prelude_dir, &episode_dir, traced),
    };
    let episode = |traced: bool| finish(plan, start(traced)?, dir);

    // A traced run alternates untraced and traced episodes, and runs
    // until the untraced ones hold the ticks a p99 needs.
    let untraced_needed = if args.trace { 100 * MIN_BEYOND } else { 1 };
    let deadline = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut episodes: Vec<(bool, Episode)> = Vec::new();
    let mut untraced_ticks = 0;
    let mut first: Option<Vec<AnomalyEvent>> = None;
    while untraced_ticks < untraced_needed
        || (args.trace && episodes.len() < 2)
        || started.elapsed() < deadline
    {
        let traced = args.trace && episodes.len() % 2 == 1;
        if !traced {
            untraced_ticks += plan.episode;
        }
        let mut ep = episode(traced)?;
        // Output checks: every episode commits the same events, and the
        // durable ones equal the in-memory reference. Only the first
        // episode's events are kept, so memory does not grow with the
        // run.
        let events = std::mem::take(&mut ep.events);
        match (&reference, &first) {
            (Some(want), _) | (None, Some(want)) => {
                if let Err(e) = compare_events(want, &events) {
                    let against = if reference.is_some() {
                        "the in-memory reference"
                    } else {
                        "episode 0"
                    };
                    out.problems
                        .push(format!("episode {} against {against}: {e}", episodes.len()));
                }
            }
            (None, None) => {}
        }
        first.get_or_insert(events);
        if !args.trace {
            ep.wide = Vec::new();
        }
        episodes.push((traced, ep));
    }
    // Memory: the peak heap of one more untimed episode.
    let (extra, heap_mib) = heap::peak_of(|| start(false));
    out.set("peak_heap_mb", heap_mib);
    let first = first.unwrap_or_default();
    let first = &first;
    let extra = finish(plan, extra?, dir)?;
    if let Err(e) = compare_events(reference.as_deref().unwrap_or(first), &extra.events) {
        out.problems.push(format!("memory episode: {e}"));
    }
    let f1 = f1(plan, first);
    out.set("f1", f1);
    let mut d = digest(first);
    d.float(f1);
    out.stamp("digest", d.hex());
    out.stamp("committed_events", first.len());

    let all: Vec<&Episode> = episodes.iter().map(|(_, e)| e).collect();
    let plain: Vec<&Episode> = episodes
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, e)| e)
        .collect();
    let traced: Vec<&Episode> = episodes
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, e)| e)
        .collect();
    let events_per_tick = plan.ticks.first().map_or(0, Vec::len) as f64;
    let sum = |eps: &[&Episode], f: &dyn Fn(&Episode) -> f64| eps.iter().map(|e| f(e)).sum::<f64>();
    let ticks = |eps: &[&Episode]| sum(eps, &|e| e.ticks.len() as f64);
    let wall = sum(&all, &|e| e.wall);

    out.attempted = (ticks(&all) * events_per_tick) as u64;
    out.failed = all.iter().map(|e| e.refused + e.failed_passes).sum();
    out.stamp("episodes", all.len());
    out.stamp("ticks", ticks(&all));
    out.stamp("ops", out.attempted);
    out.stamp("loop_seconds", format!("{wall:.3}"));

    let setups: Vec<f64> = all.iter().flat_map(|e| e.setups.iter().copied()).collect();
    out.set("setup_s", median(&setups).unwrap_or(0.0));
    let windows: Vec<Window> = plain
        .iter()
        .flat_map(|e| e.windows.iter().cloned())
        .collect();
    let (rate, cpu, latency) = window::summarise(&windows);
    out.stamp("windows", window::describe(&windows));
    if kind == Kind::Stat {
        out.stamp(
            "warm_ticks",
            all.iter().map(|e| e.warm_ticks).max().unwrap_or(0),
        );
    }
    out.set("throughput_per_s", rate);
    out.set("latency_p50_ms", latency);
    out.set("cpu_ms_per_op", cpu);
    let latencies: Vec<f64> = plain
        .iter()
        .flat_map(|e| e.ticks.iter().map(|t| t.latency.as_secs_f64() * 1e3))
        .collect();
    out.set(
        "bench.unattributed_pct",
        100.0 * (wall - sum(&all, &|e| e.inside)) / wall,
    );

    if args.trace {
        per_layer(plan, kind, &plain, &traced, &latencies, out)?;
    }
    if kind == Kind::Durable {
        let fsyncs: u64 = all.iter().map(|e| e.registry.fsyncs).sum();
        if fsyncs != 0 {
            out.problems.push(format!(
                "{fsyncs} WAL fsyncs at durability `wal`; expected none"
            ));
        }
    }
    Ok(())
}

/// The traced run's per-layer figures: timings around calls and program
/// state from the untraced episodes, span self times from the traced
/// ones.
fn per_layer(
    plan: &Plan,
    kind: Kind,
    plain: &[&Episode],
    traced: &[&Episode],
    latencies: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let plain_ticks: f64 = plain.iter().map(|e| e.ticks.len() as f64).sum();
    let per_tick =
        |f: &dyn Fn(&Episode) -> f64| plain.iter().map(|e| f(e)).sum::<f64>() / plain_ticks;
    let per_episode = |f: &dyn Fn(&Episode) -> f64| {
        median(&plain.iter().map(|e| f(e)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let ticks_ms: Vec<f64> = plain
        .iter()
        .flat_map(|e| e.ticks.iter().map(|t| t.tick.as_secs_f64() * 1e3))
        .collect();

    out.set("latency_p90_ms", tail_percentile(latencies, 90.0)?);
    out.set("serve.tick_ms", median(&ticks_ms).unwrap_or(0.0));
    out.set("serve.tick_p99_ms", tail_percentile(&ticks_ms, 99.0)?);
    let offers: f64 = plain
        .iter()
        .flat_map(|e| &e.ticks)
        .map(|t| t.offers.as_secs_f64())
        .sum();
    let events_per_tick = plan.ticks.first().map_or(0, Vec::len) as f64;
    out.set(
        "serve.offer_ns",
        offers * 1e9 / (plain_ticks * events_per_tick),
    );
    out.set(
        "serve.pass_ms",
        per_tick(&|e| e.wide.iter().map(|w| w.pass_seconds).sum::<f64>() * 1e3),
    );
    out.set(
        "serve.checkpoint_ms",
        per_tick(&|e| e.wide.iter().map(|w| w.checkpoint_seconds).sum::<f64>() * 1e3),
    );
    out.set(
        "store.wal_bytes_per_tick",
        per_tick(&|e| e.registry.wal_bytes as f64),
    );
    out.set(
        "store.wal_append_ms",
        per_tick(&|e| e.registry.wal_append_s * 1e3),
    );
    out.set(
        "store.compactions",
        per_episode(&|e| e.registry.compactions as f64),
    );
    out.set(
        "store.compaction_ms",
        per_tick(&|e| e.registry.compaction_s * 1e3),
    );
    out.set(
        "store.fsyncs",
        plain
            .iter()
            .chain(traced)
            .map(|e| e.registry.fsyncs as f64)
            .sum(),
    );
    if kind == Kind::Durable {
        let opens: Vec<f64> = plain
            .iter()
            .flat_map(|e| e.store_opens.iter().map(|s| s * 1e3))
            .collect();
        out.set("store.open_ms", median(&opens).unwrap_or(0.0));
        out.set(
            "store.replayed_batches",
            per_episode(&|e| e.replayed_batches as f64),
        );
    }
    let opens: Vec<f64> = plain
        .iter()
        .flat_map(|e| e.serve_opens.iter().map(|s| s * 1e3))
        .collect();
    out.set("serve.open_ms", median(&opens).unwrap_or(0.0));
    out.set("serve.passes", per_episode(&|e| e.passes as f64));
    out.set(
        "serve.pass_failures",
        per_episode(&|e| e.failed_passes as f64),
    );
    out.set(
        "serve.emitted",
        per_episode(&|e| e.wide.iter().map(|w| w.emitted as f64).sum()),
    );
    out.set("serve.refused", per_episode(&|e| e.refused as f64));
    out.set(
        "policy.attempts_per_pass",
        per_episode(&|e| e.registry.attempts as f64 / (e.passes + e.self_passes).max(1) as f64),
    );

    // Span self times, per measured tick of the traced episodes.
    let traced_ticks: f64 = traced.iter().map(|e| e.ticks.len() as f64).sum();
    let template_of = |tenant: &str| -> String {
        plan.roster.iter().find(|t| t.name == tenant).map_or_else(
            || plan.cfg.fallback.name.clone(),
            |t| t.pipeline.to_string(),
        )
    };
    let mut totals: std::collections::BTreeMap<String, f64> = Default::default();
    let mut spans = 0usize;
    let mut unattributed = 0usize;
    for ep in traced {
        let forest = Forest::new(
            &ep.trace,
            &[("pipeline.", "serve.pass"), ("serve.pass", "serve.tick")],
            |parent, child| {
                parent.name != "serve.pass"
                    || child.field("pipeline")
                        == Some(template_of(parent.field("tenant").unwrap_or("")).as_str())
            },
        );
        spans += forest.spans.len();
        // Every pipeline run happens inside a pass, and every pass
        // inside a tick: a root among them means a lost attribution.
        unattributed += forest.roots("pipeline.") + forest.roots("serve.pass");
        for (name, ns) in forest.self_ns("primitive.", |s| {
            let phase = s.name.trim_start_matches("primitive.");
            primitive_metric(s.field("primitive").unwrap_or("?"), phase)
        }) {
            *totals.entry(name).or_default() += ns as f64;
        }
        let mut add = |key: &str, ns: u64| *totals.entry(key.to_string()).or_default() += ns as f64;
        add(
            "pipeline.self_ms",
            forest
                .self_ns("pipeline.", |_| String::new())
                .values()
                .sum(),
        );
        add(
            "serve.pass.self_ms",
            forest
                .self_ns("serve.pass", |_| String::new())
                .values()
                .sum(),
        );
        // A tick's commit is timed by the engine and reported in the
        // next tick's wide event; the last tick's commit is unknown, so
        // that tick counts its commit as self time.
        let tick_self: u64 = forest
            .self_ns("serve.tick", |_| String::new())
            .values()
            .sum();
        let commits: f64 = ep.wide.iter().skip(1).map(|w| w.checkpoint_seconds).sum();
        add(
            "serve.tick.self_ms",
            tick_self.saturating_sub((commits * 1e9) as u64),
        );
    }
    for (name, ns) in totals {
        out.set(&name, ns / 1e6 / traced_ticks);
    }
    out.set(
        "obs.spans_per_op",
        spans as f64 / (traced_ticks * events_per_tick),
    );
    if unattributed > 0 {
        return Err(format!(
            "{unattributed} pipeline or pass spans found no enclosing span"
        ));
    }
    let rate = |eps: &[&Episode]| {
        eps.iter().map(|e| e.ticks.len() as f64).sum::<f64>()
            / eps.iter().map(|e| e.wall).sum::<f64>()
    };
    let (untraced_rate, traced_rate) = (rate(plain), rate(traced));
    out.set(
        "obs.trace_overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-tenant plan small enough for a unit test.
    fn small_plan(prelude: usize, episode: usize) -> Plan {
        let cfg = ServeConfig {
            window: 128,
            hop: 32,
            min_points: 64,
            ..ServeConfig::default()
        };
        Plan::with(inputs::roster(11, 2, 160), cfg, prelude, episode)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn one_event_mismatch_fails_the_durable_check() {
        let plan = small_plan(6, 6);
        let reference = reference_events(&plan).expect("reference run");
        assert!(!reference.is_empty(), "the small plan must emit events");
        let work = scratch("mismatch");
        write_prelude(&plan, &work.join("prelude")).expect("prelude");
        let episode_dir = work.join("episode");
        let ep = durable_episode(&plan, &work.join("prelude"), &episode_dir, false)
            .and_then(|run| finish(&plan, run, Some(&episode_dir)))
            .expect("durable episode");
        let _ = std::fs::remove_dir_all(&work);
        compare_events(&reference, &ep.events).expect("durable equals in-memory");

        let mut seeded = ep.events.clone();
        let last = seeded.len() - 1;
        seeded[last].severity = f64::from_bits(seeded[last].severity.to_bits() ^ 1);
        let err = compare_events(&reference, &seeded).expect_err("one changed event");
        assert!(err.contains(&format!("event {last} differs")), "{err}");
        seeded.pop();
        assert!(
            compare_events(&reference, &seeded).is_err(),
            "a missing event fails"
        );
    }

    #[test]
    fn setup_excludes_the_prelude() {
        // A long prelude: writing it dwarfs a cold restart over it.
        let plan = small_plan(24, 2);
        let work = scratch("setup");
        let t0 = Instant::now();
        write_prelude(&plan, &work.join("prelude")).expect("prelude");
        let prelude_s = t0.elapsed().as_secs_f64();
        let episode_dir = work.join("episode");
        let ep = durable_episode(&plan, &work.join("prelude"), &episode_dir, false)
            .and_then(|run| finish(&plan, run, Some(&episode_dir)))
            .expect("durable episode");
        let _ = std::fs::remove_dir_all(&work);
        assert_eq!(ep.setups.len(), RESTARTS);
        for (i, setup) in ep.setups.iter().enumerate() {
            assert!(
                *setup < prelude_s / 2.0,
                "setup {setup} vs prelude {prelude_s}"
            );
            assert!((setup - (ep.store_opens[i] + ep.serve_opens[i])).abs() < 1e-3);
        }

        // In memory, setup ends once every tenant has run a pass; the
        // rest of the prelude runs untimed.
        let (ep, _engine) = stat_episode(&plan, false).expect("stat episode");
        assert_eq!(
            ep.warm_ticks,
            plan.cfg.min_points.div_ceil(plan.cfg.hop as usize)
        );
        assert!(ep.warm_ticks < plan.prelude);
    }
}

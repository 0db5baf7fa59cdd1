//! The introspection tier's determinism contract, proven end to end:
//! a run with the HTTP status endpoint live and a scraper hammering
//! every route between ticks must leave **bitwise identical** committed
//! emissions and persisted store bytes as a run with the endpoint
//! disabled — at every worker thread count. Scrapes read published
//! `Arc` snapshots only; this suite is the enforcement.
//!
//! Store bytes are compared after masking exactly
//! [`sintel_serve::VOLATILE_TICK_FIELDS`] (wall-clock pass/commit
//! durations), recursively — per-tenant slices nested inside a wide
//! event carry `pass_seconds` too. Everything else must match byte for
//! byte, including the `serve_ticks` wide events and the `_self`
//! monitor's session checkpoint.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use sintel_pipeline::template::{StepSpec, Template};
use sintel_primitives::HyperValue;
use sintel_serve::{
    AnomalyEvent, IngestEvent, ServeConfig, ServeEngine, StatusServer, TenantSpec,
    VOLATILE_TICK_FIELDS,
};
use sintel_store::{Doc, SintelDb};

/// Serializes tests: the thread budget override is process-global.
static GUARD: Mutex<()> = Mutex::new(());

const TENANTS: [&str; 3] = ["t0", "t1", "t2"];

/// Events offered between ticks. Small enough that detection passes
/// (and the self-monitor's differenced streams) see plenty of ticks.
const CHUNK: usize = 24;

fn cheap_template() -> Template {
    Template {
        name: "scrape_purity".into(),
        steps: vec![
            StepSpec::plain("azure_anomaly_service"),
            StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(2.0))]),
        ],
    }
}

fn specs() -> Vec<TenantSpec> {
    TENANTS.iter().map(|name| TenantSpec::new(name, 5, cheap_template())).collect()
}

/// Interleaved three-tenant stream with a distinct spike per tenant.
fn stream() -> Vec<IngestEvent> {
    let mut events = Vec::new();
    for t in 0..200i64 {
        for (i, name) in TENANTS.iter().enumerate() {
            let phase = (i as f64 + 1.0) * 0.17;
            let spike = if t == 60 + 20 * i as i64 { 5.0 + i as f64 } else { 0.0 };
            events.push(IngestEvent::new(name, "cpu", t, (t as f64 * phase).sin() + spike));
        }
    }
    events
}

/// One best-effort GET against the status server (the scraper thread
/// races engine shutdown, so failures are ignored, not asserted).
fn scrape_once(addr: SocketAddr, path: &str) {
    let Ok(mut stream) = TcpStream::connect(addr) else { return };
    let request = format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n");
    if stream.write_all(request.as_bytes()).is_err() {
        return;
    }
    let mut sink = String::new();
    let _ = stream.read_to_string(&mut sink);
}

/// Mask wall-clock fields wherever they appear, including inside the
/// per-tenant array nested in a wide event.
fn scrub_doc(doc: Doc) -> Doc {
    match doc {
        Doc::Obj(map) => Doc::Obj(
            map.into_iter()
                .map(|(key, value)| {
                    let value = if VOLATILE_TICK_FIELDS.contains(&key.as_str()) {
                        Doc::from("<volatile>")
                    } else {
                        scrub_doc(value)
                    };
                    (key, value)
                })
                .collect(),
        ),
        Doc::Arr(items) => Doc::Arr(items.into_iter().map(scrub_doc).collect()),
        other => other,
    }
}

/// Every persisted collection file, sorted by name, with volatile
/// fields masked line by line.
fn store_files(dir: &PathBuf) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .map(|p| {
            let name = p.file_name().expect("file name").to_string_lossy().into_owned();
            let raw = std::fs::read_to_string(&p).expect("collection readable");
            let scrubbed: String = raw
                .lines()
                .map(|line| {
                    let doc = sintel_common::json::from_json(line).expect("store line parses");
                    sintel_common::json::to_json(&scrub_doc(doc)) + "\n"
                })
                .collect();
            (name, scrubbed)
        })
        .collect();
    files.sort();
    files
}

struct RunOutput {
    /// Committed emissions per tenant, `_self` last.
    emissions: Vec<Vec<AnomalyEvent>>,
    /// Persisted store files after `save()`, volatile fields masked.
    files: Vec<(String, String)>,
}

/// Offer the full stream, ticking every [`CHUNK`] events — with or
/// without a live status server being scraped from another thread —
/// then collect committed emissions and the persisted store bytes.
fn run(threads: usize, scrape: bool) -> RunOutput {
    sintel_common::set_threads(Some(threads));
    let dir = std::env::temp_dir().join(format!(
        "sintel-scrape-purity-{}-{threads}-{scrape}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = SintelDb::open(&dir).expect("open store");
    let mut engine =
        ServeEngine::open(db, ServeConfig::for_tests(), specs()).expect("open engine");

    let mut server = None;
    let mut scraper = None;
    let stop = Arc::new(AtomicBool::new(false));
    if scrape {
        let shared = engine.enable_status();
        let bound = StatusServer::bind("127.0.0.1:0", shared).expect("bind status server");
        let addr = bound.local_addr();
        let flag = Arc::clone(&stop);
        scraper = Some(std::thread::spawn(move || {
            let routes = ["/metrics", "/tenants", "/healthz", "/trace?n=32"];
            let mut hits = 0usize;
            while !flag.load(Ordering::Relaxed) {
                scrape_once(addr, routes[hits % routes.len()]);
                hits += 1;
            }
            hits
        }));
        server = Some(bound);
    }

    for (i, event) in stream().iter().enumerate() {
        engine.offer(event).expect("offer");
        if (i + 1) % CHUNK == 0 {
            engine.tick().expect("tick");
        }
    }
    engine.tick().expect("final tick");

    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = scraper {
        let hits = handle.join().expect("scraper thread joins");
        assert!(hits > 0, "scraper must actually have raced the engine");
    }
    if let Some(server) = server {
        server.stop();
    }

    let mut emissions: Vec<Vec<AnomalyEvent>> =
        TENANTS.iter().map(|t| engine.committed_events(t)).collect();
    emissions.push(engine.self_events());
    let db = engine.into_db();
    db.save().expect("persist store");
    let files = store_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    RunOutput { emissions, files }
}

#[test]
fn scraping_never_perturbs_emissions_or_store_bytes() {
    let _lock = GUARD.lock().unwrap_or_else(|e| e.into_inner());

    let baseline = run(1, false);
    assert!(
        baseline.emissions.iter().any(|events| !events.is_empty()),
        "workload must actually emit anomalies"
    );
    let (_, ticks) = baseline
        .files
        .iter()
        .find(|(name, _)| name.starts_with("serve_ticks"))
        .expect("wide events must be persisted");
    assert!(
        ticks.contains("<volatile>"),
        "masking must have touched the wide events' wall-clock fields"
    );

    for threads in [1usize, 2, 8] {
        for scrape in [false, true] {
            if threads == 1 && !scrape {
                continue; // that is the baseline itself
            }
            let probe = run(threads, scrape);
            assert_eq!(
                probe.emissions, baseline.emissions,
                "emissions diverged at threads={threads} scrape={scrape}"
            );
            let names = |files: &[(String, String)]| {
                files.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
            };
            assert_eq!(
                names(&probe.files),
                names(&baseline.files),
                "collection set diverged at threads={threads} scrape={scrape}"
            );
            for ((name, probe_body), (_, base_body)) in
                probe.files.iter().zip(baseline.files.iter())
            {
                assert_eq!(
                    probe_body, base_body,
                    "store bytes diverged in {name} at threads={threads} scrape={scrape}"
                );
            }
        }
    }

    sintel_common::set_threads(None);
}

//! Checkpoint cost is O(hop), not O(window): with 8 tenants receiving
//! one hop (64 samples) per tick, the steady-state WAL bytes a tick
//! appends stay within 10% when the window doubles from 512 to 1024,
//! and each signal keeps at most ⌈window/hop⌉ + 1 live chunks (the
//! `_self` monitor's one-sample ticks included).
//!
//! The WAL byte counter is process-global, so this binary holds this
//! one test only.

use std::collections::BTreeMap;

use sintel_pipeline::template::{StepSpec, Template};
use sintel_primitives::HyperValue;
use sintel_serve::{IngestEvent, ServeConfig, ServeEngine, TenantSpec, SELF_TENANT};
use sintel_store::{Doc, Durability, SintelDb, StoreOptions};

const TENANTS: usize = 8;
const HOP: u64 = 64;
/// Ticks measured once every window is full.
const MEASURED: usize = 6;

fn cheap_template() -> Template {
    Template {
        name: "cost_test".into(),
        steps: vec![
            StepSpec::plain("azure_anomaly_service"),
            StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(3.0))]),
        ],
    }
}

fn wal_bytes() -> u64 {
    sintel_obs::global().snapshot().counter("sintel_store_wal_appended_bytes_total").unwrap_or(0)
}

/// Most live chunks any signal of any tenant holds in the store.
fn max_live_chunks(db: &SintelDb, tenants: &[String]) -> usize {
    let mut most = 0;
    for tenant in tenants {
        let mut per_signal: BTreeMap<String, usize> = BTreeMap::new();
        for chunk in db.serve_chunks(tenant) {
            let signal = chunk.get("signal").and_then(Doc::as_str).unwrap_or("").to_string();
            *per_signal.entry(signal).or_default() += 1;
        }
        most = most.max(per_signal.values().copied().max().unwrap_or(0));
    }
    most
}

/// Mean WAL bytes per steady-state tick at `window`, asserting the
/// live-chunk bound after every tick.
fn steady_wal_bytes_per_tick(window: usize) -> f64 {
    let dir = std::env::temp_dir()
        .join(format!("sintel-checkpoint-cost-{}-{window}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions { durability: Durability::Wal, compact_threshold: u64::MAX };
    let db = SintelDb::open_with(&dir, opts).expect("open store");
    let cfg = ServeConfig { window, hop: HOP, min_points: 128, ..ServeConfig::for_tests() };
    let tenants: Vec<String> = (0..TENANTS).map(|i| format!("tenant-{i}")).collect();
    let specs = tenants.iter().map(|t| TenantSpec::new(t, 5, cheap_template())).collect();
    let mut engine = ServeEngine::open(db, cfg, specs).expect("open engine");

    let bound = window.div_ceil(HOP as usize) + 1;
    let fill = window / HOP as usize + 1;
    let mut before = 0;
    for tick in 0..fill + MEASURED {
        if tick == fill {
            before = wal_bytes();
        }
        for t in tick as i64 * HOP as i64..(tick as i64 + 1) * HOP as i64 {
            for (i, tenant) in tenants.iter().enumerate() {
                let value = (t as f64 * (0.05 + 0.01 * i as f64)).sin();
                engine.offer(&IngestEvent::new(tenant, "cpu", t, value)).expect("offer");
            }
        }
        engine.tick().expect("tick");
        let live = max_live_chunks(engine.db(), &tenants);
        assert!(live <= bound, "window {window}: {live} live chunks > bound {bound}");
        // The self-monitor absorbs one sample per tick into a 128-sample
        // window at hop 16: its chunks coalesce up to a hop.
        let live = max_live_chunks(engine.db(), &[SELF_TENANT.to_string()]);
        assert!(live <= 128 / 16 + 1, "window {window}: `_self` holds {live} live chunks");
    }
    let per_tick = (wal_bytes() - before) as f64 / MEASURED as f64;
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    per_tick
}

#[test]
fn checkpoint_wal_bytes_do_not_grow_with_the_window() {
    let small = steady_wal_bytes_per_tick(512);
    let large = steady_wal_bytes_per_tick(1024);
    assert!(small > 0.0, "the WAL must record the ticks");
    let growth = (large - small).abs() / small;
    assert!(
        growth <= 0.10,
        "WAL bytes per tick moved {:.1}% (window 512: {small:.0} B, window 1024: {large:.0} B)",
        growth * 100.0
    );
}

//! The serve tier's admission counters move once per tick, by the
//! counts of that tick's wide event: an offer alone changes no registry
//! series, and after each tick the counters have moved exactly as far
//! as the engine's own per-tenant statistics. The counters live in the
//! process-global registry, so this binary holds a single test and no
//! other engine ticks beside it.

use sintel_pipeline::template::{StepSpec, Template};
use sintel_primitives::HyperValue;
use sintel_serve::{IngestEvent, ServeConfig, ServeEngine, ServeStats, TenantSpec};
use sintel_store::SintelDb;

const COUNTERS: [&str; 4] = [
    "sintel_serve_accepted_total",
    "sintel_serve_retry_total",
    "sintel_serve_shed_total",
    "sintel_serve_emitted_total",
];

fn counters() -> [u64; 4] {
    let snap = sintel_obs::global().snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

fn stats_sums(stats: &ServeStats) -> [u64; 4] {
    let sum = |f: fn(&sintel_serve::TenantStats) -> u64| stats.tenants.values().map(f).sum();
    [sum(|t| t.accepted), sum(|t| t.retried), sum(|t| t.shed), sum(|t| t.emitted)]
}

fn minus(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]]
}

#[test]
fn counters_move_once_per_tick_by_the_stats_deltas() {
    let template = Template {
        name: "tick_counters".into(),
        steps: vec![
            StepSpec::plain("azure_anomaly_service"),
            StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(2.0))]),
        ],
    };
    // Small queues answer Retry; past a backlog of 6 the low-priority
    // tenant is shed.
    let cfg = ServeConfig {
        queue_capacity: 4,
        high_water: 6,
        priority_floor: 5,
        ..ServeConfig::for_tests()
    };
    let specs =
        vec![TenantSpec::new("hi", 9, template.clone()), TenantSpec::new("lo", 1, template)];
    let mut engine = ServeEngine::open(SintelDb::in_memory(), cfg, specs).expect("open");

    let mut moved = [0u64; 4];
    for round in 0..40i64 {
        let (counters_before, stats_before) = (counters(), stats_sums(&engine.stats()));
        for t in round * 6..round * 6 + 6 {
            let value = (t as f64 / 5.0).sin() + if t % 97 == 50 { 8.0 } else { 0.0 };
            for tenant in ["hi", "lo"] {
                engine.offer(&IngestEvent::new(tenant, "cpu", t, value)).expect("offer");
            }
        }
        assert_eq!(counters(), counters_before, "round {round}: offer() alone moved a counter");
        engine.tick().expect("tick");
        let counted = minus(counters(), counters_before);
        assert_eq!(
            counted,
            minus(stats_sums(&engine.stats()), stats_before),
            "round {round}: counters {COUNTERS:?} must move by the stats deltas"
        );
        let wide = engine.last_wide_event().expect("a tick ran");
        assert_eq!(counted, [wide.accepted, wide.retried, wide.shed, wide.emitted]);
        for (total, n) in moved.iter_mut().zip(counted) {
            *total += n;
        }
    }
    assert!(moved.iter().all(|&n| n > 0), "every counter must move at least once: {moved:?}");
}

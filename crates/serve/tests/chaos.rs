#![cfg(feature = "faulty")]

//! Chaos suite: every injected fault — panicking, hanging, slow and
//! flaky tenants, plus crashes at the checkpoint protocol's weak spots
//! — must leave the *other* tenants' committed outputs bitwise
//! identical to a fault-free run, and recovery must neither lose nor
//! duplicate committed events.

use std::time::Duration;

use sintel_pipeline::policy::RunPolicy;
use sintel_pipeline::template::{StepSpec, Template};
use sintel_primitives::HyperValue;
use sintel_serve::fault::{arm, disarm, CrashPoint};
use sintel_serve::{
    Admission, IngestEvent, ServeConfig, ServeEngine, ServeError, TenantSpec,
};
use sintel_store::SintelDb;

const HEALTHY: [&str; 2] = ["healthy-a", "healthy-b"];
const VICTIM: &str = "victim";

fn healthy_template() -> Template {
    Template {
        name: "chaos_healthy".into(),
        steps: vec![
            StepSpec::plain("azure_anomaly_service"),
            StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(2.0))]),
        ],
    }
}

fn chaos_config() -> ServeConfig {
    ServeConfig {
        window: 128,
        hop: 32,
        min_points: 32,
        breaker_threshold: 3,
        breaker_cooldown: 1,
        quarantine_trips: 2,
        policy: RunPolicy::single_attempt(Duration::from_millis(300)),
        ..ServeConfig::for_tests()
    }
}

/// Deterministic per-tenant stream: phase keyed off the tenant name,
/// one spike per tenant.
fn events_for(tenants: &[&str], len: i64) -> Vec<IngestEvent> {
    let mut events = Vec::new();
    for t in 0..len {
        for name in tenants {
            let phase = (name.len() as f64) * 0.13 + 0.11;
            let spike = if t == 70 { 5.0 } else { 0.0 };
            events.push(IngestEvent::new(name, "cpu", t, (t as f64 * phase).sin() + spike));
        }
    }
    events
}

/// Run a full stream through an engine with the given tenants; victims
/// may shed/degrade, healthy tenants must always be `Accepted`.
fn run(specs: Vec<TenantSpec>, tenants: &[&str], len: i64) -> ServeEngine {
    let mut engine =
        ServeEngine::open(SintelDb::in_memory(), chaos_config(), specs).expect("open engine");
    for (i, event) in events_for(tenants, len).iter().enumerate() {
        let admission = engine.offer(event).expect("offer");
        if event.tenant != VICTIM {
            assert_eq!(admission, Admission::Accepted, "healthy ingest must never be refused");
        }
        if (i + 1) % 31 == 0 {
            engine.tick().expect("tick");
        }
    }
    engine.tick().expect("tick");
    engine
}

/// Healthy-tenant committed events of a run with `victim_template`
/// present, asserted bitwise-equal to a victimless baseline; returns
/// the faulted engine for victim-side assertions.
fn assert_healthy_isolated(victim_template: Template) -> ServeEngine {
    let baseline_specs: Vec<TenantSpec> =
        HEALTHY.iter().map(|n| TenantSpec::new(n, 5, healthy_template())).collect();
    let baseline = run(baseline_specs, &HEALTHY, 200);

    let mut specs: Vec<TenantSpec> =
        HEALTHY.iter().map(|n| TenantSpec::new(n, 5, healthy_template())).collect();
    specs.push(TenantSpec::new(VICTIM, 5, victim_template));
    let all: Vec<&str> = HEALTHY.iter().copied().chain(std::iter::once(VICTIM)).collect();
    let faulted = run(specs, &all, 200);

    for tenant in HEALTHY {
        assert_eq!(
            faulted.committed_events(tenant),
            baseline.committed_events(tenant),
            "tenant '{tenant}' was not isolated from the victim"
        );
        assert!(!baseline.committed_events(tenant).is_empty(), "spike must be detected");
    }
    faulted
}

#[test]
fn panicking_tenant_is_quarantined_and_isolated() {
    let engine = assert_healthy_isolated(Template {
        name: "chaos_panic".into(),
        steps: vec![StepSpec::plain("faulty_panic")],
    });
    let stats = engine.stats();
    let victim = &stats.tenants[VICTIM];
    assert!(victim.quarantined, "repeated panics must quarantine the tenant");
    assert!(victim.breaker_trips >= 2, "quarantine requires two trips");
    assert!(victim.pass_failures >= 3, "threshold-many failures before the first trip");

    // Quarantined ingest is shed at admission.
    let mut engine = engine;
    let admission = engine.offer(&IngestEvent::new(VICTIM, "cpu", 10_000, 0.0)).expect("offer");
    assert_eq!(admission, Admission::Shed);
}

#[test]
fn hanging_tenant_degrades_to_fallback_and_is_isolated() {
    let engine = assert_healthy_isolated(Template {
        name: "chaos_hang".into(),
        steps: vec![StepSpec::with("faulty_hang", &[("sleep_ms", HyperValue::Int(60_000))])],
    });
    let stats = engine.stats();
    let victim = &stats.tenants[VICTIM];
    assert!(victim.degraded, "a pass timeout must degrade the tenant to the fallback");
    assert!(!victim.quarantined, "degradation, not quarantine, is the overload response");
    assert!(victim.emitted > 0, "the fallback pipeline must keep emitting for the victim");
}

#[test]
fn slow_tenant_degrades_to_fallback_and_is_isolated() {
    let engine = assert_healthy_isolated(Template {
        name: "chaos_slow".into(),
        steps: vec![StepSpec::with("faulty_slow", &[("ms_per_row", HyperValue::Int(50))])],
    });
    let stats = engine.stats();
    let victim = &stats.tenants[VICTIM];
    assert!(victim.degraded, "a slow consumer must be degraded, not left to block the tier");
    assert!(!victim.quarantined);
}

#[test]
fn flaky_tenant_recovers_without_tripping() {
    sintel_primitives::faulty::reset_flaky_counter("chaos-flaky");
    let engine = assert_healthy_isolated(Template {
        name: "chaos_flaky".into(),
        steps: vec![
            StepSpec::with(
                "faulty_flaky",
                &[
                    ("fail_first_n", HyperValue::Int(2)),
                    ("key", HyperValue::Text("chaos-flaky".into())),
                ],
            ),
            StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(2.0))]),
        ],
    });
    let stats = engine.stats();
    let victim = &stats.tenants[VICTIM];
    assert!(victim.pass_failures >= 1, "the first flaky passes must fail");
    assert_eq!(victim.breaker_trips, 0, "sub-threshold flakiness must not trip the breaker");
    assert!(!victim.quarantined);
    assert!(!victim.degraded);
    assert!(victim.passes_run > victim.pass_failures, "later passes must succeed");
}

/// Both checkpoint-protocol crash points, driven in one test (a point
/// is armed for the calling thread and fires once).
#[test]
fn checkpoint_crash_points_recover_exactly_once() {
    disarm();
    for point in CrashPoint::ALL {
        // Reference: fault-free run over the same stream.
        let reference =
            run(vec![TenantSpec::new("acme", 5, healthy_template())], &["acme"], 256)
                .committed_events("acme");
        assert!(!reference.is_empty());

        // Faulted run: crash at `point` mid-stream, recover, replay all.
        let mut engine = ServeEngine::open(
            SintelDb::in_memory(),
            chaos_config(),
            vec![TenantSpec::new("acme", 5, healthy_template())],
        )
        .expect("open");
        let events = events_for(&["acme"], 256);
        for event in &events[..150] {
            engine.offer(event).expect("offer");
            // Tick occasionally so there is committed history to protect.
            if event.timestamp % 41 == 0 {
                engine.tick().expect("tick");
            }
        }
        arm(point);
        let crash = engine.tick();
        assert!(
            matches!(crash, Err(ServeError::Injected(label)) if label == point.label()),
            "tick must crash at the armed point {point:?}"
        );

        // "kill -9": only the store survives.
        let db = engine.into_db();
        let committed_at_crash = {
            let mut probe = ServeEngine::open(
                db,
                chaos_config(),
                vec![TenantSpec::new("acme", 5, healthy_template())],
            )
            .expect("recover");
            let n = probe.committed_events("acme").len();
            for event in &events {
                probe.offer(event).expect("offer");
            }
            probe.tick().expect("tick");
            let recovered = probe.committed_events("acme");
            assert_eq!(
                recovered, reference,
                "crash at {point:?}: replay must commit identical events"
            );
            for (i, ev) in recovered.iter().enumerate() {
                assert_eq!(ev.seq, i as u64, "crash at {point:?}: seq must stay dense");
            }
            n
        };
        assert!(
            committed_at_crash <= reference.len(),
            "a crash cannot commit more than the fault-free run"
        );
    }
}

/// A WAL append failing inside a tick's group commit surfaces as that
/// tick's `Err`. The engine then rewrites whole windows at its next
/// checkpoint, so the store it keeps writing still recovers every
/// session exactly as it lives in memory.
#[test]
fn wal_append_failure_surfaces_from_tick() {
    use sintel_store::wal::fault as wal_fault;
    use sintel_store::{Durability, StoreError, StoreOptions};

    let dir = std::env::temp_dir().join(format!("sintel-chaos-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open_db = || {
        let opts = StoreOptions { durability: Durability::Wal, ..StoreOptions::default() };
        SintelDb::open_with(&dir, opts).expect("open store")
    };
    let specs = || vec![TenantSpec::new("acme", 5, healthy_template())];
    let mut engine = ServeEngine::open(open_db(), chaos_config(), specs()).expect("open");
    let events = events_for(&["acme"], 256);
    let mut ticks = events.chunks(24);
    for batch in ticks.by_ref().take(6) {
        for event in batch {
            engine.offer(event).expect("offer");
        }
        engine.tick().expect("tick");
    }

    for event in ticks.next().expect("events left") {
        engine.offer(event).expect("offer");
    }
    wal_fault::arm(wal_fault::CrashPoint::BeforeAppend);
    let failed = engine.tick();
    wal_fault::disarm();
    assert!(
        matches!(failed, Err(ServeError::Store(StoreError::Injected(_)))),
        "the failed append must surface from tick: {failed:?}"
    );

    for batch in ticks {
        for event in batch {
            engine.offer(event).expect("offer");
        }
        engine.tick().expect("tick");
    }
    let live = engine.session("acme").cloned();
    let live_self = engine.self_session().cloned();
    drop(engine);
    let recovered = ServeEngine::open(open_db(), chaos_config(), specs()).expect("recover");
    assert_eq!(recovered.session("acme").cloned(), live);
    assert_eq!(recovered.self_session().cloned(), live_self);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

/// Bounded soak: misbehaving tenants alongside healthy ones for
/// `SINTEL_SOAK_SECS` (default 30) wall seconds. Healthy outputs must
/// stay bitwise identical to a fault-free run over the same accepted
/// stream, and RSS must stay bounded. Run explicitly:
/// `cargo test -p sintel-serve --features faulty -- --ignored soak_`.
#[test]
#[ignore]
fn soak_misbehaving_tenants_stay_bounded() {
    const RSS_CAP_KB: u64 = 768 * 1024;
    let secs: u64 = std::env::var("SINTEL_SOAK_SECS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(30);

    sintel_primitives::faulty::reset_flaky_counter("soak-flaky");
    let mut specs: Vec<TenantSpec> =
        HEALTHY.iter().map(|n| TenantSpec::new(n, 5, healthy_template())).collect();
    specs.push(TenantSpec::new(
        "soak-panic",
        5,
        Template { name: "soak_panic".into(), steps: vec![StepSpec::plain("faulty_panic")] },
    ));
    specs.push(TenantSpec::new(
        "soak-flaky",
        5,
        Template {
            name: "soak_flaky".into(),
            steps: vec![
                StepSpec::with(
                    "faulty_flaky",
                    &[
                        ("fail_first_n", HyperValue::Int(1_000_000)),
                        ("key", HyperValue::Text("soak-flaky".into())),
                    ],
                ),
                StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(2.0))]),
            ],
        },
    ));
    let mut engine =
        ServeEngine::open(SintelDb::in_memory(), chaos_config(), specs).expect("open");

    let value_at = |name: &str, t: i64| {
        let phase = (name.len() as f64) * 0.13 + 0.11;
        (t as f64 * phase).sin() + if t % 997 == 0 && t > 0 { 5.0 } else { 0.0 }
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(secs);
    let mut t: i64 = 0;
    let victims = ["soak-panic", "soak-flaky"];
    while std::time::Instant::now() < deadline {
        for _ in 0..64 {
            for name in HEALTHY.iter().chain(victims.iter()) {
                let event = IngestEvent::new(name, "cpu", t, value_at(name, t));
                let admission = engine.offer(&event).expect("offer");
                if !victims.contains(name) {
                    assert_eq!(admission, Admission::Accepted);
                }
            }
            t += 1;
        }
        engine.tick().expect("tick");
        let rss = rss_kb();
        assert!(rss < RSS_CAP_KB, "RSS {rss} kB exceeded the {RSS_CAP_KB} kB soak cap");
    }

    // Fault-free reference over the identical healthy stream.
    let mut reference = ServeEngine::open(
        SintelDb::in_memory(),
        chaos_config(),
        HEALTHY.iter().map(|n| TenantSpec::new(n, 5, healthy_template())).collect(),
    )
    .expect("open reference");
    for tt in 0..t {
        for name in HEALTHY {
            reference
                .offer(&IngestEvent::new(name, "cpu", tt, value_at(name, tt)))
                .expect("offer");
        }
        if tt % 64 == 63 {
            reference.tick().expect("tick");
        }
    }
    reference.tick().expect("tick");
    for tenant in HEALTHY {
        assert_eq!(
            engine.committed_events(tenant),
            reference.committed_events(tenant),
            "soak: tenant '{tenant}' diverged from the fault-free reference"
        );
    }
    let stats = engine.stats();
    assert!(stats.tenants["soak-panic"].quarantined, "the panicking tenant must be parked");
}

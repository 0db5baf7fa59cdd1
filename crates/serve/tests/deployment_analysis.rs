//! Golden-diagnostic fixtures for the whole-deployment static analysis
//! (SA008, SA010-SA014) plus the clean-deployment assertions: the
//! shipped default configuration must analyze without errors, and
//! `ServeEngine::open` must refuse deployments whose report has errors.

use sintel_pipeline::template::{StepSpec, Template};
use sintel_pipeline::template_by_name;
use sintel_primitives::HyperValue;
use sintel_serve::{analyze_deployment, ServeConfig, ServeEngine, ServeError, TenantSpec};
use sintel_store::SintelDb;

/// A primary strictly cheaper than nothing is hard to build from clean
/// templates; this one (azure + threshold) costs exactly what the
/// default fallback costs, and the matrix-profile hub template costs
/// strictly more — both ends of the SA008 severity split.
fn azure_template(name: &str) -> Template {
    Template {
        name: name.to_string(),
        steps: vec![
            StepSpec::plain("azure_anomaly_service"),
            StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(2.0))]),
        ],
    }
}

// ---------------------------------------------------------------------
// Clean deployments.
// ---------------------------------------------------------------------

#[test]
fn default_deployment_with_roster_analyzes_clean() {
    // Eight tenants saturate the default backlog bound (8 x 1024 >=
    // high_water 8192) and one sits below the priority floor, so the
    // shedding checks have nothing to warn about; the deep primary is
    // strictly costlier than the fallback, so SA008 stays silent.
    let cfg = ServeConfig::default();
    let specs: Vec<TenantSpec> = (0..8)
        .map(|i| {
            let template = template_by_name("lstm_dynamic_threshold").expect("hub template");
            TenantSpec::new(&format!("tenant-{i}"), if i == 0 { 0 } else { 2 }, template)
        })
        .collect();
    let report = analyze_deployment(&cfg, &specs);
    assert!(!report.has_errors(), "{}", report.render());
    assert_eq!(report.summary(), "clean", "{}", report.render());
}

#[test]
fn test_config_analyzes_without_errors() {
    let report = analyze_deployment(&ServeConfig::for_tests(), &[]);
    assert!(!report.has_errors(), "{}", report.render());
}

#[test]
fn every_hub_template_is_deployable_as_a_primary() {
    let cfg = ServeConfig::default();
    for name in sintel_pipeline::available_pipelines() {
        let specs =
            vec![TenantSpec::new("acme", 0, template_by_name(name).expect("hub template"))];
        let report = analyze_deployment(&cfg, &specs);
        assert!(!report.has_errors(), "hub template '{name}':\n{}", report.render());
    }
}

#[test]
fn analysis_is_pure_and_deterministic() {
    let cfg = ServeConfig::default();
    let specs = vec![
        TenantSpec::new("a", 0, azure_template("a_primary")),
        TenantSpec::new("a", 3, azure_template("dup_primary")),
    ];
    let first = analyze_deployment(&cfg, &specs).render();
    let second = analyze_deployment(&cfg, &specs).render();
    assert_eq!(first, second);
}

// ---------------------------------------------------------------------
// SA008: the degradation invariant.
// ---------------------------------------------------------------------

#[test]
fn sa008_fallback_costlier_than_primary_is_an_error() {
    let cfg = ServeConfig {
        fallback: template_by_name("matrix_profile").expect("hub template"),
        ..ServeConfig::default()
    };
    let specs = vec![TenantSpec::new("acme", 2, azure_template("cheap_primary"))];
    let report = analyze_deployment(&cfg, &specs);
    assert!(report.has_errors(), "{}", report.render());
    let rendered = report.render();
    assert!(rendered.contains("error[SA008]: fallback 'matrix_profile' is costlier than tenant 'acme' primary 'cheap_primary'"), "{rendered}");
    assert!(rendered.contains("degradation would make overload worse"), "{rendered}");
    assert!(rendered.contains("--> deployment, step 0 (acme)"), "{rendered}");
}

#[test]
fn sa008_fallback_equal_to_primary_is_a_warning() {
    let cfg = ServeConfig::for_tests();
    // for_tests ships the azure fallback with k=2.0; an identical
    // primary costs exactly the same.
    let specs = vec![TenantSpec::new("acme", 2, azure_template("same_cost"))];
    let report = analyze_deployment(&cfg, &specs);
    assert!(!report.has_errors(), "{}", report.render());
    let rendered = report.render();
    assert!(
        rendered.contains("warning[SA008]: fallback 'serve_fallback' costs the same as tenant 'acme' primary 'same_cost'"),
        "{rendered}"
    );
    assert!(rendered.contains("degradation sheds accuracy without shedding load"), "{rendered}");
}

#[test]
fn sa008_skips_fault_injection_templates() {
    let cfg = ServeConfig::for_tests();
    let chaos = Template {
        name: "chaos".to_string(),
        steps: vec![
            StepSpec::plain("faulty_panic"),
            StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(2.0))]),
        ],
    };
    let report = analyze_deployment(&cfg, &[TenantSpec::new("victim", 2, chaos)]);
    assert_eq!(report.summary(), "clean", "{}", report.render());
}

// ---------------------------------------------------------------------
// SA010: config-domain diagnostics (formerly ad-hoc validate strings).
// ---------------------------------------------------------------------

#[test]
fn sa010_config_domain_errors_are_coded_and_rendered() {
    let cfg = ServeConfig { window: 0, hop: 0, queue_capacity: 0, ..ServeConfig::default() };
    let report = analyze_deployment(&cfg, &[]);
    let rendered = report.render();
    assert!(rendered.contains("error[SA010]: window must be > 0"), "{rendered}");
    assert!(rendered.contains("error[SA010]: hop must be > 0"), "{rendered}");
    assert!(rendered.contains("error[SA010]: queue_capacity must be > 0"), "{rendered}");
    assert!(rendered.contains("--> deployment, step 0 (serve_config)"), "{rendered}");
    // Unsound window geometry gates the downstream checks: no SA008,
    // SA012 or SA013 noise on top of a config that cannot hold data.
    assert!(!rendered.contains("SA012"), "{rendered}");
}

#[test]
fn sa010_min_points_above_window() {
    let mut cfg = ServeConfig::default();
    cfg.min_points = cfg.window + 1;
    let report = analyze_deployment(&cfg, &[]);
    assert!(
        report.render().contains("error[SA010]: min_points must be in 1..=window (513 vs 512)"),
        "{}",
        report.render()
    );
}

// ---------------------------------------------------------------------
// SA011: tenant roster collisions.
// ---------------------------------------------------------------------

#[test]
fn sa011_reserved_and_duplicate_tenant_names() {
    let cfg = ServeConfig::default();
    let specs = vec![
        TenantSpec::new("_self", 2, azure_template("p1")),
        TenantSpec::new("acme", 2, azure_template("p2")),
        TenantSpec::new("acme", 2, azure_template("p3")),
    ];
    let report = analyze_deployment(&cfg, &specs);
    let rendered = report.render();
    assert!(
        rendered.contains("error[SA011]: tenant name '_self' is reserved for self-monitoring"),
        "{rendered}"
    );
    assert!(rendered.contains("error[SA011]: duplicate tenant 'acme'"), "{rendered}");
    assert!(rendered.contains("--> deployment, step 0 (_self)"), "{rendered}");
}

// ---------------------------------------------------------------------
// SA012: statically dead fallback.
// ---------------------------------------------------------------------

#[test]
fn sa012_fallback_that_cannot_fit_the_window_is_an_error() {
    // The deep hub template's rolling windows need 51 samples; inside a
    // 32-sample serve window its own shape analysis proves the output
    // statically empty (SA007), which SA012 surfaces at the deployment
    // level.
    let cfg = ServeConfig {
        window: 32,
        min_points: 16,
        fallback: template_by_name("lstm_dynamic_threshold").expect("hub template"),
        ..ServeConfig::default()
    };
    let report = analyze_deployment(&cfg, &[]);
    assert!(report.has_errors(), "{}", report.render());
    let rendered = report.render();
    assert!(
        rendered.contains(
            "error[SA012]: fallback template 'lstm_dynamic_threshold' fails static analysis \
             (SA007\u{d7}1)"
        ),
        "{rendered}"
    );
    assert!(rendered.contains("fix the fallback template"), "{rendered}");
}

#[test]
fn sa012_fallback_above_min_points_is_a_warning() {
    let mut cfg = ServeConfig::for_tests();
    // The deep fallback's 51-sample warm-up fits the 128-sample window
    // but exceeds min_points 32: early degraded passes produce nothing.
    cfg.fallback = template_by_name("lstm_dynamic_threshold").expect("hub template");
    let report = analyze_deployment(&cfg, &[]);
    let rendered = report.render();
    assert!(!report.has_errors(), "{rendered}");
    assert!(
        rendered.contains(
            "warning[SA012]: fallback 'lstm_dynamic_threshold' requires at least 51 input \
             samples but passes may fire from min_points 32"
        ),
        "{rendered}"
    );
    assert!(rendered.contains("early degraded passes will produce nothing"), "{rendered}");
}

// ---------------------------------------------------------------------
// SA013: shedding reachability.
// ---------------------------------------------------------------------

#[test]
fn sa013_zero_high_water_with_sheddable_tenants_is_an_error() {
    let cfg = ServeConfig { high_water: 0, ..ServeConfig::default() };
    let specs = vec![TenantSpec::new("acme", 0, azure_template("p"))];
    let report = analyze_deployment(&cfg, &specs);
    let rendered = report.render();
    assert!(
        rendered.contains(
            "error[SA013]: high_water is 0: every event from tenants below the priority floor \
             is shed unconditionally"
        ),
        "{rendered}"
    );
}

#[test]
fn sa013_unreachable_high_water_is_a_warning() {
    let cfg = ServeConfig { queue_capacity: 16, high_water: 1_000_000, ..ServeConfig::default() };
    let specs = vec![TenantSpec::new("acme", 0, azure_template("p"))];
    let report = analyze_deployment(&cfg, &specs);
    let rendered = report.render();
    assert!(!report.has_errors(), "{rendered}");
    assert!(
        rendered.contains(
            "warning[SA013]: high_water 1000000 exceeds the maximum possible backlog 16 \
             (1 tenants x queue_capacity 16); load shedding can never fire"
        ),
        "{rendered}"
    );
}

#[test]
fn sa013_no_sheddable_tenant_is_clean() {
    // Every tenant at or above the floor: nothing can be shed, and
    // `Retry` backpressure bounds the queues, so there is nothing to
    // warn about however high the high-water mark sits.
    let cfg = ServeConfig { high_water: 100, ..ServeConfig::default() };
    let specs = vec![TenantSpec::new("acme", 5, azure_template("p"))];
    let rendered = analyze_deployment(&cfg, &specs).render();
    assert!(!rendered.contains("SA013"), "{rendered}");
}

/// The SA013 warnings `ServeEngine::open` logs for `specs` under the
/// default configuration, read from the obs capture sink. The sink is
/// process-wide, so other tests' records are filtered out by code.
fn sa013_warnings_logged_by_open(specs: Vec<TenantSpec>) -> Vec<String> {
    if !sintel_obs::enabled(sintel_obs::Level::Warn) {
        sintel_obs::set_level(Some(sintel_obs::Level::Warn));
    }
    sintel_obs::capture_start();
    let engine = ServeEngine::open(SintelDb::in_memory(), ServeConfig::default(), specs);
    let records = sintel_obs::capture_stop();
    assert!(engine.is_ok(), "{:?}", engine.err().map(|e| e.to_string()));
    records
        .into_iter()
        .filter(|r| r.level == sintel_obs::Level::Warn && r.target == "sintel_serve::analysis")
        .filter(|r| {
            r.fields.iter().any(|(k, v)| k == "code" && *v == sintel_obs::FieldValue::from("SA013"))
        })
        .map(|r| r.message)
        .collect()
}

/// One deep-pipeline tenant per priority: the primary is strictly
/// costlier than the default fallback, so SA008 stays silent.
fn lstm_roster(priorities: &[u8]) -> Vec<TenantSpec> {
    priorities
        .iter()
        .enumerate()
        .map(|(i, &priority)| {
            let template = template_by_name("lstm_dynamic_threshold").expect("hub template");
            TenantSpec::new(&format!("tenant-{i}"), priority, template)
        })
        .collect()
}

#[test]
fn open_with_default_config_and_all_protected_roster_logs_no_warning() {
    // Control: a sheddable tenant under a high-water mark two default
    // queues can never reach is still reported, so the sink does see
    // what `open` logs.
    let control = sa013_warnings_logged_by_open(lstm_roster(&[0, 5]));
    assert_eq!(control.len(), 1, "{control:?}");
    assert!(control[0].contains("load shedding can never fire"), "{control:?}");

    let roster = lstm_roster(&[5, 5]);
    let report = analyze_deployment(&ServeConfig::default(), &roster);
    assert_eq!(report.summary(), "clean", "{}", report.render());
    let warnings = sa013_warnings_logged_by_open(roster);
    assert!(warnings.is_empty(), "all-priority-5 roster warned: {warnings:?}");
}

// ---------------------------------------------------------------------
// SA014: breaker liveness.
// ---------------------------------------------------------------------

#[test]
fn sa014_cooldown_at_pass_clock_ceiling_is_an_error() {
    let cfg = ServeConfig { breaker_cooldown: u64::MAX, ..ServeConfig::default() };
    let report = analyze_deployment(&cfg, &[]);
    let rendered = report.render();
    assert!(rendered.contains("error[SA014]"), "{rendered}");
    assert!(rendered.contains("an open breaker can never half-open"), "{rendered}");
}

// ---------------------------------------------------------------------
// The engine gate: `open` refuses error reports, tolerates warnings.
// ---------------------------------------------------------------------

#[test]
fn open_refuses_sa010_deployments_with_rendered_report() {
    let mut cfg = ServeConfig::for_tests();
    cfg.window = 0;
    let err = ServeEngine::open(SintelDb::in_memory(), cfg, vec![])
        .err()
        .expect("open must refuse a zero-window deployment");
    match err {
        ServeError::Config(rendered) => {
            assert!(rendered.contains("error[SA010]: window must be > 0"), "{rendered}");
        }
        other => panic!("expected Config error, got {other:?}"),
    }
}

#[test]
fn open_refuses_sa008_cost_inverted_deployments() {
    let mut cfg = ServeConfig::for_tests();
    cfg.fallback = template_by_name("matrix_profile").expect("hub template");
    let specs = vec![TenantSpec::new("acme", 2, azure_template("cheap_primary"))];
    let err = ServeEngine::open(SintelDb::in_memory(), cfg, specs)
        .err()
        .expect("open must refuse a cost-inverted degradation path");
    match err {
        ServeError::Config(rendered) => {
            assert!(rendered.contains("error[SA008]"), "{rendered}");
        }
        other => panic!("expected Config error, got {other:?}"),
    }
}

#[test]
fn open_tolerates_warning_only_deployments() {
    // Equal-cost fallback is a warning, not an error: the engine opens.
    let cfg = ServeConfig::for_tests();
    let specs = vec![TenantSpec::new("acme", 2, azure_template("same_cost"))];
    let engine = ServeEngine::open(SintelDb::in_memory(), cfg, specs);
    assert!(engine.is_ok(), "{:?}", engine.err().map(|e| e.to_string()));
}

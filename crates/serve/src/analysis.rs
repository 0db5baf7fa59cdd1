//! Whole-deployment static analysis.
//!
//! [`analyze_deployment`] checks a [`ServeConfig`] plus its tenant
//! roster *before* the engine spins up, through the same coded-report
//! machinery `sintel-analyze` uses for templates. On top of re-running
//! per-template analysis for every tenant (with the serve window as the
//! input-length bound, so SA007 statically-empty-output findings fire),
//! it emits the deployment-level codes:
//!
//! * **SA008** — the fallback template is not strictly cheaper than a
//!   tenant's primary under the cost model (Error when costlier, Warn
//!   when merely equal: degradation then sheds accuracy for nothing,
//!   but does not make things worse);
//! * **SA010** — a config field outside its valid domain (the checks
//!   formerly inlined in `ServeConfig::validate`);
//! * **SA011** — reserved (`_self`) or duplicate tenant name;
//! * **SA012** — the fallback itself cannot run inside the serve
//!   window (or fails static analysis): degradation would trade a
//!   working pipeline for a statically dead one;
//! * **SA013** — load shedding misconfigured: fires always
//!   (`high_water == 0` with sheddable tenants) or provably never
//!   (a finite high-water mark the bounded queues cannot reach). A
//!   roster with no tenant below the priority floor is not flagged:
//!   every tenant is protected, and `Retry` backpressure still bounds
//!   the queues;
//! * **SA014** — an open circuit breaker can never half-open again
//!   (`breaker_cooldown` overflows the pass clock).
//!
//! [`ServeEngine::open`](crate::ServeEngine::open) refuses deployments
//! whose report has errors and logs each warning through `sintel-obs`,
//! so a misconfigured deployment dies with a readable rustc-style
//! report instead of shedding or quarantining mysteriously at 3am.

use sintel_analyze::{Code, Diagnostic, Report};

use crate::engine::{ServeConfig, TenantSpec};
use crate::selfmon::SELF_TENANT;

/// Pseudo-primitive name deployment-level diagnostics anchor to.
const CONFIG_STEP: &str = "serve_config";

/// Statically analyse a deployment: the serve configuration plus the
/// tenant roster it would run. Pure — builds no engine state.
pub fn analyze_deployment(cfg: &ServeConfig, specs: &[TenantSpec]) -> Report {
    let mut report = Report::new("deployment");
    let config_ok = check_config(cfg, &mut report);
    check_tenant_names(specs, &mut report);
    check_breaker(cfg, &mut report);
    if config_ok {
        check_shedding(cfg, specs, &mut report);
        check_fallback(cfg, &mut report);
        check_tenants(cfg, specs, &mut report);
    }
    report
}

/// SA010: domain checks on the raw config fields. Returns whether the
/// window geometry is sound enough for the downstream checks to make
/// sense.
fn check_config(cfg: &ServeConfig, report: &mut Report) -> bool {
    let mut sound = true;
    let invalid = |report: &mut Report, message: String, hint: &str| {
        report.push(Diagnostic::error(
            Code::ServeConfigInvalid,
            0,
            CONFIG_STEP,
            message,
            hint,
        ));
    };
    if cfg.window == 0 {
        invalid(report, "window must be > 0".into(), "set window to the sliding-window size");
        sound = false;
    }
    if cfg.min_points == 0 || cfg.min_points > cfg.window {
        invalid(
            report,
            format!("min_points must be in 1..=window ({} vs {})", cfg.min_points, cfg.window),
            "passes fire on min_points..=window buffered samples",
        );
        sound = false;
    }
    if cfg.hop == 0 {
        invalid(report, "hop must be > 0".into(), "a pass fires every hop-th absorbed sample");
    }
    if cfg.queue_capacity == 0 {
        invalid(
            report,
            "queue_capacity must be > 0".into(),
            "a zero-capacity queue rejects every event",
        );
    }
    if cfg.breaker_threshold == 0 {
        invalid(
            report,
            "breaker_threshold must be > 0".into(),
            "the breaker trips after this many consecutive failures",
        );
    }
    if cfg.quarantine_trips == 0 {
        invalid(
            report,
            "quarantine_trips must be > 0".into(),
            "tenants quarantine after this many breaker trips",
        );
    }
    sound
}

/// SA011: the reserved `_self` name and duplicates.
fn check_tenant_names(specs: &[TenantSpec], report: &mut Report) {
    let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for spec in specs {
        if spec.name == SELF_TENANT {
            report.push(Diagnostic::error(
                Code::TenantCollision,
                0,
                &spec.name,
                format!("tenant name '{SELF_TENANT}' is reserved for self-monitoring"),
                "rename the tenant; the engine runs its own streams under '_self'",
            ));
        } else if !seen.insert(&spec.name) {
            report.push(Diagnostic::error(
                Code::TenantCollision,
                0,
                &spec.name,
                format!("duplicate tenant '{}'", spec.name),
                "tenant names key sessions and checkpoints; make them unique",
            ));
        }
    }
}

/// SA014: an open breaker half-opens at `pass + cooldown`; a cooldown at
/// the pass-clock ceiling can never be reached.
fn check_breaker(cfg: &ServeConfig, report: &mut Report) {
    if cfg.breaker_cooldown == u64::MAX {
        report.push(Diagnostic::error(
            Code::BreakerConfig,
            0,
            CONFIG_STEP,
            format!(
                "breaker_cooldown {} overflows the pass clock; an open breaker can never \
                 half-open",
                cfg.breaker_cooldown
            ),
            "pick a cooldown of a few passes (the default is 8)",
        ));
    }
}

/// SA013: load shedding must be *reachable but not constant*.
fn check_shedding(cfg: &ServeConfig, specs: &[TenantSpec], report: &mut Report) {
    let sheddable = specs.iter().any(|s| s.priority < cfg.priority_floor);
    if cfg.high_water == 0 && sheddable {
        report.push(Diagnostic::error(
            Code::SheddingConfig,
            0,
            CONFIG_STEP,
            "high_water is 0: every event from tenants below the priority floor is shed \
             unconditionally",
            "raise high_water above the backlog you can tolerate",
        ));
        return;
    }
    // A finite high-water mark the bounded queues cannot accumulate is
    // inert protection for the sheddable tenants. An all-protected
    // roster is a valid deployment: `Retry` backpressure bounds it.
    if cfg.high_water == usize::MAX || !sheddable {
        return;
    }
    let max_backlog = specs.len().saturating_mul(cfg.queue_capacity);
    if max_backlog < cfg.high_water {
        report.push(Diagnostic::warn(
            Code::SheddingConfig,
            0,
            CONFIG_STEP,
            format!(
                "high_water {} exceeds the maximum possible backlog {} ({} tenants x \
                 queue_capacity {}); load shedding can never fire",
                cfg.high_water,
                max_backlog,
                specs.len(),
                cfg.queue_capacity
            ),
            "lower high_water or raise queue_capacity",
        ));
    }
}

/// SA012: the fallback must itself survive static analysis and fit the
/// serve window — degradation that swaps a working pipeline for a
/// statically dead one makes an overload strictly worse.
fn check_fallback(cfg: &ServeConfig, report: &mut Report) {
    let fallback = &cfg.fallback;
    let inner = fallback.analyze_for_input_len(&[], Some(cfg.window));
    if inner.has_errors() {
        report.push(Diagnostic::error(
            Code::FallbackIncompatible,
            0,
            &fallback.name,
            format!(
                "fallback template '{}' fails static analysis ({})",
                fallback.name,
                inner.summary()
            ),
            "fix the fallback template; run per-template analysis for details",
        ));
        return;
    }
    if let Some(required) = fallback.required_input_len() {
        if required > cfg.window {
            report.push(Diagnostic::error(
                Code::FallbackIncompatible,
                0,
                &fallback.name,
                format!(
                    "fallback '{}' requires at least {} input samples but the serve window \
                     holds at most {}",
                    fallback.name, required, cfg.window
                ),
                "shrink the fallback's window requirements or enlarge the serve window",
            ));
        } else if required > cfg.min_points {
            report.push(Diagnostic::warn(
                Code::FallbackIncompatible,
                0,
                &fallback.name,
                format!(
                    "fallback '{}' requires at least {} input samples but passes may fire \
                     from min_points {}; early degraded passes will produce nothing",
                    fallback.name, required, cfg.min_points
                ),
                "raise min_points to the fallback's requirement",
            ));
        }
    }
}

/// Per-tenant checks: merge each tenant template's own diagnostics
/// (analysed under the serve window, so SA007 fires for statically-dead
/// configurations) and compare its cost against the fallback (SA008).
fn check_tenants(cfg: &ServeConfig, specs: &[TenantSpec], report: &mut Report) {
    let fallback_cost = cfg.fallback.estimated_cost(cfg.window);
    for spec in specs {
        // Fault-injection templates are chaos-test instruments: their
        // declared hyper domains deliberately diverge from what the
        // runtime accepts (e.g. faulty_flaky's open-namespace "key"),
        // so static per-template analysis would reject them for doing
        // exactly their job. Skip them, like the cost model does.
        if spec.template.steps.iter().any(|s| s.primitive.starts_with("faulty_")) {
            continue;
        }
        let inner = spec.template.analyze_for_input_len(&[], Some(cfg.window));
        for d in inner.diagnostics {
            let mut merged = d;
            merged.message =
                format!("tenant '{}': {}", spec.name, merged.message);
            report.push(merged);
        }
        // The degradation invariant: falling back must shed cost. Both
        // estimates are None for fault-injection stubs and unknown
        // primitives; the comparison is skipped rather than guessed.
        let (Some(fallback), Some(primary)) =
            (fallback_cost, spec.template.estimated_cost(cfg.window))
        else {
            continue;
        };
        if fallback.flops > primary.flops {
            report.push(Diagnostic::error(
                Code::FallbackCost,
                0,
                &spec.name,
                format!(
                    "fallback '{}' is costlier than tenant '{}' primary '{}' ({:.0} vs {:.0} \
                     estimated flops): degradation would make overload worse",
                    cfg.fallback.name, spec.name, spec.template.name, fallback.flops,
                    primary.flops
                ),
                "use a cheaper fallback (or the primary itself is already minimal)",
            ));
        } else if fallback.flops == primary.flops {
            report.push(Diagnostic::warn(
                Code::FallbackCost,
                0,
                &spec.name,
                format!(
                    "fallback '{}' costs the same as tenant '{}' primary '{}' ({:.0} estimated \
                     flops): degradation sheds accuracy without shedding load",
                    cfg.fallback.name, spec.name, spec.template.name, fallback.flops
                ),
                "degradation only helps when the fallback is strictly cheaper",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_with_no_tenants_has_no_errors() {
        let report = analyze_deployment(&ServeConfig::default(), &[]);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn analysis_is_pure() {
        let cfg = ServeConfig::default();
        let specs = vec![TenantSpec::new(
            "acme",
            0,
            crate::engine::fallback_template(),
        )];
        let a = analyze_deployment(&cfg, &specs).render();
        let b = analyze_deployment(&cfg, &specs).render();
        assert_eq!(a, b);
    }
}

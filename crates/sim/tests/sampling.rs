//! Acceptance tests for tail-based trace sampling at the scenario
//! level: a lossy-transport run must keep every error and SLO-violating
//! span tree no matter how aggressive the representative rate, the full
//! sampled export (trace, metrics, windows, dashboard) must be
//! byte-identical across worker counts, and rate 1.0 must be a
//! byte-transparent pass-through.

use std::collections::BTreeMap;

use sor_obs::dashboard::render_dashboard;
use sor_obs::sample::{classify, sample_trace, SamplePolicy};
use sor_obs::{naming, parse_json, Recorder, Span, Trace};
use sor_sim::scenario::{run_coffee_field_test_traced, FieldTestConfig};

/// Content fingerprint of a span, ignoring ids (the sampler compacts
/// them) but keeping everything an investigator would read.
fn span_key(s: &Span) -> String {
    format!("{} [{:.6} {:?}] {:?}", s.name, s.start, s.end, s.attrs)
}

fn span_multiset<'a>(spans: impl Iterator<Item = &'a Span>) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for s in spans {
        *m.entry(span_key(s)).or_insert(0) += 1;
    }
    m
}

/// Lossy transport, rate 0.0 (the harshest possible representative
/// policy): every tree carrying an error attribute or overlapping an
/// `slo.alert` event provably survives the sampler, while the bulk of
/// healthy traffic is dropped with exact accounting.
#[test]
fn lossy_run_sampler_keeps_every_error_and_slo_tree() {
    let rec = Recorder::enabled();
    let cfg = FieldTestConfig::quick(3).with_loss(0.1);
    run_coffee_field_test_traced(cfg, rec.clone()).unwrap();
    // The scenario breaches transport SLOs but produces no script
    // failures, so append one genuine error tree: a script run whose
    // span carries an `error` attribute, exactly as the frontend
    // records one.
    let err_span = rec.span_start("phone.script_run", 1_000_000.0);
    rec.span_attr(err_span, "error", "budget exhausted");
    rec.span_end(err_span, 1_000_000.5);
    let trace = rec.trace_snapshot().unwrap();

    let policy = SamplePolicy::representative(0.0, cfg.seed);
    let groups = classify(&trace, policy.slow_keep_fraction);
    let must_keep: Vec<_> = groups.iter().filter(|g| g.is_error || g.slo_violating).collect();
    assert!(
        must_keep.iter().any(|g| g.slo_violating),
        "lossy scenario must produce at least one SLO-violating tree"
    );
    assert!(must_keep.iter().any(|g| g.is_error), "error tree present");

    let (sampled, stats) = sample_trace(&trace, &policy);
    // Every must-keep span is present, content-identical, in the
    // sampled trace (ids are remapped, content never is).
    let kept = span_multiset(sampled.spans().iter());
    for g in &must_keep {
        for &i in &g.spans {
            let key = span_key(&trace.spans()[i]);
            assert!(
                kept.get(&key).copied().unwrap_or(0) > 0,
                "must-keep span missing after sampling: {key}"
            );
        }
    }
    // The policy was lossy for everything else, and the accounting is
    // exact: kept + dropped covers every tree and every span.
    assert!(stats.traces_kept < stats.traces_total, "rate 0.0 must drop healthy traffic");
    assert_eq!(
        stats.traces_kept + stats.dropped_by_component.values().sum::<u64>(),
        stats.traces_total
    );
    assert_eq!(sampled.spans().len() as u64, stats.spans_kept);
    assert_eq!(
        stats.spans_kept + stats.spans_dropped_by_component.values().sum::<u64>(),
        stats.spans_total
    );
}

/// The whole sampled observability surface — trace, metrics with
/// sampler accounting folded in, window summary, rendered dashboard —
/// is byte-identical at one worker and eight, even at a lossy
/// representative rate.
#[test]
fn sampled_export_and_dashboard_identical_at_one_and_eight_workers() {
    let run = || {
        let rec = Recorder::enabled();
        let cfg = FieldTestConfig::quick(5).with_loss(0.1);
        let out = run_coffee_field_test_traced(cfg, rec.clone()).unwrap();
        let policy = SamplePolicy::representative(0.3, cfg.seed);
        let (sampled, stats) = sample_trace(&rec.trace_snapshot().unwrap(), &policy);
        let mut metrics = rec.metrics_snapshot().unwrap();
        stats.record_into(&mut metrics);
        let trace_json = sampled.to_json();
        let metrics_json = metrics.to_json();
        let windows_json = out.windows.as_ref().expect("traced run rolls windows").summary_json();
        let health = out.health.expect("traced run is graded").render();
        let dashboard = render_dashboard(
            &parse_json(&trace_json).unwrap(),
            &parse_json(&metrics_json).unwrap(),
            Some(&parse_json(&windows_json).unwrap()),
            Some(&health),
        );
        (trace_json, metrics_json, windows_json, health, dashboard)
    };
    let run_at = |threads| {
        sor_par::with_threads(threads, || {
            let exports = run();
            assert_eq!(sor_par::current_threads(), threads);
            exports
        })
    };
    let one = run_at(1);
    let eight = run_at(8);
    assert_eq!(one.0, eight.0, "sampled trace must not depend on worker count");
    assert_eq!(one.1, eight.1, "metrics + sampler accounting must not depend on worker count");
    assert_eq!(one.2, eight.2, "window summary must not depend on worker count");
    assert_eq!(one.3, eight.3, "health grading must not depend on worker count");
    assert_eq!(one.4, eight.4, "dashboard must render byte-identically");
}

/// Rate 1.0 (the default) is a byte-transparent pass-through: the
/// sampled export equals the raw export exactly.
#[test]
fn rate_one_sampling_is_byte_transparent() {
    let rec = Recorder::enabled();
    let cfg = FieldTestConfig::quick(3);
    run_coffee_field_test_traced(cfg, rec.clone()).unwrap();
    let raw: Trace = rec.trace_snapshot().unwrap();
    let (sampled, stats) = sample_trace(&raw, &SamplePolicy::keep_all());
    assert_eq!(sampled.to_json(), raw.to_json(), "rate 1.0 must be byte-identical");
    assert_eq!(stats.traces_kept, stats.traces_total);
    assert!(stats.dropped_by_component.is_empty());
}

/// Satellite: metric names stay convention-clean after the sampler's
/// accounting (`obs.traces_kept.*`, `obs.spans_dropped.*`, …) is folded
/// into a real run's registry.
#[test]
fn sampler_accounting_names_conform_to_convention() {
    let rec = Recorder::enabled();
    let cfg = FieldTestConfig::quick(3).with_loss(0.1);
    run_coffee_field_test_traced(cfg, rec.clone()).unwrap();
    let policy = SamplePolicy::representative(0.25, cfg.seed);
    let (_, stats) = sample_trace(&rec.trace_snapshot().unwrap(), &policy);
    let mut metrics = rec.metrics_snapshot().unwrap();
    stats.record_into(&mut metrics);
    let violations = naming::audit(&metrics);
    assert!(violations.is_empty(), "nonconforming metric names:\n{}", violations.join("\n"));
}

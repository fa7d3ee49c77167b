//! Acceptance tests for causal cross-component tracing, crash
//! post-mortems rendered from the trace, and the SLO/health engine: one
//! trace tree from task dispatch on the server through script execution
//! on the phone and back to the rank the upload eventually feeds.

use sor_obs::{naming, Recorder, Span, SpanId, Trace};
use sor_sim::scenario::{
    run_coffee_field_test_durable_traced, run_coffee_field_test_traced, DurableRun, FieldTestConfig,
};

fn span_by_id(trace: &Trace, id: SpanId) -> &Span {
    trace.spans().iter().find(|s| s.id == id).expect("parent id resolves")
}

/// Tentpole: the golden trace contains at least one causal chain
/// `task dispatch → script.run → upload handling → processor commit →
/// rank` linked by parent ids across the frontend/server boundary.
#[test]
fn causal_chain_links_dispatch_to_rank_across_components() {
    let rec = Recorder::enabled();
    run_coffee_field_test_traced(FieldTestConfig::quick(3), rec.clone()).unwrap();
    let trace = rec.trace_snapshot().unwrap();

    // Walk up from the end-of-run rank: its parent is the last commit.
    let rank =
        trace.spans_named("server.rank").next().expect("field test ranks at the end of the run");
    let commit = span_by_id(&trace, rank.parent.expect("rank is parented on the last commit"));
    assert_eq!(commit.name, "processor.commit", "rank parent must be a commit span");

    // The commit is parented on the server's handling of the upload…
    let handle = span_by_id(&trace, commit.parent.expect("commit has an upload parent"));
    assert_eq!(handle.name, "server.handle_message");

    // …which is parented on the *phone-side* script run that produced
    // the upload, crossing the wire via the TraceContext.
    let script_run = span_by_id(&trace, handle.parent.expect("upload handling has a producer"));
    assert_eq!(script_run.name, "phone.script_run");

    // …which in turn hangs off the server-side dispatch of the task.
    let dispatch = span_by_id(&trace, script_run.parent.expect("script run has a dispatch"));
    assert_eq!(dispatch.name, "server.task_dispatch");
    assert!(dispatch.parent.is_some(), "dispatch sits under schedule distribution");

    // Both wire crossings carry the same trace id.
    let trace_id = |s: &Span| {
        s.attrs
            .iter()
            .find(|(k, _)| k == "trace_id")
            .map(|(_, v)| v.clone())
            .expect("cross-component span carries a trace id")
    };
    assert_eq!(trace_id(script_run), trace_id(handle));
}

/// The whole exported trace is byte-identical at one worker and eight:
/// parent links never depend on worker interleaving.
#[test]
fn golden_trace_is_identical_at_one_and_eight_workers() {
    let run = |threads| {
        sor_par::with_threads(threads, || {
            let rec = Recorder::enabled();
            run_coffee_field_test_traced(FieldTestConfig::quick(5), rec.clone()).unwrap();
            assert_eq!(sor_par::current_threads(), threads);
            (rec.trace_json().unwrap(), rec.metrics_json().unwrap())
        })
    };
    let (trace_one, metrics_one) = run(1);
    let (trace_eight, metrics_eight) = run(8);
    assert_eq!(trace_one, trace_eight, "trace must not depend on worker count");
    assert_eq!(metrics_one, metrics_eight, "metrics must not depend on worker count");
}

/// A crashing durable run dumps one deterministic post-mortem per
/// crash, and the dump names the work in flight.
#[test]
fn server_crash_produces_deterministic_postmortem() {
    let run = || {
        let cfg = FieldTestConfig::quick(9);
        let durable = DurableRun::crashes_at(&cfg, vec![cfg.duration * 0.6]);
        run_coffee_field_test_durable_traced(cfg, durable, Recorder::enabled()).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.postmortems.len(), 1, "one crash, one post-mortem");
    assert_eq!(a.postmortems, b.postmortems, "post-mortem must be deterministic");
    assert_eq!(a.recoveries.len(), 1);
    let dump = &a.postmortems[0];
    assert!(
        dump.contains("server.handle_message") || dump.contains("phone.script_run"),
        "post-mortem names recent pipeline work:\n{dump}"
    );
}

/// The post-mortem shows the server when it died, not as of its last
/// checkpoint: with checkpoints well before the crash, its newest
/// `server.*` entry is still the newest `server.*` span the trace
/// started before the crash.
#[test]
fn postmortem_shows_the_server_at_the_crash_not_at_its_last_checkpoint() {
    let cfg = FieldTestConfig::quick(9);
    let crash_at = cfg.duration * 0.6;
    let mut durable = DurableRun::crashes_at(&cfg, vec![crash_at]);
    durable.opts.checkpoint_every_ops = 200;
    let rec = Recorder::enabled();
    let out = run_coffee_field_test_durable_traced(cfg, durable, rec.clone()).unwrap();
    assert!(out.recoveries[0].contains("checkpoint=yes"), "{}", out.recoveries[0]);

    // Spans allocated before the crash's recovery span started before
    // the crash (sim time alone cannot order same-instant work).
    let trace = rec.trace_snapshot().unwrap();
    let recovery = trace
        .spans()
        .iter()
        .position(|s| s.name == "durable.recovery" && s.start == crash_at)
        .expect("recovery runs at the crash");
    let newest = trace.spans()[..recovery]
        .iter()
        .filter(|s| s.name.starts_with("server."))
        .map(|s| s.start)
        .fold(f64::NEG_INFINITY, f64::max);

    let dump = &out.postmortems[0];
    let server = dump.split("-- server ").nth(1).expect("post-mortem has a server section");
    // Skip the section header; entries run until the next section.
    let last = server.lines().skip(1).take_while(|l| l.starts_with("  [")).last();
    let last = last.expect("server section has entries");
    assert!(
        last.starts_with(&format!("  [{newest:.3}] span  server.")),
        "newest server entry {last:?}, newest pre-crash server span at {newest:.3}:\n{dump}"
    );
}

/// Satellite: every metric name produced by a full traced field test
/// conforms to the documented `component.noun_verb[.label]` convention.
#[test]
fn field_test_metric_names_conform_to_convention() {
    let rec = Recorder::enabled();
    run_coffee_field_test_traced(FieldTestConfig::quick(3), rec.clone()).unwrap();
    let metrics = rec.metrics_snapshot().unwrap();
    let violations = naming::audit(&metrics);
    assert!(violations.is_empty(), "nonconforming metric names:\n{}", violations.join("\n"));
}

/// The golden trace passes the structural lint CI runs: no duplicate or
/// orphan span ids, no span closing before it opens, and every
/// cross-component span carries a trace id.
#[test]
fn golden_trace_passes_structural_lint() {
    let rec = Recorder::enabled();
    run_coffee_field_test_traced(FieldTestConfig::quick(3), rec.clone()).unwrap();
    let findings = sor_obs::lint::lint_trace(&rec.trace_snapshot().unwrap());
    assert!(findings.is_empty(), "lint findings:\n{}", findings.join("\n"));
}

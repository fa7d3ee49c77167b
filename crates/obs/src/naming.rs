//! Metric naming convention: `component.noun_verb[.label]`.
//!
//! Every metric name in the workspace follows one shape:
//!
//! - **segment 1 — component**: the subsystem that owns the metric
//!   (`server`, `phone`, `net`, `store`, `sched`, `script`, `sim`,
//!   `durable`, `par`, `pipeline`, …). Lowercase `[a-z0-9]+`.
//! - **segment 2 — noun_verb**: what is being counted and what
//!   happened to it, joined by an underscore (`frames_dropped`,
//!   `tasks_assigned`, `rows_inserted`). The underscore is mandatory —
//!   it is what distinguishes a measurement (`msg_received`) from a
//!   bare namespace (`msg`). Units ride as a verb-position suffix
//!   (`latency_s`, `busy_ms`, `frame_bytes`).
//! - **segment 3 — label (optional)**: a dynamic family key appended
//!   by [`crate::Recorder::count_labeled`] (`.server`, `.light`,
//!   `.records`). Lowercase `[a-z0-9_]+`.
//!
//! [`audit`] walks a whole registry and returns the violations; the
//! conformance test in `sor-sim` runs a traced field test and asserts
//! the audit comes back empty, so a nonconforming name cannot land
//! without failing CI.

use crate::metrics::MetricsRegistry;

fn segment_ok(seg: &str, allow_underscore: bool) -> bool {
    !seg.is_empty()
        && seg
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || (allow_underscore && c == '_'))
        && !seg.starts_with('_')
        && !seg.ends_with('_')
}

/// Checks one metric name against the convention. `Err` carries the
/// reason, phrased for the audit report.
///
/// One sentinel is exempt: [`crate::metrics::OVERFLOW_NAME`]
/// (`__overflow__`), the cardinality-cap rollup bucket. It
/// *deliberately* violates the convention (leading underscores, no
/// component) so it can never collide with or masquerade as a real
/// metric, and the audit must not flag capped registries.
pub fn check_name(name: &str) -> Result<(), String> {
    if name == crate::metrics::OVERFLOW_NAME {
        return Ok(());
    }
    let segs: Vec<&str> = name.split('.').collect();
    if !(2..=3).contains(&segs.len()) {
        return Err(format!("{name}: expected 2-3 dot segments, got {}", segs.len()));
    }
    if !segment_ok(segs[0], false) {
        return Err(format!("{name}: component segment `{}` must be [a-z0-9]+", segs[0]));
    }
    if !segment_ok(segs[1], true) {
        return Err(format!("{name}: measurement segment `{}` must be [a-z0-9_]+", segs[1]));
    }
    if !segs[1].contains('_') {
        return Err(format!(
            "{name}: measurement segment `{}` must be noun_verb (needs an underscore)",
            segs[1]
        ));
    }
    if segs.len() == 3 && !segment_ok(segs[2], true) {
        return Err(format!("{name}: label segment `{}` must be [a-z0-9_]+", segs[2]));
    }
    Ok(())
}

/// Walks every counter, gauge, and histogram name in the registry and
/// returns the convention violations (empty = conformant).
pub fn audit(metrics: &MetricsRegistry) -> Vec<String> {
    let mut problems = Vec::new();
    let names = metrics
        .counters()
        .map(|(k, _)| k)
        .chain(metrics.gauges().map(|(k, _)| k))
        .chain(metrics.histograms().map(|(k, _)| k));
    for name in names {
        if let Err(e) = check_name(name) {
            problems.push(e);
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforming_names_pass() {
        for name in [
            "net.frames_dropped",
            "net.frames_sent.server",
            "phone.tasks_assigned",
            "store.rows_inserted.records",
            "pipeline.upload_commit_latency_s",
            "sched.sim_coverage.greedy",
            // PR 7: sampler, top-k, and windowed-metrics names.
            "obs.traces_sampled",
            "obs.traces_kept.slow_decile",
            "obs.traces_dropped.server",
            "obs.spans_dropped.phone",
            "obs.windows_rolled",
            "server.topk_uploads.app3",
            "server.topk_dispatches.app12",
            "phone.topk_scripts.app1",
            // PR 8: bytecode VM and compilation-cache names.
            "script.vm_runs",
            "script.compile_runs",
            "script.cache_hits",
            "script.cache_misses",
            "script.cache_evictions",
            // PR 9: churn-surviving scheduler names.
            "sched.iterations_run",
            "sched.gain_evaluations",
            "sched.replan_gain_evaluations",
            "sched.heap_pops",
            "sched.bounds_reinserted",
            "sched.replans_run",
            // PR 10: run-archive and cross-run diff names.
            "archive.bytes_written",
            "archive.spans_archived",
            "archive.events_archived",
            "archive.windows_archived",
            "archive.runs_sealed",
            "diff.comparisons_run",
            "diff.regressions_found",
            "diff.comparisons_skipped",
        ] {
            assert!(check_name(name).is_ok(), "{name} should conform");
        }
    }

    #[test]
    fn archive_and_diff_constants_pass_audit() {
        let mut m = MetricsRegistry::new();
        crate::archive::ArchiveStats {
            bytes_written: 10,
            spans_archived: 2,
            events_archived: 1,
            windows_archived: 1,
        }
        .record_into(&mut m);
        crate::diff::DiffReport::default().record_into(&mut m);
        assert!(m.counters().count() >= 8, "constants did not all record");
        let findings = audit(&m);
        assert!(findings.is_empty(), "archive/diff names fail audit: {findings:?}");
    }

    #[test]
    fn overflow_sentinel_is_whitelisted() {
        assert!(check_name(crate::metrics::OVERFLOW_NAME).is_ok());
        // But lookalikes are not.
        assert!(check_name("__overflow").is_err());
        assert!(check_name("x.__overflow__").is_err());
        // A capped registry audits clean.
        let mut m = MetricsRegistry::with_name_cap(1);
        m.count("net.frames_sent", 1);
        m.count("net.frames_dropped", 1); // routed to __overflow__
        m.observe("net.latency_s", 0.1); // routed to __overflow__
        assert!(audit(&m).is_empty(), "{:?}", audit(&m));
    }

    #[test]
    fn nonconforming_names_fail_with_reasons() {
        for name in [
            "bare",                // one segment
            "server.msg",          // no underscore in measurement
            "phone.task.assigned", // ditto, with a label
            "Server.frames_sent",  // uppercase component
            "net.frames_sent.a.b", // too many segments
            "net._frames",         // leading underscore
            "net.frames_",         // trailing underscore
        ] {
            assert!(check_name(name).is_err(), "{name} should violate the convention");
        }
    }

    #[test]
    fn audit_walks_all_metric_kinds() {
        let mut m = MetricsRegistry::new();
        m.count("net.frames_sent", 1); // ok
        m.count("server.msg", 1); // violation
        m.gauge("sim.queue", 1.0); // violation
        m.observe("net.latency_s", 0.1); // ok
        let problems = audit(&m);
        assert_eq!(problems.len(), 2);
        assert!(problems.iter().any(|p| p.contains("server.msg")));
        assert!(problems.iter().any(|p| p.contains("sim.queue")));
    }
}

//! The `sor top` dashboard: a deterministic ASCII rendering of an
//! exported run (trace.json + metrics.json + windows.json + health.txt).
//!
//! Everything is computed from the export files alone, in
//! deterministically-ordered passes, so the dashboard is byte-identical
//! for byte-identical exports — which the golden-trace tests already
//! guarantee across seeds and `SOR_THREADS` settings. Sections:
//!
//! - **stage attribution** — spans aggregated by name into a tree
//!   (each stage attaches under the parent name that most often
//!   parents it), with call counts and summed simulated time;
//! - **slowest stages** — a Space-Saving top-k over span durations,
//!   the same O(k) sketch the live pipeline uses;
//! - **top-k tables** — `*.topk_*` gauge families exported by the
//!   server/frontend sketches (hot places, hot scripts);
//! - **windowed trends** — per-histogram p95 series over the metric
//!   windows with `^`/`v`/`=` arrows;
//! - **sampler** — the tail-sampler's keep/drop accounting;
//! - **script engine** — bytecode VM runs and the compilation cache's
//!   hit rate (absent counters render as a note, not an error: a run
//!   without script executions exports none of them);
//! - **scheduler** — replan count, marginal-gain evaluations per
//!   replan, and the CELF heap/bound traffic (`sched.*` counters
//!   exported by the server's replan loop);
//! - **health** — the exported SLO grades, embedded verbatim.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::topk::SpaceSaving;
use crate::window::trend_arrow;

/// Aggregate of all spans sharing one name.
#[derive(Debug, Default, Clone)]
struct StageAgg {
    count: u64,
    total_s: f64,
    /// How often each parent stage name (or "" for root) encloses this
    /// stage.
    parents: BTreeMap<String, u64>,
}

fn fmt_secs(v: f64) -> String {
    format!("{v:.3}s")
}

/// Renders the full dashboard from parsed export documents.
///
/// `trace` is the parsed trace.json, `metrics` the parsed metrics.json;
/// `windows` (windows.json) and `health` (health.txt) are optional —
/// their sections note the absence instead of failing.
pub fn render_dashboard(
    trace: &Json,
    metrics: &Json,
    windows: Option<&Json>,
    health: Option<&str>,
) -> String {
    let spans = trace.get("spans").and_then(Json::items).unwrap_or(&[]);
    let events = trace.get("events").and_then(Json::items).unwrap_or(&[]);

    let mut out = String::from("== sor top ==\n");
    out.push_str(&format!("spans: {}  events: {}\n", spans.len(), events.len()));

    // Pass 1: id → name, so parent links resolve to stage names.
    let mut name_of: BTreeMap<u64, String> = BTreeMap::new();
    for s in spans {
        if let (Some(id), Some(Json::Str(name))) =
            (s.get("id").and_then(Json::as_f64), s.get("name"))
        {
            name_of.insert(id as u64, name.clone());
        }
    }

    // Pass 2: aggregate per stage name.
    let mut stages: BTreeMap<String, StageAgg> = BTreeMap::new();
    for s in spans {
        let name = match s.get("name") {
            Some(Json::Str(n)) => n.clone(),
            _ => continue,
        };
        let start = s.get("start").and_then(Json::as_f64).unwrap_or(0.0);
        let end = s.get("end").and_then(Json::as_f64).unwrap_or(start);
        let parent_name = s
            .get("parent")
            .and_then(Json::as_f64)
            .and_then(|p| name_of.get(&(p as u64)))
            .cloned()
            .unwrap_or_default();
        let agg = stages.entry(name).or_default();
        agg.count += 1;
        agg.total_s += (end - start).max(0.0);
        *agg.parents.entry(parent_name).or_insert(0) += 1;
    }

    // Each stage attaches under its most frequent parent (ties break
    // toward root, then lexically); cycles and dangling parents fall
    // back to root at render time.
    let mut children: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut roots: Vec<String> = Vec::new();
    for (name, agg) in &stages {
        let best = agg
            .parents
            .iter()
            .max_by(|(ka, va), (kb, vb)| {
                va.cmp(vb)
                    .then_with(|| (ka.is_empty()).cmp(&kb.is_empty()))
                    .then_with(|| kb.cmp(ka))
            })
            .map(|(k, _)| k.clone())
            .unwrap_or_default();
        if best.is_empty() || !stages.contains_key(&best) || best == *name {
            roots.push(name.clone());
        } else {
            children.entry(best).or_default().push(name.clone());
        }
    }

    out.push_str("\n-- stage attribution (calls, total sim time) --\n");
    // Render from the true roots first; whatever remains sits in a
    // parent cycle (the pipeline's causal loop dispatch → run → upload
    // → commit → replan has no root stage), so promote the lexically
    // smallest unvisited stage of each cycle and render its subtree —
    // the visited guard breaks the cycle deterministically.
    let mut visited: BTreeMap<String, bool> = BTreeMap::new();
    let seeds: Vec<String> = roots.iter().chain(stages.keys()).cloned().collect();
    for seed in seeds {
        if visited.contains_key(&seed) {
            continue;
        }
        let mut stack: Vec<(String, usize)> = vec![(seed, 0)];
        while let Some((name, depth)) = stack.pop() {
            if visited.insert(name.clone(), true).is_some() {
                continue;
            }
            let agg = &stages[&name];
            out.push_str(&format!(
                "{}{name}  x{}  {}\n",
                "  ".repeat(depth),
                agg.count,
                fmt_secs(agg.total_s)
            ));
            if let Some(kids) = children.get(&name) {
                for k in kids.iter().rev() {
                    stack.push((k.clone(), depth + 1));
                }
            }
        }
    }

    // Slowest stages: top-k by accumulated duration (microsecond
    // weights keep the sketch integral and deterministic).
    let mut slowest = SpaceSaving::new(8);
    for s in spans {
        if let Some(Json::Str(name)) = s.get("name") {
            let start = s.get("start").and_then(Json::as_f64).unwrap_or(0.0);
            let end = s.get("end").and_then(Json::as_f64).unwrap_or(start);
            let us = ((end - start).max(0.0) * 1e6).round() as u64;
            slowest.offer(name, us);
        }
    }
    out.push('\n');
    out.push_str(&slowest.render("slowest stages (sim microseconds)"));

    // Top-k gauge families exported by the live sketches.
    let gauges = metrics.get("gauges").and_then(Json::entries).unwrap_or(&[]);
    let mut families: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
    for (name, v) in gauges {
        if let Some((family, key)) = name.rsplit_once('.') {
            if family.split('.').next_back().is_some_and(|m| m.starts_with("topk_")) {
                if let Some(n) = v.as_f64() {
                    families.entry(family).or_default().push((key, n));
                }
            }
        }
    }
    out.push_str("\n-- top-k tables --\n");
    if families.is_empty() {
        out.push_str("  (no top-k gauges exported)\n");
    }
    for (family, mut rows) in families {
        rows.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(b.0))
        });
        out.push_str(&format!("  {family}:\n"));
        for (key, v) in rows {
            out.push_str(&format!("    {key} ~{v}\n"));
        }
    }

    // Windowed trends: p95 per histogram metric across the ring.
    out.push_str("\n-- windowed trends (p95 per window) --\n");
    match windows.and_then(|w| w.get("windows")).and_then(Json::items) {
        Some(ws) if !ws.is_empty() => {
            let mut metrics_seen: Vec<&str> = Vec::new();
            for w in ws {
                if let Some(hists) = w.get("histograms").and_then(Json::entries) {
                    for (name, _) in hists {
                        if !metrics_seen.iter().any(|m| m == name) {
                            metrics_seen.push(name);
                        }
                    }
                }
            }
            metrics_seen.sort_unstable();
            out.push_str(&format!("  windows: {}\n", ws.len()));
            for metric in metrics_seen {
                let series: Vec<Option<f64>> = ws
                    .iter()
                    .map(|w| {
                        w.get("histograms")
                            .and_then(|h| h.get(metric))
                            .and_then(|h| h.get("p95"))
                            .and_then(Json::as_f64)
                    })
                    .collect();
                let mut line = format!("  {metric}:");
                let mut prev: Option<f64> = None;
                for cur in &series {
                    let shown = cur.map_or("-".to_string(), |v| format!("{v}"));
                    if prev.is_none() && line.ends_with(':') {
                        line.push_str(&format!(" {shown}"));
                    } else {
                        line.push_str(&format!(" {}{shown}", trend_arrow(prev, *cur)));
                    }
                    if cur.is_some() {
                        prev = *cur;
                    }
                }
                line.push('\n');
                out.push_str(&line);
            }
        }
        _ => out.push_str("  (no windows exported)\n"),
    }

    // Sampler accounting.
    let counters = metrics.get("counters").and_then(Json::entries).unwrap_or(&[]);
    out.push_str("\n-- sampler --\n");
    let sampler_rows: Vec<&(String, Json)> =
        counters.iter().filter(|(k, _)| k.starts_with("obs.")).collect();
    if sampler_rows.is_empty() {
        out.push_str("  (sampling at rate 1.0 or no sampler counters)\n");
    }
    for (k, v) in sampler_rows {
        if let Some(n) = v.as_f64() {
            out.push_str(&format!("  {k}: {n}\n"));
        }
    }

    // Script engine: bytecode VM and compilation-cache accounting
    // (`script.vm_runs`, `script.cache_*`, `script.compile_runs`).
    let counter = |name: &str| {
        counters.iter().find(|(k, _)| k == name).and_then(|(_, v)| v.as_f64()).unwrap_or(0.0)
    };
    out.push_str("\n-- script engine --\n");
    let hits = counter("script.cache_hits");
    let misses = counter("script.cache_misses");
    let lookups = hits + misses;
    if lookups == 0.0 && counter("script.vm_runs") == 0.0 {
        out.push_str("  (no script runs)\n");
    } else {
        out.push_str(&format!(
            "  vm runs: {}  compiles: {}\n",
            counter("script.vm_runs"),
            counter("script.compile_runs")
        ));
        let rate = if lookups > 0.0 { 100.0 * hits / lookups } else { 0.0 };
        out.push_str(&format!(
            "  cache: {hits} hit / {misses} miss ({rate:.1}% hit rate), {} evicted\n",
            counter("script.cache_evictions")
        ));
    }

    // Scheduler: replan and CELF work accounting (`sched.*` counters).
    out.push_str("\n-- scheduler --\n");
    let replans = counter("sched.replans_run");
    let evals = counter("sched.gain_evaluations");
    if replans == 0.0 && evals == 0.0 {
        out.push_str("  (no scheduler counters exported)\n");
    } else {
        out.push_str(&format!("  replans: {replans}\n"));
        let per = if replans > 0.0 { evals / replans } else { 0.0 };
        out.push_str(&format!("  gain evals: {evals} ({per:.1} per replan)\n"));
        out.push_str(&format!(
            "  celf: {} heap pops, {} bounds reinserted\n",
            counter("sched.heap_pops"),
            counter("sched.bounds_reinserted")
        ));
    }

    out.push_str("\n-- health --\n");
    match health {
        Some(h) if !h.trim().is_empty() => {
            for line in h.trim_end().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        _ => out.push_str("  (no health export)\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::sample::{sample_trace, SamplePolicy};
    use crate::trace::{SpanId, Trace};
    use crate::window::WindowRing;
    use crate::MetricsRegistry;

    fn sample_inputs() -> (Json, Json, Json, String) {
        let mut t = Trace::new();
        let a = t.start("server.rank", 0.0);
        let b = t.start("server.rank_request", 0.1);
        t.end(b, 0.4);
        t.end(a, 1.0);
        let c = t.start_with_parent("phone.script_run", 2.0, SpanId::NONE);
        t.end(c, 2.5);
        let (sampled, stats) = sample_trace(&t, &SamplePolicy::keep_all());
        let mut m = MetricsRegistry::new();
        m.gauge("server.topk_uploads.app1", 5.0);
        m.gauge("server.topk_uploads.app2", 9.0);
        m.count("net.frames_sent", 3);
        stats.record_into(&mut m);
        let mut ring = WindowRing::new(4);
        let mut cm = MetricsRegistry::new();
        cm.observe("pipeline.upload_commit_latency_s", 100.0);
        ring.roll(300.0, &cm);
        cm.observe("pipeline.upload_commit_latency_s", 400.0);
        ring.roll(600.0, &cm);
        (
            parse(&sampled.to_json()).unwrap(),
            parse(&m.to_json()).unwrap(),
            parse(&ring.summary_json()).unwrap(),
            "slo upload_commit_p95: ok\n".to_string(),
        )
    }

    #[test]
    fn dashboard_has_all_sections_and_is_deterministic() {
        let (t, m, w, h) = sample_inputs();
        let d1 = render_dashboard(&t, &m, Some(&w), Some(&h));
        let d2 = render_dashboard(&t, &m, Some(&w), Some(&h));
        assert_eq!(d1, d2);
        for section in [
            "== sor top ==",
            "stage attribution",
            "slowest stages",
            "top-k tables",
            "windowed trends",
            "-- sampler --",
            "-- script engine --",
            "-- scheduler --",
            "-- health --",
        ] {
            assert!(d1.contains(section), "missing `{section}` in:\n{d1}");
        }
        // No sched counters in the sample inputs either.
        assert!(d1.contains("no scheduler counters exported"), "{d1}");
        // No script counters in the sample inputs: the section degrades
        // to an explanatory note instead of a 0/0 hit rate.
        assert!(d1.contains("no script runs"), "{d1}");
        // The child stage nests under its parent stage.
        assert!(d1.contains("server.rank  x1"), "{d1}");
        assert!(d1.contains("  server.rank_request  x1"), "{d1}");
        // Top-k rows are value-sorted.
        let a2 = d1.find("app2 ~9").expect("app2 row");
        let a1 = d1.find("app1 ~5").expect("app1 row");
        assert!(a2 < a1, "heaviest first:\n{d1}");
        // Trend arrow between the two windows (p95 rose 128 → 512).
        assert!(d1.contains("^"), "{d1}");
        assert!(d1.contains("slo upload_commit_p95: ok"), "{d1}");
    }

    #[test]
    fn dashboard_degrades_gracefully_without_optional_inputs() {
        let (t, m, _, _) = sample_inputs();
        let d = render_dashboard(&t, &m, None, None);
        assert!(d.contains("(no windows exported)"), "{d}");
        assert!(d.contains("(no health export)"), "{d}");
    }

    #[test]
    fn script_engine_section_reports_cache_hit_rate() {
        let (t, _, _, _) = sample_inputs();
        let mut m = MetricsRegistry::new();
        m.count("script.vm_runs", 4);
        m.count("script.compile_runs", 1);
        m.count("script.cache_hits", 3);
        m.count("script.cache_misses", 1);
        let m = parse(&m.to_json()).unwrap();
        let d = render_dashboard(&t, &m, None, None);
        assert!(d.contains("vm runs: 4  compiles: 1"), "{d}");
        assert!(d.contains("3 hit / 1 miss (75.0% hit rate), 0 evicted"), "{d}");
    }

    #[test]
    fn scheduler_section_reports_solver_and_eval_rate() {
        let (t, _, _, _) = sample_inputs();
        let mut m = MetricsRegistry::new();
        m.count("sched.iterations_run", 12);
        m.count("sched.gain_evaluations", 90);
        m.count("sched.heap_pops", 40);
        m.count("sched.bounds_reinserted", 7);
        m.count("sched.replans_run", 6);
        let m = parse(&m.to_json()).unwrap();
        let d = render_dashboard(&t, &m, None, None);
        assert!(d.contains("replans: 6\n"), "{d}");
        assert!(d.contains("gain evals: 90 (15.0 per replan)"), "{d}");
        assert!(d.contains("celf: 40 heap pops, 7 bounds reinserted\n"), "{d}");
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        let t = parse("{\"spans\":[],\"events\":[]}").unwrap();
        let m = parse("{\"counters\":{},\"gauges\":{},\"histograms\":{}}").unwrap();
        let d = render_dashboard(&t, &m, None, None);
        assert!(d.contains("spans: 0"), "{d}");
    }
}

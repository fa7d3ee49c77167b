//! Per-run summary report: one human-readable panel combining the
//! metrics registry and the trace, in the `sor-server::viz` ASCII
//! style. Deterministic for a deterministic run.

use crate::metrics::MetricsRegistry;
use crate::trace::Trace;

/// Renders the run report: counter table, histogram table, and a span
/// summary (per-name span counts plus a capped timeline).
pub fn render_report(trace: &Trace, metrics: &MetricsRegistry) -> String {
    let mut out = String::from("== run report ==\n");

    out.push_str("-- counters --\n");
    let name_w = metrics.counters().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (name, v) in metrics.counters() {
        out.push_str(&format!("  {name:<name_w$} {v}\n"));
    }

    let gauges: Vec<(&str, f64)> = metrics.gauges().collect();
    if !gauges.is_empty() {
        out.push_str("-- gauges --\n");
        let gw = gauges.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (name, v) in gauges {
            out.push_str(&format!("  {name:<gw$} {v:.3}\n"));
        }
    }

    let hists: Vec<_> = metrics.histograms().collect();
    if !hists.is_empty() {
        out.push_str("-- histograms --\n");
        let hw = hists.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (name, h) in hists {
            let mean = h.mean().unwrap_or(0.0);
            out.push_str(&format!(
                "  {name:<hw$} n={} mean={mean:.4} min={:.4} max={:.4}\n",
                h.count(),
                h.min().unwrap_or(0.0),
                h.max().unwrap_or(0.0),
            ));
        }
    }

    if !trace.spans().is_empty() {
        out.push_str("-- spans --\n");
        // Per-name counts and total simulated duration, name-ordered.
        let mut by_name: std::collections::BTreeMap<&str, (u64, f64)> =
            std::collections::BTreeMap::new();
        for s in trace.spans() {
            let entry = by_name.entry(&s.name).or_insert((0, 0.0));
            entry.0 += 1;
            if let Some(end) = s.end {
                entry.1 += end - s.start;
            }
        }
        let sw = by_name.keys().map(|k| k.len()).max().unwrap_or(0);
        for (name, (n, dur)) in &by_name {
            out.push_str(&format!("  {name:<sw$} n={n} sim_dur={dur:.3}s\n"));
        }
        out.push_str(&trace.render_timeline(48, 16));
    }

    if !trace.events().is_empty() {
        out.push_str(&format!("-- events -- ({} total)\n", trace.events().len()));
        for e in trace.events().iter().take(16) {
            out.push_str(&format!("  [{:.3}] {} {}\n", e.time, e.name, e.detail));
        }
        if trace.events().len() > 16 {
            out.push_str(&format!("  … {} more events\n", trace.events().len() - 16));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_includes_all_sections() {
        let mut t = Trace::new();
        let a = t.start("phase.one", 0.0);
        t.end(a, 2.0);
        t.event("tick", 1.0, "x=1");
        let mut m = MetricsRegistry::new();
        m.count("c.total", 5);
        m.gauge("depth", 3.0);
        m.observe("lat", 0.5);
        let r = render_report(&t, &m);
        for needle in
            ["== run report ==", "c.total", "depth", "lat", "phase.one", "tick", "sim_dur=2.000s"]
        {
            assert!(r.contains(needle), "missing {needle} in:\n{r}");
        }
        assert_eq!(r, render_report(&t, &m), "report must be deterministic");
    }

    #[test]
    fn empty_inputs_render_minimal_report() {
        let r = render_report(&Trace::new(), &MetricsRegistry::new());
        assert!(r.starts_with("== run report =="));
        assert!(!r.contains("-- spans --"));
    }
}

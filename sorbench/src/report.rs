//! Turns episodes into metrics: the end-to-end set from an untraced
//! pass, the per-layer set from a traced one, the driver's JSON line
//! and the sealed span archive.

use std::path::Path;

use sor_obs::{MetricsRegistry, RunArchive, RunMeta, Trace};

use crate::probe::{DiskStats, Layer, LedgerTotals};
use crate::sim::{Counts, Samples};
use crate::stats::{ledger_check, median, percentile};
use crate::workloads::{Episode, HEADLINE_RATE, RANK_LIMIT_S};

/// End-to-end metrics registered in `BENCHMARK.json`: every workload
/// reports each of them, none is ever zero, and each stays steady
/// across seeded runs. `request_p99_ms` and `refresh_p50_ms` are
/// printed but not registered: on a shared host their run-to-run
/// spread exceeds 10% (see README.md).
pub const END_TO_END: [&str; 4] = ["setup_s", "run_s", "peak_rss_mb", "request_p50_ms"];

/// Per-layer metrics registered in `BENCHMARK.json` besides the layer
/// shares: the work and waste an optimisation can move. Counts fixed by
/// the workload's inputs (admissions, uploads, script runs, …) are
/// printed and archived but not registered.
const LAYER_REGISTERED: [&str; 12] = [
    "server.assignments_sent",
    "server.assignments_changed_ratio",
    "server.rank_cache_hit_ratio",
    "proto.frame_bytes",
    "durable.appends",
    "durable.flushes",
    "durable.wal_bytes",
    "durable.checkpoints",
    "durable.checkpoint_bytes",
    "durable.write_amplification",
    "bench.unattributed_ratio",
    "bench.traced_run_s",
];

/// Every per-layer metric registered in `BENCHMARK.json`, in order:
/// each layer's share of the traced run, then [`LAYER_REGISTERED`].
pub fn per_layer_names() -> Vec<String> {
    Layer::ALL
        .iter()
        .map(|l| format!("{}_share", l.span_name()))
        .chain(LAYER_REGISTERED.iter().map(|s| s.to_string()))
        .collect()
}

/// One named value; `None` when the run had too few samples for it or
/// the workload does not exercise it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// All episodes of one pass, pooled.
#[derive(Debug, Default)]
pub struct Pass {
    /// Episodes run.
    pub episodes: usize,
    setup: Vec<f64>,
    run: Vec<f64>,
    request: Vec<f64>,
    samples: Samples,
    rungs: Vec<(f64, Vec<f64>)>,
    oversleep: Vec<f64>,
    rank_hit: Vec<f64>,
    rank_miss: Vec<f64>,
    counts: Counts,
    disk: DiskStats,
    ledger: LedgerTotals,
    /// Spans of the first episode.
    pub trace: Trace,
    /// The first episode's output digest.
    pub digest: u64,
    /// Failed checks, across episodes.
    pub violations: Vec<String>,
}

impl Pass {
    /// Adds one episode. Its digest must match the first episode's:
    /// every episode of a run replays the same seeded inputs.
    pub fn absorb(&mut self, ep: Episode) {
        if self.episodes == 0 {
            self.digest = ep.digest;
            self.trace = ep.trace;
        } else if ep.digest != self.digest {
            self.violations.push(format!(
                "episode {} digest {:016x} differs from {:016x}",
                self.episodes, ep.digest, self.digest
            ));
        }
        self.episodes += 1;
        self.setup.push(ep.setup_s);
        self.run.push(ep.run_s);
        self.request.extend(ep.request);
        self.samples.absorb(ep.samples);
        for (rate, lat) in ep.rungs {
            match self.rungs.iter_mut().find(|(r, _)| *r == rate) {
                Some((_, all)) => all.extend(lat),
                None => self.rungs.push((rate, lat)),
            }
        }
        self.oversleep.extend(ep.oversleep);
        self.rank_hit.extend(ep.rank_hit);
        self.rank_miss.extend(ep.rank_miss);
        self.counts.absorb(&ep.counts);
        let d = &mut self.disk;
        d.appends += ep.disk.appends;
        d.flushes += ep.disk.flushes;
        d.wal_bytes += ep.disk.wal_bytes;
        d.checkpoints += ep.disk.checkpoints;
        d.checkpoint_bytes += ep.disk.checkpoint_bytes;
        self.ledger.absorb(&ep.ledger);
        self.violations.extend(ep.violations);
    }

    /// Operations attempted and failed, over all episodes.
    pub fn attempted_failed(&self) -> (u64, u64) {
        (self.counts.attempted(), self.counts.failed())
    }

    /// Median wall time of the timed region.
    pub fn run_s(&self) -> Option<f64> {
        median(&self.run)
    }

    /// End-to-end metrics of an untraced pass.
    pub fn end_to_end(&self, peak_rss_mb: Option<f64>) -> Vec<Metric> {
        let ms = |v: Option<f64>| v.map(|s| s * 1e3);
        let us = |v: Option<f64>| v.map(|s| s * 1e6);
        let rung = |rate: f64| self.rungs.iter().find(|(r, _)| *r == rate).map(|(_, s)| s);
        let headline = rung(HEADLINE_RATE);
        let max_rps = self
            .rungs
            .iter()
            .filter(|(_, s)| percentile(s, 0.99).is_some_and(|p| p <= RANK_LIMIT_S))
            .map(|(r, _)| *r)
            .reduce(f64::max);
        let (attempted, failed) = self.attempted_failed();
        vec![
            metric("setup_s", median(&self.setup), "s"),
            metric("run_s", self.run_s(), "s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
            metric("request_p50_ms", ms(percentile(&self.request, 0.50)), "ms"),
            metric("request_p99_ms", ms(percentile(&self.request, 0.99)), "ms"),
            metric("refresh_p50_ms", ms(percentile(&self.samples.refresh, 0.50)), "ms"),
            metric("failed_ratio", Some(failed as f64 / attempted.max(1) as f64), "ratio"),
            metric("admit_p50_ms", ms(percentile(&self.samples.admit, 0.50)), "ms"),
            metric("admit_p99_ms", ms(percentile(&self.samples.admit, 0.99)), "ms"),
            metric("upload_p50_us", us(percentile(&self.samples.upload, 0.50)), "us"),
            metric("upload_p99_us", us(percentile(&self.samples.upload, 0.99)), "us"),
            metric("rank_p50_ms", ms(headline.and_then(|s| percentile(s, 0.50))), "ms"),
            metric("rank_p99_ms", ms(headline.and_then(|s| percentile(s, 0.99))), "ms"),
            metric("rank_max_rps", max_rps, "req/s"),
            metric("bench.gen_oversleep_p99_us", us(percentile(&self.oversleep, 0.99)), "us"),
        ]
    }

    /// Per-layer metrics of a traced pass, and the ledger check's
    /// verdict (the unattributed ratio, or why the ledger is invalid).
    pub fn per_layer(&self) -> (Vec<Metric>, Result<f64, String>) {
        let total_run: f64 = self.run.iter().sum();
        let layers: Vec<(&str, f64)> =
            Layer::ALL.iter().map(|&l| (l.span_name(), self.ledger.secs(l))).collect();
        let verdict = ledger_check(&layers, total_run);
        let eps = self.episodes.max(1) as f64;
        let per_ep = |v: u64| Some(v as f64 / eps);
        let ratio = |num: f64, den: f64| Some(if den > 0.0 { num / den } else { 0.0 });
        let us = |v: Option<f64>| v.map(|s| s * 1e6);
        let c = &self.counts;
        let d = &self.disk;
        let attributed: f64 = layers.iter().map(|(_, s)| s).sum();
        let mut out: Vec<Metric> = layers
            .iter()
            .map(|&(name, s)| metric(&format!("{name}_share"), ratio(s, total_run), "ratio"))
            .collect();
        out.extend([
            metric("server.assignments_sent", per_ep(c.assignments_sent), "count"),
            metric(
                "server.assignments_changed_ratio",
                ratio(c.assignments_changed as f64, c.assignments_sent as f64),
                "ratio",
            ),
            metric(
                "server.rank_cache_hit_ratio",
                ratio(self.rank_hit.len() as f64, c.rank_requests as f64),
                "ratio",
            ),
            metric("proto.frame_bytes", per_ep(c.frame_bytes), "bytes"),
            metric("durable.appends", per_ep(d.appends), "count"),
            metric("durable.flushes", per_ep(d.flushes), "count"),
            metric("durable.wal_bytes", per_ep(d.wal_bytes), "bytes"),
            metric("durable.checkpoints", per_ep(d.checkpoints), "count"),
            metric("durable.checkpoint_bytes", per_ep(d.checkpoint_bytes), "bytes"),
            metric(
                "durable.write_amplification",
                ratio(d.bytes_written() as f64, c.upload_bytes as f64),
                "ratio",
            ),
            metric(
                "bench.unattributed_ratio",
                ratio((total_run - attributed).max(0.0), total_run),
                "ratio",
            ),
            metric("bench.traced_run_s", self.run_s(), "s"),
        ]);
        // Absolute self times, per-operation costs and input-fixed
        // counts: printed and archived, not registered. Several are
        // zero by design on workloads that bypass their layer.
        for &(name, s) in &layers {
            out.push(metric(&format!("{name}_s"), Some(s / eps), "s"));
        }
        out.extend([
            metric("durable.recovery_ms", median(&self.samples.recovery).map(|s| s * 1e3), "ms"),
            metric("server.rank_hit_us", us(median(&self.rank_hit)), "us"),
            metric("server.rank_miss_us", us(median(&self.rank_miss)), "us"),
            metric(
                "frontend.us_per_run",
                ratio(self.ledger.secs(Layer::FrontendBusy) * 1e6, c.script_runs as f64),
                "us",
            ),
            metric("server.admits", per_ep(c.admits), "count"),
            metric("server.completes", per_ep(c.completes), "count"),
            metric("server.uploads", per_ep(c.uploads), "count"),
            metric("server.process_passes", per_ep(c.process_passes), "count"),
            metric("server.records_stored", per_ep(c.records_stored), "count"),
            metric("server.rank_requests", per_ep(c.rank_requests), "count"),
            metric("frontend.script_runs", per_ep(c.script_runs), "count"),
            metric("frontend.tasks_failed", per_ep(c.tasks_failed), "count"),
            metric("proto.frames", per_ep(c.frames), "count"),
            metric("proto.decode_failures", per_ep(c.decode_failures), "count"),
            metric("sim.events", per_ep(c.events), "count"),
            metric("bench.spans_dropped", Some(self.ledger.spans_dropped as f64), "count"),
        ]);
        (out, verdict)
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The driver's result line: exactly the `names` metrics, each with
/// its unit. A registered metric without a value makes the run
/// incorrect rather than leaving a hole in the result.
pub fn result_json(
    metrics: &[Metric],
    names: &[String],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> (String, bool) {
    let mut all_present = true;
    let body: Vec<String> = names
        .iter()
        .map(|name| {
            let m = metrics.iter().find(|m| &m.name == name);
            let (value, unit) = match m {
                Some(Metric { value: Some(v), unit, .. }) if v.is_finite() => {
                    (format!("{v}"), *unit)
                }
                Some(m) => {
                    all_present = false;
                    ("null".to_string(), m.unit)
                }
                None => {
                    all_present = false;
                    ("null".to_string(), "")
                }
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = correct && all_present;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    (line, correct)
}

/// Seals a traced pass's spans and per-layer metrics into
/// `<dir>/<workload>.sorar`, readable with `sor query`.
///
/// # Errors
///
/// Directory creation or write failures.
pub fn write_archive(
    dir: &Path,
    workload: &str,
    meta: RunMeta,
    trace: Trace,
    metrics: &[Metric],
) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut registry = MetricsRegistry::new();
    for m in metrics {
        if let Some(v) = m.value {
            registry.gauge(&m.name, v);
        }
    }
    let archive = RunArchive {
        meta,
        trace,
        metrics: registry,
        windows: None,
        topk: Vec::new(),
        health: None,
    };
    let path = dir.join(format!("{workload}.sorar"));
    sor_durable::write_sealed(&path, &archive.to_bytes()).map_err(|e| e.to_string())?;
    Ok(path)
}

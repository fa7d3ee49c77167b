//! Run archives: one compact blob per scenario run.
//!
//! A field test that ran for twenty simulated hours is worth keeping:
//! its sampled trace forest, metric registry, windowed deltas, top-k
//! sketches, and SLO verdicts answer "what changed since yesterday's
//! run" long after the process exits. [`RunArchive`] bundles all of
//! them with enough provenance ([`RunMeta`]: git SHA, seed, thread
//! count, knob env) to decide later whether two archives are even
//! comparable.
//!
//! The byte format reuses the per-module codecs (`Trace::to_bytes`,
//! `MetricsRegistry::to_bytes`, …) so every component round-trips
//! exactly — `f64`s travel as raw bits, so a loaded archive re-exports
//! **byte-identically** to what `sor export` wrote live. CRC sealing is
//! deliberately *not* done here: `sor-durable`'s artifact framing wraps
//! the blob on disk, keeping this crate free of I/O concerns.
//!
//! Archive accounting ([`ArchiveStats`]) is always recorded into a
//! *separate* registry supplied by the caller, never into the archived
//! registry itself — folding `archive.*` counters into the payload
//! would break the byte-identity contract with the live export.

use crate::bytes::{get_str, get_u32, get_u64, get_u8, put_str, put_u32, put_u64, put_u8};
use crate::health::HealthReport;
use crate::metrics::MetricsRegistry;
use crate::topk::SpaceSaving;
use crate::trace::Trace;
use crate::window::WindowRing;

/// Version stamp written first in every archive; readers reject
/// anything newer than they understand.
pub const ARCHIVE_SCHEMA_VERSION: u32 = 1;

/// Provenance for one archived run — everything needed to decide
/// whether two archives are comparable before diffing them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Archive schema version ([`ARCHIVE_SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Git commit the binary was built from (`"unknown"` outside a repo).
    pub git_sha: String,
    /// Scenario label, e.g. `"coffee_field_test"`.
    pub scenario: String,
    /// The scenario seed — same seed + same code ⇒ byte-identical run.
    pub seed: u64,
    /// Worker thread count the run executed with.
    pub threads: u32,
    /// Environment knobs captured at archive time, sorted by key:
    /// `(name, value)` for every set knob that can change behaviour.
    pub knobs: Vec<(String, String)>,
}

impl RunMeta {
    /// The value of one captured knob, if it was set during the run.
    pub fn knob(&self, name: &str) -> Option<&str> {
        self.knobs.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Renders the metadata as a deterministic key/value listing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("schema_version: {}\n", self.schema_version));
        out.push_str(&format!("git_sha: {}\n", self.git_sha));
        out.push_str(&format!("scenario: {}\n", self.scenario));
        out.push_str(&format!("seed: {}\n", self.seed));
        out.push_str(&format!("threads: {}\n", self.threads));
        for (k, v) in &self.knobs {
            out.push_str(&format!("knob {k}={v}\n"));
        }
        out
    }

    fn write_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.schema_version);
        put_str(out, &self.git_sha);
        put_str(out, &self.scenario);
        put_u64(out, self.seed);
        put_u32(out, self.threads);
        put_u32(out, self.knobs.len() as u32);
        for (k, v) in &self.knobs {
            put_str(out, k);
            put_str(out, v);
        }
    }

    fn read_from(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        let schema_version = get_u32(bytes, pos)?;
        if schema_version == 0 || schema_version > ARCHIVE_SCHEMA_VERSION {
            return None;
        }
        let git_sha = get_str(bytes, pos)?;
        let scenario = get_str(bytes, pos)?;
        let seed = get_u64(bytes, pos)?;
        let threads = get_u32(bytes, pos)?;
        let n = get_u32(bytes, pos)? as usize;
        let mut knobs = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let k = get_str(bytes, pos)?;
            let v = get_str(bytes, pos)?;
            knobs.push((k, v));
        }
        Some(RunMeta { schema_version, git_sha, scenario, seed, threads, knobs })
    }
}

/// One archived run: provenance plus every observability artifact the
/// scenario produced.
#[derive(Debug, Clone)]
pub struct RunArchive {
    /// Run provenance and comparability descriptor.
    pub meta: RunMeta,
    /// The (sampled) trace forest, finalized — no open spans.
    pub trace: Trace,
    /// The final metric registry snapshot.
    pub metrics: MetricsRegistry,
    /// Windowed metric deltas, when the scenario rolled windows.
    pub windows: Option<WindowRing>,
    /// Named top-k sketches (`(title, sketch)`), insertion-ordered.
    pub topk: Vec<(String, SpaceSaving)>,
    /// The final SLO report card, when health grading ran.
    pub health: Option<HealthReport>,
}

impl RunArchive {
    /// Serializes the archive. The layout is: meta, trace, metrics,
    /// then optional sections each behind a presence tag.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        self.meta.write_into(&mut out);
        self.trace.write_into(&mut out);
        self.metrics.write_into(&mut out);
        match &self.windows {
            None => put_u8(&mut out, 0),
            Some(ring) => {
                put_u8(&mut out, 1);
                ring.write_into(&mut out);
            }
        }
        put_u32(&mut out, self.topk.len() as u32);
        for (title, sketch) in &self.topk {
            put_str(&mut out, title);
            sketch.write_into(&mut out);
        }
        match &self.health {
            None => put_u8(&mut out, 0),
            Some(report) => {
                put_u8(&mut out, 1);
                report.write_into(&mut out);
            }
        }
        out
    }

    /// Restores an archive from [`RunArchive::to_bytes`] output. `None`
    /// on any structural inconsistency, unknown schema versions and
    /// trailing bytes included.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let meta = RunMeta::read_from(bytes, &mut pos)?;
        let trace = Trace::read_from(bytes, &mut pos)?;
        let metrics = MetricsRegistry::read_from(bytes, &mut pos)?;
        let windows = match get_u8(bytes, &mut pos)? {
            0 => None,
            1 => Some(WindowRing::read_from(bytes, &mut pos)?),
            _ => return None,
        };
        let n = get_u32(bytes, &mut pos)? as usize;
        let mut topk = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let title = get_str(bytes, &mut pos)?;
            let sketch = SpaceSaving::read_from(bytes, &mut pos)?;
            topk.push((title, sketch));
        }
        let health = match get_u8(bytes, &mut pos)? {
            0 => None,
            1 => Some(HealthReport::read_from(bytes, &mut pos)?),
            _ => return None,
        };
        if pos != bytes.len() {
            return None;
        }
        Some(RunArchive { meta, trace, metrics, windows, topk, health })
    }

    /// Accounting for one serialization: feed the result to
    /// [`ArchiveStats::record_into`] against a registry that is **not**
    /// the archived one.
    pub fn stats(&self, encoded_len: usize) -> ArchiveStats {
        ArchiveStats {
            bytes_written: encoded_len as u64,
            spans_archived: self.trace.spans().len() as u64,
            events_archived: self.trace.events().len() as u64,
            windows_archived: self.windows.as_ref().map_or(0, |r| r.len() as u64),
        }
    }
}

/// What one archive write produced, for `archive.*` metric accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Serialized payload size (pre-sealing) in bytes.
    pub bytes_written: u64,
    /// Spans persisted into the archive.
    pub spans_archived: u64,
    /// Trace events persisted into the archive.
    pub events_archived: u64,
    /// Closed metric windows persisted into the archive.
    pub windows_archived: u64,
}

/// Counter: total archive payload bytes written.
pub const METRIC_ARCHIVE_BYTES: &str = "archive.bytes_written";
/// Counter: spans persisted across all archive writes.
pub const METRIC_ARCHIVE_SPANS: &str = "archive.spans_archived";
/// Counter: trace events persisted across all archive writes.
pub const METRIC_ARCHIVE_EVENTS: &str = "archive.events_archived";
/// Counter: metric windows persisted across all archive writes.
pub const METRIC_ARCHIVE_WINDOWS: &str = "archive.windows_archived";
/// Counter: archives sealed to disk.
pub const METRIC_ARCHIVE_RUNS: &str = "archive.runs_sealed";

impl ArchiveStats {
    /// Emits the accounting counters into `registry`. Callers must pass
    /// a registry *other than* the archived one — archive accounting
    /// inside the payload would break replay byte-identity.
    pub fn record_into(&self, registry: &mut MetricsRegistry) {
        registry.count(METRIC_ARCHIVE_BYTES, self.bytes_written);
        registry.count(METRIC_ARCHIVE_SPANS, self.spans_archived);
        registry.count(METRIC_ARCHIVE_EVENTS, self.events_archived);
        registry.count(METRIC_ARCHIVE_WINDOWS, self.windows_archived);
        registry.count(METRIC_ARCHIVE_RUNS, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::put_f64;
    use crate::health::{SloGrade, SloStatus};

    fn sample_archive() -> RunArchive {
        let mut trace = Trace::new();
        let root = trace.start("server.dispatch_tasks", 1.0);
        let child = trace.start("store.commit_upload", 1.5);
        trace.attr(child, "place", "p3");
        trace.end(child, 2.0);
        trace.end(root, 2.5);
        trace.event("slo.alert", 3.0, "drop_rate breached");

        let mut metrics = MetricsRegistry::new();
        metrics.count("server.msg_received.upload", 9);
        metrics.gauge("pipeline.coverage_realized_ratio", 0.91);
        metrics.observe("pipeline.upload_commit_latency_s", 12.0);
        metrics.observe("pipeline.upload_commit_latency_s", 48.0);

        let mut ring = WindowRing::new(4);
        ring.roll(10.0, &metrics);
        metrics.count("server.msg_received.upload", 3);
        ring.roll(20.0, &metrics);

        let mut sketch = SpaceSaving::new(2);
        sketch.offer("place:p3", 5);
        sketch.offer("place:p1", 2);

        let health = HealthReport {
            grades: vec![SloGrade {
                slo: "upload_commit_p95".to_string(),
                status: SloStatus::Ok,
                observed: Some(64.0),
                bound: 600.0,
                samples: 2,
            }],
        };

        RunArchive {
            meta: RunMeta {
                schema_version: ARCHIVE_SCHEMA_VERSION,
                git_sha: "abc123".to_string(),
                scenario: "coffee_field_test".to_string(),
                seed: 7,
                threads: 4,
                knobs: vec![("SOR_THREADS".to_string(), "4".to_string())],
            },
            trace,
            metrics,
            windows: Some(ring),
            topk: vec![("hot places".to_string(), sketch)],
            health: Some(health),
        }
    }

    #[test]
    fn roundtrip_reexports_byte_identically() {
        let a = sample_archive();
        let bytes = a.to_bytes();
        let back = RunArchive::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.meta, a.meta);
        assert_eq!(back.trace.to_json(), a.trace.to_json());
        assert_eq!(back.trace.render_tree(), a.trace.render_tree());
        assert_eq!(back.metrics.to_json(), a.metrics.to_json());
        assert_eq!(
            back.windows.as_ref().unwrap().summary_json(),
            a.windows.as_ref().unwrap().summary_json()
        );
        assert_eq!(back.topk[0].1.render("t"), a.topk[0].1.render("t"));
        assert_eq!(back.health.as_ref().unwrap().render(), a.health.as_ref().unwrap().render());
        // And serialization is a fixed point.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn optional_sections_can_be_absent() {
        let mut a = sample_archive();
        a.windows = None;
        a.health = None;
        a.topk.clear();
        let back = RunArchive::from_bytes(&a.to_bytes()).expect("roundtrip");
        assert!(back.windows.is_none());
        assert!(back.health.is_none());
        assert!(back.topk.is_empty());
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let a = sample_archive();
        let mut bytes = a.to_bytes();
        bytes[..4].copy_from_slice(&(ARCHIVE_SCHEMA_VERSION + 1).to_le_bytes());
        assert!(RunArchive::from_bytes(&bytes).is_none(), "future schema accepted");
        bytes[..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(RunArchive::from_bytes(&bytes).is_none(), "zero schema accepted");
    }

    #[test]
    fn garbage_and_trailing_bytes_are_rejected() {
        assert!(RunArchive::from_bytes(&[]).is_none());
        let mut bytes = sample_archive().to_bytes();
        bytes.push(0);
        assert!(RunArchive::from_bytes(&bytes).is_none(), "trailing byte accepted");
    }

    /// Meta, an empty trace and empty metrics: the archive up to its
    /// optional sections, for hand-built hostile ones.
    fn prefix() -> Vec<u8> {
        let mut out = Vec::new();
        sample_archive().meta.write_into(&mut out);
        Trace::new().write_into(&mut out);
        MetricsRegistry::new().write_into(&mut out);
        out
    }

    #[test]
    fn hostile_topk_slot_count_is_rejected_not_allocated() {
        let mut bytes = prefix();
        put_u8(&mut bytes, 0); // no window ring
        put_u32(&mut bytes, 1); // one sketch, k = 2^32 - 1,
        put_str(&mut bytes, "hot places");
        put_u32(&mut bytes, u32::MAX);
        put_u64(&mut bytes, 0);
        put_u32(&mut bytes, u32::MAX); // declaring 2^32 - 1 slots, holding none
        assert!(RunArchive::from_bytes(&bytes).is_none());
    }

    #[test]
    fn hostile_window_count_is_rejected_not_allocated() {
        let mut bytes = prefix();
        put_u8(&mut bytes, 1); // a window ring of capacity 2^32 - 1,
        put_u32(&mut bytes, u32::MAX);
        put_u64(&mut bytes, 0);
        put_u64(&mut bytes, 0);
        put_f64(&mut bytes, 0.0);
        MetricsRegistry::new().write_into(&mut bytes);
        put_u32(&mut bytes, u32::MAX); // declaring 2^32 - 1 windows, holding none
        assert!(RunArchive::from_bytes(&bytes).is_none());
    }

    #[test]
    fn stats_account_into_a_separate_registry() {
        let a = sample_archive();
        let bytes = a.to_bytes();
        let stats = a.stats(bytes.len());
        assert_eq!(stats.spans_archived, 2);
        assert_eq!(stats.events_archived, 1);
        assert_eq!(stats.windows_archived, 2);
        assert_eq!(stats.bytes_written, bytes.len() as u64);
        let mut side = MetricsRegistry::new();
        stats.record_into(&mut side);
        assert_eq!(side.counter(METRIC_ARCHIVE_RUNS), 1);
        assert_eq!(side.counter(METRIC_ARCHIVE_BYTES), bytes.len() as u64);
        // The archived registry itself is untouched.
        assert_eq!(a.metrics.counter(METRIC_ARCHIVE_RUNS), 0);
    }

    #[test]
    fn meta_render_and_knob_lookup() {
        let a = sample_archive();
        assert_eq!(a.meta.knob("SOR_THREADS"), Some("4"));
        assert_eq!(a.meta.knob("SOR_ABSENT"), None);
        let r = a.meta.render();
        assert!(r.contains("scenario: coffee_field_test"), "{r}");
        assert!(r.contains("knob SOR_THREADS=4"), "{r}");
    }
}

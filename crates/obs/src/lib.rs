//! `sor-obs` — sim-clock-aware tracing and metrics for the SOR
//! reproduction.
//!
//! Crowdsensing dynamics (coverage, loss, per-phone budget behaviour)
//! are invisible without a measurement substrate, and a *simulated*
//! system needs one keyed to the **simulated clock**: every span and
//! event in this crate carries `f64` simulation seconds supplied by the
//! caller, never wall-clock time, so traces and metric exports are a
//! pure function of (scenario, seed). That determinism is load-bearing:
//! the golden-trace tests in `sor-sim` assert that two runs of the same
//! scenario produce byte-identical exports.
//!
//! Three pieces:
//!
//! - [`trace`] — a span/event tracer with parent inference from the
//!   open-span stack, an ASCII tree/timeline renderer, the crash
//!   post-mortem, and JSON export.
//! - [`metrics`] — a registry of counters, gauges, and log-bucketed
//!   [`Histogram`]s (mergeable; merge commutes and preserves counts).
//! - [`Recorder`] — the cheap, cloneable handle injected through the
//!   pipeline (`SorWorld` → server, phones, transport, store). A
//!   disabled recorder is a single `Option` check per call — the
//!   `obs_overhead` bench in `sor-bench` guards that this stays under
//!   2% of the end-to-end pipeline benchmark.
//!
//! # Example
//!
//! ```
//! use sor_obs::Recorder;
//!
//! let rec = Recorder::enabled();
//! let span = rec.span_start("server.handle_message", 10.0);
//! rec.count("server.msg_received.upload", 1);
//! rec.observe("net.latency_s", 0.05);
//! rec.span_end(span, 10.2);
//!
//! let metrics = rec.metrics_snapshot().unwrap();
//! assert_eq!(metrics.counter("server.msg_received.upload"), 1);
//! assert!(rec.trace_tree().unwrap().contains("server.handle_message"));
//!
//! // The default handle records nothing and costs one branch per call.
//! let off = Recorder::disabled();
//! off.count("ignored", 1);
//! assert!(off.metrics_snapshot().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use parking_lot::Mutex;

pub mod archive;
mod bytes;
pub mod dashboard;
pub mod diff;
pub mod health;
pub mod json;
pub mod lint;
pub mod metrics;
pub mod naming;
pub mod query;
pub mod report;
pub mod sample;
pub mod topk;
pub mod trace;
pub mod window;

pub use archive::{ArchiveStats, RunArchive, RunMeta, ARCHIVE_SCHEMA_VERSION};
pub use diff::{DiffConfig, DiffFinding, DiffReport};
pub use health::{Alert, HealthEngine, HealthReport, SloGrade, SloKind, SloSpec, SloStatus};
pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{Histogram, MetricsRegistry, DEFAULT_NAME_CAP, OVERFLOW_NAME};
pub use sample::{sample_trace, KeepReason, SamplePolicy, SampleStats, SAMPLE_RATE_ENV};
pub use topk::{SpaceSaving, TopKEntry};
pub use trace::{Span, SpanId, Trace, TraceEvent};
pub use window::{MetricsWindow, WindowRing, DEFAULT_WINDOW_CAPACITY};

/// The shared recording state behind an enabled recorder.
struct Collector {
    trace: Trace,
    metrics: MetricsRegistry,
}

/// The instrumentation handle threaded through the pipeline.
///
/// Cloning is cheap (an `Option<Arc>`); all clones write into the same
/// trace and registry. [`Recorder::disabled`] (also [`Default`]) is a
/// no-op sink: every method returns immediately after one branch, so
/// instrumented code paths pay (provably, see the `obs_overhead`
/// bench) negligible cost when observability is off.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<Collector>>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

impl Recorder {
    /// A recording handle with an empty trace and registry.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(Mutex::new(Collector {
                trace: Trace::new(),
                metrics: MetricsRegistry::new(),
            }))),
        }
    }

    /// The no-op sink (the default everywhere a recorder is optional).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this handle records a trace and metrics.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn count(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.lock().metrics.count(name, n);
        }
    }

    /// Adds `n` to a counter with a label segment appended
    /// (`name.label`), avoiding the format cost when disabled.
    #[inline]
    pub fn count_labeled(&self, name: &str, label: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.lock().metrics.count(&format!("{name}.{label}"), n);
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn gauge(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().metrics.gauge(name, v);
        }
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().metrics.observe(name, v);
        }
    }

    /// Opens a span at simulated time `at`. Returns [`SpanId::NONE`]
    /// when disabled (ending it is then a no-op too).
    #[inline]
    pub fn span_start(&self, name: &str, at: f64) -> SpanId {
        match &self.inner {
            Some(inner) => inner.lock().trace.start(name, at),
            None => SpanId::NONE,
        }
    }

    /// Opens a *detached* span with an explicit parent (see
    /// [`Trace::start_with_parent`]): it never joins the open-span
    /// stack, so parallel workers and cross-component links can attach
    /// children to the correct logical parent regardless of
    /// interleaving. Pass [`SpanId::NONE`] for a detached root.
    #[inline]
    pub fn span_start_with_parent(&self, name: &str, at: f64, parent: SpanId) -> SpanId {
        match &self.inner {
            Some(inner) => inner.lock().trace.start_with_parent(name, at, parent),
            None => SpanId::NONE,
        }
    }

    /// Closes a span at simulated time `at`.
    #[inline]
    pub fn span_end(&self, id: SpanId, at: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().trace.end(id, at);
        }
    }

    /// Annotates a span with a key/value pair.
    #[inline]
    pub fn span_attr(&self, id: SpanId, key: &str, value: &str) {
        if let Some(inner) = &self.inner {
            inner.lock().trace.attr(id, key, value);
        }
    }

    /// Annotates a span, building the value lazily so disabled
    /// recorders skip the formatting entirely.
    #[inline]
    pub fn span_attr_with(&self, id: SpanId, key: &str, value: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            inner.lock().trace.attr(id, key, &value());
        }
    }

    /// Records a point event at simulated time `at`.
    #[inline]
    pub fn event(&self, name: &str, at: f64, detail: &str) {
        if let Some(inner) = &self.inner {
            inner.lock().trace.event(name, at, detail);
        }
    }

    /// Records a point event, building the detail lazily.
    #[inline]
    pub fn event_with(&self, name: &str, at: f64, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            inner.lock().trace.event(name, at, &detail());
        }
    }

    /// A clone of the current metrics registry (None when disabled).
    pub fn metrics_snapshot(&self) -> Option<MetricsRegistry> {
        self.inner.as_ref().map(|i| i.lock().metrics.clone())
    }

    /// A clone of the current trace (None when disabled).
    pub fn trace_snapshot(&self) -> Option<Trace> {
        self.inner.as_ref().map(|i| i.lock().trace.clone())
    }

    /// Reads one counter (0 when disabled or absent) — test helper.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.lock().metrics.counter(name))
    }

    /// The metrics CSV export.
    pub fn metrics_csv(&self) -> Option<String> {
        self.inner.as_ref().map(|i| i.lock().metrics.to_csv())
    }

    /// The metrics JSON export.
    pub fn metrics_json(&self) -> Option<String> {
        self.inner.as_ref().map(|i| i.lock().metrics.to_json())
    }

    /// The trace JSON export.
    pub fn trace_json(&self) -> Option<String> {
        self.inner.as_ref().map(|i| i.lock().trace.to_json())
    }

    /// The ASCII span tree.
    pub fn trace_tree(&self) -> Option<String> {
        self.inner.as_ref().map(|i| i.lock().trace.render_tree())
    }

    /// The crash post-mortem rendered from the trace (see
    /// [`Trace::render_postmortem`]).
    pub fn trace_postmortem(&self, per_component: usize) -> Option<String> {
        self.inner.as_ref().map(|i| i.lock().trace.render_postmortem(per_component))
    }

    /// The ASCII timeline (capped rows).
    pub fn trace_timeline(&self, width: usize, max_rows: usize) -> Option<String> {
        self.inner.as_ref().map(|i| i.lock().trace.render_timeline(width, max_rows))
    }

    /// The per-run summary report.
    pub fn report(&self) -> Option<String> {
        self.inner.as_ref().map(|i| {
            let c = i.lock();
            report::render_report(&c.trace, &c.metrics)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Recorder::enabled();
        let b = a.clone();
        a.count("x", 1);
        b.count("x", 2);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(b.counter("x"), 3);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        let id = r.span_start("s", 0.0);
        assert_eq!(id, SpanId::NONE);
        r.span_end(id, 1.0);
        r.span_attr(id, "k", "v");
        r.count("c", 1);
        r.gauge("g", 1.0);
        r.observe("h", 1.0);
        r.event("e", 0.0, "");
        assert!(r.metrics_snapshot().is_none());
        assert!(r.trace_snapshot().is_none());
        assert!(r.report().is_none());
        assert_eq!(r.counter("c"), 0);
        // Default is disabled.
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn lazy_variants_skip_work_when_disabled() {
        let r = Recorder::disabled();
        r.span_attr_with(SpanId::NONE, "k", || panic!("must not format when disabled"));
        r.event_with("e", 0.0, || panic!("must not format when disabled"));
    }

    #[test]
    fn exports_available_when_enabled() {
        let r = Recorder::enabled();
        let s = r.span_start("a", 0.0);
        r.span_attr_with(s, "k", || "v".to_string());
        r.span_end(s, 1.0);
        r.count_labeled("msgs", "upload", 2);
        assert_eq!(r.counter("msgs.upload"), 2);
        assert!(r.metrics_csv().unwrap().contains("msgs.upload"));
        assert!(r.metrics_json().unwrap().contains("msgs.upload"));
        assert!(r.trace_json().unwrap().contains("\"a\""));
        assert!(r.trace_tree().unwrap().contains("a"));
        assert!(r.trace_timeline(20, 5).unwrap().contains("a"));
        assert!(r.report().unwrap().contains("msgs.upload"));
        // Exports parse as JSON.
        json::parse(&r.metrics_json().unwrap()).unwrap();
        json::parse(&r.trace_json().unwrap()).unwrap();
    }
}

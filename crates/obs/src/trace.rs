//! The span/event tracer, keyed to the **simulated** clock.
//!
//! Every span carries `f64` simulation seconds supplied by the caller —
//! never wall-clock time — so a trace of a scenario run is a pure
//! function of the scenario and its seed. Two runs with the same seed
//! must render byte-identical traces (the golden-trace test in
//! `sor-sim` holds this crate to that).

use std::collections::BTreeMap;

use crate::bytes::{
    get_f64, get_opt_f64, get_str, get_u32, get_u64, put_f64, put_opt_f64, put_str, put_u32,
    put_u64,
};
use crate::metrics::{json_f64, json_str};

/// Identifier of a span within one [`Trace`]. `SpanId(0)` is the
/// reserved "disabled recorder" id: ending or annotating it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The id handed out by a disabled recorder.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id refers to a real recorded span.
    pub fn is_real(self) -> bool {
        self.0 != 0
    }
}

/// One recorded span: a named interval of simulated time with optional
/// string attributes and a parent link (the span open when it started).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id (1-based, allocation order).
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Span name (dotted path by convention).
    pub name: String,
    /// Simulated start time (seconds).
    pub start: f64,
    /// Simulated end time; `None` while still open.
    pub end: Option<f64>,
    /// Ordered key/value annotations.
    pub attrs: Vec<(String, String)>,
}

/// A point event on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time (seconds).
    pub time: f64,
    /// Event name.
    pub name: String,
    /// Free-form detail.
    pub detail: String,
}

/// The trace buffer: spans in allocation order plus point events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    spans: Vec<Span>,
    events: Vec<TraceEvent>,
    /// Indices (into `spans`) of currently-open spans, innermost last.
    stack: Vec<usize>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Rebuilds a finalized trace from pre-assembled parts — the
    /// tail-sampler's constructor for the kept subset. The open-span
    /// stack starts empty: a rebuilt trace is read-only history, not a
    /// buffer to record into. Callers are responsible for span ids
    /// being consistent with allocation order (`spans[i].id == i+1`);
    /// the sampler's remapping guarantees this.
    pub fn from_parts(spans: Vec<Span>, events: Vec<TraceEvent>) -> Self {
        debug_assert!(
            spans.iter().enumerate().all(|(i, s)| s.id.0 == i as u64 + 1),
            "span ids must match allocation order"
        );
        Trace { spans, events, stack: Vec::new() }
    }

    /// Opens a span at simulated time `at`; its parent is the innermost
    /// currently-open span.
    pub fn start(&mut self, name: &str, at: f64) -> SpanId {
        let id = SpanId(self.spans.len() as u64 + 1);
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start: at,
            end: None,
            attrs: Vec::new(),
        });
        self.stack.push(self.spans.len() - 1);
        id
    }

    /// Opens a *detached* span with an explicit parent: it is not
    /// pushed on the open-span stack, so it never captures later spans
    /// as children and stack-based parent inference is unaffected.
    ///
    /// Pass [`SpanId::NONE`] for a detached root. This is the primitive
    /// behind cross-component causal links (the parent id arrived over
    /// the wire, not from this trace's stack) and behind parallel
    /// fan-out, where children must attach to the logical parent
    /// regardless of worker interleaving.
    pub fn start_with_parent(&mut self, name: &str, at: f64, parent: SpanId) -> SpanId {
        let id = SpanId(self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            parent: parent.is_real().then_some(parent),
            name: name.to_string(),
            start: at,
            end: None,
            attrs: Vec::new(),
        });
        id
    }

    /// Closes a span at simulated time `at`. Any still-open spans
    /// nested inside it are force-closed at the same instant, so the
    /// tree stays well-formed even if a caller forgets an inner end.
    pub fn end(&mut self, id: SpanId, at: f64) {
        if !id.is_real() {
            return;
        }
        if let Some(pos) = self.stack.iter().rposition(|&i| self.spans[i].id == id) {
            for &i in &self.stack[pos..] {
                if self.spans[i].end.is_none() {
                    self.spans[i].end = Some(at);
                }
            }
            self.stack.truncate(pos);
        } else if let Some(span) = self.span_mut(id) {
            if span.end.is_none() {
                span.end = Some(at);
            }
        }
    }

    /// Sets a key/value attribute on a span. Re-setting an existing key
    /// overwrites the value in place (last write wins), keeping the
    /// key's original position so exports stay deterministic.
    pub fn attr(&mut self, id: SpanId, key: &str, value: &str) {
        if let Some(span) = self.span_mut(id) {
            if let Some(slot) = span.attrs.iter_mut().find(|(k, _)| k == key) {
                slot.1.clear();
                slot.1.push_str(value);
            } else {
                span.attrs.push((key.to_string(), value.to_string()));
            }
        }
    }

    /// Records a point event.
    pub fn event(&mut self, name: &str, at: f64, detail: &str) {
        self.events.push(TraceEvent {
            time: at,
            name: name.to_string(),
            detail: detail.to_string(),
        });
    }

    fn span_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        if !id.is_real() {
            return None;
        }
        self.spans.get_mut(id.0 as usize - 1)
    }

    /// All spans, allocation-ordered.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All events, record-ordered.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Spans with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Renders the span forest as an indented ASCII tree, one span per
    /// line: `[start..end] name {attrs}`. Children appear under their
    /// parent in allocation order.
    pub fn render_tree(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len() + 1];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                // A dangling parent id (possible after a crash truncated
                // the trace) renders as a root rather than panicking.
                Some(p) if (p.0 as usize) <= self.spans.len() => children[p.0 as usize].push(i),
                _ => roots.push(i),
            }
        }
        let mut out = String::new();
        let mut work: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
        while let Some((i, depth)) = work.pop() {
            let s = &self.spans[i];
            out.push_str(&"  ".repeat(depth));
            match s.end {
                Some(end) => out.push_str(&format!("[{:.3}..{:.3}] {}", s.start, end, s.name)),
                None => out.push_str(&format!("[{:.3}..] {}", s.start, s.name)),
            }
            for (k, v) in &s.attrs {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            for &c in children[s.id.0 as usize].iter().rev() {
                work.push((c, depth + 1));
            }
        }
        out
    }

    /// Renders a crash post-mortem: for each component (the leading
    /// dotted segment of the name, `server.rank` → `server`; names
    /// without one land in `other`), in name order, the last
    /// `per_component` span starts and events by simulated time, oldest
    /// first. At equal times spans come before events, and otherwise
    /// record order holds.
    pub fn render_postmortem(&self, per_component: usize) -> String {
        // (time, name, event detail); a span start has no detail.
        let mut by_component = BTreeMap::<&str, Vec<_>>::new();
        for s in &self.spans {
            let entry = (s.start, s.name.as_str(), None);
            by_component.entry(component_of(&s.name)).or_default().push(entry);
        }
        for e in &self.events {
            let entry = (e.time, e.name.as_str(), Some(e.detail.as_str()));
            by_component.entry(component_of(&e.name)).or_default().push(entry);
        }
        let mut out = format!("== post-mortem (last {per_component} per component) ==\n");
        for (component, mut entries) in by_component {
            entries.sort_by(|a, b| a.0.total_cmp(&b.0));
            let kept = &entries[entries.len().saturating_sub(per_component)..];
            out.push_str(&format!(
                "-- {component} ({} recorded, {} retained) --\n",
                entries.len(),
                kept.len()
            ));
            for (time, name, detail) in kept {
                match detail {
                    None => out.push_str(&format!("  [{time:.3}] span  {name}\n")),
                    Some(detail) => out.push_str(&format!("  [{time:.3}] event {name} {detail}\n")),
                }
            }
        }
        out
    }

    /// Renders a fixed-width ASCII timeline: one row per span (capped
    /// at `max_rows`, earliest first), with `#` bars positioned
    /// proportionally between the trace's first start and last end.
    pub fn render_timeline(&self, width: usize, max_rows: usize) -> String {
        if self.spans.is_empty() || width == 0 {
            return String::new();
        }
        let t0 = self.spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        let t1 = self
            .spans
            .iter()
            .map(|s| s.end.unwrap_or(s.start))
            .fold(f64::NEG_INFINITY, f64::max)
            .max(t0 + 1e-9);
        let span_w = (t1 - t0).max(1e-9);
        let label_w = self.spans.iter().take(max_rows).map(|s| s.name.len()).max().unwrap_or(0);
        let mut out = format!("timeline {t0:.3}s .. {t1:.3}s\n");
        for s in self.spans.iter().take(max_rows) {
            let lo = (((s.start - t0) / span_w) * width as f64) as usize;
            let hi = (((s.end.unwrap_or(s.start) - t0) / span_w) * width as f64) as usize;
            let lo = lo.min(width.saturating_sub(1));
            let hi = hi.clamp(lo + 1, width);
            let mut bar = String::with_capacity(width);
            bar.push_str(&" ".repeat(lo));
            bar.push_str(&"#".repeat(hi - lo));
            bar.push_str(&" ".repeat(width - hi));
            out.push_str(&format!("  {:<label_w$} |{bar}|\n", s.name));
        }
        if self.spans.len() > max_rows {
            out.push_str(&format!("  … {} more spans\n", self.spans.len() - max_rows));
        }
        out
    }

    /// JSON export: `{"spans":[…],"events":[…]}`, deterministically
    /// ordered by allocation/record order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let mut j = format!(
                    "{{\"id\":{},\"parent\":{},\"name\":{},\"start\":{},\"end\":{}",
                    s.id.0,
                    s.parent.map_or("null".to_string(), |p| p.0.to_string()),
                    json_str(&s.name),
                    json_f64(s.start),
                    s.end.map_or("null".to_string(), json_f64),
                );
                if !s.attrs.is_empty() {
                    j.push_str(",\"attrs\":{");
                    let attrs: Vec<String> = s
                        .attrs
                        .iter()
                        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
                        .collect();
                    j.push_str(&attrs.join(","));
                    j.push('}');
                }
                j.push('}');
                j
            })
            .collect();
        out.push_str(&spans.join(","));
        out.push_str("],\"events\":[");
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "{{\"time\":{},\"name\":{},\"detail\":{}}}",
                    json_f64(e.time),
                    json_str(&e.name),
                    json_str(&e.detail)
                )
            })
            .collect();
        out.push_str(&events.join(","));
        out.push_str("]}");
        out
    }

    /// Appends this trace's archive serialization to `out`. Span ids
    /// are implicit (allocation order, `i + 1`); parents are stored as
    /// raw ids with 0 meaning "none", so dangling parent references
    /// (possible after a crash truncated the buffer) survive verbatim.
    /// Only finalized traces (empty open-span stack) may be archived.
    pub(crate) fn write_into(&self, out: &mut Vec<u8>) {
        debug_assert!(self.stack.is_empty(), "archived traces must be finalized");
        put_u32(out, self.spans.len() as u32);
        for s in &self.spans {
            put_u64(out, s.parent.map_or(0, |p| p.0));
            put_str(out, &s.name);
            put_f64(out, s.start);
            put_opt_f64(out, s.end);
            put_u32(out, s.attrs.len() as u32);
            for (k, v) in &s.attrs {
                put_str(out, k);
                put_str(out, v);
            }
        }
        put_u32(out, self.events.len() as u32);
        for e in &self.events {
            put_f64(out, e.time);
            put_str(out, &e.name);
            put_str(out, &e.detail);
        }
    }

    /// Reads a trace written by [`Trace::write_into`], advancing `pos`.
    /// `None` on any structural inconsistency.
    pub(crate) fn read_from(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        let n_spans = get_u32(bytes, pos)? as usize;
        let mut spans = Vec::with_capacity(n_spans.min(4096));
        for i in 0..n_spans {
            let parent = get_u64(bytes, pos)?;
            let name = get_str(bytes, pos)?;
            let start = get_f64(bytes, pos)?;
            let end = get_opt_f64(bytes, pos)?;
            let n_attrs = get_u32(bytes, pos)? as usize;
            let mut attrs = Vec::with_capacity(n_attrs.min(64));
            for _ in 0..n_attrs {
                let k = get_str(bytes, pos)?;
                let v = get_str(bytes, pos)?;
                attrs.push((k, v));
            }
            spans.push(Span {
                id: SpanId(i as u64 + 1),
                parent: (parent != 0).then_some(SpanId(parent)),
                name,
                start,
                end,
                attrs,
            });
        }
        let n_events = get_u32(bytes, pos)? as usize;
        let mut events = Vec::with_capacity(n_events.min(4096));
        for _ in 0..n_events {
            let time = get_f64(bytes, pos)?;
            let name = get_str(bytes, pos)?;
            let detail = get_str(bytes, pos)?;
            events.push(TraceEvent { time, name, detail });
        }
        Some(Trace::from_parts(spans, events))
    }

    /// The trace as a self-contained archive blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(&mut out);
        out
    }

    /// Restores a trace from [`Trace::to_bytes`] output. `None` on any
    /// structural inconsistency, trailing bytes included.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let t = Self::read_from(bytes, &mut pos)?;
        (pos == bytes.len()).then_some(t)
    }
}

/// The leading dotted segment of a span or event name.
fn component_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((head, _)) if !head.is_empty() => head,
        _ => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_open_stack() {
        let mut t = Trace::new();
        let a = t.start("outer", 0.0);
        let b = t.start("inner", 1.0);
        t.end(b, 2.0);
        let c = t.start("sibling", 2.5);
        t.end(c, 3.0);
        t.end(a, 4.0);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(a));
        assert_eq!(t.spans()[2].parent, Some(a));
        assert_eq!(t.spans()[1].end, Some(2.0));
        assert_eq!(t.spans()[0].end, Some(4.0));
    }

    #[test]
    fn ending_parent_force_closes_children() {
        let mut t = Trace::new();
        let a = t.start("outer", 0.0);
        let _b = t.start("leaked", 1.0);
        t.end(a, 5.0);
        assert_eq!(t.spans()[1].end, Some(5.0));
        // The stack is clean: a new span is a root.
        let c = t.start("next", 6.0);
        assert_eq!(t.spans()[c.0 as usize - 1].parent, None);
    }

    #[test]
    fn disabled_ids_are_ignored() {
        let mut t = Trace::new();
        t.end(SpanId::NONE, 1.0);
        t.attr(SpanId::NONE, "k", "v");
        assert!(t.spans().is_empty());
    }

    #[test]
    fn out_of_order_close_is_a_noop_after_force_close() {
        let mut t = Trace::new();
        let a = t.start("outer", 0.0);
        let b = t.start("inner", 1.0);
        t.end(a, 5.0); // force-closes b at 5.0
        t.end(b, 9.0); // late close of an already-closed span
        assert_eq!(t.spans()[1].end, Some(5.0), "first close wins");
        // Closing a again is equally inert.
        t.end(a, 11.0);
        assert_eq!(t.spans()[0].end, Some(5.0));
    }

    #[test]
    fn none_parent_makes_a_detached_root() {
        let mut t = Trace::new();
        let enclosing = t.start("enclosing", 0.0);
        let detached = t.start_with_parent("detached", 1.0, SpanId::NONE);
        assert_eq!(t.spans()[1].parent, None, "NONE parent means root, not stack parent");
        t.end(detached, 2.0);
        // The detached close never disturbs the open stack.
        let child = t.start("child", 3.0);
        assert_eq!(t.spans()[2].parent, Some(enclosing));
        t.end(child, 4.0);
        t.end(enclosing, 5.0);
    }

    #[test]
    fn attribute_overwrite_keeps_position_and_last_value() {
        let mut t = Trace::new();
        let s = t.start("span", 0.0);
        t.attr(s, "first", "1");
        t.attr(s, "second", "2");
        t.attr(s, "first", "overwritten");
        t.end(s, 1.0);
        assert_eq!(
            t.spans()[0].attrs,
            vec![
                ("first".to_string(), "overwritten".to_string()),
                ("second".to_string(), "2".to_string()),
            ],
            "last write wins, original key order preserved"
        );
    }

    #[test]
    fn tree_renders_hierarchy_and_attrs() {
        let mut t = Trace::new();
        let a = t.start("root", 0.0);
        let b = t.start("child", 0.5);
        t.attr(b, "rows", "3");
        t.end(b, 1.0);
        t.end(a, 2.0);
        let s = t.render_tree();
        assert_eq!(s, "[0.000..2.000] root\n  [0.500..1.000] child rows=3\n");
    }

    #[test]
    fn postmortem_keeps_the_newest_entries_per_component_oldest_first() {
        let mut t = Trace::new();
        for i in 0..5 {
            let s = t.start(&format!("server.op{i}"), i as f64);
            t.end(s, i as f64 + 0.5);
        }
        // Allocated last but older than op4: ordered by simulated time.
        t.start_with_parent("server.late", 3.5, SpanId::NONE);
        t.event("net.drop", 2.0, "endpoint=phone1");
        t.start("plain", 0.0);
        t.start(".leading", 1.0);
        assert_eq!(
            t.render_postmortem(3),
            "== post-mortem (last 3 per component) ==\n\
             -- net (1 recorded, 1 retained) --\n  [2.000] event net.drop endpoint=phone1\n\
             -- other (2 recorded, 2 retained) --\n  [0.000] span  plain\n  [1.000] span  .leading\n\
             -- server (6 recorded, 3 retained) --\n  [3.000] span  server.op3\n  \
             [3.500] span  server.late\n  [4.000] span  server.op4\n"
        );
    }

    #[test]
    fn timeline_positions_bars() {
        let mut t = Trace::new();
        let a = t.start("early", 0.0);
        t.end(a, 5.0);
        let b = t.start("late", 5.0);
        t.end(b, 10.0);
        let s = t.render_timeline(10, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("|#####     |"), "{s}");
        assert!(lines[2].contains("|     #####|"), "{s}");
        // Row cap.
        let capped = t.render_timeline(10, 1);
        assert!(capped.contains("1 more span"), "{capped}");
    }

    #[test]
    fn json_shape() {
        let mut t = Trace::new();
        let a = t.start("s", 1.0);
        t.attr(a, "k", "v");
        t.end(a, 2.0);
        t.event("e", 1.5, "boom");
        let j = t.to_json();
        assert!(j.contains("\"name\":\"s\""));
        assert!(j.contains("\"attrs\":{\"k\":\"v\"}"));
        assert!(j.contains("\"detail\":\"boom\""));
        assert_eq!(j, t.to_json());
    }

    #[test]
    fn detached_spans_take_explicit_parent_and_skip_the_stack() {
        let mut t = Trace::new();
        let a = t.start("outer", 0.0);
        let d = t.start_with_parent("detached", 1.0, a);
        // The stack is untouched: a stack-opened span under `outer` is
        // still parented to `outer`, not to the detached span.
        let b = t.start("inner", 1.5);
        t.end(b, 2.0);
        t.end(d, 3.0);
        t.end(a, 4.0);
        assert_eq!(t.spans()[1].parent, Some(a));
        assert_eq!(t.spans()[1].end, Some(3.0));
        assert_eq!(t.spans()[2].parent, Some(a));
        // NONE parent makes a detached root.
        let r = t.start_with_parent("root2", 5.0, SpanId::NONE);
        assert_eq!(t.spans()[r.0 as usize - 1].parent, None);
    }

    #[test]
    fn dangling_parent_renders_as_root() {
        let mut t = Trace::new();
        let s = t.start_with_parent("lost", 0.0, SpanId(999));
        t.end(s, 1.0);
        let tree = t.render_tree();
        assert!(tree.starts_with("[0.000..1.000] lost"), "{tree}");
    }

    #[test]
    fn bytes_roundtrip_is_export_identical() {
        let mut t = Trace::new();
        let a = t.start("server.rank", 0.0);
        t.attr(a, "users", "3");
        let b = t.start("server.rank_request", 0.125);
        t.end(b, 0.25);
        t.end(a, 1.0);
        let d = t.start_with_parent("processor.commit", 2.0, SpanId(999)); // dangling
        t.end(d, 3.0);
        t.event("slo.alert", 2.5, "detail \"quoted\"");
        let back = Trace::from_bytes(&t.to_bytes()).expect("roundtrip");
        assert_eq!(back.to_json(), t.to_json(), "JSON export byte-identical");
        assert_eq!(back.render_tree(), t.render_tree());
        assert_eq!(back.spans(), t.spans());
        assert_eq!(back.events(), t.events());
        assert_eq!(back.spans()[2].parent, Some(SpanId(999)), "dangling parent verbatim");
        // Re-serialization is stable.
        assert_eq!(back.to_bytes(), t.to_bytes());
    }

    #[test]
    fn bytes_reject_garbage_and_trailing() {
        assert!(Trace::from_bytes(&[1, 2, 3]).is_none());
        let mut t = Trace::new();
        let a = t.start("x", 0.0);
        t.end(a, 1.0);
        let mut bytes = t.to_bytes();
        bytes.push(7);
        assert!(Trace::from_bytes(&bytes).is_none(), "trailing byte accepted");
        let bytes = t.to_bytes();
        assert!(Trace::from_bytes(&bytes[..bytes.len() - 2]).is_none());
    }

    #[test]
    fn spans_named_filters() {
        let mut t = Trace::new();
        let a = t.start("x", 0.0);
        t.end(a, 1.0);
        let b = t.start("y", 1.0);
        t.end(b, 2.0);
        assert_eq!(t.spans_named("x").count(), 1);
        assert_eq!(t.spans_named("z").count(), 0);
    }
}

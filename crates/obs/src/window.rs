//! Windowed metrics: a bounded ring of per-period registry deltas.
//!
//! Cumulative counters and histograms answer "how much, ever" but not
//! "is it getting worse" — the trend question the time-sensitive task
//! selection literature cares about. [`WindowRing`] closes a window on
//! every `roll` by diffing the current cumulative snapshot against the
//! previous one ([`MetricsRegistry::delta_since`]), keeping at most
//! `capacity` closed windows. Memory is bounded by
//! `capacity × name_cap` regardless of run length, and because rolls
//! happen at deterministic sim-clock instants (the `HealthCheck`
//! cadence) the ring's JSON summary is a pure function of
//! (scenario, seed).

use std::collections::VecDeque;

use crate::bytes::{get_f64, get_u32, get_u64, put_f64, put_u32, put_u64};
use crate::metrics::{json_f64, json_str, MetricsRegistry};

/// How many closed windows a ring keeps by default.
pub const DEFAULT_WINDOW_CAPACITY: usize = 32;

/// One closed window: the metric deltas over `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsWindow {
    /// Monotonic window number (0-based, never reset — survives ring
    /// eviction so trend series stay addressable).
    pub index: u64,
    /// Sim-clock start of the window (the previous roll instant).
    pub start: f64,
    /// Sim-clock end of the window (the roll instant that closed it).
    pub end: f64,
    /// Counter deltas, point-in-time gauges, and histogram deltas.
    pub delta: MetricsRegistry,
}

/// A bounded ring of closed [`MetricsWindow`]s plus the cumulative
/// snapshot the next roll will diff against.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRing {
    capacity: usize,
    windows: VecDeque<MetricsWindow>,
    last_snapshot: MetricsRegistry,
    last_roll: f64,
    next_index: u64,
    evicted: u64,
}

impl WindowRing {
    /// A ring keeping at most `capacity` closed windows (clamped ≥ 1),
    /// with the epoch starting at sim time 0.
    pub fn new(capacity: usize) -> Self {
        WindowRing {
            capacity: capacity.max(1),
            windows: VecDeque::new(),
            last_snapshot: MetricsRegistry::new(),
            last_roll: 0.0,
            next_index: 0,
            evicted: 0,
        }
    }

    /// The ring's closed-window budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Closed windows currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window has been closed yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows evicted to honor the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Closes the window `[last_roll, now)` against the cumulative
    /// `snapshot` and starts the next one. Returns the closed window.
    pub fn roll(&mut self, now: f64, snapshot: &MetricsRegistry) -> &MetricsWindow {
        let delta = snapshot.delta_since(&self.last_snapshot);
        let window =
            MetricsWindow { index: self.next_index, start: self.last_roll, end: now, delta };
        self.next_index += 1;
        self.last_roll = now;
        self.last_snapshot = snapshot.clone();
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
            self.evicted += 1;
        }
        self.windows.push_back(window);
        self.windows.back().expect("just pushed")
    }

    /// Closed windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &MetricsWindow> {
        self.windows.iter()
    }

    /// The most recently closed window.
    pub fn latest(&self) -> Option<&MetricsWindow> {
        self.windows.back()
    }

    /// Per-window `q`-quantile series (oldest first) for one histogram
    /// metric; `None` entries are windows where the metric saw no
    /// observation.
    pub fn quantile_series(&self, metric: &str, q: f64) -> Vec<Option<f64>> {
        self.windows.iter().map(|w| w.delta.histogram(metric).and_then(|h| h.quantile(q))).collect()
    }

    /// Per-window counter-delta series (oldest first); absent counters
    /// read 0 (no change in that window).
    pub fn counter_series(&self, name: &str) -> Vec<u64> {
        self.windows.iter().map(|w| w.delta.counter(name)).collect()
    }

    /// Deterministic JSON summary (`windows.json`): per window the
    /// bounds, counter deltas, gauges, and per-histogram
    /// count/sum/p50/p95/upper-edge — enough for `sor top` to render
    /// trends without round-tripping full bucket maps.
    pub fn summary_json(&self) -> String {
        let mut out =
            format!("{{\"capacity\":{},\"evicted\":{},\"windows\":[", self.capacity, self.evicted);
        let windows: Vec<String> = self
            .windows
            .iter()
            .map(|w| {
                let mut s = format!(
                    "{{\"index\":{},\"start\":{},\"end\":{},\"counters\":{{",
                    w.index,
                    json_f64(w.start),
                    json_f64(w.end)
                );
                let counters: Vec<String> =
                    w.delta.counters().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
                s.push_str(&counters.join(","));
                s.push_str("},\"gauges\":{");
                let gauges: Vec<String> = w
                    .delta
                    .gauges()
                    .map(|(k, v)| format!("{}:{}", json_str(k), json_f64(v)))
                    .collect();
                s.push_str(&gauges.join(","));
                s.push_str("},\"histograms\":{");
                let hists: Vec<String> = w
                    .delta
                    .histograms()
                    .map(|(k, h)| {
                        format!(
                            "{}:{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{}}}",
                            json_str(k),
                            h.count(),
                            json_f64(h.sum()),
                            h.quantile(0.5).map_or("null".to_string(), json_f64),
                            h.quantile(0.95).map_or("null".to_string(), json_f64),
                        )
                    })
                    .collect();
                s.push_str(&hists.join(","));
                s.push_str("}}");
                s
            })
            .collect();
        out.push_str(&windows.join(","));
        out.push_str("]}");
        out
    }

    /// Appends this ring's archive serialization to `out` — every
    /// closed window's delta registry plus the cumulative snapshot and
    /// roll state, so a restored ring keeps rolling identically.
    pub(crate) fn write_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.capacity as u32);
        put_u64(out, self.evicted);
        put_u64(out, self.next_index);
        put_f64(out, self.last_roll);
        self.last_snapshot.write_into(out);
        put_u32(out, self.windows.len() as u32);
        for w in &self.windows {
            put_u64(out, w.index);
            put_f64(out, w.start);
            put_f64(out, w.end);
            w.delta.write_into(out);
        }
    }

    /// Reads a ring written by [`WindowRing::write_into`], advancing
    /// `pos`. `None` on any structural inconsistency (held windows
    /// beyond capacity included).
    pub(crate) fn read_from(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        let capacity = get_u32(bytes, pos)? as usize;
        let evicted = get_u64(bytes, pos)?;
        let next_index = get_u64(bytes, pos)?;
        let last_roll = get_f64(bytes, pos)?;
        let last_snapshot = MetricsRegistry::read_from(bytes, pos)?;
        let n = get_u32(bytes, pos)? as usize;
        if capacity == 0 || n > capacity {
            return None;
        }
        let mut windows = VecDeque::with_capacity(n.min(64));
        for _ in 0..n {
            let index = get_u64(bytes, pos)?;
            let start = get_f64(bytes, pos)?;
            let end = get_f64(bytes, pos)?;
            let delta = MetricsRegistry::read_from(bytes, pos)?;
            windows.push_back(MetricsWindow { index, start, end, delta });
        }
        Some(WindowRing { capacity, windows, last_snapshot, last_roll, next_index, evicted })
    }

    /// The ring as a self-contained archive blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(&mut out);
        out
    }

    /// Restores a ring from [`WindowRing::to_bytes`] output. `None` on
    /// any structural inconsistency, trailing bytes included.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let r = Self::read_from(bytes, &mut pos)?;
        (pos == bytes.len()).then_some(r)
    }
}

impl Default for WindowRing {
    fn default() -> Self {
        WindowRing::new(DEFAULT_WINDOW_CAPACITY)
    }
}

/// The trend arrow between two consecutive readings: `^` worse/up,
/// `v` better/down, `=` flat or unknown. Readings within 1% of each
/// other count as flat so bucket-edge jitter doesn't flap the arrow.
pub fn trend_arrow(prev: Option<f64>, cur: Option<f64>) -> &'static str {
    match (prev, cur) {
        (Some(p), Some(c)) if c > p * 1.01 => "^",
        (Some(p), Some(c)) if c < p * 0.99 => "v",
        (Some(_), Some(_)) => "=",
        _ => "=",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roll_stores_deltas_not_cumulatives() {
        let mut ring = WindowRing::new(4);
        let mut m = MetricsRegistry::new();
        m.count("net.frames_sent", 10);
        m.observe("pipeline.upload_commit_latency_s", 100.0);
        ring.roll(300.0, &m);
        m.count("net.frames_sent", 5);
        m.observe("pipeline.upload_commit_latency_s", 200.0);
        ring.roll(600.0, &m);
        assert_eq!(ring.counter_series("net.frames_sent"), vec![10, 5]);
        let w = ring.latest().unwrap();
        assert_eq!(w.index, 1);
        assert_eq!((w.start, w.end), (300.0, 600.0));
        assert_eq!(w.delta.histogram("pipeline.upload_commit_latency_s").unwrap().count(), 1);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let mut ring = WindowRing::new(2);
        let mut m = MetricsRegistry::new();
        for i in 1..=5u64 {
            m.count("a.b_c", i);
            ring.roll(i as f64 * 10.0, &m);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.evicted(), 3);
        let indices: Vec<u64> = ring.windows().map(|w| w.index).collect();
        assert_eq!(indices, vec![3, 4], "monotonic indices survive eviction");
    }

    #[test]
    fn empty_window_quantiles_are_none() {
        let mut ring = WindowRing::new(4);
        let mut m = MetricsRegistry::new();
        m.observe("lat.x_y", 4.0);
        ring.roll(10.0, &m);
        // Nothing observed in the second window.
        ring.roll(20.0, &m);
        let series = ring.quantile_series("lat.x_y", 0.95);
        assert_eq!(series.len(), 2);
        assert!(series[0].is_some());
        assert_eq!(series[1], None, "empty window must not fabricate a quantile");
    }

    #[test]
    fn window_boundary_observation_lands_in_exactly_one_window() {
        // An observation recorded *at* a roll instant is part of the
        // cumulative snapshot the roll sees, so it belongs to the window
        // being closed — and must not reappear in the next one.
        let mut ring = WindowRing::new(4);
        let mut m = MetricsRegistry::new();
        m.observe("lat.x_y", 8.0); // at t=10.0, the roll instant
        ring.roll(10.0, &m);
        ring.roll(20.0, &m);
        let counts: Vec<u64> =
            ring.windows().map(|w| w.delta.histogram("lat.x_y").map_or(0, |h| h.count())).collect();
        assert_eq!(counts, vec![1, 0]);
    }

    #[test]
    fn saturated_buckets_merge_across_windows() {
        // Re-accumulating window deltas reproduces the cumulative
        // histogram's buckets even at the clamped extremes.
        let mut ring = WindowRing::new(8);
        let mut m = MetricsRegistry::new();
        m.observe("h.x_y", 1e300);
        ring.roll(1.0, &m);
        m.observe("h.x_y", 1e300);
        m.observe("h.x_y", f64::MIN_POSITIVE);
        ring.roll(2.0, &m);
        let mut rebuilt = crate::Histogram::new();
        for w in ring.windows() {
            if let Some(h) = w.delta.histogram("h.x_y") {
                rebuilt.merge(h);
            }
        }
        assert_eq!(rebuilt.count(), 3);
        assert_eq!(rebuilt.buckets().collect::<Vec<_>>(), vec![(-64, 1), (63, 2)]);
        assert_eq!(rebuilt.bucketed_total(), 3);
    }

    #[test]
    fn summary_json_parses_and_is_deterministic() {
        let mut ring = WindowRing::new(4);
        let mut m = MetricsRegistry::new();
        m.count("a.b_c", 3);
        m.gauge("g.h_i", 2.5);
        m.observe("lat.x_y", 0.125);
        ring.roll(10.0, &m);
        let j = ring.summary_json();
        assert_eq!(j, ring.summary_json());
        let doc = crate::json::parse(&j).expect("windows.json parses");
        let windows = doc.get("windows").unwrap().items().unwrap();
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        assert_eq!(w.get("counters").unwrap().get("a.b_c").unwrap().as_f64(), Some(3.0));
        let h = w.get("histograms").unwrap().get("lat.x_y").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn delta_at_exact_capacity_boundary_is_not_lost() {
        // The roll that lands exactly on capacity must evict the oldest
        // window *and* still store the new delta intact — the eviction
        // happens after the diff, never instead of it.
        let mut ring = WindowRing::new(3);
        let mut m = MetricsRegistry::new();
        for i in 1..=3u64 {
            m.count("a.b_c", i);
            ring.roll(i as f64 * 10.0, &m);
        }
        assert_eq!(ring.len(), 3, "exactly at capacity, nothing evicted yet");
        assert_eq!(ring.evicted(), 0);
        // The boundary roll: window 3 arrives, window 0 leaves.
        m.count("a.b_c", 100);
        ring.roll(40.0, &m);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted(), 1);
        assert_eq!(ring.counter_series("a.b_c"), vec![2, 3, 100]);
        let w = ring.latest().unwrap();
        assert_eq!((w.index, w.start, w.end), (3, 30.0, 40.0));
    }

    #[test]
    fn empty_registry_delta_closes_empty_windows() {
        // Rolling against a never-touched registry is legal: the closed
        // windows carry empty deltas, and quantile/counter series read
        // as "nothing happened" rather than fabricating data.
        let mut ring = WindowRing::new(4);
        let m = MetricsRegistry::new();
        ring.roll(10.0, &m);
        ring.roll(20.0, &m);
        assert_eq!(ring.len(), 2);
        for w in ring.windows() {
            assert_eq!(w.delta.counters().count(), 0);
            assert_eq!(w.delta.histograms().count(), 0);
        }
        assert_eq!(ring.counter_series("any.name_here"), vec![0, 0]);
        assert_eq!(ring.quantile_series("any.name_here", 0.95), vec![None, None]);
    }

    #[test]
    fn indices_stay_monotonic_after_multiple_evictions() {
        let mut ring = WindowRing::new(2);
        let mut m = MetricsRegistry::new();
        for i in 1..=7u64 {
            m.count("a.b_c", 1);
            ring.roll(i as f64, &m);
        }
        assert_eq!(ring.evicted(), 5);
        let indices: Vec<u64> = ring.windows().map(|w| w.index).collect();
        assert_eq!(indices, vec![5, 6]);
        for pair in indices.windows(2) {
            assert!(pair[0] < pair[1], "indices must stay strictly increasing");
        }
        // The next roll continues the sequence — eviction never resets it.
        ring.roll(8.0, &m);
        assert_eq!(ring.latest().unwrap().index, 7);
    }

    #[test]
    fn bytes_roundtrip_preserves_ring_and_roll_state() {
        let mut ring = WindowRing::new(2);
        let mut m = MetricsRegistry::new();
        for i in 1..=4u64 {
            m.count("net.frames_sent", i);
            m.observe("lat.x_y", i as f64);
            ring.roll(i as f64 * 5.0, &m);
        }
        let back = WindowRing::from_bytes(&ring.to_bytes()).expect("roundtrip");
        assert_eq!(back, ring);
        assert_eq!(back.summary_json(), ring.summary_json(), "export byte-identical");
        // A restored ring rolls on identically to the original.
        m.count("net.frames_sent", 9);
        let mut a = ring.clone();
        let mut b = back;
        a.roll(50.0, &m);
        b.roll(50.0, &m);
        assert_eq!(a, b);
    }

    #[test]
    fn bytes_reject_garbage() {
        assert!(WindowRing::from_bytes(&[]).is_none());
        let ring = WindowRing::new(4);
        let mut bytes = ring.to_bytes();
        bytes.push(0);
        assert!(WindowRing::from_bytes(&bytes).is_none(), "trailing byte accepted");
        // Declared windows beyond the declared capacity.
        let mut evil = WindowRing::new(1);
        let mut m = MetricsRegistry::new();
        m.count("a.b_c", 1);
        evil.roll(1.0, &m);
        let mut bytes = evil.to_bytes();
        bytes[..4].copy_from_slice(&0u32.to_le_bytes()); // capacity = 0
        assert!(WindowRing::from_bytes(&bytes).is_none());
    }

    #[test]
    fn trend_arrows() {
        assert_eq!(trend_arrow(Some(1.0), Some(2.0)), "^");
        assert_eq!(trend_arrow(Some(2.0), Some(1.0)), "v");
        assert_eq!(trend_arrow(Some(1.0), Some(1.0)), "=");
        assert_eq!(trend_arrow(Some(1.0), Some(1.005)), "=", "1% deadband");
        assert_eq!(trend_arrow(None, Some(1.0)), "=");
        assert_eq!(trend_arrow(Some(1.0), None), "=");
    }
}

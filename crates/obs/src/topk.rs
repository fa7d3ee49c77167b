//! Space-Saving top-k heavy-hitter tracking in O(k) memory.
//!
//! At metro scale (10⁵–10⁶ simulated users) "which places are hottest"
//! and "which scripts burn the most instructions" cannot be answered by
//! per-key counters — the key space is unbounded. [`SpaceSaving`]
//! (Metwally, Agrawal, El Abbadi 2005) keeps exactly `k` slots: a key
//! already tracked accumulates normally; a new key beyond the `k`-th
//! evicts the smallest slot and inherits its count as an over-estimate
//! error bound. The classic guarantees hold:
//!
//! - `count` never under-reports: `count - err <= true <= count`.
//! - Any key whose true weight exceeds `total/k` is guaranteed to be
//!   in the sketch.
//!
//! Determinism contract: offers are processed in call order and every
//! tie (eviction victim, rendered order) breaks on the key's lexical
//! order, so two identically-fed sketches render byte-identical tables
//! regardless of thread count — offers happen on the sequential
//! pipeline paths (message handling, dispatch), never inside worker
//! fan-outs.

use crate::bytes::{get_str, get_u32, get_u64, put_str, put_u32, put_u64};

/// One tracked heavy hitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKEntry {
    /// The tracked key.
    pub key: String,
    /// Estimated total weight (an upper bound on the true weight).
    pub count: u64,
    /// Maximum over-estimate: the evicted count this slot inherited
    /// when the key took it over (0 for keys tracked from the start).
    pub err: u64,
}

impl TopKEntry {
    /// The guaranteed lower bound on the key's true weight.
    pub fn guaranteed(&self) -> u64 {
        self.count - self.err
    }
}

/// The Space-Saving sketch: at most `k` `(key, count, err)` slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSaving {
    k: usize,
    slots: Vec<TopKEntry>,
    total: u64,
}

impl SpaceSaving {
    /// A sketch tracking at most `k` keys (`k` is clamped to ≥ 1).
    pub fn new(k: usize) -> Self {
        let k = k.max(1);
        SpaceSaving { k, slots: Vec::with_capacity(k), total: 0 }
    }

    /// The slot budget.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Keys currently tracked (≤ k — the memory bound).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total weight offered so far (tracked and evicted alike).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Offers `weight` for `key`. O(k) scan — `k` is small by design.
    pub fn offer(&mut self, key: &str, weight: u64) {
        self.total += weight;
        if let Some(slot) = self.slots.iter_mut().find(|s| s.key == key) {
            slot.count += weight;
            return;
        }
        if self.slots.len() < self.k {
            self.slots.push(TopKEntry { key: key.to_string(), count: weight, err: 0 });
            return;
        }
        // Evict the minimum slot; ties break on lexically-smallest key
        // so identical offer streams always evict identically.
        let victim = self
            .slots
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.count.cmp(&b.count).then(a.key.cmp(&b.key)))
            .map(|(i, _)| i)
            .expect("k >= 1 and slots full");
        let slot = &mut self.slots[victim];
        slot.err = slot.count;
        slot.count += weight;
        slot.key.clear();
        slot.key.push_str(key);
    }

    /// The tracked entries, heaviest first (ties on lexical key order) —
    /// the deterministic rendering/export order.
    pub fn entries(&self) -> Vec<&TopKEntry> {
        let mut out: Vec<&TopKEntry> = self.slots.iter().collect();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        out
    }

    /// The estimated count for one key (None when not tracked).
    pub fn count_of(&self, key: &str) -> Option<u64> {
        self.slots.iter().find(|s| s.key == key).map(|s| s.count)
    }

    /// Renders the sketch as a deterministic ASCII table.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("-- {title} (top-{}, total={}) --\n", self.k, self.total);
        let entries = self.entries();
        let kw = entries.iter().map(|e| e.key.len()).max().unwrap_or(0);
        for e in entries {
            out.push_str(&format!("  {:<kw$} ~{} (>= {})\n", e.key, e.count, e.guaranteed()));
        }
        out
    }

    /// Appends this sketch's archive serialization to `out`. Slots are
    /// written in their live (insertion) order so a restored sketch
    /// evicts identically under further offers.
    pub(crate) fn write_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.k as u32);
        put_u64(out, self.total);
        put_u32(out, self.slots.len() as u32);
        for s in &self.slots {
            put_str(out, &s.key);
            put_u64(out, s.count);
            put_u64(out, s.err);
        }
    }

    /// Reads a sketch written by [`SpaceSaving::write_into`], advancing
    /// `pos`. `None` on structural inconsistency (more slots than `k`,
    /// an error bound exceeding its count, or a zero `k`).
    pub(crate) fn read_from(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        let k = get_u32(bytes, pos)? as usize;
        let total = get_u64(bytes, pos)?;
        let n = get_u32(bytes, pos)? as usize;
        if k == 0 || n > k {
            return None;
        }
        let mut slots = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let key = get_str(bytes, pos)?;
            let count = get_u64(bytes, pos)?;
            let err = get_u64(bytes, pos)?;
            if err > count {
                return None;
            }
            slots.push(TopKEntry { key, count, err });
        }
        Some(SpaceSaving { k, slots, total })
    }

    /// The sketch as a self-contained archive blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(&mut out);
        out
    }

    /// Restores a sketch from [`SpaceSaving::to_bytes`] output. `None`
    /// on any structural inconsistency, trailing bytes included.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let s = Self::read_from(bytes, &mut pos)?;
        (pos == bytes.len()).then_some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_exactly_under_capacity() {
        let mut s = SpaceSaving::new(4);
        for (k, w) in [("a", 5), ("b", 3), ("a", 2), ("c", 1)] {
            s.offer(k, w);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.count_of("a"), Some(7));
        assert_eq!(s.count_of("b"), Some(3));
        assert_eq!(s.total(), 11);
        let keys: Vec<&str> = s.entries().iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
        // No evictions happened: every estimate is exact.
        assert!(s.entries().iter().all(|e| e.err == 0));
    }

    #[test]
    fn eviction_keeps_memory_bounded_and_counts_upper_bounds() {
        let mut s = SpaceSaving::new(3);
        // A genuinely heavy key among an adversarial stream of onesies.
        for i in 0..10_000u64 {
            s.offer(&format!("noise{i}"), 1);
            if i % 3 == 0 {
                s.offer("heavy", 2);
            }
        }
        assert!(s.len() <= 3, "memory bound violated: {} slots", s.len());
        // The heavy hitter (true weight 2*3334 > total/k) must be present.
        let heavy = s.count_of("heavy").expect("heavy hitter must survive");
        let true_weight = 2 * 3334;
        assert!(heavy >= true_weight, "count {heavy} under-reports {true_weight}");
        // And every entry's guarantee is consistent.
        for e in s.entries() {
            assert!(e.count >= e.err, "{e:?}");
        }
    }

    #[test]
    fn identical_streams_render_identically() {
        let feed = |s: &mut SpaceSaving| {
            for (k, w) in [("x", 2), ("y", 2), ("z", 2), ("w", 1), ("x", 1)] {
                s.offer(k, w);
            }
        };
        let mut a = SpaceSaving::new(2);
        let mut b = SpaceSaving::new(2);
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b);
        assert_eq!(a.render("t"), b.render("t"));
        // Ties (y vs z at 2) break lexically in both eviction and order.
        assert_eq!(a.render("t"), b.render("t"));
    }

    #[test]
    fn render_is_deterministic_and_labeled() {
        let mut s = SpaceSaving::new(8);
        s.offer("app1", 10);
        s.offer("app2", 4);
        let r = s.render("hot places");
        assert!(r.contains("hot places"), "{r}");
        assert!(r.contains("app1"), "{r}");
        assert_eq!(r, s.render("hot places"));
        let first = r.lines().nth(1).unwrap();
        assert!(first.contains("app1"), "heaviest first: {r}");
    }

    #[test]
    fn bytes_roundtrip_preserves_slots_and_eviction_behavior() {
        let mut s = SpaceSaving::new(2);
        for (k, w) in [("x", 2), ("y", 2), ("z", 3), ("x", 1)] {
            s.offer(k, w);
        }
        let back = SpaceSaving::from_bytes(&s.to_bytes()).expect("roundtrip");
        assert_eq!(back, s);
        assert_eq!(back.render("t"), s.render("t"), "render byte-identical");
        // Further offers evict identically.
        let mut a = s.clone();
        let mut b = back;
        a.offer("fresh", 1);
        b.offer("fresh", 1);
        assert_eq!(a, b);
    }

    #[test]
    fn bytes_reject_garbage() {
        assert!(SpaceSaving::from_bytes(&[]).is_none());
        let mut s = SpaceSaving::new(1);
        s.offer("a", 3);
        let mut bytes = s.to_bytes();
        bytes.push(0);
        assert!(SpaceSaving::from_bytes(&bytes).is_none(), "trailing byte accepted");
        // More slots than k.
        let mut bytes = s.to_bytes();
        bytes[..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(SpaceSaving::from_bytes(&bytes).is_none());
    }

    #[test]
    fn k_is_clamped_to_one() {
        let mut s = SpaceSaving::new(0);
        s.offer("only", 1);
        s.offer("other", 5);
        assert_eq!(s.len(), 1);
        assert_eq!(s.k(), 1);
    }
}

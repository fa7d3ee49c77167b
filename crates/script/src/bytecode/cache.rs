//! The script compilation cache.
//!
//! The sensing server dispatches the *same* script text to every phone
//! in a schedule, so without a cache each phone re-parses, re-analyzes
//! and re-compiles an identical program per dispatch. The cache keys
//! on an FNV fingerprint of the source text and the capability
//! vocabulary (the same collision-safe fingerprint-plus-verify pattern
//! as the server's rank cache), holds `Arc`-shared
//! [`CompiledModule`]s, and evicts least-recently-used
//! entries at a bounded capacity — adversarial many-unique-script
//! loads cannot grow it past its configured size.
//!
//! Static rejections are cached too: a script the analyzer refuses is
//! refused from the cache on every later dispatch without re-running
//! the analyzer.

use std::sync::{Arc, Mutex};

use crate::analysis::{analyze, analyze_block, CapabilitySet, Cost};
use crate::optimize::optimize;
use crate::parser::parse;

use super::compiler::compile;
use super::module::CompiledModule;

/// Default bound on cached entries per cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Fingerprint of the capability vocabulary: the analyzer's verdict
/// depends on which host functions exist, so two phones with different
/// sensor stacks must not share cache entries.
fn caps_fingerprint(caps: &CapabilitySet) -> u64 {
    let mut names: Vec<&str> = caps.names().collect();
    names.sort_unstable();
    let mut h = FNV_OFFSET;
    for n in names {
        h = fnv1a(n.as_bytes(), h);
        h = fnv1a(&[0xff], h); // separator, so ["ab"] != ["a","b"]
    }
    h
}

/// Everything the frontend needs to run a cached script: the compiled
/// module plus the static-analysis evidence that was computed once at
/// compile time.
#[derive(Debug)]
pub struct PreparedScript {
    /// The compiled program: the optimizer's lowering of the source.
    pub module: Arc<CompiledModule>,
    /// The analyzer's cost bound for the *original* source, when
    /// bounded — the figure reported to observability.
    pub static_bound: Option<u64>,
    /// The cost bound of the program as compiled (post-optimizer) —
    /// the sound fuel limit for the VM.
    pub exec_bound: Option<u64>,
    /// Optimizer rewrites applied.
    pub opt_rewrites: u64,
    /// `bound(original) - bound(lowered)` when both are finite.
    pub bound_saved: Option<u64>,
}

/// A cache lookup result: a runnable module or a cached static
/// rejection (the analyzer's findings, joined).
#[derive(Debug, Clone)]
pub enum Prepared {
    /// The script compiled; run it on the VM.
    Ready(Arc<PreparedScript>),
    /// The analyzer rejected the script; the message lists the
    /// error-severity findings.
    Rejected(Arc<str>),
}

/// What one `get_or_prepare` call did, for the caller's metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheOutcome {
    /// Served from cache without compiling.
    pub hit: bool,
    /// A compilation ran (miss on a compilable script).
    pub compiled: bool,
    /// An older entry was evicted to make room.
    pub evicted: bool,
}

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that had to prepare.
    pub misses: u64,
    /// Entries evicted (LRU or fingerprint collision).
    pub evictions: u64,
    /// Compilations performed (misses that reached the compiler).
    pub compiles: u64,
}

struct Slot {
    key: u64,
    /// Full key material, verified on hit: an FNV collision must never
    /// run the wrong program.
    src: String,
    caps_fp: u64,
    prepared: Prepared,
    last_used: u64,
}

struct Inner {
    slots: Vec<Slot>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

/// A shared, thread-safe script compilation cache. Clones are handles
/// to the same cache, so a simulation world hands one handle to every
/// phone and the whole fleet shares compilations.
#[derive(Clone)]
pub struct ScriptCache {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for ScriptCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("script cache poisoned");
        f.debug_struct("ScriptCache")
            .field("len", &inner.slots.len())
            .field("capacity", &inner.capacity)
            .field("stats", &inner.stats)
            .finish()
    }
}

impl Default for ScriptCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ScriptCache {
    /// A cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// A cache bounded to `capacity` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        ScriptCache {
            inner: Arc::new(Mutex::new(Inner {
                slots: Vec::new(),
                capacity: capacity.max(1),
                tick: 0,
                stats: CacheStats::default(),
            })),
        }
    }

    /// Looks up (or analyzes, optimizes and compiles) `src` under the
    /// given capability vocabulary. Preparation runs under the cache
    /// lock, so concurrent phones dispatching the same script compile
    /// it exactly once and the hit/miss counters are deterministic
    /// regardless of thread count.
    pub fn get_or_prepare(&self, src: &str, caps: &CapabilitySet) -> (Prepared, CacheOutcome) {
        let caps_fp = caps_fingerprint(caps);
        let key = fnv1a(&caps_fp.to_le_bytes(), fnv1a(src.as_bytes(), FNV_OFFSET));
        let mut guard = self.inner.lock().expect("script cache poisoned");
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;

        if let Some(idx) = inner.slots.iter().position(|s| s.key == key) {
            let slot = &mut inner.slots[idx];
            if slot.src == src && slot.caps_fp == caps_fp {
                slot.last_used = tick;
                let prepared = slot.prepared.clone();
                inner.stats.hits += 1;
                return (prepared, CacheOutcome { hit: true, ..CacheOutcome::default() });
            }
            // Fingerprint collision: drop the stale entry and fall
            // through to a fresh prepare.
            inner.slots.swap_remove(idx);
            inner.stats.evictions += 1;
        }

        inner.stats.misses += 1;
        let prepared = prepare(src, caps);
        let compiled = matches!(prepared, Prepared::Ready(_));
        if compiled {
            inner.stats.compiles += 1;
        }

        let mut evicted = false;
        if inner.slots.len() >= inner.capacity {
            let lru = inner
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("capacity >= 1, so slots is non-empty here");
            inner.slots.swap_remove(lru);
            inner.stats.evictions += 1;
            evicted = true;
        }
        inner.slots.push(Slot {
            key,
            src: src.to_string(),
            caps_fp,
            prepared: prepared.clone(),
            last_used: tick,
        });
        (prepared, CacheOutcome { hit: false, compiled, evicted })
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("script cache poisoned").stats
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("script cache poisoned").slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.inner.lock().expect("script cache poisoned").slots.clear();
    }
}

/// The compile pipeline: analyze → (reject | parse → optimize →
/// compile), with the static cost bounds captured alongside the module.
fn prepare(src: &str, caps: &CapabilitySet) -> Prepared {
    let verdict = analyze(src, caps);
    if verdict.has_errors() {
        let findings: Vec<String> = verdict.errors().map(ToString::to_string).collect();
        return Prepared::Rejected(Arc::from(findings.join("; ")));
    }
    let static_bound = match verdict.cost {
        Cost::Bounded(n) => Some(n),
        Cost::Unbounded => None,
    };
    let Ok(block) = parse(src) else {
        // Unreachable when `analyze` passed (it parses internally), but
        // a parse failure must stay a rejection, not a panic.
        return Prepared::Rejected(Arc::from("script failed to parse"));
    };
    let (lowered, stats) = optimize(&block);
    let exec_bound = match analyze_block(&lowered, caps, verdict.budget).cost {
        Cost::Bounded(n) => Some(n),
        Cost::Unbounded => None,
    };
    let bound_saved = match (static_bound, exec_bound) {
        (Some(orig), Some(opt)) => Some(orig.saturating_sub(opt)),
        _ => None,
    };
    Prepared::Ready(Arc::new(PreparedScript {
        module: Arc::new(compile(&lowered)),
        static_bound,
        exec_bound,
        opt_rewrites: stats.total() as u64,
        bound_saved,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> CapabilitySet {
        CapabilitySet::standard_sensing()
    }

    #[test]
    fn second_lookup_hits_and_shares_the_module() {
        let cache = ScriptCache::new();
        let (first, o1) = cache.get_or_prepare("return 1 + 1", &caps());
        let (second, o2) = cache.get_or_prepare("return 1 + 1", &caps());
        assert!(!o1.hit && o1.compiled);
        assert!(o2.hit && !o2.compiled);
        let (Prepared::Ready(a), Prepared::Ready(b)) = (&first, &second) else {
            panic!("expected compiles: {first:?} / {second:?}")
        };
        assert!(Arc::ptr_eq(&a.module, &b.module), "hit must share the compiled module");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0, compiles: 1 });
    }

    #[test]
    fn capability_vocabulary_separates_entries() {
        let cache = ScriptCache::new();
        let src = "return 1";
        cache.get_or_prepare(src, &caps());
        let (_, o) = cache.get_or_prepare(src, &CapabilitySet::new());
        assert!(!o.hit, "different capabilities must not share entries");
    }

    #[test]
    fn rejected_scripts_are_cached_rejections() {
        let cache = ScriptCache::new();
        let src = "steal_contacts()";
        let (first, o1) = cache.get_or_prepare(src, &caps());
        let (second, o2) = cache.get_or_prepare(src, &caps());
        assert!(matches!(first, Prepared::Rejected(_)));
        assert!(matches!(second, Prepared::Rejected(_)));
        assert!(!o1.compiled, "rejections never reach the compiler");
        assert!(o2.hit, "rejections are cached too");
        assert_eq!(cache.stats().compiles, 0);
    }

    #[test]
    fn adversarial_unique_scripts_stay_bounded() {
        let cache = ScriptCache::with_capacity(8);
        for i in 0..1_000 {
            cache.get_or_prepare(&format!("return {i}"), &caps());
            assert!(cache.len() <= 8, "cache grew past capacity at {i}");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1_000);
        assert_eq!(stats.evictions, 1_000 - 8);
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache = ScriptCache::with_capacity(2);
        cache.get_or_prepare("return 1", &caps());
        cache.get_or_prepare("return 2", &caps());
        // Touch 1 so 2 becomes the LRU victim.
        cache.get_or_prepare("return 1", &caps());
        cache.get_or_prepare("return 3", &caps());
        let (_, o1) = cache.get_or_prepare("return 1", &caps());
        assert!(o1.hit, "recently used entry survived");
        let (_, o2) = cache.get_or_prepare("return 2", &caps());
        assert!(!o2.hit, "LRU entry was evicted");
    }

    #[test]
    fn bounds_cover_the_executed_program() {
        let cache = ScriptCache::new();
        let src = "local scale = 2 * 3 - 5\nif 1 > 2 then return 0 end\nreturn scale";
        let (Prepared::Ready(p), _) = cache.get_or_prepare(src, &caps()) else { panic!() };
        assert!(p.opt_rewrites > 0, "folds + pruned branch expected");
        let (orig, exec) = (p.static_bound.unwrap(), p.exec_bound.unwrap());
        assert!(exec <= orig, "optimized bound must not exceed the original");
        assert_eq!(p.bound_saved, Some(orig - exec));
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = ScriptCache::new();
        cache.get_or_prepare("return 1", &caps());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }
}

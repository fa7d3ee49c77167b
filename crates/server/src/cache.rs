//! Rank-result caching.
//!
//! A ranking is a pure function of (features table, application
//! registry, category, preference profile): the registry supplies the
//! category's places, their names and the feature list. Between Data
//! Processor passes and registrations neither changes, so repeated
//! `rank` calls with the same profile can be answered from memory. The
//! server tracks a *features epoch*, a counter bumped by every processor
//! pass and every registration, and clears the cache at every bump: the
//! cache only ever holds rankings of the current epoch, so its size is
//! bounded by the distinct requests served since the last bump.
//!
//! A hit is O(1): [`CategoryRanking`] shares its matrix, outcome and
//! place names behind `Arc`s, so the returned copy shares them with the
//! entry and owns only its app-id order.
//!
//! Keys are a fingerprint over the category and the preference
//! *payload* (target kind, target bits, weight bits). The profile's
//! display name is deliberately excluded: "Alice" and "Bob" with the
//! same preferences share one entry. Fingerprint collisions are handled
//! by storing the category and preferences in the entry and comparing
//! on lookup — a colliding key is a miss, never a wrong answer.

use std::collections::HashMap;

use parking_lot::Mutex;
use sor_core::ranking::PreferredValue;
use sor_core::UserPreferences;

use crate::ranker::CategoryRanking;

/// One cached ranking with everything needed to validate a hit.
struct CacheEntry {
    category: String,
    prefs: UserPreferences,
    ranking: CategoryRanking,
}

/// A cache of [`CategoryRanking`]s for one features epoch, safe to use
/// from `&self` contexts (the server's `rank` is a read) and from the
/// parallel `rank_many` fan-out.
#[derive(Default)]
pub struct RankCache {
    entries: Mutex<HashMap<u64, CacheEntry>>,
}

impl std::fmt::Debug for RankCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankCache").field("entries", &self.entries.lock().len()).finish()
    }
}

impl RankCache {
    /// An empty cache.
    pub fn new() -> Self {
        RankCache::default()
    }

    /// The cache key for a request: FNV-1a over the category and each
    /// preference's kind tag, target bits, and weight bits. The profile
    /// name is excluded on purpose (see module docs).
    pub fn fingerprint(category: &str, prefs: &UserPreferences) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        fnv_bytes(&mut h, category.as_bytes());
        for p in &prefs.preferences {
            let (tag, target_bits): (u8, u64) = match p.preferred {
                PreferredValue::Value(v) => (0, v.to_bits()),
                PreferredValue::Largest => (1, 0),
                PreferredValue::Smallest => (2, 0),
            };
            fnv_bytes(&mut h, &[tag]);
            fnv_bytes(&mut h, &target_bits.to_le_bytes());
            fnv_bytes(&mut h, &p.weight.value().to_bits().to_le_bytes());
        }
        h
    }

    /// Returns the cached ranking for `key` if it was computed for
    /// exactly this category and preference payload.
    pub fn lookup(
        &self,
        key: u64,
        category: &str,
        prefs: &UserPreferences,
    ) -> Option<CategoryRanking> {
        let entries = self.entries.lock();
        let e = entries.get(&key)?;
        if e.category == category && e.prefs.preferences == prefs.preferences {
            Some(e.ranking.clone())
        } else {
            None
        }
    }

    /// Stores a freshly computed ranking, replacing any colliding entry
    /// under the same key.
    pub fn store(
        &self,
        key: u64,
        category: &str,
        prefs: &UserPreferences,
        ranking: CategoryRanking,
    ) {
        self.entries.lock().insert(
            key,
            CacheEntry { category: category.to_string(), prefs: prefs.clone(), ranking },
        );
    }

    /// Drops every entry: the features epoch moved on, so none of them
    /// is current any more.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Number of live entries (tests, reports).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_core::ranking::Preference;

    fn prefs(v: f64, level: u8) -> UserPreferences {
        UserPreferences::new("u", vec![Preference::value(v, level)])
    }

    #[test]
    fn fingerprint_ignores_profile_name() {
        let a = UserPreferences::new("alice", vec![Preference::value(70.0, 3)]);
        let b = UserPreferences::new("bob", vec![Preference::value(70.0, 3)]);
        assert_eq!(RankCache::fingerprint("cafe", &a), RankCache::fingerprint("cafe", &b));
    }

    #[test]
    fn fingerprint_separates_payloads() {
        let base = RankCache::fingerprint("cafe", &prefs(70.0, 3));
        assert_ne!(base, RankCache::fingerprint("cafe", &prefs(71.0, 3)));
        assert_ne!(base, RankCache::fingerprint("cafe", &prefs(70.0, 4)));
        assert_ne!(base, RankCache::fingerprint("museum", &prefs(70.0, 3)));
        let largest = UserPreferences::new("u", vec![Preference::largest(3)]);
        let smallest = UserPreferences::new("u", vec![Preference::smallest(3)]);
        assert_ne!(
            RankCache::fingerprint("cafe", &largest),
            RankCache::fingerprint("cafe", &smallest)
        );
    }

    #[test]
    fn stale_epoch_misses() {
        let cache = RankCache::new();
        let p = prefs(70.0, 3);
        let key = RankCache::fingerprint("cafe", &p);
        // A fabricated ranking is fine for cache plumbing tests.
        let matrix = sor_core::ranking::FeatureMatrix::new(
            vec!["a".into()],
            vec![sor_core::ranking::Feature::new("t", "")],
            vec![vec![1.0]],
        )
        .unwrap();
        let outcome = sor_core::ranking::PersonalizableRanker::new().rank(&matrix, &p).unwrap();
        let ranking = CategoryRanking {
            matrix: matrix.into(),
            outcome: outcome.into(),
            order: ["a".to_string()].into(),
            app_order: vec![1],
        };
        cache.store(key, "cafe", &p, ranking);
        assert!(cache.lookup(key, "cafe", &p).is_some());
        assert!(cache.lookup(key, "museum", &p).is_none(), "category checked on hit");
        // An epoch bump clears the cache: the old epoch's entry misses.
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.lookup(key, "cafe", &p).is_none(), "a cleared entry must miss");
    }
}

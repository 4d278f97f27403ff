//! A small recency-tracking map backing the session's bounded caches.
//!
//! Every cache of a [`crate::Compiler`] session is one [`LruMap`]
//! guarded by a mutex: lookups stamp the entry with a monotonic tick,
//! inserts charge an approximate byte weight, and when a
//! [`crate::CacheBudget`] caps the cache, insertion evicts the
//! least-recently-touched entries until the cache fits again. The entry
//! just inserted is exempt from its own eviction pass, so a compile can
//! always complete even under a budget smaller than one artifact.
//!
//! Eviction changes *retention*, never *content*: a re-compile after an
//! eviction recomputes the identical artifact (determinism is keyed by
//! content hashes, not by what happens to still be cached).

use crate::CacheBudget;
use std::collections::HashMap;

struct Entry<V> {
    val: V,
    /// Tick of the last lookup or insertion (larger = more recent).
    last: u64,
    /// Approximate retained bytes charged against the byte budget.
    weight: u64,
}

/// A hash map with per-entry recency and approximate byte accounting.
pub(crate) struct LruMap<V> {
    map: HashMap<u64, Entry<V>>,
    tick: u64,
    bytes: u64,
}

/// What one insertion evicted: `(entries, bytes)`.
pub(crate) type Evicted = (u64, u64);

impl<V> Default for LruMap<V> {
    fn default() -> Self {
        LruMap {
            map: HashMap::new(),
            tick: 0,
            bytes: 0,
        }
    }
}

impl<V> LruMap<V> {
    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.last = tick;
            &e.val
        })
    }

    /// Insert `val` under `key` charging `weight` bytes, then evict
    /// least-recently-used entries (never the one just inserted) until
    /// the cache fits `budget`. Returns how much was evicted.
    pub fn insert(&mut self, key: u64, val: V, weight: u64, budget: &CacheBudget) -> Evicted {
        self.tick += 1;
        if let Some(old) = self.map.insert(
            key,
            Entry {
                val,
                last: self.tick,
                weight,
            },
        ) {
            self.bytes -= old.weight;
        }
        self.bytes += weight;
        let mut evicted = (0, 0);
        while self.over(budget) {
            // O(n) victim scan: session caches hold at most a few
            // thousand entries, and the scan only runs while over budget.
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last)
                .map(|(k, _)| *k);
            let Some(v) = victim else { break };
            let e = self.map.remove(&v).expect("victim came from the map");
            self.bytes -= e.weight;
            evicted.0 += 1;
            evicted.1 += e.weight;
        }
        evicted
    }

    fn over(&self, budget: &CacheBudget) -> bool {
        (budget.max_entries > 0 && self.map.len() > budget.max_entries)
            || (budget.max_bytes > 0 && self.bytes > budget.max_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNBOUNDED: CacheBudget = CacheBudget {
        max_entries: 0,
        max_bytes: 0,
    };

    #[test]
    fn unbounded_never_evicts() {
        let mut m = LruMap::default();
        for k in 0..100u64 {
            assert_eq!(m.insert(k, k, 1 << 20, &UNBOUNDED), (0, 0));
        }
        assert_eq!(m.get(7), Some(&7));
    }

    #[test]
    fn entry_budget_evicts_the_least_recent() {
        let mut m = LruMap::default();
        let b = CacheBudget {
            max_entries: 2,
            max_bytes: 0,
        };
        m.insert(1, "a", 10, &b);
        m.insert(2, "b", 10, &b);
        m.get(1); // 2 is now the least recent
        assert_eq!(m.insert(3, "c", 10, &b), (1, 10));
        assert!(m.get(2).is_none());
        assert_eq!(m.get(1), Some(&"a"));
        assert_eq!(m.get(3), Some(&"c"));
    }

    #[test]
    fn byte_budget_evicts_until_it_fits() {
        let mut m = LruMap::default();
        let b = CacheBudget {
            max_entries: 0,
            max_bytes: 100,
        };
        m.insert(1, (), 40, &b);
        m.insert(2, (), 40, &b);
        // 90 bytes would overflow: both older entries go.
        assert_eq!(m.insert(3, (), 90, &b), (2, 80));
        assert!(m.get(1).is_none() && m.get(2).is_none());
        assert_eq!(m.get(3), Some(&()));
    }

    #[test]
    fn the_inserted_entry_is_never_its_own_victim() {
        let mut m = LruMap::default();
        let b = CacheBudget {
            max_entries: 1,
            max_bytes: 8,
        };
        // Larger than the whole byte budget: everything else is evicted
        // but the entry itself stays, so the cache still serves it.
        m.insert(1, (), 4, &b);
        assert_eq!(m.insert(2, (), 1 << 30, &b), (1, 4));
        assert_eq!(m.get(2), Some(&()));
    }

    #[test]
    fn reinserting_a_key_replaces_its_weight() {
        let mut m = LruMap::default();
        let b = CacheBudget {
            max_entries: 0,
            max_bytes: 100,
        };
        m.insert(1, (), 90, &b);
        m.insert(1, (), 10, &b);
        // 10 + 80 fits: the stale 90-byte charge must be gone.
        assert_eq!(m.insert(2, (), 80, &b), (0, 0));
    }
}

//! Bounded in-memory cache of completed scenario-group results — the
//! server's warmest answer tier.
//!
//! Keys are the [`swan_core::group_key_string`] identity the
//! checkpoint journal uses (stream id, member cores, scale bits, seed,
//! format versions, inventory digest), so a cached result is valid for
//! a request exactly when a journal entry would be — and a format or
//! parameter change misses instead of lying. Values are the group's
//! [`Measurement`]s in group order behind an `Arc`, so a hit hands the
//! same allocation to every concurrent reader.
//!
//! The cache is bounded by *scenario groups* and evicts oldest-inserted
//! first (insertion-order FIFO): every result is bit-reproducible from
//! the tiers below (trace store, fresh execution), so eviction costs
//! re-simulation time, never correctness, and FIFO keeps the
//! bookkeeping O(1) without a recency list the workload doesn't need —
//! campaign queries arrive in bursts over the same plan, not with a
//! long-tailed reuse distance. A result weighs the requested
//! `(implementation, width)` groups it answers: one, or two for an
//! execution group whose Auto members run the Scalar or Neon@128
//! stream, so sharing a stream does not enlarge what a capacity holds.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use swan_core::Measurement;

/// Monotone activity counters of one [`ResultCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results inserted.
    pub inserts: u64,
    /// Results evicted to stay within capacity.
    pub evictions: u64,
}

/// A bounded, thread-safe map from group key strings to completed
/// group results.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    /// Each result with its weight in scenario groups.
    map: HashMap<String, (Arc<Vec<Measurement>>, usize)>,
    order: VecDeque<String>,
    /// Sum of the cached results' weights.
    weight: usize,
    cap: usize,
}

impl ResultCache {
    /// A cache holding results of at most `cap` scenario groups
    /// (minimum 1); the newest result always stays, whatever it weighs.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                weight: 0,
                cap: cap.max(1),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look a group key up, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<Vec<Measurement>>> {
        let inner = self.inner.lock().expect("cache poisoned");
        match inner.map.get(key) {
            Some((ms, _)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(ms.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a completed group's measurements, answering `groups`
    /// scenario groups (at least 1), evicting the oldest-inserted
    /// entries while the cache is over capacity. Re-inserting an
    /// existing key refreshes the value without growing the order book.
    pub fn insert(&self, key: String, measurements: Arc<Vec<Measurement>>, groups: usize) {
        let groups = groups.max(1);
        let mut inner = self.inner.lock().expect("cache poisoned");
        match inner.map.insert(key.clone(), (measurements, groups)) {
            Some((_, old)) => inner.weight -= old,
            None => inner.order.push_back(key),
        }
        inner.weight += groups;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        while inner.weight > inner.cap && inner.map.len() > 1 {
            let oldest = inner.order.pop_front().expect("order tracks map");
            let (_, w) = inner.map.remove(&oldest).expect("order tracks map");
            inner.weight -= w;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of results currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").map.len()
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(n: usize) -> Arc<Vec<Measurement>> {
        let _ = n;
        Arc::new(Vec::new())
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = ResultCache::new(4);
        assert!(cache.get("a").is_none());
        cache.insert("a".into(), value(1), 1);
        assert!(cache.get("a").is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn evicts_oldest_inserted_first() {
        let cache = ResultCache::new(2);
        cache.insert("a".into(), value(1), 1);
        cache.insert("b".into(), value(2), 1);
        cache.insert("c".into(), value(3), 1); // evicts "a"
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order() {
        let cache = ResultCache::new(2);
        cache.insert("a".into(), value(1), 1);
        cache.insert("a".into(), value(1), 1);
        cache.insert("b".into(), value(2), 1);
        cache.insert("c".into(), value(3), 1); // evicts "a" once, cleanly
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some() && cache.get("c").is_some());
    }

    #[test]
    fn capacity_counts_scenario_groups() {
        let cache = ResultCache::new(3);
        cache.insert("a".into(), value(1), 1);
        cache.insert("b".into(), value(2), 2);
        assert_eq!(cache.stats().evictions, 0);
        cache.insert("c".into(), value(3), 2); // 5 > 3: evicts "a", then "b"
        assert!(cache.get("a").is_none() && cache.get("b").is_none());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evictions, 2);
        cache.insert("d".into(), value(4), 5); // over capacity alone: stays
        assert_eq!(cache.len(), 1);
        assert!(cache.get("d").is_some());
    }
}

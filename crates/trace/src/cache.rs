//! Process-wide memoizing cache for synthetic trace libraries.
//!
//! Deriving the §5.1-equivalent corpus (`ActivityModel::generate_library`)
//! walks a Markov chain over every interval of every user-week — a few
//! thousand user-days per library. Sweeps re-run whole simulations with
//! the same trace identity (users, weeks, seed), so before this cache
//! every [`crate::sample_user_days`] call paid the full re-derivation.
//!
//! The cache is shared across `WorkerPool` workers behind a [`Mutex`]
//! and stays deterministic under concurrency by construction: an entry
//! is a pure function of its key, so whichever worker populates it — or
//! whether two workers race past an eviction and re-derive — callers
//! always observe byte-identical samples. Eviction is bounded LRU
//! ([`TRACE_CACHE_CAPACITY`] entries) so long multi-seed sweeps cannot
//! grow the cache without limit.

use std::sync::{Arc, Mutex, OnceLock};

use crate::model::ActivityModel;
use crate::trace::TraceSet;

/// Identity of a synthetic trace library: the exact inputs of
/// [`ActivityModel::generate_library`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceKey {
    /// Number of users in the corpus.
    pub users: usize,
    /// Number of weeks per user.
    pub weeks: usize,
    /// Generation seed.
    pub seed: u64,
}

/// Maximum number of resident libraries (bounded LRU). A paper-scale
/// library (22 users × 17 weeks, 2,618 packed 48-byte user-days) is
/// ~0.12 MiB, so the cache tops out around 2 MiB.
pub const TRACE_CACHE_CAPACITY: usize = 16;

/// LRU list, least-recently-used first. A `Vec` keeps iteration order
/// deterministic (oasis-lint forbids hash-ordered iteration) and is
/// plenty at this capacity.
type Entries = Vec<(TraceKey, Arc<TraceSet>)>;

fn cache() -> &'static Mutex<Entries> {
    static CACHE: OnceLock<Mutex<Entries>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Returns the library for `(users, weeks, seed)`, deriving it on the
/// first request and serving every later one from the cache.
///
/// The derivation runs under the cache lock, so concurrent workers
/// requesting the same key wait for one derivation instead of each
/// paying for their own.
pub fn shared_library(users: usize, weeks: usize, seed: u64) -> Arc<TraceSet> {
    let key = TraceKey { users, weeks, seed };
    let mut entries = cache().lock().expect("trace cache poisoned");
    if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
        // Refresh recency: move the hit to the back.
        let entry = entries.remove(pos);
        let set = entry.1.clone();
        entries.push(entry);
        return set;
    }
    let set = Arc::new(ActivityModel::new().generate_library(users, weeks, seed));
    entries.push((key, set.clone()));
    while entries.len() > TRACE_CACHE_CAPACITY {
        entries.remove(0);
    }
    set
}

/// Number of libraries currently resident (test observability).
pub fn trace_cache_len() -> usize {
    cache().lock().expect("trace cache poisoned").len()
}

/// Drops every cached library (test isolation).
pub fn clear_trace_cache() {
    cache().lock().expect("trace cache poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache is process-global and the harness runs tests on many
    /// threads; serialize the tests that assert on its exact contents.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().expect("test lock poisoned")
    }

    #[test]
    fn hit_returns_the_cold_derivation() {
        let _guard = test_lock();
        let cold = ActivityModel::new().generate_library(3, 2, 77);
        let a = shared_library(3, 2, 77);
        let b = shared_library(3, 2, 77);
        assert_eq!(*a, cold);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
    }

    #[test]
    fn capacity_is_bounded() {
        let _guard = test_lock();
        clear_trace_cache();
        for seed in 0..(TRACE_CACHE_CAPACITY as u64 + 9) {
            let _ = shared_library(2, 1, 1_000_000 + seed);
        }
        assert!(trace_cache_len() <= TRACE_CACHE_CAPACITY);
    }

    #[test]
    fn concurrent_pool_access_is_deterministic() {
        let _guard = test_lock();
        clear_trace_cache();
        // Four workers hammer four keys, eight lookups each. Whichever
        // worker wins the derivation race, every caller must observe the
        // cold derivation — and all lookups for one key must share one
        // resident allocation (the cache never forks a key).
        let colds: Vec<TraceSet> =
            (0..4u64).map(|k| ActivityModel::new().generate_library(3, 2, 3_000_000 + k)).collect();
        let pool = oasis_sim::WorkerPool::new(4);
        let lookups: Vec<u64> = (0..32u64).map(|i| i % 4).collect();
        let sets = pool.map(lookups.clone(), |k| shared_library(3, 2, 3_000_000 + k));
        for (&k, set) in lookups.iter().zip(&sets) {
            assert_eq!(**set, colds[k as usize], "worker observed a non-cold derivation");
        }
        for k in 0..4 {
            let per_key: Vec<&Arc<TraceSet>> =
                lookups.iter().zip(&sets).filter(|(&l, _)| l == k).map(|(_, s)| s).collect();
            assert!(
                per_key.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])),
                "key {k}: lookups returned distinct allocations"
            );
        }
        assert_eq!(trace_cache_len(), 4);
    }

    #[test]
    fn lru_keeps_recently_used_entries() {
        let _guard = test_lock();
        clear_trace_cache();
        let first = shared_library(2, 1, 2_000_000);
        for seed in 1..TRACE_CACHE_CAPACITY as u64 {
            let _ = shared_library(2, 1, 2_000_000 + seed);
        }
        // Touch the first entry, then overflow by one: the evictee must
        // be the second-oldest, not the refreshed first.
        let again = shared_library(2, 1, 2_000_000);
        assert!(Arc::ptr_eq(&first, &again));
        let _ = shared_library(2, 1, 2_000_000 + TRACE_CACHE_CAPACITY as u64);
        let third = shared_library(2, 1, 2_000_000);
        assert!(Arc::ptr_eq(&first, &third), "refreshed entry survived the eviction");
    }
}

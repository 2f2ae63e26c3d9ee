//! A keyed pool of parked values: connection warmth tokens per remote node
//! (`rdma_fabric::ConnectionPool`) and warm fork parents per sandbox type and
//! package (`sandbox::WarmPool`). A value is put under a key at a virtual
//! time and taken back oldest first. A put under a key at capacity is
//! rejected, and one idle sweep ages values out in key order, then put
//! order. The lock is a leaf (nothing else is locked under it): no rank.

use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::sync::Mutex;
use crate::{SimDuration, SimTime};

/// Counters exposed by [`KeyedPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes and peeks that found a value.
    pub hits: u64,
    /// Takes and peeks that found none.
    pub misses: u64,
    /// Values admitted into the pool.
    pub returned: u64,
    /// Values refused admission: key at capacity, or refused by the caller.
    pub rejected: u64,
    /// Values dropped by the idle sweep.
    pub evictions: u64,
}

#[derive(Debug)]
struct Inner<K, V> {
    /// Parked values per key in put order, each with the time it was put. A
    /// key keeps its queue once seen, so a put under a known key neither
    /// clones the key nor allocates.
    idle: BTreeMap<K, VecDeque<(SimTime, V)>>,
    per_key: usize,
    stats: PoolStats,
}

/// Values parked under ordered keys, at most a fixed number per key.
/// Cloning is shallow: all clones share one pool.
#[derive(Debug, Clone)]
pub struct KeyedPool<K, V> {
    inner: Arc<Mutex<Inner<K, V>>>,
}

impl<K: Ord, V> KeyedPool<K, V> {
    /// A pool keeping at most `per_key` values per key. Zero disables it:
    /// every put is rejected and every take misses.
    pub fn with_capacity(per_key: usize) -> KeyedPool<K, V> {
        let inner = Inner {
            idle: BTreeMap::new(),
            per_key,
            stats: PoolStats::default(),
        };
        KeyedPool {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Offer a value for `key`, parked at `at`. Only when the key has room
    /// does `make` run (under the pool's lock, so it must not lock anything)
    /// to build the value, and it may still refuse with `None`. Returns the
    /// admission ordinal (values admitted before this one), `None` if
    /// rejected.
    pub fn put<Q>(&self, key: &Q, at: SimTime, make: impl FnOnce() -> Option<V>) -> Option<u64>
    where
        K: Borrow<Q>,
        Q: Ord + ToOwned<Owned = K> + ?Sized,
    {
        let mut inner = self.inner.lock();
        let parked = inner.idle.get(key).map_or(0, VecDeque::len);
        let Some(value) = (parked < inner.per_key).then(make).flatten() else {
            inner.stats.rejected += 1;
            return None;
        };
        match inner.idle.get_mut(key) {
            Some(queue) => queue.push_back((at, value)),
            None => drop(inner.idle.insert(key.to_owned(), [(at, value)].into())),
        }
        inner.stats.returned += 1;
        Some(inner.stats.returned - 1)
    }

    /// Take the oldest value parked under `key`, counting a hit or a miss.
    pub fn take<Q: Ord + ?Sized>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let mut inner = self.inner.lock();
        let taken = inner.idle.get_mut(key).and_then(VecDeque::pop_front);
        inner.stats.hits += u64::from(taken.is_some());
        inner.stats.misses += u64::from(taken.is_none());
        taken.map(|(_, value)| value)
    }

    /// Apply `f` to the oldest value parked under `key`, leaving it parked,
    /// and count a hit or a miss.
    pub fn peek<Q: Ord + ?Sized, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
    {
        let mut inner = self.inner.lock();
        let oldest = inner.idle.get(key).and_then(VecDeque::front);
        let seen = oldest.map(|(_, value)| f(value));
        inner.stats.hits += u64::from(seen.is_some());
        inner.stats.misses += u64::from(seen.is_none());
        seen
    }

    /// Drop the values parked longer than `max_idle` before `now` and return
    /// them in sweep order: keys in map order, put order within a key.
    pub fn evict_idle(&self, now: SimTime, max_idle: SimDuration) -> Vec<V> {
        let mut inner = self.inner.lock();
        let mut evicted = Vec::new();
        for queue in inner.idle.values_mut() {
            let (old, kept): (VecDeque<_>, _) = queue
                .drain(..)
                .partition(|(at, _)| now.saturating_since(*at) > max_idle);
            evicted.extend(old.into_iter().map(|(_, value)| value));
            *queue = kept;
        }
        inner.stats.evictions += evicted.len() as u64;
        evicted
    }

    /// Values parked under `key`.
    pub fn idle_for<Q: Ord + ?Sized>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
    {
        self.inner.lock().idle.get(key).map_or(0, VecDeque::len)
    }

    /// Values parked across all keys.
    #[cfg(test)]
    fn idle_count(&self) -> usize {
        self.inner.lock().idle.values().map(VecDeque::len).sum()
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn capacity_rejects_newest_values() {
        let pool = KeyedPool::with_capacity(2);
        for s in 0..2 {
            assert_eq!(pool.put("k", SimTime::from_secs(s), || Some(s)), Some(s));
        }
        // A full key refuses the value before it is built.
        assert_eq!(pool.put("k", SimTime::ZERO, || panic!("built")), None);
        assert_eq!((pool.stats().returned, pool.stats().rejected), (2, 1));
        assert_eq!(pool.take("k"), Some(0));
        assert_eq!(pool.take("k"), Some(1));
    }

    #[test]
    fn idle_eviction_ages_tokens_out() {
        let pool = KeyedPool::with_capacity(4);
        pool.put("b", SimTime::from_secs(1), || Some("b-old"));
        pool.put("a", SimTime::from_secs(0), || Some("a-old"));
        pool.put("a", SimTime::from_secs(90), || Some("a-new"));
        let evicted = pool.evict_idle(SimTime::from_secs(100), SimDuration::from_secs(60));
        // Keys in order, then oldest first within a key.
        assert_eq!(evicted, ["a-old", "b-old"]);
        assert_eq!((pool.idle_count(), pool.stats().evictions), (1, 2));
        assert_eq!(pool.take("b"), None);
        assert_eq!(pool.take("a"), Some("a-new"));
    }

    #[test]
    fn shared_clones_see_one_pool() {
        let pool = KeyedPool::with_capacity(1);
        pool.clone().put("k", SimTime::ZERO, || Some(()));
        assert_eq!(pool.take("k"), Some(()));
        assert_eq!(pool.stats().hits, 1);
    }

    proptest::proptest! {
        // Under any put/take/peek/evict interleaving: idle = returned -
        // taken - evictions, a rejected value is never parked (the idle
        // count stays, no key exceeds the capacity), and takes and
        // evictions together hand each value out at most once.
        #[test]
        fn prop_keyed_pool_conserves_values(ops: Vec<(u8, u8)>) {
            let pool = KeyedPool::with_capacity(2);
            let (mut taken, mut seen) = (0u64, BTreeSet::new());
            for (t, (op, key)) in (1u64..).zip(ops) {
                let key = key % 3;
                let (idle, rejected) = (pool.idle_count(), pool.stats().rejected);
                let mut out = Vec::new();
                match op % 4 {
                    0 => _ = pool.put(&key, SimTime::from_secs(t), || Some(t)),
                    1 => out.extend(pool.take(&key).inspect(|_| taken += 1)),
                    2 => _ = pool.peek(&key, |v| *v),
                    _ => out = pool.evict_idle(SimTime::from_secs(t), SimDuration::from_secs(5)),
                }
                for v in out {
                    proptest::prop_assert!(seen.insert(v));
                }
                let stats = pool.stats();
                proptest::prop_assert_eq!(
                    pool.idle_count() as u64,
                    stats.returned - taken - stats.evictions
                );
                if stats.rejected > rejected {
                    proptest::prop_assert_eq!(pool.idle_count(), idle);
                }
                proptest::prop_assert!(pool.idle_for(&key) <= 2);
            }
        }

        // Eviction order is deterministic: two pools driven by the same op
        // sequence evict identical sequences, in key order and then oldest
        // first.
        #[test]
        fn prop_keyed_pool_eviction_is_deterministic(ops: Vec<(bool, u8)>) {
            let run = || {
                let pool = KeyedPool::with_capacity(3);
                let mut sweeps = Vec::new();
                for (t, (is_put, key)) in (1u64..).map(|t| 7 * t).zip(&ops) {
                    if *is_put {
                        pool.put(&(key % 3), SimTime::from_secs(t), || Some((key % 3, t)));
                    } else {
                        sweeps.push(pool.evict_idle(SimTime::from_secs(t), SimDuration::from_secs(20)));
                    }
                }
                (sweeps, pool.stats())
            };
            let (sweeps, stats) = run();
            proptest::prop_assert_eq!((&sweeps, stats), (&run().0, run().1));
            for sweep in &sweeps {
                proptest::prop_assert!(sweep.windows(2).all(|pair| pair[0] < pair[1]));
            }
        }

        // Reference model: a per-key token count capped by evicting the
        // oldest token, the connection pool's policy before it moved onto
        // this pool. Tokens are interchangeable, so rejecting the newest
        // instead gives the same hit/miss sequence for any trace.
        #[test]
        fn prop_keyed_pool_matches_evict_oldest_model(capacity in 1usize..5, ops: Vec<(bool, u8)>) {
            let pool = KeyedPool::<String, ()>::with_capacity(capacity);
            let mut model = BTreeMap::<String, usize>::new();
            for (t, (is_release, key)) in (0u64..).zip(ops) {
                let key = format!("exec-{}", key % 3);
                let tokens = model.entry(key.clone()).or_default();
                if is_release {
                    pool.put(key.as_str(), SimTime::from_secs(t), || Some(()));
                    *tokens = (*tokens + 1).min(capacity);
                } else {
                    proptest::prop_assert_eq!(pool.take(key.as_str()).is_some(), *tokens > 0);
                    *tokens = tokens.saturating_sub(1);
                }
            }
        }
    }
}

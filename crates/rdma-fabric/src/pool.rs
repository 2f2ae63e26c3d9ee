//! Connection pooling: warmth tracking for reliable connections.
//!
//! Establishing an RC connection costs the full `connection_setup` budget
//! (QP attribute exchange, path resolution, state-machine ladder). Once a
//! client has talked to a remote once, re-connecting is much cheaper: path
//! records, pinned pages and exchanged attributes survive — the
//! `warm_connection_setup` tier of the NIC profile. The pool tracks that
//! warmth per remote key: returning a connection parks a warmth token, a
//! later lease of the same key redeems it and the connection manager charges
//! the warm tier instead of the full handshake
//! ([`crate::cm::connect_pooled`]).
//!
//! Tokens — not live QPs — are pooled because simulated workers bind fresh
//! per-lease addresses; what survives lease churn is the peer *node* state,
//! which is exactly what the key names.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use sim_core::sync::Mutex;
use sim_core::{SimDuration, SimTime};

/// Counters exposed by [`ConnectionPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Leases satisfied by a parked warmth token (warm re-connect).
    pub hits: u64,
    /// Leases that found no token (full first-contact handshake).
    pub misses: u64,
    /// Tokens dropped by capacity or idle eviction.
    pub evictions: u64,
    /// Tokens returned to the pool.
    pub returned: u64,
}

#[derive(Debug)]
struct PoolInner {
    /// Parked warmth tokens per remote key; each token records when it was
    /// parked so idle eviction can age them out. Ordered map: eviction sweeps
    /// iterate deterministically.
    idle: BTreeMap<String, VecDeque<SimTime>>,
    max_idle_per_key: usize,
    stats: PoolStats,
}

/// A pool of connection-warmth tokens keyed by remote address.
///
/// Cloning is shallow: all clones share the same pool, which is how several
/// sessions of one client process share warmth.
#[derive(Debug, Clone)]
pub struct ConnectionPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl Default for ConnectionPool {
    fn default() -> Self {
        ConnectionPool::new()
    }
}

impl ConnectionPool {
    /// A pool keeping at most 64 idle tokens per remote key.
    pub fn new() -> ConnectionPool {
        ConnectionPool::with_capacity(64)
    }

    /// A pool keeping at most `max_idle_per_key` idle tokens per remote key.
    pub fn with_capacity(max_idle_per_key: usize) -> ConnectionPool {
        ConnectionPool {
            inner: Arc::new(Mutex::new(PoolInner {
                idle: BTreeMap::new(),
                max_idle_per_key: max_idle_per_key.max(1),
                stats: PoolStats::default(),
            })),
        }
    }

    /// Try to redeem a warmth token for `key`. `true` means the caller may
    /// establish the connection at the warm tier; `false` means first
    /// contact, full handshake. Either way a counter records the outcome.
    pub fn lease(&self, key: &str) -> bool {
        let mut inner = self.inner.lock();
        let hit = match inner.idle.get_mut(key) {
            Some(tokens) => tokens.pop_front().is_some(),
            None => false,
        };
        if hit {
            inner.stats.hits += 1;
            if inner.idle.get(key).is_some_and(|t| t.is_empty()) {
                inner.idle.remove(key);
            }
        } else {
            inner.stats.misses += 1;
        }
        hit
    }

    /// Park a warmth token for `key` at `now` (the connection was torn down
    /// but the remote stays warm). Oldest token is evicted past capacity.
    pub fn release(&self, key: &str, now: SimTime) {
        let mut inner = self.inner.lock();
        inner.stats.returned += 1;
        let cap = inner.max_idle_per_key;
        let tokens = inner.idle.entry(key.to_string()).or_default();
        tokens.push_back(now);
        if tokens.len() > cap {
            tokens.pop_front();
            inner.stats.evictions += 1;
        }
    }

    /// Drop tokens parked longer than `max_idle` before `now`; returns how
    /// many were evicted.
    pub fn evict_idle(&self, now: SimTime, max_idle: SimDuration) -> usize {
        let mut inner = self.inner.lock();
        let mut evicted = 0;
        inner.idle.retain(|_, tokens| {
            let before = tokens.len();
            tokens.retain(|parked| now.saturating_since(*parked) <= max_idle);
            evicted += before - tokens.len();
            !tokens.is_empty()
        });
        inner.stats.evictions += evicted as u64;
        evicted
    }

    /// Total idle tokens across all keys.
    pub fn idle_count(&self) -> usize {
        self.inner.lock().idle.values().map(|t| t.len()).sum()
    }

    /// Idle tokens parked for `key`.
    pub fn idle_for(&self, key: &str) -> usize {
        self.inner.lock().idle.get(key).map_or(0, |t| t.len())
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_contact_misses_then_reuse_hits() {
        let pool = ConnectionPool::new();
        assert!(!pool.lease("exec-a"));
        pool.release("exec-a", SimTime::from_secs(1));
        assert!(pool.lease("exec-a"));
        // The token was consumed: a third lease is a miss again.
        assert!(!pool.lease("exec-a"));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.returned), (1, 2, 1));
    }

    #[test]
    fn keys_are_independent() {
        let pool = ConnectionPool::new();
        pool.release("exec-a", SimTime::ZERO);
        assert!(!pool.lease("exec-b"));
        assert!(pool.lease("exec-a"));
        assert_eq!(pool.idle_count(), 0);
    }

    #[test]
    fn capacity_evicts_oldest_tokens() {
        let pool = ConnectionPool::with_capacity(2);
        for s in 0..3 {
            pool.release("k", SimTime::from_secs(s));
        }
        assert_eq!(pool.idle_for("k"), 2);
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn idle_eviction_ages_tokens_out() {
        let pool = ConnectionPool::new();
        pool.release("old", SimTime::from_secs(0));
        pool.release("new", SimTime::from_secs(90));
        let evicted = pool.evict_idle(SimTime::from_secs(100), SimDuration::from_secs(60));
        assert_eq!(evicted, 1);
        assert_eq!(pool.idle_for("old"), 0);
        assert_eq!(pool.idle_for("new"), 1);
        // Evicted warmth means the next contact is a miss again.
        assert!(!pool.lease("old"));
        assert!(pool.lease("new"));
    }

    #[test]
    fn shared_clones_see_one_pool() {
        let pool = ConnectionPool::new();
        let clone = pool.clone();
        pool.release("k", SimTime::ZERO);
        assert!(clone.lease("k"));
        assert_eq!(pool.stats().hits, 1);
    }

    proptest::proptest! {
        // Lease/release conservation: hits never exceed returns, the idle
        // count equals returns minus hits minus evictions, and a lease after
        // a release of the same key (with no interleaved lease) always hits.
        #[test]
        fn prop_pool_lease_return_conserves_tokens(ops: Vec<(bool, u8)>) {
            let pool = ConnectionPool::with_capacity(4);
            let mut t = 0u64;
            for (is_release, key) in ops {
                let key = format!("k{}", key % 3);
                if is_release {
                    t += 1;
                    pool.release(&key, SimTime::from_secs(t));
                } else {
                    pool.lease(&key);
                }
                let stats = pool.stats();
                proptest::prop_assert!(stats.hits <= stats.returned);
                proptest::prop_assert_eq!(
                    pool.idle_count() as u64,
                    stats.returned - stats.hits - stats.evictions
                );
            }
        }

        // A release immediately redeemed is always a hit, for any prior state.
        #[test]
        fn prop_pool_release_then_lease_hits(prior: Vec<u8>, key in 0u8..3) {
            let pool = ConnectionPool::with_capacity(4);
            for (i, k) in prior.iter().enumerate() {
                if i % 2 == 0 {
                    pool.release(&format!("k{}", k % 3), SimTime::from_secs(i as u64));
                } else {
                    pool.lease(&format!("k{}", k % 3));
                }
            }
            let key = format!("k{key}");
            pool.release(&key, SimTime::from_secs(1_000));
            proptest::prop_assert!(pool.lease(&key));
        }
    }
}

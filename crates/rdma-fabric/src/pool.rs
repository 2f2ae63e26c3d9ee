//! Connection pooling: warmth tracking for reliable connections.
//!
//! Establishing an RC connection costs the full `connection_setup` budget;
//! re-connecting to a remote already talked to costs the cheaper
//! `warm_connection_setup` tier (path records, pinned pages and exchanged
//! attributes survive). Returning a connection parks a warmth token for the
//! remote, and a later lease of the same key redeems it so the connection
//! manager charges the warm tier ([`crate::cm::connect_pooled`]). Tokens,
//! not live QPs, are pooled: workers bind fresh per-lease addresses, and
//! what survives lease churn is the peer *node* state the key names.

use sim_core::{KeyedPool, PoolStats, SimTime};

/// Idle warmth tokens kept per remote key.
const TOKENS_PER_KEY: usize = 64;

/// A pool of connection-warmth tokens keyed by remote address: a
/// [`KeyedPool`] holding at most 64 tokens per key, so a token released past
/// that is rejected.
///
/// Cloning is shallow: all clones share the same pool, which is how several
/// sessions of one client process share warmth.
#[derive(Debug, Clone)]
pub struct ConnectionPool {
    tokens: KeyedPool<String, ()>,
}

impl Default for ConnectionPool {
    fn default() -> Self {
        ConnectionPool::new()
    }
}

impl ConnectionPool {
    /// An empty pool.
    pub fn new() -> ConnectionPool {
        ConnectionPool {
            tokens: KeyedPool::with_capacity(TOKENS_PER_KEY),
        }
    }

    /// Try to redeem a warmth token for `key`. `true` means the caller may
    /// establish the connection at the warm tier; `false` means first
    /// contact, full handshake. Either way a counter records the outcome.
    pub fn lease(&self, key: &str) -> bool {
        self.tokens.take(key).is_some()
    }

    /// Park a warmth token for `key` at `now` (the connection was torn down
    /// but the remote stays warm).
    pub fn release(&self, key: &str, now: SimTime) {
        self.tokens.put(key, now, || Some(()));
    }

    /// Idle tokens parked for `key`.
    pub fn idle_for(&self, key: &str) -> usize {
        self.tokens.idle_for(key)
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.tokens.stats()
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
        assert_eq!(pool.idle_for("exec-a"), 0);
    }

    proptest::proptest! {
        // Lease/release conservation: every release is admitted or rejected,
        // hits never exceed admissions, and the idle tokens across keys equal
        // admissions minus hits minus evictions.
        #[test]
        fn prop_pool_lease_return_conserves_tokens(ops: Vec<(bool, u8)>) {
            let pool = ConnectionPool::new();
            let mut releases = 0u64;
            for (t, (is_release, key)) in (0u64..).zip(ops) {
                if is_release {
                    releases += 1;
                    pool.release(&format!("k{}", key % 3), SimTime::from_secs(t));
                } else {
                    pool.lease(&format!("k{}", key % 3));
                }
                let stats = pool.stats();
                let idle: usize = (0..3).map(|k| pool.idle_for(&format!("k{k}"))).sum();
                proptest::prop_assert_eq!(stats.returned + stats.rejected, releases);
                proptest::prop_assert!(stats.hits <= stats.returned);
                proptest::prop_assert_eq!(
                    idle as u64,
                    stats.returned - stats.hits - stats.evictions
                );
            }
        }
    }
}

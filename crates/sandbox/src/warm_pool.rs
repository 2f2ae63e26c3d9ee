//! Warm sandbox pooling: pre-warmed fork parents per sandbox type and package.
//!
//! The pool mirrors the connection plane's warmth pool
//! (`rdma_fabric::ConnectionPool`): tearing an executor down *parks* its
//! paused sandbox together with a [`SandboxSnapshot`] instead of destroying
//! it; a later allocation of the same `(SandboxType, package)` key either
//! *leases* the parked parent back (warm-pool reuse: resume instead of
//! spawn) or *forks* a child from the parent's snapshot, leaving the parent
//! parked so one warm parent can seed many children.
//!
//! Admission is capacity-bounded per key (a parent that would overflow the
//! pool is rejected and torn down normally) and idle parents age out under
//! the same deterministic sweep order as the connection pool: keys in map
//! order, oldest parent first.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use sim_core::sync::{ranks, OrderedMutex};
use sim_core::{SimDuration, SimTime};

use crate::sandbox::{Sandbox, SandboxState, SandboxType};
use crate::snapshot::SandboxSnapshot;

/// Counters exposed by [`WarmPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmPoolStats {
    /// Allocations satisfied from a parked parent (lease or fork source).
    pub hits: u64,
    /// Allocations that found no parent for their key (full cold spawn).
    pub misses: u64,
    /// Parents dropped by the idle-eviction sweep.
    pub evictions: u64,
    /// Parents parked into the pool.
    pub returned: u64,
    /// Parents refused admission (pool disabled or key at capacity).
    pub rejected: u64,
}

/// A paused parent sandbox parked in the pool, ready to be resumed or to
/// serve as a fork source.
#[derive(Debug, Clone)]
pub struct WarmParent {
    id: u64,
    sandbox: Sandbox,
    snapshot: SandboxSnapshot,
    parked_at: SimTime,
}

impl WarmParent {
    /// Pool-unique id, assigned at park time (monotonic: older parents of a
    /// key have smaller ids).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The parked (paused) sandbox.
    pub fn sandbox(&self) -> &Sandbox {
        &self.sandbox
    }

    /// Take ownership of the parked sandbox (warm-pool reuse path).
    pub fn into_sandbox(self) -> Sandbox {
        self.sandbox
    }

    /// The snapshot captured when the parent was parked.
    pub fn snapshot(&self) -> &SandboxSnapshot {
        &self.snapshot
    }

    /// When the parent was parked.
    pub fn parked_at(&self) -> SimTime {
        self.parked_at
    }
}

#[derive(Debug)]
struct WarmPoolInner {
    /// Parked parents per `(SandboxType, package)` key. Ordered map so the
    /// eviction sweep and any diagnostic iteration are deterministic.
    idle: BTreeMap<String, VecDeque<WarmParent>>,
    max_idle_per_key: usize,
    next_id: u64,
    stats: WarmPoolStats,
}

/// A pool of pre-warmed parent sandboxes keyed by sandbox type and package.
///
/// Cloning is shallow: all clones share one pool, which is how an executor's
/// allocator and diagnostics see the same parked parents.
#[derive(Debug, Clone)]
pub struct WarmPool {
    inner: Arc<OrderedMutex<WarmPoolInner>>,
}

impl Default for WarmPool {
    fn default() -> Self {
        WarmPool::disabled()
    }
}

impl WarmPool {
    /// A disabled pool: every park is rejected, every lease is a miss. The
    /// default, so executors opt in to warm pooling explicitly.
    pub fn disabled() -> WarmPool {
        WarmPool::with_capacity(0)
    }

    /// A pool keeping at most `max_idle_per_key` parked parents per
    /// `(SandboxType, package)` key. Zero disables the pool.
    pub fn with_capacity(max_idle_per_key: usize) -> WarmPool {
        WarmPool {
            inner: Arc::new(OrderedMutex::new(
                ranks::WARM_POOL,
                WarmPoolInner {
                    idle: BTreeMap::new(),
                    max_idle_per_key,
                    next_id: 0,
                    stats: WarmPoolStats::default(),
                },
            )),
        }
    }

    /// Pool key of a `(SandboxType, package)` pair.
    pub fn key(sandbox_type: SandboxType, package: &str) -> String {
        format!("{sandbox_type:?}/{package}")
    }

    /// Offer a parent for admission at `now`. The sandbox must be running or
    /// already paused and is parked paused, together with its snapshot.
    /// Returns the parked parent's id, or `None` if admission rejected it
    /// (pool disabled, key at capacity, sandbox not parkable) — the caller
    /// then tears the sandbox down normally.
    pub fn park(&self, mut sandbox: Sandbox, now: SimTime) -> Option<u64> {
        let snapshot = SandboxSnapshot::capture(&sandbox, now);
        let mut inner = self.inner.lock();
        let cap = inner.max_idle_per_key;
        let Some(snapshot) = snapshot else {
            inner.stats.rejected += 1;
            return None;
        };
        if sandbox.state() == SandboxState::Running {
            sandbox.pause();
        }
        if sandbox.state() != SandboxState::Paused {
            inner.stats.rejected += 1;
            return None;
        }
        let key = WarmPool::key(snapshot.sandbox_type(), snapshot.package().name());
        let parked = inner.idle.get(&key).map_or(0, |p| p.len());
        if parked >= cap {
            inner.stats.rejected += 1;
            return None;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.stats.returned += 1;
        inner.idle.entry(key).or_default().push_back(WarmParent {
            id,
            sandbox,
            snapshot,
            parked_at: now,
        });
        Some(id)
    }

    /// Lease the oldest parked parent for the key, removing it from the pool
    /// (warm-pool reuse: the caller resumes the sandbox). A parent can never
    /// be leased twice without being parked again in between.
    pub fn lease(&self, sandbox_type: SandboxType, package: &str) -> Option<WarmParent> {
        let key = WarmPool::key(sandbox_type, package);
        let mut inner = self.inner.lock();
        let leased = match inner.idle.get_mut(&key) {
            Some(parents) => parents.pop_front(),
            None => None,
        };
        if leased.is_some() {
            inner.stats.hits += 1;
            if inner.idle.get(&key).is_some_and(|p| p.is_empty()) {
                inner.idle.remove(&key);
            }
        } else {
            inner.stats.misses += 1;
        }
        leased
    }

    /// Snapshot of the oldest parked parent for the key, *leaving the parent
    /// parked* — the remote-fork path, where one warm parent seeds many
    /// children and pages are read from it on demand.
    pub fn fork_source(&self, sandbox_type: SandboxType, package: &str) -> Option<SandboxSnapshot> {
        let key = WarmPool::key(sandbox_type, package);
        let mut inner = self.inner.lock();
        let snapshot = inner
            .idle
            .get(&key)
            .and_then(|parents| parents.front())
            .map(|parent| parent.snapshot.clone());
        if snapshot.is_some() {
            inner.stats.hits += 1;
        } else {
            inner.stats.misses += 1;
        }
        snapshot
    }

    /// Evict parents parked longer than `max_idle` before `now`. Returns the
    /// evicted ids in deterministic sweep order (keys in map order, oldest
    /// parent first within a key).
    pub fn evict_idle(&self, now: SimTime, max_idle: SimDuration) -> Vec<u64> {
        let mut inner = self.inner.lock();
        let mut evicted = Vec::new();
        inner.idle.retain(|_, parents| {
            parents.retain(|parent| {
                let keep = now.saturating_since(parent.parked_at) <= max_idle;
                if !keep {
                    evicted.push(parent.id);
                }
                keep
            });
            !parents.is_empty()
        });
        inner.stats.evictions += evicted.len() as u64;
        evicted
    }

    /// Total parked parents across all keys.
    pub fn idle_count(&self) -> usize {
        self.inner.lock().idle.values().map(|p| p.len()).sum()
    }

    /// Parked parents for one key.
    pub fn idle_for(&self, sandbox_type: SandboxType, package: &str) -> usize {
        let key = WarmPool::key(sandbox_type, package);
        self.inner.lock().idle.get(&key).map_or(0, |p| p.len())
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> WarmPoolStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{CodePackage, ImageRegistry};

    fn warm_parent(package: &str) -> Sandbox {
        let images = ImageRegistry::new();
        let (mut sb, _) =
            Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 30, &images, "ubuntu:20.04");
        sb.load_package(CodePackage::minimal(package));
        sb
    }

    #[test]
    fn disabled_pool_rejects_and_misses() {
        let pool = WarmPool::disabled();
        assert!(pool.park(warm_parent("echo"), SimTime::ZERO).is_none());
        assert!(pool.lease(SandboxType::BareMetal, "echo").is_none());
        let stats = pool.stats();
        assert_eq!((stats.rejected, stats.misses, stats.returned), (1, 1, 0));
    }

    #[test]
    fn park_then_lease_resumes_the_same_parent() {
        let pool = WarmPool::with_capacity(2);
        let id = pool
            .park(warm_parent("echo"), SimTime::from_secs(1))
            .unwrap();
        let parent = pool.lease(SandboxType::BareMetal, "echo").expect("hit");
        assert_eq!(parent.id(), id);
        assert_eq!(parent.sandbox().state(), SandboxState::Paused);
        let mut sandbox = parent.into_sandbox();
        assert!(sandbox.resume().is_some());
        // The parent left the pool: a second lease misses.
        assert!(pool.lease(SandboxType::BareMetal, "echo").is_none());
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn keys_split_by_type_and_package() {
        let pool = WarmPool::with_capacity(4);
        pool.park(warm_parent("a"), SimTime::ZERO).unwrap();
        assert!(pool.lease(SandboxType::BareMetal, "b").is_none());
        assert!(pool.lease(SandboxType::Docker, "a").is_none());
        assert!(pool.lease(SandboxType::BareMetal, "a").is_some());
    }

    #[test]
    fn admission_rejects_past_capacity() {
        let pool = WarmPool::with_capacity(1);
        assert!(pool.park(warm_parent("echo"), SimTime::ZERO).is_some());
        assert!(pool.park(warm_parent("echo"), SimTime::ZERO).is_none());
        assert_eq!(pool.idle_for(SandboxType::BareMetal, "echo"), 1);
        assert_eq!(pool.stats().rejected, 1);
    }

    #[test]
    fn unparkable_sandboxes_are_rejected() {
        let pool = WarmPool::with_capacity(4);
        let mut dead = warm_parent("echo");
        dead.terminate();
        assert!(pool.park(dead, SimTime::ZERO).is_none());
        // No package loaded: nothing to fork from, reject.
        let images = ImageRegistry::new();
        let (blank, _) =
            Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 30, &images, "ubuntu:20.04");
        assert!(pool.park(blank, SimTime::ZERO).is_none());
        assert_eq!(pool.stats().rejected, 2);
    }

    #[test]
    fn fork_source_leaves_the_parent_parked() {
        let pool = WarmPool::with_capacity(2);
        pool.park(warm_parent("echo"), SimTime::from_secs(1))
            .unwrap();
        let snap_a = pool
            .fork_source(SandboxType::BareMetal, "echo")
            .expect("hit");
        let snap_b = pool
            .fork_source(SandboxType::BareMetal, "echo")
            .expect("hit");
        assert_eq!(snap_a.total_pages(), snap_b.total_pages());
        assert_eq!(pool.idle_count(), 1);
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn idle_eviction_is_oldest_first_in_key_order() {
        let pool = WarmPool::with_capacity(4);
        // Park under two keys with interleaved ages.
        let a_old = pool.park(warm_parent("a"), SimTime::from_secs(0)).unwrap();
        let b_old = pool.park(warm_parent("b"), SimTime::from_secs(1)).unwrap();
        let a_new = pool.park(warm_parent("a"), SimTime::from_secs(90)).unwrap();
        let evicted = pool.evict_idle(SimTime::from_secs(100), SimDuration::from_secs(60));
        // Sweep order: key "BareMetal/a" before "BareMetal/b", oldest first.
        assert_eq!(evicted, vec![a_old, b_old]);
        assert_eq!(pool.idle_count(), 1);
        assert!(pool
            .lease(SandboxType::BareMetal, "a")
            .is_some_and(|p| p.id() == a_new));
    }

    #[test]
    fn shared_clones_see_one_pool() {
        let pool = WarmPool::with_capacity(2);
        let clone = pool.clone();
        pool.park(warm_parent("echo"), SimTime::ZERO).unwrap();
        assert!(clone.lease(SandboxType::BareMetal, "echo").is_some());
        assert_eq!(pool.stats().hits, 1);
    }

    proptest::proptest! {
        // Capacity conservation under lease/park/evict interleavings, and no
        // double-lease: a leased id can never be produced again (parents get
        // a fresh id when re-parked), and the idle count always equals
        // returned - hits-that-removed - evictions.
        #[test]
        fn prop_warm_pool_conserves_parents(ops: Vec<(u8, u8)>) {
            let pool = WarmPool::with_capacity(2);
            let mut leased_ids = std::collections::BTreeSet::new();
            let mut removed_hits = 0u64;
            let mut t = 0u64;
            for (op, key) in ops {
                let package = format!("p{}", key % 3);
                match op % 4 {
                    0 => {
                        t += 1;
                        pool.park(warm_parent(&package), SimTime::from_secs(t));
                    }
                    1 => {
                        if let Some(parent) = pool.lease(SandboxType::BareMetal, &package) {
                            removed_hits += 1;
                            // No double-lease: every leased id is fresh.
                            proptest::prop_assert!(leased_ids.insert(parent.id()));
                        }
                    }
                    2 => {
                        let _ = pool.fork_source(SandboxType::BareMetal, &package);
                    }
                    _ => {
                        t += 1;
                        pool.evict_idle(SimTime::from_secs(t), SimDuration::from_secs(5));
                    }
                }
                let stats = pool.stats();
                proptest::prop_assert_eq!(
                    pool.idle_count() as u64,
                    stats.returned - removed_hits - stats.evictions
                );
                proptest::prop_assert!(pool.idle_count() <= 3 * 2);
            }
        }

        // Deterministic eviction order: two pools driven by the same op
        // sequence evict identical id sequences, sorted by (key, age).
        #[test]
        fn prop_warm_pool_eviction_deterministic(ops: Vec<(bool, u8)>) {
            let run = || {
                let pool = WarmPool::with_capacity(3);
                let mut t = 0u64;
                let mut sweeps = Vec::new();
                for (is_park, key) in &ops {
                    t += 7;
                    let package = format!("p{}", key % 3);
                    if *is_park {
                        pool.park(warm_parent(&package), SimTime::from_secs(t));
                    } else {
                        sweeps.push(pool.evict_idle(
                            SimTime::from_secs(t),
                            SimDuration::from_secs(20),
                        ));
                    }
                }
                (sweeps, pool.stats())
            };
            let (sweeps_a, stats_a) = run();
            let (sweeps_b, stats_b) = run();
            proptest::prop_assert_eq!(&sweeps_a, &sweeps_b);
            proptest::prop_assert_eq!(stats_a, stats_b);
            // No id is ever evicted twice across the whole run.
            let mut seen = std::collections::BTreeSet::new();
            for id in sweeps_a.iter().flatten() {
                proptest::prop_assert!(seen.insert(*id));
            }
        }
    }
}

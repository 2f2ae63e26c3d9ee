//! Warm sandbox pooling: pre-warmed fork parents per sandbox type and package.
//!
//! Tearing an executor down *parks* its paused sandbox with a
//! [`SandboxSnapshot`] instead of destroying it. A later allocation of the
//! same `(SandboxType, package)` key either *leases* the parent back (resume
//! instead of spawn) or *forks* a child from its snapshot, leaving the parent
//! parked to seed more children. The parents live in a [`KeyedPool`], the
//! pool that also holds the connection plane's warmth tokens.

use sim_core::{KeyedPool, PoolStats, SimTime};

use crate::sandbox::{Sandbox, SandboxType};
use crate::snapshot::SandboxSnapshot;

/// A paused parent sandbox parked in the pool, ready to be resumed or to
/// serve as a fork source.
#[derive(Debug, Clone)]
pub struct WarmParent {
    sandbox: Sandbox,
    snapshot: SandboxSnapshot,
}

impl WarmParent {
    /// Take ownership of the parked sandbox (warm-pool reuse path).
    pub fn into_sandbox(self) -> Sandbox {
        self.sandbox
    }
}

/// A pool of pre-warmed parent sandboxes keyed by sandbox type and package.
///
/// Cloning is shallow: all clones share one pool, which is how an executor's
/// allocator and diagnostics see the same parked parents.
#[derive(Debug, Clone)]
pub struct WarmPool {
    parents: KeyedPool<(SandboxType, String), WarmParent>,
}

impl WarmPool {
    /// A pool keeping at most `max_idle_per_key` parked parents per
    /// `(SandboxType, package)` key. Zero disables the pool: every park is
    /// rejected, every lease is a miss.
    pub fn with_capacity(max_idle_per_key: usize) -> WarmPool {
        WarmPool {
            parents: KeyedPool::with_capacity(max_idle_per_key),
        }
    }

    /// Offer a parent for admission at `now`; admission is decided before
    /// the snapshot is captured. The sandbox must be running or paused with
    /// a package loaded, and is parked paused with its snapshot. Returns the
    /// admission ordinal, or `None` if rejected (pool disabled, key at
    /// capacity, sandbox not parkable): the caller then tears it down.
    pub fn park(&self, mut sandbox: Sandbox, now: SimTime) -> Option<u64> {
        let package = sandbox.package().map_or("", |p| p.name());
        let key = (sandbox.sandbox_type(), package.to_owned());
        self.parents.put(&key, now, || {
            let snapshot = SandboxSnapshot::capture(&sandbox, now)?;
            // A capturable sandbox is running or paused: it parks paused.
            sandbox.pause();
            Some(WarmParent { sandbox, snapshot })
        })
    }

    /// Lease the oldest parked parent for the key, removing it from the pool
    /// (warm-pool reuse: the caller resumes the sandbox). A parent can never
    /// be leased twice without being parked again in between.
    pub fn lease(&self, sandbox_type: SandboxType, package: &str) -> Option<WarmParent> {
        self.parents.take(&(sandbox_type, package.to_owned()))
    }

    /// Snapshot of the oldest parked parent for the key, *leaving the parent
    /// parked* — the remote-fork path, where one warm parent seeds many
    /// children and pages are read from it on demand.
    pub fn fork_source(&self, sandbox_type: SandboxType, package: &str) -> Option<SandboxSnapshot> {
        self.parents
            .peek(&(sandbox_type, package.to_owned()), |parent| {
                parent.snapshot.clone()
            })
    }

    /// Parked parents for one key.
    pub fn idle_for(&self, sandbox_type: SandboxType, package: &str) -> usize {
        self.parents.idle_for(&(sandbox_type, package.to_owned()))
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.parents.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{CodePackage, ImageRegistry};
    use crate::sandbox::SandboxState;
    use sim_core::SimDuration;
    use std::collections::BTreeSet;

    fn warm_parent(package: &str) -> Sandbox {
        let images = ImageRegistry::new();
        let (mut sb, _) =
            Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 30, &images, "ubuntu:20.04");
        sb.load_package(CodePackage::minimal(package));
        sb
    }

    #[test]
    fn disabled_pool_rejects_and_misses() {
        let pool = WarmPool::with_capacity(0);
        assert!(pool.park(warm_parent("echo"), SimTime::ZERO).is_none());
        assert!(pool.lease(SandboxType::BareMetal, "echo").is_none());
        let stats = pool.stats();
        assert_eq!((stats.rejected, stats.misses, stats.returned), (1, 1, 0));
    }

    #[test]
    fn park_then_lease_resumes_the_same_parent() {
        let pool = WarmPool::with_capacity(2);
        let mut parent = warm_parent("echo");
        parent.set_workers(3);
        pool.park(parent, SimTime::from_secs(1)).unwrap();
        let leased = pool.lease(SandboxType::BareMetal, "echo").expect("hit");
        let mut sandbox = leased.into_sandbox();
        assert_eq!(sandbox.workers(), 3);
        assert_eq!(sandbox.state(), SandboxState::Paused);
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
        assert_eq!(pool.idle_for(SandboxType::BareMetal, "echo"), 0);
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
        assert_eq!(pool.idle_for(SandboxType::BareMetal, "echo"), 1);
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn idle_eviction_is_oldest_first_in_key_order() {
        let pool = WarmPool::with_capacity(4);
        // Park under two keys with interleaved ages, each parent marked by
        // its worker count.
        let park = |package, mark, secs| {
            let mut parent = warm_parent(package);
            parent.set_workers(mark);
            pool.park(parent, SimTime::from_secs(secs)).unwrap();
        };
        park("b", 1, 1);
        park("a", 2, 0);
        park("a", 3, 90);
        let evicted = pool
            .parents
            .evict_idle(SimTime::from_secs(100), SimDuration::from_secs(60));
        // Sweep order: key (BareMetal, "a") before (BareMetal, "b"), oldest
        // first within a key.
        let marks: Vec<_> = evicted
            .into_iter()
            .map(|parent| parent.into_sandbox().workers())
            .collect();
        assert_eq!(marks, [2, 1]);
        assert_eq!(pool.stats().evictions, 2);
        assert!(pool
            .lease(SandboxType::BareMetal, "a")
            .is_some_and(|parent| parent.into_sandbox().workers() == 3));
        assert!(pool.lease(SandboxType::BareMetal, "b").is_none());
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
        // Capacity conservation under park/lease/fork/evict interleavings,
        // and no double-lease: every parked parent carries a fresh mark (its
        // worker count), no mark is leased or evicted twice, and the idle
        // count always equals returned - leases - evictions.
        #[test]
        fn prop_warm_pool_conserves_parents(ops: Vec<(u8, u8)>) {
            let pool = WarmPool::with_capacity(2);
            let (mut leased, mut seen) = (0u64, BTreeSet::new());
            for (t, (op, key)) in (1u64..).zip(ops) {
                let package = format!("p{}", key % 3);
                let mut out = Vec::new();
                match op % 4 {
                    0 => {
                        let mut parent = warm_parent(&package);
                        parent.set_workers(t as usize);
                        pool.park(parent, SimTime::from_secs(t));
                    }
                    1 => out.extend(
                        pool.lease(SandboxType::BareMetal, &package)
                            .inspect(|_| leased += 1),
                    ),
                    2 => _ = pool.fork_source(SandboxType::BareMetal, &package),
                    _ => {
                        out = pool
                            .parents
                            .evict_idle(SimTime::from_secs(t), SimDuration::from_secs(5))
                    }
                }
                for parent in out {
                    proptest::prop_assert!(seen.insert(parent.into_sandbox().workers()));
                }
                let stats = pool.stats();
                let idle: usize = (0..3)
                    .map(|key| (SandboxType::BareMetal, format!("p{key}")))
                    .map(|key| pool.parents.idle_for(&key))
                    .sum();
                proptest::prop_assert_eq!(idle as u64, stats.returned - leased - stats.evictions);
                proptest::prop_assert!(idle <= 3 * 2);
            }
        }
    }
}

//! The workspace's locks: a non-poisoning [`Mutex`] / [`RwLock`] facade over
//! `std::sync`, and the rank-ordered [`OrderedMutex`] built on it, which
//! checks the workspace's lock order on every acquisition a debug build
//! makes.
//!
//! [`Mutex`] and [`RwLock`] return their guards directly: a panic while a
//! lock is held hands the data to the next locker as it is instead of
//! poisoning the lock. They carry no rank: the fabric, sandbox and
//! workload crates use them for their queues, registries and rings.
//!
//! [`OrderedMutex`] is one shared object's lock with a [`LockRank`]. Under
//! `debug_assertions`, every acquisition is checked against a thread-local
//! stack of held ranks: a thread may only acquire a lock whose rank is
//! strictly greater than every rank it already holds. Because all threads
//! then acquire along the same global order, no cycle — and therefore no
//! deadlock — between `OrderedMutex`es is possible. Release order is
//! unconstrained (hand-over-hand locking is fine). A violation panics naming
//! both locks and every lock the thread holds.
//!
//! The workspace rank table lives in [`ranks`]; DESIGN.md ("Determinism &
//! locking invariants") documents the same table with rationale. Release
//! builds compile the checks out entirely: `OrderedMutex` is then a
//! zero-cost newtype over [`Mutex`].
//!
//! Debug builds also count every successful acquisition — a `Mutex` lock or
//! `try_lock`, an `RwLock` read or write, and so every `OrderedMutex`
//! acquire — per thread, so a test can pin how many locks one operation
//! takes ([`lock_acquisitions`]), and keep the `file:line` each of the
//! latest acquisitions was made at ([`lock_sites`]), so a moved pin names
//! the locks that moved it.

use std::fmt;
use std::panic::Location;
use std::sync::{self as std_sync, MutexGuard, PoisonError, TryLockError};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// How many of a thread's latest acquisition sites a debug build keeps.
#[cfg(debug_assertions)]
const SITES_KEPT: usize = 512;

#[cfg(debug_assertions)]
thread_local! {
    static ACQUISITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Acquisition `n`'s site sits at `n % SITES_KEPT`.
    static SITES: std::cell::RefCell<[Option<&'static Location<'static>>; SITES_KEPT]> =
        const { std::cell::RefCell::new([None; SITES_KEPT]) };
}

#[inline]
#[cfg_attr(debug_assertions, track_caller)]
fn count_acquisition() {
    #[cfg(debug_assertions)]
    {
        let n = ACQUISITIONS.with(|n| n.replace(n.get() + 1));
        let site = Location::caller();
        SITES.with_borrow_mut(|sites| sites[n as usize % SITES_KEPT] = Some(site));
    }
}

/// Lock acquisitions this thread has made so far, or `None` in a release
/// build, which does not count them.
pub fn lock_acquisitions() -> Option<u64> {
    #[cfg(debug_assertions)]
    let counted = Some(ACQUISITIONS.with(std::cell::Cell::get));
    #[cfg(not(debug_assertions))]
    let counted = None;
    counted
}

/// Where this thread's last `last` lock acquisitions were made, oldest
/// first: the callers of the `lock`, `try_lock`, `read` or `write`. At most
/// the latest 512 are kept; `None` in a release build, which does not
/// record them.
///
/// ```
/// use sim_core::sync::{lock_sites, Mutex};
///
/// let counter = Mutex::new(0);
/// *counter.lock() += 1;
/// if let Some(sites) = lock_sites(1) {
///     assert_eq!(sites.len(), 1, "the `lock` call above");
/// }
/// ```
pub fn lock_sites(last: usize) -> Option<Vec<&'static Location<'static>>> {
    #[cfg(debug_assertions)]
    let recorded = {
        let made = ACQUISITIONS.with(std::cell::Cell::get);
        let kept = (last as u64).min(made).min(SITES_KEPT as u64);
        Some(SITES.with_borrow(|sites| {
            (made - kept..made)
                .filter_map(|n| sites[n as usize % SITES_KEPT])
                .collect()
        }))
    };
    #[cfg(not(debug_assertions))]
    let recorded = {
        let _ = last;
        None
    };
    recorded
}

/// A mutual-exclusion lock that does not poison (facade over
/// `std::sync::Mutex`).
#[derive(Debug, Default)]
pub struct Mutex<T>(std_sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std_sync::Mutex::new(value))
    }

    /// Acquire the lock, blocking until it is available.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        count_acquisition();
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the lock if no one holds it.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.0.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        count_acquisition();
        Some(guard)
    }
}

/// A reader-writer lock that does not poison (facade over
/// `std::sync::RwLock`).
#[derive(Debug, Default)]
pub struct RwLock<T>(std_sync::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(std_sync::RwLock::new(value))
    }

    /// Acquire shared read access, blocking until available.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        count_acquisition();
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire exclusive write access, blocking until available.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        count_acquisition();
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A position in the global acquisition order. Lower ranks are acquired
/// first; a thread holding rank `r` may only take locks of rank `> r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockRank {
    pub rank: u16,
    pub name: &'static str,
}

impl LockRank {
    pub(crate) const fn new(rank: u16, name: &'static str) -> LockRank {
        LockRank { rank, name }
    }
}

impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.rank)
    }
}

/// The workspace lock-rank table. One global namespace: a single thread can
/// legitimately cross layers (a client allocation polls the manager's
/// control socket, state bindings reach the state plane), so the order must
/// be total across subsystems, outermost first. The client layer itself
/// (session, reactor, worker connections) runs on one thread and takes no
/// lock. Every nesting of ranked locks must follow this order.
pub mod ranks {
    use super::LockRank;

    // The resource manager, outermost: control socket, executor registry,
    // leases, terminations, billing connections, the next lease id and the
    // round-robin cursor under one lock, ranked below the executor block.
    pub const MANAGER: LockRank = LockRank::new(28, "manager");

    // Executor server. The allocator's one lock covers the free resources,
    // the process table, the next process id, the billing client, the
    // heartbeat slot and the liveness flag.
    pub const EXECUTOR_ALLOCATOR: LockRank = LockRank::new(52, "executor.allocator_state");
    // The one lock of an executor process: its dispatcher owns every worker,
    // the cores, the lease deadline, a forked child's fault state, the
    // process's billing usage and the sandbox. Ranked below the state plane,
    // which a stateful invocation enters mid-turn.
    pub const EXECUTOR_DISPATCHER: LockRank = LockRank::new(55, "executor.dispatcher");

    // State plane: the metadata server's socket, directory and counters
    // (entered while a dispatcher runs a stateful invocation).
    pub const STATE_SERVER: LockRank = LockRank::new(80, "state_plane.server");

    // Leaf lock: never acquires anything itself.
    pub const LIFECYCLE_STATS: LockRank = LockRank::new(96, "lifecycle.stats");
}

/// A rank-order violation: the lock being acquired, the highest-ranked lock
/// held, and every held lock in acquisition order.
#[cfg(any(debug_assertions, test))]
#[derive(Debug, Clone, PartialEq, Eq)]
struct RankViolation {
    held: LockRank,
    acquiring: LockRank,
    chain: Vec<LockRank>,
}

#[cfg(any(debug_assertions, test))]
impl fmt::Display for RankViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let chain: Vec<String> = self.chain.iter().map(LockRank::to_string).collect();
        write!(
            f,
            "lock-order violation: acquiring {} while holding {}; held: [{}] (ranks \
             must be strictly increasing; see sim_core::sync::ranks and DESIGN.md)",
            self.acquiring,
            self.held,
            chain.join(", ")
        )
    }
}

/// One thread's held ranks and the discipline over them: every checked
/// acquisition goes through the calling thread's checker (see `checking`),
/// and the tests drive one on arbitrary sequences.
#[cfg(any(debug_assertions, test))]
#[derive(Debug)]
struct RankChecker {
    held: Vec<(u64, LockRank)>,
    next_id: u64,
}

#[cfg(any(debug_assertions, test))]
impl RankChecker {
    const fn new() -> RankChecker {
        RankChecker {
            held: Vec::new(),
            next_id: 0,
        }
    }

    /// Attempt to acquire `rank`. On success returns a token to pass to
    /// [`RankChecker::release`]; releases may come in any order.
    fn acquire(&mut self, rank: LockRank) -> Result<u64, RankViolation> {
        if let Some(&(_, held)) = self.held.iter().max_by_key(|(_, r)| r.rank) {
            if rank.rank <= held.rank {
                return Err(RankViolation {
                    held,
                    acquiring: rank,
                    chain: self.held.iter().map(|&(_, r)| r).collect(),
                });
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.held.push((id, rank));
        Ok(id)
    }

    /// Release a previously acquired token. Unknown tokens are ignored
    /// (double release is a caller bug but not a safety issue here).
    fn release(&mut self, token: u64) {
        self.held.retain(|(id, _)| *id != token);
    }

    /// Ranks currently held, in acquisition order.
    #[cfg(test)]
    fn held(&self) -> Vec<LockRank> {
        self.held.iter().map(|(_, r)| *r).collect()
    }
}

#[cfg(debug_assertions)]
mod checking {
    use super::{LockRank, RankChecker};
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<RankChecker> = const { RefCell::new(RankChecker::new()) };
    }

    /// Record an acquisition, panicking on a rank-order violation. The
    /// checker is no longer borrowed when it panics: unwinding drops the
    /// guards still held, which release here.
    pub(super) fn on_acquire(rank: LockRank) -> u64 {
        let acquired = HELD.with(|held| held.borrow_mut().acquire(rank));
        acquired.unwrap_or_else(|violation| panic!("{violation}"))
    }

    pub(super) fn on_release(token: u64) {
        HELD.with(|held| held.borrow_mut().release(token));
    }
}

/// A [`Mutex`] with a position in the global lock order: the same `lock` /
/// `try_lock`, plus the rank argument at construction.
pub struct OrderedMutex<T> {
    inner: Mutex<T>,
    rank: LockRank,
}

impl<T> OrderedMutex<T> {
    pub const fn new(rank: LockRank, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            inner: Mutex::new(value),
            rank,
        }
    }

    /// Acquire, enforcing rank order in checked builds.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = checking::on_acquire(self.rank);
        OrderedMutexGuard {
            inner: self.inner.lock(),
            #[cfg(debug_assertions)]
            token,
        }
    }

    /// Non-blocking acquire. A `try_lock` cannot deadlock, but a successful
    /// one still participates in rank tracking (locks acquired under it are
    /// checked against it).
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        #[cfg(debug_assertions)]
        let token = checking::on_acquire(self.rank);
        Some(OrderedMutexGuard {
            inner,
            #[cfg(debug_assertions)]
            token,
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// Guard returned by [`OrderedMutex::lock`]. Dropping releases the lock and
/// pops the rank from the thread's held set (in any order — hand-over-hand
/// release is allowed).
pub struct OrderedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    token: u64,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        checking::on_release(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOW: LockRank = LockRank::new(10, "test.low");
    const MID: LockRank = LockRank::new(20, "test.mid");
    const HIGH: LockRank = LockRank::new(30, "test.high");

    #[test]
    fn increasing_order_is_accepted() {
        let a = OrderedMutex::new(LOW, 1);
        let b = OrderedMutex::new(MID, 2);
        let c = OrderedMutex::new(HIGH, 3);
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.lock();
        assert_eq!(*ga + *gb + *gc, 6);
    }

    #[test]
    fn hand_over_hand_release_is_accepted() {
        let a = OrderedMutex::new(LOW, ());
        let b = OrderedMutex::new(MID, ());
        let c = OrderedMutex::new(HIGH, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release out of LIFO order
        let gc = c.lock();
        drop(gb);
        drop(gc);
        // After full release, LOW is acquirable again.
        let _ga = a.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "lock-order violation: acquiring test.mid(20) while holding \
                    test.high(30); held: [test.low(10), test.high(30)]"
    )]
    fn decreasing_order_panics() {
        let a = OrderedMutex::new(LOW, ());
        let b = OrderedMutex::new(MID, ());
        let c = OrderedMutex::new(HIGH, ());
        let _ga = a.lock();
        let _gc = c.lock();
        let _gb = b.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "lock-order violation: acquiring test.low(10) while holding \
                    test.low(10); held: [test.low(10)]"
    )]
    fn equal_rank_panics() {
        let a = OrderedMutex::new(LOW, ());
        let b = OrderedMutex::new(LOW, ());
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn sequential_reacquisition_is_fine() {
        let a = OrderedMutex::new(MID, 0u32);
        for _ in 0..3 {
            *a.lock() += 1;
        }
        assert_eq!(*a.lock(), 3);
    }

    #[test]
    fn checker_matches_discipline() {
        let mut ck = RankChecker::new();
        let t1 = ck.acquire(LOW).unwrap();
        let t2 = ck.acquire(HIGH).unwrap();
        assert!(ck.acquire(MID).is_err()); // below max held
        ck.release(t2);
        // Still holding LOW; MID is now fine.
        let t3 = ck.acquire(MID).unwrap();
        ck.release(t1);
        ck.release(t3);
        assert!(ck.held().is_empty());
    }

    #[test]
    fn checker_violation_names_both_locks() {
        let mut ck = RankChecker::new();
        ck.acquire(MID).unwrap();
        ck.acquire(HIGH).unwrap();
        let err = ck.acquire(LOW).unwrap_err();
        assert_eq!(err.held, HIGH);
        assert_eq!(err.acquiring, LOW);
        assert_eq!(err.chain, [MID, HIGH]);
        assert!(err.to_string().contains("test.low"));
    }

    // Property suite: the rank discipline over arbitrary interleaved
    // acquire/release sequences. Violations are always caught, conforming
    // sequences are never flagged, and a checker agrees with the real
    // OrderedMutex (which drives its thread's own checker in debug builds)
    // on every conforming schedule.
    proptest::proptest! {
        // A schedule that only ever acquires above its current maximum held
        // rank is conforming by construction and must never be rejected.
        #[test]
        fn prop_conforming_sequences_never_flagged(ops: Vec<u16>) {
            let mut ck = RankChecker::new();
            let mut tokens: Vec<(u64, u16)> = Vec::new();
            for op in ops {
                let release = op % 3 == 0 && !tokens.is_empty();
                if release {
                    let (tok, _) = tokens.remove((op as usize / 3) % tokens.len());
                    ck.release(tok);
                } else {
                    let max_held = tokens.iter().map(|&(_, r)| r).max().unwrap_or(0);
                    if max_held == u16::MAX {
                        continue;
                    }
                    // Next rank strictly above everything held.
                    let rank = max_held.saturating_add(1 + op % 7).max(max_held + 1);
                    let lr = LockRank::new(rank, "prop.lock");
                    let tok = ck.acquire(lr).unwrap_or_else(|v| {
                        panic!("conforming acquisition rejected: {v}")
                    });
                    tokens.push((tok, rank));
                }
            }
        }

        // Acquiring at or below the maximum held rank must always be
        // rejected, regardless of the (conforming) history before it.
        #[test]
        fn prop_violations_always_caught(history: Vec<u16>, offense: u16) {
            let mut ck = RankChecker::new();
            let mut max_held: Option<u16> = None;
            for r in history {
                let next = match max_held {
                    Some(m) if m == u16::MAX => break,
                    Some(m) => m.saturating_add(1).max(m + 1) + r % 5,
                    None => r % 1000,
                };
                ck.acquire(LockRank::new(next, "prop.hist")).unwrap();
                max_held = Some(max_held.map_or(next, |m| m.max(next)));
            }
            if let Some(m) = max_held {
                // Half the cases offend at the held maximum itself (the
                // equal-rank case), the rest anywhere in 0..=m.
                let bad = if offense.is_multiple_of(2) {
                    m
                } else {
                    (u32::from(offense) % (u32::from(m) + 1)) as u16
                };
                let err = ck.acquire(LockRank::new(bad, "prop.bad"));
                proptest::prop_assert!(err.is_err());
            }
        }

        // The pure checker and the real OrderedMutex agree: any schedule
        // the checker accepts runs panic-free against real mutexes, with
        // guards dropped in the same (arbitrary) order.
        #[test]
        fn prop_checker_matches_ordered_mutex(ops: Vec<u16>) {
            let ranks: Vec<LockRank> = (0..8)
                .map(|i| LockRank::new(100 + i * 10, "prop.pair"))
                .collect();
            let mutexes: Vec<OrderedMutex<u32>> =
                ranks.iter().map(|&r| OrderedMutex::new(r, 0)).collect();
            let mut ck = RankChecker::new();
            let mut held: Vec<(u64, usize, OrderedMutexGuard<'_, u32>)> = Vec::new();
            for op in ops {
                if op % 3 == 0 && !held.is_empty() {
                    let at = (op as usize / 3) % held.len();
                    let (tok, _, guard) = held.remove(at);
                    ck.release(tok);
                    drop(guard);
                } else {
                    let idx = (op as usize) % ranks.len();
                    match ck.acquire(ranks[idx]) {
                        Ok(tok) => {
                            // Checker accepted: the mutex must be free (a
                            // second lock on this thread would hang), and
                            // the real mutex must accept too (a panic here
                            // fails the test).
                            proptest::prop_assert!(
                                held.iter().all(|&(_, i, _)| i != idx),
                                "checker accepted {:?}, which is already held",
                                ranks[idx]
                            );
                            let guard = mutexes[idx].lock();
                            held.push((tok, idx, guard));
                        }
                        Err(_) => {
                            // Checker rejected: skip (driving the real
                            // mutex would rightly panic in debug builds).
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = std::sync::Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn rwlock_allows_concurrent_reads() {
        let l = RwLock::new(5);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 10);
    }

    #[test]
    fn try_lock_reports_contention() {
        let m = Mutex::new(1);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}

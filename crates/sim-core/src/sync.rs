//! Rank-ordered locking: the runtime half of the workspace lock-order
//! story (the static half is `simlint`'s `lock_order` rule).
//!
//! [`OrderedMutex`] wraps the workspace `parking_lot` mutex with a
//! [`LockRank`]. Under `debug_assertions` or the `lock-sanitizer` feature,
//! every acquisition is checked against a thread-local stack of held
//! ranks: a thread may only acquire a lock whose rank is strictly greater
//! than every rank it already holds. Because all threads then acquire
//! along the same global order, no cycle — and therefore no deadlock —
//! between `OrderedMutex`es is possible. Release order is unconstrained
//! (hand-over-hand locking is fine).
//!
//! The `lock-sanitizer` feature additionally keeps a process-wide graph of
//! observed acquisition edges so a violation report can show the offending
//! cycle, not just the pair.
//!
//! The workspace rank table lives in [`ranks`]; DESIGN.md ("Determinism &
//! locking invariants") documents the same table with rationale. Release
//! builds without the feature compile the checks out entirely:
//! `OrderedMutex` is then a zero-cost newtype over the parking_lot shim.

use std::fmt;

/// A position in the global acquisition order. Lower ranks are acquired
/// first; a thread holding rank `r` may only take locks of rank `> r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockRank {
    pub rank: u16,
    pub name: &'static str,
}

impl LockRank {
    pub const fn new(rank: u16, name: &'static str) -> LockRank {
        LockRank { rank, name }
    }
}

impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.rank)
    }
}

/// The workspace lock-rank table. One global namespace: a single thread can
/// legitimately cross layers (the manager places onto the warm pool, the
/// executor parks sandboxes, state bindings reach the state plane), so the
/// order must be total across subsystems, outermost first. simlint's
/// `locks` subcommand prints the observed acquisition graph this table is
/// a topological order of.
pub mod ranks {
    use super::LockRank;

    // Client (outermost: user-facing calls start here).
    pub const CLIENT_RECOVERY: LockRank = LockRank::new(10, "client.recovery_lock");
    pub const CLIENT_ACTIVE: LockRank = LockRank::new(12, "client.active");
    pub const CLIENT_SESSION_STATE: LockRank = LockRank::new(16, "client.session_state");
    pub const SESSION_BUFFER_POOL: LockRank = LockRank::new(22, "session.buffer_pool");
    // The manager's control socket is polled during the client's allocation
    // round trip (recovery lock held), and its handler places leases, so it
    // sits between the client block and the manager registry locks.
    pub const MANAGER_CONTROL: LockRank = LockRank::new(28, "manager.control");

    // Invocation reactor.
    pub const REACTOR_TURN: LockRank = LockRank::new(30, "reactor.turn_lock");
    pub const REACTOR_SWEEP: LockRank = LockRank::new(32, "reactor.sweep");
    pub const REACTOR_EVENTS: LockRank = LockRank::new(34, "reactor.events");
    pub const REACTOR_STATE: LockRank = LockRank::new(36, "reactor.state");
    pub const REACTOR_READY: LockRank = LockRank::new(38, "reactor.ready");
    // A worker connection's result stash is filled while the reactor pumps it
    // (turn/sweep/events held) and drained while a ready hint is resolved, so
    // it ranks above the whole reactor block.
    pub const CLIENT_COMPLETED: LockRank = LockRank::new(39, "client.completed");

    // Resource manager.
    pub const MANAGER_LEASES: LockRank = LockRank::new(40, "manager.leases");
    pub const MANAGER_EXECUTORS: LockRank = LockRank::new(42, "manager.executors");
    pub const MANAGER_TERMINATED: LockRank = LockRank::new(44, "manager.terminated_leases");
    pub const MANAGER_BILLING_QPS: LockRank = LockRank::new(46, "manager.billing_qps");

    // Executor server.
    pub const EXECUTOR_HEARTBEAT: LockRank = LockRank::new(48, "executor.heartbeat");
    pub const EXECUTOR_ALLOCATOR: LockRank = LockRank::new(52, "executor.allocator_state");
    pub const EXECUTOR_PROCESS: LockRank = LockRank::new(54, "executor.process");
    // Above the process lock: worker handles hang off a locked process, and
    // callers flip polling modes while holding the process guard.
    pub const EXECUTOR_MODE: LockRank = LockRank::new(55, "executor.mode");
    pub const EXECUTOR_STATE_BINDING: LockRank = LockRank::new(56, "executor.state_binding");
    pub const EXECUTOR_SANDBOX: LockRank = LockRank::new(58, "executor.sandbox");
    pub const EXECUTOR_BILLING: LockRank = LockRank::new(60, "executor.billing");
    pub const EXECUTOR_LAST_USED: LockRank = LockRank::new(62, "executor.last_used");
    pub const EXECUTOR_STATS: LockRank = LockRank::new(64, "executor.stats");
    pub const EXECUTOR_FORK_TRACKER: LockRank = LockRank::new(66, "executor.fork_tracker");
    pub const EXECUTOR_FORK_SERVED: LockRank = LockRank::new(68, "executor.fork_served");

    // Warm sandbox pool (entered from manager placement and executor
    // deallocation, both of which may hold their own locks).
    pub const WARM_POOL: LockRank = LockRank::new(70, "sandbox.warm_pool");

    // State plane (entered while an executor state binding is held). The
    // metadata server always drops its state guard before touching the
    // socket, but ranking the socket above keeps a state->socket nesting
    // legal if a handler ever needs it.
    pub const STATE_SERVER: LockRank = LockRank::new(80, "state_plane.server");
    pub const STATE_SOCKET: LockRank = LockRank::new(82, "state_plane.socket");

    // Leaf locks: billing accumulators are taken while an executor's billing
    // slot is held (rank 60), and never acquire anything themselves.
    pub const BILLING_PENDING: LockRank = LockRank::new(90, "billing.pending");
    pub const BILLING_FLUSHES: LockRank = LockRank::new(92, "billing.flushes");
    pub const BILLING_SLOTS: LockRank = LockRank::new(94, "billing.next_slot");
    pub const LIFECYCLE_STATS: LockRank = LockRank::new(96, "lifecycle.stats");
}

/// A violation detected by the pure checker (and the panic payload the
/// runtime wrapper formats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankViolation {
    pub held: LockRank,
    pub acquiring: LockRank,
}

impl fmt::Display for RankViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lock-order violation: acquiring {} while holding {} (ranks must be \
             strictly increasing; see sim_core::sync::ranks and DESIGN.md)",
            self.acquiring, self.held
        )
    }
}

/// Pure rank-order checker: the model the runtime wrapper drives, exposed
/// so tests (the OrderedMutex proptest suite) can exercise the discipline
/// on arbitrary sequences without touching real mutexes or threads.
#[derive(Debug, Default)]
pub struct RankChecker {
    held: Vec<(u64, LockRank)>,
    next_id: u64,
}

impl RankChecker {
    pub fn new() -> RankChecker {
        RankChecker::default()
    }

    /// Attempt to acquire `rank`. On success returns a token to pass to
    /// [`RankChecker::release`]; releases may come in any order.
    pub fn acquire(&mut self, rank: LockRank) -> Result<u64, RankViolation> {
        if let Some(&(_, held)) = self.held.iter().max_by_key(|(_, r)| r.rank) {
            if rank.rank <= held.rank {
                return Err(RankViolation {
                    held,
                    acquiring: rank,
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
    pub fn release(&mut self, token: u64) {
        self.held.retain(|(id, _)| *id != token);
    }

    /// Ranks currently held, in acquisition order.
    pub fn held(&self) -> Vec<LockRank> {
        self.held.iter().map(|(_, r)| *r).collect()
    }
}

#[cfg(any(debug_assertions, feature = "lock-sanitizer"))]
mod checking {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<(u64, LockRank)>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: RefCell<u64> = const { RefCell::new(0) };
    }

    /// Record an acquisition, panicking on a rank-order violation.
    pub(super) fn on_acquire(rank: LockRank) -> u64 {
        HELD.with(|h| {
            let held = h.borrow();
            if let Some(&(_, top)) = held.iter().max_by_key(|(_, r)| r.rank) {
                if rank.rank <= top.rank {
                    let chain: Vec<String> = held.iter().map(|(_, r)| r.to_string()).collect();
                    drop(held);
                    super::graph::note_edge(top, rank);
                    panic!(
                        "{}{}",
                        super::RankViolation {
                            held: top,
                            acquiring: rank
                        },
                        super::graph::cycle_report(rank)
                            .map(|c| format!("; observed acquisition cycle: {c}"))
                            .unwrap_or_else(|| format!("; held: [{}]", chain.join(", ")))
                    );
                }
            }
            drop(held);
            let id = NEXT_ID.with(|n| {
                let mut n = n.borrow_mut();
                *n += 1;
                *n
            });
            if let Some(&(_, top)) = h.borrow().iter().max_by_key(|(_, r)| r.rank) {
                super::graph::note_edge(top, rank);
            }
            h.borrow_mut().push((id, rank));
            id
        })
    }

    pub(super) fn on_release(token: u64) {
        HELD.with(|h| h.borrow_mut().retain(|(id, _)| *id != token));
    }
}

/// Process-wide acquisition-edge graph, kept only under the sanitizer
/// feature so violation reports can print the full cycle.
#[cfg(feature = "lock-sanitizer")]
mod graph {
    use super::LockRank;
    use std::collections::BTreeMap;
    use std::sync::Mutex as StdMutex;

    static EDGES: StdMutex<Option<BTreeMap<&'static str, Vec<LockRank>>>> = StdMutex::new(None);

    pub(super) fn note_edge(from: LockRank, to: LockRank) {
        let mut g = EDGES.lock().unwrap_or_else(|e| e.into_inner());
        let map = g.get_or_insert_with(BTreeMap::new);
        let succ = map.entry(from.name).or_default();
        if !succ.iter().any(|r| r.name == to.name) {
            succ.push(to);
        }
    }

    /// If the observed edges contain a path from `start` back to `start`,
    /// render it (`a -> b -> a`).
    pub(super) fn cycle_report(start: LockRank) -> Option<String> {
        let g = EDGES.lock().unwrap_or_else(|e| e.into_inner());
        let map = g.as_ref()?;
        // DFS from start looking for a path back to start.
        let mut stack = vec![(start, vec![start])];
        let mut visited: Vec<&'static str> = Vec::new();
        while let Some((node, path)) = stack.pop() {
            for next in map.get(node.name).into_iter().flatten() {
                if next.name == start.name {
                    let mut names: Vec<&str> = path.iter().map(|r| r.name).collect();
                    names.push(start.name);
                    return Some(names.join(" -> "));
                }
                if !visited.contains(&next.name) {
                    visited.push(next.name);
                    let mut p = path.clone();
                    p.push(*next);
                    stack.push((*next, p));
                }
            }
        }
        None
    }
}

#[cfg(all(
    any(debug_assertions, feature = "lock-sanitizer"),
    not(feature = "lock-sanitizer")
))]
mod graph {
    use super::LockRank;
    pub(super) fn note_edge(_from: LockRank, _to: LockRank) {}
    pub(super) fn cycle_report(_start: LockRank) -> Option<String> {
        None
    }
}

/// A mutex with a position in the global lock order.
///
/// API-compatible with the workspace `parking_lot::Mutex` for the
/// operations the tree uses (`lock`, `try_lock`, `get_mut`, `into_inner`),
/// plus the rank argument at construction.
pub struct OrderedMutex<T> {
    inner: parking_lot::Mutex<T>,
    rank: LockRank,
}

impl<T> OrderedMutex<T> {
    pub const fn new(rank: LockRank, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            inner: parking_lot::Mutex::new(value),
            rank,
        }
    }

    /// This lock's rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquire, enforcing rank order in checked builds.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "lock-sanitizer"))]
        let token = checking::on_acquire(self.rank);
        OrderedMutexGuard {
            inner: self.inner.lock(),
            #[cfg(any(debug_assertions, feature = "lock-sanitizer"))]
            token,
        }
    }

    /// Non-blocking acquire. A `try_lock` cannot deadlock, but a successful
    /// one still participates in rank tracking (locks acquired under it are
    /// checked against it).
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        #[cfg(any(debug_assertions, feature = "lock-sanitizer"))]
        let token = checking::on_acquire(self.rank);
        Some(OrderedMutexGuard {
            inner,
            #[cfg(any(debug_assertions, feature = "lock-sanitizer"))]
            token,
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
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
    inner: parking_lot::MutexGuard<'a, T>,
    #[cfg(any(debug_assertions, feature = "lock-sanitizer"))]
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
        #[cfg(any(debug_assertions, feature = "lock-sanitizer"))]
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
    #[should_panic(expected = "lock-order violation")]
    fn decreasing_order_panics() {
        let a = OrderedMutex::new(LOW, ());
        let b = OrderedMutex::new(MID, ());
        let _gb = b.lock();
        let _ga = a.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
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
        let err = ck.acquire(LOW).unwrap_err();
        assert_eq!(err.held, MID);
        assert_eq!(err.acquiring, LOW);
        assert!(err.to_string().contains("test.low"));
    }

    // Property suite: the rank discipline over arbitrary interleaved
    // acquire/release sequences. Violations are always caught, conforming
    // sequences are never flagged, and the pure checker agrees with the
    // real OrderedMutex on every conforming schedule.
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
                let bad = if m == u16::MAX { offense } else { offense % (m + 1) }; // 0..=m
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
            let mut held: Vec<(u64, OrderedMutexGuard<'_, u32>)> = Vec::new();
            for op in ops {
                if op % 3 == 0 && !held.is_empty() {
                    let idx = (op as usize / 3) % held.len();
                    let (tok, guard) = held.remove(idx);
                    ck.release(tok);
                    drop(guard);
                } else {
                    let idx = (op as usize) % ranks.len();
                    match ck.acquire(ranks[idx]) {
                        Ok(tok) => {
                            // Checker accepted: the real mutex must too
                            // (a panic here fails the test).
                            let guard = mutexes[idx].lock();
                            held.push((tok, guard));
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
    fn rank_table_is_strictly_monotonic_in_declaration_order() {
        // The published table must be usable as-is: every constant unique.
        let all = [
            ranks::CLIENT_RECOVERY,
            ranks::CLIENT_ACTIVE,
            ranks::CLIENT_SESSION_STATE,
            ranks::SESSION_BUFFER_POOL,
            ranks::MANAGER_CONTROL,
            ranks::REACTOR_TURN,
            ranks::REACTOR_SWEEP,
            ranks::REACTOR_EVENTS,
            ranks::REACTOR_STATE,
            ranks::REACTOR_READY,
            ranks::CLIENT_COMPLETED,
            ranks::MANAGER_LEASES,
            ranks::MANAGER_EXECUTORS,
            ranks::MANAGER_TERMINATED,
            ranks::MANAGER_BILLING_QPS,
            ranks::EXECUTOR_HEARTBEAT,
            ranks::EXECUTOR_ALLOCATOR,
            ranks::EXECUTOR_PROCESS,
            ranks::EXECUTOR_MODE,
            ranks::EXECUTOR_STATE_BINDING,
            ranks::EXECUTOR_SANDBOX,
            ranks::EXECUTOR_BILLING,
            ranks::EXECUTOR_LAST_USED,
            ranks::EXECUTOR_STATS,
            ranks::EXECUTOR_FORK_TRACKER,
            ranks::EXECUTOR_FORK_SERVED,
            ranks::WARM_POOL,
            ranks::STATE_SERVER,
            ranks::STATE_SOCKET,
            ranks::BILLING_PENDING,
            ranks::BILLING_FLUSHES,
            ranks::BILLING_SLOTS,
            ranks::LIFECYCLE_STATS,
        ];
        for w in all.windows(2) {
            assert!(w[0].rank < w[1].rank, "{} must rank below {}", w[0], w[1]);
        }
    }
}

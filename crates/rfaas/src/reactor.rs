//! The completion-driven reactor: one event loop driving every in-flight
//! invocation of a client thread.
//!
//! Every [`WorkerConnection`](crate::client) registers itself as a
//! `CompletionSource`, and a single [`Reactor::turn`] pumps all sources in
//! **registration order** (keeping virtual-time runs deterministic). Each
//! source lands what it pumps in its own table of in-flight invocations and
//! hands the index of a result a completion set waits on to that set's
//! ready queue, exactly once. One thread calling `turn` in a loop sustains
//! thousands of outstanding invocations across many sessions; hand-rolled
//! futures ([`crate::TypedFuture`], [`crate::CompletionSet`]) resolve off
//! those tables and ready queues instead of rescanning. No external async
//! runtime is involved: the loop is a plain function call, so the offline
//! shims stay sufficient and virtual time stays bit-reproducible.
//!
//! The reactor, its sources and the sessions built on it belong to the one
//! client thread that turns them: their shared state sits in `Rc` /
//! `RefCell` / `Cell`, not behind locks, and none of them is `Send`.

use std::cell::RefCell;
use std::rc::Rc;

/// A drainable producer of invocation completions (a client worker
/// connection). `pump` must drain everything currently queued, landing each
/// result where its owner finds it, and return how many completions it
/// pumped and how many of them it handed to a waiting set's ready queue.
pub(crate) trait CompletionSource {
    fn pump(&self) -> (usize, usize);
    fn is_connected(&self) -> bool;
}

/// Counters exposed for regression tests and introspection: a well-behaved
/// reactor hands each awaited result to its set exactly once and sweeps each
/// source O(1) times per completion, never O(n).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Completed `turn` calls.
    pub turns: u64,
    /// Completions pumped out of sources.
    pub pumped: u64,
    /// Results handed to the ready queue of a waiting completion set.
    pub dispatched: u64,
}

/// Everything a reactor's handles share.
#[derive(Default)]
struct ReactorCore {
    /// Registration order is dispatch order — the determinism contract.
    sources: Vec<Rc<dyn CompletionSource>>,
    stats: ReactorStats,
}

/// Handle to one reactor; cheap to clone, shareable across the sessions of
/// the one client thread that turns it. A reactor never leaves that thread:
/// it is not `Send`.
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// send(rfaas::Reactor::new());
/// ```
#[derive(Clone, Default)]
pub struct Reactor {
    core: Rc<RefCell<ReactorCore>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.core.borrow();
        f.debug_struct("Reactor")
            .field("sources", &core.sources.len())
            .field("stats", &core.stats)
            .finish()
    }
}

impl Reactor {
    /// A fresh reactor with no sources.
    pub fn new() -> Reactor {
        Reactor::default()
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> ReactorStats {
        self.core.borrow().stats
    }

    /// Register a source. Sources are pumped in registration order on every
    /// turn.
    pub(crate) fn register_source(&self, source: Rc<dyn CompletionSource>) {
        self.core.borrow_mut().sources.push(source);
    }

    /// Remove `source`. The invocations still in flight on it stay in its
    /// table: their owners detect the dead connection and run recovery.
    pub(crate) fn unregister_source(&self, source: &dyn CompletionSource) {
        self.core
            .borrow_mut()
            .sources
            .retain(|s| !std::ptr::addr_eq(Rc::as_ptr(s), source));
    }

    /// One sweep of the event loop: pump every source in registration order
    /// and prune sources whose connections are gone (after their final
    /// drain). Returns the number of completions pumped — `0` means no
    /// progress, so the caller may turn the fabric instead.
    pub fn turn(&self) -> usize {
        let mut guard = self.core.borrow_mut();
        let core = &mut *guard;
        let (mut pumped, mut dead) = (0, false);
        for source in &core.sources {
            let (drained, dispatched) = source.pump();
            pumped += drained;
            core.stats.dispatched += dispatched as u64;
            dead |= !source.is_connected();
        }
        if dead {
            // A disconnected source can never produce another completion:
            // it was drained above, so dropping it now loses nothing.
            core.sources.retain(|source| source.is_connected());
        }
        core.stats.pumped += pumped as u64;
        core.stats.turns += 1;
        pumped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Deterministic stand-in for a worker connection: each pump reports
    /// the completions the test queued, and logs the source's name.
    struct MockSource {
        name: u32,
        queued: Cell<(usize, usize)>,
        connected: Cell<bool>,
        log: Rc<RefCell<Vec<u32>>>,
    }

    impl MockSource {
        fn new(name: u32, log: &Rc<RefCell<Vec<u32>>>) -> Rc<MockSource> {
            Rc::new(MockSource {
                name,
                queued: Cell::default(),
                connected: Cell::new(true),
                log: Rc::clone(log),
            })
        }
    }

    impl CompletionSource for MockSource {
        fn pump(&self) -> (usize, usize) {
            self.log.borrow_mut().push(self.name);
            self.queued.take()
        }

        fn is_connected(&self) -> bool {
            self.connected.get()
        }
    }

    #[test]
    fn sources_are_pumped_in_registration_order() {
        let log = Rc::default();
        let reactor = Reactor::new();
        let (first, second) = (MockSource::new(1, &log), MockSource::new(2, &log));
        reactor.register_source(first.clone());
        reactor.register_source(second.clone());
        // Queue the later-registered source first; the sweep must still
        // follow registration order.
        second.queued.set((1, 1));
        first.queued.set((2, 0));
        assert_eq!(reactor.turn(), 3);
        assert_eq!(*log.borrow(), [1, 2]);
        let stats = reactor.stats();
        assert_eq!((stats.turns, stats.pumped, stats.dispatched), (1, 3, 1));

        reactor.unregister_source(&*first);
        assert_eq!(reactor.turn(), 0);
        assert_eq!(*log.borrow(), [1, 2, 2]);
    }

    #[test]
    fn dead_sources_are_pruned_after_their_final_drain() {
        let log = Rc::default();
        let reactor = Reactor::new();
        let source = MockSource::new(9, &log);
        reactor.register_source(source.clone());
        // The completion queued before the disconnect must still be pumped.
        source.queued.set((1, 1));
        source.connected.set(false);
        assert_eq!(reactor.turn(), 1);
        assert_eq!(reactor.stats().dispatched, 1);
        assert_eq!(reactor.core.borrow().sources.len(), 0);
    }
}

//! The completion-driven reactor: one event loop driving every in-flight
//! invocation of a client thread.
//!
//! The pre-reactor client blocked each waiter on its own connection
//! (`wait_for` busy-rescans) and `CompletionSet::wait_any` re-scanned every
//! entry per call, so the sustainable in-flight depth per thread was
//! effectively the worker count. The reactor inverts the control flow: every
//! [`WorkerConnection`](crate::client) registers itself as a
//! `CompletionSource`, and a single [`Reactor::turn`] pumps all sources in
//! **registration order** (keeping virtual-time runs deterministic),
//! stashes results and dispatches registered continuations — each exactly
//! once — to the ready queues of the completion sets waiting on them. One
//! thread calling `turn` in a loop sustains thousands of outstanding
//! invocations across many sessions; hand-rolled futures
//! ([`crate::TypedFuture`], [`crate::CompletionSet`]) resolve off the ready
//! queues instead of rescanning. No external async runtime is involved: the
//! loop is a plain function call, so the offline shims stay sufficient and
//! virtual time stays bit-reproducible.
//!
//! The reactor, its sources and the sessions built on it belong to the one
//! client thread that turns them: their shared state sits in `Rc` /
//! `RefCell` / `Cell`, not behind locks, and none of them is `Send`.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// A drainable producer of invocation completions (a client worker
/// connection). `pump` must drain everything currently queued — stashing the
/// results where the owner finds them — and report each pumped invocation id
/// through `sink`.
pub(crate) trait CompletionSource {
    fn pump(&self, sink: &mut dyn FnMut(u32));
    fn is_connected(&self) -> bool;
}

/// A completion set's ready queue: entry indices in dispatch order.
pub(crate) type ReadyQueue = Rc<RefCell<VecDeque<usize>>>;

/// Where a dispatched completion lands: the ready queue of a completion set,
/// and the entry index to push into it.
pub(crate) struct Continuation {
    pub(crate) ready: ReadyQueue,
    pub(crate) index: usize,
}

/// Counters exposed for regression tests and introspection: a well-behaved
/// reactor dispatches each continuation exactly once and sweeps each source
/// O(1) times per completion, never O(n).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Completed `turn` calls.
    pub turns: u64,
    /// Completions pumped out of sources.
    pub pumped: u64,
    /// Continuations dispatched to ready queues.
    pub dispatched: u64,
}

/// Everything a reactor's handles share.
#[derive(Default)]
struct ReactorCore {
    /// Registration order is dispatch order — the determinism contract.
    sources: Vec<(u64, Rc<dyn CompletionSource>)>,
    continuations: BTreeMap<(u64, u32), Continuation>,
    next_token: u64,
    /// Scratch reused across turns: the steady-state sweep performs no
    /// allocations.
    events: Vec<(u64, u32)>,
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

    /// Register a source; the returned token scopes continuations to it.
    /// Sources are pumped in registration order on every turn.
    pub(crate) fn register_source(&self, source: Rc<dyn CompletionSource>) -> u64 {
        let mut core = self.core.borrow_mut();
        core.next_token += 1;
        let token = core.next_token;
        core.sources.push((token, source));
        token
    }

    /// Remove a source. Continuations registered against it stay put: their
    /// owners detect the dead connection and run recovery.
    pub(crate) fn unregister_source(&self, token: u64) {
        self.core.borrow_mut().sources.retain(|(t, _)| *t != token);
    }

    /// Arm a continuation: when the source registered under `token` reports
    /// `invocation_id`, push `index` onto `ready`. Dispatch is exactly-once —
    /// the continuation is consumed. Arm it before the next turn: a
    /// completion pumped while no continuation exists dispatches nothing.
    pub(crate) fn register_continuation(
        &self,
        token: u64,
        invocation_id: u32,
        ready: &ReadyQueue,
        index: usize,
    ) {
        self.core.borrow_mut().continuations.insert(
            (token, invocation_id),
            Continuation {
                ready: Rc::clone(ready),
                index,
            },
        );
    }

    /// Drop a continuation that will never fire (its completion set is being
    /// abandoned).
    pub(crate) fn cancel_continuation(&self, token: u64, invocation_id: u32) {
        self.core
            .borrow_mut()
            .continuations
            .remove(&(token, invocation_id));
    }

    /// One sweep of the event loop: pump every source in registration order,
    /// dispatch the continuations of everything that completed, and prune
    /// sources whose connections are gone (after their final drain). Returns
    /// the number of completions pumped — `0` means no progress, so the
    /// caller may turn the fabric instead.
    pub fn turn(&self) -> usize {
        let mut guard = self.core.borrow_mut();
        let core = &mut *guard;
        core.events.clear();
        let mut dead = false;
        for (token, source) in &core.sources {
            source.pump(&mut |id| core.events.push((*token, id)));
            dead |= !source.is_connected();
        }
        let progressed = core.events.len();
        // A plain wait arms no continuation: skip the lookups.
        if !core.continuations.is_empty() {
            for (token, id) in core.events.drain(..) {
                if let Some(continuation) = core.continuations.remove(&(token, id)) {
                    continuation
                        .ready
                        .borrow_mut()
                        .push_back(continuation.index);
                    core.stats.dispatched += 1;
                }
            }
        }
        if dead {
            // A disconnected source can never produce another completion:
            // it was drained above, so dropping it now loses nothing.
            core.sources.retain(|(_, source)| source.is_connected());
        }
        core.stats.pumped += progressed as u64;
        core.stats.turns += 1;
        progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Deterministic stand-in for a worker connection: completions are queued
    /// by the test and drained by `pump`.
    struct MockSource {
        queued: RefCell<VecDeque<u32>>,
        connected: Cell<bool>,
    }

    impl MockSource {
        fn new() -> Rc<MockSource> {
            Rc::new(MockSource {
                queued: RefCell::default(),
                connected: Cell::new(true),
            })
        }

        fn push(&self, id: u32) {
            self.queued.borrow_mut().push_back(id);
        }
    }

    impl CompletionSource for MockSource {
        fn pump(&self, sink: &mut dyn FnMut(u32)) {
            while let Some(id) = self.queued.borrow_mut().pop_front() {
                sink(id);
            }
        }

        fn is_connected(&self) -> bool {
            self.connected.get()
        }
    }

    #[test]
    fn turn_dispatches_registered_continuations_once() {
        let reactor = Reactor::new();
        let source = MockSource::new();
        let token = reactor.register_source(source.clone());
        let ready = ReadyQueue::default();
        reactor.register_continuation(token, 7, &ready, 3);
        source.push(7);
        assert_eq!(reactor.turn(), 1);
        assert_eq!(ready.borrow().iter().copied().collect::<Vec<_>>(), vec![3]);
        // The continuation was consumed: replaying the id dispatches nothing.
        source.push(7);
        assert_eq!(reactor.turn(), 1);
        assert_eq!(ready.borrow().len(), 1);
        let stats = reactor.stats();
        assert_eq!(stats.dispatched, 1);
        assert_eq!(stats.pumped, 2);
    }

    #[test]
    fn sources_are_pumped_in_registration_order() {
        let reactor = Reactor::new();
        let first = MockSource::new();
        let second = MockSource::new();
        let t1 = reactor.register_source(first.clone());
        let t2 = reactor.register_source(second.clone());
        let ready = ReadyQueue::default();
        reactor.register_continuation(t2, 1, &ready, 20);
        reactor.register_continuation(t1, 1, &ready, 10);
        // Queue the later-registered source first; dispatch order must still
        // follow registration order.
        second.push(1);
        first.push(1);
        assert_eq!(reactor.turn(), 2);
        assert_eq!(
            ready.borrow().iter().copied().collect::<Vec<_>>(),
            vec![10, 20]
        );
    }

    #[test]
    fn dead_sources_are_pruned_after_their_final_drain() {
        let reactor = Reactor::new();
        let source = MockSource::new();
        let token = reactor.register_source(source.clone());
        let ready = ReadyQueue::default();
        reactor.register_continuation(token, 9, &ready, 0);
        // The completion queued before the disconnect must still dispatch.
        source.push(9);
        source.connected.set(false);
        assert_eq!(reactor.turn(), 1);
        assert_eq!(ready.borrow().len(), 1);
        assert_eq!(reactor.core.borrow().sources.len(), 0);
    }

    proptest::proptest! {
        // No lost and no duplicate dispatches under arbitrary assignments of
        // completions to sources and arbitrary push/turn interleavings.
        #[test]
        fn dispatch_is_exactly_once_under_arbitrary_interleavings(
            assignment: Vec<u8>,
            turn_after: Vec<bool>,
        ) {
            let reactor = Reactor::new();
            let sources: Vec<_> = (0..4).map(|_| MockSource::new()).collect();
            let tokens: Vec<_> = sources
                .iter()
                .map(|s| reactor.register_source(s.clone()))
                .collect();
            let ready = ReadyQueue::default();
            for (index, pick) in assignment.iter().enumerate() {
                reactor.register_continuation(
                    tokens[(*pick % 4) as usize],
                    index as u32,
                    &ready,
                    index,
                );
            }
            // Interleave deliveries with turns as the bool tape dictates.
            for (index, pick) in assignment.iter().enumerate() {
                sources[(*pick % 4) as usize].push(index as u32);
                if turn_after.get(index % turn_after.len().max(1)).copied().unwrap_or(false) {
                    reactor.turn();
                }
            }
            // Final drain: everything still queued dispatches now.
            while reactor.turn() > 0 {}
            let mut seen: Vec<usize> = ready.borrow().iter().copied().collect();
            seen.sort_unstable();
            let expected: Vec<usize> = (0..assignment.len()).collect();
            proptest::prop_assert_eq!(seen, expected);
            proptest::prop_assert_eq!(reactor.stats().dispatched, assignment.len() as u64);
            proptest::prop_assert_eq!(reactor.stats().pumped, assignment.len() as u64);
        }
    }
}

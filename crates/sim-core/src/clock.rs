//! Per-actor virtual clocks.
//!
//! Every independent actor in the simulation (a client thread, an executor
//! worker, a resource manager, an MPI rank) owns a [`VirtualClock`]. Local
//! work advances the clock by a cost-model duration; messages carry the
//! sender's timestamp and the receiver synchronises to
//! `max(local, arrival_time)` — the usual conservative logical-time rule. The
//! clock is internally atomic so that completion handlers running on other OS
//! threads (e.g. the RDMA fabric delivering a completion) can push an actor's
//! clock forward.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::time::{SimDuration, SimTime};

/// A monotonically advancing virtual clock shared by one logical actor.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    /// A clock starting at the simulation epoch.
    pub fn new() -> Self {
        Self::starting_at(SimTime::ZERO)
    }

    /// A clock starting at an arbitrary instant.
    fn starting_at(start: SimTime) -> Self {
        VirtualClock {
            now_ns: AtomicU64::new(start.as_nanos()),
        }
    }

    /// Convenience constructor returning a shareable handle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns.load(Ordering::Acquire))
    }

    /// Advance the clock by `d` (local work) and return the new time.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        if d.is_zero() {
            return self.now();
        }
        let after = self
            .now_ns
            .fetch_add(d.as_nanos(), Ordering::AcqRel)
            .saturating_add(d.as_nanos());
        SimTime::from_nanos(after)
    }

    /// Synchronise to an external event time: the clock never moves backwards,
    /// so the result is `max(now, t)`. Returns the new time.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let target = t.as_nanos();
        let mut current = self.now_ns.load(Ordering::Acquire);
        while current < target {
            match self.now_ns.compare_exchange_weak(
                current,
                target,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return SimTime::from_nanos(target),
                Err(observed) => current = observed,
            }
        }
        SimTime::from_nanos(current)
    }

    /// Synchronise to an event time and then charge additional local work.
    pub fn advance_to_then(&self, t: SimTime, extra: SimDuration) -> SimTime {
        self.advance_to(t);
        self.advance(extra)
    }

    /// Reset to the epoch. Only used by tests and benchmark warm-up.
    pub fn reset(&self) {
        self.now_ns.store(0, Ordering::Release);
    }
}

impl Clone for VirtualClock {
    fn clone(&self) -> Self {
        VirtualClock {
            now_ns: AtomicU64::new(self.now_ns.load(Ordering::Acquire)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn advance_accumulates() {
        let c = VirtualClock::new();
        c.advance(SimDuration::from_micros(3));
        c.advance(SimDuration::from_micros(2));
        assert_eq!(c.now().as_nanos(), 5_000);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = VirtualClock::new();
        c.advance(SimDuration::from_micros(10));
        c.advance_to(SimTime::from_nanos(4_000));
        assert_eq!(c.now().as_nanos(), 10_000);
        c.advance_to(SimTime::from_nanos(25_000));
        assert_eq!(c.now().as_nanos(), 25_000);
    }

    #[test]
    fn advance_to_then_charges_extra() {
        let c = VirtualClock::new();
        let t = c.advance_to_then(SimTime::from_nanos(5_000), SimDuration::from_nanos(300));
        assert_eq!(t.as_nanos(), 5_300);
    }

    #[test]
    fn starting_at_offsets_epoch() {
        let c = VirtualClock::starting_at(SimTime::from_nanos(1_000_000));
        assert_eq!(c.now().as_nanos(), 1_000_000);
    }

    #[test]
    fn concurrent_advance_to_is_monotonic() {
        let c = Arc::new(VirtualClock::new());
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for j in 0..1_000u64 {
                    c.advance_to(SimTime::from_nanos(i * 1_000 + j));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The clock must have reached at least the largest requested target.
        assert!(c.now().as_nanos() >= 7_999);
    }

    #[test]
    fn clone_snapshots_current_time() {
        let c = VirtualClock::new();
        c.advance(SimDuration::from_micros(9));
        let d = c.clone();
        assert_eq!(d.now(), c.now());
        d.advance(SimDuration::from_micros(1));
        assert_ne!(d.now(), c.now());
    }

    #[test]
    fn reset_returns_to_epoch() {
        let c = VirtualClock::new();
        c.advance(SimDuration::from_secs(1));
        c.reset();
        assert_eq!(c.now(), SimTime::ZERO);
    }
}

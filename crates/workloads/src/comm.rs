//! A bulk-synchronous message-passing world with virtual-time accounting.
//!
//! The paper's HPC experiments (Sec. V-G) accelerate MPI applications with
//! rFaaS: every MPI rank offloads half of its work to a leased function.
//! This module provides the message-passing substrate those experiments run
//! on. A [`MpiWorld`] holds one [`VirtualClock`] per rank and runs rank
//! bodies on the calling thread, in rank order; callers drive their ranks in
//! lockstep, every rank finishing one stage before any rank starts the next.
//! A rank's rFaaS session shares the rank's clock, so its offloads, its local
//! work and its barriers charge one timeline.
//! The barrier, the one collective the experiments use, is computed in
//! closed form on the rank clocks, charging the latency of the RDMA fabric
//! (MPI on the evaluation cluster runs over the same 100 Gb/s link).

use std::sync::Arc;

use rdma_fabric::CX5_100G;
use sim_core::{SimDuration, VirtualClock};

/// One-way message latency (same switch as the RDMA fabric).
const LATENCY: SimDuration = CX5_100G.one_way_latency;
/// Per-message software overhead on each side (matching, progress engine).
const OVERHEAD: SimDuration = SimDuration::from_nanos(450);

/// One rank of the world: its index and its virtual clock.
#[derive(Debug)]
pub struct Rank {
    rank: usize,
    clock: Arc<VirtualClock>,
}

impl Rank {
    /// This rank's index in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The rank's virtual clock, to build the rank's session on.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Charge local computation time.
    pub fn compute(&self, work: SimDuration) {
        self.clock.advance(work);
    }
}

/// The MPI world: one clock per rank, rank bodies run in rank order.
#[derive(Debug)]
pub struct MpiWorld {
    ranks: Vec<Rank>,
}

impl MpiWorld {
    /// A world of `size` ranks, every clock at the simulation epoch.
    ///
    /// # Panics
    /// If `size` is 0.
    pub fn new(size: usize) -> MpiWorld {
        assert!(size > 0, "world size must be positive");
        MpiWorld {
            ranks: (0..size)
                .map(|rank| Rank {
                    rank,
                    clock: VirtualClock::shared(),
                })
                .collect(),
        }
    }

    /// Run `body` once per rank, in rank order; element `r` of the result is
    /// rank `r`'s value.
    pub fn each<R>(&self, body: impl FnMut(&Rank) -> R) -> Vec<R> {
        self.ranks.iter().map(body).collect()
    }

    /// Synchronise all ranks; no rank leaves the barrier before every rank
    /// has entered it.
    ///
    /// The flat gather-to-root + release pattern, accurate enough for the
    /// rank counts of the paper's experiments (16–64): every other rank sends
    /// the root an empty message, the root receives them in rank order, then
    /// sends each rank its release in rank order. Each send and each receive
    /// costs the per-message overhead on its rank's clock, each message the
    /// one-way latency on the wire, and a receive waits for its message's
    /// arrival.
    pub fn barrier(&self) {
        let (root, others) = self.ranks.split_first().expect("world is non-empty");
        for rank in others {
            let arrival = rank.clock.advance(OVERHEAD) + LATENCY;
            root.clock.advance_to_then(arrival, OVERHEAD);
        }
        for rank in others {
            let arrival = root.clock.advance(OVERHEAD) + LATENCY;
            rank.clock.advance_to_then(arrival, OVERHEAD);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each rank's clock, in nanoseconds.
    fn clocks(world: &MpiWorld) -> Vec<u64> {
        world.each(|rank| rank.clock().now().as_nanos())
    }

    #[test]
    fn compute_advances_only_local_clock() {
        let world = MpiWorld::new(2);
        world.each(|rank| {
            if rank.rank() == 0 {
                rank.compute(SimDuration::from_millis(5));
            }
        });
        assert_eq!(clocks(&world), [5_000_000, 0]);
    }

    #[test]
    fn barrier_synchronises_clocks() {
        // Rank 2 does 10 ms of work before the barrier; every rank leaves it
        // after that, at the gather/release arithmetic's exact times.
        let world = MpiWorld::new(4);
        world.each(|rank| {
            if rank.rank() == 2 {
                rank.compute(SimDuration::from_millis(10));
            }
        });
        world.barrier();
        assert_eq!(
            clocks(&world),
            [10_004_400, 10_005_650, 10_006_100, 10_006_550]
        );

        // Rank r does 7·r µs of work, then two barriers each charge a round.
        let world = MpiWorld::new(3);
        world.each(|rank| rank.compute(SimDuration::from_micros(7 * rank.rank() as u64)));
        world.barrier();
        world.barrier();
        assert_eq!(clocks(&world), [23_150, 24_850, 25_300]);
    }

    #[test]
    fn barrier_with_a_single_rank_costs_nothing() {
        let world = MpiWorld::new(1);
        world.barrier();
        assert_eq!(clocks(&world), [0]);
    }

    #[test]
    #[should_panic(expected = "world size must be positive")]
    fn zero_rank_world_panics() {
        MpiWorld::new(0);
    }
}

//! The barrier, the one collective the HPC experiments use.
//!
//! Implemented with the flat gather-to-root + release pattern, which is
//! accurate enough for the rank counts of the paper's experiments (16–64) and
//! keeps the virtual-time accounting honest: the barrier synchronises the
//! participating clocks to the latest participant plus the communication
//! cost, which is exactly the bulk-synchronous behaviour the Jacobi benchmark
//! relies on.

use crate::comm::Rank;

const TAG_BARRIER_UP: u32 = 0xB000_0001;
const TAG_BARRIER_DOWN: u32 = 0xB000_0002;

impl Rank {
    /// Synchronise all ranks; no rank leaves the barrier before every rank
    /// has entered it.
    pub fn barrier(&self) {
        if self.size() == 1 {
            return;
        }
        if self.rank() == 0 {
            for source in 1..self.size() {
                let _ = self.recv(source, TAG_BARRIER_UP);
            }
            for dest in 1..self.size() {
                self.send(dest, TAG_BARRIER_DOWN, &[]);
            }
        } else {
            self.send(0, TAG_BARRIER_UP, &[]);
            let _ = self.recv(0, TAG_BARRIER_DOWN);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::MpiWorld;
    use sim_core::{SimDuration, SimTime};

    #[test]
    fn barrier_synchronises_clocks() {
        let world = MpiWorld::new();
        let results = world.run(4, |rank| {
            // Rank 2 does 10 ms of work before the barrier; everyone must
            // observe at least that much time after the barrier.
            if rank.rank() == 2 {
                rank.compute(SimDuration::from_millis(10));
            }
            rank.barrier();
            rank.clock().now()
        });
        for r in &results {
            assert!(
                r.value.as_millis_f64() >= 10.0,
                "rank {} left the barrier at {}",
                r.rank,
                r.value
            );
        }
    }

    #[test]
    fn collectives_work_with_a_single_rank() {
        let world = MpiWorld::new();
        let results = world.run(1, |rank| {
            rank.barrier();
            rank.clock().now()
        });
        assert_eq!(results[0].value, SimTime::ZERO);
    }
}

//! The remote-fork data path: lazy page faults over one-sided RDMA reads.
//!
//! A forked executor starts with an empty address space and a page map
//! pointing at its warm parent. Touching a cold page triggers a fault that
//! the child serves itself with a one-sided READ from the parent node — no
//! parent CPU involvement, exactly like any other one-sided verb on the
//! fabric. Faulting page-at-a-time would pay the full issue + round-trip
//! overhead per page, so the fault handler prefetches a *window* of
//! consecutive pages per fault: one doorbell, chained WQEs, one shared round
//! trip (`NicProfile::fork_read_cost` on [`CX5_100G`]).
//!
//! [`PrefetchPlan`] turns a snapshot's page map into the deterministic
//! schedule of fault batches a child will serve: which pages each batch
//! covers and what it costs on the evaluation NIC. The platform layer
//! charges one batch per early invocation, so a forked child's first
//! invocations pay fault latency and its steady state pays nothing.

use sim_core::SimDuration;

use crate::device::CX5_100G;

/// One batch of the fault schedule: `pages` consecutive pages starting at
/// `start_page`, served by a single chained READ costing `cost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBatch {
    /// First page of the window.
    pub start_page: usize,
    /// Pages fetched by this batch.
    pub pages: usize,
    /// Link cost of the batch on the evaluation NIC.
    pub cost: SimDuration,
}

/// Deterministic prefetch schedule for faulting a snapshot's page map over
/// the evaluation NIC: fixed window size, pages in ascending order.
#[derive(Debug, Clone)]
pub struct PrefetchPlan {
    total_pages: usize,
    window: usize,
    page_bytes: usize,
}

impl PrefetchPlan {
    /// Plan for `total_pages` pages of `page_bytes` each, prefetched
    /// `window` pages at a time. A zero window is clamped to one (a plan
    /// that can never make progress is useless).
    pub fn new(total_pages: usize, window: usize, page_bytes: usize) -> PrefetchPlan {
        PrefetchPlan {
            total_pages,
            window: window.max(1),
            page_bytes,
        }
    }

    /// Pages covered by the plan.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Prefetch window in pages.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Cost of one batch of `pages` pages.
    pub fn batch_cost(&self, pages: usize) -> SimDuration {
        CX5_100G.fork_read_cost(pages, self.page_bytes)
    }

    /// Number of fault batches the child will serve.
    fn batch_count(&self) -> usize {
        self.total_pages.div_ceil(self.window)
    }

    /// The full fault schedule, in the order the child serves it.
    pub(crate) fn batches(&self) -> Vec<FaultBatch> {
        (0..self.batch_count())
            .map(|i| {
                let start_page = i * self.window;
                let pages = self.window.min(self.total_pages - start_page);
                FaultBatch {
                    start_page,
                    pages,
                    cost: self.batch_cost(pages),
                }
            })
            .collect()
    }

    /// Total link cost of faulting the whole map in.
    pub fn total_cost(&self) -> SimDuration {
        self.batches().iter().map(|b| b.cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::PAGE_SIZE;

    #[test]
    fn empty_map_costs_nothing() {
        let plan = PrefetchPlan::new(0, 32, PAGE_SIZE);
        assert_eq!(plan.batch_count(), 0);
        assert!(plan.batches().is_empty());
        assert!(plan.total_cost().is_zero());
        assert!(CX5_100G.fork_read_cost(0, PAGE_SIZE).is_zero());
    }

    #[test]
    fn batching_amortises_the_per_page_overhead() {
        let one_by_one = CX5_100G.fork_read_cost(1, PAGE_SIZE) * 32;
        let batched = CX5_100G.fork_read_cost(32, PAGE_SIZE);
        assert!(
            batched < one_by_one,
            "batched window must beat page-at-a-time faulting"
        );
        // The batch still pays full serialisation for every page: it can
        // never be cheaper than the wire time alone.
        assert!(batched > CX5_100G.serialization(32 * PAGE_SIZE));
    }

    #[test]
    fn schedule_covers_every_page_exactly_once() {
        let plan = PrefetchPlan::new(130, 32, PAGE_SIZE);
        let batches = plan.batches();
        assert_eq!(batches.len(), 5);
        let mut next = 0;
        for batch in &batches {
            assert_eq!(batch.start_page, next);
            next += batch.pages;
        }
        assert_eq!(next, 130);
        // The tail batch is short and cheaper than a full window.
        assert_eq!(batches[4].pages, 2);
        assert!(batches[4].cost < batches[0].cost);
        assert_eq!(
            plan.total_cost(),
            batches.iter().map(|b| b.cost).sum::<SimDuration>()
        );
    }

    #[test]
    fn fault_residue_is_microseconds_on_the_evaluation_nic() {
        // A minimal executor image (130 pages, 32-page windows) must fault in
        // within a handful of invocations' worth of µs — the fork tier's
        // residue, not a second cold start.
        let plan = PrefetchPlan::new(130, 32, PAGE_SIZE);
        let total = plan.total_cost().as_micros_f64();
        assert!(
            (20.0..500.0).contains(&total),
            "full fault-in {total} µs should be µs-scale"
        );
        let batch = plan.batch_cost(32).as_micros_f64();
        assert!(
            batch < 100.0,
            "one window {batch} µs stays well under 100 µs"
        );
    }

    #[test]
    fn zero_window_is_clamped() {
        let plan = PrefetchPlan::new(10, 0, PAGE_SIZE);
        assert_eq!(plan.window(), 1);
        assert_eq!(plan.batch_count(), 10);
    }
}

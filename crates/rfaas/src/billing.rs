//! Billing: the pay-as-you-go accounting of Sec. IV-C.
//!
//! The total cost of a lease is `C = Ca·ta + Cc·tc + Ch·th`, where `ta` is the
//! allocation time weighted by the leased memory, `tc` the active computation
//! time and `th` the hot-polling time. The paper implements the accumulation
//! with RDMA fetch-and-add operations into a global database owned by the
//! resource manager, so that lightweight allocators never need an RPC to
//! report usage — and this module does exactly that over the software fabric:
//! every registered executor owns a 3-word slot in the manager's registered
//! billing region, and its allocator flushes usage with remote atomics.
//!
//! An executor process keeps its usage as a plain [`UsageRecord`] under its
//! dispatcher's lock while it serves; nothing is sent per invocation. When
//! the process is deallocated (by its client or by an expiry reap), the
//! allocator adds the process's allocation time and flushes the record in
//! one chain of at most three fetch-and-adds. When its node fails, the
//! allocator flushes what the process served and no allocation time.

use std::sync::atomic::{AtomicUsize, Ordering};

use rdma_fabric::{
    AccessFlags, Endpoint, MemoryRegion, QueuePair, RemoteMemoryHandle, SendRequest, Sge,
};
use sim_core::SimDuration;

use crate::config::{PRICE_ALLOCATION, PRICE_COMPUTE, PRICE_HOT_POLLING};
use crate::error::Result;

/// Number of 8-byte words per billing slot: allocation, compute, hot-poll.
const WORDS_PER_SLOT: usize = 3;
/// Maximum number of leases the billing database can account simultaneously.
const SLOT_CAPACITY: usize = 4096;

/// Billed usage, of one executor process or summed in a billing slot, in
/// microseconds of virtual time (allocation time is additionally weighted by
/// GiB). Each record is rounded to whole µs as it is added.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UsageRecord {
    /// Allocation time × memory, in GiB·µs.
    pub allocation_gib_us: u64,
    /// Active computation time, in µs.
    pub compute_us: u64,
    /// Hot-polling time, in µs.
    pub hot_poll_us: u64,
}

impl UsageRecord {
    /// Whether the record is empty (nothing to flush).
    pub fn is_empty(&self) -> bool {
        *self == UsageRecord::default()
    }

    /// Add compute time.
    pub(crate) fn add_compute(&mut self, time: SimDuration) {
        self.compute_us += time.as_micros_f64().round() as u64;
    }

    /// Add hot-polling time.
    pub(crate) fn add_hot_poll(&mut self, time: SimDuration) {
        self.hot_poll_us += time.as_micros_f64().round() as u64;
    }

    /// Add allocation time for `memory_mib` of leased memory.
    pub(crate) fn add_allocation(&mut self, time: SimDuration, memory_mib: u64) {
        let gib = memory_mib as f64 / 1024.0;
        self.allocation_gib_us += (time.as_micros_f64() * gib).round() as u64;
    }

    /// Monetary cost of this usage at the calibrated rates.
    pub(crate) fn cost(&self) -> f64 {
        let seconds = 1.0e-6;
        PRICE_ALLOCATION * (self.allocation_gib_us as f64 * seconds)
            + PRICE_COMPUTE * (self.compute_us as f64 * seconds)
            + PRICE_HOT_POLLING * (self.hot_poll_us as f64 * seconds)
    }
}

/// The manager-side billing database: a registered memory region of
/// per-lease counters updated by remote atomics, so reads never race with
/// executor updates.
#[derive(Debug)]
pub struct BillingDatabase {
    region: MemoryRegion,
    next_slot: AtomicUsize,
}

impl BillingDatabase {
    /// Create the database inside the manager's protection domain.
    pub(crate) fn new(manager_endpoint: &Endpoint) -> BillingDatabase {
        let region = manager_endpoint
            .pd
            .register(SLOT_CAPACITY * WORDS_PER_SLOT * 8, AccessFlags::REMOTE_ALL);
        BillingDatabase {
            region,
            next_slot: AtomicUsize::new(0),
        }
    }

    /// Reserve a slot for a new lease. Slots are recycled only when the
    /// database wraps, which is fine for the simulated horizons.
    pub(crate) fn reserve_slot(&self) -> usize {
        self.next_slot.fetch_add(1, Ordering::Relaxed) % SLOT_CAPACITY
    }

    /// Remote handle an executor needs to update `slot` with atomics.
    pub(crate) fn slot_handle(&self, slot: usize) -> RemoteMemoryHandle {
        self.region
            .remote_handle_range(slot * WORDS_PER_SLOT * 8, WORDS_PER_SLOT * 8)
            .expect("billing slot within region")
    }

    /// Read the accumulated usage of a slot.
    pub(crate) fn read_slot(&self, slot: usize) -> UsageRecord {
        let base = slot * WORDS_PER_SLOT * 8;
        UsageRecord {
            allocation_gib_us: self.region.read_u64(base).expect("slot in range"),
            compute_us: self.region.read_u64(base + 8).expect("slot in range"),
            hot_poll_us: self.region.read_u64(base + 16).expect("slot in range"),
        }
    }

    /// Total cost accumulated across the slots reserved so far (all of them
    /// once the database wrapped). The sum starts at `+0.0`, so an empty
    /// database totals `+0.0`, as a sum over unused, zeroed slots did.
    pub(crate) fn total_cost(&self) -> f64 {
        let reserved = self.next_slot.load(Ordering::Relaxed).min(SLOT_CAPACITY);
        (0..reserved)
            .map(|slot| self.read_slot(slot).cost())
            .fold(0.0, |total, cost| total + cost)
    }
}

/// The allocator's side of its billing connection: flushes the usage of an
/// executor process that ended into the manager's database with RDMA
/// fetch-and-add. It keeps no usage of its own — each process's dispatcher
/// accumulates it — so it is flushed once per process, never per invocation.
#[derive(Debug)]
pub(crate) struct BillingClient {
    qp: QueuePair,
    slot: RemoteMemoryHandle,
    scratch: MemoryRegion,
}

impl BillingClient {
    /// Create a client flushing into `slot` over the (already connected)
    /// queue pair `qp`.
    pub(crate) fn new(qp: QueuePair, slot: RemoteMemoryHandle) -> BillingClient {
        let scratch = qp.pd().register(8, AccessFlags::LOCAL_ONLY);
        BillingClient { qp, slot, scratch }
    }

    /// Add `usage` to the manager's database with up to three remote
    /// fetch-and-add operations chained behind a single doorbell (one MMIO
    /// per flush, not one per counter), one per non-zero word. A no-op for
    /// an empty record.
    pub(crate) fn flush(&self, usage: UsageRecord) -> Result<()> {
        let words = [usage.allocation_gib_us, usage.compute_us, usage.hot_poll_us];
        let mut posted = 0;
        for (i, add) in words.into_iter().enumerate() {
            if add == 0 {
                continue;
            }
            let fetch_add = SendRequest::AtomicFetchAdd {
                local: Sge::whole(&self.scratch),
                remote: self.slot.slice(i * 8, 8),
                add,
            };
            self.qp
                .post_send_chained(i as u64, fetch_add, true, posted > 0)?;
            posted += 1;
        }
        // Consume the completions so the send queue does not fill up: each
        // signaled fetch-and-add completed as it was posted.
        let cq = self.qp.send_cq();
        for _ in 0..posted {
            cq.poll_one();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_fabric::Fabric;

    fn setup() -> (BillingDatabase, BillingClient) {
        let fabric = Fabric::with_defaults();
        let manager_node = fabric.add_node("manager");
        let executor_node = fabric.add_node("executor");
        let manager_ep = Endpoint::new(&fabric, &manager_node);
        let executor_ep = Endpoint::new(&fabric, &executor_node);
        let db = BillingDatabase::new(&manager_ep);
        let manager_qp = QueuePair::new(&manager_ep);
        let executor_qp = QueuePair::new(&executor_ep);
        QueuePair::connect_pair(&manager_qp, &executor_qp).unwrap();
        let slot = db.reserve_slot();
        let client = BillingClient::new(executor_qp, db.slot_handle(slot));
        (db, client)
    }

    #[test]
    fn usage_record_arithmetic_and_cost() {
        let a = UsageRecord {
            allocation_gib_us: 11,
            compute_us: 22,
            hot_poll_us: 33,
        };
        assert!(!a.is_empty());
        assert!(UsageRecord::default().is_empty());
        let cost = a.cost();
        assert!(cost > 0.0);
        // Compute and hot-poll seconds are priced equally.
        let compute_only = UsageRecord {
            compute_us: 1_000_000,
            ..Default::default()
        };
        let hot_only = UsageRecord {
            hot_poll_us: 1_000_000,
            ..Default::default()
        };
        assert!((compute_only.cost() - hot_only.cost()).abs() < 1e-12);
    }

    #[test]
    fn slots_are_distinct_and_in_range() {
        let fabric = Fabric::with_defaults();
        let ep = Endpoint::new(&fabric, &fabric.add_node("m"));
        let db = BillingDatabase::new(&ep);
        let a = db.reserve_slot();
        let b = db.reserve_slot();
        assert_ne!(a, b);
        assert!(a < SLOT_CAPACITY && b < SLOT_CAPACITY);
        let h = db.slot_handle(b);
        assert_eq!(h.len, 24);
        assert_eq!(h.offset, b * 24);
    }

    #[test]
    fn flush_accumulates_into_manager_database() {
        let (db, client) = setup();
        let mut usage = UsageRecord::default();
        usage.add_compute(SimDuration::from_millis(3));
        usage.add_hot_poll(SimDuration::from_micros(500));
        usage.add_allocation(SimDuration::from_secs(1), 2048);
        client.flush(usage).unwrap();
        let usage = db.read_slot(0);
        assert_eq!(usage.compute_us, 3_000);
        assert_eq!(usage.hot_poll_us, 500);
        assert_eq!(usage.allocation_gib_us, 2_000_000);
        // Records added to one usage add up, each rounded to whole µs as it
        // is added, and the second flush adds on top (fetch-and-add
        // semantics).
        let mut usage = UsageRecord::default();
        usage.add_compute(SimDuration::from_millis(1));
        usage.add_compute(SimDuration::from_millis(1));
        usage.add_compute(SimDuration::from_nanos(400));
        usage.add_compute(SimDuration::from_nanos(400));
        client.flush(usage).unwrap();
        assert_eq!(db.read_slot(0).compute_us, 5_000);
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let (db, client) = setup();
        client.flush(UsageRecord::default()).unwrap();
        assert!(db.read_slot(0).is_empty());
    }

    #[test]
    fn total_cost_reflects_rates() {
        let (db, client) = setup();
        let mut usage = UsageRecord::default();
        usage.add_compute(SimDuration::from_secs(10));
        client.flush(usage).unwrap();
        let expected = PRICE_COMPUTE * 10.0;
        assert!((db.total_cost() - expected).abs() < 1e-6);
    }

    #[test]
    fn total_cost_sums_the_reserved_slots() {
        let fabric = Fabric::with_defaults();
        let manager_ep = Endpoint::new(&fabric, &fabric.add_node("manager"));
        let executor_ep = Endpoint::new(&fabric, &fabric.add_node("executor"));
        let db = BillingDatabase::new(&manager_ep);
        assert_eq!(db.total_cost().to_bits(), 0, "an empty total is +0.0");
        // Flush `seconds` of compute into `slot` over a fresh connection.
        let flush = |slot: usize, seconds: u64| {
            let manager_qp = QueuePair::new(&manager_ep);
            let executor_qp = QueuePair::new(&executor_ep);
            QueuePair::connect_pair(&manager_qp, &executor_qp).unwrap();
            let mut usage = UsageRecord::default();
            usage.add_compute(SimDuration::from_secs(seconds));
            let client = BillingClient::new(executor_qp, db.slot_handle(slot));
            client.flush(usage).unwrap();
        };
        let (a, b) = (db.reserve_slot(), db.reserve_slot());
        flush(a, 3);
        flush(b, 5);
        let reserved = db.read_slot(a).cost() + db.read_slot(b).cost();
        assert_eq!(db.total_cost().to_bits(), reserved.to_bits());

        // Once the slots wrap, every slot is read, the last one included.
        while db.reserve_slot() != a {}
        let last = SLOT_CAPACITY - 1;
        flush(last, 7);
        let all = reserved + db.read_slot(last).cost();
        assert_eq!(db.total_cost().to_bits(), all.to_bits());
    }
}

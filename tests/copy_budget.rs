//! Copy-budget regression: steady-state heap traffic per operation on the
//! three data paths, and per lease, whose budget DESIGN.md ("Data path: copy
//! budget") states.
//!
//! A byte may be copied only where the modelled hardware moves it (a DMA
//! between registered regions) or at a codec boundary (the decoded result
//! the caller owns). Region→region copies never touch the heap, so heap
//! bytes per operation expose a staging buffer the moment one comes back.
//!
//! The counting `#[global_allocator]` is this binary's own: integration
//! tests are separate binaries, nothing else in the workspace sees it. All
//! measurements run inside one `#[test]`, so no concurrent test's
//! allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rdma_fabric::ConnectionPool;
use rfaas::{AllocationPolicy, PollingMode, RFaasConfig, Session, StateKey, StatePlane};
use rfaas_bench::{Testbed, DATASET_KEY};
use sandbox::SandboxType;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the counters are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: usize = 1024 * 1024;
const WARM_UP: usize = 4;
const MEASURED: u64 = 16;

/// Run `op` to steady state (pools filled, caches hot), then return the mean
/// `(allocations, heap bytes)` one more `op` costs, over every thread.
fn per_operation(mut op: impl FnMut()) -> (f64, f64) {
    for _ in 0..WARM_UP {
        op();
    }
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    for _ in 0..MEASURED {
        op();
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before.0;
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before.1;
    (
        allocations as f64 / MEASURED as f64,
        bytes as f64 / MEASURED as f64,
    )
}

fn hot_session(testbed: &Testbed, plane: Option<&StatePlane>) -> Session {
    let mut builder = testbed
        .session("budget-client")
        .sandbox(SandboxType::BareMetal)
        .polling(PollingMode::Hot);
    if let Some(plane) = plane {
        builder = builder.state_plane(plane);
    }
    builder
        .connect()
        .expect("a fresh testbed grants one worker")
}

#[test]
fn steady_state_heap_traffic_stays_within_the_copy_budget() {
    // Buffered invoke: a 1 MiB echo allocates the decoded result the caller
    // receives, and nothing else of that order.
    {
        let testbed = Testbed::new(1);
        let session = hot_session(&testbed, None);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let payload = workloads::generate_payload(MIB, 7);
        let (_, bytes) = per_operation(|| {
            let reply = echo.invoke(&payload[..]).unwrap();
            assert_eq!(reply.len(), MIB);
        });
        assert!(
            bytes <= (MIB + 4096) as f64,
            "1 MiB echo allocates {bytes} B per invocation"
        );
        session.close().unwrap();
    }

    // Inline invoke: a 64 B hot echo stays within five small allocations.
    {
        let testbed = Testbed::new(1);
        let session = hot_session(&testbed, None);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let (allocations, _) = per_operation(|| {
            echo.invoke(&[5u8; 64][..]).unwrap();
        });
        assert!(
            allocations <= 5.0,
            "64 B hot echo makes {allocations} allocations per invocation"
        );
        session.close().unwrap();
    }

    // State hit: a stateful invocation over a cache-resident 1 MiB read key
    // borrows the value where the state client cached it.
    {
        let testbed = Testbed::new(1);
        let plane = StatePlane::new(&testbed.fabric, "state-0", 64 * MIB);
        let session = hot_session(&testbed, Some(&plane));
        let dataset = workloads::generate_payload(MIB, 11);
        session.state().put(DATASET_KEY, &dataset).unwrap();
        let touch = session
            .function::<[u8], [u8]>("state-touch")
            .unwrap()
            .with_state([StateKey::read(DATASET_KEY)])
            .unwrap();
        let (_, bytes) = per_operation(|| {
            assert_eq!(touch.invoke(&[0u8; 8][..]).unwrap().len(), 8);
        });
        assert!(
            bytes < 4096.0,
            "cache-hit stateful invocation allocates {bytes} B"
        );
        let executor = session.stats().state_executor.unwrap();
        assert_eq!(executor.remote_reads, 1, "every measured read was a hit");
        session.close().unwrap();
    }

    // Lease: one steady-state episode (fork from the parked parent, four
    // 64 B warm echoes, release) commits what it touches of its registered
    // buffers — not the 2 × 8 MiB worker buffers a lease registers.
    {
        let config = RFaasConfig {
            warm_pool_capacity: 2,
            ..RFaasConfig::paper_calibration()
        };
        let testbed = Testbed::with_config(1, config);
        let pool = ConnectionPool::new();
        let (_, bytes) = per_operation(|| {
            let session = testbed
                .session("budget-client")
                .sandbox(SandboxType::BareMetal)
                .polling(PollingMode::Warm)
                .allocation_policy(AllocationPolicy::Fork)
                .connection_pool(&pool)
                .connect()
                .unwrap();
            let echo = session.function::<[u8], [u8]>("echo").unwrap();
            for _ in 0..4 {
                assert_eq!(echo.invoke(&[9u8; 64][..]).unwrap(), [9u8; 64]);
            }
            session.close().unwrap();
        });
        assert!(
            bytes < (128 * 1024) as f64,
            "a lease episode allocates {bytes} B"
        );
    }
}

//! Copy-budget regression: steady-state heap traffic per operation on the
//! three data paths, and per lease, whose budget DESIGN.md ("Data path: copy
//! budget") states; and the lock acquisitions of the two hot paths, of a
//! state put and of a lease episode (DESIGN.md "Hot-path lock budget"), in
//! the builds that count them.
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
use sim_core::sync::{lock_acquisitions, lock_sites};

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

/// What one more operation costs at steady state.
struct PerOp {
    /// Heap allocations, over every thread.
    allocations: f64,
    /// Heap bytes allocated, over every thread.
    bytes: f64,
    /// Lock acquisitions on this thread — which runs the whole operation:
    /// the waiting client turns the executor. `None` in a release build,
    /// which does not count them.
    locks: Option<f64>,
    /// Where the last operation took its locks, in order (empty in a
    /// release build).
    lock_sites: Vec<String>,
}

impl PerOp {
    /// Pin the locks one operation takes, in the builds that count them; a
    /// moved pin lists the last operation's acquisition sites.
    fn assert_locks(&self, expected: f64, what: &str) {
        if let Some(locks) = self.locks {
            assert!(
                locks == expected,
                "{what}: {locks} lock acquisitions, pinned at {expected}; the last \
                 operation took them at:\n  {}",
                self.lock_sites.join("\n  ")
            );
        }
    }
}

/// Run `op` to steady state (pools filled, caches hot), then return the mean
/// cost of one more `op`.
fn per_operation(mut op: impl FnMut()) -> PerOp {
    for _ in 0..WARM_UP {
        op();
    }
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
        lock_acquisitions(),
    );
    for _ in 1..MEASURED {
        op();
    }
    let before_last = lock_acquisitions();
    op();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before.0;
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before.1;
    let after = lock_acquisitions();
    let locks = after.zip(before.2).map(|(after, before)| after - before);
    let last = after
        .zip(before_last)
        .map_or(0, |(after, before)| after - before);
    let lock_sites = lock_sites(last as usize)
        .unwrap_or_default()
        .iter()
        .map(ToString::to_string)
        .collect();
    let mean = |total: u64| total as f64 / MEASURED as f64;
    PerOp {
        allocations: mean(allocations),
        bytes: mean(bytes),
        locks: locks.map(mean),
        lock_sites,
    }
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
    // Buffered invoke: a 1 MiB echo allocates one buffer of that order — the
    // client's staging buffer for the next request — and nothing else. Its
    // two DMAs share the buffers they replace, at one small `Arc` each. The
    // executor builds the result in the request buffer the last share
    // replaced, so it zero-fills no window; the response's bytes are then
    // handed over: the executor releases them, and the client returns that
    // buffer itself as the caller's result.
    {
        let testbed = Testbed::new(1);
        let session = hot_session(&testbed, None);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let payload = workloads::generate_payload(MIB, 7);
        let PerOp {
            allocations, bytes, ..
        } = per_operation(|| {
            let reply = echo.invoke(&payload[..]).unwrap();
            assert_eq!(reply.len(), MIB);
        });
        assert!(
            bytes <= (MIB + 4096) as f64,
            "1 MiB echo allocates {bytes} B per invocation"
        );
        assert_eq!(allocations, 3.0, "1 MiB echo: allocations per invocation");
        session.close().unwrap();
    }

    // The same echo through the `[f64]` codec: the handed-over bytes are
    // decoded into the caller's `Vec<f64>` and dropped, so this flow pays
    // both the decode and the client's staging buffer, which holds the
    // 24-byte header in front of the payload.
    {
        let testbed = Testbed::new(1);
        let session = hot_session(&testbed, None);
        let echo = session.function::<[f64], [f64]>("echo").unwrap();
        let payload: Vec<f64> = (0..MIB / 8).map(|i| i as f64).collect();
        let PerOp {
            allocations, bytes, ..
        } = per_operation(|| {
            let reply = echo.invoke(&payload[..]).unwrap();
            assert_eq!(reply.len(), MIB / 8);
        });
        assert_eq!(
            (allocations, bytes),
            (4.0, (2 * MIB + 104) as f64),
            "1 MiB f64 echo: (allocations, heap bytes) per invocation"
        );
        session.close().unwrap();
    }

    // Inline invoke: a 64 B hot echo allocates the reply it returns and
    // nothing else, and takes a pinned number of locks (DESIGN.md "Hot-path
    // lock budget").
    {
        let testbed = Testbed::new(1);
        let session = hot_session(&testbed, None);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let cost = per_operation(|| {
            echo.invoke(&[5u8; 64][..]).unwrap();
        });
        cost.assert_locks(16.0, "64 B hot echo");
        assert_eq!(
            (cost.allocations, cost.bytes),
            (1.0, 64.0),
            "64 B hot echo: (allocations, heap bytes) per invocation"
        );
        session.close().unwrap();
    }

    // Scatter: `saturate`'s per-session shape, one `map_workers` wave of
    // 32 × 64 B over a 32-worker hot session and its `wait_all`. The wave
    // allocates the 32 replies it returns and four buffers: the set's
    // entries, its ready queue and the queue's shared cell, and `wait_all`'s
    // result. The wave posts into the set's entries and `wait_all` gathers
    // into them; the invocations' own state lives in the slot tables the
    // connections keep across waves.
    {
        let config = RFaasConfig {
            max_payload_bytes: 4096,
            ..RFaasConfig::paper_calibration()
        };
        let testbed = Testbed::with_config(1, config);
        let session = testbed
            .session("budget-client")
            .workers(32)
            .sandbox(SandboxType::BareMetal)
            .polling(PollingMode::Hot)
            .connect()
            .unwrap();
        let echo = session
            .function::<[u8], [u8]>("echo")
            .unwrap()
            .with_output_capacity(64);
        let cost = per_operation(|| {
            let set = echo.map_workers((0..32).map(|_| &[6u8; 64][..])).unwrap();
            assert_eq!(set.wait_all().unwrap().len(), 32);
        });
        assert_eq!(
            (cost.allocations, cost.bytes),
            (36.0, 11_320.0),
            "32 × 64 B scatter: (allocations, heap bytes) per wave"
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
        let cost = per_operation(|| {
            assert_eq!(touch.invoke(&[0u8; 8][..]).unwrap().len(), 8);
        });
        assert!(
            cost.bytes < 4096.0,
            "cache-hit stateful invocation allocates {} B",
            cost.bytes
        );
        cost.assert_locks(18.0, "cache-hit stateful invocation");
        let executor = session.stats().state_executor.unwrap();
        assert_eq!(executor.remote_reads, 1, "every measured read was a hit");

        // State put: one 1 MiB put, as `state_write_mix` issues between its
        // touches. Its commit invalidates the executor's cached copy.
        let put = per_operation(|| {
            session.state().put(DATASET_KEY, &dataset).unwrap();
        });
        put.assert_locks(17.0, "1 MiB state put");

        // A put, then a touch that reads the new value, as `state_write_mix`
        // interleaves them: each 1 MiB copy shares the buffer it moves and
        // each region that writes over shared bytes builds in a buffer a
        // share replaced, so no buffer of that order is allocated.
        let cycle = per_operation(|| {
            session.state().put(DATASET_KEY, &dataset).unwrap();
            assert_eq!(touch.invoke(&[0u8; 8][..]).unwrap().len(), 8);
        });
        assert!(
            cycle.bytes < 4096.0,
            "a put and a touch allocate {} B",
            cycle.bytes
        );
        session.close().unwrap();
    }

    // Lease: one steady-state episode (fork from the parked parent, four
    // 64 B warm echoes, release) commits what it touches of its registered
    // buffers — not the 2 × 8 MiB worker buffers a lease registers. Its
    // receive rings post their slots in one acquisition each, as indices,
    // and their ledgers keep no list of posted slots beside the queue's.
    {
        let config = RFaasConfig {
            warm_pool_capacity: 2,
            ..RFaasConfig::paper_calibration()
        };
        let testbed = Testbed::with_config(1, config);
        let pool = ConnectionPool::new();
        let episode = per_operation(|| {
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
            episode.bytes < (128 * 1024) as f64,
            "a lease episode allocates {} B",
            episode.bytes
        );
        episode.assert_locks(152.0, "Fork lease episode");
        assert_eq!(
            episode.allocations, 120.0,
            "Fork lease episode: allocations"
        );
    }
}

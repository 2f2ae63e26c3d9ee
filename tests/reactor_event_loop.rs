//! Reactor regression tests at depth: the completion-driven event loop must
//! keep a thousand in-flight invocations straight — every scattered input
//! gathered exactly once, no lost or duplicated completions, and no
//! quadratic rescans hiding behind `wait_any` (the pre-reactor
//! implementation re-scanned every entry per call, so a 1k-entry set cost
//! ~1M probes to drain; the reactor pumps each completion exactly once and
//! resolves waiters off a ready queue).

use cluster_sim::NodeResources;
use rdma_fabric::Fabric;
use rfaas::{PollingMode, RFaasConfig, Reactor, ResourceManager, Session, SpotExecutor};
use rfaas_bench::{evaluation_package, PACKAGE};
use sandbox::FunctionRegistry;
use sim_core::VirtualClock;

const DEPTH: usize = 1024;

/// One session with 1024 workers, one scatter of 1024 distinct payloads,
/// one reactor drain. Pins the exactly-once contract at depth: each input
/// index is yielded once with its own bytes, and the reactor's lifetime
/// counters show each completion was pumped and dispatched a single time —
/// the counters are how a reintroduced rescan (pumping the same source
/// repeatedly per waiter) would show up.
#[test]
fn wait_any_drains_1024_entries_exactly_once() {
    // Keep per-worker input buffers small: registration is sized by
    // `max_payload_bytes` and this test is about completion bookkeeping,
    // not payload bandwidth.
    let mut config = RFaasConfig::paper_calibration();
    config.max_payload_bytes = 256;

    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(evaluation_package());
    let manager = ResourceManager::new(&fabric, config.clone());
    let executor = SpotExecutor::new(
        &fabric,
        "reactor-depth-exec",
        NodeResources {
            cores: DEPTH as u32,
            memory_mib: 64 * 1024,
        },
        registry,
        config.clone(),
    );
    manager.register_executor(&executor);

    let reactor = Reactor::new();
    let clock = VirtualClock::shared();
    let session = Session::builder(&fabric, "reactor-depth-client", &manager, PACKAGE)
        .workers(DEPTH as u32)
        .memory_mib(8 * 1024)
        .polling(PollingMode::Hot)
        .reactor(&reactor)
        .clock(&clock)
        .connect()
        .expect("allocating 1024 workers succeeds");
    let echo = session
        .function::<[u8], [u8]>("echo")
        .expect("echo deployed")
        .with_output_capacity(8);

    // Distinct payload per index so a swapped or duplicated dispatch is
    // visible in the bytes, not just the counts.
    let payloads: Vec<Vec<u8>> = (0..DEPTH)
        .map(|i| vec![i as u8, (i >> 8) as u8, 0xA5, 0x5A])
        .collect();
    let mut set = echo
        .map_workers(payloads.iter().map(|p| &p[..]))
        .expect("scatter of 1024 inputs succeeds");

    let mut seen = vec![false; DEPTH];
    let mut gathered = 0usize;
    while let Some((index, reply)) = set.wait_any().expect("gather succeeds") {
        assert!(!seen[index], "input {index} yielded twice");
        seen[index] = true;
        assert_eq!(&reply[..], &payloads[index][..], "reply bytes for {index}");
        gathered += 1;
    }
    assert_eq!(gathered, DEPTH, "every scattered input must be gathered");
    assert!(seen.iter().all(|s| *s));

    let stats = reactor.stats();
    assert_eq!(
        stats.pumped, DEPTH as u64,
        "each completion is pumped out of its connection exactly once"
    );
    assert_eq!(
        stats.dispatched, DEPTH as u64,
        "each armed continuation dispatches exactly once"
    );

    drop(set);
    session.close().expect("release succeeds");
}

/// Two sessions on one reactor, drained in the "wrong" order: gathering the
/// second session's set first forces the reactor to stash the first
/// session's completions while pumping for the second, and the first set
/// must then resolve entirely off its ready queue. Exactly-once still holds
/// across the session boundary.
#[test]
fn cross_session_gather_order_does_not_lose_completions() {
    const WORKERS: usize = 32;
    let mut config = RFaasConfig::paper_calibration();
    config.max_payload_bytes = 256;

    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(evaluation_package());
    let manager = ResourceManager::new(&fabric, config.clone());
    for i in 0..2 {
        let executor = SpotExecutor::new(
            &fabric,
            &format!("xgather-exec-{i}"),
            NodeResources {
                cores: WORKERS as u32,
                memory_mib: 8 * 1024,
            },
            registry.clone(),
            config.clone(),
        );
        manager.register_executor(&executor);
    }

    let reactor = Reactor::new();
    let clock = VirtualClock::shared();
    let sessions: Vec<Session> = (0..2)
        .map(|i| {
            Session::builder(&fabric, &format!("xgather-client-{i}"), &manager, PACKAGE)
                .workers(WORKERS as u32)
                .memory_mib(1024)
                .polling(PollingMode::Hot)
                .reactor(&reactor)
                .clock(&clock)
                .connect()
                .expect("allocation succeeds")
        })
        .collect();

    let payload = [0x42u8; 16];
    let inputs: Vec<&[u8]> = (0..WORKERS).map(|_| &payload[..]).collect();
    let mut sets: Vec<_> = sessions
        .iter()
        .map(|s| {
            s.function::<[u8], [u8]>("echo")
                .expect("echo deployed")
                .with_output_capacity(16)
                .map_workers(inputs.iter().copied())
                .expect("scatter succeeds")
        })
        .collect();

    // Drain in reverse submission order.
    for set in sets.iter_mut().rev() {
        let mut gathered = 0usize;
        while let Some((_, reply)) = set.wait_any().expect("gather succeeds") {
            assert_eq!(reply.len(), payload.len());
            gathered += 1;
        }
        assert_eq!(gathered, WORKERS);
    }
    drop(sets);

    let stats = reactor.stats();
    assert_eq!(stats.pumped, (2 * WORKERS) as u64);
    assert_eq!(stats.dispatched, (2 * WORKERS) as u64);
    for session in sessions {
        session.close().expect("release succeeds");
    }
}

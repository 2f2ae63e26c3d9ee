//! Figure 16: completion-driven saturation — in-flight depth vs throughput
//! and tail latency on one client thread.
//!
//! The paper's invocation protocol gives every worker a single registered
//! input slot, so sustaining N in-flight invocations means holding N live
//! worker connections. A thread-per-connection client (and a thread-per-
//! worker executor) stops scaling long before the fabric does; the reactor
//! rebuilds both sides as completion-driven event loops: every session's
//! worker connections register with one shared [`rfaas::Reactor`], every
//! executor process multiplexes its workers' receive CQs over one
//! [`rdma_fabric::CqSet`] dispatcher — an actor on the fabric with no thread
//! of its own, turned by the waiting client thread. This experiment measures
//! what that buys: one client thread (one shared virtual clock) drives sessions
//! whose combined worker count — the in-flight depth — sweeps 1 → 4096,
//! and we record sustained throughput, the gather latency of every
//! invocation and the shared reactor's counters. Every depth runs a fixed
//! number of full waves, which are the experiment: the gather latency is a
//! value row where every completion of every wave is gathered at the same
//! instant (every `--quick` depth) and a distribution where they are not.
//!
//! Expected shape: throughput climbs steeply with depth while the per-wave
//! submit/pickup costs amortise, then saturates as the client clock's
//! serial per-completion pickup work (Sec. III-C's completion-pickup cost)
//! becomes the bottleneck; gather latency grows with depth because the last
//! completion of a wave queues behind every earlier pickup. [`CLAIMS`] holds
//! the headline: 1024 in-flight invocations on one client thread sustain at
//! least 5x the depth-1 invocation rate. The golden report pins every
//! `--quick` row exactly.

use crate::{at, evaluation_package, every, rows, xs, Claim, Row, Size, Table, PACKAGE};
use cluster_sim::NodeResources;
use rdma_fabric::Fabric;
use rfaas::{PollingMode, RFaasConfig, Reactor, ResourceManager, Session, SpotExecutor};
use sandbox::FunctionRegistry;
use sim_core::VirtualClock;

/// Payload of every invocation: small on purpose, so the measured costs are
/// the platform's per-invocation overheads, not payload bandwidth.
const PAYLOAD_BYTES: usize = 64;

struct DepthOutcome {
    invocations: u64,
    /// Sustained rate over the whole run, thousands of invocations per
    /// second of client virtual time.
    throughput_kinv_s: f64,
    /// Per-invocation gather latencies (gather instant minus the round's
    /// submit instant), microseconds.
    latencies_us: Vec<f64>,
    /// Completions pumped/dispatched by the shared reactor.
    pumped: u64,
    dispatched: u64,
}

/// Drive `rounds` full waves at a fixed in-flight depth: `sessions` sessions
/// of `depth / sessions` workers each, all sharing one reactor and one
/// client clock, each round scattering one invocation to every worker and
/// gathering all of them through the reactor.
fn run_depth(depth: usize, rounds: usize) -> DepthOutcome {
    // Per-worker input buffers are sized by `max_payload_bytes`; the default
    // 8 MiB would register gigabytes at depth 4096. Saturation is about
    // invocation count, not payload size.
    let mut config = RFaasConfig::paper_calibration();
    config.max_payload_bytes = 4096;

    let sessions = depth.min(8);
    assert_eq!(depth % sessions, 0, "depth must split evenly over sessions");
    let per_session = depth / sessions;

    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(evaluation_package());
    let manager = ResourceManager::new(&fabric, config.clone());
    // One executor node per session, sized exactly to its lease, so
    // placement is deterministic and every worker owns a core (hot workers
    // hold their core for their lifetime).
    for i in 0..sessions {
        let executor = SpotExecutor::new(
            &fabric,
            &format!("sat-exec-{i:02}"),
            NodeResources {
                cores: per_session as u32,
                memory_mib: 16 * 1024,
            },
            registry.clone(),
            config.clone(),
        );
        manager.register_executor(&executor);
    }

    // The "one client thread": a single reactor draining every session's
    // connections and a single virtual clock all submissions and pickups
    // serialise on.
    let reactor = Reactor::new();
    let clock = VirtualClock::shared();
    let session_handles: Vec<Session> = (0..sessions)
        .map(|i| {
            Session::builder(&fabric, &format!("sat-client-{i:02}"), &manager, PACKAGE)
                .workers(per_session as u32)
                .memory_mib(1024)
                .polling(PollingMode::Hot)
                .reactor(&reactor)
                .clock(&clock)
                .connect()
                .expect("saturation allocation succeeds")
        })
        .collect();
    let functions: Vec<_> = session_handles
        .iter()
        .map(|s| {
            s.function::<[u8], [u8]>("echo")
                .expect("echo deployed")
                .with_output_capacity(PAYLOAD_BYTES)
        })
        .collect();

    let payload = [0xabu8; PAYLOAD_BYTES];
    let inputs: Vec<&[u8]> = (0..per_session).map(|_| &payload[..]).collect();

    let mut latencies_us = Vec::with_capacity(depth * rounds);
    let mut invocations = 0u64;
    let start = clock.now();
    for _ in 0..rounds {
        let round_start = clock.now();
        // Scatter: one wave per session, `depth` invocations in flight
        // before the first gather.
        let mut sets: Vec<_> = functions
            .iter()
            .map(|f| {
                f.map_workers(inputs.iter().copied())
                    .expect("scatter succeeds")
            })
            .collect();
        // Gather: the shared reactor dispatches completions of every
        // session while any set is being drained.
        for set in &mut sets {
            while let Some((_, reply)) = set.wait_any().expect("gather succeeds") {
                assert_eq!(reply.len(), PAYLOAD_BYTES);
                latencies_us.push(clock.now().saturating_since(round_start).as_micros_f64());
                invocations += 1;
            }
        }
    }
    let elapsed = clock.now().saturating_since(start);
    let stats = reactor.stats();

    for session in session_handles {
        session.close().expect("release succeeds");
    }

    DepthOutcome {
        invocations,
        throughput_kinv_s: invocations as f64 / elapsed.as_secs_f64().max(1e-12) / 1e3,
        latencies_us,
        pumped: stats.pumped,
        dispatched: stats.dispatched,
    }
}

#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    Claim { name: "the reactor pumps every invocation at every depth", source: "model",
        check: |t| every(t, ["reactor pumped", "invocations"], |_, [pumped, n]| pumped >= n) },
    Claim { name: "depth 1024 sustains >= 5x the depth-1 throughput", source: "model",
        check: |t| rows(t, [(THROUGHPUT, 1024.0), (THROUGHPUT, 1.0)], |[top, one]| {
            top >= 5.0 * one
        }) },
    Claim { name: "throughput at every depth >= 256 stays within 2x of the best", source: "model",
        check: |t| {
            let throughput = xs(t, THROUGHPUT)?.into_iter().map(|x| at(t, THROUGHPUT, x));
            let best = throughput.collect::<Result<Vec<_>, _>>()?.into_iter().fold(0.0, f64::max);
            every(t, [THROUGHPUT], |depth, [v]| depth < 256.0 || v * 2.0 >= best)
        } },
];

const THROUGHPUT: &str = "throughput";

pub(crate) fn run(size: Size) -> Vec<Table> {
    let quick = size.quick();
    let (depths, rounds): (&[usize], usize) = if quick {
        (&[1, 16, 256, 1024], 3)
    } else {
        (&[1, 4, 16, 64, 256, 1024, 4096], 6)
    };

    let mut rows = Vec::new();
    for &depth in depths {
        let outcome = run_depth(depth, rounds);
        assert_eq!(
            outcome.invocations,
            (depth * rounds) as u64,
            "every scattered invocation must be gathered at depth {depth}"
        );
        let x = depth as f64;
        rows.push(Row::value(
            THROUGHPUT,
            x,
            outcome.throughput_kinv_s,
            "kinv/s",
        ));
        rows.push(Row::sampled(
            "gather latency",
            x,
            &outcome.latencies_us,
            "us",
        ));
        rows.push(Row::value(
            "invocations",
            x,
            outcome.invocations as f64,
            "count",
        ));
        rows.push(Row::value(
            "reactor pumped",
            x,
            outcome.pumped as f64,
            "count",
        ));
        rows.push(Row::value(
            "reactor dispatched",
            x,
            outcome.dispatched as f64,
            "count",
        ));
    }
    vec![Table {
        title: "Figure 16: completion-driven saturation, one client thread (x = in-flight depth: sessions x workers sharing one reactor and one client clock over full waves)",
        rows,
    }]
}

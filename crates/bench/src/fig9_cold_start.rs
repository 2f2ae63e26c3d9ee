//! Figure 9: cold-invocation cost breakdown for bare-metal and Docker
//! executors, with 1 B and 1 MB payloads and 1 or 32 worker threads.
//! The stacked components are: connect to manager, submit allocation,
//! spawn worker (sandbox + executor + threads), submit code, and the first
//! invocation itself. Each case is one cold start on a fresh testbed.

use crate::{Claim, Row, Size, Table, Testbed};
use rfaas::PollingMode;
use sandbox::SandboxType;

/// The stacked components, in stacking order.
const SLICES: [&str; 6] = [
    "connect-mgr",
    "submit-alloc",
    "spawn-worker",
    "submit-code",
    "connect-workers",
    "invoke",
];

/// Run one cold start and append its rows: one per slice and one for the
/// total (ms) to `breakdown`, and its connection-plane counters to `plane`.
fn run_case(
    sandbox: SandboxType,
    payload: usize,
    workers: u32,
    breakdown: &mut Vec<Row>,
    plane: &mut Vec<Row>,
) {
    let testbed = Testbed::new(1);
    let session = testbed
        .session("fig9-client")
        .workers(workers)
        .sandbox(sandbox)
        .polling(PollingMode::Hot)
        .connect()
        .expect("allocation succeeds");
    let cold = session.cold_start().expect("cold start recorded").clone();
    let echo = session.function::<[u8], [u8]>("echo").expect("echo");
    let data = workloads::generate_payload(payload, 3);
    let (_, first_invocation) = echo.invoke_timed(&data[..]).expect("first invocation");
    let slices = [
        cold.connect_to_manager,
        cold.submit_allocation,
        cold.spawn_workers,
        cold.submit_code,
        cold.connect_to_workers,
        first_invocation,
    ]
    .map(|slice| slice.as_millis_f64());
    let conn = session.stats().connections;
    session.close().expect("deallocate");

    let case = format!(
        "{sandbox:?} {}",
        if payload >= 1024 * 1024 {
            "1 MB"
        } else {
            "1 B"
        }
    );
    let x = f64::from(workers);
    for (slice, value) in SLICES.iter().zip(slices) {
        breakdown.push(Row::value(format!("{case} {slice}"), x, value, "ms"));
    }
    breakdown.push(Row::value(
        format!("{case} total"),
        x,
        slices.iter().sum(),
        "ms",
    ));
    // Every cold start is first contact: each worker connection is a pool
    // miss.
    for (counter, value) in [
        ("connections opened", conn.connections_opened),
        ("pool misses", conn.pool_misses),
        (
            "SRQ depth high watermark",
            conn.srq_depth_high_watermark as u64,
        ),
    ] {
        plane.push(Row::value(
            format!("{case} {counter}"),
            x,
            value as f64,
            "count",
        ));
    }
}

pub(crate) const CLAIMS: &[Claim] = &[];

pub(crate) fn run(_size: Size) -> Vec<Table> {
    let mut breakdown = Vec::new();
    let mut plane = Vec::new();
    for sandbox in [SandboxType::BareMetal, SandboxType::Docker] {
        for payload in [1usize, 1024 * 1024] {
            for workers in [1u32, 32] {
                run_case(sandbox, payload, workers, &mut breakdown, &mut plane);
            }
        }
    }
    vec![
        Table {
            title: "Figure 9: cold invocation breakdown per slice (x = workers; paper: bare-metal sandbox init ~25 ms, Docker + SR-IOV ~2.7 s; spawn worker dominates, all other steps single-digit ms)",
            rows: breakdown,
        },
        Table {
            title: "Figure 9: connection plane of one cold start (x = workers)",
            rows: plane,
        },
    ]
}

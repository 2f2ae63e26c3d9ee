//! Figure 9: cold-invocation cost breakdown for bare-metal and Docker
//! executors, with 1 B and 1 MB payloads and 1 or 32 worker threads.
//! The stacked components are: connect to manager, submit allocation,
//! spawn worker (sandbox + executor + threads), submit code, and the first
//! invocation itself.

use crate::{print_table, Mode, ResultRow, Testbed};
use rfaas::PollingMode;
use sandbox::SandboxType;
use sim_core::Summary;

/// The stacked components, in the order of the printed line.
const SLICES: [&str; 6] = [
    "connect-mgr",
    "submit-alloc",
    "spawn-worker",
    "submit-code",
    "connect-workers",
    "invoke",
];

/// Run one case and return its rows: one per slice and one for the total,
/// each summarising the per-repetition values in ms.
fn run_case(
    sandbox: SandboxType,
    payload: usize,
    workers: u32,
    repetitions: usize,
) -> Vec<ResultRow> {
    // Per-repetition values: the six slices, then the total.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); SLICES.len() + 1];
    let mut opened = 0u64;
    let mut pool_misses = 0u64;
    let mut srq_watermark = 0usize;
    for rep in 0..repetitions {
        let testbed = Testbed::new(1);
        let session = testbed
            .session(&format!("fig9-client-{rep}"))
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
        for (values, value) in samples.iter_mut().zip(slices) {
            values.push(value);
        }
        samples[SLICES.len()].push(slices.iter().sum());
        let conn = session.stats().connections;
        opened += conn.connections_opened;
        pool_misses += conn.pool_misses;
        srq_watermark = srq_watermark.max(conn.srq_depth_high_watermark);
        session.close().expect("deallocate");
    }
    println!(
        "#   connection plane: {opened} connections opened ({pool_misses} pool misses — every cold start is first contact), SRQ depth high watermark {srq_watermark}"
    );
    let components: Vec<f64> = samples[..SLICES.len()]
        .iter()
        .map(|values| values.iter().sum::<f64>() / repetitions as f64)
        .collect();
    let total: f64 = components.iter().sum();
    let payload_label = if payload >= 1024 * 1024 {
        "1 MB"
    } else {
        "1 B"
    };
    println!(
        "{:<11} payload={:<9} workers={:<3} | connect-mgr {:>7.2} ms | submit-alloc {:>7.2} ms | spawn-worker {:>9.2} ms | submit-code {:>7.2} ms | connect-workers {:>7.2} ms | invoke {:>7.3} ms | total {:>9.2} ms",
        format!("{sandbox:?}"),
        payload_label,
        workers,
        components[0],
        components[1],
        components[2],
        components[3],
        components[4],
        components[5],
        total
    );
    SLICES
        .iter()
        .chain(["total"].iter())
        .zip(&samples)
        .map(|(slice, values)| {
            let summary = Summary::of(values);
            ResultRow {
                series: format!("{sandbox:?} {payload_label} {slice}"),
                x: f64::from(workers),
                median: summary.median,
                p99: summary.p99,
                unit: "ms".into(),
            }
        })
        .collect()
}

pub(crate) fn run(mode: Mode) -> Vec<ResultRow> {
    let repetitions = if mode.quick() { 2 } else { 10 };
    println!("# Figure 9: cold invocation breakdown (means over {repetitions} cold starts)");
    println!("# paper: bare-metal sandbox init ~25 ms, Docker + SR-IOV ~2.7 s; spawn worker dominates, all other steps single-digit ms");
    let mut rows = Vec::new();
    for sandbox in [SandboxType::BareMetal, SandboxType::Docker] {
        for payload in [1usize, 1024 * 1024] {
            for workers in [1u32, 32] {
                rows.extend(run_case(sandbox, payload, workers, repetitions));
            }
        }
    }
    print_table(
        "Figure 9: cold invocation breakdown per slice (x = workers)",
        &rows,
    );
    rows
}

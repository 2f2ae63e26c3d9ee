//! Figure 12: parallel serverless offloading of the PARSEC Black-Scholes
//! batch — OpenMP-style local threading, full rFaaS offloading, and the
//! hybrid OpenMP + rFaaS configuration, for parallelism 1–32.
//!
//! The offloading path is the typed session API end-to-end: a
//! `FunctionHandle<OptionBatch, [f64]>` scatters the chunks with
//! `map_workers`, so all N submissions ride one doorbell (the chained-WQE
//! path of `QueuePair::post_send_batch`) and the results come back through a
//! `CompletionSet`. A third table holds the doorbell/chained-WQE cost
//! breakdown of the widest scatter, and [`CLAIMS`] holds it to the batching
//! actually happening. Expected shape: rFaaS tracks OpenMP until per-worker
//! compute approaches the transmission time, and OpenMP + rFaaS roughly
//! doubles the OpenMP speedup (paper: ~2x boost through FaaS offloading).
//!
//! The paper's batch is ~229 MB of option data (≈5 million contracts). The
//! default run scales the batch down by 8× (the compute-to-communication
//! ratio, and therefore the crossover behaviour, is unchanged because both
//! scale linearly in the option count); pass `--full` for the paper-sized
//! batch.

use crate::{every, Claim, Row, Size, Table, Testbed};
use rdma_fabric::CX5_100G;
use rfaas::{BatchStats, FunctionHandle, RFaasConfig, Session};
use sim_core::SimDuration;
use workloads::blackscholes::local_parallel_cost;
use workloads::{generate_options, OptionBatch, OPTION_WIRE_BYTES};

fn parallelism_sweep() -> Vec<usize> {
    vec![1, 4, 8, 12, 16, 20, 24, 28, 32]
}

/// Scatter the chunks across the session's workers behind one doorbell and
/// return the client-observed batch completion time plus the submission's
/// doorbell accounting.
fn offload_batch(
    session: &Session,
    pricer: &FunctionHandle<'_, OptionBatch, [f64]>,
    chunks: &[OptionBatch],
) -> (SimDuration, BatchStats) {
    let start = session.clock().now();
    let set = pricer.map_workers(chunks.iter()).expect("scatter");
    let stats = set.stats();
    let results = set.wait_all().expect("results");
    let priced: usize = results.iter().map(|r| r.len()).sum();
    assert_eq!(
        priced,
        chunks.iter().map(|c| c.len()).sum::<usize>(),
        "every option must come back priced"
    );
    (session.clock().now().saturating_since(start), stats)
}

fn split_chunks(
    options: &[workloads::blackscholes::OptionContract],
    parts: usize,
) -> Vec<OptionBatch> {
    let per_part = options.len().div_ceil(parts);
    options
        .chunks(per_part)
        .map(|c| OptionBatch(c.to_vec()))
        .collect()
}

#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    Claim { name: "the scatter shares one doorbell", source: "model",
        check: |t| every(t, ["doorbells"], |_, [doorbells]| doorbells == 1.0) },
    Claim { name: "chained WQEs = submissions - 1", source: "model",
        check: |t| every(t, ["chained WQEs", "submissions"], |_, [chained, submissions]| {
            chained == submissions - 1.0
        }) },
    Claim { name: "posting burst < unchained estimate", source: "model",
        check: |t| every(t, ["posting burst", "unchained estimate"], |_, [burst, u]| burst < u) },
];

pub(crate) fn run(size: Size) -> Vec<Table> {
    let total_options: usize = if size.full() {
        5_000_000
    } else if size.quick() {
        200_000
    } else {
        625_000
    };
    let options = generate_options(total_options, 2021);
    let input_bytes = total_options * OPTION_WIRE_BYTES;
    // Equal to the OpenMP row at parallelism 1.
    let serial = local_parallel_cost(total_options, 1);

    let mut config = RFaasConfig::paper_calibration();
    config.max_payload_bytes = input_bytes + (1 << 20);
    let mut rows = Vec::new();
    // Speedup over the serial execution (right panel of Fig. 12).
    let mut speedups = Vec::new();
    let mut push = |series: &str, x: f64, time: SimDuration| {
        rows.push(Row::value(series, x, time.as_millis_f64(), "ms"));
        speedups.push(Row::value(
            format!("speedup {series}"),
            x,
            serial.as_millis_f64() / time.as_millis_f64(),
            "x",
        ));
    };
    // Doorbell accounting of the widest scatter, for the breakdown below.
    let mut widest_batch: Option<(usize, BatchStats, usize)> = None;

    for &parallelism in &parallelism_sweep() {
        let x = parallelism as f64;
        // OpenMP: static partition over local threads.
        let openmp = local_parallel_cost(total_options, parallelism);
        push("OpenMP", x, openmp);

        // rFaaS: the entire batch offloaded to `parallelism` remote workers
        // through the typed scatter/gather path.
        let testbed = Testbed::with_config(2, config.clone());
        let session = testbed
            .session("fig12-client")
            .workers(parallelism as u32)
            .memory_mib(32 * 1024)
            .connect()
            .expect("allocation");
        let chunk_capacity = total_options.div_ceil(parallelism) * OPTION_WIRE_BYTES;
        let pricer = session
            .function::<OptionBatch, [f64]>("blackscholes")
            .expect("blackscholes deployed")
            .with_output_capacity((total_options.div_ceil(parallelism) + 64) * 8);
        let chunks = split_chunks(&options, parallelism);
        let (rfaas_time, stats) = offload_batch(&session, &pricer, &chunks);
        if widest_batch
            .as_ref()
            .is_none_or(|(p, _, _)| *p < parallelism)
        {
            widest_batch = Some((parallelism, stats, chunk_capacity));
        }
        push("rFaaS", x, rfaas_time);

        // OpenMP + rFaaS: half the batch locally, half offloaded; the
        // application finishes when the slower half finishes.
        let local_half = local_parallel_cost(total_options / 2, parallelism);
        let half_chunks = split_chunks(&options[..options.len() / 2], parallelism);
        let (remote_half, _) = offload_batch(&session, &pricer, &half_chunks);
        let hybrid = local_half.max(remote_half);
        push("OpenMP + rFaaS", x, hybrid);
        session.close().expect("deallocate");
    }

    // Chained-WQE billing breakdown of the widest scatter, against what the
    // same WQEs would have cost posted individually.
    let (parallelism, stats, chunk_capacity) =
        widest_batch.expect("at least one offloaded configuration");
    let wire = chunk_capacity + rfaas::INVOCATION_HEADER_BYTES;
    let unchained_estimate = CX5_100G.issue_cost(wire) * stats.submissions as u64;
    let chained_estimate =
        CX5_100G.issue_cost(wire) + CX5_100G.issue_cost_chained(wire) * stats.chained_wqes as u64;
    let x = parallelism as f64;
    let breakdown = vec![
        Row::value("submissions", x, stats.submissions as f64, "count"),
        Row::value("doorbells", x, stats.doorbells as f64, "count"),
        Row::value("chained WQEs", x, stats.chained_wqes as f64, "count"),
        Row::value("posting burst", x, stats.post_time.as_micros_f64(), "us"),
        Row::value(
            "chained estimate",
            x,
            chained_estimate.as_micros_f64(),
            "us",
        ),
        Row::value(
            "unchained estimate",
            x,
            unchained_estimate.as_micros_f64(),
            "us",
        ),
    ];
    let transmission = vec![Row::value(
        "network transmission of the batch",
        total_options as f64,
        CX5_100G.serialization(input_bytes).as_millis_f64(),
        "ms",
    )];

    vec![
        Table {
            title: "Figure 12 (left): Black-Scholes completion time vs parallelism",
            rows,
        },
        Table {
            title: "Figure 12 (right): speedup over serial execution",
            rows: speedups,
        },
        Table {
            title: "Figure 12: submission cost of the widest scatter (x = workers, typed map_workers path)",
            rows: breakdown,
        },
        Table {
            title: "Figure 12: network transmission time of the whole batch (x = options; paper: ~20 ms for 229 MB)",
            rows: transmission,
        },
    ]
}

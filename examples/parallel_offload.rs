//! Parallel offloading of a Black-Scholes batch to multiple rFaaS workers
//! (the Sec. V-F scenario): the client splits a large option batch across
//! several leased workers, scatters it with one doorbell-batched submission
//! burst, and combines the prices from the completion set.
//!
//! ```text
//! cargo run --release --example parallel_offload
//! ```

use cluster_sim::NodeResources;
use rdma_fabric::Fabric;
use rfaas::{RFaasConfig, ResourceManager, Session, SpotExecutor};
use sandbox::{CodePackage, FunctionRegistry};
use workloads::blackscholes::price_batch;
use workloads::{blackscholes_function, generate_options, OptionBatch};

const OPTIONS: usize = 100_000;
const WORKERS: usize = 8;

fn main() {
    // Platform setup with the Black-Scholes function deployed.
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(CodePackage::minimal("pricing").with_function(blackscholes_function()));
    let mut config = RFaasConfig::paper_calibration();
    config.max_payload_bytes = 16 * 1024 * 1024;
    let manager = ResourceManager::new(&fabric, config.clone());
    let executor = SpotExecutor::new(
        &fabric,
        "spot-node-0",
        NodeResources::xeon_gold_6154_dual(),
        registry,
        config,
    );
    manager.register_executor(&executor);

    // Lease WORKERS hot workers and grab a typed handle: option batches in,
    // one f64 price per option out.
    let session = Session::builder(&fabric, "pricing-client", &manager, "pricing")
        .workers(WORKERS as u32)
        .connect()
        .expect("allocation succeeds");
    let pricer = session
        .function::<OptionBatch, [f64]>("blackscholes")
        .expect("blackscholes is deployed");

    // Generate the batch, split it across the workers and scatter it with
    // one doorbell-batched submission burst.
    let options = generate_options(OPTIONS, 7);
    let per_worker = OPTIONS.div_ceil(WORKERS);
    let chunks: Vec<OptionBatch> = options
        .chunks(per_worker)
        .map(|c| OptionBatch(c.to_vec()))
        .collect();
    let start = session.clock().now();
    let set = pricer.map_workers(chunks.iter()).expect("scatter succeeds");
    let stats = set.stats();
    let remote_prices: Vec<f64> = set
        .wait_all()
        .expect("offloaded pricing succeeds")
        .into_iter()
        .flatten()
        .collect();
    let elapsed = session.clock().now().saturating_since(start);

    // Verify the remote prices against a local computation.
    let local_prices = price_batch(&options);
    assert_eq!(remote_prices.len(), local_prices.len());
    let max_error = remote_prices
        .iter()
        .zip(local_prices.iter())
        .map(|(r, l)| (r - l).abs())
        .fold(0.0f64, f64::max);

    println!("priced {OPTIONS} options on {WORKERS} remote workers");
    println!(
        "scatter submission: {} WQEs over {} doorbell(s), {} chained, posted in {}",
        stats.submissions, stats.doorbells, stats.chained_wqes, stats.post_time
    );
    println!("batch completion time (virtual): {elapsed}");
    println!("max |remote - local| price difference: {max_error:e}");
    assert!(
        max_error < 1e-12,
        "offloaded results must match local pricing"
    );
    assert_eq!(stats.doorbells, 1, "the scatter must share one doorbell");

    session.close().expect("deallocation succeeds");
}

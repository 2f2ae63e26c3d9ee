//! Quickstart: deploy a function, lease one executor worker and invoke it.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! This is the Rust equivalent of the paper's Listing 2, expressed through
//! the typed session API: a `Session` owns the lease and the direct RDMA
//! connections, a `FunctionHandle` infers payload sizes from its codec, and
//! every invocation is a single one-sided write into the executor's memory.

use cluster_sim::NodeResources;
use rdma_fabric::Fabric;
use rfaas::{RFaasConfig, ResourceManager, Session, SpotExecutor};
use sandbox::{echo_function, CodePackage, FunctionRegistry};

fn main() {
    // 1. The data-centre side: a fabric, a resource manager, and one spot
    //    executor offering idle resources, with our code package deployed.
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(CodePackage::minimal("quickstart").with_function(echo_function()));
    let config = RFaasConfig::paper_calibration();
    let manager = ResourceManager::new(&fabric, config.clone());
    let executor = SpotExecutor::new(
        &fabric,
        "spot-node-0",
        NodeResources {
            cores: 8,
            memory_mib: 32 * 1024,
        },
        registry,
        config,
    );
    manager.register_executor(&executor);

    // 2. The client side: build a session — one leased worker, hot polling
    //    (the cold start happens inside connect()).
    let session = Session::builder(&fabric, "client-node", &manager, "quickstart")
        .connect()
        .expect("allocation succeeds");
    let cold = session.cold_start().expect("cold start recorded");
    println!(
        "cold start: {} (spawn {}, code {})",
        cold.total(),
        cold.spawn_workers,
        cold.submit_code
    );

    // 3. Grab a typed handle and invoke: buffers, payload lengths and result
    //    decoding all come from the codec.
    let echo = session
        .function::<[u8], [u8]>("echo")
        .expect("echo is deployed");
    let message = b"hello, high-performance serverless!";
    for i in 0..5 {
        let (reply, rtt) = echo.invoke_timed(message).expect("invocation succeeds");
        assert_eq!(&reply, message);
        println!(
            "invocation {i}: {} bytes echoed in {rtt} (hot invocation over RDMA)",
            reply.len()
        );
    }

    // 4. Close the session; the executor's resources return to the pool.
    session.close().expect("deallocation succeeds");
    println!(
        "lease released; total platform cost: {:.6} USD",
        manager.total_cost()
    );
}

//! Serverless machine-learning inference (the Sec. V-E(b) scenario): an
//! image-recognition function runs in a Docker-isolated executor reached
//! through an SR-IOV virtual function, and the model stays cached in the warm
//! executor across invocations.
//!
//! ```text
//! cargo run --release --example serverless_inference
//! ```

use cluster_sim::NodeResources;
use rdma_fabric::Fabric;
use rfaas::{RFaasConfig, ResourceManager, Session, SpotExecutor};
use sandbox::{CodePackage, FunctionRegistry, SandboxType};
use workloads::{image_recognition_function, Image, InputSizes};

fn main() {
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(
        CodePackage::new("ml-inference", "pytorch-resnet50:1.9", 180 * 1024)
            .with_function(image_recognition_function()),
    );
    let config = RFaasConfig::paper_calibration();
    let manager = ResourceManager::new(&fabric, config.clone());
    let executor = SpotExecutor::new(
        &fabric,
        "gpuless-node-0",
        NodeResources::xeon_gold_6154_dual(),
        registry,
        config,
    );
    manager.register_executor(&executor);

    // Docker sandbox: stronger isolation, the RDMA NIC is reached through an
    // SR-IOV virtual function (adds ~50 ns per hot invocation).
    let session = Session::builder(&fabric, "inference-client", &manager, "ml-inference")
        .sandbox(SandboxType::Docker)
        .connect()
        .expect("allocation succeeds");
    println!(
        "Docker cold start: {} (paper: ~2.7 s with the SR-IOV plugin)",
        session.cold_start().expect("recorded").total()
    );

    // Typed handle: an image goes in, 1000 class logits come out.
    let classify = session
        .function::<Image, [f64]>("image-recognition")
        .expect("function deployed")
        .with_output_capacity(1000 * 8);
    for (label, size) in [
        ("small (53 kB)", InputSizes::INFERENCE_SMALL),
        ("large (230 kB)", InputSizes::INFERENCE_LARGE),
    ] {
        let image = Image::synthetic(size, 42);
        // First call loads the model into executor memory; later calls reuse it.
        for round in 0..3 {
            let (logits, rtt) = classify.invoke_timed(&image).expect("inference succeeds");
            let (best_class, best_logit) = logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .expect("1000 classes");
            println!(
                "{label} input, invocation {round}: class {best_class} (logit {best_logit:.3}), latency {rtt}"
            );
        }
    }

    session.close().expect("deallocation succeeds");
}

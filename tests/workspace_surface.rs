//! Smoke tests for the workspace surface: the umbrella crate must re-export
//! every layer, and the `rfaas` crate-level doc example (lease → hot invoke →
//! deallocate) must keep working both as a doctest (`cargo test --doc -p
//! rfaas`, run by tier-1 and CI) and as this compiled mirror of it — so a
//! regression in the documented entry-point flow fails the suite even if
//! doctests are filtered out.

use rfaas_repro::cluster_sim::NodeResources;
use rfaas_repro::rdma_fabric::Fabric;
use rfaas_repro::rfaas::{RFaasConfig, ResourceManager, Session, SpotExecutor};
use rfaas_repro::sandbox::{echo_function, CodePackage, FunctionRegistry};

/// Mirror of the `rfaas` crate-level doc example, invoked through the
/// umbrella crate's re-exports.
#[test]
fn rfaas_doc_example_flow_runs() {
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(CodePackage::minimal("demo").with_function(echo_function()));
    let manager = ResourceManager::new(&fabric, RFaasConfig::default());
    let executor = SpotExecutor::new(
        &fabric,
        "node-1",
        NodeResources {
            cores: 4,
            memory_mib: 8192,
        },
        registry,
        RFaasConfig::default(),
    );
    manager.register_executor(&executor);

    let session = Session::builder(&fabric, "client", &manager, "demo")
        .connect()
        .unwrap();
    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    let (reply, rtt) = echo.invoke_timed(b"hello rfaas").unwrap();
    assert_eq!(reply, b"hello rfaas");
    assert!(rtt.as_micros_f64() < 50.0);
    session.close().unwrap();
}

/// Every workspace layer is reachable through the umbrella crate, in DAG
/// order from `sim_core` at the bottom upward.
#[test]
fn umbrella_reexports_every_layer() {
    // sim-core: virtual time.
    let t = rfaas_repro::sim_core::SimDuration::from_micros(3);
    assert_eq!(t.as_nanos(), 3_000);

    // rdma-fabric: NIC cost profile.
    let profile = rfaas_repro::rdma_fabric::NicProfile::default();
    assert!(profile.one_way_latency.as_nanos() > 0);

    // net-stack: base64 codec used by the REST baselines.
    assert_eq!(rfaas_repro::net_stack::base64_encode(b"foo"), "Zm9v");

    // cluster-sim: the paper's evaluation node shape.
    let node = rfaas_repro::cluster_sim::NodeResources::xeon_gold_6154_dual();
    assert_eq!(node.cores, 36);

    // sandbox: the echo function ships in every registry.
    assert_eq!(rfaas_repro::sandbox::echo_function().name(), "echo");

    // workloads: deterministic payload generation.
    let payload = rfaas_repro::workloads::generate_payload(128, 7);
    assert_eq!(payload.len(), 128);
    assert_eq!(payload, rfaas_repro::workloads::generate_payload(128, 7));

    // faas-baselines: REST-based platforms exist for comparison.
    let lambda = rfaas_repro::faas_baselines::aws_lambda();
    assert!(lambda.accepts_payload(1024));

    // mpi-sim: cost model of the message-passing layer.
    let mpi = rfaas_repro::mpi_sim::MpiCostModel::cluster_100g();
    assert!(mpi.latency.as_nanos() > 0);
}

/// Every directory under `shims/` is a workspace member that at least one
/// `crates/*/Cargo.toml` names as a dependency, so a stand-in crate cannot
/// outlive its last caller. Reads the manifests as text: the shim directory
/// name is the dependency name.
#[test]
fn every_shim_is_a_member_with_a_dependent() {
    use std::fs;
    use std::path::Path;

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace = fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let crate_manifests: Vec<String> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| fs::read_to_string(entry.unwrap().path().join("Cargo.toml")).unwrap())
        .collect();

    for entry in fs::read_dir(root.join("shims")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            workspace.contains(&format!("\"shims/{name}\"")),
            "shims/{name} is not a workspace member"
        );
        let depended_on = crate_manifests.iter().any(|manifest| {
            manifest.lines().any(|line| {
                line.strip_prefix(name.as_str())
                    .is_some_and(|rest| rest.starts_with(".workspace") || rest.starts_with(" ="))
            })
        });
        assert!(
            depended_on,
            "no crates/*/Cargo.toml depends on shims/{name}"
        );
    }
}

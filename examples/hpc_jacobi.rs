//! MPI + rFaaS acceleration of a Jacobi solver (the Sec. V-G(b) scenario):
//! every simulated MPI rank offloads half of each iteration to a leased
//! function and caches the system matrix in the warm executor.
//!
//! ```text
//! cargo run --release --example hpc_jacobi
//! ```

use cluster_sim::NodeResources;
use rdma_fabric::Fabric;
use rfaas::{RFaasConfig, ResourceManager, Session, SpotExecutor};
use sandbox::{CodePackage, FunctionRegistry};
use workloads::jacobi::{encode_install, encode_iterate, jacobi_sweep_rows, sweep_cost};
use workloads::{jacobi_function, JacobiSystem, MpiWorld};

const RANKS: usize = 4;
const UNKNOWNS: usize = 600;
const ITERATIONS: usize = 50;

fn main() {
    // Shared platform: one manager, two spot executors, the Jacobi function.
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(CodePackage::minimal("solver").with_function(jacobi_function()));
    let mut config = RFaasConfig::paper_calibration();
    config.max_payload_bytes = UNKNOWNS * UNKNOWNS * 8 + 64 * 1024;
    let manager = ResourceManager::new(&fabric, config.clone());
    for i in 0..2 {
        let executor = SpotExecutor::new(
            &fabric,
            &format!("spot-node-{i}"),
            NodeResources::xeon_gold_6154_dual(),
            registry.clone(),
            config.clone(),
        );
        manager.register_executor(&executor);
    }

    // All ranks solve the same deployed system (the cached matrix lives in
    // the code package shared by every executor process): one copy is
    // generated here and lent to every rank.
    let system = JacobiSystem::generate(UNKNOWNS, 7);
    let world = MpiWorld::new(RANKS);
    // Each rank's session runs on the rank's clock: offloads, local sweeps
    // and barriers charge one timeline per rank.
    let sessions = world.each(|rank| {
        Session::builder(
            &fabric,
            &format!("rank-{}", rank.rank()),
            &manager,
            "solver",
        )
        .clock(rank.clock())
        .connect()
        .expect("allocation succeeds")
    });
    // Jacobi messages are pre-encoded wire bytes; the solver returns the
    // remote half of the iterate as f64s.
    let solvers = world.each(|rank| {
        sessions[rank.rank()]
            .function::<[u8], [f64]>("jacobi")
            .expect("jacobi is deployed")
            .with_output_capacity(UNKNOWNS * 8)
    });
    let mut xs = world.each(|_| vec![0.0f64; UNKNOWNS]);
    // The barrier aligns every rank: each solve is timed from one instant.
    world.barrier();
    let starts = world.each(|rank| rank.clock().now());
    // The ranks run in lockstep: every rank submits, then every rank sweeps
    // its local half, then every rank waits for its remote half.
    for iteration in 0..ITERATIONS {
        let futures = world.each(|rank| {
            let x = &xs[rank.rank()];
            // First invocation ships the matrix; later ones only the vector.
            let message = if iteration == 0 {
                encode_install(&system, x, UNKNOWNS / 2, UNKNOWNS)
            } else {
                encode_iterate(x, UNKNOWNS / 2, UNKNOWNS)
            };
            solvers[rank.rank()]
                .submit(&message[..])
                .expect("submission succeeds")
        });
        let locals = world.each(|rank| {
            rank.compute(sweep_cost(UNKNOWNS / 2, UNKNOWNS));
            jacobi_sweep_rows(&system, &xs[rank.rank()], 0, UNKNOWNS / 2)
        });
        for ((x, local_half), future) in xs.iter_mut().zip(locals).zip(futures) {
            x[..UNKNOWNS / 2].copy_from_slice(&local_half);
            x[UNKNOWNS / 2..].copy_from_slice(&future.wait().expect("offloaded half succeeds"));
        }
    }
    let elapsed = world.each(|rank| rank.clock().now().saturating_since(starts[rank.rank()]));
    for session in sessions {
        session.close().expect("deallocation succeeds");
    }

    println!("Jacobi solver: {UNKNOWNS} unknowns, {ITERATIONS} iterations, {RANKS} MPI ranks, half of every sweep offloaded to rFaaS");
    for (rank, (elapsed, x)) in elapsed.iter().zip(&xs).enumerate() {
        let residual = system.residual(x);
        println!("rank {rank}: solve time (virtual) {elapsed}, final residual {residual:.3e}");
        assert!(residual.is_finite());
    }
    let mpi_only = sweep_cost(UNKNOWNS, UNKNOWNS) * ITERATIONS as u64;
    let accelerated = *elapsed.iter().max().expect("at least one rank");
    println!(
        "MPI-only sweep cost per rank: {mpi_only}; MPI + rFaaS: {accelerated}  (speedup {:.2}x)",
        mpi_only.as_secs_f64() / accelerated.as_secs_f64()
    );
}

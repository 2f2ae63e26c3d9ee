//! Evaluation workloads of the rFaaS paper.
//!
//! Every kernel is implemented for real (the numbers that come back from an
//! offloaded invocation are the correct numbers), and each exposes a
//! `*_function()` constructor returning a [`sandbox::SharedFunction`] whose
//! attached cost model charges realistic execution time on the executing
//! worker's virtual clock.
//!
//! * [`blackscholes`] — the PARSEC Black-Scholes option-pricing kernel used
//!   for the parallel-offloading study (Fig. 12),
//! * [`matmul`] — per-rank matrix-matrix multiplication for the MPI + rFaaS
//!   experiment (Fig. 13a),
//! * [`jacobi`] — the Jacobi linear solver with executor-side caching of the
//!   system matrix (Fig. 13b),
//! * [`comm`] — the bulk-synchronous MPI world (rank clocks, barrier) the
//!   HPC applications of Fig. 13 run on,
//! * [`thumbnailer`] — SeBS-style thumbnail generation over synthetic RGB
//!   images (Fig. 11a),
//! * [`inference`] — a ResNet-50-scale CNN inference kernel (Fig. 11b),
//! * [`payload`] — payload generators and the input sizes used in Sec. V,
//! * [`streaming`] — stateful streaming aggregation with the running
//!   aggregate resident in the RDMA state plane.

pub mod blackscholes;
pub mod comm;
pub mod inference;
pub mod jacobi;
pub mod matmul;
pub mod payload;
pub mod streaming;
pub mod thumbnailer;

pub use blackscholes::{blackscholes_function, generate_options, price_batch, OptionContract};
pub use comm::{MpiWorld, Rank};
pub use inference::image_recognition_function;
pub use jacobi::{jacobi_function, JacobiSystem};
pub use matmul::matmul_function;
pub use payload::{
    generate_payload, ImageView, InputSizes, OptionBatch, OptionBatchView, OPTION_WIRE_BYTES,
};
pub use streaming::{streaming_aggregation_function, StreamAggregate, AGGREGATE_KEY};
pub use thumbnailer::{thumbnailer_function, Image};

//! Baseline models the paper compares rFaaS against: AWS Lambda, OpenWhisk
//! and Nightcore (Fig. 1), and the kernel TCP round trip of `netperf`
//! (Fig. 8, [`tcp`]).
//!
//! The paper compares rFaaS against a commercial platform (AWS Lambda with a
//! native C++ runtime) and two open-source platforms deployed on the same
//! cluster (Apache OpenWhisk and Nightcore). Re-hosting those systems is not
//! possible here, so this crate models their *invocation paths*: the sequence
//! of hops, copies, queueing layers and payload encodings a warm invocation
//! traverses (Sec. II-B, Fig. 3). Component costs are calibrated so that the
//! end-to-end numbers match the measurements reported in Fig. 1:
//!
//! | platform  | small-payload RTT | sustained goodput |
//! |-----------|------------------:|------------------:|
//! | AWS Lambda| 19.64 ms          | 17.21 MB/s        |
//! | OpenWhisk | 119.18 ms         | 1.79 MB/s         |
//! | Nightcore | 209.45 µs         | 453.72 MB/s       |
//!
//! What matters for the reproduction is the *architecture* each number stems
//! from: Lambda pays a WAN round trip, a centralized placement service and a
//! JSON/base64 API; OpenWhisk adds an API gateway, a controller, a Kafka hop
//! and a Docker action runtime; Nightcore strips the path down to a local
//! binary RPC gateway but still crosses the kernel TCP stack twice.

pub mod path;
pub mod platforms;
pub mod tcp;

pub use path::{InvocationPath, PathComponent};
pub use platforms::{aws_lambda, nightcore, openwhisk, BaselinePlatform};
pub use tcp::KERNEL_100G;

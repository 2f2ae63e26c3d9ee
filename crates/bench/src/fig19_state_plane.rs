//! Figure 19: state-plane access vs copy-in/copy-out across value sizes.
//!
//! rFaaS as evaluated in the paper is stateless: any value a function needs
//! must travel inside the invocation payload and any value it produces must
//! travel back, so the wire cost of working over a reference dataset scales
//! with the dataset, not with the request. This experiment measures the
//! state plane this codebase adds on top of the paper's design: the dataset
//! lives in a distributed KV store reachable over one-sided RDMA, functions
//! declare it with `with_state`, and the executor-side state client caches
//! hot keys in a pre-registered region so repeated reads cost no wire
//! traffic at all.
//!
//! Three series are swept over the dataset size:
//!
//! * **copy-in/copy-out** — the stateless baseline: an echo invocation
//!   carrying the dataset both ways,
//! * **state plane first read** — the invocation that materialises the key
//!   into the executor's cache over a one-sided READ (the value moves once,
//!   one way),
//! * **state plane hot** — every later invocation: the key is cache-resident
//!   and only the 8-byte request/fingerprint frames touch the wire.
//!
//! A second table measures the read-write path on the same session: the
//! `stream-aggregate` function declares its running aggregate
//! `StateKey::read_write`, folds a batch of readings into it and writes it
//! back through the executor's state client. It reports the round trip per
//! batch size (x = readings per batch); the first batch also pays the
//! aggregate's first read into the executor's cache.
//!
//! [`CLAIMS`] holds hot state access to beating copy-in/copy-out by at
//! least 5x at the megabyte sizes — the headline that makes stateful
//! functions worth a second data plane.

use crate::{every, Claim, Row, Size, Table, Testbed, DATASET_KEY};
use rfaas::{PollingMode, StateKey, StatePlane};
use sandbox::SandboxType;
use workloads::AGGREGATE_KEY;

/// Dataset sizes swept (bytes). The default payload ceiling is 8 MiB, so the
/// copy baseline can carry every size.
const SIZES: [usize; 4] = [4 * 1024, 64 * 1024, 1024 * 1024, 4 * 1024 * 1024];

const COPY: &str = "copy-in/copy-out";
const FIRST: &str = "state plane first read";
const HOT: &str = "state plane hot";
/// Readings per `stream-aggregate` batch of the read-write table.
const BATCHES: [usize; 3] = [8, 64, 512];

/// One MiB, the smallest of the megabyte sizes.
const MIB: f64 = (1024 * 1024) as f64;

#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    Claim { name: "hot <= first read at every size", source: "model",
        check: |t| every(t, [HOT, FIRST], |_, [hot, first]| hot <= first) },
    Claim { name: "copy >= 5x hot at MiB sizes", source: "model",
        check: |t| every(t, [COPY, HOT], |x, [copy, hot]| x < MIB || copy / hot >= 5.0) },
    Claim { name: "first read < copy at MiB sizes", source: "model",
        check: |t| every(t, [FIRST, COPY], |x, [first, copy]| x < MIB || first < copy) },
];

pub(crate) fn run(_size: Size) -> Vec<Table> {
    let testbed = Testbed::new(1);
    let plane = StatePlane::new(&testbed.fabric, "state-0", 64 * 1024 * 1024);
    let session = testbed
        .session("fig19-client")
        .sandbox(SandboxType::BareMetal)
        .polling(PollingMode::Hot)
        .state_plane(&plane)
        .connect()
        .expect("allocation with a state plane attached");

    // Seed the key once so the read-only declaration below binds; each size
    // then overwrites it, which invalidates the executor's cached copy and
    // makes the next read a genuine first read.
    session
        .state()
        .put(DATASET_KEY, &[0u8; 8])
        .expect("seed dataset key");
    let echo = session.function::<[u8], [u8]>("echo").expect("echo");
    let touch = session
        .function::<[u8], [u8]>("state-touch")
        .expect("state-touch")
        .with_state([StateKey::read(DATASET_KEY)])
        .expect("dataset key declared");

    let mut rows = Vec::new();
    for &size in &SIZES {
        let dataset = workloads::generate_payload(size, size as u64);

        // Stateless baseline: the dataset travels inside the invocation,
        // there and back again.
        let (reply, copy) = echo.invoke_timed(&dataset[..]).expect("copy baseline");
        assert_eq!(reply.len(), size);

        // Publish the dataset; the executor's cached copy (if any) is
        // invalidated, so the next touch pays the one-sided READ.
        session
            .state()
            .put(DATASET_KEY, &dataset)
            .expect("publish dataset");
        let expected = (size + dataset[0] as usize + dataset[size - 1] as usize) as u64;
        let (reply, first) = touch.invoke_timed(&[0u8; 8][..]).expect("first read");
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), expected);

        // Steady state: the key is hot in the executor's cache.
        let (reply, hot) = touch.invoke_timed(&[0u8; 8][..]).expect("hot read");
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), expected);

        let [copy, first, hot] = [copy, first, hot].map(|d| d.as_micros_f64());
        let x = size as f64;
        rows.push(Row::value(COPY, x, copy, "us"));
        rows.push(Row::value(FIRST, x, first, "us"));
        rows.push(Row::value(HOT, x, hot, "us"));
    }

    let stats = session.stats();
    let exec = stats.state_executor.expect("executor-side state client");
    assert_eq!(
        exec.remote_reads as usize,
        SIZES.len(),
        "exactly one one-sided READ per published size"
    );
    assert!(
        exec.cache_hits as usize >= SIZES.len(),
        "hot touches must be cache hits"
    );

    // The read-write path: each batch folds into the aggregate, which the
    // executor writes back to the plane.
    session
        .state()
        .put(AGGREGATE_KEY, &[])
        .expect("seed aggregate key");
    let aggregate = session
        .function::<[f64], [f64]>("stream-aggregate")
        .expect("stream-aggregate")
        .with_state([StateKey::read_write(AGGREGATE_KEY)])
        .expect("aggregate key declared");
    let mut folded = 0.0;
    let mut read_write = Vec::new();
    for &readings in &BATCHES {
        let batch = vec![1.0f64; readings];
        let (reply, rtt) = aggregate.invoke_timed(&batch[..]).expect("aggregate batch");
        folded += readings as f64;
        assert_eq!(reply[0], folded, "the aggregate counts every reading");
        read_write.push(Row::value(
            "read-write aggregate",
            readings as f64,
            rtt.as_micros_f64(),
            "us",
        ));
    }
    session.close().expect("deallocate");
    vec![
        Table {
            title: "Figure 19: state-plane access vs copy-in/copy-out",
            rows,
        },
        Table {
            title: "Figure 19: read-write state (x = readings per batch)",
            rows: read_write,
        },
    ]
}

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
//! The run aborts unless hot state access beats copy-in/copy-out by at
//! least 5x at the megabyte sizes — the headline that makes stateful
//! functions worth a second data plane.

use crate::{print_table, summarize_us, Mode, ResultRow, Testbed, DATASET_KEY};
use rfaas::{PollingMode, StateKey, StatePlane};
use sandbox::SandboxType;
use sim_core::SimDuration;

/// Dataset sizes swept (bytes). The default payload ceiling is 8 MiB, so the
/// copy baseline can carry every size.
const SIZES: [usize; 4] = [4 * 1024, 64 * 1024, 1024 * 1024, 4 * 1024 * 1024];

/// Hot invocations measured per size after the cache-filling first read.
const HOT_INVOCATIONS: usize = 4;

struct SizePoint {
    copy: Vec<SimDuration>,
    first_read: Vec<SimDuration>,
    hot: Vec<SimDuration>,
}

fn run_rep(rep: usize, points: &mut [SizePoint]) {
    let testbed = Testbed::new(1);
    let plane = StatePlane::new(&testbed.fabric, "state-0", 64 * 1024 * 1024);
    let session = testbed
        .session(&format!("fig19-client-{rep}"))
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

    for (point, &size) in points.iter_mut().zip(&SIZES) {
        let dataset = workloads::generate_payload(size, size as u64);

        // Stateless baseline: the dataset travels inside the invocation,
        // there and back again.
        let (reply, rtt) = echo.invoke_timed(&dataset[..]).expect("copy baseline");
        assert_eq!(reply.len(), size);
        point.copy.push(rtt);

        // Publish the dataset; the executor's cached copy (if any) is
        // invalidated, so the next touch pays the one-sided READ.
        session
            .state()
            .put(DATASET_KEY, &dataset)
            .expect("publish dataset");
        let expected = (size + dataset[0] as usize + dataset[size - 1] as usize) as u64;
        let (reply, rtt) = touch.invoke_timed(&[0u8; 8][..]).expect("first read");
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), expected);
        point.first_read.push(rtt);

        // Steady state: the key is hot in the executor's cache.
        for _ in 0..HOT_INVOCATIONS {
            let (reply, rtt) = touch.invoke_timed(&[0u8; 8][..]).expect("hot read");
            assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), expected);
            point.hot.push(rtt);
        }
    }

    let stats = session.stats();
    let exec = stats.state_executor.expect("executor-side state client");
    assert_eq!(
        exec.remote_reads as usize,
        SIZES.len(),
        "exactly one one-sided READ per published size"
    );
    assert!(
        exec.cache_hits as usize >= SIZES.len() * HOT_INVOCATIONS,
        "hot touches must be cache hits"
    );
    session.close().expect("deallocate");
}

pub(crate) fn run(mode: Mode) -> Vec<ResultRow> {
    let repetitions = if mode.quick() { 3 } else { 10 };
    println!(
        "# Figure 19: state-plane access vs copy-in/copy-out ({repetitions} reps, {HOT_INVOCATIONS} hot invocations per size)"
    );

    let mut points: Vec<SizePoint> = SIZES
        .iter()
        .map(|_| SizePoint {
            copy: Vec::new(),
            first_read: Vec::new(),
            hot: Vec::new(),
        })
        .collect();
    for rep in 0..repetitions {
        run_rep(rep, &mut points);
    }

    let mut rows = Vec::new();
    for (point, &size) in points.iter().zip(&SIZES) {
        for (series, samples) in [
            ("copy-in/copy-out", &point.copy),
            ("state plane first read", &point.first_read),
            ("state plane hot", &point.hot),
        ] {
            let s = summarize_us(samples);
            rows.push(ResultRow {
                series: series.into(),
                x: size as f64,
                median: s.median,
                p99: s.p99,
                unit: "us".into(),
            });
        }
    }
    print_table("Figure 19: state-plane access vs copy-in/copy-out", &rows);

    // The headline gate: at megabyte sizes, a hot state read beats shipping
    // the value with the invocation by at least 5x.
    for (point, &size) in points.iter().zip(&SIZES) {
        let copy = summarize_us(&point.copy).median;
        let first = summarize_us(&point.first_read).median;
        let hot = summarize_us(&point.hot).median;
        println!(
            "# {size} B: copy {copy:.3} us, first read {first:.3} us, hot {hot:.3} us ({:.1}x)",
            copy / hot
        );
        assert!(
            hot <= first,
            "a cache hit cannot cost more than the READ that filled it: hot {hot} us, first {first} us at {size} B"
        );
        if size >= 1024 * 1024 {
            assert!(
                copy / hot >= 5.0,
                "hot state access must be >= 5x cheaper than copy-in/copy-out at {size} B, got {:.1}x",
                copy / hot
            );
            assert!(
                first < copy,
                "the one-sided READ moves the value once; copying moves it twice: first {first} us, copy {copy} us at {size} B"
            );
        }
    }
    rows
}

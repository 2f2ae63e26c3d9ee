//! Figure 18: the fork tier between warm and cold.
//!
//! rFaaS as evaluated in the paper offers exactly two allocation costs: a
//! ~25 ms cold spawn or an already-running executor. This experiment adds
//! the MITOSIS-style middle tier this codebase implements on top of the
//! paper's design: deallocated sandboxes park in a per-executor warm pool,
//! and a later allocation of the same package either *remote-forks* from a
//! parked parent's snapshot (child pages fault in lazily over one-sided
//! RDMA reads, no parent CPU involvement) or resumes the parked parent
//! outright.
//!
//! Three setup tiers are measured — cold spawn, remote fork, warm-pool hit —
//! as the executor-side allocation cost (sandbox provisioning + code
//! submission; the control-plane slices are identical across tiers and
//! excluded). A second section sweeps the forked child's first invocations:
//! each early invocation pays one prefetch batch of page faults, so the RTT
//! decays to the warm steady state once the page map is fully resident.
//!
//! [`CLAIMS`] holds the fork tier to its headline: a forked allocation lands
//! under 100 µs and at least 100× below the cold spawn.

use crate::{rows, xs, Claim, Row, Size, Table, Testbed};
use rfaas::{AllocationPolicy, PollingMode, RFaasConfig, Session};
use sim_core::SimDuration;

/// Invocations swept on the freshly forked child. Five 32-page prefetch
/// batches cover the minimal executor image, so the tail of the sweep is
/// fault-free steady state.
const SPECTRUM_INVOCATIONS: usize = 8;

fn pool_config() -> RFaasConfig {
    let mut config = RFaasConfig::paper_calibration();
    // The paper-calibrated default keeps warm pooling off; the fork tier is
    // the subject here, so give every (sandbox, package) key two slots: the
    // parked parent plus the returned child.
    config.warm_pool_capacity = 2;
    config
}

/// Executor-side allocation cost of a session: sandbox provisioning plus
/// code submission.
fn setup_cost(session: &Session) -> SimDuration {
    let cold = session.cold_start().expect("allocation recorded");
    cold.spawn_workers + cold.submit_code
}

#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    Claim { name: "forked allocation < 100 us", source: "model",
        check: |t| rows(t, [(FORK, 0.0)], |[forked]| forked < 100.0) },
    Claim { name: "forked allocation >= 100x below cold", source: "model",
        check: |t| rows(t, [(COLD, 0.0), (FORK, 0.0)], |[cold, forked]| cold / forked >= 100.0) },
    Claim { name: "fork < warm-pool hit < cold", source: "model",
        check: |t| rows(t, [(FORK, 0.0), (POOL, 0.0), (COLD, 0.0)], |[f, p, c]| f < p && p < c) },
    Claim { name: "the first forked invocation pays fault batches, the last none", source: "model",
        check: |t| {
            let xs = xs(t, FORKED)?;
            rows(t, [(FORKED, xs[0]), (FORKED, xs[xs.len() - 1])], |[first, last]| first > last)
        } },
];

const COLD: &str = "cold spawn";
const FORK: &str = "remote fork";
const POOL: &str = "warm-pool hit";
const FORKED: &str = "forked invocation";

pub(crate) fn run(_size: Size) -> Vec<Table> {
    let testbed = Testbed::with_config(1, pool_config());

    // Tier 1: a full cold spawn — and, once closed, the warm parent every
    // later tier draws from.
    let parent = testbed
        .session("fig18-parent")
        .polling(PollingMode::Warm)
        .connect()
        .expect("cold allocation");
    let cold = setup_cost(&parent);
    parent.close().expect("deallocate parks the parent");

    // Tier 2: remote fork from the parked parent's snapshot. The parent
    // stays parked (it only donates pages); the child's first invocations
    // below pay the fault batches.
    let forked_session = testbed
        .session("fig18-fork")
        .polling(PollingMode::Warm)
        .allocation_policy(AllocationPolicy::Fork)
        .connect()
        .expect("fork allocation");
    let forked = setup_cost(&forked_session);
    let fork_state = || {
        forked_session
            .stats()
            .fork
            .expect("fork provisioning leaves a fault schedule")
    };
    assert_eq!(
        fork_state().pages_faulted(),
        0,
        "pages fault lazily, not at fork"
    );

    let echo = forked_session.function::<[u8], [u8]>("echo").expect("echo");
    let payload = workloads::generate_payload(8, 7);
    let fork_rtts: Vec<SimDuration> = (0..SPECTRUM_INVOCATIONS)
        .map(|_| {
            echo.invoke_timed(&payload)
                .expect("invoke on forked child")
                .1
        })
        .collect();
    assert!(
        fork_state().is_complete(),
        "the sweep must fault the whole page map in"
    );
    forked_session.close().expect("deallocate parks the child");

    // Tier 3: a warm-pool hit resumes the oldest parked parent outright.
    let pooled = testbed
        .session("fig18-pool")
        .polling(PollingMode::Warm)
        .allocation_policy(AllocationPolicy::WarmPool)
        .connect()
        .expect("warm-pool allocation");
    let warm_hit = setup_cost(&pooled);
    pooled.close().expect("deallocate");

    let [cold, forked, warm_hit] = [cold, forked, warm_hit].map(|d| d.as_micros_f64());

    let mut rows = vec![
        Row::value(COLD, 0.0, cold, "us"),
        Row::value(FORK, 0.0, forked, "us"),
        Row::value(POOL, 0.0, warm_hit, "us"),
    ];
    for (i, rtt) in fork_rtts.iter().enumerate() {
        rows.push(Row::value(
            FORKED,
            (i + 1) as f64,
            rtt.as_micros_f64(),
            "us",
        ));
    }
    vec![Table {
        title: "Figure 18: the fork tier between warm and cold (x = 0: executor-side allocation cost; x = i: the forked child's i-th invocation)",
        rows,
    }]
}

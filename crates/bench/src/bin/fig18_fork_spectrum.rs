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
//! The run aborts unless the fork tier delivers its headline: a forked
//! allocation lands under 100 µs and at least 100× below the cold spawn.

use rfaas::{AllocationPolicy, PollingMode, RFaasConfig, Session};
use rfaas_bench::{print_table, quick_mode, summarize_us, ResultRow, Testbed};
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

struct Rep {
    cold: SimDuration,
    forked: SimDuration,
    warm_hit: SimDuration,
    /// RTT of the forked child's i-th invocation.
    fork_rtts: Vec<SimDuration>,
}

fn run_rep(rep: usize) -> Rep {
    let testbed = Testbed::with_config(1, pool_config());

    // Tier 1: a full cold spawn — and, once closed, the warm parent every
    // later tier draws from.
    let parent = testbed
        .session(&format!("fig18-parent-{rep}"))
        .polling(PollingMode::Warm)
        .connect()
        .expect("cold allocation");
    let cold = setup_cost(&parent);
    parent.close().expect("deallocate parks the parent");

    // Tier 2: remote fork from the parked parent's snapshot. The parent
    // stays parked (it only donates pages); the child's first invocations
    // below pay the fault batches.
    let forked_session = testbed
        .session(&format!("fig18-fork-{rep}"))
        .polling(PollingMode::Warm)
        .allocation_policy(AllocationPolicy::Fork)
        .connect()
        .expect("fork allocation");
    let forked = setup_cost(&forked_session);
    let fork_state = forked_session
        .stats()
        .fork
        .expect("fork provisioning leaves a fault schedule");
    assert_eq!(
        fork_state.pages_faulted(),
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
        fork_state.is_complete(),
        "the sweep must fault the whole page map in"
    );
    forked_session.close().expect("deallocate parks the child");

    // Tier 3: a warm-pool hit resumes the oldest parked parent outright.
    let pooled = testbed
        .session(&format!("fig18-pool-{rep}"))
        .polling(PollingMode::Warm)
        .allocation_policy(AllocationPolicy::WarmPool)
        .connect()
        .expect("warm-pool allocation");
    let warm_hit = setup_cost(&pooled);
    pooled.close().expect("deallocate");

    Rep {
        cold,
        forked,
        warm_hit,
        fork_rtts,
    }
}

fn main() {
    let repetitions = if quick_mode() { 5 } else { 20 };
    println!("# Figure 18: cold spawn vs remote fork vs warm-pool hit (executor-side allocation cost over {repetitions} reps)");

    let reps: Vec<Rep> = (0..repetitions).map(run_rep).collect();

    let mut rows = Vec::new();
    for (series, samples) in [
        (
            "cold spawn",
            reps.iter().map(|r| r.cold).collect::<Vec<_>>(),
        ),
        ("remote fork", reps.iter().map(|r| r.forked).collect()),
        ("warm-pool hit", reps.iter().map(|r| r.warm_hit).collect()),
    ] {
        let s = summarize_us(&samples);
        rows.push(ResultRow {
            series: series.into(),
            x: 0.0,
            median: s.median,
            p99: s.p99,
            unit: "us".into(),
        });
    }
    for i in 0..SPECTRUM_INVOCATIONS {
        let samples: Vec<_> = reps.iter().map(|r| r.fork_rtts[i]).collect();
        let s = summarize_us(&samples);
        rows.push(ResultRow {
            series: "forked invocation".into(),
            x: (i + 1) as f64,
            median: s.median,
            p99: s.p99,
            unit: "us".into(),
        });
    }
    print_table("Figure 18: the fork tier between warm and cold", &rows);

    // The fork-tier gate: forked allocations are µs-scale and at least two
    // orders of magnitude below the cold spawn, with the warm-pool resume
    // strictly in between.
    let cold = rows[0].median;
    let forked = rows[1].median;
    let warm_hit = rows[2].median;
    let ratio = cold / forked;
    println!(
        "\n# fork tier (cold {cold:.1} us, warm-pool hit {warm_hit:.1} us, forked {forked:.1} us, cold/forked {ratio:.0}x)"
    );
    assert!(
        forked < 100.0,
        "forked allocation must stay under 100 us, got {forked} us"
    );
    assert!(
        ratio >= 100.0,
        "fork must be >= 100x cheaper than cold, got {ratio}x"
    );
    assert!(
        forked < warm_hit && warm_hit < cold,
        "setup hierarchy violated: forked {forked} us, warm-pool {warm_hit} us, cold {cold} us"
    );

    // The fault residue decays: the first invocation pays a prefetch batch
    // on top of the warm path, the last is batch-free steady state.
    let first = rows[3].median;
    let steady = rows[rows.len() - 1].median;
    println!("# fault decay (invocation 1: {first:.3} us, invocation {SPECTRUM_INVOCATIONS}: {steady:.3} us)");
    assert!(
        first > steady,
        "early forked invocations must pay fault batches: first {first} us, steady {steady} us"
    );
}

//! Integration tests pinning the reproduction's headline performance claims
//! to the numbers reported in the paper (Sec. V-A, V-C, V-D). Each band is a
//! claim of the figure whose rows hold the numbers (fig8, fig1, fig10); these
//! tests check that the figure still declares it, by name, and that it holds.

mod claims;

use claims::claims_hold;

#[test]
fn hot_invocation_latency_matches_paper() {
    // Paper: 3.96 us hot latency, ~326 ns overhead over the 3.69 us RDMA RTT.
    claims_hold(
        "fig8_invocation_latency",
        &[
            "hot @ 8 B in [3.5, 4.6) us",
            "hot - RDMA @ 8 B in [150, 650) ns",
        ],
    );
}

#[test]
fn warm_invocation_latency_matches_paper() {
    // Paper: 8.2 us warm latency (~4.67 us overhead over raw RDMA).
    claims_hold(
        "fig8_invocation_latency",
        &["warm @ 8 B in [6.5, 10.5) us", "warm > hot + 2 us @ 8 B"],
    );
}

#[test]
fn docker_adds_nanoseconds_not_microseconds() {
    // Paper: ~50 ns extra for hot, ~650 ns for warm invocations in Docker.
    claims_hold(
        "fig8_invocation_latency",
        &[
            "Docker hot - hot @ 8 B in [10, 300) ns",
            "Docker warm - warm @ 8 B in [300, 1300) ns",
        ],
    );
}

#[test]
fn bandwidth_scales_to_the_link_limit() {
    // A 1 MiB echo moves 2 MiB over the wire: goodput must approach the link
    // bandwidth (paper: "achieves the available link bandwidth").
    claims_hold(
        "fig1_platform_comparison",
        &[
            "1 MiB hot echo goodput > 8 GiB/s",
            "1 MiB hot echo goodput < 12 GiB/s, the link",
        ],
    );
}

#[test]
fn speedups_over_baselines_match_paper_orders_of_magnitude() {
    // Paper: 695x-3692x vs AWS, 5904x-22406x vs OpenWhisk, 23x-39x vs Nightcore.
    claims_hold(
        "fig1_platform_comparison",
        &[
            "AWS Lambda / rFaaS hot @ 1 kB in [500, 6000)",
            "OpenWhisk / rFaaS hot @ 1 kB in [4000, 40000)",
            "Nightcore / rFaaS hot @ 1 kB in [15, 80)",
        ],
    );
}

#[test]
fn parallel_hot_invocations_scale_until_bandwidth_saturates() {
    // Small payloads: batch RTT stays within a few microseconds of a single
    // invocation. Large payloads: batch RTT grows roughly linearly with the
    // number of workers because the client link saturates (Fig. 10).
    claims_hold(
        "fig10_parallel_scaling",
        &[
            "8-worker 1 kB hot batch < 30 us",
            "8-worker 1 MB hot batch > 7 x serialization(1 MiB)",
        ],
    );
}

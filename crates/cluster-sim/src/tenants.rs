//! Tenant-fleet generation for multi-tenant control-plane experiments.
//!
//! The batch-job generator in [`crate::jobs`] models the *cluster operator's*
//! workload — what keeps the nodes busy and opens harvest windows. This
//! module models the *serverless tenants* on top: thousands of independent
//! clients, each with its own seeded Poisson arrival process, workload type
//! and lease shape, whose aggregate allocate→invoke→bill→release traffic is
//! what a sharded manager plane has to absorb (the "heavy traffic from
//! millions of users" axis; Swift, arXiv:2501.19051, identifies exactly this
//! control-plane churn as the RDMA-elasticity bottleneck).
//!
//! Everything is deterministic: the fleet is generated from a single seed via
//! per-tenant forked RNG streams, and the merged request timeline is sorted
//! by `(arrival, tenant index)` so two runs produce byte-identical schedules.

use sim_core::{DeterministicRng, SimDuration, SimTime};

/// The workload a tenant invokes, mirroring the evaluation functions of
/// `crates/workloads`. The enum lives here (layer 1) so the generator does
/// not depend on the function implementations (layer 2); consumers map kinds
/// to deployed functions via [`WorkloadKind::function_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// No-op echo: pure platform overhead, the hot-path latency probe.
    Echo,
    /// SeBS thumbnail generation (image in, image out).
    Thumbnailer,
    /// ResNet-style image recognition.
    Inference,
    /// PARSEC Black-Scholes option pricing over an f64 batch.
    BlackScholes,
    /// Dense matrix multiplication offload.
    Matmul,
    /// Jacobi iterative solver step.
    Jacobi,
}

impl WorkloadKind {
    /// Every kind, in a fixed order (used by mix generation and reports).
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::Echo,
        WorkloadKind::Thumbnailer,
        WorkloadKind::Inference,
        WorkloadKind::BlackScholes,
        WorkloadKind::Matmul,
        WorkloadKind::Jacobi,
    ];

    /// Name of the deployed function this kind invokes (the registry names
    /// used by the evaluation package of `rfaas-bench`).
    pub fn function_name(self) -> &'static str {
        match self {
            WorkloadKind::Echo => "echo",
            WorkloadKind::Thumbnailer => "thumbnailer",
            WorkloadKind::Inference => "image-recognition",
            WorkloadKind::BlackScholes => "blackscholes",
            WorkloadKind::Matmul => "matmul",
            WorkloadKind::Jacobi => "jacobi",
        }
    }

    /// Typical invocation payload, in bytes (centre of the per-request
    /// jitter range).
    pub fn typical_payload_bytes(self) -> usize {
        match self {
            WorkloadKind::Echo => 64,
            WorkloadKind::Thumbnailer => 64 * 1024,
            WorkloadKind::Inference => 48 * 1024,
            WorkloadKind::BlackScholes => 4800, // 100 option contracts
            WorkloadKind::Matmul => 16 * 16 * 8,
            WorkloadKind::Jacobi => 16 * 16 * 8,
        }
    }

    /// Cores a lease for this kind requests.
    fn cores(self) -> u32 {
        match self {
            WorkloadKind::Echo => 1,
            WorkloadKind::Thumbnailer => 1,
            WorkloadKind::Inference => 2,
            WorkloadKind::BlackScholes => 2,
            WorkloadKind::Matmul => 4,
            WorkloadKind::Jacobi => 2,
        }
    }

    /// Memory a lease for this kind requests, in MiB.
    fn memory_mib(self) -> u64 {
        match self {
            WorkloadKind::Echo => 512,
            WorkloadKind::Thumbnailer => 2048,
            WorkloadKind::Inference => 4096,
            WorkloadKind::BlackScholes => 1024,
            WorkloadKind::Matmul => 2048,
            WorkloadKind::Jacobi => 2048,
        }
    }

    fn from_weight(roll: u64) -> WorkloadKind {
        // Mix skewed toward the latency-sensitive kinds, as FaaS traces are.
        match roll {
            0..=34 => WorkloadKind::Echo,
            35..=54 => WorkloadKind::Thumbnailer,
            55..=69 => WorkloadKind::Inference,
            70..=84 => WorkloadKind::BlackScholes,
            85..=94 => WorkloadKind::Matmul,
            _ => WorkloadKind::Jacobi,
        }
    }
}

/// One tenant's standing behaviour: which workload it runs, how it shapes
/// its leases, and how often its episodes arrive.
#[derive(Debug, Clone)]
pub struct TenantProfile {
    /// Stable tenant identifier ("tenant-00042"); consistent hashing of this
    /// string pins the tenant to a manager shard.
    pub tenant: String,
    /// The workload the tenant invokes.
    pub workload: WorkloadKind,
    /// Cores per lease.
    pub cores: u32,
    /// Memory per lease, in MiB.
    pub memory_mib: u64,
    /// Lease lifetime the tenant asks for. Short on purpose: unrenewed
    /// leases expiring under the lifecycle driver are the churn source.
    pub lease_timeout: SimDuration,
    /// Invocations issued per allocation episode.
    pub invocations_per_episode: u32,
    /// Mean gap between this tenant's episodes (exponentially distributed).
    pub mean_interarrival: SimDuration,
}

/// One allocation episode: the tenant allocates, invokes
/// `invocations` times, and releases (or lets the lease expire).
#[derive(Debug, Clone)]
pub struct TenantRequest {
    /// Index of the tenant in the fleet's profile list.
    pub tenant_index: usize,
    /// The tenant's stable identifier.
    pub tenant: String,
    /// When the episode's allocation request reaches the manager plane.
    pub arrival: SimTime,
    /// The workload invoked.
    pub workload: WorkloadKind,
    /// Cores requested.
    pub cores: u32,
    /// Memory requested, in MiB.
    pub memory_mib: u64,
    /// Requested lease lifetime.
    pub lease_timeout: SimDuration,
    /// Invocations in this episode.
    pub invocations: u32,
    /// Payload bytes per invocation (jittered around the kind's typical).
    pub payload_bytes: usize,
    /// Whether the tenant releases the lease at the episode's end; the rest
    /// are abandoned and must be reclaimed by lease expiry — the second
    /// churn source.
    pub releases_lease: bool,
}

/// A generated fleet of tenants plus its request timeline generator.
#[derive(Debug, Clone)]
pub struct TenantFleet {
    seed: u64,
    profiles: Vec<TenantProfile>,
}

impl TenantFleet {
    /// Fraction of tenants that are heavy hitters (10× the arrival rate):
    /// FaaS populations are heavy-tailed, and a skewed fleet is what makes
    /// consistent-hash balance worth measuring.
    const HEAVY_TENANT_PCT: u64 = 5;

    /// Generate `tenants` profiles from `seed`. `mean_interarrival` is the
    /// per-tenant mean episode gap for a normal tenant; heavy hitters get a
    /// tenth of it.
    pub fn generate(seed: u64, tenants: usize, mean_interarrival: SimDuration) -> TenantFleet {
        let mut rng = DeterministicRng::new(seed ^ 0x7e4a_17f1_5eed_f1ee);
        let profiles = (0..tenants)
            .map(|i| {
                let workload = WorkloadKind::from_weight(rng.range_u64(0, 100));
                let heavy = rng.range_u64(0, 100) < Self::HEAVY_TENANT_PCT;
                let gap = if heavy {
                    mean_interarrival.mul_f64(0.1)
                } else {
                    // ±50% spread so tenants do not tick in lockstep.
                    mean_interarrival.mul_f64(rng.range_f64(0.5, 1.5))
                };
                TenantProfile {
                    tenant: format!("tenant-{i:05}"),
                    workload,
                    cores: workload.cores(),
                    memory_mib: workload.memory_mib(),
                    lease_timeout: SimDuration::from_secs(rng.range_u64(5, 30)),
                    invocations_per_episode: rng.range_u64(1, 8) as u32,
                    mean_interarrival: gap,
                }
            })
            .collect();
        TenantFleet { seed, profiles }
    }

    /// The tenant profiles, in tenant-index order.
    pub fn profiles(&self) -> &[TenantProfile] {
        &self.profiles
    }

    /// Number of tenants in the fleet.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Generate every episode arriving within `horizon`, merged across
    /// tenants and sorted by `(arrival, tenant index)` — a deterministic
    /// total order, so identical seeds replay identical schedules.
    pub fn requests(&self, horizon: SimDuration) -> Vec<TenantRequest> {
        let mut base = DeterministicRng::new(self.seed ^ 0xa11c_0c47_10ad);
        let mut requests = Vec::new();
        for (tenant_index, profile) in self.profiles.iter().enumerate() {
            // A forked stream per tenant: one tenant's request count never
            // shifts another tenant's draws.
            let mut rng = base.fork(tenant_index as u64);
            let mut t = SimTime::ZERO;
            loop {
                let gap = SimDuration::from_secs_f64(
                    rng.exponential(profile.mean_interarrival.as_secs_f64()),
                );
                t += gap;
                if t.saturating_since(SimTime::ZERO) > horizon {
                    break;
                }
                let typical = profile.workload.typical_payload_bytes();
                let payload_bytes = ((typical as f64) * rng.range_f64(0.5, 1.5))
                    .round()
                    .max(8.0) as usize;
                requests.push(TenantRequest {
                    tenant_index,
                    tenant: profile.tenant.clone(),
                    arrival: t,
                    workload: profile.workload,
                    cores: profile.cores,
                    memory_mib: profile.memory_mib,
                    lease_timeout: profile.lease_timeout,
                    invocations: profile.invocations_per_episode,
                    payload_bytes,
                    // Most tenants are tidy; the rest walk away and leave
                    // the lifecycle driver to reap the lease.
                    releases_lease: rng.range_u64(0, 100) < 80,
                });
            }
        }
        requests.sort_by(|a, b| {
            a.arrival
                .cmp(&b.arrival)
                .then(a.tenant_index.cmp(&b.tenant_index))
        });
        requests
    }
}

/// Per-request episode ordinal: how many episodes the same tenant already
/// had earlier in the timeline. Ordinal 0 is the tenant's *first contact* —
/// its connection pool entry is necessarily cold — while later ordinals are
/// revisit candidates whose connection warmth a pooled transport can reuse.
/// The churn benchmarks split setup costs along exactly this boundary.
pub fn episode_ordinals(requests: &[TenantRequest]) -> Vec<u32> {
    let mut counts: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
    requests
        .iter()
        .map(|r| {
            let seen = counts.entry(r.tenant_index).or_insert(0);
            let ordinal = *seen;
            *seen += 1;
            ordinal
        })
        .collect()
}

/// Per-request fork-source supply: how many earlier episodes in the timeline
/// explicitly released their lease before this request arrived. A released
/// lease is a sandbox a warm pool could have parked, so this is the upper
/// bound on the parked parents available to serve the episode as a remote
/// fork or warm-pool resume instead of a full cold spawn. Ordinal-0 episodes
/// with zero supply are necessarily cold; the fork-tier experiments split
/// allocation costs along exactly this boundary.
pub fn fork_source_supply(requests: &[TenantRequest]) -> Vec<u32> {
    let mut released = 0u32;
    requests
        .iter()
        .map(|r| {
            let supply = released;
            if r.releases_lease {
                released += 1;
            }
            supply
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn fleet() -> TenantFleet {
        TenantFleet::generate(42, 500, SimDuration::from_secs(20))
    }

    #[test]
    fn fleet_generation_is_deterministic() {
        let a = fleet();
        let b = fleet();
        assert_eq!(a.len(), 500);
        for (x, y) in a.profiles().iter().zip(b.profiles().iter()) {
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.mean_interarrival, y.mean_interarrival);
        }
        let ra = a.requests(SimDuration::from_secs(60));
        let rb = b.requests(SimDuration::from_secs(60));
        assert_eq!(ra.len(), rb.len());
        assert!(!ra.is_empty());
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.payload_bytes, y.payload_bytes);
            assert_eq!(x.releases_lease, y.releases_lease);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TenantFleet::generate(1, 100, SimDuration::from_secs(20));
        let b = TenantFleet::generate(2, 100, SimDuration::from_secs(20));
        let same = a
            .profiles()
            .iter()
            .zip(b.profiles().iter())
            .filter(|(x, y)| x.workload == y.workload && x.mean_interarrival == y.mean_interarrival)
            .count();
        assert!(same < 100, "seeds must change the fleet");
    }

    #[test]
    fn requests_are_sorted_and_within_horizon() {
        let horizon = SimDuration::from_secs(120);
        let requests = fleet().requests(horizon);
        assert!(requests.len() > 500, "got {}", requests.len());
        for pair in requests.windows(2) {
            assert!(
                (pair[0].arrival, pair[0].tenant_index) <= (pair[1].arrival, pair[1].tenant_index)
            );
        }
        for r in &requests {
            assert!(r.arrival.saturating_since(SimTime::ZERO) <= horizon);
            assert!(r.payload_bytes >= 8);
            assert!(r.cores >= 1 && r.invocations >= 1);
        }
    }

    #[test]
    fn fleet_mixes_workloads() {
        let kinds: HashSet<WorkloadKind> = fleet().profiles().iter().map(|p| p.workload).collect();
        assert!(
            kinds.len() >= 5,
            "500 tenants must cover most workload kinds, got {kinds:?}"
        );
        for kind in WorkloadKind::ALL {
            assert!(!kind.function_name().is_empty());
            assert!(kind.typical_payload_bytes() >= 8);
        }
    }

    #[test]
    fn fork_source_supply_counts_prior_releases() {
        let fleet = fleet();
        let requests = fleet.requests(SimDuration::from_secs(600));
        let supply = fork_source_supply(&requests);
        assert_eq!(supply.len(), requests.len());
        // Supply never decreases along the timeline, starts at zero, and
        // grows by exactly one past each releasing episode.
        assert_eq!(supply[0], 0, "nothing can be parked before any episode");
        let mut expected = 0u32;
        for (r, &s) in requests.iter().zip(&supply) {
            assert_eq!(s, expected);
            if r.releases_lease {
                expected += 1;
            }
        }
        // With ~80% tidy tenants, a long horizon leaves most episodes with
        // at least one candidate fork source.
        let with_supply = supply.iter().filter(|&&s| s > 0).count();
        assert!(
            with_supply * 10 > supply.len() * 9,
            "most episodes should find a parked parent candidate"
        );
    }

    #[test]
    fn heavy_hitters_skew_the_request_distribution() {
        let fleet = fleet();
        let requests = fleet.requests(SimDuration::from_secs(600));
        let mut per_tenant = vec![0usize; fleet.len()];
        for r in &requests {
            per_tenant[r.tenant_index] += 1;
        }
        let max = *per_tenant.iter().max().unwrap();
        let mean = requests.len() as f64 / fleet.len() as f64;
        assert!(
            max as f64 > 3.0 * mean,
            "heavy hitters should dominate: max {max}, mean {mean:.1}"
        );
    }

    #[test]
    fn episode_ordinals_split_first_contact_from_revisits() {
        let fleet = fleet();
        let requests = fleet.requests(SimDuration::from_secs(600));
        let ordinals = episode_ordinals(&requests);
        assert_eq!(ordinals.len(), requests.len());
        // A tenant's ordinals increase monotonically along the timeline.
        let mut last: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
        let mut first_contacts = 0usize;
        for (r, &o) in requests.iter().zip(&ordinals) {
            match last.get(&r.tenant_index) {
                None => {
                    assert_eq!(o, 0, "first episode of {} must be ordinal 0", r.tenant);
                    first_contacts += 1;
                }
                Some(&prev) => assert_eq!(o, prev + 1),
            }
            last.insert(r.tenant_index, o);
        }
        assert_eq!(first_contacts, last.len());
        // Over a long horizon, churn dominates: most episodes are revisits.
        let revisits = ordinals.iter().filter(|&&o| o > 0).count();
        assert!(
            revisits * 2 > ordinals.len(),
            "expected mostly revisits, got {revisits}/{}",
            ordinals.len()
        );
    }

    #[test]
    fn some_tenants_abandon_their_leases() {
        let requests = fleet().requests(SimDuration::from_secs(120));
        let released = requests.iter().filter(|r| r.releases_lease).count();
        assert!(released > 0 && released < requests.len());
    }
}

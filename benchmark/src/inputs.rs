//! Everything `--seed` decides. The product sees only these generated inputs:
//! payload bytes, the tenant fleet (through `cluster_sim`), the allocation
//! policy drawn per episode and where in each group of touches the put falls.

use rfaas::AllocationPolicy;

/// SplitMix64, owned by the benchmark so its draws never change with the
/// product's own generator.
#[derive(Debug, Clone)]
pub struct Draws(u64);

impl Draws {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Draws {
        Draws(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Payload variants rotated through by the echo workloads, so a stale or
/// misrouted reply fails the byte check instead of matching by accident.
pub const PAYLOAD_VARIANTS: usize = 4;

/// `PAYLOAD_VARIANTS` payloads of `size` bytes.
pub fn payloads(seed: u64, size: usize) -> Vec<Vec<u8>> {
    (0..PAYLOAD_VARIANTS as u64)
        .map(|i| workloads::generate_payload(size, Draws::new(seed, 1 + i).next_u64()))
        .collect()
}

/// One allocation policy per episode: ¼ cold spawn, ¼ warm-pool resume,
/// ½ remote fork. The shares hold exactly in every aligned group of four
/// episodes (the seed shuffles each group), so the number of 25 ms cold
/// spawns in a run — which dominates its simulated duration — does not
/// wander with the seed the way independent draws would (±2 % at 8,000).
pub fn policies(seed: u64, episodes: usize) -> Vec<AllocationPolicy> {
    let mut draws = Draws::new(seed, 100);
    let mut out = Vec::with_capacity(episodes + 3);
    while out.len() < episodes {
        let mut group = [
            AllocationPolicy::Cold,
            AllocationPolicy::WarmPool,
            AllocationPolicy::Fork,
            AllocationPolicy::Fork,
        ];
        for i in (1..group.len()).rev() {
            group.swap(i, (draws.next_u64() % (i as u64 + 1)) as usize);
        }
        out.extend(group);
    }
    out.truncate(episodes);
    out
}

/// Touches per put in `state_write_mix`.
pub const TOUCHES_PER_PUT: usize = 8;

/// For each group of [`TOUCHES_PER_PUT`] touches, the index of the touch the
/// put comes directly before.
pub fn put_positions(seed: u64, groups: usize) -> Vec<u8> {
    let mut draws = Draws::new(seed, 200);
    (0..groups)
        .map(|_| (draws.next_u64() % TOUCHES_PER_PUT as u64) as u8)
        .collect()
}

/// What `state-touch` returns for `dataset`: length plus first and last byte.
pub fn fingerprint(dataset: &[u8]) -> u64 {
    dataset.len() as u64
        + *dataset.first().unwrap_or(&0) as u64
        + *dataset.last().unwrap_or(&0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::TenantFleet;
    use sim_core::SimDuration;

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_differs() {
        assert_eq!(payloads(7, 256), payloads(7, 256));
        assert_ne!(payloads(7, 256), payloads(8, 256));
        assert_eq!(policies(7, 500), policies(7, 500));
        assert_ne!(policies(7, 500), policies(8, 500));
        assert_eq!(put_positions(7, 500), put_positions(7, 500));
        assert_ne!(put_positions(7, 500), put_positions(8, 500));

        let requests = |seed| {
            TenantFleet::generate(seed, 200, SimDuration::from_secs(20))
                .requests(SimDuration::from_secs(40))
                .iter()
                .map(|r| (r.tenant.clone(), r.arrival))
                .collect::<Vec<_>>()
        };
        assert_eq!(requests(7), requests(7));
        assert_ne!(requests(7), requests(8));
    }

    #[test]
    fn draws_have_the_stated_shape() {
        let variants = payloads(1, 64);
        assert_eq!(variants.len(), PAYLOAD_VARIANTS);
        assert!(variants.iter().all(|p| p.len() == 64));
        assert_ne!(variants[0], variants[1]);

        let drawn = policies(1, 4000);
        let share = |p: AllocationPolicy| {
            drawn.iter().filter(|&&d| d == p).count() as f64 / drawn.len() as f64
        };
        assert_eq!(share(AllocationPolicy::Cold), 0.25);
        assert_eq!(share(AllocationPolicy::WarmPool), 0.25);
        assert_eq!(share(AllocationPolicy::Fork), 0.5);
        assert_eq!(policies(1, 4001).len(), 4001);
        let orders: std::collections::BTreeSet<Vec<u8>> = drawn
            .chunks(4)
            .map(|g| g.iter().map(|&p| p as u8).collect())
            .collect();
        assert!(orders.len() > 6, "groups come in many orders");

        assert!(put_positions(1, 1000)
            .iter()
            .all(|&p| (p as usize) < TOUCHES_PER_PUT));
        assert_eq!(fingerprint(&[3, 0, 0, 9]), 4 + 3 + 9);
        assert_eq!(fingerprint(&[]), 0);
    }
}

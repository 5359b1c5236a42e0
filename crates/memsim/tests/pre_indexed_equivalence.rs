//! Pre-indexed access equivalence: `Cache::access_in_set` with the set
//! resolved ahead of time (as replay streams do) against `Cache::access`
//! resolving it per call.
//!
//! Replay paths index a stream once and then drive many caches through
//! `access_in_set`; this suite pins that supplying
//! `cfg.set_index(line)` changes nothing observable — every outcome,
//! every eviction attribution and the final `CacheStats` — for every
//! policy, modulo and XOR-hashed indexing and the associativities the
//! platform presets use, with interval boundaries and co-runner fills
//! interleaved into the stream.

use proptest::prelude::*;

use prem_memsim::{AccessKind, Cache, CacheConfig, LineAddr, Phase, Policy};

/// All seven policies, sized for `ways` (every way count here is a power
/// of two, so tree-PLRU applies).
fn every_policy(ways: usize) -> Vec<Policy> {
    vec![
        Policy::Lru,
        Policy::Fifo,
        Policy::PseudoLru,
        Policy::Random,
        Policy::Nmru,
        Policy::Srrip,
        Policy::nvidia_like(ways),
    ]
}

/// One stream event: an access or an interval boundary.
#[derive(Clone, Debug)]
enum Event {
    Access(u64, AccessKind, Phase),
    BeginInterval,
}

fn event_strategy() -> impl Strategy<Value = Event> {
    let kinds = prop::sample::select(vec![
        AccessKind::Read,
        AccessKind::Write,
        AccessKind::Prefetch,
    ]);
    // Co-runner fills are weighted up: they exercise the foreign-owner
    // bookkeeping on both the fill and the eviction side.
    let phases = prop::sample::select(vec![
        Phase::MPhase,
        Phase::CPhase,
        Phase::Unphased,
        Phase::Corunner,
        Phase::Corunner,
    ]);
    // ~1/16 interval boundaries, the rest accesses over a footprint a few
    // times the largest cache below, so sets fill and evict.
    (0u8..16, 0u64..4096, kinds, phases).prop_map(|(pick, l, k, p)| match pick {
        0 => Event::BeginInterval,
        _ => Event::Access(l, k, p),
    })
}

proptest! {
    /// `access_in_set(cfg.set_index(l), l, k, p)` ≡ `access(l, k, p)`,
    /// access by access and in the final statistics.
    #[test]
    fn pre_indexed_access_matches_plain_access(
        ways in prop::sample::select(vec![4usize, 8, 16]),
        log_sets in 0u32..=5,
        line_bytes in prop::sample::select(vec![64usize, 128]),
        hash in any::<bool>(),
        seed in any::<u64>(),
        events in prop::collection::vec(event_strategy(), 1..400),
    ) {
        let size = (1usize << log_sets) * ways * line_bytes;
        for policy in every_policy(ways) {
            let cfg = CacheConfig::new(size, ways, line_bytes)
                .policy(policy)
                .seed(seed)
                .index_hash(hash);
            let mut plain = Cache::new(cfg.clone());
            let mut indexed = Cache::new(cfg.clone());
            for event in &events {
                match *event {
                    Event::Access(l, kind, phase) => {
                        let line = LineAddr::new(l);
                        let a = plain.access(line, kind, phase);
                        let b = indexed.access_in_set(cfg.set_index(line), line, kind, phase);
                        prop_assert_eq!(a, b);
                    }
                    Event::BeginInterval => {
                        plain.begin_interval();
                        indexed.begin_interval();
                    }
                }
            }
            prop_assert_eq!(plain.stats(), indexed.stats());
            prop_assert_eq!(plain.occupancy(), indexed.occupancy());
        }
    }
}

/// The hoisted set index agrees with the configuration's for every
/// geometry above, hashed or not (the property's premise).
#[test]
fn cache_set_of_matches_config_set_index() {
    for ways in [4usize, 8, 16] {
        for log_sets in 0..=9u32 {
            for hash in [false, true] {
                let cfg =
                    CacheConfig::new((1usize << log_sets) * ways * 128, ways, 128).index_hash(hash);
                let cache = Cache::new(cfg.clone());
                for l in (0..50_000u64).step_by(7) {
                    let line = LineAddr::new(l);
                    assert_eq!(cache.set_of(line), cfg.set_index(line), "{cfg:?} line {l}");
                }
            }
        }
    }
}

//! The trace-driven replay engine.
//!
//! A captured trace contains the full LLC input stream of a timed PREM
//! run: every access (demand, prefetch, unmanaged noise *and* co-runner
//! pollution) in issue order plus the interval boundaries that drive
//! self-eviction epochs. Replaying that stream against a cold cache built
//! from the captured header reproduces the live run's [`CacheStats`]
//! **field-for-field** — asserted by the property suite and the
//! `trace_policy_replay` artifact — because victim selection depends only
//! on replacement state reconstructed by the stream itself and on the RNG
//! stream, which the header's seed pins.
//!
//! The payoff is the fan-out: any [`CacheConfig`] × [`Policy`] what-if
//! over the same access stream is a replay instead of a re-execution —
//! no profiling pass, no cost model, no budget machinery — which is what
//! makes wide policy sweeps cheap ([`CompiledStream`] compiles a stream
//! once and replays it per policy and seed; the `figures -- trace`
//! artifact fans that grid out on the scenario-matrix thread pool).

use prem_memsim::{Cache, CacheConfig, CacheStats, LineAddr, Policy};

use crate::event::{kind_code, kind_from_code, phase_code, phase_from_code, TraceEvent};
use crate::format::Trace;

/// Replays `events` against a cold cache built from `cfg`, returning the
/// final statistics.
///
/// Only input events ([`TraceEvent::Access`], [`TraceEvent::IntervalBegin`])
/// drive the cache; recorded outcomes (fills, evictions, writebacks) are
/// ignored — replay re-derives them under whatever configuration it is
/// given.
///
/// # Panics
///
/// Panics if `cfg` is invalid, as [`Cache::new`] does.
pub fn replay_events(events: &[TraceEvent], cfg: CacheConfig) -> CacheStats {
    let mut cache = Cache::new(cfg);
    for event in events {
        match *event {
            TraceEvent::Access {
                line, kind, phase, ..
            } => {
                cache.access(line, kind, phase);
            }
            TraceEvent::IntervalBegin => cache.begin_interval(),
            _ => {}
        }
    }
    cache.stats().clone()
}

/// Replays a trace under its own captured configuration.
///
/// The replay-equivalence contract: this equals the live run's
/// [`CacheStats`] exactly.
pub fn replay_captured(trace: &Trace) -> CacheStats {
    replay_events(&trace.events, trace.header.cache.clone())
}

/// Replays a trace under the captured geometry with a different
/// replacement policy (the policy must drive the captured way count).
pub fn replay_with_policy(trace: &Trace, policy: Policy) -> CacheStats {
    replay_events(&trace.events, trace.header.cache.clone().policy(policy))
}

/// A trace pre-compiled for the replay fast path: the input events
/// reduced to flat `(line, metadata)` pairs with the set index — the only
/// per-access address computation — resolved once and amortized across
/// every replay of the stream.
///
/// Compilation fixes the geometry (sets/ways/line size/index hashing);
/// [`CompiledStream::replay`] then varies policy and seed freely. It
/// drives the live [`Cache`] itself through [`Cache::access_in_set`], so
/// replayed statistics are bit-exact by construction, not by
/// reimplementation — asserted against both the event-level replay and
/// live re-execution by the test suite.
#[derive(Clone, Debug)]
pub struct CompiledStream {
    geometry: CacheConfig,
    /// Dense line IDs of access ops (see [`CompiledStream::compile`];
    /// meaningless for interval markers).
    lines: Vec<u32>,
    /// `set << 5 | kind << 3 | phase << 1 | interval_marker`.
    meta: Vec<u32>,
}

impl CompiledStream {
    /// Compiles the input events of `trace` under its captured geometry.
    ///
    /// Besides resolving set indices, compilation renames every distinct
    /// line to a dense ID ≥ 1, which keeps the stream at 8 bytes per
    /// event. With the set supplied, the cache needs its tags only to be
    /// a consistent renaming, so replay passes the IDs as tags.
    ///
    /// # Panics
    ///
    /// Panics if the trace touches ≥ `u32::MAX` distinct lines (a
    /// physically impossible capture).
    pub fn compile(trace: &Trace) -> CompiledStream {
        let cfg = &trace.header.cache;
        let mut lines = Vec::with_capacity(trace.events.len());
        let mut meta = Vec::with_capacity(trace.events.len());
        // Compilation runs once per sweep but still walks every event;
        // a multiply-xor hasher (FxHash-style) keeps the line-renaming
        // map off the SipHash slow path.
        let mut ids: std::collections::HashMap<u64, u32, BuildLineHasher> =
            std::collections::HashMap::default();
        for event in &trace.events {
            match *event {
                TraceEvent::Access {
                    line, kind, phase, ..
                } => {
                    let next = ids.len() as u32 + 1;
                    assert!(next != u32::MAX, "trace touches too many distinct lines");
                    let id = *ids.entry(line.raw()).or_insert(next);
                    lines.push(id);
                    meta.push(
                        (cfg.set_index(line) as u32) << 5
                            | u32::from(kind_code(kind)) << 3
                            | u32::from(phase_code(phase)) << 1,
                    );
                }
                TraceEvent::IntervalBegin => {
                    lines.push(0);
                    meta.push(1);
                }
                _ => {}
            }
        }
        CompiledStream {
            geometry: cfg.clone(),
            lines,
            meta,
        }
    }

    /// The captured geometry the stream was compiled against.
    pub fn geometry(&self) -> &CacheConfig {
        &self.geometry
    }

    /// Replays the compiled stream under `policy` and `seed`, returning
    /// the statistics a live run with that policy/seed would produce.
    ///
    /// This is the hot path of policy sweeps: the packed [`Cache`] under
    /// `policy`/`seed`, fed the pre-indexed stream without per-access set
    /// hashing or cost-model work.
    ///
    /// # Panics
    ///
    /// Panics if `policy` cannot drive the captured way count.
    pub fn replay(&self, policy: Policy, seed: u64) -> CacheStats {
        let mut cache = Cache::new(self.geometry.clone().policy(policy).seed(seed));
        for (&line, &m) in self.lines.iter().zip(&self.meta) {
            if m & 1 != 0 {
                cache.begin_interval();
                continue;
            }
            let kind = kind_from_code((m >> 3) as u8).expect("compiled from a valid access kind");
            cache.access_in_set(
                (m >> 5) as usize,
                LineAddr::new(u64::from(line)),
                kind,
                phase_from_code((m >> 1) as u8),
            );
        }
        cache.stats().clone()
    }
}

/// Multiply-xor hasher for the compile-time line-renaming map: line
/// numbers are already well-distributed, so one multiplication beats the
/// default DoS-resistant hasher by a wide margin.
#[derive(Default)]
struct LineHasher(u64);

type BuildLineHasher = std::hash::BuildHasherDefault<LineHasher>;

impl std::hash::Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The default policy axis for replay sweeps on a `ways`-way cache: the
/// vendor biased-random policy plus every deterministic and randomized
/// alternative the simulator models.
pub fn default_policy_axis(ways: usize) -> Vec<(String, Policy)> {
    vec![
        ("biased".into(), Policy::nvidia_like(ways)),
        ("lru".into(), Policy::Lru),
        ("fifo".into(), Policy::Fifo),
        ("plru".into(), Policy::PseudoLru),
        ("nmru".into(), Policy::Nmru),
        ("srrip".into(), Policy::Srrip),
        ("random".into(), Policy::Random),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_llc;
    use prem_gpusim::Scenario;
    use prem_kernels::Bicg;
    use prem_memsim::KIB;

    #[test]
    fn replay_reproduces_live_stats_bit_exactly() {
        let (run, trace) = capture_llc(&Bicg::new(128, 128), 32 * KIB, 8, 11, Scenario::Isolation);
        assert_eq!(replay_captured(&trace), run.llc);
    }

    #[test]
    fn compiled_fast_path_equals_event_replay_for_every_policy_and_seed() {
        let (run, trace) = capture_llc(&Bicg::new(320, 320), 32 * KIB, 4, 11, Scenario::Isolation);
        let compiled = CompiledStream::compile(&trace);
        // Captured config through the fast path reproduces the live run.
        assert_eq!(
            compiled.replay(
                trace.header.cache.policy_ref().clone(),
                trace.header.cache.seed_value()
            ),
            run.llc
        );
        // Any policy/seed: fast path ≡ event-level replay through Cache.
        for (_, policy) in default_policy_axis(trace.header.cache.ways()) {
            for seed in [11u64, 23, 47] {
                let via_cache = replay_events(
                    &trace.events,
                    trace.header.cache.clone().policy(policy.clone()).seed(seed),
                );
                assert_eq!(
                    compiled.replay(policy.clone(), seed),
                    via_cache,
                    "fast path diverged for {} / seed {seed}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn compiled_fast_path_handles_corunner_pollution() {
        // The interference *preset* is bus-only (membombs); foreign-line
        // bookkeeping in the fast path only runs under cache-thrashing
        // co-runners, so capture one of those mixes explicitly.
        use crate::capture::capture_prem;
        use prem_gpusim::{CorunnerProfile, PlatformConfig};
        use prem_kernels::Kernel;
        let kernel = Bicg::new(192, 192);
        let intervals = kernel.intervals(32 * KIB).expect("tiling");
        let cfg = prem_report::llc_prem_config(4, 11);
        let mut platform = PlatformConfig::tx1()
            .llc_seed(11)
            .with_corunners(vec![CorunnerProfile::CacheThrash; 2])
            .build();
        let (run, trace) = capture_prem(
            &mut platform,
            &intervals,
            &cfg,
            Scenario::Corunners,
            "bicg-thrash",
        )
        .expect("capture");
        assert!(
            run.llc.corunner.total() > 0,
            "thrashers injected no traffic — the test is vacuous"
        );
        let compiled = CompiledStream::compile(&trace);
        assert_eq!(
            compiled.replay(trace.header.cache.policy_ref().clone(), 11),
            run.llc
        );
        for (_, policy) in default_policy_axis(trace.header.cache.ways()) {
            let via_cache = replay_events(
                &trace.events,
                trace.header.cache.clone().policy(policy.clone()),
            );
            assert_eq!(
                compiled.replay(policy.clone(), 11),
                via_cache,
                "fast path diverged under pollution for {}",
                policy.name()
            );
        }
    }

    #[test]
    fn replay_reproduces_live_stats_under_interference() {
        let (run, trace) = capture_llc(
            &Bicg::new(128, 128),
            32 * KIB,
            8,
            23,
            Scenario::Interference,
        );
        assert_eq!(replay_captured(&trace), run.llc);
    }

    #[test]
    fn replay_survives_a_format_roundtrip() {
        let (run, trace) = capture_llc(&Bicg::new(128, 128), 32 * KIB, 4, 47, Scenario::Isolation);
        let decoded = Trace::decode(&trace.encode()).expect("decode");
        assert_eq!(replay_captured(&decoded), run.llc);
    }
}

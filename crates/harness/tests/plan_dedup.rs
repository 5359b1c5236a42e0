//! The run-plan layer's dedup and cache contracts:
//!
//! * **fingerprint stability** — a request's fingerprint is a pure
//!   function of its coordinates, pinned against known vectors so it is
//!   provably identical across processes (nothing about the process — no
//!   addresses, no hash-map iteration order, no RNG — participates);
//! * **no false sharing** — distinct requests get distinct canonical keys
//!   and therefore distinct cache slots, and each served output equals a
//!   direct execution of that exact request;
//! * **merged-plan elision** — a plan merging two figures executes each
//!   *shared* request exactly once (asserted with the executor's
//!   execution-count probe);
//! * **key stability** — canonical keys of the established work modes
//!   stay byte-identical as the request vocabulary grows, so stores
//!   written by earlier builds keep hitting;
//! * **adaptive work stays out of families** — adaptive-prefetch seed
//!   and policy siblings execute live, never by replay.

use proptest::prelude::*;

use prem_core::{NoiseModel, RunWork};
use prem_gpusim::{CorunnerProfile, Scenario};
use prem_harness::seed::fingerprint;
use prem_harness::{
    CorunnerMix, MatrixPolicy, MatrixScenario, PlanExecutor, PlatformSpec, RunRequest, RunSource,
};
use prem_kernels::{Bicg, Kernel};
use prem_memsim::KIB;

fn request(kernel: &dyn Kernel, work: RunWork, t: usize, seed: u64, iso: bool) -> RunRequest<'_> {
    RunRequest {
        kernel,
        platform: PlatformSpec::tx1(),
        work,
        t_bytes: t,
        seed,
        scenario: MatrixScenario::Preset(if iso {
            Scenario::Isolation
        } else {
            Scenario::Interference
        }),
        noise: NoiseModel::tx1(),
    }
}

#[test]
fn fingerprint_pinned_against_known_vectors() {
    // The fingerprint machinery is FNV-1a + SplitMix64 over the canonical
    // key bytes. Pinning concrete values makes cross-process stability a
    // theorem rather than a hope: any process computing something else
    // has changed the algorithm (which would silently orphan every
    // persisted fingerprint) and fails here.
    assert_eq!(fingerprint(""), 0xc381_7c01_6ba4_ff30);
    assert_eq!(
        fingerprint("bicg(128x128)|tx1|isolation|llc-r8|t32768|s11"),
        {
            // Recompute from first principles: FNV-1a then SplitMix64.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in "bicg(128x128)|tx1|isolation|llc-r8|t32768|s11".as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut x = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
    );
}

#[test]
fn same_request_same_fingerprint_across_reconstructions() {
    // Two independently constructed (not cloned) requests with the same
    // coordinates — as two processes would build them — agree on key and
    // fingerprint.
    let k1 = Bicg::new(128, 128);
    let k2 = Bicg::new(128, 128);
    let a = request(&k1, RunWork::PremLlc { r: 8 }, 32 * KIB, 11, true);
    let b = request(&k2, RunWork::PremLlc { r: 8 }, 32 * KIB, 11, true);
    assert_eq!(a.key(), b.key());
    assert_eq!(a.fingerprint(), b.fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Keys are injective over the coordinates the figures sweep: two
    /// requests share a key exactly when every coordinate matches.
    #[test]
    fn keys_are_injective_over_coordinates(
        (t_a, r_a, seed_a) in (
            prop::sample::select(vec![32usize, 64, 96, 160]),
            prop::sample::select(vec![1u32, 4, 8]),
            prop::sample::select(vec![11u64, 23, 47]),
        ),
        (t_b, r_b, seed_b) in (
            prop::sample::select(vec![32usize, 64, 96, 160]),
            prop::sample::select(vec![1u32, 4, 8]),
            prop::sample::select(vec![11u64, 23, 47]),
        ),
        iso_a in any::<bool>(),
        iso_b in any::<bool>(),
    ) {
        let k = Bicg::new(128, 128);
        let a = request(&k, RunWork::PremLlc { r: r_a }, t_a * KIB, seed_a, iso_a);
        let b = request(&k, RunWork::PremLlc { r: r_b }, t_b * KIB, seed_b, iso_b);
        let same = t_a == t_b && r_a == r_b && seed_a == seed_b && iso_a == iso_b;
        prop_assert_eq!(a.key() == b.key(), same);
        prop_assert_eq!(a.fingerprint() == b.fingerprint(), same);
    }
}

#[test]
fn no_false_sharing_between_distinct_requests() {
    // Fill one executor with near-neighbour requests, then check every
    // cached output against a direct execution of exactly that request:
    // had two requests aliased one slot, at least one would come back
    // with the other's (different-seed, different-scenario) result.
    let k = Bicg::new(128, 128);
    let mut requests = Vec::new();
    for seed in [11, 23] {
        for iso in [true, false] {
            requests.push(request(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, seed, iso));
            requests.push(request(&k, RunWork::Baseline, 32 * KIB, seed, iso));
        }
        requests.push(request(&k, RunWork::PremSpm, 32 * KIB, seed, true));
    }
    let executor = PlanExecutor::new();
    let summary = executor.execute(&requests, 2);
    // All distinct: every request occupies its own slot, satisfied either
    // live or by replay within its derivation family (the two seeds of
    // each LLC/baseline scenario pair form a family; SPM is ineligible).
    assert_eq!(
        summary.executed + summary.replayed,
        requests.len(),
        "all requests distinct"
    );
    assert_eq!(summary.elided + summary.hits + summary.disk_hits, 0);
    assert_eq!(summary.families, 4, "seed pairs per (work, scenario)");
    assert_eq!(summary.replayed, 4, "one sibling per family");
    // Comparing every slot against a direct execution also proves the
    // replayed outputs bit-identical to live ones.
    for req in &requests {
        assert_eq!(
            executor.output(req),
            req.execute(),
            "cached output diverged from direct execution for {}",
            req.key()
        );
    }
    assert_eq!(
        executor.executed_runs(),
        summary.executed,
        "verification must be served from cache"
    );
}

#[test]
fn merged_two_figure_plan_executes_each_shared_request_exactly_once() {
    let k = Bicg::new(128, 128);
    // Figure A: an (R, T) isolation grid. Figure B: an interference
    // comparison at one grid point. They share the R=8 isolation runs at
    // T = 32K and the baseline—exactly the fig4/fig3-style overlap.
    let mut fig_a = Vec::new();
    for r in [1, 8] {
        for t in [32 * KIB, 48 * KIB] {
            fig_a.push(request(&k, RunWork::PremLlc { r }, t, 11, true));
        }
    }
    fig_a.push(request(&k, RunWork::Baseline, 32 * KIB, 11, true));
    let mut fig_b = vec![
        request(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11, true), // shared
        request(&k, RunWork::Baseline, 32 * KIB, 11, true),         // shared
        request(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11, false),
    ];

    // Per-figure sums: |A| + |B| simulator runs.
    let separate = fig_a.len() + fig_b.len();

    // Merged: the shared requests execute exactly once.
    let mut merged = fig_a.clone();
    merged.append(&mut fig_b);
    let executor = PlanExecutor::new();
    let summary = executor.execute(&merged, 2);
    assert_eq!(summary.requested, separate);
    assert_eq!(summary.elided, 2, "the two shared requests are elided");
    assert_eq!(summary.executed, separate - 2);
    assert_eq!(executor.executed_runs(), separate - 2);
    assert!(
        summary.executed < separate,
        "merged plan must execute strictly fewer runs than the per-figure sum"
    );

    // Rendering both figures afterwards is pure cache traffic.
    for req in &merged {
        let _ = executor.output(req);
    }
    assert_eq!(
        executor.executed_runs(),
        separate - 2,
        "post-plan rendering must not execute anything"
    );
}

#[test]
fn established_canonical_keys_are_unchanged() {
    // Literal keys of the pre-ablation vocabulary (LLC-PREM, SPM, baseline;
    // template and overridden policies; presets and a mix; both noise
    // models). A store written before the vocabulary grew must keep
    // hitting, so these strings may never move.
    let k = Bicg::new(128, 128);
    let at = |platform: PlatformSpec, work, scenario, noise| RunRequest {
        kernel: &k,
        platform,
        work,
        t_bytes: 32 * KIB,
        seed: 11,
        scenario,
        noise,
    };
    let cases = [
        (
            at(
                PlatformSpec::tx1(),
                RunWork::PremLlc { r: 8 },
                MatrixScenario::Preset(Scenario::Isolation),
                NoiseModel::tx1(),
            ),
            "bicg(128x128)|tx1#32f20ef23359f960|template-policy|isolation|llc-r8|t32768|s11|n64x32",
        ),
        (
            at(
                PlatformSpec::tx1().with_policy(MatrixPolicy::Lru),
                RunWork::PremLlc { r: 1 },
                MatrixScenario::Preset(Scenario::Interference),
                NoiseModel::off(),
            ),
            "bicg(128x128)|tx1#32f20ef23359f960|lru|interference|llc-r1|t32768|s11|n0x0",
        ),
        (
            at(
                PlatformSpec::tx1(),
                RunWork::PremSpm,
                MatrixScenario::Preset(Scenario::Isolation),
                NoiseModel::off(),
            ),
            "bicg(128x128)|tx1#32f20ef23359f960|template-policy|isolation|spm|t32768|s11|n0x0",
        ),
        (
            at(
                PlatformSpec::tx1(),
                RunWork::Baseline,
                MatrixScenario::Mix(CorunnerMix::uniform(2, CorunnerProfile::Membomb)),
                NoiseModel::tx1(),
            ),
            "bicg(128x128)|tx1#32f20ef23359f960|template-policy|2xmembomb#67a7d8c3ebee207c|base|t32768|s11|n64x32",
        ),
    ];
    for (req, key) in &cases {
        assert_eq!(req.key(), *key);
    }
    // The canonical MSG spells the established modes.
    assert_eq!(RunWork::llc_with_msg(8, 40).key(), "llc-r8");
    assert_eq!(RunWork::spm_with_msg(40).key(), "spm");
}

#[test]
fn adaptive_siblings_execute_live_outside_any_family() {
    // Adaptive prefetch stops on the first all-hit pass, so its round
    // count depends on the LLC policy and seed and a capture of one
    // sibling cannot derive another (the capture path asserts as much).
    // A plan mixing adaptive policy/seed siblings with fixed-R ones must
    // replay only the fixed family and run every adaptive request live.
    let k = Bicg::new(128, 128);
    let mut requests = Vec::new();
    for policy in [None, Some(MatrixPolicy::Lru)] {
        for seed in [11, 23, 47] {
            for work in [
                RunWork::PremLlcAdaptive { max_rounds: 16 },
                RunWork::PremLlc { r: 8 },
            ] {
                let mut req = request(&k, work, 32 * KIB, seed, true);
                req.platform.policy = policy;
                requests.push(req);
            }
        }
    }
    let executor = PlanExecutor::new();
    let summary = executor.execute(&requests, 2);
    assert_eq!(
        summary.families, 1,
        "only the fixed-R siblings form a family"
    );
    assert_eq!(
        summary.replayed, 5,
        "six fixed-R siblings: one live, five derived"
    );
    assert_eq!(summary.executed, 6 + 1, "every adaptive request runs live");
    for req in &requests {
        assert_eq!(executor.output(req), req.execute(), "{}", req.key());
    }
}

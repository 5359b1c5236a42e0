//! Property tests on the owned wire form of run requests.
//!
//! The wire contract has two halves. **Codec identity**: an
//! [`OwnedRunRequest`] must survive to_line → from_line exactly.
//! **Identity preservation**: an
//! owned request taken from a borrowed one must resolve back to a
//! request with the same canonical `key()`, `base_key()` and
//! `fingerprint()` — the content-addressed cache, store and replay
//! layers must not be able to tell which side of a pipe a request was
//! born on. Both halves are sampled across the real coordinate space:
//! registered kernels, all platform identities, every policy and work
//! mode, presets and mixes (bursty parameters included).

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

use prem_core::{NoiseModel, RunWork};
use prem_gpusim::{CorunnerProfile, Scenario};
use prem_harness::wire::PlatformId;
use prem_harness::{
    CorunnerMix, MatrixPolicy, MatrixScenario, OwnedRunRequest, PlatformSpec, RunRequest,
};
use prem_kernels::KernelId;
use prem_memsim::KIB;

/// The sampled kernel identities (registered, dimension-valid).
fn kernel_pool() -> Vec<KernelId> {
    vec![
        KernelId::new("bicg", vec![128, 64]),
        KernelId::new("mvt", vec![128]),
        KernelId::new("gemm", vec![96, 64, 32]),
        KernelId::new("jacobi2d", vec![64, 2]),
    ]
}

/// The sampled platform identities.
fn platform_pool() -> Vec<PlatformId> {
    vec![
        PlatformId::Tx1,
        PlatformId::Tx2,
        PlatformId::XavierLike,
        PlatformId::Generic {
            llc_kib: 256,
            ways: 8,
            spm_kib: 64,
        },
    ]
}

/// Builds the sampled scenario: presets, then mixes of growing shape,
/// including one with a parameterized bursty actor.
fn scenario(which: usize, duty_steps: u64) -> MatrixScenario {
    match which {
        0 => MatrixScenario::Preset(Scenario::Isolation),
        1 => MatrixScenario::Preset(Scenario::Interference),
        2 => MatrixScenario::Mix(CorunnerMix::new("0xmembomb", vec![])),
        3 => MatrixScenario::Mix(CorunnerMix::uniform(2, CorunnerProfile::Membomb)),
        4 => MatrixScenario::Mix(CorunnerMix::new(
            "stream-pair",
            vec![CorunnerProfile::Stream, CorunnerProfile::CacheThrash],
        )),
        _ => MatrixScenario::Mix(CorunnerMix::new(
            "1xbursty",
            vec![CorunnerProfile::Bursty {
                duty: duty_steps as f64 / 16.0,
                period_cycles: 500.0 + duty_steps as f64 * 37.5,
            }],
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wire_forms_roundtrip_and_preserve_identity(
        (kernel, platform) in (
            proptest::sample::select(kernel_pool()),
            proptest::sample::select(platform_pool()),
        ),
        (policy_tag, mode, r) in (0usize..8, 0usize..3, 1u32..9),
        t_kib in proptest::sample::select(vec![16usize, 32, 64]),
        seed in 0u64..1000,
        (scenario_tag, duty_steps) in (0usize..6, 0u64..17),
        noisy in 0usize..2,
    ) {
        let owned = OwnedRunRequest {
            kernel,
            platform,
            policy: policy_tag
                .checked_sub(1)
                .map(|i| MatrixPolicy::what_if_axis()[i]),
            work: match mode {
                0 => RunWork::PremLlc { r },
                1 => RunWork::PremSpm,
                _ => RunWork::Baseline,
            },
            t_bytes: t_kib * KIB,
            seed,
            scenario: scenario(scenario_tag, duty_steps),
            noise: if noisy == 0 {
                NoiseModel::off()
            } else {
                NoiseModel::tx1()
            },
        };

        // Line codec: from_line(to_line(x)) == x.
        let line = owned.to_line();
        let from_line = OwnedRunRequest::from_line(&line)
            .unwrap_or_else(|e| panic!("line `{line}` rejected: {e}"));
        prop_assert_eq!(&from_line, &owned);

        // Identity preservation: the borrowed request built by hand from
        // the same coordinates and the resolved owned request agree on
        // key, base key and fingerprint; `of` inverts `resolve`.
        let resolved = owned.clone().resolve().expect("registered kernel");
        let kernel_instance = owned.kernel.instantiate().expect("registered kernel");
        let mut platform_spec =
            PlatformSpec::new(owned.platform.name(), owned.platform.config());
        platform_spec.policy = owned.policy;
        let borrowed = RunRequest {
            kernel: kernel_instance.as_ref(),
            platform: platform_spec,
            work: owned.work,
            t_bytes: owned.t_bytes,
            seed: owned.seed,
            scenario: owned.scenario.clone(),
            noise: owned.noise,
        };
        prop_assert_eq!(resolved.request().key(), borrowed.key());
        prop_assert_eq!(resolved.request().base_key(), borrowed.base_key());
        prop_assert_eq!(resolved.request().fingerprint(), borrowed.fingerprint());
        prop_assert_eq!(&OwnedRunRequest::of(&borrowed).expect("wire-able"), &owned);
    }
}

//! The `RunRequest → run_prem / run_baseline` bridge.
//!
//! The run-plan layer (`prem-harness::plan`) canonicalizes every simulator
//! invocation in the workspace into a request; this module is the single
//! place such a request becomes an actual execution. [`RunWork`] names the
//! execution modes consumers use — LLC-PREM (fixed or adaptive prefetch),
//! SPM-PREM, each optionally under a non-canonical sync granularity, and
//! the unprotected baseline — [`RunWork::prem_config`] derives the one
//! canonical [`PremConfig`] per mode, and [`execute_run`] runs a resolved
//! request on a freshly built platform (its capturing counterpart is
//! [`crate::whatif::execute_run_captured`]).
//!
//! Keeping the mode → configuration mapping here (rather than in each
//! consumer) is what makes the run-plan cache sound: two layers that
//! *mean* the same run cannot accidentally construct different
//! `PremConfig`s for it.

use prem_gpusim::{ExecError, PlatformConfig, Scenario};

use crate::exec::{run_baseline, run_prem_traced_reporting_profile, NoiseModel, PremConfig};
use crate::interval::IntervalSpec;
use crate::local_store::{LocalStore, PrefetchStrategy};
use crate::sync::SyncConfig;
use crate::{BaselineRun, PremRun};

/// What a run request executes once its platform is resolved.
///
/// The sync-granularity variants carry the minimum synchronization
/// granularity in whole µs so the mode stays `Copy + Eq`. Build them
/// through [`RunWork::llc_with_msg`] / [`RunWork::spm_with_msg`], which
/// lower the canonical TX1 MSG to the plain [`RunWork::PremLlc`] /
/// [`RunWork::PremSpm`] spelling: one run, one key.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunWork {
    /// LLC-PREM with `r` prefetch repetitions — the paper's tamed
    /// configuration ([`PremConfig::llc_tamed`] with `Repeated { r }`).
    PremLlc {
        /// Prefetch repetition factor.
        r: u32,
    },
    /// LLC-PREM with adaptive prefetching: passes repeat until one hits
    /// entirely, up to `max_rounds` ([`PrefetchStrategy::UntilResident`]).
    /// Its round counts depend on the LLC policy and seed, so it is never
    /// replay-eligible.
    PremLlcAdaptive {
        /// Upper bound on prefetch passes.
        max_rounds: u32,
    },
    /// [`RunWork::PremLlc`] under a sync fabric whose minimum
    /// synchronization granularity is `msg_us` instead of the TX1's.
    PremLlcMsg {
        /// Prefetch repetition factor.
        r: u32,
        /// Minimum synchronization granularity (whole µs).
        msg_us: u32,
    },
    /// SPM-PREM, the HePREM-like state of the art ([`PremConfig::spm`]).
    PremSpm,
    /// [`RunWork::PremSpm`] under a sync fabric whose minimum
    /// synchronization granularity is `msg_us` instead of the TX1's.
    PremSpmMsg {
        /// Minimum synchronization granularity (whole µs).
        msg_us: u32,
    },
    /// The unprotected baseline (no phases, no staging, no protection).
    Baseline,
}

impl RunWork {
    /// LLC-PREM with `r` repetitions under MSG `msg_us`: the plain
    /// [`RunWork::PremLlc`] at the canonical TX1 MSG, otherwise
    /// [`RunWork::PremLlcMsg`].
    pub fn llc_with_msg(r: u32, msg_us: u32) -> RunWork {
        if is_canonical_msg(msg_us) {
            RunWork::PremLlc { r }
        } else {
            RunWork::PremLlcMsg { r, msg_us }
        }
    }

    /// SPM-PREM under MSG `msg_us`: the plain [`RunWork::PremSpm`] at the
    /// canonical TX1 MSG, otherwise [`RunWork::PremSpmMsg`].
    pub fn spm_with_msg(msg_us: u32) -> RunWork {
        if is_canonical_msg(msg_us) {
            RunWork::PremSpm
        } else {
            RunWork::PremSpmMsg { msg_us }
        }
    }

    /// Short stable name used in canonical request keys (`llc-r8`,
    /// `llc-ur16`, `llc-r8-msg5`, `spm`, `spm-msg5`, `base`). Part of every
    /// cached fingerprint — renaming a mode invalidates all published
    /// plans, so name modes once.
    pub fn key(&self) -> String {
        match self {
            RunWork::PremLlc { r } => format!("llc-r{r}"),
            RunWork::PremLlcAdaptive { max_rounds } => format!("llc-ur{max_rounds}"),
            RunWork::PremLlcMsg { r, msg_us } => format!("llc-r{r}-msg{msg_us}"),
            RunWork::PremSpm => "spm".into(),
            RunWork::PremSpmMsg { msg_us } => format!("spm-msg{msg_us}"),
            RunWork::Baseline => "base".into(),
        }
    }

    /// The canonical [`PremConfig`] this mode executes under (`None` for
    /// the baseline, which takes seed and noise directly). This is the
    /// single source of the experiment configurations: `prem-report`'s
    /// `llc_prem_config` and the matrix engine both delegate here.
    pub fn prem_config(&self, seed: u64, noise: NoiseModel) -> Option<PremConfig> {
        let llc = |prefetch| PremConfig {
            store: LocalStore::Llc { prefetch },
            ..PremConfig::llc_tamed()
        };
        let msg = |msg_us: u32| SyncConfig {
            msg_us: f64::from(msg_us),
            ..SyncConfig::tx1()
        };
        let cfg = match *self {
            RunWork::PremLlc { r } => llc(PrefetchStrategy::Repeated { r }),
            RunWork::PremLlcAdaptive { max_rounds } => {
                llc(PrefetchStrategy::UntilResident { max_rounds })
            }
            RunWork::PremLlcMsg { r, msg_us } => PremConfig {
                sync: msg(msg_us),
                ..llc(PrefetchStrategy::Repeated { r })
            },
            RunWork::PremSpm => PremConfig::spm(),
            RunWork::PremSpmMsg { msg_us } => PremConfig {
                sync: msg(msg_us),
                ..PremConfig::spm()
            },
            RunWork::Baseline => return None,
        };
        Some(cfg.with_seed(seed).with_noise(noise))
    }
}

/// Whether `msg_us` is the TX1 sync fabric's own MSG ([`SyncConfig::tx1`]).
fn is_canonical_msg(msg_us: u32) -> bool {
    f64::from(msg_us) == SyncConfig::tx1().msg_us
}

/// Outcome of one executed run request: the PREM result or the baseline
/// result, depending on the request's [`RunWork`].
#[derive(Clone, Debug, PartialEq)]
pub enum RunOutput {
    /// A PREM schedule execution (every [`RunWork`] mode but the baseline).
    Prem(PremRun),
    /// An unprotected baseline execution ([`RunWork::Baseline`]).
    Baseline(BaselineRun),
}

impl RunOutput {
    /// Unwraps a PREM result.
    ///
    /// # Panics
    ///
    /// Panics if the output is a baseline run — requesting PREM output for
    /// a baseline request is a plan-construction bug, not a runtime
    /// condition.
    pub fn prem(self) -> PremRun {
        match self {
            RunOutput::Prem(run) => run,
            RunOutput::Baseline(_) => panic!("requested PREM output of a baseline run"),
        }
    }

    /// Unwraps a baseline result.
    ///
    /// # Panics
    ///
    /// Panics if the output is a PREM run (see [`RunOutput::prem`]).
    pub fn baseline(self) -> BaselineRun {
        match self {
            RunOutput::Baseline(run) => run,
            RunOutput::Prem(_) => panic!("requested baseline output of a PREM run"),
        }
    }
}

/// Executes one fully-resolved run request: builds `platform_cfg`, derives
/// the mode's canonical [`PremConfig`] and dispatches to the PREM engine
/// ([`run_prem_traced_reporting_profile`]) or [`run_baseline`].
///
/// `profiled` is an optional memoized profiling result from
/// [`profile_run`]: `Some` skips the profiling pass, `None` profiles
/// inline (fused into the timed run whenever the mix allows); the output
/// is bit-identical either way. Baseline work ignores it. Alongside the
/// output the bridge returns the `(m_wcet, c_wcet)` the run's budgets
/// derive from (`None` for baseline work) — what the plan layer backfills
/// its profile memo with.
///
/// `platform_cfg` must already carry every per-request override (LLC
/// policy, LLC seed, co-runner mix) — resolution is the plan layer's job;
/// this bridge only executes.
///
/// # Errors
///
/// Exactly the [`run_prem`] / [`run_baseline`] error conditions
/// ([`ExecError::Spm`] for over-capacity SPM footprints).
///
/// [`run_prem`]: crate::run_prem
pub fn execute_run(
    platform_cfg: &PlatformConfig,
    intervals: &[IntervalSpec],
    work: RunWork,
    seed: u64,
    scenario: Scenario,
    noise: NoiseModel,
    profiled: Option<(f64, f64)>,
) -> Result<(RunOutput, Option<(f64, f64)>), ExecError> {
    let mut platform = platform_cfg.build();
    match work.prem_config(seed, noise) {
        Some(cfg) => run_prem_traced_reporting_profile(
            &mut platform,
            intervals,
            &cfg,
            scenario,
            profiled,
            &mut prem_memsim::NullSink,
        )
        .map(|(run, wcets)| (RunOutput::Prem(run), Some(wcets))),
        None => run_baseline(&mut platform, intervals, seed, scenario, noise)
            .map(|run| (RunOutput::Baseline(run), None)),
    }
}

/// Runs only the isolated profiling pass of a request, returning its
/// `(m_wcet, c_wcet)` — the memoizable half of [`execute_run`].
///
/// Returns `Ok(None)` for [`RunWork::Baseline`] (the baseline never
/// profiles). The result is valid for *every* scenario sibling of the
/// request (profiling is scenario-independent — see
/// [`crate::exec::profile_phases`]); feed it back through
/// [`execute_run`] under any scenario and the output is bit-identical to
/// profiling inline.
///
/// # Errors
///
/// Exactly the [`execute_run`] error conditions.
pub fn profile_run(
    platform_cfg: &PlatformConfig,
    intervals: &[IntervalSpec],
    work: RunWork,
    seed: u64,
    noise: NoiseModel,
) -> Result<Option<(f64, f64)>, ExecError> {
    match work.prem_config(seed, noise) {
        Some(cfg) => {
            let mut platform = platform_cfg.build();
            crate::exec::profile_phases(&mut platform, intervals, &cfg).map(Some)
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_prem;
    use crate::interval::CAccess;
    use prem_memsim::LineAddr;

    fn toy_intervals() -> Vec<IntervalSpec> {
        (0..4)
            .map(|i| {
                let lines: Vec<_> = (0..64u64).map(|j| LineAddr::new(i * 64 + j)).collect();
                let accesses = lines.iter().map(|&l| CAccess::read(l)).collect();
                IntervalSpec::new(lines, accesses, 128)
            })
            .collect()
    }

    #[test]
    fn work_keys_are_stable() {
        // These strings are part of every cached request fingerprint.
        assert_eq!(RunWork::PremLlc { r: 8 }.key(), "llc-r8");
        assert_eq!(RunWork::PremSpm.key(), "spm");
        assert_eq!(RunWork::Baseline.key(), "base");
        assert_eq!(
            RunWork::PremLlcAdaptive { max_rounds: 16 }.key(),
            "llc-ur16"
        );
        assert_eq!(RunWork::llc_with_msg(8, 5).key(), "llc-r8-msg5");
        assert_eq!(RunWork::spm_with_msg(100).key(), "spm-msg100");
    }

    #[test]
    fn the_canonical_msg_lowers_to_the_plain_modes() {
        assert_eq!(RunWork::llc_with_msg(8, 40), RunWork::PremLlc { r: 8 });
        assert_eq!(RunWork::spm_with_msg(40), RunWork::PremSpm);
        // The plain and the explicit-MSG spellings configure one run.
        let noise = NoiseModel::off();
        assert_eq!(
            RunWork::PremLlcMsg { r: 8, msg_us: 40 }.prem_config(3, noise),
            RunWork::PremLlc { r: 8 }.prem_config(3, noise)
        );
        assert_eq!(
            RunWork::PremSpmMsg { msg_us: 40 }.prem_config(3, noise),
            RunWork::PremSpm.prem_config(3, noise)
        );
    }

    #[test]
    fn ablation_modes_match_the_hand_built_configs() {
        let noise = NoiseModel::off();
        let adaptive = RunWork::PremLlcAdaptive { max_rounds: 16 }
            .prem_config(5, noise)
            .unwrap();
        let by_hand = PremConfig {
            store: LocalStore::Llc {
                prefetch: PrefetchStrategy::UntilResident { max_rounds: 16 },
            },
            ..PremConfig::llc_tamed()
        }
        .with_seed(5);
        assert_eq!(adaptive, by_hand);
        let sync = SyncConfig {
            msg_us: 5.0,
            ..SyncConfig::tx1()
        };
        let llc = RunWork::llc_with_msg(8, 5).prem_config(5, noise).unwrap();
        let by_hand = PremConfig {
            sync,
            ..PremConfig::llc_tamed()
        }
        .with_seed(5);
        assert_eq!(llc, by_hand);
        let spm = RunWork::spm_with_msg(5).prem_config(5, noise).unwrap();
        let by_hand = PremConfig {
            sync,
            ..PremConfig::spm()
        }
        .with_seed(5);
        assert_eq!(spm, by_hand);
    }

    #[test]
    fn prem_config_matches_the_hand_built_experiment_configs() {
        let noise = NoiseModel::tx1();
        let llc = RunWork::PremLlc { r: 8 }.prem_config(11, noise).unwrap();
        let by_hand = PremConfig {
            store: LocalStore::Llc {
                prefetch: PrefetchStrategy::Repeated { r: 8 },
            },
            ..PremConfig::llc_tamed()
        }
        .with_seed(11)
        .with_noise(noise);
        assert_eq!(llc, by_hand);
        let spm = RunWork::PremSpm.prem_config(11, noise).unwrap();
        assert_eq!(spm, PremConfig::spm().with_seed(11).with_noise(noise));
        assert!(RunWork::Baseline.prem_config(11, noise).is_none());
    }

    #[test]
    fn bridge_reproduces_direct_execution() {
        let cfg = PlatformConfig::tx1().llc_seed(7);
        let ivs = toy_intervals();
        let bridged = execute_run(
            &cfg,
            &ivs,
            RunWork::PremLlc { r: 8 },
            7,
            Scenario::Isolation,
            NoiseModel::tx1(),
            None,
        )
        .unwrap()
        .0
        .prem();
        let mut platform = cfg.build();
        let direct = run_prem(
            &mut platform,
            &ivs,
            &RunWork::PremLlc { r: 8 }
                .prem_config(7, NoiseModel::tx1())
                .unwrap(),
            Scenario::Isolation,
        )
        .unwrap();
        assert_eq!(bridged, direct);

        let base = execute_run(
            &cfg,
            &ivs,
            RunWork::Baseline,
            7,
            Scenario::Isolation,
            NoiseModel::off(),
            None,
        )
        .unwrap()
        .0
        .baseline();
        let mut platform = cfg.build();
        let direct = run_baseline(
            &mut platform,
            &ivs,
            7,
            Scenario::Isolation,
            NoiseModel::off(),
        )
        .unwrap();
        assert_eq!(base, direct);
    }

    #[test]
    #[should_panic(expected = "baseline output of a PREM run")]
    fn output_unwrap_mismatch_panics() {
        let cfg = PlatformConfig::tx1();
        let out = execute_run(
            &cfg,
            &toy_intervals(),
            RunWork::PremLlc { r: 1 },
            1,
            Scenario::Isolation,
            NoiseModel::off(),
            None,
        )
        .unwrap()
        .0;
        let _ = out.baseline();
    }
}

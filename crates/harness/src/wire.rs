//! Owned, wire-ready run requests.
//!
//! [`RunRequest`] borrows its kernel, which is
//! the right shape in-process and an impossible one across a process
//! boundary. This module provides the owned form the `prem-serve` front
//! end ships over pipes: an [`OwnedRunRequest`] names its kernel through
//! the [`prem_kernels::registry`] ([`KernelId`]) and its platform through
//! a closed [`PlatformId`] enum, so the request is pure data — a
//! versioned, human-writable line form round-trips it exactly.
//!
//! The identity contract: resolving an owned request
//! ([`OwnedRunRequest::resolve`]) yields a borrowed request whose
//! [`key()`](crate::plan::RunRequest::key) and
//! [`fingerprint()`](crate::plan::RunRequest::fingerprint) equal those of
//! the borrowed request it was taken from ([`OwnedRunRequest::of`]), so
//! the plan layer's content addressing — cache slots, the persistent
//! store, replay families — is oblivious to which side of a pipe a
//! request was born on.
//!
//! All parse failures are hard `InvalidData` errors, never silent
//! defaults, matching the codec and store contracts.

use std::fmt;
use std::io;

use prem_core::codec::bad_data;
use prem_core::{NoiseModel, RunWork};
use prem_gpusim::{CorunnerProfile, PlatformConfig, Scenario};
use prem_kernels::{Kernel, KernelId};
use prem_memsim::KIB;

use crate::plan::{PlatformSpec, RunRequest};
use crate::spec::{scenario_name, CorunnerMix, MatrixPolicy, MatrixScenario};

/// Version of the line form: the `v1` tag leading every request line.
/// Bump on any grammar change.
pub const WIRE_VERSION: u8 = 1;

/// A platform template as pure data: the closed set of named presets plus
/// the generic geometry, exactly the constructions
/// [`MatrixPlatform`](crate::spec::MatrixPlatform) offers.
///
/// The `Display` spelling is the *wire* spelling and is self-contained
/// (`g256k8w64s` carries the scratchpad size); [`PlatformId::name`] is
/// the report/key spelling (`g256k8w`), identical to the
/// `MatrixPlatform` convention so owned requests key like hand-built
/// ones.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// The paper's TX1 platform ([`PlatformConfig::tx1`]).
    Tx1,
    /// The TX2-like preset ([`PlatformConfig::tx2`]).
    Tx2,
    /// The Xavier-like preset ([`PlatformConfig::xavier_like`]).
    XavierLike,
    /// A synthetic geometry ([`PlatformConfig::generic`]).
    Generic {
        /// LLC capacity in KiB.
        llc_kib: usize,
        /// LLC associativity.
        ways: usize,
        /// Scratchpad capacity in KiB.
        spm_kib: usize,
    },
}

impl PlatformId {
    /// The report/key name — the spelling
    /// [`MatrixPlatform`](crate::spec::MatrixPlatform) uses, so a
    /// resolved owned request keys identically to a hand-built one.
    pub fn name(&self) -> String {
        match self {
            PlatformId::Tx1 => "tx1".into(),
            PlatformId::Tx2 => "tx2".into(),
            PlatformId::XavierLike => "xavier".into(),
            PlatformId::Generic { llc_kib, ways, .. } => format!("g{llc_kib}k{ways}w"),
        }
    }

    /// The platform template this identity names.
    pub fn config(&self) -> PlatformConfig {
        match self {
            PlatformId::Tx1 => PlatformConfig::tx1(),
            PlatformId::Tx2 => PlatformConfig::tx2(),
            PlatformId::XavierLike => PlatformConfig::xavier_like(),
            PlatformId::Generic {
                llc_kib,
                ways,
                spm_kib,
            } => PlatformConfig::generic(*llc_kib, *ways, *spm_kib),
        }
    }

    /// The platform construction recipe for a borrowed request, with the
    /// given policy override.
    pub fn spec(&self, policy: Option<MatrixPolicy>) -> PlatformSpec {
        let mut spec = PlatformSpec::new(self.name(), self.config());
        spec.policy = policy;
        spec
    }

    /// The identity of an existing recipe, or a hard error when the
    /// recipe is not one of the closed constructions this enum can name.
    ///
    /// Names alone are not trusted: the candidate identity's template
    /// must compare equal to the recipe's actual config, so a hand-tuned
    /// config under a preset's name is rejected rather than silently
    /// re-keyed to the preset.
    pub fn of_spec(spec: &PlatformSpec) -> io::Result<PlatformId> {
        let id = match spec.name.as_str() {
            "tx1" => PlatformId::Tx1,
            "tx2" => PlatformId::Tx2,
            "xavier" => PlatformId::XavierLike,
            name => {
                let (llc_kib, ways) = parse_generic_name(name).ok_or_else(|| {
                    bad_data(&format!("platform `{name}` is not a wire-able template"))
                })?;
                PlatformId::Generic {
                    llc_kib,
                    ways,
                    spm_kib: spec.config.spm.capacity_bytes() / KIB,
                }
            }
        };
        if id.config() != spec.config {
            return Err(bad_data(&format!(
                "platform `{}` does not match its named template",
                spec.name
            )));
        }
        Ok(id)
    }

    /// Parses the self-contained wire spelling (see `Display`).
    pub fn parse(s: &str) -> io::Result<PlatformId> {
        match s {
            "tx1" => return Ok(PlatformId::Tx1),
            "tx2" => return Ok(PlatformId::Tx2),
            "xavier" => return Ok(PlatformId::XavierLike),
            _ => {}
        }
        let err = || bad_data(&format!("unknown platform `{s}`"));
        let rest = s.strip_prefix('g').ok_or_else(err)?;
        let (llc, rest) = rest.split_once('k').ok_or_else(err)?;
        let (ways, rest) = rest.split_once('w').ok_or_else(err)?;
        let spm = rest.strip_suffix('s').ok_or_else(err)?;
        Ok(PlatformId::Generic {
            llc_kib: llc.parse().map_err(|_| err())?,
            ways: ways.parse().map_err(|_| err())?,
            spm_kib: spm.parse().map_err(|_| err())?,
        })
    }
}

/// Splits a `g<llc>k<ways>w` report name into its numbers.
fn parse_generic_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix('g')?;
    let (llc, rest) = rest.split_once('k')?;
    let ways = rest.strip_suffix('w')?;
    Some((llc.parse().ok()?, ways.parse().ok()?))
}

impl fmt::Display for PlatformId {
    /// The self-contained wire spelling: preset names, or
    /// `g<llc>k<ways>w<spm>s` for generic geometries (unlike the report
    /// name, this carries the scratchpad size, so it parses back).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformId::Generic {
                llc_kib,
                ways,
                spm_kib,
            } => write!(f, "g{llc_kib}k{ways}w{spm_kib}s"),
            _ => write!(f, "{}", self.name()),
        }
    }
}

/// An owned, wire-ready run request: the same seven coordinates as a
/// borrowed [`RunRequest`], with the kernel named through the registry
/// and the platform through [`PlatformId`].
#[derive(Clone, Debug, PartialEq)]
pub struct OwnedRunRequest {
    /// The kernel, by registry identity.
    pub kernel: KernelId,
    /// The platform template, by closed identity.
    pub platform: PlatformId,
    /// Optional LLC replacement-policy override.
    pub policy: Option<MatrixPolicy>,
    /// Execution mode (LLC-PREM / SPM-PREM / baseline).
    pub work: RunWork,
    /// PREM interval size in bytes.
    pub t_bytes: usize,
    /// Seed for every randomized component of the run.
    pub seed: u64,
    /// Contention scenario: a paper preset or a named co-runner mix.
    pub scenario: MatrixScenario,
    /// Unmanaged compute-phase traffic model.
    pub noise: NoiseModel,
}

impl OwnedRunRequest {
    /// The owned form of a borrowed request, or a hard error when the
    /// request cannot round-trip: its kernel is not registered (or its
    /// registered reconstruction disagrees with the instance) or its
    /// platform is not a closed-template construction.
    pub fn of(req: &RunRequest<'_>) -> io::Result<OwnedRunRequest> {
        let kernel = KernelId::of(req.kernel);
        let back = kernel.instantiate().ok_or_else(|| {
            bad_data(&format!("kernel `{}` is not registered", req.kernel.name()))
        })?;
        if back.dims() != req.kernel.dims() {
            return Err(bad_data(&format!(
                "kernel `{kernel}` does not reconstruct its instance"
            )));
        }
        Ok(OwnedRunRequest {
            kernel,
            platform: PlatformId::of_spec(&req.platform)?,
            policy: req.platform.policy,
            work: req.work,
            t_bytes: req.t_bytes,
            seed: req.seed,
            scenario: req.scenario.clone(),
            noise: req.noise,
        })
    }

    /// Instantiates the kernel and pairs it with this request, yielding a
    /// holder that can lend out the borrowed form. Hard error when the
    /// kernel identity is not registered.
    ///
    /// # Panics
    ///
    /// Propagates kernel-constructor contract panics (dimension
    /// multiples), exactly like [`prem_kernels::registry::kernel`].
    pub fn resolve(self) -> io::Result<ResolvedRunRequest> {
        let kernel = self
            .kernel
            .instantiate()
            .ok_or_else(|| bad_data(&format!("kernel `{}` is not registered", self.kernel)))?;
        Ok(ResolvedRunRequest {
            kernel,
            owned: self,
        })
    }

    /// The human-writable line form, e.g.
    /// `v1 kernel=bicg:1024x1024 platform=tx1 policy=lru work=llc-r8
    /// t=163840 seed=11 scenario=isolation noise=64x32` — the grammar the
    /// `prem-serve` protocol carries after its `req <tag>` prefix.
    /// `policy=` is omitted for template-policy requests. Mix names must
    /// avoid whitespace, `:` and `+` (the line form's reserved
    /// separators); conventional sweep names (`2xmembomb`) always do.
    pub fn to_line(&self) -> String {
        let mut line = format!("v{WIRE_VERSION} kernel={}", self.kernel);
        line.push_str(&format!(" platform={}", self.platform));
        if let Some(p) = self.policy {
            line.push_str(&format!(" policy={}", p.name()));
        }
        line.push_str(&format!(" work={}", self.work.key()));
        line.push_str(&format!(" t={} seed={}", self.t_bytes, self.seed));
        let scenario = match &self.scenario {
            MatrixScenario::Preset(s) => scenario_name(*s).to_string(),
            MatrixScenario::Mix(m) => {
                debug_assert!(
                    !m.name.contains([' ', '\t', ':', '+']),
                    "mix name `{}` uses reserved line-format characters",
                    m.name
                );
                let profiles: Vec<String> = m.profiles.iter().map(profile_spelling).collect();
                format!("mix:{}:{}", m.name, profiles.join("+"))
            }
        };
        line.push_str(&format!(" scenario={scenario}"));
        line.push_str(&format!(" noise={}x{}", self.noise.lines, self.noise.every));
        line
    }

    /// Parses the line form. Inverse of [`OwnedRunRequest::to_line`]:
    /// unknown fields, duplicate fields, missing required fields and
    /// malformed values are all hard errors.
    pub fn from_line(line: &str) -> io::Result<OwnedRunRequest> {
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some(v) if v == format!("v{WIRE_VERSION}") => {}
            Some(v) => return Err(bad_data(&format!("request line version `{v}`"))),
            None => return Err(bad_data("empty request line")),
        }
        let mut kernel = None;
        let mut platform = None;
        let mut policy = None;
        let mut work = None;
        let mut t_bytes = None;
        let mut seed = None;
        let mut scenario = None;
        let mut noise = None;
        for token in tokens {
            let (field, value) = token
                .split_once('=')
                .ok_or_else(|| bad_data(&format!("token `{token}` is not field=value")))?;
            let slot_taken = match field {
                "kernel" => kernel.replace(parse_kernel(value)?).is_some(),
                "platform" => platform.replace(PlatformId::parse(value)?).is_some(),
                "policy" => policy
                    .replace(
                        MatrixPolicy::from_name(value)
                            .ok_or_else(|| bad_data(&format!("unknown policy `{value}`")))?,
                    )
                    .is_some(),
                "work" => work.replace(parse_work(value)?).is_some(),
                "t" => t_bytes
                    .replace(
                        value
                            .parse::<usize>()
                            .map_err(|_| bad_data(&format!("interval size `{value}`")))?,
                    )
                    .is_some(),
                "seed" => seed
                    .replace(
                        value
                            .parse::<u64>()
                            .map_err(|_| bad_data(&format!("seed `{value}`")))?,
                    )
                    .is_some(),
                "scenario" => scenario.replace(parse_scenario(value)?).is_some(),
                "noise" => noise.replace(parse_noise(value)?).is_some(),
                _ => return Err(bad_data(&format!("unknown field `{field}`"))),
            };
            if slot_taken {
                return Err(bad_data(&format!("duplicate field `{field}`")));
            }
        }
        let missing = |f: &str| bad_data(&format!("missing field `{f}`"));
        Ok(OwnedRunRequest {
            kernel: kernel.ok_or_else(|| missing("kernel"))?,
            platform: platform.ok_or_else(|| missing("platform"))?,
            policy,
            work: work.ok_or_else(|| missing("work"))?,
            t_bytes: t_bytes.ok_or_else(|| missing("t"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            scenario: scenario.ok_or_else(|| missing("scenario"))?,
            noise: noise.ok_or_else(|| missing("noise"))?,
        })
    }
}

/// An [`OwnedRunRequest`] with its kernel instantiated: the holder that
/// lends out the borrowed form the plan layer consumes.
#[derive(Debug)]
pub struct ResolvedRunRequest {
    kernel: Box<dyn Kernel>,
    owned: OwnedRunRequest,
}

impl ResolvedRunRequest {
    /// The borrowed request, borrowing this holder's kernel. Its `key()`
    /// and `fingerprint()` equal those of the request the owned form was
    /// taken from.
    pub fn request(&self) -> RunRequest<'_> {
        RunRequest {
            kernel: self.kernel.as_ref(),
            platform: self.owned.platform.spec(self.owned.policy),
            work: self.owned.work,
            t_bytes: self.owned.t_bytes,
            seed: self.owned.seed,
            scenario: self.owned.scenario.clone(),
            noise: self.owned.noise,
        }
    }

    /// The owned form this holder resolved.
    pub fn owned(&self) -> &OwnedRunRequest {
        &self.owned
    }
}

/// The line-form spelling of one profile: its stable name, with `Bursty`
/// carrying its parameters as `bursty(duty,period)`. Rust's shortest
/// round-trip float formatting keeps the text form lossless.
fn profile_spelling(p: &CorunnerProfile) -> String {
    match p {
        CorunnerProfile::Bursty {
            duty,
            period_cycles,
        } => format!("bursty({duty},{period_cycles})"),
        other => other.name().to_string(),
    }
}

/// Parses one line-form profile spelling.
fn parse_profile(s: &str) -> io::Result<CorunnerProfile> {
    match s {
        "membomb" => return Ok(CorunnerProfile::Membomb),
        "stream" => return Ok(CorunnerProfile::Stream),
        "cache_thrash" => return Ok(CorunnerProfile::CacheThrash),
        "idle" => return Ok(CorunnerProfile::Idle),
        _ => {}
    }
    let err = || bad_data(&format!("unknown co-runner profile `{s}`"));
    let args = s
        .strip_prefix("bursty(")
        .and_then(|rest| rest.strip_suffix(')'))
        .ok_or_else(err)?;
    let (duty, period) = args.split_once(',').ok_or_else(err)?;
    Ok(CorunnerProfile::Bursty {
        duty: duty.parse().map_err(|_| err())?,
        period_cycles: period.parse().map_err(|_| err())?,
    })
}

/// Parses `name:d0xd1x…` into a kernel identity (see [`KernelId`]'s
/// `Display`). Registry membership is checked at resolve time, not here.
fn parse_kernel(s: &str) -> io::Result<KernelId> {
    let err = || bad_data(&format!("kernel spelling `{s}`"));
    let (name, dims) = s.split_once(':').ok_or_else(err)?;
    if name.is_empty() || dims.is_empty() {
        return Err(err());
    }
    let dims = dims
        .split('x')
        .map(|d| d.parse::<usize>().map_err(|_| err()))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(KernelId::new(name, dims))
}

/// Parses the [`RunWork::key`] spelling (`llc-r8`, `spm`, `base`).
fn parse_work(s: &str) -> io::Result<RunWork> {
    match s {
        "spm" => return Ok(RunWork::PremSpm),
        "base" => return Ok(RunWork::Baseline),
        _ => {}
    }
    let err = || bad_data(&format!("unknown work mode `{s}`"));
    let r = s.strip_prefix("llc-r").ok_or_else(err)?;
    Ok(RunWork::PremLlc {
        r: r.parse().map_err(|_| err())?,
    })
}

/// Parses a line-form scenario: a preset name or `mix:<name>:<p>+<p>…`
/// (an empty profile list is spelled `mix:<name>:`).
fn parse_scenario(s: &str) -> io::Result<MatrixScenario> {
    match s {
        "isolation" => return Ok(MatrixScenario::Preset(Scenario::Isolation)),
        "interference" => return Ok(MatrixScenario::Preset(Scenario::Interference)),
        "corunners" => return Ok(MatrixScenario::Preset(Scenario::Corunners)),
        _ => {}
    }
    let rest = s
        .strip_prefix("mix:")
        .ok_or_else(|| bad_data(&format!("unknown scenario `{s}`")))?;
    let (name, profiles) = rest
        .split_once(':')
        .ok_or_else(|| bad_data(&format!("mix spelling `{s}`")))?;
    if name.is_empty() {
        return Err(bad_data("empty mix name"));
    }
    let profiles = if profiles.is_empty() {
        Vec::new()
    } else {
        profiles
            .split('+')
            .map(parse_profile)
            .collect::<io::Result<Vec<_>>>()?
    };
    Ok(MatrixScenario::Mix(CorunnerMix::new(name, profiles)))
}

/// Parses `lines x every` noise spelling (`64x32`).
fn parse_noise(s: &str) -> io::Result<NoiseModel> {
    let err = || bad_data(&format!("noise spelling `{s}`"));
    let (lines, every) = s.split_once('x').ok_or_else(err)?;
    Ok(NoiseModel {
        lines: lines.parse().map_err(|_| err())?,
        every: every.parse().map_err(|_| err())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_kernels::Bicg;

    fn sample() -> OwnedRunRequest {
        OwnedRunRequest {
            kernel: KernelId::new("bicg", vec![128, 64]),
            platform: PlatformId::Tx1,
            policy: Some(MatrixPolicy::Lru),
            work: RunWork::PremLlc { r: 8 },
            t_bytes: 16 * KIB,
            seed: 11,
            scenario: MatrixScenario::Mix(CorunnerMix::new(
                "2xmembomb",
                vec![CorunnerProfile::Membomb; 2],
            )),
            noise: NoiseModel {
                lines: 64,
                every: 32,
            },
        }
    }

    #[test]
    fn line_form_round_trips() {
        let req = sample();
        assert_eq!(OwnedRunRequest::from_line(&req.to_line()).unwrap(), req);
    }

    #[test]
    fn bursty_parameters_survive_the_line_form() {
        let mut req = sample();
        req.scenario = MatrixScenario::Mix(CorunnerMix::new(
            "1xbursty",
            vec![CorunnerProfile::Bursty {
                duty: 0.37,
                period_cycles: 12_500.5,
            }],
        ));
        assert_eq!(OwnedRunRequest::from_line(&req.to_line()).unwrap(), req);
    }

    #[test]
    fn owned_form_keys_like_the_borrowed_form() {
        let kernel = Bicg::new(128, 64);
        let borrowed = RunRequest {
            kernel: &kernel,
            platform: PlatformSpec::tx1().with_policy(MatrixPolicy::Srrip),
            work: RunWork::PremSpm,
            t_bytes: 16 * KIB,
            seed: 7,
            scenario: MatrixScenario::Preset(Scenario::Isolation),
            noise: NoiseModel::off(),
        };
        let owned = OwnedRunRequest::of(&borrowed).unwrap();
        let resolved = owned.clone().resolve().unwrap();
        assert_eq!(resolved.request().key(), borrowed.key());
        assert_eq!(resolved.request().base_key(), borrowed.base_key());
        assert_eq!(resolved.request().fingerprint(), borrowed.fingerprint());
    }

    #[test]
    fn malformed_lines_are_hard_errors() {
        for line in [
            "",
            "v2 kernel=bicg:128x64",
            "v1 kernel=bicg:128x64 platform=tx1 work=spm t=16384 seed=1 scenario=isolation",
            "v1 kernel=bicg:128x64 platform=tx9 work=spm t=16384 seed=1 scenario=isolation noise=0x0",
            "v1 kernel=bicg:128x64 platform=tx1 work=warp t=16384 seed=1 scenario=isolation noise=0x0",
            "v1 kernel=bicg:128x64 platform=tx1 work=spm t=16384 seed=1 scenario=solitude noise=0x0",
            "v1 kernel=bicg:128x64 platform=tx1 work=spm t=16384 seed=1 seed=2 scenario=isolation noise=0x0",
            "v1 kernel=bicg:128x64 platform=tx1 work=spm t=16384 seed=1 scenario=isolation noise=0x0 color=red",
            "v1 kernel=bicg:128x64 platform=tx1 policy=mru work=spm t=16384 seed=1 scenario=isolation noise=0x0",
        ] {
            assert!(OwnedRunRequest::from_line(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn generic_platform_round_trips_with_scratchpad_size() {
        let id = PlatformId::Generic {
            llc_kib: 512,
            ways: 8,
            spm_kib: 64,
        };
        assert_eq!(id.to_string(), "g512k8w64s");
        assert_eq!(PlatformId::parse("g512k8w64s").unwrap(), id);
        assert_eq!(id.name(), "g512k8w");
        let spec = id.spec(None);
        assert_eq!(PlatformId::of_spec(&spec).unwrap(), id);
    }

    #[test]
    fn hand_tuned_config_under_a_preset_name_is_rejected() {
        let mut spec = PlatformSpec::tx1();
        spec.config = PlatformConfig::tx2();
        assert!(PlatformId::of_spec(&spec).is_err());
    }
}

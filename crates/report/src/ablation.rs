//! Ablation studies beyond the paper's figures.
//!
//! * [`policy_ablation`] — how much of the taming benefit is specific to the
//!   biased-random policy: CPMR and interference sensitivity for LRU, FIFO,
//!   PLRU, uniform-random and biased-random LLCs at the same `T`.
//! * [`msg_ablation`] — how the SPM/LLC gap scales with the minimum
//!   synchronization granularity (the sync fabric's quality).
//! * [`adaptive_ablation`] — fixed `R` repetition versus the adaptive
//!   `UntilResident` strategy.
//! * [`bias_ablation`] — how biased the bad way's victim weight must be
//!   for the taming recipe to matter.
//!
//! Each ablation is a plan builder + renderer pair, like the figures: a
//! `*_requests` function enumerates its canonical
//! [`RunRequest`]s and a `*_with` renderer draws it from any
//! [`RunSource`], so the `figures` binary serves the ablations from its
//! merged plan (and warm from the run store). The classic entry points
//! render from a fresh [`PlanExecutor`](prem_harness::PlanExecutor) that
//! executed exactly that plan. Every ablation run is on the TX1 template
//! with unmanaged noise off.

use prem_core::{sensitivity, NoiseModel, PremRun, RunWork};
use prem_gpusim::{PlatformConfig, Scenario};
use prem_harness::{MatrixPolicy, MatrixScenario, PlatformSpec, RunRequest, RunSource};
use prem_kernels::Kernel;
use prem_memsim::Policy;

use crate::common::{executed_plan, Harness};
use crate::stats::over_seeds;
use crate::table::{f3, pct, Table};

/// The tamed configuration's prefetch repetition factor
/// ([`PremConfig::llc_tamed`](prem_core::PremConfig::llc_tamed)).
const TAMED_R: u32 = 8;

/// One ablation run: `work` on `platform` at interval size `t_bytes`
/// under a paper preset scenario, unmanaged noise off.
fn ablation_request(
    kernel: &dyn Kernel,
    platform: PlatformSpec,
    work: RunWork,
    t_bytes: usize,
    seed: u64,
    scenario: Scenario,
) -> RunRequest<'_> {
    RunRequest {
        kernel,
        platform,
        work,
        t_bytes,
        seed,
        scenario: MatrixScenario::Preset(scenario),
        noise: NoiseModel::off(),
    }
}

/// Executes `req` through `source` as a PREM run.
fn prem(source: &impl RunSource, req: &RunRequest<'_>) -> PremRun {
    source.output(req).prem()
}

/// One policy's behaviour under PREM.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyRow {
    /// Policy name.
    pub policy: String,
    /// Prefetch repetition factor.
    pub r: u32,
    /// Mean CPMR in isolation.
    pub cpmr: f64,
    /// Interference sensitivity of the schedule.
    pub sensitivity: f64,
}

/// The policy ablation's axis in output order: biased-random is the TX1
/// template's own policy (no override), the rest override it.
const POLICY_AXIS: [(&str, Option<MatrixPolicy>); 6] = [
    ("biased-random", None),
    ("random", Some(MatrixPolicy::Random)),
    ("lru", Some(MatrixPolicy::Lru)),
    ("fifo", Some(MatrixPolicy::Fifo)),
    ("plru", Some(MatrixPolicy::Plru)),
    ("srrip", Some(MatrixPolicy::Srrip)),
];

/// A policy-ablation run: LLC-PREM with `r` repetitions under `policy`.
fn policy_request(
    kernel: &dyn Kernel,
    policy: Option<MatrixPolicy>,
    t_bytes: usize,
    r: u32,
    seed: u64,
    scenario: Scenario,
) -> RunRequest<'_> {
    let platform = match policy {
        Some(p) => PlatformSpec::tx1().with_policy(p),
        None => PlatformSpec::tx1(),
    };
    ablation_request(
        kernel,
        platform,
        RunWork::PremLlc { r },
        t_bytes,
        seed,
        scenario,
    )
}

/// The runs [`policy_ablation_with`] consumes, as a plan: every policy ×
/// `rs` × {isolation, interference}, seed-expanded. The policies of one
/// (R, scenario) point form one derivation family.
pub fn policy_ablation_requests<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    rs: &[u32],
) -> Vec<RunRequest<'k>> {
    let mut reqs = Vec::new();
    for (_, policy) in POLICY_AXIS {
        for &r in rs {
            for scenario in [Scenario::Isolation, Scenario::Interference] {
                reqs.extend(
                    harness.requests(|s| policy_request(kernel, policy, t_bytes, r, s, scenario)),
                );
            }
        }
    }
    reqs
}

/// The replacement-policy ablation at interval size `t_bytes`, rendered
/// from `source`.
pub fn policy_ablation_with(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    rs: &[u32],
    source: &impl RunSource,
) -> Vec<PolicyRow> {
    let mut rows = Vec::new();
    for (name, policy) in POLICY_AXIS {
        for &r in rs {
            let run = |seed, scenario| {
                prem(
                    source,
                    &policy_request(kernel, policy, t_bytes, r, seed, scenario),
                )
            };
            let cpmr = over_seeds(&harness.seeds, |s| run(s, Scenario::Isolation).cpmr).mean;
            let sens = over_seeds(&harness.seeds, |s| {
                sensitivity(
                    run(s, Scenario::Isolation).makespan_cycles,
                    run(s, Scenario::Interference).makespan_cycles,
                )
            })
            .mean;
            rows.push(PolicyRow {
                policy: name.to_string(),
                r,
                cpmr,
                sensitivity: sens,
            });
        }
    }
    rows
}

/// Runs the replacement-policy ablation at interval size `t_bytes`.
pub fn policy_ablation(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    rs: &[u32],
) -> Vec<PolicyRow> {
    let plan = executed_plan(&policy_ablation_requests(kernel, harness, t_bytes, rs));
    policy_ablation_with(kernel, harness, t_bytes, rs, &plan)
}

/// Renders the policy ablation.
pub fn policy_table(rows: &[PolicyRow], t_kib: usize) -> Table {
    let mut t = Table::new(
        format!("Ablation: LLC replacement policy under PREM (T={t_kib}K)"),
        &["policy", "R", "cpmr", "sensitivity"],
    );
    for r in rows {
        t.push_row(vec![
            r.policy.clone(),
            r.r.to_string(),
            pct(r.cpmr),
            pct(r.sensitivity),
        ]);
    }
    t
}

/// One MSG setting's SPM-vs-LLC outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct MsgRow {
    /// Minimum synchronization granularity (µs).
    pub msg_us: f64,
    /// SPM makespan / LLC makespan (isolation).
    pub spm_over_llc: f64,
}

/// `msg_us` as whole µs, the granularity [`RunWork`] carries.
///
/// # Panics
///
/// Panics when `msg_us` is not a whole, non-negative number of µs.
fn whole_us(msg_us: f64) -> u32 {
    let whole = msg_us as u32;
    assert!(
        f64::from(whole) == msg_us,
        "MSG {msg_us} µs is not a whole number of µs"
    );
    whole
}

/// The MSG ablation's (SPM, tamed LLC) request pair at one MSG and seed.
fn msg_requests_at(
    kernel: &dyn Kernel,
    t_spm: usize,
    t_llc: usize,
    msg_us: f64,
    seed: u64,
) -> [RunRequest<'_>; 2] {
    let msg = whole_us(msg_us);
    let at = |work, t| {
        ablation_request(
            kernel,
            PlatformSpec::tx1(),
            work,
            t,
            seed,
            Scenario::Isolation,
        )
    };
    [
        at(RunWork::spm_with_msg(msg), t_spm),
        at(RunWork::llc_with_msg(TAMED_R, msg), t_llc),
    ]
}

/// The runs [`msg_ablation_with`] consumes, as a plan: SPM at `t_spm` and
/// the tamed LLC at `t_llc` per MSG (whole µs), isolated, seed-expanded.
///
/// # Panics
///
/// Panics when an MSG is not a whole number of µs.
pub fn msg_ablation_requests<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t_spm: usize,
    t_llc: usize,
    msgs_us: &[f64],
) -> Vec<RunRequest<'k>> {
    let mut reqs = Vec::new();
    for &msg_us in msgs_us {
        for &seed in &harness.seeds {
            reqs.extend(msg_requests_at(kernel, t_spm, t_llc, msg_us, seed));
        }
    }
    reqs
}

/// The MSG sweep, rendered from `source`: with a fast sync fabric the
/// SPM's small-phase penalty shrinks — quantifying how much of the LLC
/// win is sync-granularity.
///
/// # Panics
///
/// Panics when an MSG is not a whole number of µs.
pub fn msg_ablation_with(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_spm: usize,
    t_llc: usize,
    msgs_us: &[f64],
    source: &impl RunSource,
) -> Vec<MsgRow> {
    msgs_us
        .iter()
        .map(|&msg_us| {
            let makespan = |which: usize| {
                over_seeds(&harness.seeds, |seed| {
                    let req = &msg_requests_at(kernel, t_spm, t_llc, msg_us, seed)[which];
                    prem(source, req).makespan_cycles
                })
                .mean
            };
            MsgRow {
                msg_us,
                spm_over_llc: makespan(0) / makespan(1),
            }
        })
        .collect()
}

/// Sweeps the MSG: with a fast sync fabric the SPM's small-phase penalty
/// shrinks — quantifying how much of the LLC win is sync-granularity.
///
/// # Panics
///
/// Panics when an MSG is not a whole number of µs.
pub fn msg_ablation(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_spm: usize,
    t_llc: usize,
    msgs_us: &[f64],
) -> Vec<MsgRow> {
    let plan = executed_plan(&msg_ablation_requests(
        kernel, harness, t_spm, t_llc, msgs_us,
    ));
    msg_ablation_with(kernel, harness, t_spm, t_llc, msgs_us, &plan)
}

/// Renders the MSG ablation.
pub fn msg_table(rows: &[MsgRow], t_spm_kib: usize, t_llc_kib: usize) -> Table {
    let mut t = Table::new(
        format!("Ablation: sync granularity (SPM T={t_spm_kib}K vs LLC T={t_llc_kib}K)"),
        &["msg-us", "spm/llc"],
    );
    for r in rows {
        t.push_row(vec![format!("{:.0}", r.msg_us), f3(r.spm_over_llc)]);
    }
    t
}

/// One bad-way-weight setting's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct BiasRow {
    /// Victim weight of the bad way (others weigh 1 each).
    pub bad_weight: u32,
    /// Resulting bad-way victim probability.
    pub bad_probability: f64,
    /// CPMR at R = 1.
    pub cpmr_r1: f64,
    /// CPMR at R = 8.
    pub cpmr_r8: f64,
}

/// A bias-ablation run: LLC-PREM with `r` repetitions on a TX1 whose bad
/// way has victim weight `w`. The weight lives in the platform template,
/// so its config digest keys the run; weight 3 *is* the TX1 template and
/// shares the policy ablation's biased-random keys.
fn bias_request(kernel: &dyn Kernel, w: u32, t_bytes: usize, r: u32, seed: u64) -> RunRequest<'_> {
    let policy = Policy::BiasedRandom {
        weights: vec![1, 1, w, 1],
    };
    let platform = PlatformSpec::new("tx1", PlatformConfig::tx1().llc_policy(policy));
    ablation_request(
        kernel,
        platform,
        RunWork::PremLlc { r },
        t_bytes,
        seed,
        Scenario::Isolation,
    )
}

/// The prefetch repetition factors the bias ablation compares.
const BIAS_RS: [u32; 2] = [1, 8];

/// The runs [`bias_ablation_with`] consumes, as a plan: every weight ×
/// R ∈ {1, 8}, isolated, seed-expanded.
pub fn bias_ablation_requests<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    weights: &[u32],
) -> Vec<RunRequest<'k>> {
    let mut reqs = Vec::new();
    for &w in weights {
        for r in BIAS_RS {
            reqs.extend(harness.requests(|s| bias_request(kernel, w, t_bytes, r, s)));
        }
    }
    reqs
}

/// The bad-way victim-weight sweep, rendered from `source`.
pub fn bias_ablation_with(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    weights: &[u32],
    source: &impl RunSource,
) -> Vec<BiasRow> {
    weights
        .iter()
        .map(|&w| {
            let cpmr_at = |r: u32| {
                over_seeds(&harness.seeds, |s| {
                    prem(source, &bias_request(kernel, w, t_bytes, r, s)).cpmr
                })
                .mean
            };
            BiasRow {
                bad_weight: w,
                bad_probability: w as f64 / (w as f64 + 3.0),
                cpmr_r1: cpmr_at(BIAS_RS[0]),
                cpmr_r8: cpmr_at(BIAS_RS[1]),
            }
        })
        .collect()
}

/// Sweeps the bad way's victim weight: from uniform (weight 1 ⇒ p = 1/4) to
/// far worse than the TX1's measured 3 (p = 1/2). Shows that the taming
/// recipe is robust to how biased the policy actually is.
pub fn bias_ablation(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    weights: &[u32],
) -> Vec<BiasRow> {
    let plan = executed_plan(&bias_ablation_requests(kernel, harness, t_bytes, weights));
    bias_ablation_with(kernel, harness, t_bytes, weights, &plan)
}

/// Renders the bias ablation.
pub fn bias_table(rows: &[BiasRow], t_kib: usize) -> Table {
    let mut t = Table::new(
        format!("Ablation: bad-way victim weight (T={t_kib}K)"),
        &["bad-weight", "p(bad)", "cpmr R=1", "cpmr R=8"],
    );
    for r in rows {
        t.push_row(vec![
            r.bad_weight.to_string(),
            pct(r.bad_probability),
            pct(r.cpmr_r1),
            pct(r.cpmr_r8),
        ]);
    }
    t
}

/// Fixed-R versus adaptive prefetching at one interval size.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveRow {
    /// Strategy label.
    pub strategy: String,
    /// Mean CPMR.
    pub cpmr: f64,
    /// Mean M-phase prefetch rounds actually used.
    pub rounds: f64,
    /// Isolated makespan relative to the fixed R=8 configuration.
    pub makespan_rel_r8: f64,
}

/// The prefetch strategies the adaptive ablation compares, in output
/// order. The fixed R=8 row doubles as the makespan reference.
const ADAPTIVE_STRATEGIES: [(&str, RunWork); 4] = [
    ("fixed R=1", RunWork::PremLlc { r: 1 }),
    ("fixed R=4", RunWork::PremLlc { r: 4 }),
    ("fixed R=8", RunWork::PremLlc { r: 8 }),
    (
        "until-resident (max 16)",
        RunWork::PremLlcAdaptive { max_rounds: 16 },
    ),
];

/// An adaptive-ablation run: `work` on the TX1 template, isolated.
fn adaptive_request(
    kernel: &dyn Kernel,
    work: RunWork,
    t_bytes: usize,
    seed: u64,
) -> RunRequest<'_> {
    ablation_request(
        kernel,
        PlatformSpec::tx1(),
        work,
        t_bytes,
        seed,
        Scenario::Isolation,
    )
}

/// The runs [`adaptive_ablation_with`] consumes, as a plan: every
/// strategy, isolated, seed-expanded. The adaptive runs never join a
/// derivation family (their round counts depend on the LLC policy/seed).
pub fn adaptive_ablation_requests<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
) -> Vec<RunRequest<'k>> {
    ADAPTIVE_STRATEGIES
        .iter()
        .flat_map(|&(_, work)| harness.requests(|s| adaptive_request(kernel, work, t_bytes, s)))
        .collect()
}

/// `Repeated{r}` against `UntilResident`, rendered from `source`.
pub fn adaptive_ablation_with(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    source: &impl RunSource,
) -> Vec<AdaptiveRow> {
    let run = |work, s| prem(source, &adaptive_request(kernel, work, t_bytes, s));
    let r8 = over_seeds(&harness.seeds, |s| {
        run(RunWork::PremLlc { r: 8 }, s).makespan_cycles
    })
    .mean;
    ADAPTIVE_STRATEGIES
        .iter()
        .map(|&(label, work)| {
            let cpmr = over_seeds(&harness.seeds, |s| run(work, s).cpmr).mean;
            let rounds = over_seeds(&harness.seeds, |s| run(work, s).max_rounds_used as f64).mean;
            let mk = over_seeds(&harness.seeds, |s| run(work, s).makespan_cycles).mean;
            AdaptiveRow {
                strategy: label.to_string(),
                cpmr,
                rounds,
                makespan_rel_r8: mk / r8,
            }
        })
        .collect()
}

/// Compares `Repeated{r}` against `UntilResident`.
pub fn adaptive_ablation(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
) -> Vec<AdaptiveRow> {
    let plan = executed_plan(&adaptive_ablation_requests(kernel, harness, t_bytes));
    adaptive_ablation_with(kernel, harness, t_bytes, &plan)
}

/// Renders the adaptive-prefetch ablation.
pub fn adaptive_table(rows: &[AdaptiveRow], t_kib: usize) -> Table {
    let mut t = Table::new(
        format!("Ablation: prefetch strategies (T={t_kib}K)"),
        &["strategy", "cpmr", "max-rounds", "makespan/R8"],
    );
    for r in rows {
        t.push_row(vec![
            r.strategy.clone(),
            pct(r.cpmr),
            format!("{:.1}", r.rounds),
            f3(r.makespan_rel_r8),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_harness::PlanExecutor;
    use prem_kernels::Bicg;
    use prem_memsim::KIB;

    #[test]
    fn lru_has_zero_cpmr() {
        let k = Bicg::new(128, 128);
        let rows = policy_ablation(&k, &Harness::quick(), 24 * KIB, &[1]);
        let lru = rows.iter().find(|r| r.policy == "lru").unwrap();
        assert_eq!(lru.cpmr, 0.0);
    }

    #[test]
    fn biased_random_improves_with_r() {
        let k = Bicg::new(128, 128);
        let rows = policy_ablation(&k, &Harness::quick(), 24 * KIB, &[1, 8]);
        let r1 = rows
            .iter()
            .find(|r| r.policy == "biased-random" && r.r == 1)
            .unwrap();
        let r8 = rows
            .iter()
            .find(|r| r.policy == "biased-random" && r.r == 8)
            .unwrap();
        assert!(r8.cpmr <= r1.cpmr);
    }

    #[test]
    fn canonical_points_lower_to_existing_keys() {
        let k = Bicg::new(128, 128);
        let h = Harness::quick();
        let keys = |reqs: Vec<RunRequest<'_>>| -> Vec<String> {
            reqs.iter().map(RunRequest::key).collect()
        };
        // Weight 3 is the TX1 template's own policy: the bias rows are the
        // policy ablation's biased-random isolation runs.
        let bias = keys(bias_ablation_requests(&k, &h, 32 * KIB, &[3]));
        let policy = keys(policy_ablation_requests(&k, &h, 32 * KIB, &[1, 8]));
        assert!(bias.iter().all(|key| policy.contains(key)), "{bias:?}");
        // The canonical MSG is the plain tamed/SPM spelling.
        let msg = keys(msg_ablation_requests(&k, &h, 32 * KIB, 32 * KIB, &[40.0]));
        assert!(
            msg[0].contains("|spm|") && msg[1].contains("|llc-r8|"),
            "{msg:?}"
        );
    }

    #[test]
    #[should_panic(expected = "not a whole number of µs")]
    fn fractional_msg_is_rejected() {
        let k = Bicg::new(128, 128);
        msg_ablation_requests(&k, &Harness::quick(), 32 * KIB, 32 * KIB, &[2.5]);
    }

    #[test]
    fn renderers_are_pure_cache_traffic_after_their_plans() {
        let k = Bicg::new(128, 128);
        let h = Harness::quick();
        let t = 32 * KIB;
        let exec = PlanExecutor::new();
        let mut plan = policy_ablation_requests(&k, &h, t, &[1, 8]);
        plan.extend(msg_ablation_requests(&k, &h, t, t, &[5.0, 40.0]));
        plan.extend(adaptive_ablation_requests(&k, &h, t));
        plan.extend(bias_ablation_requests(&k, &h, t, &[1, 3]));
        let summary = exec.execute(&plan, 2);
        assert!(summary.elided > 0, "{summary}");
        let executed = exec.executed_runs();
        policy_ablation_with(&k, &h, t, &[1, 8], &exec);
        msg_ablation_with(&k, &h, t, t, &[5.0, 40.0], &exec);
        adaptive_ablation_with(&k, &h, t, &exec);
        bias_ablation_with(&k, &h, t, &[1, 3], &exec);
        assert_eq!(exec.executed_runs(), executed);
    }
}

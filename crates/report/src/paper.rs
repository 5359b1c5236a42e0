//! The paper's artifact set, defined once.
//!
//! [`JOBS`] lists every artifact the `figures` binary regenerates — the
//! paper's Figs 1–7, the Mei et al. dissection, the what-if column, the
//! four ablations, the co-runner sweep and the scenario matrix — with its
//! parameters, its canonical [`RunRequest`]s and its renderer. Everything
//! that needs the artifact set derives it from this table: the merged
//! plan ([`plan`]), the render fan-out, the `--list` listing and the
//! unknown-subcommand check, the `cache gc` live set ([`live_keys`]) and
//! the golden tests. A new artifact is one more entry; no second list can
//! drift from it.
//!
//! Each job's plan is complete: once [`plan`] (and the job's follow-up
//! wave, if any) has executed on a [`PlanExecutor`], rendering it is pure
//! cache traffic. fig1, fig2 and mei compute their own few runs and
//! request nothing.

use std::collections::HashSet;
use std::io;

use prem_harness::{matrix_requests, matrix_with, MatrixSpec, PlanExecutor, RunRequest, RunStore};
use prem_kernels::{case_study_bicg, standard_suite, suite_small, Bicg, Kernel};
use prem_memsim::KIB;

use crate::common::Harness;
use crate::fig3::{fig3_requests, fig3_with, fig5_requests, fig5_with};
use crate::fig4::{fig4_requests, fig4_with};
use crate::fig6::{fig6_followup_requests, fig6_requests, fig6_with};
use crate::fig7::{fig7_requests, fig7_with};
use crate::whatif::{whatif_requests, whatif_with};
use crate::{ablation, fig2, interference, mei, Table};

/// Fig 6's LLC interval size (KiB).
pub const FIG6_T_KIB: usize = 160;
/// Fig 6's prefetch repetition factor.
pub const FIG6_R: u32 = 8;
/// Fig 7's prefetch repetition factor.
pub const FIG7_R: u32 = 8;
/// The ablations' (LLC) interval size: the paper's best configuration.
pub const ABLATION_T: usize = 160 * KIB;
/// The policy ablation's prefetch repetition factors.
pub const ABLATION_RS: [u32; 2] = [1, 8];
/// The MSG ablation's SPM interval size.
pub const MSG_T_SPM: usize = 96 * KIB;
/// The MSG ablation's sync granularities (µs).
pub const MSG_US: [f64; 5] = [5.0, 10.0, 20.0, 50.0, 100.0];
/// The bias ablation's bad-way victim weights.
pub const BIAS_WEIGHTS: [u32; 5] = [1, 2, 3, 5, 9];
/// The co-runner sweep's (T, R, seed, max co-runners): 0–6 co-runners per
/// profile on the inputs' bicg instance, one seed at every scale.
pub const SWEEP: (usize, u32, u64, usize) = (160 * KIB, 8, 11, 6);

/// The inputs every job draws from, at full or reduced (`quick`) scale.
#[derive(Debug)]
pub struct PaperInputs {
    /// Reduced sizes (one seed, smaller kernels, fewer dissection trials).
    pub quick: bool,
    /// The seed set randomized results average over.
    pub harness: Harness,
    /// The case-study kernel of Figs 1–5, the what-if column, the
    /// ablations and the co-runner sweep.
    pub bicg: Bicg,
    /// The kernel suite of Figs 6 and 7.
    pub suite: Vec<Box<dyn Kernel>>,
    /// The scenario matrix over the same suite.
    pub matrix: MatrixSpec,
}

impl PaperInputs {
    /// The paper-scale inputs, or the reduced ones under `quick`.
    pub fn new(quick: bool) -> Self {
        if quick {
            PaperInputs {
                quick,
                harness: Harness::quick(),
                bicg: Bicg::new(512, 512),
                suite: suite_small(),
                matrix: MatrixSpec::quick(suite_small()),
            }
        } else {
            PaperInputs {
                quick,
                harness: Harness::default(),
                bicg: case_study_bicg(),
                suite: standard_suite(),
                matrix: MatrixSpec::new(standard_suite()),
            }
        }
    }
}

/// One rendered artifact: the text rendering (table plus optional chart)
/// written as `<name>.txt`, and an optional CSV body written as
/// `<name>.csv`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact {
    /// File stem under `results/`.
    pub name: &'static str,
    /// The `.txt` body.
    pub text: String,
    /// The `.csv` body, if the artifact has one.
    pub csv: Option<String>,
}

impl Artifact {
    /// A table artifact: the rendered table followed by `extra` as text,
    /// the table's CSV as CSV.
    pub fn from_table(name: &'static str, table: &Table, extra: &str) -> Self {
        Artifact {
            name,
            text: format!("{table}\n{extra}"),
            csv: Some(table.to_csv()),
        }
    }
}

/// A job's plan builder.
pub type Requests = for<'p> fn(&'p PaperInputs) -> Vec<RunRequest<'p>>;
/// A job's data-dependent second wave, computed from an executor that
/// holds the first.
pub type Followup = for<'p> fn(&'p PaperInputs, &PlanExecutor) -> Vec<RunRequest<'p>>;
/// A job's renderer.
pub type Render = fn(&PaperInputs, &PlanExecutor) -> Vec<Artifact>;

/// One `figures` subcommand: the artifacts it renders and the runs they
/// consume.
#[derive(Debug)]
pub struct Job {
    /// The subcommand name.
    pub name: &'static str,
    /// The artifact line `figures -- --list` shows.
    pub listing: &'static str,
    /// Runs only when named, never as part of `all`.
    pub explicit_only: bool,
    /// The job's canonical runs.
    pub requests: Requests,
    /// Runs only computable once [`Job::requests`] has executed.
    pub followup: Option<Followup>,
    /// Renders the job's artifacts from an executor holding its runs.
    pub render: Render,
}

/// Every job, in `--list` and render order. Concatenating the jobs'
/// requests in this order is the merged plan; the executor's elision,
/// family and profile-memo accounting follow first occurrence, so the
/// order of the jobs that request runs (fig3 … matrix) is part of the
/// printed plan summary.
pub const JOBS: &[Job] = &[
    Job {
        name: "fig1",
        listing: "fig1.txt — PREM interval timeline (M/C phases, token exchange)",
        explicit_only: false,
        requests: |_| Vec::new(),
        followup: None,
        render: |p, _| {
            use prem_core::{run_prem, NoiseModel, PremConfig, SyncConfig};
            use prem_gpusim::{PlatformConfig, Scenario};
            let intervals = p.bicg.intervals(160 * KIB).expect("tiling");
            let mut platform = PlatformConfig::tx1().build();
            let cfg = PremConfig::llc_tamed().with_noise(NoiseModel::tx1());
            let run =
                run_prem(&mut platform, &intervals, &cfg, Scenario::Isolation).expect("prem run");
            vec![Artifact {
                name: "fig1",
                text: crate::fig1::timeline(&run, &SyncConfig::tx1(), platform.clock_ghz, 4, 0.4),
                csv: None,
            }]
        },
    },
    Job {
        name: "fig2",
        listing: "fig2.{txt,csv} — SPM vs cache data-movement instruction counts",
        explicit_only: false,
        requests: |_| Vec::new(),
        followup: None,
        render: |p, _| {
            let f = fig2::fig2(&p.bicg, 160 * KIB);
            vec![Artifact::from_table("fig2", &f.table(), "")]
        },
    },
    Job {
        name: "fig3",
        listing: "fig3.{txt,csv} — bicg breakdown, naive prefetch (R=1)",
        explicit_only: false,
        requests: |p| fig3_requests(&p.bicg, &p.harness),
        followup: None,
        render: |p, x| {
            let f = fig3_with(&p.bicg, &p.harness, x);
            vec![Artifact::from_table("fig3", &f.table(), &f.chart())]
        },
    },
    Job {
        name: "fig4",
        listing: "fig4.{txt,csv} — CPMR over the (R, T) grid",
        explicit_only: false,
        requests: |p| fig4_requests(&p.bicg, &p.harness),
        followup: None,
        render: |p, x| {
            let f = fig4_with(&p.bicg, &p.harness, x);
            vec![Artifact::from_table("fig4", &f.table(), "")]
        },
    },
    Job {
        name: "fig5",
        listing: "fig5.{txt,csv} — bicg breakdown, tamed prefetch (R=8)",
        explicit_only: false,
        requests: |p| fig5_requests(&p.bicg, &p.harness),
        followup: None,
        render: |p, x| {
            let f = fig5_with(&p.bicg, &p.harness, x);
            vec![Artifact::from_table("fig5", &f.table(), &f.chart())]
        },
    },
    Job {
        name: "fig6",
        listing: "fig6.{txt,csv} — per-kernel fair co-scheduling comparison",
        explicit_only: false,
        requests: |p| fig6_requests(&p.suite, &p.harness, FIG6_T_KIB, FIG6_R),
        // The SPM interference row runs at each kernel's best isolated T,
        // known only once the isolated candidates have executed.
        followup: Some(|p, x| fig6_followup_requests(&p.suite, &p.harness, x)),
        render: |p, x| {
            let f = fig6_with(&p.suite, &p.harness, FIG6_T_KIB, FIG6_R, x);
            vec![Artifact::from_table("fig6", &f.table(), "")]
        },
    },
    Job {
        name: "fig7",
        listing: "fig7.{txt,csv} — interference sensitivity vs T",
        explicit_only: false,
        requests: |p| fig7_requests(&p.suite, &p.harness, FIG7_R),
        followup: None,
        render: |p, x| {
            let f = fig7_with(&p.suite, &p.harness, FIG7_R, x);
            vec![Artifact::from_table("fig7", &f.table(), "")]
        },
    },
    Job {
        name: "whatif",
        listing: "whatif.{txt,csv} — LLC policy what-if sweep (replay-derived)",
        explicit_only: false,
        requests: |p| whatif_requests(&p.bicg),
        followup: None,
        render: |p, x| {
            let w = whatif_with(&p.bicg, x);
            vec![Artifact::from_table("whatif", &w.table(), "")]
        },
    },
    Job {
        name: "mei",
        listing: "mei.{txt,csv} — biased-random replacement validation",
        explicit_only: false,
        requests: |_| Vec::new(),
        followup: None,
        render: |p, _| {
            let (_, table) = mei::mei(if p.quick { 5_000 } else { 50_000 }, 7);
            vec![Artifact::from_table("mei", &table, "")]
        },
    },
    Job {
        name: "ablation",
        listing: "ablation_{policy,msg,adaptive,bias}.{txt,csv} — beyond-paper ablations",
        explicit_only: false,
        requests: |p| {
            let (bicg, h, t) = (&p.bicg, &p.harness, ABLATION_T);
            let mut reqs = ablation::policy_ablation_requests(bicg, h, t, &ABLATION_RS);
            reqs.extend(ablation::msg_ablation_requests(
                bicg, h, MSG_T_SPM, t, &MSG_US,
            ));
            reqs.extend(ablation::adaptive_ablation_requests(bicg, h, t));
            reqs.extend(ablation::bias_ablation_requests(bicg, h, t, &BIAS_WEIGHTS));
            reqs
        },
        followup: None,
        render: |p, x| {
            let (bicg, h, t) = (&p.bicg, &p.harness, ABLATION_T);
            let t_kib = t / KIB;
            let policy = ablation::policy_ablation_with(bicg, h, t, &ABLATION_RS, x);
            let msg = ablation::msg_ablation_with(bicg, h, MSG_T_SPM, t, &MSG_US, x);
            let adaptive = ablation::adaptive_ablation_with(bicg, h, t, x);
            let bias = ablation::bias_ablation_with(bicg, h, t, &BIAS_WEIGHTS, x);
            vec![
                Artifact::from_table(
                    "ablation_policy",
                    &ablation::policy_table(&policy, t_kib),
                    "",
                ),
                Artifact::from_table(
                    "ablation_msg",
                    &ablation::msg_table(&msg, MSG_T_SPM / KIB, t_kib),
                    "",
                ),
                Artifact::from_table(
                    "ablation_adaptive",
                    &ablation::adaptive_table(&adaptive, t_kib),
                    "",
                ),
                Artifact::from_table("ablation_bias", &ablation::bias_table(&bias, t_kib), ""),
            ]
        },
    },
    Job {
        name: "interference",
        listing: "interference_sweep.{txt,csv} — co-runner count sweep",
        explicit_only: false,
        requests: |p| {
            let (t, r, seed, max) = SWEEP;
            interference::interference_sweep_requests(&p.bicg, t, r, seed, max)
        },
        followup: None,
        render: |p, x| {
            let (t, r, seed, max) = SWEEP;
            let rows = interference::interference_sweep_with(&p.bicg, t, r, seed, max, x);
            vec![Artifact::from_table(
                "interference_sweep",
                &interference::sweep_table(&rows, "bicg", t / KIB, r),
                "",
            )]
        },
    },
    Job {
        name: "matrix",
        listing: "matrix.{txt,csv} — scenario matrix (explicit only)",
        explicit_only: true,
        requests: |p| matrix_requests(&p.matrix),
        followup: None,
        render: |p, x| {
            let result = matrix_with(&p.matrix, x);
            vec![Artifact {
                name: "matrix",
                text: result.render(),
                csv: Some(result.to_csv()),
            }]
        },
    },
];

/// The job called `name`, if any.
pub fn job(name: &str) -> Option<&'static Job> {
    JOBS.iter().find(|job| job.name == name)
}

/// The first-wave runs of the jobs named in `names`, concatenated in
/// [`JOBS`] order: one merged plan, across which the executor elides
/// every run two jobs share.
pub fn plan<'p>(inputs: &'p PaperInputs, names: &[&str]) -> Vec<RunRequest<'p>> {
    JOBS.iter()
        .filter(|job| names.contains(&job.name))
        .flat_map(|job| (job.requests)(inputs))
        .collect()
}

/// Every canonical key the artifact set can request — the live set
/// `cache gc` keeps: every job's runs at both scales, plus each follow-up
/// wave whose first wave `store` already holds in full (computed through
/// an executor on the same store, so from disk, never by executing
/// anything).
///
/// # Errors
///
/// Any I/O or corruption error reading `store`.
pub fn live_keys(store: &RunStore) -> io::Result<HashSet<String>> {
    let all: Vec<&str> = JOBS.iter().map(|job| job.name).collect();
    let mut keys = HashSet::new();
    for quick in [false, true] {
        let inputs = PaperInputs::new(quick);
        keys.extend(plan(&inputs, &all).iter().map(RunRequest::key));
        for job in JOBS {
            let Some(followup) = job.followup else {
                continue;
            };
            if all_stored(store, &(job.requests)(&inputs))? {
                let executor = PlanExecutor::new().with_store(RunStore::open(store.dir())?);
                keys.extend(followup(&inputs, &executor).iter().map(RunRequest::key));
            }
        }
    }
    Ok(keys)
}

/// Whether `store` holds every one of a non-empty `requests`.
fn all_stored(store: &RunStore, requests: &[RunRequest<'_>]) -> io::Result<bool> {
    for req in requests {
        if !store.contains(&req.key())? {
            return Ok(false);
        }
    }
    Ok(!requests.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_names_are_unique() {
        let mut names: Vec<&str> = JOBS.iter().map(|job| job.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), JOBS.len());
    }

    #[test]
    fn jobs_with_runs_keep_the_merged_plan_order() {
        let inputs = PaperInputs::new(true);
        let planned: Vec<&str> = JOBS
            .iter()
            .filter(|job| !(job.requests)(&inputs).is_empty())
            .map(|job| job.name)
            .collect();
        assert_eq!(
            planned,
            [
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "whatif",
                "ablation",
                "interference",
                "matrix"
            ]
        );
    }

    #[test]
    fn live_keys_hold_every_key_of_every_job_at_both_scales() {
        let dir = std::env::temp_dir().join(format!("prem-paper-live-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let keys = live_keys(&RunStore::open(&dir).expect("open store")).expect("live keys");
        for quick in [false, true] {
            let inputs = PaperInputs::new(quick);
            for job in JOBS {
                for req in (job.requests)(&inputs) {
                    assert!(
                        keys.contains(&req.key()),
                        "{} (quick={quick}): {} missing from the live set",
                        job.name,
                        req.key()
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

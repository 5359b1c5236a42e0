//! Figures 3 and 5: execution-time breakdown of the case-study kernel on
//! SPM, LLC and without PREM (baseline), across interval sizes `T`.
//!
//! Fig 3 uses a single prefetch pass (R = 1) and shows the LLC's
//! vulnerability to self-eviction under interference; Fig 5 repeats the
//! experiment with the tamed configuration (R = 8). All values are
//! normalized to the baseline's isolated execution time.

use prem_gpusim::Scenario;
use prem_harness::{RunRequest, RunSource};
use prem_kernels::Kernel;
use prem_memsim::KIB;

use crate::chart::{stacked_bars, Bar};
use crate::common::{
    base_request, feasible_spm_kib, llc_request, spm_request, t_sweep_llc, t_sweep_spm, Harness,
};
use crate::stats::Stats;
use crate::table::{f3, pct, Table};

/// One configuration's breakdown, normalized to the baseline in isolation.
#[derive(Clone, Debug, PartialEq)]
pub struct BreakdownRow {
    /// Configuration label (`spm-48K`, `llc-160K`, `baseline`).
    pub label: String,
    /// Interval size in KiB (`None` for the baseline).
    pub t_kib: Option<usize>,
    /// M-phase work share.
    pub m_work: f64,
    /// C-phase work share.
    pub c_work: f64,
    /// Idle share (budget padding, Fig 1 (d)).
    pub idle: f64,
    /// Synchronization share (token exchanges).
    pub sync: f64,
    /// Isolated schedule length (work + idle + sync).
    pub total_iso: f64,
    /// Budgeted WCET envelope (the schedulability guarantee).
    pub budget_env: f64,
    /// Measured schedule length under interference.
    pub with_intf: f64,
    /// Compute-phase miss ratio in isolation.
    pub cpmr: f64,
}

/// Breakdown figure (paper Fig 3 for R = 1, Fig 5 for R = 8).
#[derive(Clone, Debug, PartialEq)]
pub struct Fig35 {
    /// Prefetch repetition factor used on the LLC rows.
    pub r: u32,
    /// Kernel name.
    pub kernel: String,
    /// One row per configuration.
    pub rows: Vec<BreakdownRow>,
}

impl Fig35 {
    /// The row for a configuration label, if present.
    pub fn row(&self, label: &str) -> Option<&BreakdownRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Renders the figure as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Fig {}: {} execution breakdown (R={}), relative to baseline in isolation",
                if self.r == 1 { 3 } else { 5 },
                self.kernel,
                self.r
            ),
            &[
                "config",
                "m-work",
                "c-work",
                "idle",
                "sync",
                "total-iso",
                "budget",
                "with-intf",
                "cpmr",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.label.clone(),
                f3(r.m_work),
                f3(r.c_work),
                f3(r.idle),
                f3(r.sync),
                f3(r.total_iso),
                if r.budget_env.is_nan() {
                    "-".into()
                } else {
                    f3(r.budget_env)
                },
                f3(r.with_intf),
                if r.cpmr.is_nan() {
                    "-".into()
                } else {
                    pct(r.cpmr)
                },
            ]);
        }
        t
    }

    /// Renders the figure as stacked ASCII bars (m/c work = `#`, idle = `.`,
    /// sync = `s`).
    pub fn chart(&self) -> String {
        let bars: Vec<Bar> = self
            .rows
            .iter()
            .map(|r| {
                Bar::new(
                    r.label.clone(),
                    vec![('#', r.m_work + r.c_work), ('.', r.idle), ('s', r.sync)],
                )
            })
            .collect();
        stacked_bars(
            &format!("{} breakdown (R={})", self.kernel, self.r),
            &bars,
            60,
            &[('#', "work"), ('.', "idle"), ('s', "sync")],
        )
    }
}

/// The LLC interval sizes of `t_llc_kib` this kernel can be tiled at.
fn feasible_llc(kernel: &dyn Kernel, t_llc_kib: &[usize]) -> Vec<usize> {
    t_llc_kib
        .iter()
        .copied()
        .filter(|&t| t * KIB >= kernel.min_interval_bytes())
        .collect()
}

/// Fig 3 (naive single prefetch pass), rendered from `source` (plan
/// builder: [`fig3_requests`]).
pub fn fig3_with(kernel: &dyn Kernel, harness: &Harness, source: &impl RunSource) -> Fig35 {
    fig35_with(kernel, harness, 1, &t_sweep_spm(), &t_sweep_llc(), source)
}

/// The runs [`fig3_with`] consumes, as a plan.
pub fn fig3_requests<'k>(kernel: &'k dyn Kernel, harness: &Harness) -> Vec<RunRequest<'k>> {
    fig35_requests(kernel, harness, 1, &t_sweep_spm(), &t_sweep_llc())
}

/// Fig 5 (tamed: R = 8), rendered from `source` (plan builder:
/// [`fig5_requests`]).
pub fn fig5_with(kernel: &dyn Kernel, harness: &Harness, source: &impl RunSource) -> Fig35 {
    fig35_with(kernel, harness, 8, &t_sweep_spm(), &t_sweep_llc(), source)
}

/// The runs [`fig5_with`] consumes, as a plan.
pub fn fig5_requests<'k>(kernel: &'k dyn Kernel, harness: &Harness) -> Vec<RunRequest<'k>> {
    fig35_requests(kernel, harness, 8, &t_sweep_spm(), &t_sweep_llc())
}

/// The runs of the breakdown figure with explicit sweeps: both baseline
/// scenarios, every feasible SPM interval size and every feasible LLC
/// interval size, each in isolation and under interference, seed-expanded.
pub fn fig35_requests<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    r: u32,
    t_spm_kib: &[usize],
    t_llc_kib: &[usize],
) -> Vec<RunRequest<'k>> {
    let mut reqs = Vec::new();
    for scen in [Scenario::Isolation, Scenario::Interference] {
        reqs.extend(harness.requests(|s| base_request(kernel, s, scen)));
        for &t in &feasible_spm_kib(kernel, t_spm_kib) {
            reqs.extend(harness.requests(|s| spm_request(kernel, t * KIB, s, scen)));
        }
        for &t in &feasible_llc(kernel, t_llc_kib) {
            reqs.extend(harness.requests(|s| llc_request(kernel, t * KIB, r, s, scen)));
        }
    }
    reqs
}

/// The breakdown figure with explicit sweeps, rendered from `source`:
/// consumes exactly the runs
/// [`fig35_requests`] enumerates.
pub fn fig35_with(
    kernel: &dyn Kernel,
    harness: &Harness,
    r: u32,
    t_spm_kib: &[usize],
    t_llc_kib: &[usize],
    source: &impl RunSource,
) -> Fig35 {
    let base_iso = Stats::of(
        &harness
            .seeds
            .iter()
            .map(|&s| {
                source
                    .output(&base_request(kernel, s, Scenario::Isolation))
                    .baseline()
                    .cycles
            })
            .collect::<Vec<_>>(),
    )
    .mean;
    let base_intf = Stats::of(
        &harness
            .seeds
            .iter()
            .map(|&s| {
                source
                    .output(&base_request(kernel, s, Scenario::Interference))
                    .baseline()
                    .cycles
            })
            .collect::<Vec<_>>(),
    )
    .mean;

    let mut rows = Vec::new();
    for t in feasible_spm_kib(kernel, t_spm_kib) {
        let t_bytes = t * KIB;
        let mut row = config_row(
            kernel,
            harness,
            format!("spm-{t}K"),
            Some(t),
            base_iso,
            |k, seed, scen| source.output(&spm_request(k, t_bytes, seed, scen)).prem(),
        );
        // The CPMR is a cache metric; on the SPM path the only LLC traffic
        // is unmanaged noise, so the ratio is not meaningful.
        row.cpmr = f64::NAN;
        rows.push(row);
    }
    for t in feasible_llc(kernel, t_llc_kib) {
        let t_bytes = t * KIB;
        rows.push(config_row(
            kernel,
            harness,
            format!("llc-{t}K"),
            Some(t),
            base_iso,
            |k, seed, scen| {
                source
                    .output(&llc_request(k, t_bytes, r, seed, scen))
                    .prem()
            },
        ));
    }
    rows.push(BreakdownRow {
        label: "baseline".into(),
        t_kib: None,
        m_work: 0.0,
        c_work: 1.0,
        idle: 0.0,
        sync: 0.0,
        total_iso: 1.0,
        budget_env: f64::NAN,
        with_intf: base_intf / base_iso,
        cpmr: f64::NAN,
    });

    Fig35 {
        r,
        kernel: kernel.name().to_string(),
        rows,
    }
}

fn config_row(
    kernel: &dyn Kernel,
    harness: &Harness,
    label: String,
    t_kib: Option<usize>,
    base_iso: f64,
    run: impl Fn(&dyn Kernel, u64, Scenario) -> prem_core::PremRun,
) -> BreakdownRow {
    let mut m_work = Vec::new();
    let mut c_work = Vec::new();
    let mut idle = Vec::new();
    let mut sync = Vec::new();
    let mut total = Vec::new();
    let mut budget = Vec::new();
    let mut cpmr = Vec::new();
    let mut intf = Vec::new();
    for &seed in &harness.seeds {
        let iso = run(kernel, seed, Scenario::Isolation);
        m_work.push(iso.breakdown.m_work);
        c_work.push(iso.breakdown.c_work);
        idle.push(iso.breakdown.idle);
        sync.push(iso.breakdown.sync);
        total.push(iso.makespan_cycles);
        budget.push(iso.budget_envelope_cycles);
        cpmr.push(iso.cpmr);
        intf.push(run(kernel, seed, Scenario::Interference).makespan_cycles);
    }
    BreakdownRow {
        label,
        t_kib,
        m_work: Stats::of(&m_work).mean / base_iso,
        c_work: Stats::of(&c_work).mean / base_iso,
        idle: Stats::of(&idle).mean / base_iso,
        sync: Stats::of(&sync).mean / base_iso,
        total_iso: Stats::of(&total).mean / base_iso,
        budget_env: Stats::of(&budget).mean / base_iso,
        with_intf: Stats::of(&intf).mean / base_iso,
        cpmr: Stats::of(&cpmr).mean,
    }
}

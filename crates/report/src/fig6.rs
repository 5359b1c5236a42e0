//! Figure 6: per-kernel results under fair co-scheduling — the SPM state of
//! the art (at its best feasible T), the tamed LLC (T = 160 KiB, R = 8) and
//! the unprotected baseline, in isolation and under interference.
//!
//! Headline aggregates reproduced from paper §V-A: the LLC outperforms the
//! SPM by ~2× on average; under interference the LLC beats the baseline by
//! ~10 % on average and by >200 % in the best case.

use prem_gpusim::Scenario;
use prem_harness::{RunRequest, RunSource};
use prem_kernels::Kernel;
use prem_memsim::KIB;

use crate::common::{
    base_request, feasible_spm_kib, llc_request, spm_request, t_sweep_spm, Harness,
};
use crate::stats::{geomean, over_seeds};
use crate::table::{f3, Table};

/// One kernel's normalized results (all relative to its baseline in
/// isolation).
#[derive(Clone, Debug, PartialEq)]
pub struct Fig6Row {
    /// Kernel name.
    pub kernel: String,
    /// Best feasible SPM interval size (KiB).
    pub spm_t_kib: usize,
    /// SPM-PREM in isolation.
    pub spm_iso: f64,
    /// SPM-PREM under interference.
    pub spm_intf: f64,
    /// LLC-PREM in isolation.
    pub llc_iso: f64,
    /// LLC-PREM under interference.
    pub llc_intf: f64,
    /// Baseline under interference.
    pub base_intf: f64,
}

/// The per-kernel evaluation figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig6 {
    /// LLC interval size used (KiB).
    pub t_llc_kib: usize,
    /// Prefetch repetition factor used.
    pub r: u32,
    /// One row per kernel.
    pub rows: Vec<Fig6Row>,
}

impl Fig6 {
    /// Geometric-mean ratio SPM / LLC under interference (paper: ≈ 2).
    pub fn avg_spm_over_llc(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.spm_intf / r.llc_intf))
    }

    /// Geometric-mean ratio baseline / LLC under interference (paper:
    /// ≈ 1.1).
    pub fn avg_base_over_llc_intf(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.base_intf / r.llc_intf))
    }

    /// Best-case ratio baseline / LLC under interference (paper: ≈ 3.15,
    /// i.e. a 215 % WCET improvement).
    pub fn best_base_over_llc_intf(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.base_intf / r.llc_intf)
            .fold(0.0, f64::max)
    }

    /// Renders as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Fig 6: per-kernel results, fair co-scheduling (LLC T={}K R={}), relative to baseline-isolation",
                self.t_llc_kib, self.r
            ),
            &[
                "kernel", "spm-T", "spm-iso", "spm-intf", "llc-iso", "llc-intf", "base-intf",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.kernel.clone(),
                format!("{}K", r.spm_t_kib),
                f3(r.spm_iso),
                f3(r.spm_intf),
                f3(r.llc_iso),
                f3(r.llc_intf),
                f3(r.base_intf),
            ]);
        }
        t.push_row(vec![
            "geomean".into(),
            String::new(),
            String::new(),
            f3(self.avg_spm_over_llc()),
            String::new(),
            f3(self.avg_base_over_llc_intf()),
            f3(self.best_base_over_llc_intf()),
        ]);
        t
    }
}

/// Runs the per-kernel evaluation, rendered from `source`.
///
/// The figure's plan has a data-dependent tail: the SPM row runs under
/// interference only at the kernel's *best* isolated interval size, which
/// is known only after the isolated SPM candidates have executed. Submit
/// [`fig6_requests`] first, then [`fig6_followup_requests`] (computable
/// once the first wave is cached), then render.
pub fn fig6_with(
    suite: &[Box<dyn Kernel>],
    harness: &Harness,
    t_llc_kib: usize,
    r: u32,
    source: &impl RunSource,
) -> Fig6 {
    let rows = suite
        .iter()
        .map(|k| fig6_row(k.as_ref(), harness, t_llc_kib, r, source))
        .collect();
    Fig6 { t_llc_kib, r, rows }
}

/// The unconditional runs of [`fig6_with`], as a plan: both baseline scenarios,
/// every feasible isolated SPM candidate, and the LLC configuration in
/// both scenarios, per kernel and seed.
pub fn fig6_requests<'k>(
    suite: &'k [Box<dyn Kernel>],
    harness: &Harness,
    t_llc_kib: usize,
    r: u32,
) -> Vec<RunRequest<'k>> {
    let mut reqs = Vec::new();
    for kernel in suite {
        let kernel = kernel.as_ref();
        for scen in [Scenario::Isolation, Scenario::Interference] {
            reqs.extend(harness.requests(|s| base_request(kernel, s, scen)));
        }
        for t in spm_candidates(kernel) {
            reqs.extend(harness.requests(|s| spm_request(kernel, t * KIB, s, Scenario::Isolation)));
        }
        let t_llc = (t_llc_kib * KIB).max(kernel.min_interval_bytes());
        for scen in [Scenario::Isolation, Scenario::Interference] {
            reqs.extend(harness.requests(|s| llc_request(kernel, t_llc, r, s, scen)));
        }
    }
    reqs
}

/// The data-dependent tail of [`fig6_with`]'s plan: one interference SPM run
/// per kernel at its best isolated interval size. Needs the
/// [`fig6_requests`] wave in `source` (serves it from cache; with a cold
/// source it executes the isolated candidates on the calling thread).
pub fn fig6_followup_requests<'k>(
    suite: &'k [Box<dyn Kernel>],
    harness: &Harness,
    source: &impl RunSource,
) -> Vec<RunRequest<'k>> {
    let mut reqs = Vec::new();
    for kernel in suite {
        let kernel = kernel.as_ref();
        let (spm_t, _) = best_spm_t(kernel, harness, source);
        reqs.extend(
            harness.requests(|s| spm_request(kernel, spm_t * KIB, s, Scenario::Interference)),
        );
    }
    reqs
}

/// The feasible SPM interval-size candidates (KiB) of one kernel — the
/// same predicate fig3/fig5 filter their SPM rows with
/// ([`feasible_spm_kib`]).
///
/// # Panics
///
/// Panics when no sweep entry fits between the kernel's minimum interval
/// and the scratchpad capacity — such a kernel cannot appear in Fig 6.
fn spm_candidates(kernel: &dyn Kernel) -> Vec<usize> {
    let candidates = feasible_spm_kib(kernel, &t_sweep_spm());
    assert!(
        !candidates.is_empty(),
        "{}: no feasible SPM interval size",
        kernel.name()
    );
    candidates
}

/// Best feasible SPM interval size by isolated makespan, and that
/// makespan's seed mean — shared by the follow-up plan builder and the
/// renderer so the two can never pick different tile sizes.
fn best_spm_t(kernel: &dyn Kernel, harness: &Harness, source: &impl RunSource) -> (usize, f64) {
    spm_candidates(kernel)
        .iter()
        .map(|&t| {
            let iso = over_seeds(&harness.seeds, |s| {
                source
                    .output(&spm_request(kernel, t * KIB, s, Scenario::Isolation))
                    .prem()
                    .makespan_cycles
            })
            .mean;
            (t, iso)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("candidates nonempty")
}

fn fig6_row(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_llc_kib: usize,
    r: u32,
    source: &impl RunSource,
) -> Fig6Row {
    let base_iso = over_seeds(&harness.seeds, |s| {
        source
            .output(&base_request(kernel, s, Scenario::Isolation))
            .baseline()
            .cycles
    })
    .mean;
    let base_intf = over_seeds(&harness.seeds, |s| {
        source
            .output(&base_request(kernel, s, Scenario::Interference))
            .baseline()
            .cycles
    })
    .mean;

    let (spm_t, spm_iso) = best_spm_t(kernel, harness, source);
    let spm_intf = over_seeds(&harness.seeds, |s| {
        source
            .output(&spm_request(kernel, spm_t * KIB, s, Scenario::Interference))
            .prem()
            .makespan_cycles
    })
    .mean;

    let t_llc = (t_llc_kib * KIB).max(kernel.min_interval_bytes());
    let llc_iso = over_seeds(&harness.seeds, |s| {
        source
            .output(&llc_request(kernel, t_llc, r, s, Scenario::Isolation))
            .prem()
            .makespan_cycles
    })
    .mean;
    let llc_intf = over_seeds(&harness.seeds, |s| {
        source
            .output(&llc_request(kernel, t_llc, r, s, Scenario::Interference))
            .prem()
            .makespan_cycles
    })
    .mean;

    Fig6Row {
        kernel: kernel.name().to_string(),
        spm_t_kib: spm_t,
        spm_iso: spm_iso / base_iso,
        spm_intf: spm_intf / base_iso,
        llc_iso: llc_iso / base_iso,
        llc_intf: llc_intf / base_iso,
        base_intf: base_intf / base_iso,
    }
}

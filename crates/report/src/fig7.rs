//! Figure 7: average sensitivity to memory interference as a function of
//! the interval size `T`, against the unprotected baseline.
//!
//! Expected shape (paper §V-B): ~3 % for T ≤ 128 KiB, ~5 % at 160 KiB,
//! ~15 % at 192 KiB (the good-way capacity edge) — versus ~245 % for the
//! baseline.

use prem_core::sensitivity;
use prem_gpusim::Scenario;
use prem_harness::{RunRequest, RunSource};
use prem_kernels::Kernel;
use prem_memsim::KIB;

use crate::common::{base_request, llc_request, Harness};
use crate::stats::over_seeds;
use crate::table::{pct, Table};

/// Average interference sensitivity per interval size.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig7 {
    /// Prefetch repetition factor used.
    pub r: u32,
    /// Interval sizes (KiB).
    pub t_kib: Vec<usize>,
    /// Mean PREM-LLC sensitivity per interval size.
    pub prem_sensitivity: Vec<f64>,
    /// Mean baseline sensitivity.
    pub baseline_sensitivity: f64,
}

impl Fig7 {
    /// The sensitivity at a given interval size.
    pub fn at(&self, t_kib: usize) -> Option<f64> {
        let i = self.t_kib.iter().position(|&t| t == t_kib)?;
        Some(self.prem_sensitivity[i])
    }

    /// Renders as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Fig 7: average sensitivity to interference (LLC R={})",
                self.r
            ),
            &["config", "sensitivity"],
        );
        for (i, &tk) in self.t_kib.iter().enumerate() {
            t.push_row(vec![format!("llc-{tk}K"), pct(self.prem_sensitivity[i])]);
        }
        t.push_row(vec!["baseline".into(), pct(self.baseline_sensitivity)]);
        t
    }
}

/// The interval sizes of Fig 7.
pub fn fig7_t_sweep() -> Vec<usize> {
    vec![64, 96, 128, 160, 192]
}

/// Measures Fig 7 over a kernel suite, rendered from `source` (plan
/// builder: [`fig7_requests`]).
pub fn fig7_with(
    suite: &[Box<dyn Kernel>],
    harness: &Harness,
    r: u32,
    source: &impl RunSource,
) -> Fig7 {
    fig7_with_sweep_from(suite, harness, r, &fig7_t_sweep(), source)
}

/// The runs [`fig7_with`] consumes, as a plan.
pub fn fig7_requests<'k>(
    suite: &'k [Box<dyn Kernel>],
    harness: &Harness,
    r: u32,
) -> Vec<RunRequest<'k>> {
    fig7_sweep_requests(suite, harness, r, &fig7_t_sweep())
}

/// The runs of the explicit-sweep sensitivity figure, as a plan: every
/// (kernel, interval size) LLC point and every kernel's baseline, each in
/// both scenarios, seed-expanded.
pub fn fig7_sweep_requests<'k>(
    suite: &'k [Box<dyn Kernel>],
    harness: &Harness,
    r: u32,
    t_kib: &[usize],
) -> Vec<RunRequest<'k>> {
    let mut reqs = Vec::new();
    for scen in [Scenario::Isolation, Scenario::Interference] {
        for &tk in t_kib {
            for k in suite {
                let t = (tk * KIB).max(k.min_interval_bytes());
                reqs.extend(harness.requests(|s| llc_request(k.as_ref(), t, r, s, scen)));
            }
        }
        for k in suite {
            reqs.extend(harness.requests(|s| base_request(k.as_ref(), s, scen)));
        }
    }
    reqs
}

/// Measures Fig 7 with an explicit interval-size sweep, rendered from
/// `source`: consumes exactly the runs
/// [`fig7_sweep_requests`] enumerates.
pub fn fig7_with_sweep_from(
    suite: &[Box<dyn Kernel>],
    harness: &Harness,
    r: u32,
    t_kib: &[usize],
    source: &impl RunSource,
) -> Fig7 {
    let mut prem_sensitivity = Vec::new();
    for &tk in t_kib {
        let mut sens = Vec::new();
        for k in suite {
            let t = (tk * KIB).max(k.min_interval_bytes());
            let iso = over_seeds(&harness.seeds, |s| {
                source
                    .output(&llc_request(k.as_ref(), t, r, s, Scenario::Isolation))
                    .prem()
                    .makespan_cycles
            })
            .mean;
            let intf = over_seeds(&harness.seeds, |s| {
                source
                    .output(&llc_request(k.as_ref(), t, r, s, Scenario::Interference))
                    .prem()
                    .makespan_cycles
            })
            .mean;
            sens.push(sensitivity(iso, intf));
        }
        prem_sensitivity.push(sens.iter().sum::<f64>() / sens.len() as f64);
    }

    let mut base_sens = Vec::new();
    for k in suite {
        let iso = over_seeds(&harness.seeds, |s| {
            source
                .output(&base_request(k.as_ref(), s, Scenario::Isolation))
                .baseline()
                .cycles
        })
        .mean;
        let intf = over_seeds(&harness.seeds, |s| {
            source
                .output(&base_request(k.as_ref(), s, Scenario::Interference))
                .baseline()
                .cycles
        })
        .mean;
        base_sens.push(sensitivity(iso, intf));
    }

    Fig7 {
        r,
        t_kib: t_kib.to_vec(),
        prem_sensitivity,
        baseline_sensitivity: base_sens.iter().sum::<f64>() / base_sens.len().max(1) as f64,
    }
}

//! Figure 4: the compute-phase miss ratio (CPMR) as a function of the
//! prefetch repetition factor `R` and the interval size `T`.
//!
//! Expected shape (paper §IV): CPMR decreases monotonically in `R` towards
//! near-zero, stays low for `T` up to the good-way capacity (192 KiB on the
//! TX1), and rises rapidly beyond it.

use prem_gpusim::Scenario;
use prem_harness::{RunRequest, RunSource};
use prem_kernels::Kernel;
use prem_memsim::KIB;

use crate::common::{llc_request, r_sweep, t_sweep_llc, Harness};
use crate::stats::over_seeds;
use crate::table::{pct, Table};

/// CPMR grid over `(R, T)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig4 {
    /// Repetition factors (rows).
    pub r_values: Vec<u32>,
    /// Interval sizes in KiB (columns).
    pub t_kib: Vec<usize>,
    /// `cpmr[r_index][t_index]`, averaged over seeds.
    pub cpmr: Vec<Vec<f64>>,
}

impl Fig4 {
    /// CPMR at a given `(R, T)`.
    pub fn at(&self, r: u32, t_kib: usize) -> Option<f64> {
        let ri = self.r_values.iter().position(|&x| x == r)?;
        let ti = self.t_kib.iter().position(|&x| x == t_kib)?;
        Some(self.cpmr[ri][ti])
    }

    /// Renders the grid as a table.
    pub fn table(&self) -> Table {
        let mut headers = vec!["R \\ T".to_string()];
        headers.extend(self.t_kib.iter().map(|t| format!("{t}K")));
        let hdr: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            "Fig 4: CPMR vs prefetch repetition R and interval size T",
            &hdr,
        );
        for (ri, &r) in self.r_values.iter().enumerate() {
            let mut row = vec![format!("R={r}")];
            row.extend(self.cpmr[ri].iter().map(|&c| pct(c)));
            t.push_row(row);
        }
        t
    }
}

/// Measures the CPMR grid on `kernel`, rendered from `source` (plan
/// builder: [`fig4_requests`]).
pub fn fig4_with(kernel: &dyn Kernel, harness: &Harness, source: &impl RunSource) -> Fig4 {
    fig4_with_sweeps_from(kernel, harness, &r_sweep(), &t_sweep_llc(), source)
}

/// The runs [`fig4_with`] consumes, as a plan: the isolated `(R, T)` grid,
/// seed-expanded. Grid points whose `T` is floored to the same
/// `min_interval_bytes` collapse to one canonical request, so the plan
/// itself dedups what the figure would re-measure.
pub fn fig4_requests<'k>(kernel: &'k dyn Kernel, harness: &Harness) -> Vec<RunRequest<'k>> {
    fig4_sweep_requests(kernel, harness, &r_sweep(), &t_sweep_llc())
}

/// The runs of the explicit-sweep CPMR grid, as a plan.
pub fn fig4_sweep_requests<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    r_values: &[u32],
    t_kib: &[usize],
) -> Vec<RunRequest<'k>> {
    let min_t = kernel.min_interval_bytes();
    let mut reqs = Vec::new();
    for &r in r_values {
        for &t in t_kib {
            let t_bytes = (t * KIB).max(min_t);
            reqs.extend(
                harness.requests(|s| llc_request(kernel, t_bytes, r, s, Scenario::Isolation)),
            );
        }
    }
    reqs
}

/// Measures the CPMR grid with explicit sweeps (used by tests and smaller
/// benches), rendered from `source`: consumes exactly the runs
/// [`fig4_sweep_requests`] enumerates.
pub fn fig4_with_sweeps_from(
    kernel: &dyn Kernel,
    harness: &Harness,
    r_values: &[u32],
    t_kib: &[usize],
    source: &impl RunSource,
) -> Fig4 {
    let min_t = kernel.min_interval_bytes();
    let cpmr = r_values
        .iter()
        .map(|&r| {
            t_kib
                .iter()
                .map(|&t| {
                    let t_bytes = (t * KIB).max(min_t);
                    over_seeds(&harness.seeds, |seed| {
                        source
                            .output(&llc_request(kernel, t_bytes, r, seed, Scenario::Isolation))
                            .prem()
                            .cpmr
                    })
                    .mean
                })
                .collect()
        })
        .collect();
    Fig4 {
        r_values: r_values.to_vec(),
        t_kib: t_kib.to_vec(),
        cpmr,
    }
}

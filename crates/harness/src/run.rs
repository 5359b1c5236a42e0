//! Execution of one matrix cell and of whole matrices.
//!
//! Since the run-plan refactor a cell is *two* canonical
//! [`RunRequest`]s — the LLC-PREM run and the unprotected baseline under
//! the same coordinates — and [`run_matrix`] submits all of them to a
//! [`PlanExecutor`] as one plan. Execution therefore happens at **run**
//! granularity (twice the parallelism grain of the old per-cell map) and
//! any run another artifact already executed is served from the cache.

use prem_core::{BaselineRun, PremRun, RunWork};

use crate::agg::MatrixResult;
use crate::plan::{PlanExecutor, PlatformSpec, RunRequest, RunSource};
use crate::spec::{CellSpec, MatrixSpec};

/// Measured outcome of one cell: the PREM-LLC run plus the unprotected
/// baseline under the same platform, seed and scenario (the reference for
/// the WCET-inflation column).
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// The coordinates this result belongs to.
    pub cell: CellSpec,
    /// Number of PREM intervals executed.
    pub intervals: usize,
    /// PREM schedule makespan (µs).
    pub makespan_us: f64,
    /// Compute-phase miss ratio of the PREM run.
    pub cpmr: f64,
    /// Static budget envelope — the guaranteed WCET bound (µs).
    pub envelope_us: f64,
    /// Phase work exceeding the static budgets (µs); non-zero means the
    /// schedulability guarantee was violated in this cell.
    pub violation_us: f64,
    /// Unprotected baseline execution time (µs).
    pub baseline_us: f64,
}

/// The two canonical run requests of one cell: the LLC-PREM run and the
/// unprotected baseline under the same platform, policy, seed and
/// scenario. A preset scenario runs as itself; a mix installs its
/// co-runner actors on the platform's CPU (resolved by the plan layer).
/// The actors draw all their randomness from the cell's derived seed, so
/// co-runner traffic is as worker-count-independent as the rest of the
/// cell.
pub fn cell_requests<'s>(spec: &'s MatrixSpec, cell: &CellSpec) -> [RunRequest<'s>; 2] {
    let plat = &spec.platforms[cell.platform];
    let prem = RunRequest {
        kernel: spec.kernels[cell.kernel].as_ref(),
        platform: PlatformSpec::new(plat.name.clone(), plat.config.clone())
            .with_policy(spec.policies[cell.policy]),
        work: RunWork::PremLlc { r: spec.r },
        t_bytes: cell.t_bytes,
        seed: cell.derived_seed,
        scenario: cell.scenario.clone(),
        noise: spec.noise,
    };
    let base = RunRequest {
        work: RunWork::Baseline,
        ..prem.clone()
    };
    [prem, base]
}

/// Folds one cell's two run outputs into the aggregate row, converting
/// cycle counts at the cell platform's clock.
fn cell_result(spec: &MatrixSpec, cell: &CellSpec, prem: PremRun, base: BaselineRun) -> CellResult {
    let config = &spec.platforms[cell.platform].config;
    let to_us = |cycles: f64| config.cycles_to_us(cycles);
    CellResult {
        cell: cell.clone(),
        intervals: prem.intervals,
        makespan_us: to_us(prem.makespan_cycles),
        cpmr: prem.cpmr,
        envelope_us: to_us(prem.budget_envelope_cycles),
        violation_us: to_us(prem.budget_violation_cycles),
        baseline_us: to_us(base.cycles),
    }
}

/// Runs a single cell through `source`. Each underlying run owns its
/// platform and RNG state, so cells are embarrassingly parallel and
/// identical regardless of which worker (or which cached plan) produced
/// their outputs.
pub fn run_cell_with(spec: &MatrixSpec, cell: &CellSpec, source: &impl RunSource) -> CellResult {
    let [prem, base] = cell_requests(spec, cell);
    cell_result(
        spec,
        cell,
        source.output(&prem).prem(),
        source.output(&base).baseline(),
    )
}

/// Expands `spec` and executes every cell's runs as **one deduplicated
/// plan** on `workers` threads (run granularity: 2 × cells tasks).
///
/// The result is deterministic in the spec alone: per-cell seeds come from
/// stable coordinate hashes and results are collected in expansion order,
/// so any worker count produces byte-identical artifacts.
pub fn run_matrix(spec: &MatrixSpec, workers: usize) -> MatrixResult {
    run_matrix_with(spec, workers, &PlanExecutor::new())
}

/// [`run_matrix`] against a caller-owned executor, so a matrix can share
/// its run cache with other artifacts in the same process.
pub fn run_matrix_with(spec: &MatrixSpec, workers: usize, executor: &PlanExecutor) -> MatrixResult {
    run_matrix_metered(spec, workers, executor, &prem_obs::NullMetrics)
}

/// [`run_matrix_with`] recording through `metrics` (the `--metrics`
/// path of the `figures` matrix subcommand). The result is identical to
/// the unmetered call — metrics observe execution, never steer it.
pub fn run_matrix_metered<M: prem_obs::MetricsSink>(
    spec: &MatrixSpec,
    workers: usize,
    executor: &PlanExecutor,
    metrics: &M,
) -> MatrixResult {
    let cells = spec.expand();
    let requests: Vec<RunRequest<'_>> = cells
        .iter()
        .flat_map(|cell| cell_requests(spec, cell))
        .collect();
    executor.execute_metered(&requests, workers, metrics);
    let results = cells
        .iter()
        .map(|cell| run_cell_with(spec, cell, executor))
        .collect();
    MatrixResult::new(spec, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CorunnerMix, MatrixPlatform, MatrixScenario};
    use prem_gpusim::{CorunnerProfile, Scenario};
    use prem_kernels::Bicg;

    /// One cell served by a fresh executor (no shared cache).
    fn run_cell(spec: &MatrixSpec, cell: &CellSpec) -> CellResult {
        run_cell_with(spec, cell, &PlanExecutor::new())
    }

    fn tiny_spec() -> MatrixSpec {
        let mut spec = MatrixSpec::quick(vec![Box::new(Bicg::new(128, 128))]);
        spec.platforms = vec![MatrixPlatform::tx1()];
        spec
    }

    #[test]
    fn cell_produces_consistent_metrics() {
        let spec = tiny_spec();
        let cells = spec.expand();
        let iso = cells
            .iter()
            .find(|c| c.scenario == MatrixScenario::Preset(Scenario::Isolation))
            .unwrap();
        let r = run_cell(&spec, iso);
        assert!(r.makespan_us > 0.0);
        assert!(r.baseline_us > 0.0);
        assert!(
            r.envelope_us >= r.makespan_us - 1e-9,
            "envelope must bound the isolated run"
        );
        assert_eq!(r.violation_us, 0.0, "no violations in isolation");
        assert!(r.cpmr >= 0.0 && r.cpmr <= 1.0);
    }

    #[test]
    fn rerunning_a_cell_is_deterministic() {
        let spec = tiny_spec();
        let cell = &spec.expand()[0];
        assert_eq!(run_cell(&spec, cell), run_cell(&spec, cell));
    }

    #[test]
    fn mix_cells_interpolate_between_the_presets() {
        let mut spec = tiny_spec();
        spec.scenarios = vec![
            MatrixScenario::Preset(Scenario::Isolation),
            MatrixScenario::Mix(CorunnerMix::uniform(1, CorunnerProfile::Membomb)),
            MatrixScenario::Preset(Scenario::Interference),
        ];
        let cells = spec.expand();
        let by_name = |n: &str| {
            cells
                .iter()
                .find(|c| c.scenario.name() == n)
                .map(|c| run_cell(&spec, c))
                .unwrap()
        };
        let iso = by_name("isolation");
        let one = by_name("1xmembomb");
        let full = by_name("interference");
        // One membomb is a third of the calibrated demand: strictly
        // between isolation and the paper's three-bomb scenario.
        assert!(iso.baseline_us < one.baseline_us);
        assert!(one.baseline_us < full.baseline_us);
        assert!(iso.makespan_us <= one.makespan_us + 1e-9);
        assert!(one.makespan_us <= full.makespan_us + 1e-9);
    }
}

//! Beyond the paper: the co-runner interference sweep.
//!
//! The paper evaluates two points of the interference space — no CPU
//! traffic, and three saturating membombs. The event-driven co-runner
//! engine opens the space in between and beyond: this artifact sweeps the
//! co-runner **count** (0–6) for each access profile and reports how the
//! PREM schedule and the unprotected baseline degrade, per profile.
//!
//! Expected shape (and what the acceptance tests assert): makespans and
//! baseline times grow monotonically with the co-runner count; the CPMR
//! stays flat for bus-only profiles (membomb, stream, bursty — they
//! cannot touch the LLC) and grows for `cache_thrash`, whose pollution
//! evicts staged lines before the compute phase consumes them.

use std::ops::Add;

use prem_core::{
    profile_phases, run_baseline, run_prem_traced_reporting_profile, LocalStore, NoiseModel,
    PrefetchStrategy, PremConfig,
};
use prem_gpusim::{CorunnerProfile, PlatformConfig, Scenario};
use prem_kernels::Kernel;
use prem_memsim::NullSink;

use crate::table::{f3, pct};
use crate::Table;

/// The profiles the sweep fans over, in output order.
pub fn sweep_profiles() -> Vec<CorunnerProfile> {
    vec![
        CorunnerProfile::Membomb,
        CorunnerProfile::Stream,
        CorunnerProfile::CacheThrash,
        CorunnerProfile::Bursty {
            duty: 0.5,
            period_cycles: 80_000.0,
        },
    ]
}

/// One sweep point: `n` co-runners of `profile` against one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Profile name.
    pub profile: &'static str,
    /// Co-runner count.
    pub n: usize,
    /// Aggregate mean demand of the mix (saturating-stream units).
    pub demand: f64,
    /// PREM schedule makespan (µs).
    pub prem_us: f64,
    /// Compute-phase miss ratio of the PREM run.
    pub cpmr: f64,
    /// Static WCET envelope (µs) — scenario-independent by construction.
    pub envelope_us: f64,
    /// Budget violations (µs).
    pub violation_us: f64,
    /// Unprotected baseline time (µs).
    pub baseline_us: f64,
    /// Mean co-runner bus throughput over the C-phase slots (bytes per
    /// GPU cycle).
    pub corunner_bpc: f64,
    /// LLC lines injected by thrashing co-runners during the PREM run.
    pub polluted_lines: u64,
}

/// Runs the sweep: counts `0..=max_corunners` of every
/// [`sweep_profiles`] entry on the TX1 platform.
pub fn interference_sweep(
    kernel: &dyn Kernel,
    t: usize,
    r: u32,
    seed: u64,
    max_corunners: usize,
) -> Vec<SweepRow> {
    let intervals = kernel
        .intervals(t)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    let prem_cfg = PremConfig {
        store: LocalStore::Llc {
            prefetch: PrefetchStrategy::Repeated { r },
        },
        ..PremConfig::llc_tamed()
    }
    .with_seed(seed)
    .with_noise(NoiseModel::tx1());

    // One hoisted profiling pass for the whole sweep: profiling is
    // isolated and therefore independent of the co-runner mix, so every
    // (profile, count) point shares the same (m_wcet, c_wcet) — the sweep
    // used to pay the pass 4 × (max_corunners + 1) times for identical
    // results.
    let profiled = {
        let mut platform = PlatformConfig::tx1().llc_seed(seed).build();
        profile_phases(&mut platform, &intervals, &prem_cfg).expect("LLC PREM cannot fail")
    };

    let mut rows = Vec::new();
    for profile in sweep_profiles() {
        for n in 0..=max_corunners {
            let mix = vec![profile; n];
            // fold, not sum: the empty mix must print 0.000, not -0.000.
            let demand = mix.iter().map(|p| p.mean_demand()).fold(0.0, f64::add);
            let cfg = PlatformConfig::tx1()
                .llc_seed(seed)
                .with_corunners(mix.clone());
            let mut platform = cfg.build();
            let (prem, _) = run_prem_traced_reporting_profile(
                &mut platform,
                &intervals,
                &prem_cfg,
                Scenario::Corunners,
                Some(profiled),
                &mut NullSink,
            )
            .expect("LLC PREM cannot fail");
            let mut base_platform = cfg.build();
            let base = run_baseline(
                &mut base_platform,
                &intervals,
                seed,
                Scenario::Corunners,
                NoiseModel::tx1(),
            )
            .expect("baseline cannot fail");
            rows.push(SweepRow {
                profile: profile.name(),
                n,
                demand,
                prem_us: platform.cycles_to_us(prem.makespan_cycles),
                cpmr: prem.cpmr,
                envelope_us: platform.cycles_to_us(prem.budget_envelope_cycles),
                violation_us: platform.cycles_to_us(prem.budget_violation_cycles),
                baseline_us: platform.cycles_to_us(base.cycles),
                corunner_bpc: prem.bus.corunner_bytes_per_cycle(),
                polluted_lines: prem.polluted_lines,
            });
        }
    }
    rows
}

/// Renders sweep rows as the `interference_sweep` table.
pub fn sweep_table(rows: &[SweepRow], kernel_name: &str, t_kib: usize, r: u32) -> Table {
    let mut t = Table::new(
        format!(
            "Interference sweep: {kernel_name}, LLC-PREM (R={r}, T={t_kib}K) \
             vs unprotected baseline, co-runner count 0-6 per profile"
        ),
        &[
            "profile", "n", "demand", "prem-us", "cpmr", "wcet-us", "viol-us", "base-us",
            "co-B/cyc", "pollute",
        ],
    );
    for row in rows {
        t.push_row(vec![
            row.profile.to_string(),
            row.n.to_string(),
            f3(row.demand),
            f3(row.prem_us),
            pct(row.cpmr),
            f3(row.envelope_us),
            f3(row.violation_us),
            f3(row.baseline_us),
            f3(row.corunner_bpc),
            row.polluted_lines.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_kernels::Bicg;
    use prem_memsim::KIB;

    fn rows() -> Vec<SweepRow> {
        interference_sweep(&Bicg::new(128, 128), 32 * KIB, 8, 11, 3)
    }

    #[test]
    fn sweep_covers_profiles_times_counts() {
        let rows = rows();
        assert_eq!(rows.len(), sweep_profiles().len() * 4);
        // Count 0 of every profile is the same isolated measurement.
        let zeros: Vec<&SweepRow> = rows.iter().filter(|r| r.n == 0).collect();
        for z in &zeros {
            assert_eq!(z.demand, 0.0);
            assert_eq!(z.prem_us, zeros[0].prem_us);
            assert_eq!(z.baseline_us, zeros[0].baseline_us);
        }
    }

    #[test]
    fn curves_are_monotone_in_corunner_count() {
        let rows = rows();
        for profile in sweep_profiles() {
            let curve: Vec<&SweepRow> = rows
                .iter()
                .filter(|r| r.profile == profile.name())
                .collect();
            for pair in curve.windows(2) {
                assert!(
                    pair[1].prem_us >= pair[0].prem_us - 1e-9,
                    "{}: prem not monotone at n={}",
                    profile.name(),
                    pair[1].n
                );
                assert!(
                    pair[1].baseline_us >= pair[0].baseline_us - 1e-9,
                    "{}: baseline not monotone at n={}",
                    profile.name(),
                    pair[1].n
                );
                assert!(
                    pair[1].cpmr >= pair[0].cpmr - 1e-9,
                    "{}: cpmr not monotone at n={}",
                    profile.name(),
                    pair[1].n
                );
            }
        }
    }

    #[test]
    fn only_thrashers_pollute() {
        for row in rows() {
            if row.profile == "cache_thrash" && row.n > 0 {
                assert!(row.polluted_lines > 0, "thrashers must pollute");
            } else {
                assert_eq!(row.polluted_lines, 0, "{} must not pollute", row.profile);
            }
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = rows();
        let t = sweep_table(&rows, "bicg", 32, 8);
        assert_eq!(t.len(), rows.len());
        assert!(t.to_csv().starts_with("profile,n,demand"));
    }
}

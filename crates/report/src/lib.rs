//! # prem-report — experiment harness regenerating the paper's artifacts
//!
//! One module per figure of the paper, each producing structured results
//! (for assertions) plus [`Table`]/chart renderings (for humans):
//!
//! * [`fig2`] — SPM vs cache data-movement instruction counts (paper Fig 2)
//! * [`fig3`] — bicg execution-time breakdown, naive (R=1) and tamed
//!   (R=8) prefetching (paper Figs 3 and 5)
//! * [`fig4`] — CPMR over the (R, T) grid (paper Fig 4)
//! * [`fig6`] — per-kernel fair co-scheduling results (paper Fig 6)
//! * [`fig7`] — average interference sensitivity vs T (paper Fig 7)
//! * [`mei`] — cache-dissection validation of the replacement-policy
//!   premise (Mei et al., the paper's ref. \[13\])
//! * [`ablation`] — replacement-policy and MSG ablations (beyond the paper)
//! * [`interference`] — co-runner count/profile sweep on the event-driven
//!   interference engine (beyond the paper)
//! * [`whatif`] — LLC replacement-policy what-if sweep rendered through
//!   the plan layer's replay-backed derivation families (beyond the paper)
//! * [`obs`] — phase-timing breakdown of one invocation, rendered from a
//!   `prem-obs` metrics snapshot (beyond the paper)
//!
//! The simulator-heavy figures (3/4/5/6/7) and the what-if sweep are
//! **plan builders + renderers**: a `*_requests` function enumerates the
//! figure's canonical [`RunRequest`](prem_harness::RunRequest)s and a
//! `*_with` renderer draws the figure from any
//! [`RunSource`](prem_harness::RunSource). A standalone figure renders
//! from a fresh [`PlanExecutor`](prem_harness::PlanExecutor); the
//! `figures` binary merges all requested figures into one deduplicated
//! plan on a shared executor, so cross-figure duplicates execute once.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod chart;
pub mod common;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod interference;
pub mod mei;
pub mod obs;
pub mod whatif;
// Tables and seed statistics moved down into `prem-table` (the run-plan
// layer renders matrix artifacts with them too); re-exported here so every
// pre-refactor `prem_report::table::…` / `prem_report::stats::…` path
// keeps resolving.
pub use prem_table::{stats, table};

pub use chart::{stacked_bars, Bar};
pub use common::{
    base_request, llc_platform_config, llc_prem_config, llc_request, run_base, run_llc, run_spm,
    spm_request, Harness, DEFAULT_SEEDS, T_BASE,
};
pub use stats::{geomean, over_seeds, Stats};
pub use table::Table;

/// Re-export: Figs 3 and 5 share one result type.
pub use fig3::Fig35;
